//! The traced run's instruments, all outside the program: a sample
//! recorder, and decorators at the three public seams — `RequestHandler`
//! (around `Service`, `Router` and `ShardServer`), `ShardBackend` (around
//! each `RemoteShard`) and `Transport` (around `RealTcp`).

use crate::common::now;
use crate::stats;
use crowdnet_chaos::{Conn, Transport};
use crowdnet_json::Value;
use crowdnet_serve::{Request, RequestHandler, Response};
use crowdnet_shard::{EpochMeta, Job, ShardBackend, ShardError, ShardHealth, WriteAck, WriteOp};
use crowdnet_store::store::NamespaceStats;
use crowdnet_store::{Document, SnapshotId};
use crowdnet_telemetry::Counter;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Named samples (durations in µs unless the name says otherwise). While
/// paused, the decorators feeding it forward calls without timing them,
/// so one deployment serves both the untraced and the traced phase.
#[derive(Default)]
pub struct Recorder {
    samples: Mutex<BTreeMap<String, Vec<f64>>>,
    paused: AtomicBool,
}

impl Recorder {
    pub fn set_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::SeqCst);
    }

    pub fn paused(&self) -> bool {
        self.paused.load(Ordering::Relaxed)
    }

    pub fn record(&self, key: &str, value: f64) {
        if self.paused() {
            return;
        }
        self.samples
            .lock()
            // Each update is one push, so a panicking holder leaves the
            // map valid.
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key.to_string())
            .or_default()
            .push(value);
    }

    pub fn values(&self, key: &str) -> Vec<f64> {
        self.samples
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned()
            .unwrap_or_default()
    }

    pub fn median(&self, key: &str) -> f64 {
        stats::median(&self.values(key))
    }

    pub fn count(&self, key: &str) -> usize {
        self.values(key).len()
    }

    /// Time `f` and record its duration in µs under `key`.
    pub fn time<T>(&self, key: &str, f: impl FnOnce() -> T) -> T {
        if self.paused() {
            return f();
        }
        let t = now();
        let out = f();
        self.record(key, elapsed_us(t));
        out
    }
}

pub fn elapsed_us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Times every request a handler answers, under `<layer>.<class>`. With a
/// cache-miss counter attached, the class gets a `.miss` suffix when the
/// counter moved during the call and `.hit` otherwise. Under concurrency a
/// hit that overlaps another request's miss is labelled a miss; misses are
/// the rare case, so both labels stay nearly pure. A `submit` leg marks the
/// next other leg as the one that pays the epoch refresh, recorded again
/// under `<layer>.epoch_refresh`.
pub struct TimedHandler {
    inner: Arc<dyn RequestHandler>,
    rec: Arc<Recorder>,
    layer: &'static str,
    classify: fn(&Request) -> String,
    misses: Option<Counter>,
    /// Set by a `submit` leg; the next other leg pays the epoch refresh.
    dirty: AtomicBool,
}

impl TimedHandler {
    pub fn new(
        inner: Arc<dyn RequestHandler>,
        rec: Arc<Recorder>,
        layer: &'static str,
        classify: fn(&Request) -> String,
    ) -> TimedHandler {
        TimedHandler {
            inner,
            rec,
            layer,
            classify,
            misses: None,
            dirty: AtomicBool::new(false),
        }
    }

    pub fn with_cache_misses(mut self, misses: Counter) -> TimedHandler {
        self.misses = Some(misses);
        self
    }
}

impl RequestHandler for TimedHandler {
    fn handle(&self, req: &Request) -> Response {
        if self.rec.paused() {
            return self.inner.handle(req);
        }
        let misses_before = self.misses.as_ref().map(Counter::value);
        let t = now();
        let response = self.inner.handle(req);
        let us = elapsed_us(t);
        let class = (self.classify)(req);
        let key = match (misses_before, &self.misses) {
            (Some(before), Some(c)) if c.value() > before => format!("{}.{class}.miss", self.layer),
            (Some(_), Some(_)) => format!("{}.{class}.hit", self.layer),
            _ => format!("{}.{class}", self.layer),
        };
        self.rec.record(&key, us);
        if class == "submit" {
            self.dirty.store(true, Ordering::SeqCst);
        } else if self.dirty.swap(false, Ordering::SeqCst) {
            self.rec
                .record(&format!("{}.epoch_refresh", self.layer), us);
        }
        response
    }
}

/// The leg a shard-server request carries: `/shard/<leg>`.
pub fn shard_leg(req: &Request) -> String {
    req.path().trim_start_matches("/shard/").to_string()
}

/// Times every leg a shard backend answers, client side, under
/// `leg.<name>`.
pub struct TimedBackend {
    inner: Arc<dyn ShardBackend>,
    rec: Arc<Recorder>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn ShardBackend>, rec: Arc<Recorder>) -> TimedBackend {
        TimedBackend { inner, rec }
    }
}

impl ShardBackend for TimedBackend {
    fn index(&self) -> usize {
        self.inner.index()
    }
    fn health(&self) -> ShardHealth {
        self.inner.health()
    }
    fn set_health(&self, health: ShardHealth) {
        self.inner.set_health(health)
    }
    fn epoch_meta(&self) -> Result<EpochMeta, ShardError> {
        self.rec.time("leg.epoch_meta", || self.inner.epoch_meta())
    }
    fn scan_partitions(
        &self,
        ns: &str,
        snapshot: SnapshotId,
    ) -> Result<Vec<Vec<Document>>, ShardError> {
        self.rec.time("leg.scan_partitions", || {
            self.inner.scan_partitions(ns, snapshot)
        })
    }
    fn entity_docs(&self, keys: &[String]) -> Result<Vec<Option<Value>>, ShardError> {
        self.rec
            .time("leg.entity_docs", || self.inner.entity_docs(keys))
    }
    fn investor_edges(&self, id: u32) -> Result<Option<Vec<u32>>, ShardError> {
        self.rec
            .time("leg.investor_edges", || self.inner.investor_edges(id))
    }
    fn company_edges(&self, id: u32) -> Result<Option<Vec<u32>>, ShardError> {
        self.rec
            .time("leg.company_edges", || self.inner.company_edges(id))
    }
    fn top_k_prefix(&self, k: usize) -> Result<Vec<(u32, f64)>, ShardError> {
        self.rec
            .time("leg.top_k_prefix", || self.inner.top_k_prefix(k))
    }
    fn shard_stats(&self) -> Result<Vec<NamespaceStats>, ShardError> {
        self.rec
            .time("leg.shard_stats", || self.inner.shard_stats())
    }
    fn submit(&self, op: &WriteOp) -> Result<WriteAck, ShardError> {
        self.rec.time("leg.submit", || self.inner.submit(op))
    }
    fn offload(&self, job: Job) -> Result<(), Job> {
        self.inner.offload(job)
    }
    fn recover(&self) -> Result<(), ShardError> {
        self.inner.recover()
    }
}

/// Byte and connection counts of every connection a transport dials.
#[derive(Default)]
pub struct WireStats {
    pub connects: AtomicU64,
    pub bytes_out: AtomicU64,
    pub bytes_in: AtomicU64,
}

impl WireStats {
    pub fn bytes(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed) + self.bytes_in.load(Ordering::Relaxed)
    }
}

/// A transport that counts what its inner transport carries.
pub struct CountingTransport {
    inner: Arc<dyn Transport>,
    stats: Arc<WireStats>,
}

impl CountingTransport {
    pub fn new(inner: Arc<dyn Transport>, stats: Arc<WireStats>) -> CountingTransport {
        CountingTransport { inner, stats }
    }
}

impl Transport for CountingTransport {
    fn connect(&self, addr: SocketAddr, timeout: Duration) -> io::Result<Box<dyn Conn>> {
        let inner = self.inner.connect(addr, timeout)?;
        self.stats.connects.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(CountingConn {
            inner,
            stats: Arc::clone(&self.stats),
        }))
    }
}

struct CountingConn {
    inner: Box<dyn Conn>,
    stats: Arc<WireStats>,
}

impl Conn for CountingConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)?;
        self.stats
            .bytes_out
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn set_read_timeout(&mut self, budget: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(budget)
    }
    fn set_write_timeout(&mut self, budget: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(budget)
    }
}

/// A layer breakdown: named layer times that, with the residual, add up to
/// the measured total.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    pub layers: Vec<(String, f64)>,
    pub total: f64,
    pub residual: f64,
}

impl Breakdown {
    /// The residual is whatever of `total` the named layers do not cover
    /// (negative when layers overlap, e.g. concurrent legs).
    pub fn new(total: f64, layers: Vec<(String, f64)>) -> Breakdown {
        let covered: f64 = layers.iter().map(|(_, v)| v).sum();
        Breakdown {
            residual: total - covered,
            layers,
            total,
        }
    }

    #[cfg(test)]
    pub fn sum(&self) -> f64 {
        self.layers.iter().map(|(_, v)| v).sum::<f64>() + self.residual
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_plus_residual_equal_the_total() {
        let cases = [
            (100.0, vec![("a", 30.0), ("b", 50.0)]),
            (10.0, vec![("a", 7.5), ("b", 4.0)]), // overlapping layers
            (0.25, vec![]),
        ];
        for (total, layers) in cases {
            let b = Breakdown::new(
                total,
                layers
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            );
            assert!((b.sum() - total).abs() < 1e-9, "{b:?}");
        }
    }

    struct Echo;
    impl RequestHandler for Echo {
        fn handle(&self, req: &Request) -> Response {
            Response::json(200, &Value::from(req.target.as_str()))
        }
    }

    #[test]
    fn timed_handler_classifies_hits_and_epoch_refreshes() {
        let rec = Arc::new(Recorder::default());
        let misses = Counter::new();
        let h = TimedHandler::new(Arc::new(Echo), Arc::clone(&rec), "shard", shard_leg)
            .with_cache_misses(misses.clone());
        h.handle(&Request::get("/shard/entity_docs"));
        h.handle(&Request::get("/shard/submit"));
        h.handle(&Request::get("/shard/scan_partitions"));
        h.handle(&Request::get("/shard/scan_partitions"));
        assert_eq!(rec.count("shard.entity_docs.hit"), 1);
        assert_eq!(rec.count("shard.scan_partitions.hit"), 2);
        assert_eq!(rec.count("shard.epoch_refresh"), 1);
    }
}
