//! Load generators: an open loop that sends on a fixed schedule and times
//! every request from when it was due, and a closed loop that keeps each
//! connection busy with back-to-back requests.

use crate::common::now;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One executed operation.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Position in the schedule.
    pub index: usize,
    /// Completion minus the due time (open loop) or the send time (closed
    /// loop), in microseconds.
    pub latency_us: f64,
    /// Send time minus due time: how far the generator ran behind.
    pub late_us: f64,
    /// The operation's answer passed the in-window checks (status).
    pub ok: bool,
}

/// A lane executes operation `i` on its own connection and reports whether
/// the answer came back well-formed.
pub type Lane<'a> = Box<dyn FnMut(usize) -> bool + Send + 'a>;

/// Sleep until `due`, waking a little early and yielding for the rest, so
/// the send time stays within tens of microseconds of the schedule
/// without burning a core the server needs.
fn wait_until(due: Instant) {
    const EARLY: Duration = Duration::from_micros(150);
    let t = now();
    if due > t + EARLY {
        std::thread::sleep(due - t - EARLY);
    }
    while now() < due {
        std::thread::yield_now();
    }
}

/// Open loop: operation `i` is due at `start + i * interval` and runs on
/// lane `i % lanes`. A lane that is still busy with an earlier operation
/// sends late, and that wait is charged to the late operation's latency.
pub fn open_loop(lanes: Vec<Lane<'_>>, count: usize, interval: Duration) -> Vec<Timing> {
    let lane_count = lanes.len().max(1);
    let start = now() + Duration::from_millis(2);
    let mut out: Vec<Timing> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(lane_idx, mut lane)| {
                scope.spawn(move || {
                    let mut timings = Vec::new();
                    for index in (lane_idx..count).step_by(lane_count) {
                        let due = start + interval * index as u32;
                        wait_until(due);
                        let sent = now();
                        let ok = lane(index);
                        let done = now();
                        timings.push(Timing {
                            index,
                            latency_us: micros(done.saturating_duration_since(due)),
                            late_us: micros(sent.saturating_duration_since(due)),
                            ok,
                        });
                    }
                    timings
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    out.sort_by_key(|t| t.index);
    out
}

/// Closed loop: every lane takes the next unclaimed operation as soon as
/// its previous one completes. Returns the timings and the wall time of
/// the whole batch.
pub fn closed_loop(lanes: Vec<Lane<'_>>, count: usize) -> (Vec<Timing>, Duration) {
    let next = AtomicUsize::new(0);
    let start = now();
    let mut out: Vec<Timing> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|mut lane| {
                let next = &next;
                scope.spawn(move || {
                    let mut timings = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= count {
                            return timings;
                        }
                        let sent = now();
                        let ok = lane(index);
                        timings.push(Timing {
                            index,
                            latency_us: micros(sent.elapsed()),
                            late_us: 0.0,
                            ok,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let wall = start.elapsed();
    out.sort_by_key(|t| t.index);
    (out, wall)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One injected 40 ms server stall on a single connection: every
    /// request due while the stall lasts is charged the wait from its own
    /// due time, not from the moment the generator got round to sending.
    #[test]
    fn open_loop_charges_a_stall_to_every_request_behind_it() {
        let interval = Duration::from_millis(1);
        let stall = Duration::from_millis(40);
        let stalled = 10usize;
        let lane: Lane = Box::new(move |i| {
            if i == stalled {
                std::thread::sleep(stall);
            }
            true
        });
        let timings = open_loop(vec![lane], 80, interval);
        assert_eq!(timings.len(), 80);
        let stall_us = micros(stall);
        for t in &timings[stalled..] {
            // Due (i - stalled) ms after the stalled request, done no
            // earlier than the stall's end.
            let behind = stall_us - micros(interval) * (t.index - stalled) as f64;
            if behind > 0.0 {
                assert!(
                    t.latency_us >= behind,
                    "request {} latency {} < {behind}",
                    t.index,
                    t.latency_us
                );
                if t.index > stalled {
                    assert!(
                        t.late_us >= behind - 1_000.0,
                        "request {} not late",
                        t.index
                    );
                }
            }
        }
        // Well after the stall the generator has caught up.
        assert!(timings[79].latency_us < 5_000.0, "{:?}", timings[79]);
    }

    #[test]
    fn open_loop_spreads_requests_over_lanes_in_schedule_order() {
        let lanes: Vec<Lane> = (0..3).map(|_| Box::new(|_: usize| true) as Lane).collect();
        let timings = open_loop(lanes, 30, Duration::from_micros(200));
        let indices: Vec<usize> = timings.iter().map(|t| t.index).collect();
        assert_eq!(indices, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn closed_loop_runs_every_operation_once() {
        let lanes: Vec<Lane> = (0..2)
            .map(|_| Box::new(|i: usize| i % 7 != 3) as Lane)
            .collect();
        let (timings, wall) = closed_loop(lanes, 50);
        assert_eq!(timings.len(), 50);
        assert_eq!(timings.iter().filter(|t| !t.ok).count(), 7);
        assert!(wall > Duration::ZERO);
    }
}
