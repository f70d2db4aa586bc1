//! A keep-alive HTTP/1.1 client dialled through the `Transport` seam, and
//! the incremental response reader it parses replies with.

use crowdnet_chaos::{Conn, Transport};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server announced it will close the connection after this reply.
    pub close: bool,
}

/// Incremental response parser: `feed` bytes as they arrive in whatever
/// pieces the socket hands over, then `poll` for a complete reply.
#[derive(Debug, Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
}

impl ResponseReader {
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when no byte of a reply has arrived yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// A complete reply when one is buffered (its bytes are consumed),
    /// `Ok(None)` when more bytes are needed, an error on a malformed head.
    pub fn poll(&mut self) -> Result<Option<Reply>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not utf-8".to_string())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().unwrap_or_default();
        if !version.starts_with("HTTP/1.") {
            return Err(format!("bad status line {status_line:?}"));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut length = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(format!("bad header line {line:?}"));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| format!("bad length {value:?}"))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Reply {
            status,
            body,
            close,
        }))
    }
}

/// The request bytes the client sends for `GET target`.
pub fn get_request(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: crowdbench\r\nConnection: keep-alive\r\n\r\n")
        .into_bytes()
}

/// A single keep-alive connection to one server, re-dialled when the
/// server closes it (after `Connection: close`, or between requests).
pub struct Client {
    transport: Arc<dyn Transport>,
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<Box<dyn Conn>>,
    reader: ResponseReader,
    /// Connections opened after the first one.
    pub reconnects: u64,
    dialled: bool,
}

impl Client {
    pub fn new(transport: Arc<dyn Transport>, addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            transport,
            addr,
            timeout,
            conn: None,
            reader: ResponseReader::default(),
            reconnects: 0,
            dialled: false,
        }
    }

    fn connect(&mut self) -> Result<(), String> {
        let mut conn = self
            .transport
            .connect(self.addr, self.timeout)
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        conn.set_read_timeout(Some(self.timeout))
            .map_err(|e| e.to_string())?;
        conn.set_write_timeout(Some(self.timeout))
            .map_err(|e| e.to_string())?;
        if self.dialled {
            self.reconnects += 1;
        }
        self.dialled = true;
        self.reader = ResponseReader::default();
        self.conn = Some(conn);
        Ok(())
    }

    /// Send `GET target` and wait for the whole reply. A reused connection
    /// that the server closed while idle is re-dialled once.
    pub fn get(&mut self, target: &str) -> Result<Reply, String> {
        let request = get_request(target);
        let reused = self.conn.is_some();
        match self.exchange(&request) {
            Err(Exchange::ClosedBeforeReply) if reused => self.exchange(&request),
            other => other,
        }
        .map_err(|e| match e {
            Exchange::ClosedBeforeReply => "server closed before replying".to_string(),
            Exchange::Failed(m) => m,
        })
    }

    fn exchange(&mut self, request: &[u8]) -> Result<Reply, Exchange> {
        if self.conn.is_none() {
            self.connect().map_err(Exchange::Failed)?;
        }
        let conn = self.conn.as_mut().ok_or(Exchange::ClosedBeforeReply)?;
        if conn.write_all(request).and_then(|_| conn.flush()).is_err() {
            self.conn = None;
            return Err(Exchange::ClosedBeforeReply);
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.reader.poll() {
                Ok(Some(reply)) => {
                    if reply.close {
                        self.conn = None;
                    }
                    return Ok(reply);
                }
                Ok(None) => {}
                Err(e) => {
                    self.conn = None;
                    return Err(Exchange::Failed(e));
                }
            }
            let Some(conn) = self.conn.as_mut() else {
                return Err(Exchange::ClosedBeforeReply);
            };
            match conn.read(&mut buf) {
                Ok(0) => {
                    let empty = self.reader.is_empty();
                    self.conn = None;
                    return Err(if empty {
                        Exchange::ClosedBeforeReply
                    } else {
                        Exchange::Failed("server closed mid-reply".into())
                    });
                }
                Ok(n) => self.reader.feed(&buf[..n]),
                Err(e) => {
                    self.conn = None;
                    return Err(Exchange::Failed(format!("read: {e}")));
                }
            }
        }
    }
}

enum Exchange {
    /// The connection ended before any byte of the reply: safe to resend
    /// a GET on a fresh connection.
    ClosedBeforeReply,
    Failed(String),
}

#[cfg(test)]
mod tests {
    use super::{Client, ResponseReader};
    use crowdnet_chaos::RealTcp;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::time::Duration;

    fn encoded(status: u16, body: &str, close: bool) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
            body.len(),
            if close { "close" } else { "keep-alive" }
        )
        .into_bytes()
    }

    #[test]
    fn reader_handles_every_read_split() {
        let mut wire = encoded(200, "{\"a\":1}", false);
        wire.extend(encoded(404, "{\"error\":\"x\"}", true));
        // Every pair of cut points: three reads of arbitrary sizes.
        for i in 0..=wire.len() {
            for j in i..=wire.len() {
                let mut r = ResponseReader::default();
                let mut got = Vec::new();
                for piece in [&wire[..i], &wire[i..j], &wire[j..]] {
                    r.feed(piece);
                    while let Some(reply) = r.poll().unwrap() {
                        got.push(reply);
                    }
                }
                assert_eq!(got.len(), 2, "split at {i}/{j}");
                assert_eq!((got[0].status, got[0].close), (200, false));
                assert_eq!(got[0].body, b"{\"a\":1}");
                assert_eq!((got[1].status, got[1].close), (404, true));
                assert!(r.is_empty());
            }
        }
    }

    #[test]
    fn reader_rejects_garbage_and_waits_for_short_bodies() {
        let mut r = ResponseReader::default();
        r.feed(b"SSH-2.0\r\n\r\n");
        assert!(r.poll().is_err());
        let mut r = ResponseReader::default();
        let wire = encoded(200, "0123456789", false);
        r.feed(&wire[..wire.len() - 1]);
        assert_eq!(r.poll().unwrap(), None);
    }

    /// A server that answers each connection's requests one byte at a time
    /// and closes after `per_conn` replies; the client must re-dial.
    #[test]
    fn client_survives_dribbled_replies_and_server_side_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let per_conn = 2;
        let server = std::thread::spawn(move || {
            for _ in 0..3 {
                let (mut sock, _) = listener.accept().unwrap();
                for n in 0..per_conn {
                    let mut seen = Vec::new();
                    let mut byte = [0u8; 1];
                    while !seen.ends_with(b"\r\n\r\n") {
                        if sock.read(&mut byte).unwrap() == 0 {
                            return;
                        }
                        seen.push(byte[0]);
                    }
                    let close = n + 1 == per_conn;
                    for b in encoded(200, "{\"ok\":true}", close) {
                        sock.write_all(&[b]).unwrap();
                        sock.flush().unwrap();
                    }
                }
            }
        });
        let mut client = Client::new(Arc::new(RealTcp), addr, Duration::from_secs(5));
        for _ in 0..6 {
            let reply = client.get("/x").unwrap();
            assert_eq!(reply.status, 200);
            assert_eq!(reply.body, b"{\"ok\":true}");
        }
        assert_eq!(client.reconnects, 2);
        server.join().unwrap();
    }

    /// A server that closes an idle keep-alive connection without saying
    /// so: the next request is resent once on a fresh connection.
    #[test]
    fn client_redials_after_silent_idle_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut sock, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let mut seen = Vec::new();
                while !seen.ends_with(b"\r\n\r\n") {
                    let n = sock.read(&mut buf).unwrap();
                    seen.extend_from_slice(&buf[..n]);
                }
                sock.write_all(&encoded(200, "{}", false)).unwrap();
                // Dropped without `Connection: close`.
            }
        });
        let mut client = Client::new(Arc::new(RealTcp), addr, Duration::from_secs(5));
        assert_eq!(client.get("/a").unwrap().status, 200);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(client.get("/b").unwrap().status, 200);
        assert_eq!(client.reconnects, 1);
        server.join().unwrap();
    }
}
