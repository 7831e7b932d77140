//! The benchmark's HTTP/1.1 client and open-loop request schedule.
//!
//! * Responses are framed by `Content-Length`; a response without one
//!   is read to end of stream.
//! * The connection is reused for the next request unless the response
//!   says `Connection: close`, so a server that keeps connections alive
//!   is measured that way without changing the benchmark.
//! * [`Schedule`] fixes when each request is due. Latency is measured
//!   from that due time, not from when the request was actually sent, so
//!   a stall that delays later requests counts against them, and the
//!   lateness of each send is reported alongside.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Whether the server closes the connection after this response.
    pub close: bool,
}

/// A client holding at most one connection.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened so far.
    connects: u64,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Client {
    /// A client for `addr`; every connect, read and write is bounded by
    /// `timeout`.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            conn: None,
            buf: Vec::new(),
            connects: 0,
        }
    }

    fn connect(&mut self) -> io::Result<()> {
        let s = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(self.timeout))?;
        s.set_write_timeout(Some(self.timeout))?;
        self.conn = Some(s);
        self.buf.clear();
        self.connects += 1;
        Ok(())
    }

    /// Sends one request and reads its response. Also returns the time
    /// spent opening a connection, zero when one was reused.
    ///
    /// # Errors
    ///
    /// Connect, write or read failures, a timeout, or a malformed
    /// response. The connection is dropped after any error.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(Response, Duration)> {
        let start = Instant::now();
        let mut connect = Duration::ZERO;
        let reused = self.conn.is_some();
        if !reused {
            self.connect()?;
            connect = start.elapsed();
        }
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: kbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let sent = self.send(head.as_bytes(), body);
        let result = match sent {
            // A kept-alive connection the server has since closed: retry
            // once on a fresh one.
            Err(_) if reused => {
                let t = Instant::now();
                self.connect()?;
                connect = t.elapsed();
                self.send(head.as_bytes(), body)
                    .and_then(|()| self.read_response())
            }
            Err(e) => Err(e),
            Ok(()) => self.read_response(),
        };
        match result {
            Ok(resp) => {
                if resp.close {
                    self.conn = None;
                }
                Ok((resp, connect))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    fn send(&mut self, head: &[u8], body: &[u8]) -> io::Result<()> {
        let conn = self.conn.as_mut().ok_or_else(|| bad("not connected"))?;
        conn.write_all(head)?;
        conn.write_all(body)?;
        conn.flush()
    }

    /// Reads more bytes into the buffer; `Ok(false)` at end of stream.
    fn fill(&mut self) -> io::Result<bool> {
        let conn = self.conn.as_mut().ok_or_else(|| bad("not connected"))?;
        let mut chunk = [0u8; 8192];
        loop {
            match conn.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn read_response(&mut self) -> io::Result<Response> {
        loop {
            let head_end = loop {
                if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    break p;
                }
                if !self.fill()? {
                    return Err(bad("connection closed before a response head"));
                }
            };
            let head = std::str::from_utf8(&self.buf[..head_end])
                .map_err(|_| bad("response head is not UTF-8"))?
                .to_string();
            self.buf.drain(..head_end + 4);
            let mut lines = head.split("\r\n");
            let status: u16 = lines
                .next()
                .and_then(|l| l.split(' ').nth(1))
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("malformed status line"))?;
            let mut length = None;
            let mut close = false;
            for line in lines {
                let Some((name, value)) = line.split_once(':') else {
                    return Err(bad("malformed header"));
                };
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| bad("bad content-length"))?,
                    );
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
            if status == 100 {
                continue;
            }
            let body = match length {
                Some(n) => {
                    while self.buf.len() < n {
                        if !self.fill()? {
                            return Err(bad("connection closed mid-body"));
                        }
                    }
                    self.buf.drain(..n).collect()
                }
                None => {
                    while self.fill()? {}
                    close = true;
                    std::mem::take(&mut self.buf)
                }
            };
            return Ok(Response {
                status,
                body,
                close,
            });
        }
    }
}

/// Fixed-interval due times for an open-loop generator.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    /// Request `i` is due at `start + i · interval`.
    pub fn new(start: Instant, interval: Duration) -> Schedule {
        Schedule { start, interval }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// Sleeps until request `i` is due and returns how late the send is.
    pub fn wait(&self, i: u64) -> (Instant, Duration) {
        let due = self.due(i);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        (due, Instant::now().saturating_duration_since(due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves `requests` requests on each accepted connection, closing
    /// after each response when `close` is set, after sleeping `stall`
    /// before the first response.
    fn responder(
        close: bool,
        stall: Duration,
        requests: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut served = 0;
            let mut connections = 0;
            while served < requests {
                let (mut s, _) = listener.accept().unwrap();
                connections += 1;
                let mut buf = Vec::new();
                loop {
                    let mut chunk = [0u8; 1024];
                    let Some(end) = buf.windows(4).position(|w: &[u8]| w == b"\r\n\r\n") else {
                        let n = s.read(&mut chunk).unwrap();
                        if n == 0 {
                            break;
                        }
                        buf.extend_from_slice(&chunk[..n]);
                        continue;
                    };
                    let head = String::from_utf8_lossy(&buf[..end]).to_string();
                    let len: usize = head
                        .lines()
                        .find_map(|l| l.strip_prefix("Content-Length: "))
                        .map_or(0, |v| v.parse().unwrap());
                    while buf.len() < end + 4 + len {
                        let n = s.read(&mut chunk).unwrap();
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    let body = buf[end + 4..end + 4 + len].to_vec();
                    buf.drain(..end + 4 + len);
                    if served == 0 {
                        std::thread::sleep(stall);
                    }
                    let conn = if close { "Connection: close\r\n" } else { "" };
                    let reply = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n{conn}\r\n",
                        body.len()
                    );
                    s.write_all(reply.as_bytes()).unwrap();
                    s.write_all(&body).unwrap();
                    served += 1;
                    if close || served == requests {
                        break;
                    }
                }
            }
            connections
        });
        (addr, handle)
    }

    #[test]
    fn keep_alive_reuses_one_connection() {
        let (addr, server) = responder(false, Duration::ZERO, 3);
        let mut c = Client::new(addr, Duration::from_secs(5));
        for i in 0..3 {
            let body = format!("echo {i}");
            let (r, connect) = c.request("POST", "/x", body.as_bytes()).unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(r.body, body.as_bytes());
            assert!(!r.close);
            assert_eq!(connect.is_zero(), i > 0);
        }
        assert_eq!(c.connects, 1);
        assert_eq!(server.join().unwrap(), 1);
    }

    #[test]
    fn connection_close_opens_a_fresh_connection() {
        let (addr, server) = responder(true, Duration::ZERO, 3);
        let mut c = Client::new(addr, Duration::from_secs(5));
        for _ in 0..3 {
            let (r, connect) = c.request("GET", "/", b"").unwrap();
            assert!(r.close);
            assert!(connect > Duration::ZERO);
        }
        assert_eq!(c.connects, 3);
        assert_eq!(server.join().unwrap(), 3);
    }

    #[test]
    fn a_stall_shows_as_lateness_and_latency_from_the_due_time() {
        let stall = Duration::from_millis(80);
        let (addr, server) = responder(false, stall, 3);
        let mut c = Client::new(addr, Duration::from_secs(5));
        let sched = Schedule::new(Instant::now(), Duration::from_millis(10));
        let mut measured = Vec::new();
        for i in 0..3 {
            let (due, late) = sched.wait(i);
            c.request("POST", "/x", b"ping").unwrap();
            measured.push((late, due.elapsed()));
        }
        server.join().unwrap();
        // The first request waits out the stall itself; the next two were
        // due while it was stalled, so they are sent late and their
        // latency, measured from the due time, carries that wait.
        assert!(measured[0].1 >= stall);
        for &(late, latency) in &measured[1..] {
            assert!(late >= stall / 2, "late {late:?}");
            assert!(latency >= late);
        }
    }
}
