//! The load generator: keep-alive HTTP connections driven closed-loop or
//! on an open-loop schedule.
//!
//! Each connection has its own client thread, and connections never
//! outnumber the server's workers (a kept-alive connection pins one).

use crate::plan::Request;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What one request came back with.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Plan index of the request.
    pub index: usize,
    /// HTTP status, or 0 when the exchange failed at the socket.
    pub status: u16,
    pub body: String,
    /// Closed loop: send to last byte. Open loop: due time to last byte.
    pub latency_ns: u64,
    /// Open loop only: how late the request left against its due time.
    pub lag_ns: u64,
}

/// One persistent connection. Responses are framed by `Content-Length`,
/// and the reader owns the stream, so bytes buffered past one response
/// belong to the next.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(s),
        })
    }

    /// Sends one request and reads its response: `(status, body)`.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let w = self.reader.get_mut();
        w.write_all(head.as_bytes())?;
        w.write_all(body.as_bytes())?;
        w.flush()?;
        let mut status = 0u16;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            let t = line.trim_end();
            if t.is_empty() {
                break;
            }
            if let Some(rest) = t.strip_prefix("HTTP/1.1 ") {
                status = rest
                    .split(' ')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
            } else if let Some((name, value)) = t.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
            }
        }
        let mut bytes = vec![0u8; content_length];
        self.reader.read_exact(&mut bytes)?;
        let body = String::from_utf8(bytes)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        Ok((status, body))
    }

    fn send(&mut self, r: &Request) -> std::io::Result<(u16, String)> {
        self.exchange("POST", r.route.path(), &r.body)
    }
}

/// Sends `r` on `conn`, reconnecting once the connection has failed: a
/// socket error is that request's failure, not the rest of the phase's.
fn send_counted(conn: &mut Option<Conn>, addr: SocketAddr, r: &Request) -> (u16, String) {
    if conn.is_none() {
        *conn = Conn::connect(addr).ok();
    }
    let result = match conn.as_mut() {
        Some(c) => c.send(r),
        None => return (0, String::new()),
    };
    match result {
        Ok(reply) => reply,
        Err(_) => {
            *conn = None;
            (0, String::new())
        }
    }
}

/// Closed loop: `conns` clients send the requests of `plan` in order,
/// each waiting for its reply before taking the next index, until all are
/// answered. Returns the outcomes in plan order and the phase's wall time.
pub fn closed_loop(addr: SocketAddr, plan: &[Request], conns: usize) -> (Vec<Outcome>, Duration) {
    let cursor = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut out: Vec<Outcome> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = None;
                    let mut done = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(r) = plan.get(index) else { break };
                        let sent = Instant::now();
                        let (status, body) = send_counted(&mut conn, addr, r);
                        done.push(Outcome {
                            index,
                            status,
                            body,
                            latency_ns: sent.elapsed().as_nanos() as u64,
                            lag_ns: 0,
                        });
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("closed-loop client thread"))
            .collect()
    });
    let wall = t0.elapsed();
    out.sort_by_key(|o| o.index);
    (out, wall)
}

/// Open loop: request `j` of the phase is plan index `start + j` and is
/// due `schedule[j]` after the phase starts, whatever the server is doing.
/// A free client sends it at its due time (or at once, when it is already
/// late), and its latency runs from the due time, so a stall is charged to
/// every request it delays. Returns the outcomes in plan order.
pub fn open_loop(
    addr: SocketAddr,
    plan: &[Request],
    start: usize,
    schedule: &[Duration],
    conns: usize,
) -> Vec<Outcome> {
    let cursor = AtomicUsize::new(0);
    let count = schedule.len().min(plan.len().saturating_sub(start));
    let t0 = Instant::now();
    let mut out: Vec<Outcome> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = None;
                    let mut done = Vec::new();
                    loop {
                        let j = cursor.fetch_add(1, Ordering::Relaxed);
                        if j >= count {
                            break;
                        }
                        let due = t0 + schedule[j];
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let (status, body) = send_counted(&mut conn, addr, &plan[start + j]);
                        let finished = Instant::now();
                        done.push(Outcome {
                            index: start + j,
                            status,
                            body,
                            latency_ns: finished.duration_since(due).as_nanos() as u64,
                            lag_ns: sent.saturating_duration_since(due).as_nanos() as u64,
                        });
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("open-loop client thread"))
            .collect()
    });
    out.sort_by_key(|o| o.index);
    out
}
