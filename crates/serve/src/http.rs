//! A hand-written HTTP/1.1 request parser and response writer.
//!
//! Just enough of RFC 9112 for a loopback inference service: request
//! line + headers capped at 8 KiB, body length taken from
//! `Content-Length` and capped by the server's `max_body`. Connections
//! close after one exchange unless the client sends an explicit
//! `Connection: keep-alive` — the conservative inversion of the HTTP/1.1
//! default, kept so clients that read to EOF (the original loadgen mode)
//! never hang waiting for a close that isn't coming. Anything malformed
//! maps to a typed [`HttpError`] carrying the status code to answer with
//! — parsing untrusted bytes must never panic or kill a worker.

use std::io::{BufRead, Read, Write};

/// Maximum size of the request line + headers block.
const MAX_HEAD: usize = 8192;

/// HTTP methods the service routes on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
    /// Anything else (answered with 405 by the router).
    Other,
}

/// A parsed request: method, path, and the raw body bytes.
#[derive(Debug)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target, e.g. `/classify` (query strings are kept verbatim).
    pub path: String,
    /// Body bytes (`Content-Length` many).
    pub body: Vec<u8>,
    /// Whether the client sent an explicit `Connection: keep-alive` and
    /// may reuse the connection for further requests.
    pub keep_alive: bool,
}

/// Why a request could not be read; each variant maps to one status code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Syntactically invalid request (→ 400).
    BadRequest(String),
    /// Declared body exceeds the configured cap (→ 413).
    PayloadTooLarge(usize),
    /// Socket error or premature close (connection is just dropped).
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::PayloadTooLarge(n) => write!(f, "payload too large: {n} bytes"),
            HttpError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Reads and parses one HTTP/1.1 request from `stream`.
///
/// Takes a buffered reader, so a head costs a few `read` calls. A
/// connection keeps one reader across keep-alive requests: bytes
/// buffered past this request's body belong to the next.
///
/// `max_body` bounds the accepted `Content-Length`; larger declarations
/// fail fast with [`HttpError::PayloadTooLarge`] *before* reading the
/// body, so a client cannot make a worker buffer an arbitrary payload.
///
/// # Errors
/// [`HttpError::BadRequest`] on malformed syntax, [`HttpError::Io`] on
/// socket failures or short reads.
pub fn read_request(stream: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    // Read line by line until the blank line. Every `\r\n\r\n` ends in a
    // `\n`, so whole-line reads stop exactly at the end of the head and
    // consume nothing past it. `take` keeps the head within MAX_HEAD.
    let mut head = Vec::with_capacity(512);
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD {
            return Err(HttpError::BadRequest("header block too large".into()));
        }
        let room = (MAX_HEAD - head.len()) as u64;
        match stream.by_ref().take(room).read_until(b'\n', &mut head) {
            Ok(0) => {
                return Err(if head.is_empty() {
                    HttpError::Io("connection closed before request".into())
                } else {
                    HttpError::BadRequest("connection closed mid-header".into())
                })
            }
            Ok(_) => {}
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
    let head = std::str::from_utf8(&head)
        .map_err(|_| HttpError::BadRequest("non-UTF-8 header block".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version:?}"
        )));
    }
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        _ => Method::Other,
    };

    let mut content_length = 0usize;
    let mut keep_alive = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header {line:?}")));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| HttpError::BadRequest(format!("bad Content-Length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
        }
    }
    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge(content_length));
    }

    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|e| HttpError::Io(format!("short body read: {e}")))?;
    Ok(Request {
        method,
        path: path.to_string(),
        body,
        keep_alive,
    })
}

/// Writes a complete JSON response, head and body in one `write_all`
/// (one segment under `TCP_NODELAY`), and flushes. `keep_alive` selects
/// the advertised `Connection` disposition; the caller must actually
/// honour it (keep reading or drop the stream). I/O errors are returned
/// for logging but a failed write just ends the connection either way.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let mut message = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n",
        body.len()
    );
    message.push_str(body);
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()), 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let r =
            parse("POST /classify HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.path, "/classify");
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn parses_a_get_without_body() {
        let r = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/healthz");
        assert!(r.body.is_empty());
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let r = parse("POST / HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\n\r\nhi").unwrap();
        assert_eq!(r.body, b"hi");
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /x\r\n\r\n",                // missing version
            "GET /x HTTP/1.1 extra\r\n\r\n", // too many tokens
            "GET /x SMTP/1.0\r\n\r\n",       // wrong protocol
            "GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: dog\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "{raw:?} must be a 400"
            );
        }
    }

    #[test]
    fn oversized_declared_body_is_413_before_reading_it() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        assert!(matches!(
            parse(raw),
            Err(HttpError::PayloadTooLarge(999999))
        ));
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(parse(raw), Err(HttpError::Io(_))));
    }

    #[test]
    fn unbounded_header_block_is_rejected() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(20_000));
        assert!(matches!(parse(&raw), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn response_writer_emits_valid_http() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "{\"ok\":true}", false).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 11\r\n"));
        assert!(s.contains("Connection: close\r\n"));
        assert!(s.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn response_writer_advertises_keep_alive() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "{}", true).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn keep_alive_requires_an_explicit_header() {
        // HTTP/1.1 defaults to persistent connections, but this server
        // only holds one open when asked — EOF-reading clients rely on it.
        let r = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse("GET /healthz HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
        let r = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
    }
}
