//! Minimal HTTP/1.1 framing over std I/O: request parsing with
//! `Content-Length` bodies and keep-alive, response serialisation with
//! a small status table.
//!
//! This is deliberately not a general HTTP implementation — it covers
//! exactly the subset the front-end speaks (no chunked encoding, no
//! continuation headers, ASCII header names) and rejects everything
//! else with a typed parse error so a malformed peer gets a `400`, not
//! a hung connection. The reactor frames requests with the incremental
//! [`RequestParser`]; the blocking one-shot [`read_request`] stays only
//! as its reference, which the `http_incremental` proptest pins it
//! against.

use std::io::{BufRead, Write};

/// Largest accepted request body; larger bodies reject with `413`
/// rather than letting one peer balloon server memory.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path including any query string.
    pub path: String,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The first header with this (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to close the connection after this
    /// request (`Connection: close`).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why [`read_request`] returned without a request.
#[derive(Debug)]
pub enum RecvError {
    /// The read timed out before any byte of a new request arrived —
    /// the keep-alive connection is simply idle. Poll again (or stop,
    /// if the server is draining).
    Idle,
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The bytes received do not parse as an HTTP request this server
    /// speaks; reply `400` and close.
    Malformed(String),
    /// Transport failure (including a timeout mid-request).
    Io(std::io::Error),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Idle => write!(f, "idle (no request within the read timeout)"),
            RecvError::Closed => write!(f, "connection closed by peer"),
            RecvError::Malformed(why) => write!(f, "malformed request: {why}"),
            RecvError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one CRLF- (or LF-) terminated line. `Ok(None)` on EOF with
/// nothing read; timeouts surface as `Io` (the caller maps the
/// first-line case to [`RecvError::Idle`]).
fn read_line<R: BufRead>(r: &mut R) -> Result<Option<String>, std::io::Error> {
    let mut line = String::new();
    match r.read_line(&mut line) {
        Ok(0) => Ok(None),
        Ok(_) => {
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            Ok(Some(line))
        }
        Err(e) => Err(e),
    }
}

/// Reads and parses one request from a blocking reader — the reference
/// [`RequestParser`] is tested against. See [`RecvError`] for the
/// non-request outcomes; a timeout while the connection is idle
/// between requests is [`RecvError::Idle`].
///
/// # Errors
///
/// [`RecvError::Idle`], [`RecvError::Closed`], [`RecvError::Malformed`]
/// or [`RecvError::Io`] as described on each variant.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<HttpRequest, RecvError> {
    let request_line = match read_line(r) {
        Ok(None) => return Err(RecvError::Closed),
        Ok(Some(line)) if line.is_empty() => {
            return Err(RecvError::Malformed("empty request line".to_owned()))
        }
        Ok(Some(line)) => line,
        Err(e) if is_timeout(&e) => return Err(RecvError::Idle),
        Err(e) => return Err(RecvError::Io(e)),
    };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_owned(), p.to_owned(), v),
        _ => {
            return Err(RecvError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RecvError::Malformed(format!("bad version {version:?}")));
    }
    let mut headers = Vec::new();
    loop {
        let line = match read_line(r) {
            Ok(Some(line)) => line,
            Ok(None) => return Err(RecvError::Malformed("EOF inside headers".to_owned())),
            Err(e) => return Err(RecvError::Io(e)),
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RecvError::Malformed(format!("bad header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| RecvError::Malformed(format!("bad content-length {v:?}")))?,
    };
    if length > MAX_BODY_BYTES {
        return Err(RecvError::Malformed(format!(
            "body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        )));
    }
    let mut body = vec![0u8; length];
    r.read_exact(&mut body).map_err(RecvError::Io)?;
    Ok(HttpRequest {
        method,
        path,
        headers,
        body,
    })
}

/// Ceiling on buffered bytes before a request's framing completes:
/// the body cap plus room for the request line and headers. A peer
/// that exceeds it without completing a request is malformed.
pub const MAX_BUFFER_BYTES: usize = MAX_BODY_BYTES + 64 * 1024;

/// One step of incremental parsing (see [`RequestParser::poll`]).
#[derive(Debug)]
pub enum Parse {
    /// The buffered bytes are a valid prefix; feed more.
    Incomplete,
    /// One complete request, consumed from the buffer.
    Request(HttpRequest),
    /// The buffered bytes can never become a request this server
    /// speaks; reply `400` and close (same classification as
    /// [`read_request`]'s [`RecvError::Malformed`]).
    Malformed(String),
}

/// Parsed request head, cached between polls so body bytes of a large
/// request are not re-scanned on every arriving segment.
#[derive(Debug)]
struct ParsedHead {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    /// Bytes of the head section (request line through blank line).
    head_len: usize,
    /// Declared `Content-Length`.
    body_len: usize,
}

/// An incremental request parser over an owned byte buffer: feed
/// whatever segments the transport delivers, poll for complete
/// requests. Produces results identical to pulling the same byte
/// stream through [`read_request`] — the equivalence the reactor's
/// framing rests on, pinned by the `http_incremental` proptest.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    head: Option<ParsedHead>,
}

impl RequestParser {
    /// An empty parser.
    #[must_use]
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends transport bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as a request.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether a request is partially received — at least one byte
    /// buffered (or a parsed head awaiting its body). Distinguishes a
    /// *mid-request* stall (timer-reclaimed) from an *idle* keep-alive
    /// connection (left alone).
    #[must_use]
    pub fn mid_request(&self) -> bool {
        self.head.is_some() || !self.buf.is_empty()
    }

    /// Tries to complete one request from the buffered bytes,
    /// consuming it on success. Call repeatedly until
    /// [`Parse::Incomplete`] — back-to-back pipelined requests parse
    /// in arrival order.
    pub fn poll(&mut self) -> Parse {
        if self.head.is_none() {
            match self.parse_head() {
                Ok(Some(head)) => self.head = Some(head),
                Ok(None) => {
                    return if self.buf.len() > MAX_BUFFER_BYTES {
                        Parse::Malformed(format!(
                            "no complete request within {MAX_BUFFER_BYTES} buffered bytes"
                        ))
                    } else {
                        Parse::Incomplete
                    }
                }
                Err(why) => return Parse::Malformed(why),
            }
        }
        let head = self.head.as_ref().expect("head parsed above");
        let total = head.head_len + head.body_len;
        if self.buf.len() < total {
            return Parse::Incomplete;
        }
        let head = self.head.take().expect("head parsed above");
        let body = self.buf[head.head_len..total].to_vec();
        self.buf.drain(..total);
        Parse::Request(HttpRequest {
            method: head.method,
            path: head.path,
            headers: head.headers,
            body,
        })
    }

    /// Parses the head section if its bytes are all buffered.
    /// `Ok(None)` means more bytes are needed; `Err` is a permanent
    /// malformed classification (reported as soon as the offending
    /// *line* is complete, exactly like the line-at-a-time one-shot
    /// path).
    fn parse_head(&self) -> Result<Option<ParsedHead>, String> {
        let mut lines = CompleteLines {
            buf: &self.buf,
            pos: 0,
        };
        let Some(request_line) = lines.next() else {
            return Ok(None);
        };
        let request_line = trim_line(request_line);
        if request_line.is_empty() {
            return Err("empty request line".to_owned());
        }
        let mut parts = request_line.split_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) => (m.to_owned(), p.to_owned(), v),
            _ => return Err(format!("bad request line {request_line:?}")),
        };
        if !version.starts_with("HTTP/1.") {
            return Err(format!("bad version {version:?}"));
        }
        let mut headers = Vec::new();
        loop {
            let Some(raw) = lines.next() else {
                return Ok(None);
            };
            let line = trim_line(raw);
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(format!("bad header {line:?}"));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        let body_len = match headers.iter().find(|(n, _)| n == "content-length") {
            None => 0,
            Some((_, v)) => v
                .parse::<usize>()
                .map_err(|_| format!("bad content-length {v:?}"))?,
        };
        if body_len > MAX_BODY_BYTES {
            return Err(format!(
                "body of {body_len} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
            ));
        }
        Ok(Some(ParsedHead {
            method,
            path,
            headers,
            head_len: lines.pos,
            body_len,
        }))
    }
}

/// Iterator over *complete* (newline-terminated) lines of a buffer,
/// tracking how many bytes it has consumed. A trailing fragment with
/// no newline yet is not yielded.
struct CompleteLines<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for CompleteLines<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = &self.buf[self.pos..];
        let nl = rest.iter().position(|&b| b == b'\n')?;
        self.pos += nl + 1;
        Some(&rest[..=nl])
    }
}

/// Strips the line terminator and decodes, mirroring [`read_line`]'s
/// trailing `\r`/`\n` strip (lossy: the one-shot path reads lines as
/// UTF-8 and non-UTF-8 bytes cannot reach a successful parse anyway).
fn trim_line(raw: &[u8]) -> std::borrow::Cow<'_, str> {
    let mut end = raw.len();
    while end > 0 && (raw[end - 1] == b'\n' || raw[end - 1] == b'\r') {
        end -= 1;
    }
    String::from_utf8_lossy(&raw[..end])
}

/// One HTTP response ready to serialise.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code (`200`, `429`, ...).
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`.
    pub headers: Vec<(String, String)>,
    /// MIME type of the body.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A response with the given status, content type, and body.
    #[must_use]
    pub fn new(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        HttpResponse {
            status,
            headers: Vec::new(),
            content_type,
            body: body.into(),
        }
    }

    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        HttpResponse::new(status, "application/json", body)
    }

    /// Appends a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl std::fmt::Display) -> Self {
        self.headers.push((name.to_owned(), value.to_string()));
        self
    }

    /// Serialises status line, headers, and body to the writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// The reason phrase of the status codes this server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A parsed HTTP response (client side).
#[derive(Debug, Clone)]
pub struct ParsedResponse {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ParsedResponse {
    /// The first header with this (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response off the wire (client side).
///
/// # Errors
///
/// I/O failures, or `InvalidData` when the bytes are not an HTTP
/// response.
pub fn read_response<R: BufRead>(r: &mut R) -> std::io::Result<ParsedResponse> {
    let bad = |why: String| std::io::Error::new(std::io::ErrorKind::InvalidData, why);
    let status_line = read_line(r)?.ok_or_else(|| bad("EOF before status line".to_owned()))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?.ok_or_else(|| bad("EOF inside headers".to_owned()))?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("bad header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map_or(Ok(0), |(_, v)| {
            v.parse::<usize>()
                .map_err(|_| bad(format!("bad content-length {v:?}")))
        })?;
    let mut body = vec![0u8; length];
    r.read_exact(&mut body)?;
    Ok(ParsedResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_a_post_with_body_and_headers() {
        let raw = b"POST /v1/matmul HTTP/1.1\r\nHost: x\r\nX-Client: alice\r\n\
                    Content-Length: 4\r\n\r\nabcd";
        let mut r = BufReader::new(&raw[..]);
        let req = read_request(&mut r).expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/matmul");
        assert_eq!(req.header("x-client"), Some("alice"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close());
    }

    #[test]
    fn keep_alive_parses_back_to_back_requests() {
        let raw =
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        let first = read_request(&mut r).expect("first");
        assert_eq!(first.path, "/healthz");
        let second = read_request(&mut r).expect("second");
        assert_eq!(second.path, "/metrics");
        assert!(second.wants_close());
        assert!(matches!(read_request(&mut r), Err(RecvError::Closed)));
    }

    #[test]
    fn malformed_frames_reject_with_reasons() {
        for raw in [
            &b"NOT-HTTP\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n"[..],
        ] {
            let mut r = BufReader::new(raw);
            assert!(
                matches!(read_request(&mut r), Err(RecvError::Malformed(_))),
                "{raw:?} must reject as malformed"
            );
        }
    }

    #[test]
    fn oversized_bodies_reject_without_allocating() {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        let mut r = BufReader::new(raw.as_bytes());
        assert!(matches!(read_request(&mut r), Err(RecvError::Malformed(_))));
    }

    #[test]
    fn response_round_trips_through_the_client_parser() {
        let resp = HttpResponse::json(429, r#"{"error":"shed"}"#)
            .with_header("retry-after", 1)
            .with_header("connection", "keep-alive");
        let mut wire = Vec::new();
        resp.write_to(&mut wire).expect("serialises");
        let mut r = BufReader::new(&wire[..]);
        let parsed = read_response(&mut r).expect("parses");
        assert_eq!(parsed.status, 429);
        assert_eq!(parsed.header("retry-after"), Some("1"));
        assert_eq!(parsed.header("content-type"), Some("application/json"));
        assert_eq!(parsed.text(), r#"{"error":"shed"}"#);
    }

    #[test]
    fn status_reasons_cover_the_emitted_codes() {
        for code in [200, 400, 404, 405, 413, 429, 500, 503, 504] {
            assert_ne!(reason(code), "Unknown", "status {code} needs a reason");
        }
    }
}
