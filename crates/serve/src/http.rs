//! The HTTP/1.1 layer over `std::net`: an **incremental** request
//! parser (feed bytes as they arrive, get back complete requests —
//! the event loop's per-connection state machine drives it with
//! nonblocking reads), keep-alive/pipelining-aware response encoding,
//! and small blocking clients (one-shot `Connection: close`, plus a
//! persistent [`HttpClient`] for keep-alive and pipelined traffic).
//!
//! The parser is deliberately strict where laxness becomes request
//! smuggling once connections are reused: duplicate or non-digit
//! `Content-Length` values and any `Transfer-Encoding` header are
//! rejected with 400.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Maximum accepted size of the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum accepted request-body size. Scenario specs (and batches of
/// them) are small; anything near this bound is not a spec.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// How long a connection may sit idle *mid-request* (head or body
/// started but not finished) before the server drops it.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a keep-alive connection may sit idle *between* requests
/// before the server closes it.
pub const KEEPALIVE_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string (`/run`).
    pub path: String,
    /// Query parameters, in order (`async=true`). Values are taken
    /// **raw** — no percent-decoding is applied. The service's own
    /// parameters (`async=true`) never need escaping; clients passing
    /// reserved characters must not expect them decoded.
    pub query: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, overridden by `Connection: close`; HTTP/1.0
    /// defaults closed unless `Connection: keep-alive`).
    pub keep_alive: bool,
}

impl Request {
    /// First query value under `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the request asked for asynchronous execution
    /// (`?async=true` / `?async=1`).
    pub fn wants_async(&self) -> bool {
        matches!(self.query_param("async"), Some("true" | "1"))
    }
}

/// Why a request could not be parsed — each maps to one 4xx status
/// (after which the connection closes: the parse position is lost).
#[derive(Debug)]
pub enum RequestError {
    /// The head never terminated within [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// `Content-Length` exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// The request line / headers were not parseable (or safe) HTTP.
    Malformed(&'static str),
}

/// Incremental scan for the `\r\n\r\n` head terminator.
///
/// `scanned` is parser state owned by the caller (start at 0 for a
/// fresh request): bytes before `scanned.saturating_sub(3)` are known
/// not to start the terminator, so growing buffers are only scanned
/// once — rescanning the whole head after every chunk is O(n²) on
/// large heads. On a miss, `scanned` advances to `buf.len()`; on a
/// hit it parks at the terminator so a repeated call (e.g. while the
/// body is still arriving) finds it again.
pub fn find_head_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    let start = scanned.saturating_sub(3).min(buf.len());
    if let Some(pos) = buf[start..].windows(4).position(|w| w == b"\r\n\r\n") {
        *scanned = start + pos;
        return Some(start + pos);
    }
    *scanned = buf.len();
    None
}

/// The parsed request head, before the body is available.
struct Head {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    content_length: usize,
    keep_alive: bool,
}

/// Parses the request line and headers (everything before the blank
/// line). Strict on anything that frames the body: duplicate,
/// non-digit, or overlong `Content-Length` values and any
/// `Transfer-Encoding` header are rejected — with connection reuse,
/// two parsers disagreeing on body length is a request-smuggling
/// vector.
fn parse_head(head: &str) -> Result<Head, RequestError> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(RequestError::Malformed("missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(RequestError::Malformed("missing request target"))?;
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed("not an HTTP/1.x request"));
    }
    // HTTP/1.1 (and later 1.x) default to persistent connections;
    // HTTP/1.0 defaults to close.
    let mut keep_alive = version != "HTTP/1.0";

    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_text
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();

    let mut content_length: Option<usize> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9110 §8.6: 1*DIGIT. `usize::parse` alone would
            // accept a leading `+`, and a silent last-one-wins on
            // duplicates lets two parsers frame the body differently.
            if content_length.is_some() {
                return Err(RequestError::Malformed("duplicate Content-Length"));
            }
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(RequestError::Malformed(
                    "Content-Length is not a digit sequence",
                ));
            }
            let parsed = value
                .parse()
                .map_err(|_| RequestError::Malformed("Content-Length out of range"))?;
            content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Chunked bodies are not supported; accepting the header
            // while framing by Content-Length is exactly the classic
            // TE/CL smuggling split.
            return Err(RequestError::Malformed("Transfer-Encoding not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }

    Ok(Head {
        method,
        path: path.to_string(),
        query,
        content_length: content_length.unwrap_or(0),
        keep_alive,
    })
}

/// Outcome of [`try_parse_request`].
pub enum TryParse {
    /// A complete request; the caller must discard the first
    /// `consumed` buffer bytes (and reset its scan state to 0) before
    /// parsing the next pipelined request.
    Request {
        /// The parsed request.
        request: Request,
        /// Bytes of `buf` the request occupied.
        consumed: usize,
    },
    /// Not enough bytes yet — read more and call again.
    Incomplete,
    /// The bytes are not acceptable HTTP; answer 4xx and close.
    Error(RequestError),
}

/// Attempts to parse one complete request from the front of `buf`.
/// `scanned` is the incremental head-scan cursor (see
/// [`find_head_end`]); reset it to 0 whenever consumed bytes are
/// drained from `buf`.
pub fn try_parse_request(buf: &[u8], scanned: &mut usize) -> TryParse {
    let Some(head_end) = find_head_end(buf, scanned) else {
        if buf.len() >= MAX_HEAD_BYTES {
            return TryParse::Error(RequestError::HeadTooLarge);
        }
        return TryParse::Incomplete;
    };
    if head_end > MAX_HEAD_BYTES {
        return TryParse::Error(RequestError::HeadTooLarge);
    }
    let Ok(head_text) = std::str::from_utf8(&buf[..head_end]) else {
        return TryParse::Error(RequestError::Malformed("non-UTF-8 head"));
    };
    let head = match parse_head(head_text) {
        Ok(head) => head,
        Err(e) => return TryParse::Error(e),
    };
    if head.content_length > MAX_BODY_BYTES {
        return TryParse::Error(RequestError::BodyTooLarge);
    }
    let body_start = head_end + 4;
    let total = body_start + head.content_length;
    if buf.len() < total {
        return TryParse::Incomplete;
    }
    TryParse::Request {
        request: Request {
            method: head.method,
            path: head.path,
            query: head.query,
            body: buf[body_start..total].to_vec(),
            keep_alive: head.keep_alive,
        },
        consumed: total,
    }
}

/// An encoded-on-demand HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (`X-Carma-Cache`, `Retry-After`, …).
    pub extra: Vec<(String, String)>,
    /// Whether the server will close the connection after this
    /// response (encoded as the `Connection` header).
    pub close: bool,
}

impl Response {
    /// A JSON response (the service's default content type).
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            extra: Vec::new(),
            close: false,
        }
    }

    /// A plain-text response (`/metrics`).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            content_type: "text/plain; charset=utf-8",
            ..Response::json(status, body)
        }
    }

    /// A `{"error": …}` JSON response.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            format!("{{\"error\":{}}}", serde::json::to_string(message)),
        )
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra.push((name.to_string(), value.to_string()));
        self
    }

    /// Marks the connection to close after this response.
    #[must_use]
    pub fn closing(mut self) -> Response {
        self.close = true;
        self
    }

    /// Serializes status line, headers, and body into wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let reason = match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        };
        let connection = if self.close { "close" } else { "keep-alive" };
        let mut out = format!(
            "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
            self.status,
            self.content_type,
            self.body.len()
        )
        .into_bytes();
        for (name, value) in &self.extra {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body.as_bytes());
        out
    }
}

/// A parsed client-side response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Response headers as `(lowercased-name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// The body text.
    pub body: String,
}

impl HttpResponse {
    /// First header value under `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn encode_request(method: &str, target: &str, host: &str, body: &str, close: bool) -> String {
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "{method} {target} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    )
}

/// A tiny blocking one-shot HTTP/1.1 client: one request,
/// `Connection: close`, whole-response read. Tests use it to prove
/// close-mode clients keep working against the keep-alive server.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(300))).ok();
    let request = encode_request(method, target, &addr.to_string(), body.unwrap_or(""), true);
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_client_response(raw.as_bytes())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparseable response"))
        .map(|(response, _)| response)
}

/// Parses one response from the front of `raw`, returning it plus the
/// bytes it consumed (requires a `Content-Length` header; the server
/// always sends one).
fn parse_client_response(raw: &[u8]) -> Option<(HttpResponse, usize)> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line.split(' ').nth(1)?.parse().ok()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(n, v)| (n.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(raw.len() - head_end - 4);
    let body_start = head_end + 4;
    let total = body_start + content_length;
    if raw.len() < total {
        return None;
    }
    let body = String::from_utf8_lossy(&raw[body_start..total]).into_owned();
    Some((
        HttpResponse {
            status,
            headers,
            body,
        },
        total,
    ))
}

/// A persistent blocking HTTP/1.1 client connection: keep-alive
/// request/response cycles plus split [`HttpClient::send`] /
/// [`HttpClient::recv`] for pipelining. Used by `tests/serve_api.rs`
/// and the `bench_serve` keep-alive/pipelined modes.
pub struct HttpClient {
    stream: TcpStream,
    host: String,
    carry: Vec<u8>,
}

impl HttpClient {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(300))).ok();
        stream.set_nodelay(true).ok();
        Ok(HttpClient {
            stream,
            host: addr.to_string(),
            carry: Vec::new(),
        })
    }

    /// One keep-alive request/response cycle.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        self.send(method, target, body)?;
        self.recv()
    }

    /// Writes one request without waiting for the response; pair with
    /// [`HttpClient::recv`] (responses arrive in request order).
    pub fn send(&mut self, method: &str, target: &str, body: Option<&str>) -> io::Result<()> {
        let request = encode_request(method, target, &self.host, body.unwrap_or(""), false);
        self.stream.write_all(request.as_bytes())
    }

    /// Writes `count` identical requests in one buffer (a pipelined
    /// burst), to be drained by `count` [`HttpClient::recv`] calls.
    pub fn send_burst(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
        count: usize,
    ) -> io::Result<()> {
        let request = encode_request(method, target, &self.host, body.unwrap_or(""), false);
        let mut burst = Vec::with_capacity(request.len() * count);
        for _ in 0..count {
            burst.extend_from_slice(request.as_bytes());
        }
        self.stream.write_all(&burst)
    }

    /// Reads the next in-order response.
    pub fn recv(&mut self) -> io::Result<HttpResponse> {
        loop {
            if let Some((response, consumed)) = parse_client_response(&self.carry) {
                self.carry.drain(..consumed);
                return Ok(response);
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed mid-response",
                    ))
                }
                n => self.carry.extend_from_slice(&chunk[..n]),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> TryParse {
        let mut scanned = 0;
        try_parse_request(bytes, &mut scanned)
    }

    #[test]
    fn parses_a_simple_request() {
        let raw: &[u8] = b"POST /run?async=true HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let TryParse::Request { request, consumed } = parse_all(raw) else {
            panic!("expected a complete request");
        };
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/run");
        assert!(request.wants_async());
        assert_eq!(request.body, b"{}");
        assert!(request.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let TryParse::Request { request, .. } =
            parse_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        else {
            panic!("complete");
        };
        assert!(!request.keep_alive);
        let TryParse::Request { request, .. } = parse_all(b"GET / HTTP/1.0\r\n\r\n") else {
            panic!("complete");
        };
        assert!(!request.keep_alive, "HTTP/1.0 defaults to close");
        let TryParse::Request { request, .. } =
            parse_all(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
        else {
            panic!("complete");
        };
        assert!(request.keep_alive);
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        let raw = b"POST /run HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\n{}ab";
        assert!(matches!(
            parse_all(raw),
            TryParse::Error(RequestError::Malformed("duplicate Content-Length"))
        ));
        // Even *agreeing* duplicates are rejected — parsers that
        // collapse them and parsers that take the first/last differ on
        // whether to accept, which is exactly the ambiguity to refuse.
        let raw = b"POST /run HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}";
        assert!(matches!(
            parse_all(raw),
            TryParse::Error(RequestError::Malformed("duplicate Content-Length"))
        ));
    }

    #[test]
    fn non_digit_content_length_is_rejected() {
        for value in ["+2", "-2", "2 2", "0x2", "2a", "", "١٢"] {
            let raw = format!("POST /run HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{{}}");
            assert!(
                matches!(
                    parse_all(raw.as_bytes()),
                    TryParse::Error(RequestError::Malformed(_))
                ),
                "Content-Length `{value}` must be rejected"
            );
        }
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        let raw = b"POST /run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(
            parse_all(raw),
            TryParse::Error(RequestError::Malformed("Transfer-Encoding not supported"))
        ));
    }

    #[test]
    fn incremental_parse_across_arbitrary_chunk_boundaries() {
        let raw = b"POST /run HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello".to_vec();
        // Feed the request one byte at a time: exactly one Complete,
        // at the final byte, whatever the chunking.
        for chunk in 1..raw.len() {
            let mut buf = Vec::new();
            let mut scanned = 0;
            let mut complete = None;
            for piece in raw.chunks(chunk) {
                buf.extend_from_slice(piece);
                match try_parse_request(&buf, &mut scanned) {
                    TryParse::Request { request, consumed } => {
                        assert_eq!(consumed, buf.len());
                        complete = Some(request);
                    }
                    TryParse::Incomplete => assert!(complete.is_none()),
                    TryParse::Error(e) => panic!("chunk size {chunk}: unexpected error {e:?}"),
                }
            }
            let request = complete.unwrap_or_else(|| panic!("chunk size {chunk}: never completed"));
            assert_eq!(request.body, b"hello");
        }
    }

    #[test]
    fn terminator_straddling_a_1024_byte_chunk_edge() {
        // Build a head whose `\r\n\r\n` spans the 1024-byte boundary:
        // 1022 bytes of head, then the 4-byte terminator at 1022..1026.
        let mut head = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
        while head.len() < 1022 {
            head.push(b'x');
        }
        head.extend_from_slice(b"\r\n\r\n");
        let mut buf = Vec::new();
        let mut scanned = 0;
        buf.extend_from_slice(&head[..1024]); // first "chunk" splits the terminator
        assert!(matches!(
            try_parse_request(&buf, &mut scanned),
            TryParse::Incomplete
        ));
        buf.extend_from_slice(&head[1024..]);
        let TryParse::Request { request, consumed } = try_parse_request(&buf, &mut scanned) else {
            panic!("straddled terminator must still be found");
        };
        assert_eq!(request.path, "/healthz");
        assert_eq!(consumed, head.len());
    }

    #[test]
    fn head_scan_is_linear_not_quadratic() {
        // The cursor must advance monotonically: after N feeds of a
        // K-byte chunk, total scanned work is O(N·K), not O(N²·K).
        let mut buf = Vec::new();
        let mut scanned = 0;
        for _ in 0..64 {
            buf.extend_from_slice(&[b'a'; 1024]);
            let before = scanned;
            assert!(find_head_end(&buf, &mut scanned).is_none());
            assert_eq!(scanned, buf.len());
            assert!(scanned > before);
        }
        // Oversized heads are reported once the cap is crossed.
        assert!(matches!(
            try_parse_request(&buf, &mut scanned),
            TryParse::Error(RequestError::HeadTooLarge)
        ));
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyzGET /c HTTP/1.1\r\n\r\n";
        let mut buf = raw.to_vec();
        let mut paths = Vec::new();
        let mut scanned = 0;
        loop {
            match try_parse_request(&buf, &mut scanned) {
                TryParse::Request { request, consumed } => {
                    paths.push(request.path.clone());
                    buf.drain(..consumed);
                    scanned = 0;
                }
                TryParse::Incomplete => break,
                TryParse::Error(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert_eq!(paths, ["/a", "/b", "/c"]);
        assert!(buf.is_empty());
    }

    #[test]
    fn response_encode_sets_framing_headers() {
        let bytes = Response::json(200, "{}").encode();
        let text = String::from_utf8(bytes).expect("ASCII response");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let closing = Response::error(503, "full")
            .with_header("Retry-After", "1")
            .closing()
            .encode();
        let text = String::from_utf8(closing).expect("ASCII response");
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
    }
}
