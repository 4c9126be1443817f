//! A hand-rolled HTTP/1.1 request parser over any [`BufRead`].
//!
//! The workspace carries no external dependencies, so the transport layer
//! is written against `std` only.  The parser is deliberately narrow — the
//! subset the BANKS front-end needs — but strict about it:
//!
//! * request line + headers are read line-by-line with a hard cap on the
//!   total head size ([`Limits::max_head_bytes`]), so a client cannot make
//!   the server buffer without bound;
//! * bodies require `Content-Length` (chunked transfer encoding is
//!   rejected) and are capped by [`Limits::max_body_bytes`];
//! * partial reads are handled by construction: every read goes through
//!   `BufRead`, which retries short reads until a full line/body arrives;
//! * methods must be ASCII-uppercase tokens — binary garbage on the wire
//!   fails fast with [`ParseError::BadRequest`] instead of being echoed
//!   into some later error message.
//!
//! Connection reuse: a client that sends `Connection: keep-alive` may
//! issue further requests on the same connection to the non-streaming
//! endpoints (`/metrics`, `/healthz`, `/admin/*`), bounded by a request
//! count and an idle timeout (see the dispatch loop in `routes`).  SSE
//! query streams hold their connection for the stream's lifetime and
//! always close, and error responses close — the conservative cases stay
//! exactly as before keep-alive existed.

use std::io::{BufRead, Write};

/// Idle seconds a kept-alive connection is allowed between requests.
/// Single source of truth: advertised in the `Keep-Alive` response header
/// by [`write_response`] and enforced (as the socket read timeout between
/// requests) by the dispatch loop in `routes`.
pub const KEEPALIVE_IDLE_SECS: u64 = 5;

/// Parser resource bounds.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Cap on the request line plus all headers, in bytes.
    pub max_head_bytes: usize,
    /// Cap on the declared `Content-Length`, in bytes.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// The connection closed before a full request arrived.  Closing
    /// without sending anything is how well-behaved clients abandon a
    /// connection, so this is not answered with an error response.
    ConnectionClosed,
    /// The bytes on the wire are not a valid HTTP/1.x request.
    BadRequest(String),
    /// The request line + headers exceed [`Limits::max_head_bytes`]
    /// (HTTP 431).
    HeadTooLarge,
    /// The declared body exceeds [`Limits::max_body_bytes`] (HTTP 413).
    BodyTooLarge,
    /// An I/O error while reading.
    Io(std::io::Error),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::ConnectionClosed => write!(f, "connection closed before a full request"),
            ParseError::BadRequest(msg) => write!(f, "malformed request: {msg}"),
            ParseError::HeadTooLarge => write!(f, "request head too large"),
            ParseError::BodyTooLarge => write!(f, "request body too large"),
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// The request method, e.g. `GET` (always uppercase ASCII).
    pub method: String,
    /// The decoded path component of the target, e.g. `/query`.
    pub path: String,
    /// The raw query string (no leading `?`; empty when absent).
    pub query: String,
    /// Header `(name, value)` pairs; names lower-cased at parse time.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let wanted = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == wanted)
            .map(|(_, v)| v.as_str())
    }

    /// The percent-decoded value of query parameter `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<String> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k) == name).then(|| percent_decode(v))
        })
    }

    /// The body as UTF-8, or a description of why it is not.
    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|e| format!("body is not valid utf-8: {e}"))
    }
}

/// Decodes `%XX` escapes and `+` (space) in a query-string component.
/// Invalid escapes pass through verbatim — for a search front-end, being
/// lenient about a stray `%` in a keyword beats rejecting the query.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    match b {
        Some(b @ b'0'..=b'9') => Some(b - b'0'),
        Some(b @ b'a'..=b'f') => Some(b - b'a' + 10),
        Some(b @ b'A'..=b'F') => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Reads one line (up to LF), stripping the trailing CRLF/LF.  Counts the
/// raw bytes consumed against `budget`.
fn read_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
    started: bool,
) -> Result<String, ParseError> {
    let mut raw = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if raw.is_empty() && !started {
                    return Err(ParseError::ConnectionClosed);
                }
                return Err(ParseError::BadRequest(
                    "connection closed mid-line".to_string(),
                ));
            }
            Ok(_) => {
                if *budget == 0 {
                    return Err(ParseError::HeadTooLarge);
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    break;
                }
                raw.push(byte[0]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw).map_err(|_| ParseError::BadRequest("non-utf8 header line".to_string()))
}

/// Reads and parses one request from `reader`.
///
/// Blocks until a full request (head + declared body) has arrived; short
/// reads from the transport are retried, so a client trickling the request
/// byte-by-byte parses identically to one sending it in a single write.
pub fn read_request(reader: &mut impl BufRead, limits: &Limits) -> Result<Request, ParseError> {
    let mut budget = limits.max_head_bytes;

    let request_line = read_line(reader, &mut budget, false)?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::BadRequest("missing request target".to_string()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| ParseError::BadRequest("missing HTTP version".to_string()))?;
    if parts.next().is_some() {
        return Err(ParseError::BadRequest(
            "request line has extra fields".to_string(),
        ));
    }
    if method.is_empty() || method.len() > 16 || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::BadRequest(format!(
            "bad method {:?}",
            method.chars().take(16).collect::<String>()
        )));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::BadRequest(format!("bad version {version:?}")));
    }
    if !target.starts_with('/') {
        return Err(ParseError::BadRequest(format!("bad target {target:?}")));
    }
    let (raw_path, raw_query) = target.split_once('?').unwrap_or((target.as_str(), ""));
    let path = percent_decode(raw_path);
    let query = raw_query.to_string();

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut budget, true)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::BadRequest(format!("header without colon: {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::BadRequest(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };

    if let Some(te) = request.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(ParseError::BadRequest(format!(
                "unsupported transfer-encoding {te:?}"
            )));
        }
    }
    if let Some(raw_len) = request.header("content-length") {
        let len: usize = raw_len
            .parse()
            .map_err(|_| ParseError::BadRequest(format!("bad content-length {raw_len:?}")))?;
        if len > limits.max_body_bytes {
            return Err(ParseError::BodyTooLarge);
        }
        let mut body = vec![0u8; len];
        reader
            .read_exact(&mut body)
            .map_err(|_| ParseError::BadRequest("connection closed mid-body".to_string()))?;
        request.body = body;
    }
    Ok(request)
}

/// Human-readable reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response (status line, headers, body).  Always adds
/// `Content-Length`; the `Connection` header reflects `keep_alive` (a
/// kept-alive response also advertises the idle timeout via `Keep-Alive`).
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, &str)],
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!("HTTP/1.1 {status} {}\r\n", reason_phrase(status));
    head.push_str(&format!("Content-Type: {content_type}\r\n"));
    head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if keep_alive {
        head.push_str(&format!(
            "Connection: keep-alive\r\nKeep-Alive: timeout={KEEPALIVE_IDLE_SECS}\r\n\r\n"
        ));
    } else {
        head.push_str("Connection: close\r\n\r\n");
    }
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read};

    /// A reader that hands out at most `chunk` bytes per `read` call —
    /// simulates a client trickling the request across many TCP segments.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw), &Limits::default())
    }

    #[test]
    fn parses_a_get_with_query_string() {
        let req = parse(b"GET /query?q=jim+gray&top_k=5 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.query_param("q").as_deref(), Some("jim gray"));
        assert_eq!(req.query_param("top_k").as_deref(), Some("5"));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            b"POST /query HTTP/1.1\r\nContent-Length: 11\r\nX-Banks-Tenant: ui\r\n\r\nhello world",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello world");
        assert_eq!(req.header("x-banks-tenant"), Some("ui"));
        assert_eq!(req.header("X-BANKS-TENANT"), Some("ui"), "case-insensitive");
    }

    #[test]
    fn partial_reads_reassemble_identically() {
        let raw: &[u8] =
            b"POST /query HTTP/1.1\r\nContent-Length: 17\r\nHost: localhost\r\n\r\n{\"q\":\"jim gray\"}!";
        for chunk in [1, 2, 3, 7] {
            let mut reader = BufReader::new(Trickle {
                data: raw,
                pos: 0,
                chunk,
            });
            let req = read_request(&mut reader, &Limits::default())
                .unwrap_or_else(|e| panic!("chunk={chunk}: {e}"));
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/query");
            assert_eq!(req.body, b"{\"q\":\"jim gray\"}!");
        }
    }

    #[test]
    fn rejects_bad_verbs() {
        for raw in [
            &b"get / HTTP/1.1\r\n\r\n"[..],              // lowercase
            &b"G@T / HTTP/1.1\r\n\r\n"[..],              // junk char
            &b"\x16\x03\x01\x02 / HTTP/1.1\r\n\r\n"[..], // TLS bytes on a plain port
            &b"TOOLONGAMETHODNAMEXX / HTTP/1.1\r\n\r\n"[..],
        ] {
            assert!(
                matches!(parse(raw), Err(ParseError::BadRequest(_))),
                "should reject {raw:?}"
            );
        }
    }

    #[test]
    fn rejects_bad_request_lines_and_versions() {
        assert!(matches!(
            parse(b"GET /\r\n\r\n"),
            Err(ParseError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/2.0\r\n\r\n"),
            Err(ParseError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET no-slash HTTP/1.1\r\n\r\n"),
            Err(ParseError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1 extra\r\n\r\n"),
            Err(ParseError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(ParseError::BadRequest(_))
        ));
    }

    #[test]
    fn oversized_heads_are_cut_off() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 20_000));
        // a single huge header line blows the default 16 KiB head budget
        raw.extend_from_slice(b": v\r\n\r\n");
        assert!(matches!(parse(&raw), Err(ParseError::HeadTooLarge)));

        // ... and so do many small headers
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..2000 {
            raw.extend_from_slice(format!("x-filler-{i}: value\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(parse(&raw), Err(ParseError::HeadTooLarge)));
    }

    #[test]
    fn oversized_bodies_are_rejected_by_declaration() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            Limits::default().max_body_bytes + 1
        );
        // rejected before reading a single body byte
        assert!(matches!(
            parse(raw.as_bytes()),
            Err(ParseError::BodyTooLarge)
        ));
    }

    #[test]
    fn truncated_requests_fail_cleanly() {
        assert!(matches!(parse(b""), Err(ParseError::ConnectionClosed)));
        assert!(matches!(parse(b"GET / HT"), Err(ParseError::BadRequest(_))));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(ParseError::BadRequest(_))
        ));
    }

    #[test]
    fn chunked_transfer_encoding_is_rejected() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ParseError::BadRequest(_))
        ));
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("jim+gray"), "jim gray");
        assert_eq!(percent_decode("a%20b%2Fc"), "a b/c");
        assert_eq!(
            percent_decode("100%"),
            "100%",
            "dangling escape passes through"
        );
        assert_eq!(percent_decode("%zz"), "%zz", "bad hex passes through");
        assert_eq!(
            percent_decode("caf%C3%A9"),
            "café",
            "utf-8 sequences decode"
        );
    }

    #[test]
    fn write_response_frames_correctly() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            &[("Retry-After", "7")],
            "application/json",
            b"{}",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 7\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn write_response_advertises_keep_alive_when_asked() {
        let mut out = Vec::new();
        write_response(&mut out, 200, &[], "application/json", b"{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Keep-Alive: timeout=5\r\n"));
        assert!(!text.contains("Connection: close"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
