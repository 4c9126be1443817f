//! Minimal blocking HTTP/1.1 client for the benchmark: one request per
//! connection, SSE `/query` streams read event by event, with the client-side
//! timestamps the metrics need (connect, response head, first answer,
//! `finished`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Client-side instants of one request, all taken on this thread.
#[derive(Clone, Copy, Debug)]
pub struct Marks {
    pub start: Instant,
    pub connected: Instant,
    /// The response status line has been read.
    pub head: Instant,
    /// The first `event: answer` line has been read.
    pub first_answer: Option<Instant>,
    /// The `finished` event has been read (or the plain body, for non-SSE).
    pub done: Instant,
}

/// A `/query` SSE reply.
#[derive(Debug, Default)]
pub struct QueryReply {
    /// The `tree` object of every `answer` event, verbatim, in rank order.
    pub trees: Vec<String>,
    /// The `finished` event payload.
    pub finished: String,
    /// The `trace` event payload, present when `X-Banks-Trace` was sent.
    pub trace: Option<String>,
    /// Bytes of the response after the head (the SSE stream).
    pub stream_bytes: usize,
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// Percent-encodes a query-string component.
pub fn encode_component(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() * 3);
    for b in raw.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Reads the status line and headers; returns the status and the
/// `Content-Length`, if any.
fn read_head(reader: &mut BufReader<TcpStream>) -> Result<(u16, Option<usize>), String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read status line: {e}"))?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut content_length = None;
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    Ok((status, content_length))
}

/// `GET /query?{query}` with an optional `X-Banks-Trace` reference; reads the
/// SSE stream through the `finished` event (and the `trace` event after it
/// when one was requested).
pub fn query(
    addr: SocketAddr,
    query: &str,
    trace: Option<&str>,
) -> Result<(QueryReply, Marks), String> {
    let start = Instant::now();
    let mut stream = connect(addr)?;
    let connected = Instant::now();
    let trace_header = trace
        .map(|t| format!("X-Banks-Trace: {t}\r\n"))
        .unwrap_or_default();
    stream
        .write_all(
            format!("GET /query?{query} HTTP/1.1\r\nHost: bench\r\n{trace_header}\r\n").as_bytes(),
        )
        .map_err(|e| format!("send query: {e}"))?;
    let mut reader = BufReader::new(stream);
    let (status, _) = read_head(&mut reader)?;
    let head = Instant::now();
    if status != 200 {
        let mut body = String::new();
        let _ = reader.read_to_string(&mut body);
        return Err(format!("/query answered {status}: {}", body.trim()));
    }
    let mut reply = QueryReply::default();
    let mut first_answer = None;
    let mut finished_at = None;
    let mut event = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read SSE: {e}"))?;
        if n == 0 {
            return Err("SSE stream ended before the finished event".to_string());
        }
        reply.stream_bytes += n;
        let text = line.trim_end_matches(['\r', '\n']);
        if let Some(name) = text.strip_prefix("event: ") {
            if name == "answer" && first_answer.is_none() {
                first_answer = Some(Instant::now());
            }
            event = name.to_string();
        } else if let Some(data) = text.strip_prefix("data: ") {
            match event.as_str() {
                "answer" => reply.trees.push(tree_of(data)?),
                "finished" => {
                    finished_at = Some(Instant::now());
                    reply.finished = data.to_string();
                    if trace.is_none() {
                        break;
                    }
                }
                "trace" => {
                    reply.trace = Some(data.to_string());
                    break;
                }
                _ => {}
            }
        }
    }
    // `done` marks the `finished` event, not a trailing `trace` event.
    let done = finished_at.ok_or("trace event before the finished event")?;
    Ok((
        reply,
        Marks {
            start,
            connected,
            head,
            first_answer,
            done,
        },
    ))
}

/// The `tree` member of an `answer` payload
/// (`{"rank":..,"timing":{..},"tree":{..}}`), verbatim.
fn tree_of(payload: &str) -> Result<String, String> {
    payload
        .find(",\"tree\":")
        .and_then(|i| payload.get(i + 8..payload.len() - 1))
        .map(str::to_string)
        .ok_or_else(|| format!("answer payload without a tree: {payload}"))
}

/// A plain (non-SSE) request; returns the status, the body and its marks.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String, Marks), String> {
    let start = Instant::now();
    let mut stream = connect(addr)?;
    let connected = Instant::now();
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .map_err(|e| format!("send {method} {path}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let (status, length) = read_head(&mut reader)?;
    let head = Instant::now();
    let mut text = String::new();
    match length {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader
                .read_exact(&mut buf)
                .map_err(|e| format!("read body: {e}"))?;
            text = String::from_utf8(buf).map_err(|e| e.to_string())?;
        }
        None => {
            reader
                .read_to_string(&mut text)
                .map_err(|e| format!("read body: {e}"))?;
        }
    }
    Ok((
        status,
        text,
        Marks {
            start,
            connected,
            head,
            first_answer: None,
            done: Instant::now(),
        },
    ))
}
