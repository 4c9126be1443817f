//! Loopback integration tests: a real listener, real sockets, real SSE.
//!
//! The acceptance criteria of the network front-end:
//!
//! * a `POST /query` SSE stream delivers the **byte-identical** answer
//!   sequence the in-process `QueryHandle` yields for the same `QuerySpec`;
//! * dropping the connection mid-stream **cancels** the query (observed via
//!   `ServiceMetrics::cancelled`);
//! * a tenant over its token-bucket quota gets **429** while other tenants
//!   keep streaming;
//! * `POST /admin/swap` swaps the served snapshot **under load**;
//! * every error path maps to its status code (400/404/405/413/429/503)
//!   with a structured JSON body.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use banks_core::json as corejson;
use banks_graph::{DataGraph, GraphBuilder};
use banks_server::json::JsonValue;
use banks_server::{Limits, Server};
use banks_service::{QueryEvent, QuerySpec, Service};

/// writes -> {author "Jim Gray", paper "Granularity of locks"}.
fn tiny_graph() -> DataGraph {
    let mut b = GraphBuilder::new();
    let a = b.add_node("author", "Jim Gray");
    let p = b.add_node("paper", "Granularity of locks");
    let w = b.add_node("writes", "w0");
    b.add_edge(w, a).unwrap();
    b.add_edge(w, p).unwrap();
    b.build_default()
}

/// A wide forest of `root -> {alpha i, beta i}` stars: the query
/// "alpha beta" yields one answer per star, so `n` controls how long a
/// full enumeration runs.
fn forest(n: usize) -> DataGraph {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        let a = b.add_node("alpha", format!("alpha {i}"));
        let z = b.add_node("beta", format!("beta {i}"));
        let root = b.add_node("writes", format!("w{i}"));
        b.add_edge(root, a).unwrap();
        b.add_edge(root, z).unwrap();
    }
    b.build_default()
}

/// Sends `raw` and reads the whole response (responses carry
/// `Connection: close`, so EOF is the framing).
fn send(addr: std::net::SocketAddr, raw: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(raw.as_bytes()).expect("send request");
    let mut response = Vec::new();
    conn.read_to_end(&mut response).expect("read response");
    String::from_utf8(response).expect("utf-8 response")
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    send(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post_query(addr: std::net::SocketAddr, body: &str, headers: &str) -> String {
    send(
        addr,
        &format!(
            "POST /query HTTP/1.1\r\nHost: t\r\n{headers}Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line in {response:?}"))
}

fn header_of<'a>(response: &'a str, name: &str) -> Option<&'a str> {
    let head = response.split("\r\n\r\n").next().unwrap_or("");
    head.lines().skip(1).find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("")
}

fn error_json(response: &str) -> JsonValue {
    banks_server::json::parse(body_of(response))
        .unwrap_or_else(|e| panic!("unparseable error body ({e}): {response:?}"))
}

fn error_code(response: &str) -> String {
    error_json(response)
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(|c| c.as_str())
        .unwrap_or_else(|| panic!("no error.code in {response:?}"))
        .to_string()
}

/// Parses an SSE body into `(event_name, data)` pairs.
fn parse_sse(body: &str) -> Vec<(String, String)> {
    let mut events = Vec::new();
    let mut name = String::new();
    let mut data: Vec<&str> = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("event: ") {
            name = rest.to_string();
        } else if let Some(rest) = line.strip_prefix("data: ") {
            data.push(rest);
        } else if line.is_empty() && !name.is_empty() {
            events.push((std::mem::take(&mut name), data.join("\n")));
            data.clear();
        }
    }
    events
}

#[test]
fn healthz_reports_liveness() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(service).spawn().unwrap();
    let response = get(server.local_addr(), "/healthz");
    assert_eq!(status_of(&response), 200);
    let v = banks_server::json::parse(body_of(&response)).unwrap();
    assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert!(v.get("epoch").is_some());
    assert_eq!(v.get("shards").and_then(JsonValue::as_usize), Some(1));
    match v.get("engines") {
        Some(JsonValue::Array(names)) => assert!(!names.is_empty()),
        other => panic!("engines should be an array, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn sharded_server_streams_identical_answers_and_reports_shards() {
    let plain = Arc::new(Service::builder(forest(12)).workers(1).build());
    let sharded = Arc::new(Service::builder(forest(12)).workers(2).shards(4).build());
    let baseline = Server::builder(plain).spawn().unwrap();
    let server = Server::builder(Arc::clone(&sharded)).spawn().unwrap();

    let health = get(server.local_addr(), "/healthz");
    let v = banks_server::json::parse(body_of(&health)).unwrap();
    assert_eq!(v.get("shards").and_then(JsonValue::as_usize), Some(4));

    let body = r#"{"q":"alpha beta","top_k":5,"engine":"mi-backward"}"#;
    let sg_body = r#"{"q":"alpha beta","top_k":5,"engine":"scatter-gather"}"#;
    let expect = post_query(baseline.local_addr(), body, "");
    let got = post_query(server.local_addr(), sg_body, "");
    assert_eq!(status_of(&expect), 200);
    assert_eq!(status_of(&got), 200);
    // Answer payloads carry wall-clock timing fields; the identity
    // contract covers the deterministic content (rank + tree).
    let ranked = |response: &str| -> Vec<(JsonValue, JsonValue)> {
        parse_sse(body_of(response))
            .into_iter()
            .filter(|(name, _)| name == "answer")
            .map(|(_, data)| {
                let v = banks_server::json::parse(&data).unwrap();
                (
                    v.get("rank").cloned().unwrap(),
                    v.get("tree").cloned().unwrap(),
                )
            })
            .collect()
    };
    let expect_answers = ranked(&expect);
    let got_answers = ranked(&got);
    assert!(!got_answers.is_empty());
    assert_eq!(expect_answers, got_answers);

    let metrics = get(server.local_addr(), "/metrics");
    let v = banks_server::json::parse(body_of(&metrics)).unwrap();
    assert_eq!(v.get("shards").and_then(JsonValue::as_usize), Some(4));
    // One row per shard, counting the nodes each owns: together they
    // cover the served graph exactly once.
    match v.get("shard_stats") {
        Some(JsonValue::Array(stats)) => {
            assert_eq!(stats.len(), 4);
            let owned: usize = stats
                .iter()
                .map(|s| s.get("owned_nodes").and_then(JsonValue::as_usize).unwrap())
                .sum();
            assert_eq!(owned, sharded.snapshot().graph().num_nodes());
        }
        other => panic!("shard_stats should be an array, got {other:?}"),
    }

    server.shutdown();
    baseline.shutdown();
}

#[test]
fn metrics_reflect_served_queries() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();
    let response = post_query(addr, r#"{"q":"gray locks","top_k":3}"#, "");
    assert_eq!(status_of(&response), 200);
    let response = get(addr, "/metrics");
    assert_eq!(status_of(&response), 200);
    let v = banks_server::json::parse(body_of(&response)).unwrap();
    assert_eq!(v.get("submitted").and_then(JsonValue::as_usize), Some(1));
    assert!(v.get("queue_wait").and_then(|q| q.get("p99_us")).is_some());
    server.shutdown();
}

#[test]
fn checkpoint_endpoint_truncates_wal_and_healthz_reports_durability() {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "banks-server-ckpt-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let service = Arc::new(
        Service::builder(tiny_graph())
            .workers(1)
            .persistence(&dir, banks_service::FsyncPolicy::Always)
            .build(),
    );
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    // A remote mutation lands in the WAL…
    let body = r#"{"ops":[{"op":"add_node","kind":"author","label":"Pat Selinger"}]}"#;
    let response = send(
        addr,
        &format!(
            "POST /admin/mutate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status_of(&response), 200);

    // …and /healthz shows it, alongside the rest of the durability fields.
    let v = banks_server::json::parse(body_of(&get(addr, "/healthz"))).unwrap();
    assert_eq!(v.get("persistence"), Some(&JsonValue::Bool(true)));
    assert_eq!(v.get("wal_records").and_then(JsonValue::as_usize), Some(1));
    assert!(v.get("wal_bytes").and_then(JsonValue::as_usize).unwrap() > 0);
    assert!(v.get("last_checkpoint_epoch").is_some());

    // Forcing a checkpoint truncates the WAL at the served epoch.
    let response = send(
        addr,
        "POST /admin/checkpoint HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status_of(&response), 200);
    let v = banks_server::json::parse(body_of(&response)).unwrap();
    assert_eq!(v.get("checkpointed"), Some(&JsonValue::Bool(true)));
    let epoch = v.get("epoch").and_then(JsonValue::as_usize).unwrap();
    assert_eq!(epoch as u64, service.epoch());

    let v = banks_server::json::parse(body_of(&get(addr, "/healthz"))).unwrap();
    assert_eq!(v.get("wal_records").and_then(JsonValue::as_usize), Some(0));
    assert_eq!(
        v.get("last_checkpoint_epoch").and_then(JsonValue::as_usize),
        Some(epoch)
    );

    // Wrong method on the new route follows the 405 convention.
    let response = get(addr, "/admin/checkpoint");
    assert_eq!(status_of(&response), 405);

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_without_persistence_is_409_and_healthz_zeros() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(service).spawn().unwrap();
    let addr = server.local_addr();
    let v = banks_server::json::parse(body_of(&get(addr, "/healthz"))).unwrap();
    assert_eq!(v.get("persistence"), Some(&JsonValue::Bool(false)));
    assert_eq!(v.get("wal_records").and_then(JsonValue::as_usize), Some(0));
    assert_eq!(v.get("wal_bytes").and_then(JsonValue::as_usize), Some(0));
    assert_eq!(
        v.get("last_checkpoint_epoch").and_then(JsonValue::as_usize),
        Some(0)
    );
    let response = send(
        addr,
        "POST /admin/checkpoint HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status_of(&response), 409);
    assert_eq!(error_code(&response), "persistence_disabled");
    server.shutdown();
}

/// The headline contract: the SSE stream re-renders nothing — each
/// `answer` event's payload is the byte-identical `banks_core::json`
/// encoding of the `RankedAnswer` the in-process handle yields.
#[test]
fn sse_stream_is_byte_identical_to_in_process_answers() {
    let service = Arc::new(
        Service::builder(tiny_graph())
            .workers(1)
            .cache_capacity(64)
            .build(),
    );
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();

    // 1. over HTTP (a cache miss: this run computes and caches the outcome)
    let response = post_query(
        server.local_addr(),
        r#"{"q":"gray locks","top_k":5}"#,
        "X-Banks-Tenant: http\r\n",
    );
    assert_eq!(status_of(&response), 200);
    assert_eq!(
        header_of(&response, "content-type"),
        Some("text/event-stream")
    );
    let events = parse_sse(body_of(&response));
    let (finished_events, answer_events): (Vec<_>, Vec<_>) =
        events.iter().partition(|(name, _)| name == "finished");
    assert_eq!(finished_events.len(), 1, "exactly one terminal event");
    assert!(!answer_events.is_empty(), "the query must produce answers");

    // 2. in-process, same spec: the cache replays the identical outcome
    //    (same answers, same timings), so the encodings must agree byte for
    //    byte.
    let handle = service
        .submit(QuerySpec::parse("gray locks").top_k(5).tenant("inproc"))
        .unwrap();
    let mut in_process = Vec::new();
    while let Some(event) = handle.recv() {
        match event {
            QueryEvent::Answer(answer) => in_process.push(corejson::ranked_answer(&answer)),
            QueryEvent::Finished(result) => assert!(result.cache_hit, "second run must hit"),
        }
    }
    assert_eq!(in_process.len(), answer_events.len());
    for (wire, local) in answer_events.iter().zip(&in_process) {
        assert_eq!(&wire.1, local, "SSE payload != in-process encoding");
    }

    // the finished event carries the stats envelope
    let v = banks_server::json::parse(&finished_events[0].1).unwrap();
    assert_eq!(v.get("cache_hit"), Some(&JsonValue::Bool(false)));
    assert!(v
        .get("stats")
        .and_then(|s| s.get("nodes_explored"))
        .is_some());
    server.shutdown();
}

/// Dropping the connection mid-stream must cancel the query: the handler
/// notices the dead peer at the next answer and cancels the token, the
/// engine aborts within one expansion step, and the service counts it.
#[test]
fn disconnect_mid_stream_cancels_the_query() {
    let service = Arc::new(
        Service::builder(forest(8000))
            .workers(1)
            .cache_capacity(0)
            .build(),
    );
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();

    // Immediate emission: answers stream while the (long) enumeration of
    // 8000 stars runs, so the disconnect lands mid-query.
    let body = r#"{"q":"alpha beta","top_k":9000,"emission":"immediate"}"#;
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.write_all(
        format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();

    // read until the first answer event boundary, then hang up
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();
    let mut saw_answer = false;
    while reader.read_line(&mut line).unwrap() > 0 {
        if line.starts_with("event: answer") {
            saw_answer = true;
            break;
        }
        line.clear();
    }
    assert!(saw_answer, "stream must deliver at least one answer");
    drop(reader);
    drop(conn); // <-- mid-stream disconnect

    // the cancellation must become visible in the service metrics
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = service.metrics();
        if metrics.cancelled >= 1 {
            assert!(metrics.completed >= 1);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "query was not cancelled after disconnect: {metrics:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

/// Disconnect detection survives stray bytes: a client that parks unread
/// bytes in the server's receive buffer defeats the peek probe (it keeps
/// returning the buffered byte), so the cancellation must land through the
/// write path instead — event or keep-alive writes failing against the
/// reset connection.
#[test]
fn disconnect_with_stray_bytes_still_cancels() {
    let service = Arc::new(
        Service::builder(forest(8000))
            .workers(1)
            .cache_capacity(0)
            .build(),
    );
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();

    let body = r#"{"q":"alpha beta","top_k":9000,"emission":"immediate"}"#;
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.write_all(
        format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}\n",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap(); // note the stray trailing newline beyond Content-Length

    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();
    let mut saw_answer = false;
    while reader.read_line(&mut line).unwrap() > 0 {
        if line.starts_with("event: answer") {
            saw_answer = true;
            break;
        }
        line.clear();
    }
    assert!(saw_answer, "stream must deliver at least one answer");
    drop(reader);
    drop(conn);

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = service.metrics();
        if metrics.cancelled >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "query not cancelled despite stray-byte disconnect: {metrics:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

/// A tenant over its token bucket gets 429 + Retry-After while another
/// tenant keeps streaming, and the rejection shows up in the per-tenant
/// metrics.
#[test]
fn quota_429_while_other_tenants_stream() {
    let service = Arc::new(
        Service::builder(tiny_graph())
            .workers(1)
            .cache_capacity(0)
            .tenant_quota(0.001, 2)
            .build(),
    );
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    let body = r#"{"q":"gray locks","top_k":3}"#;
    for i in 0..2 {
        let response = post_query(addr, body, "X-Banks-Tenant: free\r\n");
        assert_eq!(status_of(&response), 200, "burst request {i}");
    }
    let response = post_query(addr, body, "X-Banks-Tenant: free\r\n");
    assert_eq!(status_of(&response), 429);
    assert_eq!(error_code(&response), "quota_exceeded");
    let retry_after: u64 = header_of(&response, "retry-after")
        .expect("Retry-After header")
        .parse()
        .expect("integer Retry-After");
    assert!(retry_after >= 1);

    // another tenant's bucket is untouched: full stream, 200
    let response = post_query(addr, body, "X-Banks-Tenant: paid\r\n");
    assert_eq!(status_of(&response), 200);
    let events = parse_sse(body_of(&response));
    assert!(events.iter().any(|(name, _)| name == "answer"));

    // ... and the rejection is observable per tenant
    let metrics = get(addr, "/metrics");
    let v = banks_server::json::parse(body_of(&metrics)).unwrap();
    assert_eq!(
        v.get("quota_rejected").and_then(JsonValue::as_usize),
        Some(1)
    );
    let tenants = match v.get("tenants") {
        Some(JsonValue::Array(rows)) => rows.clone(),
        other => panic!("tenants should be an array, got {other:?}"),
    };
    let free = tenants
        .iter()
        .find(|r| r.get("tenant").and_then(JsonValue::as_str) == Some("free"))
        .expect("free tenant row");
    assert_eq!(
        free.get("quota_rejected").and_then(JsonValue::as_usize),
        Some(1)
    );
    server.shutdown();
}

/// `POST /admin/swap` under a concurrent query workload: the epoch
/// advances, queries keep succeeding throughout, and post-swap queries run
/// against the new graph version.
#[test]
fn swap_under_load_advances_the_epoch() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(2).build());
    let epoch_before = service.epoch();
    // the swapped-in graph answers a keyword the old one does not have
    let server = Server::builder(Arc::clone(&service))
        .graph_source(|| {
            let mut b = GraphBuilder::new();
            let a = b.add_node("author", "Edgar Codd");
            let p = b.add_node("paper", "A relational model of data");
            let w = b.add_node("writes", "w0");
            b.add_edge(w, a).unwrap();
            b.add_edge(w, p).unwrap();
            banks_service::GraphSnapshot::with_defaults(b.build_default())
        })
        .spawn()
        .unwrap();
    let addr = server.local_addr();

    // background load: hammer /query while the swap happens
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let load = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut served = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let response = post_query(addr, r#"{"q":"gray locks","top_k":3}"#, "");
                // every response during the swap is a complete SSE stream
                assert_eq!(status_of(&response), 200);
                served += 1;
            }
            served
        })
    };

    std::thread::sleep(Duration::from_millis(30));
    let response = send(addr, "POST /admin/swap HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&response), 200);
    let v = banks_server::json::parse(body_of(&response)).unwrap();
    let new_epoch = v.get("epoch").and_then(JsonValue::as_usize).unwrap();
    assert_ne!(new_epoch as u64, epoch_before);
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let served = load.join().expect("load thread");
    assert!(served > 0, "load must have run during the swap");

    // post-swap: the new graph serves its own content...
    let response = post_query(addr, r#"{"q":"codd relational","top_k":3}"#, "");
    let events = parse_sse(body_of(&response));
    assert!(
        events.iter().any(|(name, _)| name == "answer"),
        "swapped-in graph must answer its keywords"
    );
    // ...and the old content is gone
    let response = post_query(addr, r#"{"q":"gray locks","top_k":3}"#, "");
    let events = parse_sse(body_of(&response));
    assert!(
        !events.iter().any(|(name, _)| name == "answer"),
        "old graph's keywords must not match after the swap"
    );
    assert_eq!(service.metrics().swaps, 1);
    server.shutdown();
}

#[test]
fn malformed_requests_map_to_400() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(service).spawn().unwrap();
    let addr = server.local_addr();

    for (body, label) in [
        ("{not json", "invalid JSON"),
        ("[1,2,3]", "non-object body"),
        ("{}", "missing q/keywords"),
        (r#"{"q":""}"#, "empty q"),
        (r#"{"q":42}"#, "non-string q"),
        (r#"{"keywords":"gray"}"#, "non-array keywords"),
        (r#"{"q":"x","top_k":"five"}"#, "non-integer top_k"),
        (r#"{"q":"x","top_k":-3}"#, "negative top_k"),
        (r#"{"q":"x","emission":"warp"}"#, "bad emission policy"),
        ("", "empty body"),
    ] {
        let response = post_query(addr, body, "");
        assert_eq!(status_of(&response), 400, "{label}: {response:?}");
        assert_eq!(error_code(&response), "bad_request", "{label}");
    }

    // bad priority header
    let response = post_query(
        addr,
        r#"{"q":"gray locks"}"#,
        "X-Banks-Priority: urgent\r\n",
    );
    assert_eq!(status_of(&response), 400);

    // GET without q
    let response = get(addr, "/query?top_k=3");
    assert_eq!(status_of(&response), 400);

    // malformed HTTP itself (bad verb)
    let response = send(addr, "G@T /query HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&response), 400);
    server.shutdown();
}

#[test]
fn unknown_engine_maps_to_404_with_suggestion() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(service).spawn().unwrap();
    let response = post_query(
        server.local_addr(),
        r#"{"q":"gray locks","engine":"bidirectonal"}"#,
        "",
    );
    assert_eq!(status_of(&response), 404);
    assert_eq!(error_code(&response), "unknown_engine");
    let err = error_json(&response);
    let err = err.get("error").unwrap();
    assert_eq!(
        err.get("suggestion").and_then(JsonValue::as_str),
        Some("bidirectional"),
        "did-you-mean survives the wire"
    );
    match err.get("known") {
        Some(JsonValue::Array(names)) => {
            assert!(names.iter().any(|n| n.as_str() == Some("si-backward")))
        }
        other => panic!("known should be an array, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn unknown_routes_and_methods_map_to_404_and_405() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(service).spawn().unwrap();
    let addr = server.local_addr();
    let response = get(addr, "/nope");
    assert_eq!(status_of(&response), 404);
    assert_eq!(error_code(&response), "not_found");
    let response = send(addr, "DELETE /query HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&response), 405);
    let response = send(addr, "GET /admin/swap HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&response), 405, "swap is POST-only");
    server.shutdown();
}

#[test]
fn oversized_heads_and_bodies_map_to_431_and_413() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(service)
        .limits(Limits {
            max_head_bytes: 256,
            max_body_bytes: 64,
        })
        .spawn()
        .unwrap();
    let addr = server.local_addr();
    let response = send(
        addr,
        &format!(
            "GET /healthz HTTP/1.1\r\nX-Huge: {}\r\n\r\n",
            "a".repeat(1000)
        ),
    );
    assert_eq!(status_of(&response), 431);
    let response = post_query(addr, &format!("{{\"q\":\"{}\"}}", "x".repeat(200)), "");
    assert_eq!(status_of(&response), 413);
    server.shutdown();
}

/// A full admission queue maps to 503 + Retry-After while the worker is
/// busy.  The worker is parked on an expensive streamed query; the queue
/// (capacity 1) is filled in-process; the HTTP submission then bounces.
#[test]
fn queue_full_maps_to_503() {
    let service = Arc::new(
        Service::builder(forest(8000))
            .workers(1)
            .queue_capacity(1)
            .cache_capacity(0)
            .build(),
    );
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();

    // park the only worker: an Immediate-emission exhaustive enumeration
    let blocker = service
        .submit(
            QuerySpec::parse("alpha beta")
                .top_k(9000)
                .params(banks_core::SearchParams {
                    top_k: 9000,
                    emission: banks_core::EmissionPolicy::Immediate,
                    ..Default::default()
                }),
        )
        .unwrap();
    assert!(
        blocker.next_answer().is_some(),
        "worker is demonstrably busy"
    );
    // fill the queue's single slot
    let _queued = service
        .submit(QuerySpec::parse("alpha beta").top_k(1))
        .unwrap();

    let response = post_query(server.local_addr(), r#"{"q":"alpha beta"}"#, "");
    assert_eq!(status_of(&response), 503);
    assert_eq!(error_code(&response), "queue_full");
    assert_eq!(header_of(&response, "retry-after"), Some("1"));

    blocker.cancel();
    server.shutdown();
}

/// Reads exactly one keep-alive-framed response (status line + headers +
/// `Content-Length` body) off `reader`, leaving the connection open.
fn read_framed_response(reader: &mut BufReader<TcpStream>) -> String {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read head line") > 0,
            "connection closed mid-head (got {head:?})"
        );
        head.push_str(&line);
        if line == "\r\n" {
            break;
        }
    }
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (n, v) = l.split_once(':')?;
            n.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .expect("content-length header");
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    head.push_str(&String::from_utf8(body).expect("utf-8 body"));
    head
}

#[test]
fn keep_alive_reuses_one_connection_for_non_sse_endpoints() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    let conn = TcpStream::connect(addr).expect("connect");
    let mut writer = conn.try_clone().expect("clone");
    let mut reader = BufReader::new(conn);

    // Three different endpoints down one connection.
    for (i, request) in [
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n".to_string(),
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n".to_string(),
        {
            let body = r#"{"ops":[{"op":"set_label","node":0,"label":"J. Gray"}]}"#;
            format!(
                "POST /admin/mutate HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
        },
    ]
    .iter()
    .enumerate()
    {
        writer.write_all(request.as_bytes()).expect("send");
        let response = read_framed_response(&mut reader);
        assert_eq!(status_of(&response), 200, "request {i}: {response:?}");
        assert_eq!(
            header_of(&response, "connection"),
            Some("keep-alive"),
            "request {i} must keep the connection open"
        );
        assert!(header_of(&response, "keep-alive").is_some());
    }
    // The connection is still usable; without the header the server closes.
    writer
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send");
    let response = read_framed_response(&mut reader);
    assert_eq!(status_of(&response), 200);
    assert_eq!(header_of(&response, "connection"), Some("close"));
    let mut rest = Vec::new();
    reader.get_mut().read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty(), "server must close after Connection: close");

    // A plain request (no keep-alive header) still closes immediately, and
    // SSE streams always close regardless of the header.
    let response = get(addr, "/healthz");
    assert_eq!(header_of(&response, "connection"), Some("close"));
    let response = post_query(addr, r#"{"q":"gray"}"#, "Connection: keep-alive\r\n");
    assert_eq!(status_of(&response), 200);
    assert_eq!(header_of(&response, "connection"), Some("close"));

    server.shutdown();
}

#[test]
fn admin_mutate_applies_a_batch_over_the_wire() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(2).build());
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();
    let epoch_before = service.epoch();

    let body = r#"{"ops":[
        {"op":"add_node","kind":"writes","label":"w1"},
        {"op":"add_node","kind":"paper","label":"Transaction recovery"},
        {"op":"add_edge","from":3,"to":0},
        {"op":"add_edge","from":3,"to":4,"weight":1.5},
        {"op":"remove_edge","from":0,"to":1}
    ]}"#;
    let response = send(
        addr,
        &format!(
            "POST /admin/mutate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status_of(&response), 200, "{response:?}");
    let report = banks_server::json::parse(body_of(&response)).expect("mutate response json");
    assert_eq!(report.get("swapped"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        report.get("accepted").and_then(JsonValue::as_usize),
        Some(4)
    );
    assert_eq!(
        report.get("rejected").and_then(JsonValue::as_usize),
        Some(1)
    );
    let epoch = report.get("epoch").and_then(JsonValue::as_usize).unwrap() as u64;
    assert_eq!(
        report.get("previous_epoch").and_then(JsonValue::as_usize),
        Some(epoch_before as usize)
    );
    assert_ne!(epoch, epoch_before);
    assert_eq!(service.epoch(), epoch, "served epoch advanced");
    let results = match report.get("results") {
        Some(JsonValue::Array(items)) => items.clone(),
        other => panic!("results must be an array, got {other:?}"),
    };
    assert_eq!(results.len(), 5);
    assert_eq!(
        results[0].get("effect").and_then(JsonValue::as_str),
        Some("node_added")
    );
    assert_eq!(
        results[0].get("node").and_then(JsonValue::as_usize),
        Some(3)
    );
    assert_eq!(
        results[4].get("status").and_then(JsonValue::as_str),
        Some("rejected")
    );
    assert!(results[4]
        .get("error")
        .and_then(JsonValue::as_str)
        .unwrap()
        .contains("no forward edge"));

    // The mutated data is immediately queryable over the wire.
    let response = post_query(addr, r#"{"q":"gray recovery"}"#, "");
    assert_eq!(status_of(&response), 200);
    let events = parse_sse(body_of(&response));
    assert!(
        events
            .iter()
            .any(|(name, data)| name == "answer" && data.contains("\"root\"")),
        "mutated graph must answer: {events:?}"
    );

    // Metrics count the batch; a fully-rejected batch swaps nothing.
    let metrics = banks_server::json::parse(body_of(&get(addr, "/metrics"))).unwrap();
    assert_eq!(
        metrics
            .get("mutation_batches")
            .and_then(JsonValue::as_usize),
        Some(1)
    );
    assert_eq!(
        metrics
            .get("mutation_ops_accepted")
            .and_then(JsonValue::as_usize),
        Some(4)
    );
    let body = r#"{"ops":[{"op":"remove_edge","from":0,"to":1}]}"#;
    let response = send(
        addr,
        &format!(
            "POST /admin/mutate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    let report = banks_server::json::parse(body_of(&response)).unwrap();
    assert_eq!(report.get("swapped"), Some(&JsonValue::Bool(false)));
    assert_eq!(
        report.get("epoch").and_then(JsonValue::as_usize).unwrap() as u64,
        epoch,
        "rejected batch leaves the epoch alone"
    );

    server.shutdown();
}

#[test]
fn admin_mutate_rejects_malformed_bodies() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(service).spawn().unwrap();
    let addr = server.local_addr();
    let epoch_before = server.service().epoch();

    for (body, fragment) in [
        ("", "empty body"),
        ("{}", "\\\"ops\\\""),
        (r#"{"ops":{}}"#, "must be an array"),
        (r#"{"ops":[{"op":"teleport"}]}"#, "unknown op"),
        (r#"{"ops":[{"op":"add_node","kind":"x"}]}"#, "label"),
        (r#"{"ops":[{"op":"add_edge","from":-1,"to":2}]}"#, "node id"),
        (r#"{"ops":[{"op":"set_weight","from":0,"to":1}]}"#, "weight"),
    ] {
        let response = send(
            addr,
            &format!(
                "POST /admin/mutate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert_eq!(status_of(&response), 400, "body {body:?}: {response:?}");
        assert_eq!(error_code(&response), "bad_request");
        let _ = fragment; // messages are asserted loosely: status + code
    }
    assert_eq!(
        server.service().epoch(),
        epoch_before,
        "malformed bodies must not swap anything"
    );
    server.shutdown();
}

#[test]
fn error_responses_close_even_on_kept_alive_connections() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    // A malformed mutate body on a keep-alive connection: the 400 says
    // close, and the server actually closes (no half-open limbo).
    let bad = "not json";
    let response = send(
        addr,
        &format!(
            "POST /admin/mutate HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\
             Content-Length: {}\r\n\r\n{bad}",
            bad.len()
        ),
    );
    assert_eq!(status_of(&response), 400);
    assert_eq!(header_of(&response, "connection"), Some("close"));
    // `send` uses read_to_end: it only returned because the server closed.

    // 404 and 405 close too, regardless of the keep-alive request header.
    let response = send(
        addr,
        "GET /nope HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
    );
    assert_eq!(status_of(&response), 404);
    assert_eq!(header_of(&response, "connection"), Some("close"));
    let response = send(
        addr,
        "DELETE /metrics HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
    );
    assert_eq!(status_of(&response), 405);
    assert_eq!(header_of(&response, "connection"), Some("close"));

    server.shutdown();
}
