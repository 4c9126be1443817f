//! Replication endpoints over real sockets.
//!
//! The wire contract a follower builds on:
//!
//! * `GET /replication/stream` ships every WAL record past the cursor as a
//!   `record` SSE event whose `id:` is the record's epoch and whose
//!   `payload` is the hex of the exact on-disk record bytes (CRC framing
//!   included) — [`banks_service::decode_record`] round-trips them;
//! * `Last-Event-ID` resumes past what was already delivered;
//! * the stream opens with a `head` event, before any idle keep-alive,
//!   so a follower whose state is not the leader's history (its epoch is
//!   ahead of the leader's) re-seeds at once;
//! * a cursor behind the WAL truncation horizon gets a terminal
//!   `bootstrap` event instead of records;
//! * `Server::shutdown` returns while a follower and an event-log tail
//!   are still connected;
//! * `GET /replication/snapshot` serves the newest snapshot verbatim with
//!   its epoch in `X-Banks-Snapshot-Epoch`;
//! * a follower-role server 409s `POST /admin/mutate` and
//!   `POST /admin/swap` and points the `Location` header at the leader;
//! * `POST /admin/slo` replaces or upserts SLO specs at runtime.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use banks_graph::{DataGraph, GraphBuilder, MutationBatch, NodeId};
use banks_replica::Follower;
use banks_server::json::JsonValue;
use banks_server::Server;
use banks_service::{decode_record, FsyncPolicy, ReplicationRole, Service};

/// writes -> {author, paper}, padded with filler nodes so a couple of
/// small mutation batches stay far below the compaction overlay ratio —
/// the WAL keeps every record and the stream contents are deterministic.
fn padded_graph() -> DataGraph {
    let mut b = GraphBuilder::new();
    let a = b.add_node("author", "Jim Gray");
    let p = b.add_node("paper", "Granularity of locks");
    let w = b.add_node("writes", "w0");
    b.add_edge(w, a).unwrap();
    b.add_edge(w, p).unwrap();
    for i in 0..40 {
        b.add_node("filler", format!("filler {i}"));
    }
    b.build_default()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "banks-server-repl-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

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

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
    send(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
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

fn error_code(response: &str) -> String {
    banks_server::json::parse(body_of(response))
        .ok()
        .and_then(|v| {
            v.get("error")?
                .get("code")?
                .as_str()
                .map(ToString::to_string)
        })
        .unwrap_or_else(|| panic!("no error.code in {response:?}"))
}

/// One parsed SSE frame: event name, `id:` (when present), joined data.
type Frame = (String, Option<u64>, String);

fn parse_sse(body: &str) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut name = String::new();
    let mut id = None;
    let mut data: Vec<&str> = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("event: ") {
            name = rest.to_string();
        } else if let Some(rest) = line.strip_prefix("id: ") {
            id = rest.parse().ok();
        } else if let Some(rest) = line.strip_prefix("data: ") {
            data.push(rest);
        } else if line.is_empty() && !name.is_empty() {
            frames.push((std::mem::take(&mut name), id.take(), data.join("\n")));
            data.clear();
        }
    }
    frames
}

fn from_hex(text: &str) -> Vec<u8> {
    assert!(text.len().is_multiple_of(2), "odd hex length: {text:?}");
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// Opens the replication stream at `cursor` and reads until `want`
/// `record` frames arrived or the deadline passed.
fn read_stream(
    addr: std::net::SocketAddr,
    cursor: Option<u64>,
    want: usize,
    deadline: Duration,
) -> Vec<Frame> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let resume = cursor.map_or_else(String::new, |id| format!("Last-Event-ID: {id}\r\n"));
    conn.write_all(
        format!("GET /replication/stream HTTP/1.1\r\nHost: t\r\n{resume}\r\n").as_bytes(),
    )
    .expect("send request");
    let start = Instant::now();
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    while start.elapsed() < deadline {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("stream read failed: {e}"),
        }
        let text = String::from_utf8_lossy(&raw);
        if let Some((_, body)) = text.split_once("\r\n\r\n") {
            let frames = parse_sse(body);
            let records = frames.iter().filter(|(n, _, _)| n == "record").count();
            let done = frames.iter().any(|(n, _, _)| n == "bootstrap");
            if records >= want || done {
                break;
            }
        }
    }
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("stream header");
    assert!(head.contains("text/event-stream"), "head: {head}");
    parse_sse(body)
}

#[test]
fn stream_ships_wal_records_that_decode_and_resume() {
    let dir = tmp_dir("stream");
    let service = Arc::new(
        Service::builder(padded_graph())
            .workers(1)
            .persistence(&dir, FsyncPolicy::Always)
            .build(),
    );
    service.checkpoint().unwrap();
    let base = service.durability().last_checkpoint_epoch;
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    let batches = [
        MutationBatch::new().add_node("paper", "Keyword search in databases"),
        MutationBatch::new().set_label(NodeId(1), "Granularity of locks, 2nd ed"),
    ];
    for batch in &batches {
        let report = service.apply_mutations(batch);
        assert!(report.swapped, "mutation must apply: {report:?}");
    }

    let frames = read_stream(addr, Some(base), 2, Duration::from_secs(5));
    let records: Vec<&Frame> = frames.iter().filter(|(n, _, _)| n == "record").collect();
    assert_eq!(records.len(), 2, "frames: {frames:?}");

    // A head frame precedes the batch and reports how far behind we are.
    let head = frames.iter().find(|(n, _, _)| n == "head").expect("head");
    let head_json = banks_server::json::parse(&head.2).unwrap();
    assert_eq!(
        head_json.get("pending").and_then(JsonValue::as_usize),
        Some(2)
    );
    assert!(head_json.get("leader_epoch").is_some());
    assert!(head_json.get("checkpoint_epoch").is_some());

    // Record payloads are the exact WAL bytes: they decode, their epochs
    // chain from the checkpoint, and the SSE id mirrors the epoch.
    let mut parent = base;
    for frame in &records {
        let data = banks_server::json::parse(&frame.2).unwrap();
        let epoch = data.get("epoch").and_then(JsonValue::as_usize).unwrap() as u64;
        assert_eq!(frame.1, Some(epoch), "id: must carry the record epoch");
        let payload = data.get("payload").and_then(|p| p.as_str()).unwrap();
        let (record, _) = decode_record(&from_hex(payload)).expect("payload decodes");
        assert_eq!(record.epoch, epoch);
        assert_eq!(record.parent_epoch, parent);
        parent = epoch;
    }
    assert_eq!(parent, service.epoch());

    // Resuming from the first record's epoch delivers only the second.
    let first_epoch = records[0].1.unwrap();
    let frames = read_stream(addr, Some(first_epoch), 1, Duration::from_secs(5));
    let resumed: Vec<&Frame> = frames.iter().filter(|(n, _, _)| n == "record").collect();
    assert_eq!(resumed.len(), 1, "frames: {frames:?}");
    assert_eq!(resumed[0].1, records[1].1);

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_cursor_behind_the_checkpoint_gets_a_bootstrap_order() {
    let dir = tmp_dir("boot");
    let service = Arc::new(
        Service::builder(padded_graph())
            .workers(1)
            .persistence(&dir, FsyncPolicy::Always)
            .build(),
    );
    service.checkpoint().unwrap();
    let checkpoint = service.durability().last_checkpoint_epoch;
    assert!(checkpoint > 0);
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();

    // Cursor 0 predates the truncation horizon: the stream's only frame
    // is the bootstrap order, and the connection closes after it.
    let frames = read_stream(
        server.local_addr(),
        None,
        usize::MAX,
        Duration::from_secs(5),
    );
    assert_eq!(frames.len(), 1, "frames: {frames:?}");
    assert_eq!(frames[0].0, "bootstrap");
    let data = banks_server::json::parse(&frames[0].2).unwrap();
    assert_eq!(
        data.get("checkpoint_epoch").and_then(JsonValue::as_usize),
        Some(checkpoint as usize)
    );
    assert!(data.get("leader_epoch").is_some());

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_endpoint_serves_the_newest_snapshot_verbatim() {
    let dir = tmp_dir("snap");
    let service = Arc::new(
        Service::builder(padded_graph())
            .workers(1)
            .persistence(&dir, FsyncPolicy::Always)
            .build(),
    );
    service.checkpoint().unwrap();
    let epoch = service.durability().last_checkpoint_epoch;
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET /replication/snapshot HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut response = Vec::new();
    conn.read_to_end(&mut response).unwrap();
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header split");
    let head = String::from_utf8_lossy(&response[..head_end]).into_owned();
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: application/octet-stream"),
        "head: {head}"
    );
    assert_eq!(
        header_of(&head, "X-Banks-Snapshot-Epoch"),
        Some(epoch.to_string()).as_deref()
    );

    // The body is the snapshot file byte for byte.
    let body = &response[head_end + 4..];
    let (snap_epoch, path) = service.newest_snapshot_file().unwrap().expect("snapshot");
    assert_eq!(snap_epoch, epoch);
    assert_eq!(body, std::fs::read(path).unwrap().as_slice());

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replication_routes_409_without_persistence() {
    let service = Arc::new(Service::builder(padded_graph()).workers(1).build());
    let server = Server::builder(service).spawn().unwrap();
    let addr = server.local_addr();
    for path in ["/replication/stream", "/replication/snapshot"] {
        let response = get(addr, path);
        assert_eq!(status_of(&response), 409, "{path}: {response}");
        assert_eq!(error_code(&response), "persistence_disabled", "{path}");
    }
    // Wrong methods follow the 405 convention.
    for path in ["/replication/stream", "/replication/snapshot"] {
        let response = post(addr, path, "");
        assert_eq!(status_of(&response), 405, "{path}");
    }
    server.shutdown();
}

#[test]
fn a_follower_rejects_mutations_and_points_at_the_leader() {
    let service = Arc::new(Service::builder(padded_graph()).workers(1).build());
    service.set_replication_role(ReplicationRole::Follower);
    let server = Server::builder(Arc::clone(&service))
        .leader_url("http://leader.example:7878/")
        .spawn()
        .unwrap();
    let addr = server.local_addr();

    let body = r#"{"ops":[{"op":"add_node","kind":"author","label":"nope"}]}"#;
    let response = post(addr, "/admin/mutate", body);
    assert_eq!(status_of(&response), 409, "{response}");
    assert_eq!(error_code(&response), "not_leader");
    assert_eq!(
        header_of(&response, "Location"),
        Some("http://leader.example:7878/admin/mutate")
    );

    // Reads still work: a follower is a serving replica, not a mirror.
    let healthz = get(addr, "/healthz");
    assert_eq!(status_of(&healthz), 200);
    let v = banks_server::json::parse(body_of(&healthz)).unwrap();
    let replication = v.get("replication").expect("replication in healthz");
    assert_eq!(
        replication.get("role").and_then(|r| r.as_str()),
        Some("follower")
    );

    server.shutdown();
}

/// A swap on a follower would fork the replicated history just as a
/// mutation would: it gets the same refusal, and the served epoch stays
/// the leader's.  Once the process is no longer a follower, swaps work.
#[test]
fn a_follower_refuses_swaps_and_points_at_the_leader() {
    let service = Arc::new(Service::builder(padded_graph()).workers(1).build());
    service.set_replication_role(ReplicationRole::Follower);
    let server = Server::builder(Arc::clone(&service))
        .leader_url("http://leader.example:7878")
        .spawn()
        .unwrap();
    let addr = server.local_addr();
    let epoch = service.epoch();

    let response = post(addr, "/admin/swap", "");
    assert!(
        response.starts_with("HTTP/1.1 409 Conflict\r\n"),
        "{response}"
    );
    assert_eq!(error_code(&response), "not_leader");
    assert_eq!(
        header_of(&response, "Location"),
        Some("http://leader.example:7878/admin/swap")
    );
    assert_eq!(service.epoch(), epoch, "a refused swap changes nothing");

    service.set_replication_role(ReplicationRole::Leader);
    let response = post(addr, "/admin/swap", "");
    assert_eq!(status_of(&response), 200, "{response}");
    assert_ne!(service.epoch(), epoch);

    server.shutdown();
}

#[test]
fn admin_slo_replaces_and_upserts_specs_at_runtime() {
    let service = Arc::new(Service::builder(padded_graph()).workers(1).build());
    let baseline = service.slo_specs().len();
    assert!(baseline > 0, "defaults expected");
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    // A single spec object upserts without disturbing the others.
    let one = r#"{"name":"replication_lag","metric":"replication_lag_ms","threshold":2500.0}"#;
    let response = post(addr, "/admin/slo", one);
    assert_eq!(status_of(&response), 200, "{response}");
    let v = banks_server::json::parse(body_of(&response)).unwrap();
    assert_eq!(
        v.get("upserted").and_then(|u| u.as_str()),
        Some("replication_lag")
    );
    assert_eq!(service.slo_specs().len(), baseline + 1);
    assert!(service
        .slo_specs()
        .iter()
        .any(|s| s.name == "replication_lag" && s.threshold == 2500.0));

    // A {"slos":[...]} body replaces the whole set.
    let replace =
        r#"{"slos":[{"name":"lag_only","metric":"replication_lag_ms","threshold":1000.0}]}"#;
    let response = post(addr, "/admin/slo", replace);
    assert_eq!(status_of(&response), 200, "{response}");
    let v = banks_server::json::parse(body_of(&response)).unwrap();
    assert_eq!(v.get("replaced").and_then(JsonValue::as_usize), Some(1));
    assert_eq!(service.slo_specs().len(), 1);
    assert_eq!(service.slo_specs()[0].name, "lag_only");

    // Malformed specs are rejected without touching the live set.
    let response = post(addr, "/admin/slo", r#"{"name":"broken"}"#);
    assert_eq!(status_of(&response), 400, "{response}");
    assert_eq!(error_code(&response), "invalid_slo_spec");
    assert_eq!(service.slo_specs().len(), 1);

    let response = post(addr, "/admin/slo", "not json");
    assert_eq!(status_of(&response), 400);

    // Wrong method follows the 405 convention.
    let response = get(addr, "/admin/slo");
    assert_eq!(status_of(&response), 405);

    server.shutdown();
}

#[test]
fn the_stream_opens_with_a_head_before_any_idle_tick() {
    let dir = tmp_dir("head");
    let service = Arc::new(
        Service::builder(padded_graph())
            .workers(1)
            .persistence(&dir, FsyncPolicy::Always)
            .build(),
    );
    let epoch = service.epoch();
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();

    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    // Half the ~1 s idle keep-alive cadence: only a head sent on connect
    // arrives within it.
    conn.set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    conn.write_all(
        format!("GET /replication/stream HTTP/1.1\r\nHost: t\r\nLast-Event-ID: {epoch}\r\n\r\n")
            .as_bytes(),
    )
    .expect("send request");
    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    let frames = loop {
        let n = conn
            .read(&mut buf)
            .expect("an event within the 500 ms read timeout");
        assert!(n > 0, "stream closed before its first event");
        raw.extend_from_slice(&buf[..n]);
        let text = String::from_utf8_lossy(&raw);
        if let Some((_, body)) = text.split_once("\r\n\r\n") {
            let frames = parse_sse(body);
            if !frames.is_empty() {
                break frames;
            }
        }
    };
    assert_eq!(frames[0].0, "head", "frames: {frames:?}");
    let head = banks_server::json::parse(&frames[0].2).unwrap();
    assert_eq!(
        head.get("leader_epoch").and_then(JsonValue::as_usize),
        Some(epoch as usize)
    );
    assert_eq!(
        head.get("checkpoint_epoch").and_then(JsonValue::as_usize),
        Some(service.durability().last_checkpoint_epoch as usize)
    );
    assert_eq!(head.get("pending").and_then(JsonValue::as_usize), Some(0));

    drop(conn);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What a follower serves before it has replicated anything.
fn placeholder_graph() -> DataGraph {
    let mut b = GraphBuilder::new();
    b.add_node("boot", "placeholder");
    b.build_default()
}

/// Polls until `follower` serves `epoch`; returns how long that took.
fn wait_for_epoch(follower: &Service, epoch: u64) -> Duration {
    let started = Instant::now();
    while follower.epoch() != epoch && started.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(follower.epoch(), epoch, "follower never caught up");
    started.elapsed()
}

#[test]
fn a_follower_ahead_of_the_leader_bootstraps_without_an_idle_tick() {
    let dir = tmp_dir("ahead");
    let leader = Arc::new(
        Service::builder(padded_graph())
            .workers(1)
            .persistence(&dir, FsyncPolicy::Always)
            .build(),
    );
    let report =
        leader.apply_mutations(&MutationBatch::new().add_node("paper", "Shipped on connect"));
    assert!(report.swapped);
    let server = Server::builder(Arc::clone(&leader)).spawn().unwrap();

    // Epochs come from one process-wide counter, so a placeholder built
    // after the leader is numerically ahead of the leader's horizon: its
    // cursor draws no `bootstrap` order, and only the leader's `head`
    // tells it that its state is not the leader's history.
    let follower = Arc::new(Service::builder(placeholder_graph()).workers(1).build());
    assert!(follower.epoch() > leader.epoch());
    let replicator = Follower::start(
        Arc::clone(&follower),
        &format!("http://{}", server.local_addr()),
    )
    .unwrap();
    let took = wait_for_epoch(&follower, leader.epoch());
    // The first idle head goes out about a second after connect; the head
    // sent on connect lets the follower re-seed and replay well before.
    assert!(
        took < Duration::from_millis(600),
        "caught up after {took:?}: the follower waited for an idle head"
    );

    drop(replicator);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shutdown_returns_while_a_follower_and_an_event_tail_are_connected() {
    let dir = tmp_dir("shutdown");
    let leader = Arc::new(
        Service::builder(padded_graph())
            .workers(1)
            .persistence(&dir, FsyncPolicy::Always)
            .build(),
    );
    let server = Server::builder(Arc::clone(&leader)).spawn().unwrap();
    let addr = server.local_addr();

    let follower = Arc::new(Service::builder(placeholder_graph()).workers(1).build());
    let replicator = Follower::start(Arc::clone(&follower), &format!("http://{addr}")).unwrap();
    let report = leader.apply_mutations(&MutationBatch::new().add_node("paper", "Tailed"));
    assert!(report.swapped);
    wait_for_epoch(&follower, leader.epoch());

    // An event-log tail, connected once its stream head has arrived.
    let mut tail = TcpStream::connect(addr).expect("connect");
    tail.write_all(b"GET /debug/events/tail HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send request");
    tail.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 256];
    assert!(tail.read(&mut buf).expect("tail stream head") > 0);

    let (done_tx, done_rx) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("Server::shutdown must return within 2 s while tails are connected");
    stopper.join().unwrap();

    drop(replicator);
    drop(tail);
    std::fs::remove_dir_all(&dir).unwrap();
}
