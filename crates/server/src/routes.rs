//! Request dispatch: the endpoint surface over [`banks_service::Service`].
//!
//! | endpoint | behaviour |
//! |----------|-----------|
//! | `POST /query` (also `GET`) | submit a [`QuerySpec`], stream `answer` events as SSE (each carrying its 1-based rank as the SSE `id:`, so `Last-Event-ID` resumes mid-stream), finish with a `finished` event (plus a `trace` event when `X-Banks-Trace` was sent) |
//! | `GET /metrics` | [`banks_service::ServiceMetrics`] as JSON; `?format=prometheus` renders text format 0.0.4; `Accept-Encoding: gzip` is honoured |
//! | `GET /debug/slow` | recent slow-query traces (newest first; `?limit=N`) |
//! | `GET /debug/trace/<id>` | one retained trace by query id (`7` or `q7`) |
//! | `GET /debug/slo` | the stored SLO burn-rate report: overall health + per-objective rows |
//! | `GET /debug/events` | a page of the structured event log (`?since=<id>&limit=N`) |
//! | `GET /debug/events/tail` | live SSE tail of the event log; `Last-Event-ID` (or `?since=`) resumes after a disconnect |
//! | `POST /admin/swap` | rebuild and atomically swap the served snapshot; 409 + `Location` on a follower |
//! | `POST /admin/mutate` | apply a JSON [`MutationBatch`] incrementally: new epoch + per-op accept/reject; 409 + `Location` on a follower |
//! | `POST /admin/checkpoint` | force a durable snapshot and truncate the WAL |
//! | `POST /admin/slo` | replace (`{"slos":[…]}` / bare array) or upsert (single spec object) the SLO set at runtime |
//! | `GET /replication/stream` | SSE tail of the leader WAL: `record` events (hex-encoded WAL record bytes, epoch as SSE `id:`), periodic `head` events, a terminal `bootstrap` event when the cursor is behind the truncation horizon; resume via `Last-Event-ID` or `?from_epoch=` |
//! | `GET /replication/snapshot` | the newest on-disk snapshot, verbatim (`X-Banks-Snapshot-Epoch` header) — follower bootstrap |
//! | `GET /healthz` | liveness probe (epoch, workers, shards, engines) + durability status + replication status + three-state SLO health |
//!
//! Tenant and priority travel as headers (`X-Banks-Tenant`,
//! `X-Banks-Priority`), so the PR-3 scheduler and the quota layer govern
//! remote traffic exactly as in-process traffic; `X-Banks-Trace` requests
//! a per-query phase trace, echoed back with the header's value as the
//! correlation reference.  Every failure maps to a structured JSON error
//! envelope with the appropriate status code: malformed requests → 400,
//! unknown engines (with their "did you mean" suggestion) → 404, quota
//! rejections → 429 + `Retry-After`, a full admission queue or shutdown →
//! 503.
//!
//! ## Keep-alive
//!
//! The non-streaming endpoints honour `Connection: keep-alive`: a client
//! sending the header may reuse the connection for up to
//! [`KEEPALIVE_MAX_REQUESTS`] requests, with [`KEEPALIVE_IDLE`] allowed
//! between them — a metrics scraper polls without a handshake per sample,
//! and an ingest pipeline streams many small mutation batches down one
//! connection.  SSE query streams occupy their connection anyway and
//! always close; error responses close.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use banks_core::json as corejson;
use banks_core::EmissionPolicy;
use banks_graph::{GraphMutation, MutationBatch, NodeId, OpEffect};
use banks_service::{
    parse_slo_specs, GraphSnapshot, MutationReport, PersistError, Priority, QueryEvent,
    QueryResult, QuerySpec, RecvTimeout, ReplicationRole, Service, SubmitError,
};

use crate::http::{self, Limits, ParseError, Request};
use crate::json::{self, JsonValue};
use crate::sse::{SseWriter, STREAM_HEADER};

/// Bound on requests served over one kept-alive connection before the
/// server closes it (defence against a connection monopolised forever).
pub const KEEPALIVE_MAX_REQUESTS: usize = 64;

/// Idle time allowed between requests on a kept-alive connection (also
/// advertised in the `Keep-Alive` response header — one constant,
/// [`http::KEEPALIVE_IDLE_SECS`], drives both).
pub const KEEPALIVE_IDLE: Duration = Duration::from_secs(http::KEEPALIVE_IDLE_SECS);

/// A callback producing the next serving snapshot for `POST /admin/swap`
/// (e.g. re-extracting the graph from the system of record).
pub type GraphSource = Box<dyn Fn() -> GraphSnapshot + Send + Sync>;

/// Everything a connection handler needs, shared across the handler pool.
pub(crate) struct ServerContext {
    pub(crate) service: Arc<Service>,
    pub(crate) graph_source: Option<GraphSource>,
    pub(crate) limits: Limits,
    /// Where writes live when this process is a follower — the `Location`
    /// a refused `POST /admin/mutate` or `POST /admin/swap` points at.
    pub(crate) leader_url: Option<String>,
    /// The server's shutdown flag: the long-lived SSE tails end on their
    /// next wake once it is set, so `Server::shutdown` can join them.
    pub(crate) shutdown: Arc<AtomicBool>,
}

impl ServerContext {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// An error destined for the wire: status, machine-readable code, message,
/// extra envelope members and extra headers.
struct HttpError {
    status: u16,
    code: &'static str,
    message: String,
    extras: Vec<(&'static str, String)>,
    headers: Vec<(&'static str, String)>,
}

impl HttpError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        HttpError {
            status,
            code,
            message: message.into(),
            extras: Vec::new(),
            headers: Vec::new(),
        }
    }

    fn bad_request(message: impl Into<String>) -> Self {
        HttpError::new(400, "bad_request", message)
    }
}

/// Serves one connection: parse, dispatch, respond — looping while the
/// client asked for (and the endpoint allows) keep-alive, closing
/// otherwise.
pub(crate) fn handle_connection(ctx: &ServerContext, stream: TcpStream) {
    // TTFA survives the hop: answers must not sit in Nagle's buffer.
    let _ = stream.set_nodelay(true);
    // A peer that stops sending mid-request cannot pin a handler forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    // Nor can one that stops *reading*: a full send buffer (suspended
    // client, zero TCP window) fails the blocked write after this bound,
    // which the stream loop treats as a disconnect and cancels the query.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = &stream;

    let mut served = 0usize;
    loop {
        let request = match http::read_request(&mut reader, &ctx.limits) {
            Ok(request) => request,
            // Idle keep-alive connections end here: either an orderly close
            // or the idle read timeout surfacing as an I/O error.
            Err(ParseError::ConnectionClosed) | Err(ParseError::Io(_)) => return,
            Err(ParseError::BadRequest(msg)) => {
                respond_error(&mut writer, &HttpError::bad_request(msg), false);
                return;
            }
            Err(ParseError::HeadTooLarge) => {
                respond_error(
                    &mut writer,
                    &HttpError::new(431, "headers_too_large", "request head too large"),
                    false,
                );
                return;
            }
            Err(ParseError::BodyTooLarge) => {
                respond_error(
                    &mut writer,
                    &HttpError::new(413, "body_too_large", "request body too large"),
                    false,
                );
                return;
            }
        };
        served += 1;

        // Opt-in persistence, for non-streaming endpoints only: the client
        // must say `Connection: keep-alive`, and the request budget bounds
        // how long one connection can monopolise a handler.
        let wants_keep_alive = request.header("connection").is_some_and(|v| {
            v.split(',')
                .any(|t| t.trim().eq_ignore_ascii_case("keep-alive"))
        });
        let keep = wants_keep_alive
            && served < KEEPALIVE_MAX_REQUESTS
            && request.path != "/query"
            && request.path != "/debug/events/tail"
            && request.path != "/replication/stream";

        // Dispatch returns whether the connection actually stays open —
        // error responses always close (and say so on the wire), so the
        // loop must agree with what the responder wrote.
        let kept = match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => {
                respond_healthz(ctx, &mut writer, keep);
                keep
            }
            ("GET", "/metrics") => {
                respond_metrics(ctx, &request, &mut writer, keep);
                keep
            }
            ("GET", "/debug/slow") => {
                respond_slow(ctx, &request, &mut writer, keep);
                keep
            }
            ("GET", "/debug/slo") => {
                respond_slo(ctx, &mut writer, keep);
                keep
            }
            ("GET", "/debug/events") => {
                respond_events(ctx, &request, &mut writer, keep);
                keep
            }
            ("GET", "/debug/events/tail") => {
                respond_events_tail(ctx, &request, &stream);
                false
            }
            ("GET", path) if path.starts_with("/debug/trace/") => {
                respond_trace(ctx, path, &mut writer, keep)
            }
            ("POST", "/query") | ("GET", "/query") => {
                respond_query(ctx, &request, &stream);
                false
            }
            ("POST", "/admin/swap") => respond_swap(ctx, &mut writer, keep),
            ("POST", "/admin/mutate") => respond_mutate(ctx, &request, &mut writer, keep),
            ("POST", "/admin/checkpoint") => respond_checkpoint(ctx, &mut writer, keep),
            ("POST", "/admin/slo") => respond_slo_update(ctx, &request, &mut writer, keep),
            ("GET", "/replication/stream") => {
                respond_replication_stream(ctx, &request, &stream);
                false
            }
            ("GET", "/replication/snapshot") => {
                respond_replication_snapshot(ctx, &mut writer, keep)
            }
            (_, "/healthz")
            | (_, "/metrics")
            | (_, "/query")
            | (_, "/debug/slow")
            | (_, "/debug/slo")
            | (_, "/debug/events")
            | (_, "/debug/events/tail")
            | (_, "/admin/swap")
            | (_, "/admin/mutate")
            | (_, "/admin/checkpoint")
            | (_, "/admin/slo")
            | (_, "/replication/stream")
            | (_, "/replication/snapshot") => {
                respond_error(
                    &mut writer,
                    &HttpError::new(
                        405,
                        "method_not_allowed",
                        format!("{} not allowed on {}", request.method, request.path),
                    ),
                    false,
                );
                false
            }
            (_, path) if path.starts_with("/debug/trace/") => {
                respond_error(
                    &mut writer,
                    &HttpError::new(
                        405,
                        "method_not_allowed",
                        format!("{} not allowed on {}", request.method, request.path),
                    ),
                    false,
                );
                false
            }
            (_, path) => {
                respond_error(
                    &mut writer,
                    &HttpError::new(404, "not_found", format!("no route for {path}")),
                    false,
                );
                false
            }
        };
        if !kept {
            return;
        }
        // The next request gets the (shorter) keep-alive idle budget.
        let _ = stream.set_read_timeout(Some(KEEPALIVE_IDLE));
    }
}

fn respond_error(w: &mut impl Write, error: &HttpError, keep_alive: bool) {
    let body = json::error_body(error.status, error.code, &error.message, &error.extras);
    let headers: Vec<(&str, &str)> = error
        .headers
        .iter()
        .map(|(n, v)| (*n, v.as_str()))
        .collect();
    let _ = http::write_response(
        w,
        error.status,
        &headers,
        "application/json",
        body.as_bytes(),
        keep_alive,
    );
}

fn respond_healthz(ctx: &ServerContext, w: &mut impl Write, keep_alive: bool) {
    let engines = json::string_array(&ctx.service.engine_names());
    // Durability fields are all-zero (and `persistence` false) when the
    // service runs without a data directory, so probes read one shape
    // either way.
    let durability = ctx.service.durability();
    // `status` stays the liveness verdict ("the process answers");
    // `health` is the SLO judgment ("the process answers *well*") — a
    // probe that only checks reachability keeps working unchanged.
    let body = format!(
        "{{\"status\":\"ok\",\"health\":\"{}\",\"epoch\":{},\"workers\":{},\"shards\":{},\
         \"engines\":{},\
         \"persistence\":{},\"last_checkpoint_epoch\":{},\"wal_records\":{},\
         \"wal_bytes\":{},\"replication\":{}}}",
        ctx.service.health().as_str(),
        ctx.service.epoch(),
        ctx.service.workers(),
        ctx.service.shards(),
        engines,
        durability.enabled,
        durability.last_checkpoint_epoch,
        durability.wal_records,
        durability.wal_bytes,
        json::replication(&ctx.service.replication_status()),
    );
    let _ = http::write_response(w, 200, &[], "application/json", body.as_bytes(), keep_alive);
}

/// `POST /admin/checkpoint`: write a durable snapshot of the serving
/// version and truncate the WAL.  409 when the service has no data
/// directory; 500 (with the typed message) when the write fails.  Returns
/// whether the connection stays open — error responses close it.
fn respond_checkpoint(ctx: &ServerContext, w: &mut impl Write, keep_alive: bool) -> bool {
    let started = Instant::now();
    match ctx.service.checkpoint() {
        Ok(epoch) => {
            let body = format!(
                "{{\"checkpointed\":true,\"epoch\":{epoch},\"checkpoint_us\":{}}}",
                started.elapsed().as_micros(),
            );
            let _ =
                http::write_response(w, 200, &[], "application/json", body.as_bytes(), keep_alive);
            keep_alive
        }
        Err(PersistError::Disabled) => {
            respond_error(
                w,
                &HttpError::new(
                    409,
                    "persistence_disabled",
                    "service is running without a data directory",
                ),
                false,
            );
            false
        }
        Err(e) => {
            respond_error(
                w,
                &HttpError::new(500, "checkpoint_failed", e.to_string()),
                false,
            );
            false
        }
    }
}

/// `POST /admin/slo`: reconfigure the SLO set at runtime.
///
/// A body with a `"slos"` array (or a bare array) **replaces** the whole
/// set; a single spec object **upserts** that one spec, keeping the other
/// objectives' burn-rate history.  Specs use the same JSON shape as
/// [`banks_service::ServiceBuilder::slos_from_path`].
fn respond_slo_update(
    ctx: &ServerContext,
    request: &Request,
    w: &mut impl Write,
    keep_alive: bool,
) -> bool {
    let body = match request.body_utf8() {
        Ok(body) if !body.trim().is_empty() => body,
        Ok(_) => {
            respond_error(
                w,
                &HttpError::bad_request("empty body (expected SLO spec JSON)"),
                false,
            );
            return false;
        }
        Err(e) => {
            respond_error(w, &HttpError::bad_request(e), false);
            return false;
        }
    };
    let value = match json::parse(body) {
        Ok(value) => value,
        Err(e) => {
            respond_error(
                w,
                &HttpError::bad_request(format!("invalid JSON body: {e}")),
                false,
            );
            return false;
        }
    };
    let replace = matches!(value, JsonValue::Array(_)) || value.get("slos").is_some();
    let text = if replace {
        body.to_string()
    } else {
        format!("[{body}]")
    };
    let specs = match parse_slo_specs(&text) {
        Ok(specs) => specs,
        Err(e) => {
            respond_error(w, &HttpError::new(400, "invalid_slo_spec", e), false);
            return false;
        }
    };
    let body = if replace {
        let count = specs.len();
        ctx.service.replace_slos(specs);
        format!("{{\"replaced\":{count},\"specs\":{count}}}")
    } else {
        let name = corejson::string(&specs[0].name);
        for spec in specs {
            ctx.service.upsert_slo(spec);
        }
        format!(
            "{{\"upserted\":{name},\"specs\":{}}}",
            ctx.service.slo_specs().len()
        )
    };
    let _ = http::write_response(w, 200, &[], "application/json", body.as_bytes(), keep_alive);
    keep_alive
}

/// Lowercase hex of `bytes` — the `payload` encoding of replication
/// `record` events (the exact WAL record bytes, CRC framing included, so
/// the follower re-verifies integrity end to end).
fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0x0f) as usize] as char);
    }
    out
}

/// The `head` event payload: where the leader is, where its truncation
/// horizon is, and how many WAL records lie beyond the follower's cursor.
fn replication_head_json(ctx: &ServerContext, checkpoint_epoch: u64, pending: usize) -> String {
    format!(
        "{{\"leader_epoch\":{},\"checkpoint_epoch\":{checkpoint_epoch},\"pending\":{pending}}}",
        ctx.service.epoch(),
    )
}

/// `GET /replication/stream`: SSE tail of the leader's mutation WAL.
///
/// The cursor (epoch of the last record the follower holds) comes from
/// `Last-Event-ID` (the header wins) or `?from_epoch=`.  A `head` event
/// goes out as soon as the stream opens, so a follower learns the
/// leader's epoch and horizon without waiting for a keep-alive.  Each
/// WAL record past the cursor is then a `record` event whose SSE `id:` is
/// the record's epoch and whose payload is the record's bytes exactly as
/// the WAL holds them, hex-encoded (served from the service's committed
/// tail, never re-read from the file); a `head` precedes every batch.
/// Between batches the handler blocks on the service's commit signal
/// ([`Service::wait_for_commit`]) one [`TAIL_TICK`] at a time, so a
/// commit is shipped as soon as the committing request has been
/// acknowledged, and the shared tail idle discipline ([`tail_idle`])
/// probes the peer, sends an idle `head` about once a second and ends
/// the stream at server shutdown.  A cursor behind the WAL truncation
/// horizon gets a terminal `bootstrap` event: the follower must re-seed
/// from `GET /replication/snapshot` before resuming.  409 when the leader
/// runs without persistence (there is no WAL to stream).
fn respond_replication_stream(ctx: &ServerContext, request: &Request, stream: &TcpStream) {
    let mut writer = stream;
    let mut cursor = request
        .header("last-event-id")
        .and_then(|raw| raw.trim().parse::<u64>().ok())
        .or_else(|| {
            request
                .query_param("from_epoch")
                .and_then(|raw| raw.parse::<u64>().ok())
        })
        .unwrap_or(0);
    if !ctx.service.durability().enabled {
        respond_error(
            &mut writer,
            &HttpError::new(
                409,
                "persistence_disabled",
                "replication requires the leader to run with a data directory",
            ),
            false,
        );
        return;
    }
    if writer.write_all(STREAM_HEADER.as_bytes()).is_err() {
        return;
    }
    let mut sse = SseWriter::new(writer);
    // Read before the tail, so a commit landing in between is not lost:
    // the wait below returns at once when the count has moved.
    let mut seen = ctx.service.commit_count();
    let mut connected = true;
    let mut quiet_ticks = 0u32;
    loop {
        // Re-read the horizon every pass: a checkpoint can truncate the
        // WAL at any moment, turning "caught up" into "unreachable".
        let checkpoint_epoch = ctx.service.durability().last_checkpoint_epoch;
        if cursor < checkpoint_epoch {
            let _ = sse.event(
                "bootstrap",
                &format!(
                    "{{\"checkpoint_epoch\":{checkpoint_epoch},\"leader_epoch\":{}}}",
                    ctx.service.epoch()
                ),
            );
            return;
        }
        let records = match ctx.service.replication_records_after(cursor) {
            Ok(records) => records,
            Err(_) => return,
        };
        if connected || !records.is_empty() {
            connected = false;
            if sse
                .event(
                    "head",
                    &replication_head_json(ctx, checkpoint_epoch, records.len()),
                )
                .is_err()
            {
                return;
            }
        }
        for record in records {
            let data = format!(
                "{{\"seq\":{},\"parent_epoch\":{},\"epoch\":{},\"payload\":\"{}\"}}",
                record.seq,
                record.parent_epoch,
                record.epoch,
                to_hex(&record.bytes),
            );
            if sse.event_with_id("record", record.epoch, &data).is_err() {
                return;
            }
            cursor = record.epoch;
        }
        let wait_for_commit = |tick| {
            let now = ctx.service.wait_for_commit(seen, tick);
            let woke = now != seen;
            seen = now;
            woke
        };
        let keepalive = || sse.event("head", &replication_head_json(ctx, checkpoint_epoch, 0));
        if !tail_idle(ctx, stream, &mut quiet_ticks, wait_for_commit, keepalive) {
            return;
        }
    }
}

/// `GET /replication/snapshot`: the newest on-disk snapshot, verbatim —
/// what a bootstrapping follower decodes and installs.  The snapshot's
/// epoch rides in `X-Banks-Snapshot-Epoch`.  409 without persistence, 404
/// before the first checkpoint has been written.
fn respond_replication_snapshot(ctx: &ServerContext, w: &mut impl Write, keep_alive: bool) -> bool {
    match ctx.service.newest_snapshot_file() {
        Ok(Some((epoch, path))) => match std::fs::read(&path) {
            Ok(bytes) => {
                let epoch_header = epoch.to_string();
                let _ = http::write_response(
                    w,
                    200,
                    &[("X-Banks-Snapshot-Epoch", epoch_header.as_str())],
                    "application/octet-stream",
                    &bytes,
                    keep_alive,
                );
                keep_alive
            }
            Err(e) => {
                respond_error(
                    w,
                    &HttpError::new(500, "snapshot_read_failed", e.to_string()),
                    false,
                );
                false
            }
        },
        Ok(None) => {
            respond_error(
                w,
                &HttpError::new(404, "no_snapshot", "no snapshot has been written yet"),
                false,
            );
            false
        }
        Err(PersistError::Disabled) => {
            respond_error(
                w,
                &HttpError::new(
                    409,
                    "persistence_disabled",
                    "service is running without a data directory",
                ),
                false,
            );
            false
        }
        Err(e) => {
            respond_error(
                w,
                &HttpError::new(500, "snapshot_list_failed", e.to_string()),
                false,
            );
            false
        }
    }
}

/// `GET /metrics`: JSON by default, Prometheus text format 0.0.4 with
/// `?format=prometheus`.  A client advertising `Accept-Encoding: gzip`
/// gets the body DEFLATE-compressed in gzip framing (see [`crate::gzip`]).
fn respond_metrics(ctx: &ServerContext, request: &Request, w: &mut impl Write, keep_alive: bool) {
    let metrics = ctx.service.metrics();
    let (body, content_type) = match request.query_param("format").as_deref() {
        Some("prometheus") => (
            crate::prom::render(&metrics),
            "text/plain; version=0.0.4; charset=utf-8",
        ),
        _ => (json::metrics(&metrics), "application/json"),
    };
    if accepts_gzip(request) {
        let compressed = crate::gzip::compress(body.as_bytes());
        let _ = http::write_response(
            w,
            200,
            &[("Content-Encoding", "gzip")],
            content_type,
            &compressed,
            keep_alive,
        );
    } else {
        let _ = http::write_response(w, 200, &[], content_type, body.as_bytes(), keep_alive);
    }
}

/// Whether the client listed `gzip` in `Accept-Encoding` (q-values beyond
/// an explicit `gzip;q=0` refusal are not weighed — any mention opts in).
fn accepts_gzip(request: &Request) -> bool {
    request.header("accept-encoding").is_some_and(|v| {
        v.split(',').any(|token| {
            let mut parts = token.split(';');
            let coding = parts.next().unwrap_or("").trim();
            let refused = parts.any(|p| {
                p.trim().eq_ignore_ascii_case("q=0") || p.trim().eq_ignore_ascii_case("q=0.0")
            });
            coding.eq_ignore_ascii_case("gzip") && !refused
        })
    })
}

/// `GET /debug/slow`: the retained slow-query traces, newest first.
fn respond_slow(ctx: &ServerContext, request: &Request, w: &mut impl Write, keep_alive: bool) {
    let limit = request
        .query_param("limit")
        .and_then(|raw| raw.parse::<usize>().ok())
        .unwrap_or(32);
    let traces = ctx.service.slow_traces(limit);
    let mut body = format!(
        "{{\"slow_query_threshold_us\":{},\"count\":{},\"traces\":[",
        ctx.service.slow_query_threshold().as_micros(),
        traces.len(),
    );
    for (i, trace) in traces.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&json::query_trace(trace));
    }
    body.push_str("]}");
    let _ = http::write_response(w, 200, &[], "application/json", body.as_bytes(), keep_alive);
}

/// `GET /debug/slo`: the stored burn-rate report — overall health, the
/// collector cadence that produced it, and one row per objective.  The
/// report is the one the collector wrote on its last tick (evaluation
/// happens on the collector thread, where transitions become events), so
/// this endpoint is a read, never a judgment.
fn respond_slo(ctx: &ServerContext, w: &mut impl Write, keep_alive: bool) {
    let report = ctx.service.slo_report();
    let mut body = format!(
        "{{\"health\":\"{}\",\"collector_cadence_ms\":{},\"slos\":[",
        report.health.as_str(),
        ctx.service.collector_cadence().as_millis(),
    );
    for (i, row) in report.rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"name\":{},\"metric\":{},\"state\":\"{}\",\"threshold\":{},\
             \"value\":{},\"burn_fast\":{},\"burn_slow\":{}}}",
            corejson::string(&row.name),
            corejson::string(&row.metric),
            row.state.as_str(),
            corejson::number(row.threshold),
            corejson::number(row.value),
            corejson::number(row.burn_fast),
            corejson::number(row.burn_slow),
        ));
    }
    body.push_str("]}");
    let _ = http::write_response(w, 200, &[], "application/json", body.as_bytes(), keep_alive);
}

/// One event as the JSON object both `/debug/events` and the SSE tail
/// serve (same shape on both transports, like answers on `/query`).
fn event_json(event: &banks_service::Event) -> String {
    format!(
        "{{\"id\":{},\"at_unix_ms\":{},\"level\":\"{}\",\"kind\":{},\"message\":{}}}",
        event.id,
        event.at_unix_ms,
        event.level.as_str(),
        corejson::string(event.kind),
        corejson::string(&event.message),
    )
}

/// Cap on one `/debug/events` page (and one tail drain batch).
const EVENTS_PAGE_LIMIT: usize = 1024;

/// `GET /debug/events?since=<id>&limit=N`: a page of the structured event
/// log, oldest first, ids strictly greater than `since`.  The envelope
/// carries `last_id` (the newest id ever assigned — the cursor for the
/// next poll) and `dropped` (ring evictions), so a poller can both page
/// and detect loss.
fn respond_events(ctx: &ServerContext, request: &Request, w: &mut impl Write, keep_alive: bool) {
    let since = request
        .query_param("since")
        .and_then(|raw| raw.parse::<u64>().ok())
        .unwrap_or(0);
    let limit = request
        .query_param("limit")
        .and_then(|raw| raw.parse::<usize>().ok())
        .unwrap_or(256)
        .min(EVENTS_PAGE_LIMIT);
    let events = ctx.service.events().since(since, limit);
    let mut body = format!(
        "{{\"since\":{since},\"last_id\":{},\"dropped\":{},\"count\":{},\"events\":[",
        ctx.service.events().last_id(),
        ctx.service.events().dropped(),
        events.len(),
    );
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&event_json(event));
    }
    body.push_str("]}");
    let _ = http::write_response(w, 200, &[], "application/json", body.as_bytes(), keep_alive);
}

/// `GET /debug/events/tail`: live SSE tail of the event log.
///
/// Every frame is an `event` event whose SSE `id:` is the log id, so a
/// conforming client that reconnects with `Last-Event-ID` resumes exactly
/// where it left off (a `?since=<id>` query parameter does the same for
/// hand-rolled clients; the header wins when both are present).  History
/// after the cursor is replayed first, then the handler polls the log
/// under the shared tail idle discipline ([`tail_idle`]): it probes the
/// peer and emits keep-alive comments while idle so an abandoned tail
/// releases its handler, and it ends when the server shuts down.
fn respond_events_tail(ctx: &ServerContext, request: &Request, stream: &TcpStream) {
    let mut writer = stream;
    let mut cursor = request
        .header("last-event-id")
        .and_then(|raw| raw.trim().parse::<u64>().ok())
        .or_else(|| {
            request
                .query_param("since")
                .and_then(|raw| raw.parse::<u64>().ok())
        })
        .unwrap_or(0);
    if writer.write_all(STREAM_HEADER.as_bytes()).is_err() {
        return;
    }
    let mut sse = SseWriter::new(writer);
    let mut quiet_ticks = 0u32;
    loop {
        let batch = ctx.service.events().since(cursor, EVENTS_PAGE_LIMIT);
        if batch.is_empty() {
            // The event log has no wake signal: sleep out the tick.
            let sleep = |tick| {
                std::thread::sleep(tick);
                false
            };
            let keepalive = || sse.comment("keepalive");
            if !tail_idle(ctx, stream, &mut quiet_ticks, sleep, keepalive) {
                return;
            }
            continue;
        }
        quiet_ticks = 0;
        for event in batch {
            if sse
                .event_with_id("event", event.id, &event_json(&event))
                .is_err()
            {
                return;
            }
            cursor = event.id;
        }
    }
}

/// `GET /debug/trace/<id>`: one retained trace by query id (`7` and the
/// display form `q7` both work).  404 once the ring has evicted it (or if
/// it was never retained — traces are kept only when requested or slow).
fn respond_trace(ctx: &ServerContext, path: &str, w: &mut impl Write, keep_alive: bool) -> bool {
    let raw = path.trim_start_matches("/debug/trace/");
    let id = raw.strip_prefix('q').unwrap_or(raw).parse::<u64>();
    let trace = match id {
        Ok(id) => ctx.service.trace(banks_service::QueryId(id)),
        Err(_) => {
            respond_error(
                w,
                &HttpError::bad_request(format!("bad query id {raw:?} (expected 7 or q7)")),
                false,
            );
            return false;
        }
    };
    match trace {
        Some(trace) => {
            let body = json::query_trace(&trace);
            let _ =
                http::write_response(w, 200, &[], "application/json", body.as_bytes(), keep_alive);
            keep_alive
        }
        None => {
            respond_error(
                w,
                &HttpError::new(
                    404,
                    "trace_not_found",
                    format!("no retained trace for query {raw} (evicted, or never traced)"),
                ),
                false,
            );
            false
        }
    }
}

/// Refuses a write on a follower with `409 not_leader` and a `Location`
/// pointing at the same route on the leader; returns `true` when it did.
/// A follower's graph is the leader's graph: accepting a local write would
/// fork the replicated history.
fn refuse_on_follower(ctx: &ServerContext, route: &str, w: &mut impl Write) -> bool {
    if ctx.service.replication_status().role != ReplicationRole::Follower {
        return false;
    }
    let mut error = HttpError::new(
        409,
        "not_leader",
        "this process is a read replica; send writes to the leader",
    );
    if let Some(leader) = &ctx.leader_url {
        let base = leader.trim_end_matches('/');
        error.headers.push(("Location", format!("{base}{route}")));
        error.extras.push(("leader", corejson::string(leader)));
    }
    respond_error(w, &error, false);
    true
}

fn respond_swap(ctx: &ServerContext, w: &mut impl Write, keep_alive: bool) -> bool {
    if refuse_on_follower(ctx, "/admin/swap", w) {
        return false;
    }
    let started = Instant::now();
    let previous_epoch = ctx.service.epoch();
    // Build the new snapshot *before* touching the serving lock: queries
    // keep flowing on the old version during the (potentially long)
    // prestige/index derivation.
    let snapshot = match &ctx.graph_source {
        Some(source) => source(),
        // No source configured: reindex the currently-served graph (a
        // clone-swap still gets a fresh epoch, per the swap contract).
        None => GraphSnapshot::with_defaults(ctx.service.snapshot().graph().clone()),
    };
    let epoch = ctx.service.swap_snapshot(snapshot);
    let body = format!(
        "{{\"swapped\":true,\"epoch\":{epoch},\"previous_epoch\":{previous_epoch},\
         \"rebuild_us\":{}}}",
        started.elapsed().as_micros(),
    );
    let _ = http::write_response(w, 200, &[], "application/json", body.as_bytes(), keep_alive);
    keep_alive
}

/// `POST /admin/mutate`: apply a JSON mutation batch incrementally.
///
/// Body shape:
///
/// ```json
/// {"ops": [
///   {"op": "add_node", "kind": "paper", "label": "Recovery"},
///   {"op": "add_edge", "from": 7, "to": 12, "weight": 1.5},
///   {"op": "remove_edge", "from": 3, "to": 4},
///   {"op": "set_label", "node": 9, "label": "renamed"},
///   {"op": "set_weight", "from": 1, "to": 2, "weight": 2.0},
///   {"op": "remove_node", "node": 6}
/// ]}
/// ```
///
/// The response reports the epoch transition plus per-op accept/reject
/// results; a malformed *body* is a 400 before anything is applied, while
/// a semantically invalid *op* (unknown node, missing edge) is applied
/// batch semantics: it is rejected individually and the rest proceed.
fn respond_mutate(
    ctx: &ServerContext,
    request: &Request,
    w: &mut impl Write,
    keep_alive: bool,
) -> bool {
    if refuse_on_follower(ctx, "/admin/mutate", w) {
        return false;
    }
    let started = Instant::now();
    let batch = match parse_mutation_body(request) {
        Ok(batch) => batch,
        Err(error) => {
            respond_error(w, &error, false);
            return false;
        }
    };
    // The ack is written inside the commit's continuation: before the
    // commit wakes the replication stream, whose follower would otherwise
    // compete with this write for the CPU.
    ctx.service.apply_mutations_with(&batch, |report| {
        let body = mutate_ack_json(report, started.elapsed().as_micros());
        let _ = http::write_response(w, 200, &[], "application/json", body.as_bytes(), keep_alive);
    });
    keep_alive
}

/// The `POST /admin/mutate` response body: epochs, counts, apply time and
/// the per-op accept/reject results.
fn mutate_ack_json(report: &MutationReport, apply_us: u128) -> String {
    let mut results = String::from("[");
    for (i, result) in report.outcome.results.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        match result {
            Ok(effect) => {
                results.push_str(&format!(
                    "{{\"index\":{i},\"status\":\"accepted\",{}}}",
                    op_effect_json(effect)
                ));
            }
            Err(error) => {
                results.push_str(&format!(
                    "{{\"index\":{i},\"status\":\"rejected\",\"error\":{}}}",
                    corejson::string(&error.to_string())
                ));
            }
        }
    }
    results.push(']');
    format!(
        "{{\"swapped\":{},\"epoch\":{},\"previous_epoch\":{},\"accepted\":{},\
         \"rejected\":{},\"apply_us\":{apply_us},\"results\":{results}}}",
        report.swapped,
        report.epoch,
        report.previous_epoch,
        report.outcome.accepted(),
        report.outcome.rejected(),
    )
}

fn op_effect_json(effect: &OpEffect) -> String {
    match effect {
        OpEffect::NodeAdded(node) => format!("\"effect\":\"node_added\",\"node\":{node}"),
        OpEffect::EdgeAdded { from, to } => {
            format!("\"effect\":\"edge_added\",\"from\":{from},\"to\":{to}")
        }
        OpEffect::EdgesRemoved { from, to, count } => {
            format!("\"effect\":\"edges_removed\",\"from\":{from},\"to\":{to},\"count\":{count}")
        }
        OpEffect::LabelSet(node) => format!("\"effect\":\"label_set\",\"node\":{node}"),
        OpEffect::WeightSet { from, to, count } => {
            format!("\"effect\":\"weight_set\",\"from\":{from},\"to\":{to},\"count\":{count}")
        }
        OpEffect::NodeRemoved {
            node,
            edges_removed,
        } => {
            format!("\"effect\":\"node_removed\",\"node\":{node},\"edges_removed\":{edges_removed}")
        }
    }
}

/// Parses the `POST /admin/mutate` body into a [`MutationBatch`].
fn parse_mutation_body(request: &Request) -> Result<MutationBatch, HttpError> {
    let body = request.body_utf8().map_err(HttpError::bad_request)?;
    if body.trim().is_empty() {
        return Err(HttpError::bad_request(
            "empty body (expected a JSON object with an \"ops\" array)",
        ));
    }
    let value =
        json::parse(body).map_err(|e| HttpError::bad_request(format!("invalid JSON body: {e}")))?;
    let ops = match value.get("ops") {
        Some(JsonValue::Array(items)) => items,
        Some(_) => return Err(HttpError::bad_request("\"ops\" must be an array")),
        None => {
            return Err(HttpError::bad_request(
                "body must contain \"ops\" (an array of mutation objects)",
            ))
        }
    };
    let mut batch = MutationBatch::new();
    for (i, item) in ops.iter().enumerate() {
        batch.push(parse_mutation_op(i, item)?);
    }
    Ok(batch)
}

fn parse_mutation_op(i: usize, item: &JsonValue) -> Result<GraphMutation, HttpError> {
    let op = item.get("op").and_then(JsonValue::as_str).ok_or_else(|| {
        HttpError::bad_request(format!("ops[{i}] must be an object with an \"op\" string"))
    })?;
    let string_field = |field: &str| -> Result<String, HttpError> {
        item.get(field)
            .and_then(JsonValue::as_str)
            .map(|s| s.to_string())
            .ok_or_else(|| {
                HttpError::bad_request(format!("ops[{i}] ({op}): \"{field}\" must be a string"))
            })
    };
    let node_field = |field: &str| -> Result<NodeId, HttpError> {
        item.get(field)
            .and_then(JsonValue::as_usize)
            .filter(|v| *v <= u32::MAX as usize)
            .map(|v| NodeId(v as u32))
            .ok_or_else(|| {
                HttpError::bad_request(format!(
                    "ops[{i}] ({op}): \"{field}\" must be a node id (non-negative integer)"
                ))
            })
    };
    let weight_field = |field: &str| -> Result<f64, HttpError> {
        item.get(field).and_then(JsonValue::as_f64).ok_or_else(|| {
            HttpError::bad_request(format!("ops[{i}] ({op}): \"{field}\" must be a number"))
        })
    };
    match op {
        "add_node" => Ok(GraphMutation::AddNode {
            kind: string_field("kind")?,
            label: string_field("label")?,
        }),
        "add_edge" => Ok(GraphMutation::AddEdge {
            from: node_field("from")?,
            to: node_field("to")?,
            weight: match item.get("weight") {
                Some(_) => Some(weight_field("weight")?),
                None => None,
            },
        }),
        "remove_edge" => Ok(GraphMutation::RemoveEdge {
            from: node_field("from")?,
            to: node_field("to")?,
        }),
        "set_label" => Ok(GraphMutation::SetLabel {
            node: node_field("node")?,
            label: string_field("label")?,
        }),
        "set_weight" => Ok(GraphMutation::SetWeight {
            from: node_field("from")?,
            to: node_field("to")?,
            weight: weight_field("weight")?,
        }),
        "remove_node" => Ok(GraphMutation::RemoveNode {
            node: node_field("node")?,
        }),
        other => Err(HttpError::bad_request(format!(
            "ops[{i}]: unknown op {other:?} (expected add_node, add_edge, remove_edge, \
             set_label, set_weight or remove_node)"
        ))),
    }
}

/// Builds the [`QuerySpec`] a request describes, or the error to send back.
fn build_spec(request: &Request) -> Result<QuerySpec, HttpError> {
    let mut spec = if request.method == "GET" {
        spec_from_query_string(request)?
    } else {
        spec_from_json_body(request)?
    };
    if let Some(tenant) = request.header("x-banks-tenant") {
        spec = spec.tenant(tenant);
    }
    if let Some(raw) = request.header("x-banks-priority") {
        let priority: Priority = raw.parse().map_err(|e: String| HttpError::bad_request(e))?;
        spec = spec.priority(priority);
    }
    if let Some(reference) = request.header("x-banks-trace") {
        spec = spec.trace(reference);
    }
    Ok(spec)
}

fn spec_from_query_string(request: &Request) -> Result<QuerySpec, HttpError> {
    let q = request
        .query_param("q")
        .filter(|q| !q.trim().is_empty())
        .ok_or_else(|| HttpError::bad_request("missing query parameter \"q\""))?;
    let mut spec = QuerySpec::parse(&q);
    if let Some(raw) = request.query_param("top_k") {
        let top_k: usize = raw
            .parse()
            .map_err(|_| HttpError::bad_request(format!("top_k is not an integer: {raw:?}")))?;
        spec = spec.top_k(top_k);
    }
    if let Some(raw) = request.query_param("answer_work_budget") {
        let budget: usize = raw.parse().map_err(|_| {
            HttpError::bad_request(format!("answer_work_budget is not an integer: {raw:?}"))
        })?;
        spec = spec.answer_work_budget(budget);
    }
    if let Some(raw) = request.query_param("emission") {
        let mut params = spec.params;
        params.emission = parse_emission(&raw)?;
        spec = spec.params(params);
    }
    if let Some(engine) = request.query_param("engine") {
        spec = spec.engine(engine);
    }
    Ok(spec)
}

/// The wire names of [`EmissionPolicy`]: how eagerly buffered answers are
/// released.  `immediate` gives the lowest time-to-first-answer; the
/// default `exact-bound` is the paper's no-better-answer-possible gate.
fn parse_emission(raw: &str) -> Result<EmissionPolicy, HttpError> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "immediate" => Ok(EmissionPolicy::Immediate),
        "heuristic" => Ok(EmissionPolicy::Heuristic),
        "exact-bound" | "exact" | "" => Ok(EmissionPolicy::ExactBound),
        other => Err(HttpError::bad_request(format!(
            "unknown emission policy {other:?} (expected immediate, heuristic or exact-bound)"
        ))),
    }
}

fn spec_from_json_body(request: &Request) -> Result<QuerySpec, HttpError> {
    let body = request.body_utf8().map_err(HttpError::bad_request)?;
    if body.trim().is_empty() {
        return Err(HttpError::bad_request(
            "empty body (expected a JSON object with \"q\" or \"keywords\")",
        ));
    }
    let value =
        json::parse(body).map_err(|e| HttpError::bad_request(format!("invalid JSON body: {e}")))?;
    if !matches!(value, JsonValue::Object(_)) {
        return Err(HttpError::bad_request("body must be a JSON object"));
    }

    let mut spec = match (value.get("q"), value.get("keywords")) {
        (Some(q), _) => {
            let q = q
                .as_str()
                .ok_or_else(|| HttpError::bad_request("\"q\" must be a string"))?;
            if q.trim().is_empty() {
                return Err(HttpError::bad_request("\"q\" must not be empty"));
            }
            QuerySpec::parse(q)
        }
        (None, Some(JsonValue::Array(items))) => {
            let keywords: Vec<&str> = items
                .iter()
                .map(|item| {
                    item.as_str()
                        .ok_or_else(|| HttpError::bad_request("\"keywords\" must be strings"))
                })
                .collect::<Result<_, _>>()?;
            if keywords.is_empty() {
                return Err(HttpError::bad_request("\"keywords\" must not be empty"));
            }
            QuerySpec::keywords(keywords)
        }
        (None, Some(_)) => {
            return Err(HttpError::bad_request("\"keywords\" must be an array"));
        }
        (None, None) => {
            return Err(HttpError::bad_request(
                "body must contain \"q\" (string) or \"keywords\" (array)",
            ));
        }
    };

    if let Some(raw) = value.get("top_k") {
        let top_k = raw
            .as_usize()
            .ok_or_else(|| HttpError::bad_request("\"top_k\" must be a non-negative integer"))?;
        spec = spec.top_k(top_k);
    }
    if let Some(raw) = value.get("answer_work_budget") {
        let budget = raw.as_usize().ok_or_else(|| {
            HttpError::bad_request("\"answer_work_budget\" must be a non-negative integer")
        })?;
        spec = spec.answer_work_budget(budget);
    }
    if let Some(raw) = value.get("emission") {
        let raw = raw
            .as_str()
            .ok_or_else(|| HttpError::bad_request("\"emission\" must be a string"))?;
        let mut params = spec.params;
        params.emission = parse_emission(raw)?;
        spec = spec.params(params);
    }
    if let Some(raw) = value.get("engine") {
        let engine = raw
            .as_str()
            .ok_or_else(|| HttpError::bad_request("\"engine\" must be a string"))?;
        spec = spec.engine(engine);
    }
    Ok(spec)
}

/// Maps a [`SubmitError`] onto the wire: status, code, retry hints.
fn submit_error(err: SubmitError) -> HttpError {
    match err {
        SubmitError::UnknownEngine(e) => {
            let mut error = HttpError::new(404, "unknown_engine", e.to_string());
            error.extras.push(("known", json::string_array(&e.known)));
            error.extras.push((
                "suggestion",
                e.suggestion
                    .map_or_else(|| "null".to_string(), corejson::string),
            ));
            error
        }
        SubmitError::QuotaExceeded {
            tenant,
            retry_after,
        } => {
            let mut error = HttpError::new(
                429,
                "quota_exceeded",
                format!("tenant {tenant:?} is over its admission quota"),
            );
            let secs = retry_after.as_secs_f64().ceil().max(1.0) as u64;
            error.headers.push(("Retry-After", secs.to_string()));
            error
                .extras
                .push(("retry_after_ms", retry_after.as_millis().to_string()));
            error.extras.push(("tenant", corejson::string(&tenant)));
            error
        }
        SubmitError::QueueFull { capacity } => {
            let mut error = HttpError::new(
                503,
                "queue_full",
                format!("admission queue full ({capacity} queries waiting)"),
            );
            error.headers.push(("Retry-After", "1".to_string()));
            error.extras.push(("capacity", capacity.to_string()));
            error
        }
        SubmitError::ShuttingDown => {
            HttpError::new(503, "shutting_down", "service is shutting down")
        }
    }
}

/// `POST /query`: submit and stream.
fn respond_query(ctx: &ServerContext, request: &Request, stream: &TcpStream) {
    let mut writer = stream;
    let spec = match build_spec(request) {
        Ok(spec) => spec,
        Err(error) => {
            respond_error(&mut writer, &error, false);
            return;
        }
    };
    let handle = match ctx.service.submit(spec) {
        Ok(handle) => handle,
        Err(err) => {
            respond_error(&mut writer, &submit_error(err), false);
            return;
        }
    };

    if writer.write_all(STREAM_HEADER.as_bytes()).is_err() {
        handle.cancel();
        return;
    }
    // Answer frames carry their 1-based rank as the SSE `id:`.  A client
    // reconnecting with `Last-Event-ID: K` has already consumed the first
    // K answers of this stream; the engine is deterministic for a fixed
    // epoch (and the result cache makes the re-run cheap), so the handler
    // re-executes and suppresses what was already delivered.
    let skip = request
        .header("last-event-id")
        .and_then(|raw| raw.trim().parse::<u64>().ok())
        .unwrap_or(0);
    let mut delivered = 0u64;
    let mut sse = SseWriter::new(writer);
    // A dead client must cancel the query even when the engine emits
    // nothing for a long stretch (or nothing at all), so the receive is
    // *bounded*: on every timeout tick the handler probes the peer — a
    // cheap nonblocking peek, plus an SSE keep-alive comment whose write
    // failure catches what the peek cannot (e.g. a peer that left stray
    // bytes in the receive buffer before vanishing).
    loop {
        match handle.recv_timeout(Duration::from_millis(250)) {
            Ok(QueryEvent::Answer(answer)) => {
                delivered += 1;
                if delivered <= skip {
                    continue;
                }
                // The SSE payload is rendered by the same banks-core
                // function an in-process consumer would use: the stream is
                // byte-identical to the in-process encoding.
                if peer_disconnected(stream)
                    || sse
                        .event_with_id("answer", delivered, &corejson::ranked_answer(&answer))
                        .is_err()
                {
                    // The client is gone: cancel cooperatively so the
                    // engine stops within one expansion step instead of
                    // computing answers nobody will read.
                    handle.cancel();
                    break;
                }
            }
            Ok(QueryEvent::Finished(result)) => {
                let _ = sse.event("finished", &result_json(&result));
                // The phase trace, when the submission asked for one
                // (X-Banks-Trace), rides the same stream after `finished`
                // so clients correlate latency without a second request.
                if let Some(trace) = &result.trace {
                    let _ = sse.event("trace", &json::query_trace(trace));
                }
                break;
            }
            Err(RecvTimeout::Closed) => break,
            Err(RecvTimeout::TimedOut) => {
                if peer_disconnected(stream) || sse.comment("keepalive").is_err() {
                    handle.cancel();
                    break;
                }
            }
        }
    }
}

/// The `finished` event payload.
fn result_json(result: &QueryResult) -> String {
    let ttfa = result
        .time_to_first_answer
        .map_or_else(|| "null".to_string(), |d| d.as_micros().to_string());
    format!(
        "{{\"cache_hit\":{},\"epoch\":{},\"queue_wait_us\":{},\
         \"time_to_first_answer_us\":{ttfa},\"stats\":{}}}",
        result.cache_hit,
        result.epoch,
        result.queue_wait.as_micros(),
        corejson::search_stats(&result.stats),
    )
}

/// How long one idle wait of an SSE tail lasts: the cadence at which a
/// quiet tail probes its peer and notices server shutdown.
const TAIL_TICK: Duration = Duration::from_millis(100);

/// Quiet ticks between keep-alives on an idle SSE tail (about 1 s).
const TAIL_KEEPALIVE_TICKS: u32 = 10;

/// The idle discipline shared by the long-lived SSE tails
/// (`/replication/stream` and `/debug/events/tail`).  `wait` blocks for
/// at most one [`TAIL_TICK`] and returns whether new data may be ready.
/// After a quiet tick the peer is probed, and every
/// [`TAIL_KEEPALIVE_TICKS`]-th quiet tick in a row sends `keepalive`.
/// Returns `false` when the tail must end: the server is shutting down,
/// the peer has gone, or the keep-alive write failed.
fn tail_idle(
    ctx: &ServerContext,
    stream: &TcpStream,
    quiet_ticks: &mut u32,
    wait: impl FnOnce(Duration) -> bool,
    keepalive: impl FnOnce() -> std::io::Result<()>,
) -> bool {
    let woke = wait(TAIL_TICK);
    if ctx.shutting_down() {
        return false;
    }
    if woke {
        *quiet_ticks = 0;
        return true;
    }
    if peer_disconnected(stream) {
        return false;
    }
    *quiet_ticks += 1;
    !quiet_ticks.is_multiple_of(TAIL_KEEPALIVE_TICKS) || keepalive().is_ok()
}

/// Whether the SSE peer has gone away.
///
/// SSE clients send nothing after the request, so any readable state is
/// either EOF / reset (peer closed — the signal we want) or stray pipelined
/// bytes (ignored).  A non-blocking one-byte `peek` distinguishes the
/// cases without consuming anything.  A peer that parked stray bytes in
/// the buffer and *then* vanished defeats the peek (it keeps returning
/// the buffered byte); the periodic keep-alive write in the stream loop
/// catches that case through its write error.
fn peer_disconnected(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let verdict = match stream.peek(&mut probe) {
        Ok(0) => true,                                                 // orderly FIN
        Ok(_) => false,                                                // stray bytes
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false, // healthy and idle
        Err(_) => true,                                                // reset
    };
    if stream.set_nonblocking(false).is_err() {
        return true;
    }
    verdict
}
