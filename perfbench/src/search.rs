//! HTTP search traffic: the cache warm-up and the closed-loop generator of
//! `search-hot`, and the client-side observations both turn into metrics.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use banks::core::json::{self as corejson, JsonValue};
use banks::datagen::Zipf;

use crate::client::{self, Marks, QueryReply};
use crate::report::{median, ms, quantile, Metrics, Tally};
use crate::rng;

/// Answers requested per query.
pub const TOP_K: usize = 10;

/// The `/query` query string for a keyword list; multi-word keywords
/// (author names) travel as quoted phrases.
pub fn query_string(keywords: &[String], top_k: usize) -> String {
    let q: Vec<String> = keywords
        .iter()
        .map(|k| {
            if k.contains(char::is_whitespace) {
                format!("\"{k}\"")
            } else {
                k.clone()
            }
        })
        .collect();
    format!("q={}&top_k={top_k}", client::encode_component(&q.join(" ")))
}

/// One completed request as the client saw it.
pub struct Obs {
    /// The request id: the `X-Banks-Trace` reference when traced, and the
    /// key of the request's line in the spans file.
    pub id: String,
    /// Index of the query in the workload's query list.
    pub query: usize,
    /// When the request was due: the batch's scheduled arrival (the
    /// follower searches of `ingest-replicated`) or the moment the client
    /// was ready to send it (`search-hot`).
    pub due: Instant,
    pub marks: Marks,
    pub answers: usize,
    pub stream_bytes: usize,
    /// Whether the request carried `X-Banks-Trace`.
    pub traced: bool,
    /// Kept when the run needs the payloads afterwards (answer checks, the
    /// traced run's server-side figures).
    pub reply: Option<QueryReply>,
}

impl Obs {
    pub fn ttfa_ms(&self) -> Option<f64> {
        self.marks.first_answer.map(|t| ms(self.due, t))
    }

    pub fn topk_ms(&self) -> f64 {
        ms(self.due, self.marks.done)
    }
}

/// Sleeps until shortly before `due`, then spins to it: on a host whose
/// cores are busy serving, a sleeping thread can wake milliseconds late,
/// and that lateness would be charged to the system as latency.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(2);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Runs one query and folds failures into `Err`.
fn run_query(
    addr: SocketAddr,
    query: &str,
    trace_ref: Option<&str>,
) -> Result<(QueryReply, Marks), String> {
    let (reply, marks) = client::query(addr, query, trace_ref)?;
    if reply.trees.is_empty() {
        return Err(format!("no answers for {query}"));
    }
    Ok((reply, marks))
}

/// Sends every query once, spread over `clients` threads that each hold at
/// most one connection: the cache warm-up of `search-hot`.  Each request is
/// due when its client is ready to send it.
pub fn once_each(
    addr: SocketAddr,
    queries: &[String],
    clients: usize,
    trace: bool,
) -> (Vec<Obs>, Tally) {
    let next = AtomicUsize::new(0);
    let results = Mutex::new((Vec::new(), Tally::default()));
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut local = Vec::new();
                let mut tally = Tally::default();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= queries.len() {
                        break;
                    }
                    let due = Instant::now();
                    let id = format!("r{i}");
                    let traced = trace && i % 2 == 1;
                    match run_query(addr, &queries[i], traced.then_some(id.as_str())) {
                        Ok((reply, marks)) => {
                            tally.ok();
                            local.push(Obs {
                                id,
                                query: i,
                                due,
                                marks,
                                answers: reply.trees.len(),
                                stream_bytes: reply.stream_bytes,
                                traced,
                                reply: Some(reply),
                            });
                        }
                        Err(e) => tally.fail(format!("query {i}: {e}")),
                    }
                }
                let mut shared = results.lock().expect("results lock");
                shared.0.extend(local);
                shared.1.merge(tally);
            });
        }
    });
    let (mut obs, tally) = results.into_inner().expect("results lock");
    obs.sort_by_key(|o| o.query);
    (obs, tally)
}

/// Result of the closed-loop generator.
pub struct ClosedRun {
    /// Every request's observation, kept for the traced run only.
    pub obs: Vec<Obs>,
    pub ttfa: Vec<f64>,
    pub topk: Vec<f64>,
    pub tally: Tally,
    pub window_s: f64,
}

/// Closed loop: `clients` threads each send their next request as soon as
/// the previous one finished, drawing queries by Zipf rank, for `seconds`.
/// Every reply must equal `expected` (the first execution) tree for tree.
pub fn closed_loop(
    addr: SocketAddr,
    queries: &[String],
    expected: &[Vec<String>],
    seed: u64,
    seconds: f64,
    clients: usize,
    trace: bool,
) -> ClosedRun {
    let zipf = Zipf::new(queries.len(), 1.0);
    let results = Mutex::new((Vec::new(), Vec::new(), Tally::default()));
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for client in 0..clients {
            let zipf = &zipf;
            let results = &results;
            scope.spawn(move || {
                let mut rng = rng::stream(seed, 100 + client as u64);
                let mut local = Vec::new();
                // Only the two timings per request, so the client's memory
                // does not grow with the server's throughput.
                let mut timings = Vec::new();
                let mut tally = Tally::default();
                let mut n = 0usize;
                loop {
                    let due = Instant::now();
                    if due >= end {
                        break;
                    }
                    n += 1;
                    let q = zipf.sample(&mut rng);
                    let id = format!("c{client}r{n}");
                    let traced = trace && n % 2 == 1;
                    match run_query(addr, &queries[q], traced.then_some(id.as_str())) {
                        Ok((reply, marks)) if reply.trees == expected[q] => {
                            tally.ok();
                            let first = marks.first_answer.unwrap_or(marks.done);
                            timings.push((ms(due, first), ms(due, marks.done)));
                            if !trace {
                                continue;
                            }
                            local.push(Obs {
                                id,
                                query: q,
                                due,
                                marks,
                                answers: reply.trees.len(),
                                stream_bytes: reply.stream_bytes,
                                traced,
                                // Traced replies feed the layer figures;
                                // the trees were checked above.
                                reply: traced.then(|| QueryReply {
                                    trees: Vec::new(),
                                    ..reply
                                }),
                            });
                        }
                        Ok(_) => {
                            tally.fail(format!("replay of query {q} differs from its first run"))
                        }
                        Err(e) => tally.fail(format!("query {q}: {e}")),
                    }
                }
                let mut shared = results.lock().expect("results lock");
                shared.0.extend(local);
                shared.1.extend(timings);
                shared.2.merge(tally);
            });
        }
    });
    let (obs, timings, tally) = results.into_inner().expect("results lock");
    let (ttfa, topk) = timings.into_iter().unzip();
    ClosedRun {
        obs,
        ttfa,
        topk,
        tally,
        window_s: start.elapsed().as_secs_f64(),
    }
}

/// The end-to-end search figures of a run.
pub fn end_to_end(ttfa: &[f64], topk: &[f64], window_s: f64, metrics: &mut Metrics) {
    metrics.put("ttfa_p50_ms", median(ttfa), "ms");
    metrics.put("ttfa_p90_ms", quantile(ttfa, 0.9), "ms");
    metrics.put("latency_p50_ms", median(topk), "ms");
    metrics.put("latency_p90_ms", quantile(topk, 0.9), "ms");
    metrics.put("qps", topk.len() as f64 / window_s, "1/s");
}

/// What the `finished` event and the `trace` event of one reply say.
struct ServerSide {
    queue_wait_ms: f64,
    cache_hit: bool,
    /// The `expand` span, when the reply carried a trace with one.
    expand_ms: Option<f64>,
}

fn server_side(reply: &QueryReply) -> Option<ServerSide> {
    let finished = corejson::parse(&reply.finished).ok()?;
    let expand_ms = reply
        .trace
        .as_deref()
        .and_then(|t| corejson::parse(t).ok())
        .and_then(|t| match t.get("spans") {
            Some(JsonValue::Array(spans)) => spans.iter().find_map(|s| {
                (s.get("name")?.as_str()? == "expand").then(|| {
                    let start = s.get("start_us")?.as_f64()?;
                    let end = s.get("end_us")?.as_f64()?;
                    Some((end - start) / 1e3)
                })?
            }),
            _ => None,
        });
    Some(ServerSide {
        queue_wait_ms: finished.get("queue_wait_us")?.as_f64()? / 1e3,
        cache_hit: matches!(finished.get("cache_hit"), Some(JsonValue::Bool(true))),
        expand_ms,
    })
}

/// Per-layer figures of the traced run, from the client marks and what the
/// server returned (`finished`: queue wait and cache hit; `trace`: the
/// `expand` span).  `extra` adds replies from outside the timed window to
/// the queue-wait and expand figures (the cache-filling first runs of
/// `search-hot`).
pub fn layers(
    obs: &[Obs],
    extra: &[&QueryReply],
    window_s: f64,
    workers: usize,
    metrics: &mut Metrics,
) {
    let sides: Vec<(&Obs, ServerSide)> = obs
        .iter()
        .filter_map(|o| Some((o, server_side(o.reply.as_ref()?)?)))
        .collect();
    let traced = obs.iter().filter(|o| o.traced).count().max(1) as f64;
    // Busy time in the window, scaled up from the traced share.
    let busy_ms = sides
        .iter()
        .filter_map(|(_, s)| s.expand_ms)
        .fold(0.0, |a, b| a + b);
    let busy_ms = busy_ms * obs.len() as f64 / traced;
    metrics.put(
        "service.worker_busy_frac",
        busy_ms / (window_s * 1e3 * workers as f64),
        "ratio",
    );
    // Queue wait and expansion of the requests that reached a worker: a
    // cache hit is answered at admission and has neither.
    let extra: Vec<ServerSide> = extra.iter().filter_map(|r| server_side(r)).collect();
    let misses: Vec<&ServerSide> = sides
        .iter()
        .map(|(_, s)| s)
        .chain(&extra)
        .filter(|s| !s.cache_hit)
        .collect();
    let queue: Vec<f64> = misses.iter().map(|s| s.queue_wait_ms).collect();
    let expand: Vec<f64> = misses.iter().filter_map(|s| s.expand_ms).collect();
    metrics.put("service.queue_wait_p50_ms", median(&queue), "ms");
    metrics.put("service.queue_wait_p90_ms", quantile(&queue, 0.9), "ms");
    metrics.put("service.expand_p50_ms", median(&expand), "ms");
    let hits = sides.iter().filter(|(_, s)| s.cache_hit).count();
    metrics.put(
        "service.cache_hit_ratio",
        hits as f64 / sides.len().max(1) as f64,
        "ratio",
    );

    let connect: Vec<f64> = obs
        .iter()
        .map(|o| ms(o.marks.start, o.marks.connected) * 1e3)
        .collect();
    let head: Vec<f64> = obs
        .iter()
        .map(|o| ms(o.marks.connected, o.marks.head) * 1e3)
        .collect();
    // Client time from send to `finished` not spent queued or expanding.
    let overhead: Vec<f64> = sides
        .iter()
        .filter(|(o, _)| o.traced)
        .map(|(o, s)| {
            (ms(o.marks.start, o.marks.done) - s.queue_wait_ms - s.expand_ms.unwrap_or(0.0)) * 1e3
        })
        .collect();
    metrics.put("server.connect_us", median(&connect), "us");
    metrics.put("server.head_us", median(&head), "us");
    metrics.put("server.overhead_p50_us", median(&overhead), "us");
    let bytes: usize = obs.iter().map(|o| o.stream_bytes).sum();
    let answers: usize = obs.iter().map(|o| o.answers).sum();
    metrics.put(
        "server.sse_bytes_per_answer",
        bytes as f64 / answers.max(1) as f64,
        "bytes",
    );

    let topk = |traced: bool| -> Vec<f64> {
        obs.iter()
            .filter(|o| o.traced == traced)
            .map(Obs::topk_ms)
            .collect()
    };
    metrics.put(
        "obs.trace_overhead_frac",
        median(&topk(true)) / median(&topk(false)) - 1.0,
        "ratio",
    );
}

/// `search-hot`'s tail latency and generator lateness.
pub fn tail(obs: &[Obs], metrics: &mut Metrics) {
    let topk: Vec<f64> = obs.iter().map(Obs::topk_ms).collect();
    metrics.put("latency_p99_ms", quantile(&topk, 0.99), "ms");
    let late: Vec<f64> = obs.iter().map(|o| ms(o.due, o.marks.start)).collect();
    metrics.put("loadgen.late_p90_ms", quantile(&late, 0.9), "ms");
}

/// Requests per run written to the spans file (the first, in send order).
const SPAN_REQUESTS: usize = 5_000;

/// One line per request for the spans file: client spans as µs offsets
/// from the request's due time, plus the server's trace when requested.
pub fn span_lines(workload: &str, obs: &[Obs], out: &mut Vec<String>) {
    let mut first: Vec<&Obs> = obs.iter().collect();
    first.sort_by_key(|o| o.marks.start);
    for o in first.into_iter().take(SPAN_REQUESTS) {
        let us = |t: Instant| t.saturating_duration_since(o.due).as_micros();
        let mut spans = vec![
            ("due-to-send", o.due, o.marks.start),
            ("connect", o.marks.start, o.marks.connected),
            ("head", o.marks.connected, o.marks.head),
        ];
        if let Some(first) = o.marks.first_answer {
            spans.push(("first-answer", o.marks.head, first));
        }
        spans.push(("finished", o.marks.head, o.marks.done));
        let spans: Vec<String> = spans
            .iter()
            .map(|(name, a, b)| {
                format!(
                    "{{\"name\":\"{name}\",\"start_us\":{},\"end_us\":{}}}",
                    us(*a),
                    us(*b)
                )
            })
            .collect();
        let server = o
            .reply
            .as_ref()
            .and_then(|r| r.trace.clone())
            .unwrap_or_else(|| "null".to_string());
        out.push(format!(
            "{{\"workload\":\"{workload}\",\"id\":\"{}\",\"query\":{},\"traced\":{},\"client\":[{}],\"server\":{server}}}",
            o.id,
            o.query,
            o.traced,
            spans.join(",")
        ));
    }
}
