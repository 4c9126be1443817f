//! Replicated ingest: small batches POSTed to the leader's `/admin/mutate`
//! on a Poisson schedule, each checked for read-your-writes on the
//! follower.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use banks::core::json::{self as corejson, JsonValue};
use rand::Rng;

use crate::client::{self, Marks};
use crate::report::{median, ms, quantile, Metrics, Tally};
use crate::rng;
use crate::search::{self, Obs};
use crate::stack::Stack;

/// Seed of the batches' authors, fixed so every seed makes the same graph
/// changes (and the leader compacts at the same batch); `--seed` draws the
/// arrival times.
const AUTHOR_SEED: u64 = 1000;

/// One acknowledged batch.
pub struct Write {
    pub due: Instant,
    /// When the poster sent it (later than `due` when the previous batch
    /// was still in flight).
    pub sent: Instant,
    pub ack: Instant,
    pub epoch: u64,
    /// `apply_us` of the mutate response.
    pub apply_us: f64,
    /// When the follower first served the batch's epoch.
    pub visible: Instant,
}

pub struct IngestRun {
    pub writes: Vec<Write>,
    /// The follower's read-your-writes queries; `due` is the batch's due time.
    pub reads: Vec<Obs>,
    pub tally: Tally,
    pub window_s: f64,
    pub wal_bytes_per_batch: f64,
}

/// A title token no generated word can collide with: letters only (the
/// tokenizer splits on non-alphanumerics), unique per seed and batch.
pub fn token(seed: u64, i: usize) -> String {
    let mut n = (seed << 20) | i as u64;
    let mut s = String::from("ingestq");
    loop {
        s.push((b'a' + (n % 26) as u8) as char);
        n /= 26;
        if n == 0 {
            return s;
        }
    }
}

fn wal_bytes(stack: &Stack) -> Result<(f64, f64), String> {
    let (status, body, _) = client::request(stack.leader_addr, "GET", "/healthz", "")?;
    let value = corejson::parse(&body).map_err(|e| format!("/healthz: {e}"))?;
    let field = |name: &str| value.get(name).and_then(JsonValue::as_f64);
    match (status, field("wal_bytes"), field("wal_records")) {
        (200, Some(bytes), Some(records)) => Ok((bytes, records)),
        _ => Err(format!("/healthz answered {status}: {body}")),
    }
}

/// Posts batches at `rate` per second for `seconds`: each adds a paper
/// titled with a unique token, a `writes` node and two edges linking it to
/// an existing author.  One client thread posts; a second waits for the
/// follower to serve each acknowledged epoch and then searches the
/// follower for the token.
pub fn run(
    stack: &Stack,
    seed: u64,
    rate: f64,
    seconds: f64,
    trace: bool,
) -> Result<IngestRun, String> {
    let snapshot = stack.leader.snapshot();
    let graph = snapshot.graph();
    let authors = graph.nodes_of_kind(graph.kind_by_name("author").ok_or("no author kind")?);
    let mut next_node = graph.num_nodes();
    drop(snapshot);
    let arrivals = rng::arrivals(&mut rng::stream(seed, 3), rate, seconds);
    let mut author_rng = rng::stream(AUTHOR_SEED, 5);
    let (wal_bytes_before, wal_records_before) = wal_bytes(stack)?;
    let checkpoints_before = stack.leader.durability().checkpoints;

    let t0 = Instant::now() + Duration::from_millis(20);
    // (batch index, due time, acknowledged epoch, new paper's node id)
    let (tx, rx) = mpsc::channel::<(usize, Instant, u64, u32)>();
    let follower = &stack.follower;
    let follower_addr = stack.follower_addr;
    let (mut tally, reads, acked, visible) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut tally = Tally::default();
            let mut reads = Vec::new();
            let mut visible = Vec::new();
            for (i, due, epoch, paper) in rx {
                let waited = Instant::now();
                while follower.epoch() < epoch {
                    if waited.elapsed() > Duration::from_secs(10) {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                let seen = Instant::now();
                visible.push(seen);
                if follower.epoch() < epoch {
                    tally.fail(format!("follower never served epoch {epoch}"));
                    continue;
                }
                let id = format!("w{i}");
                let traced = trace && i % 2 == 1;
                let query = search::query_string(&[token(seed, i)], 1);
                match client::query(follower_addr, &query, traced.then_some(id.as_str())) {
                    Ok((reply, marks)) => {
                        let found = reply.trees.first().is_some_and(|t| {
                            corejson::parse(t).is_ok_and(|v| {
                                v.get("root").and_then(JsonValue::as_usize) == Some(paper as usize)
                            })
                        });
                        if !found {
                            tally.fail(format!(
                                "follower search for batch {i} missed paper {paper}"
                            ));
                            continue;
                        }
                        tally.ok();
                        reads.push(Obs {
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
                    Err(e) => tally.fail(format!("follower search for batch {i}: {e}")),
                }
            }
            (tally, reads, visible)
        });

        let mut tally = Tally::default();
        let mut acked = Vec::new();
        for (i, offset) in arrivals.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(*offset);
            search::wait_until(due);
            let paper = next_node as u32;
            let writes = paper + 1;
            let author = authors[author_rng.gen_range(0..authors.len())].0;
            let body = format!(
                "{{\"ops\":[{{\"op\":\"add_node\",\"kind\":\"paper\",\"label\":\"{} replicated ingest\"}},\
                 {{\"op\":\"add_node\",\"kind\":\"writes\",\"label\":\"\"}},\
                 {{\"op\":\"add_edge\",\"from\":{writes},\"to\":{paper}}},\
                 {{\"op\":\"add_edge\",\"from\":{writes},\"to\":{author}}}]}}",
                token(seed, i)
            );
            match client::request(stack.leader_addr, "POST", "/admin/mutate", &body)
                .and_then(|(status, body, marks)| ack(status, &body, marks, paper))
            {
                Ok((epoch, apply_us, marks)) => {
                    next_node += 2;
                    tally.ok();
                    acked.push((due, marks.start, marks.done, epoch, apply_us));
                    let _ = tx.send((i, due, epoch, paper));
                }
                Err(e) => tally.fail(format!("mutate batch {i}: {e}")),
            }
        }
        drop(tx);
        let (read_tally, reads, visible) = reader.join().expect("reader thread");
        tally.merge(read_tally);
        (tally, reads, acked, visible)
    });
    let (wal_bytes_after, wal_records_after) = wal_bytes(stack)?;
    // A checkpoint (the leader compacting its overlay chain) truncates the
    // WAL; the records after it are then the batches acknowledged at later
    // epochs.
    let durability = stack.leader.durability();
    let checkpoints = durability.checkpoints - checkpoints_before;
    let (bytes, records, expected) = if checkpoints == 0 {
        (
            wal_bytes_after - wal_bytes_before,
            wal_records_after - wal_records_before,
            acked.len(),
        )
    } else {
        let after = acked
            .iter()
            .filter(|a| a.3 > durability.last_checkpoint_epoch)
            .count();
        println!(
            "ingest: the leader checkpointed {checkpoints} time(s) (overlay compaction), \
             the last after batch {} of {}",
            acked.len() - after,
            acked.len()
        );
        (wal_bytes_after, wal_records_after, after)
    };
    tally.check(records as usize == expected, || {
        format!("{expected} acked batches in the WAL but {records} records")
    });
    // The window runs from the start to the last acknowledgement.
    let window_s = acked
        .iter()
        .map(|(_, _, ack, _, _)| ms(t0, *ack) / 1e3)
        .fold(0.0, f64::max);
    let writes = acked
        .into_iter()
        .zip(visible)
        .map(|((due, sent, ack, epoch, apply_us), visible)| Write {
            due,
            sent,
            ack,
            epoch,
            apply_us,
            visible,
        })
        .collect();
    Ok(IngestRun {
        writes,
        reads,
        tally,
        window_s,
        wal_bytes_per_batch: bytes / records.max(1.0),
    })
}

/// Checks a mutate response: all four ops accepted, the paper got the
/// expected id, the epoch advanced.
fn ack(status: u16, body: &str, marks: Marks, paper: u32) -> Result<(u64, f64, Marks), String> {
    let value = corejson::parse(body).map_err(|e| format!("mutate response: {e}"))?;
    let num = |name: &str| value.get(name).and_then(JsonValue::as_f64);
    let first_node = match value.get("results") {
        Some(JsonValue::Array(results)) => results
            .first()
            .and_then(|r| r.get("node"))
            .and_then(JsonValue::as_usize),
        _ => None,
    };
    match (
        status,
        value.get("swapped"),
        num("accepted"),
        num("epoch"),
        num("apply_us"),
    ) {
        (200, Some(JsonValue::Bool(true)), Some(accepted), Some(epoch), Some(apply_us))
            if accepted == 4.0 && first_node == Some(paper as usize) =>
        {
            Ok((epoch as u64, apply_us, marks))
        }
        _ => Err(format!("unexpected mutate response {status}: {body}")),
    }
}

/// The write-path figures: ack latency and replica lag (end to end on
/// `ingest-replicated`, layer figures elsewhere).
pub fn write_metrics(run: &IngestRun, stack: &Stack, metrics: &mut Metrics) {
    let mutate: Vec<f64> = run.writes.iter().map(|w| ms(w.due, w.ack)).collect();
    let lag: Vec<f64> = run.writes.iter().map(|w| ms(w.ack, w.visible)).collect();
    metrics.put("mutate_p50_ms", median(&mutate), "ms");
    metrics.put("mutate_p90_ms", quantile(&mutate, 0.9), "ms");
    metrics.put("replica_lag_p50_ms", median(&lag), "ms");
    metrics.put("replica_lag_p90_ms", quantile(&lag, 0.9), "ms");
    let apply: Vec<f64> = run.writes.iter().map(|w| w.apply_us).collect();
    metrics.put("graph.apply_us", median(&apply), "us");
    metrics.put(
        "persist.wal_bytes_per_batch",
        run.wal_bytes_per_batch,
        "bytes",
    );
    let fsync = stack.leader.metrics().wal_fsync;
    metrics.put("persist.fsync_us", fsync.mean.as_secs_f64() * 1e6, "us");
    let replica_apply = stack.follower.metrics().mutation_apply;
    let apply_ms = replica_apply.mean.as_secs_f64() * 1e3;
    metrics.put("replica.apply_ms", apply_ms, "ms");
    metrics.put("replica.stream_delay_ms", median(&lag) - apply_ms, "ms");
}
