//! The repository benchmark: runs the serving stack in-process (leader and
//! follower `Service`s, each behind a `Server`, a `Follower` replicating over
//! loopback) and drives one workload against it over HTTP.
//!
//! ```text
//! perfbench --workload <search-hot|ingest-replicated> \
//!           --seed <n> --seconds <s> --trace <0|1> [--source <id>]
//! ```
//!
//! The last line of standard output is the JSON result; `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics (and writes the
//! run's spans under `perfbench/out/`).  See `perfbench/NOTES.md`.

mod check;
mod client;
mod ingest;
mod layers;
mod report;
mod rng;
mod search;
mod stack;

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use banks::datagen::workload::OriginBias;
use banks::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

use report::{median, Metrics, Tally};
use stack::Stack;

/// The fixed benchmark graph (graph seed 7): 9,865 nodes.
fn dataset() -> DblpDataset {
    DblpDataset::generate(DblpConfig {
        num_authors: 800,
        num_papers: 1_500,
        num_conferences: 10,
        seed: 7,
        ..DblpConfig::default()
    })
}

/// Data directories of the run's services, relative to the checkout root.
const WORK_DIR: &str = "perfbench/work";
/// Client threads every workload uses; never more than the host's cores.
const CLIENTS: usize = 2;
/// Boots per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `search-hot`: distinct queries in the hot set (fits the 256-entry cache).
const HOT_SET: usize = 64;
/// Generator seed of the hot set, fixed so every seed serves the same
/// answers at the same Zipf ranks; `--seed` draws the requests.
const HOT_QUERY_SEED: u64 = 1000;
/// `ingest-replicated` offered batches per second: 5% of the write path's
/// saturation (550–850 acknowledged batches/s with every batch due at
/// once, on a 2-vCPU host), so queueing stays out of the ack latency.
const INGEST_RATE: f64 = 30.0;
/// The traced `search-hot` run adds this many seconds of ingest so the
/// write-path layers are measured on both workloads.
const TRACE_INGEST_SECONDS: f64 = 3.0;
/// Queries compared against the in-process reference per run.
const REFERENCE_SAMPLE: usize = 6;
/// `Frequent` 4-keyword queries replayed per engine in the traced run.
const CORE_REPLAY: usize = 6;

/// The per-layer metrics of the traced run (see NOTES.md for the layer
/// each one measures and the end-to-end metric it should move).
const PER_LAYER: [&str; 41] = [
    "ttfa_p90_ms",
    "latency_p90_ms",
    "qps",
    "mutate_p50_ms",
    "mutate_p90_ms",
    "replica_lag_p50_ms",
    "replica_lag_p90_ms",
    "latency_p99_ms",
    "core.bidirectional.ns_per_explored",
    "core.bidirectional.trees_per_answer",
    "core.bidirectional.explored_per_query",
    "core.bidirectional.ttfa_ms",
    "core.si-backward.ns_per_explored",
    "core.si-backward.trees_per_answer",
    "core.si-backward.explored_per_query",
    "core.si-backward.ttfa_ms",
    "core.mi-backward.ns_per_explored",
    "core.mi-backward.trees_per_answer",
    "core.mi-backward.explored_per_query",
    "core.mi-backward.ttfa_ms",
    "core.si_over_bidir_explored",
    "textindex.resolve_us",
    "textindex.origins_per_query",
    "service.queue_wait_p50_ms",
    "service.queue_wait_p90_ms",
    "service.expand_p50_ms",
    "service.worker_busy_frac",
    "service.cache_hit_ratio",
    "server.connect_us",
    "server.head_us",
    "server.overhead_p50_us",
    "server.sse_bytes_per_answer",
    "graph.apply_us",
    "persist.wal_bytes_per_batch",
    "persist.fsync_us",
    "persist.recover_ms",
    "replica.stream_delay_ms",
    "replica.apply_ms",
    "replica.bootstrap_ms",
    "obs.trace_overhead_frac",
    "loadgen.late_p90_ms",
];

const END_TO_END: [&str; 4] = ["setup_s", "ttfa_p50_ms", "latency_p50_ms", "peak_rss_mb"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    if !["search-hot", "ingest-replicated"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .unwrap_or_else(|| "10".to_string())
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=120.0).contains(&seconds) {
        return Err("--seconds must be within 1..=120".to_string());
    }
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        source: value("--source").unwrap_or_else(|| "unknown".to_string()),
    })
}

/// `count` queries of one class from the generator, de-duplicated by their
/// normalised keyword set.
fn distinct_queries(
    data: &DblpDataset,
    seed: u64,
    keywords: usize,
    bias: OriginBias,
    count: usize,
) -> Vec<Vec<String>> {
    let mut taken = HashSet::new();
    let mut out = Vec::new();
    let mut generator = WorkloadGenerator::new(data, seed);
    for _ in 0..50 {
        let cases = generator.generate(&WorkloadConfig {
            num_queries: count,
            num_keywords: keywords,
            origin_bias: bias,
            compute_ground_truth: false,
            ..WorkloadConfig::default()
        });
        for case in cases {
            let mut key: Vec<String> = case.keywords.iter().map(|k| k.to_lowercase()).collect();
            key.sort();
            if out.len() < count && taken.insert(key) {
                out.push(case.keywords);
            }
        }
        if out.len() == count {
            break;
        }
    }
    out
}

/// The run's inputs, drawn before the first boot so that the generated
/// dataset is gone before the stack's memory is measured.
struct Inputs {
    graph: DataGraph,
    /// `search-hot`'s hot set.
    hot: Vec<Vec<String>>,
    /// Traced runs: the `Frequent` 4-keyword queries of the core replay.
    frequent: Vec<Vec<String>>,
}

fn inputs(args: &Args) -> Inputs {
    let data = dataset();
    let hot = if args.workload == "search-hot" {
        distinct_queries(&data, HOT_QUERY_SEED, 2, OriginBias::Any, HOT_SET)
    } else {
        Vec::new()
    };
    let frequent = if args.trace {
        let seed = rng::stream(args.seed, 4).gen();
        distinct_queries(&data, seed, 4, OriginBias::Frequent, CORE_REPLAY)
    } else {
        Vec::new()
    };
    Inputs {
        graph: data.dataset.extraction.graph,
        hot,
        frequent,
    }
}

/// What a workload leaves for the end of the run.
#[derive(Default)]
struct Outcome {
    metrics: Metrics,
    tally: Tally,
    spans: Vec<String>,
    /// The last acknowledged write, if the run wrote: (epoch, node count).
    last_write: Option<(u64, usize)>,
    /// Replies to check once the timed window is over: (keywords, trees).
    replies: Vec<(Vec<String>, Vec<String>)>,
}

/// Validates every reply's answer trees and compares a sample against the
/// in-process reference.
fn check_replies(
    stack: &Stack,
    replies: &[(Vec<String>, Vec<String>)],
    rng: &mut SmallRng,
    tally: &mut Tally,
) {
    let snapshot = stack.leader.snapshot();
    for (keywords, trees) in replies {
        let matches = KeywordMatches::resolve(
            snapshot.graph(),
            snapshot.index(),
            &Query::from_keywords(keywords.clone()),
        );
        for tree in trees {
            if let Err(e) = check::valid_tree(tree, snapshot.graph(), &matches) {
                tally.check(false, || format!("query {keywords:?}: {e}"));
            }
        }
    }
    if replies.is_empty() {
        return;
    }
    let reference = check::Reference::new(snapshot.graph());
    for _ in 0..REFERENCE_SAMPLE.min(replies.len()) {
        let (keywords, trees) = &replies[rng.gen_range(0..replies.len())];
        match reference.trees(keywords, search::TOP_K) {
            Ok(expected) => tally.check(&expected == trees, || {
                format!("query {keywords:?} differs from the in-process reference")
            }),
            Err(e) => tally.check(false, || e),
        }
    }
}

fn search_hot(stack: &Stack, queries: &[Vec<String>], args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let wire: Vec<String> = queries
        .iter()
        .map(|k| search::query_string(k, search::TOP_K))
        .collect();
    // Fill the cache: every hot query once, on both connections.
    let (warm, tally) = search::once_each(stack.leader_addr, &wire, CLIENTS, args.trace);
    out.tally.merge(tally);
    let mut expected = vec![Vec::new(); wire.len()];
    for o in &warm {
        expected[o.query] = o
            .reply
            .as_ref()
            .map(|r| r.trees.clone())
            .unwrap_or_default();
    }
    println!(
        "search-hot: {} hot queries, Zipf(1.0), closed loop, {CLIENTS} clients",
        queries.len()
    );
    let run = search::closed_loop(
        stack.leader_addr,
        &wire,
        &expected,
        args.seed,
        args.seconds,
        CLIENTS,
        args.trace,
    );
    out.tally.merge(run.tally);
    search::end_to_end(&run.ttfa, &run.topk, run.window_s, &mut out.metrics);
    if args.trace {
        let extra: Vec<&client::QueryReply> =
            warm.iter().filter_map(|o| o.reply.as_ref()).collect();
        search::layers(
            &run.obs,
            &extra,
            run.window_s,
            stack::WORKERS,
            &mut out.metrics,
        );
        search::tail(&run.obs, &mut out.metrics);
        search::span_lines("search-hot", &run.obs, &mut out.spans);
        layers::textindex(&stack.leader.snapshot(), queries, &mut out.metrics);
    }
    out.replies = queries.iter().cloned().zip(expected).collect();
    out
}

fn ingest_replicated(stack: &Stack, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut run = match ingest::run(stack, args.seed, INGEST_RATE, args.seconds, args.trace) {
        Ok(run) => run,
        Err(e) => {
            out.tally.fail(e);
            return out;
        }
    };
    println!(
        "ingest-replicated: {} batches offered at {INGEST_RATE}/s (open loop), \
         each searched on the follower",
        run.writes.len()
    );
    out.tally.merge(std::mem::take(&mut run.tally));
    let ttfa: Vec<f64> = run.reads.iter().filter_map(search::Obs::ttfa_ms).collect();
    let latency: Vec<f64> = run
        .writes
        .iter()
        .map(|w| report::ms(w.due, w.ack))
        .collect();
    out.metrics.put("ttfa_p50_ms", median(&ttfa), "ms");
    out.metrics
        .put("ttfa_p90_ms", report::quantile(&ttfa, 0.9), "ms");
    out.metrics.put("latency_p50_ms", median(&latency), "ms");
    out.metrics
        .put("latency_p90_ms", report::quantile(&latency, 0.9), "ms");
    out.metrics
        .put("qps", run.writes.len() as f64 / run.window_s, "1/s");
    if let Some(last) = run.writes.last() {
        out.last_write = Some((last.epoch, stack.leader.snapshot().graph().num_nodes()));
    }
    if args.trace {
        ingest::write_metrics(&run, stack, &mut out.metrics);
        out.metrics
            .put("latency_p99_ms", report::quantile(&latency, 0.99), "ms");
        let late: Vec<f64> = run
            .writes
            .iter()
            .map(|w| report::ms(w.due, w.sent))
            .collect();
        out.metrics
            .put("loadgen.late_p90_ms", report::quantile(&late, 0.9), "ms");
        search::layers(
            &run.reads,
            &[],
            run.window_s,
            stack::WORKERS,
            &mut out.metrics,
        );
        search::span_lines("ingest-replicated", &run.reads, &mut out.spans);
        let tokens: Vec<Vec<String>> = run
            .reads
            .iter()
            .map(|o| vec![ingest::token(args.seed, o.query)])
            .collect();
        layers::textindex(&stack.follower.snapshot(), &tokens, &mut out.metrics);
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if CLIENTS > nproc {
        eprintln!("perfbench: {CLIENTS} client threads would exceed the host's {nproc} cores");
        std::process::exit(2);
    }
    let inputs = inputs(&args);
    let rate = match args.workload.as_str() {
        "search-hot" => "closed loop".to_string(),
        _ => format!("{INGEST_RATE} batches/s"),
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} | source {} | nproc {nproc} | \
         graph {} nodes, {} edges (DBLP 800/1500/10, graph seed 7) | offered {rate}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.source,
        inputs.graph.num_nodes(),
        inputs.graph.num_directed_edges(),
    );
    let work = Path::new(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let code = match run(&args, inputs, &work) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    // Removes `perfbench/work` itself unless another run is using it.
    let _ = std::fs::remove_dir(WORK_DIR);
    std::process::exit(code);
}

fn run(args: &Args, inputs: Inputs, work: &Path) -> Result<bool, String> {
    let Inputs {
        graph,
        hot,
        frequent,
    } = inputs;
    // From here the process's peak resident set is the stack's (plus the
    // inputs above, a constant).
    stack::reset_peak_rss()?;
    let mut setups = Vec::new();
    let mut bootstraps = Vec::new();
    let mut stack = None;
    for _ in 0..SETUPS {
        if let Some(previous) = stack.take() {
            Stack::shutdown(previous);
        }
        let (booted, boot) = Stack::boot(&graph, work)?;
        setups.push(boot.setup_s);
        bootstraps.push(boot.bootstrap_ms);
        stack = Some(booted);
    }
    let stack = stack.expect("at least one boot");
    drop(graph);

    let mut out = match args.workload.as_str() {
        "search-hot" => search_hot(&stack, &hot, args),
        _ => ingest_replicated(&stack, args),
    };
    // Read before the checks build their reference `Service` and before the
    // recovery reopen, so the figure is the stack's.
    let peak_rss_mb = stack::peak_rss_mb();
    check_replies(
        &stack,
        &out.replies,
        &mut rng::stream(args.seed, 2),
        &mut out.tally,
    );
    out.metrics.put("setup_s", median(&setups), "s");
    if args.trace {
        out.metrics
            .put("replica.bootstrap_ms", median(&bootstraps), "ms");
        if args.workload != "ingest-replicated" {
            match ingest::run(&stack, args.seed, INGEST_RATE, TRACE_INGEST_SECONDS, false) {
                Ok(probe) => {
                    ingest::write_metrics(&probe, &stack, &mut out.metrics);
                    if let Some(last) = probe.writes.last() {
                        out.last_write =
                            Some((last.epoch, stack.leader.snapshot().graph().num_nodes()));
                    }
                    out.tally.merge(probe.tally);
                }
                Err(e) => out.tally.fail(e),
            }
        }
        out.spans.extend(layers::core(
            &stack.leader.snapshot(),
            &frequent,
            &mut out.metrics,
        ));
    }

    // Recovery: the leader's directory must reopen at the served epoch
    // with the served node count (the last acknowledged write, if any).
    let served = (
        stack.leader.epoch(),
        stack.leader.snapshot().graph().num_nodes(),
    );
    let leader_dir = stack.leader_dir.clone();
    Stack::shutdown(stack);
    if let Some(last) = out.last_write {
        out.tally.check(last == served, || {
            format!("last acknowledged write {last:?} but the leader served {served:?}")
        });
    }
    let started = Instant::now();
    let reopened = Service::builder(GraphBuilder::new().build_default())
        .workers(1)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;
    let recovered = (reopened.epoch(), reopened.snapshot().graph().num_nodes());
    drop(reopened);
    out.tally.check(recovered == served, || {
        format!("recovery reopened {recovered:?}, expected {served:?}")
    });
    out.metrics.put("peak_rss_mb", peak_rss_mb, "MiB");
    if args.trace {
        out.metrics.put("persist.recover_ms", recover_ms, "ms");
        let dir = Path::new("perfbench/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, out.spans.join("\n") + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "perfbench: wrote {} spans to {}",
            out.spans.len(),
            path.display()
        );
    }
    let names: Vec<&str> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    Ok(out.metrics.print(&names, &mut out.tally))
}
