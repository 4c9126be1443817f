//! Service throughput demo: a mixed workload against the worker pool.
//!
//! ```text
//! cargo run --release --example service_qps
//! ```
//!
//! Part 1 serves the paper's Figure 4 graph through the new
//! `Service::builder(graph).workers(4).cache_capacity(256).build()` API.
//! Part 2 loads a synthetic DBLP corpus, generates a mixed workload with
//! `datagen::workload` (co-authorship, citation-pair and repeated queries
//! across rare and frequent keywords), fires it at the service, and prints
//! QPS, the cache hit rate and time-to-first-answer percentiles.
//!
//! `--obs-gate` instead runs the observability overhead gate: the same
//! workload with the observability stack off and on — per-query tracing
//! plus the 100 ms collector / SLO / event-log retention layer —
//! interleaved; writes `BENCH_obs.json` and exits non-zero if the stack
//! costs more than 5% QPS.
//!
//! `--e2e-bench` runs the end-to-end sharding benchmark: the same mixed
//! workload through the scatter-gather engine at K=1 and K=4, measuring
//! QPS, TTFA p50/p99 and mutation-apply latency per configuration, plus a
//! single-query TTFA comparison on a large corpus; writes `BENCH_e2e.json`.
//! With `--gate`, exits non-zero unless K=4 TTFA beats K=1 by ≥1.5× — the
//! gate only *enforces* on hosts with ≥4 cores, since a parallel scatter
//! phase cannot honestly beat the sequential path on fewer.

use std::time::{Duration, Instant};

use banks::prelude::*;

fn main() {
    if std::env::args().any(|a| a == "--obs-gate") {
        obs_gate();
        return;
    }
    if std::env::args().any(|a| a == "--e2e-bench") {
        e2e_bench(std::env::args().any(|a| a == "--gate"));
        return;
    }
    figure4_demo();
    dblp_workload();
}

/// The end-to-end sharding benchmark (and, with `gate`, the K=4 perf gate).
fn e2e_bench(gate: bool) {
    const TTFA_RATIO_REQUIRED: f64 = 1.5;
    const GATE_MIN_CORES: usize = 4;

    let data = DblpDataset::generate(DblpConfig {
        num_authors: 2000,
        num_papers: 4000,
        num_conferences: 12,
        seed: 7,
        ..DblpConfig::default()
    });
    println!(
        "e2e bench: dblp graph with {} nodes, {} directed edges",
        data.dataset.graph().num_nodes(),
        data.dataset.graph().num_directed_edges()
    );
    let mut generator = WorkloadGenerator::new(&data, 42);
    let cases = generator.generate(&WorkloadConfig {
        num_queries: 40,
        num_keywords: 2,
        answer_size: 5,
        origin_bias: banks::datagen::OriginBias::Any,
        compute_ground_truth: false,
        ..WorkloadConfig::default()
    });
    // the heavy gate query: frequent keywords fan hundreds of origins, so
    // the scatter phase dominates time-to-first-answer
    let heavy = generator.generate(&WorkloadConfig {
        num_queries: 3,
        num_keywords: 3,
        answer_size: 5,
        origin_bias: banks::datagen::OriginBias::Frequent,
        compute_ground_truth: false,
        ..WorkloadConfig::default()
    });

    /// One configuration's measurements, all in microseconds.
    struct Config {
        shards: usize,
        qps: f64,
        ttfa_p50_us: u64,
        ttfa_p99_us: u64,
        mutation_apply_p50_us: u64,
        heavy_ttfa_us: u64,
    }

    let run = |shards: usize| -> Config {
        let service = Service::builder(data.dataset.graph().clone())
            .workers(4)
            .queue_capacity(1024)
            .cache_capacity(0) // every submission executes: honest engine work
            .shards(shards)
            .index(data.dataset.index().clone())
            .build();

        let mut ttfa: Vec<Duration> = Vec::new();
        let started = Instant::now();
        let handles: Vec<_> = cases
            .iter()
            .map(|case| {
                let spec = QuerySpec::new(case.query())
                    .params(SearchParams::with_top_k(10))
                    .engine("scatter-gather");
                service.submit(spec).expect("submit")
            })
            .collect();
        for handle in handles {
            let (_, result) = handle.wait();
            if let Some(t) = result.time_to_first_answer {
                ttfa.push(t);
            }
        }
        let qps = cases.len() as f64 / started.elapsed().as_secs_f64();

        // mutation-apply latency: a stream of small batches
        let base = service.snapshot().graph().num_nodes() as u32;
        for i in 0..8u32 {
            let n = base + 2 * i;
            let report = service.apply_mutations(
                &MutationBatch::new()
                    .add_node("paper", format!("bench paper {i}"))
                    .add_node("writes", format!("bench w{i}"))
                    .add_edge(NodeId(n + 1), NodeId(n))
                    .add_edge(NodeId(n + 1), NodeId(0)),
            );
            assert!(report.swapped, "bench mutation {i} must apply");
        }
        let mutation_apply = service.metrics().mutation_apply;

        // best-of-5 TTFA for the heaviest query, submitted alone so the
        // scatter phase has the machine to itself
        let mut heavy_best = Duration::MAX;
        for _ in 0..5 {
            for case in &heavy {
                let spec = QuerySpec::new(case.query())
                    .params(SearchParams::with_top_k(10))
                    .engine("scatter-gather");
                let (_, result) = service.submit(spec).expect("submit").wait();
                if let Some(t) = result.time_to_first_answer {
                    heavy_best = heavy_best.min(t);
                }
            }
        }

        ttfa.sort_unstable();
        let pct = |p: f64| -> u64 {
            if ttfa.is_empty() {
                return 0;
            }
            ttfa[((ttfa.len() - 1) as f64 * p) as usize].as_micros() as u64
        };
        Config {
            shards,
            qps,
            ttfa_p50_us: pct(0.50),
            ttfa_p99_us: pct(0.99),
            mutation_apply_p50_us: mutation_apply.p50.as_micros() as u64,
            heavy_ttfa_us: heavy_best.as_micros() as u64,
        }
    };

    run(1); // warm-up, discarded
    let configs = [run(1), run(4)];
    for c in &configs {
        println!(
            "  K={}: {:.0} QPS, ttfa p50 {}µs p99 {}µs, mutation-apply p50 {}µs, heavy ttfa {}µs",
            c.shards, c.qps, c.ttfa_p50_us, c.ttfa_p99_us, c.mutation_apply_p50_us, c.heavy_ttfa_us
        );
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ratio = configs[0].heavy_ttfa_us as f64 / configs[1].heavy_ttfa_us.max(1) as f64;
    let enforced = gate && cores >= GATE_MIN_CORES;
    let pass = ratio >= TTFA_RATIO_REQUIRED;
    println!(
        "  gate: K=4 heavy TTFA {ratio:.2}x better than K=1 (required {TTFA_RATIO_REQUIRED}x, \
         {cores} core(s), {})",
        if enforced {
            "enforced"
        } else {
            "report-only: needs >=4 cores"
        }
    );
    // GitHub Actions annotation: the gate's mode and measured ratio land
    // on the run summary page instead of being buried in the step log.
    println!(
        "::notice title=Sharded TTFA gate::mode={} ratio={ratio:.2}x \
         required={TTFA_RATIO_REQUIRED}x cores={cores} pass={pass}",
        if enforced { "enforced" } else { "report-only" }
    );

    let mut json = String::from("{\"bench\":\"e2e_sharded\",\"configs\":[");
    for (i, c) in configs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"shards\":{},\"qps\":{:.1},\"ttfa_p50_us\":{},\"ttfa_p99_us\":{},\
             \"mutation_apply_p50_us\":{},\"heavy_ttfa_us\":{}}}",
            c.shards, c.qps, c.ttfa_p50_us, c.ttfa_p99_us, c.mutation_apply_p50_us, c.heavy_ttfa_us
        ));
    }
    json.push_str(&format!(
        "],\"ttfa_gate\":{{\"cores\":{cores},\"ratio\":{ratio:.3},\
         \"required\":{TTFA_RATIO_REQUIRED},\"enforced\":{enforced},\"pass\":{pass}}}}}\n"
    ));
    std::fs::write("BENCH_e2e.json", &json).expect("write BENCH_e2e.json");
    println!("wrote BENCH_e2e.json");

    if enforced && !pass {
        eprintln!(
            "FAIL: K=4 TTFA only {ratio:.2}x better than K=1 (required {TTFA_RATIO_REQUIRED}x)"
        );
        std::process::exit(1);
    }
    println!("PASS");
}

/// The observability overhead gate.
///
/// Runs the DBLP workload alternately with the full observability stack
/// off and on.  "On" is the worst case across the whole layer: every
/// submission carries `QuerySpec::trace` (work counters, a `QueryTrace`,
/// a ring push per query) *and* the retention layer runs hot — a 100 ms
/// collector cadence snapshotting the time series, evaluating the stock
/// SLOs, and feeding the event log.  Rounds run on fresh services so
/// cache state is identical.  Compares best-of QPS and enforces the <5%
/// regression budget.
fn obs_gate() {
    const ROUNDS: usize = 5;
    const BUDGET_PCT: f64 = 5.0;

    let data = DblpDataset::generate(DblpConfig {
        num_authors: 800,
        num_papers: 1500,
        num_conferences: 10,
        seed: 11,
        ..DblpConfig::default()
    });
    let mut generator = WorkloadGenerator::new(&data, 42);
    let cases = generator.generate(&WorkloadConfig {
        num_queries: 60,
        num_keywords: 2,
        answer_size: 5,
        origin_bias: banks::datagen::OriginBias::Any,
        compute_ground_truth: false,
        ..WorkloadConfig::default()
    });
    println!(
        "obs gate: {} queries x {ROUNDS} rounds, traced vs untraced",
        cases.len()
    );

    let run = |traced: bool| -> f64 {
        let mut builder = Service::builder(data.dataset.graph().clone())
            .workers(4)
            .queue_capacity(1024)
            .cache_capacity(256)
            .index(data.dataset.index().clone());
        if traced {
            builder = builder
                .collector_cadence(Duration::from_millis(100))
                .slos(SloSpec::defaults());
        }
        let service = builder.build();
        let started = Instant::now();
        let handles: Vec<_> = cases
            .iter()
            .map(|case| {
                let mut spec = QuerySpec::new(case.query()).params(SearchParams::with_top_k(10));
                if traced {
                    spec = spec.trace("gate");
                }
                service.submit(spec).expect("submit")
            })
            .collect();
        for handle in handles {
            let (_, result) = handle.wait();
            assert_eq!(result.trace.is_some(), traced, "trace presence matches");
        }
        cases.len() as f64 / started.elapsed().as_secs_f64()
    };

    // Interleaved rounds cancel out drift (thermal, page cache, neighbours).
    let mut qps_off: Vec<f64> = Vec::new();
    let mut qps_on: Vec<f64> = Vec::new();
    run(false); // warm-up, discarded
    for _ in 0..ROUNDS {
        qps_off.push(run(false));
        qps_on.push(run(true));
    }
    let best = |xs: &[f64]| xs.iter().cloned().fold(f64::MIN, f64::max);
    let (off, on) = (best(&qps_off), best(&qps_on));
    let regression_pct = 100.0 * (off - on) / off;
    println!("  tracing off: {off:.0} QPS (best of {ROUNDS})");
    println!("  tracing on:  {on:.0} QPS (best of {ROUNDS})");
    println!("  regression:  {regression_pct:.2}% (budget {BUDGET_PCT}%)");

    let report = format!(
        "{{\"bench\":\"obs_overhead_gate\",\"queries\":{},\"rounds\":{ROUNDS},\
         \"qps_tracing_off\":{off:.1},\"qps_tracing_on\":{on:.1},\
         \"regression_pct\":{regression_pct:.2},\"budget_pct\":{BUDGET_PCT}}}\n",
        cases.len()
    );
    std::fs::write("BENCH_obs.json", &report).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");

    if regression_pct > BUDGET_PCT {
        eprintln!("FAIL: tracing overhead {regression_pct:.2}% exceeds the {BUDGET_PCT}% budget");
        std::process::exit(1);
    }
    println!("PASS: tracing overhead within budget");
}

/// Part 1: the Figure 4 walk-through, served concurrently.
fn figure4_demo() {
    let example = figure4_example(100, 48);
    println!(
        "figure-4 graph: {} nodes, {} directed edges",
        example.graph.num_nodes(),
        example.graph.num_directed_edges()
    );

    let service = Service::builder(example.graph)
        .workers(4)
        .cache_capacity(256)
        .build();

    // Fire the same query through every engine at once.
    let handles: Vec<_> = ["bidirectional", "si-backward", "mi-backward"]
        .into_iter()
        .map(|engine| {
            let spec = QuerySpec::parse("database james john")
                .top_k(3)
                .engine(engine);
            (engine, service.submit(spec).expect("submit"))
        })
        .collect();
    println!("\nquery: Database James John (all engines concurrently)");
    for (engine, handle) in handles {
        let (outcome, result) = handle.wait();
        println!(
            "  {:<14} answers {:>2}  explored {:>5}  ttfa {:?}",
            engine,
            outcome.answers.len(),
            outcome.stats.nodes_explored,
            result.time_to_first_answer.unwrap_or_default()
        );
    }

    // The repeat is served from the cache: zero engine work.
    let spec = QuerySpec::parse("database james john")
        .top_k(3)
        .engine("bidirectional");
    let (_, result) = service.submit(spec).expect("submit").wait();
    println!(
        "repeat submission: cache_hit = {} (executed {} of {} submitted)",
        result.cache_hit,
        service.metrics().executed,
        service.metrics().submitted
    );
}

/// Part 2: a mixed DBLP workload, measured.
fn dblp_workload() {
    let data = DblpDataset::generate(DblpConfig {
        num_authors: 800,
        num_papers: 1500,
        num_conferences: 10,
        seed: 11,
        ..DblpConfig::default()
    });
    let graph = data.dataset.graph().clone();
    println!(
        "\ndblp graph: {} nodes, {} directed edges",
        graph.num_nodes(),
        graph.num_directed_edges()
    );

    // A mixed workload: 2-keyword co-authorship queries, 4-keyword citation
    // queries, rare- and frequent-origin title words.
    let mut generator = WorkloadGenerator::new(&data, 42);
    let mut cases = Vec::new();
    for (num_keywords, answer_size, bias) in [
        (2, 5, banks::datagen::OriginBias::Any),
        (3, 5, banks::datagen::OriginBias::Rare),
        (4, 3, banks::datagen::OriginBias::Frequent),
    ] {
        cases.extend(generator.generate(&WorkloadConfig {
            num_queries: 12,
            num_keywords,
            answer_size,
            origin_bias: bias,
            compute_ground_truth: false,
            ..WorkloadConfig::default()
        }));
    }
    // Interactive traffic repeats itself: a second wave re-asks half of the
    // first wave's queries, so the result cache has something to do.
    let repeats: Vec<_> = cases.iter().step_by(2).cloned().collect();
    println!(
        "workload: {} fresh queries + {} repeats",
        cases.len(),
        repeats.len()
    );

    let service = Service::builder(graph)
        .workers(4)
        .queue_capacity(1024)
        .cache_capacity(256)
        .index(data.dataset.index().clone())
        .build();

    let mut ttfa: Vec<Duration> = Vec::new();
    let mut answers = 0usize;
    let total = cases.len() + repeats.len();
    let started = Instant::now();
    for wave in [&cases, &repeats] {
        let handles: Vec<_> = wave
            .iter()
            .map(|case| {
                let spec = QuerySpec::new(case.query()).params(SearchParams::with_top_k(10));
                service.submit(spec).expect("submit")
            })
            .collect();
        for handle in handles {
            let (outcome, result) = handle.wait();
            answers += outcome.answers.len();
            if let Some(t) = result.time_to_first_answer {
                ttfa.push(t);
            }
        }
    }
    let elapsed = started.elapsed();

    let metrics = service.metrics();
    let qps = total as f64 / elapsed.as_secs_f64();
    println!("\nserved {total} queries in {elapsed:.2?}");
    println!("  QPS             {qps:.0}");
    println!("  answers         {answers}");
    println!(
        "  cache hit rate  {:.1}% ({} of {})",
        100.0 * metrics.cache_hit_rate(),
        metrics.cache_hits,
        metrics.submitted
    );
    println!("  nodes explored  {}", metrics.nodes_explored);
    ttfa.sort_unstable();
    if !ttfa.is_empty() {
        let pct = |p: f64| ttfa[((ttfa.len() - 1) as f64 * p) as usize];
        println!(
            "  ttfa p50 {:?}  p90 {:?}  p99 {:?}",
            pct(0.50),
            pct(0.90),
            pct(0.99)
        );
    }
}
