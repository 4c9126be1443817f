//! Concurrency stress tests for the query service.
//!
//! The acceptance bar: N queries executed concurrently on the worker pool
//! return **byte-identical** answers to serial execution for all three
//! engines; cancellation halts a query mid-stream; identical queries
//! against the same graph epoch hit the cache with zero engine work; and a
//! graph-epoch bump invalidates the cache.
//!
//! Race bugs rarely reproduce in debug builds — CI runs this file under
//! `--release` as well.  The write path has its own race test: a
//! wholesale swap fired into a stream of mutation batches must leave a
//! data directory that boots to exactly the version last served.

use std::sync::Arc;

use banks_core::{
    AnswerTree, Banks, EmissionPolicy, RankedAnswer, ResultCache, SearchParams, SearchStats,
};
use banks_datagen::{DblpConfig, DblpDataset, WorkloadConfig, WorkloadGenerator};
use banks_graph::{DataGraph, GraphBuilder, MutationBatch, NodeId};
use banks_service::{FsyncPolicy, QuerySpec, Service, SubmitError};

const ENGINES: [&str; 3] = ["bidirectional", "si-backward", "mi-backward"];

fn dblp() -> DblpDataset {
    DblpDataset::generate(DblpConfig {
        num_authors: 120,
        num_papers: 240,
        num_conferences: 4,
        seed: 99,
        ..DblpConfig::default()
    })
}

/// The comparable portion of an answer: rank and the full tree (root,
/// paths, score) — everything except wall-clock timings.
fn comparable(answers: &[RankedAnswer]) -> Vec<(usize, AnswerTree)> {
    answers.iter().map(|a| (a.rank, a.tree.clone())).collect()
}

#[test]
fn concurrent_answers_are_byte_identical_to_serial_for_all_engines() {
    let data = dblp();
    let graph = data.dataset.graph();
    let index = data.dataset.index().clone();

    let mut generator = WorkloadGenerator::new(&data, 5);
    let cases = generator.generate(&WorkloadConfig {
        num_queries: 6,
        num_keywords: 2,
        compute_ground_truth: false,
        ..WorkloadConfig::default()
    });
    assert!(!cases.is_empty());

    // Serial ground truth through the facade (no cache).
    let banks = Banks::open(graph).with_index(index.clone());
    let mut expected = Vec::new();
    for case in &cases {
        for engine in ENGINES {
            let outcome = banks
                .query_parsed(&case.query())
                .engine(engine)
                .top_k(25)
                .run();
            expected.push(comparable(&outcome.answers));
        }
    }

    // The same (query, engine) matrix, all in flight at once on the pool.
    // Cache capacity 0: every submission must genuinely execute.
    let service = Service::builder(graph.clone())
        .workers(4)
        .queue_capacity(256)
        .cache_capacity(0)
        .index(index)
        .build();
    let mut handles = Vec::new();
    for case in &cases {
        for engine in ENGINES {
            let spec = QuerySpec::new(case.query())
                .params(SearchParams::with_top_k(25))
                .engine(engine);
            handles.push(service.submit(spec).expect("submit"));
        }
    }
    for (i, handle) in handles.into_iter().enumerate() {
        let (outcome, result) = handle.wait();
        assert!(!result.cache_hit);
        assert!(!outcome.stats.cancelled);
        assert_eq!(
            comparable(&outcome.answers),
            expected[i],
            "concurrent answers differ from serial (submission {i})"
        );
    }

    let metrics = service.metrics();
    assert_eq!(metrics.submitted as usize, cases.len() * ENGINES.len());
    assert_eq!(metrics.executed, metrics.submitted);
    assert_eq!(metrics.completed, metrics.submitted);
    assert_eq!(metrics.cache_hits, 0);
    assert_eq!(metrics.cancelled, 0);
}

/// A wide forest of `root -> {alpha leaf, beta leaf}` stars: the query
/// `alpha beta` has one answer per star, emitted incrementally as the
/// expansion reaches each root — plenty of mid-stream surface.
fn star_forest(n: usize) -> DataGraph {
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

#[test]
fn cancellation_halts_a_query_mid_stream() {
    let n = 20_000;
    let graph = star_forest(n);
    let spec = || {
        QuerySpec::keywords(["alpha", "beta"])
            .params(SearchParams::with_top_k(n + 10).emission(EmissionPolicy::Immediate))
    };

    let service = Service::builder(graph).workers(2).cache_capacity(0).build();

    // Cancel right after the first answer arrives: the bulk of the stream
    // is still unexplored, so the abort lands mid-flight.
    let handle = service.submit(spec()).expect("submit");
    let first = handle.next_answer().expect("first answer");
    assert_eq!(first.rank, 0);
    handle.cancel();
    let (outcome, result) = handle.wait();
    assert!(
        outcome.stats.cancelled,
        "worker must record the cooperative abort"
    );
    assert!(!result.cache_hit);
    assert!(
        outcome.answers.len() < n,
        "cancellation must stop the stream well short of all {n} answers \
         (got {})",
        outcome.answers.len()
    );

    // A cancelled run is never cached: resubmitting executes afresh and,
    // undisturbed, produces every answer.
    let (full, result) = service.submit(spec()).expect("submit").wait();
    assert!(!result.cache_hit);
    assert!(!full.stats.cancelled);
    assert_eq!(full.answers.len(), n);

    let metrics = service.metrics();
    assert_eq!(metrics.cancelled, 1);
    assert_eq!(metrics.executed, 2);
}

#[test]
fn identical_queries_hit_the_cache_with_zero_engine_work() {
    let data = dblp();
    let graph = data.dataset.graph().clone();
    let index = data.dataset.index().clone();
    let service = Service::builder(graph)
        .workers(2)
        .cache_capacity(64)
        .index(index)
        .build();

    let spec = || QuerySpec::parse("database systems").top_k(10);

    let (first, first_result) = service.submit(spec()).expect("submit").wait();
    assert!(!first_result.cache_hit);
    assert_eq!(service.metrics().executed, 1);

    // Same keywords (modulo case — normalization is shared), same params,
    // same epoch: served from the cache without touching a worker.
    let (second, second_result) = service
        .submit(QuerySpec::parse("DATABASE   Systems").top_k(10))
        .expect("submit")
        .wait();
    assert!(
        second_result.cache_hit,
        "identical query must hit the cache"
    );
    assert_eq!(
        service.metrics().executed,
        1,
        "a cache hit performs zero engine work"
    );
    assert_eq!(comparable(&first.answers), comparable(&second.answers));
    assert_eq!(first.stats, second.stats);

    // Different params or engine: distinct key, fresh execution.
    let (_, third_result) = service
        .submit(spec().engine("mi-backward"))
        .expect("submit")
        .wait();
    assert!(!third_result.cache_hit);
    assert_eq!(service.metrics().executed, 2);

    let metrics = service.metrics();
    assert_eq!(metrics.cache_hits, 1);
    assert!((metrics.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
}

#[test]
fn epoch_bump_invalidates_the_shared_cache() {
    let data = dblp();
    let index = data.dataset.index().clone();
    let cache = Arc::new(ResultCache::new(64));
    let spec = || QuerySpec::parse("database").top_k(5);

    let graph_v1 = data.dataset.graph().clone();
    {
        let service = Service::builder(graph_v1)
            .workers(1)
            .shared_cache(Arc::clone(&cache))
            .index(index.clone())
            .build();
        let (_, r1) = service.submit(spec()).expect("submit").wait();
        assert!(!r1.cache_hit);
        let (_, r2) = service.submit(spec()).expect("submit").wait();
        assert!(r2.cache_hit);
    }

    // Same data, same shared cache — but the graph was bumped to a new
    // epoch, so the old entry must not be served.
    let mut graph_v2 = data.dataset.graph().clone();
    graph_v2.bump_epoch();
    {
        let service = Service::builder(graph_v2)
            .workers(1)
            .shared_cache(Arc::clone(&cache))
            .index(index)
            .build();
        let (_, r3) = service.submit(spec()).expect("submit").wait();
        assert!(
            !r3.cache_hit,
            "a bumped epoch must invalidate cached results"
        );
        assert_eq!(service.metrics().executed, 1);
    }
    assert_eq!(cache.hits(), 1);
    assert_eq!(cache.misses(), 2);
}

#[test]
fn bounded_queue_rejects_when_full() {
    let n = 20_000;
    let graph = star_forest(n);
    let slow = || {
        QuerySpec::keywords(["alpha", "beta"])
            .params(SearchParams::with_top_k(n + 10).emission(EmissionPolicy::Immediate))
    };

    // One worker, queue bound 1: the first query occupies the worker, the
    // second waits, the third must be rejected.
    let service = Service::builder(graph)
        .workers(1)
        .queue_capacity(1)
        .cache_capacity(0)
        .build();
    let running = service.submit(slow()).expect("first accepted");
    // Ensure the worker picked the first job up before filling the queue.
    let _ = running.next_answer();
    let queued = service.submit(slow()).expect("second accepted (queued)");
    let rejected = service.submit(slow());
    match rejected.err() {
        Some(SubmitError::QueueFull { capacity }) => assert_eq!(capacity, 1),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(service.metrics().rejected, 1);

    // Unblock everything so shutdown is quick.
    running.cancel();
    queued.cancel();
    let (a, _) = running.wait();
    let (b, _) = queued.wait();
    assert!(a.stats.cancelled);
    assert!(b.stats.cancelled);
}

#[test]
fn wait_after_draining_answers_reports_the_real_result() {
    let graph = star_forest(8);
    let service = Service::builder(graph).workers(1).cache_capacity(0).build();
    let handle = service
        .submit(QuerySpec::keywords(["alpha", "beta"]).top_k(8))
        .expect("submit");

    // Drain every answer through next_answer (which consumes the Finished
    // event on the way out)...
    let mut drained = 0usize;
    while handle.next_answer().is_some() {
        drained += 1;
    }
    assert!(drained > 0);
    // ...the terminal result must still be the real one, not a fabricated
    // "cancelled" placeholder.
    let stashed = handle.result().expect("terminal result observed");
    assert!(!stashed.stats.cancelled);
    let (outcome, result) = handle.wait();
    assert!(!result.stats.cancelled, "completed query misreported");
    assert_eq!(result.stats.answers_output, drained);
    assert!(outcome.answers.is_empty(), "answers were already drained");
}

#[test]
fn unknown_engine_is_rejected_with_suggestions() {
    let graph = star_forest(4);
    let service = Service::builder(graph).workers(1).build();
    let err = service
        .submit(QuerySpec::parse("alpha beta").engine("bidirectonal"))
        .err()
        .expect("unknown engine must be rejected");
    match &err {
        SubmitError::UnknownEngine(unknown) => {
            assert_eq!(unknown.suggestion, Some("bidirectional"));
            assert!(unknown.known.contains(&"mi-backward"));
        }
        other => panic!("expected UnknownEngine, got {other:?}"),
    }
    let rendered = err.to_string();
    assert!(rendered.contains("unknown engine"));
    assert!(rendered.contains("did you mean"));
}

#[test]
fn live_stats_are_observable_and_monotone_while_running() {
    let n = 20_000;
    let graph = star_forest(n);
    let service = Service::builder(graph).workers(1).cache_capacity(0).build();
    let handle = service
        .submit(
            QuerySpec::keywords(["alpha", "beta"])
                .params(SearchParams::with_top_k(n + 10).emission(EmissionPolicy::Immediate)),
        )
        .expect("submit");

    let mut previous = SearchStats::default();
    let mut observed = 0usize;
    let mut finished = None;
    while let Some(event) = handle.recv() {
        match event {
            banks_service::QueryEvent::Answer(_) => {
                let live = handle.live_stats();
                assert!(live.nodes_explored >= previous.nodes_explored);
                assert!(live.answers_output >= previous.answers_output);
                previous = live;
                observed += 1;
                if observed == 500 {
                    handle.cancel();
                }
            }
            banks_service::QueryEvent::Finished(result) => {
                finished = Some(result);
                break;
            }
        }
    }
    let result = finished.expect("terminal event");
    assert!(result.stats.cancelled);
    assert!(result.stats.nodes_explored >= previous.nodes_explored);
    assert!(observed >= 500);
    assert!(observed < n, "cancel must land before all answers stream");
}

#[test]
fn work_budget_deadlines_are_deterministic_under_concurrency() {
    let n = 2_000;
    let graph = star_forest(n);
    let service = Service::builder(graph).workers(4).cache_capacity(0).build();
    let spec = || {
        QuerySpec::keywords(["alpha", "beta"]).params(
            SearchParams::with_top_k(n + 10)
                .emission(EmissionPolicy::Immediate)
                .answer_work_budget(5),
        )
    };

    // Fire the same budgeted query many times concurrently: the budget is
    // counted in nodes, not milliseconds, so every run truncates at the
    // same point no matter how loaded the pool is.
    let handles: Vec<_> = (0..16)
        .map(|_| service.submit(spec()).expect("submit"))
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait().0).collect();
    let first = &outcomes[0];
    assert!(first.stats.truncated, "budget must truncate the search");
    for outcome in &outcomes[1..] {
        assert_eq!(outcome.stats.nodes_explored, first.stats.nodes_explored);
        assert_eq!(outcome.answers.len(), first.answers.len());
        assert_eq!(comparable(&outcome.answers), comparable(&first.answers));
    }
}

/// One swap racing a stream of mutation batches on a durable ~20k-node
/// service, repeated over many trials with the swap landing at a
/// different point of the stream each time.  Every trial reopens the data
/// directory: it must boot, at the epoch and node count last served.
///
/// Every write holds the admin lock, so the swap lands between two
/// batches.  A swap between a batch's apply and its append would
/// checkpoint and truncate the WAL under it, and the batch would swap in
/// a successor of the pre-swap graph; the reopen then refuses to boot
/// ("wal record chains from epoch N but the graph is at epoch M").
#[test]
fn swaps_racing_mutation_batches_leave_a_bootable_data_dir() {
    const TRIALS: u64 = 24;
    const BATCHES: usize = 60;
    let graph = star_forest(6_700);
    let replacement = star_forest(6_000);
    for trial in 0..TRIALS {
        let dir = std::env::temp_dir().join(format!(
            "banks-stress-swap-race-{}-{trial}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Service::builder(graph.clone())
            .workers(1)
            .cache_capacity(0)
            .persistence(&dir, FsyncPolicy::Never)
            .build();
        // splitmix-style spread of the swap delay over 0.2–8 ms.
        let mix = (trial + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        let delay = std::time::Duration::from_micros(200 + mix % 7_800);
        let (served_epoch, served_nodes) = std::thread::scope(|scope| {
            let swapper = scope.spawn(|| {
                std::thread::sleep(delay);
                service.swap_graph(replacement.clone())
            });
            for i in 0..BATCHES {
                let anchor = NodeId((i * 37 % 18_000) as u32);
                let report = service.apply_mutations(
                    &MutationBatch::new()
                        .add_node("alpha", format!("raced alpha {trial}-{i}"))
                        .add_edge(anchor, NodeId(0))
                        .set_label(NodeId(1), format!("beta relabel {i}")),
                );
                assert!(report.persist_error.is_none(), "{:?}", report.persist_error);
            }
            let swapped = swapper.join().expect("swap thread");
            assert!(swapped > 0);
            (service.epoch(), service.snapshot().graph().num_nodes())
        });
        drop(service);

        let reopened = Service::builder(graph.clone())
            .workers(1)
            .persistence(&dir, FsyncPolicy::Never)
            .try_build()
            .unwrap_or_else(|e| panic!("trial {trial} (swap after {delay:?}): reopen failed: {e}"));
        assert_eq!(
            reopened.epoch(),
            served_epoch,
            "trial {trial}: recovered epoch"
        );
        assert_eq!(
            reopened.snapshot().graph().num_nodes(),
            served_nodes,
            "trial {trial}: recovered node count"
        );
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
