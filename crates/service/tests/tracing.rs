//! End-to-end query tracing: span consistency, trace retrieval, the
//! slow-query ring, and online cost calibration surfaced through metrics.

use std::time::Duration;

use banks_graph::{DataGraph, GraphBuilder, MutationBatch, NodeId};
use banks_service::{FsyncPolicy, QueryId, QuerySpec, QueryTrace, Service};

fn dblp_like() -> DataGraph {
    let mut b = GraphBuilder::new();
    let soumen = b.add_node("author", "Soumen Chakrabarti");
    let shashank = b.add_node("author", "Shashank Pandit");
    let banks = b.add_node(
        "paper",
        "Keyword searching and browsing in databases using BANKS",
    );
    let bidir = b.add_node(
        "paper",
        "Bidirectional expansion for keyword search on graph databases",
    );
    let w0 = b.add_node("writes", "w0");
    let w1 = b.add_node("writes", "w1");
    let w2 = b.add_node("writes", "w2");
    b.add_edge(w0, soumen).unwrap();
    b.add_edge(w0, banks).unwrap();
    b.add_edge(w1, shashank).unwrap();
    b.add_edge(w1, bidir).unwrap();
    b.add_edge(w2, soumen).unwrap();
    b.add_edge(w2, bidir).unwrap();
    b.build_default()
}

/// A trace's spans must be mutually consistent: every span inside
/// `[0, total_us]`, queue + expand no longer than the total, and the
/// first-answer span's duration exactly the reported TTFA.
fn assert_spans_consistent(trace: &QueryTrace, ttfa: Option<Duration>) {
    for span in &trace.spans {
        assert!(
            span.start_us <= span.end_us,
            "span {} runs backwards: {span:?}",
            span.name
        );
        assert!(
            span.end_us <= trace.total_us,
            "span {} exceeds total_us={}: {span:?}",
            span.name,
            trace.total_us
        );
    }
    let finish = trace.span("finish").expect("finish span");
    assert_eq!(finish.start_us, 0);
    assert_eq!(finish.end_us, trace.total_us);
    if let (Some(queue), Some(expand)) = (trace.span("queue"), trace.span("expand")) {
        assert!(queue.end_us <= expand.start_us + 1, "queue ends at pickup");
        assert!(
            queue.duration_us() + expand.duration_us() <= trace.total_us,
            "queue ({}) + expand ({}) exceed total ({})",
            queue.duration_us(),
            expand.duration_us(),
            trace.total_us
        );
    }
    match (ttfa, trace.span("first-answer")) {
        (Some(ttfa), Some(span)) => assert_eq!(
            span.duration_us(),
            ttfa.as_micros() as u64,
            "first-answer span must equal time_to_first_answer"
        ),
        (None, Some(span)) => panic!("first-answer span {span:?} without a TTFA"),
        (Some(ttfa), None) => panic!("TTFA {ttfa:?} without a first-answer span"),
        (None, None) => {}
    }
}

#[test]
fn requested_traces_ride_the_result_and_the_ring() {
    let service = Service::builder(dblp_like()).workers(2).build();
    let spec = QuerySpec::parse("soumen bidirectional")
        .top_k(3)
        .tenant("ui")
        .trace("req-42");
    let handle = service.submit(spec).unwrap();
    let id = handle.id();
    let (outcome, result) = handle.wait();
    assert!(!outcome.answers.is_empty(), "the query answers");

    let trace = result.trace.as_ref().expect("trace was requested");
    assert_eq!(trace.id, id.0);
    assert_eq!(trace.client_ref.as_deref(), Some("req-42"));
    assert_eq!(trace.tenant.as_deref(), Some("ui"));
    assert!(!trace.cache_hit);
    assert!(trace.span("queue").is_some(), "executed queries queue");
    assert!(trace.span("expand").is_some());
    assert_spans_consistent(trace, result.time_to_first_answer);
    assert!(
        trace.counter("nodes_touched").is_some(),
        "work counters sampled: {:?}",
        trace.counters
    );

    // The same trace is retrievable by id afterwards (the debug endpoint's
    // contract), and by reference equality — the ring shares the Arc.
    let from_ring = service.trace(id).expect("trace retained in the ring");
    assert!(std::sync::Arc::ptr_eq(trace, &from_ring));
}

#[test]
fn untraced_fast_queries_attach_and_retain_nothing() {
    let service = Service::builder(dblp_like()).workers(1).build();
    let handle = service.submit(QuerySpec::parse("soumen").top_k(2)).unwrap();
    let id = handle.id();
    let (_, result) = handle.wait();
    assert!(result.trace.is_none(), "no trace unless requested");
    assert!(service.trace(id).is_none(), "nothing retained either");
    assert!(service.recent_traces(10).is_empty());
}

#[test]
fn cache_hits_trace_without_queueing() {
    let service = Service::builder(dblp_like()).workers(1).build();
    // Prime the cache, then replay the identical query with tracing on.
    let (_, first) = service
        .submit(QuerySpec::parse("soumen bidirectional").top_k(3))
        .unwrap()
        .wait();
    assert!(!first.cache_hit);
    let (_, replay) = service
        .submit(QuerySpec::parse("soumen bidirectional").top_k(3).trace(""))
        .unwrap()
        .wait();
    assert!(replay.cache_hit);
    let trace = replay.trace.as_ref().expect("empty reference still traces");
    assert!(trace.cache_hit);
    assert_eq!(trace.client_ref.as_deref(), Some(""));
    assert!(trace.span("queue").is_none(), "cache hits never queue");
    assert!(trace.span("expand").is_none());
    assert_spans_consistent(trace, replay.time_to_first_answer);
}

#[test]
fn slow_queries_are_retained_unrequested() {
    // A zero threshold makes every query "slow".
    let service = Service::builder(dblp_like())
        .workers(1)
        .slow_query_threshold(Duration::ZERO)
        .build();
    let handle = service.submit(QuerySpec::parse("soumen").top_k(2)).unwrap();
    let id = handle.id();
    let (_, result) = handle.wait();
    assert!(
        result.trace.is_none(),
        "slow retention does not leak a trace onto an untraced result"
    );
    let trace = service.trace(id).expect("slow trace retained");
    assert!(trace.slow);
    let slow = service.slow_traces(10);
    assert!(slow.iter().any(|t| t.id == id.0));
    assert!(service.metrics().slow_queries >= 1);
}

#[test]
fn a_high_threshold_marks_nothing_slow() {
    let service = Service::builder(dblp_like())
        .workers(1)
        .slow_query_threshold(Duration::from_secs(3600))
        .build();
    for _ in 0..3 {
        let (_, result) = service
            .submit(QuerySpec::parse("soumen bidirectional").top_k(3).trace("r"))
            .unwrap()
            .wait();
        assert!(!result.trace.unwrap().slow);
    }
    assert!(service.slow_traces(10).is_empty());
    assert_eq!(service.metrics().slow_queries, 0);
}

/// A wide forest whose shared keywords fan hundreds of Dijkstra origins
/// across every shard, so the scatter-gather refill rounds do measurable
/// per-shard work.
fn wide_forest(chains: usize) -> DataGraph {
    let mut b = GraphBuilder::new();
    let hub = b.add_node("conference", "hub venue");
    for i in 0..chains {
        let a = b.add_node("author", format!("alpha author{i}"));
        let p = b.add_node("paper", format!("beta paper{i}"));
        let w = b.add_node("writes", format!("w{i}"));
        b.add_edge(w, a).unwrap();
        b.add_edge(w, p).unwrap();
        b.add_edge(p, hub).unwrap();
    }
    b.build_default()
}

/// The tentpole trace contract: a traced scatter-gather query on a
/// sharded service carries per-shard `shard-N` expand spans, nested
/// inside the expand span, whose durations sum to **at most** the total
/// expand time — the parallel refill rounds charge wall time, never the
/// (overlapping) per-worker busy sums.
#[test]
fn sharded_queries_attribute_per_shard_expand_spans() {
    let service = Service::builder(wide_forest(400))
        .workers(1)
        .cache_capacity(0)
        .shards(4)
        .build();
    let spec = QuerySpec::parse("alpha beta")
        .top_k(20)
        .engine("scatter-gather")
        .trace("shard-spans");
    let (outcome, result) = service.submit(spec).unwrap().wait();
    assert!(!outcome.answers.is_empty());
    let trace = result.trace.as_ref().expect("trace was requested");
    assert_spans_consistent(trace, result.time_to_first_answer);

    let expand = trace.span("expand").expect("executed queries expand");
    let shard_spans: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name.starts_with("shard-"))
        .collect();
    assert!(
        !shard_spans.is_empty(),
        "a sharded query attributes per-shard spans: {:?}",
        trace.spans
    );
    let mut sum = 0u64;
    for span in &shard_spans {
        assert!(
            span.start_us >= expand.start_us && span.end_us <= expand.end_us,
            "shard span {span:?} must nest inside expand {expand:?}"
        );
        sum += span.duration_us();
    }
    assert!(
        sum <= expand.duration_us(),
        "shard spans sum to {sum}µs, exceeding the {}µs expand span",
        expand.duration_us()
    );
}

/// Unsharded services never emit shard spans — K=1 is the plain code path.
#[test]
fn unsharded_queries_carry_no_shard_spans() {
    let service = Service::builder(wide_forest(50)).workers(1).build();
    let (_, result) = service
        .submit(QuerySpec::parse("alpha beta").top_k(5).trace("flat"))
        .unwrap()
        .wait();
    let trace = result.trace.expect("trace was requested");
    assert!(trace.spans.iter().all(|s| !s.name.starts_with("shard-")));
}

/// The ROADMAP trace gap: checkpoint and WAL-fsync work must be
/// attributed to the mutation that triggered it.  An applied batch on a
/// durable sharded service reports a `mutation` trace with the apply /
/// wal-append / swap phases, lands it in the ring (so
/// `/debug/trace/<id>` can serve it), and charges any fsync inside the
/// wal-append span.
#[test]
fn mutations_trace_their_phases_and_land_in_the_ring() {
    let dir = std::env::temp_dir().join(format!(
        "banks-trace-mutation-{}-{}",
        std::process::id(),
        line!()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let service = Service::builder(dblp_like())
        .workers(1)
        .shards(2)
        .persistence(&dir, FsyncPolicy::Always)
        .build();
    let report = service.apply_mutations(
        &MutationBatch::new()
            .add_node("author", "Rushi Desai")
            .add_node("writes", "w3")
            .add_edge(NodeId(8), NodeId(7))
            .add_edge(NodeId(8), NodeId(3))
            .remove_edge(NodeId(0), NodeId(1)), // invalid: counted rejected
    );
    assert!(report.swapped);
    let trace = report.trace.as_ref().expect("applied batches trace");
    assert_eq!(trace.engine, "mutation");
    assert_eq!(trace.epoch, report.epoch);
    assert_eq!(trace.counter("ops"), Some(5));
    assert_eq!(trace.counter("accepted"), Some(4));
    assert_eq!(trace.counter("rejected"), Some(1));
    for phase in ["apply", "wal-append", "swap", "finish"] {
        assert!(trace.span(phase).is_some(), "missing {phase} span");
    }
    // FsyncPolicy::Always: the append fsynced, and the fsync span sits at
    // the tail of the wal-append span.
    let append = trace.span("wal-append").unwrap();
    let fsync = trace.span("wal-fsync").expect("Always policy fsyncs");
    assert!(fsync.start_us >= append.start_us && fsync.end_us <= append.end_us + 1);
    assert_spans_consistent(trace, None);

    let from_ring = service
        .trace(QueryId(trace.id))
        .expect("mutation trace retained in the ring");
    assert!(std::sync::Arc::ptr_eq(trace, &from_ring));

    // Fully-rejected batches swap nothing and trace nothing.
    let report = service.apply_mutations(&MutationBatch::new().remove_edge(NodeId(0), NodeId(1)));
    assert!(!report.swapped);
    assert!(report.trace.is_none());
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without persistence there is no WAL; the mutation trace still covers
/// apply and swap.
#[test]
fn undurable_unsharded_mutations_trace_apply_and_swap_only() {
    let service = Service::builder(dblp_like()).workers(1).build();
    let report = service.apply_mutations(&MutationBatch::new().add_node("paper", "Fresh result"));
    assert!(report.swapped);
    let trace = report.trace.as_ref().expect("applied batches trace");
    assert!(trace.span("apply").is_some());
    assert!(trace.span("swap").is_some());
    assert!(trace.span("wal-append").is_none());
    assert!(trace.span("wal-fsync").is_none());
    assert_spans_consistent(trace, None);
}

#[test]
fn calibration_rows_appear_after_executed_queries() {
    let service = Service::builder(dblp_like()).workers(1).build();
    for engine in ["bidirectional", "mi"] {
        for _ in 0..3 {
            // distinct top_k values dodge the result cache — calibration
            // samples only real executions
            for k in [1, 2, 3] {
                let spec = QuerySpec::parse("soumen bidirectional")
                    .top_k(k)
                    .engine(engine);
                service.submit(spec).unwrap().wait();
            }
        }
    }
    let rows = service.metrics().calibration;
    assert!(!rows.is_empty(), "executions feed the calibration table");
    for row in &rows {
        assert!(row.samples > 0);
        assert!(row.correction > 0.0);
        assert!(
            row.origin_lo <= row.origin_hi,
            "bucket bounds ordered: {row:?}"
        );
    }
    let engines: Vec<&str> = rows.iter().map(|r| r.engine.as_str()).collect();
    assert!(engines.contains(&"bidirectional"));
    assert!(engines.contains(&"mi"));
}

#[test]
fn latency_histograms_fill_in_metrics() {
    let service = Service::builder(dblp_like()).workers(1).build();
    for k in [1, 2, 3] {
        service
            .submit(QuerySpec::parse("soumen bidirectional").top_k(k))
            .unwrap()
            .wait();
    }
    let m = service.metrics();
    assert!(m.ttfa.count >= 1, "answering queries record TTFA");
    assert!(m.ttfa.p50 <= m.ttfa.max);
    // No mutations ran, so that histogram stays empty — distributions are
    // independent.
    assert_eq!(m.mutation_apply.count, 0);
}
