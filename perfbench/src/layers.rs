//! In-process layer measurements for the traced run: the three engines
//! replayed through `SearchEngine::search`, and keyword resolution through
//! `KeywordMatches::resolve`.

use std::time::Instant;

use banks::prelude::*;

use crate::report::{mean, Metrics};
use crate::search::TOP_K;

/// Replays `queries` on each engine over the leader's serving snapshot.
/// Returns one spans line per (engine, query).
pub fn core(
    snapshot: &GraphSnapshot,
    queries: &[Vec<String>],
    metrics: &mut Metrics,
) -> Vec<String> {
    let graph = snapshot.graph();
    let params = SearchParams::with_top_k(TOP_K);
    let matches: Vec<KeywordMatches> = queries
        .iter()
        .map(|k| KeywordMatches::resolve(graph, snapshot.index(), &Query::from_keywords(k.clone())))
        .collect();
    let mut spans = Vec::new();
    let mut explored_by_engine = Vec::new();
    let engines: [(&str, Box<dyn SearchEngine>); 3] = [
        ("bidirectional", Box::new(BidirectionalSearch::new())),
        ("si-backward", Box::new(SingleIteratorBackwardSearch::new())),
        ("mi-backward", Box::new(BackwardExpandingSearch::new())),
    ];
    for (name, engine) in engines {
        let (mut explored, mut generated, mut output, mut nanos) = (0u64, 0u64, 0u64, 0f64);
        let mut ttfa = Vec::new();
        for (i, m) in matches.iter().enumerate() {
            let started = Instant::now();
            let outcome =
                std::hint::black_box(engine.search(graph, snapshot.prestige(), m, &params));
            let elapsed = started.elapsed();
            nanos += elapsed.as_nanos() as f64;
            explored += outcome.stats.nodes_explored as u64;
            generated += outcome.stats.answers_generated as u64;
            output += outcome.stats.answers_output as u64;
            if let Some(first) = outcome.time_to_first_answer() {
                ttfa.push(first.as_secs_f64() * 1e3);
            }
            spans.push(format!(
                "{{\"layer\":\"core\",\"engine\":\"{name}\",\"query\":{i},\"duration_us\":{},\
                 \"nodes_explored\":{},\"answers_generated\":{},\"answers_output\":{}}}",
                elapsed.as_micros(),
                outcome.stats.nodes_explored,
                outcome.stats.answers_generated,
                outcome.stats.answers_output
            ));
        }
        let n = matches.len().max(1) as f64;
        metrics.put(
            format!("core.{name}.ns_per_explored"),
            nanos / explored.max(1) as f64,
            "ns",
        );
        metrics.put(
            format!("core.{name}.trees_per_answer"),
            generated as f64 / output.max(1) as f64,
            "ratio",
        );
        metrics.put(
            format!("core.{name}.explored_per_query"),
            explored as f64 / n,
            "count",
        );
        metrics.put(format!("core.{name}.ttfa_ms"), mean(&ttfa), "ms");
        explored_by_engine.push(explored as f64);
    }
    metrics.put(
        "core.si_over_bidir_explored",
        explored_by_engine[1] / explored_by_engine[0].max(1.0),
        "ratio",
    );
    spans
}

/// Times keyword resolution of the workload's queries against the serving
/// index (each resolved `REPEAT` times, mean per query).
pub fn textindex(snapshot: &GraphSnapshot, queries: &[Vec<String>], metrics: &mut Metrics) {
    const REPEAT: usize = 20;
    let queries: Vec<Query> = queries
        .iter()
        .map(|k| Query::from_keywords(k.clone()))
        .collect();
    let mut origins = 0usize;
    let started = Instant::now();
    for _ in 0..REPEAT {
        origins = 0;
        for q in &queries {
            let m = std::hint::black_box(KeywordMatches::resolve(
                snapshot.graph(),
                snapshot.index(),
                q,
            ));
            origins += m.origin_sizes().iter().sum::<usize>();
        }
    }
    let n = queries.len().max(1) as f64;
    metrics.put(
        "textindex.resolve_us",
        started.elapsed().as_secs_f64() * 1e6 / (REPEAT as f64 * n),
        "us",
    );
    metrics.put("textindex.origins_per_query", origins as f64 / n, "count");
}
