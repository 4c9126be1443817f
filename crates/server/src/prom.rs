//! The Prometheus exposition of [`banks_service::ServiceMetrics`].
//!
//! `GET /metrics?format=prometheus` renders the same snapshot the JSON
//! document carries, as text format 0.0.4: counters suffixed `_total`,
//! latency distributions as `summary` families in seconds (quantile
//! samples plus `_sum`/`_count`), per-tenant rows as `tenant`-labeled
//! series, and the cost-model calibration table as
//! `engine`/`origin_bucket`-labeled series.  The writer itself
//! ([`banks_obs::PromText`]) deduplicates `HELP`/`TYPE` lines and refuses
//! duplicate series, so the output always satisfies the scrape grammar.

use banks_obs::PromText;
use banks_service::{Health, LatencySummary, ServiceMetrics};

/// Renders `m` as a complete Prometheus text-format document.
pub fn render(m: &ServiceMetrics) -> String {
    let mut p = PromText::new();

    p.counter(
        "banks_queries_submitted_total",
        "Queries accepted by submit (cache hits included).",
        m.submitted,
    );
    p.counter(
        "banks_queries_rejected_total",
        "Queries rejected by admission control (queue full).",
        m.rejected,
    );
    p.counter(
        "banks_quota_rejected_total",
        "Submissions rejected by per-tenant quotas, all tenants.",
        m.quota_rejected,
    );
    p.counter(
        "banks_queries_executed_total",
        "Queries that ran on a worker (cache misses).",
        m.executed,
    );
    p.counter(
        "banks_queries_completed_total",
        "Queries that finished, cache hits included.",
        m.completed,
    );
    p.counter(
        "banks_queries_cancelled_total",
        "Queries that ended cancelled.",
        m.cancelled,
    );
    p.counter(
        "banks_queries_truncated_total",
        "Queries cut short by a safety cap or work budget.",
        m.truncated,
    );
    p.counter(
        "banks_cache_hits_total",
        "Queries answered entirely from the result cache.",
        m.cache_hits,
    );
    p.gauge(
        "banks_cache_hit_rate",
        "Fraction of accepted queries served from the cache.",
        m.cache_hit_rate(),
    );
    p.counter(
        "banks_answers_delivered_total",
        "Ranked answers streamed to handles.",
        m.answers_delivered,
    );
    p.counter(
        "banks_nodes_explored_total",
        "Nodes explored across all executed queries.",
        m.nodes_explored,
    );
    p.gauge(
        "banks_queries_queued",
        "Queries currently waiting in the admission scheduler.",
        m.queued as f64,
    );
    p.counter(
        "banks_graph_swaps_total",
        "Graph versions swapped in since start.",
        m.swaps,
    );
    p.counter(
        "banks_mutation_batches_total",
        "Mutation batches applied.",
        m.mutation_batches,
    );
    p.counter(
        "banks_mutation_ops_accepted_total",
        "Mutation ops accepted across all applied batches.",
        m.mutation_ops_accepted,
    );
    p.counter(
        "banks_mutation_ops_rejected_total",
        "Mutation ops rejected across all applied batches.",
        m.mutation_ops_rejected,
    );
    p.gauge(
        "banks_graph_epoch",
        "Epoch of the graph currently being served.",
        m.epoch as f64,
    );
    p.gauge(
        "banks_persistence_enabled",
        "Whether durable persistence is enabled (1) or off (0).",
        if m.persistence_enabled { 1.0 } else { 0.0 },
    );
    p.gauge(
        "banks_last_checkpoint_epoch",
        "Epoch of the most recent on-disk snapshot.",
        m.last_checkpoint_epoch as f64,
    );
    p.gauge(
        "banks_wal_records",
        "Mutation batches in the WAL since the last checkpoint.",
        m.wal_records as f64,
    );
    p.gauge(
        "banks_wal_bytes",
        "Size of the write-ahead log in bytes.",
        m.wal_bytes as f64,
    );
    p.counter(
        "banks_checkpoints_total",
        "Checkpoints taken since start (boot checkpoint included).",
        m.checkpoints,
    );
    p.gauge_labeled(
        "banks_replication_role",
        "Replication role of this process (the labeled role reads 1).",
        &[("role", m.replication.role.as_str())],
        1.0,
    );
    p.gauge(
        "banks_replication_leader_epoch",
        "Newest leader epoch this process has heard of (followers only).",
        m.replication.leader_epoch as f64,
    );
    p.gauge(
        "banks_replication_applied_epoch",
        "Newest leader epoch applied locally (followers only).",
        m.replication.applied_epoch as f64,
    );
    p.gauge(
        "banks_replication_lag_records",
        "Announced leader records not yet applied locally.",
        m.replication.lag_records as f64,
    );
    p.gauge(
        "banks_replication_lag_ms",
        "How long this follower has continuously been behind, in ms.",
        m.replication.lag_ms as f64,
    );
    p.gauge(
        "banks_mutation_log_entries",
        "Applied batches held in the in-memory mutation log ring.",
        m.mutation_log_entries as f64,
    );
    p.counter(
        "banks_mutation_log_dropped_total",
        "Applied batches dropped from the mutation log ring.",
        m.mutation_log_dropped,
    );
    p.counter(
        "banks_slow_queries_total",
        "Queries whose latency crossed the slow-query threshold.",
        m.slow_queries,
    );
    p.gauge(
        "banks_health_state",
        "Overall SLO health: 0 ok, 1 degraded, 2 breached.",
        health_value(m.health),
    );
    for row in &m.slo {
        let labels = [("slo", row.name.as_str())];
        p.gauge_labeled(
            "banks_slo_state",
            "Per-objective SLO state: 0 ok, 1 degraded, 2 breached.",
            &labels,
            health_value(row.state),
        );
        p.gauge_labeled(
            "banks_slo_value",
            "Latest finite sample of the series each SLO constrains.",
            &labels,
            row.value,
        );
        p.gauge_labeled(
            "banks_slo_burn_fast",
            "Error-budget burn rate over the fast window.",
            &labels,
            row.burn_fast,
        );
        p.gauge_labeled(
            "banks_slo_burn_slow",
            "Error-budget burn rate over the slow window.",
            &labels,
            row.burn_slow,
        );
    }
    p.counter(
        "banks_trace_ring_dropped_total",
        "Query traces evicted from the debug trace ring.",
        m.trace_ring_dropped,
    );
    p.counter(
        "banks_event_log_dropped_total",
        "Structured events evicted from the event log ring.",
        m.event_log_dropped,
    );
    p.gauge(
        "banks_event_log_last_id",
        "Id of the most recently emitted structured event.",
        m.event_log_last_id as f64,
    );
    p.counter(
        "banks_watchdog_overruns_total",
        "Queries whose measured work blew past the watchdog factor.",
        m.watchdog_overruns,
    );
    p.counter(
        "banks_watchdog_queue_trips_total",
        "Times the admission-queue saturation watchdog tripped.",
        m.watchdog_queue_trips,
    );
    p.gauge(
        "banks_queue_saturation",
        "Admission queue occupancy as a fraction of its capacity.",
        m.queue_saturation,
    );
    p.gauge(
        "banks_shards",
        "Shards query execution is split across (1 = unsharded).",
        m.shards as f64,
    );
    for s in &m.shard_stats {
        let shard = s.shard.to_string();
        let labels = [("shard", shard.as_str())];
        p.gauge_labeled(
            "banks_shard_owned_nodes",
            "Nodes owned by each shard.",
            &labels,
            s.owned_nodes as f64,
        );
    }

    summary(
        &mut p,
        "banks_queue_wait_seconds",
        "Queue wait (admission to worker pickup) across executed queries.",
        &m.queue_wait,
    );
    summary(
        &mut p,
        "banks_ttfa_seconds",
        "Time to first answer across executed queries that answered.",
        &m.ttfa,
    );
    summary(
        &mut p,
        "banks_mutation_apply_seconds",
        "Apply latency of successful mutation batches.",
        &m.mutation_apply,
    );
    summary(
        &mut p,
        "banks_checkpoint_seconds",
        "Latency of successful checkpoints.",
        &m.checkpoint_latency,
    );
    summary(
        &mut p,
        "banks_wal_fsync_seconds",
        "Latency of WAL fsyncs.",
        &m.wal_fsync,
    );

    for t in &m.tenants {
        let labels = [("tenant", t.tenant.as_str())];
        p.counter_labeled(
            "banks_tenant_executed_total",
            "Queries executed per tenant.",
            &labels,
            t.executed,
        );
        p.counter_labeled(
            "banks_tenant_quota_rejected_total",
            "Quota rejections per tenant.",
            &labels,
            t.quota_rejected,
        );
        p.gauge_labeled(
            "banks_tenant_mean_queue_wait_seconds",
            "Mean queue wait per tenant.",
            &labels,
            t.mean_queue_wait.as_secs_f64(),
        );
        p.gauge_labeled(
            "banks_tenant_max_queue_wait_seconds",
            "Worst queue wait per tenant.",
            &labels,
            t.max_queue_wait.as_secs_f64(),
        );
        if let Some(rate) = t.quota_rate_per_sec {
            p.gauge_labeled(
                "banks_tenant_quota_rate_per_sec",
                "Configured quota refill rate per tenant.",
                &labels,
                rate,
            );
        }
        if let Some(burst) = t.quota_burst {
            p.gauge_labeled(
                "banks_tenant_quota_burst",
                "Configured quota burst capacity per tenant.",
                &labels,
                burst as f64,
            );
        }
    }

    for row in &m.calibration {
        let bucket = row.origin_bucket.to_string();
        let labels = [("engine", row.engine.as_str()), ("origin_bucket", &bucket)];
        p.counter_labeled(
            "banks_calibration_samples_total",
            "Cost-calibration samples per (engine, origin-size bucket).",
            &labels,
            row.samples,
        );
        p.gauge_labeled(
            "banks_calibration_mean_nodes_explored",
            "Mean measured nodes explored per (engine, origin-size bucket).",
            &labels,
            row.mean_nodes_explored as f64,
        );
        p.gauge_labeled(
            "banks_calibration_correction",
            "Learned measured/estimated work correction factor.",
            &labels,
            row.correction,
        );
    }

    p.render()
}

/// Health as a numeric gauge level (severity order, alert-rule friendly).
fn health_value(h: Health) -> f64 {
    match h {
        Health::Ok => 0.0,
        Health::Degraded => 1.0,
        Health::Breached => 2.0,
    }
}

fn summary(p: &mut PromText, name: &str, help: &str, s: &LatencySummary) {
    p.summary_seconds(
        name,
        help,
        s.count,
        s.mean,
        &[("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_service::{CalibrationRow, ShardStats, SloRow, TenantMetrics};
    use std::collections::HashSet;
    use std::time::Duration;

    fn populated() -> ServiceMetrics {
        ServiceMetrics {
            submitted: 10,
            executed: 7,
            cache_hits: 3,
            slow_queries: 1,
            persistence_enabled: true,
            shards: 2,
            shard_stats: vec![ShardStats {
                shard: 0,
                owned_nodes: 40,
            }],
            tenants: vec![TenantMetrics {
                tenant: "acme".to_string(),
                executed: 5,
                quota_rejected: 2,
                mean_queue_wait: Duration::from_micros(120),
                max_queue_wait: Duration::from_micros(900),
                quota_rate_per_sec: Some(50.0),
                quota_burst: Some(100),
            }],
            calibration: vec![CalibrationRow {
                engine: "bidirectional".to_string(),
                origin_bucket: 3,
                origin_lo: 8,
                origin_hi: 15,
                samples: 4,
                mean_nodes_explored: 220,
                correction: 1.4,
            }],
            health: Health::Degraded,
            slo: vec![SloRow {
                name: "ttfa_p99".to_string(),
                metric: "ttfa_p99_us".to_string(),
                threshold: 250_000.0,
                value: 310_000.0,
                burn_fast: 12.5,
                burn_slow: 0.5,
                state: Health::Degraded,
            }],
            trace_ring_dropped: 4,
            event_log_dropped: 2,
            event_log_last_id: 17,
            watchdog_overruns: 1,
            watchdog_queue_trips: 1,
            queue_saturation: 0.25,
            ..ServiceMetrics::default()
        }
    }

    #[test]
    fn grammar_holds_for_a_populated_snapshot() {
        let text = render(&populated());
        assert!(text.ends_with('\n'));
        let mut seen_series = HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(
                seen_series.insert(series.to_string()),
                "duplicate series {series}"
            );
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "bad value in {line}"
            );
        }
        // every TYPE line names a family some sample belongs to
        for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            let family = line.split(' ').nth(2).unwrap();
            assert!(
                seen_series
                    .iter()
                    .any(|s| s.starts_with(family) || s == family),
                "family {family} has no samples"
            );
        }
    }

    #[test]
    fn covers_tenants_summaries_and_calibration() {
        let text = render(&populated());
        assert!(text.contains("banks_queries_submitted_total 10"));
        assert!(text.contains("banks_tenant_executed_total{tenant=\"acme\"} 5"));
        assert!(text.contains("banks_tenant_quota_rate_per_sec{tenant=\"acme\"} 50"));
        assert!(text.contains("banks_queue_wait_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("banks_ttfa_seconds_count 0"));
        assert!(text.contains(
            "banks_calibration_correction{engine=\"bidirectional\",origin_bucket=\"3\"} 1.4"
        ));
        assert!(text.contains("banks_persistence_enabled 1"));
        assert!(text.contains("banks_shards 2"));
        assert!(text.contains("banks_shard_owned_nodes{shard=\"0\"} 40"));
    }

    #[test]
    fn covers_replication_series() {
        let mut m = populated();
        m.replication = banks_service::ReplicationStatus {
            role: banks_service::ReplicationRole::Follower,
            leader_epoch: 12,
            applied_epoch: 10,
            lag_records: 2,
            lag_ms: 350,
        };
        let text = render(&m);
        assert!(text.contains("banks_replication_role{role=\"follower\"} 1"));
        assert!(text.contains("banks_replication_leader_epoch 12"));
        assert!(text.contains("banks_replication_applied_epoch 10"));
        assert!(text.contains("banks_replication_lag_records 2"));
        assert!(text.contains("banks_replication_lag_ms 350"));
    }

    #[test]
    fn covers_health_slo_and_overflow_series() {
        let text = render(&populated());
        assert!(text.contains("banks_health_state 1"));
        assert!(text.contains("banks_slo_state{slo=\"ttfa_p99\"} 1"));
        assert!(text.contains("banks_slo_value{slo=\"ttfa_p99\"} 310000"));
        assert!(text.contains("banks_slo_burn_fast{slo=\"ttfa_p99\"} 12.5"));
        assert!(text.contains("banks_slo_burn_slow{slo=\"ttfa_p99\"} 0.5"));
        assert!(text.contains("banks_trace_ring_dropped_total 4"));
        assert!(text.contains("banks_event_log_dropped_total 2"));
        assert!(text.contains("banks_event_log_last_id 17"));
        assert!(text.contains("banks_watchdog_overruns_total 1"));
        assert!(text.contains("banks_watchdog_queue_trips_total 1"));
        assert!(text.contains("banks_queue_saturation 0.25"));
    }
}
