//! JSON for the wire: response encoders for the shapes the front-end
//! emits, plus a re-export of the shared parser.
//!
//! Answer/stats *fragments* render in [`banks_core::json`] (shared with the
//! in-process stream, which is what makes the SSE payloads byte-identical
//! to in-process encodings), and [`parse`]/[`JsonValue`] live there too so
//! every crate round-trips through one grammar.  This module owns the
//! transport-side encoders:
//!
//! * [`metrics`] — the `GET /metrics` encoding of
//!   [`banks_service::ServiceMetrics`];
//! * [`error_body`] — the uniform error envelope every non-2xx response
//!   carries.

use banks_core::json as corejson;
use banks_service::{LatencySummary, QueryTrace, ReplicationStatus, ServiceMetrics};

pub use banks_core::json::{parse, JsonValue};

/// Renders a [`ReplicationStatus`] as the JSON object both the metrics
/// document and `/healthz` carry under `"replication"`.
pub fn replication(r: &ReplicationStatus) -> String {
    format!(
        "{{\"role\":\"{}\",\"leader_epoch\":{},\"applied_epoch\":{},\
         \"lag_records\":{},\"lag_ms\":{}}}",
        r.role.as_str(),
        r.leader_epoch,
        r.applied_epoch,
        r.lag_records,
        r.lag_ms,
    )
}

/// Renders [`ServiceMetrics`] as the `GET /metrics` JSON document.
pub fn metrics(m: &ServiceMetrics) -> String {
    let mut buf = String::with_capacity(512);
    buf.push_str(&format!(
        "{{\"submitted\":{},\"rejected\":{},\"quota_rejected\":{},\"executed\":{},\
         \"completed\":{},\"cancelled\":{},\"truncated\":{},\"cache_hits\":{},\
         \"cache_hit_rate\":{},\"answers_delivered\":{},\"nodes_explored\":{},\
         \"queued\":{},\"swaps\":{},\"mutation_batches\":{},\
         \"mutation_ops_accepted\":{},\"mutation_ops_rejected\":{},\"epoch\":{}",
        m.submitted,
        m.rejected,
        m.quota_rejected,
        m.executed,
        m.completed,
        m.cancelled,
        m.truncated,
        m.cache_hits,
        corejson::number(m.cache_hit_rate()),
        m.answers_delivered,
        m.nodes_explored,
        m.queued,
        m.swaps,
        m.mutation_batches,
        m.mutation_ops_accepted,
        m.mutation_ops_rejected,
        m.epoch,
    ));
    buf.push_str(&format!(
        ",\"persistence_enabled\":{},\"last_checkpoint_epoch\":{},\
         \"wal_records\":{},\"wal_bytes\":{},\"checkpoints\":{},\
         \"mutation_log_entries\":{},\"mutation_log_dropped\":{},\
         \"slow_queries\":{}",
        m.persistence_enabled,
        m.last_checkpoint_epoch,
        m.wal_records,
        m.wal_bytes,
        m.checkpoints,
        m.mutation_log_entries,
        m.mutation_log_dropped,
        m.slow_queries,
    ));
    buf.push_str(&format!(",\"replication\":{}", replication(&m.replication)));
    buf.push_str(&format!(
        ",\"health\":\"{}\",\"trace_ring_dropped\":{},\"event_log_dropped\":{},\
         \"event_log_last_id\":{},\"watchdog_overruns\":{},\
         \"watchdog_queue_trips\":{},\"queue_saturation\":{}",
        m.health.as_str(),
        m.trace_ring_dropped,
        m.event_log_dropped,
        m.event_log_last_id,
        m.watchdog_overruns,
        m.watchdog_queue_trips,
        corejson::number(m.queue_saturation),
    ));
    buf.push_str(",\"slo\":[");
    for (i, row) in m.slo.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&format!(
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
    buf.push(']');
    buf.push_str(&format!(",\"shards\":{},\"shard_stats\":[", m.shards));
    for (i, s) in m.shard_stats.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&format!(
            "{{\"shard\":{},\"owned_nodes\":{}}}",
            s.shard, s.owned_nodes
        ));
    }
    buf.push(']');
    for (name, summary) in [
        ("queue_wait", &m.queue_wait),
        ("ttfa", &m.ttfa),
        ("mutation_apply", &m.mutation_apply),
        ("checkpoint_latency", &m.checkpoint_latency),
        ("wal_fsync", &m.wal_fsync),
    ] {
        buf.push_str(&format!(",\"{name}\":{}", latency_summary(summary)));
    }
    buf.push_str(",\"calibration\":[");
    for (i, row) in m.calibration.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&format!(
            "{{\"engine\":{},\"origin_bucket\":{},\"origin_lo\":{},\"origin_hi\":{},\
             \"samples\":{},\"mean_nodes_explored\":{},\"correction\":{}}}",
            corejson::string(&row.engine),
            row.origin_bucket,
            row.origin_lo,
            row.origin_hi,
            row.samples,
            row.mean_nodes_explored,
            corejson::number(row.correction),
        ));
    }
    buf.push(']');
    buf.push_str(",\"tenants\":[");
    for (i, t) in m.tenants.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&format!(
            "{{\"tenant\":{},\"executed\":{},\"quota_rejected\":{},\
             \"mean_queue_wait_us\":{},\"max_queue_wait_us\":{},\
             \"quota_rate_per_sec\":{},\"quota_burst\":{}}}",
            corejson::string(&t.tenant),
            t.executed,
            t.quota_rejected,
            corejson::duration_us(t.mean_queue_wait),
            corejson::duration_us(t.max_queue_wait),
            t.quota_rate_per_sec
                .map_or_else(|| "null".to_string(), corejson::number),
            t.quota_burst
                .map_or_else(|| "null".to_string(), |b| b.to_string()),
        ));
    }
    buf.push_str("]}");
    buf
}

/// Renders a [`LatencySummary`] as the `{"count":…,"mean_us":…,…}` object
/// every latency distribution in the metrics document uses.
fn latency_summary(s: &LatencySummary) -> String {
    format!(
        "{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p90_us\":{},\
         \"p99_us\":{},\"max_us\":{}}}",
        s.count,
        corejson::duration_us(s.mean),
        corejson::duration_us(s.p50),
        corejson::duration_us(s.p90),
        corejson::duration_us(s.p99),
        corejson::duration_us(s.max),
    )
}

/// Renders a [`QueryTrace`] — the payload of the SSE `trace` event and of
/// `GET /debug/trace/<id>`.
pub fn query_trace(t: &QueryTrace) -> String {
    let mut buf = format!(
        "{{\"id\":{},\"client_ref\":{},\"tenant\":{},\"engine\":{},\
         \"cache_hit\":{},\"slow\":{},\"epoch\":{},\"total_us\":{}",
        t.id,
        t.client_ref
            .as_deref()
            .map_or_else(|| "null".to_string(), corejson::string),
        t.tenant
            .as_deref()
            .map_or_else(|| "null".to_string(), corejson::string),
        corejson::string(&t.engine),
        t.cache_hit,
        t.slow,
        t.epoch,
        t.total_us,
    );
    buf.push_str(",\"spans\":[");
    for (i, span) in t.spans.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&format!(
            "{{\"name\":{},\"start_us\":{},\"end_us\":{}}}",
            corejson::string(span.name),
            span.start_us,
            span.end_us,
        ));
    }
    buf.push_str("],\"counters\":{");
    for (i, (name, value)) in t.counters.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&format!("{}:{value}", corejson::string(name)));
    }
    buf.push_str("}}");
    buf
}

/// Renders a slice of strings as a JSON array of string literals.
pub fn string_array<S: AsRef<str>>(items: &[S]) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&corejson::string(item.as_ref()));
    }
    buf.push(']');
    buf
}

/// Renders the uniform error envelope:
/// `{"error":{"status":…,"code":…,"message":…,…extras}}`.
///
/// `extras` are pre-rendered JSON fragments appended verbatim as additional
/// members of the error object (e.g. `("suggestion", "\"bidirectional\"")`).
pub fn error_body(status: u16, code: &str, message: &str, extras: &[(&str, String)]) -> String {
    let mut buf = format!(
        "{{\"error\":{{\"status\":{status},\"code\":{},\"message\":{}",
        corejson::string(code),
        corejson::string(message),
    );
    for (key, fragment) in extras {
        buf.push_str(&format!(",{}:{}", corejson::string(key), fragment));
    }
    buf.push_str("}}");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_encoding_is_parseable_and_complete() {
        let m = ServiceMetrics::default();
        let v = parse(&metrics(&m)).unwrap();
        for key in [
            "submitted",
            "rejected",
            "quota_rejected",
            "executed",
            "cache_hits",
            "queued",
            "swaps",
            "mutation_batches",
            "mutation_ops_accepted",
            "mutation_ops_rejected",
            "epoch",
            "persistence_enabled",
            "last_checkpoint_epoch",
            "wal_records",
            "wal_bytes",
            "checkpoints",
            "mutation_log_entries",
            "mutation_log_dropped",
            "slow_queries",
            "shards",
            "health",
            "trace_ring_dropped",
            "event_log_dropped",
            "event_log_last_id",
            "watchdog_overruns",
            "watchdog_queue_trips",
            "queue_saturation",
        ] {
            assert!(v.get(key).is_some(), "metrics must include {key}");
        }
        let replication = v.get("replication").expect("replication object");
        assert_eq!(
            replication.get("role").and_then(JsonValue::as_str),
            Some("standalone"),
            "default snapshot is standalone"
        );
        for key in ["leader_epoch", "applied_epoch", "lag_records", "lag_ms"] {
            assert!(
                replication.get(key).and_then(JsonValue::as_usize).is_some(),
                "replication must include {key}"
            );
        }
        assert_eq!(
            v.get("health").and_then(JsonValue::as_str),
            Some("ok"),
            "default snapshot is healthy"
        );
        assert_eq!(v.get("slo"), Some(&JsonValue::Array(vec![])));
        assert_eq!(v.get("shard_stats"), Some(&JsonValue::Array(vec![])));
        for summary in [
            "queue_wait",
            "ttfa",
            "mutation_apply",
            "checkpoint_latency",
            "wal_fsync",
        ] {
            for field in ["count", "mean_us", "p50_us", "p90_us", "p99_us", "max_us"] {
                assert!(
                    v.get(summary).and_then(|q| q.get(field)).is_some(),
                    "metrics must include {summary}.{field}"
                );
            }
        }
        assert_eq!(v.get("tenants"), Some(&JsonValue::Array(vec![])));
        assert_eq!(v.get("calibration"), Some(&JsonValue::Array(vec![])));
    }

    #[test]
    fn trace_encoding_is_parseable() {
        let mut t = QueryTrace {
            id: 7,
            client_ref: Some("req-1".to_string()),
            tenant: None,
            engine: "bidirectional".to_string(),
            cache_hit: false,
            slow: true,
            epoch: 3,
            total_us: 1500,
            ..QueryTrace::default()
        };
        t.push_span("queue", 10, 40);
        t.push_span("expand", 40, 1400);
        t.push_counter("heap_pops", 123);
        let v = parse(&query_trace(&t)).unwrap();
        assert_eq!(v.get("id").and_then(JsonValue::as_usize), Some(7));
        assert_eq!(
            v.get("client_ref").and_then(JsonValue::as_str),
            Some("req-1")
        );
        assert_eq!(v.get("tenant"), Some(&JsonValue::Null));
        assert_eq!(v.get("slow"), Some(&JsonValue::Bool(true)));
        match v.get("spans") {
            Some(JsonValue::Array(spans)) => {
                assert_eq!(spans.len(), 2);
                assert_eq!(
                    spans[1].get("name").and_then(JsonValue::as_str),
                    Some("expand")
                );
                assert_eq!(
                    spans[1].get("end_us").and_then(JsonValue::as_usize),
                    Some(1400)
                );
            }
            other => panic!("expected spans array, got {other:?}"),
        }
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("heap_pops"))
                .and_then(JsonValue::as_usize),
            Some(123)
        );
    }

    #[test]
    fn error_envelope_shape() {
        let body = error_body(
            404,
            "unknown_engine",
            "unknown engine \"bidr\"",
            &[("suggestion", "\"bidirectional\"".to_string())],
        );
        let v = parse(&body).unwrap();
        let err = v.get("error").expect("error object");
        assert_eq!(err.get("status").and_then(JsonValue::as_usize), Some(404));
        assert_eq!(
            err.get("code").and_then(JsonValue::as_str),
            Some("unknown_engine")
        );
        assert_eq!(
            err.get("suggestion").and_then(JsonValue::as_str),
            Some("bidirectional")
        );
    }
}
