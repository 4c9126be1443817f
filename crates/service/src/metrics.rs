//! Aggregate service instrumentation.
//!
//! Two kinds of state feed [`ServiceMetrics`]:
//!
//! * `Counters` — lock-free atomics bumped on the submit path and by the
//!   workers (throughput, rejections, cache hits, swaps),
//! * `WaitStats` — a mutex-guarded log₂ histogram of **queue wait** (the
//!   time between admission and a worker picking the job up), recorded once
//!   per executed job, plus per-tenant accumulators.  Scheduling is
//!   non-preemptive — once picked up, a query runs to completion — so queue
//!   wait is exactly the scheduler-induced latency, and its percentiles are
//!   the number to watch when tuning priorities and fair share.
//!
//! The histogram machinery itself lives in [`banks_obs`]: the queue-wait
//! distribution delegates to a [`banks_obs::Histogram`], and the same type
//! backs the service's time-to-first-answer and mutation-apply
//! distributions plus the durability-layer checkpoint and WAL-fsync
//! latencies surfaced here.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use banks_graph::ShardStats;
use banks_obs::{CalibrationRow, Health, Histogram, SloRow, HISTOGRAM_BUCKETS};

use crate::quota::QuotaSettings;
use crate::replication::ReplicationStatus;

/// Lock-free counters updated by the submit path and the workers.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub submitted: AtomicU64,
    pub rejected: AtomicU64,
    pub quota_rejected: AtomicU64,
    pub executed: AtomicU64,
    pub completed: AtomicU64,
    pub cancelled: AtomicU64,
    pub truncated: AtomicU64,
    pub cache_hits: AtomicU64,
    pub answers_delivered: AtomicU64,
    pub nodes_explored: AtomicU64,
    pub swaps: AtomicU64,
    pub mutation_batches: AtomicU64,
    pub mutation_ops_accepted: AtomicU64,
    pub mutation_ops_rejected: AtomicU64,
    pub slow_queries: AtomicU64,
    pub watchdog_overruns: AtomicU64,
    pub watchdog_queue_trips: AtomicU64,
}

impl Counters {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Bound on distinct per-tenant accumulator rows.  Callers are free to put
/// high-cardinality values in [`crate::QuerySpec::tenant`] (per-user ids,
/// say); without a cap the map — and the sort in every `metrics()` call —
/// would grow for the service's lifetime.  Once the cap is reached, new
/// tenant names are accounted under the synthetic [`OVERFLOW_TENANT`] row.
const MAX_TENANT_ROWS: usize = 64;

/// Name of the catch-all row absorbing tenant names beyond the 64-row
/// tracking bound.  Angle brackets keep it from colliding with real tenant
/// names produced by well-behaved clients.
pub const OVERFLOW_TENANT: &str = "<other>";

/// Per-tenant wait/throughput accumulator.
#[derive(Clone, Debug, Default)]
struct TenantAccum {
    executed: u64,
    wait_sum_us: u64,
    wait_max_us: u64,
    quota_rejected: u64,
}

/// Queue-wait histogram plus per-tenant accumulators, updated once per job
/// at the moment a worker picks it up.  The distribution itself is a
/// [`banks_obs::Histogram`]; the per-tenant rows stay here because they
/// are service-level accounting, not a latency distribution.
#[derive(Debug, Default)]
pub(crate) struct WaitStats {
    hist: Histogram,
    tenants: HashMap<String, TenantAccum>,
}

impl WaitStats {
    /// The accumulator row for `tenant`, subject to the row cap (overflow
    /// names share the [`OVERFLOW_TENANT`] row).
    fn row(&mut self, tenant: &str) -> &mut TenantAccum {
        let key = if self.tenants.len() >= MAX_TENANT_ROWS && !self.tenants.contains_key(tenant) {
            OVERFLOW_TENANT
        } else {
            tenant
        };
        self.tenants.entry(key.to_string()).or_default()
    }

    pub(crate) fn record(&mut self, tenant: &str, wait: Duration) {
        let us = wait.as_micros().min(u64::MAX as u128) as u64;
        self.hist.record_us(us);
        let t = self.row(tenant);
        t.executed += 1;
        t.wait_sum_us = t.wait_sum_us.saturating_add(us);
        t.wait_max_us = t.wait_max_us.max(us);
    }

    /// Counts one quota rejection against `tenant`'s row.  A tenant that
    /// only ever gets rejected still shows up in the per-tenant metrics —
    /// the 429 path must be observable, not silent.
    pub(crate) fn record_quota_rejection(&mut self, tenant: &str) {
        self.row(tenant).quota_rejected += 1;
    }

    fn summary(&self) -> QueueWaitSummary {
        self.hist.summary()
    }

    /// Raw cumulative bucket counts of the queue-wait histogram — the
    /// collector diffs successive snapshots into windowed percentiles.
    pub(crate) fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        self.hist.bucket_counts()
    }

    fn tenant_metrics(&self) -> Vec<TenantMetrics> {
        let mut rows: Vec<TenantMetrics> = self
            .tenants
            .iter()
            .map(|(name, t)| TenantMetrics {
                tenant: name.clone(),
                executed: t.executed,
                quota_rejected: t.quota_rejected,
                mean_queue_wait: Duration::from_micros(
                    t.wait_sum_us.checked_div(t.executed).unwrap_or(0),
                ),
                max_queue_wait: Duration::from_micros(t.wait_max_us),
                quota_rate_per_sec: None,
                quota_burst: None,
            })
            .collect();
        rows.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        rows
    }
}

/// Distribution of queue wait (admission → worker pickup) across every
/// executed query.  An alias of [`banks_obs::LatencySummary`] — the
/// generalized histogram kit this summary's original implementation was
/// extracted into — kept for source compatibility.
pub type QueueWaitSummary = banks_obs::LatencySummary;

/// Per-tenant scheduling outcomes: how much ran and how long it queued.
///
/// At most 64 distinct tenant rows are tracked; past that bound, further
/// tenant names are accounted under the synthetic [`OVERFLOW_TENANT`]
/// (`"<other>"`) row, so a client putting per-request ids in the tenant
/// field cannot grow the metrics state without bound.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantMetrics {
    /// Tenant name (`""` is the anonymous tenant, [`OVERFLOW_TENANT`] the
    /// catch-all once the row bound is reached).
    pub tenant: String,
    /// Queries executed for this tenant (cache hits excluded).
    pub executed: u64,
    /// Submissions rejected by this tenant's admission quota
    /// ([`crate::ServiceBuilder::tenant_quota`]) — the per-tenant view of
    /// the HTTP 429 path.
    pub quota_rejected: u64,
    /// Mean queue wait of this tenant's executed queries.
    pub mean_queue_wait: Duration,
    /// Worst queue wait of this tenant's executed queries.
    pub max_queue_wait: Duration,
    /// The quota refill rate governing this tenant
    /// ([`crate::ServiceBuilder::tenant_quota_for`] override if one is
    /// configured, else the shared default); `None` when the tenant is
    /// unlimited.
    pub quota_rate_per_sec: Option<f64>,
    /// The quota burst capacity governing this tenant; `None` when
    /// unlimited.
    pub quota_burst: Option<u64>,
}

/// A point-in-time snapshot of the service counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceMetrics {
    /// Queries accepted by `submit` (including cache hits).
    pub submitted: u64,
    /// Queries rejected by admission control (bounded queue full).
    pub rejected: u64,
    /// Submissions rejected by a per-tenant token-bucket quota
    /// ([`crate::ServiceBuilder::tenant_quota`]), across all tenants.
    pub quota_rejected: u64,
    /// Queries that actually ran on a worker (cache misses).
    pub executed: u64,
    /// Queries that finished (completed, truncated or cancelled), plus
    /// cache hits (which finish at submit time).
    pub completed: u64,
    /// Queries that ended cancelled.
    pub cancelled: u64,
    /// Queries cut short by a safety cap or work budget.
    pub truncated: u64,
    /// Queries answered entirely from the result cache.
    pub cache_hits: u64,
    /// Ranked answers streamed to handles.
    pub answers_delivered: u64,
    /// Total nodes explored across all executed queries.
    pub nodes_explored: u64,
    /// Queries currently waiting in the admission scheduler.
    pub queued: u64,
    /// Graph versions swapped in since the service started (wholesale
    /// swaps *and* accepted mutation batches — both advance the epoch).
    pub swaps: u64,
    /// Mutation batches applied via [`crate::Service::apply_mutations`]
    /// (batches in which every op was rejected are not counted — they
    /// produce no new version).
    pub mutation_batches: u64,
    /// Mutation ops accepted across all applied batches.
    pub mutation_ops_accepted: u64,
    /// Mutation ops rejected across all applied batches.
    pub mutation_ops_rejected: u64,
    /// Epoch of the graph currently being served.
    pub epoch: u64,
    /// Whether durable persistence is enabled
    /// ([`crate::ServiceBuilder::persistence`]).  When `false`, every
    /// durability field below reads zero.
    pub persistence_enabled: bool,
    /// Epoch of the most recent on-disk snapshot (0 when persistence is
    /// off).
    pub last_checkpoint_epoch: u64,
    /// Mutation batches in the write-ahead log since the last checkpoint.
    pub wal_records: u64,
    /// Size of the write-ahead log in bytes.
    pub wal_bytes: u64,
    /// Checkpoints taken since the service started (boot checkpoint
    /// included).
    pub checkpoints: u64,
    /// Applied batches currently held in the in-memory mutation log ring.
    pub mutation_log_entries: u64,
    /// Applied batches dropped from the ring after it filled
    /// ([`crate::ServiceBuilder::mutation_log_capacity`]).
    pub mutation_log_dropped: u64,
    /// Queries whose end-to-end latency crossed the configured
    /// [`crate::ServiceBuilder::slow_query_threshold`] (their traces are
    /// retained for `GET /debug/slow`).
    pub slow_queries: u64,
    /// Queue-wait distribution across executed queries.
    pub queue_wait: QueueWaitSummary,
    /// Time-to-first-answer distribution across executed queries that
    /// produced at least one answer (cache hits excluded — they answer at
    /// submit time).
    pub ttfa: QueueWaitSummary,
    /// Apply-latency distribution of successful mutation batches
    /// (lock acquisition through snapshot swap, WAL append included).
    pub mutation_apply: QueueWaitSummary,
    /// Checkpoint-latency distribution (snapshot write + WAL reset +
    /// prune); empty when persistence is off.
    pub checkpoint_latency: QueueWaitSummary,
    /// WAL fsync-latency distribution; empty when persistence is off or
    /// the fsync policy never syncs.
    pub wal_fsync: QueueWaitSummary,
    /// Number of shards query execution is split across
    /// ([`crate::ServiceBuilder::shards`]; 1 = unsharded).
    pub shards: u64,
    /// Nodes of the currently-served version each shard owns; empty when
    /// unsharded.
    pub shard_stats: Vec<ShardStats>,
    /// Per-tenant scheduling outcomes, sorted by tenant name.
    pub tenants: Vec<TenantMetrics>,
    /// Cost-model calibration rows: measured `nodes_explored` per
    /// (engine, origin-size bucket) and the learned correction factor the
    /// scheduler blends into admission cost estimates.
    pub calibration: Vec<CalibrationRow>,
    /// Three-state SLO health from the latest collector pass (`ok` until
    /// the first pass completes).
    pub health: Health,
    /// Per-objective SLO rows (latest value, fast/slow burn, state) from
    /// the latest collector pass.
    pub slo: Vec<SloRow>,
    /// Traces evicted from the debug trace ring because it was full.
    pub trace_ring_dropped: u64,
    /// Events evicted from the structured event log because it was full.
    pub event_log_dropped: u64,
    /// Id of the newest structured event (0 when none were emitted) — the
    /// cursor a `GET /debug/events?since=` poller should start from.
    pub event_log_last_id: u64,
    /// Completed queries the watchdog flagged for exploring ≥ N× their
    /// a priori work estimate ([`crate::ServiceBuilder::watchdog_overrun_factor`]).
    pub watchdog_overruns: u64,
    /// Times the collector's queue-saturation watchdog tripped (queue
    /// occupancy crossed the trip threshold).
    pub watchdog_queue_trips: u64,
    /// Current admission-queue occupancy as a fraction of capacity.
    pub queue_saturation: f64,
    /// Replication role and follower progress
    /// ([`crate::Service::replication_status`]); all-default on a
    /// standalone service.
    pub replication: ReplicationStatus,
}

impl ServiceMetrics {
    pub(crate) fn snapshot(
        counters: &Counters,
        waits: &WaitStats,
        queued: usize,
        epoch: u64,
        quota: Option<&QuotaSettings>,
    ) -> Self {
        let mut tenants = waits.tenant_metrics();
        if let Some(quota) = quota {
            for row in &mut tenants {
                // the overflow row aggregates many tenants; quote the
                // default rate for it, like any non-overridden name
                if let Some(cfg) = quota.config_for(&row.tenant) {
                    row.quota_rate_per_sec = Some(cfg.rate_per_sec);
                    row.quota_burst = Some(cfg.burst);
                }
            }
            // Tenants with a configured override but no traffic yet still
            // surface their configured rate.
            for (name, cfg) in &quota.overrides {
                if !tenants.iter().any(|t| &t.tenant == name) {
                    tenants.push(TenantMetrics {
                        tenant: name.clone(),
                        quota_rate_per_sec: Some(cfg.rate_per_sec),
                        quota_burst: Some(cfg.burst),
                        ..TenantMetrics::default()
                    });
                }
            }
            tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        }
        ServiceMetrics {
            submitted: counters.submitted.load(Ordering::Relaxed),
            rejected: counters.rejected.load(Ordering::Relaxed),
            quota_rejected: counters.quota_rejected.load(Ordering::Relaxed),
            executed: counters.executed.load(Ordering::Relaxed),
            completed: counters.completed.load(Ordering::Relaxed),
            cancelled: counters.cancelled.load(Ordering::Relaxed),
            truncated: counters.truncated.load(Ordering::Relaxed),
            cache_hits: counters.cache_hits.load(Ordering::Relaxed),
            answers_delivered: counters.answers_delivered.load(Ordering::Relaxed),
            nodes_explored: counters.nodes_explored.load(Ordering::Relaxed),
            queued: queued as u64,
            swaps: counters.swaps.load(Ordering::Relaxed),
            mutation_batches: counters.mutation_batches.load(Ordering::Relaxed),
            mutation_ops_accepted: counters.mutation_ops_accepted.load(Ordering::Relaxed),
            mutation_ops_rejected: counters.mutation_ops_rejected.load(Ordering::Relaxed),
            epoch,
            // Durability, mutation-log occupancy, the latency distributions
            // other than queue wait, and the calibration table are owned by
            // other locks; `Service::metrics` fills them in after this
            // snapshot.
            persistence_enabled: false,
            last_checkpoint_epoch: 0,
            wal_records: 0,
            wal_bytes: 0,
            checkpoints: 0,
            mutation_log_entries: 0,
            mutation_log_dropped: 0,
            slow_queries: counters.slow_queries.load(Ordering::Relaxed),
            queue_wait: waits.summary(),
            ttfa: QueueWaitSummary::default(),
            mutation_apply: QueueWaitSummary::default(),
            checkpoint_latency: QueueWaitSummary::default(),
            wal_fsync: QueueWaitSummary::default(),
            shards: 1,
            shard_stats: Vec::new(),
            tenants,
            calibration: Vec::new(),
            health: Health::Ok,
            slo: Vec::new(),
            trace_ring_dropped: 0,
            event_log_dropped: 0,
            event_log_last_id: 0,
            watchdog_overruns: counters.watchdog_overruns.load(Ordering::Relaxed),
            watchdog_queue_trips: counters.watchdog_queue_trips.load(Ordering::Relaxed),
            queue_saturation: 0.0,
            replication: ReplicationStatus::default(),
        }
    }

    /// Fraction of accepted queries served from the cache (0.0 when none
    /// were accepted).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.submitted as f64
        }
    }

    /// Scheduling outcomes for one tenant, if it executed anything.
    pub fn tenant(&self, name: &str) -> Option<&TenantMetrics> {
        self.tenants.iter().find(|t| t.tenant == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters() {
        let counters = Counters::default();
        Counters::bump(&counters.submitted);
        Counters::bump(&counters.submitted);
        Counters::bump(&counters.cache_hits);
        Counters::bump(&counters.swaps);
        Counters::add(&counters.answers_delivered, 5);
        let waits = WaitStats::default();
        let snap = ServiceMetrics::snapshot(&counters, &waits, 3, 42, None);
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.answers_delivered, 5);
        assert_eq!(snap.queued, 3);
        assert_eq!(snap.swaps, 1);
        assert_eq!(snap.epoch, 42);
        assert!((snap.cache_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(ServiceMetrics::default().cache_hit_rate(), 0.0);
        assert_eq!(snap.queue_wait, QueueWaitSummary::default());
        assert!(snap.tenants.is_empty());
    }

    #[test]
    fn wait_percentiles_bracket_the_observations() {
        let mut waits = WaitStats::default();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 10_000] {
            waits.record("", Duration::from_micros(us));
        }
        let s = waits.summary();
        assert_eq!(s.count, 10);
        assert_eq!(s.max, Duration::from_micros(10_000));
        assert_eq!(s.mean, Duration::from_micros(1045));
        // bucketed upper bounds: monotone, and bracketing the true values
        assert!(s.p50 >= Duration::from_micros(50) && s.p50 < Duration::from_micros(128));
        assert!(s.p90 >= Duration::from_micros(90) && s.p90 <= s.p99);
        assert!(s.p99 <= s.max);
    }

    #[test]
    fn per_tenant_accumulators_are_sorted_and_isolated() {
        let mut waits = WaitStats::default();
        waits.record("zeta", Duration::from_micros(100));
        waits.record("alpha", Duration::from_micros(10));
        waits.record("alpha", Duration::from_micros(30));
        let rows = waits.tenant_metrics();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].tenant, "alpha");
        assert_eq!(rows[0].executed, 2);
        assert_eq!(rows[0].mean_queue_wait, Duration::from_micros(20));
        assert_eq!(rows[0].max_queue_wait, Duration::from_micros(30));
        assert_eq!(rows[1].tenant, "zeta");
        assert_eq!(rows[1].executed, 1);
    }

    #[test]
    fn tenant_rows_are_bounded_with_an_overflow_bucket() {
        let mut waits = WaitStats::default();
        for i in 0..(MAX_TENANT_ROWS + 20) {
            waits.record(&format!("tenant-{i:04}"), Duration::from_micros(10));
        }
        // an already-tracked tenant keeps accumulating on its own row
        waits.record("tenant-0000", Duration::from_micros(10));
        let rows = waits.tenant_metrics();
        assert_eq!(rows.len(), MAX_TENANT_ROWS + 1, "cap + overflow row");
        let overflow = rows
            .iter()
            .find(|r| r.tenant == OVERFLOW_TENANT)
            .expect("overflow row");
        assert_eq!(overflow.executed, 20);
        let first = rows.iter().find(|r| r.tenant == "tenant-0000").unwrap();
        assert_eq!(first.executed, 2);
    }

    #[test]
    fn quota_rejections_surface_per_tenant() {
        let mut waits = WaitStats::default();
        waits.record("paid", Duration::from_micros(10));
        waits.record_quota_rejection("free");
        waits.record_quota_rejection("free");
        let rows = waits.tenant_metrics();
        let free = rows.iter().find(|r| r.tenant == "free").expect("free row");
        assert_eq!(free.quota_rejected, 2);
        assert_eq!(free.executed, 0, "rejected-only tenants still get a row");
        let paid = rows.iter().find(|r| r.tenant == "paid").expect("paid row");
        assert_eq!(paid.quota_rejected, 0);
        assert_eq!(paid.executed, 1);
    }

    #[test]
    fn tenant_rows_surface_their_configured_quota() {
        use crate::quota::{QuotaConfig, QuotaSettings};
        let mut waits = WaitStats::default();
        waits.record("free", Duration::from_micros(10));
        let mut settings = QuotaSettings {
            default: Some(QuotaConfig::new(5.0, 10)),
            ..QuotaSettings::default()
        };
        settings
            .overrides
            .insert("paid".to_string(), QuotaConfig::new(100.0, 500));
        let counters = Counters::default();
        let snap = ServiceMetrics::snapshot(&counters, &waits, 0, 1, Some(&settings));
        let free = snap.tenant("free").expect("free row");
        assert_eq!(free.quota_rate_per_sec, Some(5.0));
        assert_eq!(free.quota_burst, Some(10));
        // configured-but-silent tenants still surface their rate
        let paid = snap.tenant("paid").expect("paid row from override");
        assert_eq!(paid.quota_rate_per_sec, Some(100.0));
        assert_eq!(paid.quota_burst, Some(500));
        assert_eq!(paid.executed, 0);
        // rows stay sorted by tenant name
        let names: Vec<&str> = snap.tenants.iter().map(|t| t.tenant.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        // without quotas, the fields stay None
        let snap = ServiceMetrics::snapshot(&counters, &waits, 0, 1, None);
        assert_eq!(snap.tenant("free").unwrap().quota_rate_per_sec, None);
    }

    #[test]
    fn zero_wait_lands_in_the_zero_bucket() {
        let mut waits = WaitStats::default();
        waits.record("", Duration::ZERO);
        let s = waits.summary();
        assert_eq!(s.p50, Duration::ZERO);
        assert_eq!(s.max, Duration::ZERO);
    }
}
