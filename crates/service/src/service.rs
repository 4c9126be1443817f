//! The worker-pool query service: priority admission, pinned snapshots,
//! online graph swapping.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use banks_core::cache::CacheKey;
use banks_core::registry::UnknownEngine;
use banks_core::{
    CancelToken, EngineRegistry, QueryContext, QueryCost, ResultCache, SearchOutcome, SearchStats,
};
use banks_graph::{DataGraph, MutationLog, ShardSpec, ShardStats, DEFAULT_LOG_CAPACITY};
use banks_obs::{
    CostCalibration, EventLevel, EventLog, Health, Histogram, QueryTrace, ShardTimes, SloEngine,
    SloReport, SloSpec, TimeSeriesRing, TraceRing, WorkCounters, HISTOGRAM_BUCKETS,
};
use banks_persist::{
    list_snapshots, recover, replay_wal, FsyncPolicy, PersistError, PersistOptions, Wal,
};
use banks_prestige::PrestigeVector;
use banks_textindex::{InvertedIndex, KeywordMatches};

use crate::handle::{HandleState, QueryEvent, QueryHandle, QueryId, QueryResult};
use crate::metrics::{Counters, ServiceMetrics, WaitStats};
use crate::persistence::{CommittedRecord, DurabilityStatus, Durable, Persistence};
use crate::quota::{QuotaConfig, QuotaSettings, QuotaState};
use crate::replication::{ReplicationRole, ReplicationState, ReplicationStatus};
use crate::sched::WorkQueue;
use crate::snapshot::GraphSnapshot;
use crate::spec::QuerySpec;

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// Admission control: the bounded queue is full.  Back off and retry —
    /// accepting the query anyway would only grow an unbounded backlog.
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// The requested engine is not registered; the error lists the known
    /// engines and the nearest alias.
    UnknownEngine(UnknownEngine),
    /// The tenant's token bucket is empty (see
    /// [`ServiceBuilder::tenant_quota`]).  Quota rejection happens before
    /// any work — no snapshot pin, no cache lookup, no queue slot.
    QuotaExceeded {
        /// The tenant whose bucket rejected the submission.
        tenant: String,
        /// Time until the bucket refills enough for one submission — the
        /// value an HTTP front-end surfaces as `Retry-After`.
        retry_after: Duration,
    },
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} queries waiting)")
            }
            SubmitError::UnknownEngine(e) => write!(f, "{e}"),
            SubmitError::QuotaExceeded {
                tenant,
                retry_after,
            } => write!(
                f,
                "tenant {tenant:?} is over its admission quota (retry in {retry_after:?})"
            ),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Capacity of the trace retention ring ([`Service::trace`] /
/// [`Service::slow_traces`] look traces up in it).
const TRACE_RING_CAPACITY: usize = 256;

/// Slots in the metrics time-series ring: at the default 10 s collector
/// cadence this retains one hour of history.
const TIMESERIES_CAPACITY: usize = 360;

/// Queue occupancy (fraction of capacity) at which the watchdog flags
/// saturation, and the lower fraction at which the flag clears.
const QUEUE_SATURATION_TRIP: f64 = 0.8;
const QUEUE_SATURATION_CLEAR: f64 = 0.5;

/// The fixed schema of series the collector snapshots every tick.
/// Cumulative counters keep their counter names (windowed deltas/rates come
/// from [`TimeSeriesRing::delta`] / [`TimeSeriesRing::rate_per_sec`]);
/// `*_p*_us` series are **windowed** percentiles — computed from the
/// histogram-bucket delta of the tick, `NaN` when the tick saw no samples —
/// so they decay when a latency regression ends, which is what lets an SLO
/// alert resolve.
fn timeseries_schema() -> Vec<&'static str> {
    vec![
        "submitted",
        "executed",
        "completed",
        "rejected",
        "quota_rejected",
        "cancelled",
        "cache_hits",
        "answers_delivered",
        "slow_queries",
        "queued",
        "error_ratio",
        "ttfa_p50_us",
        "ttfa_p90_us",
        "ttfa_p99_us",
        "queue_wait_p50_us",
        "queue_wait_p90_us",
        "shard_imbalance",
        "queue_saturation",
        "replication_lag_ms",
    ]
}

/// Wall-clock milliseconds since the Unix epoch (the time base of the
/// time-series ring and SLO evaluation).
pub(crate) fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Span names for per-shard expand attribution.  [`banks_obs::TraceSpan`]
/// names are `&'static str`, so shard indices map through a fixed table;
/// shards beyond it share the overflow name (a display concern only — the
/// per-shard times themselves are exact for any count).
const SHARD_SPAN_NAMES: [&str; 16] = [
    "shard-0", "shard-1", "shard-2", "shard-3", "shard-4", "shard-5", "shard-6", "shard-7",
    "shard-8", "shard-9", "shard-10", "shard-11", "shard-12", "shard-13", "shard-14", "shard-15",
];

/// The static span name for `shard`.
fn shard_span_name(shard: usize) -> &'static str {
    SHARD_SPAN_NAMES.get(shard).copied().unwrap_or("shard-16+")
}

/// Phase timestamps collected while a query moves through admission and
/// execution, as microsecond offsets from `t0` (the top of
/// [`Service::submit`]).  Built for *every* query — a handful of `Instant`
/// reads — so slow queries produce a trace even when the caller did not
/// ask for one; the [`QueryTrace`] itself is only assembled (and the
/// engine's [`WorkCounters`] only attached) when tracing was requested or
/// the query crossed the slow threshold.
struct TraceCtx {
    /// The client correlation reference when the submission explicitly
    /// requested a trace ([`QuerySpec::trace`]).
    requested: Option<String>,
    t0: Instant,
    admit_us: u64,
    resolve_start_us: u64,
    resolve_end_us: u64,
    enqueued_us: u64,
    submitted_off_us: u64,
    /// Live engine counters, allocated only for explicitly traced queries
    /// so untraced expansion steps skip the sampling stores entirely.
    counters: Option<Arc<WorkCounters>>,
}

impl TraceCtx {
    fn new(requested: Option<String>, t0: Instant) -> Self {
        let counters = requested.as_ref().map(|_| Arc::new(WorkCounters::new()));
        TraceCtx {
            requested,
            t0,
            admit_us: 0,
            resolve_start_us: 0,
            resolve_end_us: 0,
            enqueued_us: 0,
            submitted_off_us: 0,
            counters,
        }
    }

    fn elapsed_us(&self) -> u64 {
        self.t0.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

/// Assembles the retained [`QueryTrace`] for one finished query.  `pickup`
/// and `expand_end` are `None` for cache hits (which never queue or run).
#[allow(clippy::too_many_arguments)]
fn build_trace(
    ctx: &TraceCtx,
    id: QueryId,
    engine: &str,
    tenant: &str,
    epoch: u64,
    cache_hit: bool,
    slow: bool,
    total_us: u64,
    pickup_us: Option<u64>,
    expand_end_us: Option<u64>,
    time_to_first_answer: Option<Duration>,
    stats: &SearchStats,
    shard_times: Option<&ShardTimes>,
) -> QueryTrace {
    let mut trace = QueryTrace {
        id: id.0,
        client_ref: ctx.requested.clone(),
        tenant: (!tenant.is_empty()).then(|| tenant.to_string()),
        engine: engine.to_string(),
        cache_hit,
        slow,
        epoch,
        total_us,
        spans: Vec::new(),
        counters: Vec::new(),
    };
    trace.push_span("admit", 0, ctx.admit_us);
    trace.push_span("resolve", ctx.resolve_start_us, ctx.resolve_end_us);
    if let (Some(pickup), Some(expand_end)) = (pickup_us, expand_end_us) {
        trace.push_span("queue", ctx.enqueued_us, pickup);
        trace.push_span("expand", pickup, expand_end);
        // Per-shard expand attribution: the scatter engine charges each
        // shard its proportional share of every refill round's wall time,
        // so these spans — laid end to end from pickup — always sum to at
        // most the expand span (the merge loop and rounding eat the rest).
        if let Some(times) = shard_times {
            let mut start = pickup;
            for (shard, busy) in times.totals().into_iter().enumerate() {
                if busy == 0 {
                    continue;
                }
                let end = (start + busy).min(expand_end);
                trace.push_span(shard_span_name(shard), start, end);
                start = end;
            }
        }
    }
    if let Some(ttfa) = time_to_first_answer {
        let ttfa_us = ttfa.as_micros().min(u64::MAX as u128) as u64;
        trace.push_span(
            "first-answer",
            ctx.submitted_off_us,
            ctx.submitted_off_us + ttfa_us,
        );
    }
    trace.push_span("finish", 0, total_us);
    // Explicitly traced queries carry the live counters the step driver
    // sampled; slow-only traces fall back to the final statistics (same
    // values, just not sampled mid-flight).
    match &ctx.counters {
        Some(c) => {
            trace.push_counter("heap_pops", c.heap_pops.get());
            trace.push_counter("nodes_touched", c.nodes_touched.get());
            trace.push_counter("rows_expanded", c.rows_expanded.get());
            trace.push_counter("answers_emitted", c.answers_emitted.get());
        }
        None => {
            trace.push_counter("heap_pops", stats.nodes_explored as u64);
            trace.push_counter("nodes_touched", stats.nodes_touched as u64);
            trace.push_counter("rows_expanded", stats.edges_traversed as u64);
            trace.push_counter("answers_emitted", stats.answers_output as u64);
        }
    }
    trace
}

/// One unit of queued work, pinned to the serving snapshot it was admitted
/// under.
struct Job {
    id: QueryId,
    /// The graph version this query resolves, expands and caches against —
    /// fixed at admission, unaffected by later swaps.
    snapshot: Arc<GraphSnapshot>,
    matches: KeywordMatches,
    cache_key: CacheKey,
    spec_params: banks_core::SearchParams,
    engine: String,
    tenant: String,
    token: CancelToken,
    events: Sender<QueryEvent>,
    state: Arc<HandleState>,
    submitted_at: Instant,
    /// The a priori cost estimate the scheduler charged (calibration
    /// feedback compares it with the measured `nodes_explored`).
    cost: QueryCost,
    trace: TraceCtx,
}

struct QueueState {
    jobs: WorkQueue<Job>,
    /// Jobs currently running on a worker (popped but not finished) — the
    /// other half of the quiescence test [`Service::drain`] waits on.
    executing: usize,
    shutdown: bool,
}

/// Everything the workers share.  The write path (`crate::commit`) reaches
/// into the `pub(crate)` fields.
pub(crate) struct Inner {
    /// The currently-served snapshot; the write path replaces the `Arc`
    /// while in-flight queries keep their pinned clones alive.
    pub(crate) serving: Mutex<Arc<GraphSnapshot>>,
    /// Configured shard count (≥ 1): the scatter-gather engines split each
    /// query across this many hash-owned shards of the served graph.
    shards: usize,
    registry: EngineRegistry,
    default_engine: String,
    pub(crate) cache: Arc<ResultCache>,
    /// Whether the cache was created by (and is private to) this service —
    /// only then may a swap eagerly evict the superseded epoch's entries.
    pub(crate) cache_private: bool,
    queue: Mutex<QueueState>,
    queue_capacity: usize,
    work_available: Condvar,
    /// Signalled whenever the queue empties *and* the last executing job
    /// finishes; [`Service::drain`] waits on it.
    idle: Condvar,
    /// Per-tenant token buckets (`None`: quotas disabled).
    quota: Option<Mutex<QuotaState>>,
    /// The quota configuration (kept outside the bucket mutex so metrics
    /// snapshots never contend with the admission path).
    quota_settings: Option<QuotaSettings>,
    /// The admin lock: every write (`crate::commit`) holds it throughout,
    /// so batches, swaps, checkpoints and replicated records never
    /// interleave.  Never held while queries are admitted or executed.
    pub(crate) mutate: Mutex<()>,
    /// Durability state (WAL + checkpoint bookkeeping, the committed
    /// tail and its commit signal); `None` when the service was built
    /// without [`ServiceBuilder::persistence`].  Lock order: `mutate` →
    /// `persistence` → `serving` (never the reverse).
    pub(crate) persistence: Option<Durable>,
    /// Ring of recently applied mutation batches (epoch transitions and
    /// accept/reject counts), bounded by
    /// [`ServiceBuilder::mutation_log_capacity`].
    pub(crate) mutation_log: Mutex<MutationLog>,
    pub(crate) counters: Counters,
    waits: Mutex<WaitStats>,
    pub(crate) next_id: AtomicU64,
    /// Retained phase traces (explicitly traced + slow queries).
    pub(crate) traces: TraceRing,
    /// End-to-end latency beyond which a query counts as *slow*: its trace
    /// is retained and [`ServiceMetrics::slow_queries`] is bumped.
    slow_threshold: Duration,
    /// Time-to-first-answer distribution across executed queries.
    ttfa_hist: Histogram,
    /// Apply-latency distribution of successful mutation batches.
    pub(crate) mutation_apply_hist: Histogram,
    /// Online correction of the a priori cost model from measured
    /// `nodes_explored`, per (engine, origin-size bucket).
    calibration: CostCalibration,
    /// The structured operational event log (admission rejects, mutation
    /// batches, checkpoints, swaps, alerts, watchdog trips).
    pub(crate) events: EventLog,
    /// Retained metric snapshots, written by the collector thread.
    series: TimeSeriesRing,
    /// The burn-rate judge over [`Inner::series`].
    slo: SloEngine,
    /// The most recent collector-pass verdict, served on `GET /debug/slo`
    /// and folded into `/healthz` and `/metrics`.
    slo_report: Mutex<SloReport>,
    /// Replication role and follower progress (see
    /// [`crate::replication`]).
    pub(crate) replication: Mutex<ReplicationState>,
    /// Nodes-explored multiple of the a priori estimate beyond which the
    /// watchdog flags a finished query as an overrun.
    watchdog_factor: u64,
    /// Collector cadence (also reported on `GET /debug/slo`).
    collector_cadence: Duration,
}

impl Inner {
    /// Per-shard node ownership of the served graph, counted by
    /// [`ShardSpec::owner`]; empty when unsharded.
    fn shard_stats(&self) -> Vec<ShardStats> {
        if self.shards <= 1 {
            return Vec::new();
        }
        let snapshot = Arc::clone(&self.serving.lock().expect("serving lock"));
        ShardSpec::new(self.shards).stats(snapshot.graph())
    }
}

/// Configures and spawns a [`Service`].
pub struct ServiceBuilder {
    graph: DataGraph,
    workers: usize,
    queue_capacity: usize,
    cache_capacity: usize,
    cache_min_work: u64,
    shared_cache: Option<Arc<ResultCache>>,
    prestige: Option<PrestigeVector>,
    index: Option<InvertedIndex>,
    registry: Option<EngineRegistry>,
    default_engine: String,
    quota: QuotaSettings,
    persistence: Option<(PathBuf, PersistOptions)>,
    log_capacity: usize,
    slow_query_threshold: Duration,
    shards: usize,
    collector_cadence: Duration,
    slos: Option<Vec<SloSpec>>,
    event_log_capacity: usize,
    watchdog_factor: u64,
}

impl ServiceBuilder {
    /// Number of worker threads (default: available parallelism, capped at
    /// 8; always at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Bound of the admission queue (default 64).  A full queue rejects new
    /// submissions with [`SubmitError::QueueFull`] instead of buffering
    /// without limit — backpressure is explicit.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Capacity of the LRU result cache (default 256; 0 disables caching).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Admission threshold of the private result cache, in nodes explored
    /// (default 0: admit everything).  Outcomes measured cheaper than this
    /// are recomputed on demand instead of occupying a cache slot, so a
    /// stream of tiny queries cannot evict the expensive outcomes caching
    /// exists for.  Ignored when [`ServiceBuilder::shared_cache`] supplies
    /// the cache — configure the threshold on the shared instance
    /// ([`ResultCache::min_work`]) instead.
    pub fn cache_min_work(mut self, min_work: u64) -> Self {
        self.cache_min_work = min_work;
        self
    }

    /// Shares an existing result cache instead of creating a private one.
    /// Keys carry the graph epoch, so one cache can serve several services
    /// (and graph versions) without cross-talk.  A shared cache is never
    /// purged on [`Service::swap_graph`] — another service may still serve
    /// the old epoch.
    pub fn shared_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Uses a precomputed prestige vector instead of the uniform default.
    pub fn prestige(mut self, prestige: PrestigeVector) -> Self {
        self.prestige = Some(prestige);
        self
    }

    /// Uses a prebuilt keyword index instead of the label index built from
    /// the graph.
    pub fn index(mut self, index: InvertedIndex) -> Self {
        self.index = Some(index);
        self
    }

    /// Replaces the engine registry (default: the paper's engines).
    pub fn registry(mut self, registry: EngineRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Sets the engine run when a [`QuerySpec`] names none.
    ///
    /// # Panics
    /// `build` panics when this name is not in the registry.
    pub fn default_engine(mut self, name: impl Into<String>) -> Self {
        self.default_engine = name.into();
        self
    }

    /// Enables per-tenant admission quotas: every tenant owns a token
    /// bucket of capacity `burst` refilled at `rate_per_sec` tokens per
    /// second, and each submission — cache hit or miss — takes one token
    /// (or a cost-weighted charge; see
    /// [`ServiceBuilder::quota_work_per_token`]).  An underfunded bucket
    /// rejects with [`SubmitError::QuotaExceeded`], whose `retry_after`
    /// says when the charge becomes affordable.
    ///
    /// Quotas complement the scheduler's fair share: fair share decides
    /// *who runs next* among admitted work, the quota decides *whether a
    /// tenant may submit at all*.  Submissions naming no tenant share the
    /// anonymous tenant `""` (and therefore one bucket).  Rejections are
    /// counted per tenant in [`crate::TenantMetrics::quota_rejected`],
    /// and each tracked tenant's governing rate is surfaced in
    /// [`crate::TenantMetrics::quota_rate_per_sec`].
    ///
    /// This sets the rate every tenant shares by default; named tenants
    /// can get their own rate via [`ServiceBuilder::tenant_quota_for`].
    /// Default: no quota (every submission admitted subject to queue
    /// capacity).  `rate_per_sec` is floored at one token per day and
    /// `burst` at 1.
    pub fn tenant_quota(mut self, rate_per_sec: f64, burst: u64) -> Self {
        self.quota.default = Some(QuotaConfig::new(rate_per_sec, burst));
        self
    }

    /// Configures a *per-tenant* quota override: `tenant` gets its own
    /// token bucket of capacity `burst` refilled at `rate_per_sec`,
    /// regardless of the shared default — a paid tier bursts higher, an
    /// abusive scraper is pinned lower.  May be called once per tenant.
    ///
    /// Overrides work with or without a [`ServiceBuilder::tenant_quota`]
    /// default; without one, tenants that have no override are unlimited.
    pub fn tenant_quota_for(
        mut self,
        tenant: impl Into<String>,
        rate_per_sec: f64,
        burst: u64,
    ) -> Self {
        self.quota
            .overrides
            .insert(tenant.into(), QuotaConfig::new(rate_per_sec, burst));
        self
    }

    /// Switches quota charging from flat (one token per submission) to
    /// **cost-weighted**: a submission is charged
    /// `max(1, estimated_work / work_per_token)` tokens, where
    /// `estimated_work` is the scheduler's a priori estimate
    /// ([`banks_core::QueryCost`]).  A tenant's quota then bounds the
    /// *engine work* it can demand per second, not merely its request
    /// rate — a burst of expensive trawls drains the bucket as fast as
    /// many cheap lookups.
    ///
    /// Details: the one-token floor is charged *up front*, before any
    /// resolution work, so an over-quota tenant cannot extract free
    /// tokenization/cache probes by hammering; the work-priced remainder
    /// is charged once the resolved origin sets make the estimate
    /// available.  Cache hits are charged only the floor (they cost the
    /// service almost nothing), and a single query estimated above
    /// `burst × work_per_token` is clamped to the full bucket rather than
    /// being forever unaffordable.
    pub fn quota_work_per_token(mut self, work_per_token: u64) -> Self {
        self.quota.work_per_token = Some(work_per_token.max(1));
        self
    }

    /// Enables durable persistence in `data_dir` with the given fsync
    /// policy (defaults for everything else — see
    /// [`ServiceBuilder::persistence_with`] for the full knob set).
    ///
    /// With persistence enabled, [`Service::build`](ServiceBuilder::build)
    /// first tries to **recover**: if `data_dir` holds a usable snapshot,
    /// it is loaded, the WAL suffix is replayed, and the builder's graph is
    /// ignored — the service boots serving exactly the pre-crash state.
    /// On a fresh directory the builder's graph is used and an initial
    /// checkpoint is written immediately.  Thereafter every accepted
    /// mutation batch is WAL-appended *before* its snapshot swap, and
    /// checkpoints run on demand ([`Service::checkpoint`]), on compaction,
    /// on WAL rotation, and after a wholesale [`Service::swap_graph`].
    ///
    /// Recovery derives the keyword index and prestige from the recovered
    /// graph (the builder defaults).  A deployment that supplies its own
    /// [`ServiceBuilder::index`] / [`ServiceBuilder::prestige`] must
    /// re-supply them on restart — they are treated as external state, and
    /// the persisted copies are available to the caller via
    /// [`banks_persist::read_snapshot`].
    pub fn persistence(self, data_dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> Self {
        let options = PersistOptions {
            fsync,
            ..PersistOptions::default()
        };
        self.persistence_with(data_dir, options)
    }

    /// Enables durable persistence with full [`PersistOptions`] control
    /// (fsync policy, WAL rotation threshold, snapshot retention).
    pub fn persistence_with(
        mut self,
        data_dir: impl Into<PathBuf>,
        options: PersistOptions,
    ) -> Self {
        self.persistence = Some((data_dir.into(), options));
        self
    }

    /// Capacity of the in-memory mutation log ring (default
    /// [`banks_graph::DEFAULT_LOG_CAPACITY`]).  Once full, the oldest
    /// entries are dropped and counted in
    /// [`ServiceMetrics::mutation_log_dropped`].
    pub fn mutation_log_capacity(mut self, capacity: usize) -> Self {
        self.log_capacity = capacity;
        self
    }

    /// Splits query execution across `shards` hash-owned shards (default
    /// 1: unsharded; clamped to at least 1).  Every node belongs to the
    /// shard [`ShardSpec::owner`] names; the `scatter-gather` engine family
    /// executes across the shards in parallel while emitting a stream
    /// byte-identical to the unsharded run.  No per-shard copy of the
    /// graph is kept: every version, however it was produced, is sharded
    /// by the same pure function of the node id.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// End-to-end latency beyond which a query counts as **slow** (default
    /// 250 ms): its phase trace is retained in the bounded trace ring —
    /// retrievable via [`Service::slow_traces`] / [`Service::trace`], and
    /// over HTTP at `GET /debug/slow` — even when the submission did not
    /// request tracing, and [`ServiceMetrics::slow_queries`] is bumped.
    pub fn slow_query_threshold(mut self, threshold: Duration) -> Self {
        self.slow_query_threshold = threshold;
        self
    }

    /// Cadence of the metrics collector thread (default 10 s, floored at
    /// 10 ms).  Every tick snapshots the time-series schema into the
    /// bounded retention ring, re-evaluates the SLO burn rates, and runs
    /// the queue-saturation watchdog.  Tests shrink this to ~100 ms so an
    /// induced regression flips health within a fraction of a second.
    pub fn collector_cadence(mut self, cadence: Duration) -> Self {
        self.collector_cadence = cadence.max(Duration::from_millis(10));
        self
    }

    /// Replaces the stock SLO set ([`SloSpec::defaults`]: `ttfa_p99 <
    /// 250 ms`, `error_ratio < 1%`, `queue_wait_p90 < 50 ms`,
    /// `shard_imbalance < 2`).  An empty vector disables SLO judgment —
    /// health stays `ok` and `GET /debug/slo` reports no specs.
    pub fn slos(mut self, specs: Vec<SloSpec>) -> Self {
        self.slos = Some(specs);
        self
    }

    /// Loads the SLO set from a JSON config file (see [`parse_slo_specs`]
    /// for the format) — the operator-facing twin of
    /// [`ServiceBuilder::slos`].  Errors carry the offending path or the
    /// parse failure; an unreadable or malformed file must fail loudly at
    /// boot, not silently fall back to the defaults.
    pub fn slos_from_path(self, path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read SLO config {}: {e}", path.display()))?;
        let specs =
            parse_slo_specs(&text).map_err(|e| format!("SLO config {}: {e}", path.display()))?;
        Ok(self.slos(specs))
    }

    /// Capacity of the structured event-log ring (default 1024, minimum
    /// 1).  Once full, the oldest events are evicted and counted in
    /// [`ServiceMetrics::event_log_dropped`].
    pub fn event_log_capacity(mut self, capacity: usize) -> Self {
        self.event_log_capacity = capacity;
        self
    }

    /// Nodes-explored multiple of the scheduler's a priori estimate beyond
    /// which a finished query trips the watchdog (default 8×, floored at
    /// 2×): the overrun is counted in
    /// [`ServiceMetrics::watchdog_overruns`] and logged as a
    /// `watchdog-overrun` event.
    pub fn watchdog_overrun_factor(mut self, factor: u64) -> Self {
        self.watchdog_factor = factor.max(2);
        self
    }

    /// Validates the configuration, builds the initial serving snapshot
    /// (prestige and keyword index included) and spawns the worker threads.
    ///
    /// # Panics
    /// Panics when persistence is enabled and recovery or the initial
    /// checkpoint fails — use [`ServiceBuilder::try_build`] to handle
    /// those errors.  (Without persistence this never fails, except for
    /// the documented unknown-default-engine panic.)
    pub fn build(self) -> Service {
        match self.try_build() {
            Ok(service) => service,
            Err(e) => panic!("service persistence initialisation failed: {e}"),
        }
    }

    /// Fallible [`ServiceBuilder::build`]: persistence errors (unreadable
    /// data directory, corrupt state beyond recovery, failed initial
    /// checkpoint) are returned instead of panicking.
    pub fn try_build(self) -> Result<Service, PersistError> {
        // Derived parts (uniform prestige, label index) refresh exactly on
        // `apply_mutations`; caller-supplied parts are treated as external
        // (prestige carried forward, index updated additively only).
        //
        // With persistence, recovery decides the boot graph: a usable
        // snapshot (plus replayed WAL suffix) supersedes the builder's
        // graph; a fresh directory uses the builder's graph and writes an
        // initial checkpoint so the directory is valid from the first
        // moment.
        let events = EventLog::new(self.event_log_capacity);
        let (snapshot, persistence) = match self.persistence {
            None => (
                GraphSnapshot::from_optional(self.graph, self.prestige, self.index),
                None,
            ),
            Some((dir, options)) => {
                std::fs::create_dir_all(&dir)?;
                match recover(&dir)? {
                    Some(recovery) => {
                        let (graph, replayed) =
                            replay_wal(recovery.contents.graph, &recovery.wal.records)?;
                        let wal = Persistence::open_wal(&dir, &options, &recovery.wal)?;
                        let snapshot =
                            GraphSnapshot::from_optional(graph, self.prestige, self.index);
                        let persistence = Persistence::recovered(
                            &dir,
                            wal,
                            options,
                            recovery.snapshot_epoch,
                            &recovery.wal,
                            replayed as u64,
                        );
                        events.emit(
                            EventLevel::Info,
                            "recovery",
                            format!(
                                "recovered snapshot epoch {} and replayed {} WAL record(s)",
                                recovery.snapshot_epoch, replayed
                            ),
                        );
                        (snapshot, Some(persistence))
                    }
                    None => {
                        let snapshot =
                            GraphSnapshot::from_optional(self.graph, self.prestige, self.index);
                        let wal = Wal::create(&dir.join(banks_persist::WAL_FILE), options.fsync)?;
                        let mut persistence = Persistence::fresh(&dir, wal, options);
                        persistence.checkpoint(&snapshot)?;
                        (snapshot, Some(persistence))
                    }
                }
            }
        };
        let registry = self.registry.unwrap_or_default();
        if !registry.contains(&self.default_engine) {
            panic!("{}", registry.unknown(&self.default_engine));
        }
        let (cache, cache_private) = match self.shared_cache {
            Some(cache) => (cache, false),
            None => (
                Arc::new(ResultCache::new(self.cache_capacity).min_work(self.cache_min_work)),
                true,
            ),
        };
        let quota_enabled = self.quota.enabled();
        let inner = Arc::new(Inner {
            serving: Mutex::new(Arc::new(snapshot)),
            shards: self.shards,
            registry,
            default_engine: self.default_engine,
            cache,
            cache_private,
            queue: Mutex::new(QueueState {
                jobs: WorkQueue::new(),
                executing: 0,
                shutdown: false,
            }),
            queue_capacity: self.queue_capacity,
            work_available: Condvar::new(),
            idle: Condvar::new(),
            quota: quota_enabled.then(|| Mutex::new(QuotaState::new(self.quota.clone()))),
            quota_settings: quota_enabled.then_some(self.quota),
            mutate: Mutex::new(()),
            persistence: persistence.map(Durable::new),
            mutation_log: Mutex::new(MutationLog::new(self.log_capacity)),
            counters: Counters::default(),
            waits: Mutex::new(WaitStats::default()),
            next_id: AtomicU64::new(0),
            traces: TraceRing::new(TRACE_RING_CAPACITY),
            slow_threshold: self.slow_query_threshold,
            ttfa_hist: Histogram::new(),
            mutation_apply_hist: Histogram::new(),
            calibration: CostCalibration::default(),
            events,
            series: TimeSeriesRing::new(timeseries_schema(), TIMESERIES_CAPACITY),
            slo: SloEngine::new(self.slos.unwrap_or_else(SloSpec::defaults)),
            slo_report: Mutex::new(SloReport::default()),
            replication: Mutex::new(ReplicationState::default()),
            watchdog_factor: self.watchdog_factor,
            collector_cadence: self.collector_cadence,
        });
        let workers = (0..self.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("banks-worker-{i}"))
                    .spawn(move || worker_loop(inner))
                    .expect("spawn worker thread")
            })
            .collect();
        let collector_stop = Arc::new((Mutex::new(false), Condvar::new()));
        let collector = {
            let inner = Arc::clone(&inner);
            let stop = Arc::clone(&collector_stop);
            let cadence = self.collector_cadence;
            Some(
                std::thread::Builder::new()
                    .name("banks-collector".to_string())
                    .spawn(move || collector_loop(inner, stop, cadence))
                    .expect("spawn collector thread"),
            )
        };
        Ok(Service {
            inner,
            workers,
            collector,
            collector_stop,
        })
    }
}

/// Parses a JSON SLO configuration: either a top-level array of spec
/// objects or an object with a `"slos"` array member.  Each spec requires
/// `"name"`, `"metric"` and `"threshold"`; the optional `"budget"`,
/// `"fast_window_ms"`, `"slow_window_ms"`, `"fire_burn"` and
/// `"resolve_burn"` members override the [`SloSpec::upper_bound`]
/// defaults.  Unknown members are rejected — a typo must not silently
/// weaken an objective.
///
/// ```
/// let specs = banks_service::parse_slo_specs(
///     r#"{"slos":[{"name":"replication_lag","metric":"replication_lag_ms",
///                  "threshold":5000}]}"#,
/// )
/// .unwrap();
/// assert_eq!(specs.len(), 1);
/// assert_eq!(specs[0].metric, "replication_lag_ms");
/// ```
pub fn parse_slo_specs(text: &str) -> Result<Vec<SloSpec>, String> {
    use banks_core::json::JsonValue;

    let doc = banks_core::json::parse(text)?;
    let entries: &[JsonValue] = match &doc {
        JsonValue::Array(items) => items,
        JsonValue::Object(map) => match map.get("slos") {
            Some(JsonValue::Array(items)) => items,
            Some(_) => return Err("\"slos\" must be an array".to_string()),
            None => {
                return Err(
                    "expected a top-level array or an object with a \"slos\" array".to_string(),
                )
            }
        },
        _ => return Err("expected a top-level array or object".to_string()),
    };
    let mut specs = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let JsonValue::Object(map) = entry else {
            return Err(format!("slo #{i}: expected an object"));
        };
        for key in map.keys() {
            if ![
                "name",
                "metric",
                "threshold",
                "budget",
                "fast_window_ms",
                "slow_window_ms",
                "fire_burn",
                "resolve_burn",
            ]
            .contains(&key.as_str())
            {
                return Err(format!("slo #{i}: unknown member {key:?}"));
            }
        }
        let string_field = |key: &str| -> Result<String, String> {
            match map.get(key) {
                Some(JsonValue::String(s)) if !s.is_empty() => Ok(s.clone()),
                Some(JsonValue::String(_)) => Err(format!("slo #{i}: {key:?} must be non-empty")),
                Some(_) => Err(format!("slo #{i}: {key:?} must be a string")),
                None => Err(format!("slo #{i}: missing {key:?}")),
            }
        };
        let number_field = |key: &str| -> Result<Option<f64>, String> {
            match map.get(key) {
                Some(JsonValue::Number(n)) if n.is_finite() => Ok(Some(*n)),
                Some(_) => Err(format!("slo #{i}: {key:?} must be a finite number")),
                None => Ok(None),
            }
        };
        let window_field = |key: &str| -> Result<Option<u64>, String> {
            match number_field(key)? {
                Some(n) if n >= 1.0 && n.fract() == 0.0 => Ok(Some(n as u64)),
                Some(_) => Err(format!(
                    "slo #{i}: {key:?} must be a positive integer of ms"
                )),
                None => Ok(None),
            }
        };
        let threshold =
            number_field("threshold")?.ok_or_else(|| format!("slo #{i}: missing \"threshold\""))?;
        let mut spec =
            SloSpec::upper_bound(string_field("name")?, string_field("metric")?, threshold);
        if let Some(budget) = number_field("budget")? {
            if !(budget > 0.0 && budget <= 1.0) {
                return Err(format!("slo #{i}: \"budget\" must be in (0, 1]"));
            }
            spec.budget = budget;
        }
        if let Some(fast) = window_field("fast_window_ms")? {
            spec.fast_window_ms = fast;
        }
        if let Some(slow) = window_field("slow_window_ms")? {
            spec.slow_window_ms = slow;
        }
        if let Some(fire) = number_field("fire_burn")? {
            spec.fire_burn = fire;
        }
        if let Some(resolve) = number_field("resolve_burn")? {
            spec.resolve_burn = resolve;
        }
        if spec.fast_window_ms > spec.slow_window_ms {
            return Err(format!(
                "slo #{i}: fast window must not exceed the slow window"
            ));
        }
        if let Some(dup) = specs
            .iter()
            .map(|s: &SloSpec| &s.name)
            .find(|n| **n == spec.name)
        {
            return Err(format!("slo #{i}: duplicate name {dup:?}"));
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// A multi-threaded query service owning one *serving snapshot* (graph,
/// prestige, keyword index — see [`GraphSnapshot`]) plus an engine registry
/// and result cache.
///
/// Queries are submitted as [`QuerySpec`]s and executed by a pool of worker
/// threads; the returned [`QueryHandle`] streams answers as the engine
/// emits them and supports cooperative cancellation and live statistics.
/// Admission is a bounded **priority scheduler** — shortest expected work
/// first ([`banks_core::QueryCost`]), per-tenant fair share, aging so
/// nothing starves (see [`QuerySpec::tenant`] / [`QuerySpec::priority`]) —
/// repeated queries are served from the shared LRU [`ResultCache`], and
/// per-answer deadlines are deterministic work budgets
/// ([`banks_core::SearchParams::answer_work_budget`]).  The served graph
/// can be replaced online with [`Service::swap_graph`].
///
/// ```
/// use banks_graph::GraphBuilder;
/// use banks_service::{QuerySpec, Service};
///
/// let mut b = GraphBuilder::new();
/// let author = b.add_node("author", "Jim Gray");
/// let paper = b.add_node("paper", "Granularity of locks");
/// let writes = b.add_node("writes", "w0");
/// b.add_edge(writes, author).unwrap();
/// b.add_edge(writes, paper).unwrap();
///
/// let service = Service::builder(b.build_default())
///     .workers(4)
///     .cache_capacity(256)
///     .build();
/// let handle = service.submit(QuerySpec::parse("gray locks")).unwrap();
/// let (outcome, result) = handle.wait();
/// assert_eq!(outcome.answers[0].tree.root, writes);
/// assert!(!result.cache_hit);
/// assert_eq!(result.epoch, service.epoch());
/// ```
pub struct Service {
    pub(crate) inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    /// The metrics collector thread (time-series snapshots, SLO passes,
    /// queue watchdog); joined on shutdown via `collector_stop`.
    collector: Option<JoinHandle<()>>,
    collector_stop: Arc<(Mutex<bool>, Condvar)>,
}

impl Service {
    /// Starts configuring a service over `graph`.
    pub fn builder(graph: DataGraph) -> ServiceBuilder {
        let default_workers = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(2);
        ServiceBuilder {
            graph,
            workers: default_workers,
            queue_capacity: 64,
            cache_capacity: 256,
            cache_min_work: 0,
            shared_cache: None,
            prestige: None,
            index: None,
            registry: None,
            default_engine: "bidirectional".to_string(),
            quota: QuotaSettings::default(),
            persistence: None,
            log_capacity: DEFAULT_LOG_CAPACITY,
            slow_query_threshold: Duration::from_millis(250),
            shards: 1,
            collector_cadence: Duration::from_secs(10),
            slos: None,
            event_log_capacity: 1024,
            watchdog_factor: 8,
        }
    }

    /// Submits a query.  Returns immediately: on a cache hit the handle is
    /// already fully populated (zero engine work), otherwise the query
    /// enters the bounded priority scheduler at its estimated cost
    /// ([`banks_core::QueryCost`], scaled by [`QuerySpec::priority`]) and
    /// waits for a worker.
    pub fn submit(&self, spec: impl Into<QuerySpec>) -> Result<QueryHandle, SubmitError> {
        let t0 = Instant::now();
        let spec = spec.into();
        let inner = &self.inner;
        let engine = spec.engine.unwrap_or_else(|| inner.default_engine.clone());
        if !inner.registry.contains(&engine) {
            return Err(SubmitError::UnknownEngine(inner.registry.unknown(&engine)));
        }
        let tenant = spec.tenant.unwrap_or_default();
        let mut trace = TraceCtx::new(spec.trace, t0);

        let quota_reject = |tenant: String, retry_after: Duration| {
            Counters::bump(&inner.counters.quota_rejected);
            inner
                .waits
                .lock()
                .expect("waits lock")
                .record_quota_rejection(&tenant);
            inner.events.emit(
                EventLevel::Warn,
                "quota-reject",
                format!("tenant {tenant:?} over quota, retry in {retry_after:?}"),
            );
            Err(SubmitError::QuotaExceeded {
                tenant,
                retry_after,
            })
        };
        let cost_weighted = inner
            .quota_settings
            .as_ref()
            .is_some_and(|s| s.work_per_token.is_some());

        // Admission quota, the one-token floor: charged per submission,
        // before any work happens — an over-quota tenant is rejected
        // without keyword normalization, origin-set resolution or a cache
        // probe, whichever charging model is active (the quota throttles
        // the tenant's request *rate* first).  Cost-weighted quotas charge
        // the work-priced remainder further down, once the resolved origin
        // sets make the estimate available.
        if let Some(quota) = &inner.quota {
            let verdict = quota
                .lock()
                .expect("quota lock")
                .try_take(&tenant, Instant::now(), 1.0);
            if let Err(retry_after) = verdict {
                return quota_reject(tenant, retry_after);
            }
        }
        trace.admit_us = trace.elapsed_us();

        // Pin the serving snapshot: everything below — keyword resolution,
        // cache key, execution — consistently uses this version, no matter
        // how many swaps happen while the query waits or runs.  The cache
        // key carries only the epoch: the shard count never affects answer
        // bytes (that is the scatter-gather contract), so sharded and
        // unsharded runs share cache entries.
        let snapshot = self.snapshot();

        // The same single normalization point as the `Banks` facade: the
        // normalized keywords feed both origin-set resolution and the cache
        // key.  Resolution must precede the cache lookup because the
        // resolved origin sets participate in the key (two indexes can give
        // the same keywords different sets); it is cheap next to expansion.
        trace.resolve_start_us = trace.elapsed_us();
        let normalized = spec.query.normalized(snapshot.index().tokenizer());
        let matches =
            KeywordMatches::resolve_normalized(snapshot.graph(), snapshot.index(), &normalized);
        let cache_key = CacheKey::new(
            snapshot.epoch(),
            normalized.keywords().to_vec(),
            &spec.params,
            &engine,
            &matches,
        );
        trace.resolve_end_us = trace.elapsed_us();

        let id = QueryId(inner.next_id.fetch_add(1, Ordering::Relaxed));
        let token = CancelToken::new();
        let state = Arc::new(HandleState::default());
        let (tx, rx) = channel();
        let submitted_at = Instant::now();
        trace.submitted_off_us = trace.elapsed_us();

        if let Some(hit) = inner.cache.get(&cache_key) {
            // Served entirely from the cache: no queue slot, no worker, no
            // engine — the handle is complete before `submit` returns.
            // Cost-weighted quotas charge hits only the one-token floor
            // (already taken up front): the quota still bounds the request
            // rate, but a hit costs the service almost nothing, so it is
            // not billed as engine work.
            Counters::bump(&inner.counters.submitted);
            Counters::bump(&inner.counters.cache_hits);
            Counters::bump(&inner.counters.completed);
            state.publish(hit.stats.clone());
            let mut first_answer = None;
            for answer in &hit.answers {
                let _ = tx.send(QueryEvent::Answer(answer.clone()));
                first_answer.get_or_insert_with(|| submitted_at.elapsed());
                Counters::bump(&inner.counters.answers_delivered);
            }
            let total_us = trace.elapsed_us();
            let slow = Duration::from_micros(total_us) >= inner.slow_threshold;
            let retained = (trace.requested.is_some() || slow).then(|| {
                Arc::new(build_trace(
                    &trace,
                    id,
                    &engine,
                    &tenant,
                    cache_key.epoch,
                    true,
                    slow,
                    total_us,
                    None,
                    None,
                    first_answer,
                    &hit.stats,
                    None,
                ))
            });
            if slow {
                Counters::bump(&inner.counters.slow_queries);
            }
            if let Some(t) = &retained {
                inner.traces.push(Arc::clone(t));
            }
            let _ = tx.send(QueryEvent::Finished(QueryResult {
                stats: hit.stats.clone(),
                cache_hit: true,
                time_to_first_answer: first_answer,
                queue_wait: std::time::Duration::ZERO,
                epoch: cache_key.epoch,
                trace: trace.requested.is_some().then_some(retained).flatten(),
            }));
            return Ok(QueryHandle {
                id,
                token,
                events: rx,
                state,
            });
        }

        // Shortest-expected-work-first: the scheduler charges the a priori
        // estimate, scaled by the submission's priority class.  The static
        // model is blended with the online calibration table — the EMA of
        // measured/estimated `nodes_explored` for this (engine,
        // origin-size) cell — so systematic over- or under-estimation
        // corrects itself as queries complete.
        let mut cost = QueryCost::estimate(&matches, &spec.params, &engine);
        cost.estimated_work =
            inner
                .calibration
                .corrected(&engine, cost.origin_nodes as usize, cost.estimated_work);
        let charged = spec.priority.charge(cost.estimated_work);

        // Cost-weighted quota, the remainder beyond the up-front floor:
        // the same a priori estimate prices the admission — an expensive
        // trawl drains the tenant's bucket as fast as many cheap lookups
        // would (the total charge, floor included, is clamped to the
        // bucket's burst).
        if cost_weighted {
            if let Some(quota) = &inner.quota {
                let tokens = inner
                    .quota_settings
                    .as_ref()
                    .expect("settings exist when quota does")
                    .charge_for(cost.estimated_work);
                let verdict = quota.lock().expect("quota lock").try_take_remainder(
                    &tenant,
                    Instant::now(),
                    tokens,
                );
                if let Err(retry_after) = verdict {
                    return quota_reject(tenant, retry_after);
                }
            }
        }

        trace.enqueued_us = trace.elapsed_us();
        let job = Job {
            id,
            snapshot,
            matches,
            cache_key,
            spec_params: spec.params,
            engine,
            tenant: tenant.clone(),
            token: token.clone(),
            events: tx,
            state: Arc::clone(&state),
            submitted_at,
            cost,
            trace,
        };
        {
            let mut queue = inner.queue.lock().expect("queue lock");
            if queue.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if queue.jobs.len() >= inner.queue_capacity {
                Counters::bump(&inner.counters.rejected);
                inner.events.emit(
                    EventLevel::Warn,
                    "admission-reject",
                    format!(
                        "queue full ({} waiting), rejected a {} submission",
                        inner.queue_capacity,
                        if tenant.is_empty() {
                            "anonymous".to_string()
                        } else {
                            format!("tenant {tenant:?}")
                        }
                    ),
                );
                return Err(SubmitError::QueueFull {
                    capacity: inner.queue_capacity,
                });
            }
            queue.jobs.push(&tenant, charged, job);
            Counters::bump(&inner.counters.submitted);
        }
        inner.work_available.notify_one();
        Ok(QueryHandle {
            id,
            token,
            events: rx,
            state,
        })
    }

    /// The service's durability state: whether persistence is on, the last
    /// checkpoint epoch, WAL size, and the most recent persistence error
    /// (if any).  All-zero with `enabled == false` when the service was
    /// built without a data directory.
    pub fn durability(&self) -> DurabilityStatus {
        match &self.inner.persistence {
            Some(persistence) => persistence.lock().status(),
            None => DurabilityStatus::default(),
        }
    }

    /// Declares this service's replication role (default
    /// [`ReplicationRole::Standalone`]).  The role is descriptive state —
    /// it feeds [`ReplicationStatus::role`], the `replication_lag_ms`
    /// series (followers only) and the front-end's mutation-rejection
    /// policy — it does not itself start or stop any replication thread.
    pub fn set_replication_role(&self, role: ReplicationRole) {
        self.inner
            .replication
            .lock()
            .expect("replication lock")
            .set_role(role);
    }

    /// This service's replication role and follower progress, as of now.
    pub fn replication_status(&self) -> ReplicationStatus {
        self.inner
            .replication
            .lock()
            .expect("replication lock")
            .status(unix_ms())
    }

    /// Records a leader head announcement: the leader's newest epoch and
    /// how many WAL records lie beyond this follower's applied position.
    /// The follower's stream client calls this on every head/keepalive
    /// event so [`ReplicationStatus::lag_ms`] measures real staleness
    /// even while no records arrive.
    pub fn note_replication_head(&self, leader_epoch: u64, lag_records: u64) {
        self.inner
            .replication
            .lock()
            .expect("replication lock")
            .note_head(leader_epoch, lag_records, unix_ms());
    }

    /// WAL records with `epoch > from_epoch`, in log order — the payload
    /// of the leader's `GET /replication/stream`.  Served from the
    /// committed tail the persistence state keeps in memory (the exact
    /// bytes of every record since the last checkpoint), under the
    /// persistence lock, so the returned prefix is consistent with
    /// concurrent appends; the WAL file is not read.
    /// [`PersistError::Disabled`] when the service has no data directory
    /// (nothing to stream).
    ///
    /// An empty result does **not** distinguish "caught up" from
    /// "truncated past you": compare `from_epoch` against
    /// [`DurabilityStatus::last_checkpoint_epoch`] — a `from_epoch` below
    /// the last checkpoint epoch is behind the truncation horizon and the
    /// follower must re-bootstrap.
    pub fn replication_records_after(
        &self,
        from_epoch: u64,
    ) -> Result<Vec<CommittedRecord>, PersistError> {
        let Some(persistence) = &self.inner.persistence else {
            return Err(PersistError::Disabled);
        };
        Ok(persistence.lock().records_after(from_epoch))
    }

    /// Epoch and path of the newest on-disk snapshot — what
    /// `GET /replication/snapshot` streams to a bootstrapping follower.
    /// `Ok(None)` when no snapshot exists yet;
    /// [`PersistError::Disabled`] without persistence.
    pub fn newest_snapshot_file(&self) -> Result<Option<(u64, PathBuf)>, PersistError> {
        let Some(persistence) = &self.inner.persistence else {
            return Err(PersistError::Disabled);
        };
        let persistence = persistence.lock();
        Ok(list_snapshots(persistence.dir())?.into_iter().next())
    }

    /// Replaces the full SLO spec set at runtime (the online equivalent of
    /// [`ServiceBuilder::slos`]).  All burn-rate states reset to `Ok`; the
    /// next collector tick judges the new set.
    pub fn replace_slos(&self, specs: Vec<SloSpec>) {
        self.inner.slo.replace_specs(specs);
    }

    /// Adds one SLO spec, replacing any existing spec of the same name
    /// (the `POST /admin/slo` path).  Other specs keep their burn-rate
    /// history.
    pub fn upsert_slo(&self, spec: SloSpec) {
        self.inner.slo.upsert_spec(spec);
    }

    /// The currently configured SLO specs.
    pub fn slo_specs(&self) -> Vec<SloSpec> {
        self.inner.slo.specs()
    }

    /// A point-in-time snapshot of the aggregate counters, queue-wait
    /// percentiles, per-tenant scheduling outcomes, durability state and
    /// mutation-log occupancy.
    pub fn metrics(&self) -> ServiceMetrics {
        let queued = self.inner.queue.lock().expect("queue lock").jobs.len();
        let epoch = self.epoch();
        let mut metrics = {
            let waits = self.inner.waits.lock().expect("waits lock");
            ServiceMetrics::snapshot(
                &self.inner.counters,
                &waits,
                queued,
                epoch,
                self.inner.quota_settings.as_ref(),
            )
        };
        {
            let log = self.inner.mutation_log.lock().expect("mutation log lock");
            metrics.mutation_log_entries = log.len() as u64;
            metrics.mutation_log_dropped = log.dropped();
        }
        let durability = self.durability();
        metrics.persistence_enabled = durability.enabled;
        metrics.last_checkpoint_epoch = durability.last_checkpoint_epoch;
        metrics.wal_records = durability.wal_records;
        metrics.wal_bytes = durability.wal_bytes;
        metrics.checkpoints = durability.checkpoints;
        metrics.checkpoint_latency = durability.checkpoint_latency;
        metrics.wal_fsync = durability.wal_fsync;
        metrics.ttfa = self.inner.ttfa_hist.summary();
        metrics.mutation_apply = self.inner.mutation_apply_hist.summary();
        metrics.calibration = self.inner.calibration.rows();
        metrics.shards = self.inner.shards as u64;
        metrics.shard_stats = self.inner.shard_stats();
        {
            let report = self.inner.slo_report.lock().expect("slo report lock");
            metrics.health = report.health;
            metrics.slo = report.rows.clone();
        }
        metrics.trace_ring_dropped = self.inner.traces.dropped();
        metrics.event_log_dropped = self.inner.events.dropped();
        metrics.event_log_last_id = self.inner.events.last_id();
        metrics.queue_saturation = queued as f64 / self.inner.queue_capacity.max(1) as f64;
        metrics.replication = self.replication_status();
        metrics
    }

    /// The service's current three-state health — the worst SLO verdict of
    /// the latest collector pass (`ok` until the first pass completes).
    pub fn health(&self) -> Health {
        self.inner
            .slo_report
            .lock()
            .expect("slo report lock")
            .health
    }

    /// The latest SLO evaluation: overall health plus one row per spec
    /// (latest value, fast/slow burn rates, hysteretic state).  Point in
    /// time as of the last collector tick.
    pub fn slo_report(&self) -> SloReport {
        self.inner
            .slo_report
            .lock()
            .expect("slo report lock")
            .clone()
    }

    /// The structured operational event log (see
    /// [`banks_obs::EventLog`]) — page it with
    /// [`EventLog::since`](banks_obs::EventLog::since).
    pub fn events(&self) -> &EventLog {
        &self.inner.events
    }

    /// The retained metric time series the collector thread writes
    /// ([`ServiceBuilder::collector_cadence`] sets the tick).
    pub fn time_series(&self) -> &TimeSeriesRing {
        &self.inner.series
    }

    /// The configured collector cadence.
    pub fn collector_cadence(&self) -> Duration {
        self.inner.collector_cadence
    }

    /// The retained phase trace for query `id`, if it is still in the
    /// bounded trace ring (explicitly traced and slow queries are
    /// retained; capacity 256, oldest evicted first).
    pub fn trace(&self, id: QueryId) -> Option<Arc<QueryTrace>> {
        self.inner.traces.get(id.0)
    }

    /// The most recently retained **slow** query traces (end-to-end
    /// latency over [`ServiceBuilder::slow_query_threshold`]), newest
    /// first, capped at `limit`.
    pub fn slow_traces(&self, limit: usize) -> Vec<Arc<QueryTrace>> {
        self.inner.traces.recent(limit, true)
    }

    /// The most recently retained traces of any kind (explicitly traced
    /// and slow), newest first, capped at `limit`.
    pub fn recent_traces(&self, limit: usize) -> Vec<Arc<QueryTrace>> {
        self.inner.traces.recent(limit, false)
    }

    /// The configured slow-query threshold.
    pub fn slow_query_threshold(&self) -> Duration {
        self.inner.slow_threshold
    }

    /// The shared result cache (hit/miss counters included).
    pub fn cache(&self) -> &Arc<ResultCache> {
        &self.inner.cache
    }

    /// The snapshot currently being served: new submissions are pinned to
    /// it.  The returned `Arc` stays valid across swaps (it simply stops
    /// being current).
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        Arc::clone(&self.inner.serving.lock().expect("serving lock"))
    }

    /// Configured shard count (1 = unsharded).
    pub fn shards(&self) -> usize {
        self.inner.shards
    }

    /// The epoch of the graph currently being served (the cache-key
    /// component).
    pub fn epoch(&self) -> u64 {
        self.inner.serving.lock().expect("serving lock").epoch()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Engine names this service can run.
    pub fn engine_names(&self) -> Vec<&'static str> {
        self.inner.registry.names()
    }

    /// Blocks until the service is *quiescent*: the admission queue is
    /// empty and no worker is mid-query.  The drain hook for graceful
    /// shutdown of a front-end — stop accepting requests, `drain()`, then
    /// drop the service.
    ///
    /// Quiescence is a point-in-time property: a query submitted after
    /// `drain` returns starts the clock again.  A query whose handle is
    /// blocked on a slow consumer still counts as executing until the
    /// worker finishes it.
    pub fn drain(&self) {
        let mut queue = self.inner.queue.lock().expect("queue lock");
        while !queue.jobs.is_empty() || queue.executing > 0 {
            queue = self.inner.idle.wait(queue).expect("queue lock");
        }
    }

    /// Stops accepting new queries, drains the admission queue and joins
    /// the workers.  Equivalent to dropping the service, but explicit.
    pub fn shutdown(self) {}

    fn begin_shutdown(&mut self) {
        {
            let mut queue = self.inner.queue.lock().expect("queue lock");
            queue.shutdown = true;
        }
        self.inner.work_available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        {
            let (flag, signal) = &*self.collector_stop;
            *flag.lock().expect("collector stop lock") = true;
            signal.notify_all();
        }
        if let Some(collector) = self.collector.take() {
            let _ = collector.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.begin_shutdown();
    }
}

/// Decrements [`QueueState::executing`] when dropped — including on an
/// unwind out of `execute` — so a panicking engine cannot leave the count
/// permanently raised and wedge [`Service::drain`] forever.
struct ExecutingGuard<'a> {
    inner: &'a Inner,
}

impl Drop for ExecutingGuard<'_> {
    fn drop(&mut self) {
        let mut queue = self.inner.queue.lock().expect("queue lock");
        queue.executing -= 1;
        if queue.executing == 0 && queue.jobs.is_empty() {
            self.inner.idle.notify_all();
        }
    }
}

/// Worker thread body: pop jobs (priority order) until shutdown, then drain
/// and exit.
fn worker_loop(inner: Arc<Inner>) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.jobs.pop() {
                    queue.executing += 1;
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = inner.work_available.wait(queue).expect("queue lock");
            }
        };
        let guard = ExecutingGuard { inner: &inner };
        let queue_wait = job.submitted_at.elapsed();
        inner
            .waits
            .lock()
            .expect("waits lock")
            .record(&job.tenant, queue_wait);
        execute(&inner, job, queue_wait);
        drop(guard);
    }
}

/// Runs one query to completion (or cancellation) on the calling worker,
/// against the snapshot the job was pinned to at admission.
fn execute(inner: &Inner, job: Job, queue_wait: std::time::Duration) {
    Counters::bump(&inner.counters.executed);
    let pickup_us = job.trace.elapsed_us();
    let snapshot = &job.snapshot;
    // Per-shard busy-time accumulators, attached only when the service is
    // actually sharded — the K = 1 path allocates and samples nothing.
    let shard_times = (inner.shards > 1).then(|| ShardTimes::new(inner.shards));
    let mut ctx = QueryContext::new(
        snapshot.graph(),
        snapshot.prestige(),
        &job.matches,
        job.spec_params,
    )
    .with_cancel(&job.token)
    .with_shards(inner.shards);
    if let Some(times) = &shard_times {
        ctx = ctx.with_shard_times(times);
    }
    if let Some(counters) = job.trace.counters.as_deref() {
        ctx = ctx.with_observer(counters);
    }
    let engine = inner
        .registry
        .create(&job.engine)
        .expect("engine validated at submit time");
    let mut stream = engine.start(ctx);

    let mut answers = Vec::new();
    let mut first_answer = None;
    let mut receiver_gone = false;
    #[allow(clippy::while_let_on_iterator)] // stats() borrows between polls
    while let Some(answer) = stream.next() {
        first_answer.get_or_insert_with(|| job.submitted_at.elapsed());
        job.state.publish(stream.stats());
        if !receiver_gone {
            if job.events.send(QueryEvent::Answer(answer.clone())).is_err() {
                // The handle is gone: nobody will read further answers.
                // Cancel cooperatively so the engine stops within one step.
                receiver_gone = true;
                job.token.cancel();
            } else {
                Counters::bump(&inner.counters.answers_delivered);
            }
        }
        answers.push(answer);
    }
    let expand_end_us = job.trace.elapsed_us();

    let stats = stream.stats();
    job.state.publish(stats.clone());
    Counters::bump(&inner.counters.completed);
    if stats.cancelled {
        Counters::bump(&inner.counters.cancelled);
    }
    if stats.truncated {
        Counters::bump(&inner.counters.truncated);
    }
    Counters::add(&inner.counters.nodes_explored, stats.nodes_explored as u64);
    if let Some(ttfa) = first_answer {
        inner.ttfa_hist.record(ttfa);
    }
    // Calibration feedback: a completed (even truncated) run measures what
    // the estimate predicted; a cancelled one measures only where the
    // abort happened to land, so it is not a sample.
    if !stats.cancelled {
        inner.calibration.record(
            &job.engine,
            job.cost.origin_nodes as usize,
            job.cost.estimated_work,
            stats.nodes_explored as u64,
        );
        // Watchdog: a query that blew far past its a priori work estimate
        // is either a bad estimate or a pathological input — flag it.
        let measured = stats.nodes_explored as u64;
        if job.cost.estimated_work > 0
            && measured
                >= inner
                    .watchdog_factor
                    .saturating_mul(job.cost.estimated_work)
        {
            Counters::bump(&inner.counters.watchdog_overruns);
            inner.events.emit(
                EventLevel::Warn,
                "watchdog-overrun",
                format!(
                    "query {} explored {} nodes, >= {}x its estimate of {}",
                    job.id.0, measured, inner.watchdog_factor, job.cost.estimated_work
                ),
            );
        }
    }

    // Only completed searches are cached: a cancelled run's answer set is
    // whatever happened to be emitted before the abort, not a reproducible
    // result.  (Work-budget truncation, by contrast, is deterministic and
    // safe to cache.)  The key carries the job's pinned epoch, so a result
    // computed on a superseded snapshot can never serve post-swap queries —
    // and in a *private* cache such an entry could never be hit at all
    // (swap already evicted its epoch; all future lookups use newer ones),
    // so storing it would only waste a slot: skip it.  The epoch check and
    // the insert happen under the serving lock so a concurrent swap cannot
    // slip between them and evict before we insert; the swap
    // (`Service::serve`) takes the same lock first and evicts after
    // releasing it, so the lock order (serving → cache) is acyclic.
    // Shared caches always take the insert — another service may be
    // serving that epoch.
    if !stats.cancelled {
        let serving = inner.serving.lock().expect("serving lock");
        if !inner.cache_private || job.cache_key.epoch == serving.epoch() {
            inner.cache.insert(
                job.cache_key.clone(),
                Arc::new(SearchOutcome {
                    answers,
                    stats: stats.clone(),
                }),
            );
        }
    }
    let total_us = job.trace.elapsed_us();
    let slow = Duration::from_micros(total_us) >= inner.slow_threshold;
    let retained = (job.trace.requested.is_some() || slow).then(|| {
        Arc::new(build_trace(
            &job.trace,
            job.id,
            &job.engine,
            &job.tenant,
            job.cache_key.epoch,
            false,
            slow,
            total_us,
            Some(pickup_us),
            Some(expand_end_us),
            first_answer,
            &stats,
            shard_times.as_ref(),
        ))
    });
    if let Some(trace) = &retained {
        if slow {
            Counters::bump(&inner.counters.slow_queries);
        }
        inner.traces.push(Arc::clone(trace));
    }
    let _ = job.events.send(QueryEvent::Finished(QueryResult {
        stats,
        cache_hit: false,
        time_to_first_answer: first_answer,
        queue_wait,
        epoch: job.cache_key.epoch,
        trace: job.trace.requested.is_some().then_some(retained).flatten(),
    }));
}

/// Cross-tick state the collector carries: previous cumulative counter and
/// histogram-bucket values (differenced into per-tick rates and windowed
/// percentiles) plus the queue-saturation hysteresis flag.
struct CollectorState {
    prev_submitted: u64,
    prev_rejected: u64,
    prev_quota_rejected: u64,
    prev_ttfa: [u64; HISTOGRAM_BUCKETS],
    prev_wait: [u64; HISTOGRAM_BUCKETS],
    saturated: bool,
}

impl Default for CollectorState {
    fn default() -> Self {
        CollectorState {
            prev_submitted: 0,
            prev_rejected: 0,
            prev_quota_rejected: 0,
            prev_ttfa: [0; HISTOGRAM_BUCKETS],
            prev_wait: [0; HISTOGRAM_BUCKETS],
            saturated: false,
        }
    }
}

/// Collector thread body: on every cadence tick, snapshot the service's
/// counters, gauges and windowed latency percentiles into the time-series
/// ring, run the SLO burn-rate evaluation over it, publish the report, and
/// emit alert-fire / alert-resolve / queue-saturation events.  Exits when
/// the stop flag is raised (signalled through the paired condvar).
fn collector_loop(inner: Arc<Inner>, stop: Arc<(Mutex<bool>, Condvar)>, cadence: Duration) {
    let (flag, signal) = &*stop;
    let mut state = CollectorState::default();
    // First tick up front: the report and the ring are populated right
    // after boot instead of one full cadence in (which, at the production
    // default of 10 s, would leave /debug/slo empty against every early
    // probe).
    collector_tick(&inner, &mut state, unix_ms());
    loop {
        {
            let stopped = flag.lock().expect("collector stop lock");
            let (stopped, _) = signal
                .wait_timeout(stopped, cadence)
                .expect("collector stop lock");
            if *stopped {
                return;
            }
        }
        collector_tick(&inner, &mut state, unix_ms());
    }
}

/// One collector pass at `now_ms`: record a tick and judge the SLOs.
/// Split from [`collector_loop`] so the pass itself has no sleeping and a
/// deterministic time base.
fn collector_tick(inner: &Inner, state: &mut CollectorState, now_ms: u64) {
    let c = &inner.counters;
    let submitted = c.submitted.load(Ordering::Relaxed);
    let rejected = c.rejected.load(Ordering::Relaxed);
    let quota_rejected = c.quota_rejected.load(Ordering::Relaxed);

    // Per-tick error ratio: this tick's rejections over this tick's
    // submission attempts (accepted + rejected), NaN when there were none —
    // a cumulative ratio would never recover from a burst of rejects.
    let d_accepted = submitted.saturating_sub(state.prev_submitted);
    let d_rejected = rejected.saturating_sub(state.prev_rejected)
        + quota_rejected.saturating_sub(state.prev_quota_rejected);
    let attempts = d_accepted + d_rejected;
    let error_ratio = if attempts == 0 {
        f64::NAN
    } else {
        d_rejected as f64 / attempts as f64
    };

    // Windowed percentiles from histogram-bucket deltas: the latency of
    // *this tick's* samples only, NaN on idle ticks.  Unlike the cumulative
    // summaries, these decay once a regression ends — which is what lets a
    // fired SLO alert resolve.
    let ttfa_now = inner.ttfa_hist.bucket_counts();
    let ttfa_delta: [u64; HISTOGRAM_BUCKETS] =
        std::array::from_fn(|i| ttfa_now[i].saturating_sub(state.prev_ttfa[i]));
    let wait_now = inner.waits.lock().expect("waits lock").bucket_counts();
    let wait_delta: [u64; HISTOGRAM_BUCKETS] =
        std::array::from_fn(|i| wait_now[i].saturating_sub(state.prev_wait[i]));
    let pct = |delta: &[u64; HISTOGRAM_BUCKETS], p: f64| -> f64 {
        Histogram::percentile_of(delta, p)
            .map(|d| d.as_micros().min(u64::MAX as u128) as f64)
            .unwrap_or(f64::NAN)
    };

    let queued = inner.queue.lock().expect("queue lock").jobs.len();
    let saturation = queued as f64 / inner.queue_capacity.max(1) as f64;

    // Replication lag is a follower-only signal: standalone services and
    // leaders record NaN (no sample) so a `replication_lag` SLO judges
    // only actual followers.
    let replication_lag_ms = {
        let replication = inner.replication.lock().expect("replication lock");
        if replication.role() == ReplicationRole::Follower {
            replication.status(now_ms).lag_ms as f64
        } else {
            f64::NAN
        }
    };

    let shard_stats = inner.shard_stats();
    let imbalance = if shard_stats.len() <= 1 {
        1.0
    } else {
        let max = shard_stats.iter().map(|s| s.owned_nodes).max().unwrap_or(0) as f64;
        let mean = shard_stats.iter().map(|s| s.owned_nodes).sum::<usize>() as f64
            / shard_stats.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    };

    // Values in timeseries_schema() order.
    inner.series.record(
        now_ms,
        &[
            submitted as f64,
            c.executed.load(Ordering::Relaxed) as f64,
            c.completed.load(Ordering::Relaxed) as f64,
            rejected as f64,
            quota_rejected as f64,
            c.cancelled.load(Ordering::Relaxed) as f64,
            c.cache_hits.load(Ordering::Relaxed) as f64,
            c.answers_delivered.load(Ordering::Relaxed) as f64,
            c.slow_queries.load(Ordering::Relaxed) as f64,
            queued as f64,
            error_ratio,
            pct(&ttfa_delta, 0.50),
            pct(&ttfa_delta, 0.90),
            pct(&ttfa_delta, 0.99),
            pct(&wait_delta, 0.50),
            pct(&wait_delta, 0.90),
            imbalance,
            saturation,
            replication_lag_ms,
        ],
    );

    let (report, transitions) = inner.slo.evaluate(&inner.series, now_ms);
    for t in &transitions {
        if t.to == Health::Ok {
            inner.events.emit(
                EventLevel::Info,
                "alert-resolve",
                format!("slo {} recovered ({} -> ok)", t.slo, t.from.as_str()),
            );
        } else {
            inner.events.emit(
                EventLevel::Warn,
                "alert-fire",
                format!(
                    "slo {} is {} ({} -> {})",
                    t.slo,
                    t.to.as_str(),
                    t.from.as_str(),
                    t.to.as_str()
                ),
            );
        }
    }
    *inner.slo_report.lock().expect("slo report lock") = report;

    // Queue-saturation watchdog with hysteresis: trip crossing 80%
    // occupancy, clear only once it falls back under 50%.
    if !state.saturated && saturation >= QUEUE_SATURATION_TRIP {
        state.saturated = true;
        Counters::bump(&c.watchdog_queue_trips);
        inner.events.emit(
            EventLevel::Warn,
            "watchdog-queue",
            format!(
                "admission queue saturated: {queued}/{} slots occupied",
                inner.queue_capacity
            ),
        );
    } else if state.saturated && saturation < QUEUE_SATURATION_CLEAR {
        state.saturated = false;
        inner.events.emit(
            EventLevel::Info,
            "watchdog-queue",
            format!(
                "admission queue drained back under {}%",
                (QUEUE_SATURATION_CLEAR * 100.0) as u64
            ),
        );
    }

    state.prev_submitted = submitted;
    state.prev_rejected = rejected;
    state.prev_quota_rejected = quota_rejected;
    state.prev_ttfa = ttfa_now;
    state.prev_wait = wait_now;
}
