//! The write path: every call that changes what the service serves or
//! what it keeps on disk.
//!
//! | entry point | step | epoch |
//! |---|---|---|
//! | [`Service::apply_mutations`], [`Service::apply_mutations_with`] | batch | minted |
//! | [`Service::apply_replicated`] | batch | adopted from the leader's WAL record |
//! | [`Service::swap_graph`], [`Service::swap_snapshot`] | install | minted |
//! | [`Service::install_replicated_snapshot`] | install | adopted from the leader's snapshot |
//! | [`Service::checkpoint`] | install, no snapshot | unchanged |
//!
//! * **The batch step** runs `apply_batch`, compaction, the epoch rule,
//!   the WAL-first append, the swap, counters, the mutation log, the
//!   `mutation` trace, the `mutation-batch` event and the checkpoint
//!   trigger.
//! * **The install step** swaps in a snapshot, wipes the local snapshots
//!   for a follower bootstrap, and checkpoints.
//!
//! Both steps hold the admin lock (`Inner::mutate`) throughout, so no two
//! writes interleave.  Lock order: admin → persistence → serving, never
//! the reverse.  The serving snapshot changes in one place
//! (`Service::serve`), and the replication stream is woken in one place
//! (`Service::wake`): once per public call, at its end, after the
//! caller's continuation.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use banks_graph::{AppliedBatch, BatchOutcome, DataGraph, MutationBatch};
use banks_obs::{EventLevel, QueryTrace};
use banks_persist::{chain_step, ChainStep, PersistError, WalRecord};

use crate::metrics::Counters;
use crate::persistence::{Durable, Persistence};
use crate::replication::{ReplicatedApply, ReplicationApplyError};
use crate::service::{unix_ms, Service};
use crate::snapshot::GraphSnapshot;

/// Overlay fraction beyond which a successor graph is flattened before it
/// swaps in.  Leader and follower compact on the same schedule.
const COMPACT_OVERLAY_RATIO: f64 = 0.25;

/// What [`Service::apply_mutations`] did: the epoch transition plus the
/// per-op [`BatchOutcome`].
#[derive(Clone, Debug)]
pub struct MutationReport {
    /// The serving epoch after the call (unchanged when nothing was
    /// accepted).
    pub epoch: u64,
    /// The serving epoch the batch was applied against.
    pub previous_epoch: u64,
    /// Whether a successor snapshot was actually swapped in (false when
    /// every op was rejected, or when the WAL append failed).
    pub swapped: bool,
    /// Per-op accept/reject results and the derived-structure deltas.
    pub outcome: BatchOutcome,
    /// Why the batch could not be made durable, when persistence is
    /// enabled and the WAL append failed.  The batch was **not** applied:
    /// the serving snapshot, the epoch and the disk state are all
    /// unchanged, so the caller can retry safely.
    pub persist_error: Option<String>,
    /// Phase trace of the apply itself — delta build, WAL append (with
    /// the fsync this append triggered, if any), snapshot swap, and the
    /// checkpoint the mutation triggered.  `None` when nothing was
    /// applied.  The same trace is retained in the service's trace ring
    /// under `engine == "mutation"`.
    pub trace: Option<Arc<QueryTrace>>,
}

/// Where a committed batch's epoch comes from.
#[derive(Clone, Copy, Debug)]
enum EpochRule {
    /// A fresh process-wide epoch, drawn by `apply_batch`: a leader's or
    /// a standalone service's own write.
    Mint,
    /// The leader's `parent_epoch -> epoch`, adopted verbatim: a follower
    /// applying a leader WAL record.
    Adopt { parent_epoch: u64, epoch: u64 },
}

/// What the install step installs.
enum Install {
    /// A wholesale swap.  It serves under a freshly minted epoch, whatever
    /// epoch the snapshot carried.
    Swap(GraphSnapshot),
    /// A follower bootstrap: keeps the leader's epoch, swaps only if that
    /// epoch is not already served, and wipes the local snapshots before
    /// checkpointing.
    Bootstrap(GraphSnapshot),
    /// Nothing: checkpoint the served version.
    Checkpoint,
}

impl Service {
    /// Atomically replaces the served graph with a new version, deriving
    /// the default prestige vector and label index for it (use
    /// [`Service::swap_snapshot`] to supply precomputed ones).  Returns the
    /// new serving epoch.
    ///
    /// The swap is the whole online-reindexing story:
    ///
    /// * **in-flight queries** — running *or still queued* — finish on the
    ///   snapshot they were admitted under, which stays alive until its
    ///   last query drops it;
    /// * **new admissions** resolve, execute and cache against the new
    ///   version;
    /// * **the result cache** needs no flush: keys carry the epoch, so old
    ///   entries can never serve the new graph.  If this service owns its
    ///   cache (no [`crate::ServiceBuilder::shared_cache`]), the superseded
    ///   epoch's entries are evicted eagerly to reclaim capacity.
    ///
    /// A swap always serves under a freshly minted epoch, whatever epoch
    /// the graph carried.  Swapping in a clone of the currently-served
    /// graph therefore still produces a distinct epoch (and a cold cache):
    /// the contract is "admissions after the swap run on the swapped-in
    /// version", not "...unless the bytes look the same".  And a graph
    /// built long ago cannot go back in time: its checkpoint is the newest
    /// snapshot on disk, which is the one recovery loads.
    pub fn swap_graph(&self, graph: DataGraph) -> u64 {
        // Derivations run *before* the admin lock is taken: queries and
        // mutations keep flowing against the old version while prestige
        // and the index for the new one are computed.
        self.swap_snapshot(GraphSnapshot::with_defaults(graph))
    }

    /// [`Service::swap_graph`] with caller-supplied prestige and index (the
    /// online equivalent of [`crate::ServiceBuilder::prestige`] /
    /// [`crate::ServiceBuilder::index`]).  Returns the new serving epoch.
    ///
    /// A swap is serialized with mutation batches: it waits for a batch in
    /// progress, and the next batch applies to the swapped-in version.  A
    /// wholesale swap bypasses the mutation WAL — there is no batch to
    /// log — so with persistence enabled the swap is made durable by an
    /// immediate checkpoint of the new version.  A checkpoint failure does
    /// not undo the swap (queries are already running on the new graph);
    /// it is recorded and surfaced via [`Service::durability`].
    pub fn swap_snapshot(&self, snapshot: GraphSnapshot) -> u64 {
        let (epoch, _) = self.commit_install(Install::Swap(snapshot));
        self.wake();
        epoch
    }

    /// Applies a [`MutationBatch`] to the currently-served snapshot and
    /// swaps the successor in, returning the per-op outcome and the new
    /// serving epoch.
    ///
    /// This is the incremental counterpart of [`Service::swap_graph`],
    /// sharing all of its machinery and guarantees — pinned snapshots,
    /// epoch-keyed caches, eager eviction for private caches — while
    /// building the new version as a **delta** instead of a rebuild:
    ///
    /// * the successor snapshot (graph + index + prestige) is derived
    ///   *outside the serving lock* via [`GraphSnapshot::apply_batch`], so
    ///   queries keep flowing on the old version throughout;
    /// * queued and in-flight queries finish on the snapshot they pinned
    ///   at admission; new admissions see the new epoch;
    /// * the epoch-keyed result cache stays correct for free (a private
    ///   cache additionally evicts the superseded epoch eagerly);
    /// * a batch in which **no** op was accepted swaps nothing — the
    ///   epoch, the cache and the serving snapshot are untouched, and the
    ///   report says so (`swapped == false`).
    ///
    /// Every write — batches, swaps, checkpoints, replicated records — is
    /// serialized under one admin lock, so each batch builds on the
    /// version the previous write left.
    ///
    /// Long mutation chains do not degrade the serving graph: once more
    /// than a quarter of the nodes carry copy-on-write overlay rows, the
    /// successor is compacted back into flat CSR storage before the swap
    /// (same contents, same epoch — invisible to queries and caches).
    ///
    /// With persistence enabled ([`crate::ServiceBuilder::persistence`])
    /// the write path is **WAL-first**: the accepted batch is appended to
    /// the log (and fsynced per policy) *before* the successor snapshot
    /// swaps in.  If the append fails, nothing swaps — the report carries
    /// [`MutationReport::persist_error`] and the serving state is
    /// unchanged, so acknowledged mutations are exactly the durable ones.
    /// A swap that triggered compaction, or a WAL past its rotation
    /// threshold, checkpoints immediately afterwards (snapshot + WAL
    /// truncation), off the freshly-swapped snapshot.
    ///
    /// A committed batch wakes the replication stream
    /// ([`Service::wait_for_commit`]) when this call returns; use
    /// [`Service::apply_mutations_with`] to act before that wake.
    pub fn apply_mutations(&self, batch: &MutationBatch) -> MutationReport {
        self.apply_mutations_with(batch, |_| {})
    }

    /// [`Service::apply_mutations`] with an *on committed* continuation:
    /// `on_committed` runs once the batch's outcome is final (committed,
    /// rejected, or refused by a failed WAL append), after every service
    /// lock is released and **before** a committed batch wakes the
    /// replication stream.  The HTTP `POST /admin/mutate` route writes its
    /// acknowledgement here: on a small host a woken co-located follower
    /// would otherwise preempt the ack and the writer would pay for the
    /// replica's apply.
    pub fn apply_mutations_with(
        &self,
        batch: &MutationBatch,
        on_committed: impl FnOnce(&MutationReport),
    ) -> MutationReport {
        let report = match self.commit_batch(batch, EpochRule::Mint) {
            Ok(report) => report,
            Err(_) => unreachable!("only an adopted epoch can fail to chain"),
        };
        on_committed(&report);
        if report.swapped {
            self.wake();
        }
        report
    }

    /// Applies one leader WAL record on a follower, through the same batch
    /// step as [`Service::apply_mutations`]: the record is appended to the
    /// **local** WAL (with the leader's epochs) before the successor swaps
    /// in, so a follower killed mid-stream recovers to a prefix of the
    /// leader's history on restart, and the apply records the same
    /// `mutation` trace and `mutation-batch` event as the leader's.
    ///
    /// The record's epochs are authoritative: the successor serves at
    /// exactly `record.epoch`, which is what makes a shared epoch on
    /// leader and follower name the same graph version byte-for-byte.
    ///
    /// Records are judged by [`banks_persist::chain_step`], the rule boot
    /// replay uses too.  Records at or behind the serving epoch are
    /// skipped (a resumed stream replays the tail; the apply is
    /// idempotent).  A record whose `parent_epoch` does not match the
    /// serving epoch returns [`ReplicationApplyError::EpochGap`] — the
    /// follower fell behind the leader's WAL truncation horizon and must
    /// re-bootstrap from a leader snapshot
    /// ([`Service::install_replicated_snapshot`]).
    pub fn apply_replicated(
        &self,
        record: &WalRecord,
    ) -> Result<ReplicatedApply, ReplicationApplyError> {
        let rule = EpochRule::Adopt {
            parent_epoch: record.parent_epoch,
            epoch: record.epoch,
        };
        let report = self.commit_batch(&record.batch, rule)?;
        if let Some(e) = report.persist_error {
            return Err(ReplicationApplyError::Persist(e));
        }
        debug_assert!(!report.swapped || report.epoch == record.epoch);
        self.note_applied(report.epoch);
        if report.swapped {
            self.wake();
        }
        Ok(ReplicatedApply {
            epoch: report.epoch,
            applied: report.swapped,
        })
    }

    /// Installs a leader snapshot wholesale — the follower bootstrap (and
    /// re-bootstrap) path.  The snapshot's epoch is preserved, the swap is
    /// made durable by an immediate local checkpoint (which also truncates
    /// any stale local WAL), and the replication progress advances to the
    /// installed epoch.  Installing the epoch already being served swaps
    /// nothing, but still checkpoints.
    pub fn install_replicated_snapshot(&self, snapshot: GraphSnapshot) -> u64 {
        let (epoch, _) = self.commit_install(Install::Bootstrap(snapshot));
        self.note_applied(epoch);
        self.wake();
        epoch
    }

    /// Forces a checkpoint now: writes a full snapshot of the currently
    /// served version (graph, prestige, keyword index), truncates the WAL
    /// and prunes snapshots beyond the retention bound.  Returns the
    /// checkpointed epoch, or [`PersistError::Disabled`] when the service
    /// was built without [`crate::ServiceBuilder::persistence`].
    ///
    /// Serialized with every other write (same admin lock), so the written
    /// snapshot is never mid-mutation.
    pub fn checkpoint(&self) -> Result<u64, PersistError> {
        let (_, checkpointed) = self.commit_install(Install::Checkpoint);
        let epoch = checkpointed.unwrap_or(Err(PersistError::Disabled))?;
        self.wake();
        Ok(epoch)
    }

    /// Commits published so far: WAL appends and checkpoints, counted once
    /// per committing call.  Pair with [`Service::wait_for_commit`].
    /// Always 0 without persistence.
    pub fn commit_count(&self) -> u64 {
        self.inner.persistence.as_ref().map_or(0, Durable::commits)
    }

    /// Blocks until the commit count moves past `seen` or `timeout`
    /// elapses, and returns the count — the leader's replication stream
    /// waits here between shipments instead of polling.
    ///
    /// Every public write publishes its commit when it is done:
    /// [`Service::apply_mutations_with`] after its continuation has run,
    /// the others as they return.  Without persistence nothing ever
    /// commits, so this sleeps out `timeout`.
    pub fn wait_for_commit(&self, seen: u64, timeout: Duration) -> u64 {
        match &self.inner.persistence {
            Some(persistence) => persistence.wait_past(seen, timeout),
            None => {
                std::thread::sleep(timeout);
                seen
            }
        }
    }

    /// The batch step, under the admin lock: judge the epoch rule, apply
    /// the batch, compact, append to the WAL, swap, count, log, trace and
    /// checkpoint if due.  Fails only when an adopted epoch does not chain
    /// from the serving one.
    fn commit_batch(
        &self,
        batch: &MutationBatch,
        rule: EpochRule,
    ) -> Result<MutationReport, ReplicationApplyError> {
        let inner = &self.inner;
        let apply_started = Instant::now();
        let elapsed_us = || apply_started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let _admin = inner.mutate.lock().expect("mutate lock");
        let current = self.snapshot();
        let previous_epoch = current.epoch();
        let unchanged = |outcome: BatchOutcome, persist_error: Option<String>| {
            Counters::add(
                &inner.counters.mutation_ops_rejected,
                outcome.rejected() as u64,
            );
            MutationReport {
                epoch: previous_epoch,
                previous_epoch,
                swapped: false,
                outcome,
                persist_error,
                trace: None,
            }
        };
        if let EpochRule::Adopt {
            parent_epoch,
            epoch,
        } = rule
        {
            match chain_step(previous_epoch, parent_epoch, epoch) {
                ChainStep::Covered => return Ok(unchanged(BatchOutcome::default(), None)),
                ChainStep::Gap => {
                    return Err(ReplicationApplyError::EpochGap {
                        serving_epoch: previous_epoch,
                        parent_epoch,
                        record_epoch: epoch,
                    })
                }
                ChainStep::Next => {}
            }
        }

        // The expensive part — adjacency row rewrites, index delta,
        // prestige refresh, the occasional compaction — happens here, with
        // no lock but the admin lock held.
        let (mut next, outcome) = current.apply_batch(batch);
        let compacted = next.maybe_compact(COMPACT_OVERLAY_RATIO);
        let apply_end_us = elapsed_us();
        let accepted = outcome.accepted();
        match rule {
            // A minted epoch needs an accepted op: a fully rejected batch
            // changes nothing.
            EpochRule::Mint if accepted == 0 => return Ok(unchanged(outcome, None)),
            EpochRule::Mint => {}
            // An adopted record is the leader's commit: it lands at the
            // leader's epoch whatever it did here.
            EpochRule::Adopt { epoch, .. } => next.restore_epoch(epoch),
        }

        // Durability barrier: the batch must be on the log before any
        // query can observe its effects.  A failed append aborts the
        // mutation entirely — the successor is dropped, the epoch does not
        // advance, and the disk and memory states remain consistent.
        let mut wal_span = None;
        let mut fsync_us = 0u64;
        if let Some(persistence) = &inner.persistence {
            let mut persistence = persistence.lock();
            let wal_start_us = elapsed_us();
            match persistence.append(previous_epoch, next.epoch(), batch) {
                Ok(sync_us) => {
                    wal_span = Some((wal_start_us, elapsed_us()));
                    fsync_us = sync_us;
                }
                Err(e) => return Ok(unchanged(outcome, Some(e.to_string()))),
            }
        }

        let swap_start_us = elapsed_us();
        let epoch = self.serve(next);
        let swap_end_us = elapsed_us();
        // Apply latency: admin-lock acquisition through WAL append and
        // snapshot swap (post-swap checkpoints are accounted separately).
        inner.mutation_apply_hist.record(apply_started.elapsed());
        Counters::bump(&inner.counters.mutation_batches);
        Counters::add(&inner.counters.mutation_ops_accepted, accepted as u64);
        Counters::add(
            &inner.counters.mutation_ops_rejected,
            outcome.rejected() as u64,
        );
        inner
            .mutation_log
            .lock()
            .expect("mutation log lock")
            .push(AppliedBatch {
                parent_epoch: previous_epoch,
                epoch,
                ops: batch.len(),
                accepted,
                rejected: outcome.rejected(),
            });

        // Checkpoint triggers: a compaction just produced the flat graph a
        // snapshot wants anyway, and a WAL past its rotation threshold is
        // due for truncation.  Failures are recorded (and surfaced via
        // `durability()`) but do not fail the mutation — it is already
        // durable in the WAL.
        let mut checkpoint_span = None;
        if let Some(persistence) = &inner.persistence {
            let mut persistence = persistence.lock();
            if compacted || persistence.wants_rotation() {
                let checkpoint_start_us = elapsed_us();
                let _ = self.checkpoint_served(&mut persistence, "mutation-triggered");
                checkpoint_span = Some((checkpoint_start_us, elapsed_us()));
            }
        }
        inner.events.emit(
            EventLevel::Info,
            "mutation-batch",
            format!(
                "epoch {previous_epoch} -> {epoch}: {accepted} op(s) accepted, {} rejected",
                outcome.rejected()
            ),
        );

        // The mutation's own phase trace: the checkpoint and WAL fsync it
        // triggered are attributed to it here rather than showing up only
        // as anonymous durability histograms.  Retained in the same trace
        // ring as query traces, under `engine == "mutation"`.
        let total_us = elapsed_us();
        let mut trace = QueryTrace {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            engine: "mutation".to_string(),
            epoch,
            total_us,
            ..QueryTrace::default()
        };
        trace.push_span("apply", 0, apply_end_us);
        if let Some((start, end)) = wal_span {
            trace.push_span("wal-append", start, end);
            if fsync_us > 0 {
                trace.push_span("wal-fsync", end.saturating_sub(fsync_us), end);
            }
        }
        trace.push_span("swap", swap_start_us, swap_end_us);
        if let Some((start, end)) = checkpoint_span {
            trace.push_span("checkpoint", start, end);
        }
        trace.push_span("finish", 0, total_us);
        trace.push_counter("ops", batch.len() as u64);
        trace.push_counter("accepted", accepted as u64);
        trace.push_counter("rejected", outcome.rejected() as u64);
        let trace = Arc::new(trace);
        inner.traces.push(Arc::clone(&trace));

        Ok(MutationReport {
            epoch,
            previous_epoch,
            swapped: true,
            outcome,
            persist_error: None,
            trace: Some(trace),
        })
    }

    /// The install step, under the admin lock: swap in the snapshot (if
    /// any), wipe the local snapshots for a bootstrap, and checkpoint.
    /// Returns the serving epoch afterwards and the checkpoint's outcome
    /// (`None` without persistence).  A failed checkpoint is also recorded
    /// in [`Service::durability`].
    fn commit_install(&self, install: Install) -> (u64, Option<Result<u64, PersistError>>) {
        let _admin = self.inner.mutate.lock().expect("mutate lock");
        let (epoch, bootstrap, why) = match install {
            Install::Swap(mut snapshot) => {
                snapshot.bump_epoch();
                (self.serve(snapshot), false, "post-swap")
            }
            Install::Bootstrap(snapshot) => {
                let epoch = snapshot.epoch();
                if epoch != self.epoch() {
                    self.serve(snapshot);
                }
                (epoch, true, "bootstrap")
            }
            Install::Checkpoint => (self.epoch(), false, "on-demand"),
        };
        let checkpointed = self.inner.persistence.as_ref().map(|persistence| {
            let mut persistence = persistence.lock();
            if bootstrap {
                // Pre-bootstrap snapshots carry locally-minted epochs that
                // are not ordered against the leader's; newest-epoch
                // retention would keep (or even prefer) them.
                persistence.clear_snapshots();
            }
            self.checkpoint_served(&mut persistence, why)
        });
        (epoch, checkpointed)
    }

    /// Checkpoints the served snapshot and logs a `checkpoint` event.  The
    /// caller holds the admin lock and passes the locked persistence.
    fn checkpoint_served(
        &self,
        persistence: &mut Persistence,
        why: &str,
    ) -> Result<u64, PersistError> {
        let epoch = persistence.checkpoint(&self.snapshot())?;
        self.inner.events.emit(
            EventLevel::Info,
            "checkpoint",
            format!("{why} checkpoint at epoch {epoch}"),
        );
        Ok(epoch)
    }

    /// Replaces the serving snapshot — the one place it changes — and
    /// returns the new serving epoch.  The caller holds the admin lock and
    /// has settled the epoch, which differs from the served one.
    fn serve(&self, snapshot: GraphSnapshot) -> u64 {
        let inner = &self.inner;
        let new_epoch = snapshot.epoch();
        let old_epoch = {
            let mut serving = inner.serving.lock().expect("serving lock");
            std::mem::replace(&mut *serving, Arc::new(snapshot)).epoch()
        };
        debug_assert_ne!(old_epoch, new_epoch, "every swap serves a new epoch");
        Counters::bump(&inner.counters.swaps);
        inner.events.emit(
            EventLevel::Info,
            "swap",
            format!("serving epoch {old_epoch} -> {new_epoch}"),
        );
        if inner.cache_private {
            inner.cache.evict_epoch(old_epoch);
        }
        new_epoch
    }

    /// Updates follower progress after the serving state reached `epoch`.
    fn note_applied(&self, epoch: u64) {
        self.inner
            .replication
            .lock()
            .expect("replication lock")
            .note_applied(epoch, unix_ms());
    }

    /// Wakes [`Service::wait_for_commit`] callers — the one caller of
    /// `Durable::publish`.  A no-op without persistence.
    fn wake(&self) {
        if let Some(persistence) = &self.inner.persistence {
            persistence.publish();
        }
    }
}
