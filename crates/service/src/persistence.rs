//! Service-side durability plumbing: the WAL + checkpoint lifecycle run
//! around the serving snapshot.
//!
//! The [`crate::Service`] write path ([`crate::commit`]) is WAL-first:
//! under the admin lock, an accepted batch is appended (and fsynced per
//! policy) *before* the successor snapshot is swapped in.  Checkpoints — a full snapshot of
//! graph, prestige **and** keyword index, then WAL truncation and stale
//! snapshot pruning — happen on demand ([`crate::Service::checkpoint`]),
//! when a mutation chain triggers compaction, when the WAL crosses its
//! rotation threshold, and after a wholesale
//! [`crate::Service::swap_graph`] (which bypasses the WAL and therefore
//! must be made durable by a snapshot).
//!
//! The state also keeps the **committed tail** — the bytes of every WAL
//! record since the last checkpoint, exactly as [`Wal::append_encoded`]
//! wrote them — and a commit counter whose condition variable wakes the
//! leader's replication stream (`Durable`).  The stream ships from the
//! tail and never reads the WAL file.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use banks_obs::{Histogram, LatencySummary};
use banks_persist::{
    encode_record, list_snapshots, snapshot_file_name, write_snapshot, PersistError,
    PersistOptions, Wal, WalScan,
};

use crate::snapshot::GraphSnapshot;

/// Durability state of a service, as reported by
/// [`crate::Service::durability`] and the `/healthz` endpoint.  All-zero
/// numeric fields with `enabled == false` mean persistence is off.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurabilityStatus {
    /// Whether the service was built with a data directory.
    pub enabled: bool,
    /// The data directory, when enabled.
    pub data_dir: Option<PathBuf>,
    /// Epoch of the most recent on-disk snapshot.
    pub last_checkpoint_epoch: u64,
    /// Mutation batches in the WAL since that snapshot.
    pub wal_records: u64,
    /// Size of the WAL file in bytes.
    pub wal_bytes: u64,
    /// Checkpoints taken since the service started (the boot checkpoint
    /// included).
    pub checkpoints: u64,
    /// WAL records replayed at boot (0 after a clean shutdown).
    pub replayed_records: u64,
    /// The most recent persistence failure, if any (a failed WAL append
    /// rejects the mutation; a failed background checkpoint is recorded
    /// here and retried on the next trigger).
    pub last_error: Option<String>,
    /// Latency distribution of successful checkpoints (snapshot write +
    /// WAL reset + prune) since the service started.
    pub checkpoint_latency: LatencySummary,
    /// Latency distribution of WAL fsyncs since the service started.
    pub wal_fsync: LatencySummary,
}

/// One WAL record since the last checkpoint, as the leader committed it:
/// its header fields plus the record bytes exactly as they sit in the WAL
/// file (CRC framing included) — what `GET /replication/stream` ships.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommittedRecord {
    /// Sequence number within the WAL file (starts at 1 after each
    /// checkpoint).
    pub seq: u64,
    /// Epoch of the graph version the batch was applied to.
    pub parent_epoch: u64,
    /// Epoch of the graph version the batch produced.
    pub epoch: u64,
    /// The encoded record, byte-identical to its span of the WAL file.
    pub bytes: Arc<[u8]>,
}

impl CommittedRecord {
    fn new(seq: u64, parent_epoch: u64, epoch: u64, bytes: Vec<u8>) -> Self {
        CommittedRecord {
            seq,
            parent_epoch,
            epoch,
            bytes: bytes.into(),
        }
    }
}

/// The mutable durability state guarded by [`Durable`].
pub(crate) struct Persistence {
    dir: PathBuf,
    wal: Wal,
    options: PersistOptions,
    last_checkpoint_epoch: u64,
    checkpoints: u64,
    replayed_records: u64,
    last_error: Option<String>,
    checkpoint_hist: Histogram,
    /// Every record in the WAL file, in file order: appended with the WAL,
    /// cleared when a checkpoint truncates it.
    tail: Vec<CommittedRecord>,
    /// Commits published so far (see [`Durable::publish`]).
    commits: u64,
}

impl Persistence {
    /// Wraps a freshly-created WAL for a directory with no prior state.
    pub(crate) fn fresh(dir: &Path, wal: Wal, options: PersistOptions) -> Self {
        Self::recovered(dir, wal, options, 0, &WalScan::default(), 0)
    }

    /// Wraps the WAL re-opened after recovery; `scan` is the recovery scan
    /// the WAL was opened after, which seeds the committed tail.
    pub(crate) fn recovered(
        dir: &Path,
        wal: Wal,
        options: PersistOptions,
        snapshot_epoch: u64,
        scan: &WalScan,
        replayed_records: u64,
    ) -> Self {
        let tail = scan
            .records
            .iter()
            .map(|r| {
                let bytes = encode_record(r.seq, r.parent_epoch, r.epoch, &r.batch);
                CommittedRecord::new(r.seq, r.parent_epoch, r.epoch, bytes)
            })
            .collect();
        Persistence {
            dir: dir.to_path_buf(),
            wal,
            options,
            last_checkpoint_epoch: snapshot_epoch,
            checkpoints: 0,
            replayed_records,
            last_error: None,
            checkpoint_hist: Histogram::new(),
            tail,
            commits: 0,
        }
    }

    /// Opens (or creates) the WAL for `dir` after a recovery scan.
    pub(crate) fn open_wal(
        dir: &Path,
        options: &PersistOptions,
        scan: &WalScan,
    ) -> Result<Wal, PersistError> {
        Wal::open_after_scan(&dir.join(banks_persist::WAL_FILE), options.fsync, scan)
    }

    /// Appends one accepted batch, WAL-first.  A failure here means the
    /// mutation is **not** durable; the caller must not swap the successor
    /// in.  On success, returns the duration in microseconds of the fsync
    /// **this append triggered** (0 when the policy deferred it) — the
    /// mutation trace attributes the fsync to its triggering batch.
    pub(crate) fn append(
        &mut self,
        parent_epoch: u64,
        epoch: u64,
        batch: &banks_graph::MutationBatch,
    ) -> Result<u64, PersistError> {
        let syncs_before = self.wal.syncs();
        match self.wal.append_encoded(parent_epoch, epoch, batch) {
            Ok((seq, bytes)) => {
                self.tail
                    .push(CommittedRecord::new(seq, parent_epoch, epoch, bytes));
                Ok(if self.wal.syncs() > syncs_before {
                    self.wal.last_sync_micros()
                } else {
                    0
                })
            }
            Err(e) => {
                self.last_error = Some(e.to_string());
                Err(e)
            }
        }
    }

    /// Whether the WAL has grown past the rotation threshold.
    pub(crate) fn wants_rotation(&self) -> bool {
        self.wal.bytes() >= self.options.rotate_wal_bytes
    }

    /// The data directory this state persists into.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Committed records with `epoch > from_epoch`, in log order.  Epochs
    /// ascend along the tail — every append carries an epoch above the one
    /// it was applied to, which was the newest — so a binary search finds
    /// the first.
    pub(crate) fn records_after(&self, from_epoch: u64) -> Vec<CommittedRecord> {
        let first = self.tail.partition_point(|r| r.epoch <= from_epoch);
        self.tail[first..].to_vec()
    }

    /// Deletes every on-disk snapshot.  A follower bootstrap invalidates
    /// local history wholesale: epochs adopted from the leader are not
    /// ordered against epochs minted locally before the bootstrap, so
    /// retention-by-newest-epoch must restart from a clean slate before
    /// the bootstrap checkpoint is written.
    pub(crate) fn clear_snapshots(&mut self) {
        if let Ok(snapshots) = list_snapshots(&self.dir) {
            for (_, path) in snapshots {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// Writes a full snapshot of `snapshot` (graph, prestige and index),
    /// truncates the WAL and prunes snapshots beyond the retention bound.
    /// Returns the checkpointed epoch.
    pub(crate) fn checkpoint(&mut self, snapshot: &GraphSnapshot) -> Result<u64, PersistError> {
        let started = std::time::Instant::now();
        let epoch = snapshot.epoch();
        let path = self.dir.join(snapshot_file_name(epoch));
        let result = write_snapshot(
            &path,
            snapshot.graph(),
            Some(snapshot.prestige()),
            Some(snapshot.index()),
        )
        .and_then(|_| self.wal.reset());
        match result {
            Ok(()) => {
                self.tail.clear();
                self.checkpoint_hist.record(started.elapsed());
                self.last_checkpoint_epoch = epoch;
                self.checkpoints += 1;
                self.last_error = None;
                let keep = self.options.keep_snapshots.max(1);
                if let Ok(snapshots) = list_snapshots(&self.dir) {
                    for (_, stale) in snapshots.into_iter().skip(keep) {
                        // Best-effort: a vanished file must not fail the
                        // checkpoint that just succeeded.
                        let _ = std::fs::remove_file(stale);
                    }
                }
                Ok(epoch)
            }
            Err(e) => {
                self.last_error = Some(e.to_string());
                Err(e)
            }
        }
    }

    /// Current status, for metrics and `/healthz`.
    pub(crate) fn status(&self) -> DurabilityStatus {
        DurabilityStatus {
            enabled: true,
            data_dir: Some(self.dir.clone()),
            last_checkpoint_epoch: self.last_checkpoint_epoch,
            wal_records: self.wal.records(),
            wal_bytes: self.wal.bytes(),
            checkpoints: self.checkpoints,
            replayed_records: self.replayed_records,
            last_error: self.last_error.clone(),
            checkpoint_latency: self.checkpoint_hist.summary(),
            wal_fsync: self.wal.fsync_latency(),
        }
    }
}

/// [`Persistence`] behind its mutex, paired with the condition variable
/// that signals commits.  The leader's replication stream waits here
/// instead of polling the WAL.
pub(crate) struct Durable {
    state: Mutex<Persistence>,
    committed: Condvar,
}

impl Durable {
    pub(crate) fn new(state: Persistence) -> Self {
        Durable {
            state: Mutex::new(state),
            committed: Condvar::new(),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Persistence> {
        self.state.lock().expect("persistence lock")
    }

    /// Commits published so far.
    pub(crate) fn commits(&self) -> u64 {
        self.lock().commits
    }

    /// Publishes a commit: bumps the counter and wakes every waiter.  Its
    /// one caller is the write path's wake, which every public write runs
    /// once when it is done — for a mutation batch, **after** the caller's
    /// continuation (the `/admin/mutate` ack) has run.  The counter
    /// therefore never moves ahead of the acknowledgement, and a waiter is
    /// never released before it.
    pub(crate) fn publish(&self) {
        self.lock().commits += 1;
        self.committed.notify_all();
    }

    /// Blocks until the counter moves past `seen` or `timeout` elapses;
    /// returns the counter.
    pub(crate) fn wait_past(&self, seen: u64, timeout: Duration) -> u64 {
        let (state, _) = self
            .committed
            .wait_timeout_while(self.lock(), timeout, |p| p.commits == seen)
            .expect("persistence lock");
        state.commits
    }
}
