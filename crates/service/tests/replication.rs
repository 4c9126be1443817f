//! Replication through the service API: WAL record apply
//! (`Service::apply_replicated`), snapshot bootstrap
//! (`Service::install_replicated_snapshot`), idempotent stream resume,
//! epoch-gap detection, local durability of replicated state, the
//! runtime SLO configuration surface, and the leader side the stream is
//! served from — the commit signal (`Service::wait_for_commit`) and the
//! committed tail (`Service::replication_records_after`), which must
//! match the WAL file byte for byte.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use banks_graph::{DataGraph, GraphBuilder, MutationBatch, NodeId};
use banks_persist::{read_snapshot, scan_file, WAL_FILE};
use banks_service::{
    decode_record, encode_record, parse_slo_specs, FsyncPolicy, GraphSnapshot, QuerySpec,
    ReplicationApplyError, ReplicationRole, Service, SloSpec, WalRecord,
};

fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "banks-svc-replica-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A DBLP-style core plus enough filler nodes that the small batches
/// below never push the copy-on-write overlay over the service's 0.25
/// compaction threshold — compaction would checkpoint and truncate the
/// leader WAL mid-test, making the streamed record set nondeterministic.
fn dblp_like() -> DataGraph {
    let mut b = GraphBuilder::new();
    let soumen = b.add_node("author", "Soumen Chakrabarti");
    let shashank = b.add_node("author", "Shashank Pandit");
    let banks = b.add_node("paper", "Keyword searching in databases using BANKS");
    let bidir = b.add_node("paper", "Bidirectional expansion for keyword search");
    let w0 = b.add_node("writes", "w0");
    let w1 = b.add_node("writes", "w1");
    let w2 = b.add_node("writes", "w2");
    b.add_edge(w0, soumen).unwrap();
    b.add_edge(w0, banks).unwrap();
    b.add_edge(w1, shashank).unwrap();
    b.add_edge(w1, bidir).unwrap();
    b.add_edge(w2, soumen).unwrap();
    b.add_edge(w2, bidir).unwrap();
    for i in 0..40 {
        b.add_node("filler", format!("filler {i}"));
    }
    b.build_default()
}

fn decoy() -> DataGraph {
    let mut b = GraphBuilder::new();
    b.add_node("author", "Decoy Author");
    b.build_default()
}

/// Roots + scores of the top answers, engine by engine — the fingerprint
/// a follower must reproduce exactly at a shared epoch.
fn answers(service: &Service, query: &str) -> Vec<(String, Vec<(u32, u64)>)> {
    let mut per_engine = Vec::new();
    for engine in service.engine_names() {
        let spec = QuerySpec::parse(query).engine(engine).top_k(5);
        let (outcome, _) = service.submit(spec).unwrap().wait();
        per_engine.push((
            engine.to_string(),
            outcome
                .answers
                .iter()
                .map(|a| (a.tree.root.0, a.tree.score.to_bits()))
                .collect(),
        ));
    }
    per_engine
}

/// Bootstraps a follower from the leader's newest on-disk snapshot, the
/// way the replication client does: decode the snapshot file, rebuild the
/// serving version with the default derivations, install it wholesale.
fn bootstrap_follower(leader: &Service, follower: &Service) -> u64 {
    let (epoch, path) = leader
        .newest_snapshot_file()
        .unwrap()
        .expect("leader has a snapshot");
    let contents = read_snapshot(&path).unwrap();
    assert_eq!(contents.graph.epoch(), epoch);
    let installed =
        follower.install_replicated_snapshot(GraphSnapshot::with_defaults(contents.graph));
    assert_eq!(installed, epoch);
    installed
}

/// The leader's WAL records, decoded from the shipped bytes the way a
/// follower decodes a `record` event.
fn shipped_records(leader: &Service) -> Vec<WalRecord> {
    leader
        .replication_records_after(0)
        .unwrap()
        .iter()
        .map(|r| decode_record(&r.bytes).unwrap().0)
        .collect()
}

fn leader_batches() -> Vec<MutationBatch> {
    // The base graph has 47 nodes (7 core + 40 filler), so the two nodes
    // the first batch adds get ids 47 and 48.
    vec![
        MutationBatch::new()
            .add_node("paper", "Efficient IR-style keyword search")
            .add_node("writes", "w3")
            .add_edge(NodeId(48), NodeId(0))
            .add_edge(NodeId(48), NodeId(47)),
        MutationBatch::new()
            .set_label(NodeId(3), "Bidirectional search on graph databases")
            .set_weight(NodeId(4), NodeId(0), 2.5),
        MutationBatch::new().remove_node(NodeId(1)),
    ]
}

#[test]
fn follower_replays_the_leader_wal_to_the_same_epoch_and_answers() {
    let leader_dir = tmp_dir("leader");
    let leader = Service::builder(dblp_like())
        .workers(2)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    let follower = Service::builder(decoy()).workers(2).build();
    follower.set_replication_role(ReplicationRole::Follower);

    bootstrap_follower(&leader, &follower);
    for batch in leader_batches() {
        assert!(leader.apply_mutations(&batch).swapped);
    }

    let records = shipped_records(&leader);
    assert_eq!(records.len(), 3, "one WAL record per applied batch");
    for record in &records {
        let applied = follower.apply_replicated(record).unwrap();
        assert!(applied.applied);
        assert_eq!(applied.epoch, record.epoch);
    }
    assert_eq!(follower.epoch(), leader.epoch(), "shared serving epoch");
    assert_eq!(
        answers(&follower, "soumen search"),
        answers(&leader, "soumen search"),
        "every engine answers identically at the shared epoch"
    );

    let status = follower.replication_status();
    assert_eq!(status.role, ReplicationRole::Follower);
    assert_eq!(status.applied_epoch, leader.epoch());
    assert_eq!(status.lag_records, 0);
    assert_eq!(status.lag_ms, 0);
    assert_eq!(follower.metrics().replication, status);
}

#[test]
fn resumed_streams_are_idempotent() {
    let leader_dir = tmp_dir("resume");
    let leader = Service::builder(dblp_like())
        .workers(1)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    let follower = Service::builder(decoy()).workers(1).build();
    bootstrap_follower(&leader, &follower);
    for batch in leader_batches() {
        leader.apply_mutations(&batch);
    }
    let records = shipped_records(&leader);
    for record in &records {
        follower.apply_replicated(record).unwrap();
    }
    let epoch = follower.epoch();
    // A reconnect replays the whole tail: every record is skipped.
    for record in &records {
        let applied = follower.apply_replicated(record).unwrap();
        assert!(!applied.applied, "already-applied records are skipped");
        assert_eq!(applied.epoch, epoch);
    }
    assert_eq!(follower.epoch(), epoch);
}

#[test]
fn a_record_past_the_serving_epoch_is_an_epoch_gap() {
    let leader_dir = tmp_dir("gap");
    let leader = Service::builder(dblp_like())
        .workers(1)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    let follower = Service::builder(decoy()).workers(1).build();
    bootstrap_follower(&leader, &follower);
    for batch in leader_batches() {
        leader.apply_mutations(&batch);
    }
    let records = shipped_records(&leader);
    // Skip the first record: the second builds on an epoch the follower
    // never saw, which must not be silently applied.
    let err = follower.apply_replicated(&records[1]).unwrap_err();
    match err {
        ReplicationApplyError::EpochGap {
            serving_epoch,
            parent_epoch,
            record_epoch,
        } => {
            assert_eq!(serving_epoch, follower.epoch());
            assert_eq!(parent_epoch, records[1].parent_epoch);
            assert_eq!(record_epoch, records[1].epoch);
        }
        other => panic!("expected EpochGap, got {other:?}"),
    }
    // The gap is recoverable: re-bootstrap from the leader's newest
    // snapshot, then the stream tail applies cleanly.
    leader.checkpoint().unwrap();
    bootstrap_follower(&leader, &follower);
    assert_eq!(follower.epoch(), leader.epoch());
    assert!(leader
        .replication_records_after(follower.epoch())
        .unwrap()
        .is_empty());
}

#[test]
fn replicated_state_is_durable_in_the_follower_wal() {
    let leader_dir = tmp_dir("durable-leader");
    let follower_dir = tmp_dir("durable-follower");
    let leader = Service::builder(dblp_like())
        .workers(1)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    let expected = {
        let follower = Service::builder(decoy())
            .workers(1)
            .persistence(&follower_dir, FsyncPolicy::Always)
            .build();
        bootstrap_follower(&leader, &follower);
        for batch in leader_batches() {
            leader.apply_mutations(&batch);
        }
        for record in &shipped_records(&leader) {
            follower.apply_replicated(record).unwrap();
        }
        assert_eq!(follower.epoch(), leader.epoch());
        answers(&follower, "soumen search")
        // follower dropped here — the restart below must replay its own
        // WAL back to the same state
    };
    let reborn = Service::builder(decoy())
        .workers(1)
        .persistence(&follower_dir, FsyncPolicy::Always)
        .build();
    assert_eq!(
        reborn.epoch(),
        leader.epoch(),
        "recovery reaches the leader epoch"
    );
    assert_eq!(answers(&reborn, "soumen search"), expected);
}

#[test]
fn bootstrap_installs_checkpoint_and_preserves_the_leader_epoch() {
    let leader_dir = tmp_dir("boot-leader");
    let follower_dir = tmp_dir("boot-follower");
    let leader = Service::builder(dblp_like())
        .workers(1)
        .persistence(&leader_dir, FsyncPolicy::Always)
        .build();
    for batch in leader_batches() {
        leader.apply_mutations(&batch);
    }
    leader.checkpoint().unwrap();

    let follower = Service::builder(decoy())
        .workers(1)
        .persistence(&follower_dir, FsyncPolicy::Always)
        .build();
    let installed = bootstrap_follower(&leader, &follower);
    assert_eq!(installed, leader.epoch());
    assert_eq!(follower.epoch(), leader.epoch());
    let durability = follower.durability();
    assert_eq!(
        durability.last_checkpoint_epoch, installed,
        "bootstrap checkpoints locally at the installed epoch"
    );
    assert_eq!(durability.wal_records, 0, "stale local WAL is truncated");
    // Installing the same epoch again is a harmless no-op.
    assert_eq!(bootstrap_follower(&leader, &follower), installed);
}

#[test]
fn head_announcements_feed_lag_and_metrics() {
    let service = Service::builder(dblp_like()).workers(1).build();
    service.set_replication_role(ReplicationRole::Follower);
    // Behind: the leader announces three records past anything applied.
    let head = service.epoch() + 3;
    service.note_replication_head(head, 3);
    std::thread::sleep(std::time::Duration::from_millis(20));
    let status = service.replication_status();
    assert_eq!(status.role, ReplicationRole::Follower);
    assert_eq!(status.leader_epoch, head);
    assert_eq!(status.lag_records, 3);
    assert!(status.lag_ms >= 10, "lag clock runs while behind");
    // The same status rides on the metrics snapshot (the lag clock keeps
    // ticking between the two reads, so compare the stable fields).
    let metrics = service.metrics().replication;
    assert_eq!(metrics.role, ReplicationRole::Follower);
    assert_eq!(metrics.leader_epoch, head);
    assert_eq!(metrics.lag_records, 3);
    assert!(metrics.lag_ms >= status.lag_ms);
}

#[test]
fn slo_specs_parse_from_json_and_swap_at_runtime() {
    let specs = parse_slo_specs(
        r#"{"slos":[
            {"name":"replication_lag","metric":"replication_lag_ms","threshold":5000},
            {"name":"ttfa_p99","metric":"ttfa_p99_us","threshold":100000,
             "budget":0.05,"fast_window_ms":60000,"slow_window_ms":600000,
             "fire_burn":5,"resolve_burn":0.5}
        ]}"#,
    )
    .unwrap();
    assert_eq!(specs.len(), 2);
    assert_eq!(
        specs[0],
        SloSpec::upper_bound("replication_lag", "replication_lag_ms", 5000.0)
    );
    assert_eq!(specs[1].budget, 0.05);
    assert_eq!(specs[1].fast_window_ms, 60_000);
    assert_eq!(specs[1].fire_burn, 5.0);

    // A bare array works too; malformed documents fail loudly.
    assert_eq!(
        parse_slo_specs(r#"[{"name":"a","metric":"queued","threshold":1}]"#)
            .unwrap()
            .len(),
        1
    );
    for bad in [
        r#"{"slos":{}}"#,
        r#"[{"metric":"queued","threshold":1}]"#,
        r#"[{"name":"a","metric":"queued"}]"#,
        r#"[{"name":"a","metric":"queued","threshold":1,"typo_key":2}]"#,
        r#"[{"name":"a","metric":"queued","threshold":1,"budget":0}]"#,
        r#"[{"name":"a","metric":"queued","threshold":1,
            "fast_window_ms":600000,"slow_window_ms":60000}]"#,
        r#"[{"name":"a","metric":"queued","threshold":1},
            {"name":"a","metric":"queued","threshold":2}]"#,
    ] {
        assert!(parse_slo_specs(bad).is_err(), "should reject {bad}");
    }

    // Boot from a config file, then swap and upsert at runtime.
    let dir = tmp_dir("slo");
    let path = dir.join("slo.json");
    std::fs::write(
        &path,
        r#"[{"name":"queued","metric":"queued","threshold":10}]"#,
    )
    .unwrap();
    let service = Service::builder(dblp_like())
        .workers(1)
        .slos_from_path(&path)
        .unwrap()
        .build();
    assert_eq!(
        service.slo_specs(),
        vec![SloSpec::upper_bound("queued", "queued", 10.0)]
    );
    service.upsert_slo(SloSpec::replication_lag());
    assert_eq!(service.slo_specs().len(), 2);
    service.replace_slos(SloSpec::defaults());
    assert_eq!(service.slo_specs(), SloSpec::defaults());

    let missing = Service::builder(decoy()).slos_from_path(dir.join("absent.json"));
    assert!(missing.is_err());
}

/// A commit-signal waiter's timeout: long enough that a waiter released
/// early can only have been woken by a commit.
const WAKE_TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn a_mutation_wakes_a_commit_waiter_after_its_continuation() {
    let dir = tmp_dir("wake-mutate");
    let leader = Service::builder(dblp_like())
        .workers(1)
        .persistence(&dir, FsyncPolicy::Always)
        .build();
    let seen = leader.commit_count();
    let (ack_tx, ack_rx) = mpsc::channel();
    let leader = &leader;
    std::thread::scope(|scope| {
        let waiter = scope.spawn(move || {
            let now = leader.wait_for_commit(seen, WAKE_TIMEOUT);
            // Released by the commit, and only once the continuation ran.
            (now, ack_rx.try_recv().is_ok())
        });
        let report = leader.apply_mutations_with(&leader_batches()[0], |report| {
            assert!(report.swapped);
            // Hold the continuation open so that a wake issued before it
            // finished would find the channel still empty.
            std::thread::sleep(Duration::from_millis(50));
            let _ = ack_tx.send(report.epoch);
        });
        assert!(report.swapped);
        let (now, continuation_ran) = waiter.join().unwrap();
        assert!(now > seen, "the commit released the waiter");
        assert!(continuation_ran, "woken before the continuation finished");
    });
    assert_eq!(leader.commit_count(), seen + 1, "one commit per batch");
}

#[test]
fn a_checkpoint_wakes_a_commit_waiter() {
    let dir = tmp_dir("wake-checkpoint");
    let leader = Service::builder(dblp_like())
        .workers(1)
        .persistence(&dir, FsyncPolicy::Always)
        .build();
    let seen = leader.commit_count();
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| leader.wait_for_commit(seen, WAKE_TIMEOUT));
        leader.checkpoint().unwrap();
        assert!(waiter.join().unwrap() > seen);
    });
}

#[test]
fn a_commit_waiter_times_out_when_nothing_commits() {
    let dir = tmp_dir("wake-timeout");
    let leader = Service::builder(dblp_like())
        .workers(1)
        .persistence(&dir, FsyncPolicy::Always)
        .build();
    let seen = leader.commit_count();
    assert_eq!(
        leader.wait_for_commit(seen, Duration::from_millis(20)),
        seen
    );
    // A rejected batch commits nothing either.
    let rejected = leader.apply_mutations(&MutationBatch::new().add_edge(NodeId(0), NodeId(9999)));
    assert!(!rejected.swapped);
    assert_eq!(
        leader.wait_for_commit(seen, Duration::from_millis(20)),
        seen
    );
}

/// xorshift64: a dependency-free deterministic stream for the random
/// mutation chain below.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// One random batch of 1–4 ops over the current node range; some ops may
/// be rejected (a removed node, a missing edge), as in real traffic.
fn random_batch(rng: &mut Rng, nodes: u64, step: usize) -> MutationBatch {
    let mut batch = MutationBatch::new();
    for op in 0..1 + rng.below(4) {
        let a = NodeId(rng.below(nodes) as u32);
        let b = NodeId(rng.below(nodes) as u32);
        batch = match rng.below(5) {
            0 => batch.add_node("paper", format!("random paper {step}.{op}")),
            1 => batch.add_edge(a, b),
            2 => batch.set_label(a, format!("relabelled {step}.{op}")),
            3 => batch.set_weight(a, b, 1.0 + rng.below(8) as f64),
            _ => batch.remove_node(a),
        };
    }
    batch
}

/// The committed tail must be the WAL file, byte for byte: each shipped
/// record equals its scanned record re-encoded, and together they are
/// exactly the file after its header.
fn assert_tail_matches_disk(service: &Service, dir: &Path) {
    let tail = service.replication_records_after(0).unwrap();
    let scan = scan_file(&dir.join(WAL_FILE)).unwrap();
    assert!(scan.anomaly.is_none(), "{:?}", scan.anomaly);
    assert_eq!(tail.len(), scan.records.len());
    for (shipped, on_disk) in tail.iter().zip(&scan.records) {
        let reencoded = encode_record(
            on_disk.seq,
            on_disk.parent_epoch,
            on_disk.epoch,
            &on_disk.batch,
        );
        assert_eq!(&shipped.bytes[..], &reencoded[..], "seq {}", on_disk.seq);
        assert_eq!(
            (shipped.seq, shipped.parent_epoch, shipped.epoch),
            (on_disk.seq, on_disk.parent_epoch, on_disk.epoch)
        );
    }
    // A cursor at any shipped epoch resumes with exactly the rest.
    for (i, record) in tail.iter().enumerate() {
        let rest = service.replication_records_after(record.epoch).unwrap();
        assert_eq!(rest, tail[i + 1..], "resume after epoch {}", record.epoch);
    }
    let file = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let joined: Vec<u8> = tail.iter().flat_map(|r| r.bytes.iter().copied()).collect();
    assert_eq!(&file[file.len() - joined.len()..], &joined[..]);
    assert_eq!(
        file.len() - joined.len(),
        16,
        "only the WAL header precedes"
    );
}

#[test]
fn the_committed_tail_never_drifts_from_the_wal_file() {
    let dir = tmp_dir("tail-drift");
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut step = 0;
    let mut run_chain = |service: &Service, batches: usize| {
        for _ in 0..batches {
            let nodes = service.snapshot().graph().num_nodes() as u64;
            service.apply_mutations(&random_batch(&mut rng, nodes, step));
            step += 1;
        }
    };
    {
        let leader = Service::builder(dblp_like())
            .workers(1)
            .persistence(&dir, FsyncPolicy::EveryN(4))
            .build();
        run_chain(&leader, 12);
        assert_tail_matches_disk(&leader, &dir);
        assert!(!leader.replication_records_after(0).unwrap().is_empty());
        leader.checkpoint().unwrap();
        assert_tail_matches_disk(&leader, &dir);
        assert!(leader.replication_records_after(0).unwrap().is_empty());
        run_chain(&leader, 12);
        assert_tail_matches_disk(&leader, &dir);
        // Dropped without a checkpoint: the reopen below replays the WAL.
    }
    let reopened = Service::builder(decoy())
        .workers(1)
        .persistence(&dir, FsyncPolicy::EveryN(4))
        .build();
    assert!(reopened.durability().replayed_records > 0);
    assert_tail_matches_disk(&reopened, &dir);
    run_chain(&reopened, 6);
    assert_tail_matches_disk(&reopened, &dir);
}
