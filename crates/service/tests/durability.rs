//! Service-level durability: WAL-first mutation acknowledgement, crash
//! recovery through `ServiceBuilder::persistence`, checkpointing, and the
//! durability surface in metrics.

use std::path::PathBuf;

use banks_graph::{DataGraph, GraphBuilder, MutationBatch, NodeId};
use banks_service::{FsyncPolicy, PersistError, QuerySpec, Service};

fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "banks-svc-durable-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

fn decoy() -> DataGraph {
    let mut b = GraphBuilder::new();
    b.add_node("author", "Decoy Author");
    b.build_default()
}

/// Roots + scores of the top answers, engine by engine — the equivalence
/// fingerprint that must survive a crash.
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

#[test]
fn mutations_survive_a_crash_and_answers_match_on_all_engines() {
    let dir = tmp_dir("equiv");
    let pre_epoch;
    let pre_answers;
    let pre_wal_records;
    {
        let service = Service::builder(dblp_like())
            .workers(2)
            .persistence(&dir, FsyncPolicy::Always)
            .build();
        let report = service.apply_mutations(
            &MutationBatch::new()
                .add_node("author", "Rushi Desai")
                .add_node("writes", "w3")
                .add_edge(NodeId(8), NodeId(7))
                .add_edge(NodeId(8), NodeId(3)),
        );
        assert!(report.swapped);
        assert!(report.persist_error.is_none());
        let report = service
            .apply_mutations(&MutationBatch::new().set_label(NodeId(0), "Soumen Chakrabarti IITB"));
        assert!(report.swapped);
        pre_epoch = service.epoch();
        pre_answers = answers(&service, "soumen keyword");
        // Simulated crash: the service is dropped with a non-empty WAL.
        // (The first batch compacted the tiny graph and hence checkpointed;
        // the second batch is the WAL suffix recovery must replay.)
        pre_wal_records = service.durability().wal_records;
        assert!(pre_wal_records >= 1);
    }

    // Reboot with a decoy builder graph: recovery must ignore it.
    let service = Service::builder(decoy())
        .workers(2)
        .persistence(&dir, FsyncPolicy::Always)
        .build();
    assert_eq!(service.epoch(), pre_epoch, "recovered the pre-crash epoch");
    let status = service.durability();
    assert!(status.enabled);
    assert_eq!(
        status.replayed_records, pre_wal_records,
        "exactly the WAL suffix replayed"
    );
    let post_answers = answers(&service, "soumen keyword");
    assert_eq!(
        post_answers, pre_answers,
        "every engine answers identically after recovery"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_truncates_wal_and_restarts_replay_free() {
    let dir = tmp_dir("ckpt");
    {
        let service = Service::builder(dblp_like())
            .persistence(&dir, FsyncPolicy::Always)
            .build();
        service.apply_mutations(&MutationBatch::new().add_node("author", "Extra"));
        assert_eq!(service.durability().wal_records, 1);
        let epoch = service.checkpoint().unwrap();
        assert_eq!(epoch, service.epoch());
        let status = service.durability();
        assert_eq!(status.wal_records, 0, "checkpoint truncates the WAL");
        assert_eq!(status.last_checkpoint_epoch, epoch);
    }
    let service = Service::builder(decoy())
        .persistence(&dir, FsyncPolicy::Always)
        .build();
    assert_eq!(service.durability().replayed_records, 0, "clean shutdown");
    assert_eq!(service.snapshot().graph().num_nodes(), 8);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_without_persistence_is_disabled() {
    let service = Service::builder(dblp_like()).build();
    assert!(matches!(service.checkpoint(), Err(PersistError::Disabled)));
    let status = service.durability();
    assert!(!status.enabled);
    assert_eq!(status.wal_records, 0);
    let metrics = service.metrics();
    assert!(!metrics.persistence_enabled);
    assert_eq!(metrics.wal_bytes, 0);
}

/// The decoy is built before the boot graph, so it carries an older epoch
/// than the boot checkpoint: the swap must still serve and checkpoint a
/// newer one, or recovery would load the stale boot snapshot and refuse
/// the WAL that chains from the swap.
#[test]
fn swap_graph_checkpoints_immediately() {
    let dir = tmp_dir("swap");
    let older = decoy();
    let served_epoch;
    {
        let service = Service::builder(dblp_like())
            .persistence(&dir, FsyncPolicy::Always)
            .build();
        let boot_epoch = service.epoch();
        let swapped_epoch = service.swap_graph(older);
        assert!(swapped_epoch > boot_epoch, "a swap mints a fresh epoch");
        let status = service.durability();
        assert_eq!(
            status.last_checkpoint_epoch, swapped_epoch,
            "wholesale swap is made durable by a checkpoint"
        );
        let report = service.apply_mutations(&MutationBatch::new().add_node("paper", "post-swap"));
        assert!(report.swapped);
        served_epoch = report.epoch;
    }
    let service = Service::builder(dblp_like())
        .persistence(&dir, FsyncPolicy::Always)
        .build();
    assert_eq!(service.epoch(), served_epoch);
    assert_eq!(
        service.snapshot().graph().num_nodes(),
        2,
        "decoy plus the post-swap node recovered"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn metrics_surface_durability_and_log_occupancy() {
    let dir = tmp_dir("metrics");
    let service = Service::builder(dblp_like())
        .persistence(&dir, FsyncPolicy::EveryN(8))
        .mutation_log_capacity(2)
        .build();
    for i in 0..5 {
        service.apply_mutations(&MutationBatch::new().add_node("author", format!("M{i}")));
    }
    let metrics = service.metrics();
    assert!(metrics.persistence_enabled);
    assert_eq!(metrics.wal_records, 5);
    assert!(metrics.wal_bytes > 0);
    assert!(metrics.checkpoints >= 1, "boot checkpoint counted");
    assert_eq!(metrics.mutation_log_entries, 2, "ring capped at 2");
    assert_eq!(metrics.mutation_log_dropped, 3);
    assert_eq!(metrics.mutation_batches, 5);
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rejected_batches_touch_neither_wal_nor_epoch() {
    let dir = tmp_dir("reject");
    let service = Service::builder(dblp_like())
        .persistence(&dir, FsyncPolicy::Always)
        .build();
    let before = service.epoch();
    // Every op invalid: edge endpoints that do not exist.
    let report = service.apply_mutations(&MutationBatch::new().add_edge(NodeId(900), NodeId(901)));
    assert!(!report.swapped);
    assert_eq!(service.epoch(), before);
    assert_eq!(service.durability().wal_records, 0, "nothing logged");
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}
