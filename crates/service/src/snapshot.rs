//! The immutable serving version: one graph plus everything derived from it.
//!
//! Online graph swapping needs a single unit of atomicity.  The service does
//! not serve a bare [`DataGraph`]: every query also consults the node
//! prestige vector and the keyword index, and the three must agree — a
//! query resolved against version N's index but expanded over version N+1's
//! adjacency would produce garbage.  [`GraphSnapshot`] bundles the three
//! into one immutable value; the service holds the *current* snapshot
//! behind an `Arc` and every query pins (clones) that `Arc` at admission
//! time.  [`crate::Service::swap_graph`] replaces the `Arc` atomically:
//!
//! * queries admitted **before** the swap — including ones still waiting in
//!   the scheduler — run to completion on their pinned snapshot, which stays
//!   alive until the last such query drops its reference;
//! * queries admitted **after** the swap resolve, expand and cache against
//!   the new version;
//! * the shared result cache needs no flush: keys carry the graph
//!   [epoch](DataGraph::epoch), so entries for the old version simply stop
//!   matching (a service that owns its cache also evicts them eagerly).

use banks_core::{build_label_index, label_index_delta};
use banks_graph::{BatchOutcome, DataGraph, MutationBatch};
use banks_prestige::{IndegreePrestige, PrestigeVector};
use banks_textindex::{InvertedIndex, TextDelta};

/// How a snapshot's prestige vector is kept current when the graph mutates
/// under it ([`GraphSnapshot::apply_batch`]).
#[derive(Clone, Debug)]
enum PrestigeMode {
    /// Uniform prestige (the default): successors stay uniform.
    Uniform,
    /// Indegree prestige with incrementally-refreshable raw state:
    /// successors refresh only the dirty nodes, bit-identical to a full
    /// recompute.
    Indegree(IndegreePrestige),
    /// Caller-supplied prestige the snapshot cannot re-derive: successors
    /// keep the existing values, and nodes a mutation appends are assigned
    /// the current maximum (never penalised relative to existing nodes)
    /// until the caller swaps in a freshly-computed vector.
    Pinned,
}

/// How a snapshot's keyword index is kept current when the graph mutates
/// under it.
#[derive(Clone, Copy, Debug)]
enum IndexMode {
    /// The index covers exactly the node labels (built by
    /// [`build_label_index`]): label deltas apply in full — removals for
    /// relabels, additions for new text — and stay equivalent to a from-
    /// scratch rebuild.
    Labels,
    /// A caller-supplied index the snapshot cannot re-derive (it may cover
    /// text the graph never sees).  Successors apply **additive** changes
    /// only — labels of newly-added nodes and new relation names — and
    /// never remove postings: a relabel leaves the node's old terms
    /// matching (documented staleness) rather than corrupting posting
    /// lists that were built from richer text.
    External,
}

/// One immutable serving version: the data graph together with the prestige
/// vector and keyword index derived from it.
///
/// Constructed once per version ([`GraphSnapshot::new`] for precomputed
/// parts, [`GraphSnapshot::with_defaults`] to derive them) and then shared
/// read-only behind an `Arc` — in-flight queries keep the version they were
/// admitted under alive for exactly as long as they need it.
///
/// Versions advance one of two ways: wholesale replacement
/// ([`crate::Service::swap_snapshot`]) or incrementally via
/// [`GraphSnapshot::apply_batch`], which derives the successor's index and
/// prestige as *deltas* instead of rebuilding them.
#[derive(Clone, Debug)]
pub struct GraphSnapshot {
    graph: DataGraph,
    prestige: PrestigeVector,
    index: InvertedIndex,
    prestige_mode: PrestigeMode,
    index_mode: IndexMode,
}

impl GraphSnapshot {
    /// Bundles an already-prepared graph, prestige vector and keyword index
    /// into one serving version.  The caller asserts the three describe the
    /// same graph revision.
    ///
    /// Prestige and index supplied this way are treated as *external* by
    /// [`GraphSnapshot::apply_batch`] — the snapshot cannot re-derive
    /// them, so mutation successors carry the prestige forward unchanged
    /// (appended nodes get the current maximum) and apply only *additive*
    /// index changes (new nodes' labels become searchable; relabels never
    /// remove postings, since the index may cover richer text than the
    /// labels).  Use [`GraphSnapshot::with_defaults`] /
    /// [`GraphSnapshot::with_indegree_prestige`] for derivations that
    /// refresh exactly.
    pub fn new(graph: DataGraph, prestige: PrestigeVector, index: InvertedIndex) -> Self {
        GraphSnapshot {
            graph,
            prestige,
            index,
            prestige_mode: PrestigeMode::Pinned,
            index_mode: IndexMode::External,
        }
    }

    /// Builds a serving version with the default derivations: uniform
    /// prestige and the label index built from the graph's node labels —
    /// the same defaults [`crate::ServiceBuilder::build`] applies.
    pub fn with_defaults(graph: DataGraph) -> Self {
        let prestige = PrestigeVector::uniform_for(&graph);
        let index = build_label_index(&graph);
        GraphSnapshot {
            graph,
            prestige,
            index,
            prestige_mode: PrestigeMode::Uniform,
            index_mode: IndexMode::Labels,
        }
    }

    /// Builder-internal constructor: derives the parts the caller did not
    /// supply, tracking per part whether it can be refreshed exactly on
    /// mutation (derived) or must be treated as external (supplied).
    pub(crate) fn from_optional(
        graph: DataGraph,
        prestige: Option<PrestigeVector>,
        index: Option<InvertedIndex>,
    ) -> Self {
        let (index, index_mode) = match index {
            Some(index) => (index, IndexMode::External),
            None => (build_label_index(&graph), IndexMode::Labels),
        };
        let (prestige, prestige_mode) = match prestige {
            Some(prestige) => (prestige, PrestigeMode::Pinned),
            None => (PrestigeVector::uniform_for(&graph), PrestigeMode::Uniform),
        };
        GraphSnapshot {
            graph,
            prestige,
            index,
            prestige_mode,
            index_mode,
        }
    }

    /// Builds a serving version with indegree prestige (BANKS-I style,
    /// `log2(1 + indegree)` rescaled to max 1) and the label index.  The
    /// backend keeps its raw state, so [`GraphSnapshot::apply_batch`]
    /// refreshes prestige incrementally — touching only the dirty nodes —
    /// while staying bit-identical to a from-scratch recompute.
    pub fn with_indegree_prestige(graph: DataGraph) -> Self {
        let state = IndegreePrestige::compute(&graph);
        let prestige = state.to_vector();
        let index = build_label_index(&graph);
        GraphSnapshot {
            graph,
            prestige,
            index,
            prestige_mode: PrestigeMode::Indegree(state),
            index_mode: IndexMode::Labels,
        }
    }

    /// Applies a [`MutationBatch`], producing the successor serving
    /// version and the per-op outcome — the incremental analogue of
    /// rebuilding a snapshot from scratch:
    ///
    /// * the **graph** advances via [`DataGraph::apply_batch`]
    ///   (structurally-shared, fresh epoch, O(touched rows)),
    /// * the **keyword index** advances via
    ///   [`InvertedIndex::apply_delta`] — only nodes whose label changed
    ///   are re-tokenized.  Label indexes (built by the snapshot itself)
    ///   apply the delta in full and stay equivalent to a from-scratch
    ///   rebuild; a caller-supplied index applies **additive** changes
    ///   only (see [`GraphSnapshot::new`]),
    /// * the **prestige vector** refreshes according to how it was
    ///   derived: uniform stays uniform, indegree refreshes its dirty
    ///   nodes exactly, and pinned external vectors are carried forward
    ///   (see [`GraphSnapshot::new`]).
    ///
    /// `self` is untouched; queries pinned to it are unaffected.
    pub fn apply_batch(&self, batch: &MutationBatch) -> (GraphSnapshot, BatchOutcome) {
        let (graph, outcome) = self.graph.apply_batch(batch);
        let full_delta = label_index_delta(&graph, &outcome);
        let index_delta = match self.index_mode {
            IndexMode::Labels => full_delta,
            // External index: keep every existing posting (the index may
            // know text the graph does not); only additions — labels of
            // nodes that did not exist before, and new relation names —
            // are safe to merge in.
            IndexMode::External => TextDelta {
                changes: full_delta
                    .changes
                    .into_iter()
                    .filter(|change| change.old.is_empty())
                    .collect(),
                new_relations: full_delta.new_relations,
            },
        };
        let index = self.index.apply_delta(&index_delta);
        let (prestige, prestige_mode) = match &self.prestige_mode {
            PrestigeMode::Uniform => (PrestigeVector::uniform_for(&graph), PrestigeMode::Uniform),
            PrestigeMode::Indegree(state) => {
                let mut state = state.clone();
                state.refresh(&graph, &outcome.dirty_nodes);
                (state.to_vector(), PrestigeMode::Indegree(state))
            }
            PrestigeMode::Pinned => {
                let mut values = self.prestige.values().to_vec();
                let fill = if values.is_empty() {
                    1.0
                } else {
                    self.prestige.max()
                };
                values.resize(graph.num_nodes(), fill);
                (PrestigeVector::from_values(values), PrestigeMode::Pinned)
            }
        };
        (
            GraphSnapshot {
                graph,
                prestige,
                index,
                prestige_mode,
                index_mode: self.index_mode,
            },
            outcome,
        )
    }

    /// Flattens the graph's copy-on-write overlay back into flat CSR
    /// storage when more than `ratio` of its nodes carry overlay rows.
    /// Contents (and the epoch) are unchanged — only the representation —
    /// so pinned queries, caches and metrics are unaffected.  Returns
    /// whether compaction ran.  [`crate::Service::apply_mutations`] calls
    /// this so long mutation chains do not pay the overlay indirection
    /// forever.
    pub fn maybe_compact(&mut self, ratio: f64) -> bool {
        if self.graph.overlay_ratio() > ratio {
            self.graph = self.graph.compacted();
            true
        } else {
            false
        }
    }

    /// The graph of this serving version.
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// The node prestige of this serving version.
    pub fn prestige(&self) -> &PrestigeVector {
        &self.prestige
    }

    /// The keyword index of this serving version.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The graph's epoch — the cache-key component that distinguishes this
    /// version from every other.
    pub fn epoch(&self) -> u64 {
        self.graph.epoch()
    }

    /// Assigns the underlying graph a fresh epoch.  A wholesale swap serves
    /// under one: a clone of the served graph must still get a cold cache,
    /// and a graph built long ago must not checkpoint behind the snapshots
    /// already on disk.
    pub(crate) fn bump_epoch(&mut self) {
        self.graph.bump_epoch();
    }

    /// Overwrites the graph's epoch with a leader-assigned one
    /// ([`DataGraph::restore_epoch`]): a follower applying a replicated
    /// batch must serve at exactly the epoch the leader produced, not a
    /// locally drawn value, so shared-epoch reads on leader and follower
    /// are reads of the same version.
    pub(crate) fn restore_epoch(&mut self, epoch: u64) {
        self.graph.restore_epoch(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::GraphBuilder;

    fn tiny() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("author", "Jim Gray");
        let p = b.add_node("paper", "Granularity of locks");
        let w = b.add_node("writes", "w0");
        b.add_edge(w, a).unwrap();
        b.add_edge(w, p).unwrap();
        b.build_default()
    }

    #[test]
    fn defaults_derive_prestige_and_index() {
        let graph = tiny();
        let epoch = graph.epoch();
        let snap = GraphSnapshot::with_defaults(graph);
        assert_eq!(snap.epoch(), epoch, "construction must not change epoch");
        assert_eq!(snap.prestige().len(), snap.graph().num_nodes());
        assert!(
            !snap.index().matching_nodes(snap.graph(), "gray").is_empty(),
            "label index must cover node labels"
        );
    }

    #[test]
    fn bump_epoch_distinguishes_cloned_versions() {
        let mut snap = GraphSnapshot::with_defaults(tiny());
        let before = snap.epoch();
        snap.bump_epoch();
        assert_ne!(snap.epoch(), before);
    }

    #[test]
    fn apply_batch_advances_graph_index_and_prestige_together() {
        use banks_graph::{MutationBatch, NodeId};
        let snap = GraphSnapshot::with_defaults(tiny());
        let before_epoch = snap.epoch();
        let batch = MutationBatch::new()
            .add_node("paper", "Recovery techniques")
            .add_edge(NodeId(2), NodeId(3));
        let (next, outcome) = snap.apply_batch(&batch);
        assert_eq!(outcome.accepted(), 2);
        assert_ne!(next.epoch(), before_epoch);
        assert_eq!(next.prestige().len(), next.graph().num_nodes());
        // the new node's label is searchable through the delta'd index
        assert_eq!(
            next.index().matching_nodes(next.graph(), "recovery"),
            vec![NodeId(3)]
        );
        // the ancestor snapshot still serves the old world
        assert_eq!(snap.graph().num_nodes(), 3);
        assert!(snap
            .index()
            .matching_nodes(snap.graph(), "recovery")
            .is_empty());
    }

    #[test]
    fn apply_batch_refreshes_indegree_prestige_exactly() {
        use banks_graph::{MutationBatch, NodeId};
        use banks_prestige::compute_indegree_prestige;
        let snap = GraphSnapshot::with_indegree_prestige(tiny());
        let batch = MutationBatch::new()
            .add_node("writes", "w9")
            .add_edge(NodeId(3), NodeId(0));
        let (next, _) = snap.apply_batch(&batch);
        let full = compute_indegree_prestige(next.graph());
        for (a, b) in next.prestige().values().iter().zip(full.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "incremental == full recompute");
        }
    }

    #[test]
    fn apply_batch_never_removes_postings_from_an_external_index() {
        use banks_graph::{MutationBatch, NodeId};
        use banks_textindex::IndexBuilder;
        let graph = tiny();
        // the external index covers richer text than the labels: node 1's
        // abstract also contains "locks"
        let mut ib = IndexBuilder::with_default_tokenizer();
        for node in graph.nodes() {
            ib.add_text(node, graph.node_label(node));
        }
        ib.add_text(NodeId(1), "a study of locks in databases");
        let snap = GraphSnapshot::new(
            graph,
            banks_prestige::PrestigeVector::uniform(3),
            ib.build(),
        );

        // relabel node 1 away from "locks": a label-index delta would
        // remove the posting, but the abstract still contains the term —
        // an external index must keep it
        let batch = MutationBatch::new()
            .set_label(NodeId(1), "Granularity of latching")
            .add_node("paper", "Recovery protocols");
        let (next, outcome) = snap.apply_batch(&batch);
        assert_eq!(outcome.accepted(), 2);
        assert!(
            next.index().postings("locks").contains(&NodeId(1)),
            "external index postings must survive a relabel"
        );
        assert!(
            next.index().postings("databases").contains(&NodeId(1)),
            "richer-text postings untouched"
        );
        // additive changes still land: the new node is searchable
        assert_eq!(next.index().postings("recovery"), &[NodeId(3)]);
        // ...but the new label's terms are NOT added for the relabel
        // (external indexes advance additively only, documented staleness)
        assert!(next.index().postings("latching").is_empty());
    }

    #[test]
    fn service_defaults_via_from_optional_refresh_exactly() {
        use banks_graph::{MutationBatch, NodeId};
        // from_optional with nothing supplied behaves like with_defaults:
        // label deltas apply in full (removals included)
        let snap = GraphSnapshot::from_optional(tiny(), None, None);
        let (next, _) = snap.apply_batch(&MutationBatch::new().set_label(NodeId(0), "Edgar Codd"));
        assert!(next.index().postings("gray").is_empty(), "relabel removes");
        assert_eq!(next.index().postings("codd"), &[NodeId(0)]);
    }

    #[test]
    fn maybe_compact_flattens_without_changing_epoch_or_contents() {
        use banks_graph::{MutationBatch, NodeId};
        let snap = GraphSnapshot::with_defaults(tiny());
        let (mut next, _) = snap.apply_batch(&MutationBatch::new().add_edge(NodeId(0), NodeId(1)));
        assert!(next.graph().has_overlay());
        let epoch = next.epoch();
        // the edge add fans out to every node of the tiny graph: ratio 1.0
        assert!(!next.maybe_compact(1.5), "below threshold: untouched");
        assert!(next.graph().has_overlay());
        assert!(next.maybe_compact(0.1), "above threshold: flattened");
        assert!(!next.graph().has_overlay());
        assert_eq!(next.epoch(), epoch, "same contents, same epoch");
        assert!(next.graph().has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn apply_batch_carries_pinned_prestige_forward() {
        use banks_graph::{MutationBatch, NodeId};
        use banks_prestige::PrestigeVector;
        let graph = tiny();
        let prestige = PrestigeVector::from_values(vec![0.5, 0.25, 0.125]);
        let index = banks_core::build_label_index(&graph);
        let snap = GraphSnapshot::new(graph, prestige, index);
        let (next, _) = snap.apply_batch(&MutationBatch::new().add_node("author", "Mohan"));
        assert_eq!(next.prestige().len(), 4);
        assert_eq!(next.prestige().get(NodeId(0)), 0.5, "existing kept");
        assert_eq!(next.prestige().get(NodeId(3)), 0.5, "new node gets max");
    }
}
