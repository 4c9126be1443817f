//! First-class graph mutations: incremental updates without a rebuild.
//!
//! BANKS assumes the data graph is kept current as the underlying database
//! changes.  Historically this repo's only update path was wholesale
//! replacement — rebuild the CSR adjacency, the prestige vector and the
//! inverted index from scratch and swap the snapshot.  This module makes
//! *mutations* the first-class API instead:
//!
//! * [`GraphMutation`] — one atomic change (add a node or edge, remove an
//!   edge, relabel a node, reweight an edge),
//! * [`MutationBatch`] — an ordered list of mutations applied together,
//! * [`DataGraph::apply_batch`] — produces a **structurally-shared
//!   successor graph** under a fresh epoch: the bulk CSR base is shared
//!   untouched behind an `Arc`, and only the adjacency rows the batch
//!   actually dirtied are rewritten into the copy-on-write overlay,
//! * [`BatchOutcome`] — per-op accept/reject results plus the delta the
//!   layers above need (dirty nodes for prestige refresh, label changes for
//!   index deltas, newly interned kinds).
//!
//! ## Semantics
//!
//! Ops apply **in order** and see the effects of earlier ops in the same
//! batch (an edge may target a node added three ops earlier).  A rejected
//! op changes nothing and does not abort the batch — the outcome records
//! one `Result` per op.  The successor graph is *equivalent to a from-
//! scratch rebuild* of the same final state: adjacency rows, derived
//! backward-edge weights (which depend on the head node's forward
//! in-degree, so edge insertions fan out to the head's other backward
//! edges) and iteration order are all byte-identical to what
//! [`crate::GraphBuilder`] would produce — the property the randomized
//! equivalence suite asserts through all three search engines.
//!
//! * `AddEdge`/`RemoveEdge`/`SetWeight` address *forward* edges; derived
//!   backward edges follow automatically, including the weight fan-out to
//!   every backward edge leaving a node whose in-degree changed.
//! * `RemoveEdge` and `SetWeight` affect **all** parallel forward edges
//!   between the pair.
//! * Self-loops are rejected (the tuple graphs the paper models never
//!   contain them).
//!
//! Cost: O(Σ degree of dirtied rows), not O(V + E).  A node whose
//! in-degree changed dirties its own rows plus the in-rows of its forward
//! predecessors (their backward edges from it change weight) — still local,
//! bounded by the neighbourhood of the touched nodes.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use crate::error::GraphError;
use crate::graph::{fresh_epoch, DataGraph, OverlayEdge};
use crate::ids::{KindId, NodeId};
use crate::node::{EdgeKind, NodeMeta};

/// One atomic change to a [`DataGraph`].
#[derive(Clone, Debug, PartialEq)]
pub enum GraphMutation {
    /// Appends a node of the given kind (interned by name, created if new)
    /// with a display label.  The node id is assigned densely.
    AddNode {
        /// Kind (relation) name, e.g. `"paper"`.
        kind: String,
        /// Display label; also what label-based keyword indexes tokenize.
        label: String,
    },
    /// Adds an original forward edge `from -> to`.
    AddEdge {
        /// Tail of the edge.
        from: NodeId,
        /// Head of the edge.
        to: NodeId,
        /// Forward weight; `None` uses the policy default.
        weight: Option<f64>,
    },
    /// Removes **every** forward edge `from -> to` (and the derived
    /// backward edges).  Rejected if none exists.
    RemoveEdge {
        /// Tail of the edge(s).
        from: NodeId,
        /// Head of the edge(s).
        to: NodeId,
    },
    /// Replaces a node's display label.
    SetLabel {
        /// The node to relabel.
        node: NodeId,
        /// The new label.
        label: String,
    },
    /// Sets the forward weight of **every** forward edge `from -> to`
    /// (derived backward weights follow).  Rejected if none exists.
    SetWeight {
        /// Tail of the edge(s).
        from: NodeId,
        /// Head of the edge(s).
        to: NodeId,
        /// The new forward weight (finite, positive).
        weight: f64,
    },
    /// Removes a node: every incident forward edge (in both directions,
    /// with the usual backward-weight fan-out to affected neighbours) is
    /// removed, the label is cleared so keyword indexes drop its postings,
    /// and the id is **tombstoned** — never remapped, never reused, skipped
    /// by kind scans, and rejected by every later op that addresses it.
    /// Compaction carries tombstones into the flat base so the dense id
    /// space (which caches, WAL records and replicas key on) never shifts.
    RemoveNode {
        /// The node to remove.
        node: NodeId,
    },
}

/// An ordered list of [`GraphMutation`]s applied as one unit.
///
/// ```
/// use banks_graph::builder::graph_from_edges;
/// use banks_graph::{MutationBatch, NodeId};
///
/// let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
/// let batch = MutationBatch::new()
///     .add_node("node", "v3")
///     .add_edge(NodeId(2), NodeId(3))
///     .remove_edge(NodeId(0), NodeId(1));
/// let (g2, outcome) = g.apply_batch(&batch);
/// assert_eq!(outcome.accepted(), 3);
/// assert_eq!(g2.num_nodes(), 4);
/// assert!(g2.has_edge(NodeId(2), NodeId(3)));
/// assert!(!g2.has_edge(NodeId(0), NodeId(1)));
/// assert_ne!(g2.epoch(), g.epoch(), "successors get a fresh epoch");
/// assert!(g.has_edge(NodeId(0), NodeId(1)), "the ancestor is untouched");
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MutationBatch {
    ops: Vec<GraphMutation>,
}

impl MutationBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an arbitrary op.
    pub fn push(&mut self, op: GraphMutation) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Chainable [`GraphMutation::AddNode`].
    pub fn add_node(mut self, kind: impl Into<String>, label: impl Into<String>) -> Self {
        self.ops.push(GraphMutation::AddNode {
            kind: kind.into(),
            label: label.into(),
        });
        self
    }

    /// Chainable [`GraphMutation::AddEdge`] with the policy-default weight.
    pub fn add_edge(mut self, from: NodeId, to: NodeId) -> Self {
        self.ops.push(GraphMutation::AddEdge {
            from,
            to,
            weight: None,
        });
        self
    }

    /// Chainable [`GraphMutation::AddEdge`] with an explicit weight.
    pub fn add_edge_weighted(mut self, from: NodeId, to: NodeId, weight: f64) -> Self {
        self.ops.push(GraphMutation::AddEdge {
            from,
            to,
            weight: Some(weight),
        });
        self
    }

    /// Chainable [`GraphMutation::RemoveEdge`].
    pub fn remove_edge(mut self, from: NodeId, to: NodeId) -> Self {
        self.ops.push(GraphMutation::RemoveEdge { from, to });
        self
    }

    /// Chainable [`GraphMutation::SetLabel`].
    pub fn set_label(mut self, node: NodeId, label: impl Into<String>) -> Self {
        self.ops.push(GraphMutation::SetLabel {
            node,
            label: label.into(),
        });
        self
    }

    /// Chainable [`GraphMutation::SetWeight`].
    pub fn set_weight(mut self, from: NodeId, to: NodeId, weight: f64) -> Self {
        self.ops.push(GraphMutation::SetWeight { from, to, weight });
        self
    }

    /// Chainable [`GraphMutation::RemoveNode`].
    pub fn remove_node(mut self, node: NodeId) -> Self {
        self.ops.push(GraphMutation::RemoveNode { node });
        self
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[GraphMutation] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch contains no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// What an accepted op did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpEffect {
    /// A node was appended under this id.
    NodeAdded(NodeId),
    /// One forward edge was added.
    EdgeAdded {
        /// Tail of the new edge.
        from: NodeId,
        /// Head of the new edge.
        to: NodeId,
    },
    /// `count` parallel forward edges were removed.
    EdgesRemoved {
        /// Tail of the removed edge(s).
        from: NodeId,
        /// Head of the removed edge(s).
        to: NodeId,
        /// How many parallel forward edges went away.
        count: usize,
    },
    /// A node's label was replaced.
    LabelSet(NodeId),
    /// `count` parallel forward edges were reweighted.
    WeightSet {
        /// Tail of the reweighted edge(s).
        from: NodeId,
        /// Head of the reweighted edge(s).
        to: NodeId,
        /// How many parallel forward edges changed weight.
        count: usize,
    },
    /// A node was tombstoned and its incident edges removed.
    NodeRemoved {
        /// The removed node.
        node: NodeId,
        /// How many forward edges (in both directions) went away with it.
        edges_removed: usize,
    },
}

/// A label change an accepted batch produced, in the form keyword-index
/// deltas consume: the node and the label it had *before* the batch
/// (`None` for nodes the batch itself added).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelChange {
    /// The node whose indexed text changed.
    pub node: NodeId,
    /// The pre-batch label (what the index currently holds), or `None` if
    /// the node did not exist before the batch.
    pub old_label: Option<String>,
}

/// Everything [`DataGraph::apply_batch`] reports back: per-op results plus
/// the delta the derived structures (prestige, keyword index) need.  The
/// default is the outcome of running no op at all.
#[derive(Clone, Debug, Default)]
pub struct BatchOutcome {
    /// One result per op, in batch order: the effect, or why the op was
    /// rejected.  Rejected ops change nothing.
    pub results: Vec<std::result::Result<OpEffect, GraphError>>,
    /// Nodes whose forward in-degree changed, plus every node the batch
    /// added — the dirty set an incremental prestige recompute refreshes.
    pub dirty_nodes: Vec<NodeId>,
    /// Nodes whose indexed text changed (added or relabelled), with their
    /// pre-batch labels — the input to an inverted-index delta.
    pub label_changes: Vec<LabelChange>,
    /// Kind names the batch interned for the first time, with their ids —
    /// keyword indexes register these as relation-name pseudo terms.
    pub new_kinds: Vec<(String, KindId)>,
}

impl BatchOutcome {
    /// Number of accepted ops.
    pub fn accepted(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Number of rejected ops.
    pub fn rejected(&self) -> usize {
        self.results.len() - self.accepted()
    }
}

impl DataGraph {
    /// Applies a [`MutationBatch`], producing a structurally-shared
    /// successor graph (fresh epoch) and the per-op [`BatchOutcome`].
    ///
    /// `self` is untouched — it remains a fully valid graph for in-flight
    /// readers, sharing its base storage with the successor.  See the
    /// [module docs](crate::mutation) for semantics and cost.
    pub fn apply_batch(&self, batch: &MutationBatch) -> (DataGraph, BatchOutcome) {
        let mut delta = DeltaBuilder::new(self);
        let results: Vec<_> = batch.ops().iter().map(|op| delta.apply(op)).collect();
        delta.finish(results)
    }
}

/// Working state while a batch is applied: lazily-materialised forward
/// adjacency for touched nodes, pending metadata, and the dirty sets the
/// final row rebuild works from.
struct DeltaBuilder<'g> {
    g: &'g DataGraph,
    /// `g.num_nodes()` — ids at or above this are batch-added.
    base_nodes: usize,
    new_kinds: Vec<String>,
    new_meta: Vec<NodeMeta>,
    /// Base-node label overrides (batch-added nodes are edited in
    /// `new_meta` directly).
    label_patch: HashMap<u32, String>,
    /// First-seen pre-batch label per text-changed node (`None`: added by
    /// this batch).  BTreeMap for deterministic outcome ordering.
    label_old: BTreeMap<u32, Option<String>>,
    /// Current forward out-lists `(to, weight)` of materialised nodes.
    fwd_out: HashMap<u32, Vec<(u32, f64)>>,
    /// Current forward in-lists `(from, weight)` of materialised nodes.
    fwd_in: HashMap<u32, Vec<(u32, f64)>>,
    indeg_delta: HashMap<u32, i64>,
    outdeg_delta: HashMap<u32, i64>,
    /// Nodes whose own adjacency definitely changed.
    touched: BTreeSet<u32>,
    /// Nodes tombstoned by this batch (on top of the graph's own set).
    tombstoned: BTreeSet<u32>,
    original_edges_delta: i64,
}

impl<'g> DeltaBuilder<'g> {
    fn new(g: &'g DataGraph) -> Self {
        DeltaBuilder {
            g,
            base_nodes: g.num_nodes(),
            new_kinds: Vec::new(),
            new_meta: Vec::new(),
            label_patch: HashMap::new(),
            label_old: BTreeMap::new(),
            fwd_out: HashMap::new(),
            fwd_in: HashMap::new(),
            indeg_delta: HashMap::new(),
            outdeg_delta: HashMap::new(),
            touched: BTreeSet::new(),
            tombstoned: BTreeSet::new(),
            original_edges_delta: 0,
        }
    }

    fn num_nodes(&self) -> usize {
        self.base_nodes + self.new_meta.len()
    }

    fn check_node(&self, node: NodeId) -> std::result::Result<(), GraphError> {
        if node.index() >= self.num_nodes() {
            Err(GraphError::NodeOutOfBounds {
                node,
                len: self.num_nodes(),
            })
        } else {
            Ok(())
        }
    }

    /// Bounds check plus tombstone check: ops may not address a node the
    /// graph (or an earlier op in this batch) removed.
    fn check_live(&self, node: NodeId) -> std::result::Result<(), GraphError> {
        self.check_node(node)?;
        if self.tombstoned.contains(&node.0) || self.g.is_tombstoned(node) {
            return Err(GraphError::NodeTombstoned { node });
        }
        Ok(())
    }

    fn ensure_fwd_out(&mut self, u: u32) {
        if !self.fwd_out.contains_key(&u) {
            let list: Vec<(u32, f64)> = if (u as usize) < self.base_nodes {
                self.g
                    .out_edges(NodeId(u))
                    .filter(|e| e.kind.is_forward())
                    .map(|e| (e.to.0, e.weight))
                    .collect()
            } else {
                Vec::new()
            };
            self.fwd_out.insert(u, list);
        }
    }

    fn ensure_fwd_in(&mut self, v: u32) {
        if !self.fwd_in.contains_key(&v) {
            let list: Vec<(u32, f64)> = if (v as usize) < self.base_nodes {
                self.g
                    .in_edges(NodeId(v))
                    .filter(|e| e.kind.is_forward())
                    .map(|e| (e.from.0, e.weight))
                    .collect()
            } else {
                Vec::new()
            };
            self.fwd_in.insert(v, list);
        }
    }

    fn apply(&mut self, op: &GraphMutation) -> std::result::Result<OpEffect, GraphError> {
        match op {
            GraphMutation::AddNode { kind, label } => self.add_node(kind, label),
            GraphMutation::AddEdge { from, to, weight } => self.add_edge(*from, *to, *weight),
            GraphMutation::RemoveEdge { from, to } => self.remove_edge(*from, *to),
            GraphMutation::SetLabel { node, label } => self.set_label(*node, label),
            GraphMutation::SetWeight { from, to, weight } => self.set_weight(*from, *to, *weight),
            GraphMutation::RemoveNode { node } => self.remove_node(*node),
        }
    }

    fn intern_kind(&mut self, name: &str) -> std::result::Result<KindId, GraphError> {
        if let Some(id) = self.g.kind_by_name(name) {
            return Ok(id);
        }
        let existing = self.g.num_kinds();
        if let Some(pos) = self.new_kinds.iter().position(|k| k == name) {
            return Ok(KindId::from_index(existing + pos));
        }
        if existing + self.new_kinds.len() >= u16::MAX as usize {
            return Err(GraphError::TooManyKinds);
        }
        self.new_kinds.push(name.to_string());
        Ok(KindId::from_index(existing + self.new_kinds.len() - 1))
    }

    fn add_node(&mut self, kind: &str, label: &str) -> std::result::Result<OpEffect, GraphError> {
        let id = self.num_nodes();
        if id >= u32::MAX as usize {
            return Err(GraphError::NodeOutOfBounds {
                node: NodeId::MAX,
                len: id,
            });
        }
        let kind = self.intern_kind(kind)?;
        self.new_meta.push(NodeMeta::new(kind, label));
        let node = NodeId::from_index(id);
        self.label_old.insert(node.0, None);
        Ok(OpEffect::NodeAdded(node))
    }

    fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        weight: Option<f64>,
    ) -> std::result::Result<OpEffect, GraphError> {
        self.check_live(from)?;
        self.check_live(to)?;
        if from == to {
            return Err(GraphError::SelfLoop { node: from });
        }
        let w = match weight {
            Some(w) if !w.is_finite() || w <= 0.0 => {
                return Err(GraphError::InvalidEdgeWeight {
                    from,
                    to,
                    weight: w,
                });
            }
            Some(w) => w,
            None => self.g.policy().default_forward_weight,
        };
        self.ensure_fwd_out(from.0);
        self.ensure_fwd_in(to.0);
        self.fwd_out
            .get_mut(&from.0)
            .expect("ensured")
            .push((to.0, w));
        self.fwd_in
            .get_mut(&to.0)
            .expect("ensured")
            .push((from.0, w));
        *self.indeg_delta.entry(to.0).or_insert(0) += 1;
        *self.outdeg_delta.entry(from.0).or_insert(0) += 1;
        self.touched.insert(from.0);
        self.touched.insert(to.0);
        self.original_edges_delta += 1;
        Ok(OpEffect::EdgeAdded { from, to })
    }

    fn remove_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
    ) -> std::result::Result<OpEffect, GraphError> {
        self.check_live(from)?;
        self.check_live(to)?;
        self.ensure_fwd_out(from.0);
        let count = self
            .fwd_out
            .get(&from.0)
            .expect("ensured")
            .iter()
            .filter(|(t, _)| *t == to.0)
            .count();
        if count == 0 {
            return Err(GraphError::EdgeNotFound { from, to });
        }
        self.ensure_fwd_in(to.0);
        self.fwd_out
            .get_mut(&from.0)
            .expect("ensured")
            .retain(|(t, _)| *t != to.0);
        self.fwd_in
            .get_mut(&to.0)
            .expect("ensured")
            .retain(|(f, _)| *f != from.0);
        *self.indeg_delta.entry(to.0).or_insert(0) -= count as i64;
        *self.outdeg_delta.entry(from.0).or_insert(0) -= count as i64;
        self.touched.insert(from.0);
        self.touched.insert(to.0);
        self.original_edges_delta -= count as i64;
        Ok(OpEffect::EdgesRemoved { from, to, count })
    }

    fn set_label(
        &mut self,
        node: NodeId,
        label: &str,
    ) -> std::result::Result<OpEffect, GraphError> {
        self.check_live(node)?;
        if node.index() >= self.base_nodes {
            // Batch-added node: edit in place; `label_old` already records
            // that the node has no pre-batch text.
            self.new_meta[node.index() - self.base_nodes].label = label.to_string();
        } else {
            self.label_old
                .entry(node.0)
                .or_insert_with(|| Some(self.g.node_label(node).to_string()));
            self.label_patch.insert(node.0, label.to_string());
        }
        Ok(OpEffect::LabelSet(node))
    }

    fn set_weight(
        &mut self,
        from: NodeId,
        to: NodeId,
        weight: f64,
    ) -> std::result::Result<OpEffect, GraphError> {
        self.check_live(from)?;
        self.check_live(to)?;
        if !weight.is_finite() || weight <= 0.0 {
            return Err(GraphError::InvalidEdgeWeight { from, to, weight });
        }
        self.ensure_fwd_out(from.0);
        let count = self
            .fwd_out
            .get(&from.0)
            .expect("ensured")
            .iter()
            .filter(|(t, _)| *t == to.0)
            .count();
        if count == 0 {
            return Err(GraphError::EdgeNotFound { from, to });
        }
        self.ensure_fwd_in(to.0);
        for (t, w) in self.fwd_out.get_mut(&from.0).expect("ensured") {
            if *t == to.0 {
                *w = weight;
            }
        }
        for (f, w) in self.fwd_in.get_mut(&to.0).expect("ensured") {
            if *f == from.0 {
                *w = weight;
            }
        }
        self.touched.insert(from.0);
        self.touched.insert(to.0);
        Ok(OpEffect::WeightSet { from, to, count })
    }

    fn remove_node(&mut self, node: NodeId) -> std::result::Result<OpEffect, GraphError> {
        self.check_live(node)?;
        let n = node.0;
        self.ensure_fwd_out(n);
        self.ensure_fwd_in(n);
        // Distinct neighbour sets first: `remove_edge` takes out all
        // parallel edges of a pair at once, with the standard indegree and
        // backward-weight bookkeeping.
        let out_targets: BTreeSet<u32> = self.fwd_out[&n].iter().map(|(t, _)| *t).collect();
        // Self-loops are removed by the out pass; revisiting them from the
        // in side would address an edge that is already gone.
        let in_sources: BTreeSet<u32> = self.fwd_in[&n]
            .iter()
            .map(|(f, _)| *f)
            .filter(|f| *f != n)
            .collect();
        let mut edges_removed = 0usize;
        for t in out_targets {
            match self.remove_edge(node, NodeId(t)) {
                Ok(OpEffect::EdgesRemoved { count, .. }) => edges_removed += count,
                other => unreachable!("edge from materialised list must remove: {other:?}"),
            }
        }
        for s in in_sources {
            match self.remove_edge(NodeId(s), node) {
                Ok(OpEffect::EdgesRemoved { count, .. }) => edges_removed += count,
                other => unreachable!("edge from materialised list must remove: {other:?}"),
            }
        }
        // Clear the label so keyword-index deltas drop the node's postings.
        self.set_label(node, "")?;
        self.tombstoned.insert(n);
        self.touched.insert(n);
        Ok(OpEffect::NodeRemoved {
            node,
            edges_removed,
        })
    }

    /// Final forward in-degree of a node after the batch.
    fn indeg_final(&self, n: u32) -> usize {
        let base = if (n as usize) < self.base_nodes {
            self.g.forward_indegree(NodeId(n)) as i64
        } else {
            0
        };
        (base + self.indeg_delta.get(&n).copied().unwrap_or(0)) as usize
    }

    fn finish(
        mut self,
        results: Vec<std::result::Result<OpEffect, GraphError>>,
    ) -> (DataGraph, BatchOutcome) {
        // Nodes whose forward in-degree changed: their *own* out-row (the
        // backward edges they hand out) and the in-rows of every forward
        // predecessor (which hold those backward edges) must be rebuilt
        // with the new `log2(1 + indegree)` weights.
        let indeg_changed: BTreeSet<u32> = self
            .indeg_delta
            .iter()
            .filter(|(_, d)| **d != 0)
            .map(|(n, _)| *n)
            .collect();
        let fan_out_needed = self.g.policy().add_backward_edges;
        let mut rebuild: BTreeSet<u32> = self.touched.clone();
        rebuild.extend(indeg_changed.iter().copied());
        if fan_out_needed {
            for &v in &indeg_changed {
                self.ensure_fwd_in(v);
                let preds: Vec<u32> = self.fwd_in[&v].iter().map(|(f, _)| *f).collect();
                rebuild.extend(preds);
            }
        }

        // Rebuild both rows of every affected node from the final forward
        // lists, sorted exactly as the CSR sorts (target id, then kind) so
        // a from-scratch rebuild is byte-identical.
        let policy = self.g.policy();
        let mut new_out_rows: Vec<(u32, Vec<OverlayEdge>)> = Vec::with_capacity(rebuild.len());
        let mut new_inc_rows: Vec<(u32, Vec<OverlayEdge>)> = Vec::with_capacity(rebuild.len());
        let mut directed_delta: i64 = 0;
        for &r in &rebuild {
            self.ensure_fwd_out(r);
            self.ensure_fwd_in(r);
            let out_list = &self.fwd_out[&r];
            let in_list = &self.fwd_in[&r];

            let mut out_row: Vec<OverlayEdge> = Vec::with_capacity(
                out_list.len()
                    + if policy.add_backward_edges {
                        in_list.len()
                    } else {
                        0
                    },
            );
            for (to, w) in out_list {
                out_row.push((*to, *w, EdgeKind::Forward));
            }
            if policy.add_backward_edges {
                let indeg_r = self.indeg_final(r);
                for (from, w) in in_list {
                    out_row.push((
                        *from,
                        policy.backward_weight.backward_weight(*w, indeg_r),
                        EdgeKind::Backward,
                    ));
                }
            }
            out_row.sort_by(|a, b| {
                a.0.cmp(&b.0)
                    .then_with(|| a.2.is_backward().cmp(&b.2.is_backward()))
            });

            let mut inc_row: Vec<OverlayEdge> = Vec::with_capacity(
                in_list.len()
                    + if policy.add_backward_edges {
                        out_list.len()
                    } else {
                        0
                    },
            );
            for (from, w) in in_list {
                inc_row.push((*from, *w, EdgeKind::Forward));
            }
            if policy.add_backward_edges {
                for (to, w) in out_list {
                    inc_row.push((
                        *to,
                        policy
                            .backward_weight
                            .backward_weight(*w, self.indeg_final(*to)),
                        EdgeKind::Backward,
                    ));
                }
            }
            inc_row.sort_by(|a, b| {
                a.0.cmp(&b.0)
                    .then_with(|| a.2.is_backward().cmp(&b.2.is_backward()))
            });

            let old_out_degree = if (r as usize) < self.base_nodes {
                self.g.out_degree(NodeId(r)) as i64
            } else {
                0
            };
            directed_delta += out_row.len() as i64 - old_out_degree;
            new_out_rows.push((r, out_row));
            new_inc_rows.push((r, inc_row));
        }

        // Assemble the successor: clone the (small) overlay, install the
        // rebuilt rows, append nodes/kinds, patch metadata and degrees.
        let new_meta = std::mem::take(&mut self.new_meta);
        let new_kinds = std::mem::take(&mut self.new_kinds);
        let label_patch = std::mem::take(&mut self.label_patch);
        let label_old = std::mem::take(&mut self.label_old);

        let mut overlay = self.g.overlay.clone();
        for (r, row) in new_out_rows {
            overlay.out_rows.insert(r, Arc::new(row));
        }
        for (r, row) in new_inc_rows {
            overlay.inc_rows.insert(r, Arc::new(row));
        }
        overlay.extra_meta.extend(new_meta);
        overlay.extra_kinds.extend(new_kinds.iter().cloned());
        let arc_base_nodes = self.g.base_nodes();
        for (node, label) in &label_patch {
            if (*node as usize) < arc_base_nodes {
                let kind = self.g.node_kind(NodeId(*node));
                overlay
                    .meta_patch
                    .insert(*node, NodeMeta::new(kind, label.clone()));
            } else {
                // The node lives in an earlier batch's overlay extension.
                overlay.extra_meta[*node as usize - arc_base_nodes].label = label.clone();
            }
        }
        for (&n, &d) in &self.indeg_delta {
            if d != 0 {
                overlay.indegree_patch.insert(n, self.indeg_final(n) as u32);
            }
        }
        for (&n, &d) in &self.outdeg_delta {
            if d != 0 {
                let base = if (n as usize) < self.base_nodes {
                    self.g.forward_outdegree(NodeId(n)) as i64
                } else {
                    0
                };
                overlay.outdegree_patch.insert(n, (base + d) as u32);
            }
        }
        overlay.tombstones.extend(self.tombstoned.iter().copied());

        let graph = DataGraph {
            base: Arc::clone(&self.g.base),
            overlay,
            num_original_edges: (self.g.num_original_edges() as i64 + self.original_edges_delta)
                as usize,
            num_directed_edges: (self.g.num_directed_edges() as i64 + directed_delta) as usize,
            policy,
            epoch: fresh_epoch(),
        };

        let mut dirty: BTreeSet<u32> = indeg_changed;
        for i in self.base_nodes..graph.num_nodes() {
            dirty.insert(i as u32);
        }
        let num_kinds_before = self.g.num_kinds();
        let outcome = BatchOutcome {
            results,
            dirty_nodes: dirty.into_iter().map(NodeId).collect(),
            label_changes: label_old
                .into_iter()
                .map(|(node, old_label)| LabelChange {
                    node: NodeId(node),
                    old_label,
                })
                .collect(),
            new_kinds: new_kinds
                .into_iter()
                .enumerate()
                .map(|(i, name)| (name, KindId::from_index(num_kinds_before + i)))
                .collect(),
        };
        (graph, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, graph_from_weighted_edges, GraphBuilder};
    use crate::weights::ExpansionPolicy;

    fn rows(g: &DataGraph, u: u32) -> Vec<(u32, f64, bool)> {
        g.out_edges(NodeId(u))
            .map(|e| (e.to.0, e.weight, e.kind.is_backward()))
            .collect()
    }

    /// Mutated graph and from-scratch rebuild must agree on every row.
    fn assert_graphs_identical(a: &DataGraph, b: &DataGraph) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_original_edges(), b.num_original_edges());
        assert_eq!(a.num_directed_edges(), b.num_directed_edges());
        assert_eq!(a.num_kinds(), b.num_kinds());
        for u in a.nodes() {
            assert_eq!(a.node_kind_name(u), b.node_kind_name(u), "kind of {u:?}");
            assert_eq!(a.node_label(u), b.node_label(u), "label of {u:?}");
            assert_eq!(
                a.forward_indegree(u),
                b.forward_indegree(u),
                "indegree of {u:?}"
            );
            assert_eq!(
                a.forward_outdegree(u),
                b.forward_outdegree(u),
                "outdegree of {u:?}"
            );
            let ra: Vec<_> = a
                .out_edges(u)
                .map(|e| (e.to.0, e.weight.to_bits(), e.kind))
                .collect();
            let rb: Vec<_> = b
                .out_edges(u)
                .map(|e| (e.to.0, e.weight.to_bits(), e.kind))
                .collect();
            assert_eq!(ra, rb, "out row of {u:?}");
            let ia: Vec<_> = a
                .in_edges(u)
                .map(|e| (e.from.0, e.weight.to_bits(), e.kind))
                .collect();
            let ib: Vec<_> = b
                .in_edges(u)
                .map(|e| (e.from.0, e.weight.to_bits(), e.kind))
                .collect();
            assert_eq!(ia, ib, "in row of {u:?}");
        }
    }

    #[test]
    fn add_edge_matches_rebuild_including_backward_fanout() {
        // 3 papers cite one conference; adding a 4th changes the backward
        // weight of *every* edge the conference hands out.
        let g = graph_from_edges(5, &[(1, 0), (2, 0), (3, 0)]);
        let (g2, outcome) = g.apply_batch(&MutationBatch::new().add_edge(NodeId(4), NodeId(0)));
        assert_eq!(outcome.accepted(), 1);
        let rebuilt = graph_from_edges(5, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        assert_graphs_identical(&g2, &rebuilt);
        // log2(1 + 4) backward weights now
        let w = g2
            .out_edges(NodeId(0))
            .find(|e| e.to == NodeId(1))
            .unwrap()
            .weight;
        assert!((w - (5f64).log2()).abs() < 1e-12);
        // The ancestor still sees the old world.
        assert_eq!(g.forward_indegree(NodeId(0)), 3);
        assert!(!g.has_edge(NodeId(4), NodeId(0)));
    }

    #[test]
    fn remove_edge_matches_rebuild() {
        let g = graph_from_edges(5, &[(1, 0), (2, 0), (3, 0), (3, 4)]);
        let (g2, outcome) = g.apply_batch(&MutationBatch::new().remove_edge(NodeId(2), NodeId(0)));
        assert_eq!(outcome.accepted(), 1);
        assert_graphs_identical(&g2, &graph_from_edges(5, &[(1, 0), (3, 0), (3, 4)]));
    }

    #[test]
    fn add_node_and_edge_in_one_batch() {
        let g = {
            let mut b = GraphBuilder::new();
            let a = b.add_node("author", "Gray");
            let p = b.add_node("paper", "Locks");
            b.add_edge(p, a).unwrap();
            b.build_default()
        };
        let batch = MutationBatch::new()
            .add_node("writes", "w1")
            .add_edge(NodeId(2), NodeId(0))
            .add_edge(NodeId(2), NodeId(1));
        let (g2, outcome) = g.apply_batch(&batch);
        assert_eq!(outcome.accepted(), 3);
        assert_eq!(outcome.new_kinds.len(), 1);
        assert_eq!(outcome.new_kinds[0].0, "writes");
        let rebuilt = {
            let mut b = GraphBuilder::new();
            let a = b.add_node("author", "Gray");
            let p = b.add_node("paper", "Locks");
            let w = b.add_node("writes", "w1");
            b.add_edge(p, a).unwrap();
            b.add_edge(w, a).unwrap();
            b.add_edge(w, p).unwrap();
            b.build_default()
        };
        assert_graphs_identical(&g2, &rebuilt);
        assert_eq!(g2.kind_by_name("writes"), Some(KindId(2)));
        assert_eq!(g2.node_label(NodeId(2)), "w1");
    }

    #[test]
    fn set_weight_and_label_match_rebuild() {
        let g = graph_from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
        let batch = MutationBatch::new()
            .set_weight(NodeId(0), NodeId(1), 5.0)
            .set_label(NodeId(2), "renamed");
        let (g2, outcome) = g.apply_batch(&batch);
        assert_eq!(outcome.accepted(), 2);
        assert_eq!(g2.node_label(NodeId(2)), "renamed");
        assert_eq!(g2.forward_edge_weight(NodeId(0), NodeId(1)), Some(5.0));
        assert_eq!(
            outcome.label_changes,
            vec![LabelChange {
                node: NodeId(2),
                old_label: Some("v2".to_string())
            }]
        );
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(
                "node",
                if i == 2 {
                    "renamed".into()
                } else {
                    format!("v{i}")
                },
            );
        }
        b.add_edge_weighted(NodeId(0), NodeId(1), 5.0).unwrap();
        b.add_edge_weighted(NodeId(1), NodeId(2), 2.0).unwrap();
        assert_graphs_identical(&g2, &b.build_default());
    }

    #[test]
    fn rejected_ops_change_nothing() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let batch = MutationBatch::new()
            .add_edge(NodeId(0), NodeId(9)) // out of bounds
            .add_edge(NodeId(1), NodeId(1)) // self loop
            .add_edge_weighted(NodeId(1), NodeId(2), -1.0) // bad weight
            .remove_edge(NodeId(1), NodeId(0)) // only a backward edge exists
            .set_weight(NodeId(2), NodeId(0), 1.0) // no such edge
            .add_edge(NodeId(1), NodeId(2)); // fine
        let (g2, outcome) = g.apply_batch(&batch);
        assert_eq!(outcome.accepted(), 1);
        assert_eq!(outcome.rejected(), 5);
        assert!(matches!(
            outcome.results[0],
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        assert!(matches!(
            outcome.results[1],
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            outcome.results[2],
            Err(GraphError::InvalidEdgeWeight { .. })
        ));
        assert!(matches!(
            outcome.results[3],
            Err(GraphError::EdgeNotFound { .. })
        ));
        assert!(matches!(
            outcome.results[4],
            Err(GraphError::EdgeNotFound { .. })
        ));
        assert_graphs_identical(&g2, &graph_from_edges(3, &[(0, 1), (1, 2)]));
    }

    #[test]
    fn empty_batch_accepts_nothing_and_changes_nothing() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let (g2, outcome) = g.apply_batch(&MutationBatch::new());
        assert_eq!(outcome.accepted(), 0);
        assert_graphs_identical(&g2, &g);
    }

    #[test]
    fn chained_batches_compose() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let (g2, _) = g.apply_batch(&MutationBatch::new().add_edge(NodeId(1), NodeId(2)));
        let (g3, _) = g2.apply_batch(
            &MutationBatch::new()
                .add_node("node", "v3")
                .add_edge(NodeId(2), NodeId(3))
                .remove_edge(NodeId(0), NodeId(1)),
        );
        let rebuilt = {
            let mut b = GraphBuilder::new();
            for i in 0..4 {
                b.add_node("node", format!("v{i}"));
            }
            b.add_edge(NodeId(1), NodeId(2)).unwrap();
            b.add_edge(NodeId(2), NodeId(3)).unwrap();
            b.build_default()
        };
        assert_graphs_identical(&g3, &rebuilt);
        // relabel a node that itself lives in an earlier batch's overlay
        let (g4, _) = g3.apply_batch(&MutationBatch::new().set_label(NodeId(3), "late"));
        assert_eq!(g4.node_label(NodeId(3)), "late");
        assert_eq!(g3.node_label(NodeId(3)), "v3", "ancestor unchanged");
    }

    #[test]
    fn directed_only_policy_skips_backward_bookkeeping() {
        let g = {
            let mut b = GraphBuilder::new();
            for i in 0..3 {
                b.add_node("node", format!("v{i}"));
            }
            b.add_edge(NodeId(0), NodeId(1)).unwrap();
            b.build(ExpansionPolicy::directed_only())
        };
        let (g2, _) = g.apply_batch(&MutationBatch::new().add_edge(NodeId(2), NodeId(1)));
        assert_eq!(g2.num_directed_edges(), 2);
        assert!(!g2.has_edge(NodeId(1), NodeId(2)), "no backward edges");
        let rebuilt = {
            let mut b = GraphBuilder::new();
            for i in 0..3 {
                b.add_node("node", format!("v{i}"));
            }
            b.add_edge(NodeId(0), NodeId(1)).unwrap();
            b.add_edge(NodeId(2), NodeId(1)).unwrap();
            b.build(ExpansionPolicy::directed_only())
        };
        assert_graphs_identical(&g2, &rebuilt);
    }

    #[test]
    fn parallel_edges_are_removed_and_reweighted_together() {
        let mut b = GraphBuilder::new();
        for i in 0..2 {
            b.add_node("node", format!("v{i}"));
        }
        b.add_edge_weighted(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge_weighted(NodeId(0), NodeId(1), 2.0).unwrap();
        let g = b.build_default();
        let (g2, outcome) =
            g.apply_batch(&MutationBatch::new().set_weight(NodeId(0), NodeId(1), 3.0));
        assert!(matches!(
            outcome.results[0],
            Ok(OpEffect::WeightSet { count: 2, .. })
        ));
        assert_eq!(g2.forward_edge_weight(NodeId(0), NodeId(1)), Some(3.0));
        let (g3, outcome) = g2.apply_batch(&MutationBatch::new().remove_edge(NodeId(0), NodeId(1)));
        assert!(matches!(
            outcome.results[0],
            Ok(OpEffect::EdgesRemoved { count: 2, .. })
        ));
        assert_eq!(g3.num_original_edges(), 0);
        assert_eq!(g3.num_directed_edges(), 0);
    }

    #[test]
    fn successor_shares_base_storage_with_ancestor() {
        let g = graph_from_edges(100, &(0..99).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let before = g.memory_breakdown();
        assert_eq!(before.sharers, 1);
        let (g2, _) = g.apply_batch(&MutationBatch::new().add_edge(NodeId(0), NodeId(50)));
        assert!(g2.has_overlay());
        assert!(!g.has_overlay());
        let a = g.memory_breakdown();
        let b = g2.memory_breakdown();
        assert_eq!(a.sharers, 2);
        assert_eq!(a.shared_bytes, b.shared_bytes, "one base, shared");
        assert!(b.owned_bytes > 0 && b.owned_bytes < b.shared_bytes / 4);
        // Attributed bytes sum to roughly base + overlay, not 2x base.
        let summed = g.memory_bytes() + g2.memory_bytes();
        assert!(summed <= a.shared_bytes + b.owned_bytes + 1);
        assert!(g2.overlay_ratio() > 0.0 && g2.overlay_ratio() < 0.1);
    }

    #[test]
    fn dirty_nodes_cover_indegree_changes_and_additions() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let batch = MutationBatch::new()
            .add_node("node", "new")
            .add_edge(NodeId(0), NodeId(4))
            .remove_edge(NodeId(2), NodeId(3));
        let (_, outcome) = g.apply_batch(&batch);
        assert_eq!(outcome.dirty_nodes, vec![NodeId(3), NodeId(4)]);
        assert_eq!(outcome.label_changes.len(), 1);
        assert_eq!(outcome.label_changes[0].node, NodeId(4));
        assert_eq!(outcome.label_changes[0].old_label, None);
    }

    #[test]
    fn relabel_twice_records_the_pre_batch_label_once() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let batch = MutationBatch::new()
            .set_label(NodeId(0), "first")
            .set_label(NodeId(0), "second");
        let (g2, outcome) = g.apply_batch(&batch);
        assert_eq!(g2.node_label(NodeId(0)), "second");
        assert_eq!(
            outcome.label_changes,
            vec![LabelChange {
                node: NodeId(0),
                old_label: Some("v0".to_string())
            }]
        );
    }

    #[test]
    fn example_rows_stay_sorted_after_mutation() {
        let g = graph_from_edges(4, &[(0, 2), (0, 1)]);
        let (g2, _) = g.apply_batch(&MutationBatch::new().add_edge(NodeId(0), NodeId(3)));
        let row = rows(&g2, 0);
        let ids: Vec<u32> = row.iter().map(|(t, _, _)| *t).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn remove_node_drops_all_incident_edges_and_tombstones_the_id() {
        // 1 -> 0, 2 -> 0, 0 -> 3: removing 0 takes out all three pairs and
        // the backward fan-out they induced.
        let g = graph_from_edges(4, &[(1, 0), (2, 0), (0, 3)]);
        let (g2, outcome) = g.apply_batch(&MutationBatch::new().remove_node(NodeId(0)));
        assert!(matches!(
            outcome.results[0],
            Ok(OpEffect::NodeRemoved {
                node: NodeId(0),
                edges_removed: 3
            })
        ));
        assert!(g2.is_tombstoned(NodeId(0)));
        assert!(!g.is_tombstoned(NodeId(0)), "ancestor unchanged");
        assert_eq!(g2.num_nodes(), 4, "ids are never remapped");
        assert_eq!(g2.num_original_edges(), 0);
        assert_eq!(g2.num_directed_edges(), 0);
        assert_eq!(g2.node_label(NodeId(0)), "", "label cleared");
        assert_eq!(g2.forward_indegree(NodeId(0)), 0);
        assert_eq!(g2.forward_outdegree(NodeId(0)), 0);
        assert_eq!(
            outcome.label_changes,
            vec![LabelChange {
                node: NodeId(0),
                old_label: Some("v0".to_string())
            }]
        );
        // Kind scans skip the tombstone.
        let kind = g2.kind_by_name("node").unwrap();
        assert_eq!(
            g2.nodes_of_kind(kind),
            vec![NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn ops_against_a_tombstoned_node_are_rejected() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let (g2, _) = g.apply_batch(&MutationBatch::new().remove_node(NodeId(1)));
        let batch = MutationBatch::new()
            .add_edge(NodeId(0), NodeId(1))
            .remove_edge(NodeId(1), NodeId(2))
            .set_label(NodeId(1), "ghost")
            .set_weight(NodeId(0), NodeId(1), 2.0)
            .remove_node(NodeId(1))
            .add_edge(NodeId(0), NodeId(2)); // fine
        let (g3, outcome) = g2.apply_batch(&batch);
        assert_eq!(outcome.accepted(), 1);
        assert_eq!(outcome.rejected(), 5);
        for r in &outcome.results[..5] {
            assert!(
                matches!(r, Err(GraphError::NodeTombstoned { node: NodeId(1) })),
                "unexpected result {r:?}"
            );
        }
        assert!(g3.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn remove_node_in_same_batch_as_its_edges() {
        // The batch removes a node right after wiring it in; later ops see
        // the tombstone immediately.
        let g = graph_from_edges(3, &[(0, 1)]);
        let batch = MutationBatch::new()
            .add_node("node", "doomed")
            .add_edge(NodeId(3), NodeId(2))
            .remove_node(NodeId(3))
            .add_edge(NodeId(3), NodeId(0));
        let (g2, outcome) = g.apply_batch(&batch);
        assert_eq!(outcome.accepted(), 3);
        assert!(matches!(
            outcome.results[3],
            Err(GraphError::NodeTombstoned { node: NodeId(3) })
        ));
        assert!(g2.is_tombstoned(NodeId(3)));
        assert_eq!(g2.num_original_edges(), 1, "only 0 -> 1 survives");
    }

    #[test]
    fn tombstones_survive_compaction_without_id_remap() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let (g2, _) = g.apply_batch(&MutationBatch::new().remove_node(NodeId(2)));
        assert!(g2.has_overlay());
        let flat = g2.compacted();
        assert!(!flat.has_overlay());
        assert!(flat.is_tombstoned(NodeId(2)));
        assert_eq!(flat.num_nodes(), g2.num_nodes());
        assert_eq!(flat.num_tombstoned(), 1);
        assert_eq!(flat.tombstoned_nodes(), vec![2]);
        assert_graphs_identical(&flat, &g2);
        // Mutating the compacted graph still rejects the dead id.
        let (_, outcome) = flat.apply_batch(&MutationBatch::new().set_label(NodeId(2), "x"));
        assert!(matches!(
            outcome.results[0],
            Err(GraphError::NodeTombstoned { node: NodeId(2) })
        ));
    }

    #[test]
    fn remove_node_updates_backward_fanout_of_surviving_neighbours() {
        // 1, 2, 3 all point at 0; removing 3 must re-weight the backward
        // edges 0 hands back to the survivors (log2(1 + indegree)).
        let g = graph_from_edges(4, &[(1, 0), (2, 0), (3, 0)]);
        let (g2, _) = g.apply_batch(&MutationBatch::new().remove_node(NodeId(3)));
        let rebuilt = graph_from_edges(4, &[(1, 0), (2, 0)]);
        assert_eq!(g2.forward_indegree(NodeId(0)), 2);
        let w = g2
            .out_edges(NodeId(0))
            .find(|e| e.to == NodeId(1))
            .unwrap()
            .weight;
        let expected = rebuilt
            .out_edges(NodeId(0))
            .find(|e| e.to == NodeId(1))
            .unwrap()
            .weight;
        assert_eq!(w.to_bits(), expected.to_bits());
    }

    #[test]
    fn remove_node_with_self_loop_counts_it_once() {
        let mut b = GraphBuilder::new().allow_self_loops(true);
        for i in 0..2 {
            b.add_node("node", format!("v{i}"));
        }
        b.add_edge(NodeId(0), NodeId(0)).unwrap();
        b.add_edge(NodeId(0), NodeId(1)).unwrap();
        let g = b.build_default();
        let (g2, outcome) = g.apply_batch(&MutationBatch::new().remove_node(NodeId(0)));
        assert!(matches!(
            outcome.results[0],
            Ok(OpEffect::NodeRemoved {
                edges_removed: 2,
                ..
            })
        ));
        assert_eq!(g2.num_original_edges(), 0);
    }
}
