//! # banks-graph
//!
//! Weighted directed data-graph substrate for the BANKS-II reproduction
//! ("Bidirectional Expansion For Keyword Search on Graph Databases",
//! VLDB 2005).
//!
//! The paper models a database as a directed graph in which nodes are
//! entities (tuples, XML elements, web pages) and edges are relationships
//! (foreign keys, containment, hyperlinks).  Every *original* ("forward")
//! edge `u -> v` with weight `w(u,v)` additionally induces a *backward*
//! edge `v -> u` whose weight is `w(u,v) * log2(1 + indegree(v))`
//! (Section 2.3 of the paper), so that meaningless shortcuts through hub
//! nodes (e.g. the DBLP "conference" metadata node) are penalised.
//!
//! This crate provides:
//!
//! * [`GraphBuilder`] — an incremental builder that accepts typed nodes and
//!   original forward edges,
//! * [`DataGraph`] — an immutable, compact CSR-style representation holding
//!   both the forward and the induced backward edges, with O(1) access to
//!   the out- and in-adjacency of every node,
//! * [`GraphMutation`] / [`MutationBatch`] / [`DataGraph::apply_batch`] —
//!   first-class incremental updates: a batch produces a structurally
//!   shared successor graph (copy-on-write adjacency, fresh epoch) in
//!   O(touched rows) instead of a rebuild,
//! * [`GraphStore`] — owns the current version, applies batches, keeps the
//!   mutation log, and compacts the overlay when it grows,
//! * [`ExpansionPolicy`] / [`BackwardWeightPolicy`] — the knobs controlling
//!   how backward edges are derived,
//! * traversal helpers ([`traversal`]), statistics ([`stats`]),
//!   Graphviz export ([`dot`]) and a dependency-free text serialisation
//!   format ([`serialize`]).
//!
//! The in-memory representation follows the paper's "the graph is really
//! only an index" philosophy: nodes carry only a kind id and a short label;
//! attribute text lives in the companion `banks-textindex` crate.

pub mod builder;
pub mod codec;
pub mod csr;
pub mod dot;
pub mod error;
pub mod graph;
pub mod ids;
pub mod mutation;
pub mod node;
pub mod partition;
pub mod serialize;
pub mod stats;
pub mod store;
pub mod traversal;
pub mod weights;

pub use builder::GraphBuilder;
pub use codec::{decode_batch, encode_batch};
pub use csr::CsrAdjacency;
pub use error::GraphError;
pub use graph::{DataGraph, EdgeRef, GraphMemory, StorageParts, StorageRef};
pub use ids::{EdgeId, KindId, NodeId};
pub use mutation::{BatchOutcome, GraphMutation, LabelChange, MutationBatch, OpEffect};
pub use node::{EdgeKind, NodeMeta};
pub use partition::{ShardSpec, ShardStats};
pub use stats::GraphStats;
pub use store::{AppliedBatch, GraphStore, MutationLog, DEFAULT_LOG_CAPACITY};
pub use weights::{BackwardWeightPolicy, ExpansionPolicy};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
