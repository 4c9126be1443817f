//! Hash ownership of nodes across K shards.
//!
//! The sharded execution tier (the `scatter-gather` engine in `banks-core`)
//! groups its work by the shard that owns each node.  Every node is owned
//! by exactly one shard, chosen by a stable hash of its [`NodeId`]
//! ([`ShardSpec::owner`]).  The hash is a pure function of the id, so a
//! node added later — on any replica, after any crash — lands on the same
//! shard without coordination, and no per-shard state has to be kept in
//! sync with the graph.

use crate::graph::DataGraph;
use crate::ids::NodeId;

/// The partitioning function: how many shards, and which shard owns a node.
///
/// Ownership is a stable splitmix64-style hash of the node id — independent
/// of graph contents, insertion order and process lifetime, so every
/// participant (merge engine, metrics, recovery) agrees on placement
/// without coordination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    shards: usize,
}

impl ShardSpec {
    /// A spec for `shards` shards; values below 1 are clamped to 1.
    pub fn new(shards: usize) -> Self {
        ShardSpec {
            shards: shards.max(1),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `node` — a stable hash of the id, in `0..shards()`.
    #[inline]
    pub fn owner(&self, node: NodeId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        (mix64(node.0 as u64) % self.shards as u64) as usize
    }

    /// How many of `graph`'s nodes each shard owns, one row per shard.
    pub fn stats(&self, graph: &DataGraph) -> Vec<ShardStats> {
        let mut owned = vec![0usize; self.shards];
        for node in graph.nodes() {
            owned[self.owner(node)] += 1;
        }
        owned
            .into_iter()
            .enumerate()
            .map(|(shard, owned_nodes)| ShardStats { shard, owned_nodes })
            .collect()
    }
}

impl Default for ShardSpec {
    /// One shard: the unsharded degenerate case.
    fn default() -> Self {
        ShardSpec::new(1)
    }
}

/// splitmix64 finalizer: a cheap, well-dispersed bijection on `u64`, so
/// consecutive node ids spread evenly across shards.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Point-in-time shard occupancy, surfaced through service metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index, `0..K`.
    pub shard: usize,
    /// Nodes owned by the shard.
    pub owned_nodes: usize,
}
