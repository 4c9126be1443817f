//! Property-based tests for shard ownership: deterministic, in range, one
//! owner per node, and a clamped shard count.

use std::collections::HashMap;

use banks_graph::builder::GraphBuilder;
use banks_graph::partition::ShardSpec;
use banks_graph::NodeId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every node has exactly one owner, in range, whatever K is (K = 1
    /// and K above the node count included); the per-shard counts
    /// therefore cover the graph exactly once.
    #[test]
    fn every_node_has_one_owner_in_range((n, k) in (0usize..200, 1usize..17)) {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_node("paper", format!("v{i}"));
        }
        let g = b.build_default();
        let spec = ShardSpec::new(k);
        for node in g.nodes() {
            prop_assert!(spec.owner(node) < k);
        }
        let stats = spec.stats(&g);
        prop_assert_eq!(stats.len(), k);
        for (i, row) in stats.iter().enumerate() {
            prop_assert_eq!(row.shard, i);
            let owned = g.nodes().filter(|&node| spec.owner(node) == i).count();
            prop_assert_eq!(row.owned_nodes, owned);
        }
        prop_assert_eq!(stats.iter().map(|s| s.owned_nodes).sum::<usize>(), n);
    }
}

#[test]
fn zero_shards_clamps_to_one() {
    assert_eq!(ShardSpec::new(0).shards(), 1);
    assert_eq!(ShardSpec::default().shards(), 1);
    assert_eq!(ShardSpec::new(0), ShardSpec::new(1));
}

#[test]
fn ownership_is_stable_across_specs_of_equal_k() {
    let spec_a = ShardSpec::new(4);
    let spec_b = ShardSpec::new(4);
    let mut spread = HashMap::new();
    for i in 0..1000u32 {
        let node = NodeId(i);
        assert_eq!(spec_a.owner(node), spec_b.owner(node));
        *spread.entry(spec_a.owner(node)).or_insert(0usize) += 1;
    }
    // the hash spreads ids across all four shards without gross skew
    assert_eq!(spread.len(), 4);
    for (&shard, &count) in &spread {
        assert!(
            (150..=350).contains(&count),
            "shard {shard} got {count} of 1000 ids"
        );
    }
}
