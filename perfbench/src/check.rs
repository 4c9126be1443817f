//! Answer checks: every tree the server streams must cover each keyword
//! through real graph edges, and a sample must match an in-process
//! reference `Service` tree for tree.

use banks::core::json::{self as corejson, JsonValue};
use banks::prelude::*;

/// Checks one wire answer tree (`banks_core::json::answer_tree` form)
/// against the graph and the query's origin sets.
pub fn valid_tree(tree: &str, graph: &DataGraph, matches: &KeywordMatches) -> Result<(), String> {
    let value = corejson::parse(tree).map_err(|e| format!("unparseable tree: {e}"))?;
    let root = value
        .get("root")
        .and_then(JsonValue::as_usize)
        .ok_or("tree without a root")?;
    let Some(JsonValue::Array(paths)) = value.get("paths") else {
        return Err("tree without paths".to_string());
    };
    if paths.len() != matches.num_keywords() {
        return Err(format!(
            "tree has {} paths for {} keywords",
            paths.len(),
            matches.num_keywords()
        ));
    }
    for (i, path) in paths.iter().enumerate() {
        let JsonValue::Array(nodes) = path else {
            return Err(format!("path {i} is not an array"));
        };
        let nodes: Vec<u32> = nodes
            .iter()
            .map(|n| n.as_usize().map(|n| n as u32))
            .collect::<Option<_>>()
            .ok_or_else(|| format!("path {i} holds a non-id"))?;
        if nodes.first() != Some(&(root as u32)) {
            return Err(format!("path {i} does not start at the root {root}"));
        }
        for pair in nodes.windows(2) {
            if !graph.has_edge(NodeId(pair[0]), NodeId(pair[1])) {
                return Err(format!(
                    "path {i} uses a missing edge {} -> {}",
                    pair[0], pair[1]
                ));
            }
        }
        let leaf = NodeId(*nodes.last().expect("path starts at the root"));
        if !matches.origin_set(i).contains(&leaf) {
            return Err(format!(
                "leaf {leaf} of path {i} does not match keyword {i}"
            ));
        }
    }
    Ok(())
}

/// A plain in-process `Service` on the same graph, without cache or
/// persistence: the reference the served answers must equal.
pub struct Reference(Service);

impl Reference {
    pub fn new(graph: &DataGraph) -> Self {
        Reference(
            Service::builder(graph.clone())
                .workers(1)
                .cache_capacity(0)
                .build(),
        )
    }

    /// The reference answer trees for `keywords` at top-k `top_k`.
    pub fn trees(&self, keywords: &[String], top_k: usize) -> Result<Vec<String>, String> {
        let handle = self
            .0
            .submit(QuerySpec::keywords(keywords.to_vec()).top_k(top_k))
            .map_err(|e| format!("reference submit: {e}"))?;
        let (outcome, _) = handle.wait();
        Ok(outcome
            .answers
            .iter()
            .map(|a| corejson::answer_tree(&a.tree))
            .collect())
    }
}
