//! Component-local dense ids: the vertices of a graph view renumbered
//! `0..n` in ascending `NodeId` order, with sorted adjacency lists.
//!
//! Algorithms that run once per separated component (the min-degree
//! probe, the center-bag walk) index their scratch by these ids, so
//! their time and memory follow the component, not the id universe of
//! the whole graph. The renumbering preserves `NodeId` order, so a
//! tie-break on local ids is the same tie-break as on global ones.

use psep_graph::graph::NodeId;
use psep_graph::view::GraphRef;

pub(crate) struct LocalGraph {
    /// Global id of each local id, ascending.
    pub(crate) nodes: Vec<NodeId>,
    /// Sorted, deduplicated local neighbours of each local id.
    pub(crate) adj: Vec<Vec<u32>>,
}

impl LocalGraph {
    /// Renumbers the vertices of `g`. Costs `O((n + m) log n)` for `n`
    /// vertices and `m` edges; `node_iter()` is scanned once and may be
    /// in any order.
    pub(crate) fn new<G: GraphRef>(g: &G) -> Self {
        let mut nodes: Vec<NodeId> = g.node_iter().collect();
        nodes.sort_unstable();
        let adj = nodes
            .iter()
            .map(|&u| {
                let mut nbrs: Vec<u32> = g.neighbors(u).filter_map(|e| id(&nodes, e.to)).collect();
                nbrs.sort_unstable();
                nbrs.dedup();
                nbrs
            })
            .collect();
        LocalGraph { nodes, adj }
    }

    /// The local id of `v`, or `None` if `v` is not a vertex of the view.
    pub(crate) fn id(&self, v: NodeId) -> Option<u32> {
        id(&self.nodes, v)
    }

    /// Number of vertices.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }
}

fn id(nodes: &[NodeId], v: NodeId) -> Option<u32> {
    // `nodes` holds distinct `u32` ids, so every position fits in a u32.
    nodes.binary_search(&v).ok().map(|i| i as u32)
}
