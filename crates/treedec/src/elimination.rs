//! Tree decompositions from elimination orders: min-degree and min-fill
//! heuristics.
//!
//! Exact treewidth is NP-hard; these classical heuristics are exact on
//! chordal graphs (hence on the generated `k`-trees) and near-optimal on
//! the partial-`k`-tree and planar families the experiments use. The
//! measured widths are reported by experiment E9.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use psep_graph::graph::NodeId;
use psep_graph::view::GraphRef;

use crate::decomposition::TreeDecomposition;
use crate::local::LocalGraph;

/// Tree decomposition via the **min-degree** elimination heuristic.
///
/// Repeatedly eliminates a vertex of minimum current degree, ties going
/// to the smaller `NodeId`, and turns its neighbours into a clique. Bag
/// `i` is the `i`-th eliminated vertex plus its neighbours at that
/// moment; its tree edge goes to the bag of the earliest-eliminated of
/// those neighbours, or to bag `i + 1` when it has none.
///
/// All work is local to the vertices of `g`, never sized by
/// `g.universe()`: vertices get dense ids in ascending `NodeId` order,
/// adjacency is kept in sorted vectors, and a lazy binary heap of
/// `(degree, id)` yields the next vertex. Eliminating `v` merges `N(v)`
/// into each neighbour's list, `O(Σ_{a ∈ N(v)} (deg a + |N(v)|))`, plus
/// `O(|N(v)| log n)` heap work. Memory is the graph plus its fill edges,
/// `O(n·w)` for a result of width `w` on `n` vertices.
///
/// The output is a pure function of `g`: because the renumbering keeps
/// `NodeId` order, the heap's `(degree, id)` minimum is exactly the
/// `(degree, NodeId)` minimum over the live vertices, so the elimination
/// order, the bags and the tree edges are those of the textbook
/// linear-scan elimination (the test suite checks this bag for bag).
pub fn min_degree_decomposition<G: GraphRef>(g: &G) -> TreeDecomposition {
    psep_obs::counter!("treedec.eliminations").incr();
    let _span = psep_obs::span!("treedec_eliminate");
    let LocalGraph { nodes, mut adj } = LocalGraph::new(g);
    let n = nodes.len();
    let mut heap: BinaryHeap<Reverse<(usize, u32)>> = adj
        .iter()
        .enumerate()
        .map(|(v, nbrs)| Reverse((nbrs.len(), v as u32)))
        .collect();
    // Elimination position of each vertex; `usize::MAX` while alive.
    let mut pos = vec![usize::MAX; n];
    // Each eliminated vertex with its neighbours at elimination time.
    let mut eliminated: Vec<(u32, Vec<u32>)> = Vec::with_capacity(n);
    let mut scratch = Vec::new();
    while let Some(Reverse((degree, v))) = heap.pop() {
        if pos[v as usize] != usize::MAX || adj[v as usize].len() != degree {
            continue; // stale: eliminated, or a newer entry has the degree
        }
        pos[v as usize] = eliminated.len();
        let nbrs = std::mem::take(&mut adj[v as usize]);
        for &a in &nbrs {
            let list = &mut adj[a as usize];
            let before = list.len();
            union_without(list, &nbrs, [v, a], &mut scratch);
            if list.len() != before {
                heap.push(Reverse((list.len(), a)));
            }
        }
        eliminated.push((v, nbrs));
    }
    let mut bags = Vec::with_capacity(n);
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for (i, (v, nbrs)) in eliminated.iter().enumerate() {
        match nbrs.iter().map(|&u| pos[u as usize]).min() {
            Some(parent) => edges.push((i, parent)),
            None if i + 1 < n => edges.push((i, i + 1)),
            None => {}
        }
        bags.push(nbrs.iter().chain([v]).map(|&u| nodes[u as usize]).collect());
    }
    TreeDecomposition::new(bags, edges)
}

/// Replaces the sorted `list` by the sorted union of `list` and `add`
/// without the two ids in `skip`; `scratch` is a reusable buffer.
fn union_without(list: &mut Vec<u32>, add: &[u32], skip: [u32; 2], scratch: &mut Vec<u32>) {
    scratch.clear();
    let (mut i, mut j) = (0, 0);
    loop {
        let x = match (list.get(i), add.get(j)) {
            (Some(&p), Some(&q)) if p == q => {
                i += 1;
                j += 1;
                p
            }
            (Some(&p), Some(&q)) if p < q => {
                i += 1;
                p
            }
            (Some(&p), None) => {
                i += 1;
                p
            }
            (_, Some(&q)) => {
                j += 1;
                q
            }
            (None, None) => break,
        };
        if !skip.contains(&x) {
            scratch.push(x);
        }
    }
    std::mem::swap(list, scratch);
}

/// Tree decomposition via the **min-fill** elimination heuristic
/// (slower, usually tighter width on non-chordal inputs).
pub fn min_fill_decomposition<G: GraphRef>(g: &G) -> TreeDecomposition {
    eliminate(g, fill_count)
}

/// Builds a tree decomposition from an explicit elimination order.
pub fn decomposition_from_order<G: GraphRef>(g: &G, order: &[NodeId]) -> TreeDecomposition {
    let n = g.universe();
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    // fill graph adjacency as hash sets
    let mut adj: Vec<HashSet<NodeId>> = vec![HashSet::new(); n];
    for u in g.node_iter() {
        for e in g.neighbors(u) {
            adj[u.index()].insert(e.to);
            adj[e.to.index()].insert(u);
        }
    }
    build_bags(order, &pos, adj)
}

/// Greedy elimination over hash-set adjacency indexed by `NodeId`: each
/// step scans every live vertex for the smallest `key`. Min-fill uses
/// it (its key changes with every fill edge, so a heap buys little);
/// the tests use it with the min-degree key as the reference for
/// [`min_degree_decomposition`].
fn eliminate<G: GraphRef>(
    g: &G,
    key: fn(&[HashSet<NodeId>], NodeId) -> (usize, usize),
) -> TreeDecomposition {
    psep_obs::counter!("treedec.eliminations").incr();
    let _span = psep_obs::span!("treedec_eliminate");
    let n = g.universe();
    let mut adj: Vec<HashSet<NodeId>> = vec![HashSet::new(); n];
    let mut alive: Vec<bool> = vec![false; n];
    let mut order: Vec<NodeId> = Vec::new();
    for u in g.node_iter() {
        alive[u.index()] = true;
        for e in g.neighbors(u) {
            adj[u.index()].insert(e.to);
        }
    }
    let alive_count = g.node_count();
    // Snapshot of the original adjacency for bag construction later: we
    // instead maintain the fill graph incrementally and record bags now.
    let mut full_fill: Vec<HashSet<NodeId>> = adj.clone();
    for _ in 0..alive_count {
        // pick next vertex
        let pick = g
            .node_iter()
            .filter(|v| alive[v.index()])
            .min_by_key(|&v| key(&adj, v))
            .expect("alive vertex exists");
        order.push(pick);
        // connect neighbours (fill edges), remove pick
        let nbrs: Vec<NodeId> = adj[pick.index()].iter().copied().collect();
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                if adj[a.index()].insert(b) {
                    adj[b.index()].insert(a);
                    full_fill[a.index()].insert(b);
                    full_fill[b.index()].insert(a);
                }
            }
        }
        for &a in &nbrs {
            adj[a.index()].remove(&pick);
        }
        adj[pick.index()].clear();
        alive[pick.index()] = false;
    }
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    build_bags(&order, &pos, full_fill)
}

fn fill_count(adj: &[HashSet<NodeId>], v: NodeId) -> (usize, usize) {
    let nbrs: Vec<NodeId> = adj[v.index()].iter().copied().collect();
    let mut fill = 0;
    for (i, &a) in nbrs.iter().enumerate() {
        for &b in &nbrs[i + 1..] {
            if !adj[a.index()].contains(&b) {
                fill += 1;
            }
        }
    }
    (fill, v.index())
}

/// Builds bags from an elimination order over a (fill) adjacency: the bag
/// of `v` is `v` plus its later-eliminated fill-neighbours; each bag links
/// to the bag of the earliest-later member.
fn build_bags(
    order: &[NodeId],
    pos: &[usize],
    mut fill_adj: Vec<HashSet<NodeId>>,
) -> TreeDecomposition {
    // saturate the fill adjacency along the order (for the from-order
    // path; the heuristic path already passes a saturated fill graph,
    // and re-saturating it is a harmless no-op there).
    for &v in order {
        let later: Vec<NodeId> = fill_adj[v.index()]
            .iter()
            .copied()
            .filter(|u| pos[u.index()] > pos[v.index()])
            .collect();
        for (i, &a) in later.iter().enumerate() {
            for &b in &later[i + 1..] {
                if fill_adj[a.index()].insert(b) {
                    fill_adj[b.index()].insert(a);
                }
            }
        }
    }
    let mut bags: Vec<Vec<NodeId>> = Vec::with_capacity(order.len());
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // bag index by elimination position
    for (i, &v) in order.iter().enumerate() {
        let mut bag: Vec<NodeId> = fill_adj[v.index()]
            .iter()
            .copied()
            .filter(|u| pos[u.index()] > i)
            .collect();
        bag.push(v);
        bag.sort_unstable();
        bags.push(bag);
    }
    for (i, &v) in order.iter().enumerate() {
        // link to the earliest-later neighbour's bag
        let parent = fill_adj[v.index()]
            .iter()
            .copied()
            .filter(|u| pos[u.index()] > i)
            .min_by_key(|u| pos[u.index()]);
        if let Some(p) = parent {
            edges.push((i, pos[p.index()]));
        } else if i + 1 < order.len() {
            // isolated-at-elimination vertex: attach anywhere to keep a tree
            edges.push((i, i + 1));
        }
    }
    TreeDecomposition::new(bags, edges)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use psep_graph::generators::{grids, ktree, planar_families, trees};
    use psep_graph::view::{NodeMask, SubgraphView};
    use psep_graph::Graph;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The linear-scan min-degree elimination over hash sets: the
    /// reference [`min_degree_decomposition`] must match bag for bag.
    fn min_degree_reference<G: GraphRef>(g: &G) -> TreeDecomposition {
        eliminate(g, |adj, v| (adj[v.index()].len(), v.index()))
    }

    fn assert_same_decomposition(got: &TreeDecomposition, want: &TreeDecomposition, what: &str) {
        assert_eq!(got.num_bags(), want.num_bags(), "{what}: bag count");
        for i in 0..want.num_bags() {
            assert_eq!(got.bag(i), want.bag(i), "{what}: bag {i}");
        }
        assert_eq!(got.tree_edges(), want.tree_edges(), "{what}: tree edges");
    }

    /// Deterministic instances for the reference-equivalence tests:
    /// grids up to 64×64 (whose width exceeds any probe bound), k-trees,
    /// partial 3-trees, outerplanar graphs and triangulated grids.
    pub(crate) fn reference_cases() -> Vec<(String, Graph)> {
        let mut cases = Vec::new();
        for side in [2, 5, 8, 16, 32, 64] {
            cases.push((format!("grid {side}x{side}"), grids::grid2d(side, side, 1)));
        }
        for k in 1..=4 {
            cases.push((
                format!("{k}-tree"),
                ktree::random_k_tree(200, k, k as u64).graph,
            ));
        }
        for seed in 0..3 {
            cases.push((
                format!("partial 3-tree #{seed}"),
                ktree::partial_k_tree(150, 3, 0.6, seed),
            ));
            cases.push((
                format!("outerplanar #{seed}"),
                planar_families::random_outerplanar(150, seed),
            ));
            cases.push((
                format!("triangulated grid #{seed}"),
                planar_families::triangulated_grid(12, 12, seed),
            ));
        }
        cases
    }

    /// A random induced subgraph of `g`: each vertex is kept with
    /// probability 3/4, so the view is usually disconnected.
    pub(crate) fn random_mask(g: &Graph, seed: u64) -> NodeMask {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        NodeMask::from_nodes(g.num_nodes(), g.nodes().filter(|_| rng.gen_bool(0.75)))
    }

    #[test]
    fn min_degree_matches_reference_on_fixed_families() {
        for (name, g) in reference_cases() {
            let dec = min_degree_decomposition(&g);
            assert_same_decomposition(&dec, &min_degree_reference(&g), &name);
            dec.validate(&g).unwrap();
            let mask = random_mask(&g, 7);
            let view = SubgraphView::new(&g, &mask);
            let what = format!("{name}, induced subgraph");
            assert_same_decomposition(
                &min_degree_decomposition(&view),
                &min_degree_reference(&view),
                &what,
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn min_degree_matches_reference_on_random_views(
            g in psep_testkit::arb_graph(),
            seed in any::<u64>(),
        ) {
            let dec = min_degree_decomposition(&g);
            assert_same_decomposition(&dec, &min_degree_reference(&g), "whole graph");
            let mask = random_mask(&g, seed);
            let view = SubgraphView::new(&g, &mask);
            let dec = min_degree_decomposition(&view);
            assert_same_decomposition(&dec, &min_degree_reference(&view), "induced subgraph");
            prop_assert!(dec.validate(&view).is_ok());
        }
    }

    #[test]
    fn tree_has_width_one() {
        let g = trees::random_tree(40, 3);
        for dec in [min_degree_decomposition(&g), min_fill_decomposition(&g)] {
            dec.validate(&g).unwrap();
            assert_eq!(dec.width(), 1);
        }
    }

    #[test]
    fn k_tree_width_recovered_exactly() {
        for k in 1..=4 {
            let kt = ktree::random_k_tree(30, k, 11);
            let dec = min_degree_decomposition(&kt.graph);
            dec.validate(&kt.graph).unwrap();
            assert_eq!(dec.width(), k, "k = {k}");
        }
    }

    #[test]
    fn partial_k_tree_width_bounded() {
        let g = ktree::partial_k_tree(60, 3, 0.6, 5);
        let dec = min_fill_decomposition(&g);
        dec.validate(&g).unwrap();
        assert!(dec.width() <= 3, "width {} > 3", dec.width());
    }

    #[test]
    fn outerplanar_width_at_most_two() {
        let g = planar_families::random_outerplanar(25, 7);
        let dec = min_degree_decomposition(&g);
        dec.validate(&g).unwrap();
        assert!(dec.width() <= 2);
    }

    #[test]
    fn grid_width_reasonable() {
        let g = grids::grid2d(5, 5, 1);
        let dec = min_fill_decomposition(&g);
        dec.validate(&g).unwrap();
        // treewidth of a 5x5 grid is 5; heuristics may be slightly above
        assert!(dec.width() >= 5);
        assert!(dec.width() <= 8, "width {}", dec.width());
    }

    #[test]
    fn from_order_valid_on_cycle() {
        let g = trees::cycle(8);
        let order: Vec<NodeId> = g.nodes().collect();
        let dec = decomposition_from_order(&g, &order);
        dec.validate(&g).unwrap();
        assert!(dec.width() >= 2);
    }

    #[test]
    fn disconnected_graph_still_decomposes() {
        let mut g = psep_graph::Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(2), NodeId(3), 1);
        let dec = min_degree_decomposition(&g);
        dec.validate(&g).unwrap();
    }
}
