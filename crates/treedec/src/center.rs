//! Lemma 1: every tree decomposition has a **center bag** whose removal
//! leaves connected components of at most `n/2` vertices.

use psep_graph::view::GraphRef;

use crate::decomposition::TreeDecomposition;
use crate::local::LocalGraph;

/// Finds a center bag of `dec` for `g` (Lemma 1): the index of a bag `C`
/// such that every connected component of `g \ C` has at most
/// `⌊n/2⌋` vertices, where `n` is the number of alive vertices of `g`.
///
/// Walks the decomposition tree from bag 0 toward the large component
/// (the classical sink argument), falling back to a full scan if the
/// walk stalls; the existence of a center is guaranteed by Lemma 1, so
/// the scan cannot fail on a valid decomposition.
///
/// Each step costs `O(n + m)` for the component search in `g \ C` plus
/// `O(deg)` in the decomposition tree to choose the next bag; setup is
/// `O((n + m) log n)` plus the total bag size, and nothing is sized by
/// `g.universe()`. The step needs no search of the tree: the large
/// component's vertices are not in `C`, and the bags holding any one
/// vertex form a connected subtree (axiom 3), so exactly one tree
/// neighbour of `C` has them on its side. With the tree rooted at bag 0
/// and entry times plus subtree sizes precomputed, that neighbour is the
/// child whose subtree holds a bag of the witness vertex, or else the
/// parent. The result is therefore the same bag as walking toward the
/// first neighbour whose side contains the witness.
///
/// # Panics
///
/// Panics if `dec` has no bags, or if no bag is a center (which implies
/// `dec` is not a valid decomposition of `g`).
///
/// # Example
///
/// ```
/// use psep_graph::generators::trees;
/// use psep_treedec::{center_bag, min_degree_decomposition};
/// use psep_graph::components::largest_component_after_removal;
///
/// let g = trees::path(9);
/// let dec = min_degree_decomposition(&g);
/// let c = center_bag(&g, &dec);
/// let biggest = largest_component_after_removal(&g, dec.bag(c));
/// assert!(biggest <= 4); // ⌊9/2⌋
/// ```
pub fn center_bag<G: GraphRef>(g: &G, dec: &TreeDecomposition) -> usize {
    assert!(dec.num_bags() > 0, "decomposition has no bags");
    let local = LocalGraph::new(g);
    // each bag restricted to the vertices of `g`, in local ids
    let bags: Vec<Vec<u32>> = (0..dec.num_bags())
        .map(|i| dec.bag(i).iter().filter_map(|&v| local.id(v)).collect())
        .collect();
    // one bag holding each vertex
    let mut home: Vec<Option<usize>> = vec![None; local.len()];
    for (i, bag) in bags.iter().enumerate() {
        for &v in bag {
            home[v as usize].get_or_insert(i);
        }
    }
    let tree = RootedTree::new(dec);
    let mut sweep = Sweep::new(local.len());

    let mut visited = vec![false; bags.len()];
    let mut cur = 0usize;
    while !visited[cur] {
        visited[cur] = true;
        let Some(witness) = sweep.big_component(&local.adj, &bags[cur]) else {
            return cur;
        };
        match home[witness as usize].and_then(|target| tree.step_toward(cur, target)) {
            Some(next) => cur = next,
            None => break,
        }
    }
    // Fallback: exhaustive scan (guaranteed to find one by Lemma 1).
    (0..bags.len())
        .find(|&i| sweep.big_component(&local.adj, &bags[i]).is_none())
        .expect("no center bag found: decomposition is not valid for this graph")
}

/// The decomposition tree rooted at bag 0, with preorder entry times and
/// subtree sizes so "is bag `t` below bag `b`" is two comparisons.
struct RootedTree {
    adj: Vec<Vec<usize>>,
    /// `usize::MAX` for the root and for bags not reached from it.
    parent: Vec<usize>,
    /// Preorder index; `usize::MAX` for bags not reached from bag 0.
    tin: Vec<usize>,
    size: Vec<usize>,
}

impl RootedTree {
    fn new(dec: &TreeDecomposition) -> Self {
        let b = dec.num_bags();
        let mut adj = vec![Vec::new(); b];
        for &(x, y) in dec.tree_edges() {
            adj[x].push(y);
            adj[y].push(x);
        }
        let mut parent = vec![usize::MAX; b];
        let mut tin = vec![usize::MAX; b];
        let mut seen = vec![false; b];
        let mut order = Vec::with_capacity(b);
        let mut stack = vec![0];
        seen[0] = true;
        while let Some(x) = stack.pop() {
            tin[x] = order.len();
            order.push(x);
            for &y in &adj[x] {
                if !seen[y] {
                    seen[y] = true;
                    parent[y] = x;
                    stack.push(y);
                }
            }
        }
        let mut size = vec![1; b];
        for &x in order.iter().rev() {
            if parent[x] != usize::MAX {
                size[parent[x]] += size[x];
            }
        }
        RootedTree {
            adj,
            parent,
            tin,
            size,
        }
    }

    /// Whether bag `t` lies in the subtree of bag `b`.
    fn below(&self, b: usize, t: usize) -> bool {
        self.tin[b] <= self.tin[t] && self.tin[t] < self.tin[b] + self.size[b]
    }

    /// The tree neighbour of `cur` on the path to `target`, or `None` if
    /// `target` is `cur` or is not connected to it.
    fn step_toward(&self, cur: usize, target: usize) -> Option<usize> {
        if self.tin[target] == usize::MAX {
            None
        } else if self.below(cur, target) {
            self.adj[cur]
                .iter()
                .copied()
                .find(|&c| self.parent[c] == cur && self.below(c, target))
        } else {
            Some(self.parent[cur])
        }
    }
}

/// Component search in `g \ bag`, with scratch reused across bags.
struct Sweep {
    /// Marks are valid when equal to `stamp`, so no reset between bags.
    stamp: u32,
    removed: Vec<u32>,
    seen: Vec<u32>,
    stack: Vec<u32>,
}

impl Sweep {
    fn new(n: usize) -> Self {
        Sweep {
            stamp: 0,
            removed: vec![0; n],
            seen: vec![0; n],
            stack: Vec::new(),
        }
    }

    /// A vertex of the component of `g \ bag` with more than `⌊n/2⌋`
    /// vertices, or `None` if there is no such component. `bag` holds
    /// distinct local ids.
    fn big_component(&mut self, adj: &[Vec<u32>], bag: &[u32]) -> Option<u32> {
        let n = adj.len();
        let half = n / 2;
        self.stamp += 1;
        let s = self.stamp;
        for &v in bag {
            self.removed[v as usize] = s;
        }
        let mut unexplored = n - bag.len();
        for root in 0..n {
            if unexplored <= half {
                return None;
            }
            if self.removed[root] == s || self.seen[root] == s {
                continue;
            }
            self.seen[root] = s;
            self.stack.push(root as u32);
            let mut size = 0usize;
            while let Some(u) = self.stack.pop() {
                size += 1;
                for &w in &adj[u as usize] {
                    let w = w as usize;
                    if self.removed[w] != s && self.seen[w] != s {
                        self.seen[w] = s;
                        self.stack.push(w as u32);
                    }
                }
            }
            if size > half {
                return Some(root as u32);
            }
            unexplored -= size;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elimination::min_degree_decomposition;
    use crate::elimination::min_fill_decomposition;
    use crate::elimination::tests::{random_mask, reference_cases};
    use proptest::prelude::*;
    use psep_graph::components::largest_component_after_removal;
    use psep_graph::generators::{grids, ktree, trees};
    use psep_graph::graph::NodeId;
    use psep_graph::view::SubgraphView;

    /// The walk with a fresh search of the decomposition tree for every
    /// candidate neighbour, over universe-sized scratch: the reference
    /// [`center_bag`] must agree with.
    fn center_bag_reference<G: GraphRef>(g: &G, dec: &TreeDecomposition) -> usize {
        let half = g.node_count() / 2;
        let alive_bag = |i: usize| -> Vec<NodeId> {
            dec.bag(i)
                .iter()
                .copied()
                .filter(|&v| g.contains_node(v))
                .collect()
        };
        // `dec.neighbors` order, listed once so the searches stay cheap
        let tree: Vec<Vec<usize>> = (0..dec.num_bags())
            .map(|i| dec.neighbors(i).collect())
            .collect();
        let mut visited = vec![false; dec.num_bags()];
        let mut cur = 0usize;
        loop {
            if visited[cur] {
                break;
            }
            visited[cur] = true;
            let Some(witness) = big_component_reference(g, &alive_bag(cur), half) else {
                return cur;
            };
            match tree[cur]
                .iter()
                .copied()
                .find(|&nb| side_contains(dec, &tree, cur, nb, witness))
            {
                Some(nb) => cur = nb,
                None => break,
            }
        }
        (0..dec.num_bags())
            .find(|&i| largest_component_after_removal(g, &alive_bag(i)) <= half)
            .expect("no center bag found")
    }

    fn big_component_reference<G: GraphRef>(g: &G, bag: &[NodeId], half: usize) -> Option<NodeId> {
        let n = g.universe();
        let mut dead = vec![false; n];
        for &v in bag {
            dead[v.index()] = true;
        }
        let mut seen = vec![false; n];
        let mut stack = Vec::new();
        for v in g.node_iter() {
            if seen[v.index()] || dead[v.index()] {
                continue;
            }
            let mut size = 0usize;
            seen[v.index()] = true;
            stack.push(v);
            while let Some(u) = stack.pop() {
                size += 1;
                for e in g.neighbors(u) {
                    let i = e.to.index();
                    if !seen[i] && !dead[i] {
                        seen[i] = true;
                        stack.push(e.to);
                    }
                }
            }
            if size > half {
                return Some(v);
            }
        }
        None
    }

    /// Whether the side of the decomposition tree reached from `cur`
    /// through neighbour `nb` contains a bag holding `v`.
    fn side_contains(
        dec: &TreeDecomposition,
        tree: &[Vec<usize>],
        cur: usize,
        nb: usize,
        v: NodeId,
    ) -> bool {
        let mut seen = vec![false; dec.num_bags()];
        seen[cur] = true;
        seen[nb] = true;
        let mut stack = vec![nb];
        while let Some(x) = stack.pop() {
            if dec.bag_contains(x, v) {
                return true;
            }
            for &y in &tree[x] {
                if !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
        false
    }

    /// Both walks on `g` with `dec`, which must be valid for a supergraph
    /// of `g`; also checks the answer is a center.
    fn assert_matches_reference<G: GraphRef>(g: &G, dec: &TreeDecomposition, what: &str) {
        let c = center_bag(g, dec);
        assert_eq!(c, center_bag_reference(g, dec), "{what}");
        assert_center_index(g, dec, c);
    }

    fn assert_center_index<G: GraphRef>(g: &G, dec: &TreeDecomposition, c: usize) {
        let bag: Vec<NodeId> = dec
            .bag(c)
            .iter()
            .copied()
            .filter(|&v| g.contains_node(v))
            .collect();
        assert!(
            largest_component_after_removal(g, &bag) <= g.node_count() / 2,
            "bag {c} is not a center"
        );
    }

    #[test]
    fn center_matches_reference_on_fixed_families() {
        for (name, g) in reference_cases() {
            let dec = min_degree_decomposition(&g);
            assert_matches_reference(&g, &dec, &name);
            let mask = random_mask(&g, 11);
            if mask.is_empty() {
                continue;
            }
            let view = SubgraphView::new(&g, &mask);
            let what = format!("{name}, induced subgraph");
            assert_matches_reference(&view, &min_degree_decomposition(&view), &what);
            assert_matches_reference(&view, &dec, &format!("{what}, whole-graph bags"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn center_matches_reference_on_random_views(
            g in psep_testkit::arb_graph(),
            seed in any::<u64>(),
        ) {
            assert_matches_reference(&g, &min_degree_decomposition(&g), "whole graph");
            assert_matches_reference(&g, &min_fill_decomposition(&g), "whole graph, min-fill");
            let mask = random_mask(&g, seed);
            prop_assume!(!mask.is_empty());
            let view = SubgraphView::new(&g, &mask);
            assert_matches_reference(&view, &min_degree_decomposition(&view), "induced subgraph");
            assert_matches_reference(
                &view,
                &min_degree_decomposition(&g),
                "induced subgraph, whole-graph bags",
            );
        }
    }

    fn assert_center<G: GraphRef>(g: &G, dec: &TreeDecomposition) {
        assert_center_index(g, dec, center_bag(g, dec));
    }

    #[test]
    fn center_of_path_decomposition() {
        let g = trees::path(9);
        let dec = min_degree_decomposition(&g);
        assert_center(&g, &dec);
    }

    #[test]
    fn center_of_random_trees() {
        for seed in 0..5 {
            let g = trees::random_tree(64, seed);
            let dec = min_degree_decomposition(&g);
            assert_center(&g, &dec);
        }
    }

    #[test]
    fn center_of_k_tree() {
        let kt = ktree::random_k_tree(50, 3, 2);
        let dec = min_degree_decomposition(&kt.graph);
        assert_center(&kt.graph, &dec);
    }

    #[test]
    fn center_of_grid() {
        let g = grids::grid2d(6, 6, 1);
        let dec = min_degree_decomposition(&g);
        assert_center(&g, &dec);
    }

    #[test]
    fn center_of_trivial_decomposition() {
        let g = trees::path(5);
        let dec = TreeDecomposition::trivial(&g);
        assert_eq!(center_bag(&g, &dec), 0);
    }

    #[test]
    fn center_on_subgraph_view() {
        let g = trees::path(10);
        let dec = min_degree_decomposition(&g);
        let mut mask = psep_graph::NodeMask::all(10);
        mask.remove(NodeId(9));
        let view = psep_graph::SubgraphView::new(&g, &mask);
        assert_center(&view, &dec);
    }
}
