//! Seeded inputs: the graph a workload serves and the `(source, target)`
//! pairs its requests carry. The same seed always gives the same inputs.

use psep_graph::generators::{grids, trees};
use psep_graph::{Graph, NodeId};

/// The graph family of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Square unit grid (the seed does not change the graph).
    Grid,
    /// Uniform random recursive tree.
    Tree,
}

impl Family {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "grid" => Ok(Family::Grid),
            "tree" => Ok(Family::Tree),
            _ => Err(format!("unknown graph family {s:?} (grid, tree)")),
        }
    }
}

/// Everything that defines one workload's inputs.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub family: Family,
    pub nodes: usize,
    /// Seed of the random graph families: fixed per workload, so every
    /// run serves the same graph.
    pub graph_seed: u64,
    /// Seed of the pairs: the run's `--seed`.
    pub seed: u64,
}

impl Spec {
    pub fn graph(&self) -> Graph {
        match self.family {
            Family::Grid => {
                let side = (self.nodes as f64).sqrt().round().max(2.0) as usize;
                grids::grid2d(side, side, 1)
            }
            Family::Tree => trees::random_tree(self.nodes, self.graph_seed),
        }
    }

    /// The run's `count` request pairs over `n` vertices.
    pub fn pairs(&self, n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
        self.draw(self.seed, n, count)
    }

    /// The witness-path pairs: fixed per workload like the graph, since
    /// paths differ 100x in cost between pairs, so a small pool drawn
    /// per run would move the path metrics by itself.
    pub fn path_pairs(&self, n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
        self.draw(self.graph_seed ^ 0x5eed_9a75, n, count)
    }

    /// `count` uniform pairs over `n` vertices.
    fn draw(&self, seed: u64, n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
        let mut rng = SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15);
        (0..count)
            .map(|_| {
                let u = rng.below(n);
                let v = rng.below(n);
                (NodeId::from_index(u), NodeId::from_index(v))
            })
            .collect()
    }
}

/// SplitMix64: tiny, seedable, and stable across platforms.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}
