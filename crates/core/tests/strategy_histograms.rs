//! `AutoStrategy` times the treewidth probe and the center-bag separator
//! that uses it as two histograms: one `core.strategy.auto.probe_ns`
//! sample per probe, one `core.strategy.auto.center_bag_ns` sample per
//! center-bag separator.
//!
//! Kept as a single test function in its own binary so no other test can
//! pollute the process-global obs registry.

use psep_core::strategy::{AutoStrategy, SeparatorStrategy};
use psep_graph::generators::{grids, ktree, trees};
use psep_graph::{Graph, NodeId};

fn histogram_count(name: &str) -> u64 {
    psep_obs::snapshot().histogram(name).map_or(0, |h| h.count)
}

fn counter(name: &str) -> u64 {
    psep_obs::snapshot().counter(name).unwrap_or(0)
}

#[test]
fn probe_and_center_bag_are_timed_separately() {
    psep_obs::set_enabled(true);
    if !psep_obs::enabled() {
        // obs feature compiled out: histograms are no-ops, nothing to assert
        return;
    }
    let auto = AutoStrategy::default();
    let separate = |g: &Graph| {
        let whole: Vec<NodeId> = g.nodes().collect();
        auto.separate(g, &whole);
    };
    let read = || {
        (
            histogram_count("core.strategy.auto.probe_ns"),
            histogram_count("core.strategy.auto.center_bag_ns"),
            counter("core.strategy.auto.center_bag"),
        )
    };

    // a 3-tree: probed, and the probe finds width 3 — center bag
    let before = read();
    separate(&ktree::random_k_tree(80, 3, 5).graph);
    assert_eq!(read(), (before.0 + 1, before.1 + 1, before.2 + 1));

    // a 20×20 grid: probed, width too large — iterative, no center bag
    let before = read();
    separate(&grids::grid2d(20, 20, 1));
    assert_eq!(read(), (before.0 + 1, before.1, before.2));

    // a tree: the centroid, no probe at all
    let before = read();
    separate(&trees::random_tree(50, 3));
    assert_eq!(read(), before);
}
