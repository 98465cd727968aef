//! Golden bundle digests: the CRC-32 of the sealed `psep-bundle/v2`
//! bytes that `LocationService::build` produces for fixed inputs.
//!
//! The equivalence suites compare two builds made by the same code
//! (threads, storage, wire, pruning). These digests pin the bytes across
//! revisions instead, so a build-plane rewrite that silently changes a
//! separator, a label or a table fails here even when every in-process
//! comparison still agrees. A deliberate format or algorithm change
//! updates the table below and says why.

use path_separators::core::wire::crc32;
use path_separators::{LocationService, ServiceParams};
use psep_testkit::families::{Family, ALL_FAMILIES};

fn digest(fam: Family, n: usize, seed: u64) -> u32 {
    let g = fam.make(n, seed);
    crc32(&LocationService::build(&g, ServiceParams::default()).to_bytes())
}

#[test]
fn every_family_seals_its_golden_bundle() {
    let golden: [(Family, u32); 9] = [
        (Family::Tree, 0x8d61_a46f),
        (Family::Outerplanar, 0xe2fc_3e39),
        (Family::SeriesParallel, 0x5cbd_9fd7),
        (Family::KTree3, 0xd6e2_e4f9),
        (Family::Grid, 0x9c32_9181),
        (Family::TriangulatedGrid, 0x2f0d_a749),
        (Family::Apollonian, 0x9ee0_14f0),
        (Family::Torus, 0xc2d3_ad42),
        (Family::MeshApex, 0xded1_3afc),
    ];
    assert_eq!(
        golden.map(|(f, _)| f),
        ALL_FAMILIES,
        "one golden digest per family"
    );
    let mismatches: Vec<String> = golden
        .iter()
        .filter_map(|&(fam, want)| {
            let got = digest(fam, 600, 1);
            (got != want).then(|| format!("{}: got {got:08x}, want {want:08x}", fam.name()))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("; "));
}

/// A 55×55 grid: the whole component fits under the width-probe limit,
/// so the probe runs on it, finds the width too large and falls
/// through to the iterative separator.
#[test]
fn probed_then_iterative_grid_seals_its_golden_bundle() {
    assert_eq!(digest(Family::Grid, 3000, 2), 0xc1c9_29c5);
}
