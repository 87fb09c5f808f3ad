//! Differential test: the masked-BFS Yen (`k_shortest_paths`) returns
//! exactly the path list of the weighted-Dijkstra Yen oracle in
//! `support` — same paths, same (length, lexical) order — on every ordered
//! pair of random Jellyfish graphs (with failed links and disconnected
//! pairs) and of a k = 4 fat-tree, for k in 1..=16.

mod support;

use jellyfish_routing::yen::k_shortest_paths;
use jellyfish_topology::failures::fail_random_links;
use jellyfish_topology::fattree::FatTree;
use jellyfish_topology::{CsrGraph, JellyfishBuilder};
use proptest::prelude::*;
use support::yen_dijkstra_oracle;

/// Asserts `k_shortest_paths == oracle` on every ordered pair; returns the
/// number of disconnected pairs seen.
fn assert_matches_oracle(csr: &CsrGraph, k: usize) -> Result<usize, TestCaseError> {
    let mut disconnected = 0;
    for src in csr.nodes() {
        for dst in csr.nodes() {
            let got = k_shortest_paths(csr, src, dst, k);
            let want = yen_dijkstra_oracle(csr, src, dst, k);
            prop_assert_eq!(&got, &want, "{} -> {} at k = {}", src, dst, k);
            disconnected += usize::from(want.is_empty());
        }
    }
    Ok(disconnected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random Jellyfish graphs with 0–50% of links failed (which disconnects
    /// pairs on the sparser draws).
    #[test]
    fn ksp_matches_dijkstra_oracle_on_jellyfish(
        n in 8usize..24,
        degree in 3usize..6,
        fail_tenths in 0usize..6,
        k in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let mut topo = JellyfishBuilder::new(n, degree + 2, degree).seed(seed).build().unwrap();
        fail_random_links(&mut topo, fail_tenths as f64 / 10.0, seed ^ 0x5eed);
        assert_matches_oracle(&topo.csr(), k)?;
    }
}

#[test]
fn ksp_matches_dijkstra_oracle_on_fattree() {
    let csr = FatTree::new(4).unwrap().into_topology().csr();
    for k in 1..=16 {
        assert_matches_oracle(&csr, k).unwrap();
    }
}

/// The failed-link draws above do reach disconnected pairs: pin one case
/// that must, so the empty-result path is always compared.
#[test]
fn oracle_comparison_covers_disconnected_pairs() {
    let mut topo = JellyfishBuilder::new(16, 5, 3).seed(9).build().unwrap();
    fail_random_links(&mut topo, 0.5, 11);
    let disconnected = assert_matches_oracle(&topo.csr(), 8).unwrap();
    assert!(disconnected > 0, "expected a disconnected pair after failing half the links");
}
