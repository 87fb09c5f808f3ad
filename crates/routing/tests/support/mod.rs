//! Test support for the routing crate.
//!
//! [`yen_dijkstra_oracle`] is Yen's algorithm as it stood before the spur
//! search became a masked BFS: every search is a full weighted Dijkstra
//! with unit link weights, the masked root nodes and spur links expressed
//! as infinite arc weights, and candidates keyed by their `f64` cost. The
//! differential proptest pins `k_shortest_paths` to it path for path.

use std::collections::BTreeSet;

use jellyfish_routing::shortest::weighted_shortest_path_arcs;
use jellyfish_routing::Path;
use jellyfish_topology::{CsrGraph, NodeId};

/// Up to `k` loopless shortest `src → dst` paths, sorted by (cost, lexical
/// path), found with one unit-weight Dijkstra per spur node.
pub fn yen_dijkstra_oracle(csr: &CsrGraph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    if k == 0 {
        return Vec::new();
    }
    if src == dst {
        return vec![vec![src]];
    }
    let Some((first, _)) = weighted_shortest_path_arcs(csr, src, dst, |_| 1.0) else {
        return Vec::new();
    };

    let mut found: Vec<Path> = vec![first];
    let mut candidates: BTreeSet<(CostKey, Path)> = BTreeSet::new();

    while found.len() < k {
        let last = found.last().expect("at least one path found").clone();
        for spur_idx in 0..last.len() - 1 {
            let spur_node = last[spur_idx];
            let root = &last[..=spur_idx];

            // Arc mask: arcs touching a root node before the spur node, and
            // both arcs of every link a found path sharing the root takes
            // out of the spur node.
            let masked_nodes = &root[..spur_idx];
            let mut masked_links: Vec<(NodeId, NodeId)> = Vec::new();
            for p in &found {
                if p.len() > spur_idx && p[..=spur_idx] == *root {
                    let (a, b) = (p[spur_idx], p[spur_idx + 1]);
                    masked_links.push((a.min(b), a.max(b)));
                }
            }
            let masked: Vec<bool> = (0..csr.num_arcs())
                .map(|arc| {
                    let (u, v) = (csr.arc_source(arc), csr.arc_target(arc));
                    masked_nodes.contains(&u)
                        || masked_nodes.contains(&v)
                        || masked_links.contains(&(u.min(v), u.max(v)))
                })
                .collect();

            let weight = |arc| if masked[arc] { f64::INFINITY } else { 1.0 };
            if let Some((spur_path, _)) = weighted_shortest_path_arcs(csr, spur_node, dst, weight) {
                let mut total: Path = root[..spur_idx].to_vec();
                total.extend(spur_path);
                if found.contains(&total) {
                    continue;
                }
                let cost: f64 = total.windows(2).map(|_| 1.0).sum();
                candidates.insert((CostKey(cost), total));
            }
        }
        let next = loop {
            let Some(entry) = candidates.iter().next().cloned() else {
                return found;
            };
            candidates.remove(&entry);
            if !found.contains(&entry.1) {
                break entry.1;
            }
        };
        found.push(next);
    }
    found
}

/// Ordered f64 key for the candidate set (costs are finite by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct CostKey(f64);

impl Eq for CostKey {}

impl PartialOrd for CostKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CostKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
