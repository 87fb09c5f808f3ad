//! Yen's loopless k-shortest-paths algorithm (Yen, Management Science 1971).
//!
//! The paper routes Jellyfish traffic over the `k = 8` shortest paths between
//! every switch pair (§5.1). Yen's algorithm finds the k shortest *simple*
//! (loop-free) paths by repeatedly computing "spur paths" that deviate from
//! previously found paths, with links and nodes of the shared prefix masked
//! out of the shortest-path search.
//!
//! Links have unit weight (hop count), so every search — the first path and
//! each spur path — is a breadth-first search over the [`CsrGraph`] with the
//! masks applied in place:
//!
//! * **Masked nodes** (the root prefix before the spur node) are pre-marked
//!   as visited in a generation-stamped array, so the search never enters
//!   them and the spliced path stays simple.
//! * **Masked links** are the links earlier paths sharing the root take out
//!   of the spur node. Every one of them leaves the spur node, so the search
//!   checks a slice of at most `k` blocked next-hops, and only while
//!   expanding the spur node itself.
//! * **Level order.** Each BFS level is sorted ascending before it is
//!   expanded, so a node's parent is the smallest-id predecessor one level
//!   up. That is exactly the tree a `(dist, node)` min-heap Dijkstra builds
//!   on unit weights: equal distances pop in ascending id, a node's first
//!   relaxation comes from the first popped neighbour one level up, and no
//!   node is ever relaxed twice. The paths (and so the whole output) are
//!   identical to a weighted-Dijkstra Yen with unit weights; the routing
//!   crate's differential proptest pins this against such an oracle.
//! * **Early exit.** The search stops when it discovers `dst`: every node
//!   on its parent chain was settled on an earlier level.
//!
//! The stamp, parent and frontier buffers are allocated once per
//! [`k_shortest_paths`] call and reused by every spur search. Candidates are
//! kept in a `BTreeSet` keyed by `(hops, path)`, so the output is sorted by
//! length and then lexically, and duplicates reached from different spur
//! nodes collapse.
//!
//! Hand-rolled per the reproduction note that no external graph crate is
//! used.

use crate::{path_hops, Path};
use jellyfish_topology::{CsrGraph, NodeId};
use rayon::prelude::*;
use std::collections::BTreeSet;

/// Finds up to `k` loopless shortest paths from `src` to `dst` using unit
/// link weights (hop count). Paths are returned sorted by (length, lexical
/// order) and are pairwise distinct. Returns an empty vector if `dst` is
/// unreachable; returns `[[src]]` when `src == dst`.
pub fn k_shortest_paths(csr: &CsrGraph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    if k == 0 {
        return Vec::new();
    }
    if src == dst {
        return vec![vec![src]];
    }
    let mut search = SpurSearch::new(csr.num_nodes());
    let Some(first) = search.run(csr, src, dst, &[], &[]) else {
        return Vec::new();
    };

    let mut found: Vec<Path> = vec![first];
    let mut candidates: BTreeSet<(usize, Path)> = BTreeSet::new();
    let mut blocked: Vec<NodeId> = Vec::new();

    while found.len() < k {
        let last = &found[found.len() - 1];
        // Each node of the previous path except the final one is a spur node.
        for spur_idx in 0..last.len() - 1 {
            let root = &last[..=spur_idx];
            // Every found path sharing this root blocks the link it takes
            // out of the spur node. (Such a path is longer than the root:
            // it ends at `dst`, which is not on the root.)
            blocked.clear();
            blocked.extend(
                found
                    .iter()
                    .filter(|p| p.len() > spur_idx + 1 && p[..=spur_idx] == *root)
                    .map(|p| p[spur_idx + 1]),
            );
            let Some(spur) = search.run(csr, root[spur_idx], dst, &root[..spur_idx], &blocked)
            else {
                continue;
            };
            let mut total: Path = root[..spur_idx].to_vec();
            total.extend(spur);
            if !found.contains(&total) {
                candidates.insert((path_hops(&total), total));
            }
        }
        // Pop the shortest candidate not yet in the result set.
        let next = loop {
            let Some((_, path)) = candidates.pop_first() else {
                return found;
            };
            if !found.contains(&path) {
                break path;
            }
        };
        found.push(next);
    }
    found
}

/// Reusable state of the masked unit-weight BFS behind every Yen search.
struct SpurSearch {
    /// `stamp[v] == epoch` marks `v` visited (or masked) in the current
    /// search; bumping `epoch` clears the array in O(1).
    stamp: Vec<usize>,
    epoch: usize,
    /// BFS parent of each node visited in the current search.
    parent: Vec<NodeId>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl SpurSearch {
    fn new(n: usize) -> Self {
        SpurSearch {
            stamp: vec![0; n],
            epoch: 0,
            parent: vec![0; n],
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Shortest `from → dst` path that avoids the `masked` nodes and the
    /// links `from → b` for every `b` in `blocked`, with the smallest-id
    /// parent at every level; `None` when `dst` is cut off.
    fn run(
        &mut self,
        csr: &CsrGraph,
        from: NodeId,
        dst: NodeId,
        masked: &[NodeId],
        blocked: &[NodeId],
    ) -> Option<Path> {
        self.epoch += 1;
        let SpurSearch { stamp, epoch, parent, frontier, next } = self;
        let epoch = *epoch;
        for &m in masked {
            stamp[m] = epoch;
        }
        stamp[from] = epoch;
        frontier.clear();
        frontier.push(from);
        while !frontier.is_empty() {
            next.clear();
            for &u in frontier.iter() {
                for &v in csr.neighbors(u) {
                    let v = v as NodeId;
                    if stamp[v] == epoch || (u == from && blocked.contains(&v)) {
                        continue;
                    }
                    stamp[v] = epoch;
                    parent[v] = u;
                    if v == dst {
                        let mut path = vec![dst];
                        let mut cur = dst;
                        while cur != from {
                            cur = parent[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    next.push(v);
                }
            }
            next.sort_unstable();
            std::mem::swap(frontier, next);
        }
        None
    }
}

/// All-pairs k-shortest paths; `paths[s][d]` holds the path set from `s` to
/// `d` (empty on the diagonal). Intended for the moderate sizes the paper's
/// packet-level experiments use.
pub fn all_pairs_k_shortest(csr: &CsrGraph, k: usize) -> Vec<Vec<Vec<Path>>> {
    let n = csr.num_nodes();
    csr.nodes()
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|s| {
            (0..n)
                .map(|d| if s == d { Vec::new() } else { k_shortest_paths(csr, s, d, k) })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_valid_simple_path;
    use jellyfish_topology::{Graph, JellyfishBuilder};

    /// The classic example graph used to illustrate Yen's algorithm.
    fn diamond() -> CsrGraph {
        // 0 -- 1 -- 3
        //  \   |   /
        //   \  2  /
        //    \ | /
        //      4
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 3);
        g.add_edge(0, 4);
        g.add_edge(4, 3);
        g.add_edge(1, 2);
        g.add_edge(2, 4);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn finds_all_simple_paths_in_small_graph() {
        let g = diamond();
        let paths = k_shortest_paths(&g, 0, 3, 10);
        // Simple paths 0->3: [0,1,3], [0,4,3], [0,1,2,4,3], [0,4,2,1,3].
        assert_eq!(paths.len(), 4);
        assert_eq!(paths[0].len(), 3);
        assert_eq!(paths[1].len(), 3);
        assert_eq!(paths[2].len(), 5);
        assert_eq!(paths[3].len(), 5);
        for p in &paths {
            assert!(is_valid_simple_path(&g, p));
            assert_eq!(p.first(), Some(&0));
            assert_eq!(p.last(), Some(&3));
        }
        // All distinct.
        let set: std::collections::HashSet<_> = paths.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn k_limits_result_count() {
        let g = diamond();
        assert_eq!(k_shortest_paths(&g, 0, 3, 2).len(), 2);
        assert_eq!(k_shortest_paths(&g, 0, 3, 1).len(), 1);
        assert!(k_shortest_paths(&g, 0, 3, 0).is_empty());
    }

    #[test]
    fn paths_sorted_by_length() {
        let g = diamond();
        let paths = k_shortest_paths(&g, 0, 3, 8);
        for w in paths.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
    }

    #[test]
    fn unreachable_and_self_cases() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        let g = CsrGraph::from_graph(&g);
        assert!(k_shortest_paths(&g, 0, 2, 4).is_empty());
        assert_eq!(k_shortest_paths(&g, 1, 1, 4), vec![vec![1]]);
    }

    #[test]
    fn line_graph_has_single_path() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let g = CsrGraph::from_graph(&g);
        let paths = k_shortest_paths(&g, 0, 3, 8);
        assert_eq!(paths, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn cycle_graph_has_exactly_two_paths() {
        let mut g = Graph::new(6);
        for i in 0..6 {
            g.add_edge(i, (i + 1) % 6);
        }
        let g = CsrGraph::from_graph(&g);
        let paths = k_shortest_paths(&g, 0, 3, 8);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].len(), 4);
        assert_eq!(paths[1].len(), 4);
    }

    #[test]
    fn jellyfish_8_shortest_paths_are_valid_and_distinct() {
        let topo = JellyfishBuilder::new(40, 10, 6).seed(5).build().unwrap();
        let g = &topo.csr();
        for (s, d) in [(0usize, 20usize), (3, 35), (11, 29)] {
            let paths = k_shortest_paths(g, s, d, 8);
            assert_eq!(paths.len(), 8, "expected 8 paths between {s} and {d}");
            let set: std::collections::HashSet<_> = paths.iter().collect();
            assert_eq!(set.len(), 8);
            for p in &paths {
                assert!(is_valid_simple_path(g, p));
                assert_eq!(p.first(), Some(&s));
                assert_eq!(p.last(), Some(&d));
            }
            // First path is a true shortest path.
            let sp = crate::shortest::shortest_path(g, s, d).unwrap();
            assert_eq!(paths[0].len(), sp.len());
        }
    }

    #[test]
    fn all_pairs_table_dimensions() {
        let topo = JellyfishBuilder::new(12, 6, 3).seed(1).build().unwrap();
        let table = all_pairs_k_shortest(&topo.csr(), 4);
        assert_eq!(table.len(), 12);
        for (s, row) in table.iter().enumerate() {
            for (d, cell) in row.iter().enumerate() {
                if s == d {
                    assert!(cell.is_empty());
                } else {
                    assert!(!cell.is_empty());
                    assert!(cell.len() <= 4);
                }
            }
        }
    }
}
