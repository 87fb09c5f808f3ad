//! Shortest-path primitives: BFS (unit weights), all-pairs distances, and
//! the per-arc weighted Dijkstra the flow solver uses.
//!
//! All functions traverse an immutable [`CsrGraph`] snapshot; the all-pairs
//! sweep fans the per-source searches out with rayon and is bit-identical to
//! the serial variant (each source's result is independent and merged in
//! source order).

use crate::Path;
use jellyfish_topology::bfs::{ms_bfs_into, MsBfsScratch};
use jellyfish_topology::{ArcId, CsrGraph, NodeId};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

pub use jellyfish_topology::bfs::{DistanceMatrix, UNREACHED};

/// Result of a single-source BFS: distances and parent pointers.
#[derive(Debug, Clone)]
pub struct BfsTree {
    /// Distance (in hops) from the source; `usize::MAX` when unreachable.
    pub dist: Vec<usize>,
    /// Parent of each node in the BFS tree; `usize::MAX` for the source and
    /// unreachable nodes.
    pub parent: Vec<usize>,
    /// The source node.
    pub source: NodeId,
}

impl BfsTree {
    /// Extracts the (unique, per this tree) shortest path to `dst`, or `None`
    /// if unreachable.
    pub fn path_to(&self, dst: NodeId) -> Option<Path> {
        if self.dist[dst] == usize::MAX {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != self.source {
            cur = self.parent[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Breadth-first search from `source`.
pub fn bfs(csr: &CsrGraph, source: NodeId) -> BfsTree {
    let n = csr.num_nodes();
    let mut dist = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u];
        for &v in csr.neighbors(u) {
            let v = v as usize;
            if dist[v] == usize::MAX {
                dist[v] = du + 1;
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    BfsTree { dist, parent, source }
}

/// One shortest path from `src` to `dst` (hop count metric), or `None` if
/// unreachable.
pub fn shortest_path(csr: &CsrGraph, src: NodeId, dst: NodeId) -> Option<Path> {
    bfs(csr, src).path_to(dst)
}

/// Sources per parallel task in [`all_pairs_distances`]: one multi-source
/// bit-parallel BFS batch (64 `u64` lanes), so a task sweeps the edge list
/// once per BFS level for its whole block.
const ALL_PAIRS_BLOCK: usize = 64;

/// Fills `rows` (`sources.len() × n`, row-major) with the hop distances from
/// each of `sources`: one rayon task per 64-source batch, each writing its
/// rows straight into its own `chunks_mut` slice of the caller's buffer, so
/// the fan-out allocates no result blocks and never changes the result.
pub(crate) fn distance_rows_into(csr: &CsrGraph, sources: &[NodeId], rows: &mut [u32]) {
    let n = csr.num_nodes();
    assert_eq!(rows.len(), sources.len() * n, "rows must be sources × n");
    if rows.is_empty() {
        return;
    }
    sources
        .chunks(ALL_PAIRS_BLOCK)
        .zip(rows.chunks_mut(ALL_PAIRS_BLOCK * n))
        .collect::<Vec<_>>()
        .into_par_iter()
        .for_each(|(batch, block)| {
            let mut scratch = MsBfsScratch::new(n);
            ms_bfs_into(csr, batch, block, &mut scratch);
        });
}

/// All-pairs shortest-path distances (hop counts) as a flat row-major
/// [`DistanceMatrix`] (`row(src)[dst]`, [`UNREACHED`] when unreachable).
/// One rayon task per 64-source batch; results are identical to
/// [`all_pairs_distances_serial`].
pub fn all_pairs_distances(csr: &CsrGraph) -> DistanceMatrix {
    let n = csr.num_nodes();
    let sources: Vec<NodeId> = csr.nodes().collect();
    let mut data = vec![UNREACHED; n * n];
    distance_rows_into(csr, &sources, &mut data);
    DistanceMatrix::from_flat(n, data)
}

/// Serial reference implementation of [`all_pairs_distances`]; used by the
/// determinism tests and as the benchmark comparison point.
pub fn all_pairs_distances_serial(csr: &CsrGraph) -> DistanceMatrix {
    let n = csr.num_nodes();
    let mut data = vec![UNREACHED; n * n];
    let mut scratch = MsBfsScratch::new(n);
    let sources: Vec<NodeId> = csr.nodes().collect();
    for (b, batch) in sources.chunks(ALL_PAIRS_BLOCK).enumerate() {
        let start = b * ALL_PAIRS_BLOCK * n;
        ms_bfs_into(csr, batch, &mut data[start..start + batch.len() * n], &mut scratch);
    }
    DistanceMatrix::from_flat(n, data)
}

/// The pre-rewrite all-pairs sweep — one queue-driven scalar BFS per source,
/// each allocating its own `Vec<usize>` row (`usize::MAX` when unreachable),
/// the whole result one heap cell per source — kept as the `BENCH_*.json`
/// baseline the `speedup_vs_scalar` trajectory is measured against.
pub fn all_pairs_distances_reference(csr: &CsrGraph) -> Vec<Vec<usize>> {
    let n = csr.num_nodes();
    csr.nodes()
        .map(|src| {
            let mut row = vec![UNREACHED; n];
            jellyfish_topology::bfs::bfs_scalar_into(csr, src, &mut row);
            row.into_iter().map(|d| if d == UNREACHED { usize::MAX } else { d as usize }).collect()
        })
        .collect()
}

/// Dijkstra with weights indexed by dense [`ArcId`] — the hot-path variant
/// the flow solver uses so per-arc state lives in a flat slice.
///
/// Weights must be non-negative; an arc whose weight is `INFINITY` (or NaN)
/// is masked out of the search without mutating the graph.
pub fn dijkstra_arcs<F>(csr: &CsrGraph, source: NodeId, arc_weight: F) -> (Vec<f64>, Vec<usize>)
where
    F: Fn(ArcId) -> f64,
{
    dijkstra_core(csr, source, |_, arc| arc_weight(arc))
}

/// The Dijkstra scan behind [`dijkstra_arcs`]. Kept as its own function:
/// with this body inlined into `dijkstra_arcs`, the flow solver's
/// shortest-path loop ran 5–10% slower on the `perfbench` capacity workload
/// (2-core x86-64 Linux).
fn dijkstra_core<F>(csr: &CsrGraph, source: NodeId, arc_weight: F) -> (Vec<f64>, Vec<usize>)
where
    F: Fn(NodeId, ArcId) -> f64,
{
    let n = csr.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![usize::MAX; n];
    let mut heap: BinaryHeap<Reverse<(OrderedF64, NodeId)>> = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(Reverse((OrderedF64(0.0), source)));
    while let Some(Reverse((OrderedF64(d), u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for arc in csr.arc_range(u) {
            let w = arc_weight(u, arc);
            if !w.is_finite() || w < 0.0 {
                continue;
            }
            let v = csr.arc_target(arc);
            let nd = d + w;
            if nd + 1e-15 < dist[v] {
                dist[v] = nd;
                parent[v] = u;
                heap.push(Reverse((OrderedF64(nd), v)));
            }
        }
    }
    (dist, parent)
}

fn extract_path(src: NodeId, dst: NodeId, dist: &[f64], parent: &[usize]) -> Option<(Path, f64)> {
    if !dist[dst].is_finite() {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur];
        if cur == usize::MAX {
            return None;
        }
        path.push(cur);
    }
    path.reverse();
    Some((path, dist[dst]))
}

/// Shortest path by Dijkstra under a dense per-arc weight function.
pub fn weighted_shortest_path_arcs<F>(
    csr: &CsrGraph,
    src: NodeId,
    dst: NodeId,
    arc_weight: F,
) -> Option<(Path, f64)>
where
    F: Fn(ArcId) -> f64,
{
    let (dist, parent) = dijkstra_arcs(csr, src, arc_weight);
    extract_path(src, dst, &dist, &parent)
}

/// Total-ordered f64 wrapper for use in the Dijkstra heap. NaN is never
/// inserted (weights are checked), so the ordering is total in practice.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(std::cmp::Ordering::Equal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::{Graph, JellyfishBuilder};

    fn grid3x3() -> CsrGraph {
        // 0-1-2 / 3-4-5 / 6-7-8 grid, no wraparound.
        let mut g = Graph::new(9);
        for y in 0..3 {
            for x in 0..3 {
                let id = y * 3 + x;
                if x < 2 {
                    g.add_edge(id, id + 1);
                }
                if y < 2 {
                    g.add_edge(id, id + 3);
                }
            }
        }
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn bfs_distances_on_grid() {
        let g = grid3x3();
        let t = bfs(&g, 0);
        assert_eq!(t.dist[0], 0);
        assert_eq!(t.dist[8], 4);
        assert_eq!(t.dist[4], 2);
    }

    #[test]
    fn bfs_path_reconstruction() {
        let g = grid3x3();
        let t = bfs(&g, 0);
        let p = t.path_to(8).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&8));
        assert_eq!(p.len(), 5);
        assert!(crate::is_valid_simple_path(&g, &p));
        assert_eq!(t.path_to(0).unwrap(), vec![0]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        let csr = CsrGraph::from_graph(&g);
        let t = bfs(&csr, 0);
        assert!(t.path_to(2).is_none());
        assert_eq!(t.dist[2], usize::MAX);
    }

    #[test]
    fn all_pairs_symmetric() {
        let g = grid3x3();
        let d = all_pairs_distances(&g);
        for (u, row) in d.rows().enumerate() {
            for (v, &duv) in row.iter().enumerate() {
                assert_eq!(duv, d.get(v, u));
            }
        }
        assert_eq!(d.get(0, 8), 4);
        assert_eq!(d.get(2, 6), 4);
    }

    #[test]
    fn parallel_all_pairs_matches_serial() {
        let topo = JellyfishBuilder::new(60, 10, 6).seed(11).build().unwrap();
        let csr = topo.csr();
        let parallel = all_pairs_distances(&csr);
        assert_eq!(parallel, all_pairs_distances_serial(&csr));
        let reference = all_pairs_distances_reference(&csr);
        for (src, row) in reference.iter().enumerate() {
            for (dst, &d) in row.iter().enumerate() {
                let got = parallel.get(src, dst);
                let want = if d == usize::MAX { UNREACHED } else { d as u32 };
                assert_eq!(got, want, "{src}->{dst}");
            }
        }
    }

    #[test]
    fn dijkstra_unit_weights_matches_bfs() {
        let topo = JellyfishBuilder::new(40, 8, 5).seed(2).build().unwrap();
        let g = topo.csr();
        let b = bfs(&g, 0);
        let (d, _) = dijkstra_arcs(&g, 0, |_| 1.0);
        for v in g.nodes() {
            assert!((d[v] - b.dist[v] as f64).abs() < 1e-9, "node {v}");
        }
    }

    #[test]
    fn arc_weights_match_pair_weights() {
        let topo = JellyfishBuilder::new(30, 8, 5).seed(4).build().unwrap();
        let csr = topo.csr();
        // A weight that depends on the endpoints, looked up per arc and
        // checked against Bellman-Ford relaxation over the endpoint pairs.
        let pair_weight = |u: usize, v: usize| 1.0 + ((u * 7 + v * 13) % 5) as f64;
        let (d, _) =
            dijkstra_arcs(&csr, 3, |arc| pair_weight(csr.arc_source(arc), csr.arc_target(arc)));
        let mut want = vec![f64::INFINITY; csr.num_nodes()];
        want[3] = 0.0;
        for _ in csr.nodes() {
            for u in csr.nodes() {
                for &v in csr.neighbors(u) {
                    let v = v as usize;
                    want[v] = want[v].min(want[u] + pair_weight(u, v));
                }
            }
        }
        for v in csr.nodes() {
            assert!((d[v] - want[v]).abs() < 1e-12, "node {v}");
        }
    }

    /// Per-arc weights of `csr` from an undirected link weight.
    fn link_weights(csr: &CsrGraph, weight: impl Fn(usize, usize) -> f64) -> Vec<f64> {
        (0..csr.num_arcs())
            .map(|arc| {
                let (u, v) = (csr.arc_source(arc), csr.arc_target(arc));
                weight(u.min(v), u.max(v))
            })
            .collect()
    }

    #[test]
    fn dijkstra_prefers_cheap_detour() {
        // 0-1-2 chain cheap, direct 0-2 expensive.
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        let csr = CsrGraph::from_graph(&g);
        let w = link_weights(&csr, |u, v| if (u, v) == (0, 2) { 10.0 } else { 1.0 });
        let (path, cost) = weighted_shortest_path_arcs(&csr, 0, 2, |arc| w[arc]).unwrap();
        assert_eq!(path, vec![0, 1, 2]);
        assert!((cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dijkstra_infinite_weight_masks_links() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let csr = CsrGraph::from_graph(&g);
        let w = link_weights(&csr, |u, v| if (u, v) == (1, 2) { f64::INFINITY } else { 1.0 });
        assert!(weighted_shortest_path_arcs(&csr, 0, 2, |arc| w[arc]).is_none());
    }

    #[test]
    fn weighted_path_to_self() {
        let g = grid3x3();
        let (p, c) = weighted_shortest_path_arcs(&g, 4, 4, |_| 1.0).unwrap();
        assert_eq!(p, vec![4]);
        assert_eq!(c, 0.0);
    }
}
