//! `packet`: path tables and packet-level Table 1 cells on the paper's
//! instances, Jellyfish 245 × 14 and the k = 14 fat-tree on the same
//! switches (Table 1's pairing).
//!
//! A round builds the ECMP-8 and KSP-8 `PathTable`s over the switch pairs
//! of the Jellyfish permutation (Figure 9's step), then runs three Table 1
//! cells with a shortened simulated duration: fat-tree ECMP-8/TCP-1,
//! Jellyfish ECMP-8/TCP-8 and Jellyfish KSP-8/MPTCP-8. Each cell is
//! `sim::build_connections` → `Network::build` → `Simulator::run`, then the
//! max-min fluid allocation of the same connections. Most of the time is
//! Yen's k shortest paths and the event engine; there is no flow solve.

use jellyfish::routing::path_table::{PathTable, RoutingScheme};
use jellyfish::routing::{is_valid_simple_path, Path};
use jellyfish::sim::fluid::max_min_fair_allocation;
use jellyfish::sim::net::{LinkParams, Network};
use jellyfish::sim::workload::Connection;
use jellyfish::sim::{build_connections, PathPolicy, SimConfig, Simulator, TransportPolicy};
use jellyfish::topology::{CsrGraph, NodeId, TopoSpec};
use jellyfish::traffic::{ServerMap, TrafficMatrix, TrafficSpec};

use crate::trace::Tracer;
use crate::{Workload, DEFAULT_SEED};

/// Table 1's paper-scale pairing: 686 fat-tree servers against 771 on a
/// Jellyfish built from the same 245 14-port switches.
const FATTREE: &str = "fattree:k=14";
const JELLYFISH: &str = "jellyfish:switches=245,ports=14,servers_total=771";

/// Simulated seconds per cell (the paper runs 20 s; the first quarter is
/// warm-up, as in the `table1` experiment).
const DURATION: f64 = 4.0;

/// Results recorded at the default seed: (mean packet-level throughput,
/// drops, transmitted, mean fluid throughput) per cell, in cell order.
const CELLS_AT_DEFAULT_SEED: [(f64, u64, u64, f64); 3] = [
    (0.12753158406219628, 6976, 448164, 0.18553487606992272),
    (0.5510159965412887, 47779, 1857129, 0.7450894826842943),
    (0.5602637267617809, 44123, 2188312, 0.8350522701728954),
];
/// (pairs, paths) of the ECMP-8 and KSP-8 tables at the default seed.
const TABLES_AT_DEFAULT_SEED: [(usize, usize); 2] = [(768, 2396), (768, 6144)];

struct Instance {
    csr: CsrGraph,
    servers: ServerMap,
    tm: TrafficMatrix,
}

/// What one cell produced, kept for the checks after the timed phase.
#[derive(Debug, Clone, PartialEq)]
struct CellResult {
    throughputs: Vec<f64>,
    drops: u64,
    transmitted: u64,
    fluid: Vec<f64>,
}

impl CellResult {
    fn summary(&self) -> (f64, u64, u64, f64) {
        (mean(&self.throughputs), self.drops, self.transmitted, mean(&self.fluid))
    }
}

pub struct Packet {
    seed: u64,
    fattree: Instance,
    jellyfish: Instance,
    pairs: Vec<(NodeId, NodeId)>,
    /// The first round's ECMP-8 and KSP-8 tables. Later rounds' tables are
    /// compared with these and dropped, so the bookkeeping does not grow
    /// peak memory with the number of rounds.
    tables: Vec<PathTable>,
    /// Per table op, in op order: whether its table equals the first
    /// round's.
    same_table: Vec<bool>,
    cells: Vec<CellResult>,
}

fn instance(spec: &str, seed: u64) -> Result<Instance, String> {
    let spec: TopoSpec = spec.parse().map_err(|e| format!("spec '{spec}': {e}"))?;
    let topo = spec.build(seed).map_err(|e| format!("spec '{spec}': {e}"))?;
    let servers = ServerMap::new(&topo);
    let tm = TrafficSpec::permutation().matrix(&servers, seed).map_err(|e| e.to_string())?;
    Ok(Instance { csr: topo.csr(), servers, tm })
}

fn cells() -> [(bool, PathPolicy, TransportPolicy); 3] {
    [
        (false, PathPolicy::ecmp8(), TransportPolicy::Tcp { flows: 1 }),
        (true, PathPolicy::ecmp8(), TransportPolicy::Tcp { flows: 8 }),
        (true, PathPolicy::ksp8(), TransportPolicy::Mptcp { subflows: 8 }),
    ]
}

impl Workload for Packet {
    fn setup(seed: u64) -> Result<Self, String> {
        let fattree = instance(FATTREE, seed)?;
        let jellyfish = instance(JELLYFISH, seed)?;
        let pairs = jellyfish
            .tm
            .switch_demands(&jellyfish.servers)
            .into_iter()
            .map(|(s, d, _)| (s, d))
            .collect();
        Ok(Packet {
            seed,
            fattree,
            jellyfish,
            pairs,
            tables: Vec::new(),
            same_table: Vec::new(),
            cells: Vec::new(),
        })
    }

    fn round(&mut self, tr: &mut Tracer, op_ms: &mut Vec<f32>) {
        let tables = [
            (
                RoutingScheme::ecmp8(),
                "routing.path_table.ecmp8",
                "routing.path_table.ecmp8.pairs",
                "routing.path_table.ecmp8.paths",
            ),
            (
                RoutingScheme::ksp8(),
                "routing.path_table.ksp8",
                "routing.path_table.ksp8.pairs",
                "routing.path_table.ksp8.paths",
            ),
        ];
        for (i, (scheme, span, pairs, paths)) in tables.into_iter().enumerate() {
            let table = crate::timed_op(tr, op_ms, "op.table", |tr| {
                tr.span(span, |_| {
                    PathTable::build(&self.jellyfish.csr, scheme, self.pairs.iter().copied())
                })
            });
            tr.count(pairs, table.num_pairs() as f64);
            tr.count(paths, table.num_paths() as f64);
            if self.tables.len() < 2 {
                self.tables.push(table);
                self.same_table.push(true);
            } else {
                self.same_table.push(table == self.tables[i]);
            }
        }
        for (on_jellyfish, policy, transport) in cells() {
            let inst = if on_jellyfish { &self.jellyfish } else { &self.fattree };
            let seed = self.seed;
            let cell = crate::timed_op(tr, op_ms, "op.cell", |tr| {
                let conns = tr.span("sim.workload", |_| {
                    build_connections(&inst.csr, &inst.servers, &inst.tm, policy, transport, seed)
                });
                let subflows: usize = conns.iter().map(Connection::num_subflows).sum();
                tr.count("sim.workload.subflows", subflows as f64);
                let net = tr.span("sim.net", |_| {
                    Network::build(&inst.csr, &inst.servers, LinkParams::default())
                });
                let config = SimConfig {
                    duration: DURATION,
                    warmup: DURATION * 0.25,
                    seed,
                    ..Default::default()
                };
                let sim_conns = conns.clone();
                let report =
                    tr.span("sim.engine", |_| Simulator::new(net, sim_conns, config).run());
                tr.count("sim.engine.packets", report.transmitted as f64);
                tr.count("sim.engine.drops", report.drops as f64);
                let fluid = tr.span("sim.fluid", |_| max_min_fair_allocation(&conns));
                CellResult {
                    throughputs: report
                        .connections
                        .iter()
                        .map(|c| c.normalized_throughput)
                        .collect(),
                    drops: report.drops,
                    transmitted: report.transmitted,
                    fluid: fluid.throughputs,
                }
            });
            self.cells.push(cell);
        }
    }

    fn op_class(&self, i: usize) -> &'static str {
        if i < 2 {
            "table"
        } else {
            "cell"
        }
    }

    fn check(&self) -> (usize, Vec<String>) {
        let mut problems = Vec::new();
        let first: Vec<Option<String>> = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, table)| {
                let counts = (table.num_pairs(), table.num_paths());
                table_problem(table, &self.pairs, &self.jellyfish.csr).or_else(|| {
                    (self.seed == DEFAULT_SEED && counts != TABLES_AT_DEFAULT_SEED[i]).then(|| {
                        format!(
                            "(pairs, paths) = {counts:?}, recorded {:?}",
                            TABLES_AT_DEFAULT_SEED[i]
                        )
                    })
                })
            })
            .collect();
        for (k, same) in self.same_table.iter().enumerate() {
            if !same {
                problems.push(format!("table {k}: differs from the first round's"));
            } else if let Some(problem) = &first[k % 2] {
                problems.push(format!("table {k}: {problem}"));
            }
        }
        let mut notes = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            let summary = cell.summary();
            if i < 3 {
                notes.push(format!(
                    "cell {i}: (mean throughput, drops, transmitted, fluid mean) = {summary:?}"
                ));
            }
            if cell.throughputs.iter().chain(&cell.fluid).any(|t| !(0.0..=1.0).contains(t)) {
                problems.push(format!("cell {i}: a connection's throughput is outside [0, 1]"));
            } else if cell.drops > cell.transmitted {
                problems.push(format!(
                    "cell {i}: {} drops > {} transmitted",
                    cell.drops, cell.transmitted
                ));
            } else if *cell != self.cells[i % 3] {
                problems.push(format!("cell {i}: differs from the first round's"));
            } else if self.seed == DEFAULT_SEED && summary != CELLS_AT_DEFAULT_SEED[i % 3] {
                problems.push(format!(
                    "cell {i}: {summary:?}, recorded {:?}",
                    CELLS_AT_DEFAULT_SEED[i % 3]
                ));
            }
        }
        let failed = problems.len();
        notes.extend(problems);
        (failed, notes)
    }
}

/// Why a path table is wrong: a pair missing, or a path that is not a
/// simple path of the graph between the pair's switches.
fn table_problem(table: &PathTable, pairs: &[(NodeId, NodeId)], csr: &CsrGraph) -> Option<String> {
    let mut expected: Vec<_> = pairs.iter().copied().filter(|(s, d)| s != d).collect();
    expected.sort_unstable();
    expected.dedup();
    if table.num_pairs() != expected.len() {
        return Some(format!("{} pairs, expected {}", table.num_pairs(), expected.len()));
    }
    for (&(s, d), paths) in table.iter() {
        let bad = |p: &Path| {
            p.first() != Some(&s) || p.last() != Some(&d) || !is_valid_simple_path(csr, p)
        };
        if paths.is_empty() || paths.len() > 8 || paths.iter().any(bad) {
            return Some(format!("pair ({s}, {d}) has a bad path set"));
        }
    }
    None
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
