//! `capacity`: a fixed list of optimal-routing Garg–Könemann solves.
//!
//! Every op is one solve: `TopoSpec::build` → `Topology::csr` → permutation
//! demands through `TrafficSpec::stream(..).switch_demands` →
//! `flow::mcf::max_concurrent_flow`. The list is four items of Figure 8's
//! laptop set (uncapped, ε = 0.06) plus a Figure 2(c)-style probe capped
//! at λ = 1, which stops as soon as full throughput is proven. Capped and
//! uncapped solves end differently, so a solver change that helps one and
//! hurts the other shows up in the per-op times.

use jellyfish::flow::mcf::max_concurrent_flow;
use jellyfish::flow::{Commodity, McfOptions};
use jellyfish::topology::{ScenarioTransform, TopoSpec};
use jellyfish::traffic::{ServerMap, TrafficSpec};

use crate::trace::Tracer;
use crate::{Workload, DEFAULT_SEED};

const FIG8_JELLYFISH: &str = "jellyfish:switches=80,ports=8,servers_total=160";
const FIG8_FATTREE: &str = "fattree:k=8";

/// Four of Figure 8's laptop-scale items: k = 8 fat-tree equipment, and
/// Jellyfish with 25% more servers than the fat-tree's 128, each with the λ
/// that `figures run fig8 --scale laptop` prints for the item at the
/// default seed. Jellyfish is solved at both ends of the figure's
/// failed-link range (0 and 0.25). The fat-tree is solved at 0 and 0.10,
/// not 0.25: at 0.25 the solve ends in under a millisecond at some seeds
/// and takes about 0.4 s at others, so the op's cost would depend on the
/// seed. (The other fractions are left out so that a round takes about 5 s
/// and at least three fit in a run.)
const FIG8: [(&str, f64, f64); 4] = [
    (FIG8_JELLYFISH, 0.0, 0.8801968211458201),
    (FIG8_JELLYFISH, 0.25, 0.5604991813934939),
    (FIG8_FATTREE, 0.0, 0.9316964226805472),
    (FIG8_FATTREE, 0.10, 0.48915982186403856),
];

/// A Figure 2(c)-style probe: Jellyfish on the switches of a k = 6
/// fat-tree, carrying the fat-tree's 54 servers, which Jellyfish routes in
/// full. Solved with the default ε = 0.05 and capped at 1. (k = 4
/// equipment does not always reach λ = 1; a k = 8 probe takes about 3 s and
/// a k = 10 probe about 9 s, too long for a round.) With one probe the
/// round has five ops, and the median op is the Jellyfish solve at 0.25,
/// whose time depends less on the seed than the fat-tree solve at 0.10.
const PROBE: &str = "jellyfish:switches=45,ports=6,servers_total=54";

struct Solve {
    spec: TopoSpec,
    traffic_seed: u64,
    opts: McfOptions,
    /// λ can be no larger than this: the tightest switch's degree divided
    /// by its outbound (or inbound) demand.
    cut_bound: f64,
    /// The value λ must stay within ε of, at the default seed.
    reference: Option<f64>,
}

pub struct Capacity {
    seed: u64,
    solves: Vec<Solve>,
    /// λ of every op, in op order, over all rounds.
    lambdas: Vec<Result<f64, String>>,
}

impl Workload for Capacity {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut solves = Vec::new();
        for (base, f, lambda) in FIG8 {
            let spec = parse(base)?.with_transform(ScenarioTransform::FailLinks(f));
            // Figure 8 seeds its permutation with `seed ^ 0x8`.
            let opts = McfOptions { epsilon: 0.06, link_capacity: 1.0, lambda_cap: None };
            solves.push((spec, seed ^ 0x8, opts, lambda));
        }
        let opts = McfOptions { epsilon: 0.05, link_capacity: 1.0, lambda_cap: Some(1.0) };
        // The probe carries a load Jellyfish routes in full: it must reach
        // its cap of 1.
        solves.push((parse(PROBE)?, seed ^ 0x2C, opts, 1.0));
        let solves = solves
            .into_iter()
            .map(|(spec, traffic_seed, opts, lambda)| {
                let cut_bound = cut_bound(&spec, seed, traffic_seed)?;
                let reference = (seed == DEFAULT_SEED).then_some(lambda);
                Ok(Solve { spec, traffic_seed, opts, cut_bound, reference })
            })
            .collect::<Result<_, String>>()?;
        Ok(Capacity { seed, solves, lambdas: Vec::new() })
    }

    fn round(&mut self, tr: &mut Tracer, op_ms: &mut Vec<f32>) {
        for s in &self.solves {
            let lambda = crate::timed_op(tr, op_ms, "op.solve", |tr| solve(tr, s, self.seed));
            self.lambdas.push(lambda);
        }
    }

    fn check(&self) -> (usize, Vec<String>) {
        let n = self.solves.len();
        let mut failed = 0;
        let mut notes = Vec::new();
        let mut exact = 0;
        for (op, got) in self.lambdas.iter().enumerate() {
            let s = &self.solves[op % n];
            let first = &self.lambdas[op % n];
            let problem = match got {
                Err(e) => Some(e.clone()),
                Ok(l) if !l.is_finite() || *l < 0.0 => Some(format!("λ = {l} is not finite")),
                Ok(l) if *l > s.cut_bound * (1.0 + 1e-9) => {
                    Some(format!("λ = {l} exceeds the cut bound {}", s.cut_bound))
                }
                Ok(l) if first.as_ref().ok() != Some(l) => {
                    Some(format!("λ = {l} differs from the first round's {first:?}"))
                }
                Ok(l) => s.reference.and_then(|r| {
                    if *l == r {
                        exact += 1;
                    }
                    ((l - r).abs() > s.opts.epsilon * r)
                        .then(|| format!("λ = {l} is not within ε of the recorded {r}"))
                }),
            };
            if let Some(p) = problem {
                failed += 1;
                notes.push(format!("solve {op} ({}): {p}", s.spec));
            }
        }
        if self.seed == DEFAULT_SEED {
            notes.push(format!(
                "{exact} of {} solves equal the recorded λ bit for bit",
                self.lambdas.len()
            ));
        }
        (failed, notes)
    }
}

fn parse(spec: &str) -> Result<TopoSpec, String> {
    spec.parse().map_err(|e| format!("spec '{spec}': {e}"))
}

fn solve(tr: &mut Tracer, s: &Solve, seed: u64) -> Result<f64, String> {
    let topo = tr.span("topology.spec", |_| s.spec.build(seed)).map_err(|e| e.to_string())?;
    let csr = tr.span("topology.csr", |_| topo.csr());
    let (flows, demands) = tr
        .span("traffic.spec", |_| {
            let servers = ServerMap::new(&topo);
            let stream = TrafficSpec::permutation().stream(&servers, s.traffic_seed)?;
            let flows = stream.exact_len().unwrap_or(0);
            Ok::<_, jellyfish::traffic::TrafficSpecError>((flows, stream.switch_demands(&servers)))
        })
        .map_err(|e| e.to_string())?;
    tr.count("traffic.spec.flows", flows as f64);
    let commodities: Vec<Commodity> =
        demands.into_iter().map(|(src, dst, demand)| Commodity { src, dst, demand }).collect();
    let solution = tr.span("flow.mcf", |_| max_concurrent_flow(&csr, &commodities, s.opts));
    tr.count("flow.mcf.path_computations", solution.path_computations as f64);
    Ok(solution.lambda)
}

/// The per-switch cut bound of one solve's instance: a switch can send at
/// most its degree (unit links) and receive at most its degree, so λ is no
/// larger than degree / demand at the tightest switch.
fn cut_bound(spec: &TopoSpec, seed: u64, traffic_seed: u64) -> Result<f64, String> {
    let topo = spec.build(seed).map_err(|e| format!("spec '{spec}': {e}"))?;
    let csr = topo.csr();
    let servers = ServerMap::new(&topo);
    let demands = TrafficSpec::permutation()
        .stream(&servers, traffic_seed)
        .map_err(|e| e.to_string())?
        .switch_demands(&servers);
    let mut out = vec![0.0; csr.num_nodes()];
    let mut inb = vec![0.0; csr.num_nodes()];
    for (src, dst, demand) in demands {
        out[src] += demand;
        inb[dst] += demand;
    }
    let bound = (0..csr.num_nodes())
        .flat_map(|v| [out[v], inb[v]].map(|d| (v, d)))
        .filter(|&(_, d)| d > 0.0)
        .map(|(v, d)| csr.degree(v) as f64 / d)
        .fold(f64::INFINITY, f64::min);
    Ok(bound)
}
