//! `serve`: one resident `Session` on Jellyfish 245 × 14 (degree 11),
//! driven through `service::wire::handle_line`, the `figures serve` entry
//! point, by one closed-loop client.
//!
//! Nine requests in ten are reads, `dist`, `path` ecmp8 and `path` ksp8 in
//! equal shares, whose switch pairs follow a Zipf law, so repeated pairs
//! reach the path cache; every tenth is a write, cycling through
//! `fail_link` on a live link, `fail_links` 0.01, `restore`, `expand` 1
//! rack (the full-rebuild path) and `restore`. Reads and writes share the distance matrix and
//! the path cache, so a change that makes writes cheaper by dropping more
//! cache shows up as a read regression. The three requests that abort or
//! hang the daemon (a huge `bisection` restart count, `ksp:100000`, a huge
//! `expand`) are left out: a run that aborts measures nothing.

use jellyfish::service::wire::handle_line;
use jellyfish::service::Session;
use jellyfish::topology::{TopoSpec, Topology};

use crate::trace::Tracer;
use crate::Workload;

const TOPOLOGY: &str = "jellyfish:switches=245,ports=14,degree=11";

/// Requests per round. A multiple of the write cycle's length times ten,
/// so every round ends restored and all rounds send the same lines.
const REQUESTS: usize = 2000;

/// Zipf exponent of the read pairs' popularity: the default of the
/// library's `zipf` traffic generator.
const ZIPF_S: f64 = 1.2;

/// Writes, in order, repeating: each write kind once, and a `restore` after
/// each change, so the cycle ends on the base topology. A `fail_link` only
/// ever follows a `restore`, so its link is always live.
const WRITES: [Write; 5] =
    [Write::FailLink, Write::FailLinks, Write::Restore, Write::Expand, Write::Restore];

#[derive(Clone, Copy)]
enum Write {
    FailLink,
    FailLinks,
    Restore,
    Expand,
}

/// Request kinds, named by the span that times them.
const DIST: &str = "service.read.dist";
const PATH_ECMP: &str = "service.read.path_ecmp";
const PATH_KSP: &str = "service.read.path_ksp";
const WRITE: &str = "service.write";

struct Request {
    line: String,
    span: &'static str,
}

pub struct Serve {
    seed: u64,
    base: Topology,
    session: Session,
    script: Vec<Request>,
    /// The first round's replies, without the repair-work fields of apply
    /// replies.
    first: Vec<String>,
    /// Per script line: how many later rounds replied differently from the
    /// first.
    diverged: Vec<usize>,
    rounds: usize,
}

impl Workload for Serve {
    fn setup(seed: u64) -> Result<Self, String> {
        let spec: TopoSpec = TOPOLOGY.parse().map_err(|e| format!("spec '{TOPOLOGY}': {e}"))?;
        let base = spec.build(seed).map_err(|e| format!("spec '{TOPOLOGY}': {e}"))?;
        let script = script(&base, seed);
        let mut session = Session::new(base.clone(), seed);
        session.distances();
        Ok(Serve {
            seed,
            base,
            session,
            script,
            first: Vec::new(),
            diverged: Vec::new(),
            rounds: 0,
        })
    }

    fn round(&mut self, tr: &mut Tracer, op_ms: &mut Vec<f32>) {
        let before = self.session.stats();
        for (i, req) in self.script.iter().enumerate() {
            let session = &mut self.session;
            let outcome = crate::timed_op(tr, op_ms, "op.request", |tr| {
                tr.span(req.span, |_| handle_line(session, &req.line))
            });
            let reply = comparable(outcome.text());
            if self.rounds == 0 {
                self.first.push(reply.to_string());
                self.diverged.push(0);
            } else if reply != self.first[i] {
                self.diverged[i] += 1;
            }
        }
        self.rounds += 1;
        if tr.enabled() {
            let after = self.session.stats();
            let switches = self.base.num_switches() as u64;
            tr.count("service.rows_repaired", (after.rows_repaired - before.rows_repaired) as f64);
            tr.count("service.full_rebuilds", (after.full_rebuilds - before.full_rebuilds) as f64);
            tr.count("service.paths_dropped", (after.paths_dropped - before.paths_dropped) as f64);
            tr.count(
                "service.path_cache_hits",
                (after.path_cache_hits - before.path_cache_hits) as f64,
            );
            tr.count("service.event_rows", ((after.events - before.events) * switches) as f64);
        }
    }

    fn op_class(&self, i: usize) -> &'static str {
        if self.script[i].span == WRITE {
            "write"
        } else {
            "read"
        }
    }

    /// Replays one round through a full-rebuild oracle session: every
    /// first-round reply must be ok and byte-equal the oracle's, and every
    /// later round's reply must equal the first round's. A line whose
    /// first-round reply is wrong fails in every round; otherwise each later
    /// round that diverged fails once.
    fn check(&self) -> (usize, Vec<String>) {
        let mut oracle = Session::oracle(self.base.clone(), self.seed);
        oracle.distances();
        let mut failed = 0;
        let mut notes = Vec::new();
        for ((req, got), &diverged) in self.script.iter().zip(&self.first).zip(&self.diverged) {
            let want = handle_line(&mut oracle, &req.line);
            let want = comparable(want.text());
            if got != want || !got.starts_with("{\"ok\":true") {
                failed += self.rounds;
                if notes.len() < 5 {
                    notes.push(format!("{} -> {got}, oracle {want}", req.line));
                }
            } else if diverged > 0 {
                failed += diverged;
                if notes.len() < 5 {
                    notes
                        .push(format!("{}: {diverged} later rounds differ from round 1", req.line));
                }
            }
        }
        (failed, notes)
    }

    fn finish_trace(&self, tr: &mut Tracer) {
        let totals = tr.totals();
        let calls = |span: &str| totals.get(span).map_or(0.0, |t| t.calls as f64);
        let path_reads = calls(PATH_ECMP) + calls(PATH_KSP);
        let counter = |name: &str| tr.counters().get(name).copied().unwrap_or(0.0);
        let repair = counter("service.rows_repaired") / counter("service.event_rows");
        let hits = counter("service.path_cache_hits") / path_reads;
        tr.count("service.repair_fraction", repair);
        tr.count("service.path_cache_hit_ratio", hits);
    }
}

/// An apply reply ends with fields that report how much repair work the
/// session did; they differ between incremental and oracle sessions by
/// design (and between rounds, as the cache warms), so the comparison
/// stops before them. Query replies are compared whole.
fn comparable(reply: &str) -> &str {
    reply.find(",\"repaired_rows\"").map_or(reply, |cut| &reply[..cut])
}

/// The round's request lines, drawn from `seed`.
fn script(base: &Topology, seed: u64) -> Vec<Request> {
    let mut rng = SplitMix64(seed ^ 0x5E4E);
    let n = base.num_switches();
    let links: Vec<(usize, usize)> = base.graph().edges().map(|e| (e.a, e.b)).collect();

    // Pair popularity: a seeded shuffle of every ordered pair, weighted
    // 1 / rank^s.
    let mut pairs: Vec<(usize, usize)> =
        (0..n).flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b))).collect();
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.below(i + 1));
    }
    let mut cdf = Vec::with_capacity(pairs.len());
    let mut acc = 0.0;
    for rank in 1..=pairs.len() {
        acc += 1.0 / (rank as f64).powf(ZIPF_S);
        cdf.push(acc);
    }

    let mut out = Vec::with_capacity(REQUESTS);
    let mut writes = 0;
    for i in 0..REQUESTS {
        if i % 10 == 9 {
            let line = match WRITES[writes % WRITES.len()] {
                Write::FailLink => {
                    let (a, b) = links[rng.below(links.len())];
                    format!("{{\"op\":\"apply\",\"event\":\"fail_link\",\"a\":{a},\"b\":{b}}}")
                }
                Write::FailLinks => {
                    "{\"op\":\"apply\",\"event\":\"fail_links\",\"fraction\":0.01}".into()
                }
                Write::Restore => "{\"op\":\"apply\",\"event\":\"restore\"}".into(),
                Write::Expand => "{\"op\":\"apply\",\"event\":\"expand\",\"racks\":1}".into(),
            };
            writes += 1;
            out.push(Request { line, span: WRITE });
            continue;
        }
        let u = rng.unit() * acc;
        let (src, dst) = pairs[cdf.partition_point(|&c| c < u).min(pairs.len() - 1)];
        let (span, tail) = match rng.below(3) {
            0 => (DIST, "\"q\":\"dist\"".to_string()),
            1 => (PATH_ECMP, "\"q\":\"path\",\"scheme\":\"ecmp8\"".to_string()),
            _ => (PATH_KSP, "\"q\":\"path\",\"scheme\":\"ksp8\"".to_string()),
        };
        out.push(Request {
            line: format!("{{\"op\":\"query\",{tail},\"src\":{src},\"dst\":{dst}}}"),
            span,
        });
    }
    out
}

/// The benchmark's own generator, so its inputs do not depend on the
/// library's RNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n (n > 0; the modulo bias is negligible for the small
    /// n used here).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}
