//! The repository's benchmark: three workloads driven through the library's
//! public API, every result checked, end-to-end metrics printed with their
//! units, and a traced mode that times every call into a layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload capacity|packet|serve|all --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. README.md in this
//! directory documents the workloads, the metrics and what each layer
//! metric is predicted to move.

mod capacity;
mod packet;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::Tracer;

/// The seed every experiment in the repository defaults to; the recorded
/// reference results are for this seed.
pub const DEFAULT_SEED: u64 = 2012;

/// Set-up is timed in this many batches before the timed phase, and in
/// `SETUP_BATCHES_BETWEEN` more after every round, so that its samples
/// spread over the run as the rounds' do. `setup_s` is the time of all
/// batches divided by the number of set-ups they ran. (A median over
/// batches jumps between the fast and the slow spells of a shared machine,
/// which last longer than a batch; the mean moves with their share.)
const SETUP_BATCHES_BEFORE: usize = 4;
const SETUP_BATCHES_BETWEEN: usize = 2;

/// A set-up batch repeats set-up until this many seconds have passed, so a
/// set-up of a few milliseconds is timed over many repeats.
const SETUP_BATCH_S: f64 = 0.1;

/// The timed phase runs at least this many rounds (of each kind, in a
/// traced run), so every op's time is a median over at least three samples.
const MIN_ROUNDS: usize = 3;

/// A workload: inputs built from a seed, a fixed round of ops that the
/// timed phase repeats, and a check of every result after the timed phase.
pub trait Workload: Sized {
    /// Builds the inputs from `seed`; the same seed gives the same inputs.
    fn setup(seed: u64) -> Result<Self, String>;
    /// Runs one round, timing every op with [`timed_op`], in op order.
    fn round(&mut self, tr: &mut Tracer, op_ms: &mut Vec<f32>);
    /// The class of the round's `i`-th op, for the per-class latency split.
    fn op_class(&self, _i: usize) -> &'static str {
        "op"
    }
    /// Checks every op of every round, errors included; returns the number
    /// of ops that failed (each counted once) and notes to print.
    fn check(&self) -> (usize, Vec<String>);
    /// Layer counters that need the whole run (ratios), added to the
    /// tracer's counters before the per-layer table is built.
    fn finish_trace(&self, _tr: &mut Tracer) {}
}

/// Times one op, wrapped in an op span, and appends its milliseconds to
/// `op_ms` (kept as `f32`, so the bookkeeping adds little to peak memory).
pub fn timed_op<R>(
    tr: &mut Tracer,
    op_ms: &mut Vec<f32>,
    span: &'static str,
    f: impl FnOnce(&mut Tracer) -> R,
) -> R {
    tr.next_op();
    let t = Instant::now();
    let out = tr.span(span, f);
    op_ms.push((t.elapsed().as_secs_f64() * 1e3) as f32);
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 30.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds {value}: expected a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required (capacity, packet, serve or all)".into());
    }
    Ok(args)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// What one workload run produced: the result line's fields.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

fn run(args: &Args) -> Result<(), String> {
    println!("# context: {}", context());
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => vec!["capacity", "packet", "serve"],
        w => vec![w],
    };
    let mut total = Outcome { attempted: 0, failed: 0, metrics: Vec::new() };
    for name in &names {
        let out = match *name {
            "capacity" => run_workload::<capacity::Capacity>(name, args)?,
            "packet" => run_workload::<packet::Packet>(name, args)?,
            "serve" => run_workload::<serve::Serve>(name, args)?,
            other => {
                return Err(format!(
                    "unknown workload '{other}' (valid choices: capacity, packet, serve, all)"
                ))
            }
        };
        total.attempted += out.attempted;
        total.failed += out.failed;
        for (m, v, u) in out.metrics {
            let key = if names.len() == 1 { m } else { format!("{name}.{m}") };
            total.metrics.push((key, v, u));
        }
    }
    println!("{}", result_line(&total));
    Ok(())
}

/// One round of the timed phase: which ops it ran and whether it was traced.
struct Round {
    traced: bool,
    ops: std::ops::Range<usize>,
    wall_s: f64,
}

/// Times `batches` (at least 1) batches of set-ups, each set-up also
/// dropping the previous instance, and returns the last instance and each
/// batch's (seconds, set-ups).
fn time_setups<W: Workload>(seed: u64, batches: usize) -> Result<(W, Vec<(f64, u32)>), String> {
    let mut timed = Vec::with_capacity(batches);
    let mut workload = None;
    for _ in 0..batches {
        let t = Instant::now();
        let mut n = 0u32;
        while n == 0 || t.elapsed().as_secs_f64() < SETUP_BATCH_S {
            drop(workload.take());
            workload = Some(W::setup(seed)?);
            n += 1;
        }
        timed.push((t.elapsed().as_secs_f64(), n));
    }
    Ok((workload.expect("at least one batch"), timed))
}

/// Each op's median time over the given rounds, in op order. Every round
/// runs the same ops, so a burst of load from outside that slows one
/// round's op does not count.
fn op_medians_ms(rounds: &[&Round], op_ms: &[f32]) -> Vec<f64> {
    let Some(first) = rounds.first() else { return Vec::new() };
    (0..first.ops.len())
        .map(|i| median(rounds.iter().map(|r| f64::from(op_ms[r.ops.start + i]))))
        .collect()
}

/// The wall time of one round, taken op by op: the sum of
/// [`op_medians_ms`].
fn round_estimate_s(rounds: &[&Round], op_ms: &[f32]) -> f64 {
    op_medians_ms(rounds, op_ms).iter().sum::<f64>() / 1e3
}

fn run_workload<W: Workload>(name: &str, args: &Args) -> Result<Outcome, String> {
    let (mut workload, mut setup_batches) = time_setups::<W>(args.seed, SETUP_BATCHES_BEFORE)?;

    // Timed phase: repeat the fixed round, followed by set-up batches on a
    // throwaway instance, while another round still fits in the budget, and
    // at least `MIN_ROUNDS` times. A traced run alternates untraced and
    // traced rounds, so their ratio is the tracing overhead.
    let min_rounds = if args.trace { 2 * MIN_ROUNDS } else { MIN_ROUNDS };
    let mut tr = Tracer::new();
    let mut op_ms = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let phase = Instant::now();
    loop {
        let traced = args.trace && rounds.len() % 2 == 1;
        tr.set_enabled(traced);
        let start = op_ms.len();
        let t = Instant::now();
        workload.round(&mut tr, &mut op_ms);
        let wall_s = t.elapsed().as_secs_f64();
        rounds.push(Round { traced, ops: start..op_ms.len(), wall_s });
        setup_batches.extend(time_setups::<W>(args.seed, SETUP_BATCHES_BETWEEN)?.1);
        let step_s = t.elapsed().as_secs_f64();
        let elapsed = phase.elapsed().as_secs_f64();
        if rounds.len() >= min_rounds && elapsed + step_s > args.seconds {
            break;
        }
    }
    let timed_s = phase.elapsed().as_secs_f64();
    let setup_s = setup_batches.iter().map(|b| b.0).sum::<f64>()
        / f64::from(setup_batches.iter().map(|b| b.1).sum::<u32>());
    tr.set_enabled(args.trace);
    let peak_rss_mb = peak_rss_mb()?;

    let (failed, notes) = workload.check();
    let attempted = op_ms.len();
    for note in &notes {
        println!("# {name}: {note}");
    }
    let walls: Vec<String> = rounds.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    println!("# {name}: round wall times (s): {}", walls.join(" "));
    let batches: Vec<String> =
        setup_batches.iter().map(|(s, n)| format!("{:.3}", s * 1e3 / f64::from(*n))).collect();
    println!("# {name}: set-up batches (ms per set-up): {}", batches.join(" "));
    println!(
        "# {name}: seed={} rounds={} ops={attempted} failed={failed} fail_ratio={} \
         timed_s={timed_s:.3}",
        args.seed,
        rounds.len(),
        failed as f64 / attempted as f64,
    );

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let wall_s = round_estimate_s(&untraced, &op_ms);
    let metrics = if args.trace {
        workload.finish_trace(&mut tr);
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let traced_wall_s: f64 = traced.iter().map(|r| r.wall_s).sum();
        let layer = per_layer(&tr, traced_wall_s, round_estimate_s(&traced, &op_ms), wall_s);
        print_layers(name, &layer);
        let path = format!("{}/out/spans-{name}-seed{}.tsv", env!("CARGO_MANIFEST_DIR"), args.seed);
        write_spans(&tr, &path)?;
        println!("# {name}: spans written to {path}");
        layer
    } else {
        let per_round = untraced[0].ops.len() as f64;
        let op_medians = op_medians_ms(&untraced, &op_ms);
        if op_medians.len() <= 32 {
            let ms: Vec<String> = op_medians.iter().map(|ms| format!("{ms:.1}")).collect();
            println!("# {name}: per-op medians over rounds (ms): {}", ms.join(" "));
        }
        let e2e = vec![
            ("setup_s".to_string(), setup_s, "s"),
            ("wall_s".to_string(), wall_s, "s"),
            ("ops_per_s".to_string(), per_round / wall_s, "1/s"),
            ("op_p50_ms".to_string(), median(op_medians.iter().copied()), "ms"),
            ("peak_rss_mb".to_string(), peak_rss_mb, "MB"),
        ];
        for (m, v, u) in &e2e {
            println!("# {name}: {m} = {v} {u}");
        }
        print_class_latencies(name, &workload, &untraced, &op_ms);
        e2e
    };
    Ok(Outcome { attempted, failed, metrics })
}

/// Median and p99 per op class, with sample counts (the `serve` split into
/// reads and writes).
fn print_class_latencies<W: Workload>(name: &str, w: &W, rounds: &[&Round], op_ms: &[f32]) {
    let mut classes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in rounds {
        for (i, &ms) in op_ms[r.ops.clone()].iter().enumerate() {
            classes.entry(w.op_class(i)).or_default().push(f64::from(ms));
        }
    }
    if classes.len() < 2 {
        return;
    }
    for (class, ms) in classes {
        println!(
            "# {name}: {class}_p50_ms = {} ms, {class}_p99_ms = {} ms (n = {})",
            median(ms.iter().copied()),
            percentile(ms.iter().copied(), 0.99),
            ms.len()
        );
    }
}

/// Every per-layer metric, in the order BENCHMARK.json lists them. The
/// result line carries all of them on every workload; metrics of layers a
/// workload does not call read 0 there and are left out of the printed
/// table.
const PER_LAYER: [(&str, &str); 54] = [
    ("topology.spec.calls", "count"),
    ("topology.spec.busy_s", "s"),
    ("topology.csr.calls", "count"),
    ("topology.csr.busy_s", "s"),
    ("traffic.spec.calls", "count"),
    ("traffic.spec.busy_s", "s"),
    ("traffic.spec.flows", "count"),
    ("flow.mcf.calls", "count"),
    ("flow.mcf.busy_s", "s"),
    ("flow.mcf.path_computations", "count"),
    ("flow.mcf.ns_per_path_computation", "ns"),
    ("routing.path_table.ecmp8.busy_s", "s"),
    ("routing.path_table.ecmp8.pairs", "count"),
    ("routing.path_table.ecmp8.paths", "count"),
    ("routing.path_table.ksp8.busy_s", "s"),
    ("routing.path_table.ksp8.pairs", "count"),
    ("routing.path_table.ksp8.paths", "count"),
    ("sim.workload.busy_s", "s"),
    ("sim.workload.subflows", "count"),
    ("sim.net.busy_s", "s"),
    ("sim.engine.calls", "count"),
    ("sim.engine.busy_s", "s"),
    ("sim.engine.packets", "count"),
    ("sim.engine.drops", "count"),
    ("sim.engine.drop_ratio", "fraction"),
    ("sim.engine.ns_per_packet", "ns"),
    ("sim.fluid.busy_s", "s"),
    ("service.read.dist.count", "count"),
    ("service.read.dist.busy_s", "s"),
    ("service.read.path_ecmp.count", "count"),
    ("service.read.path_ecmp.busy_s", "s"),
    ("service.read.path_ksp.count", "count"),
    ("service.read.path_ksp.busy_s", "s"),
    ("service.write.count", "count"),
    ("service.write.busy_s", "s"),
    ("service.rows_repaired", "count"),
    ("service.full_rebuilds", "count"),
    ("service.paths_dropped", "count"),
    ("service.path_cache_hits", "count"),
    ("service.repair_fraction", "fraction"),
    ("service.path_cache_hit_ratio", "fraction"),
    ("service.read_p50_ms", "ms"),
    ("service.read_p99_ms", "ms"),
    ("service.write_p50_ms", "ms"),
    ("service.write_p99_ms", "ms"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.layer_s", "s"),
    ("trace.coverage", "fraction"),
    ("trace.round_s", "s"),
    ("trace.untraced_round_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.ops", "count"),
];

/// Builds the per-layer metrics of a traced run. `traced_wall_s` is the
/// summed wall time of the traced rounds; `round_s`/`untraced_round_s` are
/// the traced and untraced rounds' [`round_estimate_s`].
fn per_layer(
    tr: &Tracer,
    traced_wall_s: f64,
    round_s: f64,
    untraced_round_s: f64,
) -> Vec<(String, f64, &'static str)> {
    let totals = tr.totals();
    let counters = tr.counters();
    let calls = |span: &str| totals.get(span).map_or(0.0, |t| t.calls as f64);
    let busy = |span: &str| totals.get(span).map_or(0.0, |t| t.self_ns as f64 / 1e9);
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let layer_s = tr.layer_ns() as f64 / 1e9;
    let op_self_s: f64 = totals
        .iter()
        .filter(|(n, _)| n.starts_with(trace::OP_PREFIX))
        .map(|(_, t)| t.self_ns as f64 / 1e9)
        .sum();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "flow.mcf.ns_per_path_computation" => {
                    ratio(busy("flow.mcf") * 1e9, counter("flow.mcf.path_computations"))
                }
                "sim.engine.drop_ratio" => {
                    ratio(counter("sim.engine.drops"), counter("sim.engine.packets"))
                }
                "sim.engine.ns_per_packet" => {
                    ratio(busy("sim.engine") * 1e9, counter("sim.engine.packets"))
                }
                "service.read_p50_ms" => median(tr.durations_ms("service.read.")),
                "service.read_p99_ms" => percentile(tr.durations_ms("service.read."), 0.99),
                "service.write_p50_ms" => median(tr.durations_ms("service.write")),
                "service.write_p99_ms" => percentile(tr.durations_ms("service.write"), 0.99),
                "bench.self_s" => op_self_s,
                "trace.wall_s" => traced_wall_s,
                "trace.layer_s" => layer_s,
                "trace.coverage" => ratio(layer_s, traced_wall_s),
                "trace.round_s" => round_s,
                "trace.untraced_round_s" => untraced_round_s,
                "trace.overhead_ratio" => ratio(round_s, untraced_round_s),
                "trace.spans" => totals.values().map(|t| t.calls as f64).sum(),
                "trace.ops" => totals
                    .iter()
                    .filter(|(n, _)| n.starts_with(trace::OP_PREFIX))
                    .map(|(_, t)| t.calls as f64)
                    .sum(),
                _ => {
                    if let Some(span) = name.strip_suffix(".calls") {
                        calls(span)
                    } else if let Some(span) = name.strip_suffix(".count") {
                        calls(span)
                    } else if let Some(span) = name.strip_suffix(".busy_s") {
                        busy(span)
                    } else {
                        counter(name)
                    }
                }
            };
            (name.to_string(), value, unit)
        })
        .collect()
}

fn print_layers(name: &str, layer: &[(String, f64, &'static str)]) {
    println!("# {name}: per-layer self time and counters (traced rounds only)");
    for (m, v, u) in layer {
        if *v != 0.0 {
            println!("#   {m:<36} {v:>16.6} {u}");
        }
    }
}

fn write_spans(tr: &Tracer, path: &str) -> Result<(), String> {
    let dir = std::path::Path::new(path).parent().expect("span path has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    tr.write_spans(&mut out).map_err(|e| format!("{path}: {e}"))?;
    std::io::Write::flush(&mut out).map_err(|e| format!("{path}: {e}"))
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(m, v, u)| format!("\"{m}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// JSON has no NaN or infinity; a metric that is not finite is a bug here.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

/// The median: the middle value, or the mean of the two middle values; 0
/// for no samples.
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in (0, 1]); 0 for no samples.
fn percentile(values: impl Iterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process so far (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak memory: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The machine context printed with every result, so runs from different
/// machines are not compared by mistake.
fn context() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!(
        "nproc={nproc} rayon_threads={} profile={profile} rev={rev}",
        rayon::current_num_threads()
    )
}
