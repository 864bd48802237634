//! Two-clock benchmark of HyTGraph-RS.
//!
//! ```text
//! hytbench --workload <wide-analytics|sharded-traversal|session-mutate>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is driven through the public API with `threads = 1`, so
//! the simulated clock repeats bit for bit. A run repeats *passes* (set
//! up, then the timed section) until `--seconds` have gone by, checks the
//! first pass's outputs against the `hyt_algos::reference` oracles and
//! every later pass against the first, and prints one JSON line:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. A traced run spends half its budget untraced and half
//! traced (the difference is the tracing overhead), then probes single
//! layers, and writes its spans to `hytbench/out/`.

mod analytics;
mod catalog;
mod layers;
mod mirror;
mod oracle;
mod session;
mod stats;
mod trace;
mod traversal;

use hyt_core::{HyTGraphConfig, SystemKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// Named figures of one pass or one run.
pub type Figures = BTreeMap<&'static str, f64>;

/// Passes a run makes at least, whatever `--seconds` says, so that set-up
/// time is a median and host time the best of several.
const MIN_PASSES: usize = 3;

/// One pass of a workload: set-up and timed-section host times, the
/// simulated figures (which must repeat exactly), and the simulated
/// latency of every request.
pub struct Pass {
    pub setup_s: f64,
    pub host_s: f64,
    /// Operations (algorithm runs or session requests) the pass made.
    pub ops: u64,
    /// Operations that failed inside the pass: outputs that differ from
    /// the first pass's, rejected submissions, mutation errors, a
    /// growing backlog.
    pub failed: u64,
    pub sim: Figures,
    pub latencies_ms: Vec<f64>,
}

pub trait Workload {
    /// Set up from scratch, then run the timed section. Set-up is spanned
    /// under `bench.setup`, the timed section under `bench.pass`. The
    /// first pass keeps its outputs for [`Workload::check`]; later passes
    /// count each output that differs from the first pass's as failed.
    fn pass(&mut self, index: u64, tr: &mut Tracer) -> Pass;

    /// Check the first pass's outputs against the oracles; returns the
    /// number of operations whose output was wrong.
    fn check(&mut self) -> u64;

    /// Call single layers directly on the state the last pass left, each
    /// under a span inside `bench.probe`; returns figures the probes
    /// count themselves.
    fn probe(&mut self, tr: &mut Tracer) -> Figures;
}

/// The HyTGraph preset over `devices` simulated GPUs, with one host
/// thread so that every simulated figure repeats bit for bit.
pub fn hytgraph_config(devices: usize) -> HyTGraphConfig {
    let mut c = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
    c.num_devices = devices;
    c.threads = 1;
    c
}

/// SplitMix64: the benchmark's own seeded generator for sources,
/// arrivals and mutation batches.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Opts { workload, seed, seconds, trace })
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hytbench: {e}");
            std::process::exit(2);
        }
    };
    let line = match opts.workload.as_str() {
        "wide-analytics" => run(analytics::WideAnalytics::new(opts.seed), &opts),
        "sharded-traversal" => run(traversal::ShardedTraversal::new(opts.seed), &opts),
        "session-mutate" => run(session::SessionMutate::new(opts.seed), &opts),
        other => {
            eprintln!("hytbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!("{line}");
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeat passes for `budget` seconds (at least `min` of them). A pass
/// is not started when half of the last one would no longer fit.
fn repeat<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    budget: f64,
    min: usize,
    first: u64,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut last = 0.0;
    while passes.len() < min || start.elapsed().as_secs_f64() + last / 2.0 < budget {
        let t = Instant::now();
        passes.push(w.pass(first + passes.len() as u64, tr));
        last = t.elapsed().as_secs_f64();
    }
    passes
}

/// Bit-for-bit comparison of two passes' simulated figures.
fn same_figures(a: &Figures, b: &Figures) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

fn run<W: Workload>(mut w: W, opts: &Opts) -> String {
    let mut tr = Tracer::new(false);
    let budget = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let min = if opts.trace { MIN_PASSES - 1 } else { MIN_PASSES };
    let untraced = repeat(&mut w, &mut tr, budget, min, 0);
    let rss = peak_rss_mb();
    let traced = if opts.trace {
        tr.set_enabled(true);
        repeat(&mut w, &mut tr, budget, min, untraced.len() as u64)
    } else {
        Vec::new()
    };

    // Outputs: the first pass against the oracles, every other pass
    // against the first. Simulated drift from the first pass is a failure
    // of every operation of the drifting pass.
    let first = &untraced[0];
    let mut attempted = 0u64;
    let mut failed = w.check();
    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        attempted += p.ops;
        failed += p.failed;
        if i > 0 && !same_figures(&p.sim, &first.sim) {
            eprintln!("hytbench: pass {i}'s simulated figures drifted from pass 0's");
            failed += p.ops;
        }
    }

    let mut metrics = Figures::new();
    if opts.trace {
        let probe_counts = {
            let mut counts = Figures::new();
            tr.span("bench.probe", 0, |tr| counts = w.probe(tr));
            counts
        };
        metrics.extend(first.sim.iter().filter(|(k, _)| k.contains('.')).map(|(&k, &v)| (k, v)));
        metrics.extend(probe_counts);
        metrics.extend(layers::span_metrics(tr.spans()));
        let host = |ps: &[Pass]| ps.iter().map(|p| p.host_s).fold(f64::INFINITY, f64::min);
        metrics.insert("trace.overhead_host_s", host(&traced) - host(&untraced));
        metrics.insert("trace.spans", tr.spans().len() as f64);
        write_trace(&opts.workload, opts.seed, &tr);
    } else {
        // Host time is the fastest pass: other tenants of the machine only
        // ever add time, in slow spells that can last many passes, so the
        // fastest pass is the steadiest estimate of what the code costs.
        let hosts: Vec<f64> = untraced.iter().map(|p| p.host_s).collect();
        let host_s = hosts.iter().copied().fold(f64::INFINITY, f64::min);
        let setups: Vec<f64> = untraced.iter().map(|p| p.setup_s).collect();
        metrics.insert("sim_time_ms", first.sim["sim_time_ms"]);
        metrics.insert("host_s", host_s);
        metrics.insert("setup_s", stats::median(&setups));
        metrics.insert("peak_rss_mb", rss);
        metrics.insert("latency_p50_ms", stats::quantile(&first.latencies_ms, 0.5));
        metrics.insert("latency_p90_ms", stats::quantile(&first.latencies_ms, 0.9));
        metrics.insert("queries_per_host_s", first.latencies_ms.len() as f64 / host_s);
        eprintln!(
            "hytbench: {} seed {}: {} passes, host_s per pass {:?}",
            opts.workload,
            opts.seed,
            untraced.len(),
            hosts
        );
    }
    let catalog = if opts.trace { catalog::PER_LAYER } else { catalog::END_TO_END };
    result_line(failed == 0, attempted, failed, catalog, &metrics)
}

/// The final JSON line: every metric of `catalog` (0 for a layer the
/// workload bypasses).
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalog: &[(&str, &str)],
    m: &Figures,
) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, &(name, unit)) in catalog.iter().enumerate() {
        let v = m.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// Write the traced run's spans next to the benchmark's sources.
fn write_trace(workload: &str, seed: u64, tr: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json()));
    match written {
        Ok(()) => eprintln!("hytbench: wrote {} spans to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("hytbench: could not write {}: {e}", path.display()),
    }
}
