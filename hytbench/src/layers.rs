//! Per-layer figures: simulated counts read off `RunResult`s, host
//! times read off the traced run's spans, and direct probes of single
//! layers' public functions.

use crate::stats::median;
use crate::trace::{self, layer_of, Span, Tracer};
use crate::Figures;
use hyt_algos::{Cc, HyperBall, PageRank};
use hyt_core::combine::combine_tasks_sized;
use hyt_core::kernel::{run_kernel, EdgeSource};
use hyt_core::select::{select_engines_sharded, Selection};
use hyt_core::{HyTGraphSystem, RunResult, ValueLayout, Values, VertexProgram};
use hyt_engines::{analyze_partitions, compaction};
use hyt_graph::{Frontier, PartitionSet, VertexId};
use hyt_sim::{MultiGpuSim, SimTask};
use std::collections::BTreeMap;
use std::time::Instant;

fn add(f: &mut Figures, name: &'static str, v: f64) {
    *f.entry(name).or_insert(0.0) += v;
}

/// Accumulate one run's simulated figures: its makespan into
/// `sim_time_ms` and its counts into the per-layer names. `edge_bytes`
/// is the run's effective edge volume (Table VI's denominator).
pub fn add_run<V>(f: &mut Figures, r: &RunResult<V>, edge_bytes: u64) {
    let c = &r.counters;
    add(f, "sim_time_ms", r.total_time * 1e3);
    add(f, "core.runner.iterations", f64::from(r.iterations));
    add(f, "core.kernel.edges", c.kernel_edges as f64);
    add(f, "core.kernel.launches", c.kernel_launches as f64);
    add(f, "engines.explicit_bytes", c.explicit_bytes as f64);
    add(f, "engines.zero_copy_bytes", c.zero_copy_bytes as f64);
    add(f, "engines.um_bytes", c.um_bytes as f64);
    add(f, "engines.compaction_bytes", c.compaction_bytes as f64);
    add(f, "engines.tlps", c.tlps as f64);
    add(f, "engines.page_faults", c.page_faults as f64);
    add(f, "sim.exchange_bytes", c.exchange_bytes as f64);
    // The ratio is formed once every run is in (see `finish_runs`).
    add(f, "bench.transfer_bytes", c.total_transfer_bytes() as f64);
    add(f, "bench.edge_bytes", edge_bytes as f64);
    for it in &r.per_iteration {
        add(f, "core.select.filter_parts", f64::from(it.mix.filter));
        add(f, "core.select.compaction_parts", f64::from(it.mix.compaction));
        add(f, "core.select.zero_copy_parts", f64::from(it.mix.zero_copy));
        add(f, "core.select.unified_parts", f64::from(it.mix.unified));
        add(f, "core.runner.tasks", f64::from(it.tasks));
        add(f, "sim.transfer_ms", it.transfer_time * 1e3);
        add(f, "sim.compute_ms", it.compute_time * 1e3);
        add(f, "sim.compaction_ms", it.compaction_time * 1e3);
        add(f, "sim.exchange_ms", it.exchange.time * 1e3);
        add(f, "sim.exchange_exposed_ms", it.exchange.exposed() * 1e3);
        add(f, "sim.host_link_bytes", it.exchange.host_bytes as f64);
        add(f, "sim.peer_bytes", it.exchange.peer_bytes as f64);
        add(f, "sim.forwarded_bytes", it.exchange.forwarded_bytes as f64);
        let times: Vec<f64> = it.per_device.iter().map(|d| d.time).collect();
        let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
        if mean > 0.0 {
            add(f, "sim.device_skew", times.iter().copied().fold(0.0, f64::max) / mean);
        }
    }
}

/// Replace the byte sums `add_run` collected by the transfer ratio.
pub fn finish_runs(f: &mut Figures) {
    let moved = f.remove("bench.transfer_bytes").unwrap_or(0.0);
    let edges = f.remove("bench.edge_bytes").unwrap_or(0.0);
    if edges > 0.0 {
        f.insert("engines.transfer_ratio", moved / edges);
    }
}

/// The span-derived per-layer figures of a traced run:
///
/// * `<span>_host_s` for every span inside a timed pass or a set-up:
///   its per-pass total, median over passes;
/// * `core.session.self_host_s`: the self time of `run_next` spans,
///   per-pass total, median over passes;
/// * `self.<layer>_host_s` and `trace.section_host_s`: the timed
///   section's self time by layer and its length, mean per pass, so the
///   self times add up to the section;
/// * `<span>_host_s` for every probe: median per call.
pub fn span_metrics(spans: &[Span]) -> Figures {
    let selfs = trace::self_times(spans);
    let mut per_pass: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut probes: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut layer_self: BTreeMap<String, f64> = BTreeMap::new();
    let mut section = 0.0;
    let mut passes = 0usize;
    for (root, s) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        let members = trace::subtree(spans, root);
        match s.name {
            "bench.pass" | "bench.setup" => {
                let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
                for &i in &members[1..] {
                    *totals.entry(spans[i].name).or_insert(0.0) += spans[i].duration();
                    if spans[i].name == "core.session.run_next" {
                        *totals.entry("core.session.self").or_insert(0.0) += selfs[i];
                    }
                }
                for (name, t) in totals {
                    per_pass.entry(name).or_default().push(t);
                }
                if s.name == "bench.pass" {
                    passes += 1;
                    section += s.duration();
                    for &i in &members {
                        *layer_self.entry(layer_of(spans[i].name).to_string()).or_insert(0.0) +=
                            selfs[i];
                    }
                }
            }
            "bench.probe" => {
                for &i in &members[1..] {
                    probes.entry(spans[i].name).or_default().push(spans[i].duration());
                }
            }
            _ => {}
        }
    }
    let mut out = Figures::new();
    let mut put = |name: &str, v: f64| {
        if let Some(&(known, _)) = crate::catalog::PER_LAYER.iter().find(|(n, _)| *n == name) {
            out.insert(known, v);
        }
    };
    for (name, xs) in per_pass.iter().chain(&probes) {
        put(&format!("{name}_host_s"), median(xs));
    }
    if passes > 0 {
        put("trace.section_host_s", section / passes as f64);
        for (layer, t) in &layer_self {
            put(&format!("self.{layer}_host_s"), t / passes as f64);
        }
    }
    out
}

/// Calls made per host-time probe: enough that the median is steady,
/// few enough that the whole-graph sweeps stay short.
const SWEEP_CALLS: u64 = 3;
const SMALL_CALLS: u64 = 20;

/// One all-active sweep of `program` over the resident graph, through
/// `run_kernel` on one thread, `SWEEP_CALLS` times; returns the edges
/// relaxed and the seconds `run_kernel` took.
fn sweep<P: VertexProgram>(
    sys: &HyTGraphSystem,
    program: &P,
    name: &'static str,
    sync: bool,
    tr: &mut Tracer,
) -> (u64, f64) {
    let nv = sys.num_vertices();
    let active: Vec<VertexId> = (0..nv).collect();
    let (mut edges, mut secs) = (0, 0.0);
    for call in 0..SWEEP_CALLS {
        let values = Values::init(program, nv);
        let next = Frontier::new(nv);
        let seeds = sync.then(|| values.snapshot());
        let source = EdgeSource::Graph(sys.graph().view());
        let t0 = Instant::now();
        let k = tr.span(name, call, |_| {
            run_kernel(program, source, &active, &values, &next, seeds.as_deref(), 1)
        });
        secs += t0.elapsed().as_secs_f64();
        edges += k.edges_processed;
    }
    (edges, secs)
}

/// Probe every layer that can be called from outside `run()`, on the
/// resident graph of `sys` (working ids, as the runner sees it):
///
/// * `core.kernel.{pr,hb,narrow}_sweep`: one all-active kernel sweep of
///   PageRank, HyperBall (snapshot seeds) and CC;
/// * `engines.analyze`, `core.select` (cost formulas, sharded selection,
///   task combining) and `engines.compact`, over a frontier holding
///   every tenth vertex;
/// * `sim.schedule` of one task per selected partition on the system's
///   interconnect, and `sim.price_all_gather` of that frontier's
///   exchange.
///
/// Returns the kernel edge throughput the sweeps measured.
pub fn probe_system(sys: &HyTGraphSystem, tr: &mut Tracer) -> Figures {
    let nv = sys.num_vertices();
    let sweeps = [
        sweep(sys, &PageRank::new(), "core.kernel.pr_sweep", false, tr),
        sweep(sys, &HyperBall::new(nv), "core.kernel.hb_sweep", true, tr),
        sweep(sys, &Cc::new(), "core.kernel.narrow_sweep", false, tr),
    ];
    let edges: u64 = sweeps.iter().map(|s| s.0).sum();
    let sweep_s: f64 = sweeps.iter().map(|s| s.1).sum();

    let cfg = sys.config();
    let pcie = &cfg.machine.pcie;
    let view = sys.graph().view();
    let parts = PartitionSet::build(sys.graph().base(), cfg.partition_bytes);
    let plan = sys.device_plan();
    let frontier = Frontier::new(nv);
    for v in (0..nv).step_by(10) {
        frontier.insert(v);
    }
    let bpe = sys.graph().bytes_per_edge();
    let layout = ValueLayout::of::<u32>();
    let mut acts = Vec::new();
    let mut tasks = Vec::new();
    for call in 0..SMALL_CALLS {
        acts = tr.span("engines.analyze", call, |_| {
            analyze_partitions(view, &parts, &frontier, pcie, bpe, 1)
        });
        tasks = tr.span("core.select", call, |_| {
            let decisions = select_engines_sharded(
                &acts,
                plan,
                pcie,
                bpe,
                Selection::Hybrid,
                &cfg.select_params,
            );
            combine_tasks_sized(&decisions, cfg.combine_k, cfg.task_combining, layout.lane_bytes())
        });
    }
    let active = frontier.to_vec();
    for call in 0..SWEEP_CALLS {
        tr.span("engines.compact", call, |_| compaction::compact(view, &active, 1));
    }

    let nd = plan.num_devices() as usize;
    let mut dev_tasks: Vec<Vec<SimTask>> = vec![Vec::new(); nd];
    for t in &tasks {
        for &i in &t.members {
            let a = &acts[i];
            let transfer = pcie.explicit_copy_time(a.total_edges * bpe);
            let kernel = cfg.machine.kernel.kernel_time(a.active_edges);
            dev_tasks[plan.device_of(a.partition) as usize]
                .push(SimTask::explicit("probe", transfer, kernel));
        }
    }
    let mut owned = vec![0u64; nd];
    let mut holders = vec![false; nd];
    for p in parts.partitions() {
        let dev = plan.device_of(p.id) as usize;
        holders[dev] = true;
        owned[dev] += frontier.count_range(p.first_vertex, p.end_vertex) * layout.record_bytes();
    }
    let sim = MultiGpuSim::with_interconnect(nd, cfg.num_streams, sys.interconnect().clone());
    for call in 0..SMALL_CALLS {
        tr.span("sim.schedule", call, |_| sim.schedule(&dev_tasks));
        tr.span("sim.price_all_gather", call, |_| {
            sys.interconnect().price_all_gather(&owned, &holders)
        });
    }

    let mut f = Figures::new();
    f.insert("core.kernel.edges_per_host_s", edges as f64 / sweep_s);
    f
}
