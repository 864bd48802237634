//! `wide-analytics`: PageRank (async, one-lane values), then HyperBall
//! (sync, eight-lane register sketches), on a TW-shaped RMAT graph at
//! D = 1. Kernels and recompute passes carry the host time here;
//! exchange and placement do nothing.

use crate::layers::{add_run, finish_runs, probe_system};
use crate::trace::Tracer;
use crate::{hytgraph_config, oracle, Figures, Pass, Workload};
use hyt_algos::{HllSketch, HyperBall, PageRank};
use hyt_core::{AsyncMode, HyTGraphSystem};
use hyt_graph::{generators, Csr};
use std::time::Instant;

/// The TW proxy's RMAT parameters (`hyt_graph::datasets`): seed 0 is the
/// proxy itself.
const TW_SCALE: u32 = 16;
const TW_AVG_DEGREE: f64 = 37.0;
const TW_SEED: u64 = 0x7702;

struct Output {
    ranks: Vec<f32>,
    sketches: Vec<HllSketch>,
}

pub struct WideAnalytics {
    seed: u64,
    graph: Option<Csr>,
    system: Option<HyTGraphSystem>,
    first: Option<Output>,
}

impl WideAnalytics {
    pub fn new(seed: u64) -> Self {
        WideAnalytics { seed, graph: None, system: None, first: None }
    }
}

impl Workload for WideAnalytics {
    fn pass(&mut self, index: u64, tr: &mut Tracer) -> Pass {
        self.system = None;
        let t0 = Instant::now();
        let (graph, mut pr_sys, mut hb_sys) = tr.span("bench.setup", index, |tr| {
            let g = tr.span("graph.generate", index, |_| {
                generators::rmat(TW_SCALE, TW_AVG_DEGREE, TW_SEED.wrapping_add(self.seed), true)
            });
            let pr = tr.span("core.system_new", index, |_| {
                HyTGraphSystem::new(g.clone(), hytgraph_config(1))
            });
            let mut sync = hytgraph_config(1);
            sync.async_mode = AsyncMode::Sync;
            let hb = tr.span("core.system_new", index, |_| HyTGraphSystem::new(g.clone(), sync));
            (g, pr, hb)
        });
        let setup_s = t0.elapsed().as_secs_f64();

        let nv = graph.num_vertices();
        let t1 = Instant::now();
        let (pr, hb) = tr.span("bench.pass", index, |tr| {
            let pr = tr.span("core.runner.run.pr", index, |_| pr_sys.run(PageRank::new()));
            let program = tr.span("algos.new", index, |_| HyperBall::new(nv));
            let hb = tr.span("core.runner.run.hb", index, |_| hb_sys.run(program));
            (pr, hb)
        });
        let host_s = t1.elapsed().as_secs_f64();

        let mut sim = Figures::new();
        add_run(&mut sim, &pr, pr_sys.effective_edge_bytes::<PageRank>());
        add_run(&mut sim, &hb, hb_sys.effective_edge_bytes::<HyperBall>());
        finish_runs(&mut sim);
        let latencies_ms = vec![pr.total_time * 1e3, hb.total_time * 1e3];
        let output = Output { ranks: PageRank::ranks(&pr), sketches: hb.values };
        let failed = match &self.first {
            None => {
                self.first = Some(output);
                0
            }
            Some(f) => {
                u64::from(f.ranks != output.ranks) + u64::from(f.sketches != output.sketches)
            }
        };
        self.graph = Some(graph);
        self.system = Some(pr_sys);
        Pass { setup_s, host_s, ops: 2, failed, sim, latencies_ms }
    }

    fn check(&mut self) -> u64 {
        let (Some(g), Some(out)) = (self.graph.as_ref(), self.first.as_ref()) else { return 2 };
        let ranks: Vec<f64> = out.ranks.iter().map(|&r| f64::from(r)).collect();
        let pr_ok = oracle::pagerank_ok(g, &ranks);
        let hb_ok = out.sketches == oracle::hyperball_fixpoint(g);
        for (ok, what) in [(pr_ok, "PageRank"), (hb_ok, "HyperBall")] {
            if !ok {
                eprintln!("hytbench: {what} output differs from its oracle");
            }
        }
        u64::from(!pr_ok) + u64::from(!hb_ok)
    }

    fn probe(&mut self, tr: &mut Tracer) -> Figures {
        self.system.as_ref().map(|s| probe_system(s, tr)).unwrap_or_default()
    }
}
