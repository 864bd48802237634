//! `sharded-traversal`: BFS and SSSP from seeded sources plus one CC on
//! the SK-shaped web graph, D = 8 on the ring topology with the preset's
//! placement. Narrow values and sparse frontiers: per-device selection,
//! exchange pricing and placement carry the simulated time, and the
//! wide-value kernel path is bypassed.

use crate::layers::{add_run, finish_runs, probe_system};
use crate::trace::Tracer;
use crate::{hytgraph_config, Figures, Pass, Rng, Workload};
use hyt_algos::{reference, Bfs, Cc, Sssp};
use hyt_core::{HyTGraphSystem, RunResult, TopologyKind};
use hyt_graph::{generators, Csr, VertexId};
use std::time::Instant;

/// The SK proxy's parameters (`hyt_graph::datasets`): seed 0 is the
/// proxy itself.
pub const SK_VERTICES: u32 = 50_600_000 >> 10;
const SK_AVG_DEGREE: f64 = 38.0;
const SK_ALPHA: f64 = 1.35;
const SK_LOCALITY: f64 = 0.85;
const SK_SEED: u64 = 0x5B01;

/// The SK-shaped graph of `seed` with `nv` vertices.
pub fn sk_graph(nv: u32, seed: u64) -> Csr {
    generators::power_law_local(
        nv,
        SK_AVG_DEGREE,
        SK_ALPHA,
        SK_LOCALITY,
        nv / 128 + 1,
        SK_SEED.wrapping_add(seed),
        true,
    )
}

const DEVICES: usize = 8;
/// BFS runs per pass, each from its own source; SSSP runs from the first
/// `SSSP_SOURCES` of them. BFS makespans sit below CC's and SSSP's
/// above, so with more BFS than SSSP runs the median latency falls
/// inside the BFS group and p90 inside the SSSP group, not on a seam
/// between kinds.
const SOURCES: usize = 8;
const SSSP_SOURCES: usize = 4;
/// Vertices sampled per source; the best-connected one is the source.
const SOURCE_SAMPLE: usize = 64;

/// A well-connected seeded source: the highest out-degree vertex among
/// `sample` uniform draws (ties to the first drawn).
pub fn pick_source(g: &Csr, rng: &mut Rng, sample: usize) -> VertexId {
    let draws: Vec<VertexId> =
        (0..sample).map(|_| rng.below(u64::from(g.num_vertices())) as VertexId).collect();
    let best = draws.iter().map(|&v| g.out_degree(v)).max().unwrap_or(0);
    draws.into_iter().find(|&v| g.out_degree(v) == best).unwrap_or(0)
}

pub struct ShardedTraversal {
    seed: u64,
    graph: Option<Csr>,
    system: Option<HyTGraphSystem>,
    sources: Vec<VertexId>,
    /// The first pass's outputs: BFS depths, then SSSP distances, per
    /// source, then CC labels.
    first: Option<Vec<Vec<u32>>>,
}

impl ShardedTraversal {
    pub fn new(seed: u64) -> Self {
        ShardedTraversal { seed, graph: None, system: None, sources: Vec::new(), first: None }
    }
}

fn record<V: Copy>(
    sim: &mut Figures,
    lat: &mut Vec<f64>,
    r: &RunResult<V>,
    edge_bytes: u64,
) -> Vec<V> {
    add_run(sim, r, edge_bytes);
    lat.push(r.total_time * 1e3);
    r.values.clone()
}

impl Workload for ShardedTraversal {
    fn pass(&mut self, index: u64, tr: &mut Tracer) -> Pass {
        self.system = None;
        let t0 = Instant::now();
        let (graph, mut sys) = tr.span("bench.setup", index, |tr| {
            let g = tr.span("graph.generate", index, |_| sk_graph(SK_VERTICES, self.seed));
            let mut cfg = hytgraph_config(DEVICES);
            cfg.topology = TopologyKind::Ring;
            let sys = tr.span("core.system_new", index, |_| HyTGraphSystem::new(g.clone(), cfg));
            (g, sys)
        });
        let setup_s = t0.elapsed().as_secs_f64();
        let mut rng = Rng::new(self.seed ^ 0x7472_6176);
        self.sources = (0..SOURCES).map(|_| pick_source(&graph, &mut rng, SOURCE_SAMPLE)).collect();

        let sources = &self.sources;
        let t1 = Instant::now();
        let (bfs, sssp, cc) = tr.span("bench.pass", index, |tr| {
            let bfs: Vec<_> = sources
                .iter()
                .map(|&s| tr.span("core.runner.run.bfs", index, |_| sys.run(Bfs::from_source(s))))
                .collect();
            let sssp: Vec<_> = sources[..SSSP_SOURCES]
                .iter()
                .map(|&s| tr.span("core.runner.run.sssp", index, |_| sys.run(Sssp::from_source(s))))
                .collect();
            let cc = tr.span("core.runner.run.cc", index, |_| sys.run(Cc::new()));
            (bfs, sssp, cc)
        });
        let host_s = t1.elapsed().as_secs_f64();

        let mut sim = Figures::new();
        let mut lat = Vec::new();
        let mut output = Vec::new();
        for r in &bfs {
            output.push(record(&mut sim, &mut lat, r, sys.effective_edge_bytes::<Bfs>()));
        }
        for r in &sssp {
            output.push(record(&mut sim, &mut lat, r, sys.effective_edge_bytes::<Sssp>()));
        }
        output.push(record(&mut sim, &mut lat, &cc, sys.effective_edge_bytes::<Cc>()));
        finish_runs(&mut sim);
        let ops = output.len() as u64;
        let failed = match &self.first {
            None => {
                self.first = Some(output);
                0
            }
            Some(f) => f.iter().zip(&output).filter(|(a, b)| a != b).count() as u64,
        };
        self.graph = Some(graph);
        self.system = Some(sys);
        Pass { setup_s, host_s, ops, failed, sim, latencies_ms: lat }
    }

    fn check(&mut self) -> u64 {
        let (Some(g), Some(out)) = (self.graph.as_ref(), self.first.as_ref()) else { return 1 };
        let mut want: Vec<Vec<u32>> =
            self.sources.iter().map(|&s| reference::bfs_depths(g, s)).collect();
        want.extend(self.sources[..SSSP_SOURCES].iter().map(|&s| reference::dijkstra(g, s)));
        want.push(reference::cc_labels(g));
        let wrong =
            out.iter().zip(&want).filter(|(a, b)| a != b).count() + want.len().abs_diff(out.len());
        if wrong > 0 {
            eprintln!("hytbench: {wrong} traversal output(s) differ from their oracles");
        }
        wrong as u64
    }

    fn probe(&mut self, tr: &mut Tracer) -> Figures {
        self.system.as_ref().map(|s| probe_system(s, tr)).unwrap_or_default()
    }
}
