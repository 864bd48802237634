//! `session-mutate`: one resident D = 1 `SessionService<AlgoBackend>` on
//! a duplicate-free SK-shaped graph, under an open loop on the session
//! clock.
//!
//! Requests arrive at seeded Poisson times at a fixed offered rate below
//! the simulated capacity. Most are BFS/SSSP point queries, which the
//! service coalesces into width-2/4/8 multi-source cohorts when they
//! queue together; every `PAGERANK_EVERY`-th request is a PageRank
//! refresh, and every `MUTATE_EVERY`-th a batch of inserts and deletes of
//! live edges, large enough that the priced compaction fold fires during
//! the stream. Latency is stamped from each request's due time, so a
//! stall also charges the requests that arrive behind it.

use crate::layers::probe_system;
use crate::mirror::EdgeMirror;
use crate::stats::{quantile, supports_quantile};
use crate::trace::Tracer;
use crate::traversal::{pick_source, sk_graph, SK_VERTICES};
use crate::{hytgraph_config, oracle, Figures, Pass, Rng, Workload};
use hyt_algos::{reference, AlgoBackend};
use hyt_core::session::{
    Admission, CohortOutcome, QueryKind, QueryOutput, QueryShape, SessionBackend, SessionConfig,
};
use hyt_core::{HyTGraphSystem, SessionService};
use hyt_graph::hub_sort::hub_sort_with_fraction;
use hyt_graph::{generators::MAX_RANDOM_WEIGHT, Csr, EdgeList, MutationBatch, VertexId};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

/// Requests per stream: enough that more than ten latency samples lie
/// beyond p90.
pub const REQUESTS: usize = 1280;
/// Offered load, requests per simulated second.
pub const OFFERED_RATE: f64 = 4000.0;
/// The p90 latency the offered rate is meant to meet, in simulated ms.
pub const P90_LIMIT_MS: f64 = 1.0;
/// Every this-many-th request (offset by half) is a PageRank refresh.
const PAGERANK_EVERY: usize = 160;
/// Every this-many-th request (offset by a quarter) is a mutation batch.
const MUTATE_EVERY: usize = 80;
/// Edge deletes and as many inserts per mutation batch.
const BATCH_HALF: usize = 10;
/// Consecutive source vertices one mutation batch touches.
const MUTATE_WINDOW: u32 = 16;
/// Vertices sampled per traversal source; the best-connected one is the
/// source, so most point queries reach most of the graph.
const SOURCE_SAMPLE: usize = 8;
/// Traversal queries whose stream position is this offset modulo
/// `SAMPLE_EVERY` are checked against the oracle; PageRank refreshes
/// and mutations are all checked.
const SAMPLE_EVERY: usize = 4;

/// Vertices of the session graph: a quarter of the SK proxy's, so that a
/// stream long enough for a steady p90 fits a run.
const SESSION_VERTICES: u32 = SK_VERTICES / 8;

/// The session graph: the SK-shaped graph of `seed` with duplicate edges
/// and self-loops removed, so a scripted delete names exactly one edge.
fn session_graph(seed: u64) -> Csr {
    let g = sk_graph(SESSION_VERTICES, seed);
    let mut el = EdgeList::with_capacity(g.num_vertices(), g.num_edges() as usize);
    for v in 0..g.num_vertices() {
        for (d, w) in g.edges_of(v) {
            el.push_weighted(v, d, w);
        }
    }
    el.dedup();
    el.to_csr()
}

/// One request of the stream: when it is due on the session clock
/// (seconds) and what it asks.
struct Arrival {
    due: f64,
    kind: QueryKind,
}

/// The seeded request stream over `base`. Each mutation batch touches
/// the out-edges of one seeded window of `MUTATE_WINDOW` consecutive
/// vertices in the system's storage order (after its hub sort), so
/// deltas pile up in a few partitions per batch until carrying them
/// outprices the fold. Batches are drawn against the edge
/// set as the earlier batches leave it (mutations are FIFO barriers, so
/// they apply in stream order): deletes name live edges, inserts name
/// absent ones.
fn make_stream(base: &Csr, seed: u64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0x7365_7373);
    let nv = base.num_vertices();
    let order = hub_sort_with_fraction(base, hytgraph_config(1).hub_fraction);
    let mut live: BTreeSet<(VertexId, VertexId)> =
        (0..nv).flat_map(|v| base.neighbors(v).iter().map(move |&d| (v, d))).collect();
    let mut due = 0.0;
    let mut stream = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        due += -(1.0 - rng.unit()).ln() / OFFERED_RATE;
        let kind = if i % PAGERANK_EVERY == PAGERANK_EVERY / 2 {
            QueryKind::PageRank
        } else if i % MUTATE_EVERY == MUTATE_EVERY / 4 {
            let lo = rng.below(u64::from(nv - MUTATE_WINDOW)) as VertexId;
            let window: Vec<VertexId> = (lo..lo + MUTATE_WINDOW).map(|w| order.to_old(w)).collect();
            let mut batch = MutationBatch::new();
            let mut in_window: Vec<(VertexId, VertexId)> = window
                .iter()
                .flat_map(|&s| live.range((s, 0)..=(s, VertexId::MAX)).copied())
                .collect();
            for _ in 0..BATCH_HALF.min(in_window.len()) {
                let e = in_window.swap_remove(rng.below(in_window.len() as u64) as usize);
                live.remove(&e);
                batch.delete(e.0, e.1);
            }
            let mut inserted = 0;
            while inserted < BATCH_HALF {
                let s = window[rng.below(window.len() as u64) as usize];
                let d = rng.below(u64::from(nv)) as VertexId;
                if s != d && live.insert((s, d)) {
                    batch.insert_weighted(s, d, 1 + rng.below(u64::from(MAX_RANDOM_WEIGHT)) as u32);
                    inserted += 1;
                }
            }
            QueryKind::Mutate(batch)
        } else {
            let s = pick_source(base, &mut rng, SOURCE_SAMPLE);
            if rng.below(2) == 0 {
                QueryKind::Bfs(s)
            } else {
                QueryKind::Sssp(s)
            }
        };
        stream.push(Arrival { due, kind });
    }
    stream
}

/// One cohort as the timing wrapper saw it.
struct Executed {
    start: Instant,
    end: Instant,
    mutation: bool,
    iterations: u32,
}

/// `AlgoBackend` with its `execute` timed, so the benchmark can tell the
/// algorithms' host time from the session service's own.
struct TimedBackend {
    inner: AlgoBackend,
    log: Rc<RefCell<Vec<Executed>>>,
}

impl SessionBackend for TimedBackend {
    fn query_shape(&self, kind: &QueryKind) -> QueryShape {
        self.inner.query_shape(kind)
    }

    fn widths(&self) -> &[usize] {
        self.inner.widths()
    }

    fn coalesces(&self, a: &QueryKind, b: &QueryKind) -> bool {
        self.inner.coalesces(a, b)
    }

    fn execute(&self, system: &mut HyTGraphSystem, cohort: &[QueryKind]) -> CohortOutcome {
        let start = Instant::now();
        let out = self.inner.execute(system, cohort);
        let mutation = matches!(cohort[0], QueryKind::Mutate(_));
        self.log.borrow_mut().push(Executed {
            start,
            end: Instant::now(),
            mutation,
            iterations: out.iterations,
        });
        out
    }
}

pub struct SessionMutate {
    seed: u64,
    base: Option<Csr>,
    stream: Vec<Arrival>,
    service: Option<SessionService<TimedBackend>>,
    /// The first pass's completed requests, in completion order.
    first: Option<Vec<(QueryKind, QueryOutput)>>,
}

impl SessionMutate {
    pub fn new(seed: u64) -> Self {
        assert!(supports_quantile(REQUESTS, 0.9), "the stream is too short for p90");
        SessionMutate { seed, base: None, stream: Vec::new(), service: None, first: None }
    }
}

impl Workload for SessionMutate {
    fn pass(&mut self, index: u64, tr: &mut Tracer) -> Pass {
        self.service = None;
        let log = Rc::new(RefCell::new(Vec::new()));
        let t0 = Instant::now();
        let (base, mut svc) = tr.span("bench.setup", index, |tr| {
            let g = tr.span("graph.generate", index, |_| session_graph(self.seed));
            let sys = tr.span("core.system_new", index, |_| {
                HyTGraphSystem::new(g.clone(), hytgraph_config(1))
            });
            let backend = TimedBackend { inner: AlgoBackend, log: Rc::clone(&log) };
            let svc = tr.span("core.session.new", index, |_| {
                SessionService::new(sys, backend, SessionConfig::default())
            });
            (g, svc)
        });
        let setup_s = t0.elapsed().as_secs_f64();
        if self.stream.is_empty() {
            self.stream = make_stream(&base, self.seed);
        }

        let stream = &self.stream;
        let mut due_of: BTreeMap<u64, f64> = BTreeMap::new();
        let mut done = Vec::with_capacity(REQUESTS);
        let mut lag = Vec::with_capacity(REQUESTS);
        let mut backlog = Vec::with_capacity(REQUESTS);
        let mut surplus = Vec::new();
        let mut rejected = 0u64;
        let mut iterations = 0u32;
        let t1 = Instant::now();
        tr.span("bench.pass", index, |tr| {
            let mut next = 0usize;
            loop {
                let st = svc.stats();
                let pending = st.admitted_now + st.waiting_now;
                // Idle: jump the clock to the next due time and submit
                // that request even if rounding leaves the clock a hair
                // short of it.
                let mut force = false;
                if pending == 0 {
                    let Some(a) = stream.get(next) else { break };
                    if a.due > st.clock {
                        svc.advance_clock(a.due - st.clock);
                        force = true;
                    }
                }
                while let Some(a) = stream.get(next).filter(|a| force || a.due <= svc.stats().clock)
                {
                    force = false;
                    let clock = svc.stats().clock;
                    tr.span("core.session.quote", next as u64, |_| svc.quote(&a.kind));
                    match tr
                        .span("core.session.submit", next as u64, |_| svc.submit(a.kind.clone()))
                    {
                        Admission::Admitted { id, .. } | Admission::Queued { id, .. } => {
                            due_of.insert(id.0, a.due);
                        }
                        Admission::Rejected { .. } => rejected += 1,
                    }
                    lag.push((clock - a.due).max(0.0));
                    let st = svc.stats();
                    backlog.push((st.admitted_now + st.waiting_now) as f64);
                    next += 1;
                }
                let cohort = svc.stats().batches + 1;
                let completed = tr.span("core.session.run_next", cohort, |tr| {
                    let completed = svc.run_next();
                    for e in log.borrow_mut().drain(..) {
                        let name = if e.mutation { "graph.mutate" } else { "algos.execute" };
                        tr.record(name, cohort, e.start, e.end);
                        iterations += e.iterations;
                    }
                    completed
                });
                for q in completed.unwrap_or_default() {
                    if matches!(q.kind, QueryKind::Mutate(_)) {
                        surplus.push(svc.system().delta_surplus());
                    }
                    done.push(q);
                }
            }
        });
        let host_s = t1.elapsed().as_secs_f64();

        let st = svc.stats();
        let mut sim = Figures::new();
        let mut latencies_ms = Vec::with_capacity(done.len());
        let (mut waits, mut services) = (Vec::new(), Vec::new());
        let mut service_ms = BTreeMap::new();
        let mut failed = rejected;
        for q in &done {
            let due = due_of[&q.id.0];
            latencies_ms.push((q.stats.start + q.stats.service - due) * 1e3);
            waits.push(q.stats.wait * 1e3);
            services.push(q.stats.service * 1e3);
            service_ms.insert(q.stats.batch, q.stats.service * 1e3);
            if let QueryOutput::Mutation(m) = &q.output {
                *sim.entry("graph.mutation_ops").or_insert(0.0) += m.applied as f64;
                *sim.entry("graph.dirty_partitions").or_insert(0.0) +=
                    m.dirty_partitions.len() as f64;
                *sim.entry("graph.reactivated").or_insert(0.0) += m.reactivated as f64;
                *sim.entry("graph.compactions").or_insert(0.0) += f64::from(u8::from(m.compacted));
                if let Some(e) = &m.error {
                    eprintln!("hytbench: mutation {} failed: {e}", q.id.0);
                    failed += 1;
                }
            }
        }
        // The backlog must not grow: the mean over the last quarter of
        // arrivals may not exceed twice the first quarter's plus one full
        // cohort.
        let quarter = backlog.len() / 4;
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let (early, late) = (mean(&backlog[..quarter]), mean(&backlog[backlog.len() - quarter..]));
        if late > 2.0 * early + SessionConfig::default().max_batch as f64 {
            eprintln!("hytbench: backlog grew from {early:.1} to {late:.1} requests");
            failed += 1;
        }
        if index == 0 {
            let p90 = quantile(&latencies_ms, 0.9);
            let verdict = if p90 <= P90_LIMIT_MS { "meets" } else { "misses" };
            eprintln!(
                "hytbench: offered {OFFERED_RATE} requests per simulated second: p90 latency {p90:.3} ms {verdict} the {P90_LIMIT_MS} ms limit"
            );
        }
        sim.insert("sim_time_ms", service_ms.values().sum());
        sim.insert("core.runner.iterations", f64::from(iterations));
        sim.insert("core.session.cohorts", st.batches as f64);
        sim.insert("core.session.mean_width", st.completed as f64 / st.batches.max(1) as f64);
        sim.insert("core.session.wait_p50_ms", quantile(&waits, 0.5));
        sim.insert("core.session.service_p50_ms", quantile(&services, 0.5));
        sim.insert("core.session.queue_max", backlog.iter().copied().fold(0.0, f64::max));
        sim.insert("core.session.rejected", rejected as f64);
        sim.insert("core.session.generator_lag_ms", mean(&lag) * 1e3);
        sim.insert("graph.sweep_repriced", svc.system().sweep_repriced() as f64);
        sim.insert("graph.delta_surplus_rtt", mean(&surplus));

        let outputs: Vec<(QueryKind, QueryOutput)> =
            done.into_iter().map(|q| (q.kind, q.output)).collect();
        match &self.first {
            None => self.first = Some(outputs),
            Some(f) => {
                failed += f.iter().zip(&outputs).filter(|(a, b)| a != b).count() as u64;
                failed += f.len().abs_diff(outputs.len()) as u64;
            }
        }
        self.base = Some(base);
        self.service = Some(svc);
        Pass { setup_s, host_s, ops: REQUESTS as u64 + 1, failed, sim, latencies_ms }
    }

    /// Replay the first pass's completions against the oracle mirror:
    /// every mutation is applied to the mirror (and must have applied in
    /// full), every PageRank refresh and the sampled traversal queries
    /// are checked on the edge set current when they ran.
    fn check(&mut self) -> u64 {
        let (Some(base), Some(first)) = (self.base.as_ref(), self.first.as_ref()) else { return 1 };
        let offset = (self.seed % SAMPLE_EVERY as u64) as usize;
        let mut mirror = EdgeMirror::of(base);
        let mut graph = base.clone();
        let mut wrong = 0u64;
        let mut checked = 0usize;
        for (i, (kind, out)) in first.iter().enumerate() {
            let ok = match (kind, out) {
                (QueryKind::Mutate(b), QueryOutput::Mutation(m)) => {
                    let applied =
                        m.error.is_none() && m.applied == b.len() && mirror.apply(b).is_ok();
                    graph = mirror.to_csr();
                    applied
                }
                (QueryKind::PageRank, QueryOutput::Scores(ranks)) => {
                    oracle::pagerank_ok(&graph, ranks)
                }
                (QueryKind::Bfs(s), QueryOutput::Distances(d)) if i % SAMPLE_EVERY == offset => {
                    *d == reference::bfs_depths(&graph, *s)
                }
                (QueryKind::Sssp(s), QueryOutput::Distances(d)) if i % SAMPLE_EVERY == offset => {
                    *d == reference::dijkstra(&graph, *s)
                }
                (QueryKind::Bfs(_) | QueryKind::Sssp(_), QueryOutput::Distances(_)) => continue,
                _ => false,
            };
            checked += 1;
            if !ok {
                eprintln!(
                    "hytbench: session request {i} ({}) differs from its oracle",
                    short(kind)
                );
                wrong += 1;
            }
        }
        eprintln!(
            "hytbench: checked {checked} of {} session requests against the oracle mirror",
            first.len()
        );
        wrong
    }

    fn probe(&mut self, tr: &mut Tracer) -> Figures {
        self.service.as_ref().map(|s| probe_system(s.system(), tr)).unwrap_or_default()
    }
}

fn short(kind: &QueryKind) -> String {
    match kind {
        QueryKind::Mutate(b) => format!("Mutate[{} ops]", b.len()),
        k => format!("{k:?}"),
    }
}
