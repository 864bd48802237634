//! Golden pin of the runner's simulated clock and computed values.
//!
//! Every system preset ([`SystemKind`], all nine rows) runs BFS, SSSP,
//! PageRank and HyperBall on one small seeded graph at `D = 1`, plus the
//! HyTGraph preset at `D = 4` on a ring with the exchange overlap,
//! device-affine migration and peer-served zero-copy on. For each run the
//! fixture records the iteration count, the exact bits of the total
//! time and a digest of the converged values; for each iteration it
//! records the exact bits of `time` and `exchange.hidden`, the engine
//! mix and every transfer counter.
//!
//! The fixture is the oracle for refactors of the iteration driver: any
//! change to what a run computes or how it is priced shows up as a diff.
//! Regenerate it only for an intended pricing change, with
//! `UPDATE_EXPECT=1 cargo test --test runner_golden`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use hytgraph::algos::{Bfs, HyperBall, PageRank, Sssp};
use hytgraph::core::{
    HyTGraphConfig, HyTGraphSystem, RunResult, SystemKind, TopologyKind, VertexProgram,
    VertexValue, MAX_VALUE_LANES,
};
use hytgraph::graph::{generators, Csr, DeviceAssignment};

const SYSTEMS: [SystemKind; 9] = [
    SystemKind::HyTGraph,
    SystemKind::HybridBase,
    SystemKind::HybridTc,
    SystemKind::ExpFilter,
    SystemKind::Subway,
    SystemKind::Emogi,
    SystemKind::Grus,
    SystemKind::ImpUnified,
    SystemKind::CpuGalois,
];

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/runner_golden.txt")
}

/// Several partitions at the default partition size, so selection,
/// combining and the D = 4 placement all have something to decide.
fn graph() -> Csr {
    generators::rmat(12, 8.0, 17, true)
}

/// A device memory carve small enough that the unified-memory caches
/// evict and Grus overflows to zero-copy.
fn base_config() -> HyTGraphConfig {
    let mut cfg = HyTGraphConfig { threads: 1, ..HyTGraphConfig::default() };
    cfg.machine.edge_budget = 256 << 10;
    cfg
}

/// FNV-1a over every lane of every value, in vertex order.
fn digest<V: VertexValue>(values: &[V]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut lanes = [0u64; MAX_VALUE_LANES];
    for &v in values {
        v.store_lanes(&mut lanes[..V::LANES]);
        for &lane in &lanes[..V::LANES] {
            for b in lane.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn record<V: VertexValue>(out: &mut String, label: &str, r: &RunResult<V>) {
    let _ = writeln!(
        out,
        "run {label} iterations={} total_time={:#018x} ({:e}) values={:#018x}",
        r.iterations,
        r.total_time.to_bits(),
        r.total_time,
        digest(&r.values),
    );
    for it in &r.per_iteration {
        let m = &it.mix;
        let c = &it.counters;
        let _ = writeln!(
            out,
            "  it {} time={:#018x} hidden={:#018x} mix={}/{}/{}/{} \
             explicit={} zc={} um={} tlps={} faults={} edges={} compaction={} launches={} exchange={}",
            it.iteration,
            it.time.to_bits(),
            it.exchange.hidden.to_bits(),
            m.filter,
            m.compaction,
            m.zero_copy,
            m.unified,
            c.explicit_bytes,
            c.zero_copy_bytes,
            c.um_bytes,
            c.tlps,
            c.page_faults,
            c.kernel_edges,
            c.compaction_bytes,
            c.kernel_launches,
            c.exchange_bytes,
        );
    }
}

fn run_all(out: &mut String, g: &Csr, name: &str, cfg: &HyTGraphConfig) {
    fn run_one<P: VertexProgram>(
        out: &mut String,
        g: &Csr,
        label: &str,
        cfg: &HyTGraphConfig,
        p: P,
    ) {
        let mut sys = HyTGraphSystem::new(g.clone(), cfg.clone());
        record(out, label, &sys.run(p));
    }
    run_one(out, g, &format!("{name}/BFS"), cfg, Bfs::from_source(0));
    run_one(out, g, &format!("{name}/SSSP"), cfg, Sssp::from_source(0));
    run_one(out, g, &format!("{name}/PR"), cfg, PageRank::new());
    run_one(out, g, &format!("{name}/HyperBall"), cfg, HyperBall::new(g.num_vertices()));
}

fn render() -> String {
    let g = graph();
    let mut out = String::new();
    for kind in SYSTEMS {
        run_all(&mut out, &g, &format!("{}@D1", kind.name()), &kind.configure(base_config()));
    }
    let mut ring = SystemKind::HyTGraph.configure(base_config());
    ring.num_devices = 4;
    ring.device_assignment = DeviceAssignment::EdgeBalanced;
    ring.topology = TopologyKind::Ring;
    ring.overlap_exchange = true;
    ring.affine_migration = true;
    ring.peer_zc = true;
    run_all(&mut out, &g, "HyTGraph@D4-ring", &ring);
    out
}

#[test]
fn runner_matches_golden_fixture() {
    let actual = render();
    let path = fixture_path();
    if std::env::var_os("UPDATE_EXPECT").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("fixture dir");
        std::fs::write(&path, &actual).expect("fixture writable");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("{}: missing fixture (run UPDATE_EXPECT=1)", path.display()));
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "fixture line {} drifted (UPDATE_EXPECT=1 to regenerate)", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "fixture length drifted");
}
