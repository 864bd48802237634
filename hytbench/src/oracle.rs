//! Output checks against sequential oracles.

use crate::stats::max_rel_error;
use hyt_algos::{reference, HllSketch};
use hyt_graph::Csr;

/// Largest relative error PageRank ranks may show against
/// `reference::pagerank`.
pub const PAGERANK_TOLERANCE: f64 = 2e-2;

/// Power iterations of the PageRank oracle (0.85¹⁰⁰ ≈ 1e-7, far inside
/// the tolerance).
const PAGERANK_ORACLE_ITERATIONS: u32 = 100;

/// Whether `ranks` match the PageRank oracle on `graph`.
pub fn pagerank_ok(graph: &Csr, ranks: &[f64]) -> bool {
    let want = reference::pagerank(
        graph,
        f64::from(hyt_algos::pagerank::DAMPING),
        PAGERANK_ORACLE_ITERATIONS,
    );
    ranks.len() == want.len() && max_rel_error(ranks, &want, 1e-9) < PAGERANK_TOLERANCE
}

/// HyperBall's converged registers by a plain sequential fixpoint: every
/// vertex starts from its singleton sketch and takes the register-wise
/// maximum over its in-neighbours' sketches until nothing changes.
pub fn hyperball_fixpoint(graph: &Csr) -> Vec<HllSketch> {
    let nv = graph.num_vertices();
    let mut sketch: Vec<HllSketch> = (0..nv).map(HllSketch::singleton).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for u in 0..nv {
            let su = sketch[u as usize];
            for &v in graph.neighbors(u) {
                let merged = sketch[v as usize].merge(su);
                if merged != sketch[v as usize] {
                    sketch[v as usize] = merged;
                    changed = true;
                }
            }
        }
    }
    sketch
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_core::{AsyncMode, HyTGraphConfig, HyTGraphSystem};
    use hyt_graph::generators;

    #[test]
    fn fixpoint_matches_the_hyperball_program() {
        let g = generators::rmat(9, 6.0, 5, false);
        let cfg =
            HyTGraphConfig { async_mode: AsyncMode::Sync, threads: 1, ..HyTGraphConfig::default() };
        let r =
            HyTGraphSystem::new(g.clone(), cfg).run(hyt_algos::HyperBall::new(g.num_vertices()));
        assert_eq!(r.values, hyperball_fixpoint(&g));
    }

    #[test]
    fn fixpoint_on_a_chain_reaches_every_predecessor() {
        let g = generators::chain(4, false);
        let s = hyperball_fixpoint(&g);
        let want = (0..4).fold(HllSketch::empty(), |acc, v| acc.merge(HllSketch::singleton(v)));
        assert_eq!(s[3], want);
        assert_eq!(s[0], HllSketch::singleton(0));
    }
}
