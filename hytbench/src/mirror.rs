//! The oracle mirror: the benchmark's own copy of the session graph's
//! edge set, kept in step with every mutation batch the session
//! applies, so a query's output can be checked against the oracle on
//! the edge set that was current when the query ran.

use hyt_graph::{Csr, EdgeList, EdgeOp, MutationBatch, VertexId, Weight};
use std::collections::btree_map::{BTreeMap, Entry};

/// A duplicate-free weighted edge set.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeMirror {
    num_vertices: u32,
    edges: BTreeMap<(VertexId, VertexId), Weight>,
}

impl EdgeMirror {
    /// Mirror of `graph`, which must be duplicate-free.
    pub fn of(graph: &Csr) -> Self {
        let mut edges = BTreeMap::new();
        for v in 0..graph.num_vertices() {
            for (d, w) in graph.edges_of(v) {
                let fresh = edges.insert((v, d), w).is_none();
                assert!(fresh, "mirror base has a duplicate edge {v}->{d}");
            }
        }
        EdgeMirror { num_vertices: graph.num_vertices(), edges }
    }

    /// Apply `batch` op by op. An insert of a present edge or a delete of
    /// an absent one is refused (the batch is left half-applied, as the
    /// program leaves it), so the mirror stays duplicate-free.
    pub fn apply(&mut self, batch: &MutationBatch) -> Result<(), String> {
        for op in batch.ops() {
            match *op {
                EdgeOp::Insert { src, dst, weight } => match self.edges.entry((src, dst)) {
                    Entry::Occupied(_) => {
                        return Err(format!("insert of present edge {src}->{dst}"))
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(weight);
                    }
                },
                EdgeOp::Delete { src, dst } => {
                    if self.edges.remove(&(src, dst)).is_none() {
                        return Err(format!("delete of absent edge {src}->{dst}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// The current edge set as a CSR (neighbours in ascending order).
    pub fn to_csr(&self) -> Csr {
        let mut el = EdgeList::with_capacity(self.num_vertices, self.edges.len());
        for (&(s, d), &w) in &self.edges {
            el.push_weighted(s, d, w);
        }
        el.to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_algos::reference;

    fn base() -> Csr {
        let mut el = EdgeList::new(4);
        el.push_weighted(0, 1, 5);
        el.push_weighted(1, 2, 1);
        el.push_weighted(0, 2, 9);
        el.to_csr()
    }

    #[test]
    fn mirror_tracks_inserts_and_deletes_and_feeds_the_oracle() {
        let mut m = EdgeMirror::of(&base());
        assert_eq!(reference::dijkstra(&m.to_csr(), 0), vec![0, 5, 6, u32::MAX]);
        let mut batch = MutationBatch::new();
        batch.delete(1, 2).insert_weighted(2, 3, 2);
        m.apply(&batch).expect("valid batch");
        let g = m.to_csr();
        assert_eq!((g.neighbors(1), g.neighbors(2)), (&[][..], &[3][..]));
        assert_eq!(g.num_edges(), 3);
        assert_eq!(reference::dijkstra(&m.to_csr(), 0), vec![0, 5, 9, 11]);
        assert_eq!(reference::bfs_depths(&m.to_csr(), 0), vec![0, 1, 1, 2]);
    }

    #[test]
    fn mirror_refuses_duplicate_inserts_and_missing_deletes() {
        let mut m = EdgeMirror::of(&base());
        let mut dup = MutationBatch::new();
        dup.insert_weighted(0, 1, 3);
        assert!(m.apply(&dup).is_err());
        let mut missing = MutationBatch::new();
        missing.delete(3, 0);
        assert!(m.apply(&missing).is_err());
        assert_eq!(m, EdgeMirror::of(&base()));
    }
}
