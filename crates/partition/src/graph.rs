//! Compressed-sparse-row graphs with vertex and edge weights.

/// An undirected graph in CSR form (every edge stored in both directions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// Adjacency offsets, length `n + 1`.
    pub xadj: Vec<usize>,
    /// Flattened neighbour lists.
    pub adjncy: Vec<u32>,
    /// Edge weights parallel to `adjncy`.
    pub adjwgt: Vec<i64>,
    /// Vertex weights, length `n`.
    pub vwgt: Vec<i64>,
}

impl Csr {
    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Neighbours of `v` with edge weights.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, i64)> + '_ {
        let lo = self.xadj[v as usize];
        let hi = self.xadj[v as usize + 1];
        self.adjncy[lo..hi]
            .iter()
            .copied()
            .zip(self.adjwgt[lo..hi].iter().copied())
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Sum of all vertex weights.
    pub fn total_vwgt(&self) -> i64 {
        self.vwgt.iter().sum()
    }

    /// Build from an undirected edge list `(u, v, weight)`; duplicate edges
    /// have their weights summed, self-loops are rejected.
    ///
    /// A two-pass counting sort: the first pass sizes every row, the
    /// second scatters both orientations of each edge into its rows, and
    /// each row is then sorted by neighbour with repeats folded — O(E)
    /// plus the per-row sorts, with no hashing.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints.
    pub fn from_edges(n: usize, edges: &[(u32, u32, i64)], vwgt: Vec<i64>) -> Self {
        assert_eq!(vwgt.len(), n);
        let mut start = vec![0usize; n + 1];
        for &(u, v, _) in edges {
            assert_ne!(u, v, "self-loop on vertex {u}");
            assert!((u as usize) < n && (v as usize) < n, "edge out of range");
            start[u as usize + 1] += 1;
            start[v as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut cursor = start.clone();
        let mut pairs = vec![(0u32, 0i64); 2 * edges.len()];
        for &(u, v, w) in edges {
            pairs[cursor[u as usize]] = (v, w);
            cursor[u as usize] += 1;
            pairs[cursor[v as usize]] = (u, w);
            cursor[v as usize] += 1;
        }
        Csr::from_rows(vwgt, |v, row| {
            row.extend_from_slice(&pairs[start[v as usize]..start[v as usize + 1]]);
        })
    }

    /// Build from per-vertex rows: `fill(v, row)` appends `v`'s
    /// `(neighbour, weight)` entries to the (empty) `row`, in any order
    /// and possibly repeated. Every row is stored sorted by neighbour with
    /// repeated neighbours' weights summed — the row contract of
    /// [`Csr::from_edges`]. The caller is responsible for symmetry.
    pub(crate) fn from_rows(
        vwgt: Vec<i64>,
        mut fill: impl FnMut(u32, &mut Vec<(u32, i64)>),
    ) -> Self {
        let mut xadj = Vec::with_capacity(vwgt.len() + 1);
        xadj.push(0);
        let mut adjncy: Vec<u32> = Vec::new();
        let mut adjwgt: Vec<i64> = Vec::new();
        let mut row = Vec::new();
        for v in 0..vwgt.len() as u32 {
            row.clear();
            fill(v, &mut row);
            row.sort_unstable_by_key(|&(u, _)| u);
            let row_start = adjncy.len();
            for &(u, w) in &row {
                if adjncy.len() > row_start && adjncy.last() == Some(&u) {
                    *adjwgt.last_mut().expect("parallel to adjncy") += w;
                } else {
                    adjncy.push(u);
                    adjwgt.push(w);
                }
            }
            xadj.push(adjncy.len());
        }
        Csr {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        }
    }

    /// The subgraph induced by `ids` (edges leaving the set are dropped).
    /// Returns the subgraph and the local→global vertex map (= `ids`).
    pub fn induced_subgraph(&self, ids: &[u32]) -> (Csr, Vec<u32>) {
        let mut global_to_local = std::collections::HashMap::with_capacity(ids.len());
        for (local, &g) in ids.iter().enumerate() {
            global_to_local.insert(g, local as u32);
        }
        let mut xadj = Vec::with_capacity(ids.len() + 1);
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        let mut vwgt = Vec::with_capacity(ids.len());
        xadj.push(0);
        for &g in ids {
            for (u, w) in self.neighbors(g) {
                if let Some(&lu) = global_to_local.get(&u) {
                    adjncy.push(lu);
                    adjwgt.push(w);
                }
            }
            xadj.push(adjncy.len());
            vwgt.push(self.vwgt[g as usize]);
        }
        (
            Csr {
                xadj,
                adjncy,
                adjwgt,
                vwgt,
            },
            ids.to_vec(),
        )
    }

    /// Consistency check: symmetric adjacency, sorted offsets, matching
    /// array lengths. Used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n();
        if self.xadj.len() != n + 1 {
            return Err(format!("xadj length {} != n+1", self.xadj.len()));
        }
        if self.adjncy.len() != self.adjwgt.len() {
            return Err("adjncy/adjwgt length mismatch".into());
        }
        if *self.xadj.last().unwrap() != self.adjncy.len() {
            return Err("xadj tail does not cover adjncy".into());
        }
        for v in 0..n as u32 {
            for (u, w) in self.neighbors(v) {
                if u as usize >= n {
                    return Err(format!("edge ({v},{u}) out of range"));
                }
                if u == v {
                    return Err(format!("self loop at {v}"));
                }
                let back = self.neighbors(u).find(|&(x, _)| x == v).map(|(_, bw)| bw);
                if back != Some(w) {
                    return Err(format!("asymmetric edge ({v},{u})"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Csr {
        // 0 - 1 - 2
        Csr::from_edges(3, &[(0, 1, 2), (1, 2, 5)], vec![1, 1, 1])
    }

    #[test]
    fn from_edges_builds_symmetric_csr() {
        let g = path3();
        assert_eq!(g.n(), 3);
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![(1, 2)]);
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_edges_merge_weights() {
        let g = Csr::from_edges(2, &[(0, 1, 2), (1, 0, 3)], vec![1, 1]);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![(1, 5)]);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Csr::from_edges(2, &[(0, 0, 1)], vec![1, 1]);
    }

    #[test]
    fn induced_subgraph_drops_external_edges() {
        // square 0-1-2-3-0
        let g = Csr::from_edges(
            4,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)],
            vec![1, 2, 3, 4],
        );
        let (sub, map) = g.induced_subgraph(&[1, 2]);
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.vwgt, vec![2, 3]);
        assert_eq!(sub.n_edges(), 1);
        assert_eq!(map, vec![1, 2]);
        sub.validate().unwrap();
    }

    #[test]
    fn total_vwgt_sums() {
        let g = Csr::from_edges(3, &[(0, 1, 1)], vec![5, 7, 9]);
        assert_eq!(g.total_vwgt(), 21);
    }

    /// `from_edges` against a `BTreeMap` accumulation of the same edges
    /// (the contract spelled out directly): random multigraphs with
    /// repeated edges in both orientations and isolated vertices.
    #[test]
    fn from_edges_matches_ordered_map_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 1 + rng.gen_range(0..40);
            // only the lower half of the ids carries edges, so the upper
            // half stays isolated
            let live = n.div_ceil(2);
            let mut edges = Vec::new();
            if live >= 2 {
                for _ in 0..rng.gen_range(0..4 * n) {
                    let u = rng.gen_range(0..live) as u32;
                    let v = rng.gen_range(0..live) as u32;
                    if u != v {
                        let w = rng.gen_range(0..100) as i64 - 20;
                        edges.push((u, v, w));
                        if rng.gen_range(0..3) == 0 {
                            edges.push((v, u, w + 1)); // repeat, reversed
                        }
                    }
                }
            }
            let vwgt: Vec<i64> = (0..n as i64).collect();
            let mut rows: Vec<BTreeMap<u32, i64>> = vec![BTreeMap::new(); n];
            for &(u, v, w) in &edges {
                *rows[u as usize].entry(v).or_insert(0) += w;
                *rows[v as usize].entry(u).or_insert(0) += w;
            }
            let mut reference = Csr {
                xadj: vec![0],
                adjncy: Vec::new(),
                adjwgt: Vec::new(),
                vwgt: vwgt.clone(),
            };
            for row in rows {
                for (v, w) in row {
                    reference.adjncy.push(v);
                    reference.adjwgt.push(w);
                }
                reference.xadj.push(reference.adjncy.len());
            }
            let g = Csr::from_edges(n, &edges, vwgt);
            assert_eq!(g, reference, "seed {seed}");
            g.validate().unwrap();
            assert!((live..n).all(|v| g.degree(v as u32) == 0));
        }
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = Csr::from_edges(3, &[], vec![1, 1, 1]);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.degree(0), 0);
        g.validate().unwrap();
    }
}
