//! Capacity-aware repartitioning of a *live* SD graph.
//!
//! [`crate::kway::part_graph`] answers the bootstrap question — partition a
//! mesh nobody owns yet, balancing cell counts. Mid-run repartitioning (the
//! `LbSpec::Repartition` escape hatch) asks a harder one: re-split the
//! runtime's [`crate::SdGraph`] so that every part fits a *byte capacity*
//! (per-rank `memory_bytes`, pricing tiles + ghost buffers), at a scale
//! where the recursive-bisection path is far too slow. The replan runs
//! inside a load-balancing epoch, so its latency is paid by every rank:
//! a 10k-rank replan over a million SDs (the benchmark's `plan_10k`
//! `plan_repart_s`) measures 1.1–1.3 s on a 2-CPU Intel Xeon host.
//!
//! [`repartition_capacitated`] therefore picks between two strategies:
//!
//! - **Direct** (small graphs): re-weight the graph by resident bytes and
//!   run the full multilevel recursive-bisection partitioner, then repair
//!   capacity violations. Best cut quality; this is the path every
//!   scenario-scale replan takes.
//! - **Multilevel k-way** (cluster scale): coarsen by heavy-edge matching
//!   with the dense-scratch contraction, skipping its row sort, seed
//!   the coarsest graph with a weight-balanced contiguous sweep, then
//!   uncoarsen with boundary refinement that only ever touches the parts
//!   actually adjacent to a vertex — O(edges) per pass independent of k,
//!   where the direct k-way refinement's per-vertex `O(k)` connection
//!   array would cost ~10¹⁰ operations at 10k parts.
//!
//! Both strategies end in capacity-repair sweeps so no part
//! exceeds its byte capacity when a feasible assignment is reachable by
//! single-vertex moves. Determinism: same graph, weights, caps and seed
//! produce the same partition (the cross-substrate parity contract).

use crate::coarsen::{coarsen_with, contract_fast};
use crate::graph::Csr;
use crate::kway::{part_graph, Partition, PartitionConfig};
use crate::metrics::{edge_cut, part_weights};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Above this vertex count (or direct-refinement work product) the
/// recursive-bisection path is abandoned for the k-independent multilevel
/// k-way scheme.
const DIRECT_MAX_N: usize = 8192;
const DIRECT_MAX_WORK: u64 = 1 << 25;

/// Partition `g` into `cfg.k` parts whose *byte* loads respect `caps`.
///
/// `bytes[v]` is the resident footprint of vertex `v` (what hosting it
/// costs a rank, e.g. [`crate::SdGraph::resident_bytes`]); `caps[p]` is the
/// byte capacity of part `p` (`u64::MAX` = unbounded). The returned
/// [`Partition`] balances byte loads within `cfg.imbalance` and keeps every
/// part under its cap whenever single-vertex repair moves can get there —
/// with infeasible caps (total bytes exceeding total capacity) the result
/// is best-effort rather than a panic, so callers can stage evacuations
/// across epochs.
///
/// # Panics
/// Panics when `bytes`/`caps` lengths disagree with the graph/`cfg.k`, or
/// when any capacity is zero (zero-capacity ranks must be excluded from
/// the part universe by the caller, not handed to the partitioner).
pub fn repartition_capacitated(
    g: &Csr,
    bytes: &[u64],
    caps: &[u64],
    cfg: &PartitionConfig,
) -> Partition {
    let n = g.n();
    assert_eq!(bytes.len(), n, "one byte weight per vertex");
    assert_eq!(caps.len(), cfg.k as usize, "one capacity per part");
    assert!(cfg.k >= 1, "k must be positive");
    assert!(caps.iter().all(|&c| c > 0), "capacities must be positive");

    let vwgt: Vec<i64> = bytes
        .iter()
        .map(|&b| b.min(i64::MAX as u64) as i64)
        .collect();
    let bg = Csr {
        xadj: g.xadj.clone(),
        adjncy: g.adjncy.clone(),
        adjwgt: g.adjwgt.clone(),
        vwgt,
    };

    if cfg.k == 1 || n == 0 {
        return Partition {
            parts: vec![0; n],
            k: cfg.k,
            edgecut: 0,
        };
    }
    if cfg.k as usize >= n {
        // One vertex per part, mirroring `part_graph`'s degenerate branch.
        let parts: Vec<u32> = (0..n as u32).collect();
        let edgecut = edge_cut(&bg, &parts);
        return Partition {
            parts,
            k: cfg.k,
            edgecut,
        };
    }

    let eff = effective_caps(&bg, caps, cfg);
    let mut parts = if n <= DIRECT_MAX_N && (n as u64) * (cfg.k as u64) <= DIRECT_MAX_WORK {
        part_graph(&bg, cfg).parts
    } else {
        multilevel_kway(&bg, cfg, &eff)
    };
    capacity_sweeps(&bg, &mut parts, cfg, &eff);
    // The balance-tightened budget can stall the repair with a *hard*
    // capacity still violated (every other part's slack eaten by the
    // tighter balance target, so no move is admissible). A second sweep
    // against the hard caps alone has the full declared headroom to work
    // with and restores the documented guarantee.
    let hard: Vec<i64> = caps
        .iter()
        .map(|&c| c.min(i64::MAX as u64) as i64)
        .collect();
    if hard != eff {
        capacity_sweeps(&bg, &mut parts, cfg, &hard);
    }
    let edgecut = edge_cut(&bg, &parts);
    Partition {
        parts,
        k: cfg.k,
        edgecut,
    }
}

/// Per-part byte budget the refinement enforces: the hard capacity,
/// tightened by the balance target when that is feasible. With unbounded
/// caps this reduces to the classic `total/k · imbalance` cap; with tight
/// heterogeneous caps the capacities win.
fn effective_caps(g: &Csr, caps: &[u64], cfg: &PartitionConfig) -> Vec<i64> {
    let total = g.total_vwgt();
    let k = cfg.k as i64;
    let balance_cap = ((total as f64 / k as f64) * cfg.imbalance).ceil() as i64;
    let hard: Vec<i64> = caps
        .iter()
        .map(|&c| c.min(i64::MAX as u64) as i64)
        .collect();
    let tight: Vec<i64> = hard.iter().map(|&c| c.min(balance_cap)).collect();
    if tight.iter().map(|&c| c.min(total)).sum::<i64>() >= total {
        tight
    } else {
        // The balance target is infeasible under these capacities; fall
        // back to the hard caps alone.
        hard
    }
}

/// Multilevel k-way partitioning with k-independent refinement — the
/// cluster-scale path.
fn multilevel_kway(bg: &Csr, cfg: &PartitionConfig, eff: &[i64]) -> Vec<u32> {
    let k = cfg.k;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let target = (k as usize * 4).max(256);
    let levels = coarsen_with(bg, target, &mut rng, contract_fast);
    let coarsest: &Csr = levels.last().map(|l| &l.graph).unwrap_or(bg);

    // Initial assignment: a weight-balanced contiguous sweep over coarse
    // ids (coarse ids inherit fine-vertex order, so contiguous id ranges
    // stay spatially local). Guarantees every part non-empty.
    let nc = coarsest.n();
    let total = coarsest.total_vwgt();
    let mut parts = vec![0u32; nc];
    let mut p = 0u32;
    let mut acc = 0i64;
    for (v, part) in parts.iter_mut().enumerate() {
        *part = p.min(k - 1);
        acc += coarsest.vwgt[v];
        let remaining_vertices = (nc - v - 1) as u32;
        if p + 1 < k
            && remaining_vertices >= k - p - 1
            && acc as i128 * k as i128 >= total as i128 * (p as i128 + 1)
        {
            p += 1;
        }
    }
    refine_capacitated(coarsest, &mut parts, k, eff, cfg.refine_passes);

    // Uncoarsen: project through each level's map, refine at each scale
    // (each level's `map` projects onto the graph it contracted — the
    // previous level's coarse graph, or the input graph at the finest).
    let mut current = parts;
    for idx in (0..levels.len()).rev() {
        let level = &levels[idx];
        let finer_n = level.map.len();
        let mut finer = vec![0u32; finer_n];
        for (v, part) in finer.iter_mut().enumerate() {
            *part = current[level.map[v] as usize];
        }
        current = finer;
        let fine_graph: &Csr = if idx == 0 { bg } else { &levels[idx - 1].graph };
        refine_capacitated(fine_graph, &mut current, k, eff, 2);
    }
    current
}

/// Boundary refinement whose per-vertex cost depends on the vertex degree,
/// not on k: connection weights are accumulated only for the parts a
/// vertex actually touches. Moves require positive gain and a destination
/// under its effective cap; a vertex in an over-cap part may also take a
/// zero/negative-gain move to shed load (the repair case).
fn refine_capacitated(g: &Csr, parts: &mut [u32], k: u32, eff: &[i64], passes: u32) {
    let n = g.n();
    if n == 0 || k < 2 {
        return;
    }
    let mut loads = part_weights(g, parts, k);
    let mut conn = vec![0i64; k as usize];
    let mut touched: Vec<u32> = Vec::with_capacity(32);
    for _ in 0..passes {
        let mut moved = false;
        for v in 0..n as u32 {
            let own = parts[v as usize];
            touched.clear();
            let mut is_boundary = false;
            for (u, w) in g.neighbors(v) {
                let pu = parts[u as usize];
                if conn[pu as usize] == 0 {
                    touched.push(pu);
                }
                conn[pu as usize] += w;
                if pu != own {
                    is_boundary = true;
                }
            }
            if is_boundary {
                let vw = g.vwgt[v as usize];
                let own_conn = conn[own as usize];
                let over_cap = loads[own as usize] > eff[own as usize];
                let mut best: Option<(u32, i64)> = None;
                for &p in &touched {
                    if p == own {
                        continue;
                    }
                    let gain = conn[p as usize] - own_conn;
                    let fits = loads[p as usize] + vw <= eff[p as usize];
                    let admissible = if over_cap {
                        // shedding load beats preserving cut, but never
                        // into another over-cap part
                        fits
                    } else {
                        gain > 0 && fits
                    };
                    if admissible && best.is_none_or(|(_, bg_)| gain > bg_) {
                        best = Some((p, gain));
                    }
                }
                if let Some((p, _)) = best {
                    loads[own as usize] -= vw;
                    loads[p as usize] += vw;
                    parts[v as usize] = p;
                    moved = true;
                }
            }
            for &t in &touched {
                conn[t as usize] = 0;
            }
        }
        if !moved {
            break;
        }
    }
}

/// Final capacity repair: while some part exceeds its effective cap, sweep
/// its boundary vertices out to the adjacent part with the best
/// (gain, headroom) — or, when no adjacent part has room, to the globally
/// emptiest part — until every part fits or a sweep makes no progress.
fn capacity_sweeps(g: &Csr, parts: &mut [u32], cfg: &PartitionConfig, eff: &[i64]) {
    let k = cfg.k;
    let n = g.n();
    if n == 0 || k < 2 {
        return;
    }
    let mut loads = part_weights(g, parts, k);
    let over = |loads: &[i64]| (0..k as usize).any(|p| loads[p] > eff[p]);
    if !over(&loads) {
        return;
    }
    let mut conn = vec![0i64; k as usize];
    let mut touched: Vec<u32> = Vec::with_capacity(32);
    for _round in 0..8 {
        let mut moved = false;
        for v in 0..n as u32 {
            let own = parts[v as usize];
            if loads[own as usize] <= eff[own as usize] {
                continue;
            }
            let vw = g.vwgt[v as usize];
            touched.clear();
            for (u, w) in g.neighbors(v) {
                let pu = parts[u as usize];
                if conn[pu as usize] == 0 {
                    touched.push(pu);
                }
                conn[pu as usize] += w;
            }
            let own_conn = conn[own as usize];
            let mut best: Option<(u32, i64)> = None;
            for &p in &touched {
                if p != own && loads[p as usize] + vw <= eff[p as usize] {
                    let gain = conn[p as usize] - own_conn;
                    if best.is_none_or(|(_, bg_)| gain > bg_) {
                        best = Some((p, gain));
                    }
                }
            }
            if best.is_none() {
                // teleport to the emptiest part that can absorb it
                let mut slot: Option<(u32, i64)> = None;
                for p in 0..k {
                    if p == own {
                        continue;
                    }
                    let headroom = eff[p as usize] - loads[p as usize];
                    if headroom >= vw && slot.is_none_or(|(_, h)| headroom > h) {
                        slot = Some((p, headroom));
                    }
                }
                best = slot.map(|(p, _)| (p, 0));
            }
            for &t in &touched {
                conn[t as usize] = 0;
            }
            if let Some((p, _)) = best {
                loads[own as usize] -= vw;
                loads[p as usize] += vw;
                parts[v as usize] = p;
                moved = true;
            }
        }
        if !moved || !over(&loads) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::balance;

    fn grid_graph(w: usize, h: usize) -> Csr {
        let id = |x: usize, y: usize| (y * w + x) as u32;
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((id(x, y), id(x + 1, y), 1));
                }
                if y + 1 < h {
                    edges.push((id(x, y), id(x, y + 1), 1));
                }
            }
        }
        Csr::from_edges(w * h, &edges, vec![1; w * h])
    }

    fn loads(bytes: &[u64], parts: &[u32], k: u32) -> Vec<u64> {
        let mut l = vec![0u64; k as usize];
        for (v, &p) in parts.iter().enumerate() {
            l[p as usize] += bytes[v];
        }
        l
    }

    #[test]
    fn unbounded_caps_give_balanced_partition() {
        let g = grid_graph(16, 16);
        let bytes = vec![8u64; 256];
        for k in [2u32, 4, 8] {
            let caps = vec![u64::MAX; k as usize];
            let p = repartition_capacitated(&g, &bytes, &caps, &PartitionConfig::new(k));
            assert!(p.parts.iter().all(|&x| x < k));
            for part in 0..k {
                assert!(p.parts.contains(&part), "part {part} empty for k={k}");
            }
            let bg = Csr {
                vwgt: bytes.iter().map(|&b| b as i64).collect(),
                ..g.clone()
            };
            let b = balance(&bg, &p.parts, k);
            assert!(b <= 1.25, "k={k}: balance {b}");
            assert_eq!(p.edgecut, edge_cut(&bg, &p.parts));
        }
    }

    #[test]
    fn tight_caps_are_respected() {
        // 8x8 grid of 10-byte vertices (640 total) over 4 parts where part
        // 0 can hold barely one quarter and part 3 has slack.
        let g = grid_graph(8, 8);
        let bytes = vec![10u64; 64];
        let caps = [170u64, 200, 200, 400];
        let p = repartition_capacitated(&g, &bytes, &caps, &PartitionConfig::new(4));
        let l = loads(&bytes, &p.parts, 4);
        for part in 0..4 {
            assert!(
                l[part] <= caps[part],
                "part {part} holds {} > cap {}",
                l[part],
                caps[part]
            );
        }
    }

    #[test]
    fn lopsided_caps_push_load_to_the_big_rank() {
        // One rank with 4x the capacity of the others must not overflow
        // the small ones even though a balanced split would.
        let g = grid_graph(10, 10);
        let bytes = vec![4u64; 100];
        let caps = [80u64, 80, 80, 400];
        let p = repartition_capacitated(&g, &bytes, &caps, &PartitionConfig::new(4));
        let l = loads(&bytes, &p.parts, 4);
        for part in 0..4 {
            assert!(
                l[part] <= caps[part],
                "part {part}: {} > {}",
                l[part],
                caps[part]
            );
        }
        assert!(
            l[3] >= 160,
            "big rank should absorb the overflow, got {l:?}"
        );
    }

    #[test]
    fn degenerate_k_matches_part_graph_conventions() {
        let g = grid_graph(2, 2);
        let bytes = vec![1u64; 4];
        let p1 = repartition_capacitated(&g, &bytes, &[u64::MAX], &PartitionConfig::new(1));
        assert!(p1.parts.iter().all(|&x| x == 0));
        let p16 = repartition_capacitated(&g, &bytes, &[u64::MAX; 16], &PartitionConfig::new(16));
        let mut seen = std::collections::HashSet::new();
        for &x in &p16.parts {
            assert!(seen.insert(x));
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = grid_graph(12, 12);
        let bytes: Vec<u64> = (0..144).map(|v| 4 + (v % 7) as u64).collect();
        let caps = vec![u64::MAX; 6];
        let cfg = PartitionConfig::new(6).with_seed(42);
        let a = repartition_capacitated(&g, &bytes, &caps, &cfg);
        let b = repartition_capacitated(&g, &bytes, &caps, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn multilevel_path_scales_past_the_direct_threshold() {
        // 100x100 = 10k vertices at k=64 exceeds DIRECT_MAX_N, forcing the
        // coarsen/kway path; every part must land non-empty and balanced.
        let g = grid_graph(100, 100);
        let bytes = vec![8u64; 10_000];
        let k = 64u32;
        let caps = vec![u64::MAX; k as usize];
        let p = repartition_capacitated(&g, &bytes, &caps, &PartitionConfig::new(k));
        let l = loads(&bytes, &p.parts, k);
        assert!(l.iter().all(|&x| x > 0), "empty part: {l:?}");
        let max = *l.iter().max().unwrap();
        let total: u64 = l.iter().sum();
        assert!(
            (max as f64) * (k as f64) / (total as f64) <= 1.3,
            "imbalance too high: max {max} of {total}"
        );
        let bg = Csr {
            vwgt: bytes.iter().map(|&b| b as i64).collect(),
            ..g.clone()
        };
        // sanity: far better than a random-quality cut
        assert!(edge_cut(&bg, &p.parts) < bg.adjwgt.iter().sum::<i64>() / 4);
    }

    #[test]
    #[should_panic(expected = "capacities must be positive")]
    fn zero_capacity_rejected() {
        let g = grid_graph(2, 2);
        repartition_capacitated(&g, &[1; 4], &[0, 10], &PartitionConfig::new(2));
    }
}
