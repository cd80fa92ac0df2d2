//! The discrete nonlocal operator (paper eq. 5).
//!
//! For every DP i the forward-Euler update is
//!
//! ```text
//! û_i^{k+1} = û_i^k + Δt [ b(t_k, x_i) + c Σ_j J(|x_j−x_i|/ε) (û_j − û_i) V_j ]
//! ```
//!
//! [`NonlocalKernel`] pre-pairs each stencil offset with its quadrature
//! weight `J(r/ε)·h²` and applies the update over a rectangular region of a
//! [`Tile`] — the same code path serves the serial solver (one tile = the
//! whole grid), the shared-memory solver and the distributed solver.

use crate::influence::{conductivity_constant_2d, Influence};
use nlheat_mesh::{Grid, Rect, Stencil, Tile};
use std::sync::Arc;

/// External heat source b(t, x_i) addressed by global cell index.
pub type SourceFn = Arc<dyn Fn(f64, i64, i64) -> f64 + Send + Sync>;

/// A source that is identically zero.
pub fn zero_source() -> SourceFn {
    Arc::new(|_, _, _| 0.0)
}

/// Stencil + weights + conductivity for one grid resolution.
#[derive(Debug, Clone)]
pub struct NonlocalKernel {
    /// Geometric ε-ball stencil.
    pub stencil: Stencil,
    /// Quadrature weight `J(|x_j−x_i|/ε)·V_j` per stencil offset.
    pub weights: Vec<f64>,
    /// Conductivity constant c (paper eq. 2).
    pub c: f64,
    /// Σ_j weights — governs the forward-Euler stability bound.
    pub sum_w: f64,
    /// Grid spacing (cached for coordinate-free callers).
    pub h: f64,
}

impl NonlocalKernel {
    /// Build the kernel for `grid` with conductivity `k` and influence `j`.
    pub fn new(grid: &Grid, k: f64, j: Influence) -> Self {
        let stencil = Stencil::build(grid.h, grid.eps);
        let vol = grid.cell_volume();
        let weights: Vec<f64> = stencil
            .dists
            .iter()
            // clamped: float noise can push d/eps marginally past 1,
            // which would wrongly zero the outermost ring of weights
            .map(|&d| j.eval((d / grid.eps).min(1.0)) * vol)
            .collect();
        let sum_w = weights.iter().sum();
        NonlocalKernel {
            stencil,
            weights,
            c: conductivity_constant_2d(k, grid.eps, j),
            sum_w,
            h: grid.h,
        }
    }

    /// Largest stable forward-Euler timestep scaled by `safety ∈ (0, 1]`.
    ///
    /// The stiffest mode of `du_i/dt = c Σ w (u_j − u_i)` has rate
    /// `λ ≤ 2·c·Σw`, so Δt ≤ 2/λ = 1/(c·Σw) keeps |1 − Δt·λ| ≤ 1.
    pub fn stable_dt(&self, safety: f64) -> f64 {
        assert!(safety > 0.0 && safety <= 1.0);
        safety / (self.c * self.sum_w)
    }

    /// Storage-index offsets of the stencil for a tile of row stride
    /// `stride` — precompute once per tile shape, reuse across steps.
    pub fn storage_offsets(&self, stride: i64) -> Vec<isize> {
        self.stencil
            .offsets
            .iter()
            .map(|&(di, dj)| (dj * stride + di) as isize)
            .collect()
    }

    /// Precompute the cache-blocked execution plan for a tile of row
    /// stride `stride` — the blocked counterpart of
    /// [`storage_offsets`](Self::storage_offsets); build once per tile
    /// shape, reuse across steps with
    /// [`apply_region_blocked`](Self::apply_region_blocked).
    ///
    /// [`Stencil::build`] emits offsets dj-major with di ascending, so the
    /// ε-disk decomposes into runs of consecutive storage indices (one per
    /// stencil row; the dj = 0 row splits in two around the excluded
    /// center). Each run pairs a contiguous weight slice with a contiguous
    /// span of tile storage — the inner loop streams both.
    pub fn plan(&self, stride: i64) -> KernelPlan {
        let mut runs: Vec<WeightRun> = Vec::new();
        let mut prev: Option<(i64, i64)> = None;
        for (idx, &(di, dj)) in self.stencil.offsets.iter().enumerate() {
            let contiguous = prev == Some((di - 1, dj));
            if contiguous {
                runs.last_mut().unwrap().len += 1;
            } else {
                runs.push(WeightRun {
                    w0: idx,
                    len: 1,
                    off0: (dj * stride + di) as isize,
                });
            }
            prev = Some((di, dj));
        }
        KernelPlan { runs }
    }

    /// Apply one forward-Euler step over `region` (local coordinates of the
    /// tiles, which must share shape). `origin` is the global cell index of
    /// the tiles' local (0,0); `repeats ≥ 1` re-executes the interaction sum
    /// to emulate a slower node (the heterogeneity knob of §7).
    ///
    /// Reads `curr` (interior + halo), writes `next` in `region` only.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_region(
        &self,
        curr: &Tile,
        next: &mut Tile,
        region: &Rect,
        offsets: &[isize],
        origin: (i64, i64),
        t: f64,
        dt: f64,
        source: &SourceFn,
        repeats: u32,
    ) {
        debug_assert_eq!(curr.stride(), next.stride());
        debug_assert!(curr.interior_rect().contains_rect(region));
        debug_assert!(self.stencil.reach <= curr.halo());
        debug_assert_eq!(offsets.len(), self.weights.len());
        let data = curr.data();
        let weights = &self.weights;
        let repeats = repeats.max(1);
        for lj in region.y0..region.y1() {
            let gj = origin.1 + lj;
            for li in region.x0..region.x1() {
                let gi = origin.0 + li;
                let base = curr.storage_index(li, lj);
                let ui = data[base];
                let mut interaction = 0.0;
                for _rep in 0..repeats {
                    let mut acc = 0.0;
                    for (w, off) in weights.iter().zip(offsets) {
                        // In-bounds: region ⊆ interior and |offset| ≤ halo,
                        // so base+off stays inside the padded tile.
                        let uj = data[(base as isize + off) as usize];
                        acc += w * (uj - ui);
                    }
                    // Prevent the optimizer from collapsing the repeats.
                    interaction = std::hint::black_box(acc);
                }
                let rhs = source(t, gi, gj) + self.c * interaction;
                next.set(li, lj, ui + dt * rhs);
            }
        }
    }

    /// Cache-blocked variant of [`apply_region`](Self::apply_region) driven
    /// by a [`KernelPlan`] built for the tiles' stride.
    ///
    /// Bit-identical to `apply_region` with `storage_offsets(stride)`: the
    /// plan's runs cover the stencil offsets in their original order, and
    /// within a run the contiguous weight and field slices are walked in
    /// that same order, so the floating-point accumulation sequence is
    /// unchanged. What changes is the addressing — the inner loop streams
    /// two contiguous slices instead of chasing a per-element offset table,
    /// which lets the compiler vectorize and keeps each stencil row on one
    /// or two cache lines.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_region_blocked(
        &self,
        curr: &Tile,
        next: &mut Tile,
        region: &Rect,
        plan: &KernelPlan,
        origin: (i64, i64),
        t: f64,
        dt: f64,
        source: &SourceFn,
        repeats: u32,
    ) {
        debug_assert_eq!(curr.stride(), next.stride());
        debug_assert_eq!(curr.halo(), next.halo());
        debug_assert!(curr.interior_rect().contains_rect(region));
        debug_assert!(self.stencil.reach <= curr.halo());
        debug_assert_eq!(
            plan.runs.iter().map(|r| r.len).sum::<usize>(),
            self.weights.len(),
            "plan does not cover this kernel's stencil"
        );
        let data = curr.data();
        let out = next.data_mut();
        let weights = &self.weights;
        let repeats = repeats.max(1);
        for lj in region.y0..region.y1() {
            let gj = origin.1 + lj;
            for li in region.x0..region.x1() {
                let gi = origin.0 + li;
                let base = curr.storage_index(li, lj) as isize;
                let ui = data[base as usize];
                let mut interaction = 0.0;
                for _rep in 0..repeats {
                    let mut acc = 0.0;
                    for run in &plan.runs {
                        // In-bounds: region ⊆ interior and every offset in
                        // the run satisfies |offset| ≤ halo·(stride+1), so
                        // the whole span lies inside the padded tile.
                        let ws = &weights[run.w0..run.w0 + run.len];
                        let start = (base + run.off0) as usize;
                        let us = &data[start..start + run.len];
                        for (w, uj) in ws.iter().zip(us) {
                            acc += w * (uj - ui);
                        }
                    }
                    // Prevent the optimizer from collapsing the repeats.
                    interaction = std::hint::black_box(acc);
                }
                let rhs = source(t, gi, gj) + self.c * interaction;
                // `next` shares `curr`'s geometry, so this is the index
                // `Tile::set(li, lj, ..)` writes.
                out[base as usize] = ui + dt * rhs;
            }
        }
    }
}

/// One maximal run of stencil offsets that are consecutive in tile storage:
/// `len` weights starting at `weights[w0]`, paired with the field values at
/// storage offsets `off0, off0+1, …` relative to the center cell.
#[derive(Debug, Clone, Copy)]
struct WeightRun {
    w0: usize,
    len: usize,
    off0: isize,
}

/// Stride-specific execution plan for
/// [`apply_region_blocked`](NonlocalKernel::apply_region_blocked), produced
/// by [`NonlocalKernel::plan`]. Valid only for tiles with the stride it was
/// built for.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    runs: Vec<WeightRun>,
}

impl KernelPlan {
    /// Number of contiguous runs the stencil decomposed into (diagnostic).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_kernel(n: usize, eps_mult: f64) -> (Grid, NonlocalKernel) {
        let grid = Grid::square(n, eps_mult);
        let kernel = NonlocalKernel::new(&grid, 1.0, Influence::Constant);
        (grid, kernel)
    }

    #[test]
    fn weights_are_volume_for_constant_j() {
        let (grid, kernel) = grid_kernel(20, 2.0);
        for &w in &kernel.weights {
            assert!((w - grid.cell_volume()).abs() < 1e-18);
        }
        let expected = kernel.stencil.len() as f64 * grid.cell_volume();
        assert!((kernel.sum_w - expected).abs() < 1e-15);
    }

    #[test]
    fn sum_w_approximates_disk_area() {
        // Σ w ≈ area of the ε-disk = π ε².
        let (grid, kernel) = grid_kernel(400, 8.0);
        let disk = std::f64::consts::PI * grid.eps * grid.eps;
        assert!(
            (kernel.sum_w - disk).abs() / disk < 0.05,
            "sum_w {} vs disk {}",
            kernel.sum_w,
            disk
        );
    }

    #[test]
    fn stable_dt_positive_and_scales() {
        let (_, kernel) = grid_kernel(50, 4.0);
        let dt1 = kernel.stable_dt(1.0);
        let dt_half = kernel.stable_dt(0.5);
        assert!(dt1 > 0.0);
        assert!((dt_half / dt1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_field_stays_constant_without_source() {
        // Σ w (u_j − u_i) = 0 for constant u; with b = 0 nothing changes.
        let (grid, kernel) = grid_kernel(12, 2.0);
        let halo = grid.halo;
        let mut curr = Tile::new(12, halo);
        // constant over interior AND halo so every stencil read sees 5.0
        curr.fill_rect(&curr.padded_rect().clone(), 5.0);
        let mut next = Tile::new(12, halo);
        let offsets = kernel.storage_offsets(curr.stride());
        let region = curr.interior_rect();
        kernel.apply_region(
            &curr,
            &mut next,
            &region,
            &offsets,
            (0, 0),
            0.0,
            kernel.stable_dt(0.5),
            &zero_source(),
            1,
        );
        for (x, y) in region.cells() {
            assert!((next.get(x, y) - 5.0).abs() < 1e-14);
        }
    }

    #[test]
    fn source_only_integration() {
        // u = 0 everywhere, b = 3: after one step u = dt·3.
        let (grid, kernel) = grid_kernel(8, 2.0);
        let curr = Tile::new(8, grid.halo);
        let mut next = Tile::new(8, grid.halo);
        let offsets = kernel.storage_offsets(curr.stride());
        let dt = 0.01;
        let src: SourceFn = Arc::new(|_, _, _| 3.0);
        let region = curr.interior_rect();
        kernel.apply_region(
            &curr,
            &mut next,
            &region,
            &offsets,
            (0, 0),
            0.0,
            dt,
            &src,
            1,
        );
        assert!((next.get(4, 4) - 0.03).abs() < 1e-15);
    }

    #[test]
    fn heat_flows_from_hot_to_cold() {
        let (grid, kernel) = grid_kernel(16, 2.0);
        let mut curr = Tile::new(16, grid.halo);
        // hot square in the middle
        curr.fill_rect(&Rect::new(6, 6, 4, 4), 1.0);
        let mut next = Tile::new(16, grid.halo);
        let offsets = kernel.storage_offsets(curr.stride());
        let dt = kernel.stable_dt(0.5);
        let region = curr.interior_rect();
        kernel.apply_region(
            &curr,
            &mut next,
            &region,
            &offsets,
            (0, 0),
            0.0,
            dt,
            &zero_source(),
            1,
        );
        // center of the hot square cools, cold cell next to it warms
        assert!(next.get(7, 7) < 1.0);
        assert!(next.get(5, 7) > 0.0);
        // far away stays cold
        assert_eq!(next.get(0, 0), 0.0);
    }

    #[test]
    fn repeats_do_not_change_result() {
        let (grid, kernel) = grid_kernel(10, 2.0);
        let mut curr = Tile::new(10, grid.halo);
        for (i, (x, y)) in curr.interior_rect().cells().enumerate() {
            curr.set(x, y, (i % 7) as f64 * 0.1);
        }
        let offsets = kernel.storage_offsets(curr.stride());
        let dt = kernel.stable_dt(0.4);
        let region = curr.interior_rect();
        let mut next1 = Tile::new(10, grid.halo);
        let mut next3 = Tile::new(10, grid.halo);
        kernel.apply_region(
            &curr,
            &mut next1,
            &region,
            &offsets,
            (0, 0),
            0.0,
            dt,
            &zero_source(),
            1,
        );
        kernel.apply_region(
            &curr,
            &mut next3,
            &region,
            &offsets,
            (0, 0),
            0.0,
            dt,
            &zero_source(),
            3,
        );
        for (x, y) in region.cells() {
            assert_eq!(next1.get(x, y), next3.get(x, y));
        }
    }

    #[test]
    fn blocked_matches_scalar_bitwise() {
        // The blocked plan must reproduce the flat scalar loop bit for bit —
        // same accumulation order, only the addressing differs.
        for (n, eps_mult) in [(12usize, 2.0), (30, 4.0), (50, 8.0)] {
            let (grid, kernel) = grid_kernel(n, eps_mult);
            let mut curr = Tile::new(n as i64, grid.halo);
            for (i, (x, y)) in curr.padded_rect().cells().enumerate() {
                // irregular, sign-mixed field exercises cancellation paths
                curr.set(x, y, ((i * 2654435761) % 1000) as f64 * 1e-3 - 0.5);
            }
            let offsets = kernel.storage_offsets(curr.stride());
            let plan = kernel.plan(curr.stride());
            assert!(plan.run_count() < offsets.len(), "runs must coalesce");
            let dt = kernel.stable_dt(0.5);
            let src: SourceFn = Arc::new(|t, gi, gj| t + 0.01 * (gi - gj) as f64);
            for (region, repeats) in [
                (curr.interior_rect(), 1u32),
                (Rect::new(1, 2, n as i64 - 3, n as i64 - 4), 3),
            ] {
                let mut next_s = Tile::new(n as i64, grid.halo);
                let mut next_b = Tile::new(n as i64, grid.halo);
                kernel.apply_region(
                    &curr,
                    &mut next_s,
                    &region,
                    &offsets,
                    (7, -3),
                    0.25,
                    dt,
                    &src,
                    repeats,
                );
                kernel.apply_region_blocked(
                    &curr,
                    &mut next_b,
                    &region,
                    &plan,
                    (7, -3),
                    0.25,
                    dt,
                    &src,
                    repeats,
                );
                for (x, y) in region.cells() {
                    assert_eq!(
                        next_s.get(x, y).to_bits(),
                        next_b.get(x, y).to_bits(),
                        "mismatch at ({x},{y}) n={n} eps_mult={eps_mult}"
                    );
                }
            }
        }
    }

    #[test]
    fn partial_region_leaves_rest_untouched() {
        let (grid, kernel) = grid_kernel(10, 2.0);
        let mut curr = Tile::new(10, grid.halo);
        curr.fill_rect(&Rect::new(0, 0, 10, 10), 1.0);
        let mut next = Tile::new(10, grid.halo);
        let offsets = kernel.storage_offsets(curr.stride());
        let region = Rect::new(0, 0, 5, 10); // left half only
        kernel.apply_region(
            &curr,
            &mut next,
            &region,
            &offsets,
            (0, 0),
            0.0,
            0.001,
            &zero_source(),
            1,
        );
        assert_ne!(next.get(0, 0), 0.0);
        assert_eq!(next.get(7, 5), 0.0, "right half must stay untouched");
    }
}
