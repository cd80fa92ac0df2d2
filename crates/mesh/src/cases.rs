//! Case-1 / case-2 classification of an SD's discretized points.
//!
//! Paper §6.3, Fig. 5: within one SD, the DPs whose ε-ball stays on data
//! owned by the same computational node (**case 2**) can be updated
//! immediately each timestep, while DPs that read foreign ghost data
//! (**case 1**) must wait for the neighbours' messages. Computing case 2
//! first hides the data-exchange time.
//!
//! The split here is per-side conservative: if any foreign SD contributes
//! ghost cells on a side (including its corners), the whole strip of width
//! `halo` along that side is classified case 1. Over-approximating case 1
//! is always correct — it only shrinks the overlap window, never reads
//! stale data.

use crate::halo::{HaloPatch, HaloPlan, PatchSource};
use crate::rect::Rect;
use crate::subdomain::SdId;

/// The interior of one SD split into communication classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSplit {
    /// The foreign-independent region (computed while messages are in
    /// flight). Empty when foreign margins swallow the whole SD.
    pub case2: Rect,
    /// Foreign-dependent strips (computed after ghosts arrive). Pairwise
    /// disjoint; together with `case2` they tile the SD interior.
    pub case1: Vec<Rect>,
}

impl CaseSplit {
    /// Total case-1 cells.
    pub fn case1_area(&self) -> i64 {
        self.case1.iter().map(Rect::area).sum()
    }

    /// Total case-2 cells.
    pub fn case2_area(&self) -> i64 {
        self.case2.area()
    }

    /// True when the SD has no foreign dependencies at all.
    pub fn is_all_case2(&self) -> bool {
        self.case1.is_empty()
    }
}

/// Split the interior of the SD covered by `plan` given the ownership
/// predicate `is_foreign` (true for SDs owned by a *different* locality).
///
/// `sd` is the SD side length in cells and `halo` the ghost-ring width.
pub fn split_cases(
    sd: i64,
    halo: i64,
    plan: &HaloPlan,
    is_foreign: impl FnMut(SdId) -> bool,
) -> CaseSplit {
    let case2 = case2_rect(sd, halo, &plan.patches, is_foreign);
    if case2.is_empty() {
        // Margins swallow the SD: everything is case 1.
        return CaseSplit {
            case2,
            case1: vec![Rect::new(0, 0, sd, sd)],
        };
    }
    let (ml, mr) = (case2.x0, sd - case2.x1());
    let (mb, mt) = (case2.y0, sd - case2.y1());
    let mut case1 = Vec::with_capacity(4);
    if ml > 0 {
        case1.push(Rect::new(0, 0, ml, sd));
    }
    if mr > 0 {
        case1.push(Rect::new(sd - mr, 0, mr, sd));
    }
    if mb > 0 {
        case1.push(Rect::new(ml, 0, case2.w, mb));
    }
    if mt > 0 {
        case1.push(Rect::new(ml, sd - mt, case2.w, mt));
    }
    CaseSplit { case2, case1 }
}

/// `(case-1 area, case-2 area)` of the split [`split_cases`] would return
/// for the SD whose halo is `patches`, computed without allocating.
pub fn case_areas(
    sd: i64,
    halo: i64,
    patches: &[HaloPatch],
    is_foreign: impl FnMut(SdId) -> bool,
) -> (i64, i64) {
    let case2 = case2_rect(sd, halo, patches, is_foreign).area();
    (sd * sd - case2, case2)
}

/// The per-side margin rule: every side some foreign patch reaches across
/// (corners count for both of their sides) loses a strip of width
/// `min(halo, sd)`. Returns the case-2 rectangle left over, or the empty
/// rectangle when the strips swallow the SD.
fn case2_rect(
    sd: i64,
    halo: i64,
    patches: &[HaloPatch],
    mut is_foreign: impl FnMut(SdId) -> bool,
) -> Rect {
    let (mut left, mut right, mut bottom, mut top) = (false, false, false, false);
    for patch in patches {
        let foreign = match patch.source {
            PatchSource::Sd(id) => is_foreign(id),
            PatchSource::Collar => false, // collar is constant zero: no comm
        };
        if !foreign {
            continue;
        }
        let d = &patch.dst_rect;
        if d.x0 < 0 {
            left = true;
        }
        if d.x1() > sd {
            right = true;
        }
        if d.y0 < 0 {
            bottom = true;
        }
        if d.y1() > sd {
            top = true;
        }
    }
    let m = halo.min(sd);
    let (ml, mr) = (if left { m } else { 0 }, if right { m } else { 0 });
    let (mb, mt) = (if bottom { m } else { 0 }, if top { m } else { 0 });
    let inner_w = sd - ml - mr;
    let inner_h = sd - mb - mt;
    if inner_w <= 0 || inner_h <= 0 {
        return Rect::empty();
    }
    Rect::new(ml, mb, inner_w, inner_h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::halo::build_halo_plan;
    use crate::subdomain::SdGrid;

    fn split(
        g: &SdGrid,
        halo: i64,
        sx: i64,
        sy: i64,
        owners: &dyn Fn(SdId) -> u32,
        me: u32,
    ) -> CaseSplit {
        let id = g.id(sx, sy);
        let plan = build_halo_plan(g, halo, id);
        split_cases(g.sd, halo, &plan, |n| owners(n) != me)
    }

    fn assert_tiles_interior(split: &CaseSplit, sd: i64) {
        let mut cover = std::collections::HashMap::new();
        for c in split.case2.cells() {
            *cover.entry(c).or_insert(0) += 1;
        }
        for r in &split.case1 {
            for c in r.cells() {
                *cover.entry(c).or_insert(0) += 1;
            }
        }
        for y in 0..sd {
            for x in 0..sd {
                assert_eq!(
                    cover.get(&(x, y)).copied().unwrap_or(0),
                    1,
                    "cell ({x},{y}) covered wrong number of times"
                );
            }
        }
        assert_eq!(cover.len() as i64, sd * sd, "cells outside interior");
    }

    #[test]
    fn all_owned_is_all_case2() {
        let g = SdGrid::new(3, 3, 10);
        let s = split(&g, 3, 1, 1, &|_| 0, 0);
        assert!(s.is_all_case2());
        assert_eq!(s.case2, Rect::new(0, 0, 10, 10));
        assert_tiles_interior(&s, 10);
    }

    #[test]
    fn single_sd_domain_is_all_case2() {
        // Only collar neighbours: zero BC needs no communication.
        let g = SdGrid::new(1, 1, 8);
        let s = split(&g, 3, 0, 0, &|_| 1, 0);
        assert!(s.is_all_case2());
    }

    #[test]
    fn foreign_left_neighbor_creates_left_strip() {
        let g = SdGrid::new(3, 1, 10);
        // Node 0 owns column 1 (middle); column 0 foreign, column 2 owned.
        let owners = |id: SdId| if id == 0 { 1u32 } else { 0u32 };
        let s = split(&g, 3, 1, 0, &owners, 0);
        assert_eq!(s.case2, Rect::new(3, 0, 7, 10));
        assert_eq!(s.case1, vec![Rect::new(0, 0, 3, 10)]);
        assert_tiles_interior(&s, 10);
    }

    #[test]
    fn diagonal_foreign_flags_both_sides() {
        let g = SdGrid::new(3, 3, 10);
        // only the bottom-left diagonal neighbour is foreign
        let diag = g.id(0, 0);
        let owners = move |id: SdId| if id == diag { 1u32 } else { 0 };
        let s = split(&g, 3, 1, 1, &owners, 0);
        // conservative: left and bottom strips both case 1
        assert_eq!(s.case2, Rect::new(3, 3, 7, 7));
        assert_eq!(s.case1_area(), 100 - 49);
        assert_tiles_interior(&s, 10);
    }

    #[test]
    fn all_foreign_neighbors_swallow_small_sd() {
        let g = SdGrid::new(3, 3, 4);
        // halo 3 on a 4-cell SD with all neighbours foreign: margins 3+3 > 4.
        // SD 4 (center) is owned by node 0, everything else by node 1.
        let s = split(&g, 3, 1, 1, &|id| u32::from(id != 4), 0);
        assert!(s.case2.is_empty());
        assert_eq!(s.case1, vec![Rect::new(0, 0, 4, 4)]);
        assert_tiles_interior(&s, 4);
    }

    #[test]
    fn opposite_foreign_sides() {
        let g = SdGrid::new(3, 1, 12);
        // both left and right columns foreign
        let owners = |id: SdId| if id == 1 { 0u32 } else { 7 };
        let s = split(&g, 4, 1, 0, &owners, 0);
        assert_eq!(s.case2, Rect::new(4, 0, 4, 12));
        assert_eq!(s.case1.len(), 2);
        assert_tiles_interior(&s, 12);
    }

    #[test]
    fn areas_sum_to_interior() {
        let g = SdGrid::new(4, 4, 6);
        for id in g.ids() {
            let plan = build_halo_plan(&g, 2, id);
            // checkerboard ownership: maximal fragmentation
            let s = split_cases(6, 2, &plan, |n| n % 2 == 0);
            assert_eq!(s.case1_area() + s.case2_area(), 36);
            assert_tiles_interior(&s, 6);
        }
    }

    #[test]
    fn case1_strips_wait_for_every_foreign_cell() {
        // Any interior cell within `halo` of a foreign-facing side must be
        // case 1 (it can read up to `halo` cells across that side).
        let g = SdGrid::new(3, 3, 10);
        let halo = 3;
        let foreign_left = g.id(0, 1);
        let owners = move |id: SdId| if id == foreign_left { 9u32 } else { 0 };
        let s = split(&g, halo, 1, 1, &owners, 0);
        for y in 0..10 {
            for x in 0..halo {
                assert!(
                    s.case1.iter().any(|r| r.contains(x, y)),
                    "({x},{y}) reads foreign data but is not case 1"
                );
            }
        }
    }

    #[test]
    fn case_areas_match_split_cases() {
        // Seeded random ownerships over grids where the margins leave a
        // case-2 core and where they swallow the SD (halo >= sd/2), with
        // multi-ring halos, no halo and 1-cell SDs.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (nsx, nsy, sd, halo) in [
            (4usize, 3usize, 10usize, 3i64),
            (4, 4, 6, 3),
            (5, 3, 4, 3),
            (3, 5, 5, 8),
            (6, 4, 3, 7),
            (3, 3, 8, 0),
            (4, 4, 1, 2),
        ] {
            let g = SdGrid::new(nsx, nsy, sd);
            for nodes in [1u64, 2, 3, 5] {
                let owners: Vec<u64> = g.ids().map(|_| next() % nodes).collect();
                for id in g.ids() {
                    let plan = build_halo_plan(&g, halo, id);
                    let me = owners[id as usize];
                    let foreign = |n: SdId| owners[n as usize] != me;
                    let split = split_cases(g.sd, halo, &plan, foreign);
                    assert_eq!(
                        case_areas(g.sd, halo, &plan.patches, foreign),
                        (split.case1_area(), split.case2_area()),
                        "{nsx}x{nsy} sd={sd} halo={halo} nodes={nodes} id={id}"
                    );
                }
            }
        }
    }
}
