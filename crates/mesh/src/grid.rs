//! Uniform grid over the unit square with its nonlocal collar.
//!
//! The material domain D = \[0,1\]² is discretized with `nx × ny`
//! cell-centered points of spacing `h = 1/nx` (the paper uses square meshes,
//! `nx = ny`; rectangles are supported for generality). The nonlocal
//! boundary D_c is the surrounding collar of width ε where the temperature
//! is held at zero (paper eq. 4); in cells that is `halo = ⌈ε/h⌉`.

use crate::rect::Rect;

/// Geometry of the discretized domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    /// Interior cells along x.
    pub nx: i64,
    /// Interior cells along y.
    pub ny: i64,
    /// Grid spacing (1/nx — the unit square is divided along x).
    pub h: f64,
    /// Nonlocal horizon ε.
    pub eps: f64,
    /// Collar/halo width in cells, `⌈ε/h⌉`.
    pub halo: i64,
}

impl Grid {
    /// Square mesh of `n × n` cells with horizon `ε = eps_mult · h`
    /// (the paper's experiments use `ε = 8h`).
    pub fn square(n: usize, eps_mult: f64) -> Self {
        assert!(n > 0, "grid must have at least one cell");
        assert!(eps_mult > 0.0, "horizon must be positive");
        let h = 1.0 / n as f64;
        Grid::with_eps(n, n, eps_mult * h)
    }

    /// General mesh with an explicit horizon.
    pub fn with_eps(nx: usize, ny: usize, eps: f64) -> Self {
        assert!(nx > 0 && ny > 0, "grid must have at least one cell");
        assert!(eps > 0.0, "horizon must be positive");
        let h = 1.0 / nx as f64;
        let halo = (eps / h).ceil() as i64;
        Grid {
            nx: nx as i64,
            ny: ny as i64,
            h,
            eps,
            halo,
        }
    }

    /// Physical coordinate of cell index `i` (cell-centered).
    pub fn coord(&self, i: i64) -> f64 {
        (i as f64 + 0.5) * self.h
    }

    /// Cell volume V_j (= h² in 2d, paper §3.1).
    pub fn cell_volume(&self) -> f64 {
        self.h * self.h
    }

    /// The interior index set K as a rectangle.
    pub fn domain_rect(&self) -> Rect {
        Rect::new(0, 0, self.nx, self.ny)
    }

    /// The full index set K ∪ K_c (interior plus collar).
    pub fn padded_rect(&self) -> Rect {
        Rect::new(
            -self.halo,
            -self.halo,
            self.nx + 2 * self.halo,
            self.ny + 2 * self.halo,
        )
    }

    /// Whether `(i, j)` lies in the material domain D.
    pub fn in_domain(&self, i: i64, j: i64) -> bool {
        self.domain_rect().contains(i, j)
    }

    /// Whether `(i, j)` lies in the collar D_c (zero boundary region).
    pub fn in_collar(&self, i: i64, j: i64) -> bool {
        self.padded_rect().contains(i, j) && !self.in_domain(i, j)
    }

    /// Total interior degrees of freedom.
    pub fn n_dofs(&self) -> usize {
        (self.nx * self.ny) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_grid_dimensions() {
        let g = Grid::square(16, 2.0);
        assert_eq!(g.nx, 16);
        assert_eq!(g.ny, 16);
        assert!((g.h - 1.0 / 16.0).abs() < 1e-15);
        assert!((g.eps - 2.0 / 16.0).abs() < 1e-15);
        assert_eq!(g.halo, 2);
    }

    #[test]
    fn halo_rounds_up() {
        // ε = 2.5h -> halo 3 cells
        let g = Grid::with_eps(10, 10, 0.25);
        assert_eq!(g.halo, 3);
    }

    #[test]
    fn coords_are_cell_centered() {
        let g = Grid::square(4, 1.0);
        assert!((g.coord(0) - 0.125).abs() < 1e-15);
        assert!((g.coord(3) - 0.875).abs() < 1e-15);
        // first collar cell sits just outside the unit square
        assert!(g.coord(-1) < 0.0);
        assert!(g.coord(4) > 1.0);
    }

    #[test]
    fn domain_and_collar_membership() {
        let g = Grid::square(8, 2.0);
        assert!(g.in_domain(0, 0));
        assert!(g.in_domain(7, 7));
        assert!(!g.in_domain(8, 0));
        assert!(g.in_collar(-1, 0));
        assert!(g.in_collar(8, 8));
        assert!(g.in_collar(-2, -2));
        assert!(!g.in_collar(-3, 0), "outside the padded region");
        assert!(!g.in_collar(3, 3));
    }

    #[test]
    fn padded_rect_covers_domain_plus_collar() {
        let g = Grid::square(8, 2.0);
        let p = g.padded_rect();
        assert_eq!(p, Rect::new(-2, -2, 12, 12));
        assert!(p.contains_rect(&g.domain_rect()));
    }

    #[test]
    fn cell_volume_is_h_squared() {
        let g = Grid::square(10, 1.0);
        assert!((g.cell_volume() - 0.01).abs() < 1e-15);
    }
}
