//! The CGO 2020 benchmark suite (Table 3 of the paper).
//!
//! Twenty-one stencils are evaluated in the paper:
//!
//! * synthetic star and box stencils of order 1–4 in 2D and 3D
//!   (`star2d{1..4}r`, `box2d{1..4}r`, `star3d{1..4}r`, `box3d{1..4}r`),
//!   with compile-time constant coefficients;
//! * the general stencils `j2d5pt`, `j2d9pt`, `j2d9pt-gol`, `gradient2d`
//!   and `j3d27pt`.
//!
//! Coefficients for the synthetic stencils are deterministic, pairwise
//! distinct (so that transposed/reflected indexing bugs cannot cancel out)
//! and normalised to sum to at most one, keeping 1,000-iteration runs
//! numerically stable. `j2d5pt` uses the exact coefficients of Fig. 4 of
//! the paper.

use crate::StencilDef;
use an5d_expr::Expr;

/// Normalised, pairwise-distinct weights `w_k` with `Σ w_k = total`.
fn spread_weights(count: usize, total: f64) -> Vec<f64> {
    let denom: f64 = (1..=count).map(|k| k as f64).sum();
    (1..=count).map(|k| total * k as f64 / denom).collect()
}

/// Synthetic 2D star stencil of the given radius (Table 3, `star2d{x}r`).
///
/// # Panics
///
/// Panics if `radius` is 0 (not a stencil) — the suite only instantiates
/// radii 1–4.
#[must_use]
pub fn star2d(radius: usize) -> StencilDef {
    assert!(radius > 0, "star2d radius must be positive");
    let r = radius as i32;
    let neighbour_offsets: Vec<[i32; 2]> = (1..=r)
        .flat_map(|d| [[d, 0], [-d, 0], [0, d], [0, -d]])
        .collect();
    let weights = spread_weights(neighbour_offsets.len(), 0.5);
    let mut terms = vec![Expr::constant(0.5) * Expr::cell(&[0, 0])];
    for (off, w) in neighbour_offsets.iter().zip(&weights) {
        terms.push(Expr::constant(*w) * Expr::cell(off));
    }
    StencilDef::new(format!("star2d{radius}r"), Expr::sum(terms))
        .expect("synthetic star2d stencil is always valid")
}

/// Synthetic 2D box stencil of the given radius (Table 3, `box2d{x}r`).
///
/// # Panics
///
/// Panics if `radius` is 0.
#[must_use]
pub fn box2d(radius: usize) -> StencilDef {
    assert!(radius > 0, "box2d radius must be positive");
    let r = radius as i32;
    let offsets: Vec<[i32; 2]> = (-r..=r)
        .flat_map(|i| (-r..=r).map(move |j| [i, j]))
        .collect();
    let weights = spread_weights(offsets.len(), 1.0);
    let terms: Vec<Expr> = offsets
        .iter()
        .zip(&weights)
        .map(|(off, w)| Expr::constant(*w) * Expr::cell(off))
        .collect();
    StencilDef::new(format!("box2d{radius}r"), Expr::sum(terms))
        .expect("synthetic box2d stencil is always valid")
}

/// Synthetic 3D star stencil of the given radius (Table 3, `star3d{x}r`).
///
/// # Panics
///
/// Panics if `radius` is 0.
#[must_use]
pub fn star3d(radius: usize) -> StencilDef {
    assert!(radius > 0, "star3d radius must be positive");
    let r = radius as i32;
    let neighbour_offsets: Vec<[i32; 3]> = (1..=r)
        .flat_map(|d| {
            [
                [d, 0, 0],
                [-d, 0, 0],
                [0, d, 0],
                [0, -d, 0],
                [0, 0, d],
                [0, 0, -d],
            ]
        })
        .collect();
    let weights = spread_weights(neighbour_offsets.len(), 0.6);
    let mut terms = vec![Expr::constant(0.4) * Expr::cell(&[0, 0, 0])];
    for (off, w) in neighbour_offsets.iter().zip(&weights) {
        terms.push(Expr::constant(*w) * Expr::cell(off));
    }
    StencilDef::new(format!("star3d{radius}r"), Expr::sum(terms))
        .expect("synthetic star3d stencil is always valid")
}

/// Synthetic 3D box stencil of the given radius (Table 3, `box3d{x}r`).
///
/// # Panics
///
/// Panics if `radius` is 0.
#[must_use]
pub fn box3d(radius: usize) -> StencilDef {
    assert!(radius > 0, "box3d radius must be positive");
    let r = radius as i32;
    let offsets: Vec<[i32; 3]> = (-r..=r)
        .flat_map(|i| (-r..=r).flat_map(move |j| (-r..=r).map(move |k| [i, j, k])))
        .collect();
    let weights = spread_weights(offsets.len(), 1.0);
    let terms: Vec<Expr> = offsets
        .iter()
        .zip(&weights)
        .map(|(off, w)| Expr::constant(*w) * Expr::cell(off))
        .collect();
    StencilDef::new(format!("box3d{radius}r"), Expr::sum(terms))
        .expect("synthetic box3d stencil is always valid")
}

/// The 5-point 2D Jacobi stencil of Fig. 4 of the paper (`j2d5pt`).
#[must_use]
pub fn j2d5pt() -> StencilDef {
    let expr = Expr::sum(vec![
        Expr::constant(5.1) * Expr::cell(&[-1, 0]),
        Expr::constant(12.1) * Expr::cell(&[0, -1]),
        Expr::constant(15.0) * Expr::cell(&[0, 0]),
        Expr::constant(12.2) * Expr::cell(&[0, 1]),
        Expr::constant(5.2) * Expr::cell(&[1, 0]),
    ]) / Expr::constant(118.0);
    StencilDef::new("j2d5pt", expr).expect("j2d5pt is always valid")
}

/// The 9-point second-order 2D Jacobi star stencil (`j2d9pt`).
#[must_use]
pub fn j2d9pt() -> StencilDef {
    let expr = Expr::sum(vec![
        Expr::constant(0.3) * Expr::cell(&[-2, 0]),
        Expr::constant(0.7) * Expr::cell(&[-1, 0]),
        Expr::constant(0.2) * Expr::cell(&[0, -2]),
        Expr::constant(0.6) * Expr::cell(&[0, -1]),
        Expr::constant(4.4) * Expr::cell(&[0, 0]),
        Expr::constant(0.9) * Expr::cell(&[0, 1]),
        Expr::constant(0.5) * Expr::cell(&[0, 2]),
        Expr::constant(0.8) * Expr::cell(&[1, 0]),
        Expr::constant(0.4) * Expr::cell(&[2, 0]),
    ]) / Expr::constant(9.5);
    StencilDef::new("j2d9pt", expr).expect("j2d9pt is always valid")
}

/// The 9-point "game of life"-shaped box Jacobi stencil (`j2d9pt-gol`).
#[must_use]
pub fn j2d9pt_gol() -> StencilDef {
    let mut terms = Vec::new();
    let coeffs = [0.1, 0.3, 0.5, 0.7, 0.9, 0.6, 0.4, 0.2, 0.8];
    let mut c = coeffs.iter();
    for i in -1..=1 {
        for j in -1..=1 {
            terms.push(Expr::constant(*c.next().expect("nine coefficients")) * Expr::cell(&[i, j]));
        }
    }
    let expr = Expr::sum(terms) / Expr::constant(4.9);
    StencilDef::new("j2d9pt-gol", expr).expect("j2d9pt-gol is always valid")
}

/// The non-linear `gradient2d` stencil:
/// `c·f + 1/sqrt(c0 + Σ (f − f_n)·(f − f_n))` over the four axial
/// neighbours. Counts 19 FLOP/cell as in Table 3 (differences are written —
/// and counted — twice, and `1/sqrt` is a single rsqrt).
#[must_use]
pub fn gradient2d() -> StencilDef {
    let centre = || Expr::cell(&[0, 0]);
    let diff_sq = |off: [i32; 2]| (centre() - Expr::cell(&off)) * (centre() - Expr::cell(&off));
    let sum = Expr::constant(1.0)
        + diff_sq([1, 0])
        + diff_sq([-1, 0])
        + diff_sq([0, 1])
        + diff_sq([0, -1]);
    let expr = Expr::constant(0.5) * centre() + Expr::constant(1.0) / Expr::sqrt(sum);
    StencilDef::new("gradient2d", expr).expect("gradient2d is always valid")
}

/// The 27-point 3D box Jacobi stencil (`j3d27pt`).
#[must_use]
pub fn j3d27pt() -> StencilDef {
    let mut terms = Vec::new();
    let mut k = 0usize;
    for i in -1..=1 {
        for j in -1..=1 {
            for l in -1..=1 {
                k += 1;
                terms.push(Expr::constant(0.5 + 0.05 * k as f64) * Expr::cell(&[i, j, l]));
            }
        }
    }
    let expr = Expr::sum(terms) / Expr::constant(33.0);
    StencilDef::new("j3d27pt", expr).expect("j3d27pt is always valid")
}

/// All 21 benchmarks of Table 3, in the paper's order.
#[must_use]
pub fn all_benchmarks() -> Vec<StencilDef> {
    let mut out = Vec::with_capacity(21);
    for r in 1..=4 {
        out.push(star2d(r));
    }
    for r in 1..=4 {
        out.push(box2d(r));
    }
    out.push(j2d5pt());
    out.push(j2d9pt());
    out.push(j2d9pt_gol());
    out.push(gradient2d());
    for r in 1..=4 {
        out.push(star3d(r));
    }
    for r in 1..=4 {
        out.push(box3d(r));
    }
    out.push(j3d27pt());
    out
}

/// The seven stencils used in the framework comparison of Fig. 6 and the
/// register-usage comparison of Fig. 7 (the ones with released STENCILGEN
/// kernels).
#[must_use]
pub fn figure6_benchmarks() -> Vec<StencilDef> {
    vec![
        j2d5pt(),
        j2d9pt(),
        j2d9pt_gol(),
        gradient2d(),
        star3d(1),
        star3d(2),
        j3d27pt(),
    ]
}

/// Look a benchmark up by its Table 3 name (e.g. `"box3d2r"`),
/// constructing only the stencil asked for.
#[must_use]
pub fn by_name(name: &str) -> Option<StencilDef> {
    match name {
        "j2d5pt" => return Some(j2d5pt()),
        "j2d9pt" => return Some(j2d9pt()),
        "j2d9pt-gol" => return Some(j2d9pt_gol()),
        "gradient2d" => return Some(gradient2d()),
        "j3d27pt" => return Some(j3d27pt()),
        _ => {}
    }
    // Synthetic names: `star|box` × `2d|3d` × one radius digit `1..=4` × `r`.
    let (star, rest) = match name.strip_prefix("star") {
        Some(rest) => (true, rest),
        None => (false, name.strip_prefix("box")?),
    };
    let &[rank @ (b'2' | b'3'), b'd', digit @ b'1'..=b'4', b'r'] = rest.as_bytes() else {
        return None;
    };
    let radius = usize::from(digit - b'0');
    Some(match (star, rank) {
        (true, b'2') => star2d(radius),
        (true, _) => star3d(radius),
        (false, b'2') => box2d(radius),
        (false, _) => box3d(radius),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_expr::StencilShapeClass;

    #[test]
    fn suite_has_twenty_one_benchmarks_with_unique_names() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 21);
        let names: std::collections::BTreeSet<&str> = all.iter().map(StencilDef::name).collect();
        assert_eq!(names.len(), 21);
    }

    #[test]
    fn table3_flop_counts_synthetic_2d() {
        for x in 1..=4usize {
            assert_eq!(star2d(x).flops_per_cell(), 8 * x + 1, "star2d{x}r");
            assert_eq!(
                box2d(x).flops_per_cell(),
                2 * (2 * x + 1).pow(2) - 1,
                "box2d{x}r"
            );
        }
    }

    #[test]
    fn table3_flop_counts_synthetic_3d() {
        for x in 1..=4usize {
            assert_eq!(star3d(x).flops_per_cell(), 12 * x + 1, "star3d{x}r");
            assert_eq!(
                box3d(x).flops_per_cell(),
                2 * (2 * x + 1).pow(3) - 1,
                "box3d{x}r"
            );
        }
    }

    #[test]
    fn table3_flop_counts_general_stencils() {
        assert_eq!(j2d5pt().flops_per_cell(), 10);
        assert_eq!(j2d9pt().flops_per_cell(), 18);
        assert_eq!(j2d9pt_gol().flops_per_cell(), 18);
        assert_eq!(gradient2d().flops_per_cell(), 19);
        assert_eq!(j3d27pt().flops_per_cell(), 54);
    }

    #[test]
    fn shape_classes_match_names() {
        assert_eq!(star2d(3).shape_class(), StencilShapeClass::Star);
        assert_eq!(box2d(2).shape_class(), StencilShapeClass::Box);
        assert_eq!(star3d(4).shape_class(), StencilShapeClass::Star);
        assert_eq!(box3d(1).shape_class(), StencilShapeClass::Box);
        assert_eq!(j2d5pt().shape_class(), StencilShapeClass::Star);
        assert_eq!(j2d9pt().shape_class(), StencilShapeClass::Star);
        assert_eq!(j2d9pt_gol().shape_class(), StencilShapeClass::Box);
        assert_eq!(j3d27pt().shape_class(), StencilShapeClass::Box);
        // gradient2d has a star access pattern but a non-linear update.
        assert_eq!(gradient2d().shape_class(), StencilShapeClass::Star);
        assert!(!gradient2d().is_associative());
    }

    #[test]
    fn radii_and_ranks() {
        assert_eq!(j2d9pt().radius(), 2);
        assert_eq!(j2d9pt().ndim(), 2);
        assert_eq!(star3d(4).radius(), 4);
        assert_eq!(star3d(4).ndim(), 3);
        assert_eq!(j3d27pt().radius(), 1);
        assert_eq!(j3d27pt().ndim(), 3);
    }

    #[test]
    fn associativity_flags() {
        for def in all_benchmarks() {
            if def.name() == "gradient2d" {
                assert!(!def.is_associative());
            } else {
                assert!(def.is_associative(), "{} should be associative", def.name());
            }
        }
    }

    #[test]
    fn synthetic_weights_are_stable() {
        // Coefficient sums stay ≤ 1 so iterated application cannot blow up.
        for def in all_benchmarks() {
            if let Some(form) = def.expr().as_linear() {
                let sum: f64 = form.terms().iter().map(|t| t.coeff.abs()).sum();
                assert!(sum <= 1.0 + 1e-9, "{}: coefficient sum {sum}", def.name());
            }
        }
    }

    #[test]
    fn weights_are_pairwise_distinct() {
        let w = spread_weights(5, 1.0);
        for i in 0..w.len() {
            for j in 0..i {
                assert_ne!(w[i], w[j]);
            }
        }
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lookup_by_name() {
        for def in all_benchmarks() {
            assert_eq!(by_name(def.name()), Some(def));
        }
        for name in [
            "nonexistent",
            "star2d0r",
            "star2d5r",
            "box3d",
            "star2d1",
            "j2d5pt ",
            "",
        ] {
            assert!(by_name(name).is_none(), "{name:?}");
        }
    }

    #[test]
    fn figure6_selection() {
        let names: Vec<&'static str> = vec![
            "j2d5pt",
            "j2d9pt",
            "j2d9pt-gol",
            "gradient2d",
            "star3d1r",
            "star3d2r",
            "j3d27pt",
        ];
        let selected = figure6_benchmarks();
        assert_eq!(
            selected.iter().map(StencilDef::name).collect::<Vec<_>>(),
            names
        );
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_synthetic_panics() {
        let _ = star2d(0);
    }
}
