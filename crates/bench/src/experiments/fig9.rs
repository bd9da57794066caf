//! Fig. 9: performance of the synthetic star/box stencils of order 1–4 on
//! Tesla V100, with the best temporal blocking degree annotated.

use super::common::{device, tuned};
use crate::report::{gflops, render_table};
use an5d::{suite, Precision, StencilDef};
use serde::Serialize;

/// One bar of Fig. 9.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct Fig9Row {
    /// Benchmark name (star/box, 2D/3D, order 1–4).
    pub stencil: String,
    /// Precision label.
    pub precision: String,
    /// Best temporal blocking degree found by the tuner.
    pub best_bt: usize,
    /// Simulated measured performance (GFLOP/s).
    pub tuned_gflops: f64,
}

fn stencils() -> Vec<StencilDef> {
    let mut out = Vec::new();
    for r in 1..=4 {
        out.push(suite::star2d(r));
    }
    for r in 1..=4 {
        out.push(suite::box2d(r));
    }
    for r in 1..=4 {
        out.push(suite::star3d(r));
    }
    for r in 1..=4 {
        out.push(suite::box3d(r));
    }
    out
}

/// Compute the Fig. 9 rows for one precision.
#[must_use]
pub(crate) fn rows_for(precision: Precision) -> Vec<Fig9Row> {
    let device = device("v100");
    stencils()
        .iter()
        .filter_map(|def| {
            let result = tuned(def, &device, precision)?;
            Some(Fig9Row {
                stencil: def.name().to_string(),
                precision: precision.to_string(),
                best_bt: result.best.config.bt(),
                tuned_gflops: result.best.measured_gflops,
            })
        })
        .collect()
}

/// Compute the full Fig. 9 (float and double).
#[must_use]
pub(crate) fn rows() -> Vec<Fig9Row> {
    let mut out = rows_for(Precision::Single);
    out.extend(rows_for(Precision::Double));
    out
}

/// Render Fig. 9 as a table.
#[must_use]
pub fn render() -> String {
    let table_rows: Vec<Vec<String>> = rows()
        .into_iter()
        .map(|r| {
            vec![
                r.stencil,
                r.precision,
                r.best_bt.to_string(),
                gflops(r.tuned_gflops),
            ]
        })
        .collect();
    render_table(
        "Fig. 9: Star/box stencils of order 1-4 on Tesla V100 (best bT annotated)",
        &["Stencil", "Prec", "best bT", "Tuned GFLOP/s"],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_order_stencils_prefer_deep_temporal_blocking() {
        let rows = rows_for(Precision::Single);
        let find = |name: &str| rows.iter().find(|r| r.stencil == name).unwrap();
        // Fig. 9: best performance of first-order stencils comes from
        // high-degree temporal blocking (2D: 8–15, 3D: 3–5).
        assert!(find("star2d1r").best_bt >= 6);
        assert!(find("box2d1r").best_bt >= 4);
        assert!((2..=6).contains(&find("star3d1r").best_bt));
        // High-order 3D box stencils do not scale with temporal blocking.
        assert!(find("box3d4r").best_bt <= 2);
        // Performance decreases per cell as the order grows, but every
        // stencil still runs.
        assert_eq!(rows.len(), 16);
    }

    #[test]
    fn most_2d_stencils_use_bt_of_at_least_two() {
        let rows = rows_for(Precision::Single);
        let count_bt2 = rows
            .iter()
            .filter(|r| r.stencil.contains("2d") && r.best_bt >= 2)
            .count();
        assert!(
            count_bt2 >= 6,
            "only {count_bt2} 2D stencils picked bT >= 2"
        );
    }
}
