//! Fig. 8: performance scaling with the temporal blocking degree `bT` on
//! Tesla V100 (first-order star and box stencils, float).

use super::common::device;
use super::common::{measurement_for, prediction_for};
use crate::report::{gflops, render_table};
use an5d::{suite, BlockConfig, GpuDevice, Precision, StencilDef};
use serde::Serialize;

/// One point of a Fig. 8 series.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct Fig8Point {
    /// Temporal blocking degree.
    pub bt: usize,
    /// Simulated measured performance of the star stencil (GFLOP/s).
    pub star_tuned: Option<f64>,
    /// Model prediction for the star stencil (GFLOP/s).
    pub star_model: Option<f64>,
    /// Simulated measured performance of the box stencil (GFLOP/s).
    pub box_tuned: Option<f64>,
    /// Model prediction for the box stencil (GFLOP/s).
    pub box_model: Option<f64>,
}

fn config_for(def: &StencilDef, bt: usize) -> BlockConfig {
    let (bs, hsn): (&[usize], usize) = if def.ndim() == 2 {
        (&[256], 256)
    } else {
        (&[32, 32], 128)
    };
    BlockConfig::new(bt, bs, Some(hsn), Precision::Single).expect("bT and bS are non-zero")
}

fn series(
    star: &StencilDef,
    boxy: &StencilDef,
    max_bt: usize,
    device: &GpuDevice,
) -> Vec<Fig8Point> {
    (1..=max_bt)
        .map(|bt| {
            // Both are `None` where the plan does not build: the halo of a
            // deep `bT` leaves no compute region in the block.
            let eval = |def: &StencilDef| -> (Option<f64>, Option<f64>) {
                let config = config_for(def, bt);
                (
                    measurement_for(def, &config, device).map(|m| m.gflops),
                    prediction_for(def, &config, device).map(|p| p.gflops),
                )
            };
            let (star_tuned, star_model) = eval(star);
            let (box_tuned, box_model) = eval(boxy);
            Fig8Point {
                bt,
                star_tuned,
                star_model,
                box_tuned,
                box_model,
            }
        })
        .collect()
}

/// The 2D series of Fig. 8 (left plot): `bT ∈ [1, 16]`, rad = 1.
#[must_use]
pub(crate) fn rows_2d() -> Vec<Fig8Point> {
    series(&suite::star2d(1), &suite::box2d(1), 16, &device("v100"))
}

/// The 3D series of Fig. 8 (right plot): `bT ∈ [1, 8]`, rad = 1.
#[must_use]
pub(crate) fn rows_3d() -> Vec<Fig8Point> {
    series(&suite::star3d(1), &suite::box3d(1), 8, &device("v100"))
}

fn render_series(title: &str, points: &[Fig8Point]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let cell = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), gflops);
            vec![
                p.bt.to_string(),
                cell(p.star_tuned),
                cell(p.star_model),
                cell(p.box_tuned),
                cell(p.box_model),
            ]
        })
        .collect();
    render_table(
        title,
        &[
            "bT",
            "Star (Tuned)",
            "Star (Model)",
            "Box (Tuned)",
            "Box (Model)",
        ],
        &rows,
    )
}

/// Render both Fig. 8 plots.
#[must_use]
pub fn render() -> String {
    let mut out = String::new();
    out.push_str(&render_series(
        "Fig. 8 (left): scaling with bT, 2D stencils, rad = 1, float, V100 (GFLOP/s)",
        &rows_2d(),
    ));
    out.push('\n');
    out.push_str(&render_series(
        "Fig. 8 (right): scaling with bT, 3D stencils, rad = 1, float, V100 (GFLOP/s)",
        &rows_3d(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peak_bt(points: &[Fig8Point], pick: impl Fn(&Fig8Point) -> Option<f64>) -> usize {
        // NaN-safe: drop poisoned values before the total_cmp max (a bare
        // total_cmp would rank NaN above +inf and let it win silently).
        points
            .iter()
            .filter_map(|p| pick(p).filter(|v| !v.is_nan()).map(|v| (p.bt, v)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(bt, _)| bt)
            .unwrap_or(0)
    }

    #[test]
    fn two_dimensional_star_scales_to_high_bt() {
        let points = rows_2d();
        assert_eq!(points.len(), 16);
        // Section 7.3: 2D performance scales up to bT ≈ 10.
        let best = peak_bt(&points, |p| p.star_tuned);
        assert!(best >= 6, "2D star peaked at bT = {best}");
        // bT = 1 must be clearly slower than the peak.
        let first = points[0].star_tuned.unwrap();
        let peak = points[best - 1].star_tuned.unwrap();
        assert!(peak > 1.5 * first);
        // The model tracks the same trend and over-predicts.
        assert!(points[best - 1].star_model.unwrap() > peak);
    }

    #[test]
    fn three_dimensional_box_saturates_early() {
        let points = rows_3d();
        assert_eq!(points.len(), 8);
        let star_best = peak_bt(&points, |p| p.star_tuned);
        let box_best = peak_bt(&points, |p| p.box_tuned);
        // Section 7.3: 3D star scales to bT ≈ 5, 3D box only to bT ≈ 3.
        assert!(
            (2..=6).contains(&star_best),
            "3D star peaked at {star_best}"
        );
        assert!(box_best <= 4, "3D box peaked at {box_best}");
    }
}
