//! Table 5: tuned AN5D configuration and performance for every benchmark.

use super::common::{devices, paper_problem, precisions, tuned};
use crate::report::{gflops, render_table};
use an5d::{predict, suite, GpuDevice, Precision};
use serde::Serialize;

/// One (stencil, device, precision) entry of Table 5.
#[derive(Debug, Clone, Serialize)]
pub struct Table5Row {
    /// Benchmark name.
    pub pattern: String,
    /// Device short name ("V100" / "P100").
    pub device: String,
    /// Precision ("float" / "double").
    pub precision: String,
    /// Tuned temporal blocking degree `bT`.
    pub bt: usize,
    /// Tuned spatial block label (`bS`).
    pub bs: String,
    /// Tuned streaming-division length `hS_N`.
    pub hsn: String,
    /// Optimal register cap ("-" means unlimited).
    pub regs: String,
    /// Simulated measured performance (GFLOP/s).
    pub tuned_gflops: f64,
    /// Section 5 model prediction for the same configuration (GFLOP/s).
    pub model_gflops: f64,
}

impl Table5Row {
    /// Model accuracy (Tuned / Model), the Section 7.2 metric.
    #[must_use]
    pub fn model_accuracy(&self) -> f64 {
        if self.model_gflops <= 0.0 {
            return 0.0;
        }
        self.tuned_gflops / self.model_gflops
    }
}

/// Compute Table 5 for one device/precision pair.
#[must_use]
pub(crate) fn rows_for(device: &GpuDevice, precision: Precision) -> Vec<Table5Row> {
    suite::all_benchmarks()
        .iter()
        .filter_map(|def| {
            let result = tuned(def, device, precision)?;
            let best = &result.best;
            let problem = paper_problem(def);
            let plan = super::common::an5d_plan(def, &problem, &best.config)?;
            let model = predict(&plan, &problem, device);
            Some(Table5Row {
                pattern: def.name().to_string(),
                device: device.short_name().to_string(),
                precision: precision.to_string(),
                bt: best.config.bt(),
                bs: best.config.bs_label(),
                hsn: best
                    .config
                    .hsn()
                    .map_or_else(|| "-".to_string(), |h| h.to_string()),
                regs: best.register_cap.to_string(),
                tuned_gflops: best.measured_gflops,
                model_gflops: model.gflops,
            })
        })
        .collect()
}

/// Compute the full Table 5 (both devices, both precisions).
#[must_use]
pub fn rows() -> Vec<Table5Row> {
    let mut out = Vec::new();
    for device in devices() {
        for precision in precisions() {
            out.extend(rows_for(&device, precision));
        }
    }
    out
}

/// Render Table 5.
#[must_use]
pub fn render() -> String {
    let rows = rows();
    let mut out = String::new();
    let accuracy: Vec<f64> = rows.iter().map(Table5Row::model_accuracy).collect();
    let mean_accuracy = accuracy.iter().sum::<f64>() / accuracy.len().max(1) as f64;
    let table_rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|r| {
            vec![
                r.pattern.clone(),
                r.device.clone(),
                r.precision.clone(),
                r.bt.to_string(),
                r.bs.clone(),
                r.hsn.clone(),
                r.regs.clone(),
                gflops(r.tuned_gflops),
                gflops(r.model_gflops),
                format!("{:.0}%", r.model_accuracy() * 100.0),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Table 5: AN5D configuration and performance (Tuned & Model in GFLOP/s)",
        &[
            "Pattern", "GPU", "Prec", "bT", "bS", "hSN", "Regs", "Tuned", "Model", "Accuracy",
        ],
        &table_rows,
    ));
    out.push_str(&format!(
        "\nMean model accuracy across all entries: {:.0}% (paper: 49% on P100, 67% on V100)\n",
        mean_accuracy * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d::GpuDevice;

    #[test]
    fn first_order_2d_star_tunes_to_high_bt_on_v100() {
        let device = GpuDevice::tesla_v100();
        let rows = rows_for(&device, Precision::Single);
        let star = rows.iter().find(|r| r.pattern == "star2d1r").unwrap();
        // Table 5 reports bT = 10 for star2d1r (float, V100); the key shape
        // property is a clearly high degree of temporal blocking.
        assert!(star.bt >= 6, "tuned bT = {}", star.bt);
        assert!(star.tuned_gflops > 2_000.0);
        assert!(star.model_accuracy() < 1.0);

        // High-order 3D box stencils do not benefit from temporal blocking.
        let box4 = rows.iter().find(|r| r.pattern == "box3d4r").unwrap();
        assert!(box4.bt <= 2, "box3d4r bT = {}", box4.bt);
    }
}
