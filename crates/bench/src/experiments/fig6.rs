//! Fig. 6: framework performance comparison on V100 and P100.

use super::common::{devices, paper_problem, precisions, sconf_measurement, tuned};
use crate::report::{gflops, render_table};
use an5d::{
    hybrid_measurement, loop_tiling_measurement, predict, stencilgen_measurement, suite, GpuDevice,
    Precision,
};
use serde::Serialize;

/// One bar group of Fig. 6: a stencil on one device at one precision, with
/// the throughput of every framework (GFLOP/s; `None` when the framework
/// cannot run the benchmark).
#[derive(Debug, Clone, Serialize)]
pub(crate) struct Fig6Row {
    /// Benchmark name.
    pub stencil: String,
    /// Device short name.
    pub device: String,
    /// Precision label.
    pub precision: String,
    /// PPCG default loop tiling.
    pub loop_tiling: Option<f64>,
    /// Hybrid hexagonal/wavefront tiling.
    pub hybrid_tiling: Option<f64>,
    /// STENCILGEN at its published configuration.
    pub stencilgen: Option<f64>,
    /// AN5D at STENCILGEN's configuration (`Sconf`).
    pub an5d_sconf: Option<f64>,
    /// AN5D with model-guided tuning (`Tuned`).
    pub an5d_tuned: Option<f64>,
    /// Section 5 model prediction for the tuned configuration.
    pub model: Option<f64>,
}

/// Compute one row of Fig. 6.
#[must_use]
pub(crate) fn row(stencil: &str, device: &GpuDevice, precision: Precision) -> Option<Fig6Row> {
    let def = suite::by_name(stencil)?;
    let problem = paper_problem(&def);

    let loop_tiling = loop_tiling_measurement(&problem, device, precision)
        .ok()
        .map(|r| r.gflops);
    let hybrid = hybrid_measurement(&problem, device, precision)
        .ok()
        .map(|r| r.gflops);
    let stencilgen = stencilgen_measurement(&problem, device, precision)
        .ok()
        .map(|r| r.gflops);
    let sconf = sconf_measurement(&def, &problem, device, precision).map(|m| m.gflops);
    let tuned_result = tuned(&def, device, precision);
    let an5d_tuned = tuned_result.as_ref().map(|t| t.best.measured_gflops);
    let model = tuned_result.as_ref().and_then(|t| {
        let plan = super::common::an5d_plan(&def, &problem, &t.best.config)?;
        Some(predict(&plan, &problem, device).gflops)
    });

    Some(Fig6Row {
        stencil: stencil.to_string(),
        device: device.short_name().to_string(),
        precision: precision.to_string(),
        loop_tiling,
        hybrid_tiling: hybrid,
        stencilgen,
        an5d_sconf: sconf,
        an5d_tuned,
        model,
    })
}

/// Compute every bar group of Fig. 6 (7 stencils × 2 devices × 2
/// precisions).
#[must_use]
pub(crate) fn rows() -> Vec<Fig6Row> {
    let stencils = suite::figure6_benchmarks();
    let mut out = Vec::new();
    for device in devices() {
        for precision in precisions() {
            for def in &stencils {
                if let Some(r) = row(def.name(), &device, precision) {
                    out.push(r);
                }
            }
        }
    }
    out
}

fn cell(value: Option<f64>) -> String {
    value.map_or_else(|| "n/a".to_string(), gflops)
}

/// Render Fig. 6 as a table (GFLOP/s per framework).
#[must_use]
pub fn render() -> String {
    let table_rows: Vec<Vec<String>> = rows()
        .into_iter()
        .map(|r| {
            vec![
                r.device.clone(),
                r.precision.clone(),
                r.stencil.clone(),
                cell(r.loop_tiling),
                cell(r.hybrid_tiling),
                cell(r.stencilgen),
                cell(r.an5d_sconf),
                cell(r.an5d_tuned),
                cell(r.model),
            ]
        })
        .collect();
    render_table(
        "Fig. 6: Performance comparison (GFLOP/s)",
        &[
            "GPU",
            "Prec",
            "Stencil",
            "Loop Tiling",
            "Hybrid Tiling",
            "STENCILGEN",
            "AN5D (Sconf)",
            "AN5D (Tuned)",
            "AN5D (Model)",
        ],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an5d_tuned_wins_on_v100_for_j2d5pt_float() {
        // The headline Fig. 6 claim: on V100, AN5D (Sconf or Tuned) is the
        // fastest framework for every benchmark; loop tiling is last.
        let device = GpuDevice::tesla_v100();
        let r = row("j2d5pt", &device, Precision::Single).unwrap();
        let tuned = r.an5d_tuned.unwrap();
        let sconf = r.an5d_sconf.unwrap();
        let best_an5d = tuned.max(sconf);
        assert!(best_an5d >= r.stencilgen.unwrap());
        assert!(best_an5d >= r.hybrid_tiling.unwrap());
        assert!(r.loop_tiling.unwrap() < r.hybrid_tiling.unwrap());
        // The model over-predicts the tuned measurement (Section 7.2).
        assert!(r.model.unwrap() > tuned);
    }

    #[test]
    fn hybrid_is_weak_for_3d_stencils() {
        let device = GpuDevice::tesla_v100();
        let r = row("star3d1r", &device, Precision::Single).unwrap();
        let best_n5d = r.an5d_tuned.unwrap().max(r.an5d_sconf.unwrap());
        assert!(
            r.hybrid_tiling.unwrap() < best_n5d,
            "hybrid {} vs AN5D {}",
            r.hybrid_tiling.unwrap(),
            best_n5d
        );
    }
}
