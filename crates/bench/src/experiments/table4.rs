//! Table 4: GPU specifications used by the evaluation.

use super::common::devices;
use crate::report::render_table;
use an5d::Precision;
use serde::Serialize;

/// One row of Table 4.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct Table4Row {
    /// Device name.
    pub gpu: String,
    /// Peak compute (GFLOP/s), float | double.
    pub performance: (f64, f64),
    /// Peak external-memory bandwidth (GB/s).
    pub peak_mem_bw: f64,
    /// Measured external-memory bandwidth (GB/s), float | double.
    pub measured_mem_bw: (f64, f64),
    /// Measured shared-memory bandwidth (GB/s), float | double.
    pub measured_shared_bw: (f64, f64),
    /// SM count.
    pub sm_count: usize,
}

/// Compute the Table 4 rows.
#[must_use]
pub(crate) fn rows() -> Vec<Table4Row> {
    devices()
        .into_iter()
        .map(|d| Table4Row {
            gpu: d.name.clone(),
            performance: (
                d.peak_gflops(Precision::Single),
                d.peak_gflops(Precision::Double),
            ),
            peak_mem_bw: d.peak_mem_bw,
            measured_mem_bw: (
                d.measured_mem_bw(Precision::Single),
                d.measured_mem_bw(Precision::Double),
            ),
            measured_shared_bw: (
                d.measured_shared_bw(Precision::Single),
                d.measured_shared_bw(Precision::Double),
            ),
            sm_count: d.sm_count,
        })
        .collect()
}

/// Render Table 4.
#[must_use]
pub fn render() -> String {
    let table_rows: Vec<Vec<String>> = rows()
        .into_iter()
        .map(|r| {
            vec![
                r.gpu,
                format!("{:.0} | {:.0}", r.performance.0, r.performance.1),
                format!("{:.0}", r.peak_mem_bw),
                format!("{:.0} | {:.0}", r.measured_mem_bw.0, r.measured_mem_bw.1),
                format!(
                    "{:.0} | {:.0}",
                    r.measured_shared_bw.0, r.measured_shared_bw.1
                ),
                r.sm_count.to_string(),
            ]
        })
        .collect();
    render_table(
        "Table 4: GPU specifications (float | double)",
        &[
            "GPU",
            "Performance (GFLOP/s)",
            "Peak mem BW (GB/s)",
            "Measured mem BW (GB/s)",
            "Measured shared BW (GB/s)",
            "SMs",
        ],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_table4() {
        let rows = rows();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].gpu.contains("V100"));
        assert_eq!(rows[0].performance, (15_700.0, 7_850.0));
        assert_eq!(rows[0].sm_count, 80);
        assert!(rows[1].gpu.contains("P100"));
        assert_eq!(rows[1].measured_mem_bw, (535.0, 540.0));
        assert_eq!(rows[1].measured_shared_bw, (9_700.0, 10_150.0));
    }

    #[test]
    fn render_contains_both_devices() {
        let s = render();
        assert!(s.contains("Tesla V100"));
        assert!(s.contains("Tesla P100"));
    }
}
