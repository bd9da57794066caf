//! Table 3: the benchmark suite and its FLOP/cell counts.

use crate::report::render_table;
use an5d::suite;
use serde::Serialize;

/// One row of Table 3.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Dimensionality.
    pub ndim: usize,
    /// Shape class.
    pub shape: String,
    /// Stencil radius.
    pub radius: usize,
    /// Whether the associative (partial summation) optimisation applies.
    pub associative: bool,
    /// FLOPs per cell update.
    pub flops_per_cell: usize,
}

/// Compute the Table 3 rows for all 21 benchmarks.
#[must_use]
pub(crate) fn rows() -> Vec<Table3Row> {
    suite::all_benchmarks()
        .into_iter()
        .map(|def| Table3Row {
            name: def.name().to_string(),
            ndim: def.ndim(),
            shape: def.shape_class().to_string(),
            radius: def.radius(),
            associative: def.is_associative(),
            flops_per_cell: def.flops_per_cell(),
        })
        .collect()
}

/// Render Table 3.
#[must_use]
pub fn render() -> String {
    let table_rows: Vec<Vec<String>> = rows()
        .into_iter()
        .map(|r| {
            vec![
                r.name,
                format!("{}D", r.ndim),
                r.shape,
                r.radius.to_string(),
                if r.associative { "yes" } else { "no" }.to_string(),
                r.flops_per_cell.to_string(),
            ]
        })
        .collect();
    render_table(
        "Table 3: Benchmarks",
        &["Stencil", "Dim", "Shape", "rad", "Associative", "FLOP/cell"],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_one_rows_with_expected_flop_counts() {
        let rows = rows();
        assert_eq!(rows.len(), 21);
        let find = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
        assert_eq!(find("star2d3r").flops_per_cell, 25);
        assert_eq!(find("box2d4r").flops_per_cell, 161);
        assert_eq!(find("j2d5pt").flops_per_cell, 10);
        assert_eq!(find("gradient2d").flops_per_cell, 19);
        assert_eq!(find("star3d4r").flops_per_cell, 49);
        assert_eq!(find("box3d4r").flops_per_cell, 1457);
        assert_eq!(find("j3d27pt").flops_per_cell, 54);
        assert!(!find("gradient2d").associative);
    }

    #[test]
    fn render_lists_every_benchmark() {
        let s = render();
        for def in suite::all_benchmarks() {
            assert!(s.contains(def.name()), "missing {}", def.name());
        }
    }
}
