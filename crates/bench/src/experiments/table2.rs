//! Table 2: shared-memory accesses per thread.

use crate::report::render_table;
use an5d::{expected_shared_reads, practical_shared_reads, suite, StencilDef};
use serde::Serialize;

/// One row of Table 2.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct Table2Row {
    /// Dimensionality and shape, e.g. `"2D star"`.
    pub shape: String,
    /// Stencil radius.
    pub radius: usize,
    /// Expected shared-memory reads per thread.
    pub read_expected: usize,
    /// Practical reads after NVCC's register caching of shared values.
    pub read_practical: usize,
    /// Shared-memory writes per thread (always 1).
    pub write: usize,
}

fn row(label: &str, def: &StencilDef) -> Table2Row {
    Table2Row {
        shape: label.to_string(),
        radius: def.radius(),
        read_expected: expected_shared_reads(def),
        read_practical: practical_shared_reads(def),
        write: 1,
    }
}

/// Compute the Table 2 rows for radii 1–4 of every shape class.
#[must_use]
pub(crate) fn rows() -> Vec<Table2Row> {
    let mut out = Vec::new();
    for rad in 1..=4 {
        out.push(row("2D star", &suite::star2d(rad)));
    }
    for rad in 1..=4 {
        out.push(row("2D box", &suite::box2d(rad)));
    }
    for rad in 1..=4 {
        out.push(row("3D star", &suite::star3d(rad)));
    }
    for rad in 1..=4 {
        out.push(row("3D box", &suite::box3d(rad)));
    }
    out
}

/// Render Table 2.
#[must_use]
pub fn render() -> String {
    let table_rows: Vec<Vec<String>> = rows()
        .into_iter()
        .map(|r| {
            vec![
                r.shape,
                r.radius.to_string(),
                r.read_expected.to_string(),
                r.read_practical.to_string(),
                r.write.to_string(),
            ]
        })
        .collect();
    render_table(
        "Table 2: Shared memory accesses per thread",
        &[
            "Shape",
            "rad",
            "Read (expected)",
            "Read (practical)",
            "Write",
        ],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_the_paper_formulas() {
        let rows = rows();
        assert_eq!(rows.len(), 16);
        // 2D star, rad = 3: 2·rad = 6 for both columns.
        let r = rows
            .iter()
            .find(|r| r.shape == "2D star" && r.radius == 3)
            .unwrap();
        assert_eq!((r.read_expected, r.read_practical), (6, 6));
        // 3D box, rad = 2: expected (2r+1)³ − (2r+1) = 120, practical (2r+1)² − 1 = 24.
        let r = rows
            .iter()
            .find(|r| r.shape == "3D box" && r.radius == 2)
            .unwrap();
        assert_eq!((r.read_expected, r.read_practical), (120, 24));
        assert!(rows.iter().all(|r| r.write == 1));
    }

    #[test]
    fn render_mentions_both_read_columns() {
        let s = render();
        assert!(s.contains("Read (expected)"));
        assert!(s.contains("Read (practical)"));
        assert!(s.contains("3D box"));
    }
}
