//! Table 1: shared-memory comparison between STENCILGEN and AN5D.

use crate::report::render_table;
use an5d::{BlockConfig, FrameworkScheme, OptimizationClass, Precision, ResourceUsage};
use serde::Serialize;

/// One row of Table 1: a stencil class with the shared-memory footprint and
/// store count of both frameworks, evaluated for a concrete configuration
/// so the numbers are directly comparable.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct Table1Row {
    /// Stencil class (diagonal-access free / associative / otherwise).
    pub class: String,
    /// STENCILGEN shared-memory words per block.
    pub stencilgen_words: usize,
    /// AN5D shared-memory words per block.
    pub an5d_words: usize,
    /// STENCILGEN shared-memory stores per cell.
    pub stencilgen_stores: usize,
    /// AN5D shared-memory stores per cell.
    pub an5d_stores: usize,
}

/// Reference configuration used to instantiate the symbolic Table 1
/// formulas: `nthr = 256`, `bT = 4`, `rad = 2`, single precision.
#[must_use]
pub(crate) fn reference_config() -> BlockConfig {
    BlockConfig::new(4, &[256], None, Precision::Single).expect("reference config is valid")
}

/// Compute the Table 1 rows.
#[must_use]
pub(crate) fn rows() -> Vec<Table1Row> {
    let config = reference_config();
    let radius = 2usize;
    let classes = [
        (
            "Diagonal-Access Free",
            OptimizationClass::DiagonalAccessFree,
        ),
        ("Associative Stencil", OptimizationClass::Associative),
        ("Otherwise", OptimizationClass::General),
    ];
    classes
        .into_iter()
        .map(|(label, class)| {
            let sg = ResourceUsage::compute(&config, radius, class, FrameworkScheme::stencilgen());
            let an5d = ResourceUsage::compute(&config, radius, class, FrameworkScheme::an5d());
            Table1Row {
                class: label.to_string(),
                stencilgen_words: sg.shared_words_per_block,
                an5d_words: an5d.shared_words_per_block,
                stencilgen_stores: sg.shared_stores_per_cell,
                an5d_stores: an5d.shared_stores_per_cell,
            }
        })
        .collect()
}

/// Render Table 1 (including the register-allocation and buffering rows).
#[must_use]
pub fn render() -> String {
    let config = reference_config();
    let mut out = String::new();
    out.push_str("Table 1: Comparison to STENCILGEN\n");
    out.push_str(&format!(
        "(instantiated for nthr = {}, bT = {}, rad = 2, nword = 1)\n\n",
        config.nthr(),
        config.bt()
    ));
    out.push_str("Register Allocation:      STENCILGEN = shifting, AN5D = fixed\n");
    out.push_str("Shared Memory Use:        STENCILGEN = for streaming, AN5D = for calculation\n");
    out.push_str(&format!(
        "Shared Memory Buffers:    STENCILGEN = bT = {}, AN5D = 2 (double buffering)\n\n",
        FrameworkScheme::stencilgen().shared_buffers(config.bt())
    ));
    let table_rows: Vec<Vec<String>> = rows()
        .into_iter()
        .map(|r| {
            vec![
                r.class,
                r.stencilgen_words.to_string(),
                r.an5d_words.to_string(),
                r.stencilgen_stores.to_string(),
                r.an5d_stores.to_string(),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Shared memory footprint per block (32-bit words) and stores per cell",
        &[
            "Stencil class",
            "STENCILGEN words",
            "AN5D words",
            "STENCILGEN stores/cell",
            "AN5D stores/cell",
        ],
        &table_rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_match_table1() {
        // nthr = 256, bT = 4, rad = 2, nword = 1.
        let rows = rows();
        assert_eq!(rows.len(), 3);
        // Diagonal-access free: SG = nthr·bT, AN5D = 2·nthr.
        assert_eq!(rows[0].stencilgen_words, 256 * 4);
        assert_eq!(rows[0].an5d_words, 2 * 256);
        // Associative: same formulas.
        assert_eq!(rows[1].stencilgen_words, 256 * 4);
        assert_eq!(rows[1].an5d_words, 2 * 256);
        // Otherwise: the (1 + 2·rad) factor applies to both.
        assert_eq!(rows[2].stencilgen_words, 256 * 4 * 5);
        assert_eq!(rows[2].an5d_words, 2 * 256 * 5);
        // Stores per cell.
        assert_eq!(rows[0].an5d_stores, 1);
        assert_eq!(rows[2].an5d_stores, 5);
        assert_eq!(rows[2].stencilgen_stores, 5);
    }

    #[test]
    fn render_contains_headline_rows() {
        let s = render();
        assert!(s.contains("Table 1"));
        assert!(s.contains("fixed"));
        assert!(s.contains("double buffering"));
        assert!(s.contains("Diagonal-Access Free"));
    }
}
