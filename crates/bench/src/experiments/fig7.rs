//! Fig. 7: register usage per thread, STENCILGEN vs AN5D (Sconf, float,
//! no register limit).

use crate::report::render_table;
use an5d::{
    suite, BlockConfig, FrameworkScheme, Precision, RegisterCap, ResourceUsage, StencilDef,
};
use serde::Serialize;

/// One bar pair of Fig. 7.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct Fig7Row {
    /// Benchmark name.
    pub stencil: String,
    /// STENCILGEN registers per thread (no limit).
    pub stencilgen_regs: usize,
    /// AN5D registers per thread (no limit, Sconf configuration).
    pub an5d_regs: usize,
    /// Does STENCILGEN spill when capped at 32 registers per thread?
    pub stencilgen_spills_at_32: bool,
    /// Does AN5D spill when capped at 32 registers per thread?
    pub an5d_spills_at_32: bool,
}

fn usage(def: &StencilDef, scheme: FrameworkScheme) -> ResourceUsage {
    let config = BlockConfig::sconf(def.ndim(), Precision::Single);
    ResourceUsage::compute(&config, def.radius(), scheme.classify(def), scheme)
}

/// Compute the Fig. 7 rows (the seven Fig. 6 stencils).
#[must_use]
pub(crate) fn rows() -> Vec<Fig7Row> {
    suite::figure6_benchmarks()
        .iter()
        .map(|def| {
            let an5d = usage(def, FrameworkScheme::an5d());
            let sg = usage(def, FrameworkScheme::stencilgen());
            Fig7Row {
                stencil: def.name().to_string(),
                stencilgen_regs: sg.registers_per_thread,
                an5d_regs: an5d.registers_per_thread,
                stencilgen_spills_at_32: sg.spills_under(RegisterCap::Limit(32)),
                an5d_spills_at_32: an5d.spills_under(RegisterCap::Limit(32)),
            }
        })
        .collect()
}

/// Render Fig. 7 as a table.
#[must_use]
pub fn render() -> String {
    let table_rows: Vec<Vec<String>> = rows()
        .into_iter()
        .map(|r| {
            vec![
                r.stencil,
                r.stencilgen_regs.to_string(),
                r.an5d_regs.to_string(),
                if r.stencilgen_spills_at_32 {
                    "yes"
                } else {
                    "no"
                }
                .to_string(),
                if r.an5d_spills_at_32 { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    render_table(
        "Fig. 7: Registers per thread with no register limitation (float, Sconf)",
        &[
            "Stencil",
            "STENCILGEN regs",
            "AN5D regs",
            "STENCILGEN spills @32",
            "AN5D spills @32",
        ],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an5d_uses_fewer_registers_and_never_spills_at_32() {
        let rows = rows();
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(
                r.an5d_regs < r.stencilgen_regs,
                "{}: AN5D {} vs STENCILGEN {}",
                r.stencil,
                r.an5d_regs,
                r.stencilgen_regs
            );
            assert!(!r.an5d_spills_at_32, "{} AN5D spilled", r.stencil);
            // Fig. 7 scale: its y-axis runs from ~25 to ~50 registers per
            // thread.
            assert!((25..=55).contains(&r.an5d_regs), "{}", r.stencil);
            assert!((20..=60).contains(&r.stencilgen_regs), "{}", r.stencil);
        }
        // The second-order stencils spill for STENCILGEN at a cap of 32.
        let second_order: Vec<&Fig7Row> = rows
            .iter()
            .filter(|r| r.stencil == "j2d9pt" || r.stencil == "star3d2r")
            .collect();
        assert_eq!(second_order.len(), 2);
        assert!(second_order.iter().all(|r| r.stencilgen_spills_at_32));
        // First-order stencils do not spill for either framework.
        let j2d5pt = rows.iter().find(|r| r.stencil == "j2d5pt").unwrap();
        assert!(!j2d5pt.stencilgen_spills_at_32);
    }

    #[test]
    fn render_contains_all_benchmarks() {
        let s = render();
        for name in [
            "j2d5pt",
            "j2d9pt",
            "j2d9pt-gol",
            "gradient2d",
            "star3d1r",
            "star3d2r",
            "j3d27pt",
        ] {
            assert!(s.contains(name));
        }
    }
}
