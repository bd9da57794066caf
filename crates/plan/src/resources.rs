//! On-chip resource accounting: registers and shared memory (Table 1).

use crate::{BlockConfig, FrameworkScheme, OptimizationClass};
use an5d_grid::Precision;
use std::fmt;

/// A `-maxrregcount` register cap (Section 6.3 tunes over
/// {no limit, 32, 64, 96}).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum RegisterCap {
    /// Capped at the given number of registers per thread.
    Limit(usize),
    /// No compiler-imposed limit (the hardware maximum of 255 still applies).
    Unlimited,
}

impl RegisterCap {
    /// The caps explored by the paper's tuning methodology, in ascending
    /// order: 32, 64, 96 and unlimited.
    #[must_use]
    pub fn tuning_candidates() -> [RegisterCap; 4] {
        [
            RegisterCap::Limit(32),
            RegisterCap::Limit(64),
            RegisterCap::Limit(96),
            RegisterCap::Unlimited,
        ]
    }

    /// The effective per-thread register ceiling (255 when unlimited — the
    /// hardware maximum on Pascal/Volta).
    #[must_use]
    pub fn ceiling(self) -> usize {
        match self {
            RegisterCap::Limit(n) => n.min(255),
            RegisterCap::Unlimited => 255,
        }
    }
}

impl fmt::Display for RegisterCap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterCap::Limit(n) => write!(f, "{n}"),
            RegisterCap::Unlimited => write!(f, "-"),
        }
    }
}

/// Per-thread-block on-chip resource usage of a kernel plan.
///
/// `registers_per_thread` follows the empirical formulas of Section 6.3
/// (`bT·(2·rad+1) + bT + 20` registers for single precision,
/// `2·bT·(2·rad+1) + bT + 30` for double precision, for the fixed
/// allocation scheme); the shifting scheme adds a data-movement overhead.
/// Shared-memory figures follow Table 1 exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ResourceUsage {
    /// Registers per thread the compiler would allocate with no cap.
    pub registers_per_thread: usize,
    /// Minimum number of simultaneously-live registers; demands above the
    /// cap beyond this point spill to local memory.
    pub min_live_registers: usize,
    /// Number of shared-memory buffers (2 for AN5D, `bT` for STENCILGEN).
    pub shared_buffers: usize,
    /// Shared-memory footprint per thread block in 32-bit words
    /// (Table 1: `buffers × nthr × resident_planes × nword`).
    pub shared_words_per_block: usize,
    /// Shared-memory footprint per thread block in bytes.
    pub shared_bytes_per_block: usize,
    /// Shared-memory stores per cell per combined time-step (Table 1).
    pub shared_stores_per_cell: usize,
    /// Register-file stores per sub-plane update (1 for fixed allocation,
    /// `1 + 2·rad` for shifting).
    pub register_stores_per_update: usize,
}

impl ResourceUsage {
    /// Compute the resource usage of a configuration under a scheme for a
    /// stencil of the given radius/class.
    #[must_use]
    pub fn compute(
        config: &BlockConfig,
        radius: usize,
        class: OptimizationClass,
        scheme: FrameworkScheme,
    ) -> Self {
        let bt = config.bt();
        let precision = config.precision();
        let shifting = scheme.shifts_registers();
        let resident = class.resident_planes(radius);
        let buffers = scheme.shared_buffers(bt);
        let shared_words = buffers * config.nthr() * resident * precision.nword();

        Self {
            registers_per_thread: register_estimate(shifting, bt, radius, precision),
            min_live_registers: min_live_registers(shifting, bt, radius, precision),
            shared_buffers: buffers,
            shared_words_per_block: shared_words,
            shared_bytes_per_block: shared_words * 4,
            shared_stores_per_cell: resident,
            register_stores_per_update: if shifting { 1 + 2 * radius } else { 1 },
        }
    }

    /// Registers per thread actually allocated under a `-maxrregcount` cap.
    #[must_use]
    pub fn registers_with_cap(&self, cap: RegisterCap) -> usize {
        self.registers_per_thread.min(cap.ceiling())
    }

    /// Registers spilled to local memory per thread under a cap (0 when the
    /// cap still covers the minimum live set).
    #[must_use]
    pub fn spilled_registers(&self, cap: RegisterCap) -> usize {
        self.min_live_registers.saturating_sub(cap.ceiling())
    }

    /// `true` when the cap forces register spilling.
    #[must_use]
    pub fn spills_under(&self, cap: RegisterCap) -> bool {
        self.spilled_registers(cap) > 0
    }
}

/// Expected shared-memory *reads* per thread per cell update (Table 2,
/// "Read (Expected)"): the number of accessed neighbours minus the
/// `2·rad + 1` streaming-column cells that are resolved from registers.
#[must_use]
pub fn expected_shared_reads(def: &an5d_stencil::StencilDef) -> usize {
    let taps = def.shape().tap_count();
    taps.saturating_sub(2 * def.radius() + 1)
}

/// Practical shared-memory reads per thread per cell update (Table 2,
/// "Read (Practical)"): NVCC caches shared-memory values in registers so
/// box stencils end up with one read per non-register column,
/// `(2·rad + 1)^(N−1) − 1`; star stencils are unaffected.
#[must_use]
pub fn practical_shared_reads(def: &an5d_stencil::StencilDef) -> usize {
    use an5d_expr::StencilShapeClass;
    match def.shape_class() {
        StencilShapeClass::Star => expected_shared_reads(def),
        StencilShapeClass::Box | StencilShapeClass::Other => {
            (2 * def.radius() + 1).pow(def.ndim() as u32 - 1) - 1
        }
    }
}

/// Empirical register-allocation estimate (Section 6.3), extended with a
/// data-movement overhead term for the shifting scheme: shifting keeps both
/// the shifted-out and shifted-in copies of `2·rad` sub-plane values alive
/// across each update, which is what makes STENCILGEN's second-order
/// kernels spill at a cap of 32 (Fig. 7 discussion).
fn register_estimate(shifting: bool, bt: usize, radius: usize, precision: Precision) -> usize {
    let window = bt * (2 * radius + 1);
    let base = match precision {
        Precision::Single => window + bt + 20,
        Precision::Double => 2 * window + bt + 30,
    };
    let movement_overhead = match (shifting, precision) {
        (false, _) => 0,
        (true, Precision::Single) => 2 * radius + 2,
        (true, Precision::Double) => 4 * radius + 4,
    };
    base + movement_overhead
}

/// Minimum simultaneously-live registers: the sub-plane window itself plus a
/// handful of scratch registers; the shifting scheme additionally keeps the
/// in-flight shifted copies (`2·rad` per combined time-step) alive.
fn min_live_registers(shifting: bool, bt: usize, radius: usize, precision: Precision) -> usize {
    let window = bt * (2 * radius + 1);
    let shifting_extra = if shifting { 2 * radius * bt } else { 0 };
    let words = match precision {
        Precision::Single => window + shifting_extra,
        Precision::Double => 2 * (window + shifting_extra),
    };
    words + 4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(bt: usize, bs: &[usize], precision: Precision) -> BlockConfig {
        BlockConfig::new(bt, bs, None, precision).unwrap()
    }

    #[test]
    fn table1_shared_memory_footprint_star() {
        // Diagonal-access free, rad arbitrary:
        //   AN5D: 2 × nthr × nword      STENCILGEN: nthr × bT × nword
        let c = config(4, &[256], Precision::Single);
        let an5d = ResourceUsage::compute(
            &c,
            1,
            OptimizationClass::DiagonalAccessFree,
            FrameworkScheme::an5d(),
        );
        assert_eq!(an5d.shared_words_per_block, 2 * 256);
        assert_eq!(an5d.shared_bytes_per_block, 2 * 256 * 4);
        let sg = ResourceUsage::compute(
            &c,
            1,
            OptimizationClass::DiagonalAccessFree,
            FrameworkScheme::stencilgen(),
        );
        assert_eq!(sg.shared_words_per_block, 256 * 4);
    }

    #[test]
    fn table1_shared_memory_footprint_general() {
        // General stencil, radius 2: the (1 + 2·rad) factor applies.
        let c = config(3, &[128], Precision::Double);
        let an5d =
            ResourceUsage::compute(&c, 2, OptimizationClass::General, FrameworkScheme::an5d());
        assert_eq!(an5d.shared_words_per_block, 2 * 128 * 5 * 2);
        let sg = ResourceUsage::compute(
            &c,
            2,
            OptimizationClass::General,
            FrameworkScheme::stencilgen(),
        );
        assert_eq!(sg.shared_words_per_block, 128 * 3 * 5 * 2);
    }

    #[test]
    fn an5d_shared_memory_wins_for_high_bt() {
        // The key Table 1 claim: for bT > 2 AN5D uses less shared memory.
        for bt in 3..=10 {
            let c = config(bt, &[256], Precision::Single);
            let an5d = ResourceUsage::compute(
                &c,
                1,
                OptimizationClass::Associative,
                FrameworkScheme::an5d(),
            );
            let sg = ResourceUsage::compute(
                &c,
                1,
                OptimizationClass::Associative,
                FrameworkScheme::stencilgen(),
            );
            assert!(
                an5d.shared_words_per_block < sg.shared_words_per_block,
                "bT={bt}"
            );
        }
    }

    #[test]
    fn shared_stores_per_cell_match_table1() {
        let c = config(4, &[256], Precision::Single);
        for (class, expected) in [
            (OptimizationClass::DiagonalAccessFree, 1),
            (OptimizationClass::Associative, 1),
            (OptimizationClass::General, 5),
        ] {
            let usage = ResourceUsage::compute(&c, 2, class, FrameworkScheme::an5d());
            assert_eq!(usage.shared_stores_per_cell, expected);
        }
    }

    #[test]
    fn register_formula_matches_section_6_3() {
        // Single: bT·(2·rad+1) + bT + 20; double: 2·bT·(2·rad+1) + bT + 30.
        let single = ResourceUsage::compute(
            &config(4, &[256], Precision::Single),
            1,
            OptimizationClass::DiagonalAccessFree,
            FrameworkScheme::an5d(),
        );
        assert_eq!(single.registers_per_thread, 4 * 3 + 4 + 20);
        let double = ResourceUsage::compute(
            &config(4, &[256], Precision::Double),
            1,
            OptimizationClass::DiagonalAccessFree,
            FrameworkScheme::an5d(),
        );
        assert_eq!(double.registers_per_thread, 2 * 12 + 4 + 30);
    }

    #[test]
    fn shifting_uses_more_registers_than_fixed() {
        for radius in 1..=4 {
            for bt in 1..=8 {
                let c = config(bt, &[256], Precision::Single);
                let fixed = ResourceUsage::compute(
                    &c,
                    radius,
                    OptimizationClass::DiagonalAccessFree,
                    FrameworkScheme::an5d(),
                );
                let shifting = ResourceUsage::compute(
                    &c,
                    radius,
                    OptimizationClass::DiagonalAccessFree,
                    FrameworkScheme::stencilgen(),
                );
                assert!(shifting.registers_per_thread > fixed.registers_per_thread);
                assert_eq!(fixed.register_stores_per_update, 1);
                assert_eq!(shifting.register_stores_per_update, 1 + 2 * radius);
            }
        }
    }

    #[test]
    fn fig7_spill_behaviour_at_cap_32() {
        // With bT = 4 and a cap of 32: the fixed scheme does not spill even
        // for second-order stencils, the shifting scheme does (Fig. 7).
        let cap = RegisterCap::Limit(32);
        for radius in 1..=2usize {
            let c = config(4, &[256], Precision::Single);
            let fixed = ResourceUsage::compute(
                &c,
                radius,
                OptimizationClass::DiagonalAccessFree,
                FrameworkScheme::an5d(),
            );
            assert!(!fixed.spills_under(cap), "fixed spilled at rad={radius}");
            let shifting = ResourceUsage::compute(
                &c,
                radius,
                OptimizationClass::DiagonalAccessFree,
                FrameworkScheme::stencilgen(),
            );
            if radius == 1 {
                assert!(!shifting.spills_under(cap));
            } else {
                assert!(
                    shifting.spills_under(cap),
                    "shifting did not spill at rad=2"
                );
            }
        }
    }

    #[test]
    fn table2_shared_reads_per_thread() {
        use an5d_stencil::suite;
        // 2D star: 2·rad; 3D star: 4·rad (expected = practical).
        for r in 1..=4usize {
            assert_eq!(expected_shared_reads(&suite::star2d(r)), 2 * r);
            assert_eq!(practical_shared_reads(&suite::star2d(r)), 2 * r);
            assert_eq!(expected_shared_reads(&suite::star3d(r)), 4 * r);
            assert_eq!(practical_shared_reads(&suite::star3d(r)), 4 * r);
            // 2D box: expected (2r+1)² − (2r+1), practical (2r+1) − 1.
            assert_eq!(
                expected_shared_reads(&suite::box2d(r)),
                (2 * r + 1).pow(2) - (2 * r + 1)
            );
            assert_eq!(practical_shared_reads(&suite::box2d(r)), 2 * r);
            // 3D box: expected (2r+1)³ − (2r+1), practical (2r+1)² − 1.
            assert_eq!(
                expected_shared_reads(&suite::box3d(r)),
                (2 * r + 1).pow(3) - (2 * r + 1)
            );
            assert_eq!(
                practical_shared_reads(&suite::box3d(r)),
                (2 * r + 1).pow(2) - 1
            );
        }
    }

    #[test]
    fn register_cap_helpers() {
        assert_eq!(RegisterCap::Limit(64).ceiling(), 64);
        assert_eq!(RegisterCap::Unlimited.ceiling(), 255);
        assert_eq!(RegisterCap::Limit(400).ceiling(), 255);
        assert_eq!(RegisterCap::Limit(32).to_string(), "32");
        assert_eq!(RegisterCap::Unlimited.to_string(), "-");
        assert_eq!(RegisterCap::tuning_candidates().len(), 4);
        assert!(RegisterCap::Limit(32) < RegisterCap::Unlimited);
    }

    #[test]
    fn registers_with_cap_clamps() {
        let usage = ResourceUsage::compute(
            &config(10, &[256], Precision::Single),
            1,
            OptimizationClass::DiagonalAccessFree,
            FrameworkScheme::an5d(),
        );
        assert_eq!(usage.registers_per_thread, 10 * 3 + 10 + 20);
        assert_eq!(usage.registers_with_cap(RegisterCap::Limit(32)), 32);
        assert_eq!(
            usage.registers_with_cap(RegisterCap::Unlimited),
            usage.registers_per_thread
        );
        // bT = 10, rad = 1 → live window 30 + 4 > 32: a cap of 32 spills,
        // which is why Table 5's bT = 10 rows pick caps of 64/96.
        assert!(usage.spills_under(RegisterCap::Limit(32)));
        assert!(!usage.spills_under(RegisterCap::Limit(64)));
    }
}
