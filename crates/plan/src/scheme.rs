//! Framework schemes: the three strategy sets the paper compares
//! (Section 4.2, Table 1), and the stencil classes of Section 4.1.

use an5d_stencil::StencilDef;
use std::fmt;

/// Which of the stencil-class-specific optimisations of Section 4.1 applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum OptimizationClass {
    /// Star stencil: no diagonal accesses, so the upper/lower sub-planes are
    /// kept in registers and only the current sub-plane goes through shared
    /// memory.
    DiagonalAccessFree,
    /// Box (or other) stencil whose update is a plain weighted sum: the
    /// partial-summation trick evaluates one source sub-plane at a time, so
    /// a single shared-memory plane suffices.
    Associative,
    /// Anything else: all `1 + 2·rad` source sub-planes must be resident in
    /// shared memory simultaneously.
    General,
}

impl OptimizationClass {
    /// Number of sub-planes that must be resident in one shared-memory
    /// buffer at the same time, which is also the number of shared-memory
    /// stores per cell per time-step (Table 1: the `(1 + 2·rad)` factor
    /// applies only to the general class).
    #[must_use]
    pub fn resident_planes(self, radius: usize) -> usize {
        match self {
            OptimizationClass::DiagonalAccessFree | OptimizationClass::Associative => 1,
            OptimizationClass::General => 1 + 2 * radius,
        }
    }
}

impl fmt::Display for OptimizationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizationClass::DiagonalAccessFree => write!(f, "diagonal-access free"),
            OptimizationClass::Associative => write!(f, "associative"),
            OptimizationClass::General => write!(f, "general"),
        }
    }
}

/// One of the paper's three framework schemes; each answers the Table 1
/// questions (register strategy, shared-memory buffers, stencil class)
/// for itself. The constructors are the only way to name one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct FrameworkScheme(Scheme);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
enum Scheme {
    /// Fixed registers, two shared buffers, associative optimisation on.
    An5d,
    /// AN5D with the associative optimisation off.
    An5dNoAssociative,
    /// Shifting registers, one shared buffer per combined time-step.
    Stencilgen,
}

impl FrameworkScheme {
    /// The AN5D scheme: fixed registers, double-buffered shared memory,
    /// associative optimisation enabled.
    #[must_use]
    pub fn an5d() -> Self {
        Self(Scheme::An5d)
    }

    /// AN5D with the associative optimisation disabled (used by the `Sconf`
    /// configuration for 2D stencils to mirror STENCILGEN).
    #[must_use]
    pub fn an5d_no_associative() -> Self {
        Self(Scheme::An5dNoAssociative)
    }

    /// The STENCILGEN-style scheme of Table 1: shifting registers and one
    /// shared-memory buffer per combined time-step.
    #[must_use]
    pub fn stencilgen() -> Self {
        Self(Scheme::Stencilgen)
    }

    /// Human-readable name used in reports: "AN5D" for both AN5D variants,
    /// "STENCILGEN".
    #[must_use]
    pub fn name(self) -> &'static str {
        match self.0 {
            Scheme::An5d | Scheme::An5dNoAssociative => "AN5D",
            Scheme::Stencilgen => "STENCILGEN",
        }
    }

    /// The canonical machine id of this scheme — unlike
    /// [`FrameworkScheme::name`] this distinguishes every scheme, so it is
    /// safe to use as a persistence key and round-trips through
    /// [`FrameworkScheme::by_name`].
    #[must_use]
    pub fn canonical_name(self) -> &'static str {
        match self.0 {
            Scheme::An5d => "an5d",
            Scheme::An5dNoAssociative => "an5d_no_associative",
            Scheme::Stencilgen => "stencilgen",
        }
    }

    /// Resolve a canonical scheme id (as produced by
    /// [`FrameworkScheme::canonical_name`], and as accepted by the
    /// service API's `"scheme"` field) back to the scheme.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "an5d" => Some(Self::an5d()),
            "an5d_no_associative" => Some(Self::an5d_no_associative()),
            "stencilgen" => Some(Self::stencilgen()),
            _ => None,
        }
    }

    /// Classify a stencil the way this scheme's code generator does: the
    /// associative (partial-summation) optimisation is off only in
    /// [`FrameworkScheme::an5d_no_associative`].
    #[must_use]
    pub fn classify(self, def: &StencilDef) -> OptimizationClass {
        let associative = match self.0 {
            Scheme::An5d | Scheme::Stencilgen => true,
            Scheme::An5dNoAssociative => false,
        };
        if def.diagonal_access_free() {
            OptimizationClass::DiagonalAccessFree
        } else if associative && def.is_associative() {
            OptimizationClass::Associative
        } else {
            OptimizationClass::General
        }
    }

    /// Shared-memory buffers per thread block for `bt` combined time-steps
    /// (Section 4.2.2, Table 1): two for AN5D's double buffering, one per
    /// time-step for STENCILGEN.
    #[must_use]
    pub fn shared_buffers(self, bt: usize) -> usize {
        match self.0 {
            Scheme::An5d | Scheme::An5dNoAssociative => 2,
            Scheme::Stencilgen => bt,
        }
    }

    /// Whether values shift through the registers to make room for each
    /// new sub-plane (STENCILGEN) instead of staying in a fixed register
    /// per slot (AN5D; Section 4.2.1, Fig. 3 (b)).
    #[must_use]
    pub(crate) fn shifts_registers(self) -> bool {
        match self.0 {
            Scheme::An5d | Scheme::An5dNoAssociative => false,
            Scheme::Stencilgen => true,
        }
    }
}

impl fmt::Display for FrameworkScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (registers, shared_memory) = if self.shifts_registers() {
            ("shifting", "per-time-step")
        } else {
            ("fixed", "double-buffered")
        };
        write!(
            f,
            "{} ({registers} registers, {shared_memory} shared memory)",
            self.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockConfig, ResourceUsage};
    use an5d_grid::Precision;
    use an5d_stencil::suite;

    const ALL: [FrameworkScheme; 3] = [
        FrameworkScheme(Scheme::An5d),
        FrameworkScheme(Scheme::An5dNoAssociative),
        FrameworkScheme(Scheme::Stencilgen),
    ];

    #[test]
    fn register_stores_per_update_match_paper() {
        // Section 4.2.1: fixed allocation reduces stores from 1+2·rad to 1.
        let stores = |scheme: FrameworkScheme, radius| {
            let config = BlockConfig::new(4, &[256], None, Precision::Single).unwrap();
            let class = OptimizationClass::DiagonalAccessFree;
            ResourceUsage::compute(&config, radius, class, scheme).register_stores_per_update
        };
        assert_eq!(stores(FrameworkScheme::an5d(), 3), 1);
        assert_eq!(stores(FrameworkScheme::an5d_no_associative(), 3), 1);
        assert_eq!(stores(FrameworkScheme::stencilgen(), 3), 7);
        assert_eq!(stores(FrameworkScheme::stencilgen(), 1), 3);
    }

    #[test]
    fn shared_buffer_counts_match_table1() {
        assert_eq!(FrameworkScheme::an5d().shared_buffers(10), 2);
        assert_eq!(FrameworkScheme::an5d_no_associative().shared_buffers(10), 2);
        assert_eq!(FrameworkScheme::stencilgen().shared_buffers(10), 10);
        assert_eq!(FrameworkScheme::stencilgen().shared_buffers(4), 4);
    }

    #[test]
    fn classification_follows_stencil_properties() {
        let an5d = FrameworkScheme::an5d();
        let sconf = FrameworkScheme::an5d_no_associative();
        assert_eq!(
            an5d.classify(&suite::star2d(2)),
            OptimizationClass::DiagonalAccessFree
        );
        assert_eq!(
            an5d.classify(&suite::box2d(2)),
            OptimizationClass::Associative
        );
        assert_eq!(
            FrameworkScheme::stencilgen().classify(&suite::box2d(2)),
            OptimizationClass::Associative
        );
        assert_eq!(sconf.classify(&suite::box2d(2)), OptimizationClass::General);
        // gradient2d is star-shaped, so it is diagonal-access free even
        // though it is non-associative.
        for scheme in ALL {
            assert_eq!(
                scheme.classify(&suite::gradient2d()),
                OptimizationClass::DiagonalAccessFree
            );
        }
    }

    #[test]
    fn resident_planes_and_stores_match_table1() {
        assert_eq!(OptimizationClass::DiagonalAccessFree.resident_planes(3), 1);
        assert_eq!(OptimizationClass::Associative.resident_planes(3), 1);
        assert_eq!(OptimizationClass::General.resident_planes(3), 7);
        assert_eq!(OptimizationClass::General.resident_planes(2), 5);
    }

    #[test]
    fn framework_presets() {
        assert!(!FrameworkScheme::an5d().shifts_registers());
        assert!(!FrameworkScheme::an5d_no_associative().shifts_registers());
        assert!(FrameworkScheme::stencilgen().shifts_registers());
        assert_eq!(
            FrameworkScheme::an5d_no_associative().classify(&suite::j2d9pt_gol()),
            OptimizationClass::General
        );
        assert_eq!(
            FrameworkScheme::an5d().classify(&suite::j2d9pt_gol()),
            OptimizationClass::Associative
        );
    }

    #[test]
    fn canonical_names_round_trip_and_distinguish_the_an5d_variants() {
        for scheme in ALL {
            assert_eq!(
                FrameworkScheme::by_name(scheme.canonical_name()),
                Some(scheme)
            );
        }
        // The display name cannot tell the AN5D variants apart (both say
        // "AN5D"); the canonical id must.
        assert_eq!(
            FrameworkScheme::an5d().name(),
            FrameworkScheme::an5d_no_associative().name()
        );
        assert_ne!(
            FrameworkScheme::an5d().canonical_name(),
            FrameworkScheme::an5d_no_associative().canonical_name()
        );
        assert_eq!(FrameworkScheme::by_name("AN5D"), None);
        assert_eq!(FrameworkScheme::by_name("nope"), None);
    }

    #[test]
    fn display_strings() {
        assert_eq!(
            FrameworkScheme::an5d().to_string(),
            "AN5D (fixed registers, double-buffered shared memory)"
        );
        assert_eq!(
            FrameworkScheme::an5d_no_associative().to_string(),
            "AN5D (fixed registers, double-buffered shared memory)"
        );
        assert_eq!(
            FrameworkScheme::stencilgen().to_string(),
            "STENCILGEN (shifting registers, per-time-step shared memory)"
        );
        assert_eq!(OptimizationClass::General.to_string(), "general");
    }
}
