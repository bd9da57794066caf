//! Validated stencil definitions.

use an5d_expr::{Expr, ExprFacts, FlopCount, OpMix, ShapeError, ShapeInfo, StencilShapeClass};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors produced when building a [`StencilDef`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StencilError {
    /// The update expression could not be classified (no cell access or
    /// mixed-rank accesses).
    Shape(ShapeError),
    /// The stencil has a radius of zero, i.e. it only reads the centre cell;
    /// blocking such a "stencil" is meaningless.
    ZeroRadius,
    /// The stencil dimensionality is unsupported (only 1D–3D are handled;
    /// N.5D blocking needs at least 2 dimensions).
    UnsupportedRank {
        /// Rank of the offending stencil.
        ndim: usize,
    },
}

impl fmt::Display for StencilError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StencilError::Shape(e) => write!(f, "invalid stencil expression: {e}"),
            StencilError::ZeroRadius => write!(f, "stencil radius is zero"),
            StencilError::UnsupportedRank { ndim } => {
                write!(
                    f,
                    "stencils of rank {ndim} are not supported (expected 2 or 3)"
                )
            }
        }
    }
}

impl Error for StencilError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StencilError::Shape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShapeError> for StencilError {
    fn from(e: ShapeError) -> Self {
        StencilError::Shape(e)
    }
}

/// A validated stencil: a named update expression plus derived metadata.
///
/// Everything is derived once, in [`StencilDef::new`], from one walk of
/// the expression ([`Expr::facts`]: offsets, FLOP tally, division flag and
/// linearity together); every accessor reads a field. A clone shares the
/// name, the expression's node vector (2,916 nodes for `box3d4r`) and the
/// shape summary (its tap list: 729 offsets) behind `Arc`s and copies only
/// a few integers and flags, which matters because the tuner builds a plan
/// — and so clones the definition — for each of hundreds of blocking
/// configurations.
#[derive(Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StencilDef {
    name: Arc<str>,
    expr: Expr,
    shape: Arc<ShapeInfo>,
    flops: FlopCount,
    op_mix: OpMix,
    associative: bool,
    division: bool,
}

impl StencilDef {
    /// Build a stencil definition from a name and an update expression.
    ///
    /// # Errors
    ///
    /// Returns a [`StencilError`] if the expression accesses no cell, mixes
    /// dimensionalities, has zero radius, or is not 2D/3D.
    pub fn new(name: impl Into<String>, expr: Expr) -> Result<Self, StencilError> {
        let ExprFacts {
            shape,
            flops,
            op_mix,
            associative,
            division,
        } = expr.facts();
        let shape = shape?;
        if shape.radius == 0 {
            return Err(StencilError::ZeroRadius);
        }
        if !(2..=3).contains(&shape.ndim) {
            return Err(StencilError::UnsupportedRank { ndim: shape.ndim });
        }
        Ok(Self {
            name: Arc::from(name.into()),
            expr,
            shape: Arc::new(shape),
            flops,
            op_mix,
            associative,
            division,
        })
    }

    /// Benchmark name, e.g. `"j2d5pt"` or `"star3d2r"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The update expression.
    #[must_use]
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Access-pattern summary (shape class, radius, offsets).
    #[must_use]
    pub fn shape(&self) -> &ShapeInfo {
        &self.shape
    }

    /// Number of spatial dimensions (2 or 3).
    #[must_use]
    pub fn ndim(&self) -> usize {
        self.shape.ndim
    }

    /// Stencil radius `rad`.
    #[must_use]
    pub fn radius(&self) -> usize {
        self.shape.radius
    }

    /// Shape class (star / box / other).
    #[must_use]
    pub fn shape_class(&self) -> StencilShapeClass {
        self.shape.class
    }

    /// `true` when no access has a diagonal component — AN5D then keeps the
    /// upper/lower sub-planes purely in registers.
    #[must_use]
    pub fn diagonal_access_free(&self) -> bool {
        self.shape.diagonal_access_free
    }

    /// `true` when the update is a plain weighted sum (the associative
    /// stencil optimisation applies).
    #[must_use]
    pub fn is_associative(&self) -> bool {
        self.associative
    }

    /// FLOPs per cell update (Table 3 convention).
    #[must_use]
    pub fn flops_per_cell(&self) -> usize {
        self.flops.total()
    }

    /// Raw FLOP breakdown.
    #[must_use]
    pub fn flop_count(&self) -> FlopCount {
        self.flops
    }

    /// Post-compilation instruction mix (for `effALU`).
    #[must_use]
    pub fn op_mix(&self) -> OpMix {
        self.op_mix
    }

    /// Does the update expression contain a division? (Relevant for the
    /// double-precision slow-down discussed in Section 7.1.) Not derivable
    /// from [`StencilDef::flop_count`], which counts a `1.0 / sqrt(..)` pair
    /// as no division.
    #[must_use]
    pub fn contains_division(&self) -> bool {
        self.division
    }
}

/// The derived `Debug` without the division flag, which the printed
/// `expr` already shows.
impl fmt::Debug for StencilDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StencilDef")
            .field("name", &self.name)
            .field("expr", &self.expr)
            .field("shape", &self.shape)
            .field("flops", &self.flops)
            .field("op_mix", &self.op_mix)
            .field("associative", &self.associative)
            .finish()
    }
}

impl fmt::Display for StencilDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}D {} stencil, rad={}, {} FLOP/cell)",
            self.name,
            self.ndim(),
            self.shape_class(),
            self.radius(),
            self.flops_per_cell()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn five_point() -> Expr {
        Expr::sum(vec![
            Expr::constant(5.1) * Expr::cell(&[-1, 0]),
            Expr::constant(12.1) * Expr::cell(&[0, -1]),
            Expr::constant(15.0) * Expr::cell(&[0, 0]),
            Expr::constant(12.2) * Expr::cell(&[0, 1]),
            Expr::constant(5.2) * Expr::cell(&[1, 0]),
        ]) / Expr::constant(118.0)
    }

    #[test]
    fn builds_valid_definition() {
        let def = StencilDef::new("j2d5pt", five_point()).unwrap();
        assert_eq!(def.name(), "j2d5pt");
        assert_eq!(def.ndim(), 2);
        assert_eq!(def.radius(), 1);
        assert_eq!(def.shape_class(), StencilShapeClass::Star);
        assert!(def.diagonal_access_free());
        assert!(def.is_associative());
        assert_eq!(def.flops_per_cell(), 10);
        assert!(def.contains_division());
    }

    #[test]
    fn rejects_zero_radius() {
        let e = Expr::constant(2.0) * Expr::cell(&[0, 0]);
        assert_eq!(
            StencilDef::new("identity", e).unwrap_err(),
            StencilError::ZeroRadius
        );
    }

    #[test]
    fn rejects_constant_expression() {
        assert!(matches!(
            StencilDef::new("nothing", Expr::constant(1.0)),
            Err(StencilError::Shape(_))
        ));
    }

    #[test]
    fn rejects_one_dimensional_stencil() {
        let e = Expr::cell(&[-1]) + Expr::cell(&[1]);
        assert!(matches!(
            StencilDef::new("oned", e),
            Err(StencilError::UnsupportedRank { ndim: 1 })
        ));
    }

    #[test]
    fn display_mentions_key_properties() {
        let def = StencilDef::new("j2d5pt", five_point()).unwrap();
        let s = def.to_string();
        assert!(s.contains("j2d5pt"));
        assert!(s.contains("2D"));
        assert!(s.contains("star"));
        assert!(s.contains("10 FLOP/cell"));
    }

    #[test]
    fn error_display_and_source() {
        let err = StencilDef::new("bad", Expr::constant(0.0)).unwrap_err();
        assert!(err.to_string().contains("invalid stencil expression"));
        assert!(std::error::Error::source(&err).is_some());
        assert!(std::error::Error::source(&StencilError::ZeroRadius).is_none());
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let def = StencilDef::new("j2d5pt", five_point()).unwrap();
        let copy = def.clone();
        assert_eq!(def, copy);
        // Shared, not copied: the name, the node vector and the tap list.
        assert!(std::ptr::eq(def.name(), copy.name()));
        assert!(def.expr().shares_nodes(copy.expr()));
        assert!(std::ptr::eq(def.shape(), copy.shape()));
    }

    #[test]
    fn division_flag_is_the_tree_walk() {
        for def in crate::suite::all_benchmarks() {
            assert_eq!(
                def.contains_division(),
                def.expr().contains_division(),
                "{}",
                def.name()
            );
        }
        // `1.0 / sqrt(..)` counts as no division in `FlopCount` (one rsqrt)
        // but is one in the tree: the flag cannot come from the count.
        let gradient = crate::suite::gradient2d();
        assert_eq!(gradient.flop_count().div, 0);
        assert!(gradient.contains_division());
    }

    #[test]
    fn debug_is_the_derived_layout_without_the_division_flag() {
        let def = StencilDef::new("j2d5pt", five_point()).unwrap();
        let debug = format!("{def:?}");
        assert!(debug.starts_with("StencilDef { name: \"j2d5pt\", expr: "));
        assert!(debug.ends_with(", associative: true }"));
        assert!(!debug.contains("division"));
    }
}
