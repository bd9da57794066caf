//! What stencil pattern detection (Section 4.3.3 restrictions) returns.

use an5d_stencil::StencilDef;
use std::fmt;

/// A loop extent: either a compile-time constant or a runtime symbol
/// (the paper keeps `I_Si` and `I_T` as run-time parameters).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) enum ExtentExpr {
    /// Compile-time constant extent.
    Const(i64),
    /// Symbolic (run-time) extent, e.g. `I_S1`.
    Symbol(String),
}

impl fmt::Display for ExtentExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtentExpr::Const(v) => write!(f, "{v}"),
            ExtentExpr::Symbol(s) => write!(f, "{s}"),
        }
    }
}

/// The result of stencil detection: the extracted [`StencilDef`] plus the
/// surface-level information needed to generate host code that mirrors the
/// original program.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedStencil {
    /// The extracted, validated stencil definition.
    pub def: StencilDef,
    /// Name of the double-buffered array (e.g. `A`).
    pub array_name: String,
    /// Name of the time-loop variable (e.g. `t`).
    pub time_var: String,
    /// Names of the spatial loop variables, outermost (streaming) first.
    pub space_vars: Vec<String>,
    /// Extent of the time loop (`I_T`).
    pub(crate) time_extent: ExtentExpr,
    /// Extents of the spatial loops, outermost (streaming) first.
    pub(crate) space_extents: Vec<ExtentExpr>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_stencil;
    use an5d_expr::StencilShapeClass;

    const J2D5PT: &str = r"
        for (t = 0; t < I_T; t++)
          for (i = 1; i <= I_S2; i++)
            for (j = 1; j <= I_S1; j++)
              A[(t+1)%2][i][j] = (5.1f * A[t%2][i-1][j] + 12.1f * A[t%2][i][j-1]
                + 15.0f * A[t%2][i][j] + 12.2f * A[t%2][i][j+1]
                + 5.2f * A[t%2][i+1][j]) / 118;
    ";

    #[test]
    fn detects_fig4_j2d5pt() {
        let d = parse_stencil(J2D5PT, "j2d5pt").unwrap();
        assert_eq!(d.def.name(), "j2d5pt");
        assert_eq!(d.def.ndim(), 2);
        assert_eq!(d.def.radius(), 1);
        assert_eq!(d.def.shape_class(), StencilShapeClass::Star);
        assert_eq!(d.def.flops_per_cell(), 10);
        assert!(d.def.is_associative());
        assert_eq!(d.array_name, "A");
        assert_eq!(d.time_var, "t");
        assert_eq!(d.space_vars, vec!["i", "j"]);
        assert_eq!(d.time_extent, ExtentExpr::Symbol("I_T".into()));
        assert_eq!(
            d.space_extents,
            vec![
                ExtentExpr::Symbol("I_S2".into()),
                ExtentExpr::Symbol("I_S1".into())
            ]
        );
    }

    #[test]
    fn detects_three_dimensional_box() {
        let source = r"
            for (t = 0; t < 100; t++)
              for (i = 1; i <= 510; i++)
                for (j = 1; j <= 510; j++)
                  for (k = 1; k <= 510; k++)
                    A[(t+1)%2][i][j][k] = 0.1f * A[t%2][i-1][j-1][k-1] + 0.2f * A[t%2][i][j][k]
                      + 0.3f * A[t%2][i+1][j+1][k+1];
        ";
        let d = parse_stencil(source, "sparse3d").unwrap();
        assert_eq!(d.def.ndim(), 3);
        assert_eq!(d.def.radius(), 1);
        assert_eq!(d.def.shape_class(), StencilShapeClass::Other);
        assert_eq!(d.space_vars, vec!["i", "j", "k"]);
        assert_eq!(d.time_extent, ExtentExpr::Const(100));
    }

    #[test]
    fn detects_nonlinear_gradient_style_update() {
        let source = r"
            for (t = 0; t < I_T; t++)
              for (i = 1; i <= N; i++)
                for (j = 1; j <= N; j++)
                  A[(t+1)%2][i][j] = 0.5f * A[t%2][i][j]
                    + 1.0f / sqrtf(1.0f + (A[t%2][i][j] - A[t%2][i+1][j]) * (A[t%2][i][j] - A[t%2][i+1][j]));
        ";
        let d = parse_stencil(source, "mini-gradient").unwrap();
        assert!(!d.def.is_associative());
        assert!(d.def.expr().contains_sqrt());
    }

    #[test]
    fn rejects_wrong_store_buffer() {
        let source = r"
            for (t = 0; t < I_T; t++)
              for (i = 1; i <= N; i++)
                for (j = 1; j <= N; j++)
                  A[t%2][i][j] = A[t%2][i][j-1];
        ";
        let err = parse_stencil(source, "x").unwrap_err();
        assert!(err.to_string().contains("(t + 1) % 2"));
    }

    #[test]
    fn rejects_reads_from_wrong_buffer() {
        let source = r"
            for (t = 0; t < I_T; t++)
              for (i = 1; i <= N; i++)
                for (j = 1; j <= N; j++)
                  A[(t+1)%2][i][j] = A[(t+1)%2][i][j-1];
        ";
        let err = parse_stencil(source, "x").unwrap_err();
        assert!(err.to_string().contains("t % 2 buffer"));
    }

    #[test]
    fn rejects_second_array() {
        let source = r"
            for (t = 0; t < I_T; t++)
              for (i = 1; i <= N; i++)
                for (j = 1; j <= N; j++)
                  A[(t+1)%2][i][j] = B[t%2][i][j-1];
        ";
        let err = parse_stencil(source, "x").unwrap_err();
        assert!(err.to_string().contains("array 'B'"));
    }

    #[test]
    fn rejects_non_static_offsets() {
        let source = r"
            for (t = 0; t < I_T; t++)
              for (i = 1; i <= N; i++)
                for (j = 1; j <= N; j++)
                  A[(t+1)%2][i][j] = A[t%2][i][i];
        ";
        let err = parse_stencil(source, "x").unwrap_err();
        assert!(err.to_string().contains("plus or minus a constant"));
    }

    #[test]
    fn rejects_symbolic_coefficients() {
        let source = r"
            for (t = 0; t < I_T; t++)
              for (i = 1; i <= N; i++)
                for (j = 1; j <= N; j++)
                  A[(t+1)%2][i][j] = c0 * A[t%2][i][j];
        ";
        let err = parse_stencil(source, "x").unwrap_err();
        assert!(err.to_string().contains("symbolic coefficient"));
    }

    #[test]
    fn rejects_wrong_loop_count() {
        let source = r"
            for (t = 0; t < I_T; t++)
              for (j = 1; j <= N; j++)
                A[(t+1)%2][j] = A[t%2][j-1];
        ";
        let err = parse_stencil(source, "x").unwrap_err();
        assert!(err.to_string().contains("spatial loops"));
    }

    #[test]
    fn rejects_strided_loops() {
        let source = r"
            for (t = 0; t < I_T; t++)
              for (i = 1; i <= N; i += 2)
                for (j = 1; j <= N; j++)
                  A[(t+1)%2][i][j] = A[t%2][i][j-1];
        ";
        let err = parse_stencil(source, "x").unwrap_err();
        assert!(err.to_string().contains("advance by 1"));
    }

    #[test]
    fn extent_display() {
        assert_eq!(ExtentExpr::Const(128).to_string(), "128");
        assert_eq!(ExtentExpr::Symbol("I_T".into()).to_string(), "I_T");
    }
}
