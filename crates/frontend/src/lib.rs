//! C-subset front-end and stencil pattern detection for AN5D.
//!
//! The original AN5D is implemented as a dedicated backend inside the
//! polyhedral compiler PPCG: PPCG normalises the input C code and AN5D then
//! detects the stencil pattern under the restrictions listed in
//! Section 4.3.3 of the paper. Reimplementing all of PPCG is out of scope
//! (see `DESIGN.md`); this crate implements the part AN5D actually relies
//! on — accepting Fig. 4-style C code and extracting the stencil pattern —
//! with the same input restrictions:
//!
//! * a perfect loop nest whose outermost loop is the time loop and whose
//!   next loop is the streaming dimension;
//! * a single assignment statement with a single store;
//! * double-buffered array accesses via `t % 2` / `(t + 1) % 2`;
//! * statically known neighbour offsets.
//!
//! # One pass
//!
//! [`parse_stencil`] reads the source once. A lexer over its bytes hands
//! out `Copy` tokens — identifiers borrow from the source, a position is a
//! byte offset that becomes `(line, column)` only when an error is built —
//! and is pulled by a recursive-descent parser one token of look-ahead at
//! a time. The loop headers come first, so at the assignment the parser
//! knows the time variable, the space variables and the array: the update
//! expression is checked and pushed, one node at a time in post order,
//! into the one vector an `an5d_expr::Expr` keeps (an `ExprBuilder`), and
//! subscripts and loop bounds are never built at all, only folded into
//! the few forms the pattern gives a meaning (`var`, `var ± k`, `k + var`,
//! `(…) % 2`, an integer, a symbol). There is no token vector and no C
//! syntax tree. An integer literal is accumulated as its digits are
//! scanned; only a float goes through `str::parse`. An error is boxed and
//! built off the path taken, so a production returns only its value.
//!
//! **Which error.** The parser stops at the first fault it meets reading
//! left to right, whatever its kind: a loop's step, bound and variable are
//! judged when its header closes, the number of loops where the nest ends,
//! the store at the `=`, each read and call where it stands in the update,
//! and what only the whole expression shows (no cell access, zero radius)
//! after the last token. An input with one fault is answered exactly as
//! the two-pass frontend this replaced answered it
//! (`tests/errors_golden.txt`); that one reported any lexical error before
//! any syntax error before any pattern error, wherever they stood, so an
//! input with several faults may now be answered with a different one of
//! them.
//!
//! **Two limits.** Parentheses, unary minuses, call arguments and
//! subscripts may nest 64 levels deep, and the update expression may have
//! 16,384 nodes (constants, reads and operations — a radius-7 3D box has
//! 13,499); past either, the answer is
//! [`FrontendError::UnsupportedStencil`]. The parser recurses once per
//! nesting level, so the first limit is what keeps a hostile source from
//! overflowing the 2 MiB stack of a service worker; no later stage
//! recurses over the expression, so the second bounds the work one source
//! can ask for, not a depth (the workspace's
//! `tests/frontend_properties.rs` runs an input at each limit, and a
//! radius-7 3D box, through the whole pipeline on such a stack).
//!
//! # Example
//!
//! ```
//! use an5d_frontend::parse_stencil;
//!
//! let source = r#"
//! for (t = 0; t < I_T; t++)
//!   for (i = 1; i <= I_S2; i++)
//!     for (j = 1; j <= I_S1; j++)
//!       A[(t+1)%2][i][j] = (5.1f * A[t%2][i-1][j] + 12.1f * A[t%2][i][j-1]
//!         + 15.0f * A[t%2][i][j] + 12.2f * A[t%2][i][j+1]
//!         + 5.2f * A[t%2][i+1][j]) / 118;
//! "#;
//! let detected = parse_stencil(source, "j2d5pt").unwrap();
//! assert_eq!(detected.def.radius(), 1);
//! assert_eq!(detected.def.flops_per_cell(), 10);
//! assert_eq!(detected.array_name, "A");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detect;
mod emit;
mod error;
mod lexer;
mod parser;

pub use detect::DetectedStencil;
pub use emit::emit_c_source;
pub use error::FrontendError;
pub use parser::parse_stencil;

use an5d_stencil::StencilError;

impl From<StencilError> for FrontendError {
    fn from(e: StencilError) -> Self {
        FrontendError::UnsupportedStencil {
            reason: e.to_string(),
        }
    }
}
