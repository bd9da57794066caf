//! Abstract syntax tree for the supported C subset.

use std::fmt;

/// Comparison operator of a `for` loop condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `<`
    Less,
    /// `<=`
    LessEqual,
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareOp::Less => write!(f, "<"),
            CompareOp::LessEqual => write!(f, "<="),
        }
    }
}

/// A C expression of the supported subset.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Identifier (loop variable, extent symbol, coefficient symbol).
    Ident(String),
    /// Array access `name[idx0][idx1]…`.
    ArrayAccess {
        /// Array name.
        name: String,
        /// One expression per subscript.
        indices: Vec<CExpr>,
    },
    /// Function call, e.g. `sqrtf(x)`.
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<CExpr>,
    },
    /// Unary negation.
    Neg(Box<CExpr>),
    /// `lhs + rhs`
    Add(Box<CExpr>, Box<CExpr>),
    /// `lhs - rhs`
    Sub(Box<CExpr>, Box<CExpr>),
    /// `lhs * rhs`
    Mul(Box<CExpr>, Box<CExpr>),
    /// `lhs / rhs`
    Div(Box<CExpr>, Box<CExpr>),
    /// `lhs % rhs`
    Mod(Box<CExpr>, Box<CExpr>),
}

impl CExpr {
    /// If the expression is `var`, `var + k`, `var - k` or `k + var` for the
    /// given variable, return the constant offset `k`.
    #[must_use]
    pub fn as_offset_of(&self, var: &str) -> Option<i64> {
        match self {
            CExpr::Ident(s) if s == var => Some(0),
            CExpr::Add(a, b) => match (a.as_ref(), b.as_ref()) {
                (CExpr::Ident(s), CExpr::Int(k)) if s == var => Some(*k),
                (CExpr::Int(k), CExpr::Ident(s)) if s == var => Some(*k),
                _ => None,
            },
            CExpr::Sub(a, b) => match (a.as_ref(), b.as_ref()) {
                (CExpr::Ident(s), CExpr::Int(k)) if s == var => Some(-*k),
                _ => None,
            },
            _ => None,
        }
    }

    /// Does the expression match `(var + k) % 2` (or `var % 2` for `k = 0`)?
    /// Returns `k mod 2` when it does.
    #[must_use]
    pub fn as_parity_of(&self, var: &str) -> Option<i64> {
        if let CExpr::Mod(lhs, rhs) = self {
            if !matches!(rhs.as_ref(), CExpr::Int(2)) {
                return None;
            }
            return lhs.as_offset_of(var).map(|k| k.rem_euclid(2));
        }
        None
    }
}

/// The single assignment statement of the stencil body.
#[derive(Debug, Clone, PartialEq)]
pub struct CAssignment {
    /// Destination array name.
    pub array: String,
    /// Destination subscripts.
    pub indices: Vec<CExpr>,
    /// Right-hand side.
    pub value: CExpr,
}

/// A statement: either a nested loop or the stencil assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum CStatement {
    /// A nested `for` loop.
    For(CForLoop),
    /// The assignment statement.
    Assign(CAssignment),
}

/// A `for` loop of the canonical form
/// `for (var = start; var </<= bound; var++ / var += step)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CForLoop {
    /// Loop variable name.
    pub var: String,
    /// Lower bound expression.
    pub start: CExpr,
    /// Comparison operator of the condition.
    pub compare: CompareOp,
    /// Upper bound expression.
    pub bound: CExpr,
    /// Step (1 for `var++`).
    pub step: i64,
    /// Loop body.
    pub body: Box<CStatement>,
}

/// A parsed program: the outermost loop of the nest.
#[derive(Debug, Clone, PartialEq)]
pub struct CProgram {
    /// The outermost (time) loop.
    pub root: CForLoop,
}

impl CProgram {
    /// Collect the perfect loop nest from the outside in, together with the
    /// innermost assignment. Returns `None` if the nest is not perfect (a
    /// loop body that is neither a single loop nor a single assignment).
    #[must_use]
    pub fn loop_nest(&self) -> Option<(Vec<&CForLoop>, &CAssignment)> {
        let mut loops = vec![&self.root];
        let mut body = self.root.body.as_ref();
        loop {
            match body {
                CStatement::For(inner) => {
                    loops.push(inner);
                    body = inner.body.as_ref();
                }
                CStatement::Assign(assign) => return Some((loops, assign)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_extraction() {
        let var = "i";
        assert_eq!(CExpr::Ident("i".into()).as_offset_of(var), Some(0));
        let plus = CExpr::Add(Box::new(CExpr::Ident("i".into())), Box::new(CExpr::Int(2)));
        assert_eq!(plus.as_offset_of(var), Some(2));
        let minus = CExpr::Sub(Box::new(CExpr::Ident("i".into())), Box::new(CExpr::Int(1)));
        assert_eq!(minus.as_offset_of(var), Some(-1));
        let flipped = CExpr::Add(Box::new(CExpr::Int(3)), Box::new(CExpr::Ident("i".into())));
        assert_eq!(flipped.as_offset_of(var), Some(3));
        assert_eq!(CExpr::Ident("j".into()).as_offset_of(var), None);
        assert_eq!(CExpr::Int(1).as_offset_of(var), None);
    }

    #[test]
    fn parity_extraction() {
        let t = "t";
        let t_mod_2 = CExpr::Mod(Box::new(CExpr::Ident("t".into())), Box::new(CExpr::Int(2)));
        assert_eq!(t_mod_2.as_parity_of(t), Some(0));
        let t1_mod_2 = CExpr::Mod(
            Box::new(CExpr::Add(
                Box::new(CExpr::Ident("t".into())),
                Box::new(CExpr::Int(1)),
            )),
            Box::new(CExpr::Int(2)),
        );
        assert_eq!(t1_mod_2.as_parity_of(t), Some(1));
        let t_mod_3 = CExpr::Mod(Box::new(CExpr::Ident("t".into())), Box::new(CExpr::Int(3)));
        assert_eq!(t_mod_3.as_parity_of(t), None);
        assert_eq!(CExpr::Int(0).as_parity_of(t), None);
    }

    #[test]
    fn compare_op_display() {
        assert_eq!(CompareOp::Less.to_string(), "<");
        assert_eq!(CompareOp::LessEqual.to_string(), "<=");
    }
}
