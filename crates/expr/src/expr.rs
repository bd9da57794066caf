//! The stencil update expression: one post-order vector of nodes.

use crate::facts::Walk;
use crate::{push_literal, LiteralType, Offset};
use std::fmt::{self, Write};
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::Arc;

/// Binary operators appearing in stencil update expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Unary operators appearing in stencil update expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Square root (`sqrtf`/`sqrt` in the generated CUDA).
    Sqrt,
}

/// One node of an [`Expr`], as [`Expr::view`] returns it: a leaf, or an
/// operation and the indices of its operands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Node {
    /// A compile-time constant (coefficient).
    Const(f64),
    /// The previous-time-step value of the cell at the given offset from the
    /// cell being updated.
    Cell(Offset),
    /// A unary operation and the index of its operand.
    Unary(UnOp, usize),
    /// A binary operation and the indices of its left and right operands.
    Binary(BinOp, usize, usize),
}

/// A node as stored. An operation holds the number of nodes of the subtree
/// it roots (itself included), a count that does not depend on where the
/// subtree stands: equal subtrees are equal runs of slots.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) enum Slot {
    Const(f64),
    Cell(Offset),
    Unary(UnOp, u32),
    Binary(BinOp, u32),
}

impl Slot {
    /// Nodes in the subtree this node roots.
    pub(crate) fn len(self) -> usize {
        match self {
            Slot::Const(_) | Slot::Cell(_) => 1,
            Slot::Unary(_, len) | Slot::Binary(_, len) => len as usize,
        }
    }
}

/// The indices of the left and right operands of the binary node at `i`.
pub(crate) fn operands(nodes: &[Slot], i: usize) -> (usize, usize) {
    let rhs = i - 1;
    (rhs - nodes[rhs].len(), rhs)
}

/// A subtree's node count as stored in its root.
fn subtree_len(len: usize) -> u32 {
    u32::try_from(len).expect("an expression has fewer than 2^32 nodes")
}

/// A stencil update expression.
///
/// The expression describes how the *new* value of the current cell is
/// computed from values of the *previous* time-step: [`Node::Cell`] nodes
/// reference neighbours of the current cell by [`Offset`]. Constants model
/// compile-time coefficients (the paper's `c(…)` values are compile-time
/// constants for all evaluated benchmarks).
///
/// The nodes are one vector in post order: every operation follows its
/// operands, the left operand's subtree comes before the right one's, and
/// the root is the last node. An operation also stores its subtree's node
/// count, so [`Expr::view`] finds both operands of any node in O(1) — the
/// right one is the node just before it, the left one the node just before
/// the right one's subtree — and two equal subtrees are two equal runs of
/// nodes ([`Expr::subtree_eq`]). Every reader is one loop over the vector
/// with an explicit stack; evaluation holds at most
/// [`Expr::stack_depth`] values, a figure recorded while the expression is
/// built. The vector sits behind an `Arc`, so a clone shares it, and
/// building (the operators, [`Expr::sum`], [`ExprBuilder`]) appends to a
/// vector no other expression shares.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Expr {
    nodes: Arc<Vec<Slot>>,
    /// Most values a post-order evaluation holds at once.
    depth: u32,
}

impl Expr {
    fn leaf(slot: Slot) -> Self {
        Expr {
            nodes: Arc::new(vec![slot]),
            depth: 1,
        }
    }

    /// A constant (coefficient) leaf.
    #[must_use]
    pub fn constant(value: f64) -> Self {
        Expr::leaf(Slot::Const(value))
    }

    /// A neighbour access leaf at the given offset (outermost dimension
    /// first).
    ///
    /// # Panics
    ///
    /// Panics if the offset rank is not in `1..=3`.
    #[must_use]
    pub fn cell(offset: &[i32]) -> Self {
        Expr::leaf(Slot::Cell(Offset::new(offset)))
    }

    /// Square root of an expression.
    #[must_use]
    pub fn sqrt(inner: Expr) -> Self {
        inner.unary(UnOp::Sqrt)
    }

    /// Left-associated sum of the given terms.
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty.
    #[must_use]
    pub fn sum(terms: Vec<Expr>) -> Self {
        let mut it = terms.into_iter();
        let first = it.next().expect("Expr::sum requires at least one term");
        it.fold(first, |acc, t| acc + t)
    }

    /// `op` applied to this expression, appended in place.
    fn unary(mut self, op: UnOp) -> Self {
        let nodes = Arc::make_mut(&mut self.nodes);
        nodes.push(Slot::Unary(op, subtree_len(nodes.len() + 1)));
        self
    }

    /// `self op rhs`: the right operand's nodes and the operation appended
    /// to this expression's.
    fn binary(mut self, op: BinOp, rhs: &Expr) -> Self {
        let nodes = Arc::make_mut(&mut self.nodes);
        nodes.extend_from_slice(&rhs.nodes);
        nodes.push(Slot::Binary(op, subtree_len(nodes.len() + 1)));
        self.depth = self.depth.max(rhs.depth + 1);
        self
    }

    /// The nodes in post order.
    pub(crate) fn slots(&self) -> &[Slot] {
        &self.nodes
    }

    /// The nodes of the subtree rooted at node `i`.
    fn subtree(&self, i: usize) -> &[Slot] {
        &self.nodes[i + 1 - self.nodes[i].len()..=i]
    }

    /// Do the two expressions share one node vector (one is a clone of the
    /// other, and neither has been built on since)?
    #[must_use]
    pub fn shares_nodes(&self, other: &Expr) -> bool {
        Arc::ptr_eq(&self.nodes, &other.nodes)
    }

    /// Number of nodes in the expression.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Index of the root, the last node.
    #[must_use]
    pub fn root(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Node `i` (`0..node_count()`, in post order), its operands as
    /// indices.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn view(&self, i: usize) -> Node {
        match self.nodes[i] {
            Slot::Const(c) => Node::Const(c),
            Slot::Cell(offset) => Node::Cell(offset),
            Slot::Unary(op, _) => Node::Unary(op, i - 1),
            Slot::Binary(op, _) => {
                let (lhs, rhs) = operands(&self.nodes, i);
                Node::Binary(op, lhs, rhs)
            }
        }
    }

    /// Are the subtrees rooted at nodes `a` and `b` structurally equal
    /// (constants compared as `f64`, so a NaN is equal to nothing)?
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    #[must_use]
    pub fn subtree_eq(&self, a: usize, b: usize) -> bool {
        self.subtree(a) == self.subtree(b)
    }

    /// Most values a post-order evaluation holds at once (≥ 1): the size
    /// of the value stack [`Expr::evaluate`] needs.
    #[must_use]
    pub fn stack_depth(&self) -> usize {
        self.depth as usize
    }

    /// Number of dimensions of the stencil this expression describes, i.e.
    /// the rank of its first cell access in offset order, or `None` if the
    /// expression reads no cell. Whether all accesses share that rank is
    /// checked by [`crate::ShapeInfo`].
    #[must_use]
    pub fn ndim(&self) -> Option<usize> {
        self.accessed_offsets().first().map(Offset::ndim)
    }

    /// All distinct neighbour offsets accessed by this expression, sorted.
    #[must_use]
    pub(crate) fn accessed_offsets(&self) -> Vec<Offset> {
        Walk::of(self).offsets
    }

    /// Total number of cell-access leaves (with multiplicity).
    #[must_use]
    pub fn cell_access_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|slot| matches!(slot, Slot::Cell(_)))
            .count()
    }

    /// Evaluate the expression given a resolver for neighbour values.
    ///
    /// The resolver receives the access offset and returns the previous
    /// time-step value of that neighbour (already shifted to the cell being
    /// updated). Evaluation order is fixed (left to right, as written), so
    /// two executors evaluating the same expression produce bit-identical
    /// results.
    pub fn eval<F>(&self, resolve: &F) -> f64
    where
        F: Fn(Offset) -> f64,
    {
        self.evaluate(&mut Vec::new(), resolve)
    }

    /// Evaluate in single precision (every intermediate rounded to `f32`),
    /// mirroring what the generated `float` CUDA kernel computes.
    pub fn eval_f32<F>(&self, resolve: &F) -> f32
    where
        F: Fn(Offset) -> f32,
    {
        self.evaluate(&mut Vec::new(), resolve)
    }

    /// Evaluate in the arithmetic `T`, with `stack` as the value stack:
    /// it is cleared and grown to [`Expr::stack_depth`] values once, so a
    /// caller evaluating cell after cell allocates for the first only.
    /// Each node is one scalar operation of `T` on the values of its
    /// operands, left before right.
    pub fn evaluate<T, F>(&self, stack: &mut Vec<T>, resolve: &F) -> T
    where
        T: Arithmetic,
        F: Fn(Offset) -> T,
    {
        const WELL_FORMED: &str = "a post-order expression has its operands on the stack";
        stack.clear();
        stack.reserve(self.stack_depth());
        for slot in self.nodes.iter() {
            match *slot {
                Slot::Const(c) => stack.push(T::constant(c)),
                Slot::Cell(offset) => stack.push(resolve(offset)),
                Slot::Unary(op, _) => {
                    let x = stack.last_mut().expect(WELL_FORMED);
                    *x = T::unary(op, *x);
                }
                Slot::Binary(op, _) => {
                    let y = stack.pop().expect(WELL_FORMED);
                    let x = stack.last_mut().expect(WELL_FORMED);
                    *x = T::binary(op, *x, y);
                }
            }
        }
        stack.pop().expect(WELL_FORMED)
    }

    /// Append the expression to `out` as C/CUDA source: fully
    /// parenthesised, constants as literals of type `literals` (through
    /// [`push_literal`]), each neighbour access appended by `access` (e.g.
    /// as a register name or a shared-memory index). One buffer for the
    /// whole expression: a left-nested sum never re-copies its prefix, and
    /// no leaf becomes a `String` of its own.
    pub fn write_c<F>(&self, out: &mut String, literals: LiteralType, access: &F)
    where
        F: Fn(&mut String, Offset),
    {
        /// What is left to print, the next piece last.
        enum Step {
            Node(usize),
            Text(&'static str),
        }
        let mut todo = vec![Step::Node(self.root())];
        while let Some(step) = todo.pop() {
            let i = match step {
                Step::Node(i) => i,
                Step::Text(text) => {
                    out.push_str(text);
                    continue;
                }
            };
            match self.view(i) {
                Node::Const(c) => push_literal(out, c, literals),
                Node::Cell(offset) => access(out, offset),
                Node::Unary(op, a) => {
                    out.push_str(match op {
                        UnOp::Neg => "(-",
                        UnOp::Sqrt => "sqrt(",
                    });
                    todo.extend([Step::Text(")"), Step::Node(a)]);
                }
                Node::Binary(op, a, b) => {
                    out.push('(');
                    let symbol = match op {
                        BinOp::Add => " + ",
                        BinOp::Sub => " - ",
                        BinOp::Mul => " * ",
                        BinOp::Div => " / ",
                    };
                    todo.extend([
                        Step::Text(")"),
                        Step::Node(b),
                        Step::Text(symbol),
                        Step::Node(a),
                    ]);
                }
            }
        }
    }

    /// Does the expression contain a division anywhere?
    ///
    /// The paper notes that double-precision *division* makes NVCC emit
    /// inefficient code (Section 7.1); the simulator's timing layer applies a
    /// derate keyed off this predicate.
    #[must_use]
    pub fn contains_division(&self) -> bool {
        self.nodes
            .iter()
            .any(|slot| matches!(slot, Slot::Binary(BinOp::Div, _)))
    }

    /// Does the expression contain a square root?
    #[must_use]
    pub fn contains_sqrt(&self) -> bool {
        self.nodes
            .iter()
            .any(|slot| matches!(slot, Slot::Unary(UnOp::Sqrt, _)))
    }
}

/// The scalar arithmetic [`Expr::evaluate`] computes in: how a constant
/// becomes a value and what each operator does to values. `f64` and `f32`
/// are the arithmetic of [`Expr::eval`] and [`Expr::eval_f32`].
pub trait Arithmetic: Copy {
    /// A coefficient, stored as `f64`, in this arithmetic.
    fn constant(value: f64) -> Self;
    /// `op x`.
    fn unary(op: UnOp, x: Self) -> Self;
    /// `x op y`.
    fn binary(op: BinOp, x: Self, y: Self) -> Self;
}

macro_rules! float_arithmetic {
    ($($t:ty),*) => {$(
        impl Arithmetic for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn constant(value: f64) -> Self {
                value as $t
            }

            fn unary(op: UnOp, x: Self) -> Self {
                match op {
                    UnOp::Neg => -x,
                    UnOp::Sqrt => x.sqrt(),
                }
            }

            fn binary(op: BinOp, x: Self, y: Self) -> Self {
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                }
            }
        }
    )*};
}

float_arithmetic!(f64, f32);

/// Builds an [`Expr`] the way a parser meets it, in post order: each
/// operand before the operation that takes it, the left operand before the
/// right. Every call appends one node to one vector.
///
/// ```
/// use an5d_expr::{BinOp, Expr, ExprBuilder};
///
/// // 0.5 * A[i][j+1]
/// let mut builder = ExprBuilder::new();
/// builder.constant(0.5);
/// builder.cell(an5d_expr::Offset::new(&[0, 1]));
/// builder.binary(BinOp::Mul);
/// assert_eq!(builder.finish(), Expr::constant(0.5) * Expr::cell(&[0, 1]));
/// ```
#[derive(Debug, Default)]
pub struct ExprBuilder {
    nodes: Vec<Slot>,
    /// Values the nodes so far leave on an evaluation stack.
    height: u32,
    /// The most `height` has been.
    depth: u32,
}

impl ExprBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes appended so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn leaf(&mut self, slot: Slot) {
        self.nodes.push(slot);
        self.height += 1;
        self.depth = self.depth.max(self.height);
    }

    /// Append a constant leaf.
    pub fn constant(&mut self, value: f64) {
        self.leaf(Slot::Const(value));
    }

    /// Append a neighbour access leaf.
    pub fn cell(&mut self, offset: Offset) {
        self.leaf(Slot::Cell(offset));
    }

    /// Append `op` applied to the last complete operand.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been appended.
    pub fn unary(&mut self, op: UnOp) {
        assert!(self.height >= 1, "a unary operation needs an operand");
        let len = 1 + self.nodes[self.nodes.len() - 1].len();
        self.nodes.push(Slot::Unary(op, subtree_len(len)));
    }

    /// Append `op` applied to the last two complete operands.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two operands are complete.
    pub fn binary(&mut self, op: BinOp) {
        assert!(self.height >= 2, "a binary operation needs two operands");
        let i = self.nodes.len();
        let (lhs, rhs) = operands(&self.nodes, i);
        let len = 1 + self.nodes[lhs].len() + self.nodes[rhs].len();
        self.nodes.push(Slot::Binary(op, subtree_len(len)));
        self.height -= 1;
    }

    /// The expression built.
    ///
    /// # Panics
    ///
    /// Panics unless the nodes appended form exactly one expression.
    #[must_use]
    pub fn finish(self) -> Expr {
        assert_eq!(self.height, 1, "the nodes must form one expression");
        Expr {
            nodes: Arc::new(self.nodes),
            depth: self.depth,
        }
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Add, &rhs)
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Sub, &rhs)
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Mul, &rhs)
    }
}

impl Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Div, &rhs)
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        self.unary(UnOp::Neg)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_c(
            &mut out,
            LiteralType::Float,
            &|out: &mut String, o: Offset| {
                write!(out, "A{o}").expect("writing to a String cannot fail");
            },
        );
        f.write_str(&out)
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
    fn accessed_offsets_are_unique_and_sorted() {
        let e = Expr::cell(&[0, 1]) + Expr::cell(&[0, 1]) + Expr::cell(&[1, 0]);
        let offs = e.accessed_offsets();
        assert_eq!(offs.len(), 2);
        assert!(offs.contains(&Offset::new(&[0, 1])));
        assert!(offs.contains(&Offset::new(&[1, 0])));
    }

    #[test]
    fn cell_access_count_keeps_multiplicity() {
        let e = Expr::cell(&[0, 1]) + Expr::cell(&[0, 1]);
        assert_eq!(e.cell_access_count(), 2);
        assert_eq!(e.accessed_offsets().len(), 1);
        assert_eq!(e.node_count(), 3);
    }

    #[test]
    fn eval_five_point_jacobi() {
        let e = five_point();
        // All neighbours = 1 → (5.1 + 12.1 + 15 + 12.2 + 5.2)/118 = 49.6/118
        let v = e.eval(&|_| 1.0);
        assert!((v - 49.6 / 118.0).abs() < 1e-12);
    }

    #[test]
    fn eval_resolves_specific_offsets() {
        let e = Expr::cell(&[-1, 0]) - Expr::cell(&[1, 0]);
        let v = e.eval(&|o| if o.component(0) == -1 { 3.0 } else { 1.0 });
        assert_eq!(v, 2.0);
    }

    #[test]
    fn eval_f32_rounds_intermediates() {
        let e = Expr::constant(0.1) + Expr::constant(0.2);
        let f32_result = e.eval_f32(&|_| 0.0);
        let f64_result = e.eval(&|_| 0.0);
        assert!((f64::from(f32_result) - f64_result).abs() > 0.0);
    }

    #[test]
    fn sqrt_and_neg_evaluate() {
        let e = Expr::sqrt(Expr::constant(16.0)) + (-Expr::constant(1.0));
        assert_eq!(e.eval(&|_| 0.0), 3.0);
        assert!(e.contains_sqrt());
        assert!(!e.contains_division());
    }

    #[test]
    fn division_detection() {
        assert!(five_point().contains_division());
        assert!(!(Expr::cell(&[0, 0]) * Expr::constant(2.0)).contains_division());
    }

    #[test]
    fn ndim_from_accesses() {
        assert_eq!(five_point().ndim(), Some(2));
        assert_eq!(Expr::constant(1.0).ndim(), None);
        assert_eq!(Expr::cell(&[0, 0, 1]).ndim(), Some(3));
    }

    #[test]
    fn write_c_renders_parenthesised_source() {
        let e = Expr::constant(2.0) * Expr::cell(&[0, 1]);
        let mut s = String::new();
        e.write_c(
            &mut s,
            LiteralType::Float,
            &|out: &mut String, o: Offset| {
                write!(out, "A[i{:+}][j{:+}]", o.component(0), o.component(1)).unwrap();
            },
        );
        assert_eq!(s, "(2.0f * A[i+0][j+1])");
    }

    #[test]
    fn display_uses_generic_access_names() {
        let e = Expr::cell(&[1, 0]) + Expr::constant(3.5);
        let s = e.to_string();
        assert!(s.contains("A(+1,+0)"));
        assert!(s.contains("3.5f"));
    }

    #[test]
    fn sum_is_left_associated() {
        let e = Expr::sum(vec![
            Expr::constant(1.0),
            Expr::constant(2.0),
            Expr::constant(3.0),
        ]);
        // ((1 + 2) + 3)
        let Node::Binary(BinOp::Add, left, right) = e.view(e.root()) else {
            panic!("expected an add at the root of {e}");
        };
        assert!(matches!(e.view(left), Node::Binary(BinOp::Add, _, _)));
        assert_eq!(e.view(right), Node::Const(3.0));
        assert_eq!(e.eval(&|_| 0.0), 6.0);
    }

    #[test]
    #[should_panic(expected = "at least one term")]
    fn empty_sum_panics() {
        let _ = Expr::sum(vec![]);
    }

    #[test]
    fn nodes_are_in_post_order_with_their_operands_at_hand() {
        // (A[0,1] - 2) * sqrt(A[1,0])
        let e = (Expr::cell(&[0, 1]) - Expr::constant(2.0)) * Expr::sqrt(Expr::cell(&[1, 0]));
        let nodes: Vec<Node> = (0..e.node_count()).map(|i| e.view(i)).collect();
        assert_eq!(
            nodes,
            [
                Node::Cell(Offset::new(&[0, 1])),
                Node::Const(2.0),
                Node::Binary(BinOp::Sub, 0, 1),
                Node::Cell(Offset::new(&[1, 0])),
                Node::Unary(UnOp::Sqrt, 3),
                Node::Binary(BinOp::Mul, 2, 4),
            ]
        );
        assert_eq!(e.root(), 5);
    }

    #[test]
    fn equal_subtrees_are_equal_wherever_they_stand() {
        let d = || Expr::cell(&[0, 0]) - Expr::cell(&[1, 0]);
        let e = Expr::constant(1.0) + d() * d();
        let Node::Binary(BinOp::Add, _, product) = e.view(e.root()) else {
            panic!("{e}");
        };
        let Node::Binary(BinOp::Mul, a, b) = e.view(product) else {
            panic!("{e}");
        };
        assert_ne!(a, b);
        assert!(e.subtree_eq(a, b));
        assert!(!e.subtree_eq(a, product));
        let nan = Expr::constant(f64::NAN);
        let e = nan.clone() + nan;
        assert!(!e.subtree_eq(0, 1), "a NaN constant equals nothing");
    }

    #[test]
    fn stack_depth_is_the_most_values_evaluation_holds() {
        let x = || Expr::cell(&[0, 1]);
        assert_eq!(x().stack_depth(), 1);
        // A left-nested sum of products never holds more than three.
        assert_eq!(five_point().stack_depth(), 3);
        // Each right-nested level holds one more.
        let right = x() + (x() + (x() + x()));
        assert_eq!(right.stack_depth(), 4);
        assert_eq!((-Expr::sqrt(right.clone())).stack_depth(), 4);
    }

    #[test]
    fn the_builder_builds_what_the_operators_do() {
        let mut builder = ExprBuilder::new();
        builder.constant(1.0);
        builder.cell(Offset::new(&[0, 1]));
        builder.cell(Offset::new(&[1, 0]));
        builder.binary(BinOp::Sub);
        builder.unary(UnOp::Sqrt);
        builder.binary(BinOp::Div);
        builder.unary(UnOp::Neg);
        assert_eq!(builder.node_count(), 7);
        let built = builder.finish();
        let expected =
            -(Expr::constant(1.0) / Expr::sqrt(Expr::cell(&[0, 1]) - Expr::cell(&[1, 0])));
        assert_eq!(built, expected);
        assert_eq!(built.stack_depth(), expected.stack_depth());
        assert_eq!(built.stack_depth(), 3);
    }

    #[test]
    #[should_panic(expected = "two operands")]
    fn the_builder_refuses_an_operation_without_its_operands() {
        let mut builder = ExprBuilder::new();
        builder.constant(1.0);
        builder.binary(BinOp::Add);
    }

    #[test]
    #[should_panic(expected = "one expression")]
    fn the_builder_refuses_to_finish_two_values() {
        let mut builder = ExprBuilder::new();
        builder.constant(1.0);
        builder.constant(2.0);
        let _ = builder.finish();
    }

    #[test]
    fn a_clone_shares_the_nodes_and_building_on_it_copies_them() {
        let e = five_point();
        let copy = e.clone();
        assert!(e.shares_nodes(&copy));
        let longer = copy + Expr::constant(1.0);
        assert!(!e.shares_nodes(&longer));
        assert_eq!(e, five_point());
        assert_eq!(longer.node_count(), e.node_count() + 2);
    }
}
