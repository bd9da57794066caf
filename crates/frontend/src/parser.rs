//! One-pass recursive-descent parser and stencil-pattern detection
//! (Section 4.3.3 restrictions): C text in, [`DetectedStencil`] out.
//!
//! The loop headers come first in the source, so when the parser reaches
//! the assignment it knows the time variable and the space variables, and
//! from the left-hand side the array: the update expression is checked
//! while it is parsed and pushed, one node at a time and in the post order
//! recursive descent meets them, into an [`ExprBuilder`] — the one vector
//! the finished [`Expr`](an5d_expr::Expr) keeps. Subscripts and loop
//! bounds are never built at all — they fold, operator by operator, into
//! a [`Shape`].
//!
//! An error is boxed ([`Parsed`]), and built in `#[cold]` helpers: what a
//! production or a token returns on the path taken is only the token, the
//! [`Shape`] or nothing.

use crate::detect::{DetectedStencil, ExtentExpr};
use crate::lexer::{Lexer, Token};
use crate::FrontendError;
use an5d_expr::{BinOp, ExprBuilder, Offset, UnOp};
use an5d_stencil::StencilDef;

/// Deepest nesting of parentheses, unary minuses, call arguments and
/// subscripts. The parser recurses once per level, whatever it builds.
const MAX_NESTING: usize = 64;

/// Most nodes (constants, cell reads, operations) of the update
/// expression. No stage after the parser recurses over the expression —
/// each reads its one post-order vector in a loop — so this bounds the
/// work and the memory one source can ask for, not a stack depth. A
/// radius-7 3D box (3,375 terms) has 13,499 nodes.
/// `tests/frontend_properties.rs` drives an input at each limit through
/// the pipeline on a service worker's 2 MiB stack.
const MAX_NODES: usize = 16_384;

/// What a production returns: the error boxed, so that the path taken
/// carries only the value.
type Parsed<T> = Result<T, Box<FrontendError>>;

#[cold]
#[inline(never)]
fn unsupported<T>(reason: impl Into<String>) -> Parsed<T> {
    Err(Box::new(FrontendError::unsupported(reason)))
}

/// The only calls the update may make are `sqrt(x)` and `sqrtf(x)`.
#[cold]
#[inline(never)]
fn unsupported_call<T>(name: &str) -> Parsed<T> {
    unsupported(format!(
        "call to '{name}' is not supported (only sqrt/sqrtf)"
    ))
}

/// What a subscript or loop bound folds to: the forms the stencil pattern
/// gives a meaning, and `Other` for everything else the grammar allows.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape<'a> {
    /// An integer literal.
    Int(i64),
    /// A bare identifier.
    Var(&'a str),
    /// `var + k`, `k + var` or `var - k` (as `-k`).
    Offset(&'a str, i64),
    /// `var % 2` or `(var ± k) % 2`, holding `k mod 2`.
    Parity(&'a str, i64),
    Other,
}

impl Shape<'_> {
    /// The constant `k` if this is `var`, `var + k`, `k + var` or `var - k`.
    fn offset_of(self, var: &str) -> Option<i64> {
        match self {
            Shape::Var(s) if s == var => Some(0),
            Shape::Offset(s, k) if s == var => Some(k),
            _ => None,
        }
    }

    /// `k mod 2` if this is `(var + k) % 2` (or `var % 2`).
    fn parity_of(self, var: &str) -> Option<i64> {
        match self {
            Shape::Parity(s, parity) if s == var => Some(parity),
            _ => None,
        }
    }
}

/// The subscripts of one array access. The pattern allows four at most
/// (buffer index plus three dimensions); further ones are only counted.
struct Subscripts<'a> {
    count: usize,
    shapes: [Shape<'a>; 4],
}

/// What the expression grammar builds from its productions: a [`Shape`]
/// in a subscript or loop header, [`Pushed`] nodes in the update.
trait Build<'a>: Sized {
    fn int(p: &mut Parser<'a>, value: i64) -> Parsed<Self>;
    fn float(p: &mut Parser<'a>, value: f64) -> Parsed<Self>;
    fn ident(p: &mut Parser<'a>, name: &'a str) -> Parsed<Self>;
    fn access(p: &mut Parser<'a>, name: &'a str, subscripts: &Subscripts<'a>) -> Parsed<Self>;
    /// Called at `name(`, before the arguments are read.
    fn callee(name: &str) -> Parsed<()>;
    fn call(p: &mut Parser<'a>, name: &str, first_arg: Self, args: usize) -> Parsed<Self>;
    fn neg(p: &mut Parser<'a>, operand: Self) -> Parsed<Self>;
    /// `op` is one of `+ - * / %`.
    fn binary(p: &mut Parser<'a>, op: Token<'a>, lhs: Self, rhs: Self) -> Parsed<Self>;
}

impl<'a> Build<'a> for Shape<'a> {
    fn int(_: &mut Parser<'a>, value: i64) -> Parsed<Self> {
        Ok(Shape::Int(value))
    }

    fn float(_: &mut Parser<'a>, _: f64) -> Parsed<Self> {
        Ok(Shape::Other)
    }

    fn ident(_: &mut Parser<'a>, name: &'a str) -> Parsed<Self> {
        Ok(Shape::Var(name))
    }

    fn access(_: &mut Parser<'a>, _: &'a str, _: &Subscripts<'a>) -> Parsed<Self> {
        Ok(Shape::Other)
    }

    fn callee(_: &str) -> Parsed<()> {
        Ok(())
    }

    fn call(_: &mut Parser<'a>, _: &str, _: Self, _: usize) -> Parsed<Self> {
        Ok(Shape::Other)
    }

    fn neg(_: &mut Parser<'a>, _: Self) -> Parsed<Self> {
        Ok(Shape::Other)
    }

    fn binary(_: &mut Parser<'a>, op: Token<'a>, lhs: Self, rhs: Self) -> Parsed<Self> {
        Ok(match (op, lhs, rhs) {
            (Token::Plus, Shape::Var(s), Shape::Int(k))
            | (Token::Plus, Shape::Int(k), Shape::Var(s)) => Shape::Offset(s, k),
            (Token::Minus, Shape::Var(s), Shape::Int(k)) => Shape::Offset(s, -k),
            (Token::Percent, Shape::Var(s), Shape::Int(2)) => Shape::Parity(s, 0),
            (Token::Percent, Shape::Offset(s, k), Shape::Int(2)) => {
                Shape::Parity(s, k.rem_euclid(2))
            }
            _ => Shape::Other,
        })
    }
}

/// An operand of the update expression, complete: its nodes are in the
/// parser's [`ExprBuilder`] already, in post order, so nothing is handed
/// from production to production.
#[derive(Debug)]
struct Pushed;

impl<'a> Build<'a> for Pushed {
    fn int(p: &mut Parser<'a>, value: i64) -> Parsed<Self> {
        p.node()?.constant(value as f64);
        Ok(Pushed)
    }

    fn float(p: &mut Parser<'a>, value: f64) -> Parsed<Self> {
        p.node()?.constant(value);
        Ok(Pushed)
    }

    fn ident(_: &mut Parser<'a>, name: &'a str) -> Parsed<Self> {
        unsupported(format!(
            "symbolic coefficient '{name}' is not supported; coefficients must be literal constants"
        ))
    }

    fn access(p: &mut Parser<'a>, name: &'a str, subscripts: &Subscripts<'a>) -> Parsed<Self> {
        let (time, space) = (&p.loops[0], &p.loops[1..]);
        if name != p.array {
            return unsupported(format!(
                "read of array '{name}' but the stencil stores to '{}'",
                p.array
            ));
        }
        if subscripts.count != space.len() + 1 {
            return unsupported(format!(
                "read of '{name}' must have {} subscripts",
                space.len() + 1
            ));
        }
        if subscripts.shapes[0].parity_of(time.var) != Some(0) {
            return unsupported("reads must come from the t % 2 buffer");
        }
        let mut offsets = [0i32; 3];
        let ndim = space.len();
        for ((offset, shape), Loop { var, .. }) in
            offsets.iter_mut().zip(&subscripts.shapes[1..]).zip(space)
        {
            let Some(k) = shape.offset_of(var) else {
                return unsupported(format!(
                    "subscript for '{var}' must be '{var}' plus or minus a constant"
                ));
            };
            *offset = i32::try_from(k)
                .or_else(|_| unsupported("neighbour offsets must fit in 32 bits"))?;
        }
        p.node()?.cell(Offset::new(&offsets[..ndim]));
        Ok(Pushed)
    }

    fn callee(name: &str) -> Parsed<()> {
        if name == "sqrt" || name == "sqrtf" {
            Ok(())
        } else {
            unsupported_call(name)
        }
    }

    fn call(p: &mut Parser<'a>, name: &str, _: Self, args: usize) -> Parsed<Self> {
        if args != 1 {
            return unsupported_call(name);
        }
        p.node()?.unary(UnOp::Sqrt);
        Ok(Pushed)
    }

    fn neg(p: &mut Parser<'a>, _: Self) -> Parsed<Self> {
        p.node()?.unary(UnOp::Neg);
        Ok(Pushed)
    }

    fn binary(p: &mut Parser<'a>, op: Token<'a>, _: Self, _: Self) -> Parsed<Self> {
        let op = match op {
            Token::Plus => BinOp::Add,
            Token::Minus => BinOp::Sub,
            Token::Star => BinOp::Mul,
            Token::Slash => BinOp::Div,
            _ => {
                return unsupported(
                    "the modulo operator may only appear in the double-buffer index",
                )
            }
        };
        p.node()?.binary(op);
        Ok(Pushed)
    }
}

/// One loop of the nest: its variable and the extent its bound folds to.
struct Loop<'a> {
    var: &'a str,
    extent: ExtentExpr,
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The one token of look-ahead, and the byte offset it starts at.
    tok: Token<'a>,
    tok_at: usize,
    /// Where the last consumed token starts (an error at the end of the
    /// input points one column past it).
    prev_at: Option<usize>,
    depth: usize,
    /// The update expression's nodes so far.
    update: ExprBuilder,
    /// The loops read so far, the time loop first.
    loops: Vec<Loop<'a>>,
    /// The array the assignment stores to.
    array: &'a str,
}

impl<'a> Parser<'a> {
    fn new(source: &'a str) -> Parsed<Self> {
        let mut lexer = Lexer::new(source);
        let (tok, tok_at) = lexer.next_token()?;
        Ok(Self {
            lexer,
            tok,
            tok_at,
            prev_at: None,
            depth: 0,
            update: ExprBuilder::new(),
            loops: Vec::new(),
            array: "",
        })
    }

    /// "expected … but found" the look-ahead token, at its position.
    #[cold]
    #[inline(never)]
    fn error(&self, expected: &str) -> Box<FrontendError> {
        let (line, column) = match (self.tok, self.prev_at) {
            (Token::Eof, None) => (1, 1),
            (Token::Eof, Some(prev)) => {
                let (line, column) = self.lexer.line_column(prev);
                (line, column + 1)
            }
            _ => self.lexer.line_column(self.tok_at),
        };
        Box::new(FrontendError::parse(
            line,
            column,
            expected,
            self.tok.to_string(),
        ))
    }

    /// Consume the look-ahead token and pull the next one.
    fn bump(&mut self) -> Parsed<Token<'a>> {
        let tok = self.tok;
        if tok != Token::Eof {
            self.prev_at = Some(self.tok_at);
            (self.tok, self.tok_at) = self.lexer.next_token()?;
        }
        Ok(tok)
    }

    fn expect(&mut self, tok: Token<'a>, what: &str) -> Parsed<()> {
        if self.tok != tok {
            return Err(self.error(what));
        }
        self.bump()?;
        Ok(())
    }

    fn expect_ident(&mut self, what: &str) -> Parsed<&'a str> {
        let Token::Ident(name) = self.tok else {
            return Err(self.error(what));
        };
        self.bump()?;
        Ok(name)
    }

    /// The builder, with room for one more node of the update expression.
    fn node(&mut self) -> Parsed<&mut ExprBuilder> {
        if self.update.node_count() == MAX_NODES {
            return unsupported(format!(
                "the update expression has more than {MAX_NODES} nodes"
            ));
        }
        Ok(&mut self.update)
    }

    /// The one place the expression grammar re-enters itself.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Parsed<T>) -> Parsed<T> {
        if self.depth == MAX_NESTING {
            return unsupported(format!(
                "parentheses, unary minuses, call arguments and subscripts nest deeper than {MAX_NESTING} levels"
            ));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn stencil(mut self, name: &str) -> Parsed<DetectedStencil> {
        // Tolerate leading declarations such as `int t, i, j;` or
        // `float A[2][N][N];`: skip statements until one starts with `for`.
        while !matches!(self.tok, Token::Ident("for") | Token::Eof) {
            while !matches!(self.bump()?, Token::Semicolon | Token::Eof) {}
        }
        // A perfect nest: every body is one loop, one braced body, or the
        // assignment — so all closing braces follow the assignment.
        self.for_header()?;
        let mut braces = 0usize;
        loop {
            match self.tok {
                Token::LBrace => {
                    self.bump()?;
                    braces += 1;
                }
                Token::Ident("for") => self.for_header()?,
                _ => break,
            }
        }
        if !(3..=4).contains(&self.loops.len()) {
            return unsupported(format!(
                "expected a time loop plus 2 or 3 spatial loops, found {} loops",
                self.loops.len()
            ));
        }
        self.store()?;
        self.expect(Token::Assign, "'=' in assignment")?;
        self.expr::<Pushed>()?;
        self.expect(Token::Semicolon, "';' after assignment")?;
        for _ in 0..braces {
            self.expect(Token::RBrace, "'}' after block")?;
        }
        // Trailing tokens (e.g. a closing brace of an outer function) are
        // not supported: the input is expected to be the loop nest only.
        if self.tok != Token::Eof {
            return Err(self.error("end of input after the loop nest"));
        }

        let def = StencilDef::new(name, self.update.finish())
            .map_err(|e| Box::new(FrontendError::from(e)))?;
        let mut loops = self.loops.into_iter();
        let time = loops.next().expect("the nest has three or four loops");
        let (space_vars, space_extents) = loops.map(|l| (l.var.to_string(), l.extent)).unzip();
        Ok(DetectedStencil {
            def,
            array_name: self.array.to_string(),
            time_var: time.var.to_string(),
            space_vars,
            time_extent: time.extent,
            space_extents,
        })
    }

    /// `for ([int] var = start; var </<= bound; var++ / var += step)`.
    fn for_header(&mut self) -> Parsed<()> {
        if self.tok != Token::Ident("for") {
            return Err(self.error("'for'"));
        }
        self.bump()?;
        self.expect(Token::LParen, "'(' after 'for'")?;
        if self.tok == Token::Ident("int") {
            self.bump()?;
        }
        let var = self.expect_ident("loop variable")?;
        self.expect(Token::Assign, "'=' in loop initialiser")?;
        self.expr::<Shape>()?;
        self.expect(Token::Semicolon, "';' after loop initialiser")?;

        let cond_var = self.expect_ident("loop variable in condition")?;
        if cond_var != var {
            return unsupported(format!(
                "loop condition tests '{cond_var}' but the loop variable is '{var}'"
            ));
        }
        // As in the two-pass parser, a wrong token here and in the
        // increment is consumed and the message names the one after it.
        if !matches!(self.bump()?, Token::Less | Token::LessEqual) {
            return Err(self.error("'<' or '<=' in loop condition"));
        }
        let bound = self.expr::<Shape>()?;
        self.expect(Token::Semicolon, "';' after loop condition")?;

        let inc_var = self.expect_ident("loop variable in increment")?;
        if inc_var != var {
            return unsupported(format!(
                "loop increment updates '{inc_var}' but the loop variable is '{var}'"
            ));
        }
        let step = match self.bump()? {
            Token::Increment => 1,
            Token::PlusAssign => match self.bump()? {
                Token::Int(step) if step > 0 => step,
                _ => return Err(self.error("positive integer step after '+='")),
            },
            _ => return Err(self.error("'++' or '+=' in loop increment")),
        };
        self.expect(Token::RParen, "')' after loop header")?;

        if step != 1 {
            return unsupported("all loops must advance by 1");
        }
        if self.loops.first().is_some_and(|time| time.var == var) {
            return unsupported("loop variables must be distinct");
        }
        let extent = match bound {
            Shape::Int(value) => ExtentExpr::Const(value),
            Shape::Var(symbol) => ExtentExpr::Symbol(symbol.to_string()),
            _ => return unsupported("loop bounds must be integer constants or plain symbols"),
        };
        self.loops.push(Loop { var, extent });
        Ok(())
    }

    /// The left-hand side: `array[(t+1)%2][i][j]…`, each space subscript
    /// exactly its loop's variable.
    fn store(&mut self) -> Parsed<()> {
        let Token::Ident(array) = self.tok else {
            self.postfix::<Shape>()?;
            return Err(self.error("array store on the left-hand side"));
        };
        self.bump()?;
        if self.tok != Token::LBracket {
            self.after_ident::<Shape>(array)?;
            return Err(self.error("array store on the left-hand side"));
        }
        self.array = array;
        let subscripts = self.subscripts()?;

        let (time, space) = (&self.loops[0], &self.loops[1..]);
        let expected = space.len() + 1;
        if subscripts.count != expected {
            return unsupported(format!(
                "the store must have {expected} subscripts (buffer index plus one per spatial dimension)"
            ));
        }
        if subscripts.shapes[0].parity_of(time.var) != Some(1) {
            return unsupported("the store must write to the (t + 1) % 2 buffer");
        }
        for (shape, Loop { var, .. }) in subscripts.shapes[1..].iter().zip(space) {
            if shape.offset_of(var) != Some(0) {
                return unsupported(format!(
                    "the store subscript for '{var}' must be exactly '{var}'"
                ));
            }
        }
        Ok(())
    }

    /// `[expr][expr]…` after an identifier.
    fn subscripts(&mut self) -> Parsed<Subscripts<'a>> {
        let mut subscripts = Subscripts {
            count: 0,
            shapes: [Shape::Other; 4],
        };
        while self.tok == Token::LBracket {
            self.bump()?;
            let shape = self.nested(Self::expr::<Shape>)?;
            self.expect(Token::RBracket, "']' after subscript")?;
            if let Some(slot) = subscripts.shapes.get_mut(subscripts.count) {
                *slot = shape;
            }
            subscripts.count += 1;
        }
        Ok(subscripts)
    }

    /// `expr := term (('+' | '-') term)*`
    fn expr<B: Build<'a>>(&mut self) -> Parsed<B> {
        let mut lhs = self.term::<B>()?;
        while let op @ (Token::Plus | Token::Minus) = self.tok {
            self.bump()?;
            let rhs = self.term::<B>()?;
            lhs = B::binary(self, op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    /// `term := unary (('*' | '/' | '%') unary)*`
    fn term<B: Build<'a>>(&mut self) -> Parsed<B> {
        let mut lhs = self.unary::<B>()?;
        while let op @ (Token::Star | Token::Slash | Token::Percent) = self.tok {
            self.bump()?;
            let rhs = self.unary::<B>()?;
            lhs = B::binary(self, op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    /// `unary := '-' unary | postfix`
    fn unary<B: Build<'a>>(&mut self) -> Parsed<B> {
        if self.tok != Token::Minus {
            return self.postfix();
        }
        self.bump()?;
        let operand = self.nested(Self::unary::<B>)?;
        B::neg(self, operand)
    }

    /// `postfix := literal | '(' expr ')' | name | name '(' args ')' | name subscripts`
    fn postfix<B: Build<'a>>(&mut self) -> Parsed<B> {
        match self.tok {
            Token::Int(value) => {
                self.bump()?;
                B::int(self, value)
            }
            Token::Float(value) => {
                self.bump()?;
                B::float(self, value)
            }
            Token::LParen => {
                self.bump()?;
                let inner = self.nested(Self::expr::<B>)?;
                self.expect(Token::RParen, "')' after parenthesised expression")?;
                Ok(inner)
            }
            Token::Ident(name) => {
                self.bump()?;
                self.after_ident(name)
            }
            _ => Err(self.error("an expression")),
        }
    }

    /// What follows an identifier already consumed: call arguments,
    /// subscripts, or nothing.
    fn after_ident<B: Build<'a>>(&mut self, name: &'a str) -> Parsed<B> {
        match self.tok {
            Token::LParen => {
                B::callee(name)?;
                self.bump()?;
                let first_arg = self.nested(Self::expr::<B>)?;
                let mut args = 1;
                while self.tok == Token::Comma {
                    self.bump()?;
                    self.nested(Self::expr::<B>)?;
                    args += 1;
                }
                self.expect(Token::RParen, "')' after call arguments")?;
                B::call(self, name, first_arg, args)
            }
            Token::LBracket => {
                let subscripts = self.subscripts()?;
                B::access(self, name, &subscripts)
            }
            _ => B::ident(self, name),
        }
    }
}

/// Parse a C source snippet and detect the stencil in it.
///
/// # Errors
///
/// Returns a [`FrontendError`] if the source cannot be lexed/parsed or does
/// not match the supported stencil pattern (Section 4.3.3 restrictions).
/// Of several faults, the one the parser meets first is reported.
pub fn parse_stencil(source: &str, name: &str) -> Result<DetectedStencil, FrontendError> {
    Parser::new(source)
        .and_then(|parser| parser.stencil(name))
        .map_err(|e| *e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_expr::Expr;

    const J2D5PT: &str = r"
        for (t = 0; t < I_T; t++)
          for (i = 1; i <= I_S2; i++)
            for (j = 1; j <= I_S1; j++)
              A[(t+1)%2][i][j] = (5.1f * A[t%2][i-1][j] + 12.1f * A[t%2][i][j-1]
                + 15.0f * A[t%2][i][j] + 12.2f * A[t%2][i][j+1]
                + 5.2f * A[t%2][i+1][j]) / 118;
    ";

    /// A 2D nest around `statement`.
    fn nest(statement: &str) -> String {
        format!(
            "for (t = 0; t < 4; t++) for (i = 1; i <= 4; i++) for (j = 1; j <= 4; j++) {statement}"
        )
    }

    fn shape(source: &str) -> Shape<'_> {
        let mut parser = Parser::new(source).unwrap();
        let shape = parser.expr().unwrap();
        assert_eq!(parser.tok, Token::Eof, "{source}");
        shape
    }

    #[test]
    fn offset_extraction() {
        assert_eq!(shape("i").offset_of("i"), Some(0));
        assert_eq!(shape("i + 2").offset_of("i"), Some(2));
        assert_eq!(shape("i - 1").offset_of("i"), Some(-1));
        assert_eq!(shape("3 + i").offset_of("i"), Some(3));
        assert_eq!(shape("(i) + 3").offset_of("i"), Some(3));
        assert_eq!(shape("j").offset_of("i"), None);
        assert_eq!(shape("1").offset_of("i"), None);
        // Anything the two-pass pattern did not match stays unmatched.
        for other in [
            "3 - i",
            "i + 1 + 1",
            "i + -1",
            "-1 + i",
            "i * 1",
            "i + 1.0f",
            "i[0] + 1",
        ] {
            assert_eq!(shape(other), Shape::Other, "{other}");
        }
    }

    #[test]
    fn parity_extraction() {
        assert_eq!(shape("t % 2").parity_of("t"), Some(0));
        assert_eq!(shape("(t + 1) % 2").parity_of("t"), Some(1));
        assert_eq!(shape("(t - 1) % 2").parity_of("t"), Some(1));
        assert_eq!(shape("(t + 2) % 2").parity_of("t"), Some(0));
        assert_eq!(shape("(t + 1) % 2").parity_of("i"), None);
        assert_eq!(shape("t % 3").parity_of("t"), None);
        assert_eq!(shape("t + 1 % 2").parity_of("t"), None);
        assert_eq!(shape("0").parity_of("t"), None);
    }

    #[test]
    fn parses_fig4_loop_nest() {
        let detected = parse_stencil(J2D5PT, "j2d5pt").unwrap();
        assert_eq!(detected.time_var, "t");
        assert_eq!(detected.space_vars, ["i", "j"]);
        assert_eq!(detected.array_name, "A");
        assert_eq!(detected.def.expr().cell_access_count(), 5);
        assert_eq!(detected.def.expr().node_count(), 21);
    }

    #[test]
    fn parses_braced_bodies_and_declarations() {
        let source = r"
            int t, i, j;
            float A[2][66][66];
            for (int t = 0; t < 100; t++) {
              for (i = 1; i <= 64; i++) { {
                for (j = 1; j <= 64; j++) {
                  A[(t+1)%2][i][j] = 0.25f * A[t%2][i][j-1];
                }
              } }
            }
        ";
        let detected = parse_stencil(source, "braced").unwrap();
        assert_eq!(detected.space_vars.len(), 2);
        assert_eq!(detected.time_extent, ExtentExpr::Const(100));
        assert_eq!(detected.space_extents[1], ExtentExpr::Const(64));
    }

    #[test]
    fn parses_calls_and_negation() {
        let source = nest("A[(t+1)%2][i][j] = 1.0f / sqrt(1.0f + -A[t%2][i][j+1]);");
        let detected = parse_stencil(&source, "calls").unwrap();
        let read = Expr::cell(&[0, 1]);
        let expected = Expr::constant(1.0) / Expr::sqrt(Expr::constant(1.0) + -read);
        assert_eq!(detected.def.expr(), &expected);
    }

    #[test]
    fn parses_step_increment() {
        // `+= k` is grammar; a step other than 1 is a pattern violation.
        let unit = nest("A[(t+1)%2][i][j] = A[t%2][i][j-1];").replace("j++", "j += 1");
        assert!(parse_stencil(&unit, "unit").is_ok());
        let strided = unit.replace("t++", "t += 2");
        let err = parse_stencil(&strided, "strided").unwrap_err();
        assert!(err.to_string().contains("advance by 1"), "{err}");
    }

    #[test]
    fn reports_missing_semicolon_with_position() {
        let source = nest("A[(t+1)%2][i][j] = A[t%2][i][j-1]");
        let err = parse_stencil(&source, "x").unwrap_err();
        // One column past the last token, which is the last character.
        let expected =
            FrontendError::parse(1, source.len() + 1, "';' after assignment", "end of input");
        assert_eq!(err, expected);
    }

    #[test]
    fn rejects_non_array_store() {
        let err = parse_stencil(&nest("x = A[t%2][i][j];"), "x").unwrap_err();
        assert!(err.to_string().contains("array store"));
    }

    #[test]
    fn rejects_mismatched_loop_variable() {
        let source = nest("A[(t+1)%2][i][j] = A[t%2][i][j-1];").replace("t < 4", "i < 4");
        let err = parse_stencil(&source, "x").unwrap_err();
        assert!(matches!(err, FrontendError::UnsupportedStencil { .. }));
    }

    #[test]
    fn rejects_trailing_tokens() {
        let source = nest("A[(t+1)%2][i][j] = A[t%2][i][j-1]; }");
        let err = parse_stencil(&source, "x").unwrap_err();
        assert!(err.to_string().contains("end of input after the loop nest"));
    }

    #[test]
    fn reports_the_first_fault_in_source_order() {
        // The two-pass frontend answered the first with the lexical error
        // and the second with the syntax error.
        let source = nest("A[(t+1)%2][i][j] = c0 * A[t%2][i][j-1] @;");
        let err = parse_stencil(&source, "x").unwrap_err();
        assert!(
            err.to_string().contains("symbolic coefficient 'c0'"),
            "{err}"
        );
        let source = nest("A[t%2][i][j] = A[t%2][i][j-1]");
        let err = parse_stencil(&source, "x").unwrap_err();
        assert!(err.to_string().contains("(t + 1) % 2 buffer"), "{err}");
    }

    #[test]
    fn limits_are_inclusive() {
        let read = "A[t%2][i][j+1]";
        // The read's subscripts are one level themselves.
        let parens = |levels: usize| {
            nest(&format!(
                "A[(t+1)%2][i][j] = {}{read}{};",
                "(".repeat(levels - 1),
                ")".repeat(levels - 1)
            ))
        };
        assert!(parse_stencil(&parens(MAX_NESTING), "x").is_ok());
        let err = parse_stencil(&parens(MAX_NESTING + 1), "x").unwrap_err();
        assert!(
            err.to_string().contains("nest deeper than 64 levels"),
            "{err}"
        );

        // A parser standing in the update of a 2D nest, `nodes` spent.
        fn in_update(source: &str, nodes: usize) -> Parser<'_> {
            let mut parser = Parser::new(source).unwrap();
            let extent = ExtentExpr::Const(4);
            parser.loops = ["t", "i", "j"]
                .map(|var| Loop {
                    var,
                    extent: extent.clone(),
                })
                .into();
            parser.array = "A";
            for _ in 0..nodes {
                parser.update.constant(0.0);
            }
            parser
        }
        // 256 terms of four nodes and a last read.
        let source = format!("{}{read}", format!("0.5f * {read} + ").repeat(256));
        let mut parser = in_update(&source, MAX_NODES - 4 * 256 - 1);
        assert!(parser.expr::<Pushed>().is_ok());
        assert_eq!(parser.update.node_count(), MAX_NODES);
        let err = in_update(&source, MAX_NODES - 4 * 256)
            .expr::<Pushed>()
            .unwrap_err();
        assert!(err.to_string().contains("more than 16384 nodes"), "{err}");
    }
}
