//! Byte lexer for the supported C subset, pulled one token at a time.

use crate::FrontendError;
use std::fmt;

/// A lexical token. Identifiers borrow from the source; a token's
/// position is the byte offset [`Lexer::next_token`] returns beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Token<'a> {
    /// An identifier or keyword (`for`, `t`, `A`, `I_S1`, `sqrtf`, …).
    Ident(&'a str),
    /// An integer literal.
    Int(i64),
    /// A floating-point literal (an optional `f`/`F` suffix is consumed).
    Float(f64),
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Semicolon,
    Comma,
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Less,
    LessEqual,
    Greater,
    GreaterEqual,
    Increment,
    PlusAssign,
    /// The end of the source; returned again on every further pull.
    Eof,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Token::Ident(s) => return write!(f, "identifier '{s}'"),
            Token::Int(v) => return write!(f, "integer {v}"),
            Token::Float(v) => return write!(f, "float {v}"),
            Token::LParen => "'('",
            Token::RParen => "')'",
            Token::LBracket => "'['",
            Token::RBracket => "']'",
            Token::LBrace => "'{'",
            Token::RBrace => "'}'",
            Token::Semicolon => "';'",
            Token::Comma => "','",
            Token::Assign => "'='",
            Token::Plus => "'+'",
            Token::Minus => "'-'",
            Token::Star => "'*'",
            Token::Slash => "'/'",
            Token::Percent => "'%'",
            Token::Less => "'<'",
            Token::LessEqual => "'<='",
            Token::Greater => "'>'",
            Token::GreaterEqual => "'>='",
            Token::Increment => "'++'",
            Token::PlusAssign => "'+='",
            Token::Eof => "end of input",
        };
        f.write_str(text)
    }
}

/// The lexer: a cursor over the source's bytes.
///
/// Line (`//`) and block (`/* … */`) comments and Unicode whitespace are
/// skipped; numeric literals may carry an `f`/`F` suffix (as in `5.1f`).
pub(crate) struct Lexer<'a> {
    source: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(source: &'a str) -> Self {
        Self { source, pos: 0 }
    }

    /// 1-based line and column (in characters, not bytes) of a byte
    /// offset — worked out only when an error needs them.
    pub(crate) fn line_column(&self, offset: usize) -> (usize, usize) {
        let before = &self.source[..offset];
        let line_start = before.rfind('\n').map_or(0, |newline| newline + 1);
        let line = 1 + before.bytes().filter(|&b| b == b'\n').count();
        (line, 1 + before[line_start..].chars().count())
    }

    /// The error at the character at `offset`, boxed: what a token
    /// returns on the path taken is only the token.
    #[cold]
    #[inline(never)]
    fn unexpected(&self, offset: usize) -> Box<FrontendError> {
        let (line, column) = self.line_column(offset);
        let found = self.source[offset..]
            .chars()
            .next()
            .expect("a lex error points at a character");
        Box::new(FrontendError::Lex {
            line,
            column,
            found,
        })
    }

    /// The next token and the byte offset it starts at.
    ///
    /// # Errors
    ///
    /// [`FrontendError::Lex`] on a character outside the supported subset
    /// or a malformed number.
    pub(crate) fn next_token(&mut self) -> Result<(Token<'a>, usize), Box<FrontendError>> {
        let bytes = self.source.as_bytes();
        loop {
            let start = self.pos;
            let Some(&byte) = bytes.get(start) else {
                return Ok((Token::Eof, start));
            };
            let next = bytes.get(start + 1).copied();
            let (token, width) = match (byte, next) {
                (b' ' | b'\t'..=b'\r', _) => {
                    self.pos += 1;
                    continue;
                }
                (b'/', Some(b'/')) => {
                    let line = &bytes[start..];
                    self.pos = start + line.iter().position(|&b| b == b'\n').unwrap_or(line.len());
                    continue;
                }
                (b'/', Some(b'*')) => {
                    self.pos = match self.source[start + 2..].find("*/") {
                        Some(close) => start + 2 + close + 2,
                        // Unterminated: the two-pass lexer stopped one
                        // character short of the end and lexed that
                        // character as a token; so does this one.
                        None => self.source[start + 2..]
                            .char_indices()
                            .next_back()
                            .map_or(bytes.len(), |(last, _)| start + 2 + last),
                    };
                    continue;
                }
                (b'a'..=b'z' | b'A'..=b'Z' | b'_', _) => {
                    let len = bytes[start..]
                        .iter()
                        .position(|b| !(b.is_ascii_alphanumeric() || *b == b'_'))
                        .unwrap_or(bytes.len() - start);
                    (Token::Ident(&self.source[start..start + len]), len)
                }
                (b'0'..=b'9', _) | (b'.', Some(b'0'..=b'9')) => self.number(start)?,
                (b'+', Some(b'+')) => (Token::Increment, 2),
                (b'+', Some(b'=')) => (Token::PlusAssign, 2),
                (b'<', Some(b'=')) => (Token::LessEqual, 2),
                (b'>', Some(b'=')) => (Token::GreaterEqual, 2),
                (b'(', _) => (Token::LParen, 1),
                (b')', _) => (Token::RParen, 1),
                (b'[', _) => (Token::LBracket, 1),
                (b']', _) => (Token::RBracket, 1),
                (b'{', _) => (Token::LBrace, 1),
                (b'}', _) => (Token::RBrace, 1),
                (b';', _) => (Token::Semicolon, 1),
                (b',', _) => (Token::Comma, 1),
                (b'=', _) => (Token::Assign, 1),
                (b'+', _) => (Token::Plus, 1),
                (b'-', _) => (Token::Minus, 1),
                (b'*', _) => (Token::Star, 1),
                (b'/', _) => (Token::Slash, 1),
                (b'%', _) => (Token::Percent, 1),
                (b'<', _) => (Token::Less, 1),
                (b'>', _) => (Token::Greater, 1),
                (0x80.., _) => {
                    // Not ASCII: whitespace (U+00A0, U+2003, …) or an error.
                    match self.source[start..].chars().next() {
                        Some(c) if c.is_whitespace() => {
                            self.pos += c.len_utf8();
                            continue;
                        }
                        _ => return Err(self.unexpected(start)),
                    }
                }
                _ => return Err(self.unexpected(start)),
            };
            self.pos = start + width;
            return Ok((token, start));
        }
    }

    /// A numeric literal starting at `start`. A run of digits not followed
    /// by `.`, `e`, `E`, `f` or `F` is an integer, accumulated as it is
    /// scanned; anything else is a float: digits, `.`, an exponent with an
    /// optional sign, then an optional `f`/`F`. An integer past `i64`, a
    /// float `str::parse` refuses (`1e+`, `1.2.3`), or one it makes infinite
    /// (`1e999`, which no C compiler takes as a constant and no printed
    /// literal would spell), is a lex error at the literal's first
    /// character.
    fn number(&self, start: usize) -> Result<(Token<'a>, usize), Box<FrontendError>> {
        let bytes = self.source.as_bytes();
        let mut end = start;
        let mut value = Some(0i64);
        while let Some(&digit @ b'0'..=b'9') = bytes.get(end) {
            value = value.and_then(|v| v.checked_mul(10)?.checked_add(i64::from(digit - b'0')));
            end += 1;
        }
        if end > start && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'f' | b'F')) {
            return value
                .map(|value| (Token::Int(value), end - start))
                .ok_or_else(|| self.unexpected(start));
        }
        while let Some(&b) = bytes.get(end) {
            match b {
                b'0'..=b'9' | b'.' | b'e' | b'E' => {}
                b'+' | b'-' if end > start && matches!(bytes[end - 1], b'e' | b'E') => {}
                _ => break,
            }
            end += 1;
        }
        let text = &self.source[start..end];
        if matches!(bytes.get(end), Some(b'f' | b'F')) {
            end += 1;
        }
        match text.parse::<f64>() {
            Ok(value) if value.is_finite() => Ok((Token::Float(value), end - start)),
            _ => Err(self.unexpected(start)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(source: &str) -> Result<Vec<(Token<'_>, usize)>, FrontendError> {
        let mut lexer = Lexer::new(source);
        let mut tokens = Vec::new();
        loop {
            match lexer.next_token().map_err(|e| *e)? {
                (Token::Eof, _) => return Ok(tokens),
                token => tokens.push(token),
            }
        }
    }

    fn kinds(source: &str) -> Vec<Token<'_>> {
        let tokens = tokens(source).unwrap();
        tokens.into_iter().map(|(token, _)| token).collect()
    }

    #[test]
    fn lexes_for_loop_header() {
        let k = kinds("for (t = 0; t < I_T; t++)");
        assert_eq!(k[0], Token::Ident("for"));
        assert_eq!(k[1], Token::LParen);
        assert_eq!(k[3], Token::Assign);
        assert_eq!(k[4], Token::Int(0));
        assert!(k.contains(&Token::Less));
        assert!(k.contains(&Token::Increment));
    }

    /// Lex `an5d_expr::push_literal`'s text of `value ≥ 0` back.
    fn lexed_literal(value: f64) -> f64 {
        let mut text = String::new();
        an5d_expr::push_literal(&mut text, value, an5d_expr::LiteralType::Float);
        match kinds(&text)[..] {
            [Token::Float(read)] => read,
            ref tokens => panic!("{text} lexes as {tokens:?}"),
        }
    }

    #[test]
    fn printed_literals_lex_back_to_the_same_value() {
        let suite_literals = an5d_stencil::suite::all_benchmarks()
            .into_iter()
            .flat_map(|def| {
                let expr = def.expr().clone();
                (0..expr.node_count()).filter_map(move |i| match expr.view(i) {
                    an5d_expr::Node::Const(c) => Some(c.abs()),
                    _ => None,
                })
            });
        let powers_of_two = (0..52)
            .map(|shift| 1u64 << shift)
            .chain((1..2047).map(|e| e << 52))
            .map(f64::from_bits);
        let near_powers_of_ten = (-325..=308).flat_map(|k| {
            let bits = format!("1e{k}").parse::<f64>().unwrap().to_bits();
            (bits.saturating_sub(3)..=bits + 3).map(f64::from_bits)
        });
        // splitmix64 over the positive finite bit patterns.
        let mut state = 17u64;
        let random = std::iter::from_fn(|| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            Some(f64::from_bits((z ^ (z >> 31)) % 0x7ff0_0000_0000_0000))
        })
        .take(100_000);
        let values = suite_literals
            .chain(powers_of_two)
            .chain(near_powers_of_ten)
            .chain(random)
            .chain([0.0, f64::MAX, f64::MIN_POSITIVE, f64::from_bits(1)]);
        for value in values {
            assert_eq!(lexed_literal(value).to_bits(), value.to_bits(), "{value:e}");
        }
    }

    #[test]
    fn lexes_float_literals_with_suffix() {
        assert_eq!(kinds("5.1f"), vec![Token::Float(5.1)]);
        assert_eq!(kinds("12.25F"), vec![Token::Float(12.25)]);
        assert_eq!(kinds("118"), vec![Token::Int(118)]);
        assert_eq!(kinds("2e3"), vec![Token::Float(2000.0)]);
        assert_eq!(kinds("1.5e-2"), vec![Token::Float(0.015)]);
        assert_eq!(kinds(".5"), vec![Token::Float(0.5)]);
        assert_eq!(kinds("1f"), vec![Token::Float(1.0)]);
        assert_eq!(kinds("5.1fx"), vec![Token::Float(5.1), Token::Ident("x")]);
    }

    #[test]
    fn lexes_integers_as_it_scans_them() {
        assert_eq!(kinds("0"), vec![Token::Int(0)]);
        assert_eq!(kinds("118"), vec![Token::Int(118)]);
        assert_eq!(kinds("007;"), vec![Token::Int(7), Token::Semicolon]);
        let max = i64::MAX.to_string();
        assert_eq!(kinds(&max), vec![Token::Int(i64::MAX)]);
        let past = (i64::MAX as u64 + 1).to_string();
        assert_eq!(
            tokens(&format!("a {past}")).unwrap_err(),
            FrontendError::Lex {
                line: 1,
                column: 3,
                found: '9'
            }
        );
        // A run of digits that a float suffix, exponent or point follows is
        // a float; any other byte ends the integer.
        assert_eq!(kinds("1f"), vec![Token::Float(1.0)]);
        assert_eq!(kinds("2e3"), vec![Token::Float(2000.0)]);
        assert_eq!(kinds("3."), vec![Token::Float(3.0)]);
        assert_eq!(kinds("0x1"), vec![Token::Int(0), Token::Ident("x1")]);
    }

    #[test]
    fn lexes_two_character_operators() {
        assert_eq!(kinds("<="), vec![Token::LessEqual]);
        assert_eq!(kinds(">="), vec![Token::GreaterEqual]);
        assert_eq!(kinds("+="), vec![Token::PlusAssign]);
        assert_eq!(kinds("++"), vec![Token::Increment]);
        assert_eq!(kinds("+ +"), vec![Token::Plus, Token::Plus]);
    }

    #[test]
    fn skips_comments() {
        let k = kinds("a // comment\n + /* block \n comment */ b");
        assert_eq!(k, vec![Token::Ident("a"), Token::Plus, Token::Ident("b")]);
        assert_eq!(kinds("a /*/ b */ c"), kinds("a c"));
        assert_eq!(kinds("a // to the end"), kinds("a"));
    }

    #[test]
    fn skips_unicode_whitespace() {
        let k = kinds("a\u{a0}\u{2003}\u{b}\u{c}\r\n\u{3000}b");
        assert_eq!(k, vec![Token::Ident("a"), Token::Ident("b")]);
    }

    #[test]
    fn an_unterminated_comment_leaves_its_last_character() {
        assert_eq!(
            kinds("a /* b c"),
            vec![Token::Ident("a"), Token::Ident("c")]
        );
        assert_eq!(kinds("a /* b *"), vec![Token::Ident("a"), Token::Star]);
        assert_eq!(kinds("a /*"), vec![Token::Ident("a")]);
        assert_eq!(kinds("a /*+"), vec![Token::Ident("a"), Token::Plus]);
        let err = tokens("/* b é").unwrap_err();
        assert!(matches!(err, FrontendError::Lex { found: 'é', .. }));
    }

    #[test]
    fn tracks_positions() {
        let source = "a\n  b /* é */ c";
        let tokens = tokens(source).unwrap();
        let positions: Vec<_> = tokens
            .iter()
            .map(|&(_, offset)| Lexer::new(source).line_column(offset))
            .collect();
        assert_eq!(positions, vec![(1, 1), (2, 3), (2, 13)]);
    }

    #[test]
    fn rejects_unknown_characters() {
        let err = tokens("a @ b").unwrap_err();
        assert_eq!(
            err,
            FrontendError::Lex {
                line: 1,
                column: 3,
                found: '@'
            }
        );
        let err = tokens("a\n é").unwrap_err();
        assert_eq!(
            err,
            FrontendError::Lex {
                line: 2,
                column: 2,
                found: 'é'
            }
        );
    }

    #[test]
    fn rejects_malformed_numbers_at_their_first_character() {
        for source in ["1e+", "1.2.3", "99999999999999999999", "  2e"] {
            let err = tokens(source).unwrap_err();
            let first = source.trim_start().chars().next().unwrap();
            assert!(
                matches!(err, FrontendError::Lex { found, .. } if found == first),
                "{source}: {err}"
            );
        }
    }

    #[test]
    fn rejects_floats_that_overflow_at_their_first_character() {
        for (source, column) in [
            ("1e999f", 1),
            ("a * 1e999", 5),
            ("-2.5e400F", 2),
            (".9e309", 1),
        ] {
            assert_eq!(
                tokens(source).unwrap_err(),
                FrontendError::Lex {
                    line: 1,
                    column,
                    found: source[column - 1..].chars().next().unwrap()
                },
                "{source}"
            );
        }
        // The largest finite float, and one that underflows to zero, are
        // literals.
        assert_eq!(
            kinds("1.7976931348623157e308"),
            vec![Token::Float(f64::MAX)]
        );
        assert_eq!(kinds("1e-999f"), vec![Token::Float(0.0)]);
    }

    #[test]
    fn lexes_array_access_with_modulo() {
        let k = kinds("A[(t+1)%2][i][j-1]");
        assert!(k.contains(&Token::Percent));
        assert_eq!(k.iter().filter(|t| **t == Token::LBracket).count(), 3);
        assert!(k.contains(&Token::Minus));
    }

    #[test]
    fn token_kinds_display() {
        assert_eq!(Token::Ident("for").to_string(), "identifier 'for'");
        assert_eq!(Token::Int(42).to_string(), "integer 42");
        assert_eq!(Token::Float(0.5).to_string(), "float 0.5");
        assert_eq!(Token::LessEqual.to_string(), "'<='");
        assert_eq!(Token::Increment.to_string(), "'++'");
        assert_eq!(Token::LBrace.to_string(), "'{'");
        assert_eq!(Token::Eof.to_string(), "end of input");
    }
}
