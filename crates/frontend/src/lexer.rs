//! Hand-written lexer for CHL.
//!
//! Supports `//` and `/* */` comments, decimal/hex/octal/binary integer
//! literals, character literals with the common escapes, and `#pragma` lines
//! (captured as single tokens; all other preprocessor lines are rejected —
//! CHL has no preprocessor).

use crate::diag::Diagnostic;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Lexes `src` into a token vector terminated by an [`TokenKind::Eof`] token.
///
/// # Errors
///
/// Returns a [`Diagnostic`] on the first lexical error (bad character,
/// unterminated comment or literal, malformed number).
pub fn lex(src: &str) -> Result<Vec<Token>, Diagnostic> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            tokens: Vec::new(),
        }
    }

    fn run(mut self) -> Result<Vec<Token>, Diagnostic> {
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let Some(c) = self.peek() else {
                self.push(TokenKind::Eof, start);
                return Ok(self.tokens);
            };
            match c {
                b'0'..=b'9' => self.lex_number(start)?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident(start),
                b'\'' => self.lex_char(start)?,
                b'#' => self.lex_pragma(start)?,
                _ => self.lex_operator(start)?,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, start: usize) {
        self.tokens.push(Token {
            kind,
            span: Span::new(start as u32, self.pos as u32),
        });
    }

    fn skip_trivia(&mut self) -> Result<(), Diagnostic> {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.pos += 1;
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.pos += 2;
                                break;
                            }
                            Some(_) => self.pos += 1,
                            None => {
                                return Err(Diagnostic::error(
                                    "unterminated block comment",
                                    Span::new(start as u32, self.pos as u32),
                                ));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_number(&mut self, start: usize) -> Result<(), Diagnostic> {
        let (radix, digits_start) = if self.peek() == Some(b'0') {
            match self.peek2() {
                Some(b'x' | b'X') => {
                    self.pos += 2;
                    (16, self.pos)
                }
                Some(b'b' | b'B') => {
                    self.pos += 2;
                    (2, self.pos)
                }
                Some(b'0'..=b'7') => {
                    self.pos += 1;
                    (8, self.pos)
                }
                _ => (10, self.pos),
            }
        } else {
            (10, self.pos)
        };
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text: String = self.src[digits_start..self.pos]
            .chars()
            .filter(|&c| c != '_')
            .collect();
        // Strip C integer suffixes (u, l, ul, ll, ull in any case).
        let trimmed = text.trim_end_matches(['u', 'U', 'l', 'L']);
        let span = Span::new(start as u32, self.pos as u32);
        if trimmed.is_empty() && radix != 10 {
            return Err(Diagnostic::error("missing digits in integer literal", span));
        }
        let digits = if trimmed.is_empty() { "0" } else { trimmed };
        let value = u64::from_str_radix(digits, radix)
            .map_err(|_| Diagnostic::error("invalid integer literal", span))?;
        self.push(TokenKind::IntLit(value), start);
        Ok(())
    }

    fn lex_ident(&mut self, start: usize) {
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        let kind = TokenKind::keyword(text).unwrap_or_else(|| TokenKind::Ident(text.to_string()));
        self.push(kind, start);
    }

    fn lex_char(&mut self, start: usize) -> Result<(), Diagnostic> {
        self.pos += 1; // opening quote
        let value = match self.bump() {
            Some(b'\\') => {
                let esc = self.bump().ok_or_else(|| {
                    Diagnostic::error(
                        "unterminated character literal",
                        Span::new(start as u32, self.pos as u32),
                    )
                })?;
                match esc {
                    b'n' => b'\n',
                    b't' => b'\t',
                    b'r' => b'\r',
                    b'0' => 0,
                    b'\\' => b'\\',
                    b'\'' => b'\'',
                    _ => {
                        return Err(Diagnostic::error(
                            "unknown escape in character literal",
                            Span::new(start as u32, self.pos as u32),
                        ));
                    }
                }
            }
            Some(c) if c != b'\'' && c != b'\n' => c,
            _ => {
                return Err(Diagnostic::error(
                    "empty or malformed character literal",
                    Span::new(start as u32, self.pos as u32),
                ));
            }
        };
        if self.bump() != Some(b'\'') {
            return Err(Diagnostic::error(
                "unterminated character literal",
                Span::new(start as u32, self.pos as u32),
            ));
        }
        self.push(TokenKind::CharLit(value), start);
        Ok(())
    }

    fn lex_pragma(&mut self, start: usize) -> Result<(), Diagnostic> {
        let line_end = self.src[self.pos..]
            .find('\n')
            .map(|i| self.pos + i)
            .unwrap_or(self.src.len());
        let line = &self.src[self.pos..line_end];
        let rest = line.strip_prefix('#').unwrap_or(line).trim_start();
        if let Some(body) = rest.strip_prefix("pragma") {
            self.pos = line_end;
            self.push(TokenKind::Pragma(body.trim().to_string()), start);
            Ok(())
        } else {
            Err(Diagnostic::error(
                "CHL has no preprocessor; only #pragma lines are accepted",
                Span::new(start as u32, (start + 1) as u32),
            ))
        }
    }

    fn lex_operator(&mut self, start: usize) -> Result<(), Diagnostic> {
        use TokenKind::*;
        let c = self.bump().expect("caller checked peek");
        let three = |l: &Lexer| (l.bytes.get(l.pos).copied(), l.bytes.get(l.pos + 1).copied());
        let kind = match c {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b':' => Colon,
            b'?' => Question,
            b'~' => Tilde,
            b'@' => At,
            b'+' => match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    PlusPlus
                }
                Some(b'=') => {
                    self.pos += 1;
                    PlusAssign
                }
                _ => Plus,
            },
            b'-' => match self.peek() {
                Some(b'-') => {
                    self.pos += 1;
                    MinusMinus
                }
                Some(b'=') => {
                    self.pos += 1;
                    MinusAssign
                }
                _ => Minus,
            },
            b'*' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    StarAssign
                }
                _ => Star,
            },
            b'/' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    SlashAssign
                }
                _ => Slash,
            },
            b'%' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    PercentAssign
                }
                _ => Percent,
            },
            b'&' => match self.peek() {
                Some(b'&') => {
                    self.pos += 1;
                    AmpAmp
                }
                Some(b'=') => {
                    self.pos += 1;
                    AmpAssign
                }
                _ => Amp,
            },
            b'|' => match self.peek() {
                Some(b'|') => {
                    self.pos += 1;
                    PipePipe
                }
                Some(b'=') => {
                    self.pos += 1;
                    PipeAssign
                }
                _ => Pipe,
            },
            b'^' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    CaretAssign
                }
                _ => Caret,
            },
            b'!' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    Ne
                }
                _ => Bang,
            },
            b'=' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    EqEq
                }
                _ => Assign,
            },
            b'<' => match three(self) {
                (Some(b'<'), Some(b'=')) => {
                    self.pos += 2;
                    ShlAssign
                }
                (Some(b'<'), _) => {
                    self.pos += 1;
                    Shl
                }
                (Some(b'='), _) => {
                    self.pos += 1;
                    Le
                }
                _ => Lt,
            },
            b'>' => match three(self) {
                (Some(b'>'), Some(b'=')) => {
                    self.pos += 2;
                    ShrAssign
                }
                (Some(b'>'), _) => {
                    self.pos += 1;
                    Shr
                }
                (Some(b'='), _) => {
                    self.pos += 1;
                    Ge
                }
                _ => Gt,
            },
            other => {
                return Err(Diagnostic::error(
                    format!("unexpected character `{}`", other as char),
                    Span::new(start as u32, self.pos as u32),
                ));
            }
        };
        self.push(kind, start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src)
            .expect("lex failed")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_simple_declaration() {
        assert_eq!(
            kinds("int x = 42;"),
            vec![KwInt, Ident("x".into()), Assign, IntLit(42), Semi, Eof]
        );
    }

    #[test]
    fn lexes_all_radixes() {
        assert_eq!(
            kinds("255 0xff 0b11111111 0377"),
            vec![IntLit(255), IntLit(255), IntLit(255), IntLit(255), Eof]
        );
    }

    #[test]
    fn integer_suffixes_are_ignored() {
        assert_eq!(
            kinds("1u 2UL 3ll"),
            vec![IntLit(1), IntLit(2), IntLit(3), Eof]
        );
    }

    #[test]
    fn lexes_compound_operators() {
        assert_eq!(
            kinds("a <<= b >>= c <= >= == != && || ++ --"),
            vec![
                Ident("a".into()),
                ShlAssign,
                Ident("b".into()),
                ShrAssign,
                Ident("c".into()),
                Le,
                Ge,
                EqEq,
                Ne,
                AmpAmp,
                PipePipe,
                PlusPlus,
                MinusMinus,
                Eof
            ]
        );
    }

    #[test]
    fn shift_vs_nested_angle() {
        // `uint<8>` must lex `<` `8` `>` not `<8` as anything special.
        assert_eq!(kinds("uint<8>"), vec![KwUint, Lt, IntLit(8), Gt, Eof]);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // line\n /* block\n spanning */ b"),
            vec![Ident("a".into()), Ident("b".into()), Eof]
        );
    }

    #[test]
    fn unterminated_block_comment_is_error() {
        assert!(lex("/* oops").is_err());
    }

    #[test]
    fn char_literals_and_escapes() {
        assert_eq!(
            kinds(r"'a' '\n' '\0' '\\'"),
            vec![
                CharLit(b'a'),
                CharLit(b'\n'),
                CharLit(0),
                CharLit(b'\\'),
                Eof
            ]
        );
    }

    #[test]
    fn pragma_is_one_token() {
        assert_eq!(
            kinds("#pragma unroll 4\nint x;"),
            vec![
                Pragma("unroll 4".into()),
                KwInt,
                Ident("x".into()),
                Semi,
                Eof
            ]
        );
    }

    #[test]
    fn non_pragma_hash_rejected() {
        assert!(lex("#include <stdio.h>").is_err());
    }

    #[test]
    fn bad_character_is_error() {
        let err = lex("int $x;").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn spans_are_correct() {
        let toks = lex("ab + cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 4));
        assert_eq!(toks[2].span, Span::new(5, 7));
    }

    #[test]
    fn keywords_not_identifiers() {
        assert_eq!(kinds("while par chan"), vec![KwWhile, KwPar, KwChan, Eof]);
        // Prefixed identifiers stay identifiers.
        assert_eq!(kinds("whilex"), vec![Ident("whilex".into()), Eof]);
    }
}
