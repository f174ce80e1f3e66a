//! Hand-written lexer for the tiny loop language.

use crate::error::{Error, Result};
use crate::token::{SpannedToken, Token};

/// Tokenizes a source string.
///
/// Comments run from `//` or `--` to end of line. Keywords are
/// case-insensitive (the corpus mixes Fortran-style upper case with
/// lower-case pseudocode); identifiers preserve their case but compare
/// case-insensitively downstream.
///
/// # Errors
///
/// Returns [`Error::Lex`] on an unexpected character or an integer literal
/// that does not fit `i64`.
///
/// # Examples
///
/// ```
/// use tiny::lexer::lex;
/// use tiny::token::Token;
///
/// let toks = lex("for i := 1 to n do")?;
/// assert_eq!(toks[0].token, Token::For);
/// assert_eq!(toks[1].token, Token::Ident("i".into()));
/// # Ok::<(), tiny::Error>(())
/// ```
pub fn lex(src: &str) -> Result<Vec<SpannedToken>> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let (mut line, mut col) = (1u32, 1u32);

    macro_rules! push {
        ($tok:expr, $len:expr) => {{
            out.push(SpannedToken {
                token: $tok,
                line,
                col,
            });
            i += $len;
            col += $len as u32;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => skip_line(bytes, &mut i),
            '-' if bytes.get(i + 1) == Some(&b'-') => skip_line(bytes, &mut i),
            '(' => push!(Token::LParen, 1),
            ')' => push!(Token::RParen, 1),
            '[' => push!(Token::LBracket, 1),
            ']' => push!(Token::RBracket, 1),
            ',' => push!(Token::Comma, 1),
            ';' => push!(Token::Semi, 1),
            '+' => push!(Token::Plus, 1),
            '-' => push!(Token::Minus, 1),
            '*' => push!(Token::Star, 1),
            '/' => push!(Token::Slash, 1),
            '=' => push!(Token::Eq, 1),
            ':' if bytes.get(i + 1) == Some(&b'=') => push!(Token::Assign, 2),
            ':' => push!(Token::Colon, 1),
            '<' if bytes.get(i + 1) == Some(&b'=') => push!(Token::Le, 2),
            '<' => push!(Token::Lt, 1),
            '>' if bytes.get(i + 1) == Some(&b'=') => push!(Token::Ge, 2),
            '>' => push!(Token::Gt, 1),
            '!' if bytes.get(i + 1) == Some(&b'=') => push!(Token::Ne, 2),
            '&' if bytes.get(i + 1) == Some(&b'&') => push!(Token::And, 2),
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                // Float forms (Fortran constants): `1.`, `1.5`, `1E-13`,
                // `2.5e+3`. Kept as text; opaque to the analysis.
                let mut is_float = false;
                if i < bytes.len() && bytes[i] == b'.' {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len()
                    && (bytes[i] == b'e' || bytes[i] == b'E')
                    && (bytes.get(i + 1).is_some_and(|c| c.is_ascii_digit())
                        || (matches!(bytes.get(i + 1), Some(b'+') | Some(b'-'))
                            && bytes.get(i + 2).is_some_and(|c| c.is_ascii_digit())))
                {
                    is_float = true;
                    i += 1; // e/E
                    if matches!(bytes[i], b'+' | b'-') {
                        i += 1;
                    }
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                let token = if is_float {
                    Token::Float(text.to_string())
                } else {
                    Token::Int(text.parse().map_err(|_| Error::Lex {
                        line,
                        col,
                        message: format!("integer literal `{text}` out of range"),
                    })?)
                };
                out.push(SpannedToken { token, line, col });
                col += (i - start) as u32;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let text = &src[start..i];
                let token = match text.to_ascii_lowercase().as_str() {
                    "for" => Token::For,
                    "to" => Token::To,
                    "step" => Token::Step,
                    "do" => Token::Do,
                    "endfor" => Token::EndFor,
                    "if" => Token::If,
                    "then" => Token::Then,
                    "else" => Token::Else,
                    "endif" => Token::EndIf,
                    "sym" => Token::Sym,
                    "real" => Token::Real,
                    "int" => Token::IntKw,
                    "assume" => Token::Assume,
                    "and" => Token::And,
                    _ => Token::Ident(text.to_string()),
                };
                out.push(SpannedToken { token, line, col });
                col += (i - start) as u32;
            }
            other => {
                return Err(Error::Lex {
                    line,
                    col,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    out.push(SpannedToken {
        token: Token::Eof,
        line,
        col,
    });
    Ok(out)
}

fn skip_line(bytes: &[u8], i: &mut usize) {
    while *i < bytes.len() && bytes[*i] != b'\n' {
        *i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn keywords_and_identifiers() {
        assert_eq!(
            kinds("for L1 := 1 to n do endfor"),
            vec![
                Token::For,
                Token::Ident("L1".into()),
                Token::Assign,
                Token::Int(1),
                Token::To,
                Token::Ident("n".into()),
                Token::Do,
                Token::EndFor,
                Token::Eof
            ]
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(kinds("FOR")[0], Token::For);
        assert_eq!(kinds("EndFor")[0], Token::EndFor);
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("a(i) := a(i-1) * 2;"),
            vec![
                Token::Ident("a".into()),
                Token::LParen,
                Token::Ident("i".into()),
                Token::RParen,
                Token::Assign,
                Token::Ident("a".into()),
                Token::LParen,
                Token::Ident("i".into()),
                Token::Minus,
                Token::Int(1),
                Token::RParen,
                Token::Star,
                Token::Int(2),
                Token::Semi,
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("x // comment to eol\n-- also a comment\ny"),
            vec![
                Token::Ident("x".into()),
                Token::Ident("y".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("assume 1 <= n && n < m;"),
            vec![
                Token::Assume,
                Token::Int(1),
                Token::Le,
                Token::Ident("n".into()),
                Token::And,
                Token::Ident("n".into()),
                Token::Lt,
                Token::Ident("m".into()),
                Token::Semi,
                Token::Eof
            ]
        );
    }

    #[test]
    fn brackets_and_colon_ranges() {
        assert_eq!(
            kinds("A[1:n, 2]"),
            vec![
                Token::Ident("A".into()),
                Token::LBracket,
                Token::Int(1),
                Token::Colon,
                Token::Ident("n".into()),
                Token::Comma,
                Token::Int(2),
                Token::RBracket,
                Token::Eof
            ]
        );
    }

    #[test]
    fn line_and_column_tracking() {
        let toks = lex("x\n  y").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn float_literals() {
        assert_eq!(
            kinds("1. 2.5 1E-13 3e4 1e+2"),
            vec![
                Token::Float("1.".into()),
                Token::Float("2.5".into()),
                Token::Float("1E-13".into()),
                Token::Float("3e4".into()),
                Token::Float("1e+2".into()),
                Token::Eof
            ]
        );
        // Not floats: `1E` without digits (ident follows), plain ints.
        assert_eq!(
            kinds("12 1x"),
            vec![
                Token::Int(12),
                Token::Int(1),
                Token::Ident("x".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn bad_character_reports_position() {
        let err = lex("a ? b").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains('?'), "{msg}");
    }
}
