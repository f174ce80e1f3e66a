//! A restricted fixed-form FORTRAN 77 frontend: enough of the language to
//! accept the paper's Figure 2 (the CHOLSKY NAS kernel) as written —
//! labeled `DO` loops with shared terminators, `CONTINUE`, assignment
//! statements, `REAL` declarations with explicit bounds, and the
//! arithmetic intrinsics. Everything is translated into the [`tiny`
//! AST](crate::ast), so the dependence analyses run unchanged.
//!
//! Supported:
//!
//! * fixed-form comments (`C`, `c`, `*`, `!` in column 1) and column-6
//!   continuation lines;
//! * statement labels (columns 1–5) terminating one or more `DO` loops,
//!   including loops sharing one terminator (`DO 3 … DO 3 … 3 A(…) = …`);
//! * `DO label var = lo, hi [, step]` with a positive constant step;
//! * assignments `lhs = expr` with `**` powers (small constant exponents
//!   are expanded to products; everything else becomes an opaque `pow`);
//! * `REAL`/`INTEGER` declarations (`REAL A(0:IDA, -M:0, 0:N)`);
//! * `SUBROUTINE`, `DATA`, `RETURN`, `END` (recognized and skipped).

use crate::ast::{name_key, Access, ArrayDecl, Assign, BinOp, Expr, ForLoop, Program, Stmt};
use crate::error::{Error, Result};
use crate::lexer::lex;
use crate::token::{SpannedToken, Token};

/// Parses a fixed-form FORTRAN subset into a tiny [`Program`].
///
/// # Errors
///
/// Returns positioned parse errors for unsupported constructs.
///
/// # Examples
///
/// ```
/// let program = tiny::fortran::parse(
///     "      DO 1 I = 1, N
///       A(I) = A(I-1)
///     1 CONTINUE
///       END",
/// )?;
/// assert_eq!(program.stmts.len(), 1);
/// # Ok::<(), tiny::Error>(())
/// ```
pub fn parse(src: &str) -> Result<Program> {
    let logical = logical_lines(src);
    let mut program = Program::default();
    let mut next_stmt_label = 1usize;

    // The loop stack: (terminator label, ForLoop under construction).
    let mut stack: Vec<(u64, ForLoop)> = Vec::new();

    // Pushes a finished statement into the innermost open loop (or the
    // program).
    fn push_stmt(program: &mut Program, stack: &mut [(u64, ForLoop)], s: Stmt) {
        if let Some((_, f)) = stack.last_mut() {
            f.body.push(s);
        } else {
            program.stmts.push(s);
        }
    }

    // Closes every loop awaiting `label` (innermost first).
    fn close_loops(program: &mut Program, stack: &mut Vec<(u64, ForLoop)>, label: u64) {
        while stack.last().is_some_and(|(l, _)| *l == label) {
            let (_, f) = stack.pop().expect("non-empty");
            push_stmt(program, stack, Stmt::For(f));
        }
    }

    for line in logical {
        let mut p = LineParser::new(&line.text, line.line_no)?;
        match p.classify()? {
            Classified::Skip => {}
            Classified::Declaration => {
                p.declarations(&mut program)?;
            }
            Classified::Do => {
                let (terminator, var, lo, hi, step) = p.do_stmt()?;
                stack.push((
                    terminator,
                    ForLoop {
                        var,
                        lower: lo,
                        upper: hi,
                        step,
                        body: Vec::new(),
                    },
                ));
            }
            Classified::Continue => {
                // A labeled CONTINUE only terminates loops.
            }
            Classified::Assignment => {
                let (lhs, rhs) = p.assignment()?;
                let s = Stmt::Assign(Assign {
                    label: next_stmt_label,
                    lhs,
                    rhs,
                });
                next_stmt_label += 1;
                push_stmt(&mut program, &mut stack, s);
            }
        }
        if let Some(label) = line.label {
            close_loops(&mut program, &mut stack, label);
        }
    }
    if let Some((label, _)) = stack.last() {
        return Err(Error::Parse {
            line: 0,
            col: 0,
            message: format!("unterminated DO loop awaiting label {label}"),
        });
    }
    // `DO K = N, 0, -1` loops are normalized automatically — the very
    // preprocessing the paper's authors applied to CHOLSKY by hand.
    crate::loop_normalize::normalize_steps(&program)
}

/// A logical (continuation-joined) source line.
struct LogicalLine {
    label: Option<u64>,
    text: String,
    line_no: u32,
}

/// Splits fixed-form source into logical lines: strips comments, joins
/// continuations, extracts labels.
fn logical_lines(src: &str) -> Vec<LogicalLine> {
    let mut out: Vec<LogicalLine> = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let first = raw.chars().next().unwrap_or(' ');
        if matches!(first, 'C' | 'c' | '*' | '!') || raw.trim().is_empty() {
            continue;
        }
        // Continuation: any non-blank, non-zero character in column 6.
        let cols: Vec<char> = raw.chars().collect();
        let is_continuation = cols.len() > 5
            && cols[5] != ' '
            && cols[5] != '0'
            && cols[..5].iter().all(|c| c.is_whitespace());
        if is_continuation {
            if let Some(prev) = out.last_mut() {
                prev.text.push(' ');
                prev.text.push_str(&raw[6.min(raw.len())..]);
                continue;
            }
        }
        // Label: digits in columns 1-5.
        let label_field: String = cols.iter().take(5).collect();
        let label = label_field.trim().parse::<u64>().ok();
        let body = if cols.len() > 6 {
            raw[6.min(raw.len())..].to_string()
        } else if label.is_some() {
            String::new()
        } else {
            raw.to_string()
        };
        // Tolerate free-form input too: when there is no label and the
        // line doesn't start with 6 blanks, keep the whole line.
        let text = if label.is_none() && !raw.starts_with("      ") {
            raw.trim().to_string()
        } else {
            body.trim().to_string()
        };
        out.push(LogicalLine {
            label,
            text,
            line_no,
        });
    }
    out
}

enum Classified {
    Skip,
    Declaration,
    Do,
    Continue,
    Assignment,
}

/// Token-level parser for one logical line.
struct LineParser {
    toks: Vec<SpannedToken>,
    pos: usize,
    line_no: u32,
}

impl LineParser {
    fn new(text: &str, line_no: u32) -> Result<LineParser> {
        Ok(LineParser {
            toks: lex(text)?,
            pos: 0,
            line_no,
        })
    }

    fn peek(&self) -> &Token {
        &self.toks[self.pos].token
    }

    fn peek_at(&self, n: usize) -> &Token {
        &self.toks[(self.pos + n).min(self.toks.len() - 1)].token
    }

    fn advance(&mut self) -> Token {
        let t = self.toks[self.pos].token.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(Error::Parse {
            line: self.line_no,
            col: self.toks[self.pos].col,
            message: message.into(),
        })
    }

    fn expect(&mut self, want: &Token) -> Result<()> {
        if self.peek() == want {
            self.advance();
            Ok(())
        } else {
            self.err(format!("expected {want}, found {}", self.peek()))
        }
    }

    fn classify(&mut self) -> Result<Classified> {
        let kw = match self.peek() {
            Token::Ident(s) => name_key(s),
            Token::Real | Token::IntKw => return Ok(Classified::Declaration),
            Token::Do => "do".to_string(),
            Token::Eof => return Ok(Classified::Skip),
            _ => String::new(),
        };
        Ok(match kw.as_str() {
            "do" => Classified::Do,
            "continue" => Classified::Continue,
            "integer" => Classified::Declaration,
            "subroutine" | "data" | "return" | "end" | "implicit" | "dimension" | "parameter" => {
                Classified::Skip
            }
            "real" => Classified::Declaration,
            _ => Classified::Assignment,
        })
    }

    /// `DO label var = lo, hi [, step]`
    fn do_stmt(&mut self) -> Result<(u64, String, Expr, Expr, i64)> {
        self.expect(&Token::Do)?;
        let terminator = match self.advance() {
            Token::Int(n) if n > 0 => n as u64,
            other => return self.err(format!("expected DO terminator label, found {other}")),
        };
        let var = match self.advance() {
            Token::Ident(s) => s,
            other => return self.err(format!("expected loop variable, found {other}")),
        };
        self.expect(&Token::Eq)?;
        let lo = self.expr()?;
        self.expect(&Token::Comma)?;
        let hi = self.expr()?;
        let step = if self.peek() == &Token::Comma {
            self.advance();
            match self.expr()? {
                Expr::Int(n) if n >= 1 || n == -1 => n,
                Expr::Int(_) => {
                    return self.err(
                        "DO steps other than positive constants and -1 are \
                         unsupported: normalize the loop first",
                    )
                }
                _ => return self.err("DO steps must be integer constants"),
            }
        } else {
            1
        };
        Ok((terminator, var, lo, hi, step))
    }

    /// `REAL A(0:IDA, -M:0, 0:N), B(...), EPSS(0:256)`
    fn declarations(&mut self, program: &mut Program) -> Result<()> {
        self.advance(); // REAL | INTEGER
        loop {
            let name = match self.advance() {
                Token::Ident(s) => s,
                Token::Eof => break,
                other => return self.err(format!("expected array name, found {other}")),
            };
            let mut dims = Vec::new();
            if self.peek() == &Token::LParen {
                self.advance();
                loop {
                    let first = self.expr()?;
                    let dim = if self.peek() == &Token::Colon {
                        self.advance();
                        (first, self.expr()?)
                    } else {
                        (Expr::Int(1), first)
                    };
                    dims.push(dim);
                    if self.peek() == &Token::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            }
            program
                .arrays
                .insert(name_key(&name), ArrayDecl { name, dims });
            if self.peek() == &Token::Comma {
                self.advance();
            } else {
                break;
            }
        }
        Ok(())
    }

    /// `lhs = rhs`
    fn assignment(&mut self) -> Result<(Access, Expr)> {
        let array = match self.advance() {
            Token::Ident(s) => s,
            other => return self.err(format!("expected an assignment, found {other}")),
        };
        let subs = if self.peek() == &Token::LParen {
            self.advance();
            let mut subs = Vec::new();
            loop {
                subs.push(self.expr()?);
                if self.peek() == &Token::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            subs
        } else {
            Vec::new()
        };
        self.expect(&Token::Eq)?;
        let rhs = self.expr()?;
        Ok((Access { array, subs }, rhs))
    }

    fn expr(&mut self) -> Result<Expr> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.mul_expr()?;
            e = Expr::bin(op, e, rhs);
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut e = self.power()?;
        loop {
            let op = match self.peek() {
                // `**` lexes as two stars; it is handled in power().
                Token::Star if self.peek_at(1) != &Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                _ => break,
            };
            self.advance();
            let rhs = self.power()?;
            e = Expr::bin(op, e, rhs);
        }
        Ok(e)
    }

    /// Handles `a ** k`: small constant exponents expand to products, so
    /// `A(L,JJ,J) ** 2` reads the element twice just like the paper's
    /// analysis sees it.
    fn power(&mut self) -> Result<Expr> {
        let base = self.unary()?;
        if self.peek() == &Token::Star && self.peek_at(1) == &Token::Star {
            self.advance();
            self.advance();
            let exp = self.unary()?;
            return Ok(match exp {
                Expr::Int(n) if (1..=4).contains(&n) => {
                    let mut e = base.clone();
                    for _ in 1..n {
                        e = Expr::bin(BinOp::Mul, e, base.clone());
                    }
                    e
                }
                other => Expr::Call("pow".into(), vec![base, other]),
            });
        }
        Ok(base)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.peek() == &Token::Minus {
            self.advance();
            return Ok(match self.unary()? {
                Expr::Int(n) => Expr::Int(-n),
                other => Expr::Neg(Box::new(other)),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Token::Int(n) => {
                self.advance();
                Ok(Expr::Int(n))
            }
            Token::Float(text) => {
                // Floating constants never affect subscripts or bounds;
                // treat them as opaque symbolic values.
                self.advance();
                let name = format!("fconst_{}", text.replace(['.', '+', '-'], "_"));
                Ok(Expr::Var(name))
            }
            Token::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                self.advance();
                if self.peek() == &Token::LParen {
                    self.advance();
                    let mut args = Vec::new();
                    loop {
                        args.push(self.expr()?);
                        if self.peek() == &Token::Comma {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                    self.expect(&Token::RParen)?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => self.err(format!("expected an expression, found {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_do_loop() {
        let p = parse(
            "      DO 1 I = 1, N
      A(I) = A(I-1) + B(I)
    1 CONTINUE
      END",
        )
        .unwrap();
        assert_eq!(p.stmts.len(), 1);
        let Stmt::For(f) = &p.stmts[0] else { panic!() };
        assert_eq!(name_key(&f.var), "i");
        assert_eq!(f.body.len(), 1);
    }

    #[test]
    fn shared_terminator_closes_both_loops() {
        let p = parse(
            "      DO 2 I = 1, N
      DO 2 J = 1, M
    2 A(I,J) = 0",
        )
        .unwrap();
        assert_eq!(p.stmts.len(), 1);
        let Stmt::For(outer) = &p.stmts[0] else {
            panic!()
        };
        assert_eq!(outer.body.len(), 1);
        let Stmt::For(inner) = &outer.body[0] else {
            panic!()
        };
        // The labeled assignment is inside the INNER loop.
        assert_eq!(inner.body.len(), 1);
        assert!(matches!(inner.body[0], Stmt::Assign(_)));
    }

    #[test]
    fn declarations_with_negative_bounds() {
        let p = parse("      REAL A(0:IDA, -M:0, 0:N), EPSS(0:256)").unwrap();
        assert_eq!(p.arrays.len(), 2);
        let a = &p.arrays["a"];
        assert_eq!(a.dims.len(), 3);
        assert_eq!(a.dims[1].0, Expr::Neg(Box::new(Expr::Var("M".into()))));
    }

    #[test]
    fn power_expands_to_product() {
        let p = parse("      X = A(L,JJ,J) ** 2").unwrap();
        let Stmt::Assign(a) = &p.stmts[0] else {
            panic!()
        };
        let Expr::Bin(BinOp::Mul, l, r) = &a.rhs else {
            panic!("expected product, got {:?}", a.rhs)
        };
        assert_eq!(l, r);
    }

    #[test]
    fn continuation_lines_join() {
        let p = parse(
            "      B(I,L,K+JJ) = B(I,L,K+JJ) -
     &   A(L,-JJ,K+JJ) * B(I,L,K)",
        )
        .unwrap();
        let Stmt::Assign(a) = &p.stmts[0] else {
            panic!()
        };
        // All three reads present on the joined line.
        let mut reads = 0;
        a.rhs.walk(&mut |e| {
            if matches!(e, Expr::Call(n, _) if !Expr::is_intrinsic_name(n)) {
                reads += 1;
            }
        });
        assert_eq!(reads, 3);
    }

    #[test]
    fn step_minus_one_is_normalized_automatically() {
        let p = parse(
            "      DO 1 K = N, 0, -1
    1 A(K) = A(K+1)",
        )
        .unwrap();
        let Stmt::For(f) = &p.stmts[0] else { panic!() };
        assert_eq!(f.step, 1, "normalized to ascending");
        assert_eq!(f.lower, Expr::Int(0));
        // Other negative steps still carry guidance.
        let err = parse("      DO 1 K = N, 0, -2\n    1 CONTINUE").unwrap_err();
        assert!(err.to_string().contains("-1"), "{err}");
    }

    #[test]
    fn skips_subroutine_data_return_end() {
        let p = parse(
            "      SUBROUTINE CHOLSKY (IDA, NMAT)
      DATA EPS/1E-13/
      DO 1 I = 1, N
    1 A(I) = 0
      RETURN
      END",
        );
        // DATA lines contain '/' tokens; they are skipped before parsing
        // the payload, so this must succeed.
        let p = p.unwrap();
        assert_eq!(p.stmts.len(), 1);
    }
}
