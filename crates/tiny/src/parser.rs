//! Recursive-descent parser for the tiny loop language.
//!
//! ```text
//! program    := item*
//! item       := "sym" ident ("," ident)* ";"
//!             | ("real"|"int") decl ("," decl)* ";"
//!             | "assume" chain ("&&" chain)* ";"
//!             | stmt
//! decl       := ident "[" dim ("," dim)* "]"
//! dim        := expr [":" expr]            -- single expr means 1:expr
//! stmt       := for | assign
//! for        := "for" ident ":=" expr "to" expr ["step" int] "do"
//!                   stmt* "endfor"
//! assign     := ident [subs] ":=" expr ";"
//! subs       := "(" expr,* ")" | "[" expr,* "]"
//! chain      := expr (relop expr)+         -- chains: a <= b <= c
//! expr       := mul (("+"|"-") mul)*
//! mul        := unary (("*"|"/") unary)*
//! unary      := "-" unary | primary
//! primary    := int | ident [subs] | "(" expr ")"
//! ```

use crate::ast::{
    Access, ArrayDecl, Assign, BinOp, Expr, ForLoop, IfStmt, Program, RelOp, Relation, Stmt,
};
use crate::error::{Error, Result};
use crate::lexer::lex;
use crate::token::{SpannedToken, Token};

/// Parses a complete program. See [`Program::parse`].
///
/// # Errors
///
/// Returns positioned lexical and parse errors.
pub fn parse(src: &str) -> Result<Program> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        next_label: 1,
    };
    p.program()
}

struct Parser {
    toks: Vec<SpannedToken>,
    pos: usize,
    next_label: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.pos].token
    }

    fn advance(&mut self) -> Token {
        let t = self.toks[self.pos].token.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        let t = &self.toks[self.pos];
        Err(Error::Parse {
            line: t.line,
            col: t.col,
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

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            Token::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => self.err(format!("expected an identifier, found {other}")),
        }
    }

    fn program(&mut self) -> Result<Program> {
        let mut prog = Program::default();
        while self.peek() != &Token::Eof {
            match self.peek() {
                Token::Sym => self.sym_decl(&mut prog)?,
                Token::Real | Token::IntKw => self.array_decl(&mut prog)?,
                Token::Assume => self.assume(&mut prog)?,
                _ => {
                    let s = self.stmt()?;
                    prog.stmts.push(s);
                }
            }
        }
        Ok(prog)
    }

    fn sym_decl(&mut self, prog: &mut Program) -> Result<()> {
        self.expect(&Token::Sym)?;
        loop {
            prog.syms.push(self.ident()?);
            if self.peek() == &Token::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&Token::Semi)
    }

    fn array_decl(&mut self, prog: &mut Program) -> Result<()> {
        self.advance(); // real | int
        loop {
            let name = self.ident()?;
            let mut dims = Vec::new();
            if self.peek() == &Token::LBracket {
                self.advance();
                loop {
                    let first = self.expr()?;
                    let dim = if self.peek() == &Token::Colon {
                        self.advance();
                        let hi = self.expr()?;
                        (first, hi)
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
                self.expect(&Token::RBracket)?;
            }
            prog.arrays
                .insert(crate::ast::name_key(&name), ArrayDecl { name, dims });
            if self.peek() == &Token::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&Token::Semi)
    }

    fn assume(&mut self, prog: &mut Program) -> Result<()> {
        self.expect(&Token::Assume)?;
        loop {
            self.relation_chain(prog)?;
            if self.peek() == &Token::And {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&Token::Semi)
    }

    fn relation_chain(&mut self, prog: &mut Program) -> Result<()> {
        let mut lhs = self.expr()?;
        let mut any = false;
        while let Some(op) = self.rel_op() {
            self.advance();
            let rhs = self.expr()?;
            prog.assumptions.push(Relation {
                lhs: lhs.clone(),
                op,
                rhs: rhs.clone(),
            });
            lhs = rhs;
            any = true;
        }
        if !any {
            return self.err("expected a relational operator in assume clause");
        }
        Ok(())
    }

    fn rel_op(&self) -> Option<RelOp> {
        match self.peek() {
            Token::Le => Some(RelOp::Le),
            Token::Lt => Some(RelOp::Lt),
            Token::Ge => Some(RelOp::Ge),
            Token::Gt => Some(RelOp::Gt),
            Token::Eq => Some(RelOp::Eq),
            Token::Ne => Some(RelOp::Ne),
            _ => None,
        }
    }

    fn stmt(&mut self) -> Result<Stmt> {
        match self.peek() {
            Token::For => self.for_loop().map(Stmt::For),
            Token::If => self.if_stmt().map(Stmt::If),
            Token::Ident(_) => self.assign().map(Stmt::Assign),
            other => self.err(format!("expected a statement, found {other}")),
        }
    }

    fn if_stmt(&mut self) -> Result<IfStmt> {
        self.expect(&Token::If)?;
        let mut conds = Vec::new();
        loop {
            // A chain `a <= b <= c` contributes several relations.
            let mut lhs = self.expr()?;
            let mut any = false;
            while let Some(op) = self.rel_op() {
                self.advance();
                let rhs = self.expr()?;
                conds.push(Relation {
                    lhs: lhs.clone(),
                    op,
                    rhs: rhs.clone(),
                });
                lhs = rhs;
                any = true;
            }
            if !any {
                return self.err("expected a relation in if condition");
            }
            if self.peek() == &Token::And {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&Token::Then)?;
        let mut then_body = Vec::new();
        while !matches!(self.peek(), Token::Else | Token::EndIf) {
            if self.peek() == &Token::Eof {
                return self.err("unterminated if: expected `endif`");
            }
            then_body.push(self.stmt()?);
        }
        let mut else_body = Vec::new();
        if self.peek() == &Token::Else {
            self.advance();
            while self.peek() != &Token::EndIf {
                if self.peek() == &Token::Eof {
                    return self.err("unterminated else: expected `endif`");
                }
                else_body.push(self.stmt()?);
            }
        }
        self.expect(&Token::EndIf)?;
        Ok(IfStmt {
            conds,
            then_body,
            else_body,
        })
    }

    fn for_loop(&mut self) -> Result<ForLoop> {
        self.expect(&Token::For)?;
        let var = self.ident()?;
        self.expect(&Token::Assign)?;
        let lower = self.expr()?;
        self.expect(&Token::To)?;
        let upper = self.expr()?;
        let step = if self.peek() == &Token::Step {
            self.advance();
            let neg = if self.peek() == &Token::Minus {
                self.advance();
                true
            } else {
                false
            };
            match self.advance() {
                Token::Int(n) if !neg && n >= 1 => n,
                Token::Int(_) => {
                    return self.err(
                        "loop steps must be positive integer constants \
                         (normalize the loop first, as the paper does for CHOLSKY)",
                    )
                }
                other => return self.err(format!("expected step constant, found {other}")),
            }
        } else {
            1
        };
        self.expect(&Token::Do)?;
        let mut body = Vec::new();
        while self.peek() != &Token::EndFor {
            if self.peek() == &Token::Eof {
                return self.err("unterminated loop: expected `endfor`");
            }
            body.push(self.stmt()?);
        }
        self.expect(&Token::EndFor)?;
        Ok(ForLoop {
            var,
            lower,
            upper,
            step,
            body,
        })
    }

    fn assign(&mut self) -> Result<Assign> {
        let array = self.ident()?;
        let subs = if matches!(self.peek(), Token::LParen | Token::LBracket) {
            self.subscripts()?
        } else {
            Vec::new()
        };
        self.expect(&Token::Assign)?;
        let rhs = self.expr()?;
        self.expect(&Token::Semi)?;
        let label = self.next_label;
        self.next_label += 1;
        Ok(Assign {
            label,
            lhs: Access { array, subs },
            rhs,
        })
    }

    fn subscripts(&mut self) -> Result<Vec<Expr>> {
        let close = match self.advance() {
            Token::LParen => Token::RParen,
            Token::LBracket => Token::RBracket,
            other => return self.err(format!("expected `(` or `[`, found {other}")),
        };
        let mut subs = Vec::new();
        loop {
            subs.push(self.expr()?);
            if self.peek() == &Token::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&close)?;
        Ok(subs)
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
        let mut e = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                _ => break,
            };
            self.advance();
            let rhs = self.unary()?;
            e = Expr::bin(op, e, rhs);
        }
        Ok(e)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.peek() == &Token::Minus {
            self.advance();
            // Fold negated literals so `-1` is `Int(-1)`, keeping the
            // print/parse round trip exact.
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
            Token::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                // `name(...)` or `name[...]` is an access/call; a bare
                // name is a scalar. Careful: `a (i) := ...` only occurs at
                // statement level, so consuming the parens here is safe.
                self.advance();
                if matches!(self.peek(), Token::LParen | Token::LBracket) {
                    let args = self.subscripts()?;
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
    fn parses_simple_loop() {
        let p = parse("for i := 1 to n do a(i) := a(i-1); endfor").unwrap();
        assert_eq!(p.stmts.len(), 1);
        let Stmt::For(f) = &p.stmts[0] else {
            panic!("expected a loop")
        };
        assert_eq!(f.var, "i");
        assert_eq!(f.step, 1);
        assert_eq!(f.body.len(), 1);
        let Stmt::Assign(a) = &f.body[0] else {
            panic!("expected an assignment")
        };
        assert_eq!(a.label, 1);
        assert_eq!(a.lhs.array, "a");
        assert_eq!(a.lhs.subs.len(), 1);
    }

    #[test]
    fn parses_nested_loops_and_labels_in_source_order() {
        let src = "
            for i := 1 to n do
              for j := i to m do
                a(i,j) := a(i-1,j) + a(i,j-1);
              endfor
              b(i) := a(i,m);
            endfor
        ";
        let p = parse(src).unwrap();
        let Stmt::For(outer) = &p.stmts[0] else {
            panic!()
        };
        assert_eq!(outer.body.len(), 2);
        let Stmt::For(inner) = &outer.body[0] else {
            panic!()
        };
        let Stmt::Assign(a1) = &inner.body[0] else {
            panic!()
        };
        let Stmt::Assign(a2) = &outer.body[1] else {
            panic!()
        };
        assert_eq!(a1.label, 1);
        assert_eq!(a2.label, 2);
    }

    #[test]
    fn parses_max_bound() {
        let p = parse("for jj := max(-m,-j) - i to -1 do a(jj) := 0; endfor").unwrap();
        let Stmt::For(f) = &p.stmts[0] else { panic!() };
        assert!(matches!(
            &f.lower,
            Expr::Bin(BinOp::Sub, l, _) if matches!(&**l, Expr::Call(n, _) if n == "max")
        ));
    }

    #[test]
    fn parses_step() {
        let p = parse("for i := 1 to n step 2 do a(i) := 0; endfor").unwrap();
        let Stmt::For(f) = &p.stmts[0] else { panic!() };
        assert_eq!(f.step, 2);
        assert!(parse("for i := 1 to n step -1 do a(i) := 0; endfor").is_err());
        assert!(parse("for i := 1 to n step 0 do a(i) := 0; endfor").is_err());
    }

    #[test]
    fn parses_declarations() {
        let p = parse("sym n, m; real A[1:n, 1:m], C[1:n, 1:m]; int Q[1:n];").unwrap();
        assert_eq!(p.syms, vec!["n", "m"]);
        assert_eq!(p.arrays.len(), 3);
        assert_eq!(p.arrays["a"].dims.len(), 2);
        assert_eq!(p.arrays["q"].dims.len(), 1);
    }

    #[test]
    fn parses_assume_chains() {
        let p = parse("sym n, m; assume 50 <= n <= 100 && m > 0;").unwrap();
        assert_eq!(p.assumptions.len(), 3);
        assert_eq!(p.assumptions[0].op, RelOp::Le);
        assert_eq!(p.assumptions[2].op, RelOp::Gt);
    }

    #[test]
    fn parses_scalar_assignment() {
        let p = parse("k := k + j;").unwrap();
        let Stmt::Assign(a) = &p.stmts[0] else {
            panic!()
        };
        assert!(a.lhs.subs.is_empty());
        assert_eq!(a.lhs.array, "k");
    }

    #[test]
    fn parses_bracket_subscripts() {
        let p = parse("A[L1,L2] := A[L1-x,y] + C[L1,L2];").unwrap();
        let Stmt::Assign(a) = &p.stmts[0] else {
            panic!()
        };
        assert_eq!(a.lhs.subs.len(), 2);
    }

    #[test]
    fn error_on_unterminated_loop() {
        let err = parse("for i := 1 to n do a(i) := 0;").unwrap_err();
        assert!(err.to_string().contains("endfor"), "{err}");
    }

    #[test]
    fn error_positions_are_useful() {
        let err = parse("for i := 1 to n\n  a(i) := 0;\nendfor").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("2:"), "should point at line 2: {msg}");
    }

    #[test]
    fn precedence_and_negation() {
        let p = parse("x := 1 + 2 * 3;").unwrap();
        let Stmt::Assign(a) = &p.stmts[0] else {
            panic!()
        };
        // (1 + (2 * 3))
        let Expr::Bin(BinOp::Add, l, r) = &a.rhs else {
            panic!()
        };
        assert_eq!(**l, Expr::Int(1));
        assert!(matches!(&**r, Expr::Bin(BinOp::Mul, _, _)));

        let p = parse("x := -y * 2;").unwrap();
        let Stmt::Assign(a) = &p.stmts[0] else {
            panic!()
        };
        // ((-y) * 2): unary binds tighter than *
        assert!(matches!(&a.rhs, Expr::Bin(BinOp::Mul, l, _)
            if matches!(&**l, Expr::Neg(_))));
    }
}
