//! Abstract syntax for the tiny loop language.
//!
//! The language is a restricted structured-loop form in the spirit of
//! Michael Wolfe's `tiny` research tool: perfectly or imperfectly nested
//! `for` loops with (possibly `min`/`max`-bounded) bounds, and assignment
//! statements whose left side writes one array element and whose right
//! side reads arbitrarily many.

use std::collections::BTreeMap;
use std::fmt;

/// An identifier. Comparison is case-insensitive via [`name_key`].
pub type Name = String;

/// The canonical (lower-case) lookup key for a name.
pub fn name_key(n: &str) -> String {
    n.to_ascii_lowercase()
}

/// Binary arithmetic operators appearing in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (only relevant for opaque right-hand sides).
    Div,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        })
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Scalar variable reference (loop variable or symbolic constant).
    Var(Name),
    /// Array element access or intrinsic call: `name(e1, …, en)`.
    Call(Name, Vec<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Builds `lhs op rhs`.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// True when this is a call to one of the arithmetic intrinsics that
    /// never denote arrays (`sqrt`, `abs`, `min`, `max`, `mod`).
    pub fn is_intrinsic_name(name: &str) -> bool {
        matches!(
            name_key(name).as_str(),
            "sqrt" | "abs" | "min" | "max" | "mod" | "exp" | "log"
        )
    }

    /// Returns the expression with every occurrence of variable `name`
    /// replaced by `replacement` (used by loop normalization).
    pub fn substitute_var(&self, name: &str, replacement: &Expr) -> Expr {
        match self {
            Expr::Int(_) => self.clone(),
            Expr::Var(v) => {
                if name_key(v) == name_key(name) {
                    replacement.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Call(f, args) => Expr::Call(
                f.clone(),
                args.iter()
                    .map(|a| a.substitute_var(name, replacement))
                    .collect(),
            ),
            Expr::Neg(e) => Expr::Neg(Box::new(e.substitute_var(name, replacement))),
            Expr::Bin(op, l, r) => Expr::bin(
                *op,
                l.substitute_var(name, replacement),
                r.substitute_var(name, replacement),
            ),
        }
    }

    /// Walks the tree, invoking `f` on every node (pre-order).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Int(_) | Expr::Var(_) => {}
            Expr::Call(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Neg(e) => e.walk(f),
            Expr::Bin(_, l, r) => {
                l.walk(f);
                r.walk(f);
            }
        }
    }
}

impl Expr {
    /// Precedence-aware rendering: parenthesizes only where required.
    ///
    /// A subtlety: anything whose rendering *starts with* `-` (unary
    /// negation, negative literals) must be parenthesized to the right of
    /// a binary `-`, because `--` begins a line comment in the tiny
    /// language. Those forms get the lowest non-zero precedence so the
    /// right-operand rule catches them.
    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent: u8) -> fmt::Result {
        let prec = match self {
            Expr::Int(n) if *n < 0 => 1,
            Expr::Int(_) | Expr::Var(_) | Expr::Call(..) => 3,
            Expr::Neg(_) => 1,
            Expr::Bin(BinOp::Mul | BinOp::Div, ..) => 1,
            Expr::Bin(BinOp::Add | BinOp::Sub, ..) => 0,
        };
        let need_parens = prec < parent;
        if need_parens {
            write!(f, "(")?;
        }
        match self {
            Expr::Int(n) => write!(f, "{n}")?,
            Expr::Var(v) => write!(f, "{v}")?,
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    a.fmt_prec(f, 0)?;
                }
                write!(f, ")")?;
            }
            Expr::Neg(e) => {
                write!(f, "-")?;
                e.fmt_prec(f, 2)?;
            }
            Expr::Bin(op, l, r) => {
                l.fmt_prec(f, prec)?;
                write!(f, "{op}")?;
                // Right operand of - and / needs a higher threshold so
                // `a - (b - c)`, `a - (-b)` and `a / (b*c)` keep their
                // parentheses (and `--` never appears).
                let rp = match op {
                    BinOp::Sub | BinOp::Div | BinOp::Mul => 2,
                    // Right-nested additions are parenthesized so the
                    // reparsed tree keeps the original association.
                    BinOp::Add => prec + 1,
                };
                r.fmt_prec(f, rp)?;
            }
        }
        if need_parens {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// An array access `array(sub₁, …, subₙ)`; scalars are 0-dimensional.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// The array name (as written).
    pub array: Name,
    /// Subscript expressions.
    pub subs: Vec<Expr>,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.subs.is_empty() {
            return write!(f, "{}", self.array);
        }
        write!(f, "{}(", self.array)?;
        for (i, s) in self.subs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

/// An assignment statement `lhs := rhs;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assign {
    /// 1-based statement label, in source order (matching the numbered
    /// statements of the paper's figures).
    pub label: usize,
    /// The written element.
    pub lhs: Access,
    /// The right-hand side.
    pub rhs: Expr,
}

/// A counted `for` loop; the step is a positive integer constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForLoop {
    /// Loop variable (as written).
    pub var: Name,
    /// Lower bound (may contain `max(...)`).
    pub lower: Expr,
    /// Upper bound (may contain `min(...)`).
    pub upper: Expr,
    /// Step (>= 1).
    pub step: i64,
    /// Loop body.
    pub body: Vec<Stmt>,
}

/// A conditional statement. The condition is a conjunction of relations
/// (as produced by chained `assume`-style comparisons and `&&`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IfStmt {
    /// The guard relations, all of which must hold for the `then` branch.
    pub conds: Vec<Relation>,
    /// Statements executed when the guard holds.
    pub then_body: Vec<Stmt>,
    /// Statements executed otherwise (empty when there is no `else`).
    pub else_body: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// A `for` loop.
    For(ForLoop),
    /// A conditional.
    If(IfStmt),
    /// An assignment.
    Assign(Assign),
}

/// Relational operators in `assume` clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelOp {
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl RelOp {
    /// The complementary relation (`¬(a <= b)` is `a > b`, etc.).
    pub fn negated(self) -> RelOp {
        match self {
            RelOp::Le => RelOp::Gt,
            RelOp::Lt => RelOp::Ge,
            RelOp::Ge => RelOp::Lt,
            RelOp::Gt => RelOp::Le,
            RelOp::Eq => RelOp::Ne,
            RelOp::Ne => RelOp::Eq,
        }
    }
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RelOp::Le => "<=",
            RelOp::Lt => "<",
            RelOp::Ge => ">=",
            RelOp::Gt => ">",
            RelOp::Eq => "=",
            RelOp::Ne => "!=",
        })
    }
}

/// A single relation `lhs op rhs` from an `assume` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    /// Left-hand side.
    pub lhs: Expr,
    /// Operator.
    pub op: RelOp,
    /// Right-hand side.
    pub rhs: Expr,
}

/// A declared array with `lo:hi` extents per dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Name as written.
    pub name: Name,
    /// Per-dimension `(lo, hi)` bounds.
    pub dims: Vec<(Expr, Expr)>,
}

/// A whole tiny program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Top-level statements.
    pub stmts: Vec<Stmt>,
    /// Declared arrays, keyed by canonical name.
    pub arrays: BTreeMap<String, ArrayDecl>,
    /// Declared symbolic constants (as written).
    pub syms: Vec<Name>,
    /// User assertions about symbolic values.
    pub assumptions: Vec<Relation>,
}

impl Program {
    /// Parses a program from source text.
    ///
    /// # Errors
    ///
    /// Returns lexical or parse errors with positions.
    ///
    /// # Examples
    ///
    /// ```
    /// let p = tiny::Program::parse(
    ///     "for i := 1 to n do a(i) := a(i-1); endfor",
    /// )?;
    /// assert_eq!(p.stmts.len(), 1);
    /// # Ok::<(), tiny::Error>(())
    /// ```
    pub fn parse(src: &str) -> crate::Result<Program> {
        crate::parser::parse(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_walk_visits_all() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::Call("a".into(), vec![Expr::Var("i".into())]),
            Expr::Int(1),
        );
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 4);
    }

    #[test]
    fn intrinsics_recognized() {
        assert!(Expr::is_intrinsic_name("SQRT"));
        assert!(Expr::is_intrinsic_name("min"));
        assert!(!Expr::is_intrinsic_name("a"));
    }

    #[test]
    fn access_display() {
        let a = Access {
            array: "A".into(),
            subs: vec![Expr::Var("i".into()), Expr::Int(0)],
        };
        assert_eq!(a.to_string(), "A(i,0)");
        let s = Access {
            array: "x".into(),
            subs: vec![],
        };
        assert_eq!(s.to_string(), "x");
    }
}
