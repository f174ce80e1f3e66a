//! Semantic analysis: flattens the loop tree into per-statement records,
//! classifies names, and lowers every affine part of the program once —
//! loop bounds (with `min`/`max` distributed into affine pieces),
//! subscripts, `if` guards and `assume` relations — into [`Affine`]
//! forms over variable indices ([`Var`]).
//!
//! Dependence analysis reads only the lowered forms: names are resolved
//! here, with [`name_key`], and nowhere else.
//!
//! The passes here recurse over the AST (`flatten`, `pieces`,
//! `collect_reads`) with no depth limit of their own: both front ends
//! refuse an AST deeper than their `MAX_DEPTH`, which bounds the
//! recursion.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::ast::{name_key, Access, BinOp, Expr, Program, RelOp, Relation, Stmt};
use crate::error::{Error, Result};

/// A variable of a lowered [`Affine`] form. A name resolves, in this
/// order, to a loop of the statement it appears in (any depth), a
/// program symbol, or a named scalar: a written scalar, or a name that
/// only an `assume` clause mentions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Var {
    /// The `k`-th program symbol, in [`ProgramInfo::syms`] order.
    Sym(u32),
    /// The statement's enclosing loop at depth `d` (0 = outermost).
    Loop(u32),
    /// A named scalar: an index into [`ProgramInfo::names`].
    Scalar(u32),
}

/// An affine form `Σ cᵢ·vᵢ + k`. Statement and program forms are over
/// [`Var`]; the dependence tests instantiate it over the variables of a
/// pair of statement instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Affine<V = Var> {
    /// Coefficients, sorted by variable, each variable once. Arithmetic
    /// drops the zero coefficients it produces.
    pub terms: Vec<(V, i64)>,
    /// Constant term.
    pub constant: i64,
}

impl<V> Default for Affine<V> {
    fn default() -> Self {
        Affine {
            terms: Vec::new(),
            constant: 0,
        }
    }
}

impl<V: Copy + Ord> Affine<V> {
    /// The constant `k`.
    pub fn constant(k: i64) -> Self {
        Affine {
            terms: Vec::new(),
            constant: k,
        }
    }

    /// The single variable `v`.
    pub fn var(v: V) -> Self {
        Affine {
            terms: vec![(v, 1)],
            constant: 0,
        }
    }

    /// Adds `c · v` to the form.
    pub fn add_term(&mut self, v: V, c: i64) {
        match self.terms.binary_search_by(|&(w, _)| w.cmp(&v)) {
            Ok(i) => {
                self.terms[i].1 += c;
                if self.terms[i].1 == 0 {
                    self.terms.remove(i);
                }
            }
            Err(i) if c != 0 => self.terms.insert(i, (v, c)),
            Err(_) => {}
        }
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let mut r = self.clone();
        for &(v, c) in &other.terms {
            r.add_term(v, c);
        }
        r.constant += other.constant;
        r
    }

    /// Returns `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.scale(-1))
    }

    /// Returns `c · self`.
    pub fn scale(&self, c: i64) -> Self {
        if c == 0 {
            return Affine::default();
        }
        Affine {
            terms: self.terms.iter().map(|&(v, k)| (v, k * c)).collect(),
            constant: self.constant * c,
        }
    }

    /// The form with every variable renamed by `f`.
    pub fn map<W: Copy + Ord>(&self, f: impl Fn(V) -> W) -> Affine<W> {
        let mut out = Affine::constant(self.constant);
        for &(v, c) in &self.terms {
            out.add_term(f(v), c);
        }
        out
    }

    /// The coefficient of `v` (0 when absent).
    pub fn coef(&self, v: V) -> i64 {
        self.terms
            .binary_search_by(|&(w, _)| w.cmp(&v))
            .map_or(0, |i| self.terms[i].1)
    }

    /// True when the form is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }
}

/// A lowered relation `lhs op rhs` over loop variables and symbols only:
/// what the exact analysis conjoins. Never `!=`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cond {
    /// Left-hand side.
    pub lhs: Affine,
    /// Operator (for an `else` branch, already negated).
    pub op: RelOp,
    /// Right-hand side.
    pub rhs: Affine,
}

/// An access with its array resolved and its subscripts lowered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessForm {
    /// The array (or scalar): an index into [`ProgramInfo::names`].
    pub array: u32,
    /// One entry per subscript: its affine form over loop variables and
    /// symbols, or `None` when it is not affine or names a scalar (even
    /// one whose terms cancel), whose value may change between accesses.
    pub subs: Vec<Option<Affine>>,
}

/// The program's `assume` clauses, lowered once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Assumptions {
    /// The relations over program symbols, in source order. A relation
    /// that is not affine, uses `!=` or mentions any other name is left
    /// out (it cannot be conjoined).
    pub relations: Vec<Cond>,
    /// Every affine relation as facts `f >= 0`, over symbols and named
    /// scalars alike (`<`/`>` tighten by one; `=` gives two facts; `!=`
    /// gives none): the sign facts of the §4.5 symbolic range test.
    pub facts: Vec<Affine>,
}

/// One enclosing loop of a statement, outermost first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopCtx {
    /// The loop variable (as written).
    pub var: String,
    /// Lower-bound pieces: the loop starts at `max(pieces)`. `None` when
    /// the bound is not affine (e.g. contains an array element or a
    /// written scalar).
    pub lower: Option<Vec<Affine>>,
    /// Upper-bound pieces: the loop ends at `min(pieces)`; `None` if
    /// opaque.
    pub upper: Option<Vec<Affine>>,
    /// Original bound expressions, for display and for the symbolic
    /// analysis of opaque bounds.
    pub lower_expr: Expr,
    /// Original upper bound expression.
    pub upper_expr: Expr,
    /// The loop step (>= 1).
    pub step: i64,
}

/// One `if` guard enclosing a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Guard {
    /// The relation tested.
    pub relation: Relation,
    /// True for statements in an `else` branch (the relation is falsified).
    pub negated: bool,
    /// The constraint the guard adds to the iteration space: `None` when
    /// it is opaque or disjunctive (a negated equality, or `!=`).
    pub cond: Option<Cond>,
}

/// A flattened statement: an assignment plus its loop context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StmtInfo {
    /// 1-based statement label (source order).
    pub label: usize,
    /// Enclosing loops, outermost first.
    pub loops: Vec<LoopCtx>,
    /// Tree path: the statement's index chain through nested bodies;
    /// `path[j]` for `j < loops.len()` selects the `j`-th enclosing loop,
    /// and the final entry the statement itself.
    pub path: Vec<usize>,
    /// The written access.
    pub write: Access,
    /// All read accesses (right-hand side plus reads nested inside
    /// subscripts on either side), in source order.
    pub reads: Vec<Access>,
    /// [`StmtInfo::write`], lowered.
    pub write_form: AccessForm,
    /// [`StmtInfo::reads`], lowered, index for index.
    pub read_forms: Vec<AccessForm>,
    /// The assignment's right-hand side expression.
    pub rhs: Expr,
    /// Enclosing `if` guards, outermost first.
    pub guards: Vec<Guard>,
    /// For each enclosing loop, the index within [`StmtInfo::path`] of the
    /// loop's own entry (loops and `if` branches interleave in the path).
    pub loop_path_idx: Vec<usize>,
}

impl StmtInfo {
    /// Number of loops shared with `other` (identical loop instances).
    /// Loops and `if` branches interleave in the tree path, so the check
    /// compares full path prefixes up to each loop's own entry.
    pub fn common_loops(&self, other: &StmtInfo) -> usize {
        let mut n = 0;
        while n < self.loops.len() && n < other.loops.len() {
            let ia = self.loop_path_idx[n];
            let ib = other.loop_path_idx[n];
            if ia != ib || self.path[..=ia] != other.path[..=ia] {
                break;
            }
            n += 1;
        }
        n
    }

    /// Whether this statement lexically precedes `other` (strict source
    /// order of the statement bodies; a statement never precedes itself).
    pub fn lexically_before(&self, other: &StmtInfo) -> bool {
        self.path < other.path
    }
}

/// The analyzed program: flattened statements plus symbol classification.
#[derive(Debug, Clone)]
pub struct ProgramInfo {
    /// Flattened statements in source order.
    pub stmts: Vec<StmtInfo>,
    /// Canonical names of symbolic constants (declared plus inferred);
    /// [`Var::Sym`] indexes this set in its order. Shared, so that the
    /// constraint spaces built from the program name their symbols
    /// without copying them.
    pub syms: Arc<BTreeSet<String>>,
    /// Canonical names of everything written (arrays and scalars).
    pub written: BTreeSet<String>,
    /// User assumptions carried over from the program, lowered.
    pub assumptions: Assumptions,
    /// Declared arrays (canonical name -> decl), for bounds information.
    pub arrays: BTreeMap<String, crate::ast::ArrayDecl>,
    /// Canonical names of the accessed arrays and of the named scalars,
    /// indexed by [`AccessForm::array`] and [`Var::Scalar`].
    pub names: Vec<String>,
}

impl ProgramInfo {
    /// Looks up a statement by label.
    ///
    /// # Panics
    ///
    /// Panics if the label does not exist.
    pub fn stmt(&self, label: usize) -> &StmtInfo {
        self.stmts
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("no statement labeled {label}"))
    }

    /// Lowers an expression met at query time (the §5 symbolic analysis
    /// translates declarations, opaque bounds and increments) as the
    /// exact analysis sees it inside `stmt`, or at program level: `None`
    /// unless it is affine over the statement's loop variables and the
    /// program's symbols.
    pub fn lower(&self, stmt: Option<&StmtInfo>, e: &Expr) -> Option<Affine> {
        let loops = stmt.map_or(&[][..], |s| &s.loops[..]);
        affine(e, &mut |name| {
            if let Some(d) = loop_depth(loops, name) {
                return Some(d);
            }
            let key = name_key(name);
            let k = self.syms.iter().position(|s| *s == key)?;
            Some(Var::Sym(k as u32))
        })
    }
}

/// Analyzes a parsed program.
///
/// # Errors
///
/// Returns [`Error::Sema`] for duplicate loop variables in a nest or a
/// write to a loop variable.
///
/// # Examples
///
/// ```
/// let p = tiny::Program::parse("for i := 1 to n do a(i) := a(i-1); endfor")?;
/// let info = tiny::analyze(&p)?;
/// assert_eq!(info.stmts.len(), 1);
/// assert_eq!(info.stmts[0].reads.len(), 1);
/// assert!(info.syms.contains("n"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze(program: &Program) -> Result<ProgramInfo> {
    // Pass 1: collect every written name (scalars written become 0-dim
    // arrays, not symbolic constants).
    let mut written = BTreeSet::new();
    collect_written(&program.stmts, &mut written);

    let mut info = ProgramInfo {
        stmts: Vec::new(),
        syms: Arc::new(program.syms.iter().map(|s| name_key(s)).collect()),
        written,
        assumptions: Assumptions::default(),
        arrays: program.arrays.clone(),
        names: Vec::new(),
    };
    let mut loops: Vec<LoopCtx> = Vec::new();
    let mut loop_vars: Vec<String> = Vec::new();
    let mut path = Vec::new();
    let mut guards = Vec::new();
    let mut loop_path_idx = Vec::new();
    flatten(
        &program.stmts,
        &mut loops,
        &mut loop_vars,
        &mut path,
        &mut guards,
        &mut loop_path_idx,
        &mut info,
    )?;
    // Pass 3: the symbols are known now; lower every affine part.
    lower_program(&mut info, &program.assumptions);
    Ok(info)
}

fn collect_written(stmts: &[Stmt], written: &mut BTreeSet<String>) {
    for s in stmts {
        match s {
            Stmt::For(f) => collect_written(&f.body, written),
            Stmt::If(i) => {
                collect_written(&i.then_body, written);
                collect_written(&i.else_body, written);
            }
            Stmt::Assign(a) => {
                written.insert(name_key(&a.lhs.array));
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn flatten(
    stmts: &[Stmt],
    loops: &mut Vec<LoopCtx>,
    loop_vars: &mut Vec<String>,
    path: &mut Vec<usize>,
    guards: &mut Vec<Guard>,
    loop_path_idx: &mut Vec<usize>,
    info: &mut ProgramInfo,
) -> Result<()> {
    for (i, s) in stmts.iter().enumerate() {
        path.push(i);
        match s {
            Stmt::For(f) => {
                let key = name_key(&f.var);
                if loop_vars.contains(&key) {
                    return Err(Error::Sema {
                        message: format!("duplicate loop variable `{}` in nest", f.var),
                    });
                }
                if info.written.contains(&key) {
                    return Err(Error::Sema {
                        message: format!("loop variable `{}` is assigned in the program", f.var),
                    });
                }
                if f.step < 1 {
                    return Err(Error::Sema {
                        message: format!(
                            "loop `{}` has step {}: run \
                             loop_normalize::normalize_steps first",
                            f.var, f.step
                        ),
                    });
                }
                // Record symbolic constants appearing in the bounds (loop
                // variables in scope for the bounds are the OUTER ones).
                record_syms(&f.lower, loop_vars, info);
                record_syms(&f.upper, loop_vars, info);
                loops.push(LoopCtx {
                    var: f.var.clone(),
                    // Lowered per statement once the symbols are known.
                    lower: None,
                    upper: None,
                    lower_expr: f.lower.clone(),
                    upper_expr: f.upper.clone(),
                    step: f.step,
                });
                loop_vars.push(key);
                loop_path_idx.push(path.len() - 1);
                flatten(&f.body, loops, loop_vars, path, guards, loop_path_idx, info)?;
                loop_path_idx.pop();
                loop_vars.pop();
                loops.pop();
            }
            Stmt::If(cond) => {
                for r in &cond.conds {
                    record_syms(&r.lhs, loop_vars, info);
                    record_syms(&r.rhs, loop_vars, info);
                }
                // Then branch: all relations hold.
                let depth = guards.len();
                for r in &cond.conds {
                    guards.push(Guard {
                        relation: r.clone(),
                        negated: false,
                        cond: None,
                    });
                }
                path.push(0);
                flatten(
                    &cond.then_body,
                    loops,
                    loop_vars,
                    path,
                    guards,
                    loop_path_idx,
                    info,
                )?;
                path.pop();
                guards.truncate(depth);
                // Else branch: a single relation negates conjunctively;
                // a multi-relation guard's negation is disjunctive, so the
                // else branch carries no constraint (conservative).
                if !cond.else_body.is_empty() {
                    if cond.conds.len() == 1 {
                        guards.push(Guard {
                            relation: cond.conds[0].clone(),
                            negated: true,
                            cond: None,
                        });
                    }
                    path.push(1);
                    flatten(
                        &cond.else_body,
                        loops,
                        loop_vars,
                        path,
                        guards,
                        loop_path_idx,
                        info,
                    )?;
                    path.pop();
                    guards.truncate(depth);
                }
            }
            Stmt::Assign(a) => {
                let mut reads = Vec::new();
                // Reads nested in the write's subscripts.
                for sub in &a.lhs.subs {
                    collect_reads(sub, info, &mut reads);
                    record_syms(sub, loop_vars, info);
                }
                collect_reads(&a.rhs, info, &mut reads);
                record_syms(&a.rhs, loop_vars, info);
                info.stmts.push(StmtInfo {
                    label: a.label,
                    loops: loops.clone(),
                    path: path.clone(),
                    write: a.lhs.clone(),
                    reads,
                    write_form: AccessForm::default(),
                    read_forms: Vec::new(),
                    rhs: a.rhs.clone(),
                    guards: guards.clone(),
                    loop_path_idx: loop_path_idx.clone(),
                });
            }
        }
        path.pop();
    }
    Ok(())
}

/// Collects array reads from an expression (recursing into subscripts of
/// nested accesses and into intrinsic arguments). A bare variable that is
/// written somewhere in the program counts as a scalar (0-dim) read.
fn collect_reads(e: &Expr, info: &ProgramInfo, out: &mut Vec<Access>) {
    match e {
        Expr::Int(_) => {}
        Expr::Var(name) => {
            let k = name_key(name);
            if info.written.contains(&k) || info.arrays.contains_key(&k) {
                out.push(Access {
                    array: name.clone(),
                    subs: vec![],
                });
            }
        }
        Expr::Call(name, args) => {
            if Expr::is_intrinsic_name(name) {
                for a in args {
                    collect_reads(a, info, out);
                }
            } else {
                // Subscript reads come first (they execute first).
                for a in args {
                    collect_reads(a, info, out);
                }
                out.push(Access {
                    array: name.clone(),
                    subs: args.clone(),
                });
            }
        }
        Expr::Neg(inner) => collect_reads(inner, info, out),
        Expr::Bin(_, l, r) => {
            collect_reads(l, info, out);
            collect_reads(r, info, out);
        }
    }
}

/// Records free scalar variables (not loop variables, not written) as
/// symbolic constants.
fn record_syms(e: &Expr, loop_vars: &[String], info: &mut ProgramInfo) {
    e.walk(&mut |node| {
        if let Expr::Var(name) = node {
            let k = name_key(name);
            if !loop_vars.contains(&k) && !info.written.contains(&k) {
                Arc::make_mut(&mut info.syms).insert(k);
            }
        }
    });
}

/// The depth of the loop of `loops` that `name` names, as a variable.
fn loop_depth(loops: &[LoopCtx], name: &str) -> Option<Var> {
    loops
        .iter()
        .position(|l| l.var.eq_ignore_ascii_case(name))
        .map(|d| Var::Loop(d as u32))
}

/// [`name_key`], without allocating for a name already in lower case.
fn canonical(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name_key(name))
    } else {
        Cow::Borrowed(name)
    }
}

/// Name resolution for the lowering pass.
struct Lowering<'a> {
    /// The symbols, sorted: a symbol's position is its index.
    syms: Vec<&'a str>,
    written: &'a BTreeSet<String>,
    /// The names table being built, and its index.
    names: Vec<String>,
    ids: BTreeMap<String, u32>,
}

impl Lowering<'_> {
    /// The index of a name in the names table.
    fn name_id(&mut self, name: &str) -> u32 {
        let key = canonical(name);
        if let Some(&id) = self.ids.get(key.as_ref()) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(key.clone().into_owned());
        self.ids.insert(key.into_owned(), id);
        id
    }

    /// Resolves `name` inside a statement with the given loops.
    fn resolve(&mut self, loops: &[LoopCtx], name: &str) -> Var {
        if let Some(v) = loop_depth(loops, name) {
            return v;
        }
        match self.syms.binary_search(&canonical(name).as_ref()) {
            Ok(k) => Var::Sym(k as u32),
            Err(_) => Var::Scalar(self.name_id(name)),
        }
    }

    /// An expression as the exact analysis uses it: `None` when not
    /// affine over loop variables and symbols.
    fn exact(&mut self, loops: &[LoopCtx], e: &Expr) -> Option<Affine> {
        affine(e, &mut |name| match self.resolve(loops, name) {
            Var::Scalar(_) => None,
            v => Some(v),
        })
    }

    /// A loop bound's pieces; a written name makes the bound opaque.
    fn bound(&mut self, loops: &[LoopCtx], e: &Expr, dir: BoundDir) -> Option<Vec<Affine>> {
        let written = self.written;
        let (pieces, shape) = pieces(e, &mut |name| {
            if written.contains(canonical(name).as_ref()) {
                None
            } else {
                Some(self.resolve(loops, name))
            }
        })?;
        let ok = match dir {
            BoundDir::Lower => shape != Shape::Min,
            BoundDir::Upper => shape != Shape::Max,
        };
        ok.then_some(pieces)
    }

    fn access(&mut self, loops: &[LoopCtx], acc: &Access) -> AccessForm {
        AccessForm {
            array: self.name_id(&acc.array),
            subs: acc.subs.iter().map(|s| self.exact(loops, s)).collect(),
        }
    }

    fn guard(&mut self, loops: &[LoopCtx], g: &Guard) -> Option<Cond> {
        let op = if g.negated {
            g.relation.op.negated()
        } else {
            g.relation.op
        };
        let lhs = self.exact(loops, &g.relation.lhs)?;
        let rhs = self.exact(loops, &g.relation.rhs)?;
        (op != RelOp::Ne).then_some(Cond { lhs, op, rhs })
    }

    fn assumptions(&mut self, rels: &[Relation]) -> Assumptions {
        let mut out = Assumptions::default();
        for rel in rels {
            let mut scalar = false;
            let mut side = |e: &Expr| {
                affine(e, &mut |name| {
                    let v = self.resolve(&[], name);
                    scalar |= matches!(v, Var::Scalar(_));
                    Some(v)
                })
            };
            let (Some(l), Some(r)) = (side(&rel.lhs), side(&rel.rhs)) else {
                continue;
            };
            match rel.op {
                RelOp::Le => out.facts.push(r.sub(&l)),
                RelOp::Lt => {
                    let mut f = r.sub(&l);
                    f.constant -= 1;
                    out.facts.push(f);
                }
                RelOp::Ge => out.facts.push(l.sub(&r)),
                RelOp::Gt => {
                    let mut f = l.sub(&r);
                    f.constant -= 1;
                    out.facts.push(f);
                }
                RelOp::Eq => {
                    out.facts.push(l.sub(&r));
                    out.facts.push(r.sub(&l));
                }
                RelOp::Ne => {}
            }
            if !scalar && rel.op != RelOp::Ne {
                out.relations.push(Cond {
                    lhs: l,
                    op: rel.op,
                    rhs: r,
                });
            }
        }
        out
    }
}

/// Lowers every statement's bounds, guards and accesses, and the
/// program's assumptions.
fn lower_program(info: &mut ProgramInfo, assumptions: &[Relation]) {
    let mut lw = Lowering {
        syms: info.syms.iter().map(String::as_str).collect(),
        written: &info.written,
        names: Vec::new(),
        ids: BTreeMap::new(),
    };
    for stmt in &mut info.stmts {
        let loops = &stmt.loops;
        let bounds: Vec<_> = loops
            .iter()
            .map(|l| {
                (
                    lw.bound(loops, &l.lower_expr, BoundDir::Lower),
                    lw.bound(loops, &l.upper_expr, BoundDir::Upper),
                )
            })
            .collect();
        let conds: Vec<_> = stmt.guards.iter().map(|g| lw.guard(loops, g)).collect();
        stmt.write_form = lw.access(loops, &stmt.write);
        stmt.read_forms = stmt.reads.iter().map(|r| lw.access(loops, r)).collect();
        for (l, (lower, upper)) in stmt.loops.iter_mut().zip(bounds) {
            l.lower = lower;
            l.upper = upper;
        }
        for (g, cond) in stmt.guards.iter_mut().zip(conds) {
            g.cond = cond;
        }
    }
    let lowered = lw.assumptions(assumptions);
    let names = lw.names;
    info.assumptions = lowered;
    info.names = names;
}

/// Which bound of the loop an expression provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoundDir {
    /// The expression is a loop lower bound (`max` allowed).
    Lower,
    /// The expression is a loop upper bound (`min` allowed).
    Upper,
}

/// The "shape" of a piecewise-affine expression: a pointwise max, a
/// pointwise min, or a single affine piece.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Single,
    Max,
    Min,
}

impl Shape {
    fn flip(self) -> Shape {
        match self {
            Shape::Single => Shape::Single,
            Shape::Max => Shape::Min,
            Shape::Min => Shape::Max,
        }
    }

    fn merge(self, other: Shape) -> Option<Shape> {
        match (self, other) {
            (Shape::Single, s) | (s, Shape::Single) => Some(s),
            (a, b) if a == b => Some(a),
            _ => None,
        }
    }
}

/// Converts an expression into affine pieces and their shape (the max
/// or min of the pieces), resolving each name through `resolve`; `None`
/// when some name does not resolve or the expression is not
/// piecewise-affine (array accesses, products of variables, divisions,
/// mixed `min`/`max`). On success every name was resolved.
fn pieces(e: &Expr, resolve: &mut impl FnMut(&str) -> Option<Var>) -> Option<(Vec<Affine>, Shape)> {
    match e {
        Expr::Int(n) => Some((vec![Affine::constant(*n)], Shape::Single)),
        Expr::Var(name) => Some((vec![Affine::var(resolve(name)?)], Shape::Single)),
        Expr::Call(name, args) => {
            let shape = if name.eq_ignore_ascii_case("max") {
                Shape::Max
            } else if name.eq_ignore_ascii_case("min") {
                Shape::Min
            } else {
                return None; // array access or non-affine intrinsic
            };
            let mut out = Vec::new();
            for a in args {
                let (p, s) = pieces(a, resolve)?;
                if s == shape.flip() {
                    return None;
                }
                out.extend(p);
            }
            Some((out, shape))
        }
        Expr::Neg(inner) => {
            let (p, s) = pieces(inner, resolve)?;
            Some((p.iter().map(|a| a.scale(-1)).collect(), s.flip()))
        }
        Expr::Bin(op, l, r) => {
            match op {
                BinOp::Add | BinOp::Sub => {
                    let (pl, sl) = pieces(l, resolve)?;
                    let (pr, sr) = pieces(r, resolve)?;
                    let (pr, sr) = if *op == BinOp::Sub {
                        (
                            pr.iter().map(|a| a.scale(-1)).collect::<Vec<_>>(),
                            sr.flip(),
                        )
                    } else {
                        (pr, sr)
                    };
                    let shape = sl.merge(sr)?;
                    // max(A,B) + max(C,D) = max over pairwise sums.
                    let mut out = Vec::with_capacity(pl.len() * pr.len());
                    for a in &pl {
                        for b in &pr {
                            out.push(a.add(b));
                        }
                    }
                    Some((out, shape))
                }
                BinOp::Mul => {
                    let (pl, sl) = pieces(l, resolve)?;
                    let (pr, sr) = pieces(r, resolve)?;
                    // One side must be a single constant piece.
                    let (k, pieces_v, shape) = if pl.len() == 1 && pl[0].is_constant() {
                        (pl[0].constant, pr, sr)
                    } else if pr.len() == 1 && pr[0].is_constant() {
                        (pr[0].constant, pl, sl)
                    } else {
                        return None;
                    };
                    let shape = if k < 0 { shape.flip() } else { shape };
                    Some((pieces_v.iter().map(|a| a.scale(k)).collect(), shape))
                }
                BinOp::Div => None,
            }
        }
    }
}

/// Converts an expression to a single affine form: `None` for anything
/// [`pieces`] rejects and for a true `min`/`max` of several pieces.
fn affine(e: &Expr, resolve: &mut impl FnMut(&str) -> Option<Var>) -> Option<Affine> {
    let (p, s) = pieces(e, resolve)?;
    if s == Shape::Single || p.len() == 1 {
        Some(p.into_iter().next().expect("non-empty pieces"))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;

    fn info(src: &str) -> ProgramInfo {
        analyze(&Program::parse(src).unwrap()).unwrap()
    }

    fn sym(info: &ProgramInfo, name: &str) -> Var {
        Var::Sym(info.syms.iter().position(|s| s == name).unwrap() as u32)
    }

    #[test]
    fn affine_arithmetic() {
        let (i, j) = (Var::Loop(0), Var::Loop(1));
        let mut a = Affine::var(i);
        a.add_term(j, 2);
        let b = Affine::var(i).scale(3);
        let c = a.add(&b); // 4i + 2j
        assert_eq!(c.coef(i), 4);
        assert_eq!(c.coef(j), 2);
        assert_eq!(c.coef(Var::Sym(0)), 0);
        let d = c.sub(&c);
        assert!(d.is_constant());
        assert_eq!(d.constant, 0);
        assert!(d.terms.is_empty(), "zero terms are dropped");
        let mut e = Affine::var(j);
        e.add_term(Var::Sym(0), 1);
        e.add_term(i, 1);
        assert_eq!(
            e.terms,
            vec![(Var::Sym(0), 1), (i, 1), (j, 1)],
            "terms stay sorted"
        );
    }

    #[test]
    fn analyze_flattens_statements() {
        let p = Program::parse(
            "
            for i := 1 to n do
              for j := 2 to m do
                a(j) := a(j-1);
              endfor
              b(i) := a(m);
            endfor
            ",
        )
        .unwrap();
        let info = analyze(&p).unwrap();
        assert_eq!(info.stmts.len(), 2);
        let s1 = &info.stmts[0];
        assert_eq!(s1.loops.len(), 2);
        assert_eq!(s1.loops[0].var, "i");
        assert_eq!(s1.loops[1].var, "j");
        assert_eq!(s1.path, vec![0, 0, 0]);
        let s2 = &info.stmts[1];
        assert_eq!(s2.loops.len(), 1);
        assert_eq!(s2.path, vec![0, 1]);
        assert_eq!(s1.common_loops(s2), 1);
        assert!(s1.lexically_before(s2));
        assert!(!s2.lexically_before(s1));
    }

    #[test]
    fn syms_and_written_classification() {
        let p = Program::parse(
            "
            for i := 1 to n do
              k := k + i;
              a(i) := k + eps;
            endfor
            ",
        )
        .unwrap();
        let info = analyze(&p).unwrap();
        assert!(info.syms.contains("n"));
        assert!(info.syms.contains("eps"));
        assert!(!info.syms.contains("k"), "written scalars are not symbolic");
        assert!(info.written.contains("k"));
        // a(i) := k + eps reads the scalar k.
        let s2 = &info.stmts[1];
        assert_eq!(s2.reads.len(), 1);
        assert_eq!(s2.reads[0].array, "k");
        assert_eq!(info.names[s2.read_forms[0].array as usize], "k");
        assert_eq!(s2.read_forms[0].array, info.stmts[0].write_form.array);
    }

    #[test]
    fn nested_subscript_reads_collected() {
        let p = Program::parse("for i := 1 to n do a(q(i)) := a(q(i+1)-1) + c(i); endfor").unwrap();
        let info = analyze(&p).unwrap();
        let s = &info.stmts[0];
        // Reads: q(i) [from lhs subscript], q(i+1), a(q(i+1)-1), c(i).
        let names: Vec<&str> = s.reads.iter().map(|r| r.array.as_str()).collect();
        assert_eq!(names, vec!["q", "q", "a", "c"]);
        assert_eq!(s.read_forms.len(), 4);
        assert!(s.write_form.subs[0].is_none(), "q(i) is opaque");
        assert_eq!(s.read_forms[0].subs[0], Some(Affine::var(Var::Loop(0))));
    }

    #[test]
    fn negative_step_rejected_with_guidance() {
        let mut p = Program::default();
        p.stmts.push(crate::ast::Stmt::For(crate::ast::ForLoop {
            var: "k".into(),
            lower: Expr::Int(9),
            upper: Expr::Int(0),
            step: -1,
            body: vec![crate::ast::Stmt::Assign(crate::ast::Assign {
                label: 1,
                lhs: Access {
                    array: "a".into(),
                    subs: vec![Expr::Var("k".into())],
                },
                rhs: Expr::Int(0),
            })],
        }));
        let err = analyze(&p).unwrap_err();
        assert!(err.to_string().contains("normalize_steps"), "{err}");
        // After normalization it analyzes fine.
        let n = crate::loop_normalize::normalize_steps(&p).unwrap();
        assert!(analyze(&n).is_ok());
    }

    #[test]
    fn duplicate_loop_variable_rejected() {
        let p = Program::parse("for i := 1 to n do for i := 1 to n do a(i) := 0; endfor endfor")
            .unwrap();
        assert!(analyze(&p).is_err());
    }

    #[test]
    fn assigned_loop_variable_rejected() {
        let p = Program::parse("for i := 1 to n do i := 3; endfor").unwrap();
        assert!(analyze(&p).is_err());
    }

    #[test]
    fn max_lower_bound_distributes() {
        // max(-m,-j) - i  =>  pieces { -m - i, -j - i }.
        let info = info(
            "for j := 0 to n do for i := 1 to n do
               for jj := max(0-m, 0-j) - i to -1 do a(jj) := 0; endfor
             endfor endfor",
        );
        let pieces = info.stmts[0].loops[2].lower.as_ref().unwrap();
        let (m, i, j) = (sym(&info, "m"), Var::Loop(1), Var::Loop(0));
        assert_eq!(pieces.len(), 2);
        assert!(pieces.iter().any(|a| a.coef(m) == -1 && a.coef(i) == -1));
        assert!(pieces.iter().any(|a| a.coef(j) == -1 && a.coef(i) == -1));
    }

    #[test]
    fn min_as_lower_bound_is_opaque() {
        let info = info("for i := min(a, b) to 10 do x(i) := 0; endfor");
        assert!(info.stmts[0].loops[0].lower.is_none());
        // But it is fine as an upper bound.
        let info = self::info("for i := 1 to min(a, b) do x(i) := 0; endfor");
        assert_eq!(info.stmts[0].loops[0].upper.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn negation_flips_min_max() {
        // -min(a,b) = max(-a,-b): allowed as a lower bound.
        let info = info("for i := -min(a, b) to 10 do x(i) := 0; endfor");
        assert_eq!(info.stmts[0].loops[0].lower.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn subscripts_lower_with_scaling() {
        let info =
            info("for i := 1 to n do for j := 1 to n do a(2 * (i - 3) + j) := 0; endfor endfor");
        let aff = info.stmts[0].write_form.subs[0].as_ref().unwrap();
        assert_eq!(aff.coef(Var::Loop(0)), 2);
        assert_eq!(aff.coef(Var::Loop(1)), 1);
        assert_eq!(aff.constant, -6);
    }

    #[test]
    fn products_and_array_refs_are_not_affine() {
        let info = info("for i := 1 to n do for j := 1 to n do a(i * j) := b(c(i)); endfor endfor");
        let s = &info.stmts[0];
        assert!(s.write_form.subs[0].is_none());
        let b = s.reads.iter().position(|r| r.array == "b").unwrap();
        assert!(s.read_forms[b].subs[0].is_none());
    }

    #[test]
    fn names_resolve_case_insensitively() {
        let info = info("sym N; for I := 1 to N do A(I) := a(i) + X(n); endfor");
        let s = &info.stmts[0];
        let read =
            |name: &str| &s.read_forms[s.reads.iter().position(|r| r.array == name).unwrap()];
        assert_eq!(s.write_form.array, read("a").array, "A and a are one array");
        assert_eq!(s.write_form.subs, read("a").subs, "I and i are one loop");
        assert_eq!(s.write_form.subs[0], Some(Affine::var(Var::Loop(0))));
        assert_eq!(read("X").subs[0], Some(Affine::var(sym(&info, "n"))));
    }

    #[test]
    fn a_written_scalar_makes_its_subscript_opaque() {
        let info = info("for i := 1 to n do k := k + 1; a(k + i - k) := a(k + 1); endfor");
        let s = info.stmt(2);
        // `k` may change between the two accesses, so neither dimension
        // has a form, even where the scalar cancels.
        let read = &s.read_forms[s.reads.iter().position(|r| r.array == "a").unwrap()].subs[0];
        assert_eq!(read, &None);
        assert_eq!(s.write_form.subs[0], None);
    }

    #[test]
    fn guards_lower_with_their_branch() {
        let info = info(
            "for i := 1 to n do
               if i <= 5 then a(i) := 0; else a(i) := 1; endif
               if i != 3 then b(i) := 0; endif
               if i <= x(i) then c(i) := 0; endif
             endfor",
        );
        let cond = |label: usize| info.stmt(label).guards[0].cond.clone();
        let then = cond(1).unwrap();
        assert_eq!((then.op, then.rhs.constant), (RelOp::Le, 5));
        assert_eq!(then.lhs, Affine::var(Var::Loop(0)));
        assert_eq!(cond(2).unwrap().op, RelOp::Gt, "the else branch negates");
        assert_eq!(cond(3), None, "`!=` is disjunctive");
        assert_eq!(cond(4), None, "an array value is opaque");
    }

    #[test]
    fn assumptions_lower_to_relations_and_facts() {
        let info = info(
            "sym n, m;
             assume n = 2 * m;
             assume m < 10;
             assume n != 4;
             assume q >= 1;
             a(n) := a(m);",
        );
        let (n, m) = (sym(&info, "n"), sym(&info, "m"));
        let rels = &info.assumptions.relations;
        assert_eq!(rels.len(), 2, "`!=` and the unknown `q` are left out");
        assert_eq!((rels[0].op, rels[1].op), (RelOp::Eq, RelOp::Lt));
        let facts = &info.assumptions.facts;
        // n = 2m gives n - 2m >= 0 and 2m - n >= 0; m < 10 gives
        // 9 - m >= 0; q >= 1 stays a fact over the named scalar.
        assert_eq!(facts.len(), 4);
        assert_eq!((facts[0].coef(n), facts[0].coef(m)), (1, -2));
        assert_eq!(facts[1], facts[0].scale(-1));
        assert_eq!((facts[2].coef(m), facts[2].constant), (-1, 9));
        let q = Var::Scalar(info.names.iter().position(|s| s == "q").unwrap() as u32);
        assert_eq!((facts[3].coef(q), facts[3].constant), (1, -1));
    }

    #[test]
    fn opaque_bounds_reported_as_none() {
        // Array element in a loop bound (Example 9 of the paper).
        let info = info("for j := b(i) to b(i+1)-1 do a(j) := 0; endfor");
        assert!(info.stmts[0].loops[0].lower.is_none());
        assert!(info.stmts[0].loops[0].upper.is_none());
    }

    #[test]
    fn cholsky_like_bounds() {
        let info = info(
            "
            for j := 0 to n do
              for i := max(-m, -j) to -1 do
                for jj := max(-m, -j) - i to -1 do
                  a(jj, i, j) := 0;
                endfor
              endfor
            endfor
            ",
        );
        let s = &info.stmts[0];
        assert_eq!(s.loops.len(), 3);
        assert_eq!(s.loops[1].lower.as_ref().unwrap().len(), 2);
        assert_eq!(s.loops[2].lower.as_ref().unwrap().len(), 2);
        assert_eq!(s.loops[2].upper.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn query_time_lowering_resolves_like_the_statement() {
        let info = info("sym n; for i := 1 to n do a(i) := k; k := 1; endfor");
        let s = info.stmt(1);
        let e = Expr::bin(BinOp::Sub, Expr::Var("I".into()), Expr::Var("n".into()));
        let lowered = info.lower(Some(s), &e).unwrap();
        assert_eq!(lowered.coef(Var::Loop(0)), 1);
        assert_eq!(lowered.coef(sym(&info, "n")), -1);
        assert_eq!(info.lower(None, &e), None, "no loop in scope");
        assert_eq!(info.lower(Some(s), &Expr::Var("k".into())), None);
    }
}
