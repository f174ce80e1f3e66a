//! The solver kernel: the Omega test's normalize → equality elimination
//! → Fourier–Motzkin loop on a dense scratch tableau.
//!
//! [`Problem`] keeps its interned-row representation — memo keys,
//! persistence, goldens, and the COW API all depend on it — but every
//! solver entry point (satisfiability, projection, witness sampling,
//! `Problem::normalize`, and `Problem::simplify`'s equality pass) runs
//! here, on a dense struct-of-arrays representation: one flat
//! coefficient matrix per constraint section plus parallel constant/color
//! columns. Substitution becomes a row axpy, the mod̂ reduction a column
//! scan, and Fourier–Motzkin a fused row-pair kernel, with no interning
//! traffic and no per-constraint allocation.
//!
//! Conversion happens only at the canonical boundary: a [`Tableau`] is
//! loaded from a [`Problem`] when a query starts and converted back (rows
//! re-interned) only at projection terminals. [`Tableau::normalize`] is
//! the one normalization pass: the solver loop runs it before every
//! elimination step, and `Problem::normalize` is a load, this pass and a
//! conversion back.
//!
//! Finished tableaus return to a per-thread free list, so a warm query
//! reuses the previous query's buffers and performs near-zero heap
//! allocations.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use crate::hash::BuildMix;
use crate::int::{self, Coef};
use crate::linexpr::{Color, Constraint, LinExpr, Relation};
use crate::normalize::{direction_hash, same_direction, Outcome};
use crate::problem::{Budget, Problem};
use crate::var::{VarInfo, VarKind};
use crate::Result;

const F_PROTECTED: u8 = 1;
const F_DEAD: u8 = 2;
const F_PINNED: u8 = 4;
const F_WILDCARD: u8 = 8;

/// Spare columns allocated beyond the widest loaded row, so the occasional
/// mod̂ wildcard fits without re-striding the matrix.
const HEADROOM: usize = 8;

/// Recursion limit guarding against adversarial splinter chains.
const MAX_DEPTH: usize = 64;

/// Hard cap on mod̂ steps per equality-elimination pass, a safety net for
/// the termination argument in the presence of protected columns.
const MODHAT_CAP: usize = 512;

/// Free-list bounds: how many tableaus a thread parks, and the largest
/// combined coefficient capacity worth keeping around.
const POOL_CAP: usize = 64;
const POOL_RETAIN_COEFFS: usize = 65_536;

thread_local! {
    static POOL: RefCell<Vec<Tableau>> = const { RefCell::new(Vec::new()) };
}

fn acquire() -> Tableau {
    POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

fn release(t: Tableau) {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < POOL_CAP
            && t.eqs.coeffs.capacity() + t.geqs.coeffs.capacity() <= POOL_RETAIN_COEFFS
        {
            pool.push(t);
        }
    });
}

/// One constraint section (equalities or inequalities) in dense
/// struct-of-arrays form: `n` rows of `stride` coefficients each, plus
/// parallel constant and color columns. The caller threads the stride
/// through because it lives on the owning [`Tableau`].
#[derive(Default)]
struct Section {
    coeffs: Vec<Coef>,
    consts: Vec<Coef>,
    colors: Vec<Color>,
    n: usize,
}

impl Section {
    fn clear(&mut self) {
        self.coeffs.clear();
        self.consts.clear();
        self.colors.clear();
        self.n = 0;
    }

    #[inline]
    fn row(&self, stride: usize, i: usize) -> &[Coef] {
        &self.coeffs[i * stride..(i + 1) * stride]
    }

    #[inline]
    fn row_mut(&mut self, stride: usize, i: usize) -> &mut [Coef] {
        &mut self.coeffs[i * stride..(i + 1) * stride]
    }

    /// Appends a row; `src` may be narrower than the stride (the tail is
    /// zero-filled).
    fn push_row(&mut self, stride: usize, src: &[Coef], cst: Coef, color: Color) {
        debug_assert!(src.len() <= stride);
        let off = self.n * stride;
        debug_assert_eq!(off, self.coeffs.len());
        self.coeffs.resize(off + stride, 0);
        self.coeffs[off..off + src.len()].copy_from_slice(src);
        self.consts.push(cst);
        self.colors.push(color);
        self.n += 1;
    }

    /// Mirrors `Vec::swap_remove`: the last row moves into slot `i`.
    fn swap_remove(&mut self, stride: usize, i: usize) {
        let last = self.n - 1;
        if i != last {
            let (head, tail) = self.coeffs.split_at_mut(last * stride);
            head[i * stride..(i + 1) * stride].copy_from_slice(&tail[..stride]);
        }
        self.consts.swap_remove(i);
        self.colors.swap_remove(i);
        self.n = last;
        self.coeffs.truncate(self.n * stride);
    }

    fn truncate(&mut self, stride: usize, n: usize) {
        debug_assert!(n <= self.n);
        self.n = n;
        self.coeffs.truncate(n * stride);
        self.consts.truncate(n);
        self.colors.truncate(n);
    }

    /// Copies row `from` into row `to` (both already allocated).
    fn copy_row_within(&mut self, stride: usize, from: usize, to: usize) {
        if from == to {
            return;
        }
        let (lo, hi) = (from.min(to), from.max(to));
        let (head, tail) = self.coeffs.split_at_mut(hi * stride);
        let (src, dst) = if from > to {
            (&tail[..stride], &mut head[lo * stride..(lo + 1) * stride])
        } else {
            (
                &head[lo * stride..(lo + 1) * stride] as &[Coef],
                &mut tail[..stride],
            )
        };
        // Manual copy to satisfy the borrow split in both directions.
        dst.copy_from_slice(src);
        self.consts[to] = self.consts[from];
        self.colors[to] = self.colors[from];
    }

    /// Drops rows flagged in `dead`, preserving order.
    fn compact(&mut self, stride: usize, dead: &[bool]) {
        let mut w = 0usize;
        for r in 0..self.n {
            if dead[r] {
                continue;
            }
            self.copy_row_within(stride, r, w);
            self.consts[w] = self.consts[r];
            self.colors[w] = self.colors[r];
            w += 1;
        }
        self.truncate(stride, w);
    }

    /// Keeps only rows whose coefficient in column `v` is zero, preserving
    /// order.
    fn retain_zero_col(&mut self, stride: usize, v: usize) {
        let mut w = 0usize;
        for r in 0..self.n {
            if self.coeffs[r * stride + v] != 0 {
                continue;
            }
            self.copy_row_within(stride, r, w);
            self.consts[w] = self.consts[r];
            self.colors[w] = self.colors[r];
            w += 1;
        }
        self.truncate(stride, w);
    }

    fn copy_from(&mut self, stride: usize, src: &Section) {
        self.coeffs.clear();
        self.coeffs.extend_from_slice(&src.coeffs[..src.n * stride]);
        self.consts.clear();
        self.consts.extend_from_slice(&src.consts);
        self.colors.clear();
        self.colors.extend_from_slice(&src.colors);
        self.n = src.n;
    }

    fn restride(&mut self, old: usize, new: usize) {
        debug_assert!(new > old);
        let mut nc = vec![0 as Coef; self.n * new];
        for i in 0..self.n {
            nc[i * new..i * new + old].copy_from_slice(&self.coeffs[i * old..(i + 1) * old]);
        }
        self.coeffs = nc;
    }
}

#[derive(Clone, Copy, Default)]
struct ColStat {
    n_l: u32,
    n_u: u32,
    max_a: Coef,
    max_b: Coef,
    occurs: bool,
    in_eq: bool,
}

struct Bucket {
    rep: u32,
    rep_flipped: bool,
    pos: Option<u32>,
    neg: Option<u32>,
}

/// Reusable workspace buffers. They are `mem::take`n while in use (the
/// methods below need disjoint borrows of tableau fields) and put back
/// afterwards so their capacity survives across queries.
#[derive(Default)]
struct Scratch {
    row: Vec<Coef>,
    idx_lo: Vec<u32>,
    idx_hi: Vec<u32>,
    bounds: Section,
    buckets: Vec<Bucket>,
    index: HashMap<(u64, u32), u32, BuildMix>,
    row_dead: Vec<bool>,
    stats: Vec<ColStat>,
}

/// Outcome of the dense Fourier–Motzkin step. `Exact` mutated the tableau
/// in place; `Approx` left it untouched and hands back freshly acquired
/// shadow tableaus (return them to the pool with [`release`]).
pub(crate) enum ElimT {
    Exact,
    Approx {
        dark: Tableau,
        real: Tableau,
        splinters: Vec<Tableau>,
    },
}

/// The dense scratch representation of one [`Problem`].
///
/// Columns `0..base_len` correspond to the loaded problem's variable
/// table (shared via `base_vars`); columns `base_len..materialized` are
/// wildcards minted during elimination; columns `materialized..ncols`
/// are phantom (mentioned by some row but absent from the table), treated
/// as anonymous wildcards.
#[derive(Default)]
pub(crate) struct Tableau {
    stride: usize,
    ncols: usize,
    base_len: usize,
    materialized: usize,
    base_vars: Arc<Vec<VarInfo>>,
    flags: Vec<u8>,
    eqs: Section,
    geqs: Section,
    known_infeasible: bool,
    /// Whether the variable table diverged from `base_vars` (a flag
    /// changed or a wildcard was minted); when false, `to_problem` can
    /// share the loaded table.
    vars_dirty: bool,
    scratch: Scratch,
}

impl Tableau {
    fn load(&mut self, p: &Problem) {
        let mut ncols = p.vars.len();
        for c in p.eqs.iter().chain(&p.geqs) {
            ncols = ncols.max(c.expr().coeffs().len());
        }
        self.ncols = ncols;
        self.base_len = p.vars.len();
        self.materialized = p.vars.len();
        self.base_vars = Arc::clone(&p.vars);
        self.stride = ncols + HEADROOM;
        self.flags.clear();
        for v in p.vars.iter() {
            let mut f = 0u8;
            if v.protected {
                f |= F_PROTECTED;
            }
            if v.dead {
                f |= F_DEAD;
            }
            if v.pinned {
                f |= F_PINNED;
            }
            if v.kind == VarKind::Wildcard {
                f |= F_WILDCARD;
            }
            self.flags.push(f);
        }
        self.flags.resize(ncols, F_WILDCARD);
        self.eqs.clear();
        self.geqs.clear();
        for c in &p.eqs {
            self.eqs
                .push_row(self.stride, c.expr().coeffs(), c.expr().constant(), c.color);
        }
        for c in &p.geqs {
            self.geqs
                .push_row(self.stride, c.expr().coeffs(), c.expr().constant(), c.color);
        }
        self.known_infeasible = p.known_infeasible;
        self.vars_dirty = false;
    }

    /// Converts back to the interned-row representation: the variable
    /// table with its protected/dead/pinned flags and minted wildcards,
    /// the constraints in tableau order with their colors, and the `known_infeasible` flag.
    fn to_problem(&self) -> Problem {
        let vars = if !self.vars_dirty {
            Arc::clone(&self.base_vars)
        } else {
            let mut v: Vec<VarInfo> = Vec::with_capacity(self.materialized);
            for i in 0..self.materialized {
                if i < self.base_len {
                    let mut info = self.base_vars[i];
                    info.protected = self.flags[i] & F_PROTECTED != 0;
                    info.dead = self.flags[i] & F_DEAD != 0;
                    info.pinned = self.flags[i] & F_PINNED != 0;
                    v.push(info);
                } else {
                    v.push(VarInfo {
                        dead: self.flags[i] & F_DEAD != 0,
                        pinned: self.flags[i] & F_PINNED != 0,
                        ..VarInfo::new(VarKind::Wildcard)
                    });
                }
            }
            Arc::new(v)
        };
        let row_to_constraint = |sec: &Section, i: usize, rel: Relation| Constraint {
            row: crate::row::intern(LinExpr::from_dense(
                &sec.row(self.stride, i)[..self.ncols],
                sec.consts[i],
            )),
            rel,
            color: sec.colors[i],
        };
        let eqs = (0..self.eqs.n)
            .map(|i| row_to_constraint(&self.eqs, i, Relation::Zero))
            .collect();
        let geqs = (0..self.geqs.n)
            .map(|i| row_to_constraint(&self.geqs, i, Relation::NonNegative))
            .collect();
        Problem {
            vars,
            eqs,
            geqs,
            known_infeasible: self.known_infeasible,
        }
    }

    /// Full state copy (used for splinters), reusing `self`'s buffers.
    fn copy_from(&mut self, src: &Tableau) {
        self.stride = src.stride;
        self.ncols = src.ncols;
        self.base_len = src.base_len;
        self.materialized = src.materialized;
        self.base_vars = Arc::clone(&src.base_vars);
        self.flags.clear();
        self.flags.extend_from_slice(&src.flags);
        self.eqs.copy_from(src.stride, &src.eqs);
        self.geqs.copy_from(src.stride, &src.geqs);
        self.known_infeasible = src.known_infeasible;
        self.vars_dirty = src.vars_dirty;
    }

    /// Copy of `src` minus every inequality mentioning column `v`, with
    /// `v` marked dead — the `base` problem of `fm_eliminate`.
    fn clone_base_from(&mut self, src: &Tableau, v: usize) {
        self.stride = src.stride;
        self.ncols = src.ncols;
        self.base_len = src.base_len;
        self.materialized = src.materialized;
        self.base_vars = Arc::clone(&src.base_vars);
        self.flags.clear();
        self.flags.extend_from_slice(&src.flags);
        self.eqs.copy_from(src.stride, &src.eqs);
        self.geqs.clear();
        for i in 0..src.geqs.n {
            let row = src.geqs.row(src.stride, i);
            if row[v] == 0 {
                self.geqs
                    .push_row(src.stride, row, src.geqs.consts[i], src.geqs.colors[i]);
            }
        }
        self.known_infeasible = src.known_infeasible;
        self.vars_dirty = src.vars_dirty;
        self.mark_dead(v);
    }

    /// Ensures column `v` is inside the materialized table, minting
    /// anonymous wildcards like `Problem::ensure_var` does.
    fn materialize(&mut self, v: usize) {
        if v >= self.ncols {
            let new_ncols = v + 1;
            if new_ncols > self.stride {
                let new_stride = new_ncols + HEADROOM;
                self.eqs.restride(self.stride, new_stride);
                self.geqs.restride(self.stride, new_stride);
                self.stride = new_stride;
            }
            self.flags.resize(new_ncols, F_WILDCARD);
            self.ncols = new_ncols;
        }
        if v >= self.materialized {
            self.materialized = v + 1;
            self.vars_dirty = true;
        }
    }

    fn mark_dead(&mut self, v: usize) {
        self.materialize(v);
        self.flags[v] |= F_DEAD;
        self.vars_dirty = true;
    }

    fn mark_pinned(&mut self, v: usize) {
        self.materialize(v);
        self.flags[v] |= F_PINNED;
        self.vars_dirty = true;
    }

    /// Mints a wildcard column, like `Problem::add_var(VarKind::Wildcard)`: the new
    /// column index is the next unmaterialized slot (which may alias a
    /// phantom column some row already mentions).
    fn add_wildcard_col(&mut self) -> usize {
        let col = self.materialized;
        self.materialize(col);
        self.flags[col] = F_WILDCARD;
        self.vars_dirty = true;
        col
    }

    #[inline]
    fn is_protected(&self, v: usize) -> bool {
        self.flags[v] & F_PROTECTED != 0
    }

    #[inline]
    fn is_dead(&self, v: usize) -> bool {
        self.flags[v] & F_DEAD != 0
    }

    #[inline]
    fn is_pinned(&self, v: usize) -> bool {
        self.flags[v] & F_PINNED != 0
    }

    // ---- normalize ------------------------------------------------------

    /// Normalizes both sections: the pass `Problem::normalize` documents.
    fn normalize(&mut self) -> Result<Outcome> {
        if self.known_infeasible {
            return Ok(Outcome::Infeasible);
        }
        if self.normalize_eqs()? == Outcome::Infeasible
            || self.normalize_geqs()? == Outcome::Infeasible
        {
            self.known_infeasible = true;
            return Ok(Outcome::Infeasible);
        }
        Ok(Outcome::Consistent)
    }

    /// Equalities: gcd reduction + GCD test, canonical sign (first non-zero
    /// coefficient positive), first-encounter dedup with color meet.
    fn normalize_eqs(&mut self) -> Result<Outcome> {
        let stride = self.stride;
        let ncols = self.ncols;
        let mut w = 0usize;
        for r in 0..self.eqs.n {
            let (g, first) = {
                let row = self.eqs.row(stride, r);
                let mut g = 0;
                let mut first = 0 as Coef;
                for &c in &row[..ncols] {
                    if c != 0 && first == 0 {
                        first = c;
                    }
                    g = int::gcd(g, c);
                }
                (g, first)
            };
            if g == 0 {
                if self.eqs.consts[r] != 0 {
                    self.eqs.truncate(stride, w);
                    return Ok(Outcome::Infeasible);
                }
                continue; // 0 == 0
            }
            if self.eqs.consts[r] % g != 0 {
                // GCD test: no integer solution.
                self.eqs.truncate(stride, w);
                return Ok(Outcome::Infeasible);
            }
            if g > 1 {
                for c in &mut self.eqs.row_mut(stride, r)[..ncols] {
                    *c /= g;
                }
                self.eqs.consts[r] /= g;
            }
            if first < 0 {
                for c in &mut self.eqs.row_mut(stride, r)[..ncols] {
                    *c = -*c;
                }
                self.eqs.consts[r] = -self.eqs.consts[r];
            }
            // Dedup against the rows already kept (equality lists are
            // short); identical (coeffs, constant) merges colors with meet.
            let mut dup = None;
            for o in 0..w {
                if self.eqs.consts[o] == self.eqs.consts[r]
                    && self.eqs.row(stride, o)[..ncols] == self.eqs.row(stride, r)[..ncols]
                {
                    dup = Some(o);
                    break;
                }
            }
            match dup {
                Some(o) => {
                    self.eqs.colors[o] = self.eqs.colors[o].meet(self.eqs.colors[r]);
                }
                None => {
                    self.eqs.copy_row_within(stride, r, w);
                    self.eqs.consts[w] = self.eqs.consts[r];
                    self.eqs.colors[w] = self.eqs.colors[r];
                    w += 1;
                }
            }
        }
        self.eqs.truncate(stride, w);
        Ok(Outcome::Consistent)
    }

    /// Inequalities: gcd tightening, direction bucketing with
    /// tighter-constant merge, opposed-pair coalescing. Buckets are found
    /// through [`direction_hash`] and confirmed with [`same_direction`], so
    /// the hash only places rows: order and merges follow first
    /// encounter.
    fn normalize_geqs(&mut self) -> Result<Outcome> {
        let mut buckets = std::mem::take(&mut self.scratch.buckets);
        let mut index = std::mem::take(&mut self.scratch.index);
        let mut row_dead = std::mem::take(&mut self.scratch.row_dead);
        buckets.clear();
        index.clear();
        row_dead.clear();
        let r = self.normalize_geqs_inner(&mut buckets, &mut index, &mut row_dead);
        self.scratch.buckets = buckets;
        self.scratch.index = index;
        self.scratch.row_dead = row_dead;
        r
    }

    fn normalize_geqs_inner(
        &mut self,
        buckets: &mut Vec<Bucket>,
        index: &mut HashMap<(u64, u32), u32, BuildMix>,
        row_dead: &mut Vec<bool>,
    ) -> Result<Outcome> {
        let stride = self.stride;
        let ncols = self.ncols;
        let eq_n_before = self.eqs.n;
        let mut w = 0usize;
        for r in 0..self.geqs.n {
            let g = self.geqs.row(stride, r)[..ncols]
                .iter()
                .fold(0, |g, &c| int::gcd(g, c));
            if g == 0 {
                if self.geqs.consts[r] < 0 {
                    self.geqs.truncate(stride, w);
                    return Ok(Outcome::Infeasible);
                }
                continue; // constant >= 0: tautology
            }
            if g > 1 {
                let k = int::floor_div(self.geqs.consts[r], g);
                for c in &mut self.geqs.row_mut(stride, r)[..ncols] {
                    *c /= g;
                }
                self.geqs.consts[r] = k;
            }

            let (hash, flipped) = direction_hash(&self.geqs.row(stride, r)[..ncols]);
            let mut probe = 0u32;
            let bidx = loop {
                match index.entry((hash, probe)) {
                    Entry::Vacant(e) => {
                        e.insert(buckets.len() as u32);
                        buckets.push(Bucket {
                            rep: w as u32,
                            rep_flipped: flipped,
                            pos: None,
                            neg: None,
                        });
                        break buckets.len() - 1;
                    }
                    Entry::Occupied(e) => {
                        let bi = *e.get() as usize;
                        let b = &buckets[bi];
                        if same_direction(
                            &self.geqs.row(stride, r)[..ncols],
                            &self.geqs.row(stride, b.rep as usize)[..ncols],
                            flipped != b.rep_flipped,
                        ) {
                            break bi;
                        }
                        probe += 1;
                    }
                }
            };
            let bucket = &mut buckets[bidx];
            let slot = if flipped {
                &mut bucket.neg
            } else {
                &mut bucket.pos
            };
            match *slot {
                Some(i) => {
                    // Same direction and orientation, so the coefficient
                    // vectors are identical: only the constant and color
                    // can differ. Keep the tighter constant; equal
                    // constants merge colors.
                    let i = i as usize;
                    if self.geqs.consts[r] < self.geqs.consts[i] {
                        self.geqs.consts[i] = self.geqs.consts[r];
                        self.geqs.colors[i] = self.geqs.colors[r];
                    } else if self.geqs.consts[r] == self.geqs.consts[i] {
                        self.geqs.colors[i] = self.geqs.colors[i].meet(self.geqs.colors[r]);
                    }
                }
                None => {
                    *slot = Some(w as u32);
                    self.geqs.copy_row_within(stride, r, w);
                    self.geqs.consts[w] = self.geqs.consts[r];
                    self.geqs.colors[w] = self.geqs.colors[r];
                    w += 1;
                }
            }
        }
        self.geqs.truncate(stride, w);
        row_dead.resize(w, false);

        // Opposed pairs: e + c1 >= 0 and -e + c2 >= 0 require c1 + c2 >= 0.
        for bucket in buckets.iter() {
            if let (Some(i), Some(j)) = (bucket.pos, bucket.neg) {
                let (i, j) = (i as usize, j as usize);
                let sum = self.geqs.consts[i] as i128 + self.geqs.consts[j] as i128;
                if sum < 0 {
                    // Rows coalesced so far are dropped, the equalities
                    // they minted are discarded.
                    self.geqs.compact(stride, row_dead);
                    self.eqs.truncate(stride, eq_n_before);
                    return Ok(Outcome::Infeasible);
                }
                if sum == 0 {
                    // Coalesce into an equality, reusing the positive
                    // orientation's row content.
                    let color = self.geqs.colors[i].join(self.geqs.colors[j]);
                    let cst = self.geqs.consts[i];
                    let Tableau { eqs, geqs, .. } = self;
                    let row = geqs.row(stride, i);
                    eqs.push_row(stride, row, cst, color);
                    row_dead[i] = true;
                    row_dead[j] = true;
                }
            }
        }
        self.geqs.compact(stride, row_dead);
        if self.eqs.n > eq_n_before {
            // Newly created equalities need their own normalization.
            if self.normalize_eqs()? == Outcome::Infeasible {
                return Ok(Outcome::Infeasible);
            }
        }
        Ok(Outcome::Consistent)
    }

    // ---- equality elimination -------------------------------------------

    /// Eliminates, where possible, every equality that mentions an
    /// unprotected live column (§3). A unit-coefficient pivot is solved
    /// for and substituted everywhere; otherwise Pugh's mod̂ step mints a
    /// wildcard σ and a derived equation in which the pivot *does* have a
    /// unit coefficient, shrinking coefficients until one appears.
    ///
    /// Equalities over protected columns remain, as do *stride residues*:
    /// projecting `x − 2y = 0` onto `x` leaves `y` with no eliminable
    /// pivot (the mod̂ step would recreate the same shape forever), and the
    /// integer projection of such a constraint is a stride. Its free
    /// columns are **pinned** instead — left in place as existentials of
    /// the result, like the `Exists α` variables the Omega library prints.
    fn eliminate_equalities(&mut self, budget: &mut Budget) -> Result<Outcome> {
        self.eliminate_equalities_with(budget, |_, _, _| {})
    }

    /// [`Tableau::eliminate_equalities`], reporting every substitution
    /// `col := repl·x + rc` it performs to `on_step` (the witness search
    /// replays them backwards).
    fn eliminate_equalities_with(
        &mut self,
        budget: &mut Budget,
        mut on_step: impl FnMut(usize, &[Coef], Coef),
    ) -> Result<Outcome> {
        let mut modhat_steps = 0usize;
        loop {
            if self.normalize()? == Outcome::Infeasible {
                return Ok(Outcome::Infeasible);
            }
            match self.pick_equality_action() {
                None => return Ok(Outcome::Consistent),
                Some(Action::Substitute(eq_idx, pivot)) => {
                    budget.spend(1)?;
                    let rc = self.substitute_step(eq_idx, pivot)?;
                    on_step(pivot, &self.scratch.row, rc);
                }
                Some(Action::ModHat(eq_idx, pivot)) => {
                    budget.spend(1)?;
                    modhat_steps += 1;
                    if modhat_steps > MODHAT_CAP {
                        // Safety net for the termination argument in the
                        // presence of protected columns: pin what is stuck.
                        self.pin_remaining_equality_vars();
                        return Ok(Outcome::Consistent);
                    }
                    let rc = self.mod_hat_step(eq_idx, pivot)?;
                    on_step(pivot, &self.scratch.row, rc);
                }
                Some(Action::Pin(eq_idx)) => {
                    let stride = self.stride;
                    for j in 0..self.ncols {
                        if self.eqs.coeffs[eq_idx * stride + j] != 0
                            && !self.is_protected(j)
                            && !self.is_dead(j)
                        {
                            self.mark_pinned(j);
                        }
                    }
                }
            }
        }
    }

    fn pin_remaining_equality_vars(&mut self) {
        let stride = self.stride;
        for i in 0..self.eqs.n {
            for j in 0..self.ncols {
                if self.eqs.coeffs[i * stride + j] != 0
                    && !self.is_protected(j)
                    && !self.is_dead(j)
                    && !self.is_pinned(j)
                {
                    self.mark_pinned(j);
                }
            }
        }
    }

    /// Picks the next equality-elimination action:
    ///
    /// * a unit-coefficient unprotected, unpinned pivot yields a direct
    ///   substitution (smallest |coef| wins, wildcards preferred);
    /// * otherwise, when a protected or pinned column holds a strictly
    ///   smaller coefficient than every free one, the mod̂ reduction
    ///   cannot make progress: the equality is a stride residue and its
    ///   free columns are pinned;
    /// * otherwise a mod̂ step on the smallest free coefficient.
    ///
    /// The first non-unit equality's fallback sticks.
    fn pick_equality_action(&self) -> Option<Action> {
        let stride = self.stride;
        let ncols = self.ncols;
        let mut fallback: Option<Action> = None;
        for i in 0..self.eqs.n {
            let row = self.eqs.row(stride, i);
            let mut min_free: Option<(usize, Coef, bool)> = None;
            let mut min_stuck: Option<Coef> = None;
            for (v, &coef) in row[..ncols].iter().enumerate() {
                if coef == 0 || self.is_dead(v) {
                    continue;
                }
                if self.is_protected(v) || self.is_pinned(v) {
                    let a = coef.abs();
                    min_stuck = Some(min_stuck.map_or(a, |m: Coef| m.min(a)));
                } else {
                    let is_wild = self.flags[v] & F_WILDCARD != 0;
                    let a = coef.abs();
                    let better = match min_free {
                        None => true,
                        Some((_, b, bw)) => (a, !is_wild) < (b, !bw),
                    };
                    if better {
                        min_free = Some((v, a, is_wild));
                    }
                }
            }
            let Some((v, a, _)) = min_free else { continue };
            if a == 1 {
                return Some(Action::Substitute(i, v));
            }
            if fallback.is_none() {
                fallback = Some(match min_stuck {
                    Some(s) if s < a => Action::Pin(i),
                    _ => Action::ModHat(i, v),
                });
            }
        }
        fallback
    }

    /// Unit-pivot substitution: solves equality `eq_idx` for `pivot`,
    /// removes it, and substitutes the solution everywhere. Leaves the
    /// replacement row in `scratch.row` and returns its constant.
    fn substitute_step(&mut self, eq_idx: usize, pivot: usize) -> Result<Coef> {
        let stride = self.stride;
        let ncols = self.ncols;
        let mut repl = std::mem::take(&mut self.scratch.row);
        repl.clear();
        repl.extend_from_slice(&self.eqs.row(stride, eq_idx)[..ncols]);
        let a = repl[pivot];
        debug_assert_eq!(a.abs(), 1);
        let mut rc = self.eqs.consts[eq_idx];
        let color = self.eqs.colors[eq_idx];
        // v = -a * (eq - a*v): zero the pivot, scale by -a (a = ±1).
        repl[pivot] = 0;
        if a == 1 {
            for c in repl.iter_mut() {
                *c = -*c;
            }
            rc = -rc;
        }
        self.eqs.swap_remove(stride, eq_idx);
        let r = self.substitute_col(pivot, &repl, rc, color);
        self.scratch.row = repl;
        r.map(|()| rc)
    }

    /// Substitutes `v := repl·x + repl_const`: a row axpy into every
    /// constraint whose pivot coefficient is non-zero, then marks the
    /// column dead. The equality's color joins every rewritten row's (a
    /// red equality substituted into a black constraint taints it red).
    fn substitute_col(
        &mut self,
        v: usize,
        repl: &[Coef],
        repl_const: Coef,
        color: Color,
    ) -> Result<()> {
        let stride = self.stride;
        let ncols = self.ncols;
        let Tableau { eqs, geqs, .. } = self;
        for sec in [eqs, geqs] {
            for i in 0..sec.n {
                let off = i * stride;
                let c = sec.coeffs[off + v];
                if c == 0 {
                    continue;
                }
                sec.coeffs[off + v] = 0;
                let row = &mut sec.coeffs[off..off + ncols];
                for (j, &rc) in repl[..ncols].iter().enumerate() {
                    if rc != 0 {
                        row[j] = int::mul_add(c, rc, row[j])?;
                    }
                }
                sec.consts[i] = int::mul_add(c, repl_const, sec.consts[i])?;
                sec.colors[i] = sec.colors[i].join(color);
            }
        }
        self.mark_dead(v);
        Ok(())
    }

    /// One mod̂ step on equality `eq_idx` with pivot column `k`
    /// (|coefficient| > 1): introduce σ, build the reduced equation
    /// `Σ (a_i mod̂ m)·x_i + (c mod̂ m) − m·σ = 0` by a column scan, solve
    /// it for the pivot and substitute everywhere — including into the
    /// original equality, whose coefficients shrink by roughly `m` per
    /// round. Leaves the replacement row in `scratch.row` and returns its
    /// constant.
    fn mod_hat_step(&mut self, eq_idx: usize, k: usize) -> Result<Coef> {
        let a_k = self.eqs.coeffs[eq_idx * self.stride + k];
        debug_assert!(a_k.abs() > 1);
        let m = int::narrow(a_k.unsigned_abs() as i128 + 1)?;
        let sigma = self.add_wildcard_col();
        let stride = self.stride; // may have re-strided
        let ncols = self.ncols;
        let mut repl = std::mem::take(&mut self.scratch.row);
        repl.clear();
        repl.resize(ncols, 0);
        {
            let row = self.eqs.row(stride, eq_idx);
            for j in 0..ncols {
                repl[j] = int::mod_hat(row[j], m);
            }
        }
        let mut rc = int::mod_hat(self.eqs.consts[eq_idx], m);
        repl[sigma] = -m;
        // The reduced equation's pivot coefficient is -sign(a_k): solving
        // for the pivot zeroes it and scales the rest by sign(a_k).
        let s = a_k.signum();
        debug_assert_eq!(repl[k], -s);
        repl[k] = 0;
        if s < 0 {
            for c in repl.iter_mut() {
                *c = -*c;
            }
            rc = -rc;
        }
        let color = self.eqs.colors[eq_idx];
        let r = self.substitute_col(k, &repl, rc, color);
        self.scratch.row = repl;
        r.map(|()| rc)
    }

    // ---- inequality elimination -----------------------------------------

    /// Chooses the next column to eliminate from the inequalities among
    /// live, unprotected, unpinned columns outside every equality:
    /// prefers columns whose elimination is exact, then minimizes the
    /// number of generated constraints. One fused column-statistics pass.
    fn choose_elimination_var(&mut self) -> Option<usize> {
        let stride = self.stride;
        let ncols = self.ncols;
        let mut stats = std::mem::take(&mut self.scratch.stats);
        stats.clear();
        stats.resize(ncols, ColStat::default());
        for i in 0..self.eqs.n {
            for (j, &c) in self.eqs.row(stride, i)[..ncols].iter().enumerate() {
                if c != 0 {
                    stats[j].occurs = true;
                    stats[j].in_eq = true;
                }
            }
        }
        for i in 0..self.geqs.n {
            for (j, &c) in self.geqs.row(stride, i)[..ncols].iter().enumerate() {
                if c > 0 {
                    stats[j].occurs = true;
                    stats[j].n_l += 1;
                    stats[j].max_b = stats[j].max_b.max(c);
                } else if c < 0 {
                    stats[j].occurs = true;
                    stats[j].n_u += 1;
                    stats[j].max_a = stats[j].max_a.max(-c);
                }
            }
        }
        let mut best: Option<(usize, bool, usize)> = None;
        for (v, st) in stats.iter().enumerate() {
            if !st.occurs
                || self.is_dead(v)
                || self.is_protected(v)
                || self.is_pinned(v)
                || st.in_eq
            {
                continue;
            }
            let exact = st.n_l == 0 || st.n_u == 0 || st.max_a == 1 || st.max_b == 1;
            let cost = st.n_l as usize * st.n_u as usize;
            let better = match best {
                None => true,
                Some((_, bex, bcost)) => (!exact, cost) < (!bex, bcost),
            };
            if better {
                best = Some((v, exact, cost));
            }
        }
        self.scratch.stats = stats;
        best.map(|(v, _, _)| v)
    }

    /// Eliminates column `v` from the inequalities by Fourier–Motzkin
    /// extended to integers (§3, after Pugh '91). For a lower bound
    /// `b·z ≥ β` and an upper bound `a·z ≤ α`:
    ///
    /// * the **real shadow** holds `a·β ≤ b·α`, an over-approximation of
    ///   the integer shadow;
    /// * the **dark shadow** holds `a·β + (a−1)(b−1) ≤ b·α`, which
    ///   guarantees an integer `z` exists;
    /// * when `a = 1` or `b = 1` the two coincide and elimination is
    ///   **exact**.
    ///
    /// Any integer solution outside the dark shadow sits close to a lower
    /// bound, `b·z = β + i` with `0 ≤ i ≤ (a_max·b − a_max − b)/a_max`:
    /// those equality-pinned copies are the **splinters**.
    ///
    /// The exact case rewrites this tableau in place; the approximate
    /// case leaves it untouched and returns pooled dark/real/splinter
    /// tableaus. Precondition: no equality mentions `v`.
    fn fm_eliminate(&mut self, v: usize, budget: &mut Budget) -> Result<ElimT> {
        let mut idx_lo = std::mem::take(&mut self.scratch.idx_lo);
        let mut idx_hi = std::mem::take(&mut self.scratch.idx_hi);
        let mut bounds = std::mem::take(&mut self.scratch.bounds);
        let mut srow = std::mem::take(&mut self.scratch.row);
        let r = self.fm_inner(v, budget, &mut idx_lo, &mut idx_hi, &mut bounds, &mut srow);
        self.scratch.idx_lo = idx_lo;
        self.scratch.idx_hi = idx_hi;
        self.scratch.bounds = bounds;
        self.scratch.row = srow;
        r
    }

    fn fm_inner(
        &mut self,
        v: usize,
        budget: &mut Budget,
        idx_lo: &mut Vec<u32>,
        idx_hi: &mut Vec<u32>,
        bounds: &mut Section,
        srow: &mut Vec<Coef>,
    ) -> Result<ElimT> {
        let stride = self.stride;
        let ncols = self.ncols;
        debug_assert!(
            (0..self.eqs.n).all(|i| self.eqs.coeffs[i * stride + v] == 0),
            "fm_eliminate called with column {v} still in an equality"
        );
        idx_lo.clear();
        idx_hi.clear();
        for i in 0..self.geqs.n {
            let c = self.geqs.coeffs[i * stride + v];
            if c > 0 {
                idx_lo.push(i as u32);
            } else if c < 0 {
                idx_hi.push(i as u32);
            }
        }
        if idx_lo.is_empty() || idx_hi.is_empty() {
            // Unbounded in one direction: drop every bound on v.
            self.geqs.retain_zero_col(stride, v);
            self.mark_dead(v);
            return Ok(ElimT::Exact);
        }
        budget.spend(idx_lo.len() * idx_hi.len())?;

        // Whether any pair has (a-1)(b-1) != 0; every lower crosses every
        // upper, so this is "some lower has b > 1 and some upper a > 1".
        let inexact = idx_lo
            .iter()
            .any(|&i| self.geqs.coeffs[i as usize * stride + v] > 1)
            && idx_hi
                .iter()
                .any(|&i| self.geqs.coeffs[i as usize * stride + v] < -1);

        srow.clear();
        srow.resize(ncols, 0);

        if !inexact {
            // Exact: rewrite in place. Save the bound rows, compact the
            // zero-coefficient rows, then append the combined rows
            // lower-major.
            bounds.clear();
            for &i in idx_lo.iter().chain(idx_hi.iter()) {
                let i = i as usize;
                bounds.push_row(
                    stride,
                    self.geqs.row(stride, i),
                    self.geqs.consts[i],
                    self.geqs.colors[i],
                );
            }
            let nl = idx_lo.len();
            let nu = idx_hi.len();
            self.geqs.retain_zero_col(stride, v);
            self.mark_dead(v);
            for li in 0..nl {
                for ui in 0..nu {
                    let cst = combine_pair(
                        bounds.row(stride, li),
                        bounds.consts[li],
                        bounds.row(stride, nl + ui),
                        bounds.consts[nl + ui],
                        v,
                        ncols,
                        srow,
                    )?;
                    let color = bounds.colors[li].join(bounds.colors[nl + ui]);
                    self.geqs.push_row(stride, &srow[..ncols], cst, color);
                }
            }
            return Ok(ElimT::Exact);
        }

        // Approximate: build dark and real shadows plus splinters without
        // touching `self`.
        let mut dark = acquire();
        dark.clone_base_from(self, v);
        let mut real = acquire();
        real.clone_base_from(self, v);
        for &li in idx_lo.iter() {
            let li = li as usize;
            for &ui in idx_hi.iter() {
                let ui = ui as usize;
                let lrow = self.geqs.row(stride, li);
                let urow = self.geqs.row(stride, ui);
                let b = lrow[v];
                let a = -urow[v];
                let cst = combine_pair(
                    lrow,
                    self.geqs.consts[li],
                    urow,
                    self.geqs.consts[ui],
                    v,
                    ncols,
                    srow,
                )?;
                let color = self.geqs.colors[li].join(self.geqs.colors[ui]);
                real.geqs.push_row(stride, &srow[..ncols], cst, color);
                let slack = (a as i128 - 1) * (b as i128 - 1);
                if slack == 0 {
                    dark.geqs.push_row(stride, &srow[..ncols], cst, color);
                } else {
                    let adj = int::narrow(-slack)?;
                    let dc = int::narrow(cst as i128 + adj as i128)?;
                    dark.geqs.push_row(stride, &srow[..ncols], dc, color);
                }
            }
        }

        // Splinters: for each lower bound b·z ≥ β, pin b·z = β + i.
        let a_max = idx_hi
            .iter()
            .map(|&i| -self.geqs.coeffs[i as usize * stride + v])
            .max()
            .expect("uppers nonempty");
        let mut splinters = Vec::new();
        for &li in idx_lo.iter() {
            let li = li as usize;
            let b = self.geqs.coeffs[li * stride + v];
            let num = a_max as i128 * b as i128 - a_max as i128 - b as i128;
            let max_i = int::floor_div(int::narrow(num)?, a_max);
            for i in 0..=max_i.max(-1) {
                budget.spend(1)?;
                let mut s = acquire();
                s.copy_from(self);
                let cst = int::narrow(self.geqs.consts[li] as i128 - i as i128)?;
                s.eqs
                    .push_row(stride, self.geqs.row(stride, li), cst, self.geqs.colors[li]);
                splinters.push(s);
            }
        }
        Ok(ElimT::Approx {
            dark,
            real,
            splinters,
        })
    }
}

/// `a·L + b·U` with `a = -U[v] > 0`, `b = L[v] > 0`, written into `out`:
/// for `L = b·z − β ≥ 0` and `U = α − a·z ≥ 0` this is exactly
/// `b·α − a·β ≥ 0`. Every product is overflow-checked. Returns the
/// combined constant.
fn combine_pair(
    lrow: &[Coef],
    lconst: Coef,
    urow: &[Coef],
    uconst: Coef,
    v: usize,
    ncols: usize,
    out: &mut [Coef],
) -> Result<Coef> {
    let b = lrow[v];
    let a = -urow[v];
    debug_assert!(a > 0 && b > 0);
    for j in 0..ncols {
        let mut acc = 0;
        if lrow[j] != 0 {
            acc = int::mul_add(a, lrow[j], 0)?;
        }
        if urow[j] != 0 {
            acc = int::mul_add(b, urow[j], acc)?;
        }
        out[j] = acc;
    }
    debug_assert_eq!(out[v], 0);
    let mut cst = int::mul_add(a, lconst, 0)?;
    cst = int::mul_add(b, uconst, cst)?;
    Ok(cst)
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Substitute(usize, usize),
    ModHat(usize, usize),
    Pin(usize),
}

// ---- drivers -------------------------------------------------------------

/// The Omega test's satisfiability recursion (§3): eliminate equalities,
/// then one inequality column at a time; on an inexact step check the
/// dark shadow `S₀ ≠ ∅` first, then the real shadow `T = ∅`, and only
/// when both fail the splinters `S₁ … Sₚ`. The dark-shadow fast path can
/// be ablated via [`SolverOptions`](crate::SolverOptions).
fn sat_t(t: &mut Tableau, budget: &mut Budget, depth: usize) -> Result<bool> {
    budget.spend(1)?;
    if depth > MAX_DEPTH {
        return Err(crate::Error::TooComplex { budget: MAX_DEPTH });
    }
    loop {
        // Normalization can coalesce opposed inequalities into fresh
        // equalities, so equality elimination re-runs every iteration (a
        // cheap no-op when no equalities remain).
        if t.eliminate_equalities(budget)? == Outcome::Infeasible {
            return Ok(false);
        }
        let Some(v) = t.choose_elimination_var() else {
            // No live column remains: every residual constraint was
            // constant and normalization kept the problem consistent.
            return Ok(true);
        };
        match t.fm_eliminate(v, budget)? {
            ElimT::Exact => {}
            ElimT::Approx {
                mut dark,
                mut real,
                mut splinters,
            } => {
                let r = (|| {
                    if budget.options().dark_shadow && sat_t(&mut dark, budget, depth + 1)? {
                        return Ok(true);
                    }
                    if !sat_t(&mut real, budget, depth + 1)? {
                        return Ok(false);
                    }
                    for s in splinters.iter_mut() {
                        if sat_t(s, budget, depth + 1)? {
                            return Ok(true);
                        }
                    }
                    Ok(false)
                })();
                release(dark);
                release(real);
                for s in splinters {
                    release(s);
                }
                return r;
            }
        }
    }
}

/// Satisfiability of `p` with every column unprotected. Protection is
/// cleared on the loaded flags instead of on a cloned problem, so a warm
/// query (pooled workspace) allocates nothing at all.
pub(crate) fn sat_problem(p: &Problem, budget: &mut Budget) -> Result<bool> {
    let mut t = acquire();
    t.load(p);
    for f in &mut t.flags {
        *f &= !F_PROTECTED;
    }
    let r = sat_t(&mut t, budget, 0);
    release(t);
    r
}

/// Pure real-shadow projection: `T` in the paper's notation.
fn project_real_t(mut t: Tableau, budget: &mut Budget) -> Result<Problem> {
    loop {
        if t.eliminate_equalities(budget)? == Outcome::Infeasible {
            let p = t.to_problem();
            release(t);
            return Ok(p);
        }
        let Some(v) = t.choose_elimination_var() else {
            let mut p = t.to_problem();
            release(t);
            p.remove_redundant_quick();
            return Ok(p);
        };
        match t.fm_eliminate(v, budget)? {
            ElimT::Exact => {}
            ElimT::Approx {
                dark,
                real,
                splinters,
            } => {
                release(dark);
                for s in splinters {
                    release(s);
                }
                release(t);
                t = real;
            }
        }
    }
}

/// Eliminates every unprotected column. The chain of dark shadows is
/// linear, so its terminal problem lands in `dark_out` (the first store
/// wins); every splinter is projected fully and all of its pieces join
/// `splinters_out` as further members of the union.
fn project_core_t(
    mut t: Tableau,
    budget: &mut Budget,
    dark_out: &mut Option<Problem>,
    splinters_out: &mut Vec<Problem>,
    exact: &mut bool,
    depth: usize,
) -> Result<()> {
    budget.spend(1)?;
    if depth > MAX_DEPTH {
        return Err(crate::Error::TooComplex { budget: MAX_DEPTH });
    }
    loop {
        if t.eliminate_equalities(budget)? == Outcome::Infeasible {
            if dark_out.is_none() {
                *dark_out = Some(t.to_problem());
            }
            release(t);
            return Ok(());
        }
        let Some(v) = t.choose_elimination_var() else {
            if dark_out.is_none() {
                *dark_out = Some(t.to_problem());
            }
            release(t);
            return Ok(());
        };
        match t.fm_eliminate(v, budget)? {
            ElimT::Exact => {}
            ElimT::Approx {
                dark,
                real,
                splinters,
            } => {
                release(real);
                release(t);
                *exact = false;
                project_core_t(dark, budget, dark_out, splinters_out, exact, depth + 1)?;
                for s in splinters {
                    let mut sub_dark = None;
                    project_core_t(s, budget, &mut sub_dark, splinters_out, exact, depth + 1)?;
                    if let Some(d) = sub_dark {
                        if !d.is_known_infeasible() {
                            splinters_out.push(d);
                        }
                    }
                }
                return Ok(());
            }
        }
    }
}

/// Projection body, once protected flags are set on `p`: returns
/// `(real, dark, splinters, exact)` for `project_prepared` to tidy.
pub(crate) fn project_parts(
    p: &Problem,
    budget: &mut Budget,
) -> Result<(Problem, Problem, Vec<Problem>, bool)> {
    let mut t = acquire();
    t.load(p);
    let mut rt = acquire();
    rt.copy_from(&t);
    let real = match project_real_t(rt, budget) {
        Ok(real) => real,
        Err(e) => {
            release(t);
            return Err(e);
        }
    };
    let mut dark_out = None;
    let mut splinters = Vec::new();
    let mut exact = true;
    project_core_t(t, budget, &mut dark_out, &mut splinters, &mut exact, 0)?;
    let dark = dark_out.expect("projection produces a dark shadow");
    Ok((real, dark, splinters, exact))
}

/// `p` normalized in place (`Problem::normalize`). On an error `p` is left
/// exactly as it was.
pub(crate) fn normalize_problem(p: &mut Problem) -> Result<Outcome> {
    let mut t = acquire();
    t.load(p);
    let r = t.normalize();
    if r.is_ok() {
        *p = t.to_problem();
    }
    release(t);
    r
}

/// `p` with every wildcard eliminated that an equality permits, then
/// normalized (the equality and normalization passes of
/// `Problem::simplify`). Every other variable is marked protected, in the
/// result as well. `p` itself is never touched, so an overflow or
/// exhausted budget midway leaves the caller's problem exactly as it was.
pub(crate) fn reduce_equalities(p: &Problem, budget: &mut Budget) -> Result<Problem> {
    let mut t = acquire();
    t.load(p);
    for f in &mut t.flags[..t.base_len] {
        let want = if *f & F_WILDCARD != 0 {
            *f & !F_PROTECTED
        } else {
            *f | F_PROTECTED
        };
        t.vars_dirty |= want != *f;
        *f = want;
    }
    let r = t
        .eliminate_equalities(budget)
        .and_then(|_| t.normalize())
        .map(|_| t.to_problem());
    release(t);
    r
}

// ---- witness sampling -----------------------------------------------------

/// One elimination step of a witness search, replayed backwards to give
/// the eliminated column its value. Rows live in the search's flat arena.
enum Back {
    /// `col = arena[start..end]·x + rc`: a unit substitution or mod̂ step.
    Subst {
        col: usize,
        start: usize,
        end: usize,
        rc: Coef,
    },
    /// `col` was eliminated by Fourier–Motzkin: `arena[start..end]` holds
    /// the inequalities that bounded it, `width` coefficients and then
    /// the constant each.
    Bounds {
        col: usize,
        start: usize,
        end: usize,
        width: usize,
    },
}

/// An integer point of `p`, as a dense assignment over its columns, or
/// `None` when there is none. Protection and pinning are cleared first,
/// so every occurring column is eliminated and gets a value.
pub(crate) fn sample_problem(p: &Problem, budget: &mut Budget) -> Result<Option<Vec<Coef>>> {
    let mut t = acquire();
    t.load(p);
    let ncols = t.ncols;
    for f in &mut t.flags {
        *f &= !(F_PROTECTED | F_PINNED);
    }
    let r = sample_t(&mut t, budget, 0);
    release(t);
    Ok(r?.map(|mut vals| {
        vals.truncate(ncols);
        vals
    }))
}

/// The witness search: runs the satisfiability recursion forward,
/// logging each substitution and each Fourier–Motzkin step's bounds,
/// then assigns the eliminated columns backwards from the terminal
/// problem's point (every remaining column free, so 0). An inexact step
/// tries the dark shadow, whose every point extends to the eliminated
/// column, and then the splinters, which keep that column pinned by an
/// equality and assign it themselves.
fn sample_t(t: &mut Tableau, budget: &mut Budget, depth: usize) -> Result<Option<Vec<Coef>>> {
    budget.spend(1)?;
    if depth > MAX_DEPTH {
        return Err(crate::Error::TooComplex { budget: MAX_DEPTH });
    }
    let mut trail = Vec::new();
    let mut arena = Vec::new();
    loop {
        let outcome = t.eliminate_equalities_with(budget, |col, repl, rc| {
            let start = arena.len();
            arena.extend_from_slice(repl);
            trail.push(Back::Subst {
                col,
                start,
                end: arena.len(),
                rc,
            });
        })?;
        if outcome == Outcome::Infeasible {
            return Ok(None);
        }
        if t.eqs.n > 0 {
            // With nothing protected or pinned, only the mod̂ safety cap
            // leaves an equality behind.
            return Err(crate::Error::TooComplex { budget: MODHAT_CAP });
        }
        let Some(v) = t.choose_elimination_var() else {
            break;
        };
        let width = t.ncols;
        let start = arena.len();
        for i in 0..t.geqs.n {
            let row = &t.geqs.row(t.stride, i)[..width];
            if row[v] != 0 {
                arena.extend_from_slice(row);
                arena.push(t.geqs.consts[i]);
            }
        }
        trail.push(Back::Bounds {
            col: v,
            start,
            end: arena.len(),
            width,
        });
        match t.fm_eliminate(v, budget)? {
            ElimT::Exact => {}
            ElimT::Approx {
                mut dark,
                real,
                mut splinters,
            } => {
                release(real);
                let r = (|| {
                    if let Some(mut vals) = sample_t(&mut dark, budget, depth + 1)? {
                        if back_substitute(&trail, &arena, &mut vals)? {
                            return Ok(Some(vals));
                        }
                    }
                    trail.pop();
                    for s in splinters.iter_mut() {
                        if let Some(mut vals) = sample_t(s, budget, depth + 1)? {
                            if back_substitute(&trail, &arena, &mut vals)? {
                                return Ok(Some(vals));
                            }
                        }
                    }
                    Ok(None)
                })();
                release(dark);
                for s in splinters {
                    release(s);
                }
                return r;
            }
        }
    }
    let mut vals = vec![0; t.ncols];
    Ok(back_substitute(&trail, &arena, &mut vals)?.then_some(vals))
}

/// Replays a witness search's trail backwards over `vals`, a point of
/// the problem the trail ends in, assigning each eliminated column.
/// Picks the lower bound of a Fourier–Motzkin step when there is one.
/// Returns `false` when a step's bounds are empty under `vals`.
fn back_substitute(trail: &[Back], arena: &[Coef], vals: &mut Vec<Coef>) -> Result<bool> {
    for step in trail.iter().rev() {
        match *step {
            Back::Subst {
                col,
                start,
                end,
                rc,
            } => {
                let repl = &arena[start..end];
                vals.resize(vals.len().max(repl.len()), 0);
                let mut acc = rc as i128;
                for (&c, &x) in repl.iter().zip(vals.iter()) {
                    acc += c as i128 * x as i128;
                }
                vals[col] = int::narrow(acc)?;
            }
            Back::Bounds {
                col,
                start,
                end,
                width,
            } => {
                vals.resize(vals.len().max(width), 0);
                let (mut lo, mut hi): (Option<i128>, Option<i128>) = (None, None);
                for row in arena[start..end].chunks_exact(width + 1) {
                    // row[col]·x_col + rest ≥ 0 under `vals`.
                    let mut rest = row[width] as i128;
                    for (j, (&c, &x)) in row[..width].iter().zip(vals.iter()).enumerate() {
                        if j != col {
                            rest += c as i128 * x as i128;
                        }
                    }
                    let a = row[col] as i128;
                    if a > 0 {
                        let b = -rest.div_euclid(a);
                        lo = Some(lo.map_or(b, |l| l.max(b)));
                    } else {
                        let b = rest.div_euclid(-a);
                        hi = Some(hi.map_or(b, |h| h.min(b)));
                    }
                }
                let value = match (lo, hi) {
                    (Some(l), Some(h)) if l > h => return Ok(false),
                    (Some(l), _) => l,
                    (None, Some(h)) => h,
                    (None, None) => 0,
                };
                vals[col] = int::narrow(value)?;
            }
        }
    }
    Ok(true)
}

/// Rows → dense tableau → rows round trip, exposed for representation
/// tests: the result states the same conjunction as `p`, with the same
/// variable table, constraint order, colors, and feasibility flag.
pub fn tableau_roundtrip(p: &Problem) -> Problem {
    let mut t = acquire();
    t.load(p);
    let q = t.to_problem();
    release(t);
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;
    use crate::var::VarKind;

    #[test]
    fn roundtrip_preserves_content() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        let y = p.add_var(VarKind::Symbolic);
        p.add_eq(LinExpr::term(3, x).plus_term(5, y).plus_const(-12));
        p.add_geq(LinExpr::var(x).plus_const(4));
        p.add_geq(LinExpr::term(-7, y).plus_const(100));
        let q = tableau_roundtrip(&p);
        assert_eq!(p.canonical_digest(), q.canonical_digest());
        assert_eq!(p.eqs().len(), q.eqs().len());
        assert_eq!(p.geqs().len(), q.geqs().len());
        for (a, b) in p
            .eqs()
            .iter()
            .chain(p.geqs())
            .zip(q.eqs().iter().chain(q.geqs()))
        {
            assert_eq!(a.expr(), b.expr());
            assert_eq!(a.relation(), b.relation());
            assert_eq!(a.color(), b.color());
        }
    }

    #[test]
    fn pool_reuse_keeps_results_stable() {
        // A query answered on a fresh pool must be answered identically —
        // verdict and budget spend — after a splintering query has left
        // dirty tableaus of other shapes in the thread's pool.
        let query = |n: i64| {
            let mut p = Problem::new();
            let x = p.add_var(VarKind::Input);
            let y = p.add_var(VarKind::Input);
            p.add_geq(LinExpr::term(2, x).plus_term(-3, y).plus_const(n));
            p.add_geq(LinExpr::term(-2, x).plus_term(3, y).plus_const(1 - n));
            p.add_geq(LinExpr::var(x).plus_const(-1));
            p.add_geq(LinExpr::term(-1, x).plus_const(10));
            let mut b = Budget::default();
            (p.is_satisfiable_with(&mut b).unwrap(), b.remaining())
        };
        let mut dirty = Problem::new();
        let vars: Vec<_> = (0..4).map(|_| dirty.add_var(VarKind::Input)).collect();
        for w in vars.windows(2) {
            dirty.add_geq(LinExpr::term(5, w[0]).plus_term(-3, w[1]).plus_const(1));
            dirty.add_geq(LinExpr::term(-5, w[0]).plus_term(3, w[1]).plus_const(2));
        }
        for n in 0..20 {
            let fresh = query(n);
            dirty.is_satisfiable().unwrap();
            assert_eq!(query(n), fresh, "n = {n}");
        }
    }

    /// A problem whose rows are drawn from a few directions, scaled,
    /// negated and shifted: many parallel, duplicate and opposed rows,
    /// mixed colors, and the odd constant-only row.
    fn crowded_problem(rng: &mut harness::Rng) -> Problem {
        let mut p = Problem::new();
        let vars: Vec<_> = (0..rng.gen_range_usize(1..=4))
            .map(|_| p.add_var(VarKind::Input))
            .collect();
        let directions: Vec<Vec<i64>> = (0..rng.gen_range_usize(1..=3))
            .map(|_| vars.iter().map(|_| rng.gen_range_i64(-2..=2)).collect())
            .collect();
        for _ in 0..rng.gen_range_usize(1..=12) {
            let dir = rng.choose(&directions);
            let scale = rng.gen_range_i64(1..=3) * if rng.flip() { -1 } else { 1 };
            let mut e = LinExpr::constant_expr(rng.gen_range_i64(-4..=4));
            for (&v, &c) in vars.iter().zip(dir) {
                e = e.plus_term(scale * c, v);
            }
            let color = if rng.gen_bool(0.25) {
                Color::Red
            } else {
                Color::Black
            };
            let c = if rng.gen_bool(0.2) {
                Constraint::eq(e)
            } else {
                Constraint::geq(e)
            };
            p.add_constraint(c.with_color(color));
        }
        p
    }

    #[test]
    fn normalize_keeps_exactly_the_integer_points() {
        // Gcd tightening, merging parallel rows and coalescing opposed
        // pairs must keep every integer point and add none. The rows'
        // constants are small, so their boundaries cross this box. An
        // `Infeasible` verdict satisfies no point, so it must leave none.
        const BOX: i64 = 4;
        let mut rng = harness::Rng::from_seed(0x0d1e_c7a5);
        let mut infeasible = 0;
        for case in 0..2000 {
            let p = crowded_problem(&mut rng);
            let mut q = p.clone();
            let outcome = q.normalize().unwrap();
            assert_eq!(q.is_known_infeasible(), outcome == Outcome::Infeasible);
            let mut pt = vec![-BOX; p.num_vars()];
            loop {
                assert_eq!(
                    q.satisfies(&pt),
                    p.satisfies(&pt),
                    "case {case}: {p} at {pt:?}"
                );
                let Some(i) = pt.iter().position(|&v| v < BOX) else {
                    break;
                };
                pt[i] += 1;
                pt[..i].fill(-BOX);
            }
            infeasible += usize::from(outcome == Outcome::Infeasible);
        }
        // Both outcomes are exercised.
        assert!((100..1900).contains(&infeasible), "{infeasible}");
    }
}
