//! A persistent on-disk form of the [`SolverCache`], so a compiler-server
//! workload re-analyzing the same kernels pays each solve only once
//! across runs.
//!
//! # Format
//!
//! A plain-text, line-oriented, token stream:
//!
//! ```text
//! omega-solver-cache format=1 solver=1
//! B <id> <base canonical form>
//! E <memo key> <cost> <cached value>
//! C <fnv1a64-checksum-of-everything-above>
//! ```
//!
//! The writer is deterministic: the base table holds exactly the bases
//! that delta entries reference, numbered in serialized order, and entry
//! lines are sorted, so two caches with the same contents produce
//! byte-identical files regardless of hash-map iteration order or of
//! which context built each base. Strings are percent-encoded; numbers
//! are decimal; lists are length-prefixed.
//!
//! # Trust model
//!
//! A cache file is a *hint*, never an authority: any header mismatch
//! (format or solver version bump), parse error, dangling base
//! reference, variable index outside its table, or checksum failure
//! makes [`SolverCache::load_from`] silently return an **empty** cache —
//! the analysis then simply runs cold and produces the same bytes it
//! always would. The checksum is FNV-1a (hand-rolled: `std`'s hasher is
//! randomized per process, which would break cross-run stability); it
//! guards against truncation and accidental corruption, not against
//! adversarial edits. The structural checks do not rely on it: a file
//! with a re-stamped checksum that names a variable outside its table
//! still loads empty, rather than panicking or sizing a coefficient
//! vector by the bogus index.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use crate::cache::{
    BaseForm, CachedValue, DeltaKey, Entry, MemoKey, SharedBase, SolverCache, MAX_ENTRIES,
};
use crate::canon::{CanonKey, Op};
use crate::int::Coef;
use crate::linexpr::{Color, Constraint, LinExpr};
use crate::problem::Problem;
use crate::project::Projection;
use crate::symbol::Name;
use crate::var::{VarId, VarInfo, VarKind};

/// Bumped whenever the serialized layout changes.
const FORMAT_VERSION: u32 = 1;
/// Bumped whenever solver semantics change in a way that invalidates
/// cached verdicts (canonicalization, projection, budget accounting).
const SOLVER_VERSION: u32 = 1;

fn header() -> String {
    format!("omega-solver-cache format={FORMAT_VERSION} solver={SOLVER_VERSION}")
}

/// FNV-1a 64-bit. `DefaultHasher` is seeded per process, so it cannot
/// checksum a file that must validate across runs.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Token writer
// ---------------------------------------------------------------------

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' | b'.' | b'\'' | b'^' => {
                out.push(b as char);
            }
            _ => out.push_str(&format!("%{b:02x}")),
        }
    }
    if out.is_empty() {
        out.push('%');
    }
    out
}

struct W(String);

impl W {
    fn tok(&mut self, t: &str) {
        if !self.0.is_empty() {
            self.0.push(' ');
        }
        self.0.push_str(t);
    }

    fn u(&mut self, v: u64) {
        self.tok(&v.to_string());
    }

    fn i(&mut self, v: Coef) {
        self.tok(&v.to_string());
    }

    fn b(&mut self, v: bool) {
        self.tok(if v { "1" } else { "0" });
    }

    fn s(&mut self, v: &str) {
        self.tok(&esc(v));
    }

    fn kind(&mut self, k: VarKind) {
        self.u(match k {
            VarKind::Input => 0,
            VarKind::Symbolic => 1,
            VarKind::Wildcard => 2,
        });
    }

    fn op(&mut self, op: Op) {
        self.u(match op {
            Op::Sat => 0,
            Op::Project => 1,
            Op::Gist => 2,
        });
    }

    fn expr(&mut self, e: &LinExpr) {
        let terms: Vec<(VarId, Coef)> = e.terms().collect();
        self.u(terms.len() as u64);
        for (v, c) in terms {
            self.u(v.index() as u64);
            self.i(c);
        }
        self.i(e.constant());
    }

    fn constraint(&mut self, c: &Constraint) {
        self.b(c.color() == Color::Red);
        self.expr(c.expr());
    }

    fn constraints(&mut self, cs: &[Constraint]) {
        self.u(cs.len() as u64);
        for c in cs {
            self.constraint(c);
        }
    }

    fn problem(&mut self, p: &Problem) {
        self.b(p.known_infeasible);
        self.u(p.vars.len() as u64);
        for v in p.vars.iter() {
            self.s(v.name.render());
            self.kind(v.kind);
            let flags =
                u64::from(v.protected) | (u64::from(v.dead) << 1) | (u64::from(v.pinned) << 2);
            self.u(flags);
        }
        self.constraints(&p.eqs);
        self.constraints(&p.geqs);
    }

    fn base_form(&mut self, f: &BaseForm) {
        self.b(f.known_infeasible);
        self.u(f.vars.len() as u64);
        for (name, kind) in &f.vars {
            self.s(name.render());
            self.kind(*kind);
        }
        self.constraints(&f.eqs);
        self.constraints(&f.geqs);
    }

    fn key(&mut self, k: &MemoKey, base_ids: &HashMap<&SharedBase, u64>) {
        match k {
            MemoKey::Full(ck) => {
                self.tok("F");
                self.op(ck.op);
                self.b(ck.known_infeasible);
                self.u(ck.vars.len() as u64);
                for v in ck.vars.iter() {
                    self.s(v.name.render());
                    self.kind(v.kind);
                    let flags = u64::from(v.protected)
                        | (u64::from(v.dead) << 1)
                        | (u64::from(v.pinned) << 2);
                    self.u(flags);
                }
                self.constraints(&ck.eqs);
                self.constraints(&ck.geqs);
            }
            MemoKey::Delta(dk) => {
                self.tok("D");
                self.op(dk.op);
                self.u(base_ids[&dk.base]);
                self.u(dk.vars.len() as u64);
                for (name, kind) in &dk.vars {
                    self.s(name.render());
                    self.kind(*kind);
                }
                self.u(dk.keep.len() as u64);
                for &k in &dk.keep {
                    self.u(u64::from(k));
                }
                self.constraints(&dk.eqs);
                self.constraints(&dk.geqs);
            }
        }
    }

    fn value(&mut self, v: &CachedValue) {
        match v {
            CachedValue::Sat(b) => {
                self.tok("S");
                self.b(*b);
            }
            CachedValue::Project(proj) => {
                self.tok("P");
                self.b(proj.exact);
                self.problem(&proj.dark);
                self.u(proj.splinters.len() as u64);
                for s in &proj.splinters {
                    self.problem(s);
                }
                self.problem(&proj.real);
            }
            CachedValue::Gist(g) => {
                self.tok("G");
                self.problem(g);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Token reader (every method returns `None` on malformed input)
// ---------------------------------------------------------------------

fn unesc(t: &str) -> Option<String> {
    if t == "%" {
        return Some(String::new());
    }
    let mut out = Vec::with_capacity(t.len());
    let bytes = t.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = t.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

struct R<'a> {
    toks: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> R<'a> {
    fn new(line: &'a str) -> Self {
        R {
            toks: line.split_ascii_whitespace(),
        }
    }

    fn tok(&mut self) -> Option<&'a str> {
        self.toks.next()
    }

    fn done(&mut self) -> Option<()> {
        match self.toks.next() {
            None => Some(()),
            Some(_) => None,
        }
    }

    fn u(&mut self) -> Option<u64> {
        self.tok()?.parse().ok()
    }

    fn len(&mut self) -> Option<usize> {
        // Reject absurd lengths before allocating.
        let n = self.u()?;
        (n <= 1 << 20).then_some(n as usize)
    }

    fn i(&mut self) -> Option<Coef> {
        self.tok()?.parse().ok()
    }

    fn b(&mut self) -> Option<bool> {
        match self.tok()? {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }

    fn s(&mut self) -> Option<String> {
        unesc(self.tok()?)
    }

    fn kind(&mut self) -> Option<VarKind> {
        match self.u()? {
            0 => Some(VarKind::Input),
            1 => Some(VarKind::Symbolic),
            2 => Some(VarKind::Wildcard),
            _ => None,
        }
    }

    fn op(&mut self) -> Option<Op> {
        match self.u()? {
            0 => Some(Op::Sat),
            1 => Some(Op::Project),
            2 => Some(Op::Gist),
            _ => None,
        }
    }

    /// A linear expression over a table of `nvars` variables: a term on
    /// any other variable is malformed (and would otherwise size the
    /// coefficient vector by the index).
    fn expr(&mut self, nvars: usize) -> Option<LinExpr> {
        let n = self.len()?;
        let mut e = LinExpr::zero();
        for _ in 0..n {
            let v = usize::try_from(self.u()?).ok().filter(|&v| v < nvars)?;
            let c = self.i()?;
            if c == 0 {
                return None; // zero terms are never serialized
            }
            e.set_coef(VarId::from_index(v), c);
        }
        e.set_constant(self.i()?);
        Some(e)
    }

    fn constraint(&mut self, eq: bool, nvars: usize) -> Option<Constraint> {
        let red = self.b()?;
        let expr = self.expr(nvars)?;
        let c = if eq {
            Constraint::eq(expr)
        } else {
            Constraint::geq(expr)
        };
        Some(c.with_color(if red { Color::Red } else { Color::Black }))
    }

    fn constraints(&mut self, eq: bool, nvars: usize) -> Option<Vec<Constraint>> {
        let n = self.len()?;
        (0..n).map(|_| self.constraint(eq, nvars)).collect()
    }

    fn problem(&mut self) -> Option<Problem> {
        let known_infeasible = self.b()?;
        let nvars = self.len()?;
        let mut p = Problem {
            known_infeasible,
            ..Problem::default()
        };
        for _ in 0..nvars {
            let name = self.s()?;
            let kind = self.kind()?;
            let flags = self.u()?;
            if flags > 7 {
                return None;
            }
            let v = p.add_var(name, kind);
            let info = &mut p.vars_mut()[v.index()];
            info.protected = flags & 1 != 0;
            info.dead = flags & 2 != 0;
            info.pinned = flags & 4 != 0;
        }
        p.eqs = self.constraints(true, nvars)?;
        p.geqs = self.constraints(false, nvars)?;
        Some(p)
    }

    fn base_form(&mut self) -> Option<BaseForm> {
        let known_infeasible = self.b()?;
        let nvars = self.len()?;
        let mut vars = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            let name = self.s()?;
            let kind = self.kind()?;
            vars.push((Name::from_str(&name, kind), kind));
        }
        Some(BaseForm {
            known_infeasible,
            vars,
            eqs: self.constraints(true, nvars)?,
            geqs: self.constraints(false, nvars)?,
        })
    }

    /// A memo key; a delta key names its base by index into `bases`, the
    /// bases loaded so far.
    fn key(&mut self, bases: &[SharedBase]) -> Option<MemoKey> {
        match self.tok()? {
            "F" => {
                let op = self.op()?;
                let known_infeasible = self.b()?;
                let nvars = self.len()?;
                let mut vars = Vec::with_capacity(nvars);
                for _ in 0..nvars {
                    let name = self.s()?;
                    let kind = self.kind()?;
                    let flags = self.u()?;
                    if flags > 7 {
                        return None;
                    }
                    vars.push(VarInfo {
                        name: Name::from_str(&name, kind),
                        kind,
                        protected: flags & 1 != 0,
                        dead: flags & 2 != 0,
                        pinned: flags & 4 != 0,
                    });
                }
                Some(MemoKey::Full(CanonKey {
                    op,
                    known_infeasible,
                    vars: Arc::new(vars),
                    eqs: self.constraints(true, nvars)?,
                    geqs: self.constraints(false, nvars)?,
                }))
            }
            "D" => {
                let op = self.op()?;
                // A dangling base reference is malformed.
                let base = bases.get(usize::try_from(self.u()?).ok()?)?.clone();
                let base_nvars = base.form().vars.len();
                let nvars = self.len()?;
                let mut vars = Vec::with_capacity(nvars);
                for _ in 0..nvars {
                    let name = self.s()?;
                    let kind = self.kind()?;
                    vars.push((Name::from_str(&name, kind), kind));
                }
                let nkeep = self.len()?;
                let mut keep = Vec::with_capacity(nkeep);
                for _ in 0..nkeep {
                    keep.push(u32::try_from(self.u()?).ok()?);
                }
                let nvars = base_nvars + vars.len();
                Some(MemoKey::Delta(DeltaKey {
                    op,
                    base,
                    vars,
                    keep,
                    eqs: self.constraints(true, nvars)?,
                    geqs: self.constraints(false, nvars)?,
                }))
            }
            _ => None,
        }
    }

    fn value(&mut self) -> Option<CachedValue> {
        match self.tok()? {
            "S" => Some(CachedValue::Sat(self.b()?)),
            "P" => {
                let exact = self.b()?;
                let dark = self.problem()?;
                let n = self.len()?;
                let splinters = (0..n).map(|_| self.problem()).collect::<Option<_>>()?;
                let real = self.problem()?;
                Some(CachedValue::Project(Projection {
                    dark,
                    splinters,
                    real,
                    exact,
                }))
            }
            "G" => Some(CachedValue::Gist(self.problem()?)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Save / load
// ---------------------------------------------------------------------

impl SolverCache {
    /// Serializes the cache to `text` in the deterministic on-disk format.
    pub(crate) fn serialize(&self) -> String {
        let entries = self.snapshot_entries();

        // Deterministic base numbering: the distinct bases the delta
        // entries reference, sorted by their serialization.
        let mut forms: Vec<(String, &SharedBase)> = entries
            .iter()
            .filter_map(|(key, _)| match key {
                MemoKey::Delta(dk) => Some(&dk.base),
                MemoKey::Full(_) => None,
            })
            .collect::<HashSet<_>>()
            .into_iter()
            .map(|base| {
                let mut w = W(String::new());
                w.base_form(base.form());
                (w.0, base)
            })
            .collect();
        forms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut base_ids = HashMap::new();
        let mut out = header();
        out.push('\n');
        for (id, (form_ser, base)) in forms.iter().enumerate() {
            base_ids.insert(*base, id as u64);
            out.push_str(&format!("B {id} {form_ser}\n"));
        }

        let mut lines: Vec<String> = entries
            .iter()
            .map(|(key, entry)| {
                let mut w = W(String::new());
                w.key(key, &base_ids);
                w.u(entry.cost as u64);
                w.value(&entry.value);
                format!("E {}\n", w.0)
            })
            .collect();
        lines.sort();
        for l in &lines {
            out.push_str(l);
        }

        let checksum = fnv64(out.as_bytes());
        out.push_str(&format!("C {checksum:016x}\n"));
        out
    }

    /// Writes the cache to `path` in a versioned, deterministic text
    /// format. Two caches with the same contents produce byte-identical
    /// files.
    ///
    /// The write is atomic: the bytes go to a uniquely named temporary
    /// file in the same directory, synced, and renamed over `path`. A
    /// crash mid-write, or two concurrent saves to the same path (a
    /// server shutdown racing a one-shot run sharing `--cache-file`),
    /// can therefore never leave a torn file — readers see either the
    /// old complete cache or the new complete cache. The checksum in
    /// the format is the second line of defense, not the first.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing, syncing, or renaming; the
    /// temporary file is removed on failure.
    pub fn save_to(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write as _;
        use std::sync::atomic::{AtomicU64, Ordering};

        // Unique per (process, call): concurrent saves in one process get
        // distinct temp names, and the pid separates processes sharing a
        // cache path.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let file_name = path
            .file_name()
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "cache path has no file name",
                )
            })?
            .to_string_lossy()
            .into_owned();
        let tmp = path.with_file_name(format!(".{file_name}.tmp.{}.{seq}", std::process::id()));
        let write_and_sync = |tmp: &Path| -> std::io::Result<()> {
            let mut f = std::fs::File::create(tmp)?;
            f.write_all(self.serialize().as_bytes())?;
            // Without the sync, a crash after the rename could still
            // surface an empty or partial file on some filesystems.
            f.sync_all()
        };
        match write_and_sync(&tmp).and_then(|()| std::fs::rename(&tmp, path)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Parses a serialized cache; `None` on any malformed input.
    pub(crate) fn deserialize(content: &str) -> Option<SolverCache> {
        // The checksum line covers every byte before it.
        let c_start = if let Some(pos) = content.rfind("\nC ") {
            pos + 1
        } else if content.starts_with("C ") {
            0
        } else {
            return None;
        };
        let prefix = &content[..c_start];
        let mut r = R::new(content[c_start..].trim_end());
        if r.tok()? != "C" {
            return None;
        }
        let stored = u64::from_str_radix(r.tok()?, 16).ok()?;
        r.done()?;
        if fnv64(prefix.as_bytes()) != stored {
            return None;
        }

        let mut lines = prefix.lines();
        if lines.next()? != header() {
            return None;
        }

        let cache = SolverCache::new();
        // Loaded bases, indexed by file id.
        let mut bases: Vec<SharedBase> = Vec::new();
        let mut num_entries = 0usize;
        for line in lines {
            let mut r = R::new(line);
            match r.tok()? {
                "B" => {
                    // Ids must be dense and in order: delta keys name
                    // their base by position.
                    if r.u()? != bases.len() as u64 {
                        return None;
                    }
                    let form = r.base_form()?;
                    r.done()?;
                    bases.push(SharedBase::new(form));
                }
                "E" => {
                    let key = r.key(&bases)?;
                    let cost = usize::try_from(r.u()?).ok()?;
                    let value = r.value()?;
                    r.done()?;
                    if num_entries < MAX_ENTRIES {
                        cache.insert_loaded_entry(key, Entry { cost, value });
                        num_entries += 1;
                    }
                }
                _ => return None,
            }
        }
        Some(cache)
    }

    /// Loads a cache previously written by [`SolverCache::save_to`].
    ///
    /// Returns an **empty** cache (never an error) when the file is
    /// missing, truncated, corrupt, or was written by a different format
    /// or solver version — a stale cache must degrade to a cold run, not
    /// poison results.
    pub fn load_from(path: &Path) -> SolverCache {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|content| SolverCache::deserialize(&content))
            .unwrap_or_default()
    }
}

/// A `HashMap` snapshot of the entry lines, for tests comparing caches.
#[cfg(test)]
fn entry_snapshot(cache: &SolverCache) -> std::collections::HashMap<MemoKey, (usize, String)> {
    cache
        .snapshot_entries()
        .into_iter()
        .map(|(k, e)| {
            let mut w = W(String::new());
            w.value(&e.value);
            (k, (e.cost, w.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Budget, PairContext, ProblemLike, DEFAULT_BUDGET};
    use std::sync::Arc;

    fn populated_cache() -> Arc<SolverCache> {
        let cache = Arc::new(SolverCache::new());
        let mut budget = Budget::new(DEFAULT_BUDGET).with_cache(cache.clone());

        // A full-key sat entry and a projection entry.
        let mut p = Problem::new();
        let x = p.add_var("x~weird name", VarKind::Input);
        let y = p.add_var("y", VarKind::Input);
        p.add_geq(LinExpr::var(x).plus_const(-1));
        p.add_geq(LinExpr::term(2, y).plus_term(-1, x));
        p.is_satisfiable_with(&mut budget).unwrap();
        p.project_with(&[x], &mut budget).unwrap();

        // Delta-keyed entries through a pair context.
        let ctx = PairContext::new(p.clone(), &budget);
        let mut q = ctx.derive();
        q.constrain_lt(&LinExpr::var(x), &LinExpr::var(y)).unwrap();
        q.is_satisfiable_with(&mut budget).unwrap();
        q.project_with(&[y], &mut budget).unwrap();

        // A gist entry.
        let mut g = p.clone();
        g.add_constraint(Constraint::geq(LinExpr::var(y).plus_const(-3)).with_color(Color::Red));
        g.gist_red(&mut budget).unwrap();
        cache
    }

    #[test]
    fn round_trip_preserves_entries_and_bases() {
        let cache = populated_cache();
        let text = cache.serialize();
        let loaded = SolverCache::deserialize(&text).expect("round trip parses");
        // Compare via a re-serialize: the deterministic writer must
        // produce identical bytes.
        assert_eq!(text, loaded.serialize());
        assert_eq!(cache.entry_count(), loaded.entry_count());
        // And entry contents survive: loaded bases are separate
        // allocations that compare equal by content.
        assert_eq!(entry_snapshot(&cache), entry_snapshot(&loaded));
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = populated_cache().serialize();
        let b = populated_cache().serialize();
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_and_stale_files_load_empty() {
        let good = populated_cache().serialize();

        // Bit-flip in the middle: checksum rejects.
        let mut corrupt = good.clone().into_bytes();
        let mid = corrupt.len() / 2;
        corrupt[mid] = corrupt[mid].wrapping_add(1);
        let corrupt = String::from_utf8_lossy(&corrupt).into_owned();
        assert!(SolverCache::deserialize(&corrupt).is_none());

        // Truncation: the checksum line is gone or covers missing bytes.
        let truncated = &good[..good.len() * 2 / 3];
        assert!(SolverCache::deserialize(truncated).is_none());

        // Version bump: header mismatch rejects even with a valid
        // checksum over the edited content.
        let stale = good.replace("solver=1", "solver=0");
        let body_end = stale.rfind("\nC ").unwrap() + 1;
        let restamped = format!(
            "{}C {:016x}\n",
            &stale[..body_end],
            fnv64(stale[..body_end].as_bytes())
        );
        assert!(SolverCache::deserialize(&restamped).is_none());

        // Garbage and empty input.
        assert!(SolverCache::deserialize("not a cache").is_none());
        assert!(SolverCache::deserialize("").is_none());
    }

    #[test]
    fn out_of_range_variable_indices_are_rejected_under_a_valid_checksum() {
        // Hand-built files re-stamped with a valid checksum, so only the
        // structural checks stand between them and the solver types.
        let stamped = |body: String| {
            let body = format!("{}\n{body}", header());
            format!("{body}C {:016x}\n", fnv64(body.as_bytes()))
        };
        // `x >= 0`-shaped constraints on variable `v`: a full key over
        // one variable, a delta key over a one-variable base plus one
        // delta variable, and a gist value over one variable.
        let full = |v: u64| stamped(format!("E F 0 0 1 x 0 0 0 1 0 1 {v} 1 0 1 S 1\n"));
        let delta = |v: u64| {
            stamped(format!(
                "B 0 0 1 x 0 0 0\nE D 0 0 1 y 0 0 0 1 0 1 {v} 1 0 1 S 1\n"
            ))
        };
        let gist = |v: u64| {
            stamped(format!(
                "E F 2 0 1 x 0 0 0 0 1 G 0 1 z 0 0 0 1 0 1 {v} 1 0\n"
            ))
        };
        // In range: every shape loads, so the rejections below are the
        // index checks and not a malformed hand-built line.
        for (what, text) in [("full", full(0)), ("delta", delta(1)), ("gist", gist(0))] {
            let cache = SolverCache::deserialize(&text)
                .unwrap_or_else(|| panic!("{what}: in-range file rejected"));
            assert_eq!(cache.entry_count(), 1, "{what}");
        }
        // One past the table, then indices that used to panic in
        // `VarId::from_index` (beyond u32) or size a coefficient vector
        // by the index (24 GB for 3e9).
        for v in [1, 3_000_000_000, 1 << 32] {
            assert!(
                SolverCache::deserialize(&full(v)).is_none(),
                "full key, v={v}"
            );
            assert!(
                SolverCache::deserialize(&gist(v)).is_none(),
                "gist value, v={v}"
            );
        }
        for v in [2, 3_000_000_000, 1 << 32] {
            assert!(
                SolverCache::deserialize(&delta(v)).is_none(),
                "delta key, v={v}"
            );
        }
    }

    #[test]
    fn load_from_missing_path_is_empty() {
        let cache = SolverCache::load_from(Path::new("/nonexistent/omega-cache"));
        assert_eq!(cache.entry_count(), 0);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn loaded_cache_serves_warm_hits_with_cold_costs() {
        let cache = populated_cache();
        let text = cache.serialize();
        let loaded = Arc::new(SolverCache::deserialize(&text).unwrap());

        let mut p = Problem::new();
        let x = p.add_var("x~weird name", VarKind::Input);
        let y = p.add_var("y", VarKind::Input);
        p.add_geq(LinExpr::var(x).plus_const(-1));
        p.add_geq(LinExpr::term(2, y).plus_term(-1, x));

        // Cold cost measured against a fresh cache.
        let mut cold = Budget::new(DEFAULT_BUDGET).with_cache(Arc::new(SolverCache::new()));
        let cold_verdict = p.is_satisfiable_with(&mut cold).unwrap();
        let cold_cost = DEFAULT_BUDGET - cold.remaining();

        // Warm run against the loaded cache: same verdict, same cost,
        // zero misses.
        let mut warm = Budget::new(DEFAULT_BUDGET).with_cache(loaded.clone());
        assert_eq!(p.is_satisfiable_with(&mut warm).unwrap(), cold_verdict);
        assert_eq!(DEFAULT_BUDGET - warm.remaining(), cold_cost);
        assert_eq!(loaded.stats().misses, 0);
        assert_eq!(loaded.stats().hits, 1);

        // Delta-keyed queries also hit: the new PairContext's base equals
        // the loaded one by content.
        let mut budget = Budget::new(DEFAULT_BUDGET).with_cache(loaded.clone());
        let ctx = PairContext::new(p, &budget);
        let mut q = ctx.derive();
        q.constrain_lt(&LinExpr::var(x), &LinExpr::var(y)).unwrap();
        q.is_satisfiable_with(&mut budget).unwrap();
        assert_eq!(loaded.stats().misses, 0);
    }

    #[test]
    fn string_escaping_round_trips() {
        for s in [
            "",
            "plain",
            "with space",
            "per%cent",
            "tab\tand\nnewline",
            "ünïcode",
        ] {
            assert_eq!(unesc(&esc(s)).as_deref(), Some(s));
        }
    }
}
