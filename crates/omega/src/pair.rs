//! Per-pair solver contexts: canonicalize a dependence pair's base
//! problem **once**, then express each derived query (ordering cases,
//! distance probes, projections for covering/kill tests) as a small
//! constraint *delta* against that base.
//!
//! The memo key for a delta query is `(shared base form, canonical
//! delta)`, so a lookup normalizes only the handful of added constraints
//! instead of re-canonicalizing the whole conjunction. This is sound
//! because canonicalization is per-constraint-local: the canonical form
//! of `base ∧ delta` is exactly the sorted merge of the base's canonical
//! constraint lists with the delta's (see [`crate::canon`]), so the
//! solver runs on the very same canonical problem either way and cached
//! values — and their recorded budget costs — are bit-identical to the
//! full-key path.
//!
//! A base is only eligible for delta keying when it is all-black and its
//! variable table carries no protected/dead/pinned flags (true for every
//! problem dependence analysis builds from scratch); otherwise every
//! query transparently falls back to materializing the full problem,
//! which preserves cache-off behavior exactly.

use std::sync::Arc;

use crate::cache::{self, BaseForm, CachedValue, DeltaKey, MemoKey, SharedBase, SolverCache};
use crate::canon::{canonicalize, canonicalize_delta, merge_sorted, Op};
use crate::linexpr::{Color, Constraint, LinExpr};
use crate::problem::{Budget, Problem};
use crate::project::{project_prepared, Projection};
use crate::tableau;
use crate::var::{VarId, VarInfo, VarKind};
use crate::Result;

/// The operations shared by [`Problem`] and [`DeltaProblem`]: building
/// code (iteration spaces, ordering constraints, distance probes) is
/// written against this trait so it can target either a materialized
/// problem or a cheap delta over a [`PairContext`] base.
pub trait ProblemLike: Clone {
    /// Adds a variable and returns its id.
    fn add_var(&mut self, kind: VarKind) -> VarId;

    /// Number of variables in the problem (base plus delta).
    fn num_vars(&self) -> usize;

    /// Adds the equality `expr == 0`.
    fn add_eq(&mut self, expr: LinExpr);

    /// Adds the inequality `expr >= 0`.
    fn add_geq(&mut self, expr: LinExpr);

    /// Adds `lhs >= rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overflow`](crate::Error::Overflow) on coefficient
    /// overflow.
    fn constrain_ge(&mut self, lhs: &LinExpr, rhs: &LinExpr) -> Result<()> {
        self.add_geq(lhs.combine(1, -1, rhs)?);
        Ok(())
    }

    /// Adds `lhs <= rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overflow`](crate::Error::Overflow) on coefficient
    /// overflow.
    fn constrain_le(&mut self, lhs: &LinExpr, rhs: &LinExpr) -> Result<()> {
        self.add_geq(rhs.combine(1, -1, lhs)?);
        Ok(())
    }

    /// Adds `lhs < rhs` (i.e. `rhs - lhs - 1 >= 0`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overflow`](crate::Error::Overflow) on coefficient
    /// overflow.
    fn constrain_lt(&mut self, lhs: &LinExpr, rhs: &LinExpr) -> Result<()> {
        let mut e = rhs.combine(1, -1, lhs)?;
        e.add_constant(-1)?;
        self.add_geq(e);
        Ok(())
    }

    /// Adds `lhs == rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overflow`](crate::Error::Overflow) on coefficient
    /// overflow.
    fn constrain_eq(&mut self, lhs: &LinExpr, rhs: &LinExpr) -> Result<()> {
        self.add_eq(lhs.combine(1, -1, rhs)?);
        Ok(())
    }

    /// Integer satisfiability with an explicit work budget.
    ///
    /// # Errors
    ///
    /// See [`Problem::is_satisfiable`].
    fn is_satisfiable_with(&self, budget: &mut Budget) -> Result<bool>;

    /// Exact projection onto `keep` with an explicit work budget.
    ///
    /// # Errors
    ///
    /// See [`Problem::project`].
    fn project_with(&self, keep: &[VarId], budget: &mut Budget) -> Result<Projection>;

    /// Materializes the conjunction as a standalone [`Problem`].
    fn to_problem(&self) -> Problem;
}

impl ProblemLike for Problem {
    fn add_var(&mut self, kind: VarKind) -> VarId {
        Problem::add_var(self, kind)
    }

    fn num_vars(&self) -> usize {
        Problem::num_vars(self)
    }

    fn add_eq(&mut self, expr: LinExpr) {
        Problem::add_eq(self, expr);
    }

    fn add_geq(&mut self, expr: LinExpr) {
        Problem::add_geq(self, expr);
    }

    fn is_satisfiable_with(&self, budget: &mut Budget) -> Result<bool> {
        Problem::is_satisfiable_with(self, budget)
    }

    fn project_with(&self, keep: &[VarId], budget: &mut Budget) -> Result<Projection> {
        Problem::project_with(self, keep, budget)
    }

    fn to_problem(&self) -> Problem {
        self.clone()
    }
}

/// A dependence pair's shared base problem, canonicalized at most once.
///
/// Derive per-query [`DeltaProblem`]s with [`PairContext::derive`]; each
/// query then hits the memo cache under a `(base, delta)` key without
/// re-normalizing the base's constraints.
///
/// Cloning is cheap (the base is behind an [`Arc`]).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use omega::{Budget, LinExpr, PairContext, Problem, ProblemLike, SolverCache, VarKind};
///
/// let mut base = Problem::new();
/// let i = base.add_var(VarKind::Input);
/// base.add_geq(LinExpr::var(i).plus_const(-1)); // i >= 1
///
/// let cache = Arc::new(SolverCache::new());
/// let mut budget = Budget::default().with_cache(cache.clone());
/// let ctx = PairContext::new(base, &budget);
///
/// let mut q = ctx.derive();
/// q.constrain_le(&LinExpr::var(i), &LinExpr::constant_expr(0))?; // i <= 0
/// assert!(!q.is_satisfiable_with(&mut budget)?);
/// // The base was canonicalized once, the query only its delta.
/// assert_eq!(cache.stats().full_canons, 1);
/// assert_eq!(cache.stats().delta_canons, 1);
/// # Ok::<(), omega::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct PairContext {
    inner: Arc<PairInner>,
}

#[derive(Debug)]
struct PairInner {
    base: Problem,
    cached: Option<CachedBase>,
}

#[derive(Debug)]
struct CachedBase {
    cache: Arc<SolverCache>,
    /// The variable table of `base`, shared with merged problems.
    vars: Arc<Vec<VarInfo>>,
    /// The canonical form of `base` (constraint lists GCD-reduced,
    /// sorted, deduplicated), hashed once here; delta keys share it.
    base: SharedBase,
}

impl PairContext {
    /// Wraps `base` as a pair context. When `budget` carries an active
    /// memo cache and the base is eligible (all constraints black, no
    /// variable flags set), the base is canonicalized now — once — and
    /// hashed; otherwise derived queries transparently materialize and
    /// take the classic full-canonicalization path.
    pub fn new(base: Problem, budget: &Budget) -> Self {
        let cached = budget.active_cache().and_then(|cache| {
            if !delta_eligible(&base) {
                return None;
            }
            cache.note_full_canon();
            let canon = canonicalize(&base);
            let base = SharedBase::new(BaseForm {
                known_infeasible: canon.known_infeasible,
                vars: canon.vars.iter().map(|v| v.kind).collect(),
                eqs: canon.eqs,
                geqs: canon.geqs,
            });
            Some(CachedBase {
                cache,
                vars: canon.vars,
                base,
            })
        });
        PairContext {
            inner: Arc::new(PairInner { base, cached }),
        }
    }

    /// The base problem this context wraps.
    pub fn base(&self) -> &Problem {
        &self.inner.base
    }

    /// Whether queries derived from this context use delta keys (a cache
    /// was attached and the base was eligible).
    pub fn is_delta_keyed(&self) -> bool {
        self.inner.cached.is_some()
    }

    /// Starts an empty delta over the base.
    pub fn derive(&self) -> DeltaProblem {
        DeltaProblem {
            ctx: self.clone(),
            vars: Vec::new(),
            eqs: Vec::new(),
            geqs: Vec::new(),
        }
    }
}

/// A base is delta-keyable only when solving it is invariant under the
/// preparation the sat/project entry points perform: all-black (blacken
/// is a no-op) and flag-free (clearing protected is a no-op, and the
/// shared [`BaseForm`] needs no flag columns).
fn delta_eligible(base: &Problem) -> bool {
    base.vars
        .iter()
        .all(|v| !v.protected && !v.dead && !v.pinned)
        && base
            .eqs
            .iter()
            .chain(base.geqs.iter())
            .all(|c| c.color() == Color::Black)
}

/// A query problem expressed as `base ∧ delta`: extra variables and
/// constraints layered over a [`PairContext`] base.
///
/// Implements [`ProblemLike`], so the same building code serves both the
/// delta path and plain problems. Satisfiability and projection consult
/// the memo cache under a delta key when the context's cache is the one
/// active on the query budget; in every other configuration the delta is
/// materialized with [`ProblemLike::to_problem`] and behaves exactly like
/// hand-building the problem.
#[derive(Debug, Clone)]
pub struct DeltaProblem {
    ctx: PairContext,
    vars: Vec<VarKind>,
    eqs: Vec<Constraint>,
    geqs: Vec<Constraint>,
}

impl DeltaProblem {
    /// The cached base, but only when it is usable with `budget` (same
    /// cache attached).
    fn active_base(&self, budget: &Budget) -> Option<(&CachedBase, Arc<SolverCache>)> {
        let cb = self.ctx.inner.cached.as_ref()?;
        let active = budget.active_cache()?;
        Arc::ptr_eq(&cb.cache, &active).then_some((cb, active))
    }

    /// The canonical form of `base ∧ delta`, assembled by merging the
    /// base's canonical constraint lists with the canonicalized delta —
    /// identical to canonicalizing the materialized problem.
    fn merged(&self, cb: &CachedBase, eqs: &[Constraint], geqs: &[Constraint]) -> Problem {
        let form = cb.base.form();
        let mut p = Problem {
            vars: cb.vars.clone(),
            eqs: merge_sorted(&form.eqs, eqs),
            geqs: merge_sorted(&form.geqs, geqs),
            known_infeasible: form.known_infeasible,
        };
        for &kind in &self.vars {
            p.add_var(kind);
        }
        p
    }
}

impl ProblemLike for DeltaProblem {
    fn add_var(&mut self, kind: VarKind) -> VarId {
        let id = VarId::from_index(self.num_vars());
        self.vars.push(kind);
        id
    }

    fn num_vars(&self) -> usize {
        self.ctx.inner.base.num_vars() + self.vars.len()
    }

    fn add_eq(&mut self, expr: LinExpr) {
        self.eqs.push(Constraint::eq(expr));
    }

    fn add_geq(&mut self, expr: LinExpr) {
        self.geqs.push(Constraint::geq(expr));
    }

    fn is_satisfiable_with(&self, budget: &mut Budget) -> Result<bool> {
        let Some((cb, cache)) = self.active_base(budget) else {
            return self.to_problem().is_satisfiable_with(budget);
        };
        cache.note_delta_canon();
        let (eqs, geqs) = canonicalize_delta(&self.eqs, &self.geqs);
        // The canonicalized delta moves *into* the key (no clones); on a
        // miss the compute closure reads it back out of the key.
        let key = MemoKey::Delta(DeltaKey {
            op: Op::Sat,
            base: cb.base.clone(),
            vars: self.vars.clone(),
            keep: Vec::new(),
            eqs,
            geqs,
        });
        cache::with_memo(
            budget,
            cache,
            key,
            |&v| CachedValue::Sat(v),
            |v| match v {
                CachedValue::Sat(b) => Some(b),
                _ => None,
            },
            |b, key| {
                let MemoKey::Delta(dk) = key else {
                    unreachable!("sat delta computes under a delta key")
                };
                tableau::sat_problem(&self.merged(cb, &dk.eqs, &dk.geqs), b)
            },
        )
    }

    fn project_with(&self, keep: &[VarId], budget: &mut Budget) -> Result<Projection> {
        let Some((cb, cache)) = self.active_base(budget) else {
            return self.to_problem().project_with(keep, budget);
        };
        cache.note_delta_canon();
        let (eqs, geqs) = canonicalize_delta(&self.eqs, &self.geqs);
        let mut keep_ids: Vec<u32> = keep.iter().map(|v| v.0).collect();
        keep_ids.sort_unstable();
        keep_ids.dedup();
        // Delta and keep set move *into* the key (no clones); the compute
        // closure reads them back out on a miss.
        let key = MemoKey::Delta(DeltaKey {
            op: Op::Project,
            base: cb.base.clone(),
            vars: self.vars.clone(),
            keep: keep_ids,
            eqs,
            geqs,
        });
        cache::with_memo(
            budget,
            cache,
            key,
            |v: &Projection| CachedValue::Project(Box::new(v.clone())),
            |v| match v {
                CachedValue::Project(proj) => Some(*proj),
                _ => None,
            },
            |b, key| {
                let MemoKey::Delta(dk) = key else {
                    unreachable!("project delta computes under a delta key")
                };
                let mut merged = self.merged(cb, &dk.eqs, &dk.geqs);
                for &v in keep {
                    merged.set_protected(v, true);
                }
                project_prepared(merged, b)
            },
        )
    }

    fn to_problem(&self) -> Problem {
        let mut p = self.ctx.inner.base.clone();
        for &kind in &self.vars {
            p.add_var(kind);
        }
        for c in &self.eqs {
            p.add_constraint(c.clone());
        }
        for c in &self.geqs {
            p.add_constraint(c.clone());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_BUDGET;

    /// `1 <= i <= n ∧ 1 <= i' <= n` — the shape of a dependence base.
    fn pair_base() -> (Problem, VarId, VarId, VarId) {
        let mut p = Problem::new();
        let i = p.add_var(VarKind::Input);
        let j = p.add_var(VarKind::Input);
        let n = p.add_var(VarKind::Symbolic);
        for v in [i, j] {
            p.add_geq(LinExpr::var(v).plus_const(-1));
            p.add_geq(LinExpr::var(n).plus_term(-1, v));
        }
        (p, i, j, n)
    }

    fn cached_budget() -> (Arc<SolverCache>, Budget) {
        let cache = Arc::new(SolverCache::new());
        let budget = Budget::default().with_cache(cache.clone());
        (cache, budget)
    }

    #[test]
    fn delta_sat_matches_materialized_sat() {
        let (base, i, j, _) = pair_base();
        let (_, mut budget) = cached_budget();
        let ctx = PairContext::new(base, &budget);
        assert!(ctx.is_delta_keyed());

        // i < i' (satisfiable) and i == i' ∧ i > i' (not).
        let mut lt = ctx.derive();
        lt.constrain_lt(&LinExpr::var(i), &LinExpr::var(j)).unwrap();
        assert_eq!(
            lt.is_satisfiable_with(&mut budget).unwrap(),
            lt.to_problem().is_satisfiable().unwrap()
        );
        assert!(lt.is_satisfiable_with(&mut budget).unwrap());

        let mut contra = ctx.derive();
        contra
            .constrain_eq(&LinExpr::var(i), &LinExpr::var(j))
            .unwrap();
        contra
            .constrain_lt(&LinExpr::var(j), &LinExpr::var(i))
            .unwrap();
        assert!(!contra.is_satisfiable_with(&mut budget).unwrap());
        assert!(!contra.to_problem().is_satisfiable().unwrap());
    }

    #[test]
    fn delta_hit_charges_the_same_cost_as_full_key_path() {
        // The delta path must be budget-indistinguishable from the classic
        // full-canonicalization path: both solve the same canonical
        // problem, so hits recorded by one serve the other's cost exactly.
        let (base, i, j, _) = pair_base();
        let (cache, _) = cached_budget();

        // Cold solve through the full path on the materialized problem.
        let ctx_budget = Budget::new(DEFAULT_BUDGET).with_cache(cache.clone());
        let ctx = PairContext::new(base, &ctx_budget);
        let mut q = ctx.derive();
        q.constrain_lt(&LinExpr::var(i), &LinExpr::var(j)).unwrap();

        let mut full_cold = Budget::new(DEFAULT_BUDGET).with_cache(Arc::new(SolverCache::new()));
        q.to_problem().is_satisfiable_with(&mut full_cold).unwrap();
        let full_cost = DEFAULT_BUDGET - full_cold.remaining();

        let mut delta_cold = Budget::new(DEFAULT_BUDGET).with_cache(cache.clone());
        q.is_satisfiable_with(&mut delta_cold).unwrap();
        let delta_cost = DEFAULT_BUDGET - delta_cold.remaining();
        assert_eq!(full_cost, delta_cost);

        // And a warm delta query charges the recorded cold cost.
        let mut warm = Budget::new(DEFAULT_BUDGET).with_cache(cache.clone());
        q.is_satisfiable_with(&mut warm).unwrap();
        assert_eq!(DEFAULT_BUDGET - warm.remaining(), delta_cost);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn delta_projection_matches_materialized_projection() {
        let (base, i, j, n) = pair_base();
        let (_, mut budget) = cached_budget();
        let ctx = PairContext::new(base, &budget);

        let mut q = ctx.derive();
        q.constrain_lt(&LinExpr::var(i), &LinExpr::var(j)).unwrap();
        let delta_proj = q.project_with(&[j, n], &mut budget).unwrap();
        // The contract is bit-identity with the full *cached* path (which
        // also canonicalizes before projecting).
        let mut full_budget = Budget::default().with_cache(Arc::new(SolverCache::new()));
        let full_proj = q
            .to_problem()
            .project_with(&[j, n], &mut full_budget)
            .unwrap();
        assert_eq!(delta_proj.is_exact(), full_proj.is_exact());
        assert_eq!(delta_proj.dark().eqs(), full_proj.dark().eqs());
        assert_eq!(delta_proj.dark().geqs(), full_proj.dark().geqs());
        // i' >= 2 must survive; i' <= 1 must not.
        assert!(delta_proj.dark().satisfies(&[0, 2, 5]));
        assert!(!delta_proj.dark().satisfies(&[0, 1, 5]));
    }

    #[test]
    fn base_is_canonicalized_once_across_queries() {
        let (base, i, j, _) = pair_base();
        let (cache, mut budget) = cached_budget();
        let ctx = PairContext::new(base, &budget);
        for k in 0..4 {
            let mut q = ctx.derive();
            q.constrain_eq(&LinExpr::var(j), &LinExpr::var(i).plus_const(k))
                .unwrap();
            q.is_satisfiable_with(&mut budget).unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.full_canons, 1, "base canonicalized more than once");
        assert_eq!(s.delta_canons, 4);
    }

    #[test]
    fn delta_with_new_variables_round_trips() {
        let (base, i, j, _) = pair_base();
        let (_, mut budget) = cached_budget();
        let ctx = PairContext::new(base, &budget);
        let mut q = ctx.derive();
        let d = q.add_var(VarKind::Input);
        assert_eq!(d.index(), q.num_vars() - 1);
        // d = i' - i, d >= 1.
        q.add_eq(LinExpr::var(d).plus_term(-1, j).plus_term(1, i));
        q.add_geq(LinExpr::var(d).plus_const(-1));
        let delta_proj = q.project_with(&[d], &mut budget).unwrap();
        let mut full_budget = Budget::default().with_cache(Arc::new(SolverCache::new()));
        let full_proj = q.to_problem().project_with(&[d], &mut full_budget).unwrap();
        assert_eq!(delta_proj.dark().geqs(), full_proj.dark().geqs());
    }

    #[test]
    fn foreign_cache_falls_back_to_materialization() {
        let (base, i, j, _) = pair_base();
        let (ctx_cache, ctx_budget) = cached_budget();
        let ctx = PairContext::new(base.clone(), &ctx_budget);
        let mut q = ctx.derive();
        q.constrain_lt(&LinExpr::var(i), &LinExpr::var(j)).unwrap();

        // A budget with a *different* cache: the delta key would dangle, so
        // the query must materialize (and populate the other cache under a
        // full key).
        let other = Arc::new(SolverCache::new());
        let mut other_budget = Budget::default().with_cache(other.clone());
        assert!(q.is_satisfiable_with(&mut other_budget).unwrap());
        assert_eq!(other.stats().full_canons, 1);
        assert_eq!(other.stats().delta_canons, 0);
        // And with no cache at all.
        let mut plain = Budget::default();
        assert!(q.is_satisfiable_with(&mut plain).unwrap());
        assert_eq!(ctx_cache.stats().delta_canons, 0);
    }

    #[test]
    fn ineligible_base_disables_delta_keys() {
        let (mut base, i, _, _) = pair_base();
        base.set_protected(i, true);
        let (cache, mut budget) = cached_budget();
        let ctx = PairContext::new(base, &budget);
        assert!(!ctx.is_delta_keyed());
        let q = ctx.derive();
        q.is_satisfiable_with(&mut budget).unwrap();
        assert_eq!(cache.stats().delta_canons, 0);
        assert_eq!(cache.stats().full_canons, 1); // the materialized query
    }

    #[test]
    fn identical_bases_share_entries() {
        let (base, i, j, _) = pair_base();
        let (cache, mut budget) = cached_budget();
        let a = PairContext::new(base.clone(), &budget);
        let b = PairContext::new(base, &budget);
        // Same canonical form in two separate allocations → equal keys →
        // a query through one context is a warm hit through the other.
        let mut qa = a.derive();
        qa.constrain_lt(&LinExpr::var(i), &LinExpr::var(j)).unwrap();
        qa.is_satisfiable_with(&mut budget).unwrap();
        let mut qb = b.derive();
        qb.constrain_lt(&LinExpr::var(i), &LinExpr::var(j)).unwrap();
        qb.is_satisfiable_with(&mut budget).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn a_base_stays_shareable_however_many_came_before() {
        // `lo <= x` for 4,200 distinct `lo`: more distinct bases than a
        // bounded base table could record. Each still keys its entries,
        // so a rebuilt context of the last one hits.
        let ctx_for = |lo: i64, budget: &Budget| {
            let mut p = Problem::new();
            let x = p.add_var(VarKind::Input);
            p.add_geq(LinExpr::var(x).plus_const(-lo));
            (PairContext::new(p, budget), x)
        };
        let query = |(ctx, x): (PairContext, VarId), budget: &mut Budget| {
            let mut q = ctx.derive();
            q.constrain_le(&LinExpr::var(x), &LinExpr::constant_expr(5_000))
                .unwrap();
            q.is_satisfiable_with(budget).unwrap()
        };
        let (cache, mut budget) = cached_budget();
        for lo in 0..4_200 {
            assert!(query(ctx_for(lo, &budget), &mut budget));
        }
        assert_eq!(cache.stats().hits, 0);
        assert!(query(ctx_for(4_199, &budget), &mut budget));
        assert_eq!(
            cache.stats().hits,
            1,
            "the last base's entry was not shared"
        );
    }
}
