//! A thread-safe memo cache for solver verdicts, keyed by the canonical
//! problem form of [`canon`](crate::canon).
//!
//! The cache is attached to a [`Budget`] (see [`Budget::with_cache`]) and
//! consulted by the satisfiability, projection and gist entry points of
//! every query run under that budget. Whether a cache is used at all is
//! decided by attaching one: a budget without a cache runs cold.
//!
//! # Determinism contract
//!
//! Results served from the cache must be indistinguishable — in value
//! *and* in budget consumption — from a cold computation, so that an
//! analysis run is bit-identical whether a key was computed here or by
//! another worker thread moments earlier:
//!
//! * cached values are pure functions of the key: syntactic results
//!   (projections, gists) are computed on the canonicalized problem, not
//!   the original;
//! * every entry records the exact number of budget steps the cold
//!   computation spent; a hit charges that amount;
//! * a hit is only taken when the remaining budget covers the recorded
//!   cost — otherwise the computation re-runs cold and exhausts the
//!   budget exactly as an uncached run would;
//! * during a cold (miss) computation the cache is detached, so nested
//!   queries also run cold and the recorded cost is schedule-independent;
//! * errors are never cached.
//!
//! # Sharding
//!
//! The entry map is split across [`SHARD_COUNT`] independently locked
//! shards (mirroring the row store's sharding), picked by the high bits
//! of the key's hash. A key is hashed once per lookup, into a
//! [`HashedKey`]: the same hash picks the shard and places the key in
//! the shard's map, and a hit is confirmed by the key's `Eq`.
//! Simultaneous analyses — the two-level corpus pool runs many programs
//! against one cache — mostly touch different shards and share hits
//! instead of serializing on one global lock. Sharding is placement
//! only: it cannot affect results, and the entry cap can only cause
//! extra misses, never a wrong hit.
//!
//! # Bases
//!
//! A delta key holds its pair's base form itself, behind an [`Arc`]
//! shared with the [`PairContext`](crate::PairContext) that built it, so
//! a base lives exactly as long as a context or a resident entry uses
//! it. There is no separate base table to bound or sweep: the entry cap
//! is the cache's one memory bound. Content-equal bases built by
//! different contexts, requests or a loaded file compare equal, so they
//! share entries.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::canon::{CanonKey, Op};
use crate::hash::{self, BuildMix, Mix};
use crate::linexpr::Constraint;
use crate::problem::{Budget, Problem};
use crate::project::Projection;
use crate::var::VarKind;
use crate::Result;

/// A memoized solver verdict.
#[derive(Debug, Clone)]
pub(crate) enum CachedValue {
    /// Satisfiability verdict.
    Sat(bool),
    /// Projection result (computed on the canonical problem), boxed so
    /// that a verdict's slot is not sized by the largest value.
    Project(Box<Projection>),
    /// Gist result (computed on the canonical problem).
    Gist(Problem),
}

#[derive(Debug, Clone)]
pub(crate) struct Entry {
    /// Budget steps the cold computation spent.
    pub(crate) cost: usize,
    pub(crate) value: CachedValue,
}

/// The canonical form of a per-pair base problem, shared by every delta
/// key of the pair instead of being embedded in each key.
///
/// Bases are only built for flag-free, all-black problems (see
/// [`PairContext`](crate::PairContext)), so no protected/dead/pinned bits
/// appear here.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) struct BaseForm {
    pub(crate) known_infeasible: bool,
    pub(crate) vars: Vec<VarKind>,
    pub(crate) eqs: Vec<Constraint>,
    pub(crate) geqs: Vec<Constraint>,
}

/// A [`BaseForm`] behind an [`Arc`], with its hash computed once: keys
/// of one context compare by pointer, content-equal bases from
/// different contexts (or a loaded file) by value.
#[derive(Debug, Clone)]
pub(crate) struct SharedBase {
    hash: u64,
    form: Arc<BaseForm>,
}

impl SharedBase {
    pub(crate) fn new(form: BaseForm) -> Self {
        let mut h = Mix::default();
        form.hash(&mut h);
        SharedBase {
            hash: h.finish(),
            form: Arc::new(form),
        }
    }

    pub(crate) fn form(&self) -> &BaseForm {
        &self.form
    }
}

impl PartialEq for SharedBase {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.form, &other.form) || (self.hash == other.hash && self.form == other.form)
    }
}

impl Eq for SharedBase {}

impl Hash for SharedBase {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A memo key for a query expressed as a small delta over a shared
/// base: the base's canonicalization is shared by every query of the
/// pair instead of being recomputed per lookup.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct DeltaKey {
    /// The memoized operation.
    pub(crate) op: Op,
    /// The base's canonical form.
    pub(crate) base: SharedBase,
    /// Extra variables appended after the base's table.
    pub(crate) vars: Vec<VarKind>,
    /// Protected (kept) variable indices for projections, sorted and
    /// deduplicated; empty for satisfiability.
    pub(crate) keep: Vec<u32>,
    /// Canonicalized delta equalities.
    pub(crate) eqs: Vec<Constraint>,
    /// Canonicalized delta inequalities.
    pub(crate) geqs: Vec<Constraint>,
}

/// A cache key: either the full canonical form of the query problem, or
/// a delta against a shared base. The two key spaces are disjoint, so
/// the same logical query may appear under both (a duplicate entry, never
/// an unsound one).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum MemoKey {
    /// Full canonical-form key (the classic path).
    Full(CanonKey),
    /// Delta key against a shared base.
    Delta(DeltaKey),
}

/// A [`MemoKey`] with its hash, computed once per lookup. Its `Hash`
/// writes only that hash, so the shard map does not walk the key again.
#[derive(Debug, Clone)]
pub(crate) struct HashedKey {
    hash: u64,
    key: MemoKey,
}

impl HashedKey {
    pub(crate) fn new(key: MemoKey) -> Self {
        let mut h = Mix::default();
        key.hash(&mut h);
        HashedKey {
            hash: h.finish(),
            key,
        }
    }

    fn shard(&self) -> usize {
        hash::shard_of(self.hash, SHARD_COUNT)
    }
}

impl PartialEq for HashedKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl Eq for HashedKey {}

impl Hash for HashedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Shards of the entry map, mirroring the row store. Must be a power of
/// two.
const SHARD_COUNT: usize = 16;

/// Entry cap (total across shards, enforced per shard): dependence
/// analysis working sets are far smaller; the cap bounds memory on
/// adversarial inputs and long-lived servers, and since every delta
/// entry keeps its base alive it is the cache's only memory bound.
/// Insertions beyond it are dropped (counted as misses on re-query).
pub(crate) const MAX_ENTRIES: usize = 1 << 15;

/// Poison-proof lock: cache critical sections are plain reads/writes
/// with no invariant a mid-section panic could break, and a contained
/// panic elsewhere (the analysis server catches per-request panics)
/// must not wedge the shared cache.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A shared, thread-safe memo cache of solver verdicts with hit/miss/
/// insert counters. Create one per analysis and attach it to every
/// [`Budget`] with [`Budget::with_cache`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use omega::{Budget, LinExpr, Problem, SolverCache, VarKind};
///
/// let cache = Arc::new(SolverCache::new());
/// let mut p = Problem::new();
/// let x = p.add_var(VarKind::Input);
/// p.add_geq(LinExpr::var(x).plus_const(-1));
///
/// let mut b1 = Budget::default().with_cache(cache.clone());
/// assert!(p.is_satisfiable_with(&mut b1)?);
/// let mut b2 = Budget::default().with_cache(cache.clone());
/// assert!(p.is_satisfiable_with(&mut b2)?); // served from the cache
/// assert_eq!(cache.stats().hits, 1);
/// # Ok::<(), omega::Error>(())
/// ```
#[derive(Debug, Default)]
pub struct SolverCache {
    shards: [Mutex<HashMap<HashedKey, Entry, BuildMix>>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    full_canons: AtomicU64,
    delta_canons: AtomicU64,
}

impl SolverCache {
    /// An empty cache with zeroed counters.
    pub fn new() -> Self {
        SolverCache::default()
    }

    /// A snapshot of the counters and occupancy gauges.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            full_canons: self.full_canons.load(Ordering::Relaxed),
            delta_canons: self.delta_canons.load(Ordering::Relaxed),
            entries: self.entry_count() as u64,
            base_evicted: 0,
            checkpoint_resumes: 0,
            checkpoint_rebuilds: 0,
        }
    }

    /// Records one full (whole-problem) canonicalization.
    pub(crate) fn note_full_canon(&self) {
        self.full_canons.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one delta-only canonicalization (a per-pair query that
    /// reused its base's canonical form).
    pub(crate) fn note_delta_canon(&self) {
        self.delta_canons.fetch_add(1, Ordering::Relaxed);
    }

    fn get(&self, key: &HashedKey) -> Option<Entry> {
        lock(&self.shards[key.shard()]).get(key).cloned()
    }

    fn put(&self, key: HashedKey, cost: usize, value: CachedValue) {
        let mut shard = lock(&self.shards[key.shard()]);
        if shard.len() >= MAX_ENTRIES / SHARD_COUNT {
            return;
        }
        // Concurrent computations of the same key insert the same value
        // (pure function of the key); first insert wins.
        if let MapEntry::Vacant(v) = shard.entry(key) {
            v.insert(Entry { cost, value });
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total resident entries across shards.
    pub(crate) fn entry_count(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Clones out every resident entry (serialization; tests).
    pub(crate) fn snapshot_entries(&self) -> Vec<(MemoKey, Entry)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(lock(shard).iter().map(|(k, e)| (k.key.clone(), e.clone())));
        }
        out
    }

    /// Installs an entry read back from disk (deserialization only).
    pub(crate) fn insert_loaded_entry(&self, key: MemoKey, entry: Entry) {
        let key = HashedKey::new(key);
        lock(&self.shards[key.shard()]).insert(key, entry);
    }
}

/// Counter snapshot of a [`SolverCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to a cold computation.
    pub misses: u64,
    /// Entries inserted (≤ misses: errors and capacity overflows are not
    /// inserted, and concurrent misses of one key insert once).
    pub inserts: u64,
    /// Full (whole-problem) canonicalizations performed before lookup,
    /// including one per [`PairContext`](crate::PairContext) base.
    pub full_canons: u64,
    /// Delta-only canonicalizations: queries that reused their pair's
    /// already-canonical base and normalized just the added constraints.
    pub delta_canons: u64,
    /// Entries currently resident — a gauge, not a counter; bounded by
    /// the per-shard entry caps.
    pub entries: u64,
    /// Always 0. A bounded base intern used to evict unreferenced base
    /// forms; delta keys now hold their base, which lives as long as a
    /// context or an entry uses it, so nothing is evicted. The field
    /// stays because the benchmark ledger reads it.
    pub base_evicted: u64,
    /// Always 0. Base-tableau checkpoints, which resumed delta-query
    /// misses from a recorded base, were retired: on the corpus they
    /// resumed under 2% of misses and did not pay. The field stays
    /// because the benchmark ledger reads it.
    pub checkpoint_resumes: u64,
    /// Always 0, for the same reason as
    /// [`checkpoint_resumes`](Self::checkpoint_resumes).
    pub checkpoint_rebuilds: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits over lookups, in `[0, 1]`; zero when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }
}

/// The memoization wrapper shared by the sat/project/gist entry points.
/// `compute` must be a pure function of `key` (compute on the canonical
/// problem!) and report its whole cost through `budget`. The key is
/// lent back to `compute` so callers can move their canonical forms
/// into it instead of cloning them for the lookup.
pub(crate) fn with_memo<T: Clone>(
    budget: &mut Budget,
    cache: Arc<SolverCache>,
    key: MemoKey,
    wrap: fn(&T) -> CachedValue,
    unwrap: fn(CachedValue) -> Option<T>,
    compute: impl FnOnce(&mut Budget, &MemoKey) -> Result<T>,
) -> Result<T> {
    let key = HashedKey::new(key);
    if let Some(entry) = cache.get(&key) {
        // Only serve the hit when the budget covers the cold cost; a
        // poorer budget must fail exactly where the cold run would.
        if budget.remaining() >= entry.cost {
            if let Some(value) = unwrap(entry.value) {
                cache.hits.fetch_add(1, Ordering::Relaxed);
                budget.spend(entry.cost)?;
                return Ok(value);
            }
        }
    }
    cache.misses.fetch_add(1, Ordering::Relaxed);
    let detached = budget.detach_cache();
    let before = budget.remaining();
    let out = compute(budget, &key.key);
    budget.attach_cache(detached);
    let out = out?;
    cache.put(key, before - budget.remaining(), wrap(&out));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canonicalize;
    use crate::{LinExpr, Problem, VarKind};

    fn sat_key(p: &Problem) -> HashedKey {
        HashedKey::new(MemoKey::Full(CanonKey::new(Op::Sat, &canonicalize(p))))
    }

    fn small_problem() -> Problem {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        p.add_geq(LinExpr::var(x).plus_const(-3));
        p
    }

    #[test]
    fn hit_charges_the_recorded_cost() {
        let cache = Arc::new(SolverCache::new());
        let p = small_problem();

        let mut cold = Budget::new(10_000).with_cache(cache.clone());
        assert!(p.is_satisfiable_with(&mut cold).unwrap());
        let cold_spent = 10_000 - cold.remaining();
        assert!(cold_spent > 0);

        let mut warm = Budget::new(10_000).with_cache(cache.clone());
        assert!(p.is_satisfiable_with(&mut warm).unwrap());
        assert_eq!(10_000 - warm.remaining(), cold_spent);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tight_budget_ignores_the_cache() {
        let cache = Arc::new(SolverCache::new());
        let p = small_problem();
        let mut cold = Budget::new(10_000).with_cache(cache.clone());
        p.is_satisfiable_with(&mut cold).unwrap();
        let cost = 10_000 - cold.remaining();

        // A budget below the recorded cost must fail exactly like an
        // uncached run: same error, same (partial) consumption.
        let mut tight_cached = Budget::new(cost - 1).with_cache(cache.clone());
        let cached_err = p.is_satisfiable_with(&mut tight_cached);
        let mut tight_plain = Budget::new(cost - 1);
        let plain_err = p.is_satisfiable_with(&mut tight_plain);
        assert_eq!(cached_err.is_err(), plain_err.is_err());
        assert_eq!(tight_cached.remaining(), tight_plain.remaining());
    }

    #[test]
    fn a_slot_is_not_sized_by_a_projection() {
        // A projection is boxed: every slot would otherwise pay for one
        // inline (168 bytes), a `Sat(bool)` verdict included. A gist's
        // `Problem` is now the largest value.
        assert_eq!(std::mem::size_of::<Entry>(), 72);
        assert!(std::mem::size_of::<Projection>() > std::mem::size_of::<Problem>());
    }

    #[test]
    fn capacity_cap_stops_inserts() {
        let cache = SolverCache::new();
        let p = small_problem();
        let key = sat_key(&p);
        {
            // Fill the shard this key routes to; the per-shard cap is
            // what `put` enforces.
            let mut shard = cache.shards[key.shard()].lock().unwrap();
            for i in 0..(MAX_ENTRIES / SHARD_COUNT) {
                // Distinct keys, none equal to `key` (x >= 3).
                let mut q = Problem::new();
                let x = q.add_var(VarKind::Input);
                q.add_geq(LinExpr::var(x).plus_const(i as i64 + 1));
                shard.insert(
                    sat_key(&q),
                    Entry {
                        cost: 1,
                        value: CachedValue::Sat(true),
                    },
                );
            }
        }
        cache.put(key.clone(), 1, CachedValue::Sat(true));
        assert_eq!(cache.stats().inserts, 0);
        assert!(cache.get(&key).is_none());
    }
}
