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
//! The entry map and the base-intern table are split across
//! [`SHARD_COUNT`] independently locked shards (mirroring the row
//! store's sharding), picked by key hash. Simultaneous analyses — the
//! two-level corpus pool runs many programs against one cache — mostly
//! touch different shards and share hits instead of serializing on one
//! global lock. Sharding is placement only: it cannot affect results,
//! and eviction (entry caps, base sweeps) can only cause extra misses,
//! never a wrong hit.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::canon::{CanonKey, Op};
use crate::linexpr::Constraint;
use crate::problem::{Budget, Problem};
use crate::symbol::Name;
use crate::project::Projection;
use crate::var::VarKind;
use crate::Result;

/// A memoized solver verdict.
#[derive(Debug, Clone)]
pub(crate) enum CachedValue {
    /// Satisfiability verdict.
    Sat(bool),
    /// Projection result (computed on the canonical problem).
    Project(Projection),
    /// Gist result (computed on the canonical problem).
    Gist(Problem),
}

#[derive(Debug, Clone)]
pub(crate) struct Entry {
    /// Budget steps the cold computation spent.
    pub(crate) cost: usize,
    pub(crate) value: CachedValue,
}

/// The canonical form of a per-pair base problem, interned in the cache so
/// delta keys can reference it by a small id instead of embedding the
/// whole constraint system in every key.
///
/// Bases are only interned for flag-free, all-black problems (see
/// [`PairContext`](crate::PairContext)), so no protected/dead/pinned bits
/// appear here.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct BaseForm {
    pub(crate) known_infeasible: bool,
    pub(crate) vars: Vec<(Name, VarKind)>,
    pub(crate) eqs: Vec<Constraint>,
    pub(crate) geqs: Vec<Constraint>,
}

/// A memo key for a query expressed as a small delta over an interned
/// base: the base's canonicalization is shared by every query of the
/// pair instead of being recomputed per lookup.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct DeltaKey {
    /// The memoized operation.
    pub(crate) op: Op,
    /// Interned id of the base's canonical form.
    pub(crate) base: u64,
    /// Extra variables appended after the base's table.
    pub(crate) vars: Vec<(Name, VarKind)>,
    /// Protected (kept) variable indices for projections, sorted and
    /// deduplicated; empty for satisfiability.
    pub(crate) keep: Vec<u32>,
    /// Canonicalized delta equalities.
    pub(crate) eqs: Vec<Constraint>,
    /// Canonicalized delta inequalities.
    pub(crate) geqs: Vec<Constraint>,
}

/// A cache key: either the full canonical form of the query problem, or
/// a delta against an interned base. The two key spaces are disjoint, so
/// the same logical query may appear under both (a duplicate entry, never
/// an unsound one).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum MemoKey {
    /// Full canonical-form key (the classic path).
    Full(CanonKey),
    /// Delta key against an interned base.
    Delta(DeltaKey),
}

/// Shards for both the entry map and the base intern, mirroring the row
/// store. Must be a power of two.
const SHARD_COUNT: usize = 16;

/// Entry cap (total across shards, enforced per shard): dependence
/// analysis working sets are far smaller; the cap only bounds memory on
/// adversarial inputs. Insertions beyond it are dropped (counted as
/// misses on re-query).
const MAX_ENTRIES: usize = 1 << 16;

/// Base-intern cap. Unlike entries, bases used to grow without bound —
/// an unbounded memory leak in a long-lived `--serve` daemon where every
/// novel pair interns a base. At the cap a sweep drops every form whose
/// id no entry references; ids are handed out from a monotonic counter
/// and never reused, so an evicted id can only cause future misses,
/// never a wrong hit.
pub(crate) const MAX_BASES: usize = 4096;

/// Poison-proof lock: cache critical sections are plain reads/writes
/// with no invariant a mid-section panic could break, and a contained
/// panic elsewhere (the analysis server catches per-request panics)
/// must not wedge the shared cache.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Shard placement by `std` hash. `DefaultHasher::new()` is fixed-seed
/// within a process, which is all placement needs; nothing persisted
/// depends on it.
fn shard_index<K: Hash + ?Sized>(key: &K) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) & (SHARD_COUNT - 1)
}

/// Base interning table: a bounded, sharded `form → id` map with a
/// monotonic id counter (see [`MAX_BASES`]). Loaded caches repopulate it
/// in stored-id order.
#[derive(Debug, Default)]
struct BaseIntern {
    shards: [Mutex<HashMap<BaseForm, u64>>; SHARD_COUNT],
    /// Next id to hand out; never decremented, so ids are unique for the
    /// cache's lifetime even across sweeps.
    next_id: AtomicU64,
    /// Forms currently resident (kept exact under the shard locks'
    /// insert/retain, read without them for the cap check).
    len: AtomicU64,
    /// Sweeps run and forms evicted, for stats.
    sweeps: AtomicU64,
    evicted: AtomicU64,
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
/// let x = p.add_var("x", VarKind::Input);
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
    shards: [Mutex<HashMap<MemoKey, Entry>>; SHARD_COUNT],
    bases: BaseIntern,
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
            base_forms: self.bases.len.load(Ordering::Relaxed),
            base_sweeps: self.bases.sweeps.load(Ordering::Relaxed),
            base_evicted: self.bases.evicted.load(Ordering::Relaxed),
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

    /// Interns a base's canonical form, returning an id that is stable
    /// for as long as the form stays resident. Re-interning an evicted
    /// form yields a fresh id (its old entries become unreachable —
    /// misses, never wrong hits).
    pub(crate) fn intern_base(&self, form: &BaseForm) -> u64 {
        let shard = &self.bases.shards[shard_index(form)];
        if let Some(&id) = lock(shard).get(form) {
            return id;
        }
        if self.bases.len.load(Ordering::Relaxed) as usize >= MAX_BASES {
            self.sweep_bases();
        }
        let mut ids = lock(shard);
        // Another thread may have interned it while we swept.
        if let Some(&id) = ids.get(form) {
            return id;
        }
        let id = self.bases.next_id.fetch_add(1, Ordering::Relaxed);
        if self.bases.len.load(Ordering::Relaxed) as usize >= MAX_BASES {
            // Still full after the sweep: every resident base is
            // referenced by live entries. Hand out a unique unrecorded
            // id — this pair's delta queries run uncached.
            return id;
        }
        ids.insert(form.clone(), id);
        self.bases.len.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Drops every interned base whose id no resident entry references.
    /// Locks are taken one shard at a time, entry shards strictly before
    /// base shards, never nested with each other.
    fn sweep_bases(&self) {
        let mut referenced: HashSet<u64> = HashSet::new();
        for shard in &self.shards {
            for key in lock(shard).keys() {
                if let MemoKey::Delta(dk) = key {
                    referenced.insert(dk.base);
                }
            }
        }
        let mut removed = 0u64;
        for shard in &self.bases.shards {
            let mut ids = lock(shard);
            let before = ids.len();
            ids.retain(|_, id| referenced.contains(id));
            removed += (before - ids.len()) as u64;
        }
        if removed > 0 {
            self.bases.len.fetch_sub(removed, Ordering::Relaxed);
        }
        self.bases.sweeps.fetch_add(1, Ordering::Relaxed);
        self.bases.evicted.fetch_add(removed, Ordering::Relaxed);
    }

    fn get(&self, key: &MemoKey) -> Option<Entry> {
        lock(&self.shards[shard_index(key)]).get(key).cloned()
    }

    fn put(&self, key: MemoKey, cost: usize, value: CachedValue) {
        let mut shard = lock(&self.shards[shard_index(&key)]);
        if shard.len() >= MAX_ENTRIES / SHARD_COUNT {
            return;
        }
        // Concurrent computations of the same key insert the same value
        // (pure function of the key); first insert wins.
        if shard.try_insert_like(key, Entry { cost, value }) {
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
            out.extend(lock(shard).iter().map(|(k, e)| (k.clone(), e.clone())));
        }
        out
    }

    /// Clones out every interned base with its id (serialization).
    pub(crate) fn snapshot_bases(&self) -> Vec<(BaseForm, u64)> {
        let mut out = Vec::new();
        for shard in &self.bases.shards {
            out.extend(lock(shard).iter().map(|(f, &id)| (f.clone(), id)));
        }
        out
    }

    /// Installs a base read back from disk under its stored id. Only for
    /// deserialization, which owns the cache exclusively; keeps `next_id`
    /// above every loaded id.
    pub(crate) fn insert_loaded_base(&self, form: BaseForm, id: u64) {
        let shard = &self.bases.shards[shard_index(&form)];
        if lock(shard).insert(form, id).is_none() {
            self.bases.len.fetch_add(1, Ordering::Relaxed);
        }
        self.bases.next_id.fetch_max(id + 1, Ordering::Relaxed);
    }

    /// Installs an entry read back from disk (deserialization only).
    pub(crate) fn insert_loaded_entry(&self, key: MemoKey, entry: Entry) {
        lock(&self.shards[shard_index(&key)]).insert(key, entry);
    }
}

/// `HashMap::try_insert` is unstable; emulate "insert if absent".
trait TryInsertLike {
    fn try_insert_like(&mut self, key: MemoKey, entry: Entry) -> bool;
}

impl TryInsertLike for HashMap<MemoKey, Entry> {
    fn try_insert_like(&mut self, key: MemoKey, entry: Entry) -> bool {
        use std::collections::hash_map::Entry as MapEntry;
        match self.entry(key) {
            MapEntry::Occupied(_) => false,
            MapEntry::Vacant(v) => {
                v.insert(entry);
                true
            }
        }
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
    /// Base forms currently interned — a gauge, not a counter; bounded
    /// by the intern cap, which long-lived servers rely on.
    pub base_forms: u64,
    /// Base-intern sweeps triggered by the cap.
    pub base_sweeps: u64,
    /// Base forms evicted by sweeps (unreferenced by any entry).
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
    let out = compute(budget, &key);
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

    fn sat_key(p: &Problem) -> MemoKey {
        MemoKey::Full(CanonKey::new(Op::Sat, &canonicalize(p)))
    }

    fn small_problem() -> Problem {
        let mut p = Problem::new();
        let x = p.add_var("x", VarKind::Input);
        p.add_geq(LinExpr::var(x).plus_const(-3));
        p
    }

    fn base_form(tag: usize) -> BaseForm {
        BaseForm {
            known_infeasible: false,
            vars: vec![(Name::from_str(&format!("b{tag}"), VarKind::Input), VarKind::Input)],
            eqs: vec![],
            geqs: vec![],
        }
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
    fn capacity_cap_stops_inserts() {
        let cache = SolverCache::new();
        let p = small_problem();
        let key = sat_key(&p);
        {
            // Fill the shard this key routes to; the per-shard cap is
            // what `put` enforces.
            let mut shard = cache.shards[shard_index(&key)].lock().unwrap();
            for i in 0..(MAX_ENTRIES / SHARD_COUNT) {
                let mut q = Problem::new();
                q.add_var(format!("pad{i}"), VarKind::Input);
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

    #[test]
    fn base_intern_is_bounded() {
        let cache = SolverCache::new();
        for i in 0..(MAX_BASES * 2) {
            cache.intern_base(&base_form(i));
        }
        let s = cache.stats();
        assert!(
            s.base_forms <= MAX_BASES as u64,
            "occupancy {} exceeds the cap",
            s.base_forms
        );
        assert!(s.base_sweeps > 0);
        // Nothing referenced these bases, so sweeps actually evicted.
        assert!(s.base_evicted > 0);
    }

    #[test]
    fn sweep_keeps_bases_referenced_by_entries() {
        let cache = SolverCache::new();
        let keeper = base_form(usize::MAX);
        let keeper_id = cache.intern_base(&keeper);
        // A resident delta entry pins the keeper's id.
        cache.put(
            MemoKey::Delta(DeltaKey {
                op: Op::Sat,
                base: keeper_id,
                vars: vec![],
                keep: vec![],
                eqs: vec![],
                geqs: vec![],
            }),
            1,
            CachedValue::Sat(true),
        );
        for i in 0..(MAX_BASES * 2) {
            cache.intern_base(&base_form(i));
        }
        assert!(cache.stats().base_sweeps > 0);
        // The referenced base survived every sweep under its old id.
        assert_eq!(cache.intern_base(&keeper), keeper_id);
    }

    #[test]
    fn evicted_base_reinterns_under_a_fresh_id() {
        let cache = SolverCache::new();
        let form = base_form(0);
        let first = cache.intern_base(&form);
        // Unreferenced, so a cap-triggered sweep evicts it.
        for i in 1..=(MAX_BASES * 2) {
            cache.intern_base(&base_form(i));
        }
        let second = cache.intern_base(&form);
        // Monotonic ids: never reused, so stale delta keys can only miss.
        assert_ne!(first, second);
        assert!(second > first);
    }
}
