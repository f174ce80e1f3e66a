//! Hash-consed constraint rows.
//!
//! Every [`Constraint`](crate::Constraint) holds its expression as an
//! `Arc<Row>` obtained from [`intern`]: structurally equal expressions
//! share one allocation, constraint clones are reference-count bumps,
//! and equality / hashing collapse to an id comparison instead of
//! walking coefficient vectors.
//!
//! # Id soundness
//!
//! The store keeps only [`Weak`] references, bucketed by a deterministic
//! content hash across a fixed number of shards. Interning takes the
//! shard lock, so for any expression content at most one live `Row`
//! exists at a time: a second `intern` of equal content returns the
//! existing `Arc` while it is alive. Therefore, for *live* rows,
//! `id` equality coincides with content equality — which is what makes
//! `#[derive(PartialEq, Eq, Hash)]` on types containing `Arc<Row>`
//! behave exactly like the old content-comparing derives.
//!
//! Once every strong reference to a row dies, re-interning the same
//! content mints a fresh id. Any map entry keyed by the dead id is then
//! simply unreachable — a missed memo hit, never a wrong one. Long-lived
//! caches avoid even that by holding `Arc<Row>`s in their keys, pinning
//! the rows (and so the ids) alive. Ids are process-local and must never
//! be serialized; the persistent cache writes expression *content* and
//! re-interns on load.
//!
//! # Garbage collection
//!
//! A dead row leaves a dead [`Weak`] entry in its bucket. Interning
//! prunes the bucket it lands in, but a bucket never revisited would
//! keep its dead entries forever — a real leak in a long-lived process
//! (e.g. `tinydep --serve`) whose working set shifts between requests.
//! Two mechanisms bound that residue:
//!
//! * every row drop bumps a global dead-entry hint; once the hint
//!   crosses [`GC_DEAD_THRESHOLD`], the next [`intern`] sweeps **all**
//!   shards (after releasing its own shard lock), pruning every dead
//!   entry and dropping emptied buckets;
//! * [`gc`] runs the same sweep on demand — a server calls it between
//!   requests, and [`stats`] reports the residue so soak tests can
//!   assert it stays bounded.
//!
//! The sweep only removes entries that can no longer be upgraded, so it
//! is invisible to interning semantics: ids, sharing, and determinism
//! are unaffected; only memory is reclaimed.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};

use crate::hash::{self, BuildMix, Mix};
use crate::linexpr::LinExpr;

/// An interned, immutable constraint expression.
#[derive(Debug)]
pub(crate) struct Row {
    pub(crate) expr: LinExpr,
    /// Unique among live rows; equal content ⇔ equal id (see module docs).
    id: u64,
}

impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Row {}

impl Hash for Row {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl Drop for Row {
    fn drop(&mut self) {
        // The store's weak entry for this row just went dead. The hint
        // overcounts when a later intern prunes the entry in passing —
        // harmless: it only schedules a sweep that finds less to do.
        DEAD_HINT.fetch_add(1, Ordering::Relaxed);
    }
}

const SHARD_COUNT: usize = 16;

/// Row drops tolerated before an intern triggers a full-store sweep.
/// Crossing it costs one O(store) scan per `GC_DEAD_THRESHOLD` drops —
/// amortized O(1) per drop — and bounds resident dead entries.
const GC_DEAD_THRESHOLD: usize = 4096;

/// One shard of the store: its buckets and the intern counters, which
/// every intern bumps under the shard lock it already holds. Padded so
/// that no two shards' locks and counters share a cache line.
#[repr(align(128))]
#[derive(Default)]
struct Shard(Mutex<ShardMap>);

#[derive(Default)]
struct ShardMap {
    buckets: HashMap<u64, Vec<Weak<Row>>, BuildMix>,
    /// [`intern`] calls landing in this shard.
    interns: u64,
    /// Interns resolved to an existing live row (shared, not minted).
    shared: u64,
    /// Mints into a bucket that held a dead entry of the same content
    /// hash — almost certainly a re-mint of content that died earlier.
    reminted: u64,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, ShardMap> {
        self.0.lock().expect("row store poisoned")
    }
}

fn store() -> &'static [Shard; SHARD_COUNT] {
    static STORE: OnceLock<[Shard; SHARD_COUNT]> = OnceLock::new();
    STORE.get_or_init(|| std::array::from_fn(|_| Shard::default()))
}

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Approximate count of dead weak entries resident in the store: bumped
/// by every row drop, reset by sweeps, decremented by in-passing prunes.
static DEAD_HINT: AtomicUsize = AtomicUsize::new(0);
/// Full-store sweeps run (threshold-triggered or explicit).
static SWEEPS: AtomicU64 = AtomicU64::new(0);
/// Dead weak entries removed by sweeps (in-passing prunes not counted).
static SWEPT: AtomicU64 = AtomicU64::new(0);

/// Deterministic content hash over the dense coefficient vector and the
/// constant, one word per coefficient. Only used to pick a shard and a
/// bucket — never exposed — so it need not match any `std` hasher.
fn content_hash(expr: &LinExpr) -> u64 {
    let mut h = Mix::default();
    for &c in expr.coeffs() {
        h.write_i64(c);
    }
    h.write_i64(expr.constant());
    h.finish()
}

/// The shard `hash` lives in.
fn shard_for(hash: u64) -> &'static Shard {
    &store()[hash::shard_of(hash, SHARD_COUNT)]
}

/// Interns `expr`: returns the existing live row of equal content, or
/// allocates a fresh one with a new id. Dead weak entries in the visited
/// bucket are pruned in passing; when the store-wide dead residue
/// crosses [`GC_DEAD_THRESHOLD`], every shard is swept (see the module
/// docs on garbage collection).
pub(crate) fn intern(expr: LinExpr) -> Arc<Row> {
    let hash = content_hash(&expr);
    let mut shard = shard_for(hash).lock();
    shard.interns += 1;
    let ShardMap {
        buckets,
        shared,
        reminted,
        ..
    } = &mut *shard;
    let bucket = buckets.entry(hash).or_default();
    let mut found = None;
    let mut pruned = 0usize;
    bucket.retain(|weak| match weak.upgrade() {
        Some(row) => {
            if found.is_none() && row.expr == expr {
                found = Some(row);
            }
            true
        }
        None => {
            pruned += 1;
            false
        }
    });
    if pruned > 0 {
        // Keep the hint honest so in-passing prunes don't leave it
        // permanently above threshold (which would sweep on every call).
        let mut cur = DEAD_HINT.load(Ordering::Relaxed);
        while cur > 0 {
            match DEAD_HINT.compare_exchange_weak(
                cur,
                cur.saturating_sub(pruned),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }
    if let Some(row) = found {
        *shared += 1;
        return row;
    }
    if pruned > 0 {
        *reminted += 1;
    }
    let row = Arc::new(Row {
        expr,
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
    });
    bucket.push(Arc::downgrade(&row));
    drop(shard);
    if DEAD_HINT.load(Ordering::Relaxed) >= GC_DEAD_THRESHOLD {
        gc();
    }
    row
}

/// Sweeps every shard, pruning dead weak entries and dropping emptied
/// buckets. Returns the number of entries removed. Safe to call at any
/// time from any thread; shard locks are taken one at a time, never
/// while holding another.
pub fn gc() -> usize {
    let mut removed = 0usize;
    for shard in store() {
        let map = &mut shard.lock().buckets;
        for bucket in map.values_mut() {
            bucket.retain(|weak| {
                let live = weak.strong_count() > 0;
                if !live {
                    removed += 1;
                }
                live
            });
        }
        map.retain(|_, bucket| !bucket.is_empty());
    }
    SWEEPS.fetch_add(1, Ordering::Relaxed);
    SWEPT.fetch_add(removed as u64, Ordering::Relaxed);
    // Resetting (rather than subtracting `removed`) forgives the hint's
    // overcount from entries that were pruned in passing after their
    // drop was already counted.
    DEAD_HINT.store(0, Ordering::Relaxed);
    removed
}

/// Occupancy of one shard of the row store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowShardStats {
    /// Non-empty hash buckets resident in the shard.
    pub buckets: usize,
    /// Entries whose row is still alive.
    pub live: usize,
    /// Dead weak entries not yet pruned.
    pub dead: usize,
}

/// A point-in-time snapshot of the row store: occupancy (scanned now)
/// plus cumulative counters since process start.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowStoreStats {
    /// Rows minted since process start (monotonic).
    pub built: u64,
    /// Rows currently alive in the store.
    pub live: usize,
    /// Dead weak entries currently resident (pending prune/sweep).
    pub dead: usize,
    /// Total intern calls.
    pub interns: u64,
    /// Interns that returned an existing live row instead of minting.
    pub shared: u64,
    /// Mints into a bucket holding a dead entry of the same content
    /// hash — re-mints of content that died earlier, up to hash
    /// collisions (the hash covers the full content, so collisions are
    /// negligible; treat this as a rate, not an exact census).
    pub reminted: u64,
    /// Full-store GC sweeps run.
    pub sweeps: u64,
    /// Dead entries removed by sweeps.
    pub swept: u64,
    /// Per-shard occupancy, `SHARD_COUNT` entries.
    pub shards: Vec<RowShardStats>,
}

/// Scans the store and returns current occupancy plus the cumulative
/// counters. O(store); meant for `--stats`, the server `stats` request,
/// and soak assertions — not for hot paths.
pub fn stats() -> RowStoreStats {
    let mut shards = Vec::with_capacity(SHARD_COUNT);
    let (mut live, mut dead) = (0usize, 0usize);
    let (mut interns, mut shared, mut reminted) = (0u64, 0u64, 0u64);
    for shard in store() {
        let shard = shard.lock();
        interns += shard.interns;
        shared += shard.shared;
        reminted += shard.reminted;
        let mut s = RowShardStats {
            buckets: shard.buckets.len(),
            ..RowShardStats::default()
        };
        for bucket in shard.buckets.values() {
            for weak in bucket {
                if weak.strong_count() > 0 {
                    s.live += 1;
                } else {
                    s.dead += 1;
                }
            }
        }
        live += s.live;
        dead += s.dead;
        shards.push(s);
    }
    RowStoreStats {
        built: NEXT_ID.load(Ordering::Relaxed),
        live,
        dead,
        interns,
        shared,
        reminted,
        sweeps: SWEEPS.load(Ordering::Relaxed),
        swept: SWEPT.load(Ordering::Relaxed),
        shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarId;

    fn expr(c0: i64, k: i64) -> LinExpr {
        let mut e = LinExpr::constant_expr(k);
        e.set_coef(VarId::from_index(0), c0);
        e
    }

    #[test]
    fn equal_content_shares_one_row() {
        let a = intern(expr(3, -1));
        let b = intern(expr(3, -1));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.id, b.id);
        let c = intern(expr(3, -2));
        assert_ne!(a.id, c.id);
    }

    #[test]
    fn dead_rows_are_reclaimed_and_reminted() {
        let first = intern(expr(987_654, 321));
        let id = first.id;
        drop(first);
        // The content is gone from the store (only a dead weak remains),
        // so re-interning mints a fresh id.
        let second = intern(expr(987_654, 321));
        assert_ne!(second.id, id);
    }

    #[test]
    fn live_rows_survive_unrelated_interning() {
        let keep = intern(expr(11, 22));
        let id = keep.id;
        for i in 0..100 {
            let _ = intern(expr(i, i));
        }
        let again = intern(expr(11, 22));
        assert_eq!(again.id, id);
        assert!(Arc::ptr_eq(&keep, &again));
    }

    /// Live + dead entry counts in the bucket `expr` hashes to, or
    /// `None` when the bucket itself has been dropped.
    fn bucket_occupancy(expr: &LinExpr) -> Option<(usize, usize)> {
        let hash = content_hash(expr);
        let shard = shard_for(hash).lock();
        shard.buckets.get(&hash).map(|bucket| {
            let live = bucket.iter().filter(|w| w.strong_count() > 0).count();
            (live, bucket.len() - live)
        })
    }

    #[test]
    fn explicit_gc_prunes_a_bucket_that_is_never_revisited() {
        // A dead entry in a bucket no later intern lands in used to leak
        // until process exit; gc() must reclaim it.
        let probe = expr(0x5eed_cafe, -77_001);
        drop(intern(probe.clone()));
        // The dead entry may linger or may already have been swept by a
        // concurrent test's gc; in either case, after an explicit gc the
        // bucket must be gone (gc drops emptied buckets).
        gc();
        assert_eq!(bucket_occupancy(&probe), None);
        // A live row, by contrast, survives any number of sweeps.
        let keep = intern(expr(0x5eed_cafe, -77_002));
        gc();
        assert_eq!(bucket_occupancy(&expr(0x5eed_cafe, -77_002)), Some((1, 0)));
        drop(keep);
    }

    #[test]
    fn dead_residue_triggers_an_automatic_sweep() {
        // Plant a dead entry, then churn enough unique rows that the
        // dead-hint threshold is crossed; the sweep an intern triggers
        // must prune the planted bucket even though nothing ever hashes
        // into it again.
        let probe = expr(0x0dd_ba11, -88_001);
        drop(intern(probe.clone()));
        for i in 0..(GC_DEAD_THRESHOLD as i64 + 256) {
            drop(intern(expr(0x0dd_ba11 + 7 * (i + 2), -88_002 - i)));
        }
        assert_eq!(
            bucket_occupancy(&probe),
            None,
            "dead bucket survived {} churn interns",
            GC_DEAD_THRESHOLD + 256
        );
        assert!(stats().sweeps >= 1);
    }

    #[test]
    fn stats_track_occupancy_and_sharing() {
        let before = stats();
        let a = intern(expr(0x57a7_0001, -99_003));
        let b = intern(expr(0x57a7_0001, -99_003)); // shared, not minted
        let c = intern(expr(0x57a7_0002, -99_004));
        let after = stats();
        assert!(after.interns >= before.interns + 3);
        assert!(after.shared >= before.shared + 1);
        assert!(after.built >= before.built + 2);
        assert!(after.live >= 2, "live rows under-counted: {}", after.live);
        assert_eq!(after.shards.len(), SHARD_COUNT);
        let shard_live: usize = after.shards.iter().map(|s| s.live).sum();
        assert_eq!(shard_live, after.live);
        drop((a, b, c));
    }

    #[test]
    fn reminting_dead_content_is_counted() {
        let probe = expr(0x4e11_1111, -66_123);
        drop(intern(probe.clone()));
        let before = stats().reminted;
        // Same content, same bucket, dead entry still resident unless a
        // sweep raced us — in which case this interns fresh and the
        // counter may not move; assert monotonicity only plus the strong
        // case when no sweep intervened.
        let swept_before = stats().sweeps;
        let _again = intern(probe.clone());
        let after = stats();
        if after.sweeps == swept_before {
            assert!(after.reminted >= before + 1, "re-mint not counted");
        }
    }

    #[test]
    fn concurrent_interning_converges() {
        // Every thread holds its rows alive until all are compared, so
        // identical content must have resolved to one shared allocation.
        let per_thread: Vec<Vec<Arc<Row>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        (0..64)
                            .map(|i| intern(expr(i, -1000 - i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for later in &per_thread[1..] {
            for (a, b) in per_thread[0].iter().zip(later) {
                assert!(Arc::ptr_eq(a, b));
            }
        }
    }
}
