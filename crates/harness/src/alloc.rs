//! A counting global allocator for allocation-budget measurements.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and maintains
//! process-wide allocation/deallocation/byte counters plus a per-thread
//! allocation counter. Register it in a binary or test crate with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc::new();
//! ```
//!
//! and read the counters through [`snapshot`] / [`thread_allocs`]. In a
//! binary that does *not* register the allocator every counter stays
//! zero, which callers can detect via [`AllocSnapshot::is_counting`].
//!
//! The per-thread counter exists because global counters are useless
//! inside a multi-threaded test runner: concurrent tests allocate into
//! the same statics. A gate that measures the delta of
//! [`thread_allocs`] around a single-threaded region (e.g. a
//! `Config { threads: 1, .. }` analysis) sees only its own traffic.
//!
//! # Slot layout
//!
//! No allocation or free writes a cache line shared by every thread,
//! and none takes a lock-prefixed instruction on the common path. The
//! process-wide counters live in counter slots, each 128-byte aligned
//! (two cache lines, so the adjacent-line prefetcher does not pair
//! neighbours either). A slot holds allocations, deallocations and net
//! live bytes. A thread claims a slot on its first allocation and keeps
//! it:
//!
//! - The first `SLOTS` threads each own a slot of the main table. A
//!   slot's owner is its only writer, so it updates the counters with a
//!   relaxed load and store, which cannot lose a count.
//! - Threads past the table share the `OVERFLOW` slots round-robin and
//!   update them with atomic adds, so a shared slot still counts exactly.
//!
//! A block freed on another thread than the one that allocated it simply
//! moves bytes between two slots' nets: the freeing thread writes only
//! its own slot. [`snapshot`] sums both tables: `allocs`, `deallocs` and
//! `current_bytes` are exact whenever no other thread is allocating
//! while it reads (for instance after a pool has joined its work).
//!
//! The live-byte high-water mark sits on its own cache line. A thread
//! publishes to it only after its live bytes grew by `PEAK_STRIDE`
//! (64 KiB) since its last publish; a free lowers that local drift, but
//! not below zero. A publish sums the slots and raises the mark to the
//! sum. So `peak_bytes` is exact to within 64 KiB per thread (it never
//! overstates the peak by more than what other threads allocate and
//! free while a publish reads the slots), and [`snapshot`] never reports
//! it below `current_bytes`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Owned counter slots: one each for the first this many threads.
const SLOTS: usize = 64;

/// Shared counter slots for the threads past [`SLOTS`].
const OVERFLOW: usize = 8;

/// Live bytes a thread adds, net of its frees, between two publishes of
/// the high-water mark.
const PEAK_STRIDE: u64 = 64 * 1024;

/// One thread's share of the process-wide counters, alone on its pair
/// of cache lines.
#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    deallocs: AtomicU64,
    /// Bytes allocated minus bytes freed through this slot, wrapping: a
    /// slot whose threads free blocks allocated elsewhere goes "negative".
    live: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            live: AtomicU64::new(0),
        }
    }
}

/// The high-water mark of live bytes, on a line of its own.
#[repr(align(128))]
struct PeakLine(AtomicU64);

static TABLE: [Slot; SLOTS] = [const { Slot::new() }; SLOTS];
static SHARED: [Slot; OVERFLOW] = [const { Slot::new() }; OVERFLOW];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static PEAK: PeakLine = PeakLine(AtomicU64::new(0));

/// A thread's slot, and whether the thread is its only writer.
#[derive(Clone, Copy)]
struct Claim {
    slot: &'static Slot,
    owned: bool,
}

impl Claim {
    /// The slot of the `n`-th thread to allocate: its own in the main
    /// table, or a shared overflow slot once the table is taken.
    fn nth(n: usize) -> Claim {
        match TABLE.get(n) {
            Some(slot) => Claim { slot, owned: true },
            None => Claim {
                slot: &SHARED[(n - SLOTS) % OVERFLOW],
                owned: false,
            },
        }
    }

    /// Adds `n` (wrapping) to one of the slot's counters.
    #[inline]
    fn add(self, counter: &AtomicU64, n: u64) {
        if self.owned {
            // The only writer: a plain relaxed load and store lose no
            // update, and readers still see whole values.
            counter.store(
                counter.load(Ordering::Relaxed).wrapping_add(n),
                Ordering::Relaxed,
            );
        } else {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// The calling thread's allocator state. Const-initialized and without
/// a destructor, so it never allocates and stays usable while the
/// thread exits.
struct Local {
    slot: Cell<Option<Claim>>,
    allocs: Cell<u64>,
    /// Live bytes added since the last publish of the high-water mark,
    /// net of frees, floored at zero.
    drift: Cell<u64>,
    #[cfg(test)]
    publishes: Cell<u64>,
}

impl Local {
    fn claim(&self) -> Claim {
        match self.slot.get() {
            Some(claim) => claim,
            None => {
                let claim = Claim::nth(NEXT_SLOT.fetch_add(1, Ordering::Relaxed));
                self.slot.set(Some(claim));
                claim
            }
        }
    }
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            slot: Cell::new(None),
            allocs: Cell::new(0),
            drift: Cell::new(0),
            #[cfg(test)]
            publishes: Cell::new(0),
        }
    };
}

/// A `#[global_allocator]` wrapper around [`System`] that counts every
/// allocation, deallocation and live byte (with a high-water mark).
#[derive(Debug, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// A new counting allocator (const, for `static` registration).
    pub const fn new() -> Self {
        CountingAlloc
    }
}

#[inline]
fn note_alloc(bytes: usize) {
    let bytes = bytes as u64;
    LOCAL.with(|l| {
        l.allocs.set(l.allocs.get() + 1);
        let claim = l.claim();
        claim.add(&claim.slot.allocs, 1);
        claim.add(&claim.slot.live, bytes);
        let drift = l.drift.get() + bytes;
        if drift >= PEAK_STRIDE {
            l.drift.set(0);
            publish_peak();
            #[cfg(test)]
            l.publishes.set(l.publishes.get() + 1);
        } else {
            l.drift.set(drift);
        }
    });
}

#[inline]
fn note_dealloc(bytes: usize) {
    let bytes = bytes as u64;
    LOCAL.with(|l| {
        let claim = l.claim();
        claim.add(&claim.slot.deallocs, 1);
        claim.add(&claim.slot.live, bytes.wrapping_neg());
        l.drift.set(l.drift.get().saturating_sub(bytes));
    });
}

/// Raises the high-water mark to the live bytes summed over the slots,
/// writing its line only when the mark actually rises.
#[cold]
fn publish_peak() {
    let now = live_bytes();
    if now > PEAK.0.load(Ordering::Relaxed) {
        PEAK.0.fetch_max(now, Ordering::Relaxed);
    }
}

/// Every counter slot, owned and shared.
fn slots() -> impl Iterator<Item = &'static Slot> {
    TABLE.iter().chain(&SHARED)
}

/// Live bytes summed over the slots. While other threads allocate and
/// free, the slots are read at slightly different moments, so a block
/// freed elsewhere may be seen freed but not allocated; the sum is
/// floored at zero rather than wrapping.
fn live_bytes() -> u64 {
    let sum = slots().fold(0u64, |sum, s| {
        sum.wrapping_add(s.live.load(Ordering::Relaxed))
    });
    (sum as i64).max(0) as u64
}

// SAFETY: delegates every operation to `System`; the counters are plain
// relaxed atomics in statics and a const-initialized, destructor-free
// thread-local, none of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // A resize counts as one dealloc + one alloc, keeping
            // `allocs - deallocs` equal to the number of live blocks.
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// A snapshot of the process-wide allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations performed (reallocations count once).
    pub allocs: u64,
    /// Deallocations performed (reallocations count once).
    pub deallocs: u64,
    /// Bytes currently live.
    pub current_bytes: u64,
    /// High-water mark of live bytes, exact to within 64 KiB per thread
    /// and never below `current_bytes` (see the module docs).
    pub peak_bytes: u64,
}

impl AllocSnapshot {
    /// Whether a [`CountingAlloc`] is actually registered in this process
    /// (a process that never allocated through it has all-zero counters).
    pub fn is_counting(&self) -> bool {
        self.allocs > 0
    }
}

/// Reads the process-wide counters, summed over every thread's slot.
pub fn snapshot() -> AllocSnapshot {
    let (allocs, deallocs) = slots().fold((0, 0), |(a, d), s| {
        (
            a + s.allocs.load(Ordering::Relaxed),
            d + s.deallocs.load(Ordering::Relaxed),
        )
    });
    let current_bytes = live_bytes();
    AllocSnapshot {
        allocs,
        deallocs,
        current_bytes,
        peak_bytes: PEAK.0.load(Ordering::Relaxed).max(current_bytes),
    }
}

/// The number of allocations performed by the calling thread. Immune to
/// concurrent threads, so deltas around a single-threaded region measure
/// exactly that region.
pub fn thread_allocs() -> u64 {
    LOCAL.with(|l| l.allocs.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

    // The harness test binary does not register the allocator (that is
    // each consumer's choice), so exercise the counting paths directly.
    // The counters are process-wide, so tests that assert exact deltas
    // of them take this lock rather than race each other.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn counters_track_alloc_dealloc_and_peak() {
        let _serial = serial();
        let a = CountingAlloc::new();
        let before = snapshot();
        let tl_before = thread_allocs();
        let layout = Layout::from_size_align(4096, 8).unwrap();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            let mid = snapshot();
            assert_eq!(mid.allocs, before.allocs + 1);
            assert_eq!(mid.current_bytes, before.current_bytes + 4096);
            assert!(mid.peak_bytes >= mid.current_bytes);
            let p2 = a.realloc(p, layout, 8192);
            assert!(!p2.is_null());
            let grown = snapshot();
            assert_eq!(grown.allocs, before.allocs + 2);
            assert_eq!(grown.deallocs, before.deallocs + 1);
            assert_eq!(grown.current_bytes, before.current_bytes + 8192);
            a.dealloc(p2, Layout::from_size_align(8192, 8).unwrap());
        }
        let after = snapshot();
        assert_eq!(after.allocs, before.allocs + 2);
        assert_eq!(after.deallocs, before.deallocs + 2);
        assert_eq!(after.current_bytes, before.current_bytes);
        assert_eq!(thread_allocs(), tl_before + 2);
        assert!(after.is_counting());
    }

    #[test]
    fn zeroed_allocations_are_counted() {
        let _serial = serial();
        let a = CountingAlloc::new();
        let before = snapshot();
        let layout = Layout::from_size_align(128, 8).unwrap();
        unsafe {
            let p = a.alloc_zeroed(layout);
            assert!(!p.is_null());
            assert_eq!(std::slice::from_raw_parts(p, 128), &[0u8; 128][..]);
            a.dealloc(p, layout);
        }
        let after = snapshot();
        assert_eq!(after.allocs, before.allocs + 1);
        assert_eq!(after.deallocs, before.deallocs + 1);
        assert_eq!(after.current_bytes, before.current_bytes);
    }

    #[test]
    fn blocks_freed_on_another_thread_keep_the_sums_exact() {
        const THREADS: usize = 4;
        const BLOCKS: usize = 32;
        const SIZE: usize = 1024;
        let _serial = serial();
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(SIZE, 8).unwrap();
        let before = snapshot();
        let allocated = Barrier::new(THREADS);
        let handed: Vec<Mutex<Vec<usize>>> = (0..THREADS).map(|_| Mutex::new(Vec::new())).collect();
        // Each thread allocates its blocks, keeps the even ones and hands
        // the odd ones to its neighbour; after the barrier it frees its
        // own even blocks and all but one of the blocks it was handed.
        let kept: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (a, allocated, handed) = (&a, &allocated, &handed);
                    s.spawn(move || {
                        let mut own = Vec::new();
                        for i in 0..BLOCKS {
                            // SAFETY: `layout` has a non-zero size.
                            let p = unsafe { a.alloc(layout) } as usize;
                            assert_ne!(p, 0);
                            if i % 2 == 0 {
                                own.push(p);
                            } else {
                                handed[(t + 1) % THREADS].lock().unwrap().push(p);
                            }
                        }
                        allocated.wait();
                        let mut foreign = std::mem::take(&mut *handed[t].lock().unwrap());
                        let keep = foreign.pop().expect("a neighbour handed blocks over");
                        for p in own.into_iter().chain(foreign) {
                            // SAFETY: `p` came from `a.alloc(layout)` and
                            // is freed exactly once.
                            unsafe { a.dealloc(p as *mut u8, layout) };
                        }
                        keep
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mid = snapshot();
        let total = (THREADS * BLOCKS) as u64;
        assert_eq!(mid.allocs, before.allocs + total);
        assert_eq!(mid.deallocs, before.deallocs + total - THREADS as u64);
        assert_eq!(
            mid.current_bytes,
            before.current_bytes + (THREADS * SIZE) as u64
        );
        assert!(mid.peak_bytes >= mid.current_bytes);
        for p in kept {
            // SAFETY: each kept block came from `a.alloc(layout)` and was
            // not freed by its thread.
            unsafe { a.dealloc(p as *mut u8, layout) };
        }
        let after = snapshot();
        assert_eq!(after.allocs, before.allocs + total);
        assert_eq!(after.deallocs, before.deallocs + total);
        assert_eq!(after.current_bytes, before.current_bytes);
        assert!(after.peak_bytes >= after.current_bytes);
    }

    /// Pins the fix for every allocation writing a process-wide cache
    /// line: one thread's 1 MiB of 4 KiB blocks publishes the
    /// high-water mark once per 64 KiB, and frees publish nothing.
    #[test]
    fn the_high_water_mark_is_published_once_per_stride() {
        const BYTES: usize = 1 << 20;
        const BLOCK: usize = 4096;
        let _serial = serial();
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(BLOCK, 8).unwrap();
        // A fresh thread starts with zero drift and zero publishes.
        let (grown, freed, peak) = std::thread::scope(|s| {
            s.spawn(|| {
                let blocks: Vec<usize> = (0..BYTES / BLOCK)
                    // SAFETY: `layout` has a non-zero size.
                    .map(|_| unsafe { a.alloc(layout) } as usize)
                    .collect();
                let grown = LOCAL.with(|l| l.publishes.get());
                let peak = snapshot().peak_bytes;
                for p in blocks {
                    // SAFETY: every block came from `a.alloc(layout)` and
                    // is freed once.
                    unsafe { a.dealloc(p as *mut u8, layout) };
                }
                (grown, LOCAL.with(|l| l.publishes.get()) - grown, peak)
            })
            .join()
            .unwrap()
        });
        assert_eq!(grown, (BYTES as u64) / PEAK_STRIDE);
        assert_eq!(freed, 0);
        assert!(peak >= BYTES as u64);
    }

    #[test]
    fn two_threads_count_into_separate_aligned_slots() {
        let _serial = serial();
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(16, 8).unwrap();
        let claim = || {
            // SAFETY: `layout` has a non-zero size; the block is freed
            // right away.
            unsafe { a.dealloc(a.alloc(layout), layout) };
            let claim = LOCAL.with(|l| l.slot.get().expect("claimed on first allocation"));
            assert!(claim.owned, "the first threads own their slots");
            claim.slot as *const Slot as usize
        };
        let (first, second) = std::thread::scope(|s| {
            let (h1, h2) = (s.spawn(claim), s.spawn(claim));
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert_ne!(first, second);
        assert_eq!(first % 128, 0);
        assert_eq!(second % 128, 0);
    }

    /// Threads past the owned table share overflow slots with atomic
    /// adds. Two threads are pointed at one overflow slot by index (no
    /// table's worth of threads is spawned) and allocate concurrently:
    /// every count must arrive, which plain stores would not guarantee.
    #[test]
    fn threads_past_the_table_count_exactly_in_a_shared_slot() {
        const ROUNDS: u64 = 50_000;
        let _serial = serial();
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(24, 8).unwrap();
        let first = Claim::nth(SLOTS);
        assert!(!first.owned);
        assert!(std::ptr::eq(first.slot, Claim::nth(SLOTS + OVERFLOW).slot));
        let before = snapshot();
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    LOCAL.with(|l| l.slot.set(Some(Claim::nth(SLOTS + OVERFLOW))));
                    start.wait();
                    for _ in 0..ROUNDS {
                        // SAFETY: `layout` has a non-zero size; the block
                        // is freed right away.
                        unsafe { a.dealloc(a.alloc(layout), layout) };
                    }
                });
            }
        });
        let after = snapshot();
        assert_eq!(after.allocs, before.allocs + 2 * ROUNDS);
        assert_eq!(after.deallocs, before.deallocs + 2 * ROUNDS);
        assert_eq!(after.current_bytes, before.current_bytes);
    }
}
