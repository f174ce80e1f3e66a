//! A lightweight benchmark runner.
//!
//! Each measurement auto-calibrates a batch size so one timed batch
//! lasts long enough to swamp timer overhead, warms up, then times a
//! fixed number of batches. Per-iteration min/median/p95/mean are
//! reported two ways:
//!
//! * a human-readable line on **stderr**;
//! * a machine-readable JSON object on **stdout**, one line per
//!   benchmark — pipe into `BENCH_*.json` files for trajectory tracking.
//!
//! Mirroring criterion's convention, a bench binary run without a
//! `--bench` argument (which is how `cargo test` executes `[[bench]]`
//! targets, vs `cargo bench` which passes it) performs a **quick smoke
//! run**: no warmup, two samples, batch size 1 — just enough to prove
//! the benchmark still works. `HARNESS_BENCH_QUICK=1` forces the same.
//!
//! Env knobs: `HARNESS_BENCH_SAMPLES`, `HARNESS_BENCH_WARMUP_MS`,
//! `HARNESS_BENCH_BATCH_NS` override the defaults.

use std::time::Instant;

pub use std::hint::black_box;

/// Per-iteration timing statistics for one benchmark.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Benchmark name.
    pub name: String,
    /// Number of timed samples (batches).
    pub samples: usize,
    /// Iterations per batch after calibration.
    pub iters_per_sample: u64,
    /// Fastest per-iteration time, ns.
    pub min_ns: f64,
    /// Median per-iteration time, ns.
    pub median_ns: f64,
    /// 95th-percentile per-iteration time, ns.
    pub p95_ns: f64,
    /// Mean per-iteration time, ns.
    pub mean_ns: f64,
    /// Mean allocations per iteration over the timed samples, measured
    /// with the calling thread's [`crate::alloc`] counter. Zero when the
    /// binary did not register [`crate::alloc::CountingAlloc`].
    pub allocs_per_iter: f64,
}

impl Stats {
    /// The stats as one JSON object on a single line.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"samples\":{},\"iters_per_sample\":{},\
             \"min_ns\":{:.1},\"median_ns\":{:.1},\"p95_ns\":{:.1},\"mean_ns\":{:.1},\
             \"allocs_per_iter\":{:.1}}}",
            json_escape(&self.name),
            self.samples,
            self.iters_per_sample,
            self.min_ns,
            self.median_ns,
            self.p95_ns,
            self.mean_ns,
            self.allocs_per_iter,
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
}

/// The benchmark runner. Construct with [`Bench::from_env`] in a
/// `[[bench]]` target's `main`, then call [`Bench::bench`] per case.
#[derive(Debug)]
pub struct Bench {
    samples: usize,
    warmup_ns: u64,
    target_batch_ns: u64,
    quick: bool,
    results: Vec<Stats>,
}

impl Bench {
    /// A runner configured from the process arguments and environment
    /// (see the module docs for the quick-mode rules and env knobs).
    pub fn from_env() -> Self {
        let full =
            std::env::args().any(|a| a == "--bench") && env_u64("HARNESS_BENCH_QUICK").is_none();
        let mut b = if full { Bench::full() } else { Bench::quick() };
        if let Some(s) = env_u64("HARNESS_BENCH_SAMPLES") {
            b.samples = (s as usize).max(1);
        }
        if let Some(ms) = env_u64("HARNESS_BENCH_WARMUP_MS") {
            b.warmup_ns = ms * 1_000_000;
        }
        if let Some(ns) = env_u64("HARNESS_BENCH_BATCH_NS") {
            b.target_batch_ns = ns.max(1);
        }
        b
    }

    /// A full-measurement runner: 200 ms warmup, 30 samples, batches
    /// calibrated to ~10 ms.
    pub fn full() -> Self {
        Bench {
            samples: 30,
            warmup_ns: 200_000_000,
            target_batch_ns: 10_000_000,
            quick: false,
            results: Vec::new(),
        }
    }

    /// A smoke-run configuration: no warmup, two samples, batch size 1.
    pub fn quick() -> Self {
        Bench {
            samples: 2,
            warmup_ns: 0,
            target_batch_ns: 1,
            quick: true,
            results: Vec::new(),
        }
    }

    /// Overrides the sample count unless the environment already did
    /// (lets heavy macro-benchmarks default lower than micro-benchmarks).
    pub fn default_samples(mut self, samples: usize) -> Self {
        if !self.quick && env_u64("HARNESS_BENCH_SAMPLES").is_none() {
            self.samples = samples.max(1);
        }
        self
    }

    /// Measures `f`, prints the human line (stderr) and JSON line
    /// (stdout), and returns the stats.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &Stats {
        // Calibrate the batch size from a single untimed-ish run.
        let iters = if self.quick {
            1
        } else {
            let once = time_batch(&mut f, 1).max(1);
            (self.target_batch_ns / once).clamp(1, 10_000_000)
        };

        if self.warmup_ns > 0 {
            let start = Instant::now();
            while (start.elapsed().as_nanos() as u64) < self.warmup_ns {
                black_box(f());
            }
        }

        let allocs_before = crate::alloc::thread_allocs();
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| time_batch(&mut f, iters) as f64 / iters as f64)
            .collect();
        let total_iters = self.samples as u64 * iters;
        let allocs_per_iter =
            (crate::alloc::thread_allocs() - allocs_before) as f64 / total_iters as f64;
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let n = per_iter.len();
        let stats = Stats {
            name: name.to_string(),
            samples: n,
            iters_per_sample: iters,
            min_ns: per_iter[0],
            median_ns: per_iter[n / 2],
            p95_ns: per_iter[(((n - 1) as f64 * 0.95).ceil()) as usize],
            mean_ns: per_iter.iter().sum::<f64>() / n as f64,
            allocs_per_iter,
        };
        eprintln!(
            "{name:<44} median {:>12} (min {}, p95 {}, {}x{} iters){}",
            fmt_ns(stats.median_ns),
            fmt_ns(stats.min_ns),
            fmt_ns(stats.p95_ns),
            n,
            iters,
            if self.quick { "  [quick]" } else { "" },
        );
        println!("{}", stats.json_line());
        self.results.push(stats);
        self.results.last().expect("just pushed")
    }

    /// All stats recorded so far, in run order.
    pub fn results(&self) -> &[Stats] {
        &self.results
    }
}

fn time_batch<R>(f: &mut impl FnMut() -> R, iters: u64) -> u64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as u64
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn quick_bench_produces_ordered_stats_and_valid_json() {
        let mut b = Bench::quick();
        let calls = Cell::new(0u64);
        let stats = b
            .bench("smoke/count", || {
                calls.set(calls.get() + 1);
                calls.get()
            })
            .clone();
        assert!(calls.get() >= 2, "closure must run once per sample");
        assert!(stats.min_ns <= stats.median_ns);
        assert!(stats.median_ns <= stats.p95_ns);

        let json = stats.json_line();
        assert!(json.starts_with("{\"name\":\"smoke/count\""));
        assert!(json.ends_with('}'));
        for key in [
            "\"samples\":",
            "\"iters_per_sample\":",
            "\"min_ns\":",
            "\"median_ns\":",
            "\"p95_ns\":",
            "\"mean_ns\":",
            "\"allocs_per_iter\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // One flat object: no nesting, no stray quotes from the name.
        assert_eq!(json.matches('{').count(), 1);
        assert_eq!(json.matches('}').count(), 1);
        assert_eq!(b.results().len(), 1);
    }

    #[test]
    fn json_escaping_handles_quotes_and_backslashes() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\there"), "tab\\u0009here");
    }

    #[test]
    fn batch_calibration_stays_in_bounds() {
        let mut b = Bench::full();
        b.samples = 3;
        b.warmup_ns = 0;
        b.target_batch_ns = 10_000;
        let stats = b.bench("smoke/cheap", || black_box(1u64 + 1)).clone();
        assert!(stats.iters_per_sample >= 1);
        assert!(stats.min_ns >= 0.0);
    }
}
