//! Seeded generator of tiny-language programs for the `synth_mt` and
//! `serve_mixed` workloads.
//!
//! A program is a pure function of `(seed, index)`, so a workload's inputs
//! repeat exactly for a seed while each index gives a distinct program.
//! The shapes are chosen to exercise the analysis the way the paper's
//! kernels do, without sharing their sub-problems: nests of depth 1–3,
//! 2–6 assignments, affine subscripts with coefficients in −2..2,
//! triangular and symbolic bounds under `assume`, `if` guards, and later
//! overwrites of an earlier write (which create kills).
//!
//! The workloads draw from a frozen pool, `golden/synth_pool.txt`: the
//! stream of [`POOL_STREAM`] with the programs skipped that the front end
//! or the analysis rejects, and the pathological tail: programs whose kill
//! tests would need the exact formula fallback (seconds a program, the
//! cost `corpus_cold` measures on the corpus), and programs needing more
//! than [`MAX_LOOKUPS`] solver queries. [`freeze`] wrote the file, with
//! each kept program's analysis time. Freezing the selection keeps a
//! workload's inputs the same on every commit: selecting at run time
//! would let a change that only alters, say, how many queries the
//! analysis asks change which programs are measured.
//!
//! [`draw`] takes a seeded sample of the pool whose frozen analysis times
//! add up to within [`BALANCE_US`] of the pool's mean a program, so every
//! seed asks for about the same work. Without the balance a few heavy
//! programs move a draw's total analysis time by about 5% between seeds
//! (quartile spread over 20 seeds), and balancing on the lookup count
//! instead of time leaves nearly as much; with it, about 1.5%.

use std::time::Instant;

use depend::{analyze_program, Analysis, Config};
use harness::rng::SplitMix64;
use harness::Rng;
use tiny::ProgramInfo;

/// Programs needing more memo-cache lookups than this (with a fresh
/// cache, one thread) are left out of the pool: above it lie the few
/// programs that would dominate a run.
const MAX_LOOKUPS: u64 = 1000;
/// How far a draw's total frozen analysis time may stray from the pool's
/// mean times the count, in microseconds.
const BALANCE_US: u64 = 1000;
/// The generator stream the pool is drawn from.
const POOL_STREAM: u64 = 0x900d_5eed;
/// Programs in the pool: enough for `serve_mixed`'s fresh programs at
/// twice the seed's request rate, each sent once.
pub const POOL_SIZE: usize = 4000;
/// Timed passes over the pool when freezing it.
const FREEZE_PASSES: usize = 5;
/// The frozen pool: `#` comment lines, then `index cost_us` per program.
const POOL: &str = include_str!("../golden/synth_pool.txt");

/// One program of the pool: its index in [`POOL_STREAM`], and its
/// one-thread extended analysis time when the pool was frozen.
struct Entry {
    index: u64,
    cost_us: u64,
}

/// The frozen pool.
fn pool() -> Vec<Entry> {
    POOL.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let mut words = l.split_whitespace().map(|w| w.parse().ok());
            match (words.next().flatten(), words.next().flatten()) {
                (Some(index), Some(cost_us)) => Entry { index, cost_us },
                _ => panic!("malformed line in golden/synth_pool.txt: {l:?}"),
            }
        })
        .collect()
}

/// `count` programs of the pool for `seed` (see the module docs): the
/// pool in a seeded order, skipping a program while taking it would put
/// the total cost more than [`BALANCE_US`] off the mean; if the pool runs
/// out, the skipped ones follow in order.
pub fn draw(seed: u64, count: usize) -> Vec<Generated> {
    draw_entries(seed, count)
        .into_iter()
        .map(|e| generate(POOL_STREAM, e.index))
        .collect()
}

fn draw_entries(seed: u64, count: usize) -> Vec<Entry> {
    let mut order = pool();
    assert!(
        count <= order.len(),
        "the pool holds {} programs",
        order.len()
    );
    let mean = order.iter().map(|e| e.cost_us).sum::<u64>() / order.len() as u64;
    Rng::from_seed(seed).shuffle(&mut order);
    let mut kept = Vec::with_capacity(count);
    let mut skipped = Vec::new();
    let mut cost = 0;
    for e in order {
        if kept.len() == count {
            break;
        }
        let target = mean * (kept.len() as u64 + 1);
        if (cost + e.cost_us).abs_diff(target) <= BALANCE_US {
            cost += e.cost_us;
            kept.push(e);
        } else {
            skipped.push(e);
        }
    }
    let missing = count - kept.len();
    kept.extend(skipped.into_iter().take(missing));
    kept
}

/// [`draw`], with each program's front end and extended analysis handed to
/// `keep`. Errors name a pool program the front end or analysis rejects,
/// which the pool was frozen without.
pub fn analyzed<T>(
    seed: u64,
    count: usize,
    mut keep: impl FnMut(&Generated, &tiny::Program, &ProgramInfo, &Analysis) -> T,
) -> Result<Vec<T>, String> {
    draw(seed, count)
        .iter()
        .map(|p| {
            let failed = |e: &dyn std::fmt::Display| format!("{e} in\n{}", p.source);
            let program = tiny::Program::parse(&p.source).map_err(|e| failed(&e))?;
            let info = tiny::analyze(&program).map_err(|e| failed(&e))?;
            let a = analyze_program(&info, &Config::extended()).map_err(|e| failed(&e))?;
            Ok(keep(p, &program, &info, &a))
        })
        .collect()
}

/// The text of `golden/synth_pool.txt`: the first [`POOL_SIZE`] programs
/// of [`POOL_STREAM`] that pass the front end and the analysis, need no
/// formula fallback, and make at most [`MAX_LOOKUPS`] lookups, each with
/// its fastest timed analysis. The selection repeats exactly; the times
/// are of the machine that froze the pool.
pub fn freeze() -> String {
    let no_fallback = Config {
        formula_fallback: false,
        ..Config::extended()
    };
    let mut kept = Vec::with_capacity(POOL_SIZE);
    let (mut rejected, mut fallback, mut heavy) = (0, 0, 0);
    let mut end = 0;
    while kept.len() < POOL_SIZE {
        let index = end;
        end += 1;
        let p = generate(POOL_STREAM, index);
        let Some(info) = tiny::Program::parse(&p.source)
            .ok()
            .and_then(|program| tiny::analyze(&program).ok())
        else {
            rejected += 1;
            continue;
        };
        match analyze_program(&info, &no_fallback) {
            Ok(a) if a.stats.kills.iter().any(|k| k.consulted_omega && !k.killed) => {
                fallback += 1;
                continue;
            }
            Ok(_) => {}
            Err(_) => {
                rejected += 1;
                continue;
            }
        }
        match analyze_program(&info, &Config::extended()) {
            Ok(a) if a.stats.cache.lookups() <= MAX_LOOKUPS => {}
            Ok(_) => {
                heavy += 1;
                continue;
            }
            Err(_) => {
                rejected += 1;
                continue;
            }
        }
        kept.push((index, info));
    }
    // Whole passes over the pool, so a slow spell of the machine inflates
    // one pass's times rather than one stretch of the pool.
    let mut fastest = vec![u128::MAX; kept.len()];
    for _ in 0..FREEZE_PASSES {
        for ((_, info), best) in kept.iter().zip(&mut fastest) {
            let t0 = Instant::now();
            let _ = std::hint::black_box(analyze_program(info, &Config::extended()));
            *best = (*best).min(t0.elapsed().as_micros());
        }
    }
    let lines: Vec<String> = kept
        .iter()
        .zip(&fastest)
        .map(|((index, _), us)| format!("{index} {us}"))
        .collect();
    format!(
        "# synth pool: programs 0..{end} of stream {POOL_STREAM:#x}, {} kept; skipped {rejected} \
         rejected, {fallback} needing the formula fallback, {heavy} over {MAX_LOOKUPS} lookups.\n\
         # Written by `ledger --freeze-synth-pool` on a 2-vCPU x86-64 VM (Intel Xeon).\n\
         # Each line: index, fastest of {FREEZE_PASSES} one-thread analyses in microseconds.\n{}\n",
        lines.len(),
        lines.join("\n")
    )
}

/// The features one generated program uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Features {
    /// Deepest loop nest.
    pub depth: usize,
    /// Some inner loop bound depends on an outer loop variable.
    pub triangular: bool,
    /// The program carries an `assume` on its symbolic constants.
    pub assume: bool,
    /// Some assignment sits under an `if` guard.
    pub guard: bool,
    /// Some assignment rewrites an element an earlier one wrote.
    pub overwrite: bool,
}

/// One generated program.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The tiny-language source text.
    pub source: String,
    /// What the source uses.
    pub features: Features,
}

/// Arrays the programs write, with their ranks; `c` is read-only input.
const WRITTEN: [(&str, usize); 3] = [("a", 1), ("b", 2), ("t", 1)];
const INPUT: (&str, usize) = ("c", 2);
const GUARDED: &str = "g";
const VARS: [&str; 3] = ["i", "j", "k"];
/// Unit coefficients dominate real subscripts; ±2 keeps strides in play.
const COEFS: [i64; 8] = [-2, -1, 0, 0, 0, 1, 1, 2];
const ASSUMES: [&str; 4] = [
    "assume 2 <= n <= m;",
    "assume m >= n + 1;",
    "assume 1 <= n <= 50;",
    "assume n >= 10 && m >= 10;",
];

/// An array access: the array, and per dimension the coefficients of
/// `i`, `j`, `k` followed by the constant.
#[derive(Debug, Clone)]
struct Access {
    array: &'static str,
    subs: Vec<[i64; 4]>,
}

impl Access {
    /// The loop depth the subscripts need in scope.
    fn depth(&self) -> usize {
        self.subs
            .iter()
            .flat_map(|s| (0..3).filter(move |&v| s[v] != 0))
            .map(|v| v + 1)
            .max()
            .unwrap_or(0)
    }

    fn render(&self) -> String {
        let dims: Vec<String> = self.subs.iter().map(affine).collect();
        format!("{}({})", self.array, dims.join(", "))
    }
}

/// Renders `c_i*i + c_j*j + c_k*k + c` in the usual compact form.
fn affine(s: &[i64; 4]) -> String {
    let mut out = String::new();
    for (v, &c) in VARS.iter().zip(&s[..3]) {
        if c == 0 {
            continue;
        }
        let sign = if c < 0 { "-" } else { "+" };
        if out.is_empty() {
            if c < 0 {
                out.push('-');
            }
        } else {
            out.push_str(&format!(" {sign} "));
        }
        if c.abs() != 1 {
            out.push_str(&format!("{}*", c.abs()));
        }
        out.push_str(v);
    }
    match (out.is_empty(), s[3]) {
        (true, c) => c.to_string(),
        (false, 0) => out,
        (false, c) if c < 0 => format!("{out} - {}", -c),
        (false, c) => format!("{out} + {c}"),
    }
}

struct Gen {
    rng: Rng,
    features: Features,
    /// Writes so far, for overwrites and for reads that see a value.
    writes: Vec<Access>,
    out: String,
}

impl Gen {
    fn access(&mut self, array: &'static str, rank: usize, depth: usize) -> Access {
        let subs = (0..rank)
            .map(|_| {
                // At most two loop variables per subscript: three-variable
                // subscripts of a 1-D array in a 3-deep nest split the kill
                // tests into unions whose exact check takes seconds.
                let mut s = [0i64; 4];
                let skip = (depth == 3).then(|| self.rng.gen_range_usize(0..3));
                for (v, c) in s.iter_mut().take(depth).enumerate() {
                    if Some(v) != skip {
                        *c = *self.rng.choose(&COEFS);
                    }
                }
                s[3] = self.rng.gen_range_i64(-2..=2);
                s
            })
            .collect();
        Access { array, subs }
    }

    /// An earlier write usable at `depth`, if the dice and history allow.
    fn earlier_write(&mut self, p: f64, depth: usize) -> Option<Access> {
        let fits: Vec<Access> = self
            .writes
            .iter()
            .filter(|w| w.depth() <= depth)
            .cloned()
            .collect();
        if fits.is_empty() || !self.rng.gen_bool(p) {
            return None;
        }
        Some(self.rng.choose(&fits).clone())
    }

    fn read(&mut self, depth: usize) -> Access {
        if let Some(mut a) = self.earlier_write(0.6, depth) {
            // Read near what was written, so flows (and kills) exist.
            for s in &mut a.subs {
                s[3] += self.rng.gen_range_i64(-1..=1);
            }
            return a;
        }
        let (array, rank) = if self.rng.gen_bool(0.3) {
            INPUT
        } else {
            *self.rng.choose(&WRITTEN)
        };
        self.access(array, rank, depth)
    }

    fn assignment(&mut self, depth: usize, indent: &str) {
        let reads: Vec<String> = (0..self.rng.gen_range_usize(1..=2))
            .map(|_| self.read(depth).render())
            .collect();
        let reads = reads.join(" + ");
        if self.rng.gen_bool(0.25) {
            // A guarded write goes to an array of its own that nothing
            // reads, so it is never a kill's victim or killer: a guarded
            // killer makes the kill test's implication disjunctive, and
            // the exact formula test behind that (the tail `corpus_cold`
            // measures) costs up to seconds a program.
            self.features.guard = true;
            let v = VARS[depth - 1];
            let cond = if depth >= 2 && self.rng.flip() {
                format!("{v} <= {}", VARS[depth - 2])
            } else {
                format!("{v} >= 2")
            };
            let write = self.access(GUARDED, 1, depth).render();
            self.line(indent, &format!("if {cond} then"));
            self.line(&format!("{indent}  "), &format!("{write} := {reads};"));
            self.line(indent, "endif");
            return;
        }
        let write = match self.earlier_write(0.35, depth) {
            Some(w) => {
                self.features.overwrite = true;
                w
            }
            None => {
                let (array, rank) = *self.rng.choose(&WRITTEN);
                self.access(array, rank, depth)
            }
        };
        self.line(indent, &format!("{} := {reads};", write.render()));
        self.writes.push(write);
    }

    fn line(&mut self, indent: &str, text: &str) {
        self.out.push_str(indent);
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// One loop nest of `depth` levels holding `stmts` assignments in its
    /// innermost body, sometimes with one more after the innermost loop
    /// (the stale-reset shape of the corpus' `pivot_reset`).
    fn nest(&mut self, depth: usize, stmts: usize) {
        self.features.depth = self.features.depth.max(depth);
        for level in 0..depth {
            let v = VARS[level];
            let (lo, hi) = if level > 0 && self.rng.flip() {
                self.features.triangular = true;
                let outer = VARS[level - 1];
                if self.rng.flip() {
                    ("1".to_string(), outer.to_string())
                } else {
                    (outer.to_string(), "n".to_string())
                }
            } else {
                let lo = self.rng.gen_range_i64(1..=2).to_string();
                let hi = if self.rng.flip() { "n" } else { "m" };
                (lo, hi.to_string())
            };
            let indent = "  ".repeat(level);
            self.line(&indent, &format!("for {v} := {lo} to {hi} do"));
        }
        let body = "  ".repeat(depth);
        for _ in 0..stmts {
            self.assignment(depth, &body);
        }
        let tail = depth >= 2 && self.rng.gen_bool(0.1);
        for level in (0..depth).rev() {
            let indent = "  ".repeat(level);
            self.line(&indent, "endfor");
            if tail && level == depth - 1 {
                self.assignment(depth - 1, &indent);
            }
        }
    }
}

/// The program at `index` of the stream for `seed`.
pub fn generate(seed: u64, index: u64) -> Generated {
    let base = SplitMix64::new(seed).next_u64();
    let mut g = Gen {
        rng: Rng::from_seed(base ^ SplitMix64::new(index).next_u64()),
        features: Features::default(),
        writes: Vec::new(),
        out: String::from("sym n, m;\n"),
    };
    if g.rng.flip() {
        g.features.assume = true;
        let a = *g.rng.choose(&ASSUMES);
        g.line("", a);
    }
    // The depth cycles with the index, so the stream holds the three
    // depths in equal shares; deeper nests get fewer statements, since the pairs
    // and kill tests grow with the square and cube of the count.
    let depth = 1 + (index % 3) as usize;
    let total = g.rng.gen_range_usize(2..=[6, 4, 3][depth - 1]);
    // A second nest, when there is one, reads or overwrites what the
    // first one wrote.
    let second = if total >= 3 && g.rng.gen_bool(0.4) {
        g.rng.gen_range_usize(1..=2)
    } else {
        0
    };
    g.nest(depth, total - second);
    if second > 0 {
        let depth = g.rng.gen_range_usize(1..=2);
        g.nest(depth, second);
    }
    Generated {
        source: g.out,
        features: g.features,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depend::DeadReason;

    fn sources(seed: u64, count: usize) -> Vec<String> {
        draw(seed, count).into_iter().map(|p| p.source).collect()
    }

    #[test]
    fn a_seed_repeats_and_another_seed_differs() {
        let a = sources(1, 50);
        assert_eq!(a, sources(1, 50));
        assert_ne!(a, sources(2, 50));
        let distinct: std::collections::BTreeSet<&String> = a.iter().collect();
        assert!(
            distinct.len() >= 45,
            "only {} distinct of 50",
            distinct.len()
        );
        let a: Vec<String> = (0..50).map(|i| generate(1, i).source).collect();
        let b: Vec<String> = (0..50).map(|i| generate(1, i).source).collect();
        let c: Vec<String> = (0..50).map(|i| generate(2, i).source).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn the_pool_is_frozen_whole() {
        let pool = pool();
        assert_eq!(pool.len(), POOL_SIZE);
        assert!(pool.windows(2).all(|w| w[0].index < w[1].index));
        // The serve workload's largest draw takes distinct programs.
        let indices: std::collections::BTreeSet<u64> = draw_entries(9, POOL_SIZE / 2)
            .iter()
            .map(|e| e.index)
            .collect();
        assert_eq!(indices.len(), POOL_SIZE / 2);
    }

    #[test]
    fn every_generated_program_passes_the_front_end() {
        for i in 0..300 {
            let p = generate(5, i);
            let program =
                tiny::Program::parse(&p.source).unwrap_or_else(|e| panic!("{e}\n{}", p.source));
            tiny::analyze(&program).unwrap_or_else(|e| panic!("{e}\n{}", p.source));
        }
    }

    #[test]
    fn drawn_programs_analyze_and_cover_the_feature_mix() {
        let mut seen = Features::default();
        let kills = analyzed(1, 150, |p, _, _, a| {
            let f = p.features;
            seen.depth = seen.depth.max(f.depth);
            seen.triangular |= f.triangular;
            seen.assume |= f.assume;
            seen.guard |= f.guard;
            seen.overwrite |= f.overwrite;
            a.flows
                .iter()
                .filter(|d| d.dead == Some(DeadReason::Killed))
                .count()
        })
        .expect("pool programs pass the front end and the analysis");
        assert_eq!(seen.depth, 3);
        assert!(seen.triangular && seen.assume && seen.guard && seen.overwrite);
        assert!(
            kills.iter().sum::<usize>() > 0,
            "no drawn program had a killed flow"
        );
    }

    #[test]
    fn a_draw_balances_its_work() {
        let mean = pool().iter().map(|e| e.cost_us).sum::<u64>() / POOL_SIZE as u64;
        for seed in 1..=5 {
            let total: u64 = draw_entries(seed, 500).iter().map(|e| e.cost_us).sum();
            assert!(
                total.abs_diff(500 * mean) <= BALANCE_US,
                "seed {seed}: {total}"
            );
        }
    }

    #[test]
    fn affine_forms_render_compactly() {
        assert_eq!(affine(&[1, 0, 0, 0]), "i");
        assert_eq!(affine(&[-2, 1, 0, -1]), "-2*i + j - 1");
        assert_eq!(affine(&[0, 0, -1, 2]), "-k + 2");
        assert_eq!(affine(&[0, 0, 0, -2]), "-2");
    }
}
