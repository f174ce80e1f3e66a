//! Analysis configuration (and ablation switches for the benchmarks).

/// Switches controlling which parts of the extended analysis run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Attempt dependence-distance refinement (§4.4).
    pub refine: bool,
    /// Check for covering dependences (§4.2).
    pub cover: bool,
    /// Run pairwise kill tests (§4.1).
    pub kill: bool,
    /// Apply the quick pre-tests of §4.5 before the general tests.
    pub quick_tests: bool,
    /// Try the range-widening extension that discovers partial
    /// refinements such as Example 5's `(0:1,1)` (the paper's generator
    /// stops where this one widens).
    pub widen_refinement: bool,
    /// Fall back to the exact Presburger-formula test when an implication
    /// with a disjunctive right-hand side fails case-by-case.
    pub formula_fallback: bool,
    /// Also run kill/refinement analysis on output dependences (the
    /// paper notes the techniques apply but its implementation analyzed
    /// flows only — see §4.7: "our changes have no effect on the output
    /// or anti dependences computed").
    pub storage_kills: bool,
    /// Work budget (elementary Omega-test steps) per query.
    pub budget: usize,
    /// Worker threads for the pair-analysis fan-out; `0` means one per
    /// available core, `1` runs the plain sequential loop. In
    /// [`analyze_corpus`](crate::analyze_corpus) this sizes the shared
    /// two-level pool: programs and their pair batches compete for the
    /// same `threads` workers, never `programs × threads`. Results are
    /// byte-identical at every setting.
    pub threads: usize,
    /// Share a canonical-form memo cache across all Omega queries of one
    /// analysis (see [`omega::SolverCache`]).
    pub memo_cache: bool,
    /// Persist the memo cache to this file: loaded (if present and
    /// readable) before the analysis and saved back after it, so repeat
    /// runs over the same program skip the solves entirely. Corrupt,
    /// stale or version-mismatched files are ignored (the run is simply
    /// cold). Saves are atomic — written to a sibling temp file and
    /// renamed into place — so a crash or a concurrent writer can never
    /// leave a torn file behind. Only meaningful when
    /// [`Config::memo_cache`] is on, and ignored entirely by
    /// [`analyze_program_with_cache`](crate::analyze_program_with_cache),
    /// where the caller (e.g. the `tinydep --serve` daemon) owns the
    /// cache and decides when to load and save it.
    pub cache_file: Option<std::path::PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            refine: true,
            cover: true,
            kill: true,
            quick_tests: true,
            widen_refinement: true,
            formula_fallback: true,
            storage_kills: false,
            budget: omega::DEFAULT_BUDGET,
            threads: 1,
            memo_cache: true,
            cache_file: None,
        }
    }
}

impl Config {
    /// The extended analysis of the paper (everything on).
    pub fn extended() -> Config {
        Config::default()
    }

    /// The worker count after resolving `threads == 0` to the number of
    /// available cores.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// "Standard analysis" as benchmarked in Figure 6: dependence
    /// construction and direction vectors only — no refinement, covering
    /// or killing.
    pub fn standard() -> Config {
        Config {
            refine: false,
            cover: false,
            kill: false,
            ..Config::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let e = Config::extended();
        assert!(e.refine && e.cover && e.kill);
        let s = Config::standard();
        assert!(!s.refine && !s.cover && !s.kill);
        assert!(s.quick_tests);
    }
}
