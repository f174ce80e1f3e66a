//! Analysis configuration (and ablation switches for the benchmarks).
//!
//! A [`Config`] says which analyses run and how hard the solver may
//! try, nothing else: where memoized Omega results live is the
//! caller's choice, passed to
//! [`analyze_corpus_on`](crate::analyze_corpus_on) as a value.

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
    /// Threads of the [`Pool`](crate::Pool) the analysis runs on; `0`
    /// means one per available core (resolved by
    /// [`Pool::new`](crate::Pool::new)), `1` runs the plain sequential
    /// loop. In [`analyze_corpus`](crate::analyze_corpus) programs and
    /// their pair batches compete for the same `threads` workers, never
    /// `programs × threads`. Results are byte-identical at every setting.
    /// Ignored by [`analyze_corpus_on`](crate::analyze_corpus_on), whose
    /// caller supplies the pool.
    pub threads: usize,
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
        }
    }
}

impl Config {
    /// The extended analysis of the paper (everything on).
    pub fn extended() -> Config {
        Config::default()
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
