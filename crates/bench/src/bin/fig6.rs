//! Regenerates Figure 6: per-pair analysis timing.
//!
//! Left plot — extended vs standard analysis time per write/read array
//! pair, classified as in the paper: plain points (extended capabilities
//! not needed), `*` (general covering/refinement test on one vector),
//! `o` (the dependence was split into several vectors, the paper's `◇`).
//!
//! Right plot — kill-test time vs the time to generate + refine + cover
//! the dependence being killed; quick-test kills cluster at negligible
//! x, Omega-consulted kills to the right.
//!
//! Absolute times are from this host, not a 1992 SPARC IPX; the paper's
//! claims to check are the *shape*: extended ≈ 2–4× standard for tested
//! pairs, three visible cost classes, and most kill tests resolved
//! without consulting the Omega test.

use bench::{ascii_scatter, counters_line, fig6_summary, run_corpus};
use depend::{Config, PairClass};

fn main() {
    let runs = run_corpus(&Config::extended());
    let s = fig6_summary(&runs);
    println!("{}", counters_line(&runs));
    println!();

    println!("=== Figure 6 (left): extended vs standard analysis time per pair ===");
    println!(
        "pairs: {} total | {} no-test (paper: 264) | {} general `*` (paper: 81) | {} split `o` (paper: 72)",
        s.pairs.len(),
        s.no_test,
        s.general,
        s.split
    );
    let pts: Vec<(f64, f64, char)> = s
        .pairs
        .iter()
        .map(|&(std_ns, ext_ns, class)| {
            let c = match class {
                PairClass::NoTest => '.',
                PairClass::General => '*',
                PairClass::Split => 'o',
            };
            (std_ns as f64 / 1000.0, ext_ns as f64 / 1000.0, c)
        })
        .collect();
    println!(
        "{}",
        ascii_scatter(&pts, 64, 20, "standard us", "extended us")
    );

    // Ratio distribution for the tested pairs (the paper: "generally 2 or
    // 3 times the amount of time needed to generate the dependence").
    let mut ratios: Vec<f64> = s
        .pairs
        .iter()
        .filter(|(_, _, c)| *c != PairClass::NoTest)
        .map(|&(std_ns, ext_ns, _)| ext_ns as f64 / std_ns.max(1) as f64)
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    if !ratios.is_empty() {
        let q = |f: f64| ratios[(f * (ratios.len() - 1) as f64) as usize];
        println!(
            "ext/std ratio over tested pairs: p25={:.2} median={:.2} p75={:.2} p95={:.2}",
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.95)
        );
    }

    println!();
    println!("=== Figure 6 (right): kill test time vs victim generation time ===");
    println!(
        "kill tests: {} total | {} quick (paper: 284) | {} consulted the Omega test (paper: 54)",
        s.kills.len(),
        s.quick_kills,
        s.omega_kills
    );
    let pts: Vec<(f64, f64, char)> = s
        .kills
        .iter()
        .map(|&(kill_ns, gen_ns, consulted)| {
            (
                kill_ns as f64 / 1000.0,
                gen_ns as f64 / 1000.0,
                if consulted { '*' } else { '.' },
            )
        })
        .collect();
    println!(
        "{}",
        ascii_scatter(&pts, 64, 20, "kill test us", "victim extended us")
    );

    // CSV dumps for external plotting.
    println!("--- CSV: pair,std_ns,ext_ns,class ---");
    for (i, &(a, b, c)) in s.pairs.iter().enumerate() {
        println!("{i},{a},{b},{c:?}");
    }
    println!("--- CSV: kill,kill_ns,victim_ext_ns,consulted ---");
    for (i, &(a, b, c)) in s.kills.iter().enumerate() {
        println!("{i},{a},{b},{c}");
    }
}
