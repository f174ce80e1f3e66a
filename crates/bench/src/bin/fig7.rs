//! Regenerates Figure 7: per-pair standard and extended analysis times,
//! sorted by extended time. The paper's shape to check: the two curves
//! track each other with a roughly constant factor, with a tail of
//! expensive pairs where the extended analysis does real work.

use bench::{counters_line, fig6_summary, run_corpus};
use depend::Config;

fn main() {
    let runs = run_corpus(&Config::extended());
    let s = fig6_summary(&runs);
    println!("{}", counters_line(&runs));
    println!();

    let mut rows: Vec<(u64, u64)> = s.pairs.iter().map(|&(a, b, _)| (a, b)).collect();
    rows.sort_by_key(|&(_, ext)| ext);

    println!("=== Figure 7: analysis time per array pair, sorted by extended time ===");
    println!(
        "{:>6} {:>12} {:>12} {:>8}",
        "pair", "standard us", "extended us", "ratio"
    );
    for (i, (std_ns, ext_ns)) in rows.iter().enumerate() {
        // Print every pair; downstream plotting can subsample.
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>8.2}",
            i,
            *std_ns as f64 / 1000.0,
            *ext_ns as f64 / 1000.0,
            *ext_ns as f64 / (*std_ns).max(1) as f64
        );
    }

    // An ASCII rendition of the two curves (log-scale bars).
    println!();
    let n = rows.len();
    let buckets = 60.min(n);
    println!("extended (#) vs standard (+), {buckets} buckets across {n} pairs, log scale:");
    for b in 0..buckets {
        let i = b * n / buckets;
        let (std_ns, ext_ns) = rows[i];
        let bar = |v: u64| ((v.max(1) as f64).log10() * 6.0) as usize;
        let (sb, eb) = (bar(std_ns), bar(ext_ns));
        let mut line = vec![' '; sb.max(eb) + 1];
        for c in line.iter_mut().take(eb + 1) {
            *c = '#';
        }
        if sb < line.len() {
            line[sb] = '+';
        }
        println!("{:>5} |{}", i, line.into_iter().collect::<String>());
    }
}
