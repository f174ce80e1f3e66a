//! Expected outputs, computed without the binary under test, and the
//! parsing of the binary's multi-input output into per-program sections.

use depend::ParallelizeSummary;

/// The `tinydep --parallelize` listing of several inputs: one
/// `== NAME ==` section per program, then the corpus summary table.
/// Mirrors the binary's corpus mode, so the benchmark can build the
/// expected output from in-process reports.
pub fn parallelize_listing(sections: &[(String, String, ParallelizeSummary)]) -> String {
    let mut out = String::new();
    let mut total = ParallelizeSummary::default();
    for (name, report, summary) in sections {
        out.push_str(&format!("== {name} ==\n{report}"));
        total.add(summary);
    }
    out.push_str("== corpus parallelize summary ==\n");
    out.push_str("PROGRAM                LOOPS  PARALLEL  OUTRIGHT  WITHOUT-KILLS  NEWLY\n");
    let row = |name: &str, s: &ParallelizeSummary| {
        format!(
            "{:<22} {:>5} {:>9} {:>9} {:>14} {:>6}\n",
            name, s.loops, s.parallel, s.outright, s.pre_parallel, s.newly
        )
    };
    for (name, _, s) in sections {
        out.push_str(&row(name, s));
    }
    out.push_str(&row("TOTAL", &total));
    out
}

/// Splits multi-input output into the sections of `names`, in order: the
/// text between `== NAME ==` and the next header. `None` when a header is
/// missing.
pub fn split_sections(output: &str, names: &[String]) -> Option<Vec<String>> {
    let mut starts = Vec::with_capacity(names.len());
    let mut from = 0;
    for name in names {
        let header = format!("== {name} ==\n");
        let at = from + output[from..].find(&header)?;
        from = at + header.len();
        starts.push((at, from));
    }
    let mut sections = Vec::with_capacity(names.len());
    for (i, &(_, body)) in starts.iter().enumerate() {
        let end = match starts.get(i + 1) {
            Some(&(next, _)) => next,
            // The last section runs to a trailing summary header, if any.
            None => output[body..]
                .find("== corpus parallelize summary ==\n")
                .map_or(output.len(), |at| body + at),
        };
        sections.push(output[body..end].to_string());
    }
    Some(sections)
}

/// 64-bit FNV-1a, the digest the seed-1 `synth_mt` output is pinned by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_split_at_their_headers() {
        let out = "== a ==\nx\n== b ==\ny\nz\n== corpus parallelize summary ==\nT\n";
        let names = vec!["a".to_string(), "b".to_string()];
        assert_eq!(
            split_sections(out, &names),
            Some(vec!["x\n".to_string(), "y\nz\n".to_string()])
        );
        assert_eq!(split_sections(out, &["c".to_string()]), None);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
