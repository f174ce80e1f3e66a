//! End-to-end tests of the `tinydep` command-line driver.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn tinydep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tinydep"))
}

#[test]
fn analyzes_a_corpus_program() {
    let out = tinydep()
        .arg("corpus:example3")
        .output()
        .expect("tinydep runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("(0,1)"),
        "refined vector expected:\n{stdout}"
    );
    assert!(stdout.contains("[ r]"), "{stdout}");
}

#[test]
fn standard_mode_reports_unrefined() {
    let out = tinydep()
        .args(["--standard", "corpus:example3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("(0+,1)"), "{stdout}");
    assert!(!stdout.contains("dead flow"), "{stdout}");
}

#[test]
fn reads_from_stdin() {
    let mut child = tinydep()
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"sym n; for i := 2 to n do a(i) := a(i-1); endfor")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("A(I)"), "{stdout}");
    assert!(stdout.contains("(1)"), "{stdout}");
}

#[test]
fn parallel_report() {
    let out = tinydep()
        .args(["--parallel", "corpus:matmul"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("loop parallelism"), "{stdout}");
    assert!(stdout.contains("PARALLEL"), "{stdout}");
    assert!(stdout.contains("sequential"), "{stdout}");
}

#[test]
fn parse_errors_are_reported_with_position() {
    let mut child = tinydep()
        .arg("-")
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"for i := 1 to n do a(i) := 0;")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("endfor"), "{stderr}");
}

#[test]
fn deeply_nested_input_is_a_parse_error_not_a_stack_overflow() {
    // Without a depth limit, recursive descent over 20,000 parentheses
    // overflows the stack and aborts (exit 134).
    let deep = format!("x := {}1{};", "(".repeat(20_000), ")".repeat(20_000));
    let mut child = tinydep()
        .arg("-")
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(deep.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("nested deeper than 64"), "{stderr}");
}

#[test]
fn integer_overflow_in_the_solver_degrades_to_a_conservative_answer() {
    // Fourier–Motzkin on these coefficients overflows i64. Like an
    // exhausted budget, that gives up on the query, not on the program.
    let source = "for i := 1 to n do
                    for j := 1 to n do
                      a(4000000007*i + 4000000009*j) := a(4000000009*i + 4000000007*j + 7);
                    endfor
                  endfor";
    let mut child = tinydep()
        .args(["--all", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(source.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let summaries: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().last())
        .filter(|w| w.starts_with('('))
        .collect();
    assert_eq!(summaries, ["(0+,*)", "(0+,*)", "(*,*)"], "{stdout}");
}

#[test]
fn the_first_front_end_error_wins_at_every_thread_count() {
    // Input 2 fails to parse and input 4 fails semantic analysis; the
    // front end runs on the pool, and the error reported must still be
    // input 2's, as in a sequential run.
    let dir = std::env::temp_dir().join(format!("tinydep_first_error_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sources = [
        "sym n; for i := 1 to n do a(i) := a(i-1); endfor",
        "for i := 1 to n do a(i) := 0;",
        "sym n; for i := 1 to n do b(i) := a(i); endfor",
        "sym n; for i := 1 to n do for i := 1 to n do a(i) := 0; endfor endfor",
        "sym n; for i := 1 to n do c(i) := 1; endfor",
    ];
    let paths: Vec<_> = sources
        .iter()
        .enumerate()
        .map(|(k, src)| {
            let path = dir.join(format!("p{}.t", k + 1));
            std::fs::write(&path, src).unwrap();
            path
        })
        .collect();
    let run = |threads: &str| tinydep().arg(threads).args(&paths).output().unwrap();
    let one = run("--threads=1");
    let eight = run("--threads=8");
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8(one.stderr).unwrap();
    assert!(!one.status.success());
    assert!(
        stderr.contains("p2.t: ") && stderr.contains("endfor"),
        "{stderr}"
    );
    assert!(one.stdout.is_empty(), "a report was printed");
    assert_eq!(one.status.code(), eight.status.code());
    assert_eq!(stderr, String::from_utf8(eight.stderr).unwrap());
    assert!(
        eight.stdout.is_empty(),
        "a report was printed at --threads=8"
    );
}

#[test]
fn unknown_corpus_program_fails_cleanly() {
    let out = tinydep().arg("corpus:nope").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no corpus program"), "{stderr}");
}

#[test]
fn list_corpus() {
    let out = tinydep().arg("--list-corpus").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.lines().count() >= 25);
    assert!(stdout.contains("cholsky"), "{stdout}");
}

#[test]
fn all_flag_prints_storage_dependences() {
    let out = tinydep().args(["--all", "corpus:seidel"]).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("anti dependences"), "{stdout}");
    assert!(stdout.contains("output dependences"), "{stdout}");
}

#[test]
fn fortran_flag_accepts_figure_2() {
    let mut child = tinydep()
        .args(["--fortran", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(tiny::corpus::CHOLSKY_F77.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("dead flow dependences"), "{stdout}");
    assert!(stdout.contains("EPSS(L)"), "{stdout}");
}

#[test]
fn dot_output_is_valid_digraph() {
    let out = tinydep()
        .args(["--dot", "corpus:example2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("digraph dependences {"), "{stdout}");
    assert!(stdout.contains("dashed"), "dead edges shown:\n{stdout}");
    assert!(stdout.trim_end().ends_with('}'), "{stdout}");
}

#[test]
fn signs_prints_direction_vector_sets() {
    let out = tinydep()
        .args(["--signs", "corpus:example6"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("{(+,+)}"), "coupled distances:\n{stdout}");
}

#[test]
fn json_output_parses_mentally() {
    let out = tinydep()
        .args(["--json", "corpus:example1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"flows\""), "{stdout}");
    assert!(stdout.contains("\"status\": \"dead\""), "{stdout}");
    assert!(stdout.contains("\"srcAccess\": \"a(n)\""), "{stdout}");
}

#[test]
fn help_lists_every_option() {
    let out = tinydep().arg("--help").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for flag in "--standard --fortran --all --parallel --parallelize --storage-kills --dot \
                 --json --signs --threads=N --corpus --no-cache --cache-file=PATH --stats \
                 --serve --serve=PATH --list-corpus"
        .split_whitespace()
    {
        assert!(
            stdout
                .lines()
                .any(|l| l.split_whitespace().next() == Some(flag)),
            "{flag} undocumented:\n{stdout}"
        );
    }
}

#[test]
fn stats_are_printed_by_every_run_shape() {
    let runs: [&[&str]; 4] = [
        &["--stats", "corpus:example1"],
        &["--stats", "corpus:example1", "corpus:example2"],
        &[
            "--parallelize",
            "--stats",
            "corpus:example1",
            "corpus:example2",
        ],
        &["--parallelize", "--corpus", "--stats", "--threads=2"],
    ];
    for args in runs {
        let out = tinydep().args(args).output().unwrap();
        assert!(out.status.success(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        for prefix in ["cache: ", "prefilter: ", "alloc: ", "rows: ", "time: "] {
            assert!(
                stderr.lines().any(|l| l.starts_with(prefix)),
                "{args:?}: no `{prefix}` line on stderr:\n{stderr}"
            );
        }
    }
}

#[test]
fn conflicting_flags_are_rejected() {
    let path = std::env::temp_dir().join(format!("tinydep_reject_{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cache_arg = format!("--cache-file={}", path.display());
    let mut cases: Vec<(Vec<&str>, &str)> = vec![
        (
            vec!["--no-cache", &cache_arg, "corpus:example1"],
            "--no-cache",
        ),
        (vec!["--json", "--dot", "corpus:example1"], "--dot"),
        (vec!["--serve", "--json", "--all", "--fortran"], "--json"),
    ];
    // Under `--serve` reports are chosen per request.
    for flag in "--standard --all --parallel --parallelize --storage-kills --fortran --dot \
                 --json --signs --no-cache"
        .split_whitespace()
    {
        cases.push((vec!["--serve", flag], flag));
    }
    for (args, culprit) in cases {
        let out = tinydep().args(&args).stdin(Stdio::null()).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(stderr.contains(culprit), "{args:?}: {stderr}");
    }
    assert!(!path.exists(), "a rejected run wrote the cache file");
}
