//! Every workload in `--quick` mode, untraced and traced: each metric
//! BENCHMARK.json names is printed with its unit and a finite value, every
//! output check passes, and the trace's spans are well formed.
//!
//! Run with `cargo test --release --manifest-path ledger/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use omega_repro::json::{self, Json};

const WORKLOADS: [&str; 4] = ["corpus_cold", "corpus_warm", "synth_mt", "serve_mixed"];

fn ledger() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_ledger"))
}

/// The `tinydep` binary beside the ledger, built there when missing.
fn tinydep() -> PathBuf {
    let beside = ledger().with_file_name("tinydep");
    if beside.is_file() {
        return beside;
    }
    let target = ledger()
        .parent()
        .and_then(Path::parent)
        .expect("the ledger sits in target/<profile>")
        .to_path_buf();
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--bin", "tinydep"])
        .arg("--manifest-path")
        .arg(manifest)
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building tinydep failed");
    target.join("release").join("tinydep")
}

/// `(name, unit)` of every metric in one group of BENCHMARK.json. The
/// file is written one metric per line, so a scan suffices.
fn benchmark_metrics(group: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{group}\""))
        .expect("the group is present");
    let section = &text[start..start + text[start..].find(']').expect("the group's list ends")];
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    section
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

/// The value printed for `name` with `unit` in the JSON result line.
fn value(result: &str, name: &str, unit: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = result.find(&key)? + key.len();
    let rest = &result[at..];
    let (number, tail) = rest.split_at(rest.find(',')?);
    if !tail.starts_with(&format!(", \"unit\": \"{unit}\"}}")) {
        return None;
    }
    number.parse().ok()
}

fn check_trace(path: &Path) {
    let text = std::fs::read_to_string(path).expect("the trace was written");
    let spans: Vec<Json> = text
        .lines()
        .map(|l| json::parse(l).expect("each trace line is JSON"))
        .collect();
    assert!(!spans.is_empty(), "{} is empty", path.display());
    let int = |s: &Json, key: &str| s.get(key).and_then(Json::as_i64).expect(key);
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(int(s, "id"), i as i64);
        let (start, end) = (int(s, "start_ns"), int(s, "end_ns"));
        assert!(start <= end, "span {i} ends before it starts");
        let own = int(s, "self_ns");
        assert!(
            (0..=end - start).contains(&own),
            "span {i}: self time {own} outside its duration"
        );
        match s.get("parent") {
            Some(Json::Null) => {}
            Some(Json::Num(p)) => {
                let parent = spans
                    .get(usize::try_from(*p).expect("parent ids are indices"))
                    .unwrap_or_else(|| panic!("span {i}: parent {p} does not resolve"));
                assert!(*p < i as i64, "span {i}: parent {p} opened later");
                assert_eq!(int(parent, "run"), int(s, "run"));
                assert!(int(parent, "start_ns") <= start && end <= int(parent, "end_ns"));
            }
            other => panic!("span {i}: bad parent {other:?}"),
        }
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let tinydep = tinydep();
    for (trace, group) in [(0, "end_to_end"), (1, "per_layer")] {
        let metrics = benchmark_metrics(group);
        assert!(!metrics.is_empty(), "no {group} metrics found");
        for workload in WORKLOADS {
            let out = Command::new(ledger())
                .args([
                    "--workload",
                    workload,
                    "--quick",
                    "--trace",
                    &trace.to_string(),
                ])
                .arg("--tinydep")
                .arg(&tinydep)
                .output()
                .expect("the ledger runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = stdout.lines().last().expect("a result line");
            assert!(result.starts_with("{\"correct\": true, "), "{result}");
            assert!(result.contains("\"failed\": 0, "), "{result}");
            for (name, unit) in &metrics {
                let v = value(result, name, unit)
                    .unwrap_or_else(|| panic!("{workload}: no {name} in {unit}: {result}"));
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                let printed = stdout.lines().any(|l| {
                    let words: Vec<&str> = l.split_whitespace().collect();
                    words.len() == 3 && words[0] == name && words[2] == unit
                });
                assert!(printed, "{workload}: {name} not printed with its unit");
            }
            if trace == 1 {
                let dir = ledger()
                    .parent()
                    .and_then(Path::parent)
                    .expect("target dir")
                    .join("ledger");
                check_trace(&dir.join(format!("trace-{workload}.jsonl")));
            }
        }
    }
}
