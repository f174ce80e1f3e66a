#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 ledger/run.py --workload NAME [--seed N] [--seconds S]
                          [--trace 0|1] [--quick] [--out FILE]
        One workload, one run: builds `tinydep` and the `ledger` binary
        (release, offline) into $CARGO_TARGET_DIR (default `target`),
        runs it, and passes its output through. The last line of stdout
        is the run's JSON result; `--out` also appends it, with the
        workload, seed and trace setting, to FILE as one JSON line.

    python3 ledger/run.py [--seed N] [--seconds S] [--quick] [--out FILE]
        The whole ledger: every workload, untraced and then traced. Exits
        nonzero if any output check failed. Results are appended to FILE
        (default `$CARGO_TARGET_DIR/ledger/results.jsonl`).

    python3 ledger/run.py --compare BASE NEW
        Compares two result files run by run (for instance the parent
        commit and a change, alternating, ten seeds each), with the bounds
        in BENCHMARK.json: one verdict per workload and end-to-end metric.

    python3 ledger/run.py --spread FILE
        Median and quartile spread of every metric in FILE, per workload.

Run from anywhere; paths are resolved against the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", "target")


def build():
    """Builds both binaries; returns the ledger's path. Cargo's output goes
    to stderr, so stdout carries only results."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    common = ["cargo", "build", "--release", "--offline", "--quiet"]
    for manifest, extra in ((ROOT / "Cargo.toml", ["--bin", "tinydep"]), (BENCH / "Cargo.toml", [])):
        done = subprocess.run(common + ["--manifest-path", str(manifest)] + extra,
                              cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: building {manifest} failed")
    return target_dir() / "release" / "ledger"


def run_one(ledger, workload, seed, seconds, trace, quick):
    """Runs one workload, echoing its output; returns (exit code, result)."""
    cmd = [str(ledger), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return done.returncode, result


def append(path, workload, seed, trace, result):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, **result}) + "\n")


def records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(recs, names, trace=0):
    """{workload: {metric: [values in file order]}} over runs at `trace`."""
    out = {}
    for r in recs:
        if r.get("trace", 0) != trace:
            continue
        per = out.setdefault(r["workload"], {})
        for name in names:
            if name in r["metrics"]:
                per.setdefault(name, []).append(r["metrics"][name]["value"])
    return out


def spread(path):
    bench = spec()
    recs = records(path)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        names = [m["name"] for m in bench[group]]
        rows = by_workload(recs, names, trace)
        for workload, metrics in rows.items():
            print(f"== {workload} ({group}, {len(next(iter(metrics.values())))} runs) ==")
            for name in names:
                vals = metrics.get(name)
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                rel = (q3 - q1) / abs(med) if med else 0.0
                print(f"  {name:<34} median {med:14.6g}   spread {rel:7.2%}")


def compare(base_path, new_path):
    bench = spec()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base = by_workload(records(base_path), metrics)
    new = by_workload(records(new_path), metrics)
    worst = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in base or workload not in new:
            continue
        runs = len(next(iter(base[workload].values())))
        print(f"== {workload}: {runs} base runs, "
              f"{len(next(iter(new[workload].values())))} new runs ==")
        for name, m in metrics.items():
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            verdict = judge(b, n, m["better"], m["bound"])
            worst = max(worst, verdict == "regressed")
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            ratio = nmed / bmed if bmed else float("nan")
            print(f"  {name:<18} base {bmed:12.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"new {nmed:12.6g} [{nq1:.6g}, {nq3:.6g}]  "
                  f"new/base {ratio:.4f} (base {bmed:.6g} {m['unit']})  {verdict}")
    return worst


def judge(base, new, better, bound):
    """The verdict of choosing-metrics section 8 for one metric.

    Improved: the new side wins at least nine tenths of the run pairs (in
    file order) and the medians differ by more than the base quartile
    spread. Unresolved: either side's quartile spread, as a share of the
    base median, is wider than the bound, unless every new run beats every
    base run. Regressed: the new median is worse by more than the bound.
    """
    sign = 1 if better == "lower" else -1
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > bq3 - bq1 and sign * (bmed - nmed) > 0:
        return "improved"
    if max(bq3 - bq1, nq3 - nq1) > bound * abs(bmed):
        if all(sign * (b - n) > 0 for b in base for n in new):
            return "improved"
        return "unresolved"
    if sign * (nmed - bmed) > bound * abs(bmed):
        return "regressed"
    return "unchanged"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out", type=Path)
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), type=Path)
    p.add_argument("--spread", type=Path)
    a = p.parse_args()
    if a.compare:
        sys.exit(compare(*a.compare))
    if a.spread:
        spread(a.spread)
        return
    seconds = a.seconds or spec()["run_seconds"]
    ledger = build()
    if a.workload:
        code, result = run_one(ledger, a.workload, a.seed, seconds, a.trace, a.quick)
        if a.out and result:
            append(a.out, a.workload, a.seed, a.trace, result)
        sys.exit(code)
    out = a.out or target_dir() / "ledger" / "results.jsonl"
    failed = False
    for workload in [w["name"] for w in spec()["workloads"]]:
        for trace in (0, 1):
            code, result = run_one(ledger, workload, a.seed, seconds, trace, a.quick)
            failed |= code != 0 or not result or not result["correct"]
            if result:
                append(out, workload, a.seed, trace, result)
    print(f"run.py: results appended to {out}", file=sys.stderr)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
