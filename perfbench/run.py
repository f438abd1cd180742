#!/usr/bin/env python3
"""Build and run the FlowTime benchmark.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the benchmark package and the `flowtimed` binary from source
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs one workload.
The last line of standard output is the JSON result.

Steadiness mode:

    python3 perfbench/run.py steady --workload NAME

runs one workload untraced ten times, with seeds 1 to 10 and the run length
BENCHMARK.json gives, and prints for each end-to-end metric its median,
quartiles and spread (quartile distance over median) next to its bound,
with every run's host steal time and load average so a disturbed run can
be recognised.

Run from the repository root.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build():
    """Builds both binaries; returns (perfbench, flowtimed) paths."""
    for needed in ("Cargo.toml", "crates/daemon/Cargo.toml", "crates/sim/Cargo.toml"):
        if not (ROOT / needed).is_file():
            sys.exit(f"perfbench: {needed} is missing; run from a full checkout")
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    quiet = ["cargo", "build", "--release", "--offline", "--quiet"]
    steps = [
        quiet + ["--manifest-path", str(HERE / "Cargo.toml")],
        quiet + ["--manifest-path", str(ROOT / "Cargo.toml"),
                 "-p", "flowtime-daemon", "--bin", "flowtimed"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    return target / "release" / "perfbench", target / "release" / "flowtimed"


def run_once(args):
    bench, daemon = build()
    cmd = [str(bench), *args, "--daemon", str(daemon),
           "--out-dir", str(ROOT / ".perfbench-out")]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


STEADY_SEEDS = range(1, 11)


def steady(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) != 2 or argv[0] != "--workload":
        sys.exit("usage: run.py steady --workload NAME")
    workload = argv[1]
    seconds = str(spec["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, shares = {}, []
    for seed in STEADY_SEEDS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
            sys.exit(f"steady: seed {seed} failed with code {proc.returncode}")
        result = json.loads(lines[-1])
        host = next((l[2:] for l in lines if l.startswith("# host:")), "")
        shares.append(result["failed"] / result["attempted"])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} | {host}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"\n{workload}: {len(STEADY_SEEDS)} runs, failed share {sorted(set(shares))}")
    print(f"{'metric':<32}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        mark = "" if spread <= bound / 3 else "  <-- above a third of its bound"
        print(f"{name:<32}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{bound:>8}{mark}")


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["steady"]:
        steady(argv[1:])
    else:
        run_once(argv)


if __name__ == "__main__":
    main()
