#!/usr/bin/env python3
"""Build and run dmw_bench, the end-to-end benchmark of served DMW auctions.

One workload, one mode (the last stdout line is the JSON result):
    python3 dmw_bench/run_benchmark.py --workload g64_stream --seed 3 \
        --seconds 30 --trace 0
Every workload, untraced then traced, with the layer tables:
    python3 dmw_bench/run_benchmark.py [--seconds T] [--out FILE]
Repeatability: median, IQR and max-min of each end-to-end metric over K
runs per workload, seeds 1..K, against the bounds in BENCHMARK.json:
    python3 dmw_bench/run_benchmark.py --sets K [--out FILE]
Smoke test (tiny counts; oracle, digest prefix and schema checked):
    python3 dmw_bench/run_benchmark.py --quick

The benchmark is compiled from the repository's sources with CMake into
--build-dir (default .bench_build/dmw_bench under the repository root).
Workload names, run length and metric lists come from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build(build_dir):
    """Configure and build (both no-ops when up to date); compiler output
    goes to stderr so stdout stays the benchmark's."""
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "dmw_bench",
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("dmw_bench: build failed: " + " ".join(step))
    return build_dir / "dmw_bench"


def run_binary(binary, workload, seed, seconds, trace, quick=False):
    """Run one workload; returns (exit code, stdout lines, result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"dmw_bench: {workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, [], None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def schema_errors(result, spec, trace):
    """What is wrong with a result line, as a list of messages."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result line lacks the keys " + ", ".join(sorted(RESULT_KEYS))]
    expected = spec["per_layer" if trace else "end_to_end"]
    errors = []
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        errors.append("failed must be a whole number")
    got = result["metrics"]
    if set(got) != {m["name"] for m in expected}:
        errors.append("metric names differ from BENCHMARK.json")
    for m in expected:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {entry.get('unit')!r}, "
                          f"BENCHMARK.json says {m['unit']!r}")
    return errors


def environment(binary_lines):
    env = {"nproc": os.cpu_count()}
    for line in binary_lines:
        if line.startswith("env: "):
            for field in line[5:].split():
                key, _, value = field.partition("=")
                env[key] = value
    # The ceiling keeps git from searching above the checkout.
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, env={**os.environ,
                                         "GIT_CEILING_DIRECTORIES":
                                         str(ROOT.parent)})
    env["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    if (os.cpu_count() or 1) < 4:
        print("warning: nproc < 4; the 3-worker pool and the driver share "
              "cores, so timings are not comparable", file=sys.stderr)
    return env


def single(args, spec, binary):
    """One workload, one mode: pass the binary's output through unchanged."""
    code, lines, result = run_binary(binary, args.workload, args.seed,
                                     args.seconds, args.trace)
    errors = schema_errors(result, spec, args.trace)
    if errors:
        print("\n".join(lines[:-1]))
        sys.exit("dmw_bench: " + "; ".join(errors))
    print("\n".join(lines))
    return code


def full(args, spec, binary):
    """Every workload: the untraced run, then the traced pass."""
    merged, ok, env = {}, True, {}
    for workload in (w["name"] for w in spec["workloads"]):
        merged[workload] = {}
        for trace in (0, 1):
            code, lines, result = run_binary(binary, workload, args.seed,
                                             args.seconds, trace, args.quick)
            print(f"== {workload} trace={trace} seed={args.seed} ==")
            print("\n".join(lines[:-1]))
            env = env or environment(lines)
            errors = schema_errors(result, spec, trace)
            if code != 0 or errors or not result["correct"]:
                ok = False
                print(f"FAILED: exit {code}; " + "; ".join(errors))
            merged[workload]["end_to_end" if trace == 0 else "per_layer"] = \
                result
    out = Path(args.out) if args.out else args.build_dir / "latest.json"
    out.write_text(json.dumps({"env": env, "seed": args.seed,
                               "seconds": args.seconds,
                               "workloads": merged}, indent=1) + "\n")
    print(f"{'all checks passed' if ok else 'CHECKS FAILED'}; wrote {out}")
    return 0 if ok else 1


def spread(values):
    """(median, IQR / median, (max - min) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0, \
        (max(values) - min(values)) / med if med else 0.0


def sets(args, spec, binary):
    """K untraced runs per workload; spreads against the bounds."""
    metrics = spec["end_to_end"]
    table, ok, env = {}, True, {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in metrics}
        for seed in range(1, args.sets + 1):
            code, lines, result = run_binary(binary, workload, seed,
                                             args.seconds, 0)
            env = env or environment(lines)
            if code != 0 or schema_errors(result, spec, 0):
                ok = False
                print(f"FAILED: {workload} seed {seed} exit {code}")
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        table[workload] = {}
        print(f"== {workload}: {args.sets} runs, seeds 1..{args.sets} ==")
        for m in metrics:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            med, iqr, full_range = spread(vals)
            table[workload][m["name"]] = {"median": med, "iqr": iqr,
                                          "range": full_range,
                                          "values": vals}
            flag = "" if iqr <= m["bound"] / 3 else "  <-- IQR above bound/3"
            print(f"  {m['name']:<24} median {med:<12.6g} {m['unit']:<5} "
                  f"IQR {iqr:7.2%}  max-min {full_range:7.2%}  "
                  f"bound {m['bound']:.0%}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": env, "seconds": args.seconds, "sets": args.sets,
             "spreads": table}, indent=1) + "\n")
    return 0 if ok else 1


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--build-dir", type=Path,
                        default=ROOT / ".bench_build" / "dmw_bench")
    args = parser.parse_args()
    if args.quick:
        args.seconds = 1
    binary = build(args.build_dir)
    if args.workload:
        return single(args, spec, binary)
    if args.sets:
        return sets(args, spec, binary)
    return full(args, spec, binary)


if __name__ == "__main__":
    sys.exit(main())
