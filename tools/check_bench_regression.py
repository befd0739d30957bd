#!/usr/bin/env python3
"""Compare a fresh bench JSON run against the checked-in baseline.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json [--tolerance 0.25]
                              [--keys commit_ns,multiexp_ns] [--require-floors]
    check_bench_regression.py --self-test FIXTURE_DIR

Dispatches on the top-level "bench" tag each emitter writes:

  "commit"       (bench_json)        per-backend hot-path timings: a fresh
                                     value may exceed the baseline by at most
                                     `tolerance` (fractional). Only slower
                                     fails — the baseline is a ratchet,
                                     refreshed by checking in a new
                                     BENCH_commit.json when an optimization
                                     lands. The baseline may carry an
                                     absolute_floors block gating the lane-
                                     engine speedups (pow_batch_speedup);
                                     those floors bind only when the fresh
                                     run's simd.backend is a real vector
                                     kernel — a host whose runtime dispatch
                                     resolved to "scalar" measures ~1.0x for
                                     every lane speedup by design, so its
                                     floors are skipped (and printed as
                                     skipped), exactly like the one-core
                                     skip for parallel scaling floors.
  "parallel"     (bench_parallel)    correctness booleans must be exactly
                                     true (all_outcomes_match and every
                                     per-run outcome_match); the dimensionless
                                     per-run speedups may fall below baseline
                                     by at most `tolerance`. Speedup floors
                                     are only enforced when the machine that
                                     produced the fresh run reports
                                     hardware_concurrency >= 4 — a 1-core
                                     runner measures ~1.0x for every thread
                                     count, so its floors would say nothing
                                     (identity booleans are always gated).
                                     Raw seconds are NOT compared — they
                                     measure the runner, not the code.
  "batchverify"  (bench_batchverify) same rule: all_outcomes_match and
                                     abort_streams_match exactly true, the
                                     per-stage and total speedups gated
                                     against baseline - tolerance.
  "runreport"    (dmw_sim            honest-run metric invariants must hold
                  --metrics-out)     exactly (no abort, zero aborts/*
                                     counters, zero batch-verification
                                     replays, zero dropped trace events);
                                     per-phase op-count totals and per-span
                                     occurrence counts must equal the
                                     baseline exactly (they are functions of
                                     the protocol, not the machine); each
                                     phase's share of total wall time may
                                     drift from baseline by at most
                                     `tolerance` (absolute, only for phases
                                     with a baseline share >= 5%).
  "comm"         (bench_table1_comm) Table-1 communication-ledger gates:
                                     every per-sweep-point total and every
                                     per-kind ledger cell is a machine-
                                     independent function of (n, m, sigma),
                                     so fresh must equal baseline exactly,
                                     and the fresh run's own measured-vs-
                                     closed-form conformance flags must all
                                     be true. `tolerance` is ignored —
                                     nothing in this schema is allowed to
                                     drift. Fit exponents are reported, not
                                     gated (they are derived from the counts
                                     through libm and may wobble in the last
                                     digits across platforms).
  "serve"        (dmw_serve          streaming-marketplace gates: zero
                  --report-out)      aborted auctions, zero one-shot identity
                                     mismatches (when the run checked them;
                                     a fresh run may not check less than the
                                     baseline did), zero steady-state arena
                                     slab allocations — all exact — plus
                                     throughput >= baseline*(1-tolerance) and
                                     p50/p95/p99 latency <=
                                     baseline*(1+tolerance). max latency is
                                     reported, not gated (a single scheduler
                                     hiccup on a shared runner would flake).

A "parallel", "serve" or "commit" baseline may additionally carry an
"absolute_floors" object (hand-added when checking in the baseline, not
emitted by the bench):

    "absolute_floors": {
        "min_hardware_concurrency": 4,
        "floors": [{"m": 128, "threads": 4, "min_speedup": 1.25}]          # parallel
        "floors": [{"metric": "throughput_per_s", "min": 50.0},
                   {"metric": "latency_ms.p99", "max": 40.0}]              # serve
        "floors": [{"metric": "group64.pow_batch_speedup", "min": 1.5}]    # commit
    }

Every schema shares one bind/skip contract (check_absolute_floors):
  - block absent                        -> nothing checked, silently (optional)
  - block present under a schema that
    does not support it                 -> exit 3 (schema error, not silence)
  - block malformed                     -> exit 3
  - fresh hardware_concurrency below
    min_hardware_concurrency            -> floors SKIPPED, printed as such
  - commit schema only: fresh
    simd.backend == "scalar"            -> floors SKIPPED, printed as such
  - otherwise                           -> every floor binds on the fresh run

--require-floors turns "every hardware-gated floor was skipped" into a
regression (exit 1). The CI scaling-baseline step runs with it on >=4-core
runners, so the checked-in floors can never silently rot back into the
never-binding state this flag was added to close out.

--self-test FIXTURE_DIR runs the fixture suite: FIXTURE_DIR/cases.json lists
{baseline, fresh, args, expect_exit} cases executed against the fixture
JSONs in a subprocess each; the suite fails on the first mismatch.

Exit status: 0 within tolerance, 1 regression(s), 2 usage error,
3 schema/input error (malformed JSON, missing keys, mismatched schemas) —
distinct so CI can tell "the code got slower" from "the harness is broken".
Needs only the Python standard library.
"""

import argparse
import json
import os
import subprocess
import sys

DEFAULT_KEYS = ("commit_ns", "multiexp_ns")
BACKENDS = ("group64", "group256")

# Schemas whose baselines may carry an absolute_floors block. Anywhere else
# the block is a schema error — silently ignoring it (the old behaviour for
# non-parallel schemas) meant a misplaced gate never gated anything.
FLOOR_SCHEMAS = ("parallel", "serve", "commit")


# Schema/input problems exit 3, distinct from 1 (genuine regression) and 2
# (argparse usage error): a missing key means the harness or an emitter
# changed, not that the code got slower.
SCHEMA_ERROR_EXIT = 3


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        print(f"check_bench_regression: cannot load {path}: {error}",
              file=sys.stderr)
        sys.exit(SCHEMA_ERROR_EXIT)


def schema_error(message):
    print(f"check_bench_regression: {message}", file=sys.stderr)
    sys.exit(SCHEMA_ERROR_EXIT)


def check_commit(baseline, fresh, keys, tolerance):
    """Per-backend timing ratchet for BENCH_commit.json."""
    regressions = 0
    compared = 0
    for backend in BACKENDS:
        base_be = baseline.get(backend)
        fresh_be = fresh.get(backend)
        if not isinstance(base_be, dict) or not isinstance(fresh_be, dict):
            schema_error(f"backend '{backend}' missing from one of the inputs")
        for key in keys:
            if key not in base_be or key not in fresh_be:
                schema_error(f"key '{key}' missing under '{backend}'")
            base_ns = float(base_be[key])
            fresh_ns = float(fresh_be[key])
            if base_ns <= 0:
                schema_error(f"non-positive baseline for {backend}.{key}")
            ratio = fresh_ns / base_ns
            compared += 1
            verdict = "ok"
            if ratio > 1.0 + tolerance:
                verdict = "REGRESSION"
                regressions += 1
            elif ratio < 1.0 - tolerance:
                verdict = "faster (consider refreshing the baseline)"
            print(f"{backend}.{key}: baseline {base_ns:.1f} ns, "
                  f"fresh {fresh_ns:.1f} ns, ratio {ratio:.3f} [{verdict}]")

    # Absolute floors (hand-added to the baseline): lane-engine speedup
    # gates like group64.pow_batch_speedup. They bind only when the fresh
    # machine actually dispatched a vector kernel — with runtime dispatch
    # resolved to "scalar", SimdMode::kAuto degenerates to the scalar
    # ladder and every lane speedup is honestly ~1.0x, so gating it would
    # measure the runner's ISA, not the code.
    if "absolute_floors" not in baseline:
        return compared, regressions, 0
    fresh_hw = hardware_concurrency(fresh, "fresh", "commit")
    sim_backend = dig(fresh, "simd.backend")
    if not isinstance(sim_backend, str) or not sim_backend:
        schema_error("commit baseline carries absolute_floors but the fresh "
                     "run records no simd.backend; re-run bench_json (schema "
                     ">= 2) to say which lane kernel measured it")
    if sim_backend == "scalar":
        print("absolute floors SKIPPED: fresh machine dispatches the scalar "
              "lane backend (no vector unit — lane speedups are ~1.0x there "
              "by design)")
        return compared, regressions, 0

    def resolve(entry):
        metric = entry.get("metric")
        min_v = entry.get("min")
        if not isinstance(metric, str) or \
                not isinstance(min_v, (int, float)) or \
                isinstance(min_v, bool):
            schema_error(f"malformed absolute floor entry {entry!r} (need "
                         f"'metric' plus 'min')")
        value = dig(fresh, metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            schema_error(f"absolute floor metric '{metric}' not found in "
                         f"fresh commit bench")
        return metric, float(value), float(min_v), "min"

    floor_compared, floor_regressions, floors_bound = check_absolute_floors(
        baseline, fresh_hw, resolve)
    return (compared + floor_compared, regressions + floor_regressions,
            floors_bound)


def check_bools(fresh, paths):
    """Correctness booleans that must be exactly true in the fresh run."""
    failures = 0
    for label, value in paths:
        if value is not True:
            print(f"{label}: expected true, got {value!r} [REGRESSION]")
            failures += 1
        else:
            print(f"{label}: true [ok]")
    return len(paths), failures


def check_speedup(label, base_value, fresh_value, tolerance):
    """Dimensionless speedup gate: fresh >= baseline * (1 - tolerance)."""
    base = float(base_value)
    fresh_v = float(fresh_value)
    if base <= 0:
        schema_error(f"non-positive baseline speedup for {label}")
    floor = base * (1.0 - tolerance)
    verdict = "ok" if fresh_v >= floor else "REGRESSION"
    print(f"{label}: baseline {base:.3f}x, fresh {fresh_v:.3f}x, "
          f"floor {floor:.3f}x [{verdict}]")
    return 0 if fresh_v >= floor else 1


def hardware_concurrency(doc, name, schema):
    """Schema check: a floor-bearing bench must say what machine measured it."""
    hw = doc.get("hardware_concurrency")
    if not isinstance(hw, int) or isinstance(hw, bool) or hw < 1:
        schema_error(f"{name} {schema} bench has no valid "
                     f"hardware_concurrency (got {hw!r}); re-run the bench "
                     f"to record the measuring machine")
    return hw


def check_absolute_floors(baseline, fresh_hw, resolve):
    """The one bind/skip implementation for the optional absolute_floors block.

    `resolve(entry)` maps a schema-specific floor entry to
    (label, fresh_value, bound, kind) with kind "min" (fresh >= bound) or
    "max" (fresh <= bound); it calls schema_error itself for malformed or
    unresolvable entries. Returns (compared, regressions, bound_count) where
    bound_count is how many floors actually bound (0 when skipped or absent).
    """
    floors_doc = baseline.get("absolute_floors")
    if floors_doc is None:
        return 0, 0, 0
    if not isinstance(floors_doc, dict):
        schema_error("absolute_floors must be an object")
    min_hw = floors_doc.get("min_hardware_concurrency")
    if not isinstance(min_hw, int) or isinstance(min_hw, bool) or min_hw < 1:
        schema_error(f"absolute_floors.min_hardware_concurrency invalid "
                     f"(got {min_hw!r})")
    floors = floors_doc.get("floors")
    if not isinstance(floors, list) or not floors:
        schema_error("absolute_floors.floors must be a non-empty list")
    if fresh_hw < min_hw:
        print(f"absolute floors SKIPPED: fresh machine has "
              f"hardware_concurrency={fresh_hw} < required {min_hw}")
        return 0, 0, 0
    compared = 0
    regressions = 0
    for entry in floors:
        label, fresh_v, bound, kind = resolve(entry)
        compared += 1
        holds = fresh_v >= bound if kind == "min" else fresh_v <= bound
        word = "floor" if kind == "min" else "ceiling"
        verdict = "ok" if holds else "REGRESSION"
        print(f"{label} absolute {word}: fresh {fresh_v:.3f}, "
              f"{word} {bound:.3f} [{verdict}]")
        if not holds:
            regressions += 1
    return compared, regressions, compared


def check_parallel(baseline, fresh, tolerance):
    """Outcome booleans + per-(m, threads) speedup floor for bench_parallel."""
    base_hw = hardware_concurrency(baseline, "baseline", "parallel")
    fresh_hw = hardware_concurrency(fresh, "fresh", "parallel")
    gate_speedups = fresh_hw >= 4
    if not gate_speedups:
        print(f"speedup floors SKIPPED: fresh run measured on a machine with "
              f"hardware_concurrency={fresh_hw} (< 4 cores — every "
              f"multi-thread speedup is ~1.0x there and gating it would "
              f"only measure the runner); identity checks still apply")
    elif base_hw < 4:
        print(f"note: baseline was collected on hardware_concurrency="
              f"{base_hw}; its ~1.0x floors are weak until the baseline is "
              f"regenerated on a multi-core machine")

    compared, regressions = check_bools(
        fresh, [("all_outcomes_match", fresh.get("all_outcomes_match"))])
    floors_bound = 0

    def runs_by_key(doc):
        table = {}
        for config in doc.get("configs", []):
            for run in config.get("runs", []):
                table[(config.get("m"), run.get("threads"))] = run
        return table

    base_runs = runs_by_key(baseline)
    fresh_runs = runs_by_key(fresh)
    if not base_runs or not fresh_runs:
        schema_error("no configs/runs in one of the parallel inputs")
    for key in sorted(base_runs):
        if key not in fresh_runs:
            schema_error(f"run m={key[0]} threads={key[1]} missing from fresh")
        run = fresh_runs[key]
        compared += 1
        if run.get("outcome_match") is not True:
            print(f"m={key[0]} threads={key[1]}: outcome_match "
                  f"{run.get('outcome_match')!r} [REGRESSION]")
            regressions += 1
        if gate_speedups:
            compared += 1
            floors_bound += 1
            regressions += check_speedup(
                f"m={key[0]} threads={key[1]} speedup",
                base_runs[key].get("speedup"), run.get("speedup"), tolerance)

    # Absolute floors: hand-added to the baseline so a small-machine
    # baseline (every relative floor ~1.0x) still binds on multi-core CI.
    def resolve(entry):
        key = (entry.get("m"), entry.get("threads"))
        min_speedup = entry.get("min_speedup")
        if key[0] is None or key[1] is None or \
                not isinstance(min_speedup, (int, float)) or \
                isinstance(min_speedup, bool):
            schema_error(f"malformed absolute floor entry {entry!r}")
        if key not in fresh_runs:
            schema_error(f"absolute floor m={key[0]} threads={key[1]} has "
                         f"no fresh run")
        fresh_v = float(fresh_runs[key].get("speedup", 0.0))
        return (f"m={key[0]} threads={key[1]} speedup", fresh_v,
                float(min_speedup), "min")

    floor_compared, floor_regressions, floor_bound = check_absolute_floors(
        baseline, fresh_hw, resolve)
    return (compared + floor_compared, regressions + floor_regressions,
            floors_bound + floor_bound)


def check_batchverify(baseline, fresh, tolerance):
    """Outcome booleans + per-stage speedup floor for bench_batchverify."""
    compared, regressions = check_bools(
        fresh, [("all_outcomes_match", fresh.get("all_outcomes_match")),
                ("abort_streams_match", fresh.get("abort_streams_match"))])

    def stages_by_name(doc):
        return {s.get("stage"): s for s in doc.get("stages", [])}

    base_stages = stages_by_name(baseline)
    fresh_stages = stages_by_name(fresh)
    if not base_stages or not fresh_stages:
        schema_error("no stages in one of the batchverify inputs")
    for name in sorted(base_stages):
        if name not in fresh_stages:
            schema_error(f"stage '{name}' missing from fresh")
        compared += 1
        regressions += check_speedup(
            f"stage {name} speedup", base_stages[name].get("speedup"),
            fresh_stages[name].get("speedup"), tolerance)
    base_total = baseline.get("total", {})
    fresh_total = fresh.get("total", {})
    if "speedup" not in base_total or "speedup" not in fresh_total:
        schema_error("total.speedup missing from one of the inputs")
    compared += 1
    regressions += check_speedup("total speedup", base_total["speedup"],
                                 fresh_total["speedup"], tolerance)
    return compared, regressions, 0


def check_runreport(baseline, fresh, tolerance):
    """Honest-run invariants + phase wall-time shares for RunReport JSONs."""
    if baseline.get("label") != fresh.get("label"):
        schema_error(f"runreport label mismatch: baseline "
                     f"{baseline.get('label')!r} vs fresh "
                     f"{fresh.get('label')!r} (different run configuration?)")
    compared = 0
    regressions = 0

    # Invariants of an honest run: these hold exactly or something is wrong
    # with the protocol (or the tracer), independent of machine speed.
    invariants = [("aborted", fresh.get("aborted"), False),
                  ("events_dropped", fresh.get("events_dropped"), 0)]
    counters = fresh.get("metrics", {}).get("counters", {})
    for name in sorted(counters):
        if name.startswith("aborts/") or name == "batchverify/replays":
            invariants.append((f"counter {name}", counters[name], 0))
    for label, value, expected in invariants:
        compared += 1
        if value != expected:
            print(f"{label}: expected {expected!r}, got {value!r} "
                  f"[REGRESSION]")
            regressions += 1
        else:
            print(f"{label}: {expected!r} [ok]")

    # Per-phase op-count totals: pure functions of (params, seed), so they
    # must match the baseline bit for bit.
    def phases_by_name(doc):
        return {p.get("phase"): p for p in doc.get("phases", [])}

    base_phases = phases_by_name(baseline)
    fresh_phases = phases_by_name(fresh)
    if not base_phases or set(base_phases) != set(fresh_phases):
        schema_error("phase sets differ between baseline and fresh")
    for name in sorted(base_phases):
        base_total = base_phases[name].get("ops", {}).get("total")
        fresh_total = fresh_phases[name].get("ops", {}).get("total")
        compared += 1
        if base_total != fresh_total:
            print(f"phase {name} ops.total: baseline {base_total}, fresh "
                  f"{fresh_total} [REGRESSION]")
            regressions += 1
        else:
            print(f"phase {name} ops.total: {fresh_total} [ok]")

    # Span occurrence counts: same determinism argument.
    def span_counts(doc):
        return {s.get("name"): s.get("count") for s in doc.get("spans", [])}

    base_spans = span_counts(baseline)
    fresh_spans = span_counts(fresh)
    if set(base_spans) != set(fresh_spans):
        schema_error(f"span sets differ: baseline-only "
                     f"{sorted(set(base_spans) - set(fresh_spans))}, "
                     f"fresh-only {sorted(set(fresh_spans) - set(base_spans))}")
    for name in sorted(base_spans):
        compared += 1
        if base_spans[name] != fresh_spans[name]:
            print(f"span {name} count: baseline {base_spans[name]}, fresh "
                  f"{fresh_spans[name]} [REGRESSION]")
            regressions += 1
        else:
            print(f"span {name} count: {fresh_spans[name]} [ok]")

    # Wall-time *shares* (not raw seconds — those measure the runner). Only
    # phases that mattered in the baseline (share >= 5%) are gated, with an
    # absolute drift bound of `tolerance`.
    def shares(doc):
        total = sum(float(p.get("wall_ns", 0)) for p in doc.get("phases", []))
        if total <= 0:
            schema_error("non-positive total wall_ns in a runreport input")
        return {p["phase"]: float(p.get("wall_ns", 0)) / total
                for p in doc.get("phases", [])}

    base_shares = shares(baseline)
    fresh_shares = shares(fresh)
    for name in sorted(base_shares):
        if base_shares[name] < 0.05:
            continue
        compared += 1
        drift = abs(fresh_shares[name] - base_shares[name])
        verdict = "ok" if drift <= tolerance else "REGRESSION"
        print(f"phase {name} wall share: baseline {base_shares[name]:.3f}, "
              f"fresh {fresh_shares[name]:.3f}, drift {drift:.3f} [{verdict}]")
        if drift > tolerance:
            regressions += 1
    return compared, regressions, 0


def dig(doc, dotted):
    """Navigate a dotted path ("latency_ms.p99") through nested dicts."""
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_serve(baseline, fresh, tolerance):
    """Streaming-marketplace gates for dmw_serve serve-reports."""
    # The report only compares apples to apples: the whole run configuration
    # is part of the identity, not something to drift past silently.
    for key in ("label", "n", "m", "c", "auctions", "warmup", "workload",
                "arrivals", "threads"):
        if baseline.get(key) != fresh.get(key):
            schema_error(f"serve config mismatch on '{key}': baseline "
                         f"{baseline.get(key)!r} vs fresh {fresh.get(key)!r}")
    fresh_hw = hardware_concurrency(fresh, "fresh", "serve")

    compared = 0
    regressions = 0

    # Exact gates: a streaming marketplace that aborts honest auctions,
    # diverges from the one-shot engine, or allocates arena slabs in steady
    # state is broken regardless of how fast it is.
    exact = [("aborted_auctions", fresh.get("aborted_auctions"), 0),
             ("arena.steady_state_slab_allocations",
              dig(fresh, "arena.steady_state_slab_allocations"), 0)]
    if baseline.get("checked_oneshot") and not fresh.get("checked_oneshot"):
        schema_error("baseline checked one-shot identity but fresh run did "
                     "not (--check-oneshot missing?)")
    if fresh.get("checked_oneshot"):
        exact.append(("oneshot_mismatches", fresh.get("oneshot_mismatches"),
                      0))
    for label, value, expected in exact:
        compared += 1
        if value != expected:
            print(f"{label}: expected {expected!r}, got {value!r} "
                  f"[REGRESSION]")
            regressions += 1
        else:
            print(f"{label}: {expected!r} [ok]")

    # Throughput ratchet (higher is better).
    base_tp = baseline.get("throughput_per_s")
    fresh_tp = fresh.get("throughput_per_s")
    if not isinstance(base_tp, (int, float)) or base_tp <= 0 or \
            not isinstance(fresh_tp, (int, float)):
        schema_error("throughput_per_s missing or non-positive")
    floor = float(base_tp) * (1.0 - tolerance)
    compared += 1
    verdict = "ok" if fresh_tp >= floor else "REGRESSION"
    print(f"throughput_per_s: baseline {base_tp:.1f}, fresh {fresh_tp:.1f}, "
          f"floor {floor:.1f} [{verdict}]")
    if fresh_tp < floor:
        regressions += 1

    # Latency percentile ceilings (lower is better). max is printed but not
    # gated — one scheduler hiccup on a shared runner would flake the job.
    for pct in ("p50", "p95", "p99"):
        base_ms = dig(baseline, f"latency_ms.{pct}")
        fresh_ms = dig(fresh, f"latency_ms.{pct}")
        if not isinstance(base_ms, (int, float)) or base_ms <= 0 or \
                not isinstance(fresh_ms, (int, float)):
            schema_error(f"latency_ms.{pct} missing or non-positive")
        ceiling = float(base_ms) * (1.0 + tolerance)
        compared += 1
        verdict = "ok" if fresh_ms <= ceiling else "REGRESSION"
        print(f"latency_ms.{pct}: baseline {base_ms:.3f}, fresh "
              f"{fresh_ms:.3f}, ceiling {ceiling:.3f} [{verdict}]")
        if fresh_ms > ceiling:
            regressions += 1
    base_max = dig(baseline, "latency_ms.max")
    fresh_max = dig(fresh, "latency_ms.max")
    print(f"latency_ms.max: baseline {base_max}, fresh {fresh_max} "
          f"[reported, not gated]")

    # Absolute floors/ceilings, same bind/skip contract as parallel.
    def resolve(entry):
        metric = entry.get("metric")
        has_min = isinstance(entry.get("min"), (int, float)) and \
            not isinstance(entry.get("min"), bool)
        has_max = isinstance(entry.get("max"), (int, float)) and \
            not isinstance(entry.get("max"), bool)
        if not isinstance(metric, str) or has_min == has_max:
            schema_error(f"malformed absolute floor entry {entry!r} (need "
                         f"'metric' plus exactly one of 'min'/'max')")
        value = dig(fresh, metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            schema_error(f"absolute floor metric '{metric}' not found in "
                         f"fresh serve report")
        bound = entry["min"] if has_min else entry["max"]
        return (metric, float(value), float(bound),
                "min" if has_min else "max")

    floor_compared, floor_regressions, floors_bound = check_absolute_floors(
        baseline, fresh_hw, resolve)
    return (compared + floor_compared, regressions + floor_regressions,
            floors_bound)


def check_comm(baseline, fresh, tolerance):
    """Exact-equality gates for the Table-1 communication-ledger bench."""
    del tolerance  # counts are machine-independent; nothing may drift
    for key in ("group", "c", "encrypt_channels", "quick", "m_fixed",
                "n_fixed"):
        if baseline.get(key) != fresh.get(key):
            schema_error(f"comm config mismatch on '{key}': baseline "
                         f"{baseline.get(key)!r} vs fresh {fresh.get(key)!r}")

    compared = 0
    regressions = 0
    kind_fields = ("messages", "wire_bytes", "p2p_messages", "p2p_bytes")
    for sweep in ("sweep_n", "sweep_m"):
        base_points = {(p.get("n"), p.get("m")): p
                       for p in baseline.get(sweep, [])}
        fresh_points = {(p.get("n"), p.get("m")): p
                        for p in fresh.get(sweep, [])}
        if not base_points or set(base_points) != set(fresh_points):
            schema_error(f"{sweep} point sets differ between baseline and "
                         f"fresh")
        for n, m in sorted(base_points):
            bp = base_points[(n, m)]
            fp = fresh_points[(n, m)]
            point_regressions = 0

            for field in ("dmw_messages", "dmw_bytes", "mw_messages",
                          "mw_bytes"):
                compared += 1
                if bp.get(field) != fp.get(field):
                    print(f"{sweep} n={n} m={m} {field}: baseline "
                          f"{bp.get(field)}, fresh {fp.get(field)} "
                          f"[REGRESSION]")
                    point_regressions += 1

            base_kinds = {k.get("kind"): k for k in bp.get("kinds", [])}
            fresh_kinds = {k.get("kind"): k for k in fp.get("kinds", [])}
            if not base_kinds or set(base_kinds) != set(fresh_kinds):
                schema_error(f"{sweep} n={n} m={m}: ledger kind sets differ "
                             f"between baseline and fresh")
            for kind in sorted(base_kinds):
                for field in kind_fields:
                    compared += 1
                    if base_kinds[kind].get(field) != \
                            fresh_kinds[kind].get(field):
                        print(f"{sweep} n={n} m={m} kind {kind} {field}: "
                              f"baseline {base_kinds[kind].get(field)}, "
                              f"fresh {fresh_kinds[kind].get(field)} "
                              f"[REGRESSION]")
                        point_regressions += 1
                # The fresh run's own measured-vs-closed-form verdict: a
                # ledger that stopped matching Theorem 11's bookkeeping is a
                # regression even if it matches a (stale) baseline.
                compared += 1
                if fresh_kinds[kind].get("conforms") is not True:
                    print(f"{sweep} n={n} m={m} kind {kind}: fresh ledger "
                          f"drifted from the closed form [REGRESSION]")
                    point_regressions += 1
            compared += 1
            if fp.get("conforms") is not True:
                print(f"{sweep} n={n} m={m}: fresh conforms flag is "
                      f"{fp.get('conforms')!r} [REGRESSION]")
                point_regressions += 1
            if point_regressions == 0:
                print(f"{sweep} n={n} m={m}: totals and "
                      f"{len(base_kinds)} ledger kind(s) exact [ok]")
            regressions += point_regressions

    compared += 1
    if fresh.get("all_conform") is not True:
        print(f"all_conform: expected True, got "
              f"{fresh.get('all_conform')!r} [REGRESSION]")
        regressions += 1
    else:
        print("all_conform: True [ok]")
    for name, value in sorted((fresh.get("fits") or {}).items()):
        print(f"fit {name}: {value} (reported, not gated)")
    return compared, regressions, 0


def self_test(fixture_dir):
    """Run the fixture suite: cases.json drives subprocess invocations."""
    manifest_path = os.path.join(fixture_dir, "cases.json")
    manifest = load(manifest_path)
    cases = manifest.get("cases")
    if not isinstance(cases, list) or not cases:
        schema_error(f"{manifest_path} has no cases")
    failures = 0
    for case in cases:
        name = case.get("name", "?")
        argv = [sys.executable, os.path.abspath(__file__),
                os.path.join(fixture_dir, case["baseline"]),
                os.path.join(fixture_dir, case["fresh"])]
        argv += case.get("args", [])
        expect = case.get("expect_exit")
        result = subprocess.run(argv, capture_output=True, text=True,
                                check=False)
        if result.returncode != expect:
            failures += 1
            print(f"[self-test] {name}: expected exit {expect}, got "
                  f"{result.returncode} [FAIL]")
            sys.stdout.write(result.stdout)
            sys.stderr.write(result.stderr)
        else:
            print(f"[self-test] {name}: exit {result.returncode} [ok]")
    print(f"[self-test] {len(cases)} case(s), {failures} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description="fail when bench results regress past a tolerance")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("fresh", nargs="?")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slack (default 0.25)")
    parser.add_argument("--keys", default=",".join(DEFAULT_KEYS),
                        help="comma-separated timing keys (commit schema)")
    parser.add_argument("--require-floors", action="store_true",
                        help="fail if every hardware-gated speedup floor was "
                             "skipped (the multi-core scaling-baseline gate)")
    parser.add_argument("--self-test", metavar="FIXTURE_DIR",
                        help="run the fixture suite in FIXTURE_DIR and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.self_test)
    if not args.baseline or not args.fresh:
        parser.error("baseline and fresh are required unless --self-test")

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    schema = baseline.get("bench", "commit")
    if fresh.get("bench", "commit") != schema:
        schema_error(f"schema mismatch: baseline '{schema}' vs fresh "
                     f"'{fresh.get('bench', 'commit')}'")
    if schema not in FLOOR_SCHEMAS:
        for name, doc in (("baseline", baseline), ("fresh", fresh)):
            if "absolute_floors" in doc:
                schema_error(f"{name} carries absolute_floors but schema "
                             f"'{schema}' does not support floors (move the "
                             f"block to a {'/'.join(FLOOR_SCHEMAS)} baseline)")
    if schema == "commit":
        keys = [k for k in args.keys.split(",") if k]
        compared, regressions, floors_bound = check_commit(
            baseline, fresh, keys, args.tolerance)
    elif schema == "parallel":
        compared, regressions, floors_bound = check_parallel(
            baseline, fresh, args.tolerance)
    elif schema == "batchverify":
        compared, regressions, floors_bound = check_batchverify(
            baseline, fresh, args.tolerance)
    elif schema == "runreport":
        compared, regressions, floors_bound = check_runreport(
            baseline, fresh, args.tolerance)
    elif schema == "serve":
        compared, regressions, floors_bound = check_serve(
            baseline, fresh, args.tolerance)
    elif schema == "comm":
        compared, regressions, floors_bound = check_comm(
            baseline, fresh, args.tolerance)
    else:
        schema_error(f"unknown bench schema '{schema}'")
        return 2  # unreachable; keeps the linter happy

    if args.require_floors:
        if schema not in FLOOR_SCHEMAS:
            schema_error(f"--require-floors is meaningless for schema "
                         f"'{schema}'")
        if floors_bound == 0:
            print("--require-floors: every hardware-gated floor was skipped "
                  "— the scaling gate did not bind [REGRESSION]")
            regressions += 1
        else:
            print(f"--require-floors: {floors_bound} floor(s) bound [ok]")

    print(f"[{schema}] compared {compared} value(s), tolerance "
          f"{args.tolerance:.2f}: {regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
