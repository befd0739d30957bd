#!/usr/bin/env python3
"""Gate a fresh bench report against the rules its checked-in baseline carries.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json [--require-floors]
    check_bench_regression.py --self-test FIXTURE_DIR

The checker knows no bench schema. Every rule comes from the baseline's
"gates" list, one JSON object per rule and one rule per line:

    {"path": "configs[m].runs[threads].speedup", "kind": "relative",
     "better": "higher", "bound": 0.25, "requires": {"min_hw": 4}}

Paths
  a.b            walks nested objects.
  name[field]    walks every element of the list `name`. Baseline and fresh
                 elements are matched by their `field` value, and both reports
                 must hold the same set of keys.
  name[f,g]      the same, matched by the compound key (f, g).
  name[field=v]  picks the one element whose `field` prints as v.
  prefix*        walks the object keys that start with prefix, e.g.
                 metrics.counters.aborts/*. It may match nothing.
  Each value is reported under its concrete path, such as
  configs[m=32].runs[threads=4].speedup.

Kinds
  identity     fresh equals baseline, or the two reports describe different
               run configurations: exit 3, not a regression.
  equal        fresh equals baseline (deep; true, 1 and 1.0 all differ).
  is           fresh equals the rule's constant "value", e.g. true or 0.
  relative     "better": "lower" | "higher" and "bound": b, as in
               BENCHMARK.json. Fresh may be worse than baseline by at most the
               fraction b: fresh <= baseline*(1+b), or >= baseline*(1-b).
  min, max     fresh >= "bound", or fresh <= "bound" (absolute).
  share_drift  each matched value's share of the sum over all matches (e.g. a
               RunReport phase's share of total wall time) may move from its
               baseline share by at most "bound" (absolute). Only values whose
               baseline share is at least "min_share" are gated.

requires
  A rule may carry "requires": {"min_hw": N, "simd": true}. It then binds only
  when the fresh report's hardware_concurrency is >= N (a one-core runner
  measures ~1.0x for every thread count) and its simd.backend is a vector
  kernel, not "scalar" (lane speedups are ~1.0x there by design). A skipped
  rule prints SKIPPED; its path must still resolve. --require-floors makes
  "every rule with a requires was skipped" a regression, so a multi-core CI
  job cannot silently stop binding its floors; on a baseline with no such
  rule it is an input error.

Refreshing a baseline: re-run the bench with the CI configuration, carry the
"gates" block of the old BENCH_*.json over into the new file unchanged, and
gate the new file against itself (the self-test does this for every checked-in
baseline).

--self-test FIXTURE_DIR runs FIXTURE_DIR/cases.json: each case gates a
baseline against a fresh report (paths relative to FIXTURE_DIR) in a
subprocess, with optional "args", and asserts "expect_exit".

Exit status: 0 every bound rule holds, 1 regression(s), 2 usage error,
3 schema or input error: unreadable JSON, a baseline without gates, a malformed
rule, a gated value that is missing or not a number, or an identity mismatch.
Exit 3 is distinct so CI can tell "the code got slower" from "the harness is
broken". Needs only the Python standard library.
"""

import argparse
import json
import os
import re
import subprocess
import sys

SCHEMA_ERROR_EXIT = 3

# Parameters each kind must carry; a missing one is a malformed rule.
KINDS = {"identity": (), "equal": (), "is": ("value",),
         "relative": ("better", "bound"), "min": ("bound",),
         "max": ("bound",), "share_drift": ("bound", "min_share")}
# Kinds that read the baseline's value as well as the fresh one.
PAIRED = ("identity", "equal", "relative", "share_drift")

SPLIT = re.compile(r"\.(?![^\[]*\])")  # a dot outside [...]
SEGMENT = re.compile(r"([^\[\]]+)(?:\[([^\[\]]+)\])?")


def schema_error(message):
    print(f"check_bench_regression: {message}", file=sys.stderr)
    sys.exit(SCHEMA_ERROR_EXIT)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        schema_error(f"cannot load {path}: {error}")


def canon(value):
    """Deep, type-strict identity: json.dumps tells true, 1 and 1.0 apart."""
    return json.dumps(value, sort_keys=True)


def number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        schema_error(f"{where} is {value!r}, not a number")
    return float(value)


def resolve(doc, path, name):
    """Map the concrete path of every value `path` names in `doc` to it."""
    nodes = {"": doc}
    for segment in SPLIT.split(path):
        match = SEGMENT.fullmatch(segment)
        if not match:
            schema_error(f"malformed path {path!r}")
        key, selector = match.groups()
        found = {}
        for label, node in nodes.items():
            prefix = f"{label}." if label else ""
            if not isinstance(node, dict):
                schema_error(f"{name} {label or 'document'} is not an object "
                             f"(path {path})")
            if selector is None and key.endswith("*"):
                found.update((prefix + k, v) for k, v in node.items()
                             if k.startswith(key[:-1]))
                continue
            if key not in node:
                schema_error(f"{name} has no {prefix}{key} (path {path})")
            if selector is None:
                found[prefix + key] = node[key]
                continue
            if not isinstance(node[key], list):
                schema_error(f"{name} {prefix}{key} is not a list "
                             f"(path {path})")
            fields = [part.partition("=") for part in selector.split(",")]
            picked = 0
            for element in node[key]:
                if not isinstance(element, dict) or \
                        any(f not in element for f, _, _ in fields):
                    schema_error(f"{name} {prefix}{key} has an element "
                                 f"without [{selector}] (path {path})")
                if any(eq and str(element[f]) != v for f, eq, v in fields):
                    continue
                where = prefix + key + "[" + ",".join(
                    f"{f}={element[f]}" for f, _, _ in fields) + "]"
                if where in found:
                    schema_error(f"{name} has two elements {where}")
                found[where] = element
                picked += 1
            if picked == 0 and any(eq for _, eq, _ in fields):
                schema_error(f"{name} has no {prefix}{key}[{selector}]")
        nodes = found
    return nodes


def validate(rule):
    """Exit 3 unless `rule` is one the interpreter can apply."""
    if not isinstance(rule, dict) or rule.get("kind") not in KINDS or \
            not isinstance(rule.get("path"), str):
        schema_error(f"malformed rule {rule!r}: need a 'path' and a 'kind' "
                     f"among {', '.join(KINDS)}")
    requires = rule.get("requires", {})
    problems = [f"missing '{p}'" for p in KINDS[rule["kind"]] if p not in rule]
    if not isinstance(requires, dict) or \
            not set(requires) <= {"min_hw", "simd"}:
        problems.append("'requires' takes only min_hw and simd")
        requires = {}
    numbers = [rule[p] for p in ("bound", "min_share") if p in rule]
    if any(isinstance(n, bool) or not isinstance(n, (int, float))
           for n in numbers + [requires.get("min_hw", 1)]):
        problems.append("a bound is not a number")
    if rule.get("better", "lower") not in ("lower", "higher"):
        problems.append("'better' is neither lower nor higher")
    if problems:
        schema_error(f"malformed rule {rule!r}: {'; '.join(problems)}")


def skip_reason(requires, fresh):
    """Why a rule's `requires` does not hold on the fresh machine, or None."""
    if "min_hw" in requires:
        hw = fresh.get("hardware_concurrency")
        if isinstance(hw, bool) or not isinstance(hw, int) or hw < 1:
            schema_error(f"fresh hardware_concurrency is {hw!r}; re-run the "
                         f"bench to record the measuring machine")
        if hw < requires["min_hw"]:
            return f"fresh hardware_concurrency={hw} < {requires['min_hw']}"
    if requires.get("simd"):
        backend = resolve(fresh, "simd.backend", "fresh")["simd.backend"]
        if not isinstance(backend, str) or not backend:
            schema_error(f"fresh simd.backend is {backend!r}")
        if backend == "scalar":
            return "fresh run dispatches the scalar lane backend"
    return None


def judge(rule, where, base, fresh):
    """(holds, detail) for one value; exits 3 on an input error."""
    kind = rule["kind"]
    if kind == "identity":
        if canon(base) != canon(fresh):
            schema_error(f"{where}: baseline {base!r} vs fresh {fresh!r} "
                         f"(a different run configuration)")
        return True, f"{fresh!r}"
    if kind == "equal":
        return (canon(base) == canon(fresh),
                f"baseline {base!r}, fresh {fresh!r}")
    if kind == "is":
        return (canon(fresh) == canon(rule["value"]),
                f"expected {rule['value']!r}, got {fresh!r}")
    value = number(fresh, f"fresh {where}")
    bound = float(rule["bound"])
    if kind == "min":
        return value >= bound, f"fresh {value:.3f}, floor {bound:.3f}"
    if kind == "max":
        return value <= bound, f"fresh {value:.3f}, ceiling {bound:.3f}"
    reference = number(base, f"baseline {where}")
    if kind == "relative":
        if reference <= 0:
            schema_error(f"baseline {where} is {reference}, not positive")
        if rule["better"] == "higher":
            limit = reference * (1.0 - bound)
            holds = value >= limit
        else:
            limit = reference * (1.0 + bound)
            holds = value <= limit
        return holds, (f"baseline {reference:.3f}, fresh {value:.3f}, "
                       f"limit {limit:.3f}")
    drift = abs(value - reference)
    return drift <= bound, (f"share: baseline {reference:.3f}, fresh "
                            f"{value:.3f}, drift {drift:.3f}")


def shares(values, name, path):
    """Each value's share of the sum over all of them (share_drift)."""
    total = sum(number(v, f"{name} {where}") for where, v in values.items())
    if total <= 0:
        schema_error(f"rule {path}: {name} total is {total}, not positive")
    return {where: v / total for where, v in values.items()}


def gate(baseline, fresh, require_floors):
    """Apply every baseline rule to `fresh`; returns the process exit code."""
    rules = baseline.get("gates") if isinstance(baseline, dict) else None
    if not isinstance(rules, list) or not rules:
        schema_error("baseline carries no 'gates' list; carry the block over "
                     "from the previous baseline when refreshing it")
    compared = regressions = conditional = bound_rules = 0
    for rule in rules:
        validate(rule)
        path, kind = rule["path"], rule["kind"]
        fresh_values = resolve(fresh, path, "fresh")
        base_values = {}
        if kind in PAIRED:
            base_values = resolve(baseline, path, "baseline")
            if set(base_values) != set(fresh_values):
                schema_error(f"rule {path}: baseline has "
                             f"{sorted(set(base_values) - set(fresh_values))} "
                             f"but fresh has "
                             f"{sorted(set(fresh_values) - set(base_values))}")
        if "requires" in rule:
            conditional += 1
            reason = skip_reason(rule["requires"], fresh)
            if reason:
                print(f"{path} ({kind}) SKIPPED: {reason}")
                continue
            bound_rules += 1
        if kind == "share_drift":
            base_values = shares(base_values, "baseline", path)
            fresh_values = shares(fresh_values, "fresh", path)
        for where, value in fresh_values.items():
            base = base_values.get(where)
            if kind == "share_drift" and base < rule["min_share"]:
                continue
            holds, detail = judge(rule, where, base, value)
            compared += 1
            regressions += not holds
            print(f"{where} ({kind}): {detail} "
                  f"[{'ok' if holds else 'REGRESSION'}]")

    if require_floors:
        if conditional == 0:
            schema_error("--require-floors: the baseline has no rule with "
                         "'requires'")
        if bound_rules == 0:
            print("--require-floors: every hardware-gated rule was skipped "
                  "[REGRESSION]")
            regressions += 1
        else:
            print(f"--require-floors: {bound_rules} hardware-gated rule(s) "
                  f"bound [ok]")
    print(f"compared {compared} value(s) under {len(rules)} rule(s): "
          f"{regressions} regression(s)")
    return 1 if regressions else 0


def self_test(fixture_dir):
    """Run the fixture suite: cases.json drives subprocess invocations."""
    manifest_path = os.path.join(fixture_dir, "cases.json")
    cases = load(manifest_path).get("cases")
    if not isinstance(cases, list) or not cases:
        schema_error(f"{manifest_path} has no cases")
    failures = 0
    for case in cases:
        argv = [sys.executable, os.path.abspath(__file__),
                os.path.join(fixture_dir, case["baseline"]),
                os.path.join(fixture_dir, case["fresh"])]
        argv += case.get("args", [])
        result = subprocess.run(argv, capture_output=True, text=True,
                                check=False)
        if result.returncode != case.get("expect_exit"):
            failures += 1
            print(f"[self-test] {case.get('name', '?')}: expected exit "
                  f"{case.get('expect_exit')}, got {result.returncode} [FAIL]")
            sys.stdout.write(result.stdout)
            sys.stderr.write(result.stderr)
        else:
            print(f"[self-test] {case.get('name', '?')}: exit "
                  f"{result.returncode} [ok]")
    print(f"[self-test] {len(cases)} case(s), {failures} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description="gate a fresh bench report against its baseline's rules")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("fresh", nargs="?")
    parser.add_argument("--require-floors", action="store_true",
                        help="fail if every rule with 'requires' was skipped")
    parser.add_argument("--self-test", metavar="FIXTURE_DIR",
                        help="run the fixture suite in FIXTURE_DIR and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.self_test)
    if not args.baseline or not args.fresh:
        parser.error("baseline and fresh are required unless --self-test")
    return gate(load(args.baseline), load(args.fresh), args.require_floors)


if __name__ == "__main__":
    sys.exit(main())
