#!/usr/bin/env python3
# Copyright 2026 The AmnesiaDB Authors
"""End-to-end batch benchmark for AmnesiaDB.

Builds bench/e2e (the amnesia_e2e binary plus amnesia_core) into build-e2e/
at the repository root, runs it, checks its outputs and prints every metric
with its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

  run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
      One run of one workload. Repeats amnesia_e2e (one process per
      repetition, same seed) while another repetition fits in S seconds,
      and reports the median of each metric over the repetitions. With
      --trace 0 the metrics are BENCHMARK.json's end_to_end list, and the
      durable-only metrics are printed above the result line; with
      --trace 1 they are its per_layer list, from alternating untraced and
      traced repetitions (the trace goes to build-e2e/trace_<W>.json).
  run.py --smoke
      Every workload at 1/10 of its dbsize and 20 batches, traced and
      untraced, with every check; asserts that every metric BENCHMARK.json
      names is printed with its unit.
  run.py sets [--reps 5] [--seconds S] [--out-dir D] [--other DIR]
      Two interleaved sets of runs: repetition r runs every workload once
      per set with seed 1000 + r. Writes D/set_a.json and D/set_b.json.
      With --other, set "base" runs the checkout at DIR and set "new" runs
      this one, alternating which side goes first (D/base.json, D/new.json).
  run.py compare BASE.json NEW.json [--claim WORKLOAD:METRIC]
      One row per workload and end-to-end or durable-only metric: better,
      same, worse or unresolved under the bounds in BENCHMARK.json and
      DURABLE_BOUNDS. --claim applies the gain rule: at least 10 alternated
      pairs, the change wins at least 9 of every 10, and the medians differ
      by more than the parent's interquartile range.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "amnesia_e2e")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ["privacy_vacuum", "analytic_rot", "churn_durable"]
# An amnesia_e2e process that takes longer than this has hung; the whole
# invocation must end within 180 s.
BINARY_TIMEOUT_S = 120
# Durable-only metrics, with the bounds `compare` applies to them: a share
# of the base median, or an absolute floor in the metric's unit where that
# is larger. They are 0 on analytic_rot, which has no durability, and the
# benchmark's end-to-end metrics must never be 0, so BENCHMARK.json lists
# them under per_layer, where a metric has no bound. Untraced repetitions
# measure them: a --trace 1 run reports them, a --trace 0 run prints them
# above its result line, and `sets` records them from there.
DURABLE_BOUNDS = {"recover_ms": (0.10, 5.0),
                  "disk_bytes_per_live_row": (0.05, 0.0),
                  "write_bytes_per_ingested_row": (0.05, 0.0)}
# Printed for information only; not part of BENCHMARK.json.
EXTRA_UNITS = {"trace.span_coverage_pct": "%"}


class BenchError(Exception):
    pass


# --- statistics -----------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(first quartile, median, third quartile), as
    statistics.quantiles(values, n=4) gives them; a single value is its
    own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr(values):
    q1, _, q3 = quartiles(values)
    return q3 - q1


def spread(values):
    """Interquartile range as a share of the median."""
    m = median(values)
    return iqr(values) / abs(m) if m else 0.0


def worsening(base, new, better):
    """Relative change from base to new, positive when new is worse."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def is_better(a, b, better):
    """True when value a is strictly better than value b."""
    return a < b if better == "lower" else a > b


def verdict(base_values, new_values, bound, better):
    """better / same / worse / unresolved for one workload and metric."""
    if (spread(base_values) > bound or spread(new_values) > bound):
        if all(is_better(n, b, better)
               for n in new_values for b in base_values):
            return "better"
        return "unresolved"
    w = worsening(median(base_values), median(new_values), better)
    if w > bound:
        return "worse"
    if w < -bound:
        return "better"
    return "same"


def claim(pairs, better):
    """Applies the gain rule to (base, new) pairs of one metric. Returns
    (met, detail)."""
    if len(pairs) < 10:
        return False, "%d pairs; the rule needs at least 10" % len(pairs)
    wins = sum(1 for b, n in pairs if is_better(n, b, better))
    base = [b for b, _ in pairs]
    new = [n for _, n in pairs]
    gap = median(base) - median(new)
    if better == "higher":
        gap = -gap
    parent_iqr = iqr(base)
    detail = ("change wins %d of %d pairs; medians %.6g -> %.6g, gap %.6g "
              "vs parent IQR %.6g" % (wins, len(pairs), median(base),
                                      median(new), gap, parent_iqr))
    met = wins * 10 >= 9 * len(pairs) and gap > parent_iqr
    return met, detail


# --- build and run ----------------------------------------------------------

def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no AmnesiaDB sources at %s; the benchmark builds "
                         "the repository it sits in" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "amnesia_e2e",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_binary(workload, seed, trace, scale=1.0, batches=100):
    """Runs one amnesia_e2e process and returns its result object, with
    "exit" and "duration_s" added."""
    run_dir = os.path.join(BUILD, "runs", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--dir", run_dir, "--batches", str(batches),
           "--scale", repr(scale)]
    if trace:
        cmd += ["--trace", "--trace-out",
                os.path.join(BUILD, "trace_%s.json" % workload)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %d s" %
                         (workload, BINARY_TIMEOUT_S))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("%s: amnesia_e2e exited %d without a result" %
                         (workload, proc.returncode))
    result["exit"] = proc.returncode
    result["duration_s"] = time.monotonic() - start
    return result


def repetitions_ok(reps):
    """Every repetition exited cleanly, failed nothing, and all produced
    one digest (same seed, traced or not, gives the same run)."""
    errors = []
    for r in reps:
        if r["exit"] != 0 or r["failed"] != 0:
            errors.append("%s %s repetition failed: %s" %
                          (r["workload"], r["mode"], r["errors"]))
    digests = sorted({r["digest"] for r in reps})
    if len(digests) != 1:
        errors.append("%s digests differ across repetitions: %s" %
                      (reps[0]["workload"], digests))
    return errors


def median_metric(reps, name):
    return median([r["metrics"][name]["value"] for r in reps])


def collect(names, units, reps):
    """name -> {"value", "unit"} for every name, each the median over
    `reps`; raises if one is missing or its unit disagrees with
    BENCHMARK.json."""
    out = {}
    for name in names:
        for r in reps:
            got = r["metrics"].get(name)
            if got is None:
                raise BenchError("amnesia_e2e did not report " + name)
            if got["unit"] != units[name]:
                raise BenchError("%s: amnesia_e2e unit %r, BENCHMARK.json %r" %
                                 (name, got["unit"], units[name]))
        out[name] = {"value": median_metric(reps, name), "unit": units[name]}
    return out


def measure(workload, seed, seconds, trace, scale=1.0, batches=100):
    """One run as BENCHMARK.json's command defines it. Returns (result
    object, printable extras)."""
    bench = load_benchmark()
    kind = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in bench[kind]]
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        # Traced mode runs untraced/traced pairs, alternating which goes
        # first, so host drift does not land on one side only.
        order = [False]
        if trace:
            order = [False, True] if len(untraced) % 2 == 0 else [True, False]
        group = [run_binary(workload, seed, t, scale, batches) for t in order]
        for r in group:
            (traced if r["mode"] == "traced" else untraced).append(r)
        last = sum(r["duration_s"] for r in group)
        failed = any(r["exit"] != 0 or r["failed"] for r in group)
        if failed or time.monotonic() - start + last > seconds:
            break
    reps = untraced + traced
    errors = repetitions_ok(reps)
    extras = {}
    if errors:
        metrics = {}
    elif trace:
        overhead = 100.0 * (median_metric(traced, "batch_ms.p50") /
                            median_metric(untraced, "batch_ms.p50") - 1.0)
        spans = [n for n in names
                 if n not in DURABLE_BOUNDS and n != "trace.overhead_pct"]
        metrics = collect(spans, units, traced)
        metrics.update(collect(DURABLE_BOUNDS, units, untraced))
        metrics["trace.overhead_pct"] = {"value": overhead,
                                         "unit": units["trace.overhead_pct"]}
        extras = collect(EXTRA_UNITS, EXTRA_UNITS, traced)
        extras["trace_file"] = os.path.join(BUILD,
                                            "trace_%s.json" % workload)
    else:
        metrics = collect(names, units, untraced)
        extras = collect(DURABLE_BOUNDS, units, untraced)
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps) + len(errors),
        "metrics": metrics,
    }
    for e in errors:
        print("error: " + e, file=sys.stderr)
    extras["repetitions"] = "%d untraced, %d traced" % (len(untraced),
                                                       len(traced))
    return result, extras


def print_metrics(workload, metrics, extras):
    for name, m in metrics.items():
        print("%-16s %-44s %16.9g %s" % (workload, name, m["value"],
                                         m["unit"]))
    for name, value in extras.items():
        if isinstance(value, dict):
            print("%-16s %-44s %16.9g %s" % (workload, name, value["value"],
                                             value["unit"]))
        else:
            print("%-16s %-44s %s" % (workload, name, value))


def printed_durable_metrics(workload, stdout):
    """The durable-only metrics a --trace 0 run printed above its result
    line, as name -> {"value", "unit"}."""
    out = {}
    for line in stdout.splitlines():
        fields = line.split()
        if (len(fields) == 4 and fields[0] == workload and
                fields[1] in DURABLE_BOUNDS):
            out[fields[1]] = {"value": float(fields[2]), "unit": fields[3]}
    return out


# --- modes ------------------------------------------------------------------

def cmd_measure(args):
    build()
    result, extras = measure(args.workload, args.seed, args.seconds,
                             args.trace == 1)
    print_metrics(args.workload, result["metrics"], extras)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def cmd_smoke(_):
    build()
    bench = load_benchmark()
    start = time.monotonic()
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            kind = "per_layer" if trace else "end_to_end"
            result, extras = measure(workload, 42, 0, trace, scale=0.1,
                                     batches=20)
            print_metrics(workload, result["metrics"], extras)
            ok = ok and result["correct"]
            for m in bench[kind]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    print("error: %s %s not printed with unit %s" %
                          (workload, m["name"], m["unit"]), file=sys.stderr)
                    ok = False
    elapsed = time.monotonic() - start
    print("smoke %s in %.1f s" % ("passed" if ok else "FAILED", elapsed))
    return 0 if ok else 1


def cmd_sets(args):
    if args.other:
        other = os.path.abspath(args.other)
        sides = [("base", os.path.join(other, "bench", "e2e", "run.py"),
                  other),
                 ("new", os.path.abspath(__file__), ROOT)]
    else:
        sides = [(label, os.path.abspath(__file__), ROOT)
                 for label in ("set_a", "set_b")]
    runs = {label: [] for label, _, _ in sides}
    for rep in range(args.reps):
        seed = 1000 + rep
        # Alternate which side goes first, so drift on the shared host
        # lands on both sides alike.
        order = sides if rep % 2 == 0 else list(reversed(sides))
        for workload in WORKLOADS:
            for label, script, cwd in order:
                cmd = [sys.executable, script, "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", "0"]
                started = time.time()
                proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    raise BenchError("%s run failed: %s" % (label, cmd))
                result = json.loads(lines[-1])
                result["metrics"].update(
                    printed_durable_metrics(workload, proc.stdout))
                result.update({"workload": workload, "seed": seed,
                               "rep": rep, "started": started})
                runs[label].append(result)
                print("rep %d %s %s batch_ms.p50=%.3f" % (
                    rep, label, workload,
                    result["metrics"]["batch_ms.p50"]["value"]), flush=True)
    os.makedirs(args.out_dir, exist_ok=True)
    for label, _, _ in sides:
        path = os.path.join(args.out_dir, label + ".json")
        with open(path, "w") as f:
            json.dump({"seconds": args.seconds, "runs": runs[label]}, f,
                      indent=1)
        print("wrote " + path)
    return 0


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r)
    return out


def judged_metrics(bench):
    """The metrics `compare` judges: BENCHMARK.json's end-to-end metrics,
    then the durable-only per-layer ones with their DURABLE_BOUNDS."""
    judged = [dict(m, floor=0.0) for m in bench["end_to_end"]]
    for m in bench["per_layer"]:
        if m["name"] in DURABLE_BOUNDS:
            share, floor = DURABLE_BOUNDS[m["name"]]
            judged.append(dict(m, bound=share, floor=floor))
    return judged


def metric_values(runs, name):
    """The metric's value in every run, or None if a run lacks it or it is
    0 in every run: a durable-only metric on a workload without durability."""
    values = [r["metrics"].get(name, {}).get("value") for r in runs]
    if None in values or not any(values):
        if name not in DURABLE_BOUNDS:
            raise BenchError("runs lack end-to-end metric " + name)
        return None
    return values


def cmd_compare(args):
    bench = load_benchmark()
    with open(args.base) as f:
        base = by_workload(json.load(f)["runs"])
    with open(args.new) as f:
        new = by_workload(json.load(f)["runs"])
    worse = False
    print("%-16s %-28s %12s %12s %9s %9s %7s  %s" % (
        "workload", "metric", "base", "new", "change", "spread", "bound",
        "verdict"))
    for workload in sorted(set(base) & set(new)):
        for m in judged_metrics(bench):
            name, better = m["name"], m["better"]
            b = metric_values(base[workload], name)
            n = metric_values(new[workload], name)
            if b is None or n is None:
                continue
            bound = max(m["bound"], m["floor"] / abs(median(b)))
            v = verdict(b, n, bound, better)
            worse = worse or v == "worse"
            change = (median(n) - median(b)) / abs(median(b)) * 100
            print("%-16s %-28s %12.6g %12.6g %+8.2f%% %8.2f%% %6.1f%%  %s" % (
                workload, name, median(b), median(n), change,
                100 * max(spread(b), spread(n)), 100 * bound, v))
    if not args.claim:
        return 1 if worse else 0

    workload, _, name = args.claim.partition(":")
    metric = next((m for m in judged_metrics(bench) if m["name"] == name),
                  None)
    if metric is None or workload not in base or workload not in new:
        raise BenchError("unknown claim " + args.claim)
    pairs, base_first = [], 0
    new_by_rep = {r.get("rep"): r for r in new[workload]}
    for b in base[workload]:
        n = new_by_rep.get(b.get("rep"))
        if n is None or "started" not in b or "started" not in n:
            raise BenchError("claim needs alternated pairs written by "
                             "'run.py sets --other'")
        base_first += b["started"] < n["started"]
        pairs.append((b["metrics"][name]["value"],
                      n["metrics"][name]["value"]))
    if abs(2 * base_first - len(pairs)) > 1:
        raise BenchError("pairs are not alternated: base ran first in %d of "
                         "%d" % (base_first, len(pairs)))
    met, detail = claim(pairs, metric["better"])
    print("claim %s on %s: %s (%s)" % (name, workload,
                                       "met" if met else "NOT met", detail))
    return 0 if met else 1


def main(argv):
    if argv and argv[0] in ("sets", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "sets":
            p.add_argument("--reps", type=int, default=5)
            p.add_argument("--seconds", type=int, default=20)
            p.add_argument("--out-dir",
                           default=os.path.join(BUILD, "sets"))
            p.add_argument("--other", help="checkout to run as the base side")
            args = p.parse_args(argv[1:])
            return cmd_sets(args)
        p.add_argument("base")
        p.add_argument("new")
        p.add_argument("--claim", help="WORKLOAD:METRIC")
        return cmd_compare(p.parse_args(argv[1:]))

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.smoke:
        return cmd_smoke(args)
    if not args.workload:
        p.error("--workload or --smoke is required")
    return cmd_measure(args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        sys.exit(1)
