#!/usr/bin/env python3
"""Baseline-vs-current comparator for the BENCH_*.json exports.

The simulator's virtual clock makes every bench number deterministic for a
fixed seed, so checked-in baselines (bench/baselines/*.json) stay exact
across machines: any delta is a real behaviour change, not machine noise.
The tolerance exists to absorb *intentional* small drift (a re-tuned cost
constant) without churning the baselines on every PR; genuine regressions
clear it easily.

Gated metrics, per figure document (schema efac.bench.v1):

  * histogram p50 / p99   — latency-like, lower is better; a regression is
                            current > baseline * (1 + tolerance)
  * run.mops / run.put_mops and <...>/mops gauges
                          — throughput, higher is better; a regression is
                            current < baseline * (1 - tolerance). The
                            "/mops" suffix covers batch_bench's
                            batch/<system>/<size>/B<n>/mops gauges.

Everything else (counters, other gauges, the remaining histogram fields)
is reported in the delta report but never gates: counters move whenever a
workload is extended, and failing on them would turn every feature PR into
a baseline churn.

BENCH_engine.json is excluded even if a baseline exists: the engine
microbenchmarks measure host wall-clock, which IS machine-dependent.

Exit codes: 0 = no regression, 1 = regression(s) found, 2 = usage error
(missing files, malformed JSON).
"""

import argparse
import json
import os
import sys

# Histogram fields that gate (lower is better). p95 exists in newer
# exports; compare it when both sides have it.
HIST_GATED = ("p50", "p95", "p99")
# Gauge suffixes that gate (higher is better).
THROUGHPUT_SUFFIXES = ("run.mops", "run.put_mops", "/mops")
# Wall-clock figures are machine-dependent; never gate them.
EXCLUDED_FILES = {"BENCH_engine.json"}
# Ignore relative drift on latencies below this floor (ns): a 1ns step on
# a 30ns CRC span is a 3% "regression" with no physical meaning. Applies
# only with a non-zero tolerance: --tolerance 0 is an exact gate, so any
# rise fails.
ABS_FLOOR_NS = 20.0


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        raise SystemExit(f"bench_compare: cannot read {path}: {err}")
    if doc.get("schema") != "efac.bench.v1":
        raise SystemExit(
            f"bench_compare: {path} is not an efac.bench.v1 document")
    return doc


def fmt_delta(base, cur):
    if base == 0:
        return "n/a" if cur == 0 else "new"
    return f"{(cur - base) / base * 100.0:+.2f}%"


class Comparison:
    def __init__(self):
        self.lines = []
        self.regressions = []
        self.compared = 0

    def note(self, line):
        self.lines.append(line)

    def gate(self, name, base, cur, tolerance, higher_better, floor=0.0):
        self.compared += 1
        if higher_better:
            bad = cur < base * (1.0 - tolerance)
        else:
            floor = floor if tolerance > 0 else 0.0
            bad = cur > base * (1.0 + tolerance) and cur - base > floor
        marker = "  REGRESSION" if bad else ""
        self.note(f"  {name}: {base:g} -> {cur:g} ({fmt_delta(base, cur)})"
                  f"{marker}")
        if bad:
            self.regressions.append(
                f"{name}: {base:g} -> {cur:g} ({fmt_delta(base, cur)})")


def compare_doc(comp, fname, base, cur, tolerance):
    comp.note(f"{fname} (figure {base.get('figure', '?')}):")

    base_hists = base.get("histograms", {})
    cur_hists = cur.get("histograms", {})
    for name in sorted(base_hists):
        if name not in cur_hists:
            comp.note(f"  {name}: missing from current export")
            continue
        for field in HIST_GATED:
            if field in base_hists[name] and field in cur_hists[name]:
                comp.gate(f"{name}.{field}", base_hists[name][field],
                          cur_hists[name][field], tolerance,
                          higher_better=False, floor=ABS_FLOOR_NS)

    base_gauges = base.get("gauges", {})
    cur_gauges = cur.get("gauges", {})
    for name in sorted(base_gauges):
        if not name.endswith(THROUGHPUT_SUFFIXES):
            continue
        if name not in cur_gauges:
            comp.note(f"  {name}: missing from current export")
            continue
        comp.gate(name, base_gauges[name], cur_gauges[name], tolerance,
                  higher_better=True)

    # Non-gating context: counter drift summary (top movers only).
    movers = []
    base_counters = base.get("counters", {})
    cur_counters = cur.get("counters", {})
    for name in sorted(base_counters):
        b = base_counters[name]
        c = cur_counters.get(name)
        if c is not None and c != b:
            movers.append(f"  (info) {name}: {b} -> {c}")
    if movers:
        comp.note(f"  {len(movers)} counter(s) moved (not gated):")
        comp.lines.extend(movers[:10])
        if len(movers) > 10:
            comp.note(f"  ... {len(movers) - 10} more")


def main():
    parser = argparse.ArgumentParser(
        description="Compare BENCH_*.json exports against checked-in "
                    "baselines; exit non-zero on a regression.")
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory of baseline BENCH_*.json files")
    parser.add_argument("--current", default=".",
                        help="directory holding the current exports")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="allowed drift, percent (default 2)")
    parser.add_argument("--report", default=None,
                        help="write the full delta report to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="self-check: compare the baselines against "
                             "themselves (must pass with zero regressions)")
    args = parser.parse_args()

    if args.tolerance < 0:
        raise SystemExit("bench_compare: --tolerance must be >= 0")
    tolerance = args.tolerance / 100.0
    current_dir = args.baselines if args.smoke else args.current

    if not os.path.isdir(args.baselines):
        raise SystemExit(
            f"bench_compare: baseline directory {args.baselines} not found")
    names = sorted(f for f in os.listdir(args.baselines)
                   if f.startswith("BENCH_") and f.endswith(".json")
                   and f not in EXCLUDED_FILES)
    if not names:
        raise SystemExit(
            f"bench_compare: no BENCH_*.json baselines in {args.baselines}")

    comp = Comparison()
    for fname in names:
        cur_path = os.path.join(current_dir, fname)
        if not os.path.isfile(cur_path):
            raise SystemExit(
                f"bench_compare: current export {cur_path} not found "
                f"(run the figure bench first)")
        compare_doc(comp, fname, load(os.path.join(args.baselines, fname)),
                    load(cur_path), tolerance)

    report = "\n".join(comp.lines) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(report)
    else:
        sys.stdout.write(report)

    print(f"bench_compare: {comp.compared} gated metric(s) across "
          f"{len(names)} figure(s), tolerance {args.tolerance:g}%")
    if comp.regressions:
        print(f"bench_compare: {len(comp.regressions)} regression(s):")
        for line in comp.regressions:
            print(f"  {line}")
        return 1
    print("bench_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
