#!/usr/bin/env python3
"""Compare bench_suite results of a parent and a change.

    compare.py PARENT CHANGE        one row per (workload, mode, metric)
    compare.py --validate [FILE...] metric names: bench_suite vs BENCHMARK.json
    compare.py --bundle OUT FILE... pack result files into one baseline file

PARENT and CHANGE are each a result file written by bench_suite --json, a
baseline bundle of several, or a directory of either. Every invocation
contributes its summary median; a row shows the median and q1-q3 of those
per side and a verdict:

  worse       the change's median is worse than the parent's by more than
              the bound; for an exact (deterministic) metric, every run
              reads worse
  better      past the bound the other way, and every change run reads
              better than every parent run
  within      inside the bound, and the parent's own spread is too
  unresolved  none of the above: the runs spread wider than the bound
  same        an exact metric reads the same on both sides
  info        a host metric without a bound (per-layer times)

A change of output digest at an equal seed is reported per workload. Exits
1 when a metric with a bound or an exact metric is worse or a digest
changed. The metric table (units, directions, bounds) comes from
`bench_suite --list=json`; --binary points at the built executable.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

DEFAULT_BINARY = ".bench_build/suite/bench_suite"


def load_table(binary: str) -> dict:
    if not pathlib.Path(binary).is_file():
        sys.exit(f"compare.py: {binary} not found; build it first with "
                 "bench/suite/run.py or pass --binary")
    listing = subprocess.run([binary, "--list=json"], capture_output=True,
                             text=True, check=True).stdout
    return json.loads(listing)


def envelopes(path: pathlib.Path) -> list:
    if path.is_dir():
        return [e for p in sorted(path.glob("*.json")) for e in envelopes(p)]
    data = json.loads(path.read_text())
    return data["invocations"] if "invocations" in data else [data]


def summaries(paths: list) -> list:
    """(labels, metrics) of every invocation's summary row."""
    rows = []
    for path in paths:
        for envelope in envelopes(pathlib.Path(path)):
            for row in envelope["rows"]:
                if row["labels"].get("stat") == "summary":
                    rows.append((dict(row["labels"], seed=str(
                        envelope["seed"])), row["metrics"]))
    return rows


def spread(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(info: dict, parent: list, change: list) -> str:
    sign = 1 if info["better"] == "lower" else -1  # > 0 means worse
    worse_all = all(sign * (c - p) > 0 for c in change for p in parent)
    better_all = all(sign * (c - p) < 0 for c in change for p in parent)
    if info["exact"]:
        if sorted(parent) == sorted(change):
            return "same"
        return "worse" if worse_all else "better" if better_all else \
            "unresolved"
    if info["bound"] == 0:
        return "info"
    p_q1, p_med, p_q3 = spread(parent)
    base = abs(p_med) or 1.0
    rel = sign * (statistics.median(change) - p_med) / base
    if rel > info["bound"]:
        return "worse"
    if rel < -info["bound"] and better_all:
        return "better"
    if abs(rel) <= info["bound"] and (p_q3 - p_q1) / base <= info["bound"]:
        return "within"
    return "unresolved"


def compare(args) -> int:
    table = load_table(args.binary)
    metrics = {m["name"]: m for m in table["metrics"]}
    sides = [summaries([args.parent]), summaries([args.change])]
    keys = sorted({(l["workload"], l["mode"]) for side in sides
                   for l, _ in side})
    failed = False
    header = (f"{'workload':19} {'mode':8} {'metric':36} {'unit':10} "
              f"{'parent median [q1, q3]':34} {'change median [q1, q3]':34} "
              f"{'delta':>8}  verdict")
    print(header)
    for workload, mode in keys:
        per_side = [[(l, m) for l, m in side
                     if (l["workload"], l["mode"]) == (workload, mode)]
                    for side in sides]
        if not all(per_side):
            print(f"{workload:19} {mode:8} present on one side only")
            continue
        for name, info in metrics.items():
            values = [[m[name] for _, m in side if name in m]
                      for side in per_side]
            if not all(values):
                continue
            result = verdict(info, values[0], values[1])
            failed |= result == "worse"
            cells = []
            for side in values:
                q1, med, q3 = spread(side)
                cells.append(f"{med:.6g} [{q1:.4g}, {q3:.4g}]")
            p_med = statistics.median(values[0])
            delta = ((statistics.median(values[1]) - p_med) / abs(p_med)
                     * 100 if p_med else 0.0)
            print(f"{workload:19} {mode:8} {name:36} {info['unit']:10} "
                  f"{cells[0]:34} {cells[1]:34} {delta:7.2f}%  {result}")
        digests = [{l["seed"]: l["output_digest"] for l, _ in side}
                   for side in per_side]
        changed = sorted(seed for seed in digests[0].keys() & digests[1]
                         if digests[0][seed] != digests[1][seed])
        if changed:
            failed = True
            print(f"{workload:19} {mode:8} output_digest CHANGED at seed(s) "
                  f"{', '.join(changed)}")
    return 1 if failed else 0


def validate(args) -> int:
    table = load_table(args.binary)
    declared = json.loads(pathlib.Path(args.benchmark).read_text())
    problems = []
    for scope in ("end_to_end", "per_layer"):
        emitted = {m["name"]: m for m in table["metrics"]
                   if m["scope"] == scope}
        listed = {m["name"]: m for m in declared[scope]}
        for name in sorted(emitted.keys() - listed.keys()):
            problems.append(f"{scope}: {name} emitted but not declared")
        for name in sorted(listed.keys() - emitted.keys()):
            problems.append(f"{scope}: {name} declared but not emitted")
        for name in sorted(emitted.keys() & listed.keys()):
            for key in ("unit", "better") + (("bound",) if scope ==
                                             "end_to_end" else ()):
                if emitted[name][key] != listed[name][key]:
                    problems.append(f"{scope}: {name} {key} is "
                                    f"{emitted[name][key]!r} in bench_suite "
                                    f"but {listed[name][key]!r} declared")
    workloads = {w["name"]: w["why"] for w in table["workloads"]}
    if workloads != {w["name"]: w["why"] for w in declared["workloads"]}:
        problems.append("workload names or rationales differ between "
                        "bench_suite and BENCHMARK.json")
    for labels, row in summaries(args.files):
        scope = "per_layer" if labels["mode"] == "traced" else "end_to_end"
        for name in (m["name"] for m in declared[scope]):
            if name not in row:
                problems.append(f"{labels['workload']} {labels['mode']}: "
                                f"{name} missing from its summary row")
    for problem in problems:
        print(problem)
    print("validate:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def bundle(args) -> int:
    invocations = [e for p in args.files
                   for e in envelopes(pathlib.Path(p))]
    labels = summaries(args.files)[0][0]
    out = {"compiler": labels["compiler"], "nproc": int(labels["nproc"]),
           "seed": invocations[0]["seed"], "build_type": "Release",
           "invocations": invocations}
    pathlib.Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"bundled {len(invocations)} invocations into {args.out}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--binary", default=DEFAULT_BINARY)
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--validate", action="store_true")
    parser.add_argument("--bundle", metavar="OUT", dest="out")
    parser.add_argument("paths", nargs="*")
    args = parser.parse_args()
    if args.validate:
        args.files = args.paths
        return validate(args)
    if args.out:
        args.files = args.paths
        return bundle(args) if args.files else parser.error("no files")
    if len(args.paths) != 2:
        parser.error("give PARENT and CHANGE")
    args.parent, args.change = args.paths
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
