#!/usr/bin/env python3
"""Gate the pump-scaling bench against the committed baseline.

Usage: check_pump_baseline.py [--factor=F] BASELINE.json CURRENT.json
                              [CURRENT.json ...]

Rows are matched by their full label set. Each row's micros_per_event is
the median over the CURRENT files (one file per bench process), so one
slow process cannot fail the gate alone; a row regresses when that
median exceeds F (default 3.0) times the baseline's. Rows without a
micros_per_event metric (e.g. the sparse-stream epoch row) and rows
absent from the baseline (new axes) are ignored, so extending the bench
never trips the gate. A baseline row with micros_per_event that any
current file lacks is an error: a label change must never shrink the
gate silently.

Exit status: 0 clean, 1 on any regression or missing row, 2 on bad
usage or when nothing matched (wrong file pair or a label-schema change
that must be reflected by regenerating the baseline).
"""
import json
import statistics
import sys


def rows_by_labels(path):
    with open(path) as handle:
        report = json.load(handle)
    return {tuple(sorted(r["labels"].items())): r["metrics"]
            for r in report["rows"]}


def main(argv):
    factor = 3.0
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--factor="):
            factor = float(arg[len("--factor="):])
        else:
            paths.append(arg)
    if len(paths) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline = rows_by_labels(paths[0])
    currents = [rows_by_labels(path) for path in paths[1:]]

    matched = 0
    regressions = []
    missing = []
    for key, reference in baseline.items():
        then = reference.get("micros_per_event")
        if then is None:
            continue
        runs = [current.get(key, {}).get("micros_per_event")
                for current in currents]
        if None in runs:
            missing.append(dict(key))
            continue
        matched += 1
        now = statistics.median(runs)
        if now > factor * then:
            regressions.append((dict(key), then, now, runs))

    if matched == 0:
        print("no rows matched the committed baseline; regenerate it with "
              "`bench_pump_scaling --smoke --json=BENCH_pump.json` (Release)",
              file=sys.stderr)
        return 2
    for labels, then, now, runs in regressions:
        spread = ", ".join(f"{run:.3f}" for run in runs)
        print(f"REGRESSION {labels}: {then:.3f} -> {now:.3f} us/event "
              f"(median of {spread}; bound {factor:.1f}x)")
    for labels in missing:
        print(f"MISSING {labels}: baseline row absent from a current run")
    print(f"checked {matched} rows against baseline (median of "
          f"{len(currents)} run(s)): {len(regressions)} regression(s), "
          f"{len(missing)} missing")
    return 1 if regressions or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
