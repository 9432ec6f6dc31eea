#!/usr/bin/env python3
"""Gate the pump-scaling bench against the committed baseline.

Usage: check_pump_baseline.py BASELINE.json CURRENT.json [FACTOR]

Rows are matched by their full label set; a row regresses when its
micros_per_event exceeds FACTOR (default 3.0) times the baseline's.
Rows without a micros_per_event metric (e.g. the sparse-stream epoch
row) and rows absent from the baseline (new axes) are ignored, so
extending the bench never trips the gate. A baseline row with
micros_per_event that the current run lacks is an error: a label
change must never shrink the gate silently.

Exit status: 0 clean, 1 on any regression or missing row, 2 when
nothing matched (wrong file pair or a label-schema change that must be
reflected by regenerating the baseline).
"""
import json
import sys


def rows_by_labels(path):
    with open(path) as handle:
        report = json.load(handle)
    return {tuple(sorted(r["labels"].items())): r["metrics"]
            for r in report["rows"]}


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    factor = float(argv[3]) if len(argv) == 4 else 3.0
    baseline = rows_by_labels(argv[1])
    current = rows_by_labels(argv[2])

    matched = 0
    regressions = []
    missing = []
    for key, reference in baseline.items():
        then = reference.get("micros_per_event")
        if then is None:
            continue
        now = current.get(key, {}).get("micros_per_event")
        if now is None:
            missing.append(dict(key))
            continue
        matched += 1
        if now > factor * then:
            regressions.append((dict(key), then, now))

    if matched == 0:
        print("no rows matched the committed baseline; regenerate it with "
              "`bench_pump_scaling --smoke --json=BENCH_pump.json` (Release)",
              file=sys.stderr)
        return 2
    for labels, then, now in regressions:
        print(f"REGRESSION {labels}: {then:.3f} -> {now:.3f} us/event "
              f"(bound {factor:.1f}x)")
    for labels in missing:
        print(f"MISSING {labels}: baseline row absent from the current run")
    print(f"checked {matched} rows against baseline: "
          f"{len(regressions)} regression(s), {len(missing)} missing")
    return 1 if regressions or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
