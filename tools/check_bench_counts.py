#!/usr/bin/env python3
"""Gate bench_suite's deterministic work counts against committed pins.

Usage: check_bench_counts.py --binary=BENCH_SUITE PINS RESULT [RESULT ...]
       check_bench_counts.py --binary=BENCH_SUITE --write PINS RESULT [...]

Each RESULT is a `bench_suite --json` file of one workload from a
`--trace` run (only traced runs report the per-layer counts) at seed 42,
the pins' seed. PINS holds one `WORKLOAD METRIC VALUE` line per exact
per-layer metric of `bench_suite --list=json`; `#` starts a comment. A
count is exact: the same code and seed give the same value on every host,
so any difference is a change in the work the code does.

The check fails (exit 1), naming the workload and the counter, when a
count differs from its pin, when a result lacks a pinned count, when an
exact per-layer metric of the listing has no pin, when a pin names a
counter the listing no longer has, or when a pinned workload has no
result. --write replaces PINS with the RESULTs' counts instead; a change
that moves a count on purpose regenerates the file in its own diff. It
refuses (exit 2) unless a RESULT is given for every workload PINS already
holds, so a partial rerun cannot drop a workload's pins. Exit 2 on bad
usage.
"""
import json
import os
import subprocess
import sys

SEED = 42
HEADER = f"""\
# bench_suite's exact per-layer counts at --seed={SEED}, from --trace runs:
# one "WORKLOAD METRIC VALUE" line each. tools/check_bench_counts.py gates
# CI on them; a change that moves a count on purpose regenerates this file
# with its --write mode.
"""


def exact_counters(binary):
    listing = json.loads(subprocess.run([binary, "--list=json"],
                                        capture_output=True, text=True,
                                        check=True).stdout)
    return [m["name"] for m in listing["metrics"]
            if m["exact"] and m["scope"] == "per_layer"]


def summary(path):
    with open(path) as handle:
        report = json.load(handle)
    if report["seed"] != SEED:
        sys.exit(f"{path}: seed {report['seed']}, the pins are at {SEED}")
    for row in report["rows"]:
        if row["labels"].get("stat") == "summary":
            return row["labels"]["workload"], row["metrics"]
    sys.exit(f"{path}: no summary row")


def read_pins(path):
    pins = {}
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            if len(fields) != 3:
                sys.exit(f"{path}:{number}: want WORKLOAD METRIC VALUE")
            pins[(fields[0], fields[1])] = fields[2]
    return pins


def main(argv):
    binary, write, paths = None, False, []
    for arg in argv[1:]:
        if arg.startswith("--binary="):
            binary = arg[len("--binary="):]
        elif arg == "--write":
            write = True
        elif arg.startswith("--"):
            print(f"unknown flag {arg}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if binary is None or len(paths) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counters = exact_counters(binary)
    results = dict(summary(path) for path in paths[1:])

    if write:
        pinned = (read_pins(paths[0]) if os.path.exists(paths[0]) else {})
        dropped = sorted({w for w, _ in pinned} - results.keys())
        if dropped:
            print(f"--write: no result given for pinned workload(s) "
                  f"{', '.join(dropped)}", file=sys.stderr)
            return 2
        with open(paths[0], "w") as handle:
            handle.write(HEADER)
            for workload, metrics in results.items():
                for counter in counters:
                    handle.write(f"{workload} {counter} "
                                 f"{metrics[counter]!r}\n")
        return 0

    pins = read_pins(paths[0])
    failures = []
    for workload in sorted({w for w, _ in pins} - results.keys()):
        failures.append(f"{workload}: pinned, but no result given")
    for workload, counter in sorted(pins):
        if counter not in counters:
            failures.append(f"{workload}: {counter} is pinned, but not an "
                            "exact per-layer counter of the listing")
    for workload, metrics in results.items():
        for counter in counters:
            pinned = pins.get((workload, counter))
            value = metrics.get(counter)
            if pinned is None:
                failures.append(f"{workload}: {counter} has no pin")
            elif value is None:
                failures.append(f"{workload}: {counter} missing from the "
                                "result (was it a --trace run?)")
            elif float(value) != float(pinned):
                failures.append(f"{workload}: {counter} is {value!r}, "
                                f"pinned {pinned}")
    for failure in failures:
        print(failure)
    print(f"checked {len(counters)} counters on {len(results)} workload(s): "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
