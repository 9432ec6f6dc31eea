#!/usr/bin/env python3
"""Build bench_suite from source and run one workload.

Run from the root of a checkout:

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds bench/suite (CMake, Release) into
.bench_build/suite ($CARGO_TARGET_DIR overrides .bench_build); later calls
rebuild only what changed. bench_suite's output is relayed, and its last
line, one JSON object with the keys correct, attempted, failed and metrics,
is the last line printed. The full result envelope is written to
.bench_build/results/ (or --out), and with --trace 1 a Chrome trace to
.bench_build/traces/. Exits non-zero without a result when the library
sources are missing, the build fails, or the run fails its checks.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def run(command: list, env: dict, timeout: int, merge_stderr: bool):
    """Runs `command` in a process group of its own and returns (exit code,
    stdout). On timeout the whole group (a build's compilers included) is
    killed and reaped, and the exit code is None."""
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT if merge_stderr else None,
                          text=True, start_new_session=True) as process:
        try:
            output, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            return None, ""
    return process.returncode, output


def build_step(command: list, env: dict) -> bool:
    """Runs a build step; its output goes to stderr only when it fails."""
    code, output = run(command, env, BUILD_TIMEOUT_S, merge_stderr=True)
    if code != 0:
        sys.stderr.write(output)
    return code == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path,
                        help="result envelope path (default: "
                             ".bench_build/results/WORKLOAD-seedN-traceT.json)")
    args = parser.parse_args()
    if args.seed < 0 or not 0 <= args.seconds <= 3600:
        return fail("--seed must be >= 0 and --seconds within [0, 3600]")

    root = pathlib.Path.cwd()
    suite = root / "bench" / "suite"
    if not ((root / "src" / "core" / "session.h").is_file()
            and (root / "bench" / "bench_util.h").is_file()
            and (suite / "CMakeLists.txt").is_file()):
        return fail("library sources not found; run from the root of a "
                    "full checkout")

    out = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = out / "suite"
    tmp = out / "tmp"
    for directory in (build, tmp, out / "results", out / "traces"):
        directory.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(len(os.sched_getaffinity(0)))
    if not (build / "CMakeCache.txt").is_file() and not build_step(
            ["cmake", "-S", str(suite), "-B", str(build),
             "-DCMAKE_BUILD_TYPE=Release"], env):
        return fail("configure failed")
    if not build_step(["cmake", "--build", str(build), "-j", jobs,
                       "--target", "bench_suite"], env):
        return fail("build failed")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = args.out or out / "results" / (stem + ".json")
    result_path.parent.mkdir(parents=True, exist_ok=True)
    command = [str(build / "bench_suite"), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds:g}",
               f"--json={result_path}"]
    if args.trace:
        command.append(f"--trace={out / 'traces' / (stem + '.trace.json')}")
    code, output = run(command, env, RUN_TIMEOUT_S, merge_stderr=False)
    if code is None:
        return fail(f"bench_suite did not finish in {RUN_TIMEOUT_S} s")

    lines = output.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        keys_ok = isinstance(result, dict) and sorted(result) == [
            "attempted", "correct", "failed", "metrics"]
    except ValueError:
        keys_ok = False
    if not keys_ok:
        sys.stderr.write(output)
        return fail(f"bench_suite exited {code} without a result")
    print("\n".join(lines[:-1]))
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
