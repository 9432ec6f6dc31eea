#!/usr/bin/env python3
"""Sample a command's CPU time and print where it goes.

    profile.py [--top N] [--sampler PATH] -- COMMAND [ARG...]

Runs COMMAND with the sampling module (tools/profile/sampler.cpp, built as
libaheft_sampler.so) preloaded. The module records one call stack per
millisecond of CPU time, through shared libraries too, so allocation and
std::map node time land on their callers. Frames in the executable are
named with addr2line; frames in a shared library are grouped under the
library's name. Three tables follow, each ranked by share of all samples:

  self        the innermost frame of each sample
  inclusive   every function of the executable on the stack, counted
              once per sample
  library     samples whose innermost frame is in a shared library
              (libc, libstdc++, ...), by the first caller in the executable

Exits with COMMAND's status; nothing is printed when it fails.
"""

import argparse
import bisect
import collections
import os
import pathlib
import subprocess
import sys
import tempfile

DEFAULT_SAMPLER = "build/libaheft_sampler.so"


def load_dump(path: pathlib.Path):
    """(executable, mappings, stacks) of one sampler dump; a mapping is
    (start, end, offset, path) and a stack a list of ints, innermost
    first."""
    exe, mappings, stacks = "", [], []
    for line in path.read_text().splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "E":
            exe = rest
        elif kind == "M":
            fields = rest.split(maxsplit=5)
            start, end = (int(x, 16) for x in fields[0].split("-"))
            name = fields[5] if len(fields) == 6 else ""
            mappings.append((start, end, int(fields[2], 16), name))
        elif kind == "S":
            stacks.append([int(x, 16) for x in rest.split()])
    return exe, mappings, stacks


def load_bias(exe: str, mappings: list) -> int:
    """Address the executable is loaded at: its lowest mapping for a
    position-independent executable, zero for a fixed-address one."""
    with open(exe, "rb") as f:
        e_type = int.from_bytes(f.read(18)[16:18], "little")
    if e_type != 3:  # ET_DYN
        return 0
    return min(start for start, _, offset, name in mappings
               if name == exe and offset == 0)


def symbolize(exe: str, addresses: list) -> dict:
    """address -> function name, with one addr2line run."""
    if not addresses:
        return {}
    text = "\n".join(hex(a) for a in addresses) + "\n"
    out = subprocess.run(["addr2line", "-f", "-C", "-e", exe], input=text,
                         capture_output=True, text=True, check=True).stdout
    names = out.splitlines()[0::2]
    return {a: (n if n != "??" else f"{exe}+{a:#x}")
            for a, n in zip(addresses, names)}


def labelled_stacks(path: pathlib.Path) -> list:
    """The dump's stacks as lists of (label, in_executable) pairs."""
    exe, mappings, stacks = load_dump(path)
    mappings.sort()
    bias = load_bias(exe, mappings)

    starts = [start for start, _, _, _ in mappings]

    def mapping_of(address):
        i = bisect.bisect_right(starts, address) - 1
        if i >= 0 and address < mappings[i][1]:
            return mappings[i][3]
        return ""

    # A return address points after its call; step back into the call
    # (the innermost frame is the interrupted pc itself).
    wanted = set()
    placed = []
    for stack in stacks:
        frames = []
        for depth, address in enumerate(stack):
            name = mapping_of(address)
            if name == exe:
                vaddr = address - bias - (1 if depth else 0)
                wanted.add(vaddr)
                frames.append((vaddr, True))
            else:
                frames.append((f"[{os.path.basename(name) or 'unknown'}]",
                               False))
        placed.append(frames)
    names = symbolize(exe, sorted(wanted))
    return [[(names[f] if inside else f, inside) for f, inside in frames]
            for frames in placed]


def print_table(title: str, counts: collections.Counter, total: int,
                top: int) -> None:
    print(f"\n{title}")
    print(f"{'share':>7} {'samples':>8}  function")
    for label, count in counts.most_common(top):
        print(f"{100.0 * count / total:6.1f}% {count:8d}  {label}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--sampler", default=DEFAULT_SAMPLER)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    sampler = pathlib.Path(args.sampler).resolve()
    if not sampler.is_file():
        sys.exit(f"profile.py: {sampler} not found; build the aheft_sampler "
                 "target or pass --sampler")

    with tempfile.TemporaryDirectory() as workdir:
        env = dict(os.environ, LD_PRELOAD=str(sampler),
                   AHEFT_SAMPLER_OUT=str(pathlib.Path(workdir) / "samples"))
        status = subprocess.run(command, env=env).returncode
        if status != 0:
            return status
        stacks = [s for dump in sorted(pathlib.Path(workdir).iterdir())
                  for s in labelled_stacks(dump)]

    self_counts = collections.Counter()
    inclusive = collections.Counter()
    by_caller = collections.Counter()
    for frames in stacks:
        self_counts[frames[0][0]] += 1
        inclusive.update({label for label, inside in frames if inside})
        if not frames[0][1]:
            caller = next((label for label, inside in frames if inside),
                          "[no caller in the executable]")
            by_caller[f"{caller} -> {frames[0][0]}"] += 1
    total = len(stacks)
    if total == 0:
        sys.exit("profile.py: no samples; the command used no measurable CPU")
    print(f"\n{total} samples (1 ms of CPU time each)")
    print_table("self", self_counts, total, args.top)
    print_table("inclusive", inclusive, total, args.top)
    print_table("library time by first caller in the executable", by_caller,
                total, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
