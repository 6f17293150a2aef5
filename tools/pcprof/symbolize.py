#!/usr/bin/env python3
"""Turn pcprof sample files into shares of the sampled time.

Usage:

    python3 tools/pcprof/symbolize.py [--top N] [--require REGEX] FILE...

Each FILE holds one `<object path> <hex address>` line per sample, as
pcprof.c writes them. Every distinct address is resolved once with
`addr2line -f -i -C`, which lists the inlined frames at that address from
the innermost outwards. After a per-object table, five tables follow,
each a share of all samples:

* inner: the innermost frame's function (where the instruction came
  from, after inlining);
* outer: the outermost frame's function (the symbol the code was
  compiled into);
* inclusive: every function anywhere in the inline chain, counted once
  per sample;
* line: the innermost frame's `file:line`;
* inclusive line: every `file:line` anywhere in the inline chain,
  counted once per sample (how to find the cost of one call site, such
  as an index operator, summed over everything inlined into it).

With `--require REGEX` the script also prints the share of samples with
a frame whose function or `file:line` matches REGEX (a union over the
inline chain, so several lines of one call site count a sample once),
and exits 1 if there is none.
"""

import argparse
import collections
import re
import subprocess
import sys


def resolve(obj, addrs):
    """Map each address of `obj` to its inline chain, innermost first, as
    a list of (function, "file:line") pairs."""
    out = {a: [("?", "?")] for a in addrs}
    if obj == "?" or not addrs:
        return out
    proc = subprocess.run(
        ["addr2line", "-e", obj, "-a", "-f", "-i", "-C"],
        input="\n".join(addrs) + "\n", capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return out
    lines = proc.stdout.splitlines()
    i = 0
    for a in addrs:
        # `-a` echoes each address first: it delimits the frame pairs.
        while i < len(lines) and not lines[i].startswith("0x"):
            i += 1
        i += 1
        frames = []
        while i + 1 < len(lines) and not lines[i].startswith("0x"):
            func, loc = lines[i], lines[i + 1]
            loc = loc.split(" (discriminator")[0]
            frames.append((func, loc))
            i += 2
        if frames:
            out[a] = frames
    return out


def short_loc(loc):
    """Trim a path to the part a reader recognises (`crates/sim/src/...`
    for workspace files, the file name for the rest)."""
    for marker in ("/crates/", "/perfbench/", "/library/"):
        k = loc.find(marker)
        if k >= 0:
            return loc[k + 1:]
    return loc.rsplit("/", 1)[-1]


def table(title, counter, total, top):
    print(f"\n== {title} ({total} samples) ==")
    for name, n in counter.most_common(top):
        print(f"{100.0 * n / total:6.2f}%  {n:8d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--require", metavar="REGEX")
    args = ap.parse_args()

    samples = collections.Counter()
    for path in args.files:
        with open(path) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2:
                    samples[(parts[0], parts[1])] += 1
    total = sum(samples.values())
    if total == 0:
        print("no samples", file=sys.stderr)
        return 1

    by_obj = collections.defaultdict(list)
    for obj, addr in samples:
        by_obj[obj].append(addr)
    chains = {}
    for obj, addrs in by_obj.items():
        for addr, frames in resolve(obj, addrs).items():
            chains[(obj, addr)] = frames

    inner, outer, incl, per_line, incl_line, per_obj = (
        collections.Counter() for _ in range(6))
    required = 0
    pattern = re.compile(args.require) if args.require else None
    for key, n in samples.items():
        frames = chains[key]
        per_obj[key[0].rsplit("/", 1)[-1]] += n
        inner[frames[0][0]] += n
        outer[frames[-1][0]] += n
        for func in {f for f, _ in frames}:
            incl[func] += n
        per_line[short_loc(frames[0][1])] += n
        for loc in {short_loc(loc) for _, loc in frames}:
            incl_line[loc] += n
        if pattern and any(pattern.search(f) or pattern.search(short_loc(loc))
                           for f, loc in frames):
            required += n

    table("object", per_obj, total, args.top)
    table("inner function", inner, total, args.top)
    table("outer function", outer, total, args.top)
    table("inclusive function", incl, total, args.top)
    table("source line", per_line, total, args.top)
    table("inclusive source line", incl_line, total, args.top)
    if pattern:
        print(f"\n{100.0 * required / total:.2f}% ({required} of {total}) of samples "
              f"in frames matching {args.require!r}")
        if required == 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
