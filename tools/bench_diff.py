#!/usr/bin/env python3
"""Diff the committed BENCH_*.json metrics between two git revisions.

The repo pins benchmark results as small JSON files (BENCH_simulator.json,
BENCH_table2.json, ...). This tool compares every numeric
leaf between a baseline revision (default: HEAD) and the working tree — or
any two revisions — and reports regressions and improvements with their
relative change.

Direction is inferred from the metric name: latencies and miss counts are
lower-is-better, throughputs and speedups higher-is-better; metrics whose
direction is unknown are listed as neutral changes. Exit code is always 0
unless --gate is given: the step is informational by default so CI can
surface perf drift on every PR without blocking merges on noisy runners.

Usage:
  tools/bench_diff.py                      # HEAD vs working tree
  tools/bench_diff.py --base origin/main   # branch-point comparison
  tools/bench_diff.py --base HEAD~5 --rev HEAD
  tools/bench_diff.py --gate 0.25          # fail on >25% regression
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

# Substrings that decide whether a metric should go down or up. Checked in
# order; first hit wins. Names carry units in this repo (seconds, _ms,
# per_sec), so substring matching is reliable.
LOWER_IS_BETTER = ("_ms", "seconds", "misses", "evictions", "bytes", "cycles",
                   "energy_nj", "fallbacks")
HIGHER_IS_BETTER = ("per_sec", "per_s", "speedup", "hits", "cells", "savings")
# Configuration/identity fields: differences are reported as "changed", not
# scored — a different request count makes timings incomparable anyway.
NEUTRAL = ("format_version", "requests", "workers", "reps", "host_cpus",
           "procs", "points", "threads", "seeds")


def repo_root():
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True, check=True)
    return Path(out.stdout.strip())


def bench_files(root, rev):
    """Names of BENCH_*.json present at `rev` (None = working tree)."""
    if rev is None:
        return sorted(p.name for p in root.glob("BENCH_*.json"))
    out = subprocess.run(["git", "ls-tree", "--name-only", rev],
                         cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        return []
    return sorted(n for n in out.stdout.splitlines()
                  if n.startswith("BENCH_") and n.endswith(".json"))


def load(root, rev, name):
    if rev is None:
        try:
            return json.loads((root / name).read_text())
        except (OSError, json.JSONDecodeError):
            return None
    out = subprocess.run(["git", "show", f"{rev}:{name}"],
                         cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        return None
    try:
        return json.loads(out.stdout)
    except json.JSONDecodeError:
        return None


def flatten(value, prefix=""):
    """Yield (dotted_path, number) for every numeric leaf."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield prefix, float(value)
    elif isinstance(value, dict):
        for key, child in value.items():
            yield from flatten(child, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from flatten(child, f"{prefix}[{i}]")


def direction(path):
    leaf = path.rsplit(".", 1)[-1].lower()
    for token in NEUTRAL:
        if token in leaf:
            return 0
    for token in LOWER_IS_BETTER:
        if token in leaf:
            return -1
    for token in HIGHER_IS_BETTER:
        if token in leaf:
            return +1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="baseline git revision (default: HEAD)")
    parser.add_argument("--rev", default=None,
                        help="comparison revision (default: working tree)")
    parser.add_argument("--gate", type=float, default=None, metavar="FRAC",
                        help="exit 1 if any scored metric regresses by more "
                             "than FRAC (e.g. 0.25 = 25%%)")
    parser.add_argument("--min-delta", type=float, default=0.02,
                        help="ignore relative changes below this (default 2%%)")
    args = parser.parse_args()

    root = repo_root()
    names = sorted(set(bench_files(root, args.base)) |
                   set(bench_files(root, args.rev)))
    if not names:
        print("bench-diff: no BENCH_*.json files found")
        return 0

    regressions, wins, neutral = [], [], []
    for name in names:
        old_doc = load(root, args.base, name)
        new_doc = load(root, args.rev, name)
        if old_doc is None or new_doc is None:
            side = "baseline" if old_doc is None else "comparison"
            print(f"bench-diff: {name}: missing in {side}, skipped")
            continue
        old = dict(flatten(old_doc))
        new = dict(flatten(new_doc))
        for path in sorted(old.keys() & new.keys()):
            a, b = old[path], new[path]
            if a == b:
                continue
            rel = math.inf if a == 0 else (b - a) / abs(a)
            if abs(rel) < args.min_delta:
                continue
            entry = (name, path, a, b, rel)
            sign = direction(path)
            if sign == 0:
                neutral.append(entry)
            elif (rel > 0) == (sign < 0):
                regressions.append(entry)
            else:
                wins.append(entry)

    rev_label = args.rev or "working tree"

    def show(title, entries):
        if not entries:
            return
        print(f"\n{title}:")
        for name, path, a, b, rel in sorted(entries, key=lambda e: -abs(e[4])):
            print(f"  {name}:{path}: {a:g} -> {b:g}  ({rel:+.1%})")

    print(f"bench-diff: {args.base} vs {rev_label} "
          f"({len(names)} file(s), threshold {args.min_delta:.0%})")
    show("regressions", regressions)
    show("improvements", wins)
    show("other changes (direction unknown)", neutral)
    if not (regressions or wins or neutral):
        print("no metric moved beyond the threshold")

    if args.gate is not None:
        over = [e for e in regressions if abs(e[4]) > args.gate]
        if over:
            print(f"\nbench-diff: FAIL — {len(over)} metric(s) regressed "
                  f"beyond {args.gate:.0%}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
