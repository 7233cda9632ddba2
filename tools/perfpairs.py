#!/usr/bin/env python3
"""Run perfbench on a base revision and on the working tree in alternating pairs.

    python3 tools/perfpairs.py --base REV --workload W [--pairs 10]
        [--seconds 20] [--seed 0] [--trace 0|1]

Run it from the repository root (`make perf-pairs BASE=REV WORKLOAD=W` does).
REV is exported with `git archive` into .bench_pairs/<commit>/, once per
commit. Each pair runs `python3 perfbench/run.py` once in that tree and once
in the working tree, switching which side goes first from pair to pair, so
slow drift in the host's speed lands on both sides alike.

Both sides must run identical benchmark code: the tool refuses to start when
`git diff --quiet REV -- perfbench BENCHMARK.json` fails.

For every metric the runs report, it prints each side's median, q1 and q3,
the pairs the working tree won, and the median change. For the end-to-end
metrics (--trace 0) it also flags a working-tree median worse than the
base's by more than the metric's BENCHMARK.json bound, and says whether the
gain clears the claim rule: better in at least nine of ten pairs, and a
median gap wider than the base's q3 - q1. Exit status: 0 when every run
passed its checks and no metric is past its bound, 1 otherwise, 2 on a
usage or set-up error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from statistics import median, quantiles

ROOT = os.getcwd()
PAIRS_DIR = os.path.join(ROOT, ".bench_pairs")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev):
    """Return a directory holding rev's tree, exporting it on first use."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    dest = os.path.join(PAIRS_DIR, commit)
    if os.path.isdir(dest):
        return commit, dest
    os.makedirs(PAIRS_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="export-", dir=PAIRS_DIR)
    try:
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        os.rename(tmp, dest)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return commit, dest


def run_once(tree, args):
    """Run perfbench once in tree; return its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit("perfpairs: perfbench failed in %s (exit %d)" % (tree, p.returncode))
    return json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return median(values), q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    if subprocess.run(["git", "diff", "--quiet", args.base, "--", "perfbench", "BENCHMARK.json"],
                      cwd=ROOT).returncode != 0:
        print("perfpairs: perfbench/ or BENCHMARK.json differs from %s; both sides must run "
              "the same benchmark" % args.base, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    commit, base_tree = export(args.base)

    headline = "core.run_ns_per_cycle" if args.trace else "ns_per_cycle"
    sides = {"base": base_tree, "change": ROOT}
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(sides[side], args))
        got = {s: runs[s][-1]["metrics"].get(headline, {}).get("value") for s in runs}
        print("perfpairs: pair %d/%d (%s first): %s base %s, change %s"
              % (i + 1, args.pairs, order[0], headline, got["base"], got["change"]), file=sys.stderr)

    print("%s, seed %d, %d pairs at --seconds %g, --trace %d; base %s vs working tree"
          % (args.workload, args.seed, args.pairs, args.seconds, args.trace, commit[:12]))
    ok = True
    for side in ("base", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        print("%-6s passes %d, failed %d, correct %s" % (side, attempted, failed, correct))
        ok = ok and correct and failed == 0
    print("%-34s %28s %28s %6s %8s  %s" % ("metric", "base median [q1, q3]",
                                         "change median [q1, q3]", "won", "change", "verdict"))
    names = [n for n in runs["base"][0]["metrics"] if all(n in r["metrics"] for r in
                                                            runs["base"] + runs["change"])]
    for name in names:
        spec = specs.get(name, {})
        lower = spec.get("better", "lower") == "lower"
        b = [r["metrics"][name]["value"] for r in runs["base"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        won = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
        (bm, bq1, bq3), (cm, cq1, cq3) = spread(b), spread(c)
        delta = (cm - bm) / bm if bm else 0.0
        worse = delta if lower else -delta
        verdict = ""
        if "bound" in spec:
            verdict = "PAST BOUND %.0f%%" % (100 * spec["bound"]) if worse > spec["bound"] else "within bound"
            ok = ok and worse <= spec["bound"]
            claim = won >= -(-9 * args.pairs // 10) and abs(cm - bm) > bq3 - bq1 and worse < 0
            verdict += "; gain clears the claim rule" if claim else ""
        print("%-34s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %3d/%-2d %+7.1f%%  %s"
              % (name, bm, bq1, bq3, cm, cq1, cq3, won, args.pairs, 100 * delta, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
