"""``python tools/perfpairs.py BASE_REF [--pairs 10] [--claim ops_per_s:rpc_small] [--workloads a,b]``

The choosing-metrics rule for a claimed gain, as one command: N
alternating pairs of ``python -m benchmarks.e2e --trace 0`` on BASE_REF
and on this working tree (which side runs first flips every pair; pair i
runs both sides with seed i), then ``benchmarks.e2e.compare`` over the
two result files, then — for the claimed ``metric:workload`` cell — how
many pairs the change won (each pair's two values are printed) and
whether the medians differ by more than the base's inter-quartile spread.

``--workloads rpc_small,wms_drain`` runs only those (``python -m
benchmarks.e2e --workload W`` per name, both passes, same result files)
— a loop for iterating, ≈ 2–3 min per pair; evidence for a claim is the
full five-workload run, which is what happens without the flag.

BASE_REF is exported with ``git archive`` into ``--scratch`` (default
``/root/scratch/perfpairs``), so the repository gains no worktree entry.
Exit status: compare's, or 1 when a claim was given and not met.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def module(tree: str, *args: str, **kwargs) -> subprocess.CompletedProcess:
    """``python -m ARGS`` inside ``tree``, importing that tree's ``repro`` and ``benchmarks``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(tree, "src"), tree]))
    return subprocess.run([sys.executable, "-m", *args], cwd=tree, env=env, **kwargs)


def series(path: str, workload: str, metric: str) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    return [r["workloads"][workload]["untraced"]["end_to_end"][metric]["value"]
            for r in runs if workload in r["workloads"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base_ref")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", help="METRIC:WORKLOAD, e.g. ops_per_s:rpc_small")
    parser.add_argument("--workloads", help="comma-separated subset; default: all, in one run")
    parser.add_argument("--scratch", default="/root/scratch/perfpairs")
    args = parser.parse_args()
    if args.claim and args.pairs < 2:
        parser.error("--claim needs at least 2 pairs (an inter-quartile spread)")

    base_tree = os.path.join(args.scratch, "base")
    shutil.rmtree(args.scratch, ignore_errors=True)
    os.makedirs(base_tree)
    archive = subprocess.run(["git", "archive", args.base_ref], cwd=REPO,
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
    sides = {"base": (base_tree, os.path.join(args.scratch, "base.json")),
             "new": (REPO, os.path.join(args.scratch, "new.json"))}
    selections = ([["--workload", name] for name in args.workloads.split(",")]
                  if args.workloads else [["--trace", "0"]])
    for pair in range(1, args.pairs + 1):
        order = ("base", "new") if pair % 2 else ("new", "base")
        for side in order:
            print(f"pair {pair}/{args.pairs}: {side}", flush=True)
            tree, out = sides[side]
            for only in selections:
                module(tree, "benchmarks.e2e", *only, "--seed", str(pair), "--out", out,
                       check=True, stdout=subprocess.DEVNULL)

    status = module(REPO, "benchmarks.e2e.compare", sides["base"][1], sides["new"][1]).returncode
    if not args.claim:
        return status
    metric, _, workload = args.claim.partition(":")
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        higher = {m["name"]: m["better"] == "higher" for m in json.load(fh)["end_to_end"]}[metric]
    base = series(sides["base"][1], workload, metric)
    new = series(sides["new"][1], workload, metric)
    wins = sum((n > b) if higher else (n < b) for b, n in zip(base, new))
    ties = sum(n == b for b, n in zip(base, new))
    q1, _, q3 = statistics.quantiles(base, n=4)
    gap = statistics.median(new) - statistics.median(base)
    met = wins * 10 >= 9 * len(base) and (gap if higher else -gap) > q3 - q1
    print(f"claim {args.claim}, base -> change per pair: "
          + ", ".join(f"{b:.5g} -> {n:.5g}" for b, n in zip(base, new)))
    print(f"claim {args.claim}: change won {wins}/{len(base)} pairs ({ties} ties); "
          f"medians {statistics.median(base):.5g} -> {statistics.median(new):.5g}, "
          f"base IQR {q3 - q1:.5g}: {'met' if met else 'NOT met'}")
    return status or (0 if met else 1)


if __name__ == "__main__":
    sys.exit(main())
