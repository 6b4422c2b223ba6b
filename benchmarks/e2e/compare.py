"""``python -m benchmarks.e2e.compare BASE.json NEW.json``

Compares two results files written by ``python -m benchmarks.e2e --out``:
one row per (end-to-end metric, workload) with both medians, quartiles
over the repeated runs, the ratio **with its base**, and a verdict under
the bounds fixed in ``BENCHMARK.json``:

* ``unresolved`` — the run-to-run spread (inter-quartile range ÷ median,
  the wider of the two sides) exceeds the metric's bound, so nothing can
  be said;
* ``worse`` — NEW's median is worse than BASE's by more than the bound;
* ``better`` — NEW's median is better by more than that spread (a claim
  still needs ≥ 10 alternating pairs, see the choosing-metrics guide);
* ``same`` — anything else.

Exits non-zero on any ``worse`` row or a higher ``fail_ratio``; refuses
``quick`` (selftest) files — they are not evidence.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Optional

from benchmarks.e2e.spec import load_spec

__all__ = ["compare", "main"]


def _load(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        results = json.load(fh)
    if results.get("schema") != "e2e-results/1" or not results.get("runs"):
        raise SystemExit(f"{path}: not a benchmarks.e2e results file with runs")
    if any(run.get("quick") for run in results["runs"]):
        raise SystemExit(f"{path}: holds quick (selftest) runs — refused, not evidence")
    return results


def _series(results: dict[str, Any], workload: str, metric: str) -> list[float]:
    values = []
    for run in results["runs"]:
        doc = run["workloads"].get(workload, {}).get("untraced")
        if doc is not None and metric in doc["end_to_end"]:
            values.append(doc["end_to_end"][metric]["value"])
    return values


def _fail_ratio(results: dict[str, Any], workload: str) -> Optional[float]:
    attempted = failed = 0
    for run in results["runs"]:
        for doc in run["workloads"].get(workload, {}).values():
            if isinstance(doc, dict) and "attempted" in doc:
                attempted += doc["attempted"]
                failed += doc["failed"]
    return failed / attempted if attempted else None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def compare(base: dict[str, Any], new: dict[str, Any], spec: dict[str, Any]) -> tuple[list[dict], int]:
    rows: list[dict[str, Any]] = []
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = _series(base, workload, name), _series(new, workload, name)
            if not a or not b:
                continue
            a_low, a_med, a_high = _quartiles(a)
            b_low, b_med, b_high = _quartiles(b)
            spread_a = (a_high - a_low) / a_med if a_med else 0.0
            spread_b = (b_high - b_low) / b_med if b_med else 0.0
            change = (b_med - a_med) / a_med if a_med else 0.0
            worse_by = change if metric["better"] == "lower" else -change
            if max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif -worse_by > max(spread_a, spread_b):
                verdict = "better"
            else:
                verdict = "same"
            if verdict == "worse":
                status = 1
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": {"median": a_med, "q1": a_low, "q3": a_high, "n": len(a)},
                "new": {"median": b_med, "q1": b_low, "q3": b_high, "n": len(b)},
                "ratio_new_over_base": b_med / a_med if a_med else None,
                "spread": max(spread_a, spread_b), "bound": bound, "verdict": verdict,
            })
        fail_a, fail_b = _fail_ratio(base, workload), _fail_ratio(new, workload)
        if fail_a is not None and fail_b is not None:
            verdict = "worse" if fail_b > fail_a else "same"
            if verdict == "worse":
                status = 1
            rows.append({
                "workload": workload, "metric": "fail_ratio", "unit": "ratio",
                "base": {"median": fail_a}, "new": {"median": fail_b},
                "ratio_new_over_base": None, "spread": 0.0, "bound": 0.0,
                "verdict": verdict,
            })
    return rows, status


def _print(rows: list[dict[str, Any]]) -> None:
    print(
        f"{'workload':<16}{'metric':<15}{'base median [q1..q3] n':<40}"
        f"{'new median [q1..q3] n':<40}{'new/base':>9}{'spread':>8}{'bound':>7}  verdict"
    )
    for row in rows:
        def side(s: dict[str, Any]) -> str:
            if "q1" not in s:
                return f"{s['median']:.6g}"
            return f"{s['median']:.5g} [{s['q1']:.5g}..{s['q3']:.5g}] n={s['n']}"

        ratio = row["ratio_new_over_base"]
        print(
            f"{row['workload']:<16}{row['metric']:<15}{side(row['base']):<40}"
            f"{side(row['new']):<40}"
            f"{'' if ratio is None else f'{ratio:.3f}x':>9}"
            f"{row['spread']:>8.1%}{row['bound']:>7.0%}  {row['verdict']}"
        )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.compare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--json", action="store_true", help="print the rows as JSON too")
    args = parser.parse_args(argv)
    rows, status = compare(_load(args.base), _load(args.new), load_spec())
    _print(rows)
    if args.json:
        print(json.dumps(rows))
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("verdicts:", ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return status


if __name__ == "__main__":
    sys.exit(main())
