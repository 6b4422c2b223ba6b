"""Command line of the end-to-end benchmark.

Two shapes of one command:

* ``--workload NAME --trace 0|1`` (``--traced`` = ``--trace 1``) runs
  **one pass in this process** and
  prints, as the last line of stdout, the result object the repository's
  ``BENCHMARK.json`` contract asks for (``correct``, ``attempted``,
  ``failed``, ``metrics``).
* otherwise it runs, for every workload (or the one named), an untraced
  pass and a traced pass (``--trace 0|1`` keeps one),
  **each in a fresh child process** (so ``peak_rss_mb`` and the shared
  reactor start clean), appends the run to the ``--out`` results file
  that ``benchmarks.e2e.compare`` reads, and ends its summary with
  ``"claim": null`` — this command measures, it claims nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from typing import Any, Optional

from benchmarks.e2e import layers
from benchmarks.e2e.harness import run_pass
from benchmarks.e2e.spec import OUT_DIR, PACKAGE_DIR, REPO_ROOT, load_spec
from benchmarks.e2e.workloads import WORKLOADS

__all__ = ["main"]

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DEPLOYMENT_NOTE = (
    "grid and load generator share one process; all traffic crossed the "
    "host's loopback interface, not a link"
)


def _parser(spec: dict[str, Any]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=int, default=spec["run_seconds"],
        help="length of the measured phase (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="only this pass: 0 end-to-end metrics, 1 per-layer (with --workload: in-process)",
    )
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1, help="runs to append (both-pass mode)")
    parser.add_argument("--out", help="result file (single pass: written; both passes: appended to)")
    parser.add_argument("--quick", action="store_true", help="2 s warm-up, 3 set-ups; stamped, never evidence")
    parser.add_argument("--selftest", action="store_true", help="every workload, 2 s + 2 s, schema check")
    return parser


# ---------------------------------------------------------------------------
# One pass, in this process
# ---------------------------------------------------------------------------


def _unit_table(spec: dict[str, Any], section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}


def contract_metrics(doc: dict[str, Any], spec: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """The ``metrics`` object of the contract: e2e when untraced, else per-layer."""
    if doc["traced"]:
        values = doc["per_layer"]
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit in _unit_table(spec, "per_layer").items()
        }
    values = doc["end_to_end"]
    return {
        name: {"value": values[name]["value"], "unit": unit}
        for name, unit in _unit_table(spec, "end_to_end").items()
    }


def print_pass(doc: dict[str, Any], spec: dict[str, Any]) -> None:
    name = doc["workload"]
    run = doc["run"]
    print(
        f"== {name} · {doc['loop']} loop, {doc['clients']} client thread(s) · "
        f"seed {doc['provenance']['seed']} · {'traced' if doc['traced'] else 'untraced'}"
        f"{' · QUICK (not evidence)' if doc['quick'] else ''}"
    )
    print(f"   {DEPLOYMENT_NOTE}")
    print(
        f"   warm-up {run['warmup_s']:g} s, measured {run['seconds']} s, "
        f"{run['setup_cycles']} set-ups, cipher {doc['provenance']['cipher_suite']}, "
        f"git {doc['provenance']['git_sha'] or 'n/a'}"
    )
    units = _unit_table(spec, "end_to_end")
    speed = doc["per_layer"]["bench.host_speed_ratio"]
    print(
        f"   times restated at reference CPU speed (this run's CPU ran at "
        f"{speed:.2f}x the reference); [as measured] beside each"
    )
    for key, entry in doc["end_to_end"].items():
        print(
            f"   {name:<16} {key:<44} {entry['value']:>14.4f} {units.get(key, ''):<6} "
            f"n={entry['n']}  [{doc['end_to_end_raw'][key]:.4f}]"
        )
    units = _unit_table(spec, "per_layer")
    for key, value in doc["per_layer"].items():
        print(f"   {name:<16} {key:<44} {value:>14.4f} {units.get(key, '')}")
    if "waterfall" in doc:
        layers.print_waterfall(
            name, doc["waterfall"], doc["per_layer"]["bench.traced_cpu_ms_per_op"]
        )
    print(
        f"   attempted {doc['attempted']}, failed {doc['failed']}, "
        f"valid {str(doc['valid']).lower()}"
    )
    for line in doc["violations"]:
        print(f"   VIOLATION: {line}")
    for line in doc["invalid_reasons"]:
        print(f"   INVALID: {line}", file=sys.stderr)


def run_single(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    doc = run_pass(args.workload, args.seed, args.seconds, bool(args.trace), quick=args.quick)
    print_pass(doc, spec)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": contract_metrics(doc, spec),
    }))
    # The burst guard's verdict travels in the document ("valid"); only
    # the both-pass command, which collects evidence, turns it into an
    # exit code — a single pass fails on wrong outputs alone.
    return 0 if doc["correct"] else 1


# ---------------------------------------------------------------------------
# Both passes, one child process each
# ---------------------------------------------------------------------------


def _child_pass(workload: str, seed: int, seconds: int, trace: int, quick: bool) -> Optional[dict]:
    """Run one pass in a fresh interpreter; its document, or None if it died."""
    os.makedirs(OUT_DIR, exist_ok=True)
    handle, path = tempfile.mkstemp(prefix="pass-", suffix=".json", dir=OUT_DIR)
    os.close(handle)
    command = [
        sys.executable, os.path.join(PACKAGE_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", path,
    ] + (["--quick"] if quick else [])
    try:
        done = subprocess.run(command, cwd=REPO_ROOT, timeout=600, check=False)
        if os.path.getsize(path) == 0:
            print(f"!! {workload} trace={trace}: child exited {done.returncode} "
                  f"without a result", file=sys.stderr)
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        print(f"!! {workload} trace={trace}: child timed out", file=sys.stderr)
        return None
    finally:
        os.unlink(path)


def run_both(args: argparse.Namespace, spec: dict[str, Any]) -> tuple[int, list[dict]]:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    passes = (0, 1) if args.trace is None else (args.trace,)
    out_path = args.out or os.path.join(OUT_DIR, "results.json")
    problems: list[str] = []
    runs: list[dict] = []
    for _ in range(args.repeat):
        run: dict[str, Any] = {"seed": args.seed, "quick": args.quick, "workloads": {}}
        for name in names:
            entry: dict[str, Any] = {}
            for trace in passes:
                doc = _child_pass(name, args.seed, args.seconds, trace, args.quick)
                label = "traced" if trace else "untraced"
                if doc is None:
                    problems.append(f"{name}/{label}: no result")
                    continue
                entry[label] = doc
                run.setdefault("provenance", doc["provenance"])
                if not doc["correct"]:
                    problems.append(f"{name}/{label}: {doc['failed']} of {doc['attempted']} failed")
                if not doc["valid"] and not args.quick:
                    problems.append(f"{name}/{label}: invalid — {'; '.join(doc['invalid_reasons'])}")
            if "untraced" in entry and "traced" in entry:
                base = entry["untraced"]["end_to_end"]["cpu_ms_per_op"]["value"]
                traced_cost = entry["traced"]["per_layer"]["bench.traced_cpu_ms_per_op"]
                entry["trace_overhead_ratio_across_passes"] = (
                    traced_cost / base if base else None
                )
            run["workloads"][name] = entry
        runs.append(run)
        _append_run(out_path, run)
    _print_summary(runs, spec, out_path, problems)
    return (1 if problems else 0), runs


def _append_run(path: str, run: dict[str, Any]) -> None:
    results = {"schema": "e2e-results/1", "runs": [], "claim": None}
    if os.path.exists(path) and os.path.getsize(path):
        with open(path, encoding="utf-8") as fh:
            results = json.load(fh)
    results["runs"].append(run)
    results["claim"] = None
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)


def _print_summary(runs: list[dict], spec: dict[str, Any], out_path: str,
                   problems: list[str]) -> None:
    units = _unit_table(spec, "end_to_end")
    print("\n== summary (last run; end-to-end metrics from the untraced pass)")
    summary: dict[str, Any] = {}
    for name, entry in runs[-1]["workloads"].items():
        doc = entry.get("untraced")
        row: dict[str, Any] = {}
        if doc is not None:
            for key, value in doc["end_to_end"].items():
                row[key] = value["value"]
                print(f"   {name:<16} {key:<16} {value['value']:>12.4f} {units.get(key, '')}")
            row["fail_ratio"] = doc["failed"] / doc["attempted"] if doc["attempted"] else 1.0
            row["valid"] = doc["valid"]
        ratio = entry.get("trace_overhead_ratio_across_passes")
        if ratio is not None:
            row["trace_overhead_ratio"] = ratio
            print(f"   {name:<16} trace_overhead_ratio {ratio:>8.3f} (traced ÷ untraced cpu_ms_per_op)")
        summary[name] = row
    for line in problems:
        print(f"   PROBLEM: {line}")
    print(f"   {DEPLOYMENT_NOTE}")
    print(f"   results appended to {os.path.relpath(out_path, os.getcwd())}")
    print(json.dumps({
        "runs": len(runs),
        "quick": runs[-1]["quick"],
        "loopback": True,
        "single_process": True,
        "problems": problems,
        "workloads": summary,
        "claim": None,
    }))


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------


def check_spec(spec: dict[str, Any]) -> list[str]:
    """BENCHMARK.json against the names this package knows."""
    errors = []
    for section in ("workloads", "end_to_end", "per_layer"):
        for item in spec[section]:
            if not _NAME.match(item["name"]):
                errors.append(f"{section}: bad name {item['name']!r}")
    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(WORKLOADS):
        errors.append(f"workloads differ: BENCHMARK.json {sorted(declared)} vs code {sorted(WORKLOADS)}")
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        errors.append("end_to_end lacks setup_s")
    return errors


def selftest(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    errors = check_spec(spec)
    args.quick, args.seconds, args.repeat = True, 2, 1
    args.trace = args.workload = None
    args.out = args.out or os.path.join(OUT_DIR, "selftest.json")
    if os.path.exists(args.out):
        os.unlink(args.out)
    status, runs = run_both(args, spec)
    for name, entry in runs[-1]["workloads"].items():
        for label, section in (("untraced", "end_to_end"), ("traced", "per_layer")):
            doc = entry.get(label)
            if doc is None:
                errors.append(f"{name}/{label}: pass produced no document")
                continue
            have = set(doc[section])
            want = {m["name"] for m in spec[section]}
            for missing in sorted(want - have):
                errors.append(f"{name}/{label}: metric {missing} named in BENCHMARK.json is absent")
            for extra in sorted(have - want):
                errors.append(f"{name}/{label}: metric {extra} is not in BENCHMARK.json")
            if not doc["quick"]:
                errors.append(f"{name}/{label}: selftest output is not stamped quick")
    for line in errors:
        print(f"SELFTEST: {line}", file=sys.stderr)
    print(f"selftest: {'FAILED' if errors or status else 'ok'}")
    return 1 if errors or status else 0


def main(argv: Optional[list[str]] = None) -> int:
    # Child passes write straight to the same stdout; keep the order.
    sys.stdout.reconfigure(line_buffering=True)  # type: ignore[union-attr]
    spec = load_spec()
    args = _parser(spec).parse_args(argv)
    if args.traced:
        args.trace = 1
    if args.selftest:
        return selftest(args, spec)
    if args.workload and args.trace is not None:
        return run_single(args, spec)
    return run_both(args, spec)[0]
