"""``tools/perfpairs.py`` against a scripted stand-in for the benchmark.

The fake replaces :func:`perfpairs.module`: each benchmark pass writes
the next scripted attempt for its (side, seed), and ``compare`` exits 0.
No benchmark runs and no git export happens.
"""

from __future__ import annotations

import json
import subprocess

import pytest

from tools import perfpairs


def _doc(value: float, valid: bool = True, correct: bool = True) -> dict:
    return {
        "provenance": {},
        "correct": correct,
        "valid": valid,
        "invalid_reasons": [] if valid else ["hypervisor steal"],
        "end_to_end": {"ops_per_s": {"value": value}},
    }


class FakeBenchmark:
    """Plays ``python -m benchmarks.e2e --workload W --trace T`` from a script.

    ``script[(side, seed, trace)]`` lists one pass document per attempt;
    ``None`` writes no result at all.
    """

    def __init__(self, script: dict) -> None:
        self.script = script
        self.calls: dict = {}

    def __call__(self, tree, *args, **kwargs):
        if args[0] == "benchmarks.e2e.compare":
            return subprocess.CompletedProcess(args, 0)
        side = "new" if tree == perfpairs.REPO else "base"
        key = (side, int(args[args.index("--seed") + 1]), int(args[args.index("--trace") + 1]))
        attempt = self.calls.get(key, 0)
        self.calls[key] = attempt + 1
        doc = self.script[key][attempt]
        if doc is not None:
            with open(args[args.index("--out") + 1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return subprocess.CompletedProcess(args, 0 if doc and doc["correct"] else 1)


def _run(monkeypatch, tmp_path, script, *extra) -> tuple[int, FakeBenchmark]:
    fake = FakeBenchmark(script)
    monkeypatch.setattr(perfpairs, "module", fake)
    monkeypatch.setattr(perfpairs, "export", lambda ref, dest: None)
    argv = ["BASE", "--pairs", "2", "--workloads", "rpc_small",
            "--scratch", str(tmp_path / "pp"), *extra]
    return perfpairs.main(argv), fake


def test_flagged_passes_are_rerun_and_the_last_attempt_kept(monkeypatch, tmp_path, capsys):
    script = {
        ("base", 1, 0): [_doc(100, valid=False), _doc(101)],
        ("base", 1, 1): [_doc(1)],
        ("new", 1, 0): [_doc(110)],
        ("new", 1, 1): [_doc(1)],
        ("new", 2, 0): [_doc(210)],
        ("new", 2, 1): [_doc(2)],
        ("base", 2, 0): [_doc(v, valid=False) for v in (200, 201, 202)],
        ("base", 2, 1): [_doc(2, valid=False), _doc(2)],
    }
    status, fake = _run(monkeypatch, tmp_path, script, "--claim", "ops_per_s:rpc_small")
    assert fake.calls == {key: len(attempts) for key, attempts in script.items()}
    assert len(script[("base", 2, 0)]) == perfpairs.FLAGGED_RERUNS + 1
    scratch = tmp_path / "pp"
    # One run per side per pair, holding the last attempt of each pass.
    assert perfpairs.series(str(scratch / "base.json"), "rpc_small", "ops_per_s") == [101, 202]
    assert perfpairs.series(str(scratch / "new.json"), "rpc_small", "ops_per_s") == [110, 210]
    out = capsys.readouterr().out
    assert "flagged passes kept: pair 2 base rpc_small/untraced\n" in out
    assert "won 2/2 pairs" in out
    assert status == 1  # two wins, but the gap is inside the base IQR


def test_no_flagged_pass_is_reported_as_none(monkeypatch, tmp_path, capsys):
    script = {(side, seed, trace): [_doc(seed)]
              for side in ("base", "new") for seed in (1, 2) for trace in (0, 1)}
    status, _ = _run(monkeypatch, tmp_path, script)
    assert status == 0
    assert "flagged passes kept: none" in capsys.readouterr().out


@pytest.mark.parametrize("bad", [_doc(1, correct=False), None], ids=["wrong", "missing"])
def test_wrong_or_missing_results_stop_perfpairs(monkeypatch, tmp_path, bad):
    script = {("base", 1, 0): [_doc(1)], ("base", 1, 1): [_doc(1)],
              ("new", 1, 0): [bad, _doc(1)]}
    with pytest.raises(SystemExit, match="wrong outputs|no result"):
        _run(monkeypatch, tmp_path, script)
