"""Every ``REPRO_*`` switch the code reads is in README's switch table.

A switch is a second code path somebody must test; this keeps one from
coming back (or a dead one lingering in the docs) unnoticed.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SWITCH = re.compile(r"REPRO_[A-Z_]+")


def _switches_in_code() -> set[str]:
    files = [ROOT / "conftest.py", *(ROOT / "src").rglob("*.py")]
    return {
        name
        for path in files
        for name in SWITCH.findall(path.read_text(encoding="utf-8"))
    }


def _switches_in_readme_table() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Environment switches\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(rf"^\| `({SWITCH.pattern})`", section, re.MULTILINE))


def test_readme_switch_table_matches_the_code():
    assert _switches_in_readme_table() == _switches_in_code()
