"""Golden outputs: reports on the bundled data stay byte-identical.

Each case runs the CLI in-process and compares stdout with a committed
file under ``tests/data/golden/``. After a deliberate output change,
regenerate the files with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import contextlib
import io
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest

from spwkit.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
FORMATS = ("md", "csv", "text")


def _data(name: str) -> str:
    return str(resources.files("spwkit") / "data" / name)


def _cases() -> dict[str, list[str]]:
    cases = {}
    for fmt in FORMATS:
        for scenario in ("s1", "s2"):
            cases[f"scenario_{scenario}_paper_check.{fmt}"] = [
                "scenario", _data(f"scenario_{scenario}.json"), "--paper-check",
                "--format", fmt]
        for command in ("classify", "stats"):
            cases[f"{command}_register_42.{fmt}"] = [
                command, _data("register_42.csv"), "--format", fmt]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code == 0, f"spw {' '.join(argv)} exited {code}"
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.delenv("SPW_REGISTER", raising=False)
    expected = (GOLDEN_DIR / name).read_bytes()
    assert _run(CASES[name]).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN_DIR / name).write_bytes(_run(argv).encode("utf-8"))
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
