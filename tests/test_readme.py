"""The README's command-line and library examples run as shown."""

import re
import shlex
from importlib import resources
from pathlib import Path

import pytest

from spwkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(section: str) -> str:
    """The text under the ``## section`` heading."""
    return README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]


def _block(section: str, language: str) -> str:
    """The first ``language`` code block under the ``## section`` heading."""
    return re.search(rf"```{language}\n(.*?)```", _section(section), re.S).group(1)


# (argv, the output the README shows after "# -> ", or "")
COMMANDS = [(shlex.split(line, comments=True), line.partition("# -> ")[2])
            for line in _block("Command line", "sh").splitlines() if line.startswith("spw ")]


@pytest.fixture(autouse=True)
def _at_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("SPW_REGISTER", raising=False)


def test_every_subcommand_has_an_example():
    assert {argv[1] for argv, _ in COMMANDS} == {
        "validate", "score", "stats", "classify", "scenario", "checklist"}


@pytest.mark.filterwarnings("ignore::spwkit.errors.DefaultTierWarning")
@pytest.mark.parametrize("argv, shown", COMMANDS, ids=[" ".join(a[1:3]) for a, _ in COMMANDS])
def test_command_line_example(capsys, argv, shown):
    code = main(argv[1:])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out
    if shown:
        assert out.strip() == shown


def test_library_example():
    code = _block("Library", "python")
    namespace = {}
    exec(code, namespace)
    shown = re.findall(r"^(\S.*?)\s+# ([0-9.]+)\.\.\.$", code, re.M)
    assert shown
    for expression, prefix in shown:
        assert str(eval(expression, namespace)).startswith(prefix), expression


def test_bundled_data_list_matches_the_package():
    listed = re.findall(r"^\* `([^`]+)`", _section("Bundled data"), re.M)
    shipped = [f.name for f in (resources.files("spwkit") / "data").iterdir()]
    assert sorted(listed) == sorted(shipped)
