"""The package's public namespace."""

from pathlib import Path

import numpy
import pytest

import spwkit

from .test_cli import run_python

DATA = Path(spwkit.__file__).parent / "data"


def fresh(*args: str) -> tuple[str, str]:
    """stdout and stderr of a fresh Python process that imports this spwkit."""
    proc = run_python(*args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


def test_every_public_name_resolves():
    missing = [name for name in spwkit.__all__ if not hasattr(spwkit, name)]
    assert missing == []


def test_public_names_are_unique():
    assert len(spwkit.__all__) == len(set(spwkit.__all__))


@pytest.mark.parametrize("module", ["spwkit", "spwkit.cli"])
def test_import_loads_no_scenario_stats_or_json(module):
    code = f"import sys, {module}; print(*sorted(sys.modules))"
    loaded = set(fresh("-c", code)[0].split())
    assert {"spwkit.scenario", "spwkit.stats", "json"} & loaded == set()


@pytest.mark.parametrize("argv, loads_scenario", [
    (["validate", "register_42.csv"], False),
    (["score", "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"], False),
    (["classify", "register_42.csv"], False),
    (["stats", "register_42.csv"], False),
    (["checklist"], False),
    (["scenario", "scenario_s2.json"], True),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_only_the_scenario_subcommand_imports_scenario(argv, loads_scenario):
    argv = [str(DATA / a) if a.endswith((".csv", ".json")) else a for a in argv]
    stderr = fresh("-X", "importtime", "-m", "spwkit.cli", *argv)[1]
    imported = {ln.rpartition("|")[2].strip() for ln in stderr.splitlines()}
    assert ("spwkit.scenario" in imported) == loads_scenario


@pytest.mark.parametrize("first", [
    "import spwkit.spw", "from spwkit.spw import spw", "import spwkit; spwkit.evaluate"])
def test_spw_stays_the_function(first):
    code = f"{first}\nimport spwkit\nprint(spwkit.spw(6.48, (0.18, 0.02)).spw)"
    assert float(fresh("-c", code)[0]) == pytest.approx(36.0)


def test_star_import_binds_every_public_name():
    code = ("from spwkit import *\nimport spwkit\n"
            "print(*[n for n in spwkit.__all__ if n not in globals()])")
    assert fresh("-c", code)[0].split() == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        spwkit.nope


def test_cli_import_leaves_importlib_resources_unloaded():
    # -S skips site hooks that may load importlib.resources themselves.
    code = (f"import sys; sys.path.append({str(Path(numpy.__file__).parents[1])!r})\n"
            "import spwkit.cli\n"
            "print('importlib.resources' in sys.modules, len(spwkit.load_bundled_register()))")
    assert fresh("-S", "-c", code)[0].split() == ["False", "42"]
