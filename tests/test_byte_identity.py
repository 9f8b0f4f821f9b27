"""Byte-identity: the benchmark workloads' reports and the scenarios' full
precision outcomes stay bit for bit the same.

For each workload of ``bench/inputs.py`` (loaded by path) and seeds 1 and 7,
the inputs are written to a temporary directory and ``spw`` runs on them
in-process. The SHA-256 of each input file and of stdout are compared with
``tests/data/byte_identity.json``. Hashing the inputs too tells a changed
generator, or a Python version's ``random``, apart from a changed report.

The reports print rounded values, so the table also pins ``float.hex`` of
each strategy's SG, power, SpW, both sigmas, SEI and SpW ratio for the
bundled S1 and S2 scenarios and the montecarlo-deep seed-1 input. After a
deliberate change, regenerate the table with
``PYTHONPATH=src python tests/test_byte_identity.py`` and review the diff.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from spwkit.cli import main
from spwkit.register import load_register
from spwkit.scenario import evaluate, load_scenario

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).parent / "data" / "byte_identity.json"
SEEDS = (1, 7)
BUNDLED_SCENARIOS = ("scenario_s1", "scenario_s2")


def _bench_inputs():
    spec = importlib.util.spec_from_file_location("_bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up while building the class
    spec.loader.exec_module(module)
    return module


inputs = _bench_inputs()
CASES = [f"{workload}:{seed}" for workload in inputs.WORKLOADS for seed in SEEDS]
OUTCOME_CASES = [*BUNDLED_SCENARIOS, "montecarlo-deep:1"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _generate(case: str, directory: Path):
    workload, seed = case.split(":")
    inp = inputs.generate(workload, int(seed), ROOT)
    inputs.write(inp, directory)
    return inp


def _report(case: str, directory: Path) -> dict:
    """The input files' and stdout's hashes for one workload and seed."""
    inp = _generate(case, directory)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)  # the workload's arguments are relative paths
    try:
        with contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(list(inp.argv))
    finally:
        os.chdir(cwd)
    assert code == 0, f"spw {' '.join(inp.argv)} exited {code}"
    return {"inputs": {name: _sha256(data) for name, data in sorted(inp.files.items())},
            "stdout": _sha256(out.getvalue().encode("utf-8"))}


def _outcomes(name: str, directory: Path) -> dict:
    """``float.hex`` of every strategy's full-precision figures."""
    if name in BUNDLED_SCENARIOS:
        path = ROOT / "src" / "spwkit" / "data" / f"{name}.json"
    else:
        _generate(name, directory)
        path = directory / "scenario.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scenario = load_scenario(path)
        report = evaluate(scenario, load_register(scenario.register_path))
    return {o.name: {"sg": o.sg.hex(), "power": o.power.total.hex(),
                     "power_uncertainty": o.power.uncertainty.hex(), "spw": o.spw.hex(),
                     "sigma_first_order": o.first_order.spw_sigma.hex(),
                     "sigma_monte_carlo": o.monte_carlo.spw_sigma.hex(),
                     "sei": o.sei_value.hex(), "spw_ratio": o.spw_ratio.hex()}
            for o in report.outcomes}


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_workload_report_is_byte_identical(case, table, tmp_path):
    got, pinned = _report(case, tmp_path), table["reports"][case]
    # Inputs first: a different input explains a different report.
    assert got["inputs"] == pinned["inputs"], "the generated inputs changed"
    assert got["stdout"] == pinned["stdout"]


@pytest.mark.parametrize("name", OUTCOME_CASES)
def test_outcomes_are_bit_identical(name, table, tmp_path):
    assert _outcomes(name, tmp_path) == table["outcomes"][name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        reports = {case: _report(case, Path(tmp) / case.replace(":", "-")) for case in CASES}
        outcomes = {name: _outcomes(name, Path(tmp) / "outcomes") for name in OUTCOME_CASES}
    TABLE.write_text(json.dumps({"reports": reports, "outcomes": outcomes}, indent=1) + "\n",
                     encoding="utf-8")
    print(f"wrote {TABLE}", file=sys.stderr)
