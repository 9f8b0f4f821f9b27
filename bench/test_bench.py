"""Tests of the benchmark itself: input generation, output checks, the
traced-job bootstrap and the job launcher. Run with
`PYTHONPATH=src python -m pytest -q bench`."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def _spw(home: Path, *argv: str, traced: Path | None = None) -> subprocess.CompletedProcess:
    if traced is None:
        cmd = [sys.executable, "-m", "spwkit.cli", *argv]
    else:
        cmd = [sys.executable, str(run.BENCH_DIR / "trace_boot.py"), str(traced), *argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(cmd, cwd=home, env=env, capture_output=True, timeout=120)


@pytest.fixture(scope="module", params=inputs.WORKLOADS)
def workload(request, tmp_path_factory):
    """(name, inputs, directory holding them, stdout of one untraced job)."""
    name = request.param
    inp = inputs.generate(name, SEED, ROOT)
    home = tmp_path_factory.mktemp(name)
    inputs.write(inp, home)
    result = _spw(home, *inp.argv)
    assert result.returncode == 0, result.stderr.decode()
    return name, inp, home, result.stdout


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_same_seed_same_bytes(name):
    first = inputs.generate(name, SEED, ROOT)
    assert inputs.generate(name, SEED, ROOT).files == first.files
    assert inputs.generate(name, SEED + 1, ROOT).files != first.files


def test_triage_shape():
    shape = inputs.generate("register-triage", SEED, ROOT).shape
    assert shape["rows"] == 5000
    assert 0.65 < shape["rows_with_vector"] / shape["rows"] < 0.75
    assert 0.5 < shape["distinct_vectors"] / shape["rows_with_vector"] < 0.6


def test_register_validates(workload):
    _name, inp, home, _stdout = workload
    result = _spw(home, "validate", "register.csv")
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode() == f"{inp.shape['rows']} entries OK\n"


def test_report_passes_check(workload):
    name, inp, _home, stdout = workload
    checks.CHECKS[name](stdout, inp.expected)


def _corrupt_triage(stdout: bytes) -> bytes:
    lines = stdout.decode().splitlines(keepends=True)
    cells = lines[100].split(",")
    cells[-2] = "10.0" if cells[-2] != "10.0" else "9.9"
    lines[100] = ",".join(cells)
    return "".join(lines).encode()


def _corrupt_scenario(stdout: bytes) -> bytes:
    lines = stdout.decode().splitlines(keepends=True)
    row = next(i for i, ln in enumerate(lines) if ln.startswith("| S01 |"))
    cells = lines[row].split("|")
    cells[2] = f" {float(cells[2]) + 0.01:.2f} "
    lines[row] = "|".join(cells)
    return "".join(lines).encode()


def test_check_rejects_one_corrupted_cell(workload):
    name, inp, _home, stdout = workload
    corrupt = _corrupt_triage if name == "register-triage" else _corrupt_scenario
    with pytest.raises(checks.CheckError):
        checks.CHECKS[name](corrupt(stdout), inp.expected)


def test_traced_job_prints_the_same_report(workload, tmp_path):
    name, inp, home, stdout = workload
    spans_path = tmp_path / "spans.json"
    result = _spw(home, *inp.argv, traced=spans_path)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == stdout
    totals = run.layer_totals(json.loads(spans_path.read_text()))
    layers = run.job_layers(totals, inp.shape["target_refs"])
    assert layers["import.numpy_loaded"][0] == 1
    if name == "register-triage":
        assert layers["register.loads.calls"][0] == 1
        assert layers["register.get.calls"][0] == 0
        assert layers["cvss.parse_vector.calls"][0] == inp.shape["rows_with_vector"]
    else:
        assert layers["register.loads.calls"][0] == 2
        assert layers["register.get.calls"][0] > inp.shape["target_refs"]
        assert layers["spw.monte_carlo.samples"][0] == inp.shape["mc_nk"]


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 3], ["c", 2.0, 3.0, 1, 0],
             ["b", 5.0, 6.0, 0, 2]]
    totals = run.layer_totals(spans)
    assert totals["a.self_s"] == 6.0
    assert totals["b.self_s"] == 3.0
    assert totals["b.calls"] == 2 and totals["b.value"] == 5


def test_launcher_reports_only_the_job_peak_rss(tmp_path):
    # The test process's own peak must not show up in the job's ru_maxrss.
    ballast = bytearray(128 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])
    launcher = subprocess.Popen([sys.executable, str(run.BENCH_DIR / "launcher.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    request = {"cmd": [sys.executable, "-c", "pass"], "cwd": str(tmp_path),
               "env": dict(os.environ), "stdout": str(tmp_path / "out"),
               "stderr": str(tmp_path / "err")}
    reply, _ = launcher.communicate(json.dumps(request) + "\n", timeout=60)
    job = json.loads(reply)
    assert job["returncode"] == 0
    assert 0 < job["maxrss_kb"] < 64 * 1024 < len(ballast) // 1024


def test_tail_keeps_ten_samples_above():
    percentile, value = run.tail([float(i) for i in range(1, 41)])
    assert (percentile, value) == (75.0, 30.0)
