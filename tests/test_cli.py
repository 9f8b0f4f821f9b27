"""CLI contract: subcommands, exit codes, streams and output formats."""

import codecs
import csv
import errno
import gc
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import spwkit

from spwkit.cli import main
from spwkit.register import COLUMNS, load_register
from spwkit.report import classify_report

HEADER = ",".join(COLUMNS)


@pytest.fixture(autouse=True)
def _no_ambient_register(monkeypatch):
    monkeypatch.delenv("SPW_REGISTER", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env(*unset):
    """The environment of a fresh process that imports this spwkit."""
    env = {k: v for k, v in os.environ.items() if k not in ("SPW_REGISTER", *unset)}
    env["PYTHONPATH"] = str(Path(spwkit.__file__).parent.parent)
    return env


def run_python(*args):
    """Run Python as a fresh process that imports this spwkit; stdout and
    stderr come back as bytes."""
    return subprocess.run([sys.executable, *args], capture_output=True, env=_child_env(),
                          timeout=60)


def run_process(*argv):
    """Run ``spw`` as a fresh process; stdout and stderr come back as bytes."""
    return run_python("-m", "spwkit.cli", *argv)


class TestValidate:
    def test_fixture_register(self, capsys, tmp_path, register_path):
        noted = tmp_path / "noted.csv"  # a comment and a blank line before the header
        noted.write_bytes(b"# note\n\n" + register_path.read_bytes())
        for path in (register_path, noted):
            assert run(capsys, "validate", str(path)) == (0, "42 entries OK\n", "")

    def test_duplicate_id(self, capsys, tmp_path):
        bad = tmp_path / "dup.csv"
        row = "A1,t,comms,S,,,5.0,availability,,,,"
        bad.write_text(f"{HEADER}\n{row}\n{row}\n", encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "A1" in err
        assert out == ""

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "absent.csv"))
        assert code == 2
        assert "absent.csv" in err

    @pytest.mark.parametrize("reason", [errno.ENOENT, errno.EISDIR], ids=["missing", "directory"])
    def test_unreadable_path_is_quoted_as_given(self, capsys, tmp_path, monkeypatch, reason):
        monkeypatch.chdir(tmp_path)
        if reason == errno.EISDIR:
            (tmp_path / "regs.csv").mkdir()
        code, out, err = run(capsys, "validate", "regs.csv")
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read register file regs.csv: "
                       f"[Errno {reason}] {os.strerror(reason)}: 'regs.csv'\n")

    def test_read_error_is_an_input_fault(self, capsys, register_path, monkeypatch):
        def fail(self, size=-1):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr("spwkit.register._CountingFile.read", fail)
        assert run(capsys, "validate", str(register_path)) == (
            2, "", f"error: cannot read register file {register_path}: "
                   "[Errno 5] Input/output error\n")

    def test_env_var_default(self, capsys, register_path, monkeypatch):
        monkeypatch.setenv("SPW_REGISTER", str(register_path))
        code, out, _ = run(capsys, "validate")
        assert code == 0
        assert "42 entries OK" in out

    def test_no_register_anywhere(self, capsys):
        code, _, err = run(capsys, "validate")
        assert code == 2
        assert "SPW_REGISTER" in err

    def test_undecodable_file(self, capsys, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(f"{HEADER}\nA1,caf\xe9,comms,S,,,5.0,availability,,,,\n".encode("latin-1"))
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""
        assert "latin1.csv" in err and "internal error" not in err

    @pytest.mark.parametrize("bad, shown", [
        (b"\xff", "byte 0xff in position 70001:"),
        (b"\xf0\x9f\x98(", "bytes in position 70001-70003:"),
    ], ids=["one-byte", "cut-sequence"])
    def test_undecodable_bytes_after_64_kb(self, capsys, tmp_path, bad, shown):
        rows = "".join(f"A{i},t,comms,S,,,5.0,availability,,,,\n" for i in range(3000))
        data = f"{HEADER}\n{rows}".encode("utf-8")
        path = tmp_path / "late.csv"
        path.write_bytes(data[:70_001] + bad + data[70_001:])
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "late.csv" in err and shown in err
        assert "internal error" not in err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_undecodable_fifo_does_not_block(self, tmp_path, register_path):
        # Once its writer has left, reopening the FIFO to decode it whole
        # would wait for another writer forever.
        fifo = tmp_path / "register.fifo"
        os.mkfifo(fifo)
        data = register_path.read_bytes()[:10_000] + b"\xff"
        # A daemon thread: its open() waits for a reader the child may never start.
        threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True).start()
        with subprocess.Popen([sys.executable, "-m", "spwkit.cli", "validate", str(fifo)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=_child_env()) as proc:
            try:
                out, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert (proc.returncode, out, err.count(b"\n")) == (2, b"", 1)
        assert err.startswith(b"error: ")

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_undecodable_stdin_pipe(self):
        proc = subprocess.run([sys.executable, "-m", "spwkit.cli", "validate", "/dev/stdin"],
                              input=b"id,title\n\xff\xfe bad\n", capture_output=True,
                              env=_child_env(), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr.count(b"\n")) == (2, b"", 1)
        assert proc.stderr.startswith(b"error: cannot read register file /dev/stdin: "
                                      b"'utf-8' codec can't decode byte 0xff in position ")

    def test_over_long_cell(self, capsys, tmp_path):
        bad = tmp_path / "long.csv"
        row = "A1,t,comms,S,,,5.0,availability," + "x" * 200_000 + ",,,"
        bad.write_text(f"{HEADER}\n{row}\n", encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""
        assert "row 2" in err and "internal error" not in err


class TestScore:
    def test_zero_impact(self, capsys):
        code, out, _ = run(capsys, "score",
                           "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N")
        assert code == 0
        assert out.strip() == "0.0 None"

    def test_corpus_vector(self, capsys):
        from .cvss_oracle import load_corpus
        vector, score, severity = load_corpus()[100]
        code, out, _ = run(capsys, "score", vector)
        assert code == 0
        assert out.strip() == f"{score:.1f} {severity}"

    def test_malformed(self, capsys):
        code, _, err = run(capsys, "score", "CVSS:3.1/AV:N")
        assert code == 2
        assert "missing" in err.lower()


class TestStats:
    def test_fixture_table(self, capsys, register_path):
        code, out, _ = run(capsys, "stats", str(register_path))
        assert code == 0
        assert "| Ground segment | 10 | 8.2 | 8.4 | 1.4 |" in out
        assert "| Onboard computing | 11 | 6.9 | 6.8 | 1.7 |" in out
        assert "| Communications | 12 | 8.0 | 8.2 | 2.0 |" in out
        assert "| Network/constellation | 9 | 7.5 | 7.3 | 1.3 |" in out

    def test_empty_register(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(HEADER + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "stats", str(empty))
        assert code == 0
        assert "Severity summary" in out

    def test_single_entry(self, capsys, tmp_path):
        one = tmp_path / "one.csv"
        one.write_text(f"{HEADER}\nA1,t,obc,S,,,5.0,availability,,,,\n",
                       encoding="utf-8")
        code, out, _ = run(capsys, "stats", str(one))
        assert code == 0
        assert "| Onboard computing | 1 | 5.0 | 5.0 | 0.0 |" in out

    def test_csv_and_markdown_agree_on_numbers(self, capsys, register_path):
        _, md, _ = run(capsys, "stats", str(register_path), "--format", "md")
        _, as_csv, _ = run(capsys, "stats", str(register_path), "--format", "csv")
        number = re.compile(r"\d+\.\d|\b\d+\b")
        assert number.findall(md) == number.findall(as_csv)


class TestClassify:
    @pytest.mark.filterwarnings("ignore::spwkit.errors.DefaultTierWarning")
    def test_fixture(self, capsys, register_path):
        code, out, _ = run(capsys, "classify", str(register_path))
        assert code == 0
        assert "| C1 |" in out and "| High |" in out
        assert "| C3 |" in out and "| Low |" in out

    def test_bundled_register_warns_once_per_other_only_entry(self, register_path):
        proc = run_process("classify", str(register_path))
        assert proc.returncode == 0, proc.stderr
        golden = Path(__file__).parent / "data" / "golden" / "classify_register_42.md"
        assert proc.stdout == golden.read_bytes()
        assert proc.stderr.decode("utf-8").splitlines() == [
            f"warning: DefaultTierWarning: entry {entry_id} tagged only 'other'; "
            "defaulting to low tier" for entry_id in ("G9", "O7")]

    def test_a_later_rows_fault_prints_no_earlier_warning(self, tmp_path):
        # Every row parses before any row is tiered, so the 'other'-only O1
        # never warns when C2 fails validation.
        path = tmp_path / "register.csv"
        path.write_text(f"{HEADER}\nO1,t,obc,S,,,5.0,other,,,,\n"
                        "C2,t,payload,S,,,5.0,availability,,,,\n", encoding="utf-8")
        proc = run_process("classify", str(path))
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: row C2: unknown subsystem 'payload'\n"

    def test_report_stdout_cannot_encode(self, tmp_path):
        path = tmp_path / "register.csv"
        path.write_text(f"{HEADER}\nC1,Café link,comms,S,,,9.0,command_integrity,,,,\n",
                        encoding="utf-8")
        env = {**_child_env(), "PYTHONIOENCODING": "ascii"}
        proc = subprocess.run([sys.executable, "-m", "spwkit.cli", "classify", str(path)],
                              capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"error: 'ascii' codec can't encode character ")
        assert proc.stderr.count(b"\n") == 1


def test_triage_never_imports_numpy_random(register_path):
    """``numpy.random`` (and the OpenSSL it pulls in through ``secrets``) is
    for the Monte Carlo sigma only; importing the CLI and classifying a
    register must not load it."""
    script = ("import sys; import spwkit.cli\n"
              "before = 'numpy.random' in sys.modules\n"
              "code = spwkit.cli.main(['classify', sys.argv[1]])\n"
              "print(before, 'numpy.random' in sys.modules, code, file=sys.stderr)")
    proc = run_python("-c", script, str(register_path))
    assert proc.stderr.decode("utf-8").splitlines()[-1] == "False False 0"


def _strategy(name, *controls):
    """A strategy on C1 layering one control per (id, watts) pair, each with rrf 0.5."""
    return {
        "name": name,
        "controls": [{"id": c, "rrf": 0.5, "power": [{"label": c, "p_base_w": watts}]}
                     for c, watts in controls],
        "targets": [{"vuln_id": "C1", "p": 0.5, "m": 1.0}],
        "criteria": {"latency": 0.5, "storage": 0.5, "complexity": 0.5},
    }


class TestScenarioSummary:
    """The Summary row of a scenario with three strategies, the baseline listed second."""

    def summary(self, capsys, tmp_path, register_path, strategies):
        doc = {
            "name": "three-way", "register": str(register_path), "baseline": "base",
            "weights": {"alpha": 0.4, "beta": 0.3, "gamma": 0.2, "delta": 0.1},
            "strategies": strategies,
        }
        path = tmp_path / "three.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path), "--format", "csv")
        assert code == 0, err
        header, row = csv.reader(out.split("# Summary\n")[1].splitlines())
        return dict(zip(header, row))

    def test_names_the_highest_ratio_candidate(self, capsys, tmp_path, register_path):
        row = self.summary(capsys, tmp_path, register_path, [
            _strategy("low", ("L", 1.0)),
            _strategy("base", ("B1", 1.0), ("B2", 1.0)),
            _strategy("high", ("H1", 0.25), ("H2", 0.25)),
        ])
        assert row["Key Controls"] == "H1 + H2 vs B1 + B2"
        assert row["SpW Advantage"] == "4.00x"
        assert row["Power Saving"] == "75%"
        assert row["Principal Finding"].startswith("high delivers 4.00x the per-watt "
                                                   "security of base while using 75%")

    def test_tie_goes_to_the_first_listed_candidate(self, capsys, tmp_path, register_path):
        row = self.summary(capsys, tmp_path, register_path, [
            _strategy("first", ("F", 4.0)),
            _strategy("base", ("B", 2.0)),
            _strategy("second", ("S", 4.0)),
        ])
        assert row["Key Controls"] == "F vs B"
        assert row["SpW Advantage"] == "0.50x"
        assert row["Principal Finding"].startswith("first delivers")


class TestScenario:
    def test_s1_summary(self, capsys, scenario_s1_path):
        code, out, err = run(capsys, "scenario", str(scenario_s1_path))
        assert code == 0, err
        assert "2.74x" in out
        assert "65%" in out

    def test_s2_summary(self, capsys, scenario_s2_path):
        code, out, _ = run(capsys, "scenario", str(scenario_s2_path))
        assert code == 0
        assert "1.98x" in out
        assert "55%" in out
        assert "10.5%" in out

    def test_self_comparison(self, capsys, tmp_path, register_path):
        import json
        (tmp_path / "register.csv").write_text(
            register_path.read_text(encoding="utf-8"), encoding="utf-8")
        strategy = {
            "name": "a",
            "controls": [{"id": "X", "rrf": 0.5,
                          "power": [{"label": "l", "p_base_w": 1.0}]}],
            "targets": [{"vuln_id": "C1", "p": 0.5, "m": 1.0}],
            "criteria": {"latency": 0.5, "storage": 0.5, "complexity": 0.5},
        }
        doc = {
            "name": "self", "register": "register.csv", "baseline": "a",
            "weights": {"alpha": 0.4, "beta": 0.3, "gamma": 0.2, "delta": 0.1},
            "strategies": [strategy, {**strategy, "name": "b"}],
        }
        path = tmp_path / "self.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "scenario", str(path))
        assert code == 0
        assert "1.00x" in out
        assert "0%" in out

    def test_paper_check_flags(self, capsys, scenario_s2_path):
        code, out, _ = run(capsys, "scenario", str(scenario_s2_path),
                           "--paper-check", "--format", "text")
        assert code == 0
        assert "pass" in out
        assert "FLAG paper-stated" in out
        # the published index value that the weighted sum does not reproduce
        assert "1.666" in out and "1.704" in out

    def test_paper_check_strategy_missing_from_scenario(self, capsys, tmp_path,
                                                        scenario_s1_path):
        doc = json.loads(scenario_s1_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s1_path.parent / doc["register"])
        doc["strategies"][0]["name"] = "ECC-v2"
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(capsys, "scenario", str(path))[0] == 0
        code, out, err = run(capsys, "scenario", str(path), "--paper-check")
        assert code == 2
        assert out == ""
        assert "'ECC'" in err and "internal error" not in err

    def test_seed_determinism(self, capsys, scenario_s2_path):
        _, first, _ = run(capsys, "scenario", str(scenario_s2_path), "--seed", "5")
        _, second, _ = run(capsys, "scenario", str(scenario_s2_path), "--seed", "5")
        assert first == second

    def test_csv_and_markdown_agree_on_numbers(self, capsys, scenario_s2_path):
        _, md, _ = run(capsys, "scenario", str(scenario_s2_path), "--format", "md")
        _, as_csv, _ = run(capsys, "scenario", str(scenario_s2_path),
                           "--format", "csv")
        number = re.compile(r"\d+\.\d+")
        assert number.findall(md) == number.findall(as_csv)

    def test_layered_controls_without_reference_figures(self, capsys, tmp_path,
                                                        register_path):
        control = {"id": "X", "rrf": 0.5, "power": [{"label": "x", "p_base_w": 1.0}]}
        single = {
            "name": "single", "controls": [control],
            "targets": [{"vuln_id": "C1", "p": 0.5, "m": 1.0}],
            "criteria": {"latency": 0.5, "storage": 0.5, "complexity": 0.5},
        }
        second = {"id": "Y", "rrf": 0.5, "power": [{"label": "y", "p_base_w": 0.5}]}
        doc = {
            "name": "unpublished", "register": str(register_path), "baseline": "single",
            "weights": {"alpha": 0.4, "beta": 0.3, "gamma": 0.2, "delta": 0.1},
            "strategies": [single, {**single, "name": "layered",
                                    "controls": [control, second]}],
        }
        path = tmp_path / "layered.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path), "--paper-check")
        assert code == 0, err
        assert ("## Layered controls\n\n"
                "Effective RRF composed as 1 - prod(1 - rrf) for: layered\n") in out
        assert out.endswith("## Published-figure check\n\n"
                            "No published reference figures on file for this scenario.\n")

    @pytest.mark.parametrize("scenario, argv, n_a", [
        ("scenario_s1_path", ("--format", "md"), 2),  # one per strategy
        ("scenario_s1_path", ("--format", "csv"), 2),
        ("scenario_s1_path", ("--format", "text"), 2),
        ("scenario_s2_path", ("--paper-check", "--format", "csv"), 3),  # and the checked row
    ], ids=["md", "csv", "text", "paper-check"])
    def test_sei_ratio_of_a_zero_baseline_index(self, capsys, request, tmp_path, scenario,
                                                argv, n_a):
        scenario_path = request.getfixturevalue(scenario)
        doc = json.loads(scenario_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_path.parent / doc["register"])
        for strategy in doc["strategies"]:  # SpW rounds to 0.00 and every criterion is 0
            strategy["targets"] = [{**strategy["targets"][0], "p": 0.0001, "m": 0.0001}]
            strategy["criteria"] = {"latency": 0.0, "storage": 0.0, "complexity": 0.0}
        path = tmp_path / "zero_index.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path), *argv)
        assert code == 0, err
        assert "nan" not in out
        assert len(re.findall(r"\bn/a\b", out)) == n_a
        if "--paper-check" in argv:
            assert "sei_ratio[DSP],n/a,2.07,FLAG paper-stated (not reproduced)" in out

    def test_byte_order_mark_accepted(self, capsys, tmp_path, scenario_s1_path):
        doc = json.loads(scenario_s1_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s1_path.parent / doc["register"])
        path = tmp_path / "bom.json"
        path.write_bytes(codecs.BOM_UTF8 + json.dumps(doc).encode("utf-8"))
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 0, err
        assert out == run(capsys, "scenario", str(scenario_s1_path))[1]

    def test_missing_file(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 2
        assert out == ""
        assert f"cannot read scenario file {path}" in err and "internal error" not in err

    def test_null_byte_in_path(self, capsys):
        code, out, err = run(capsys, "scenario", "a\x00b.json")
        assert (code, out) == (2, "")
        assert err == "error: cannot read scenario file a\x00b.json: embedded null byte\n"

    def test_broken_scenario(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}", encoding="utf-8")
        code, _, err = run(capsys, "scenario", str(path))
        assert code == 2
        assert "missing key" in err


    def test_negative_seed_option(self, capsys, scenario_s2_path):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", str(scenario_s2_path), "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_negative_seed_in_file(self, capsys, tmp_path, scenario_s2_path):
        doc = json.loads(scenario_s2_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s2_path.parent / doc["register"])
        doc["seed"] = -1
        path = tmp_path / "negative_seed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 2
        assert out == ""
        assert "seed" in err and "internal error" not in err

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "\xff"}')
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 2
        assert out == ""
        assert "latin1.json" in err and "internal error" not in err

    def test_decode_error_position_counts_the_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "bom_latin1.json"
        path.write_bytes(codecs.BOM_UTF8 + b'{"name": "\xff"}')
        code, out, err = run(capsys, "scenario", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: {path} is not valid JSON: 'utf-8' codec can't decode "
                       "byte 0xff in position 13: invalid start byte\n")

    def test_too_deeply_nested_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1

    def test_over_long_integer(self, capsys, tmp_path, scenario_s2_path):
        doc = json.loads(scenario_s2_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s2_path.parent / doc["register"])
        doc["seed"] = 0
        text = json.dumps(doc).replace('"seed": 0', '"seed": ' + "1" * 5001)
        path = tmp_path / "long_seed.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 2
        assert out == ""
        assert "long_seed.json" in err and "internal error" not in err

    def test_non_finite_power(self, capsys, tmp_path, scenario_s2_path):
        doc = json.loads(scenario_s2_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s2_path.parent / doc["register"])
        doc["strategies"][0]["controls"][0]["power"][0]["env_factor"] = float("inf")
        path = tmp_path / "infinite.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "scenario", str(path))
        assert code == 2
        assert "env_factor" in err and "internal error" not in err

    @pytest.mark.parametrize("p_base", [[1e308, 1e308], [1e-320]],
                             ids=["total-overflows", "spw-overflows"])
    def test_power_overflow_names_the_strategy(self, tmp_path, scenario_s1_path, p_base):
        # A subprocess, so that a numpy RuntimeWarning would reach stderr.
        doc = json.loads(scenario_s1_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s1_path.parent / doc["register"])
        strategy = next(s for s in doc["strategies"] if s["name"] != doc["baseline"])
        strategy["controls"][0]["power"] = [
            {"label": f"c{i}", "p_base_w": p} for i, p in enumerate(p_base)]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_process("scenario", str(path))
        err = proc.stderr.decode()
        assert proc.returncode == 2, err
        assert proc.stdout == b""
        assert err.startswith(f"error: strategy '{strategy['name']}': ")
        assert "RuntimeWarning" not in err

    def test_spw_ratio_overflow_names_the_strategy(self, capsys, tmp_path, scenario_s1_path):
        # Both SpWs are finite; only the ECC-to-baseline ratio overflows.
        doc = json.loads(scenario_s1_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s1_path.parent / doc["register"])
        for strategy in doc["strategies"]:
            if strategy["name"] == doc["baseline"]:
                for target in strategy["targets"]:
                    target["p"] = 1e-200
            else:
                strategy["controls"][0]["power"] = [{"label": "tiny", "p_base_w": 1e-200}]
        path = tmp_path / "ratio_overflow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: strategy 'ECC': SpW ratio ")
        assert err.endswith(" is not finite\n") and err.count("\n") == 1

    @pytest.mark.parametrize("figure, base_watts", [
        ("SEI ratio", None), ("security reduction", 1e-300), ("power saving", 1e-310)])
    def test_comparison_figure_overflow_names_the_strategy(self, capsys, tmp_path,
                                                           scenario_s1_path, figure, base_watts):
        # Every SpW and the SpW ratio stay finite; only the figure overflows, as printed.
        doc = json.loads(scenario_s1_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s1_path.parent / doc["register"])
        ecc, base = doc["strategies"]  # ECC against the RSA-2048 baseline
        if base_watts is None:  # 1.0 / 1e-310
            doc["weights"] = {"alpha": 0, "beta": 0, "gamma": 0, "delta": 1}
            base["criteria"]["complexity"], ecc["criteria"]["complexity"] = 1e-310, 1.0
        else:  # a tiny baseline gain (-9.97e307 at 1e-300 W) and power (-1.8e309 at 1e-310 W)
            base["targets"] = [{**t, "p": 1e-300, "m": 1e-8} for t in base["targets"]]
            base["controls"][0]["power"] = [
                {"label": "tiny", "p_base_w": base_watts, "uncertainty_w": 0}]
        path = tmp_path / "figure_overflow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: strategy 'ECC': {figure} is not finite\n"

    @pytest.mark.filterwarnings("default::spwkit.errors.DuplicatePowerLabelWarning")
    def test_duplicate_power_label_warning_line(self, capsys, tmp_path, scenario_s1_path):
        doc = json.loads(scenario_s1_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s1_path.parent / doc["register"])
        strategy = doc["strategies"][0]
        power = strategy["controls"][0]["power"]
        power.append(dict(power[0]))
        path = tmp_path / "duplicate_label.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "scenario", str(path))
        assert code == 0, err
        assert err == (
            f"warning: DuplicatePowerLabelWarning: strategy '{strategy['name']}' "
            f"lists power label '{power[0]['label']}' more than once; "
            "shared components must not be double-counted\n")

    @pytest.mark.filterwarnings("default::spwkit.errors.DuplicatePowerLabelWarning")
    def test_warning_naming_a_strategy_with_line_breaks(self, capsys, tmp_path,
                                                         scenario_s1_path):
        doc = json.loads(scenario_s1_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s1_path.parent / doc["register"])
        strategy = doc["strategies"][0]
        strategy["name"] = "ECC\n## injected"
        power = strategy["controls"][0]["power"]
        power.append(dict(power[0]))
        path = tmp_path / "duplicate_label.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "scenario", str(path))
        assert code == 0, err
        assert err == (
            "warning: DuplicatePowerLabelWarning: strategy 'ECC\\n## injected' "
            f"lists power label '{power[0]['label']}' more than once; "
            "shared components must not be double-counted\n")

    def test_error_naming_a_strategy_with_line_breaks(self, capsys, tmp_path, scenario_s1_path):
        doc = json.loads(scenario_s1_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s1_path.parent / doc["register"])
        strategy = doc["strategies"][0]
        strategy["name"] = "ECC\r\n## injected"
        strategy["controls"][0]["power"][0]["duty_cycle"] = 0.0
        path = tmp_path / "zero_power.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path))
        assert (code, out) == (2, "")
        assert err == ("error: strategy 'ECC\\r\\n## injected': "
                       "operational power 0.0 W must be > 0\n")

    @pytest.mark.parametrize("field", ["name", "label"])
    def test_lone_surrogate_in_a_string(self, tmp_path, scenario_s1_path, field):
        # A subprocess, because only a real stdout fails to encode the report.
        doc = json.loads(scenario_s1_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s1_path.parent / doc["register"])
        if field == "label":
            doc["strategies"][0]["controls"][0]["power"][0]["label"] = "\ud800"
        else:
            doc[field] = "\ud800"
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_process("scenario", str(path))
        err = proc.stderr.decode("utf-8", "backslashreplace")
        assert proc.returncode == 2, err
        assert proc.stdout == b""
        assert f"'{field}'" in err and "internal error" not in err

    @pytest.mark.parametrize("key, value", [("seed", "99"), ("name", '"other"'),
                                            ("latency", "0.5")],
                             ids=["seed", "name", "nested"])
    def test_repeated_key_rejected(self, capsys, tmp_path, scenario_s1_path, key, value):
        doc = json.loads(scenario_s1_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s1_path.parent / doc["register"])
        text = json.dumps(doc).replace(f'"{key}": ', f'"{key}": {value}, "{key}": ', 1)
        path = tmp_path / "repeated.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}: key '{key}' appears more than once" in err
        assert "internal error" not in err


def _md_tables(out):
    """Each Markdown table in ``out`` as the cell counts of its lines, header first."""
    return [[len(re.split(r"(?<!\\)\|", line)) - 2 for line in block.splitlines()]
            for block in out.split("\n\n") if block.startswith("|")]


class TestMarkdownCells:
    """A "|" or a line break inside a cell neither adds a cell nor splits a row."""

    def test_strategy_names_holding_a_pipe(self, capsys, tmp_path, scenario_s1_path):
        doc = json.loads(scenario_s1_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s1_path.parent / doc["register"])
        for strategy in doc["strategies"]:
            strategy["name"] += " | x"
        doc["baseline"] += " | x"
        path = tmp_path / "piped.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 0, err
        tables = _md_tables(out)
        assert len(tables) == 4
        for counts in tables:
            assert counts == [counts[0]] * len(counts)
        assert "| ECC \\| x | 6.48 | 0.18 |" in out

    def test_register_title_holding_a_pipe_and_line_breaks(self, capsys, tmp_path):
        path = tmp_path / "register.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(COLUMNS)
            for row_id, title in (("C1", "Uplink | spoof\nsecond line"), ("C2", "a\r\nb\rc")):
                writer.writerow([row_id, title, "comms", "S", "", "", "9.0",
                                 "command_integrity", "", "", "", ""])
        code, out, err = run(capsys, "classify", str(path), "--format", "md")
        assert code == 0, err
        assert _md_tables(out) == [[5, 5, 5, 5]]
        assert "| C1 | Uplink \\| spoof<br>second line | Communications | 9.0 |" in out
        assert "| C2 | a<br>b<br>c |" in out

    def test_register_title_holding_a_line_break_in_text(self, capsys, tmp_path):
        path = tmp_path / "register.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(COLUMNS)
            writer.writerow(["C2", "a\r\nb", "comms", "S", "", "", "9.0",
                             "command_integrity", "", "", "", ""])
        code, out, err = run(capsys, "classify", str(path), "--format", "text")
        assert code == 0, err
        # Title, its underline, the header, then one line for the one entry.
        assert out.splitlines()[3:] == ["C2  a b    Communications  9.0    High"]


class TestOneLineTitlesAndProse:
    """A line break in a title or in prose neither ends a heading nor starts a block."""

    @pytest.fixture
    def scenario_doc(self, scenario_s1_path):
        doc = json.loads(scenario_s1_path.read_text(encoding="utf-8"))
        doc["register"] = str(scenario_s1_path.parent / doc["register"])
        return doc

    # Each report opens with its title, then the results table's header.
    @pytest.mark.parametrize("fmt, opening", [
        ("md", "## Strategy results: S1 | first<br>second<br>third<br>fourth\n\n| Strategy |"),
        ("csv", "# Strategy results: S1 | first second third fourth\nStrategy,SG,"),
        ("text", "Strategy results: S1 | first second third fourth\n" + "-" * 48
         + "\nStrategy "),
    ], ids=["md", "csv", "text"])
    def test_scenario_name_holding_line_breaks(self, capsys, tmp_path, scenario_doc, fmt,
                                               opening):
        scenario_doc["name"] = "S1 | first\nsecond\r\nthird\rfourth"
        path = tmp_path / "named.json"
        path.write_text(json.dumps(scenario_doc), encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path), "--format", fmt)
        assert code == 0, err
        assert out.startswith(opening)

    def test_layered_strategy_name_cannot_add_a_heading(self, capsys, tmp_path, scenario_doc):
        strategy = scenario_doc["strategies"][0]
        strategy["name"] = "ECC\n## injected"
        control = strategy["controls"][0]
        strategy["controls"].append({**control, "id": "SC-13",
                                     "power": [{**control["power"][0], "label": "second"}]})
        path = tmp_path / "layered.json"
        path.write_text(json.dumps(scenario_doc), encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 0, err
        assert "## Layered controls\n\nEffective RRF composed as 1 - prod(1 - rrf) for: " \
               "ECC<br>## injected\n" in out
        assert "## injected" not in out.splitlines()

    def test_text_table_cell_holding_a_line_break(self, capsys, tmp_path, scenario_doc):
        scenario_doc["name"] = "S1 | first\nsecond"
        path = tmp_path / "named.json"
        path.write_text(json.dumps(scenario_doc), encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path), "--format", "text")
        assert code == 0, err
        header, row = out.split("Summary\n-------\n")[1].splitlines()
        assert header.startswith("Scenario           Key Controls")
        assert row.startswith("S1 | first second  SC-8/ECC vs ")

    def test_layered_strategy_name_in_text_prose(self, capsys, tmp_path, scenario_doc):
        strategy = scenario_doc["strategies"][0]
        strategy["name"] = "ECC\n## injected"
        control = strategy["controls"][0]
        strategy["controls"].append({**control, "id": "SC-13",
                                     "power": [{**control["power"][0], "label": "second"}]})
        path = tmp_path / "layered.json"
        path.write_text(json.dumps(scenario_doc), encoding="utf-8")
        code, out, err = run(capsys, "scenario", str(path), "--format", "text")
        assert code == 0, err
        assert "\nEffective RRF composed as 1 - prod(1 - rrf) for: ECC ## injected\n" in out


class TestChecklist:
    def test_markdown_items(self, capsys):
        code, out, _ = run(capsys, "checklist")
        assert code == 0
        assert out.count("- [ ]") == 4
        assert "firmware provenance" in out
        assert "approved component versions" in out
        assert "acceptance testing" in out
        assert "point of contact" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "checklist", "--format", "csv")
        assert code == 0
        assert out.count("\n") >= 5

    def test_plaintext(self, capsys):
        code, out, _ = run(capsys, "checklist", "--format", "text")
        assert code == 0
        assert out.count("[ ]") == 4


class TestOutputFile:
    def test_out_writes_file(self, capsys, tmp_path, register_path):
        target = tmp_path / "report.md"
        code, out, _ = run(capsys, "stats", str(register_path),
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert "| Ground segment |" in target.read_text(encoding="utf-8")
        checklist = tmp_path / "checklist.md"
        assert run(capsys, "checklist", "--out", str(checklist)) == (0, "", "")
        assert checklist.read_text(encoding="utf-8") == run(capsys, "checklist")[1]

    def test_unwritable_path_is_an_input_fault(self, capsys, tmp_path):
        code, out, err = run(capsys, "checklist", "--out", "a\x00b")
        assert (code, out) == (2, "")
        assert err == "error: cannot write report file a\x00b: embedded null byte\n"
        target = tmp_path / "absent" / "report.md"
        code, out, err = run(capsys, "checklist", "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


class TestLargeReport:
    """A report several times the CLI's 64 K-character write slice."""

    @pytest.fixture()
    def large_register(self, tmp_path, register_path):
        """The bundled rows but the two tagged only 'other' (which warn), 50
        times under new ids, the last one titled 'Café link'."""
        with register_path.open(encoding="utf-8", newline="") as fh:
            lines = (line for line in fh if not line.startswith("#"))
            header, *rows = (r for r in csv.reader(lines) if r)
        kept = [r for r in rows if r[7] != "other"] * 50
        rows = [[f"{r[0][0]}{i}", *r[1:]] for i, r in enumerate(kept)]
        rows[-1][1] = "Café link"
        path = tmp_path / "large.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        return path

    def test_stdout_that_cannot_encode_gets_nothing(self, large_register):
        report = classify_report(load_register(large_register)).render("csv")
        assert len(report) > 2 * 2 ** 16
        env = {**_child_env(), "PYTHONIOENCODING": "ascii"}
        proc = subprocess.run([sys.executable, "-m", "spwkit.cli", "classify",
                               str(large_register), "--format", "csv"],
                              capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode("ascii") == (
            "error: 'ascii' codec can't encode character '\\xe9' in position "
            f"{report.index('é')}: ordinal not in range(128)\n")

    @pytest.mark.parametrize("fmt", ["md", "csv", "text"])
    def test_stdout_equals_out_file_and_render(self, capsys, tmp_path, large_register, fmt):
        report = classify_report(load_register(large_register)).render(fmt)
        target = tmp_path / f"report.{fmt}"
        assert run(capsys, "classify", str(large_register), "--format", fmt,
                   "--out", str(target)) == (0, "", "")
        env = {**_child_env(), "PYTHONIOENCODING": "utf-8"}
        proc = subprocess.run([sys.executable, "-m", "spwkit.cli", "classify",
                               str(large_register), "--format", fmt],
                              capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == target.read_bytes() == report.encode("utf-8")


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ("score", "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N", "--out", "report.txt"),
        ("validate", "register.csv", "--format", "csv"),
        ("classify", "register.csv", "--seed", "3"),
    ])
    def test_option_the_subcommand_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# The two ways a process enters ``run()``: ``python -m`` and a console
# script such as the installed ``spw``, whose wrapper is ``sys.exit(run())``.
LAUNCHERS = {"module": ["-m", "spwkit.cli"],
             "console-script": ["-c", "import sys; from spwkit.cli import run; sys.exit(run())"]}


class TestRun:
    """``run()``, the ``spw`` process: ``main()``'s exit code and output, a
    frozen collector, and exit 2 when stdout is a closed pipe."""

    GOLDEN = Path(__file__).parent / "data" / "golden"
    PROBE = ("import gc, sys\n"
             "from spwkit.cli import run\n"
             "try:\n"
             "    run()\n"
             "except SystemExit as exc:\n"
             "    print(exc.code, gc.get_freeze_count() > 0, file=sys.stderr)\n")

    @pytest.fixture()
    def dup_register(self, tmp_path):
        path = tmp_path / "dup.csv"
        row = "A1,t,comms,S,,,5.0,availability,,,,"
        path.write_text(f"{HEADER}\n{row}\n{row}\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("launcher", LAUNCHERS)
    def test_exit_codes_are_mains(self, register_path, dup_register, launcher):
        spw = [*LAUNCHERS[launcher], "validate"]
        assert run_python(*spw, str(register_path)).returncode == 0
        assert run_python(*spw, str(dup_register)).returncode == 2
        proc = run_python(*spw, str(register_path), "--bogus")
        assert proc.returncode == 2
        assert b"unrecognized arguments: --bogus" in proc.stderr

    @pytest.mark.parametrize("register, code", [("bundled", 0), ("dup", 2)])
    def test_freezes_the_collector_and_exits_with_mains_code(
            self, register_path, dup_register, register, code):
        path = register_path if register == "bundled" else dup_register
        proc = run_python("-c", self.PROBE, "validate", str(path))
        assert proc.stderr.decode("utf-8").splitlines()[-1] == f"{code} True"

    def test_main_in_process_maps_a_failing_flush_to_exit_2(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["checklist"]) == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    def test_main_in_process_never_freezes(self, capsys, register_path):
        before = gc.get_freeze_count()
        assert run(capsys, "validate", str(register_path))[0] == 0
        assert gc.get_freeze_count() == before

    def test_runs_the_command_with_the_collector_off(self, scenario_s2_path):
        # The scenario subcommand imports spwkit.scenario, loads a register
        # and samples: enough allocations for the collector, were it on.
        probe = ("import gc, sys\n"
                 "from spwkit.cli import run\n"
                 "runs = []\n"
                 "gc.callbacks.append(lambda phase, info: runs.append(phase))\n"
                 "try:\n"
                 "    run()\n"
                 "except SystemExit as exc:\n"
                 "    print(exc.code, len(runs), gc.isenabled(), gc.get_freeze_count() > 0,\n"
                 "          file=sys.stderr)\n")
        proc = run_python("-c", probe, "scenario", str(scenario_s2_path))
        assert proc.stderr.decode("utf-8").splitlines()[-1] == "0 0 False True"

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_main_in_process_leaves_the_collector_as_found(
            self, capsys, scenario_s2_path, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(capsys, "scenario", str(scenario_s2_path))[0] == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("launcher", LAUNCHERS)
    @pytest.mark.parametrize("golden, argv", [
        ("classify_register_42.csv", ["classify", "register_42.csv", "--format", "csv"]),
        ("stats_register_42.text", ["stats", "register_42.csv", "--format", "text"]),
        ("scenario_s2_paper_check.md", ["scenario", "scenario_s2.json", "--paper-check"]),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_output_is_complete(self, register_path, golden, argv, launcher):
        argv[1] = str(register_path.parent / argv[1])
        proc = run_python(*LAUNCHERS[launcher], *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (self.GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["score", "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"],
        ["stats", "register_42.csv"],
    ], ids=["score", "stats"])
    def test_closed_pipe_is_exit_2_with_one_error_line(self, register_path, argv, unbuffered):
        argv = [register_path.parent / a if a.endswith(".csv") else a for a in argv]
        env = _child_env("PYTHONUNBUFFERED")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "spwkit.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert proc.stderr == b"error: [Errno 32] Broken pipe\n"

    def test_closed_stdout_fd_is_not_an_error(self, register_path):
        # With fd 1 closed at start-up sys.stdout is None: the report is
        # dropped, as print() drops score's line, and stderr is unchanged.
        data = register_path.parent
        for argv in (["score", "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N"],
                     ["classify", str(register_path)], ["stats", str(register_path)],
                     ["scenario", str(data / "scenario_s2.json")], ["checklist"]):
            procs = [subprocess.run([sys.executable, "-m", "spwkit.cli", *argv],
                                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                    env=_child_env(), preexec_fn=close, timeout=60)
                     for close in (None, lambda: os.close(1))]
            assert [(p.returncode, p.stderr) for p in procs] == [(0, procs[0].stderr)] * 2, argv
