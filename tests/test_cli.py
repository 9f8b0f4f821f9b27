"""CLI contract: subcommands, exit codes, streams and output formats."""

import codecs
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spwkit

from spwkit.cli import main
from spwkit.register import COLUMNS

HEADER = ",".join(COLUMNS)


@pytest.fixture(autouse=True)
def _no_ambient_register(monkeypatch):
    monkeypatch.delenv("SPW_REGISTER", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """Run Python as a fresh process that imports this spwkit; stdout and
    stderr come back as bytes."""
    env = {k: v for k, v in os.environ.items() if k != "SPW_REGISTER"}
    env["PYTHONPATH"] = str(Path(spwkit.__file__).parent.parent)
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=60)


def run_process(*argv):
    """Run ``spw`` as a fresh process; stdout and stderr come back as bytes."""
    return run_python("-m", "spwkit.cli", *argv)


class TestValidate:
    def test_fixture_register(self, capsys, register_path):
        code, out, err = run(capsys, "validate", str(register_path))
        assert code == 0
        assert "42 entries OK" in out
        assert err == ""

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
