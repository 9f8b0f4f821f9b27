"""CLI contract: subcommands, exit codes, streams and output formats."""

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


def run_process(*argv):
    """Run ``spw`` as a fresh process; stdout and stderr come back as bytes."""
    env = {k: v for k, v in os.environ.items() if k != "SPW_REGISTER"}
    env["PYTHONPATH"] = str(Path(spwkit.__file__).parent.parent)
    return subprocess.run([sys.executable, "-m", "spwkit.cli", *argv],
                          capture_output=True, env=env, timeout=60)


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
