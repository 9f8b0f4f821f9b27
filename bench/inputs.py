"""Seeded inputs for the benchmark workloads.

Uses only the standard library and never imports spwkit, so the inputs and
the expected values the output checks compare against are independent of
the code under test. Everything is derived from the workload name, the seed
and two committed data files: the bundled register and the frozen CVSS
scoring corpus (vector -> oracle score).
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

BUNDLED_REGISTER = Path("src/spwkit/data/register_42.csv")
CVSS_CORPUS = Path("tests/data/cvss_corpus.csv")

COLUMNS = (
    "id", "title", "subsystem", "stride", "attack_techniques", "cvss_vector",
    "cvss_score", "mission_functions", "description", "preconditions",
    "impact", "mitigations",
)

WORKLOADS = ("register-triage", "scenario-wide", "montecarlo-deep")

HIGH_FUNCTIONS = {"telemetry_integrity", "command_integrity", "navigation_integrity"}
MEDIUM_FUNCTIONS = {"payload_confidentiality", "ground_data_flow"}


@dataclass(frozen=True)
class Inputs:
    """One workload's generated files, the spw arguments that use them, what
    a correct report must contain, and the input shape."""

    files: dict[str, bytes]
    argv: tuple[str, ...]
    expected: dict
    shape: dict[str, int]


def expected_tier(mission_functions: str) -> str:
    """The documented tier rule: the first matching trigger wins."""
    funcs = {tok.strip() for tok in mission_functions.split(";") if tok.strip()}
    if funcs & HIGH_FUNCTIONS:
        return "High"
    if funcs & MEDIUM_FUNCTIONS:
        return "Medium"
    return "Low"


def _bundled_text(root: Path) -> str:
    return (root / BUNDLED_REGISTER).read_text(encoding="utf-8")


def _bundled_rows(text: str) -> list[dict[str, str]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _corpus(root: Path) -> list[tuple[str, str]]:
    with open(root / CVSS_CORPUS, newline="", encoding="utf-8") as fh:
        return [(row["vector"], row["score"]) for row in csv.DictReader(fh)]


def _register_csv(rows: list[dict[str, str]]) -> bytes:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _register_shape(rows: list[dict[str, str]]) -> dict[str, int]:
    vectors = [r["cvss_vector"] for r in rows if r["cvss_vector"]]
    return {"rows": len(rows), "rows_with_vector": len(vectors),
            "distinct_vectors": len(set(vectors))}


def _renumbered(rng: random.Random, bundled: list[dict[str, str]], n: int) -> list[dict[str, str]]:
    return [dict(rng.choice(bundled), id=f"R{i}") for i in range(1, n + 1)]


def register_triage(rng: random.Random, root: Path) -> Inputs:
    """5000 rows: bundled non-CVSS fields under new ids; about 70% carry a
    corpus vector with its oracle score, the rest only a corpus score."""
    bundled = _bundled_rows(_bundled_text(root))
    corpus = _corpus(root)
    rows = []
    for row in _renumbered(rng, bundled, 5000):
        vector, score = rng.choice(corpus)
        row["cvss_vector"] = vector if rng.random() < 0.7 else ""
        row["cvss_score"] = score
        rows.append(row)
    expected = {"rows": [(r["id"], f"{float(r['cvss_score']):.1f}",
                          expected_tier(r["mission_functions"])) for r in rows]}
    shape = dict(_register_shape(rows), target_refs=0, distinct_targets=0, mc_nk=0)
    return Inputs(files={"register.csv": _register_csv(rows)},
                  argv=("classify", "register.csv", "--format", "csv"),
                  expected=expected, shape=shape)


def _power_component(rng: random.Random, label: str) -> dict:
    p_base = round(rng.uniform(0.02, 1.5), 3)
    duty = round(rng.uniform(0.1, 1.0), 2)
    env = round(rng.uniform(1.0, 1.5), 2)
    nodes = rng.randint(1, 24)
    # Each half-width stays below its component total, so no Monte Carlo
    # draw of the summed power can be non-positive.
    total = p_base * duty * env * nodes
    return {"label": label, "p_base_w": p_base, "duty_cycle": duty, "env_factor": env,
            "node_count": nodes, "uncertainty_w": round(rng.uniform(0.05, 0.5) * total, 4)}


def _strategy(rng: random.Random, index: int, controls_per: list[int],
              ids: list[str], n_targets: int) -> dict:
    controls = []
    for c, n_components in enumerate(controls_per):
        controls.append({
            "id": f"CTL-{index}.{c}", "rrf": round(rng.uniform(0.3, 0.95), 2),
            "power": [_power_component(rng, f"s{index}c{c}p{k}") for k in range(n_components)],
        })
    targets = [{"vuln_id": rng.choice(ids), "p": round(rng.uniform(0.05, 1.0), 2),
                "m": round(rng.uniform(0.05, 1.0), 2)} for _ in range(n_targets)]
    return {"name": f"S{index:02d}", "controls": controls, "targets": targets,
            "criteria": {k: round(rng.uniform(0.0, 1.0), 2)
                         for k in ("latency", "storage", "complexity")}}


def _expected_strategy(strategy: dict, scores: dict[str, float]) -> dict[str, float]:
    """SG and P_op from the definitions: sum(cvss*p*m*rrf) with layered
    rrf = 1 - prod(1 - rrf_j), and sum(p_base*duty*env*nodes)."""
    residual = 1.0
    for control in strategy["controls"]:
        residual *= 1.0 - control["rrf"]
    rrf = 1.0 - residual
    sg = sum(scores[t["vuln_id"]] * t["p"] * t["m"] * rrf for t in strategy["targets"])
    p_op = sum(c["p_base_w"] * c["duty_cycle"] * c["env_factor"] * c["node_count"]
               for control in strategy["controls"] for c in control["power"])
    return {"sg": sg, "p_op": p_op}


def _scenario_inputs(rng: random.Random, register_rows: list[dict[str, str]],
                     register_bytes: bytes, controls: list[list[int]], n_targets: int,
                     monte_carlo_n: int) -> Inputs:
    ids = [r["id"] for r in register_rows]
    strategies = [_strategy(rng, i, per, ids, n_targets) for i, per in enumerate(controls)]
    raw = [rng.uniform(0.1, 1.0) for _ in range(4)]
    alpha, beta, gamma = (round(w / sum(raw), 3) for w in raw[:3])
    doc = {
        "name": f"bench-{rng.randrange(10**6):06d}",
        "register": "register.csv",
        "baseline": strategies[0]["name"],
        # delta takes the remainder so the weights sum to 1 within the
        # loader's 1e-9 tolerance.
        "weights": {"alpha": alpha, "beta": beta, "gamma": gamma,
                    "delta": 1.0 - alpha - beta - gamma},
        "monte_carlo_n": monte_carlo_n,
        "seed": rng.randrange(2**31),
        "strategies": strategies,
    }
    scores = {r["id"]: float(r["cvss_score"]) for r in register_rows}
    targets = [t["vuln_id"] for s in strategies for t in s["targets"]]
    shape = dict(_register_shape(register_rows), target_refs=len(targets),
                 distinct_targets=len(set(targets)),
                 mc_nk=monte_carlo_n * sum(sum(per) for per in controls))
    return Inputs(
        files={"register.csv": register_bytes,
               "scenario.json": json.dumps(doc, indent=1).encode("utf-8")},
        argv=("scenario", "scenario.json"),
        expected={"strategies": {s["name"]: _expected_strategy(s, scores)
                                 for s in strategies}},
        shape=shape)


def scenario_wide(rng: random.Random, root: Path) -> Inputs:
    """1000 renumbered bundled rows; 20 strategies of 1-3 controls with two
    power components each and 20 targets drawn with repetition; n=1000."""
    rows = _renumbered(rng, _bundled_rows(_bundled_text(root)), 1000)
    controls = [[2] * rng.randint(1, 3) for _ in range(20)]
    return _scenario_inputs(rng, rows, _register_csv(rows), controls,
                            n_targets=20, monte_carlo_n=1000)


def montecarlo_deep(rng: random.Random, root: Path) -> Inputs:
    """The bundled register as is; 4 strategies of 24 power components split
    over 2-4 controls, 3 targets each; n=100000."""
    text = _bundled_text(root)
    controls = []
    for _ in range(4):
        n_controls = rng.randint(2, 4)
        cuts = sorted(rng.sample(range(1, 24), n_controls - 1))
        controls.append([b - a for a, b in zip([0, *cuts], [*cuts, 24])])
    return _scenario_inputs(rng, _bundled_rows(text), text.encode("utf-8"), controls,
                            n_targets=3, monte_carlo_n=100_000)


_BUILDERS = {
    "register-triage": register_triage,
    "scenario-wide": scenario_wide,
    "montecarlo-deep": montecarlo_deep,
}


def generate(workload: str, seed: int, root: Path) -> Inputs:
    """Inputs for one workload; the same (workload, seed) gives the same bytes."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), root)


def write(inputs: Inputs, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in inputs.files.items():
        (directory / name).write_bytes(data)
