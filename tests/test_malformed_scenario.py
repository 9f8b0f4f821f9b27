"""Malformed scenario files end in exit 2 with a message, never in exit 1.

Every document here is the bundled S1 scenario with one or two of its
nodes replaced, run through ``spw scenario`` in-process.
"""

import contextlib
import copy
import io
import json
import math
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from spwkit.cli import main

S1_PATH = Path(str(resources.files("spwkit") / "data" / "scenario_s1.json"))
S1 = json.loads(S1_PATH.read_text(encoding="utf-8"))
S1["register"] = str(S1_PATH.parent / S1["register"])

POWER = ("strategies", 0, "controls", 0, "power", 0)


def _node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _replace(node, path, value):
    """``node`` with the node at ``path`` replaced by a copy of ``value``;
    unchanged where an earlier replacement removed that node."""
    if not path:
        return copy.deepcopy(value)
    try:
        node[path[0]] = _replace(node[path[0]], path[1:], value)
    except (KeyError, IndexError, TypeError):
        pass
    return node


def _run(scenario_file, replacements):
    doc = copy.deepcopy(S1)
    for path, value in replacements:
        doc = _replace(doc, path, value)
    scenario_file.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["scenario", str(scenario_file)])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "scenario.json"


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**300, 10**300),
    st.sampled_from([math.nan, 1e308, -1e308]), st.floats(), st.text(max_size=8),
    st.sampled_from([[], {}, [1], {"a": 1}]))

PROBES = {
    "strategies": [(("strategies",), [1, 2])],
    "control": [(POWER[:4], 1)],
    "power": [(POWER, "x")],
    "target": [(("strategies", 0, "targets", 0), None)],
    "duty_cyle": [(POWER, {**S1["strategies"][0]["controls"][0]["power"][0],
                           "duty_cyle": 0.1})],
    "epsilon": [(("weights",), {**S1["weights"], "epsilon": 0.0})],
    "monte_carlo_n": [(("monte_carlo_n",), 10**15)],
    "uncertainty_w": [(POWER + ("uncertainty_w",), 1e308)],
    "env_factor": [(POWER + ("env_factor",), 0)],
    "node_count": [(POWER + ("node_count",), 0)],
    "register": [(("register",), "a\0b")],
    "adapted_from": [(POWER[:4] + ("adapted_from",), 8)],
}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(_node_paths(S1))), JSON_VALUES),
                min_size=1, max_size=2))
@example(PROBES["strategies"])
@example(PROBES["control"])
@example(PROBES["power"])
@example(PROBES["target"])
@example(PROBES["duty_cyle"])
@example(PROBES["epsilon"])
@example(PROBES["monte_carlo_n"])
@example(PROBES["uncertainty_w"])
@example(PROBES["env_factor"])
@example(PROBES["node_count"])
@example(PROBES["register"])
def test_mutated_scenario_exits_0_or_2(scenario_file, replacements):
    code, _, err = _run(scenario_file, replacements)
    assert code in (0, 2), err


@pytest.mark.parametrize("probe,message", [
    ("strategies", "strategies[0] must be a JSON object"),
    ("control", "strategies[0].controls[0] must be a JSON object"),
    ("power", "strategies[0].controls[0].power[0] must be a JSON object"),
    ("target", "strategies[0].targets[0] must be a JSON object"),
    ("duty_cyle", "strategies[0].controls[0].power[0]: unknown key(s): ['duty_cyle']"),
    ("epsilon", "weights: unknown key(s): ['epsilon']"),
    ("monte_carlo_n", "monte_carlo_n=1000000000000000 outside [1, 1000000]"),
    ("uncertainty_w", "keyex-and-aead: total +/- uncertainty is not finite"),
    ("env_factor", "keyex-and-aead: environmental_factor must be > 0"),
    ("node_count", "keyex-and-aead: node_count must be >= 1"),
    ("register", "embedded null byte"),
    ("adapted_from", "strategies[0].controls[0]: 'adapted_from' must be str"),
])
def test_probe_names_the_field(scenario_file, probe, message):
    code, out, err = _run(scenario_file, PROBES[probe])
    assert code == 2
    assert out == ""
    assert message in err and "internal error" not in err


# Two faults each: an object's own keys are checked before the objects
# nested in it, whichever fault the file order would reach first.
@pytest.mark.parametrize("replacements,message", [
    ([(("weights", "alpha"), "x"), (("baseline",), 1)], "scenario: 'baseline' must be str"),
    ([(POWER[:4] + ("rrf",), 2), (("strategies", 0, "targets"), 0)],
     "strategies[0]: 'targets' must be list"),
    ([(POWER + ("p_base_w",), "x"), (POWER[:4] + ("description",), 1)],
     "strategies[0].controls[0]: 'description' must be str"),
], ids=["top-level", "strategy", "control"])
def test_own_keys_before_nested_objects(scenario_file, replacements, message):
    code, out, err = _run(scenario_file, replacements)
    assert (code, out, err) == (2, "", f"error: {message}\n")
