"""The names the traced benchmark wraps still exist.

``bench/trace_boot.py`` wraps spwkit functions by name to time each layer,
and skips a name that is gone without a word, so that layer's metrics
would read 0. This runs its ``instrument()`` with the patcher swapped for
a recorder of the names it cannot find.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import types
import trace_boot
from spwkit import scenario

missing = []

def record(owner, attr, name, value=None):
    if getattr(owner, attr, None) is None:
        where = (owner.__name__ if isinstance(owner, types.ModuleType)
                 else f"{owner.__module__}.{owner.__qualname__}")
        missing.append(f"{where}.{attr}")

trace_boot._patch = record
spw = scenario.spw
assert callable(spw)
trace_boot.instrument()
assert scenario.spw is not spw, "instrument() did not wrap scenario.spw"
print("\\n".join(sorted(missing)))
"""

# Neither name exists any more, so their spans read 0 today (ROADMAP item
# 1(b)); the set empties when the benchmark's tracing changes.
KNOWN_GAPS = {"spwkit.report.classify_targets", "spwkit.scenario.classify_tier"}


def test_every_wrapped_name_resolves_but_the_known_gaps():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    result = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert set(result.stdout.split()) == KNOWN_GAPS
