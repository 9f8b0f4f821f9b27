"""Run one spw job with spans around the calls into each spwkit layer.

Usage: python trace_boot.py SPANS_JSON SPW_ARG...

Times ``import spwkit.cli``, wraps the layer functions where their callers
look them up, calls ``cli.main`` with the remaining arguments and, when it
returns, writes the spans as JSON rows ``[name, start, end, parent, value]``
(``parent`` is an index into the list, -1 for none; ``value`` is a
per-span count such as rows loaded or bytes rendered). Each job is its own
process, so nothing is restored afterwards. The report on stdout is the
one the untraced ``python -m spwkit.cli`` job prints.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter
spans: list[list] = []
_open: list[int] = []


def traced(name, fn, value=None):
    """``fn`` recording one span per call; ``value(args, kwargs, result)``
    gives the span's count."""
    def wrapper(*args, **kwargs):
        index = len(spans)
        spans.append([name, 0.0, 0.0, _open[-1] if _open else -1, 0])
        _open.append(index)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            spans[index][1:3] = start, clock()
            _open.pop()
        if value is not None:
            spans[index][4] = value(args, kwargs, result)
        return result
    return wrapper


def _patch(owner, attr, name, value=None):
    # A name a later version no longer has is skipped; its metrics read 0.
    fn = getattr(owner, attr, None)
    if fn is not None:
        setattr(owner, attr, traced(name, fn, value))


def _first_sight():
    seen = set()

    def value(args, _kwargs, _result):
        before = len(seen)
        seen.add(args[0])
        return len(seen) - before
    return value


def instrument() -> None:
    from spwkit import cli, cvss, register, report, scenario

    _patch(register, "loads", "register.loads", lambda a, k, r: len(r))
    _patch(register.Register, "get", "register.get")
    _patch(cvss, "parse_vector", "cvss.parse_vector", _first_sight())
    _patch(cvss, "base_score", "cvss.base_score")
    for owner in (report, scenario):
        _patch(owner, "classify_tier", "taxonomy.classify_tier")
    for attr in ("classify_report", "scenario_report"):
        _patch(cli, attr, "report.build")
    _patch(report.ReportDocument, "render", "report.render",
           lambda a, k, r: len(r.encode("utf-8")))
    _patch(cli, "load_scenario", "scenario.load_scenario")
    _patch(scenario, "check_targets_resolve", "scenario.check_targets_resolve")
    _patch(cli, "evaluate", "scenario.evaluate")
    _patch(report, "classify_targets", "scenario.classify_targets")

    spw_fn = getattr(scenario, "spw", None)
    if spw_fn is not None:
        monte_carlo = traced(
            "spw.monte_carlo", spw_fn,
            lambda a, k, r: k.get("n_samples", 0) * len(k.get("components") or ()))
        first_order = traced("spw.first_order", spw_fn)

        def spw(*args, **kwargs):
            method = args[2] if len(args) > 2 else kwargs.get("sigma_method")
            if getattr(method, "value", None) == "monte-carlo":
                return monte_carlo(*args, **kwargs)
            return first_order(*args, **kwargs)
        scenario.spw = spw


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = clock()
    import spwkit.cli
    spans.append(["import.spwkit", start, clock(), -1, int("numpy" in sys.modules)])
    instrument()
    try:
        return traced("cli.main", spwkit.cli.main)(argv)
    finally:
        text = json.dumps(spans)  # one string: much faster than json.dump's chunks
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    sys.exit(main())
