"""CVSS v3.1 base-metric vector parsing and base-score computation.

Implements the base metric group only. Attack-vector coding guidance for
orbital systems (RF reachability counts as Network, orbital inaccessibility
as Physical) affects how registers assign values, not the arithmetic here.
A canonical vector is built through its slots, as register rows are.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache, lru_cache

from .errors import (
    BadPrefixError,
    BadValueError,
    DuplicateMetricError,
    MissingMetricError,
    UnknownMetricError,
)

PREFIX = "CVSS:3.1"

METRIC_ORDER = ("AV", "AC", "PR", "UI", "S", "C", "I", "A")

_AV_WEIGHT = {"N": 0.85, "A": 0.62, "L": 0.55, "P": 0.2}
_AC_WEIGHT = {"L": 0.77, "H": 0.44}
_PR_WEIGHT_UNCHANGED = {"N": 0.85, "L": 0.62, "H": 0.27}
_PR_WEIGHT_CHANGED = {"N": 0.85, "L": 0.68, "H": 0.5}
_UI_WEIGHT = {"N": 0.85, "R": 0.62}
_IMPACT_WEIGHT = {"H": 0.56, "L": 0.22, "N": 0.0}

# Each metric's allowed values, in the order error messages list them.
ALLOWED = dict(zip(METRIC_ORDER, map(tuple, (
    _AV_WEIGHT, _AC_WEIGHT, _PR_WEIGHT_UNCHANGED, _UI_WEIGHT, ("U", "C"),
    _IMPACT_WEIGHT, _IMPACT_WEIGHT, _IMPACT_WEIGHT))))

# A vector written in METRIC_ORDER with allowed values, one group per metric.
_CANONICAL = re.compile(re.escape(PREFIX) + "".join(
    f"/{m}:([{''.join(values)}])" for m, values in ALLOWED.items()))


class Severity(Enum):
    """Qualitative rating bands for a base score."""

    NONE = "None"
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"
    CRITICAL = "Critical"

    def __str__(self):
        return self.value


@dataclass(frozen=True, slots=True)
class CvssVector:
    """Parsed base-metric group; every field is a one-letter code."""

    attack_vector: str
    attack_complexity: str
    privileges_required: str
    user_interaction: str
    scope: str
    confidentiality: str
    integrity: str
    availability: str

    def to_string(self) -> str:
        return PREFIX + "".join(f"/{m}:{getattr(self, f.name)}"
                                for m, f in zip(METRIC_ORDER, fields(self)))


def _through_slots(cls):
    """A positional builder of ``cls`` (frozen, slotted, no ``__post_init__``) via its slots."""
    names = [f.name for f in fields(cls)]
    ns = {"new": object.__new__, "cls": cls, **{f"set_{n}": vars(cls)[n].__set__ for n in names}}
    exec(f"def build({', '.join(names)}):\n self = new(cls)\n"
         + "".join(f" set_{n}(self, {n})\n" for n in names) + " return self", ns)
    return ns["build"]


_vector = _through_slots(CvssVector)


@dataclass(frozen=True)
class BaseScore:
    score: float
    severity: Severity

    def __str__(self):
        return f"{self.score:.1f} {self.severity}"


@lru_cache(maxsize=4096)  # above the 4*2*3*2*2*3*3*3 = 2592 canonical vectors
def parse_vector(text: str) -> CvssVector:
    """Parse a v3.1 vector string; metric order is free, duplicates rejected.

    A canonical vector (metrics in ``METRIC_ORDER``, allowed values, nothing
    else) takes one regular-expression match. Any other text, every error
    included, goes through the general segment-by-segment parse below, so
    error classes and messages do not depend on the fast path.
    """
    text = text.strip()
    canonical = _CANONICAL.fullmatch(text)
    if canonical:
        return _vector(*canonical.groups())
    segments = text.split("/")
    if segments[0] != PREFIX:
        raise BadPrefixError(f"vector must start with '{PREFIX}/', got '{segments[0]}'")
    seen: dict[str, str] = {}
    for seg in segments[1:]:
        key, sep, value = seg.partition(":")
        if not sep:
            raise UnknownMetricError(f"malformed segment '{seg}'")
        if key not in ALLOWED:
            raise UnknownMetricError(f"unknown metric '{key}' in '{seg}'")
        if key in seen:
            raise DuplicateMetricError(f"metric '{key}' appears twice")
        if value not in ALLOWED[key]:
            raise BadValueError(
                f"value '{value}' not allowed for {key} (one of {'/'.join(ALLOWED[key])})")
        seen[key] = value
    missing = [m for m in METRIC_ORDER if m not in seen]
    if missing:
        raise MissingMetricError(f"missing metric(s): {', '.join(missing)}")
    return CvssVector(*(seen[m] for m in METRIC_ORDER))


def roundup(value: float) -> float:
    """Round up to one decimal using integer arithmetic.

    Works on value*100000 so that representation error in the float product
    cannot push a score across a 0.1 boundary.
    """
    scaled = round(value * 100000)
    if scaled % 10000 == 0:
        return scaled / 100000.0
    return (scaled // 10000 + 1) / 10.0


def severity_for(score: float) -> Severity:
    """Band a base score; edges per the v3.1 qualitative rating scale."""
    if score == 0.0:
        return Severity.NONE
    if score <= 3.9:
        return Severity.LOW
    if score <= 6.9:
        return Severity.MEDIUM
    if score <= 8.9:
        return Severity.HIGH
    return Severity.CRITICAL


@cache  # no bound: a value outside the weight tables raises KeyError, so <= 2592 keys
def base_score(vector: CvssVector) -> BaseScore:
    """Compute the base score for a valid vector (total; never raises)."""
    iss = 1.0 - (
        (1.0 - _IMPACT_WEIGHT[vector.confidentiality])
        * (1.0 - _IMPACT_WEIGHT[vector.integrity])
        * (1.0 - _IMPACT_WEIGHT[vector.availability])
    )
    if vector.scope == "U":
        impact = 6.42 * iss
    else:
        impact = 7.52 * (iss - 0.029) - 3.25 * (iss - 0.02) ** 15

    pr_weight = {"U": _PR_WEIGHT_UNCHANGED, "C": _PR_WEIGHT_CHANGED}[vector.scope]
    exploitability = (
        8.22
        * _AV_WEIGHT[vector.attack_vector]
        * _AC_WEIGHT[vector.attack_complexity]
        * pr_weight[vector.privileges_required]
        * _UI_WEIGHT[vector.user_interaction]
    )

    if impact <= 0:
        score = 0.0
    elif vector.scope == "U":
        score = roundup(min(impact + exploitability, 10.0))
    else:
        score = roundup(min(1.08 * (impact + exploitability), 10.0))
    return _rated(score)


@cache  # no bound: a base score is one of the 101 values 0.0, 0.1, ..., 10.0
def _rated(score: float) -> BaseScore:
    """One shared ``BaseScore`` per score value."""
    return BaseScore(score=score, severity=severity_for(score))


def score_string(text: str) -> BaseScore:
    """Parse and score in one step."""
    return base_score(parse_vector(text))
