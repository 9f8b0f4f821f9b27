"""Vulnerability register schema, CSV loading/saving and lookups.

Register files are UTF-8 CSV (RFC 4180 quoting) with this exact header::

    id,title,subsystem,stride,attack_techniques,cvss_vector,cvss_score,
    mission_functions,description,preconditions,impact,mitigations

A leading byte order mark and blank lines are skipped, and lines starting with
``#`` before the header are comments. Quoted cells may hold any line break;
saved registers end rows with CRLF. Files are read line by line: loading needs
memory for the entries, not the text. Entries are built through their slots
with the cyclic collector paused, then restored. Multi-valued cells (stride,
attack_techniques, mission_functions) join tokens with ``;``; subsystem, stride
and mission tokens are trimmed and matched in any case. A row may carry a
vector, a declared score, or both; a vector alone gives the row its base score,
and a vector and a score must agree. A bad cell raises a ``RegisterError``
reading ``row <id>: ...`` with ``row_id`` and ``column``.
"""

from __future__ import annotations

import csv
import gc
import io
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, dropwhile
from pathlib import Path

from . import cvss
from .errors import (
    BadFieldError,
    BadStrideTokenError,
    BadTechniqueIdError,
    DuplicateIdError,
    MissingColumnError,
    RegisterError,
    ScoreOutOfRangeError,
    VectorError,
    VectorScoreMismatchError,
)
from .taxonomy import MissionFunction, Stride, Subsystem

COLUMNS = (
    "id", "title", "subsystem", "stride", "attack_techniques", "cvss_vector",
    "cvss_score", "mission_functions", "description", "preconditions",
    "impact", "mitigations",
)

BUNDLED_REGISTER = "register_42.csv"

_ID_RE = re.compile(r"^[A-Za-z][0-9]+$")
_TECHNIQUE_RE = re.compile(r"^T[0-9]{4}(\.[0-9]{3})?$")
_SCORE_RE = re.compile(r"^[0-9]+\.[0-9]$")


@dataclass(frozen=True, slots=True)
class VulnerabilityEntry:
    """One register row. Slotted, so it has no ``__dict__``: use ``dataclasses.asdict``."""

    id: str
    title: str
    subsystem: Subsystem
    stride: frozenset[Stride]
    attack_techniques: tuple[str, ...]
    cvss_vector: cvss.CvssVector | None
    cvss_score: float
    mission_functions: frozenset[MissionFunction]
    description: str = ""
    preconditions: str = ""
    impact: str = ""
    mitigations: str = ""


@dataclass(frozen=True)
class Register:
    """An ordered, validated collection of entries with unique ids.

    Frozen, so safe to share across tasks. ``entries`` may be given as any
    iterable and is kept as a tuple; a repeated id raises
    ``DuplicateIdError``. ``source_path`` is provenance only and excluded
    from equality.
    """

    entries: tuple[VulnerabilityEntry, ...]
    source_path: str = field(default="", compare=False)
    _index: dict[str, VulnerabilityEntry] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[str, VulnerabilityEntry] = {}
        for entry in self.entries:
            if entry.id in index:
                raise DuplicateIdError(f"duplicate id '{entry.id}'",
                                       row_id=entry.id, column="id")
            index[entry.id] = entry
        object.__setattr__(self, "entries", tuple(index.values()))
        object.__setattr__(self, "_index", index)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def get(self, entry_id: str) -> VulnerabilityEntry | None:
        return self._index.get(entry_id)


def _split_multi(cell: str) -> list[str]:
    return [tok.strip() for tok in cell.split(";") if tok.strip()]


# Each column's function checks its cell and raises an error naming the column;
# ``_parse_row`` adds the row. The memoised ones run once per distinct cell text,
# so rows with equal cells share one value; a cell that raises is not cached.
_memo = lru_cache(maxsize=1024)
_entry = cvss._through_slots(VulnerabilityEntry)  # half the cost of its __init__


@_memo
def _subsystem(cell: str) -> Subsystem:
    try:
        return Subsystem(cell.strip().lower())
    except ValueError:
        raise BadFieldError(f"unknown subsystem '{cell}'", column="subsystem")


@_memo
def _stride(cell: str) -> frozenset[Stride]:
    try:
        stride = frozenset(Stride(t.upper()) for t in _split_multi(cell))
    except ValueError:
        raise BadStrideTokenError(f"stride tokens must be among S/T/R/I/D/E, got '{cell}'",
                                  column="stride")
    if not stride:
        raise BadStrideTokenError("stride set must not be empty", column="stride")
    return stride


@_memo
def _technique_ids(cell: str) -> tuple[str, ...]:
    techniques = tuple(_split_multi(cell))
    for tid in techniques:
        if not _TECHNIQUE_RE.match(tid):
            raise BadTechniqueIdError(f"bad technique id '{tid}' (expected T#### or T####.###)",
                                      column="attack_techniques")
    return techniques


@_memo
def _score(cell: str) -> float:
    text = cell.strip()
    if not _SCORE_RE.match(text):
        raise ScoreOutOfRangeError(f"cvss_score '{text}' must have exactly one decimal",
                                   column="cvss_score")
    score = float(text)
    if not 0.0 <= score <= 10.0:
        raise ScoreOutOfRangeError(f"cvss_score {score} outside 0.0-10.0", column="cvss_score")
    return score


def _vector(cell: str, score: float | None) -> tuple[cvss.CvssVector | None, float | None]:
    """The cell's vector, if any, and the row's score: ``score`` if declared, else the vector's."""
    text = cell.strip()
    if not text:
        return None, score
    try:
        vector = cvss.parse_vector(text)
    except VectorError as exc:
        raise BadFieldError(f"bad cvss_vector: {exc}", column="cvss_vector") from exc
    computed = cvss.base_score(vector).score
    if score is not None and computed != score:
        raise VectorScoreMismatchError(f"vector scores {computed}, declared {score}",
                                       column="cvss_score")
    return vector, computed


@_memo
def _missions(cell: str) -> frozenset[MissionFunction]:
    try:
        missions = frozenset(MissionFunction(t.lower()) for t in _split_multi(cell))
    except ValueError:
        raise BadFieldError(f"unknown mission function in '{cell}'", column="mission_functions")
    if not missions:
        raise BadFieldError("mission_functions must not be empty", column="mission_functions")
    return missions


def _parse_row(cells: list[str], row: int) -> VulnerabilityEntry:
    if len(cells) != len(COLUMNS):
        raise MissingColumnError(f"row {row}: expected {len(COLUMNS)} fields, got {len(cells)}")
    (row_id, title, subsystem, stride, techniques, vector, score, missions,
     description, preconditions, impact, mitigations) = cells
    row_id = row_id.strip()
    if not _ID_RE.match(row_id):
        raise BadFieldError(
            f"row {row}: id '{row_id}' must be a letter followed by digits",
            row_id=row_id, column="id")
    try:
        title = title.strip()
        if not title:
            raise BadFieldError("title must not be empty", column="title")
        subsystem = _subsystem(subsystem)
        stride = _stride(stride)
        techniques = _technique_ids(techniques)
        score = _score(score) if score.strip() or not vector.strip() else None
        vector, score = _vector(vector, score)
        missions = _missions(missions)
    except RegisterError as exc:
        raise type(exc)(f"row {row_id}: {exc}", row_id=row_id,
                        column=exc.column) from exc.__cause__
    return _entry(row_id, title, subsystem, stride, techniques, vector, score,
                  missions, description, preconditions, impact, mitigations)


def _records(lines: Iterable[str]):
    """(row number, cells) for each CSV record; the header is row 1."""
    row = 0
    try:
        for row, cells in enumerate(csv.reader(lines), start=1):
            yield row, cells
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise RegisterError(f"row {row + 1}: {exc}") from None


def loads(text: str | Iterable[str], source: str = "<string>") -> Register:
    """Parse register CSV given as one ``str`` or as an iterable of lines that keep their ends."""
    lines = iter(io.StringIO(text, newline="") if isinstance(text, str) else text)
    first = next(lines, "").removeprefix("\ufeff")  # a leading byte order mark is skipped
    lines = chain([first] if first else [], lines)
    records = _records(dropwhile(
        lambda line: line.startswith("#") or line in ("\n", "\r\n", "\r"), lines))
    try:
        _, header = next(records)
    except StopIteration:
        raise MissingColumnError("register file has no header row") from None
    stripped = tuple(h.strip() for h in header)
    if stripped != COLUMNS:
        missing = [c for c in COLUMNS if c not in stripped]
        unexpected = [c for c in stripped if c not in COLUMNS]
        detail = "; ".join(f"{kind} {names}" for kind, names in
                           (("missing", missing), ("unexpected", unexpected)) if names)
        raise MissingColumnError(
            "header does not match register schema: " + (detail or "wrong column order"),
            column=missing[0] if missing else None)

    collecting = gc.isenabled()
    gc.disable()  # rows hold no reference cycles: the collector would scan them for nothing
    try:
        entries = [_parse_row(cells, row) for row, cells in records if cells]
    finally:
        if collecting:  # the caller's setting, on every exit
            gc.enable()
    return Register(entries=entries, source_path=source)


class _CountingFile(io.FileIO):
    """A raw file that counts the bytes its reads return."""

    consumed = 0

    def read(self, size=-1):
        data = super().read(size)
        self.consumed += len(data)
        return data


def load_register(path: str | Path) -> Register:
    """Load and validate a register file, streaming its lines into ``loads``.

    The file is read once and never sought or reopened, so a pipe or FIFO
    loads as a disk file does, and an undecodable byte is named by its
    position in the input, byte order mark included."""
    path = Path(path)
    try:
        raw = _CountingFile(path)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise RegisterError(f"cannot read register file {path}: {exc}") from exc
    with io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
        try:
            return loads(fh, source=str(path))
        except OSError as exc:
            raise RegisterError(f"cannot read register file {path}: {exc}") from exc
        except UnicodeDecodeError as exc:  # exc.object: the bytes held back plus the last read
            at, width = raw.consumed - len(exc.object) + exc.start, exc.end - exc.start
            where = (f"byte 0x{exc.object[exc.start]:02x} in position {at}" if width == 1
                     else f"bytes in position {at}-{at + width - 1}")
            raise RegisterError(f"cannot read register file {path}: '{exc.encoding}' codec "
                                f"can't decode {where}: {exc.reason}") from exc


def load_bundled_register() -> Register:
    """Load the register shipped with the package."""
    from importlib import resources
    with resources.as_file(resources.files("spwkit") / "data" / BUNDLED_REGISTER) as path:
        return load_register(path)


def serialize(register: Register) -> str:
    """Render a register back to CSV; loads(serialize(r)) == r."""
    buf = io.StringIO()
    # CRLF row ends (RFC 4180) make the writer quote cells holding a bare CR.
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(COLUMNS)
    for e in register.entries:
        writer.writerow([
            e.id, e.title, e.subsystem.value,
            ";".join(sorted(s.value for s in e.stride)),
            ";".join(e.attack_techniques),
            e.cvss_vector.to_string() if e.cvss_vector else "",
            f"{e.cvss_score:.1f}",
            ";".join(sorted(m.value for m in e.mission_functions)),
            e.description, e.preconditions, e.impact, e.mitigations,
        ])
    return buf.getvalue()


def save_register(register: Register, path: str | Path) -> None:
    Path(path).write_text(serialize(register), encoding="utf-8", newline="")
