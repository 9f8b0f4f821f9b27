"""Register loading, validation errors, lookups and round-tripping."""

import codecs
import copy
import csv
import dataclasses
import gc
import importlib.util
import io
import os
import pickle
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from spwkit import cvss
from spwkit.errors import (
    BadFieldError,
    BadStrideTokenError,
    BadTechniqueIdError,
    DuplicateIdError,
    MissingColumnError,
    RegisterError,
    ScoreOutOfRangeError,
    VectorScoreMismatchError,
)
from spwkit.register import (
    COLUMNS,
    Register,
    VulnerabilityEntry,
    load_bundled_register,
    load_register,
    loads,
    save_register,
    serialize,
)
from spwkit.taxonomy import MissionFunction, Stride, Subsystem

HEADER = ",".join(COLUMNS)


def row(id="X1", title="A finding", subsystem="comms", stride="S",
        techniques="", vector="", score="5.3", missions="availability",
        description="d", preconditions="p", impact="i", mitigations="m"):
    return [id, title, subsystem, stride, techniques, vector, score,
            missions, description, preconditions, impact, mitigations]


def make_csv(*rows):
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


class TestBundledRegister:
    def test_entry_count(self, register):
        assert len(register) == 42

    def test_subsystem_counts(self, register):
        assert Counter(e.subsystem for e in register) == {
            Subsystem.GROUND_SEGMENT: 10,
            Subsystem.ONBOARD_COMPUTING: 11,
            Subsystem.COMMUNICATIONS: 12,
            Subsystem.NETWORK_CONSTELLATION: 9,
        }

    def test_named_entries(self, register):
        assert register.get("N1").cvss_score == 7.4
        assert register.get("N5").cvss_score == 8.3
        assert register.get("O2").cvss_score == 9.0
        assert register.get("C1").cvss_score == 9.0
        assert MissionFunction.COMMAND_INTEGRITY in register.get("C1").mission_functions

    def test_vector_rows_consistent(self, register):
        vector_rows = [e for e in register if e.cvss_vector is not None]
        assert len(vector_rows) >= 20
        for e in vector_rows:
            assert cvss.base_score(e.cvss_vector).score == e.cvss_score

    def test_score_only_rows_are_legal(self, register):
        assert any(e.cvss_vector is None for e in register)

    def test_filter_by_subsystem(self, register):
        subsystems = [e.subsystem for e in register]
        assert subsystems.count(Subsystem.COMMUNICATIONS) == 12
        assert subsystems.count(Subsystem.GROUND_SEGMENT) == 10

    def test_filter_preserves_order(self, register):
        comms = [e.id for e in register if e.subsystem == Subsystem.COMMUNICATIONS]
        assert comms == [f"C{i}" for i in range(1, 13)]


class TestLoading:
    def test_empty_file_with_header(self):
        reg = loads(HEADER + "\n")
        assert len(reg) == 0
        assert list(reg) == []

    def test_comment_lines_skipped(self):
        reg = loads("# one\n# two\n" + make_csv(row()))
        assert len(reg) == 1

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_comment_lines_skipped_at_any_line_end(self, end):
        text = f"# one{end}# two{end}" + make_csv(row()).replace("\n", end)
        assert loads(text) == loads(make_csv(row()))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_comment_lines_skipped_by_both_readers(self, tmp_path, end):
        text = f"# one{end}# two{end}" + make_csv(row()).replace("\n", end)
        path = tmp_path / "register.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert load_register(path) == loads(text) == loads(make_csv(row()))

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "# one\r# two", "#"])
    def test_no_header_row(self, tmp_path, text):
        path = tmp_path / "register.csv"
        path.write_text(text, encoding="utf-8", newline="")
        for read in (lambda: loads(text), lambda: load_register(path)):
            with pytest.raises(MissingColumnError, match="no header row"):
                read()

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_blank_lines_skipped_by_both_readers(self, tmp_path, end):
        """Before the header (after a comment), between entries and after the last."""
        a1, b2 = (",".join(row(id=i)) for i in ("A1", "B2"))
        text = end.join(["# note", "", "", HEADER, "", a1, "", "", b2, "", ""]) + end
        path = tmp_path / "register.csv"
        path.write_text(text, encoding="utf-8", newline="")
        reg = loads(text)
        assert load_register(path) == reg == loads(make_csv(row(id="A1"), row(id="B2")))
        assert loads(serialize(reg)) == reg

    def test_blank_lines_before_the_bundled_header(self, tmp_path, register, register_path):
        path = tmp_path / "register.csv"
        path.write_bytes(b"# note\n\n" + register_path.read_bytes())
        assert load_register(path) == register

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_header_is_row_1_after_blank_lines(self, end):
        text = end.join(["", HEADER, ",".join(row(id="11"))]) + end
        with pytest.raises(BadFieldError, match="^row 2: id '11'"):
            loads(text)

    def test_whitespace_line_before_the_header_is_not_blank(self):
        with pytest.raises(MissingColumnError, match="header does not match"):
            loads(" \n" + make_csv(row()))

    @pytest.mark.parametrize("text", ["\n", "\r\n\r\n", "\r", "# one\n\n"])
    def test_only_blank_lines_have_no_header_row(self, tmp_path, text):
        path = tmp_path / "register.csv"
        path.write_text(text, encoding="utf-8", newline="")
        for read in (lambda: loads(text), lambda: load_register(path)):
            with pytest.raises(MissingColumnError, match="^register file has no header row$"):
                read()

    def test_memory_follows_the_entries(self, tmp_path):
        """The file is streamed: the heap peak while loading stays near what
        the loaded register keeps, however long the file's text is."""
        path = tmp_path / "register.csv"
        save_register(Register(entries=[
            dataclasses.replace(BUNDLED.entries[i % len(BUNDLED)], id=f"V{i}")
            for i in range(5000)]), path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            register = load_register(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(register) == 5000
        assert peak - before < 1.5 * (kept - before)

    def test_missing_file(self, tmp_path):
        with pytest.raises(RegisterError):
            load_register(tmp_path / "nope.csv")

    def test_bad_header(self):
        with pytest.raises(MissingColumnError, match="title"):
            loads(HEADER.replace("title", "name") + "\n")

    def test_padded_header_in_the_wrong_order(self):
        padded = [f" {c} " for c in COLUMNS]
        padded[0], padded[1] = padded[1], padded[0]
        with pytest.raises(MissingColumnError,
                           match="^header does not match register schema: wrong column order$"
                           ) as exc_info:
            loads(",".join(padded) + "\n")
        assert exc_info.value.column is None

    def test_no_silent_drops(self):
        reg = loads(make_csv(row(id="A1"), row(id="A2"), row(id="A3")))
        assert [e.id for e in reg] == ["A1", "A2", "A3"]

    def test_duplicate_id(self):
        with pytest.raises(DuplicateIdError, match="A1"):
            loads(make_csv(row(id="A1"), row(id="A1")))

    def test_later_bad_row_reported_before_duplicate_id(self):
        # Ids are checked when the Register is built, after every row parses.
        with pytest.raises(BadFieldError, match="row B2: unknown subsystem"):
            loads(make_csv(row(id="A1"), row(id="A1"), row(id="B2", subsystem="payload")))

    def test_bad_id_pattern(self):
        with pytest.raises(BadFieldError, match="id"):
            loads(make_csv(row(id="11")))

    def test_score_out_of_range(self):
        with pytest.raises(ScoreOutOfRangeError, match="A1"):
            loads(make_csv(row(id="A1", score="10.1")))

    @pytest.mark.parametrize("bad", ["7", "7.45", "", "abc"])
    def test_score_precision_enforced(self, bad):
        with pytest.raises(ScoreOutOfRangeError):
            loads(make_csv(row(score=bad)))

    def test_vector_score_mismatch(self):
        # vector scores 9.8; declaring one decimal higher must fail
        with pytest.raises(VectorScoreMismatchError) as exc_info:
            loads(make_csv(row(id="A1",
                               vector="CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
                               score="9.9")))
        assert exc_info.value.row_id == "A1"
        assert exc_info.value.column == "cvss_score"

    def test_vector_score_agreement_accepted(self):
        reg = loads(make_csv(row(
            vector="CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", score="9.8")))
        assert reg.entries[0].cvss_vector is not None

    def test_vector_only_row_takes_the_vector_score(self):
        reg = loads(make_csv(row(
            id="C9", vector="CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", score="")))
        entry = reg.entries[0]
        assert entry.cvss_score == 9.8 and entry.cvss_vector is not None
        assert loads(serialize(reg)) == reg

    def test_bad_stride_token(self):
        with pytest.raises(BadStrideTokenError, match="A1"):
            loads(make_csv(row(id="A1", stride="S;X")))

    def test_empty_stride(self):
        with pytest.raises(BadStrideTokenError):
            loads(make_csv(row(stride="")))

    def test_bad_technique_id(self):
        with pytest.raises(BadTechniqueIdError, match="1078"):
            loads(make_csv(row(techniques="1078")))

    def test_subtechnique_accepted(self):
        reg = loads(make_csv(row(techniques="T1547.001;T1078")))
        assert reg.entries[0].attack_techniques == ("T1547.001", "T1078")

    def test_unknown_subsystem(self):
        with pytest.raises(BadFieldError, match="subsystem"):
            loads(make_csv(row(subsystem="payload")))

    def test_empty_mission_functions(self):
        with pytest.raises(BadFieldError, match="mission_functions"):
            loads(make_csv(row(missions="")))

    def test_empty_title(self):
        with pytest.raises(BadFieldError, match="title"):
            loads(make_csv(row(title="")))

    @pytest.mark.parametrize("cell, error", [
        (dict(subsystem="payload"), (BadFieldError, "subsystem")),
        (dict(stride="S;X"), (BadStrideTokenError, "stride")),
        (dict(techniques="T1078;1078"), (BadTechniqueIdError, "attack_techniques")),
        (dict(missions="availability;bogus"), (BadFieldError, "mission_functions")),
        (dict(vector="CVSS:3.1/AV:X"), (BadFieldError, "cvss_vector")),
        pytest.param(dict(title=""), (BadFieldError, "title"), id="empty-title"),
        pytest.param(dict(stride=""), (BadStrideTokenError, "stride"), id="empty-stride"),
        pytest.param(dict(score="7.45"), (ScoreOutOfRangeError, "cvss_score"),
                     id="score-precision"),
        pytest.param(dict(score="10.1"), (ScoreOutOfRangeError, "cvss_score"), id="score-range"),
        pytest.param(dict(vector="CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", score="9.9"),
                     (VectorScoreMismatchError, "cvss_score"), id="vector-score-mismatch"),
        pytest.param(dict(missions=""), (BadFieldError, "mission_functions"),
                     id="empty-missions"),
    ], ids=lambda v: next(iter(v)) if isinstance(v, dict) else "")
    def test_repeated_bad_cell_names_each_row(self, cell, error):
        error, column = error
        for row_id in ("A1", "B2"):
            with pytest.raises(error, match=f"^row {row_id}: ") as exc_info:
                loads(make_csv(row(id="Z9"), row(id=row_id, **cell)))
            assert (exc_info.value.row_id, exc_info.value.column) == (row_id, column)

    def test_tokens_trimmed_and_matched_in_any_case(self):
        padded = row(subsystem=" COMMS ", stride=" s ; t ", missions=" Availability ")
        canonical = row(subsystem="comms", stride="S;T", missions="availability")
        assert loads(make_csv(padded)) == loads(make_csv(canonical))

    def test_byte_order_mark_accepted(self, tmp_path, register, register_path):
        path = tmp_path / "register.csv"
        path.write_bytes(codecs.BOM_UTF8 + register_path.read_bytes())
        assert load_register(path) == register

    def test_loads_skips_byte_order_mark(self, register, register_path):
        text = "\ufeff" + register_path.read_text(encoding="utf-8")
        assert loads(text) == register
        assert loads(io.StringIO(text, newline="")) == register

    @pytest.mark.parametrize("at", [100, 12_000], ids=["first-block", "later-block"])
    def test_byte_order_mark_keeps_byte_positions(self, tmp_path, register_path, at):
        data = codecs.BOM_UTF8 + register_path.read_bytes()
        path = tmp_path / "register.csv"
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        with pytest.raises(RegisterError, match=f"byte 0xff in position {at}:"):
            load_register(path)

    @pytest.mark.parametrize("source, bad, shown", [
        pytest.param("pipe", b"\xff", "byte 0xff in position 10000:", id="pipe"),
        pytest.param("fifo", b"\xff", "byte 0xff in position 10000:", id="fifo"),
        pytest.param("pipe", b"\xf0\x9f\x98(", "bytes in position 10000-10002:",
                     id="pipe-cut-sequence"),
        pytest.param("fifo", b"\xf0\x9f\x98(", "bytes in position 10000-10002:",
                     id="fifo-cut-sequence"),
    ])
    def test_undecodable_pipe_is_a_register_error(self, tmp_path, register_path, source,
                                                  bad, shown):
        # Read once, a pipe or FIFO names the byte's position in its input, as a file does.
        data = register_path.read_bytes()[:10_000] + bad
        if source == "pipe":
            if not Path("/dev/fd").is_dir():
                pytest.skip("needs /dev/fd")
            read, write = os.pipe()
            os.write(write, data)  # within the pipe's buffer
            os.close(write)
            path = Path(f"/dev/fd/{read}")
        else:
            if not hasattr(os, "mkfifo"):
                pytest.skip("needs named pipes")
            path = tmp_path / "register.fifo"
            os.mkfifo(path)
            # A daemon thread: its open() waits for the reader.
            threading.Thread(target=path.write_bytes, args=(data,), daemon=True).start()
        try:
            with pytest.raises(RegisterError, match=f"^cannot read register file {path}: "
                               f"'utf-8' codec can't decode {shown}") as raised:
                load_register(path)
        finally:
            if source == "pipe":
                os.close(read)
        assert isinstance(raised.value.__cause__, UnicodeDecodeError)

    def test_multivalued_cells(self):
        reg = loads(make_csv(row(stride="S;T;E", missions="availability;other")))
        entry = reg.entries[0]
        assert entry.stride == {Stride.SPOOFING, Stride.TAMPERING,
                                Stride.ELEVATION_OF_PRIVILEGE}
        assert entry.mission_functions == {MissionFunction.AVAILABILITY,
                                           MissionFunction.OTHER}


class TestRoundTrip:
    def test_bundled_round_trip(self, register):
        assert loads(serialize(register)) == register

    def test_round_trip_small(self):
        reg = loads(make_csv(
            row(id="A1", stride="S;T", techniques="T1078",
                vector="CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", score="9.8",
                description='quoted, "text"', missions="availability;other"),
            row(id="B2")))
        assert loads(serialize(reg)) == reg

    def test_source_path_excluded_from_equality(self, register):
        other = Register(entries=list(register.entries), source_path="elsewhere")
        assert other == register

    def test_bundled_register_loads_through_load_register(self, register_path):
        bundled = load_bundled_register()
        assert bundled == load_register(register_path)
        assert Path(bundled.source_path) == register_path

    def test_save_and_load(self, tmp_path, register):
        from spwkit.register import save_register
        out = tmp_path / "reg.csv"
        save_register(register, out)
        assert load_register(out) == register


class TestRegisterType:
    def test_repeated_id_rejected(self):
        entry = loads(make_csv(row(id="A1"))).entries[0]
        with pytest.raises(DuplicateIdError, match="^duplicate id 'A1'$") as exc_info:
            Register(entries=[entry, entry])
        assert (exc_info.value.row_id, exc_info.value.column) == ("A1", "id")

    def test_frozen(self):
        register = loads(make_csv(row()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            register.entries = []

    def test_entries_from_any_iterable(self):
        entries = loads(make_csv(row(id="A1"), row(id="B2"))).entries
        register = Register(entries=iter(entries))
        assert register.entries == entries
        assert register == Register(entries=list(entries))
        assert register.get("B2") is entries[1]


class TestSlottedRecords:
    """Entries and vectors are slotted frozen dataclasses and keep the record
    contract: copies compare and hash equal, fields cannot be assigned."""

    ENTRY = loads(make_csv(row(
        id="A1", stride="S;T", techniques="T1078",
        vector="CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", score="9.8",
        missions="availability;other"))).entries[0]

    @pytest.fixture(params=["entry", "vector"])
    def record(self, request):
        return self.ENTRY if request.param == "entry" else self.ENTRY.cvss_vector

    def test_slotted(self, record):
        assert not hasattr(record, "__dict__")
        assert dataclasses.asdict(record)

    @pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_equal(self, record, clone):
        twin = clone(record)
        assert twin is not record
        assert twin == record and hash(twin) == hash(record)

    def test_replace(self, record):
        name = dataclasses.fields(record)[0].name
        changed = dataclasses.replace(record, **{name: "P"})
        assert getattr(changed, name) == "P" and changed != record
        assert dataclasses.replace(changed, **{name: getattr(record, name)}) == record

    def test_fields_cannot_be_assigned(self, record):
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, "P")

    def test_register_pickles(self, register):
        twin = pickle.loads(pickle.dumps(register))
        assert twin == register
        assert twin.get("C1") == register.get("C1")


def _triage_register():
    """The register-triage seed-1 input of ``bench/inputs.py``, loaded by path."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("_bench_inputs_register",
                                                  root / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up while building the class
    spec.loader.exec_module(module)
    inp = module.generate("register-triage", 1, root)
    return loads(inp.files["register.csv"].decode("utf-8"))


def _field_values(record):
    # Not dataclasses.astuple: that turns a nested CvssVector into a plain tuple.
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


class TestSlotBuiltRecords:
    """``loads`` builds entries, and ``parse_vector`` canonical vectors, by setting
    their slots directly; those records are the ones the dataclass ``__init__`` builds."""

    @pytest.fixture(scope="class", params=["bundled", "register-triage-1"])
    def loaded(self, request):
        return load_bundled_register() if request.param == "bundled" else _triage_register()

    @staticmethod
    def _assert_same(built, made):
        assert built == made and hash(built) == hash(made)
        assert repr(built) == repr(made)
        assert pickle.dumps(built) == pickle.dumps(made)

    def test_entries_match_init(self, loaded):
        for entry in loaded:
            self._assert_same(entry, VulnerabilityEntry(*_field_values(entry)))

    def test_vectors_match_init(self, loaded):
        vectors = {e.cvss_vector for e in loaded if e.cvss_vector}
        assert vectors
        for vector in vectors:
            self._assert_same(vector, cvss.CvssVector(*_field_values(vector)))

    def test_builder_preconditions(self):
        # The builders take fields positionally and skip __post_init__: a check added
        # there, or a reordered field, would otherwise be skipped or misassigned silently.
        for cls in (VulnerabilityEntry, cvss.CvssVector):
            assert not hasattr(cls, "__post_init__")
            assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
        assert VulnerabilityEntry.__slots__ == COLUMNS
        assert tuple("".join(word[0] for word in f.name.split("_")).upper()
                     for f in dataclasses.fields(cvss.CvssVector)) == cvss.METRIC_ORDER


class TestCollectorPause:
    """``loads`` leaves the cyclic collector as found, however it returns: only
    the ``spw`` process (``cli.run``) turns it off."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @staticmethod
    def _read(case, tmp_path, register_path):
        if case == "good":
            return loads(make_csv(row()))
        if case == "bad-row":
            return loads(make_csv(row(id="A1"), row(id="B2", subsystem="moon")))
        if case == "csv-error":  # a cell longer than csv.field_size_limit()
            return loads(make_csv(row(description="x" * (csv.field_size_limit() + 1))))
        data = register_path.read_bytes()  # an undecodable byte well past the header
        path = tmp_path / "register.csv"
        path.write_bytes(data[:12_000] + b"\xff" + data[12_000:])
        return load_register(path)

    @pytest.mark.parametrize("case, error", [
        pytest.param("good", None, id="good"),
        pytest.param("bad-row", "^row B2: unknown subsystem", id="bad-row"),
        pytest.param("csv-error", "^row 2: field larger than field limit", id="csv-error"),
        pytest.param("undecodable", "can't decode byte 0xff in position 12000:",
                     id="undecodable"),
    ])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_left_as_found(self, tmp_path, register_path, case, error, enabled):
        (gc.enable if enabled else gc.disable)()
        if error is None:
            self._read(case, tmp_path, register_path)
        else:
            with pytest.raises(RegisterError, match=error):
                self._read(case, tmp_path, register_path)
        assert gc.isenabled() is enabled


BUNDLED = load_bundled_register()
FREE_TEXT = ("description", "preconditions", "impact", "mitigations")
TITLES = st.text(min_size=1).map(str.strip).filter(bool)


@st.composite
def registers(draw):
    """Bundled entries with arbitrary titles and free-text cells."""
    picked = draw(st.lists(st.sampled_from(BUNDLED.entries), min_size=1, max_size=4,
                           unique_by=lambda e: e.id))
    return Register(entries=[
        dataclasses.replace(e, title=draw(TITLES),
                            **{column: draw(st.text()) for column in FREE_TEXT})
        for e in picked])


def _with_free_text(text):
    entry = dataclasses.replace(BUNDLED.entries[0], **dict.fromkeys(FREE_TEXT, text))
    return Register(entries=[entry])


LINE_BREAK_CELLS = _with_free_text(
    "crlf\r\n cr\r lf\n nel\x85 ls\u2028 ps\u2029 vt\x0b ff\x0c nul\x00 \"q\", c")


CORPUS_TEXT = (Path(__file__).parent / "data" / "cvss_corpus.csv").read_text(encoding="utf-8")
CORPUS = [(cvss.parse_vector(r["vector"]), float(r["score"]))
          for r in csv.DictReader(CORPUS_TEXT.splitlines())]
SCORES = st.one_of(st.sampled_from(CORPUS),
                   st.integers(0, 100).map(lambda tenths: (None, tenths / 10)))


@st.composite
def entries(draw, entry_id):
    """A valid entry: vector and score from the corpus, or a score only."""
    vector, score = draw(SCORES)
    return VulnerabilityEntry(
        id=entry_id, title=draw(TITLES), subsystem=draw(st.sampled_from(Subsystem)),
        stride=draw(st.frozensets(st.sampled_from(Stride), min_size=1)),
        attack_techniques=tuple(draw(st.lists(
            st.from_regex(r"T[0-9]{4}(\.[0-9]{3})?", fullmatch=True), max_size=3))),
        cvss_vector=vector, cvss_score=score,
        mission_functions=draw(st.frozensets(st.sampled_from(MissionFunction), min_size=1)),
        **{column: draw(st.text()) for column in FREE_TEXT})


@st.composite
def arbitrary_registers(draw):
    ids = draw(st.lists(st.from_regex(r"[A-Za-z][0-9]+", fullmatch=True),
                        max_size=5, unique=True))
    return Register(entries=[draw(entries(entry_id)) for entry_id in ids])


class TestRoundTripProperties:
    @given(arbitrary_registers())
    def test_arbitrary_entries_reload_equal(self, register):
        assert loads(serialize(register)) == register

    @given(registers())
    @example(LINE_BREAK_CELLS)
    def test_loads_serialize(self, register):
        assert loads(serialize(register)) == register

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(registers())
    @example(LINE_BREAK_CELLS)
    def test_save_and_load(self, tmp_path, register):
        path = tmp_path / "register.csv"
        save_register(register, path)
        assert load_register(path) == register


COMMENTS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"))
INSERTS = st.sampled_from(["", ",", '"', "\n", "\r", "\r\n", "#", "# c\n", ";", "X1", "9.9"])


@st.composite
def register_texts(draw):
    """Serialised registers behind leading comment lines, some with a few
    characters inserted, which may break the CSV or the schema."""
    text = serialize(draw(registers()))
    for at, piece in draw(st.lists(st.tuples(st.integers(min_value=0), INSERTS), max_size=3)):
        at %= len(text) + 1
        text = text[:at] + piece + text[at:]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "".join(f"#{c}{end}" for c in draw(st.lists(COMMENTS, max_size=2))) + text


def _outcome(read):
    """What ``read()`` returns, or the class and message of the error it raises."""
    try:
        return read()
    except RegisterError as exc:
        return type(exc), str(exc)


class TestFileAndTextAgree:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(register_texts())
    def test_load_register_matches_loads(self, tmp_path, text):
        path = tmp_path / "register.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with path.open(encoding="utf-8", newline="") as fh:
            text = fh.read()
        assert _outcome(lambda: load_register(path)) == _outcome(lambda: loads(text))
