"""Malformed register cells end in a ``RegisterError`` that names the row.

Every file here is the bundled register with one to three of its cells
replaced by hostile text, read through ``loads``.
"""

import csv
import io
from importlib import resources

from hypothesis import example, given, settings, strategies as st

from spwkit.errors import RegisterError
from spwkit.register import COLUMNS, BUNDLED_REGISTER, Register, loads

TEXT = (resources.files("spwkit") / "data" / BUNDLED_REGISTER).read_text(encoding="utf-8")
ROWS = list(csv.reader(line for line in TEXT.splitlines(keepends=True)
                       if not line.startswith("#")))[1:]

HOSTILE = st.one_of(
    st.text(max_size=12),
    st.sampled_from(sorted({cell for cells in ROWS for cell in cells[:8]})),
    st.sampled_from([
        "", " ", ";", " ; ", "S;X", "s", "ß", "COMMS", "payload", "T1078;1078", "t1078",
        "7", "7.45", "10.1", "-0.0", "٣.٥", "nan", "CVSS:3.1/AV:X", "CVSS:3.1/",
        "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", "availability;bogus",
        "\x00", "\r\n", '"', "#", "\ufeff", "\ud800", "A1", "11"]))


def _mutated(replacements):
    rows = [list(cells) for cells in ROWS]
    for row, column, text in replacements:
        rows[row % len(rows)][column] = text
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0), st.integers(0, len(COLUMNS) - 1), HOSTILE),
                min_size=1, max_size=3))
@example([(0, COLUMNS.index("title"), " ")])
@example([(5, COLUMNS.index("cvss_score"), "10.1")])
@example([(1, COLUMNS.index("id"), "C1")])
def test_mutated_register_loads_or_names_the_row(replacements):
    try:
        register = loads(_mutated(replacements))
    except RegisterError as exc:
        if exc.column in COLUMNS and exc.column != "id":
            assert str(exc).startswith(f"row {exc.row_id}: "), str(exc)
    else:
        assert isinstance(register, Register)
