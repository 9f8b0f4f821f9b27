"""Report documents: what a built report keeps in memory, and how they render."""

import ast
import dataclasses
import tracemalloc
import warnings
from pathlib import Path

import pytest

from spwkit import report
from spwkit.register import Register, load_bundled_register
from spwkit.report import ReportDocument, Section, classify_report

# Bytes per row a classify table may keep beyond the register. One shared
# string per distinct score and tier leaves about a row tuple (56-88 B,
# depending on Python's tuple free list); a string per cell and a second copy
# of each row kept about 225 B.
CLASSIFY_BYTES_PER_ROW = 150


def test_classify_table_keeps_one_tuple_per_row():
    bundled = load_bundled_register()
    register = Register(entries=[
        dataclasses.replace(bundled.entries[i % len(bundled)], id=f"V{i}")
        for i in range(5000)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # entries tagged only 'other'
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            doc = classify_report(register)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert len(doc.sections[0].rows) == 5000
    assert kept / len(register) < CLASSIFY_BYTES_PER_ROW


def test_classify_scores_keep_the_sign_of_zero():
    bundled = load_bundled_register()
    register = Register(entries=[
        dataclasses.replace(bundled.entries[i], id=f"Z{i}", cvss_score=score)
        for i, score in enumerate((0.0, -0.0, 0.0, 2.0))])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = classify_report(register).sections[0].rows
    assert [r[3] for r in rows] == ["0.0", "-0.0", "0.0", "2.0"]


def test_markdown_escapes_header_and_body_cells():
    doc = ReportDocument((Section("T", ("a|b", "c\nd"), (("1|2", "3\r\n4"),)),))
    assert doc.render("md") == "## T\n\n| a\\|b | c<br>d |\n| --- | --- |\n| 1\\|2 | 3<br>4 |\n"
    assert doc.render("csv") == '# T\na|b,"c\nd"\n1|2,"3\r\n4"\n'  # csv quotes as before


def test_documents_are_frozen():
    doc = ReportDocument((Section("T", prose="p"),))
    with pytest.raises(dataclasses.FrozenInstanceError):
        doc.sections = ()


def test_report_imports_scenario_only_for_type_checking():
    tree = ast.parse(Path(report.__file__).read_text(encoding="utf-8"))
    runtime = [node.module for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert "scenario" not in runtime and "spw" in runtime
