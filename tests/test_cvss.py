"""Vector parsing and base-score behaviour, checked against the frozen
corpus and the independent decimal oracle."""

import random

import pytest
from hypothesis import given, strategies as st

from spwkit import cvss
from spwkit.errors import (
    BadPrefixError,
    BadValueError,
    DuplicateMetricError,
    MissingMetricError,
    UnknownMetricError,
)

from .cvss_oracle import all_vectors, load_corpus, oracle_score_vector

FULL = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"

# Widely published scores for common vector shapes; guards both the engine
# and the oracle against a shared transcription slip.
KNOWN_SCORES = [
    (FULL, 9.8, "Critical"),
    ("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:C/C:H/I:H/A:H", 10.0, "Critical"),
    ("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N", 7.5, "High"),
    ("CVSS:3.1/AV:N/AC:L/PR:N/UI:R/S:C/C:L/I:L/A:N", 6.1, "Medium"),
    ("CVSS:3.1/AV:L/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:H", 7.8, "High"),
    ("CVSS:3.1/AV:N/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:H", 8.8, "High"),
    ("CVSS:3.1/AV:N/AC:L/PR:N/UI:R/S:U/C:H/I:H/A:H", 8.8, "High"),
    ("CVSS:3.1/AV:A/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", 8.8, "High"),
    ("CVSS:3.1/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H", 8.1, "High"),
    ("CVSS:3.1/AV:N/AC:L/PR:L/UI:R/S:C/C:L/I:L/A:N", 5.4, "Medium"),
    ("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:N/A:N", 5.3, "Medium"),
    ("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N", 0.0, "None"),
]


def vector_strategy():
    return st.builds(
        cvss.CvssVector,
        attack_vector=st.sampled_from("NALP"),
        attack_complexity=st.sampled_from("LH"),
        privileges_required=st.sampled_from("NLH"),
        user_interaction=st.sampled_from("NR"),
        scope=st.sampled_from("UC"),
        confidentiality=st.sampled_from("HLN"),
        integrity=st.sampled_from("HLN"),
        availability=st.sampled_from("HLN"),
    )


class TestParse:
    def test_full_vector(self):
        v = cvss.parse_vector(FULL)
        assert v == cvss.CvssVector("N", "L", "N", "N", "U", "H", "H", "H")

    def test_order_insensitive(self):
        shuffled = "CVSS:3.1/A:H/C:H/S:U/UI:N/PR:N/AC:L/AV:N/I:H"
        assert cvss.parse_vector(shuffled) == cvss.parse_vector(FULL)

    def test_bad_prefix(self):
        with pytest.raises(BadPrefixError):
            cvss.parse_vector("CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")

    def test_missing_metric(self):
        with pytest.raises(MissingMetricError, match="A"):
            cvss.parse_vector("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H")

    def test_duplicate_metric(self):
        with pytest.raises(DuplicateMetricError, match="AV"):
            cvss.parse_vector(FULL + "/AV:L")

    def test_bad_value(self):
        with pytest.raises(BadValueError, match="X"):
            cvss.parse_vector("CVSS:3.1/AV:X/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")

    def test_temporal_metric_rejected(self):
        with pytest.raises(UnknownMetricError, match="RL"):
            cvss.parse_vector(FULL + "/RL:O")

    def test_malformed_segment(self):
        with pytest.raises(UnknownMetricError):
            cvss.parse_vector("CVSS:3.1/AVN/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")

    @given(vector_strategy())
    def test_to_string_round_trip(self, vector):
        assert cvss.parse_vector(vector.to_string()) == vector

    def test_canonical_match_agrees_with_the_general_parse(self):
        """Canonical text takes one match; a permuted copy must go segment by
        segment, and a padded copy is stripped first. All three agree."""
        rng = random.Random(20261018)
        for text, score, _severity in load_corpus():
            segments = text.split("/")[1:]
            permuted = segments[:]
            while permuted == segments:
                rng.shuffle(permuted)
            variants = (text, "/".join([cvss.PREFIX, *permuted]), f" \t{text}\n ")
            vectors = [cvss.parse_vector(v) for v in variants]
            assert vectors[0] == vectors[1] == vectors[2]
            assert vectors[0].to_string() == text
            assert {cvss.base_score(v).score for v in vectors} == {score}

    @pytest.mark.parametrize("text, error, message", [
        (FULL.replace("AV:N", "AV:n"), BadValueError,
         "value 'n' not allowed for AV (one of N/A/L/P)"),
        (FULL.replace("3.1", "3.0"), BadPrefixError,
         "vector must start with 'CVSS:3.1/', got 'CVSS:3.0'"),
        (FULL + "/", UnknownMetricError, "malformed segment ''"),
        (FULL + "/AV:N", DuplicateMetricError, "metric 'AV' appears twice"),
        (FULL.replace("/S:U", "/S:U/S:U"), DuplicateMetricError, "metric 'S' appears twice"),
        (FULL + "/E:X", UnknownMetricError, "unknown metric 'E' in 'E:X'"),
        (FULL.replace("AV:N", "AV:X"), BadValueError,
         "value 'X' not allowed for AV (one of N/A/L/P)"),
        ("CVSS:3.1", MissingMetricError, "missing metric(s): AV, AC, PR, UI, S, C, I, A"),
    ])
    def test_near_misses_raise_the_general_errors(self, text, error, message):
        with pytest.raises(error) as raised:
            cvss.parse_vector(text)
        assert type(raised.value) is error and str(raised.value) == message


class TestBaseScore:
    @pytest.mark.parametrize("vector,score,severity", KNOWN_SCORES)
    def test_known_scores(self, vector, score, severity):
        got = cvss.score_string(vector)
        assert got.score == score
        assert str(got.severity) == severity
        assert oracle_score_vector(vector) == score

    def test_low_band_vector(self):
        # frozen from the decimal oracle
        got = cvss.score_string("CVSS:3.1/AV:P/AC:H/PR:H/UI:R/S:U/C:L/I:N/A:N")
        assert got.score == 1.6
        assert got.severity is cvss.Severity.LOW

    def test_zero_impact_is_zero_everywhere(self):
        for av in "NALP":
            got = cvss.score_string(f"CVSS:3.1/AV:{av}/AC:L/PR:N/UI:N/S:C/C:N/I:N/A:N")
            assert got.score == 0.0
            assert got.severity is cvss.Severity.NONE

    def test_corpus_equivalence(self):
        corpus = load_corpus()
        assert len(corpus) >= 200
        for vector, score, severity in corpus:
            got = cvss.score_string(vector)
            assert got.score == score, vector
            assert str(got.severity) == severity, vector

    def test_live_oracle_equivalence_full_enumeration(self):
        for vector in all_vectors():
            assert cvss.score_string(vector).score == oracle_score_vector(vector), vector

    @given(vector_strategy())
    def test_deterministic(self, vector):
        assert cvss.base_score(vector) == cvss.base_score(vector)

    @given(vector_strategy(), st.sampled_from(["confidentiality", "integrity", "availability"]))
    def test_impact_monotonic(self, vector, metric):
        ladder = {"N": "L", "L": "H"}
        current = getattr(vector, metric)
        if current == "H":
            return
        from dataclasses import replace
        raised = replace(vector, **{metric: ladder[current]})
        assert cvss.base_score(raised).score >= cvss.base_score(vector).score

    @pytest.mark.parametrize("metric", ["attack_vector", "scope", "availability"])
    def test_value_outside_the_tables_is_never_memoised(self, metric):
        # base_score's memo is unbounded because only the 2592 valid vectors can enter it.
        from dataclasses import replace
        vector = replace(cvss.parse_vector(FULL), **{metric: "X"})
        stored = cvss.base_score.cache_info().currsize
        with pytest.raises(KeyError):
            cvss.base_score(vector)
        assert cvss.base_score.cache_info().currsize == stored


class TestRoundup:
    @pytest.mark.parametrize("value,expected", [
        (0.0, 0.0),
        (4.0, 4.0),
        (4.02, 4.1),
        (4.0000001, 4.0),     # sub-1e-5 float fuzz must not bump the band
        (8.599999999999999, 8.6),
        (9.99, 10.0),
    ])
    def test_values(self, value, expected):
        assert cvss.roundup(value) == expected


class TestSeverityBands:
    @pytest.mark.parametrize("score,band", [
        (0.0, "None"),
        (0.1, "Low"), (3.9, "Low"),
        (4.0, "Medium"), (6.9, "Medium"),
        (7.0, "High"), (8.9, "High"),
        (9.0, "Critical"), (10.0, "Critical"),
    ])
    def test_edges(self, score, band):
        assert str(cvss.severity_for(score)) == band
