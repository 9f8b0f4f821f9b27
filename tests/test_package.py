"""The package's public namespace."""

import spwkit


def test_every_public_name_resolves():
    missing = [name for name in spwkit.__all__ if not hasattr(spwkit, name)]
    assert missing == []


def test_public_names_are_unique():
    assert len(spwkit.__all__) == len(set(spwkit.__all__))
