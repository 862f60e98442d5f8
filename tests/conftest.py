"""Shared fixtures."""

import pytest

from detnet.scaling import _cached_terms


@pytest.fixture(autouse=True)
def cold_memo():
    # every test starts from an empty grid-terms cache, whatever ran before it
    _cached_terms.cache_clear()
    yield
    _cached_terms.cache_clear()
