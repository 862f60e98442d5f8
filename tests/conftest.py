"""Shared fixtures."""

import pytest

from detnet.scaling import _memoised


@pytest.fixture(autouse=True)
def cold_memo():
    # every test starts from an empty libm memo, whatever ran before it
    _memoised.cache_clear()
    yield
    _memoised.cache_clear()
