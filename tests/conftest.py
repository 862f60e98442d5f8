"""Shared fixtures."""

import contextlib
import warnings

import pytest

from detnet.scaling import _cached_terms

# hypothesis imports this module to report a failing example; its libcst
# import raises a DeprecationWarning, which the project-wide filter turns into
# an error that aborts the whole run. Import it once here, with that warning
# ignored, so that the filter stays an error for the project's own code.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(autouse=True)
def cold_memo():
    # every test starts from an empty grid-terms cache, whatever ran before it
    _cached_terms.cache_clear()
    yield
    _cached_terms.cache_clear()
