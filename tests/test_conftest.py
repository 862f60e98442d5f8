"""The test set-up itself: a failing property test reports its example, and
a DeprecationWarning from detnet code is still an error."""

import warnings
from pathlib import Path

import pytest

import detnet
from detnet import scaling

pytest_plugins = ["pytester"]

ROOT = Path(__file__).parents[1]

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_later():
    pass
"""


def test_failing_property_test_reports_its_example(pytester, monkeypatch):
    # a fresh process under the repo's own pytest settings and conftest: the
    # plugin imports its patching module only once a property test fails
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    pytester.makeconftest((ROOT / "tests" / "conftest.py").read_text())
    pytester.makepyfile(test_property=FAILING_PROPERTY)
    monkeypatch.setenv("PYTHONPATH", str(Path(detnet.__file__).parents[1]))
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert result.ret == 1
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.stdout.fnmatch_lines(["*Falsifying example: test_fails(*", "*x=5,*"])
    result.assert_outcomes(failed=1, passed=1)


def test_deprecation_warning_from_detnet_code_is_an_error():
    # the warning is attributed to the module whose globals raise it
    code = compile("warnings.warn('deprecated', DeprecationWarning)", scaling.__file__, "exec")
    with pytest.raises(DeprecationWarning, match="deprecated"):
        exec(code, {"warnings": warnings, "__name__": scaling.__name__})
