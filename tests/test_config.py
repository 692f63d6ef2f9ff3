"""The test configuration: a failing test is reported as one failure, and the
session goes on to the tests after it."""

import os
import subprocess
import sys
import textwrap

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")


def test_failing_property_is_one_failure_not_an_internal_error(tmp_path):
    # Hypothesis imports libcst to report a failure, and libcst's import warns
    # DeprecationWarning, which error::DeprecationWarning would make an INTERNALERROR
    (tmp_path / "test_sample.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", PYPROJECT, "-p",
                           "no:cacheprovider", str(tmp_path / "test_sample.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
