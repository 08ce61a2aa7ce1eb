"""The suite's pytest configuration reports a failing property test.

``pyproject.toml`` turns every warning into an error.  The hypothesis
plugin touches ``mypy_extensions.TypedDict`` while it reports a failing
``@given`` test, and that deprecation warning, raised as an error inside
the plugin's report hook, used to end the session with ``INTERNALERROR``
before the next test ran.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = textwrap.dedent("""\
    from hypothesis import given, settings, strategies as st


    @settings(max_examples=5, database=None)
    @given(st.integers())
    def test_fails(x):
        assert x != x


    def test_after():
        pass
    """)


def test_failing_given_test_is_reported_and_the_session_goes_on(tmp_path):
    path = tmp_path / "test_failing_property.py"
    path.write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert done.returncode == 1
