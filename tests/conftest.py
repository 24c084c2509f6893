import contextlib
import io

import pytest

# the helpers in shared.py assert as the tests do: report the compared values
pytest.register_assert_rewrite("shared")

from wsnsim.cli import main  # noqa: E402

from shared import CASES  # noqa: E402


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """Runs a golden CLI case of ``shared.CASES`` once per session, for every
    test that reads its outputs: ``golden_run(case)`` is its stdout and the
    directory of the files it wrote, which the tests only read."""
    runs = {}

    def run(case):
        if case not in runs:
            out = tmp_path_factory.mktemp(case) / "out"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main([*CASES[case], "--out", str(out)]) == 0
            runs[case] = stdout.getvalue(), out
        return runs[case]

    return run
