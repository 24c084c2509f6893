import pytest

# the helpers in shared.py assert as the tests do: report the compared values
pytest.register_assert_rewrite("shared")
