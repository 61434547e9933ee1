"""Typed timeouts on futures."""

import pytest

from repro.runtime import FutureError, FutureTimeout, Promise, make_ready_future


class TestTimeouts:
    def test_get_timeout_raises_typed_exception(self):
        f = Promise().get_future()
        with pytest.raises(FutureTimeout):
            f.get(timeout=0.0)

    def test_future_timeout_is_future_error(self):
        # existing callers catching FutureError keep working
        assert issubclass(FutureTimeout, FutureError)

    def test_ready_future_ignores_timeout(self):
        assert make_ready_future(5).get(timeout=0.0) == 5
