import pickle

import pytest

from tsa.errors import TimeLimitError
from tsa.util import Deadline, check_deadline


def test_deadline_scope():
    """Outside any ``with`` the poll does nothing; inside, the innermost
    deadline wins, and the outer one is back on exit, by an exception too.  A
    pickled copy keeps its start."""
    check_deadline()
    with Deadline(0):
        with pytest.raises(TimeLimitError):
            check_deadline()
        with Deadline(60):
            check_deadline()
        with pytest.raises(TimeLimitError):
            check_deadline()
        with pytest.raises(KeyError), Deadline(None):
            check_deadline()
            raise KeyError("leaves the inner scope")
        with pytest.raises(TimeLimitError):
            check_deadline()
    check_deadline()
    with Deadline(60) as deadline:
        copy = pickle.loads(pickle.dumps(deadline))
    assert (copy.seconds, copy.t0) == (60, deadline.t0)


@pytest.mark.parametrize("seconds", [-1, -0.5, float("nan"), float("-inf")])
def test_deadline_refuses_a_limit_below_zero_or_nan(seconds):
    """NaN compares false with everything, so it would never expire."""
    with pytest.raises(ValueError, match="time limit must be >= 0"):
        Deadline(seconds)
