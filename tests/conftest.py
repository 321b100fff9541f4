"""Fixtures shared by the test modules."""

import signal
import sys
from contextlib import contextmanager

import pytest


class TimeLimitExceeded(Exception):
    pass


@contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeLimitExceeded("still running after %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def time_limit():
    """`with time_limit(s):` fails the test after s seconds instead of hanging."""
    return _time_limit


@pytest.fixture
def int_digit_limit():
    """Python's default limit on int/str conversions, 4,300 digits, pinned for
    the test and the previous value put back after it."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(previous)
