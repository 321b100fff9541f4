"""Fixtures shared by the test modules."""

import signal
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
