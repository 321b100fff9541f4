"""Fixtures shared by the test modules."""

import signal
import sys
from contextlib import contextmanager

import pytest
from hypothesis import settings

# No example of a @given test may fail for its running time alone: the exact
# arithmetic's cost grows with the drawn entries.
settings.register_profile("tilecohom", deadline=None)
settings.load_profile("tilecohom")


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


@contextmanager
def _recorded(*targets):
    """The calls of the targets inside the block, as (name, args, result).

    A function is wrapped in every tilecohom namespace that holds it, since
    groups, complexes and dirlimit import the elimination routines by name; a
    method is wrapped on its class.  Every binding is put back on exit."""
    calls, restore = [], []

    def recording(fn):
        def record(*args):
            result = fn(*args)
            calls.append((fn.__qualname__, args, result))
            return result
        return record

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tilecohom"]
    try:
        for fn in targets:
            cls, _, attr = fn.__qualname__.rpartition(".")
            owners = ([(getattr(sys.modules[fn.__module__], cls), attr)] if cls else
                      [(m, key) for m in modules for key, value in vars(m).items() if value is fn])
            wrapper = recording(fn)
            for owner, key in owners:
                restore.append((owner, key, fn))
                setattr(owner, key, wrapper)
        yield calls
    finally:
        for owner, key, fn in reversed(restore):
            setattr(owner, key, fn)


@pytest.fixture(scope="session")
def recorded():
    """`with recorded(f, g, ...) as calls:` records every call of the library
    functions or methods f, g, ... made inside the block."""
    return _recorded
