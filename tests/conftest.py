"""A time limit on every test.

A defect in the engine can make a completion or a division loop forever;
without a limit the suite would then hang instead of failing.  The slowest
test takes about a second, so the limit is far above any honest run.
"""

import signal

import pytest

LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test if it runs longer than ``LIMIT_S`` seconds.  The timer
    is ``SIGALRM``'s, so where the platform has no ``setitimer`` no limit
    is set."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran longer than {LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
