"""Test harness shared by every test file: a test that loops fails instead of hanging."""

import signal

import pytest

# seconds a test may run; the slowest test takes about 2 s
TEST_TIME_LIMIT_S = 60


def _expire(signum, frame):
    raise TimeoutError(f"test still running after {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    """Raise ``TimeoutError`` in a test that runs past ``TEST_TIME_LIMIT_S``.

    The timer repeats, so a loop that swallows one ``TimeoutError`` is
    interrupted again; the test then fails with a traceback at the looping
    line and the run goes on.  Fixtures of a wider scope are set up before
    the timer starts and are not covered.  Where ``signal.setitimer`` is
    missing (Windows) the fixture does nothing.
    """
    if not hasattr(signal, "setitimer"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
