import glob
import os
import sys
from pathlib import Path

import pytest

# Make the shared oracle helpers importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).resolve().parent))


def child_pids() -> list[int]:
    """The live children of this process, from every thread's
    ``/proc/self/task/*/children``."""
    pids = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path) as fh:
                pids += [int(pid) for pid in fh.read().split()]
        except FileNotFoundError:   # a thread that ended meanwhile
            pass
    return pids


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    """Fail a test that leaves a child process running, as a benchmark run
    that leaves one is refused. Skipped where ``/proc`` is absent."""
    yield
    if os.path.isdir("/proc/self/task"):
        assert child_pids() == [], "a child process outlived the test"
