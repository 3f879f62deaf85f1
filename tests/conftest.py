"""Suite-wide checks."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:          # no child at all
        return
    state = "still running" if pid == 0 else f"{pid} exited but was not reaped"
    pytest.fail(f"the test left a child process: {state}")


_MASK = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@pytest.fixture(autouse=True)
def cpu_mask_put_back():
    """Give the process its CPU mask back after each test: ``fork_map``
    restores the mask it read, and a test may have faked that one."""
    yield
    if _MASK is not None:
        os.sched_setaffinity(0, _MASK)
