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
