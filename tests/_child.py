"""Run a child Python in its own session, from the repo root: on a
timeout its whole process group is killed, and with it the Ray daemons
(raylet, GCS, dashboard and runtime-env agents) it started, which would
otherwise outlive it."""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(args: list[str], timeout: float,
               what: str) -> subprocess.CompletedProcess:
    """``python *args``; fails the test if ``what`` outlasts ``timeout``."""
    p = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, cwd=REPO,
                         start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail(f"{what} did not finish in {timeout} s")
    return subprocess.CompletedProcess(p.args, p.returncode, out, err)
