"""Running the spreadsmith command line, as a child process or in-process.

A child's peak RSS comes from ``os.wait4`` on that one child, never from
``RUSAGE_CHILDREN``, which is a running maximum over every child the
benchmark has reaped.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CHILD_TIMEOUT_S = 150.0


@dataclass
class Outcome:
    rc: int
    wall_s: float
    stdout: str
    stderr: str = ""
    peak_rss_kb: int = 0


def run_child(root: Path, argv: list[str], cwd: Path) -> Outcome:
    """``python -m spreadsmith.cli ARGV`` with the checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "spreadsmith.cli", *argv],
                                 stdout=out, stderr=err, cwd=cwd, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(child.returncode, wall, out.read().decode(),
                       err.read().decode(), usage.ru_maxrss)


def run_inprocess(argv: list[str]) -> Outcome:
    """``spreadsmith.cli.main(ARGV)`` in this process, stdout captured."""
    from spreadsmith import cli

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return Outcome(rc, time.perf_counter() - start, buf.getvalue())
