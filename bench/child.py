"""Run one child process under the benchmark's own ceilings.

Each child gets a wall-time ceiling and an RLIMIT_AS ceiling set on the
child alone, so a hang or a runaway allocation ends as a failed operation
instead of taking over the machine.  Output goes to files, so no pipe can
fill up.  The child is reaped with wait4(), which gives its own peak RSS and
CPU time: the run's peak leaves out known-defect children, which
getrusage(RUSAGE_CHILDREN) could not.
"""

from __future__ import annotations

import os
import resource
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

MEMORY_CEILING_BYTES = 512 << 20


@dataclass(frozen=True)
class ChildResult:
    argv: tuple[str, ...]
    returncode: int
    stdout: str
    stderr: str
    elapsed_s: float
    peak_rss_mb: float
    timed_out: bool
    cpu_s: float


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING_BYTES, MEMORY_CEILING_BYTES))


def run_child(
    argv: list[str], env: dict[str, str], ceiling_s: float, workdir: Path, cwd: Path
) -> ChildResult:
    """Run argv to completion or until ceiling_s passes, whichever is first.

    The wall time runs from just before the spawn to the reaping of the
    child, so interpreter start-up is included.
    """
    out_path = workdir / "child.out"
    err_path = workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=cwd, preexec_fn=_limit_memory)
    timed_out = True
    pidfd = os.pidfd_open(proc.pid)
    try:
        timed_out = not select.select([pidfd], [], [], max(ceiling_s, 0.0))[0]
    finally:
        # also when the benchmark itself is interrupted: no child outlives it.
        # The child is not reaped yet, so the kill cannot reach another process.
        os.close(pidfd)
        if timed_out:
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        # wait4 reaped the child; keep Popen from reaping it again
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        argv=tuple(argv),
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        elapsed_s=elapsed,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        timed_out=timed_out,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )
