"""Shared plumbing: program processes, work dirs, statistics, environment.

Everything here runs in the benchmark's own process.  The program under
test is always a separate interpreter started from the checkout's
``src/`` tree, so the benchmark only ever sees the program through its
command lines, HTTP API and the files it writes.
"""

from __future__ import annotations

import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
#: Scratch space for program state; listed in the root .gitignore.
WORK_ROOT = os.path.join(ROOT, ".e2ebench")
BOOT = os.path.join(HERE, "boot.py")
#: Environment variable that switches the traced bootstrap on.
SPANS_ENV = "E2EBENCH_SPANS_DIR"


class BenchError(RuntimeError):
    """A wrong program output or a broken run: fails the whole run."""


def check_checkout() -> None:
    """Refuse to run outside a checkout that holds the program's source."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program source under {SRC}; run from the repository root")


def program_env(spans_dir: Optional[str] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # string-set iteration order repeats between runs
    env.pop(SPANS_ENV, None)
    if spans_dir is not None:
        env[SPANS_ENV] = spans_dir
    return env


def program_argv(module: str, args: Sequence[str], *, traced: bool) -> List[str]:
    """``python -m module args`` untraced; the span bootstrap when traced."""
    if traced:
        return [sys.executable, BOOT, module, *args]
    return [sys.executable, "-m", module, *args]


class Program:
    """One program process, reaped with :func:`os.wait4` for its rusage."""

    def __init__(self, argv: Sequence[str], *, spans_dir: Optional[str], log_path: str):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv),
            cwd=ROOT,
            env=program_env(spans_dir),
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.returncode: Optional[int] = None
        self.maxrss_kb = 0
        self.wall_s = math.nan

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.kill()
                raise BenchError(f"{self.proc.args[1:3]} did not exit within {timeout_s:.0f}s")
            time.sleep(0.002)
        self.wall_s = time.perf_counter() - self.t0
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode  # Popen must not reap it again
        self.maxrss_kb = usage.ru_maxrss
        self._log.close()
        return self.returncode

    def terminate(self, timeout_s: float = 30.0) -> int:
        if self.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            self.wait(timeout_s)
        return self.returncode

    def kill(self) -> None:
        if self.returncode is None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.returncode = self.proc.returncode
        self._log.close()

    def output(self) -> str:
        with open(self.log_path, "r", encoding="utf-8", errors="replace") as fh:
            return fh.read()


class WorkDir:
    """A fresh directory under ``.e2ebench/`` removed when the run ends."""

    def __init__(self, prefix: str):
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT)

    def sub(self, *parts: str) -> str:
        return os.path.join(self.path, *parts)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default), NaN when empty."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def proc_cpu_s(pid: int) -> float:
    """CPU seconds of *pid* plus its reaped children, from ``/proc``."""
    with open(f"/proc/{pid}/stat", "r") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = sum(int(x) for x in fields[11:15])  # utime stime cutime cstime
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of *pid* itself, from ``/proc``."""
    with open(f"/proc/{pid}/status", "r") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError(f"no VmHWM for pid {pid}")


def environment(seed: int) -> Dict[str, object]:
    """The host facts a result is only comparable under."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", "r") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "seed": seed,
    }
