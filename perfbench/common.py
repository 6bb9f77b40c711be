"""Helpers shared by the workloads: statistics, /proc readings, child
processes and run metadata."""

from __future__ import annotations

import math
import os
import platform
import signal
import statistics
import subprocess
import threading
from pathlib import Path


class BenchError(Exception):
    """The benchmark could not produce a valid result."""


class CorrectnessError(BenchError):
    """The program's output differs from the reference."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values, beyond: int = 10, cap: float = 0.99) -> tuple[float, float]:
    """The highest percentile (at most ``cap``) that leaves at least
    ``beyond`` samples above it, by nearest rank; returns
    ``(value, quantile)``.  With too few samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n <= beyond:
        return float(ordered[-1]), 1.0
    q = min(cap, (n - beyond) / n)
    rank = max(1, math.ceil(q * n))
    return float(ordered[rank - 1]), q


# ----------------------------------------------------------------------
# /proc
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may contain spaces; fields restart after ')'.
    return raw[raw.rindex(")") + 2:].split()


def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            parents.setdefault(int(fields[1]), []).append(int(entry))
    out, stack = [], [pid]
    while stack:
        current = stack.pop()
        out.append(current)
        stack.extend(parents.get(current, ()))
    return out


def task_cpu_ns(pid: int) -> int:
    """CPU nanoseconds of every thread of ``pid`` (0 once it is gone)."""
    total = 0
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0
    for tid in tids:
        try:
            total += int(Path(f"/proc/{pid}/task/{tid}/schedstat").read_text().split()[0])
        except OSError:
            pass
    return total


def vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakRss:
    """Peak resident set of a process tree: the sum over its processes
    of each one's high-water mark (VmHWM), sampled until :meth:`stop`."""

    def __init__(self, pid: int, interval_s: float = 0.2) -> None:
        self.pid = pid
        self.interval_s = interval_s
        self.peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        for member in descendants(self.pid):
            kb = vm_hwm_kb(member)
            if kb > self.peaks.get(member, 0):
                self.peaks[member] = kb

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.interval_s)

    def start(self) -> "PeakRss":
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop sampling; returns the peak in MB."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        return sum(self.peaks.values()) / 1024.0


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for knob in [k for k in env if k.startswith("REPRO_")]:
        del env[knob]  # the system under test runs with its defaults
    return env


def stop_process(proc: subprocess.Popen, timeout_s: float = 30.0) -> None:
    """SIGTERM, wait, then SIGKILL; always reaps the child."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout_s)


def read_line(proc: subprocess.Popen, timeout_s: float) -> str:
    """Next stdout line of ``proc``, or :class:`BenchError` on timeout/EOF."""
    result: list[str] = []
    reader = threading.Thread(
        target=lambda: result.append(proc.stdout.readline()), daemon=True
    )
    reader.start()
    reader.join(timeout_s)
    if not result or not result[0]:
        raise BenchError(
            f"child {proc.args[:3]} produced no output line "
            f"(exit code {proc.poll()})"
        )
    return result[0].strip()


# ----------------------------------------------------------------------
# metadata
# ----------------------------------------------------------------------
def src_lines(root: Path) -> int:
    total = 0
    for path in (root / "src").rglob("*.py"):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_metadata(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "src_lines": src_lines(root),
        "platform": platform.platform(),
    }

