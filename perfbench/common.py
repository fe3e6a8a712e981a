"""Run context, Ray lifecycle and /proc helpers shared by the workloads."""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np


_T0 = time.perf_counter()


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def install_signal_handlers() -> None:
    """SIGTERM/SIGINT raise SystemExit, so every `finally` cleanup runs."""
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)


class InjectedFailure(RuntimeError):
    """Raised at the phase named by --fail-at (the cleanup test)."""


@dataclass
class Run:
    root: Path
    dir: Path
    ray_dir: Path
    seed: int
    seconds: float
    trace: bool
    num_cpus: int
    fail_at: str | None = None
    hw_probe: float | None = None

    def phase(self, name: str) -> None:
        print(f"phase: {name} at {time.perf_counter() - _T0:.1f}s", file=sys.stderr, flush=True)
        if self.fail_at == name:
            raise InjectedFailure(f"injected failure at phase {name!r}")


_PROBE = """
import importlib.util, sys, time
spec = importlib.util.spec_from_file_location("hw_probe", sys.argv[1])
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
t0 = time.perf_counter()
mod._unit(0)
print(1.0 / (time.perf_counter() - t0))
"""


class HostProbe:
    """tools/hw_probe.py's kernel, run once in a child process (units/s).

    Workloads start it while they prepare untimed inputs and wait for it
    before their first timed or warm-up operation, so it never overlaps a
    measurement."""

    def __init__(self, run: Run):
        self.run = run
        path = run.root / "tools" / "hw_probe.py"
        self.proc = None
        if path.exists():
            self.proc = subprocess.Popen([sys.executable, "-c", _PROBE, str(path)], stdout=subprocess.PIPE, text=True)

    def wait(self) -> None:
        if self.proc is not None:
            out, _ = self.proc.communicate()
            self.run.hw_probe = float(out) if self.proc.returncode == 0 else None


def start_ray(run: Run) -> float:
    """ray.init on this run's private session dir; → seconds until the
    first task has run.

    Workers inherit PYTHONPATH with the checkout on it, so they import the
    package wherever this script lives."""
    import ray

    path = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if str(run.root) not in path:
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(run.root), *path]))
    t0 = time.perf_counter()
    ray.init(
        num_cpus=run.num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024**2,
        _temp_dir=str(run.ray_dir),
    )
    install_signal_handlers()  # ray.init replaces them with its own
    ray.get(ray.remote(lambda: None).remote())
    elapsed = time.perf_counter() - t0
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return elapsed


def ray_setup_times(run: Run, n: int) -> list[float]:
    """Start Ray `n` times (shutting down between), leave it running."""
    import ray

    times = []
    for i in range(n):
        if i:
            ray.shutdown()
        times.append(start_ray(run))
    return times


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _proc_table() -> dict[int, tuple[int, int, int]]:
    """pid -> (ppid, own CPU ticks, CPU ticks of its reaped children).

    CPU time is user + system; the kernel accounts hypervisor steal apart
    from it, so it does not grow when the host takes the CPU away."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        # the comm field may contain spaces; the rest follows the last ')'
        f = stat[stat.rindex(b")") + 2 :].split()
        out[int(d)] = (int(f[1]), int(f[11]) + int(f[12]), int(f[13]) + int(f[14]))
    return out


def descendants(pid: int, table: dict | None = None) -> list[int]:
    table = _proc_table() if table is None else table
    kids: dict[int, list[int]] = {}
    for p, (pp, _, _) in table.items():
        kids.setdefault(pp, []).append(p)
    out, stack = [], [pid]
    while stack:
        for c in kids.get(stack.pop(), []):
            out.append(c)
            stack.append(c)
    return out


def cpu_s() -> tuple[float, float]:
    """(CPU seconds so far of this process and every descendant, CPU
    seconds of this process alone).  A descendant that exited was reaped
    by its parent in the tree, so its time sits in that parent's
    children's share; differences of two readings are the CPU spent in
    between."""
    table = _proc_table()
    me = os.getpid()
    procs = [me] + descendants(me, table)
    total = sum(table[p][1] + table[p][2] for p in procs if p in table)
    return total * _TICK_S, table[me][1] * _TICK_S


def process_cpu_ns(pid: int) -> int:
    """CPU time so far of process `pid`, every thread, in ns: the clock
    clock_getcpuclockid(3) gives for it.  The kernel keeps hypervisor
    steal out of it (paravirt steal accounting)."""
    return time.clock_gettime_ns((~pid << 3) | 2)


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return ""


def _vm_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def rss_mb(worker_prefix: str) -> float:
    """Resident memory of this process plus every descendant whose command
    line starts with `worker_prefix` (e.g. "ray::" for all Ray workers,
    "ray::IndexShard" for the shard actors), in MiB."""
    kb = _vm_rss_kb(os.getpid())
    for p in descendants(os.getpid()):
        if cmdline(p).startswith(worker_prefix):
            kb += _vm_rss_kb(p)
    return kb / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())
