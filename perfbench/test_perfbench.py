"""Tests of the benchmark itself: it leaves no process or temp dir behind on
any exit path, refuses to run outside a checkout, and BENCHMARK.json lists
exactly the metrics it prints.

    python3 -m pytest perfbench/test_perfbench.py -q     (from the repo root)
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))


def _ours() -> set[int]:
    """Live processes started by a benchmark run in this checkout: their
    environment carries the checkout on PYTHONPATH, or their command line
    names its run dir."""
    out = set()
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == os.getpid():
            continue
        try:
            env = Path(f"/proc/{d}/environ").read_bytes().split(b"\0")
            cmd = Path(f"/proc/{d}/cmdline").read_bytes()
        except OSError:
            continue
        paths = [e.split(b"=", 1)[1] for e in env if e.startswith(b"PYTHONPATH=")]
        if any(str(ROOT).encode() in p.split(b":") for p in paths) or b"/.pb-" in cmd:
            out.add(int(d))
    return out


def _bench(*args: str) -> list[str]:
    return [sys.executable, "perfbench/run.py", "--workload", "query_tail", "--seed", "1",
            "--seconds", "2", "--trace", "0", *args]


def _ray_dirs() -> set[Path]:
    """Ray session dirs of benchmark runs (run.py's mkdtemp prefix)."""
    return set(Path(tempfile.gettempdir()).glob("pb*"))


def _assert_clean(before: set[int], dirs_before: set[Path], pid: int) -> None:
    left = _ours() - before
    assert not left, f"processes left running: {left}"
    assert not (ROOT / f".pb-{pid}").exists()
    assert not _ray_dirs() - dirs_before


def test_injected_failure_leaves_nothing_running():
    before, dirs = _ours(), _ray_dirs()
    p = subprocess.Popen(_bench("--fail-at", "timed"), cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    out, err = p.communicate(timeout=170)
    assert p.returncode != 0
    assert "InjectedFailure" in err
    assert '"correct"' not in out
    _assert_clean(before, dirs, p.pid)


def test_sigterm_mid_workload_leaves_nothing_running():
    before, dirs = _ours(), _ray_dirs()
    p = subprocess.Popen(_bench(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for line in p.stderr:
        if line.startswith("phase: timed"):
            break
    time.sleep(0.5)
    p.send_signal(signal.SIGTERM)
    out, _ = p.communicate(timeout=60)
    assert p.returncode == 128 + signal.SIGTERM
    assert '"correct"' not in out
    _assert_clean(before, dirs, p.pid)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run(_bench(), cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_benchmark_json_lists_the_printed_metrics():
    import layers
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = workloads.end_to_end([1.0], 2.0, 1.0, 100.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(__import__("run").WORKLOADS)
