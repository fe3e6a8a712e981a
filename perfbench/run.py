#!/usr/bin/env python3
"""raylex benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload build|query_head|query_tail|pipelines \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package under test is imported from
the working directory.  The run's inputs and index live under `.pb-<pid>/`
there; Ray's session dir, whose unix socket paths must stay short, is a
fresh temp dir.  Both are removed on exit.

With `--trace 0` the last stdout line carries the end-to-end metrics
(BENCHMARK.json `end_to_end`); with `--trace 1` it carries the per-layer
metrics of a traced run (`per_layer`).  The line before it is a JSON record
of host context and workload facts.  Progress goes to stderr.

On every exit path (success, exception, SIGTERM/SIGINT) Ray is shut down and
the run waits until no process it started is left: the run makes itself a
child subreaper, so Ray's daemons and workers stay its descendants even when
their parents die, and it reaps them all before it returns.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import Run, descendants, install_signal_handlers  # noqa: E402

WORKLOADS = ("build", "query_head", "query_tail", "pipelines")
PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace_s: float = 3.0, kill_s: float = 5.0) -> None:
    """Wait for every descendant to exit, SIGTERM then SIGKILL stragglers,
    and reap them."""
    deadline = time.monotonic() + grace_s
    sig = None
    while True:
        _reap()
        left = descendants(os.getpid())
        if not left:
            return
        now = time.monotonic()
        if now > deadline:
            if sig == signal.SIGKILL:
                raise RuntimeError(f"processes survive SIGKILL: {left}")
            sig = signal.SIGTERM if sig is None else signal.SIGKILL
            for pid in left:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            deadline = now + kill_s
        time.sleep(0.1)


def cpu_ticks() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def host_context(run: Run, ticks0: list[int]) -> dict:
    """Recorded beside every run, never used to normalise a metric.
    steal_frac is the hypervisor's share of all CPU time during the run."""
    d = [b - a for a, b in zip(ticks0, cpu_ticks())]
    return {
        "hw_probe_1proc": run.hw_probe,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_num_cpus": run.num_cpus,
        "steal_frac": d[7] / max(1, sum(d[:8])),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fail-at", default=None, help="raise at this phase (cleanup test)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "lucene_solr_ray" / "__init__.py").is_file():
        print("perfbench: run from a checkout root (lucene_solr_ray/ not found)", file=sys.stderr)
        return 2
    install_signal_handlers()
    _become_subreaper()
    num_cpus = min(4, len(os.sched_getaffinity(0)))

    run_dir = root / f".pb-{os.getpid()}"
    ray_dir = Path(tempfile.mkdtemp(prefix="pb"))
    run = Run(
        root=root, dir=run_dir, ray_dir=ray_dir, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), num_cpus=num_cpus, fail_at=args.fail_at,
    )
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    ticks0 = cpu_ticks()
    try:
        run_dir.mkdir(parents=True)
        import workloads

        result = getattr(workloads, args.workload)(run)
        run.phase("teardown")
        context = host_context(run, ticks0)
    finally:
        # a second signal must not cut the cleanup short
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        if "ray" in sys.modules:
            import ray

            if ray.is_initialized():
                ray.shutdown()
        stop_descendants()
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(ray_dir, ignore_errors=True)
        run.phase("done")

    detail = dict(result["detail"], workload=args.workload, seed=args.seed, trace=args.trace, host=context)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({"perfbench_detail": detail}, default=float))
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
