#!/usr/bin/env python3
"""Paired, interleaved A/B of `perfbench/run.py`: a base revision against
the working tree, on the same host.

    python3 tools/ab.py --workload query_tail --seeds 41,42,43 --seconds 6 \
        [--base HEAD~1|<dir>] [--trace 0|1]

The base revision is checked out with `git worktree` under a temp dir and
removed on exit (also on SIGINT/SIGTERM); a `--base` that names a
directory is used as the base checkout as it stands (e.g. one exported
with `git archive <rev> | tar -x -C <dir>`).  For each seed the two sides
run back to back, the side that goes first alternating from pair to pair,
so slow drift in host load hits both equally.  Each run's result line is
printed as it lands (`correct`, `failed`); at the end, per metric: the
base and working-tree medians, their ratio, the base IQR (Q3 − Q1) and in
how many pairs the working tree was better (direction from
BENCHMARK.json), then per side the host context of its runs (medians of
`hw_probe_1proc` and `steal_frac` from the run's `perfbench_detail` line).
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run in `checkout`: its result line (the last
    stdout line), with the run's host context under "host"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        stdout, _ = proc.communicate()
    except BaseException:
        # let the run reap its Ray processes and remove its run dir
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        proc.terminate()
        proc.wait()
        raise
    lines = [json.loads(ln) for ln in stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": -1, "metrics": {}, "returncode": proc.returncode}
    detail = next((ln["perfbench_detail"] for ln in lines if "perfbench_detail" in ln), {})
    return dict(lines[-1], host=detail.get("host", {}))


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    names = sorted({m for b, h in pairs for m in b.get("metrics", {})})
    rows = [f"{'metric':<36}{'base':>12}{'head':>12}{'ratio':>8}{'base IQR':>11}  head better"]
    for m in names:
        got = [(b["metrics"][m]["value"], h["metrics"][m]["value"])
               for b, h in pairs if m in b.get("metrics", {}) and m in h.get("metrics", {})]
        if not got:
            continue
        base, head = np.array(got).T
        q1, q3 = np.percentile(base, [25, 75])
        mb, mh = float(np.median(base)), float(np.median(head))
        sign = -1.0 if better.get(m, "lower") == "lower" else 1.0
        wins = int(np.sum(sign * (head - base) > 0))
        ratio = f"{mh / mb:8.3f}" if mb else f"{'-':>8}"
        rows.append(f"{m:<36}{mb:12.4g}{mh:12.4g}{ratio}{q3 - q1:11.4g}  {wins}/{len(got)}")
    rows.append("host context (median over the side's runs):")
    for i, side in enumerate(("base", "head")):
        ctx = []
        for k in ("hw_probe_1proc", "steal_frac"):
            vals = [p[i]["host"][k] for p in pairs if isinstance(p[i].get("host", {}).get(k), (int, float))]
            ctx.append(f"{k} {np.median(vals):.4g}" if vals else f"{k} -")
        rows.append(f"  {side}: " + ", ".join(ctx))
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated, one pair per seed")
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--base", default="HEAD~1", help="git revision, or a checkout directory, to compare against")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.signal(signal.SIGINT, signal.default_int_handler)  # even if started with SIGINT ignored
    tmp = Path(tempfile.mkdtemp(prefix="ab"))
    given = Path(args.base).is_dir()
    base_dir = Path(args.base).resolve() if given else tmp / "base"
    pairs: list[tuple[dict, dict]] = []
    try:
        if given:
            rev = "directory"
        else:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "-q", str(base_dir), args.base],
                           check=True)
            rev = subprocess.run(["git", "-C", str(base_dir), "rev-parse", "--short", "HEAD"],
                                 check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
        print(f"base {args.base} ({rev}) vs working tree: {args.workload}, seeds {seeds}", flush=True)
        for i, seed in enumerate(seeds):
            sides = [("base", base_dir), ("head", ROOT)]
            res = {}
            for name, checkout in sides if i % 2 == 0 else sides[::-1]:
                res[name] = run_once(checkout, args.workload, seed, args.seconds, args.trace)
                print(f"seed {seed} {name}: correct={res[name]['correct']} failed={res[name]['failed']}",
                      flush=True)
            pairs.append((res["base"], res["head"]))
        print("\n".join(summarize(pairs, better)))
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        if not given:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base_dir)],
                           stderr=subprocess.DEVNULL)
            subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"])
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if all(r["correct"] and r["failed"] == 0 for p in pairs for r in p) else 1


if __name__ == "__main__":
    sys.exit(main())
