"""The four workloads.  Each takes a `Run` and returns

    {"correct", "attempted", "failed",
     "end_to_end": {name: (value, unit)}, "per_layer": {name: (value, unit)},
     "detail": {...}}

End-to-end metrics are the same four on every workload; what counts as one
operation and one item differs, see `end_to_end`.  Per-layer metrics come
from a traced run (`run.trace`), which runs the timed loop untraced for
half the time and traced for the other half, so the tracing overhead is
the ratio of the two halves' median operation times.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import pyarrow.parquet as pq

import corpus
import layers
from common import (HostProbe, Run, cpu_s, dir_bytes, median, percentile, process_cpu_ns, ray_setup_times, rss_mb,
                    start_ray)

# build: a cold build of BUILD_FILES files, then an append of APPEND_FILES
BUILD_FILES, APPEND_FILES, BUILD_CONV_PER_FILE, BUILD_FILES_PER_SHARD = 8, 2, 300, 2
# serving: a 4-shard index, one shard actor per CPU
QUERY_FILES, QUERY_CONV_PER_FILE, QUERY_FILES_PER_SHARD = 8, 300, 2
ORACLE_SAMPLE = 12  # requests per run checked against the brute-force oracle
# set-ups per run, of which setup_s is the median; a Ray start-up reads 0 or
# 1 s more depending on Ray's own node-registration wait, so it gets more
RAY_SETUPS, SEARCHER_SETUPS = 4, 3
RESULT_CACHE_ITEMS, POSTINGS_CACHE_ITEMS = 1024, 50_000  # per actor, as built
SHARD_ACTOR = "ray::IndexShard"  # process title of a shard actor
# name -> input table.  Each is a registry groupby(bucket).map_groups
# shuffle pipeline with a DuckDB oracle.
PIPELINES = {"dedup_exact": "documents", "sessionize": "events", "significant_terms": "documents"}
PIPELINE_ROWS = {"n_docs": 5000, "n_events": 100_000}


def end_to_end(setup_s: list[float], cpu_ms: float, driver_cpu_ms: float, rss: float) -> dict:
    """The four metrics every workload reports.

    An op is one build cycle (cold build + append), one request, or one
    pass over the pipelines.  `cpu_ms` is the CPU time of the processes
    doing the work per op, `driver_cpu_ms` the Ray driver's share of it.
    For build and pipelines that is the whole run's CPU over the timed
    ops, divided by their number; for the query workloads it is the
    median over requests of the CPU the driver and the shard actors spent
    on each.  CPU time does not count hypervisor steal, which on a shared
    4-vCPU host moved wall-clock query latency by up to 3x between runs of
    the same work, so it is what the bounds gate; wall-clock figures go to
    the detail line."""
    return {
        "setup_s": (median(setup_s), "s"),
        "cpu_ms_per_op": (cpu_ms, "ms"),
        "driver_cpu_ms_per_op": (driver_cpu_ms, "ms"),
        "rss_mb": (rss, "MiB"),
    }


def _per_op_ms(cpu_s_sum: np.ndarray, ops: int) -> tuple[float, float]:
    return cpu_s_sum[0] * 1e3 / ops, cpu_s_sum[1] * 1e3 / ops


def _result(run: Run, attempted: int, failed: int, checks: list[str], e2e: dict, per_layer: dict,
            detail: dict) -> dict:
    for c in checks:
        print(f"check failed: {c}", file=sys.stderr, flush=True)
    detail["failed_checks"] = checks
    return {
        "correct": failed == 0 and not checks,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": layers.complete(per_layer),
        "detail": detail,
    }


def _log_failure(what: str) -> None:
    print(f"operation failed: {what}\n{traceback.format_exc()}", file=sys.stderr, flush=True)


# -- build -------------------------------------------------------------------


def stats_digest(rows) -> str:
    h = hashlib.sha256()
    for term, df, cf in rows:
        h.update(f"{term}\t{df}\t{cf}\n".encode())
    return h.hexdigest()


def index_stats(index_dir: Path) -> tuple[int, str, dict[str, tuple[int, int]]]:
    """(N, digest of the sorted (term, df, cf) table, {term: (df, cf)})."""
    m = json.loads((index_dir / "manifest.json").read_text())
    t = pq.read_table(index_dir / m["stats"]["stats_file"], columns=["term", "df", "cf"]).sort_by("term")
    rows = list(zip(t.column("term").to_pylist(), t.column("df").to_pylist(), t.column("cf").to_pylist()))
    return int(m["stats"]["N"]), stats_digest(rows), {r[0]: (r[1], r[2]) for r in rows}


def build(run: Run) -> dict:
    from lucene_solr_ray.index.build import build_index

    run.phase("setup")
    setup = ray_setup_times(run, RAY_SETUPS)
    probe = HostProbe(run)
    run.phase("corpus")
    base = corpus.transcripts(run.seed, run.dir / "corpus", BUILD_FILES, BUILD_CONV_PER_FILE)
    extra = corpus.transcripts(run.seed, run.dir / "corpus", APPEND_FILES, BUILD_CONV_PER_FILE,
                               first_file=BUILD_FILES, word_of_rank=base.word_of_rank)
    paths = base.paths + extra.paths
    run.phase("oracle")
    oracle = layers.Oracle(paths)
    rng = np.random.default_rng([run.seed, 9])
    want = {}  # step -> (N, stats digest, {sampled term: (df, cf)})
    for step, n_docs in (("cold", base.turns), ("append", base.turns + extra.turns)):
        rows = oracle.stats_rows(n_docs)
        sample = {rows[i][0]: rows[i][1:] for i in rng.choice(len(rows), 32, replace=False)}
        want[step] = (n_docs, stats_digest(rows), sample)
    index_dir = run.dir / "index"

    def cycle(phase_s: float, min_cycles: int, record: list, fin: layers.FinalizeTimer | None = None,
              steps=("cold", "append")):
        """Cold build + append, until `phase_s` has passed."""
        nonlocal attempted, failed
        t_end = time.perf_counter() + phase_s
        n = 0
        while n < min_cycles or time.perf_counter() < t_end:
            n += 1
            shutil.rmtree(index_dir, ignore_errors=True)
            walls, cpu = [], np.zeros(2)
            for step in steps:
                inputs, resume = (base.paths, False) if step == "cold" else (paths, True)
                attempted += 1
                try:
                    c0, t0 = cpu_s(), time.perf_counter()
                    build_index(inputs, index_dir, files_per_shard=BUILD_FILES_PER_SHARD, resume=resume)
                    walls.append(time.perf_counter() - t0)
                    cpu += np.subtract(cpu_s(), c0)
                    if fin:
                        finalize_s[step].append(fin.take())
                    got_n, digest, stats = index_stats(index_dir)
                except Exception:
                    _log_failure(f"{step} build")
                    failed += 1
                    continue
                want_n, want_digest, want_sample = want[step]
                ok = (got_n == want_n and digest == want_digest
                      and all(stats.get(t) == v for t, v in want_sample.items()))
                if not ok:
                    print(f"wrong {step} build: N={got_n} digest={digest[:12]}", file=sys.stderr, flush=True)
                    failed += 1
            if len(walls) == len(steps):
                record.append((walls, cpu))

    attempted = failed = 0
    finalize_s: dict[str, list[float]] = {"cold": [], "append": []}  # traced cycles only
    probe.wait()
    run.phase("warmup")
    start = time.perf_counter()
    cycle(0.0, 1, [], steps=("cold",))
    warm_s = time.perf_counter() - start
    timed: list = []  # (cold and append walls, CPU) per cycle
    run.phase("timed")
    per_layer: dict = {}
    if not run.trace:
        cycle(run.seconds, 2, timed)
    else:
        cycle(run.seconds / 2, 1, timed)
        traced: list = []
        with layers.FinalizeTimer() as fin:
            cycle(run.seconds / 2, 1, traced, fin)
        per_layer.update(layers.build_layers(
            run, base.paths, BUILD_FILES_PER_SHARD, [w for w, _ in traced], finalize_s,
            [w for w, _ in timed], base.turns, extra.turns,
        ))
        per_layer.update(layers.index_counts(index_dir, base.input_bytes + extra.input_bytes, len(base.paths)))
    rss = rss_mb("ray::")
    cycles = np.asarray([w for w, _ in timed])
    e2e = end_to_end(setup, *_per_op_ms(sum(c for _, c in timed), len(timed)), rss)
    detail = {
        "turns": base.turns, "append_turns": extra.turns,
        "input_bytes": base.input_bytes + extra.input_bytes,
        "distinct_terms": len(oracle.bf.df), "warmup_s": warm_s,
        "ray_setup_s": setup, "cycles_s": cycles.tolist(),
        "build_turns_per_s": base.turns / median(cycles[:, 0]),
        "append_turns_per_s": extra.turns / median(cycles[:, 1]),
        "index_bytes_per_input_byte": dir_bytes(index_dir) / (base.input_bytes + extra.input_bytes),
    }
    return _result(run, attempted, failed, [], e2e, per_layer, detail)


# -- query_head / query_tail ----------------------------------------------------


def _execute(searcher, req: dict):
    """Run one request; → a comparable answer."""
    if req["kind"] == "search":
        return [(d, s) for d, s in searcher.search(req["q"], req["k"])]
    r = searcher.handle_select({"q": req["q"], "fq": req["fq"], "rows": req["rows"], "facet.field": "role"})
    docs = [(d["doc_id"], d["score"]) for d in r["response"]["docs"]]
    facets = [tuple(x) for x in r["facet_counts"]["facet_fields"]["role"]]
    return (r["response"]["numFound"], docs, facets)


def _serve(run: Run, tail: bool) -> dict:
    import ray._private.state as ray_state

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search import Searcher

    run.phase("ray")
    start_ray(run)
    run.phase("corpus")
    cp = corpus.transcripts(run.seed, run.dir / "corpus", QUERY_FILES, QUERY_CONV_PER_FILE)
    index_dir = run.dir / "index"
    build_index(cp.paths, index_dir, files_per_shard=QUERY_FILES_PER_SHARD, resume=False)
    run.phase("oracle")
    probe = HostProbe(run)
    oracle = layers.Oracle(cp.paths)
    probe.wait()

    run.phase("setup")
    setup = []
    for i in range(SEARCHER_SETUPS):
        t0 = time.perf_counter()
        searcher = Searcher(str(index_dir))
        setup.append(time.perf_counter() - t0)
        if i < SEARCHER_SETUPS - 1:
            searcher.close()

    if tail:
        stream = corpus.TailStream(run.seed, cp)
        warm = [next(stream) for _ in range(30)]
        sample_reqs = None  # the first timed requests
    else:
        stream = corpus.HeadStream(run.seed, cp)
        space = stream.space
        warm = space
        sample_reqs = stream.searches[: ORACLE_SAMPLE - 4] + stream.selects[:4]
    run.phase("warmup")
    reference: dict[tuple, object] = {}
    attempted = failed = 0
    for req in warm:
        attempted += 1
        try:
            reference[corpus.req_key(req)] = _execute(searcher, req)
        except Exception:
            _log_failure(f"warm-up request {req}")
            failed += 1

    log: list[tuple[dict, object]] = []
    # the serving processes: this driver and the shard actors (Ray's
    # daemons and idle workers take no part in a request).  Actor pids come
    # from the GCS table, as Ray's public state API needs the dashboard.
    shard_pids = [ray_state.actors(a._actor_id.hex())["Pid"] for a in searcher.actors]
    cpu_ms: list[tuple[float, float]] = []  # (driver + shards, driver) per request

    def loop(phase_s: float, lat: list[float], tracer=None):
        nonlocal attempted, failed
        t_end = time.perf_counter() + phase_s
        while time.perf_counter() < t_end:
            req = next(stream)
            attempted += 1
            if tracer:
                tracer.begin(req)
            s0, d0 = sum(map(process_cpu_ns, shard_pids)), time.process_time_ns()
            t0 = time.perf_counter()
            try:
                ans = _execute(searcher, req)
            except Exception:
                _log_failure(f"request {req}")
                failed += 1
                continue
            lat.append(time.perf_counter() - t0)
            d = time.process_time_ns() - d0
            if tracer:
                tracer.end(lat[-1])
            else:
                cpu_ms.append(((d + sum(map(process_cpu_ns, shard_pids)) - s0) / 1e6, d / 1e6))
            if tail:
                if len(log) < ORACLE_SAMPLE:
                    log.append((req, ans))
            elif ans != reference.get(corpus.req_key(req)):
                print(f"answer changed from warm-up: {req}", file=sys.stderr, flush=True)
                failed += 1

    lat: list[float] = []
    per_layer: dict = {}
    run.phase("timed")
    if not run.trace:
        loop(run.seconds, lat)
    else:
        loop(run.seconds / 2, lat)
        traced_lat: list[float] = []
        tracer = layers.SearchTracer(searcher)
        with tracer:
            loop(run.seconds / 2, traced_lat, tracer)
        per_layer.update(tracer.metrics(lat, traced_lat))
        per_layer.update(layers.cache_metrics(searcher))
        replay = warm + tracer.requests if not tail else tracer.requests
        per_layer.update(layers.shard_replay(index_dir, replay[:400], _execute))
        per_layer.update(layers.index_counts(index_dir, cp.input_bytes, len(cp.paths)))
    rss = rss_mb(SHARD_ACTOR)
    run.phase("check")
    if sample_reqs is None:
        checked = log
    else:
        checked = [(r, reference.get(corpus.req_key(r))) for r in sample_reqs]
    checks = []
    for req, ans in checked:
        want = oracle.answer(req)
        if ans != want:
            checks.append(f"oracle mismatch on {req}: got {str(ans)[:200]} want {str(want)[:200]}")
    searcher.close()
    e2e = end_to_end(setup, *np.median(cpu_ms, axis=0), rss) if not run.trace else {}
    ms = np.asarray(lat) * 1e3
    detail = {
        "turns": cp.turns, "input_bytes": cp.input_bytes, "distinct_terms": len(oracle.bf.df),
        "requests_timed": len(lat), "oracle_checked": len(checked),
        "distinct_requests": len(stream.seen) if tail else len(space),
        "result_cache_items_per_actor": RESULT_CACHE_ITEMS,
        "postings_cache_items_per_actor": POSTINGS_CACHE_ITEMS,
        "searcher_setup_s": setup,
        "query_p50_ms": percentile(ms, 50), "query_p90_ms": percentile(ms, 90),
        "query_p99_ms": percentile(ms, 99), "query_qps": len(lat) / (ms.sum() / 1e3),
        "request_cpu_ms_mean": float(np.mean(cpu_ms, axis=0)[0]) if cpu_ms else None,
        "serve_rss_mb": rss,
    }
    return _result(run, attempted, failed, checks, e2e, per_layer, detail)


def query_head(run: Run) -> dict:
    return _serve(run, tail=False)


def query_tail(run: Run) -> dict:
    return _serve(run, tail=True)


# -- pipelines ------------------------------------------------------------------


def pipelines(run: Run) -> dict:
    import duckdb

    from lucene_solr_ray.pipelines import REGISTRY

    check = layers.load_check_correctness(run.root)
    run.phase("setup")
    setup = ray_setup_times(run, RAY_SETUPS)
    probe = HostProbe(run)
    run.phase("tables")
    sf_dir = run.dir / "sf"
    rows = corpus.pipeline_tables(run.seed, sf_dir, **PIPELINE_ROWS)
    run.phase("oracle")
    con = duckdb.connect()
    for t in rows:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir / t}.parquet')")
    want = {name: con.execute(REGISTRY[name].sql).fetchdf() for name in PIPELINES}
    con.close()
    probe.wait()
    items_per_pass = sum(rows[t] for t in PIPELINES.values())

    attempted = failed = 0
    per_pipeline: dict[str, list[float]] = {}

    def one_pass(times: dict[str, float], out_rows: dict[str, int]) -> tuple[float, np.ndarray]:
        """→ (wall s, (tree, driver) CPU s) summed over the pipelines."""
        nonlocal attempted, failed
        wall, cpu = 0.0, np.zeros(2)
        for name in PIPELINES:
            attempted += 1
            try:
                c0, t0 = cpu_s(), time.perf_counter()
                res = REGISTRY[name].fn(str(sf_dir))
                dt = time.perf_counter() - t0
                cpu += np.subtract(cpu_s(), c0)
                got = check.to_pandas(res)
            except Exception:
                _log_failure(f"pipeline {name}")
                failed += 1
                continue
            wall += dt
            times[name] = dt
            per_pipeline.setdefault(name, []).append(dt)
            out_rows[name] = len(got)
            problems = check.compare(name, got, want[name])
            if problems:
                print(f"pipeline {name} differs from DuckDB: {problems}", file=sys.stderr, flush=True)
                failed += 1
        return wall, cpu

    def passes(phase_s: float, min_passes: int) -> tuple[list, dict, dict]:
        """Whole passes, until `phase_s` has passed."""
        out, times, out_rows = [], {}, {}
        t_end = time.perf_counter() + phase_s
        while len(out) < min_passes or time.perf_counter() < t_end:
            out.append(one_pass(times, out_rows))
        return out, times, out_rows

    # the first pass after Ray start-up pays worker start and first-call
    # costs (about 1.5x a warm pass); it is checked but not timed
    run.phase("warmup")
    passes(0.0, 1)
    per_pipeline.clear()
    run.phase("timed")
    per_layer: dict = {}
    if not run.trace:
        timed, _, _ = passes(run.seconds, 1)
    else:
        timed, _, _ = passes(0.0, 1)
        traced, times, out_rows = passes(0.0, 1)
        per_layer.update(layers.pipeline_layers(times, out_rows, [w for w, _ in timed], [w for w, _ in traced]))
    rss = rss_mb("ray::")
    e2e = end_to_end(setup, *_per_op_ms(sum(c for _, c in timed), len(timed)), rss)
    pass_s = [w for w, _ in timed]
    detail = {
        "table_rows": rows, "passes_s": pass_s, "pipeline_s": per_pipeline, "ray_setup_s": setup,
        "pipelines_pass_s": median(pass_s), "input_rows_per_s": items_per_pass / median(pass_s),
    }
    return _result(run, attempted, failed, [], e2e, per_layer, detail)
