"""Per-layer measurement from outside the program, plus the answer oracle.

The layers are the package's modules: `analysis`, `index`, `search` (driver
`searcher` + shard `actor`), `state` (caches) and `pipelines`.  Every
number here comes from timing or counting calls into their public
functions, or from wrapping those functions for the length of a traced
phase and restoring them afterwards; nothing in the package is edited.

`PER_LAYER` is the full list a traced run reports, in BENCHMARK.json order.
A layer the workload does not exercise reports 0.
"""

from __future__ import annotations

import importlib.util
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from common import dir_bytes, median

PIPELINE_NAMES = ("dedup_exact", "sessionize", "significant_terms")

PER_LAYER: dict[str, str] = {
    "analysis.analyze_s": "s",
    "analysis.tokens_per_s": "1/s",
    "index.read_s": "s",
    "index.invert_s": "s",
    "index.bucket_partition_s": "s",
    "index.merge_s": "s",
    "index.write_s": "s",
    "index.sample_hot_terms_s": "s",
    "index.finalize_s": "s",
    "index.append_finalize_s": "s",
    "index.kernel_path_s": "s",
    "index.orchestration_s": "s",
    "index.build_turns_per_s": "1/s",
    "index.append_turns_per_s": "1/s",
    "index.postings_bytes": "B",
    "index.n_terms": "count",
    "index.n_postings": "count",
    "index.shuffle_objects": "count",
    "index.shard_wall_max_over_median": "ratio",
    "index.bytes_per_input_byte": "ratio",
    "search.parse_ms": "ms",
    "search.stats_ms": "ms",
    "search.stats_reads": "count",
    "search.scatter_ms": "ms",
    "search.scatter_calls_per_request": "count",
    "search.shard_top_k_ms": "ms",
    "search.prune.candidates": "count",
    "search.prune.scored": "count",
    "search.prune.pruned_frac": "ratio",
    "search.scored_per_hit": "ratio",
    "state.result_cache.hit_rate": "ratio",
    "state.result_cache.items": "count",
    "state.postings_cache.hit_rate": "ratio",
    "state.postings_cache.items": "count",
    **{f"pipelines.{n}_{m}": u for n in PIPELINE_NAMES for m, u in (("s", "s"), ("rows", "count"))},
    "trace.untraced_op_p50_ms": "ms",
    "trace.traced_op_p50_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def complete(values: dict) -> dict:
    """{name: (value, unit)} for every PER_LAYER name, 0 where unmeasured."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}


def _trace_overhead(untraced_ms: float, traced_ms: float) -> dict:
    return {
        "trace.untraced_op_p50_ms": untraced_ms,
        "trace.traced_op_p50_ms": traced_ms,
        "trace.overhead_frac": traced_ms / untraced_ms - 1.0,
    }


# -- oracle -------------------------------------------------------------------


class Oracle:
    """`oracle.BruteForceIndex` over a corpus, in docID order.

    Scores come from the oracle's own `score_query`; only documents holding
    at least one query term are scored, which cannot change a positive
    query's answer and keeps the check cheap."""

    def __init__(self, paths: list[str]):
        from lucene_solr_ray.oracle import BruteForceIndex

        t = pa.concat_tables(pq.read_table(p, columns=["text", "role", "tool"]) for p in sorted(paths))
        self.roles = t.column("role").to_pylist()
        self.bf = BruteForceIndex(
            t.column("text").to_pylist(),
            fields={"role": self.roles, "tool": t.column("tool").to_pylist()},
        )
        self.postings: dict[str, list[int]] = {}
        for doc, terms in enumerate(self.bf.docs):
            for term in terms:
                self.postings.setdefault(term, []).append(doc)

    def stats_rows(self, n_docs: int | None = None) -> list[tuple[str, int, int]]:
        """Sorted (term, df, cf) over the first `n_docs` documents (all by
        default), counted from the oracle's per-document positions."""
        df, cf = Counter(), Counter()
        for doc in self.bf.docs[:n_docs]:
            for t, pos in doc.items():
                df[t] += 1
                cf[t] += len(pos)
        return [(t, df[t], cf[t]) for t in sorted(df)]

    def matches(self, q: str, fq: str | None = None) -> list[tuple[int, float]]:
        """Every match of q (∩ fq) as (doc, float32 score), rank order."""
        from lucene_solr_ray.search.query import parse_query

        node = parse_query(q)
        if node is None:
            return []
        cands = sorted({d for t in node.all_terms() for d in self.postings.get(t, ())})
        if fq is not None:
            cands = [d for d in cands if fq in self.bf.docs[d]]
        hits = []
        for d in cands:
            ok, score = self.bf.score_query(node, d)
            if ok:
                hits.append((d, float(np.float32(score))))
        hits.sort(key=lambda h: (-h[1], h[0]))
        return hits

    def answer(self, req: dict):
        """The answer `workloads._execute` must return for `req`."""
        if req["kind"] == "search":
            return self.matches(req["q"])[: req["k"]]
        hits = self.matches(req["q"], req["fq"])
        facets = Counter(self.roles[d] for d, _ in hits)
        return (len(hits), hits[: req["rows"]], sorted(facets.items(), key=lambda p: (-p[1], p[0])))


def load_check_correctness(root: Path):
    """tools/check_correctness.py, the repo's DuckDB comparison."""
    spec = importlib.util.spec_from_file_location("check_correctness", root / "tools" / "check_correctness.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# -- index -------------------------------------------------------------------------


class FinalizeTimer:
    """Wraps `index.build._finalize` while active and sums the time spent
    in it; `take()` returns the sum since the last take."""

    def __init__(self):
        self.pending = 0.0

    def __enter__(self):
        from lucene_solr_ray.index import build as B

        self._orig = B._finalize

        def timed(*a, **kw):
            t0 = time.perf_counter()
            try:
                return self._orig(*a, **kw)
            finally:
                self.pending += time.perf_counter() - t0

        B._finalize = timed
        return self

    def __exit__(self, *exc):
        from lucene_solr_ray.index import build as B

        B._finalize = self._orig

    def take(self) -> float:
        out, self.pending = self.pending, 0.0
        return out


def replay_kernels(paths: list[str], files_per_shard: int, out_dir: Path) -> dict:
    """Single-process replay of one cold build's kernels on the same files,
    stage by stage as `build_index`'s invert and merge tasks run them.

    analyze, invert and merge time calls into the package's functions
    (`_batch_analyzer`'s analyzer, `invert_partition`, `merge_bucket`).
    read, bucket_partition and write time this function's own copy of the
    task bodies around them (parquet read, pid column, norms write, bucket
    argsort/slice, postings write): `build_index` keeps those steps in
    private closures, so a change to them there does not show here.

    → per-stage self-times (s), analysed tokens, and the per-shard critical
    paths (slowest file invert + slowest bucket merge)."""
    from lucene_solr_ray.index import build as B

    t0 = time.perf_counter()
    specs = B.plan_files(paths)
    hot = B.sample_hot_terms([s.path for s in specs])
    st = Counter(sample_hot_terms=time.perf_counter() - t0)
    tokens = 0

    orig = B._batch_analyzer

    def timed_analyzer(tokenizer):
        fn = orig(tokenizer)

        def analyze(texts):
            nonlocal tokens
            a = time.perf_counter()
            out = fn(texts)
            st["analyze"] += time.perf_counter() - a
            tokens += len(out["term"])
            return out

        return analyze

    out_dir.mkdir(parents=True, exist_ok=True)
    n_b = B.N_BUCKETS
    shard_paths = []
    B._batch_analyzer = timed_analyzer
    try:
        for lo in range(0, len(specs), files_per_shard):
            shard = specs[lo : lo + files_per_shard]
            runs = min(4, len(shard))  # build_index's default n_salts
            parts, file_s = [], []
            for j, s in enumerate(shard):
                mark = sum(st.values())
                a = time.perf_counter()
                names = pq.read_schema(s.path).names
                cols = ["conv_id", "turn_idx", "text"] + [f for f in B.KEYWORD_FIELDS if f in names]
                table = pq.read_table(s.path, columns=cols)
                b = time.perf_counter()
                an0 = st["analyze"]
                partial, norms = B.invert_partition(table, s.base, hot, (j * runs) // len(shard), n_buckets=n_b)
                partial = partial.set_column(
                    partial.schema.get_field_index("pid"), "pid",
                    pa.array(np.full(partial.num_rows, s.pid, dtype=np.int32)),
                )
                c = time.perf_counter()
                pq.write_table(norms, out_dir / f"norms-{s.pid:05d}.parquet")
                d = time.perf_counter()
                bcol = partial.column("bucket").to_numpy(zero_copy_only=False)
                order = np.argsort(bcol, kind="stable")
                partial = partial.take(pa.array(order))
                bounds = np.searchsorted(bcol[order], np.arange(n_b + 1))
                parts.append([partial.slice(bounds[k], bounds[k + 1] - bounds[k]) for k in range(n_b)])
                e = time.perf_counter()
                st["read"] += b - a
                st["invert"] += (c - b) - (st["analyze"] - an0)
                st["write"] += d - c
                st["bucket_partition"] += e - d
                file_s.append(sum(st.values()) - mark)
            merge_s = []
            for k in range(n_b):
                live = [p[k] for p in parts if p[k].num_rows]
                if not live:
                    continue
                a = time.perf_counter()
                merged = B.merge_bucket(pa.concat_tables(live))
                b = time.perf_counter()
                pq.write_table(merged, out_dir / f"postings-{lo:05d}-{k:05d}.parquet")
                c = time.perf_counter()
                st["merge"] += b - a
                st["write"] += c - b
                merge_s.append(c - a)
            shard_paths.append(max(file_s) + (max(merge_s) if merge_s else 0.0))
    finally:
        B._batch_analyzer = orig
    return {"stages": dict(st), "tokens": tokens, "shard_paths": shard_paths}


def build_layers(run, base_paths: list[str], files_per_shard: int, traced: list,
                 finalize_s: dict[str, list[float]], untraced: list, base_turns: int,
                 append_turns: int) -> dict:
    rep = replay_kernels(base_paths, files_per_shard, run.dir / "replay")
    st = rep["stages"]
    finalize = median(finalize_s["cold"])
    kernel_work = sum(v for k, v in st.items() if k != "sample_hot_terms")
    # a lower bound on the cold build's wall if scheduling and object
    # transfer were free: hot-term sampling, then the shards' kernels
    # spread over the CPUs (never faster than the slowest shard's own
    # critical path), then finalize
    kernel_path = st["sample_hot_terms"] + max(kernel_work / run.num_cpus, max(rep["shard_paths"])) + finalize
    cold = median([w[0] for w in traced])
    append = median([w[1] for w in traced])
    out = {
        "analysis.analyze_s": st["analyze"],
        "analysis.tokens_per_s": rep["tokens"] / st["analyze"],
        "index.read_s": st["read"],
        "index.invert_s": st["invert"],
        "index.bucket_partition_s": st["bucket_partition"],
        "index.merge_s": st["merge"],
        "index.write_s": st["write"],
        "index.sample_hot_terms_s": st["sample_hot_terms"],
        "index.finalize_s": finalize,
        "index.append_finalize_s": median(finalize_s["append"]),
        "index.kernel_path_s": kernel_path,
        "index.orchestration_s": cold - kernel_path,
        "index.build_turns_per_s": base_turns / cold,
        "index.append_turns_per_s": append_turns / append,
    }
    out.update(_trace_overhead(median([sum(w) for w in untraced]) * 1e3, median([sum(w) for w in traced]) * 1e3))
    return out


def index_counts(index_dir: Path, input_bytes: int, n_files: int) -> dict:
    """Counts read from a committed index's manifest and files."""
    from lucene_solr_ray.index import build as B

    m = json.loads((index_dir / "manifest.json").read_text())
    walls = [s["wall_s"] for s in m["shards"].values()]
    return {
        "index.postings_bytes": sum(p.stat().st_size for p in index_dir.glob("shards/*/postings-*.parquet")),
        "index.n_terms": m["stats"]["n_terms"],
        "index.n_postings": sum(s["n_postings"] for s in m["shards"].values()),
        "index.shuffle_objects": n_files * (B.N_BUCKETS + 1),
        "index.shard_wall_max_over_median": max(walls) / median(walls),
        "index.bytes_per_input_byte": dir_bytes(index_dir) / input_bytes,
    }


# -- search and state --------------------------------------------------------------


class SearchTracer:
    """Wraps one Searcher's driver-side steps for the length of a `with`:
    `_parse` (query parsing), `stats.resolve` (LazyBM25Stats lookups) and
    `_scatter` (one round trip to every shard actor).  `begin`/`end`
    bracket one request."""

    def __init__(self, searcher):
        self.s = searcher
        self.requests: list[dict] = []
        self.rows: list[tuple[float, float, float, int, int]] = []
        self.cur = Counter()

    def _wrap(self, obj, name: str, key: str):
        fn = getattr(obj, name)

        def timed(*a, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                self.cur[key] += time.perf_counter() - t0
                self.cur[key + "_n"] += 1

        setattr(obj, name, timed)

    def __enter__(self):
        self._wrap(self.s, "_parse", "parse")
        self._wrap(self.s.stats, "resolve", "stats")
        self._wrap(self.s, "_scatter", "scatter")
        return self

    def __exit__(self, *exc):
        for obj, name in ((self.s, "_parse"), (self.s.stats, "resolve"), (self.s, "_scatter")):
            delattr(obj, name)

    def begin(self, req: dict) -> None:
        self.requests.append(req)
        self.cur = Counter(reads0=self.s.stats.reads)

    def end(self, latency_s: float) -> None:
        c = self.cur
        self.rows.append((latency_s, c["parse"], c["stats"], c["scatter_n"], self.s.stats.reads - c["reads0"]))

    def metrics(self, untraced_lat: list[float], traced_lat: list[float]) -> dict:
        r = np.asarray(self.rows, dtype=np.float64)
        lat, parse, stats, calls, reads = r.T
        out = {
            "search.parse_ms": float(np.median(parse)) * 1e3,
            "search.stats_ms": float(np.median(stats)) * 1e3,
            "search.stats_reads": float(np.mean(reads)),
            "search.scatter_ms": float(np.median(lat - parse - stats)) * 1e3,
            "search.scatter_calls_per_request": float(np.mean(calls)),
        }
        out.update(_trace_overhead(median(untraced_lat) * 1e3, median(traced_lat) * 1e3))
        return out


def cache_metrics(searcher) -> dict:
    """Result cache from `Searcher.metrics()`; decoded-postings cache from
    each actor's `prune_stats()`."""
    rc = searcher.metrics()["result_cache"]
    pc = [p["cache"] for p in searcher._scatter("prune_stats")]
    hits, misses = sum(c["hits"] for c in pc), sum(c["misses"] for c in pc)
    return {
        "state.result_cache.hit_rate": rc["hit_rate"],
        "state.result_cache.items": rc["items"],
        "state.postings_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "state.postings_cache.items": sum(c["items"] for c in pc),
    }


def shard_replay(index_dir: Path, requests: list[dict], execute) -> dict:
    """Replay requests on an in-process Searcher (`use_ray=False`, one
    IndexShard over every shard dir) and time `IndexShard.top_k`."""
    from lucene_solr_ray.search import Searcher

    s = Searcher(str(index_dir), use_ray=False)
    shard = s.actors[0]
    fn = shard.top_k
    calls: list[float] = []
    hits = 0

    def timed(*a, **kw):
        nonlocal hits
        t0 = time.perf_counter()
        out = fn(*a, **kw)
        calls.append(time.perf_counter() - t0)
        hits += len(out[0])
        return out

    shard.top_k = timed
    try:
        for req in requests:
            execute(s, req)
    finally:
        del shard.top_k
    p = shard.prune_stats()
    n = max(1, len(requests))
    return {
        "search.shard_top_k_ms": median(calls) * 1e3 if calls else 0.0,
        "search.prune.candidates": p["candidates"] / n,
        "search.prune.scored": p["scored"] / n,
        "search.prune.pruned_frac": p["pruned_frac"],
        "search.scored_per_hit": p["scored"] / hits if hits else 0.0,
    }


# -- pipelines ------------------------------------------------------------------------


def pipeline_layers(times: dict[str, float], out_rows: dict[str, int], untraced: list[float],
                    traced: list[float]) -> dict:
    out = {}
    for name in PIPELINE_NAMES:
        out[f"pipelines.{name}_s"] = times.get(name, 0.0)
        out[f"pipelines.{name}_rows"] = out_rows.get(name, 0)
    out.update(_trace_overhead(median(untraced) * 1e3, median(traced) * 1e3))
    return out
