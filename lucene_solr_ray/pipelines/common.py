"""Shared helpers for the operator pipelines (driver correctness gate).

Float-parity convention: the driver compares Ray results against DuckDB by
value-hash, so every DERIVED float must be bit-deterministic.  Money/metric
sums therefore go through integer cents (`round half away from zero` per row
— exact in both engines — then exact integer sums); any exported float is
computed from exact integers with the same scalar formula on both sides.
Raw column values (never recomputed) pass through exactly and are safe.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


@dataclass
class Pipeline:
    """One operator pipeline: the Ray implementation + its DuckDB oracle.

    `sql is None` marks genuinely non-SQL-expressible ops (the driver then
    records a rows-only check)."""

    fn: Callable[[str], Any]
    sql: str | None
    doc: str = ""


def read(sf_dir: str, table: str, columns: list[str] | None = None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def merge_partials(ds, keys: list[str], ops: dict[str, str]):
    """Coordinator merge for BOUNDED-DOMAIN aggregates: `ds` holds
    combiner partials (one row per group per block), so the driver merge
    handles domain × blocks rows — never the raw row count.  This is the
    facet/stats coordinator pattern (per-shard responses merged centrally)
    and skips the Ray all-to-all Aggregate's fixed cost (~2-4 s per op on
    this box).  For UNBOUNDED key domains (ids, vocabularies) use
    `bucketed` instead."""
    return ds.to_pandas().groupby(keys, as_index=False).agg(ops)


def hash_dup_groups(ds, col: str) -> pd.DataFrame:
    """Exact dup groups of the hash column `col` of `ds`: a (hash, n)
    combiner partial per batch (only those rows leave each task), summed
    by `merge_partials`; groups with n ≥ 2, ranked (n desc, hash asc)."""

    def partial(batch):
        uniq, counts = np.unique(batch.column(col).to_numpy(), return_counts=True)
        return pa.table({col: pa.array(uniq), "n": pa.array(counts.astype(np.int64))})

    g = merge_partials(ds.map_batches(partial, batch_format="pyarrow"), [col], {"n": "sum"})
    g = g[g["n"] >= 2].sort_values(["n", col], ascending=[False, True])
    g["n"] = g["n"].astype("int64")
    return g.reset_index(drop=True)


# Fixed shuffle domain for unbounded keys: Ray's groupby().map_groups costs
# ~1 ms per GROUP, so a shuffle is never keyed by a vocabulary-sized column.
SHUFFLE_BUCKETS = 512
BUCKET_COL = "__bucket"  # the column `bucketed` adds for its groupby


def bucket_of(values, n: int) -> np.ndarray:
    """Deterministic key → bucket in [0, n).  Integer keys are their own
    residue; every other dtype goes through pandas' siphash (`hash_array`,
    fixed key — stable across worker processes, unlike builtin `hash`).  A
    DataFrame (multi-column key) hashes its rows."""
    if isinstance(values, pd.DataFrame):
        v = pd.util.hash_pandas_object(values, index=False).to_numpy()
    else:
        v = np.asarray(values)
        if not np.issubdtype(v.dtype, np.integer):
            v = pd.util.hash_array(v.astype(object, copy=False) if v.dtype.kind in "OUS" else v)
    return (v % n).astype(np.int64)


def bucketed(ds, key: str | list[str], fn: Callable, n_buckets: int | None = None):
    """The bounded co-location shuffle: every row with an equal `key` lands
    in the same `fn(group)` call, and there are at most `n_buckets` groups
    (None → `SHUFFLE_BUCKETS`, read at call time).  `fn` gets a pandas frame
    holding one bucket's rows — many distinct keys — plus a BUCKET_COL
    column, and does the real per-key work in pandas.  The bucket column is
    added in a map stage that Ray fuses into the caller's last map."""
    n = SHUFFLE_BUCKETS if n_buckets is None else n_buckets

    def add_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch[BUCKET_COL] = bucket_of(batch[key], n)
        return batch

    return (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby(BUCKET_COL)
        .map_groups(fn, batch_format="pandas")
    )


def pool(frac: float = 0.5, lo: int = 1) -> tuple[int, int]:
    """Actor-pool `concurrency` sized from the CLUSTER, not hard-coded
    (r3 verdict: monitor_match's `concurrency=2` capped the percolator's
    only heavy stage at 2 actors on any cluster).  Returns an autoscaling
    (lo, ceil(CPU·frac)) range: tiny inputs spin up one actor, a full
    cluster fills its share and Ray only grows the pool under load."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    return (lo, max(2, int(np.ceil(cpus * frac))))


def cents(x: np.ndarray) -> np.ndarray:
    """round(x*100) half-away-from-zero → int64 (DuckDB ROUND semantics)."""
    v = np.asarray(x, dtype=np.float64) * 100.0
    return (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)


def hugeint_to_double(v: int) -> float:
    """EXACTLY DuckDB's CAST(HUGEINT AS DOUBLE) (duckdb/src/common/types/
    hugeint.cpp Hugeint::Cast<double>): upper==0 → (double)lower;
    upper==-1 → -(double)(UINT64_MAX - lower) - 1; else (double)lower +
    (double)upper * (double)UINT64_MAX.  NOT correctly-rounded — the
    hi·(2⁶⁴−1) + lo recombination carries its own rounding — so any exact
    integer moment ≥ 2⁶³ (or any negative beyond 2⁵³) that a SQL twin
    casts to DOUBLE must go through THIS function, never float(x), or the
    value-hash gate diverges in the last ulp (seen live: describe_stats
    sumsq at sf0.1).  Identical to float(x) for 0 ≤ x < 2⁶³.  Probed
    bit-exact against DuckDB over 800 random hugeints."""
    hi = v >> 64
    lo = v & ((1 << 64) - 1)
    if hi == 0:
        return float(lo)
    if hi == -1:
        return -float((1 << 64) - 1 - lo) - 1.0
    return float(lo) + float(hi) * float((1 << 64) - 1)


def ts_us(series) -> np.ndarray:
    """pandas datetime series → int64 microseconds since epoch."""
    return series.astype("datetime64[us]").astype("int64").to_numpy()


def source_fingerprint(table_path: str | Path) -> str:
    """Content fingerprint of a parquet table (a file, or a dir of part
    files): row count + per-file name/size/mtime.  Persisted artifacts
    (ANN indexes, the suggester) store it in their manifest so an in-place
    change of the source rebuilds them instead of serving stale answers."""
    p = Path(table_path)
    files = sorted(p.rglob("*.parquet")) if p.is_dir() else [p]
    n_rows = sum(pq.read_metadata(f).num_rows for f in files)
    parts = [f"{f.name}:{f.stat().st_size}:{f.stat().st_mtime_ns}" for f in files]
    return hashlib.sha1(f"{n_rows}|{'|'.join(parts)}".encode()).hexdigest()
