#!/usr/bin/env python
"""Local replica of the driver's correctness gate.

Runs every `__ray_entry__.queries()` entry at a given sf_dir and compares it
against the matching `oracle_sql()` via DuckDB: row count, column names, and
exact values after sorting columns by name and rows by all columns.  Stricter
than the driver (exact float equality) — if this passes, the driver's
value-hash passes.

Usage: python tools/check_correctness.py [sf_dir] [name_filter...]
"""

from __future__ import annotations

import sys
import time
import traceback
from pathlib import Path

import numpy as np
import pandas as pd


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    if hasattr(res, "to_pandas") and not isinstance(res, pd.DataFrame):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        return [f"columns differ: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}"]
    if len(ray_df) != len(sql_df):
        problems.append(f"row count differs: ray={len(ray_df)} sql={len(sql_df)}")
        return problems
    # the driver's value-hash is dtype-sensitive (int64 vs DOUBLE hash
    # differently even when element-wise equal — seen live on sequence_pack
    # r3); the float coercion below would mask exactly that, so flag any
    # float-vs-integer class divergence explicitly.
    def _is_float(dt) -> bool:
        try:
            return np.issubdtype(dt, np.floating)
        except TypeError:  # pandas extension dtypes (string[python], …)
            return False

    for c in sorted(ray_df.columns):
        rf = _is_float(ray_df[c].dtype)
        sf = _is_float(sql_df[c].dtype)
        if rf != sf:
            problems.append(
                f"col {c}: dtype class differs (driver hash punishes this): "
                f"ray={ray_df[c].dtype} sql={sql_df[c].dtype}"
            )
    if problems:
        return problems
    a, b = canon(ray_df), canon(sql_df)
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if np.issubdtype(av.dtype, np.floating) or np.issubdtype(bv.dtype, np.floating):
            af = av.astype(np.float64)
            bf = bv.astype(np.float64)
            neq = ~((af == bf) | (np.isnan(af) & np.isnan(bf)))
            if neq.any():
                i = int(np.flatnonzero(neq)[0])
                problems.append(
                    f"col {c}: {int(neq.sum())} float mismatches, first@{i}: {af[i]!r} vs {bf[i]!r} (diff {af[i]-bf[i]:.3e})"
                )
        else:
            neq = av != bv
            if np.asarray(neq).any():
                i = int(np.flatnonzero(neq)[0])
                problems.append(f"col {c}: {int(np.sum(neq))} mismatches, first@{i}: {av[i]!r} vs {bv[i]!r}")
    return problems


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    filters = sys.argv[2:]
    # check THIS checkout's engine (before ray.init, so workers import it too)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod
    import duckdb

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    n_pass = n_fail = n_rows_only = 0
    for name, fn in qs.items():
        if filters and not any(f in name for f in filters):
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception:
            print(f"FAIL {name}: ray side raised\n{traceback.format_exc()}")
            n_fail += 1
            continue
        dt = time.time() - t0
        sql = sqls.get(name)
        if sql is None:
            print(f"ROWS {name}: {len(ray_df)} rows ({dt:.1f}s) [no oracle]")
            n_rows_only += 1
            continue
        try:
            sql_df = con.execute(sql).fetchdf()
        except Exception:
            print(f"FAIL {name}: SQL raised\n{traceback.format_exc()}")
            n_fail += 1
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            print(f"FAIL {name} ({dt:.1f}s):")
            for p in problems:
                print("   ", p)
            n_fail += 1
        else:
            print(f"PASS {name}: {len(ray_df)} rows ({dt:.1f}s)")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail, {n_rows_only} rows-only")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
