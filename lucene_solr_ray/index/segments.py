"""The per-pid segment store: the one module that knows `segments/`.

Each input file (pid) gets one segment at build, `segments/pid=NNNNN/
norms.parquet`: one row per doc in docID order — `doc_id`, the stored
`conv_id` and `turn_idx`, the text norms `dl`/`norm_byte` (plus `dl_<f>`/
`norm_byte_<f>` per extra analyzed field) and a `dv_<f>` doc-values column
per keyword field.  In-place numeric doc-value updates (Lucene's
`IndexWriter.updateNumericDocValue`) sit next to it in
`dv_updates.parquet` as (doc_id, field, value) rows, and `read` applies
them, so a sort, a stat, an `fl` projection and a fetch all see the same
value: the per-segment producer of Lucene's codec (`NormsProducer`,
`DocValuesProducer`, `StoredFieldsReader`) in one place.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

_NORMS = "norms.parquet"
_DV_UPDATES = "dv_updates.parquet"


def segment_path(index_dir: str | Path, pid: int) -> Path:
    """The norms segment of input file `pid`."""
    return Path(index_dir) / "segments" / f"pid={int(pid):05d}" / _NORMS


def write_segment(index_dir: str | Path, pid: int, norms: pa.Table) -> None:
    """Write `pid`'s segment atomically (tmp + rename), so a retried build
    task rewrites it whole."""
    path = segment_path(index_dir, pid)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{_NORMS}.tmp")
    pq.write_table(norms, tmp)
    os.replace(tmp, path)


def pids_of(manifest: dict, docs) -> np.ndarray:
    """The input file (pid) of each docID: docID = base(file) + rank, so a
    binary search over the manifest's input bases."""
    bases = np.asarray([b for _, _, b in manifest["config"]["inputs"]], dtype=np.int64)
    return np.searchsorted(bases, np.asarray(docs, dtype=np.int64), side="right") - 1


def paths_of(index_dir: str | Path, manifest: dict, docs) -> list[Path]:
    """The segments holding `docs`, in pid order."""
    return [segment_path(index_dir, pid) for pid in np.unique(pids_of(manifest, docs))]


def is_numeric(t: pa.DataType) -> bool:
    """A column that sorts, stats, functions and dv updates read as
    float64 (a keyword `dv_<f>` column is a string)."""
    return pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_boolean(t)


def read(paths, columns: list[str] | None = None, docs=None, filters=None) -> pa.Table:
    """`doc_id` plus `columns` (None: all) of the segments at `paths`,
    sorted by doc_id, each segment's dv updates applied to its numeric
    columns.  A column no segment holds is left out; one that only some
    segments hold reads null in the others.  A stored update its column's
    type cannot hold (2.5 or NaN for an integer column, which
    `write_dv_updates` refuses but older sidecars may carry) is skipped,
    so the built value shows.  `docs` keeps those docIDs
    only; `filters` is a parquet predicate on the built (pre-update)
    values."""
    tables, updates = [], []
    for p in map(Path, paths):
        cols = None
        if columns is not None:
            names = pq.read_schema(p).names
            cols = ["doc_id"] + [c for c in columns if c in names and c != "doc_id"]
        t = pq.read_table(p, columns=cols, filters=filters)
        if docs is not None:
            t = t.filter(pa.array(np.isin(t.column("doc_id").to_numpy(), docs)))
        tables.append(t)
        side = p.parent / _DV_UPDATES
        if side.exists():
            updates.append(pq.read_table(side))
    if not tables:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    t = pa.concat_tables(tables, promote_options="default").sort_by("doc_id")
    if not updates or not t.num_rows:
        return t
    u = pa.concat_tables(updates, promote_options="default")
    u_field = u.column("field").to_numpy(zero_copy_only=False)
    u_doc, u_val = u.column("doc_id").to_numpy(), u.column("value").to_numpy().astype(np.float64)
    dd = t.column("doc_id").to_numpy()
    for i, f in enumerate(t.schema):
        if f.name == "doc_id" or not is_numeric(f.type):
            continue
        m = u_field == f.name
        pos = np.searchsorted(dd, u_doc[m])
        ok = (pos < dd.size) & (dd[np.minimum(pos, dd.size - 1)] == u_doc[m]) & _fitting(f.type, u_val[m])
        if ok.any():
            t = t.set_column(i, f.name, _patched(t.column(i), pos[ok], u_val[m][ok]))
    return t


def _patched(col: pa.ChunkedArray, pos: np.ndarray, vals: np.ndarray) -> pa.Array:
    """`col` with `vals` at rows `pos`, in its own type (`read` passes only
    values that round-trip through it)."""
    v = col.to_numpy(zero_copy_only=False).copy()
    v[pos] = vals
    return pa.array(v, type=col.type, from_pandas=True)


def _fitting(t: pa.DataType, vals: np.ndarray) -> np.ndarray:
    """Which values round-trip through the column type `t` (Lucene's
    `updateNumericDocValue` takes a long: 2.5 and NaN do not fit an
    integer)."""
    with np.errstate(invalid="ignore", over="ignore"):  # out-of-range casts just fail the round trip
        back = vals.astype(t.to_pandas_dtype()).astype(np.float64)
    fit = back == vals
    return fit | (np.isnan(vals) & np.isnan(back)) if pa.types.is_floating(t) else fit


def write_dv_updates(
    index_dir: str | Path, manifest: dict, field: str, docs: np.ndarray, vals: np.ndarray
) -> None:
    """Persist in-place updates of the numeric column `field`: per pid,
    merged last-write-wins into its `dv_updates.parquet` (tmp + rename).
    A field that is not a numeric column of every touched segment (or is
    the docID itself) raises KeyError, and a value the column's type cannot
    hold raises ValueError, before anything is written."""
    pids = pids_of(manifest, docs)
    touched = np.unique(pids)
    for pid in touched:
        sch = pq.read_schema(segment_path(index_dir, pid))
        if field == "doc_id" or field not in sch.names or not is_numeric(sch.field(field).type):
            raise KeyError(f"not an updatable numeric doc-values field: {field!r}")
        if not _fitting(sch.field(field).type, vals[pids == pid]).all():
            raise ValueError(f"a value does not fit doc-values field {field!r} ({sch.field(field).type})")
    for pid in touched:
        path = segment_path(index_dir, pid).with_name(_DV_UPDATES)
        m = pids == pid
        new = pd.DataFrame({"doc_id": docs[m], "field": field, "value": vals[m]})
        if path.exists():
            old = pq.read_table(path).to_pandas()
            old = old[~((old["field"] == field) & old["doc_id"].isin(new["doc_id"]))]
            new = pd.concat([old, new], ignore_index=True)
        tmp = path.with_name(f".{_DV_UPDATES}.tmp")
        pq.write_table(pa.Table.from_pandas(new, preserve_index=False), tmp)
        os.replace(tmp, path)
