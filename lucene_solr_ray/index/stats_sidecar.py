"""The query-serving sidecar of a global-stats generation.

Next to every `global_stats_gNNN.parquet` sits `global_stats_gNNN.arrow`:
an uncompressed Arrow IPC file holding the same term-sorted (term, df, cf)
rows, one record batch per parquet row group.  The parquet stays the file
offline readers and snapshots use; the sidecar is what query serving
memory-maps, so an exact df/cf lookup is a binary search over bytes that
are already in the page cache instead of a footer parse and a row-group
decode per query (the per-query `IndexSearcher.termStatistics` resolution,
SURVEY.md §3.2, without a driver-held vocabulary).

This module is the one owner of the format: its name (`sidecar_path`), its
schema and writer (`write_stats_sidecar`) and its reader (`StatsSidecar`).
"""

from __future__ import annotations

import bisect
import os
import threading
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# fixed schema: the reader relies on int32 string offsets
SCHEMA = pa.schema([("term", pa.string()), ("df", pa.int64()), ("cf", pa.int64())])


def sidecar_path(parquet_path: str | Path) -> Path:
    """`global_stats_gNNN.arrow` for `global_stats_gNNN.parquet`."""
    return Path(parquet_path).with_suffix(".arrow")


def write_stats_sidecar(parquet_path: str | Path) -> Path:
    """Write the sidecar of a global-stats parquet, streaming one row group
    per record batch; tmp + rename, so a concurrent opener sees the whole
    file or none.  No-op if the sidecar already exists."""
    side = sidecar_path(parquet_path)
    if side.exists():
        return side
    tmp = side.with_name(f".{side.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with pq.ParquetFile(parquet_path) as src, pa.OSFile(str(tmp), "wb") as sink, \
                pa.ipc.new_file(sink, SCHEMA) as writer:
            for i in range(src.num_row_groups):
                writer.write_table(src.read_row_group(i, columns=SCHEMA.names).cast(SCHEMA))
        os.replace(tmp, side)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return side


class StatsSidecar:
    """Exact (df, cf) lookups in a memory-mapped sidecar.  Bisects the
    batches' last terms, then binary-searches UTF-8 bytes inside one batch
    through zero-copy views of its offsets and data buffers — no hash, no
    `combine_chunks` copy, and only the touched pages fault in."""

    def __init__(self, path: str | Path):
        # the mapping outlives the closed file: the batch buffers hold it
        with pa.memory_map(str(path)) as src:
            reader = pa.ipc.open_file(src)
            batches = [reader.get_batch(i) for i in range(reader.num_record_batches)]
        # per batch: (term offsets, term bytes, df, cf) views into the map;
        # Arrow sorts strings by UTF-8 bytes, which is Python's str order
        self._batches = []
        self._last: list[bytes] = []  # each batch's last term, ascending
        for b in batches:
            if not b.num_rows:
                continue
            term = b.column("term")
            _, offs, data = term.buffers()
            offsets = np.frombuffer(offs, dtype=np.int32)[term.offset : term.offset + len(term) + 1]
            data = memoryview(data)
            self._batches.append((offsets, data, b.column("df").to_numpy(), b.column("cf").to_numpy()))
            self._last.append(bytes(data[offsets[-2] : offsets[-1]]))

    def lookup(self, term: str) -> tuple[int, int]:
        """(df, cf) of `term`; (0, 0) if absent."""
        # a lone surrogate encodes to bytes no stored (valid UTF-8) term has
        key = term.encode("utf-8", "surrogatepass")
        j = bisect.bisect_left(self._last, key)
        if j == len(self._last):
            return (0, 0)
        offsets, data, dfs, cfs = self._batches[j]
        lo, hi = 0, offsets.size - 2  # key <= the batch's last term
        while lo < hi:
            mid = (lo + hi) // 2
            if bytes(data[offsets[mid] : offsets[mid + 1]]) < key:
                lo = mid + 1
            else:
                hi = mid
        if bytes(data[offsets[lo] : offsets[lo + 1]]) == key:
            return (int(dfs[lo]), int(cfs[lo]))
        return (0, 0)
