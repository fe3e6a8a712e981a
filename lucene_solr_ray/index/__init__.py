from . import codec, smallfloat
from .build import build_index
from .compact import compact_index
from .manifest import Manifest
from .snapshot import (
    create_snapshot,
    delete_snapshot,
    list_snapshots,
    purge,
    referenced_roots,
    restore_snapshot,
)

def stats_path(index_dir) -> str:
    """Path of the committed global-stats generation for `index_dir`.

    Stats files are append-only generations (`global_stats_gNNN.parquet`);
    the manifest's `stats["stats_file"]` names the one the current commit
    reads — resolve through it, never by filename convention.  Query
    serving reads the same rows from the generation's memory-mapped Arrow
    sidecar (`global_stats_gNNN.arrow`, `index.stats_sidecar`); the
    parquet is what offline readers and snapshots use."""
    from pathlib import Path

    m = Manifest.load(index_dir)
    name = m.data["stats"].get("stats_file", "global_stats.parquet")
    return str(Path(index_dir) / name)


__all__ = [
    "stats_path",
    "codec",
    "smallfloat",
    "build_index",
    "compact_index",
    "Manifest",
    "create_snapshot",
    "list_snapshots",
    "restore_snapshot",
    "referenced_roots",
    "delete_snapshot",
    "purge",
]
