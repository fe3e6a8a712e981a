"""Commit-point snapshots + restore (SURVEY §2.10 commit surface):

- Lucene SnapshotDeletionPolicy (lucene/core/src/java/org/apache/lucene/
  index/SnapshotDeletionPolicy.java): a snapshot pins an IndexCommit so
  its files survive later writes.  Here the manifest IS the commit point
  and index writes are append-only (incremental builds add shard dirs,
  compaction writes new `shards_genNNN/` generations and leaves the old
  root) — so pinning a commit is just preserving its manifest plus the
  mutable side-state (tombstones).
- Solr backup/restore (solr/core/src/java/org/apache/solr/handler/
  ReplicationHandler.java `command=backup` / RestoreCore): `restore`
  atomically swaps the live manifest back to the snapshot (tmp+rename,
  same protocol as the build's commit).

Snapshots are METADATA-SIZED (one manifest JSON + the small per-shard
tombstone parquets) — no posting data is copied, which is what makes this
viable at 100 TB.  Deleting old generation directories is therefore only
safe when no snapshot references them (`referenced_roots`).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from .manifest import MANIFEST_NAME, Manifest
from .stats_sidecar import sidecar_path, write_stats_sidecar

SNAP_DIR = "snapshots"


def _tombstone_files(index_dir: Path) -> list[Path]:
    d = index_dir / "tombstones"
    return sorted(d.glob("*.parquet")) if d.is_dir() else []


def create_snapshot(index_dir: str | Path, name: str) -> Path:
    """Pin the current commit: copy manifest + tombstone files into
    `snapshots/<name>/`.  Fails if the index is uncommitted or the name
    exists (snapshots are immutable)."""
    index_dir = Path(index_dir)
    m = Manifest.load(index_dir)
    if m is None or not m.committed:
        raise RuntimeError(f"index at {index_dir} has no committed manifest")
    dest = index_dir / SNAP_DIR / name
    if dest.exists():
        raise FileExistsError(f"snapshot {name!r} already exists")
    tmp = dest.with_name(dest.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "tombstones").mkdir(parents=True)
    shutil.copy2(index_dir / MANIFEST_NAME, tmp / MANIFEST_NAME)
    for f in _tombstone_files(index_dir):
        shutil.copy2(f, tmp / "tombstones" / f.name)
    tmp.rename(dest)  # atomic publish, same protocol as shard commits
    return dest


def list_snapshots(index_dir: str | Path) -> list[str]:
    d = Path(index_dir) / SNAP_DIR
    return sorted(p.name for p in d.iterdir() if p.is_dir() and not p.name.endswith(".tmp")) if d.is_dir() else []


def restore_snapshot(index_dir: str | Path, name: str) -> Manifest:
    """Swap the live commit back to the snapshot: tombstones restored
    first, then the manifest rename IS the commit flip — a crash in
    between leaves the current (newer) manifest live and intact."""
    index_dir = Path(index_dir)
    src = index_dir / SNAP_DIR / name
    if not (src / MANIFEST_NAME).exists():
        raise FileNotFoundError(f"no snapshot {name!r} under {index_dir}")
    tomb = index_dir / "tombstones"
    shutil.rmtree(tomb, ignore_errors=True)
    snap_tombs = sorted((src / "tombstones").glob("*.parquet"))
    if snap_tombs:
        tomb.mkdir(parents=True)
        for f in snap_tombs:
            shutil.copy2(f, tomb / f.name)
    legacy = index_dir / "tombstones.parquet"
    legacy.unlink(missing_ok=True)
    tmp = index_dir / (MANIFEST_NAME + ".restore.tmp")
    shutil.copy2(src / MANIFEST_NAME, tmp)
    tmp.rename(index_dir / MANIFEST_NAME)
    m = Manifest.load(index_dir)
    # a generation pinned before stats sidecars existed gets its sidecar
    write_stats_sidecar(index_dir / m.data["stats"].get("stats_file", "global_stats.parquet"))
    return m


def delete_snapshot(index_dir: str | Path, name: str) -> None:
    """Release a pinned commit (SnapshotDeletionPolicy.release); the files
    it pinned become purgeable."""
    d = Path(index_dir) / SNAP_DIR / name
    if not d.is_dir():
        raise FileNotFoundError(f"no snapshot {name!r} under {index_dir}")
    shutil.rmtree(d)


def _commit_manifests(index_dir: Path) -> list[dict]:
    out = []
    for mp in [index_dir / MANIFEST_NAME] + [
        index_dir / SNAP_DIR / n / MANIFEST_NAME for n in list_snapshots(index_dir)
    ]:
        if mp.exists():
            out.append(json.loads(mp.read_text()))
    return out


def referenced_roots(index_dir: str | Path) -> set[str]:
    """Shard-root directory names referenced by the LIVE manifest or ANY
    snapshot — a generation cleanup must keep exactly these."""
    return {
        m["config"].get("shards_dir", "shards") for m in _commit_manifests(Path(index_dir))
    }


def purge(index_dir: str | Path) -> list[str]:
    """Delete shard-root generations and global-stats generations (the
    parquet and its `.arrow` sidecar) that no live or pinned commit
    references (IndexFileDeleter semantics: a file survives exactly as
    long as some commit lists it).  Returns the removed paths."""
    index_dir = Path(index_dir)
    manifests = _commit_manifests(index_dir)
    keep_roots = {m["config"].get("shards_dir", "shards") for m in manifests}
    keep_stats = {m.get("stats", {}).get("stats_file", "global_stats.parquet") for m in manifests}
    removed: list[str] = []
    for p in index_dir.iterdir():
        if p.is_dir() and (p.name == "shards" or p.name.startswith("shards_gen")):
            if p.name not in keep_roots:
                shutil.rmtree(p)
                removed.append(str(p))
        elif p.name.startswith("global_stats") and p.suffix == ".parquet":
            if p.name not in keep_stats:
                # a generation's sidecar lives and dies with its parquet
                for f in (p, sidecar_path(p)):
                    if f.exists():
                        f.unlink()
                        removed.append(str(f))
    return removed
