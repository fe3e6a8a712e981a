"""Incremental-index compaction — the TieredMergePolicy analog.

Append-only ingest (`build_index` with growing inputs, SURVEY.md §2.10)
keeps completed shards and adds new ones, so after many append rounds the
query fan-out grows linearly with shard count.  `compact_index` merges
adjacent shards back down to `max_shards` super-shards, the same job
TieredMergePolicy + SegmentMerger do for Lucene's segment tail
(lucene/core/src/java/org/apache/lucene/index/TieredMergePolicy.java,
SegmentMerger.java — SURVEY.md §3.1 publish+merge).

Merging is CHEAP here because shards cover disjoint, increasing docID
ranges: each merged bucket file is its members' rows concatenated in shard
order, every row (encoded payloads included) untouched.  Nothing is
re-keyed or re-sorted: the serving actor orders a term's runs by their
`first_doc` (SegmentMerger's docID order), which needs no per-shard label.

Crash safety (kill-and-rerun): the merged shard set is written into a NEW
generation directory (`shards_genNNN/`); the manifest — the commit point —
flips to it in one atomic rename only after every merged file exists.  A
crash at any earlier point leaves the old generation fully intact and the
manifest still pointing at it; rerunning `compact_index` redoes the work
idempotently.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .manifest import Manifest


def _merge_shard_group(member_dirs: list[str], out_dir: str) -> tuple[int, int]:
    """Merge one group of adjacent shards into `out_dir`.

    For every bucket file present in any member: concatenate the member
    files in shard order and write one merged bucket file.
    → (n_rows, n_postings)."""
    buckets: dict[str, list[Path]] = {}
    for d in member_dirs:
        for f in sorted(Path(d).glob("postings-*.parquet")):
            buckets.setdefault(f.name, []).append(f)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_rows = 0
    n_postings = 0
    for name, members in sorted(buckets.items()):
        merged = pa.concat_tables([pq.read_table(f) for f in members])
        pq.write_table(merged, out / name)
        n_rows += merged.num_rows
        n_postings += int(pc.sum(merged.column("df")).as_py() or 0)
    return n_rows, n_postings


def compact_index(
    index_dir: str | Path,
    max_shards: int = 4,
    fail_before_swap: bool = False,
) -> Manifest:
    """Merge the committed index's shards down to ≤ `max_shards`
    super-shards (no-op if already there).  Returns the (re)committed
    manifest.  `fail_before_swap` injects a crash after the merge work but
    before the commit — the kill-and-rerun test hook."""
    import ray

    index_dir = Path(index_dir)
    manifest = Manifest.load(index_dir)
    if manifest is None or not manifest.committed:
        raise RuntimeError(f"index at {index_dir} is not committed")
    cfg = manifest.data["config"]
    old_root = index_dir / cfg.get("shards_dir", "shards")
    shard_ids = sorted(int(k) for k in manifest.data["shards"])
    if len(shard_ids) <= max_shards:
        return manifest

    # contiguous grouping (doc ranges stay ordered): shard i → group
    # i·G // n, the same slicing rule the searcher uses for actor assignment
    n = len(shard_ids)
    groups: list[list[int]] = [[] for _ in range(max_shards)]
    for i, sid in enumerate(shard_ids):
        groups[i * max_shards // n].append(sid)
    groups = [g for g in groups if g]

    gen = int(cfg.get("compaction_gen", 0)) + 1
    new_root_name = f"shards_gen{gen:03d}"
    new_root = index_dir / new_root_name
    tmp_root = index_dir / f".{new_root_name}.tmp"
    shutil.rmtree(tmp_root, ignore_errors=True)
    shutil.rmtree(new_root, ignore_errors=True)  # stale from a prior crash
    tmp_root.mkdir(parents=True)

    merge_remote = ray.remote(_merge_shard_group)
    t0 = time.monotonic()
    refs = []
    for new_id, g in enumerate(groups):
        member_dirs = [str(old_root / f"shard={sid:05d}") for sid in g]
        refs.append(
            merge_remote.remote(member_dirs, str(tmp_root / f"shard={new_id:05d}"))
        )
    counts = ray.get(refs)
    wall = round(time.monotonic() - t0, 3)

    if fail_before_swap:
        raise RuntimeError("injected failure before compaction swap")

    os.replace(tmp_root, new_root)

    # rebuild the manifest shard table + plan; the atomic manifest save IS
    # the commit point (old generation untouched until after it lands)
    old_shards = manifest.data["shards"]
    new_shards = {}
    new_plan = []
    for new_id, g in enumerate(groups):
        members = [old_shards[str(sid)] for sid in g]
        pids = [p for m in members for p in m["pids"]]
        new_shards[str(new_id)] = {
            "pids": pids,
            "doc_lo": min(m["doc_lo"] for m in members),
            "doc_hi": max(m["doc_hi"] for m in members),
            "n_terms": counts[new_id][0],
            "n_postings": counts[new_id][1],
            "wall_s": wall,
            "status": "done",
        }
        new_plan.append(pids)
    sid_of_pid = {
        str(p): new_id for new_id, g in enumerate(groups) for p in new_shards[str(new_id)]["pids"]
    }
    with manifest._lock:
        manifest.data["shards"] = new_shards
        for pid, seg in manifest.data["segments"].items():
            seg["shard"] = sid_of_pid[str(int(pid))]
        cfg["shards_dir"] = new_root_name
        cfg["compaction_gen"] = gen
        cfg["shard_plan"] = new_plan
    manifest.save()

    # old-generation cleanup — UNLESS a snapshot pins it (the
    # SnapshotDeletionPolicy contract: a pinned commit's files survive
    # later writes; see index/snapshot.py::referenced_roots)
    from .snapshot import referenced_roots

    if old_root.name not in referenced_roots(index_dir):
        shutil.rmtree(old_root, ignore_errors=True)
    return manifest
