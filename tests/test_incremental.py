"""Incremental ingest: append-only input growth rebuilds only dirty shards
(TopicStream-style checkpointed consumption, SURVEY.md §2.10)."""

import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.fixtures import gen_conv_range
from lucene_solr_ray.index.build import SHARD_STATS_NAME, build_index

IDX = "/tmp/lsr_incr_index"
IDX_FULL = "/tmp/lsr_incr_index_full"
SRC = "/tmp/lsr_incr_corpus"


def _write(k: int, lo: int, n: int) -> str:
    t = gen_conv_range(lo, n, seed=11)
    p = f"{SRC}/part-{k:05d}.parquet"
    pq.write_table(t, p)
    return p


@pytest.fixture(scope="module")
def corpus_dirs(ray_session):
    shutil.rmtree(SRC, ignore_errors=True)
    shutil.rmtree(IDX, ignore_errors=True)
    shutil.rmtree(IDX_FULL, ignore_errors=True)
    os.makedirs(SRC)
    first = [_write(k, k * 50, 50) for k in range(4)]
    return first


def test_incremental_append(ray_session, corpus_dirs):
    first = corpus_dirs
    m1 = build_index(first, IDX, files_per_shard=2)
    assert m1.committed
    walls1 = {sid: s["wall_s"] for sid, s in m1.data["shards"].items()}
    assert set(walls1) == {"0", "1"}
    run = f"{IDX}/shards/shard={{:05d}}/{SHARD_STATS_NAME}".format
    runs1 = {sid: os.stat(run(sid)) for sid in (0, 1)}

    # append two more files (later conv ranges → later paths)
    more = [_write(k, k * 50, 50) for k in (4, 5)]
    all_paths = first + more
    m2 = build_index(all_paths, IDX, files_per_shard=2)
    assert m2.committed
    # shards 0-1 untouched (same wall times survive), shard 2 is new
    assert m2.data["shards"]["0"]["wall_s"] == walls1["0"]
    assert m2.data["shards"]["1"]["wall_s"] == walls1["1"]
    assert set(m2.data["shards"]) == {"0", "1", "2"}
    # the kept shards' sorted stats runs are reused, the new shard has one
    for sid, st in runs1.items():
        now = os.stat(run(sid))
        assert (now.st_ino, now.st_mtime_ns) == (st.st_ino, st.st_mtime_ns)
    assert os.path.exists(run(2))

    # equivalent to a from-scratch build over all 6 files
    m3 = build_index(all_paths, IDX_FULL, files_per_shard=2, resume=False)
    _drop = lambda st: {k: v for k, v in st.items() if k != "stats_file"}  # noqa: E731
    # stats_file is per-commit lineage (generation counter), not collection stats
    assert _drop(m3.data["stats"]) == _drop(m2.data["stats"])

    # salting may split runs differently (hot-term sample sees different
    # files), so compare LOGICAL postings: per-term merged doc/freq arrays
    from lucene_solr_ray.index import codec
    import numpy as np

    def logical(d):
        t = pa.concat_tables(
            pq.read_table(f) for f in sorted(glob.glob(f"{d}/shards/shard=*/*.parquet"))
        ).sort_by([("term", "ascending"), ("first_doc", "ascending")])
        out = {}
        for i in range(t.num_rows):
            term = t.column("term")[i].as_py()
            df = t.column("df")[i].as_py()
            docs = codec.decode_docs(t.column("docs")[i].as_py(), df)
            freqs = codec.decode_freqs(t.column("freqs")[i].as_py(), df)
            if term in out:
                out[term] = (
                    np.concatenate([out[term][0], docs]),
                    np.concatenate([out[term][1], freqs]),
                )
            else:
                out[term] = (docs, freqs)
        return out

    a, b = logical(IDX), logical(IDX_FULL)
    assert set(a) == set(b)
    for term in a:
        assert (a[term][0] == b[term][0]).all(), term
        assert (a[term][1] == b[term][1]).all(), term


def test_partial_tail_shard_rebuilt(ray_session, corpus_dirs):
    """When the old file count doesn't align to files_per_shard, the
    partial tail shard is rebuilt to absorb the new files."""
    idx = "/tmp/lsr_incr_index_tail"
    shutil.rmtree(idx, ignore_errors=True)
    first3 = [f"{SRC}/part-{k:05d}.parquet" for k in range(3)]
    m1 = build_index(first3, idx, files_per_shard=2)  # shard1 has 1 file
    w0 = m1.data["shards"]["0"]["wall_s"]
    all4 = [f"{SRC}/part-{k:05d}.parquet" for k in range(4)]
    m2 = build_index(all4, idx, files_per_shard=2)
    assert m2.data["shards"]["0"]["wall_s"] == w0  # shard0 kept
    # shard1 was rebuilt to absorb the new file: its pid coverage grew
    # (wall_s comparison is flaky when both builds are warm+fast)
    assert m1.data["shards"]["1"]["pids"] == [2]
    assert m2.data["shards"]["1"]["pids"] == [2, 3]
    # matches scratch build
    m3 = build_index(all4, "/tmp/lsr_incr_tail_full", files_per_shard=2, resume=False)
    _drop = lambda st: {k: v for k, v in st.items() if k != "stats_file"}  # noqa: E731
    # stats_file is per-commit lineage (generation counter), not collection stats
    assert _drop(m3.data["stats"]) == _drop(m2.data["stats"])


def test_non_append_change_triggers_full_rebuild(ray_session, corpus_dirs):
    """Changing an existing file's content (row count) invalidates the
    prefix → full rebuild, not corruption."""
    idx = "/tmp/lsr_incr_index_change"
    shutil.rmtree(idx, ignore_errors=True)
    first = [f"{SRC}/part-{k:05d}.parquet" for k in range(4)]
    build_index(first, idx, files_per_shard=2)
    # different file set entirely (drop one file) → rebuild
    m2 = build_index(first[:3], idx, files_per_shard=2)
    assert m2.committed
    assert json.loads(open(f"{idx}/manifest.json").read())["config"]["n_files"] == 3


def test_daemon_loop(ray_session, corpus_dirs):
    """DaemonStream analog: rounds ingest only new files; idle rounds no-op."""
    from lucene_solr_ray.index.daemon import current_commit, run_incremental_daemon

    idx = "/tmp/lsr_daemon_index"
    shutil.rmtree(idx, ignore_errors=True)
    src = "/tmp/lsr_daemon_src"
    shutil.rmtree(src, ignore_errors=True)
    os.makedirs(src)
    for k in range(2):
        t = gen_conv_range(k * 40, 40, seed=3)
        pq.write_table(t, f"{src}/part-{k:05d}.parquet")

    log1 = run_incremental_daemon(
        f"{src}/part-*.parquet", idx, interval_s=0, max_rounds=2, files_per_shard=2
    )
    assert log1[0]["built"] and not log1[1]["built"]
    c1 = current_commit(idx)
    assert c1 and c1["N"] > 0

    # new file arrives → next round ingests it incrementally
    t = gen_conv_range(80, 40, seed=3)
    pq.write_table(t, f"{src}/part-{2:05d}.parquet")
    log2 = run_incremental_daemon(
        f"{src}/part-*.parquet", idx, interval_s=0, max_rounds=1, files_per_shard=2
    )
    assert log2[0]["built"]
    c2 = current_commit(idx)
    assert c2["N"] > c1["N"]


def test_scratch_builds_deterministic(ray_session, corpus_dirs):
    """Two independent from-scratch builds over the same input produce
    identical postings (retry/lineage safety: no wall-clock, no unordered
    iteration in any encoded output)."""
    a_dir, b_dir = "/tmp/lsr_det_a", "/tmp/lsr_det_b"
    first = corpus_dirs
    for d in (a_dir, b_dir):
        shutil.rmtree(d, ignore_errors=True)
        build_index(first, d, files_per_shard=2, resume=False)

    def postings(d):
        t = pa.concat_tables(
            pq.read_table(f) for f in sorted(glob.glob(f"{d}/shards/shard=*/*.parquet"))
        )
        return t.sort_by([("term", "ascending"), ("salt", "ascending")])

    a, b = postings(a_dir), postings(b_dir)
    assert a.num_rows == b.num_rows
    for col in ["term", "salt", "df", "cf", "docs", "freqs", "norms", "positions",
                "blk_last_doc", "blk_max_freq", "blk_min_norm"]:
        assert a.column(col).equals(b.column(col)), col


def test_incremental_rejects_analyzer_change(ray_session, tmp_path):
    """Appending with a DIFFERENT analyzer/schema must trigger a full
    rebuild, never an incremental append mixing term spaces."""
    import json

    from lucene_solr_ray.fixtures import write_transcripts
    from lucene_solr_ray.index import build_index

    paths = write_transcripts(str(tmp_path / "c"), 60, 3)
    idx = tmp_path / "idx"
    build_index(paths[:2], idx, files_per_shard=1, resume=False)
    # append one file but with an analyzed extra field → full rebuild
    m = build_index(paths, idx, files_per_shard=1, resume=True, analyzed_fields=("tool",))
    cfg = json.loads((idx / "manifest.json").read_text())["config"]
    assert cfg["analyzed_fields"] == ["tool"]
    assert cfg["n_files"] == 3 and m.committed
    # same config appends incrementally (all three files already done)
    m2 = build_index(paths, idx, files_per_shard=1, resume=True, analyzed_fields=("tool",))
    assert m2.committed
