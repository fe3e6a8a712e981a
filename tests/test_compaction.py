"""Incremental compaction (TieredMergePolicy analog): after append rounds
grow the shard tail, `compact_index` merges shards back down; results are
value-identical, crash-safe, and appends keep working afterwards."""

import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.fixtures import gen_conv_range
from lucene_solr_ray.index import build_index, compact_index, stats_path
from lucene_solr_ray.search import Searcher

QUERIES = ["error", "assistant ok", '"tool output"', "bash merge", "ass*"]


def _write(src, k: int) -> str:
    t = gen_conv_range(k * 40, 40, seed=23)
    p = f"{src}/part-{k:05d}.parquet"
    pq.write_table(t, p)
    return p


@pytest.fixture(scope="module")
def appended_index(ray_session, tmp_path_factory):
    """(corpus dir, index dir) of an index grown by appends to 8 shards."""
    root = tmp_path_factory.mktemp("lsr_cmp")
    src, idx = root / "corpus", str(root / "index")
    src.mkdir()
    paths = [_write(src, k) for k in range(2)]
    build_index(paths, idx, files_per_shard=1)
    # three append rounds → 8 single-file shards
    for upto in (4, 6, 8):
        paths = [_write(src, k) for k in range(upto)]
        m = build_index(paths, idx, files_per_shard=1)
    assert len(m.data["shards"]) == 8
    return src, idx


def _results(idx):
    s = Searcher(idx, use_ray=False)
    try:
        out = {q: s.search(q, 10) for q in QUERIES}
        out["_terms"] = s.terms("", 20)
        out["_parents"] = s.search_parents("error", 5)
        return out
    finally:
        s.close()


def test_compaction_preserves_results(appended_index):
    _, idx = appended_index
    before = _results(idx)
    m = compact_index(idx, max_shards=3)
    assert len(m.data["shards"]) == 3
    assert m.data["config"]["shards_dir"].startswith("shards_gen")
    # query fan-out returns to the compacted shard count; every result,
    # term ranking and parent join is value-identical
    assert _results(idx) == before
    # stats untouched (compaction moves postings, never recounts)
    assert m.committed


def test_compaction_noop_when_small(appended_index):
    m = compact_index(appended_index[1], max_shards=16)
    assert m.committed  # no-op path


def test_compaction_kill_and_rerun(appended_index):
    _, idx = appended_index
    before = _results(idx)
    gen_before = Searcher(idx, use_ray=False)
    gen_before.close()
    with pytest.raises(RuntimeError, match="injected"):
        compact_index(idx, max_shards=2, fail_before_swap=True)
    # crash left the old generation fully intact and searchable
    assert _results(idx) == before
    # rerun completes and is still value-identical
    m = compact_index(idx, max_shards=2)
    assert len(m.data["shards"]) == 2
    assert _results(idx) == before


def test_append_after_compaction(appended_index, tmp_path):
    """New files appended AFTER compaction build only new shards; the
    result equals a from-scratch index over all files."""
    src, idx = appended_index
    for k in range(8, 10):
        _write(src, k)
    paths = [f"{src}/part-{k:05d}.parquet" for k in range(10)]
    m = build_index(paths, idx, files_per_shard=1)
    assert m.committed
    # the 2 compacted super-shards survived; 2 new shards appended
    assert len(m.data["shards"]) == 4
    full_idx = str(tmp_path / "full")
    build_index(paths, full_idx, files_per_shard=1, resume=False)
    got, want = _results(idx), _results(full_idx)
    assert got == want
    # the super-shards got their sorted stats runs at this finalize; the
    # merged global stats equal the full rebuild's
    assert pq.read_table(stats_path(idx)).equals(pq.read_table(stats_path(full_idx)))


def test_daemon_triggers_compaction(ray_session, tmp_path):
    """The incremental daemon compacts when the shard count exceeds the
    threshold (the ConcurrentMergeScheduler seat)."""
    from lucene_solr_ray.index.daemon import run_incremental_daemon
    from lucene_solr_ray.index.manifest import Manifest

    src, idx = tmp_path / "corpus", str(tmp_path / "index")
    src.mkdir()
    for k in range(6):
        pq.write_table(gen_conv_range(k * 30, 30, seed=31), f"{src}/part-{k:05d}.parquet")
    run_incremental_daemon(
        f"{src}/part-*.parquet",
        idx,
        interval_s=0,
        max_rounds=1,
        files_per_shard=1,
        compact_above_shards=2,
    )
    m = Manifest.load(idx)
    assert m.committed and len(m.data["shards"]) == 2
    s = Searcher(idx, use_ray=False)
    try:
        assert s.search("error", 5)
    finally:
        s.close()
