"""In-place numeric doc-values updates (lucene/core IndexWriter.update
NumericDocValue; Solr in-place atomic updates): sidecar overlay + live
cache patch — sort/function/stats/fl views update, scoring norms don't."""

import numpy as np
import pytest

from lucene_solr_ray.search import Searcher
from tests.test_build_search import (  # noqa: F401
    FILES_PER_SHARD,
    INDEX_DIR,
    N_FILES,
    corpus,
    index,
    oracle,
    searcher,
)

POOL = N_FILES // FILES_PER_SHARD  # one actor per shard: updates patch across actors


def test_dv_update_views_and_persistence(ray_session, index, corpus, tmp_path):
    import shutil

    idx = str(tmp_path / "idx")
    shutil.copytree(INDEX_DIR, idx)
    s = Searcher(idx, num_actors=POOL)
    try:
        hits = s.search("tool output", 5)
        docs = [d for d, _ in hits]
        before = s.select("tool output", 5, fl=["turn_idx"])
        # push every winner's turn_idx to a large sentinel
        patched = s.update_numeric_docvalues("turn_idx", {d: 900 + i for i, d in enumerate(docs)})
        assert patched == len(docs)
        after = s.select("tool output", 5, fl=["turn_idx"])
        assert after["turn_idx"].tolist() == [900 + i for i in range(len(docs))]
        assert before["turn_idx"].tolist() != after["turn_idx"].tolist()
        # sort view sees the update: the winners now have the LARGEST turn_idx
        top = s.search_sorted("tool output", "turn_idx desc", len(docs))
        assert sorted(d for d, _ in top) == sorted(docs)
        # stats view
        st = s.stats_field("tool output", "turn_idx")
        assert st["max"] == 900 + len(docs) - 1
        # scores (norms) unchanged by a dv update
        assert s.search("tool output", 5) == hits
        # second update overwrites (last-write-wins)
        s.update_numeric_docvalues("turn_idx", {docs[0]: 5000})
        assert s.stats_field("tool output", "turn_idx")["max"] == 5000
        with pytest.raises(KeyError):
            s.update_numeric_docvalues("role", {docs[0]: 1})  # keyword dv: not in-place-updatable
    finally:
        s.close()
    # persistence: a FRESH Searcher (cold caches) reads the sidecars
    s2 = Searcher(idx, num_actors=POOL)
    try:
        assert s2.stats_field("tool output", "turn_idx")["max"] == 5000
        t = s2.search_sorted("tool output", "turn_idx desc", 1)
        assert t[0][1] == 5000.0
    finally:
        s2.close()


def test_dv_updates_survive_compaction(ray_session, tmp_path):
    """Compaction rewrites postings shards only — the per-pid dv_updates
    sidecars (and therefore every dv view) survive a generation flip.
    NOTE: sidecars are commit-INDEPENDENT (a snapshot restore keeps newer
    dv updates) — documented divergence from Lucene's per-commit dv-update
    files."""
    from lucene_solr_ray.fixtures import write_transcripts
    from lucene_solr_ray.index import build_index
    from lucene_solr_ray.index.compact import compact_index

    paths = write_transcripts(str(tmp_path / "corpus"), 120, 6)
    idx = str(tmp_path / "idx")
    build_index(paths, idx, files_per_shard=1)  # 6 shards → compactable
    s = Searcher(idx, num_actors=4)  # 4 of the 6 shards' actors fit the session
    try:
        docs = [d for d, _ in s.search("assistant", 3)]
        s.update_numeric_docvalues("turn_idx", {d: 700 + i for i, d in enumerate(docs)})
        before = s.search_sorted("assistant", "turn_idx desc", 3)
    finally:
        s.close()
    compact_index(idx, max_shards=2)
    s2 = Searcher(idx, num_actors=2)
    try:
        assert s2.search_sorted("assistant", "turn_idx desc", 3) == before
        assert s2.stats_field("assistant", "turn_idx")["max"] == 700 + len(docs) - 1
    finally:
        s2.close()


def test_dv_update_invalidates_result_cache(ray_session, index, tmp_path):  # noqa: F811
    """A cached `collect` result that read a dv field (a covering query's
    per-doc min-match count) is dropped by the update: the same Searcher
    answers like a fresh one."""
    import shutil

    idx = str(tmp_path / "idx")
    shutil.copytree(INDEX_DIR, idx)
    queries = ["tool", "output", "error"]
    s = Searcher(idx, num_actors=POOL)
    try:
        before = s.search_covering(queries, "turn_idx", 5)
        assert before
        s.update_numeric_docvalues("turn_idx", {d: 99 for d, _ in before})
        after = s.search_covering(queries, "turn_idx", 5)
    finally:
        s.close()
    fresh = Searcher(idx, num_actors=POOL)
    try:
        assert after == fresh.search_covering(queries, "turn_idx", 5) != before
    finally:
        fresh.close()


def test_dv_update_overlays_every_stored_read(ray_session, index, tmp_path):  # noqa: F811
    """fetch, get and fetch_fields read the segments through one reader,
    so an updated value shows in every returned row, as in the sort view;
    /get still finds the doc by its built (conv_id, turn_idx) key."""
    import shutil

    idx = str(tmp_path / "idx")
    shutil.copytree(INDEX_DIR, idx)
    s = Searcher(idx, use_ray=False)
    try:
        [(doc, _)] = s.search("assistant", 1)
        [row] = s.fetch([doc]).to_pylist()
        conv, turn = row["conv_id"], row["turn_idx"]
        s.update_numeric_docvalues("turn_idx", {doc: 900})
        assert s.fetch([doc]).to_pylist() == [{"doc_id": doc, "conv_id": conv, "turn_idx": 900}]
        assert s.fetch_fields([doc], ["turn_idx"])["turn_idx"].tolist() == [900]
        assert s.search_sorted("assistant", "turn_idx desc", 1)[0] == (doc, 900.0)
        got = {r["doc_id"]: r["turn_idx"] for r in s.get(conv)}
        assert got[doc] == 900
        [hit] = s.get(conv, turn)
        assert (hit["doc_id"], hit["turn_idx"]) == (doc, 900)
        with pytest.raises(KeyError):
            s.update_numeric_docvalues("doc_id", {doc: 1})  # the key itself is not a doc value
    finally:
        s.close()


def test_dv_update_refuses_a_value_its_column_cannot_hold(ray_session, index, tmp_path):  # noqa: F811
    """`turn_idx` is an integer column: 2.5 is refused before any sidecar
    is written (Lucene's updateNumericDocValue takes a long), so the
    integer-exact stats views keep answering."""
    import shutil
    from pathlib import Path

    idx = str(tmp_path / "idx")
    shutil.copytree(INDEX_DIR, idx)
    s = Searcher(idx, use_ray=False)
    try:
        before = s.stats_field("error", "turn_idx")
        docs = [d for d, _ in s.search("error", 2)]
        with pytest.raises(ValueError, match="turn_idx"):
            s.update_numeric_docvalues("turn_idx", {docs[0]: 7, docs[1]: 2.5})
        assert not list(Path(idx).glob("segments/*/dv_updates.parquet"))
        assert s.stats_field("error", "turn_idx") == before
        assert s.update_numeric_docvalues("turn_idx", {docs[1]: 3.0}) == 1  # integral: stored
        assert s.fetch_fields([docs[1]], ["turn_idx"])["turn_idx"].tolist() == [3]
        assert s.stats_field("error", "turn_idx")["count"] == before["count"]
    finally:
        s.close()


def test_dv_sidecar_value_its_column_cannot_hold_reads_as_built(ray_session, index, tmp_path):  # noqa: F811
    """A `dv_updates.parquet` written before values were checked may hold
    2.5 or NaN for the integer `turn_idx`: reads skip those rows (the
    built value shows) and still apply the integral one, with no cast
    warning and no change of column type."""
    import shutil
    import warnings
    from pathlib import Path

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index import segments

    idx = str(tmp_path / "idx")
    shutil.copytree(INDEX_DIR, idx)
    s = Searcher(idx, use_ray=False)
    try:
        built = s.fetch_fields([0, 1, 2], ["turn_idx"])["turn_idx"].tolist()
    finally:
        s.close()
    side = Path(idx) / "segments" / "pid=00000" / "dv_updates.parquet"
    pq.write_table(
        pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "field": ["turn_idx"] * 3,
            "value": pa.array([2.5, float("nan"), 7.0], pa.float64()),
        }),
        side,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = segments.read([segments.segment_path(idx, 0)], ["turn_idx"], docs=[0, 1, 2])
        assert pa.types.is_integer(t.schema.field("turn_idx").type)
        assert t.column("turn_idx").to_pylist() == [built[0], built[1], 7]
        s = Searcher(idx, use_ray=False)
        try:
            assert s.fetch_fields([0, 1, 2], ["turn_idx"])["turn_idx"].tolist() == [built[0], built[1], 7]
            assert s.stats_field("*:*", "turn_idx")["count"] > 0
        finally:
            s.close()
