"""Open-time postings decode: `IndexShard` decodes every row's docIDs and
freqs into flat arrays once, and `_postings` slices them.  Pinned here:
the one-call column decode against the per-row codec for both codecs,
the postings gauge against the shard files, read-only slices, and
tombstones over terms with several runs (one per shard dir)."""

import glob
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import codec
from lucene_solr_ray.search.actor import IndexShard

CODECS = ("varbyte", "for")


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    """The same corpus built with each codec, one shard dir per file, so
    common terms have one run per dir."""
    from lucene_solr_ray.fixtures import write_transcripts
    from lucene_solr_ray.index import build_index

    root = tmp_path_factory.mktemp("open_decode")
    paths = write_transcripts(str(root / "corpus"), 120, 4)
    for name in CODECS:
        build_index(paths, root / name, files_per_shard=1, codec=name)
    return root, paths


def _dirs(idx):
    return sorted(glob.glob(f"{idx}/shards/shard=*"))


def _rows(arr: pa.Array):
    """(value bytes, int64 row offsets) of a binary column."""
    _, off, vals = arr.buffers()
    off = np.frombuffer(off, dtype=np.int32)[arr.offset : arr.offset + len(arr) + 1]
    return np.frombuffer(vals, dtype=np.uint8), off.astype(np.int64)


def _restarts(counts: np.ndarray) -> np.ndarray:
    """Reset mask that restarts a delta run at each row of `counts` values."""
    mask = np.zeros(int(counts.sum()), dtype=bool)
    mask[(np.cumsum(counts) - counts)[counts > 0]] = True
    return mask


@pytest.mark.parametrize("name", CODECS)
def test_column_decode_matches_per_row_decode(built, name):
    root, _ = built
    files = [f for d in _dirs(root / name) for f in sorted(glob.glob(f"{d}/postings-*.parquet"))]
    assert files
    for f in files:
        t = pq.read_table(f)
        df, cf = t["df"].to_numpy(), t["cf"].to_numpy()
        docs = codec.delta_decode_resets(
            codec.decode_rows(*_rows(t["docs"].combine_chunks()), df, name), _restarts(df)
        )
        freqs = codec.decode_rows(*_rows(t["freqs"].combine_chunks()), df, name)
        positions = codec.delta_decode_resets(
            codec.decode_rows(*_rows(t["positions"].combine_chunks()), cf, name), _restarts(freqs)
        )
        p_off = np.concatenate([[0], np.cumsum(df)])
        v_off = np.concatenate([[0], np.cumsum(cf)])
        for r in range(t.num_rows):
            d = codec.decode_docs(t["docs"][r].as_py(), int(df[r]), name)
            fr = codec.decode_freqs(t["freqs"][r].as_py(), int(df[r]), name)
            pos, _ = codec.decode_positions(t["positions"][r].as_py(), fr, name)
            assert np.array_equal(docs[p_off[r] : p_off[r + 1]], d), (f, r)
            assert np.array_equal(freqs[p_off[r] : p_off[r + 1]], fr), (f, r)
            assert np.array_equal(positions[v_off[r] : v_off[r + 1]], pos), (f, r)


@pytest.mark.parametrize("name", CODECS)
def test_postings_gauge_counts_every_posting(built, name):
    from lucene_solr_ray.search import Searcher

    root, _ = built
    dirs = _dirs(root / name)
    total_df = sum(
        pc.sum(pq.read_table(f, columns=["df"])["df"]).as_py()
        for d in dirs
        for f in glob.glob(f"{d}/postings-*.parquet")
    )
    g = IndexShard(dirs, None, codec_name=name).prune_stats()["postings"]
    assert g["postings"] == total_df
    assert g["decoded_mib"] == pytest.approx(total_df * 17 / 2**20)  # int64 docs + int64 freqs + uint8 norms
    assert g["open_decode_ms"] >= 0
    s = Searcher(str(root / name), num_actors=2)
    try:
        m = s.metrics()["postings"]
        assert m["postings"] == total_df and m["decoded_mib"] == pytest.approx(g["decoded_mib"])
    finally:
        s.close()


def test_postings_slices_are_read_only(built):
    root, _ = built
    shard = IndexShard(_dirs(root / "varbyte"), None)
    p = shard._postings("error", with_positions=True)
    assert p is not None and p[0].size
    for arr in p:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    # the cached positions come back read-only too
    for arr in shard._postings("error", with_positions=True)[3:]:
        assert not arr.flags.writeable


def test_tombstones_over_multi_run_terms(built, tmp_path):
    """Deletes mask every read path of terms with several runs, and
    clearing them brings every doc back (the flat arrays are never
    compacted): a term, a synonym and a phrase query (the positions path)
    equal the oracle minus the deleted docs, then the original result."""
    from lucene_solr_ray.oracle import BruteForceIndex
    from lucene_solr_ray.search import Searcher
    from lucene_solr_ray.search.query import QueryNode, synonym_query

    root, paths = built
    idx = tmp_path / "idx"
    shutil.copytree(root / "varbyte", idx)  # tombstones persist in the index dir
    shard = IndexShard(_dirs(idx), None)
    for t in ("error", "ok", "tool", "output"):
        lo, hi = shard._run(t)
        assert hi - lo >= 2, t  # a term in several shard dirs
    full = pa.concat_tables(pq.read_table(p, columns=["conv_id", "turn_idx", "text", "role", "tool"]) for p in paths)
    full = full.take(pc.sort_indices(full, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]))
    oracle = BruteForceIndex(
        full.column("text").to_pylist(),
        fields={"role": full.column("role").to_pylist(), "tool": full.column("tool").to_pylist()},
    )
    k = 10
    queries = {
        "term": QueryNode("term", terms=["error"]),
        "synonym": synonym_query(["error", "ok"]),
        "phrase": QueryNode("phrase", terms=["tool", "output"]),
    }
    s = Searcher(str(idx), use_ray=False)
    try:
        before = {q: s.search_node(n, k) for q, n in queries.items()}
        assert all(before.values())
        n_dead = s.delete_by_query("#role:tool")
        deleted = {d for d, _ in oracle.search_node(
            QueryNode("bool", clauses=[("FILTER", QueryNode("term", terms=["role:tool"]))]), 10**9)}
        assert n_dead == len(deleted) > 0
        for q, n in queries.items():
            exp = [(d, float(sc)) for d, sc in oracle.search_node(n, k + len(deleted)) if d not in deleted][:k]
            got = s.search_node(n, k)
            assert got == exp, q
            assert got != before[q] or not (set(d for d, _ in before[q]) & deleted), q
        s.clear_deletes()
        for q, n in queries.items():
            assert s.search_node(n, k) == before[q], q
    finally:
        s.close()
