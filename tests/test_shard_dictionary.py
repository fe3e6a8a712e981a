"""The shard term dictionary across shard dirs: one `IndexShard` over
several dirs sorts its postings table once by (term, first_doc), so a
salted hot term's runs read back in global docID order — the same postings
as the per-dir shards concatenated in dir order — before and after
compaction (which concatenates bucket files and re-keys nothing), whatever
the runs' salts say."""

import glob
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.fixtures import gen_conv_range
from lucene_solr_ray.index import build_index, compact_index
from lucene_solr_ray.search.actor import IndexShard

# shard dirs of each index: 4 plain shards, compacted 4→2, then 2→1
N_DIRS = {"plain": 4, "compacted": 2, "compacted_twice": 1}


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("lsr_dict")
    src = root / "corpus"
    src.mkdir()
    paths = []
    for k in range(8):
        p = f"{src}/part-{k:05d}.parquet"
        pq.write_table(gen_conv_range(k * 30, 30, seed=31), p)
        paths.append(p)
    # two files per shard → two salted runs per hot term in every shard
    out = {kind: str(root / kind) for kind in N_DIRS}
    build_index(paths, out["plain"], files_per_shard=2)
    shutil.copytree(out["plain"], out["compacted"])
    compact_index(out["compacted"], max_shards=2)
    shutil.copytree(out["compacted"], out["compacted_twice"])
    compact_index(out["compacted_twice"], max_shards=1)
    return out


def _shard_dirs(idx):
    m = json.loads(Path(idx, "manifest.json").read_text())
    dirs = sorted(glob.glob(f"{idx}/{m['config'].get('shards_dir', 'shards')}/shard=*"))
    return m["config"]["hot_terms"], dirs


@pytest.mark.parametrize("kind", list(N_DIRS))
def test_dictionary_across_dirs(indexes, kind):
    hot, dirs = _shard_dirs(indexes[kind])
    assert hot and len(dirs) == N_DIRS[kind]
    whole = IndexShard(dirs, None)
    # the reference is always the plain index's per-dir shards
    parts = [IndexShard(d, None) for d in _shard_dirs(indexes["plain"])[1]]
    for t in hot:
        got = whole._postings(t, with_positions=True)
        assert got is not None, t
        docs, freqs, norms, positions, starts = got
        assert (np.diff(docs) > 0).all(), t
        per = [p for s in parts if (p := s._postings(t, with_positions=True)) is not None]
        assert len(per) >= 2, t  # the term spans several dirs
        for i in range(4):
            assert np.array_equal(got[i], np.concatenate([p[i] for p in per])), (t, i)
        assert np.array_equal(starts, np.concatenate([[0], np.cumsum(freqs)[:-1]])), t
        meta = [m for s in parts if (m := s._block_meta(t)) is not None]
        for i, arr in enumerate(whole._block_meta(t)):
            assert np.array_equal(arr, np.concatenate([m[i] for m in meta])), (t, i)
    terms, dfs = whole._term_dict()
    assert (terms[1:] > terms[:-1]).all()
    want: dict[str, int] = {}
    for s in parts:
        for t, df in zip(*s._term_dict()):
            want[t] = want.get(t, 0) + int(df)
    assert list(terms) == sorted(want)
    assert dfs.tolist() == [want[t] for t in terms]
    # before the first term, between two terms, past the last
    for absent in ("", terms[0][:-1], terms[0] + "\x00", terms[-1] + "z"):
        assert whole._postings(absent, with_positions=True) is None
        assert whole._block_meta(absent) is None


def _runs(d, term):
    """(first_doc, salt, file) of each run of `term` in shard dir `d`."""
    out = []
    for f in sorted(glob.glob(f"{d}/postings-*.parquet")):
        t = pq.read_table(f, columns=["term", "first_doc", "salt"]).filter(pc.field("term") == term)
        out += [(fd, s, f) for fd, s in zip(t["first_doc"].to_pylist(), t["salt"].to_pylist())]
    return sorted(out)


def _same_postings(a: IndexShard, b: IndexShard, terms) -> None:
    for t in terms:
        for x, y in ((a._postings(t, with_positions=True), b._postings(t, with_positions=True)),
                     (a._block_meta(t), b._block_meta(t))):
            assert len(x) == len(y), t
            for i, (u, v) in enumerate(zip(x, y)):
                assert np.array_equal(u, v), (t, i)


def test_colliding_salts_serve_in_doc_order(indexes, tmp_path):
    """An index compacted with an old per-bucket salt stride holds two
    salted runs of one term under the same salt.  Runs are ordered by
    their first docID, not their salt, so such a dir opens and serves the
    same postings as the valid compacted index."""
    hot, dirs = _shard_dirs(indexes["compacted"])
    shutil.copytree(indexes["compacted"], tmp_path / "idx")
    _, bad_dirs = _shard_dirs(tmp_path / "idx")
    d, term, runs = next((d, t, r) for d in bad_dirs for t in hot if len(r := _runs(d, t)) >= 3)
    # the last run takes the first run's salt, as the old stride could leave it
    (_, first_salt, _), (last_first_doc, _, f) = runs[0], runs[-1]
    t = pq.read_table(f)
    hit = pc.and_(pc.equal(t["term"], term), pc.equal(t["first_doc"], last_first_doc))
    i = t.schema.get_field_index("salt")
    salt = pc.if_else(hit, pa.scalar(first_salt, t.schema.field(i).type), t["salt"])
    pq.write_table(t.set_column(i, t.schema.field(i), salt), f)
    runs = _runs(d, term)  # in first_doc order
    assert sorted(runs, key=lambda r: (r[1], r[0])) != runs  # salt order is not doc order
    _same_postings(IndexShard(bad_dirs, None), IndexShard(dirs, None), hot)
    good = dirs[bad_dirs.index(d)]
    _same_postings(IndexShard(d, None), IndexShard(good, None), hot)


def test_overlapping_runs_fail_at_open(indexes, tmp_path):
    """Runs of one term that overlap in docIDs — a shard dir opened twice,
    or a postings file copied under a second bucket name — fail at open
    with an error that names the term and the dir."""
    d = _shard_dirs(indexes["plain"])[1][0]
    first = IndexShard(d, None)._term_dict()[0][0]
    with pytest.raises(RuntimeError, match=f"term {re.escape(repr(first))} in {re.escape(d)} overlap"):
        IndexShard([d, d], None)
    copy = tmp_path / "shard=00000"
    shutil.copytree(d, copy)
    f = sorted(copy.glob("postings-*.parquet"))[0]
    shutil.copy(f, copy / "postings-99999.parquet")
    first = min(pq.read_table(f, columns=["term"])["term"].to_pylist())
    with pytest.raises(RuntimeError, match=f"term {re.escape(repr(first))} in {re.escape(str(copy))} overlap"):
        IndexShard(str(copy), None)
