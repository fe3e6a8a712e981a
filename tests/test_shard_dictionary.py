"""The shard term dictionary across shard dirs: one `IndexShard` over
several dirs sorts its postings table once by (term, shard, salt), so a
salted hot term's runs read back in global docID order — the same postings
as the per-dir shards concatenated in dir order — before and after
compaction (which remaps salts inside a super-shard)."""

import glob
import json
import os
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

SRC = "/tmp/lsr_dict_corpus"
IDX = "/tmp/lsr_dict_index"
IDX_C = "/tmp/lsr_dict_index_compacted"


@pytest.fixture(scope="module")
def indexes(ray_session):
    for d in (SRC, IDX, IDX_C):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(SRC)
    paths = []
    for k in range(8):
        p = f"{SRC}/part-{k:05d}.parquet"
        pq.write_table(gen_conv_range(k * 30, 30, seed=31), p)
        paths.append(p)
    # two files per shard → two salted runs per hot term in every shard
    build_index(paths, IDX, files_per_shard=2)
    build_index(paths, IDX_C, files_per_shard=2)
    compact_index(IDX_C, max_shards=2)  # 4 shards → 2 super-shards
    return {"plain": IDX, "compacted": IDX_C}


def _shard_dirs(idx):
    m = json.loads(Path(idx, "manifest.json").read_text())
    dirs = sorted(glob.glob(f"{idx}/{m['config'].get('shards_dir', 'shards')}/shard=*"))
    assert len(dirs) >= 2
    return m["config"]["hot_terms"], dirs


@pytest.mark.parametrize("kind", ["plain", "compacted"])
def test_dictionary_across_dirs(indexes, kind):
    hot, dirs = _shard_dirs(indexes[kind])
    assert hot
    whole = IndexShard(dirs, None)
    parts = [IndexShard(d, None) for d in dirs]
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


def test_colliding_salts_fail_at_open(indexes, tmp_path):
    """An index compacted with the old per-bucket salt stride holds two
    salted runs of one term under the same salt, so the (term, shard, salt)
    sort can put a later run first.  Opening such a dir raises and names
    it; the valid compacted index opens."""
    hot, dirs = _shard_dirs(indexes["compacted"])
    IndexShard(dirs, None)
    shutil.copytree(indexes["compacted"], tmp_path / "idx")
    _, bad_dirs = _shard_dirs(tmp_path / "idx")
    d, term, runs = next((d, t, r) for d in bad_dirs for t in hot if len(r := _runs(d, t)) >= 3)
    # the last run takes the first run's salt: whichever of the two sorts
    # first, some run now starts at or before its predecessor's last doc
    (_, first_salt, _), (last_first_doc, _, f) = runs[0], runs[-1]
    t = pq.read_table(f)
    hit = pc.and_(pc.equal(t["term"], term), pc.equal(t["first_doc"], last_first_doc))
    i = t.schema.get_field_index("salt")
    salt = pc.if_else(hit, pa.scalar(first_salt, t.schema.field(i).type), t["salt"])
    pq.write_table(t.set_column(i, t.schema.field(i), salt), f)
    for opened in (bad_dirs, d):
        with pytest.raises(RuntimeError, match=f"{os.path.basename(d)} are out of docID order.*rebuild"):
            IndexShard(opened, None)
