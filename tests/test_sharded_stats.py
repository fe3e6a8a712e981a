"""Sharded term dictionary: the vocabulary never materializes on the driver.

Builds an index with a TINY stats row-group size so the stats parquet has
real row groups to prune (and its sidecar many batches), then asserts the
lazy driver paths (LazyBM25Stats df/cf/idf, distributed
prefix/wildcard/fuzzy expansion, /terms merge, spellcheck merge) are
value-identical to the old eager global-dictionary implementations.
"""

import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import lucene_solr_ray.index.build as build_mod
from lucene_solr_ray.fixtures import write_transcripts
from lucene_solr_ray.index import stats_path
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search import Searcher
from lucene_solr_ray.search.bm25 import LazyBM25Stats
from lucene_solr_ray.search.query import QueryNode, expand_multi_term, parse_query, rewrite

CORPUS_DIR = "/tmp/lsr_sharded_corpus"
INDEX_DIR = "/tmp/lsr_sharded_index"
TINY_RG = 64  # stats row-group size of the fixture index


@pytest.fixture(scope="module")
def tiny_rg_index(ray_session):
    paths = write_transcripts(CORPUS_DIR, 150, 6)
    old = build_mod.STATS_ROW_GROUP_SIZE
    build_mod.STATS_ROW_GROUP_SIZE = TINY_RG  # force many row groups
    try:
        build_index(paths, INDEX_DIR, files_per_shard=2, resume=False)
    finally:
        build_mod.STATS_ROW_GROUP_SIZE = old
    return INDEX_DIR


class _Eager:
    """The old driver-held vocabulary: the whole stats parquet read into
    sorted `terms`/`dfs`/`cfs` arrays, with df/cf/idf by binary search."""

    def __init__(self, path: str, n_docs: int, avgdl: float):
        t = pq.read_table(path, columns=["term", "df", "cf"])
        self.terms = t.column("term").to_numpy(zero_copy_only=False)
        self.dfs = t.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        self.cfs = t.column("cf").to_numpy(zero_copy_only=False).astype(np.int64)
        self.N = int(n_docs)
        self.avgdl = float(avgdl)

    def _at(self, col: np.ndarray, term: str) -> int:
        i = np.searchsorted(self.terms, term)
        return int(col[i]) if i < len(self.terms) and self.terms[i] == term else 0

    def df(self, term: str) -> int:
        return self._at(self.dfs, term)

    def cf(self, term: str) -> int:
        return self._at(self.cfs, term)

    def idf(self, term: str) -> float:
        df = self.df(term)
        return math.log(1.0 + (self.N - df + 0.5) / (df + 0.5))


@pytest.fixture(scope="module")
def eager(tiny_rg_index):
    """The old driver-held vocabulary, used as the parity oracle."""
    import json
    from pathlib import Path

    st = json.loads((Path(tiny_rg_index) / "manifest.json").read_text())["stats"]
    return _Eager(stats_path(tiny_rg_index), st["N"], st["avgdl"])


def test_row_groups_are_small(tiny_rg_index):
    md = pq.read_metadata(stats_path(tiny_rg_index))
    assert md.num_row_groups >= 4, "tiny row-group size must yield many groups"
    assert md.row_group(0).num_rows <= TINY_RG


def test_lazy_stats_match_eager(tiny_rg_index, eager):
    lazy = LazyBM25Stats(stats_path(tiny_rg_index), eager.N, eager.avgdl)
    probe = [str(t) for t in eager.terms[:: max(1, len(eager.terms) // 50)]]
    probe += ["zzz_not_a_term", "assistant", "role:assistant"]
    lazy.resolve(probe)
    for t in probe:
        assert lazy.df(t) == eager.df(t), t
        assert lazy.cf(t) == eager.cf(t), t
        assert lazy.idf(t) == eager.idf(t), t
    # the whole probe resolved in ONE lookup pass; cached afterwards
    assert lazy.reads == 1
    lazy.idfs(probe)
    assert lazy.reads == 1


def test_lazy_read_prunes_row_groups(tiny_rg_index):
    """The layout that lets a filtered read prune on `term` min/max: row
    groups hold ascending, disjoint term ranges, and every one but the
    last holds exactly the configured row-group size."""
    md = pq.read_metadata(stats_path(tiny_rg_index))
    n_groups = md.num_row_groups
    assert n_groups >= 4
    stats = [md.row_group(i).column(0).statistics for i in range(n_groups)]
    ranges = [(st.min, st.max) for st in stats]
    assert all(lo <= hi < nxt for (lo, hi), (nxt, _) in zip(ranges, ranges[1:]))
    assert all(md.row_group(i).num_rows == TINY_RG for i in range(n_groups - 1))
    assert 0 < md.row_group(n_groups - 1).num_rows <= TINY_RG
    first_term = ranges[0][0]
    t = pq.read_table(
        stats_path(tiny_rg_index),
        columns=["term", "df", "cf"],
        filters=[("term", "in", [first_term])],
    )
    assert t.num_rows == 1


def test_distributed_expansion_matches_global(tiny_rg_index, eager):
    s = Searcher(tiny_rg_index, use_ray=False)
    try:
        for node in (
            QueryNode("prefix", pattern="ass"),
            QueryNode("prefix", pattern="to"),
            QueryNode("wildcard", pattern="a*t"),
            QueryNode("fuzzy", pattern="assistant", max_edits=1),
            QueryNode("fuzzy", pattern="tol", max_edits=2),
        ):
            want = expand_multi_term(node, eager.terms)
            got_node = s._rewrite(node)
            got = (
                [got_node.terms[0]]
                if got_node.kind == "term"
                else [c.terms[0] for _, c in got_node.clauses]
            )
            assert got == want, node
        # end-to-end: a prefix query scores identically to the global rewrite
        q = "ass* tool"
        n1 = s._rewrite(parse_query(q))
        n2 = rewrite(parse_query(q), eager.terms)
        assert sorted(n1.all_terms()) == sorted(n2.all_terms())
    finally:
        s.close()


def _old_terms(eager, prefix, limit):
    lo = int(np.searchsorted(eager.terms, prefix))
    hi = int(np.searchsorted(eager.terms, prefix + "￿")) if prefix else len(eager.terms)
    sl_t, sl_d = eager.terms[lo:hi], eager.dfs[lo:hi]
    order = np.lexsort((sl_t, -sl_d))[:limit]
    return [(str(sl_t[i]), int(sl_d[i])) for i in order]


def test_distributed_terms_matches_global(tiny_rg_index, eager):
    s = Searcher(tiny_rg_index, use_ray=False)
    try:
        for prefix, limit in (("", 10), ("a", 5), ("role:", 100), ("tool:", 100)):
            assert s.terms(prefix, limit) == _old_terms(eager, prefix, limit), prefix
        assert s.facet_field("role", 10) == [
            (t.split(":", 1)[1], d) for t, d in _old_terms(eager, "role:", 1 << 30)
        ][:10]
    finally:
        s.close()


def test_distributed_spellcheck_matches_global(tiny_rg_index, eager):
    from lucene_solr_ray.search.spell import levenshtein_candidates

    s = Searcher(tiny_rg_index, use_ray=False)
    try:
        for word in ("assistent", "tol", "mergge", "xyzzyq"):
            want_raw = levenshtein_candidates(eager.terms, eager.dfs, word.lower(), 2)
            want = sorted((d, -df, t) for t, df, d in want_raw)[:5]
            want = [(t, -negdf, d) for d, negdf, t in want]
            assert s.spellcheck(word) == want, word
        # exact dictionary hit → []
        assert s.spellcheck("assistant") == []
    finally:
        s.close()


def test_sharded_parity_with_ray_actors(tiny_rg_index, eager, ray_session):
    """Same assertions through REAL Ray actors (multi-shard merge path)."""
    s = Searcher(tiny_rg_index, num_actors=3)  # one actor per shard
    try:
        assert len(s.actors) == 3
        q = "ass*"
        n1 = s._rewrite(parse_query(q))
        n2 = rewrite(parse_query(q), eager.terms)
        assert sorted(n1.all_terms()) == sorted(n2.all_terms())
        assert s.terms("", 10) == _old_terms(eager, "", 10)
        hits = s.search("assistant tool", 10)
        s2 = Searcher(tiny_rg_index, use_ray=False)
        try:
            assert hits == s2.search("assistant tool", 10)
        finally:
            s2.close()
    finally:
        s.close()


@pytest.mark.parametrize("seed", range(4))
def test_merge_shard_stats_matches_group_by(tmp_path, monkeypatch, seed):
    """The k-way merge of multi-batch shard runs (overlapping and disjoint
    term ranges, salted duplicate rows, an empty shard, non-ASCII terms)
    equals one group_by over every shard's rows, in full row groups."""
    rng = np.random.default_rng(seed)
    words = rng.choice(["a", "é", "z", "ß", "日"], 300)
    vocab = np.array(sorted(f"{w}{i}" for i, w in enumerate(words)))
    monkeypatch.setattr(build_mod, "STATS_ROW_GROUP_SIZE", 7)  # run batches
    tables, runs = [], []
    for s in range(5):
        d = tmp_path / f"shard={s:05d}"
        d.mkdir()
        lo, hi = sorted(rng.integers(0, len(vocab), 2))
        for b in range(3 if s else 0):  # shard 0 has no postings
            terms = rng.choice(vocab[lo : hi + 1], int(rng.integers(0, 40)))
            t = pa.table({"term": terms.tolist(), "df": rng.integers(1, 9, len(terms)),
                          "cf": rng.integers(1, 99, len(terms))})
            pq.write_table(t, d / f"postings-{b:05d}.parquet")
            tables.append(t)
        build_mod._write_shard_stats(str(d))
        runs.append(d / build_mod.SHARD_STATS_NAME)
    monkeypatch.setattr(build_mod, "STATS_ROW_GROUP_SIZE", 5)  # output row groups
    out = tmp_path / "stats.parquet"
    n = build_mod._merge_shard_stats(runs, out)
    want = pa.concat_tables(tables).group_by("term").aggregate([("df", "sum"), ("cf", "sum")]).sort_by("term")
    got = pq.read_table(out)
    assert n == got.num_rows == want.num_rows
    assert got.column("term").equals(want.column("term"))
    assert got.column("df").equals(want.column("df_sum"))
    assert got.column("cf").equals(want.column("cf_sum"))
    md = pq.read_metadata(out)
    assert all(md.row_group(i).num_rows == 5 for i in range(md.num_row_groups - 1))
