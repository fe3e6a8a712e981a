"""Global-stats sidecar: `global_stats_gNNN.arrow` is the term-sorted
(term, df, cf) rows of the stats parquet as a memory-mapped Arrow IPC file,
and `LazyBM25Stats` answers every df/cf lookup from it.

Checks: lookups equal the parquet for every term of a many-batch index and
for hand-picked edge terms; resolve never reads the parquet; a missing
sidecar is rewritten on `Searcher` open with identical bytes and answers,
or by `build_index(resume=True)` / `restore_snapshot`, and an unwritable
dir gets an error naming the sidecar; snapshot purge keeps or drops a
sidecar together with its parquet.
"""

import glob
import os
import shutil
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import lucene_solr_ray.index.build as build_mod
from lucene_solr_ray.fixtures import gen_conv_range
from lucene_solr_ray.index import Manifest, stats_path
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.stats_sidecar import sidecar_path, write_stats_sidecar
from lucene_solr_ray.search import Searcher
from lucene_solr_ray.search.bm25 import LazyBM25Stats

SRC = "/tmp/lsr_sidecar_corpus"
IDX = "/tmp/lsr_sidecar_index"
SNAP_SRC = "/tmp/lsr_sidecar_snap_corpus"
SNAP_IDX = "/tmp/lsr_sidecar_snap_index"
QUERIES = ["error", "assistant ok", '"tool output"', "café 東京", "naïve OR zürich"]
EXTRA_TEXT = [
    "café naïve zürich straße",
    "東京 日本語 검색 données",
    "Ünïcödé ÅNGSTRÖM ελληνικά",
]


def _write_part(dirname: str, k: int) -> str:
    t = gen_conv_range(k * 40, 40, seed=7)
    if k == 0:  # a few non-ASCII / CJK turns so the vocabulary has them
        text = t.column("text").to_pylist()
        for i, extra in enumerate(EXTRA_TEXT):
            text[i] = f"{text[i]} {extra}"
        t = t.set_column(t.schema.get_field_index("text"), "text", pa.array(text))
    p = f"{dirname}/part-{k:05d}.parquet"
    pq.write_table(t, p)
    return p


def _parquet_rows(path) -> dict[str, tuple[int, int]]:
    t = pq.read_table(path, columns=["term", "df", "cf"])
    return dict(zip(t.column("term").to_pylist(), zip(t.column("df").to_pylist(), t.column("cf").to_pylist())))


def _lazy(index_dir) -> LazyBM25Stats:
    m = Manifest.load(index_dir).data["stats"]
    return LazyBM25Stats(stats_path(index_dir), m["N"], m["avgdl"])


@pytest.fixture(scope="module")
def tiny_index(ray_session):
    shutil.rmtree(SRC, ignore_errors=True)
    os.makedirs(SRC)
    paths = [_write_part(SRC, k) for k in range(3)]
    old = build_mod.STATS_ROW_GROUP_SIZE
    build_mod.STATS_ROW_GROUP_SIZE = 64  # many row groups → many batches
    try:
        build_index(paths, IDX, files_per_shard=2, resume=False, tokenizer="icu")
    finally:
        build_mod.STATS_ROW_GROUP_SIZE = old
    return IDX


def test_sidecar_written_at_commit(tiny_index):
    side = sidecar_path(stats_path(tiny_index))
    assert side.is_file()
    reader = pa.ipc.open_file(pa.memory_map(str(side)))
    assert reader.num_record_batches == pq.ParquetFile(stats_path(tiny_index)).num_row_groups >= 4
    assert reader.read_all().equals(pq.read_table(stats_path(tiny_index), columns=["term", "df", "cf"]))


def test_every_term_matches_parquet(tiny_index):
    rows = _parquet_rows(stats_path(tiny_index))
    assert any(not t.isascii() for t in rows), "corpus must put non-ASCII terms in the vocabulary"
    lazy = _lazy(tiny_index)
    lazy.resolve(rows)
    assert lazy.reads == 1
    for t, (df, cf) in rows.items():
        assert (lazy.df(t), lazy.cf(t)) == (df, cf), t
    assert lazy.reads == 1  # all cached


def test_edge_terms(tiny_index):
    rows = _parquet_rows(stats_path(tiny_index))
    terms = sorted(rows)
    # a present term that is a strict prefix of another present term
    prefix_pairs = [(a, b) for a, b in zip(terms, terms[1:]) if b.startswith(a)]
    assert prefix_pairs
    probe = [
        "", "\x00", terms[0], terms[-1], terms[-1] + "a", "\U0010ffff", "zzzzzzzz_absent",
        terms[0][:-1] if len(terms[0]) > 1 else "", "\ud800", "東", "東京都", "cafe", "café",
    ]
    for a, b in prefix_pairs[:20]:
        probe += [a, b, b[: len(a) + 1] + "\x00"]
    for t in [t for t in terms if not t.isascii()]:
        probe += [t, t + "x", t[:-1]]
    lazy = _lazy(tiny_index)
    for t in probe:
        assert (lazy.df(t), lazy.cf(t)) == rows.get(t, (0, 0)), repr(t)
    assert lazy.idfs(["zzzzzzzz_absent"]) == {"zzzzzzzz_absent": 0.0}


def test_sidecar_format_many_batches(tmp_path):
    """Crafted stats file: prefix chains, non-ASCII, CJK, astral-plane and
    empty-string terms, 3-term row groups (so batch boundaries fall between
    a term and its extensions)."""
    words = ["", "a", "ab", "abc", "abd", "b", "ba", "café", "cafe", "caf", "z", "zz",
             "é", "東", "東京", "日本", "😀", "😀😀", "ß", "ss", "Ω", "ω"]
    t = pa.table({
        "term": words,
        "df": list(range(1, len(words) + 1)),
        "cf": [3 * i + 2 for i in range(len(words))],
    }).sort_by("term")
    p = tmp_path / "global_stats_g001.parquet"
    pq.write_table(t, p, row_group_size=3)
    side = write_stats_sidecar(p)
    assert side == sidecar_path(p) == p.with_suffix(".arrow")
    assert pa.ipc.open_file(str(side)).num_record_batches == pq.ParquetFile(p).num_row_groups
    lazy = LazyBM25Stats(str(p), 100, 10.0)
    want = dict(zip(t.column("term").to_pylist(), zip(t.column("df").to_pylist(), t.column("cf").to_pylist())))
    for w in words + ["abcd", "aa", "東京都", "😀😀😀", "zzz", "\x00", "ca", "\U0010ffff"]:
        assert (lazy.df(w), lazy.cf(w)) == want.get(w, (0, 0)), repr(w)
    # no-op when present: the file is left as it is
    mtime = side.stat().st_mtime_ns
    write_stats_sidecar(p)
    assert side.stat().st_mtime_ns == mtime


def test_resolve_never_reads_parquet(tiny_index, monkeypatch):
    rows = _parquet_rows(stats_path(tiny_index))

    def boom(*a, **kw):
        raise AssertionError("parquet read on the lookup path")

    monkeypatch.setattr(pq, "read_table", boom)
    monkeypatch.setattr(pq, "ParquetFile", boom)
    lazy = _lazy(tiny_index)
    probe = list(rows)[::7] + ["not_a_term_at_all"]
    lazy.resolve(probe)
    for t in probe:
        assert lazy.df(t) == rows.get(t, (0, 0))[0]


def test_searcher_recreates_missing_sidecar(tiny_index):
    side = sidecar_path(stats_path(tiny_index))
    before = side.read_bytes()
    s = Searcher(tiny_index, use_ray=False)
    try:
        want = {q: s.search(q, 10) for q in QUERIES} | {"_tl": s.terms_list(["café", "東京", "error", "nope"])}
    finally:
        s.close()
    side.unlink()
    s = Searcher(tiny_index, use_ray=False)
    try:
        assert side.is_file()
        got = {q: s.search(q, 10) for q in QUERIES} | {"_tl": s.terms_list(["café", "東京", "error", "nope"])}
    finally:
        s.close()
    assert got == want
    assert side.read_bytes() == before
    assert not glob.glob(f"{tiny_index}/.global_stats*.tmp")


def test_unwritable_dir_names_missing_sidecar(tiny_index, tmp_path, monkeypatch):
    idx = tmp_path / "idx"
    shutil.copytree(tiny_index, idx)
    side = sidecar_path(stats_path(idx))
    side.unlink()

    def denied(*a, **kw):
        raise PermissionError(13, "Permission denied")

    with monkeypatch.context() as mp:
        mp.setattr(os, "replace", denied)
        with pytest.raises(RuntimeError, match=f"{side.name}.*missing.*write access"):
            Searcher(idx, use_ray=False)
    assert not side.exists()
    assert not glob.glob(f"{idx}/.global_stats*.tmp")  # the failed write left nothing
    s = Searcher(idx, use_ray=False)
    try:
        assert side.is_file() and s.search("error", 5)
    finally:
        s.close()


def test_resume_and_restore_write_missing_sidecar(tiny_index, tmp_path):
    """The write paths that reopen a committed index add a missing sidecar,
    so a later `Searcher` only reads."""
    from lucene_solr_ray.index import create_snapshot, restore_snapshot

    side = sidecar_path(stats_path(tiny_index))
    before = side.read_bytes()
    side.unlink()
    m = build_index(sorted(glob.glob(f"{SRC}/*.parquet")), tiny_index, files_per_shard=2, tokenizer="icu")
    assert m.committed and side.read_bytes() == before

    idx = tmp_path / "idx"
    shutil.copytree(tiny_index, idx)
    create_snapshot(idx, "pin")
    side = sidecar_path(stats_path(idx))
    side.unlink()
    restore_snapshot(idx, "pin")
    assert side.read_bytes() == before


def _gen_files(index_dir) -> set[str]:
    return {Path(p).name for p in glob.glob(f"{index_dir}/global_stats_g*")}


def test_purge_keeps_sidecar_with_its_parquet(ray_session):
    from lucene_solr_ray.index import create_snapshot, delete_snapshot, purge

    shutil.rmtree(SNAP_SRC, ignore_errors=True)
    shutil.rmtree(SNAP_IDX, ignore_errors=True)
    os.makedirs(SNAP_SRC)
    paths = [_write_part(SNAP_SRC, k) for k in range(2)]
    build_index(paths, SNAP_IDX, files_per_shard=1)
    assert _gen_files(SNAP_IDX) == {"global_stats_g001.parquet", "global_stats_g001.arrow"}
    create_snapshot(SNAP_IDX, "pin")
    build_index(paths + [_write_part(SNAP_SRC, 2)], SNAP_IDX, files_per_shard=1)  # append → g002
    g2 = {"global_stats_g002.parquet", "global_stats_g002.arrow"}
    assert _gen_files(SNAP_IDX) == g2 | {"global_stats_g001.parquet", "global_stats_g001.arrow"}
    purge(SNAP_IDX)  # g001 is pinned: both files stay
    assert _gen_files(SNAP_IDX) == g2 | {"global_stats_g001.parquet", "global_stats_g001.arrow"}
    delete_snapshot(SNAP_IDX, "pin")
    removed = {Path(r).name for r in purge(SNAP_IDX)}
    assert {"global_stats_g001.parquet", "global_stats_g001.arrow"} <= removed
    assert _gen_files(SNAP_IDX) == g2
    s = Searcher(SNAP_IDX, use_ray=False)
    try:
        assert s.search("error", 5)
    finally:
        s.close()
    shutil.rmtree(SNAP_IDX, ignore_errors=True)
