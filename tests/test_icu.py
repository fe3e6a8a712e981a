"""ICU-lite tokenizer (analysis/icu.py): golden vectors + offsets/posInc
property tests over non-ASCII corpora, and the multilingual gates'
building blocks (the gates themselves run in test_pipelines/replica)."""

import unicodedata

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_solr_ray.analysis.icu import (
    _CJK,
    _classify,
    icu_terms,
    icu_tokenize,
    icu_tokenize_offsets,
)
from lucene_solr_ray.analysis.tokenizers import TOKENIZER_REGISTRY


def test_golden_vectors():
    assert icu_terms("hello world") == ["hello", "world"]
    assert icu_terms("你好世界") == ["你好", "好世", "世界"]  # CJK bigrams
    assert icu_terms("你") == ["你"]  # lone CJK char → unigram
    assert icu_terms("hello你好world") == ["hello", "你好", "world"]
    assert icu_terms("abcабв") == ["abc", "абв"]  # script split
    assert icu_terms("abc123") == ["abc123"]  # digits join letters
    assert icu_terms("123abc") == ["123abc"]  # ...in either order
    assert icu_terms("Grüße ΑΒΓ") == ["grüße", "αβγ"]  # lowercased
    assert icu_terms("café") == ["café"]  # composed
    assert icu_terms("café") == ["café"]  # combining mark attaches
    assert icu_terms("ドラえもん") == ["ドラ", "ラえ", "えも", "もん"]  # kana mix bigrams
    assert icu_terms("。、！ \t") == []
    assert icu_terms("") == []


def test_registry_entries():
    assert icu_terms("x") == [t for t, _ in TOKENIZER_REGISTRY["icu"]()("x")]
    assert TOKENIZER_REGISTRY["cjk"]()("你好") == [("你好", 0)]


# mixed-script alphabet: Latin, Greek, Cyrillic, Han, Hiragana, Hangul,
# digits, combining marks, punctuation/space breaks
_ALPHABET = (
    "abcXYZ0189 _-.,!"
    "αβΩ" "абЯ" "你好世界漢字" "かなカナ" "한국" "́̈" "é"
)


@st.composite
def _texts(draw):
    return "".join(draw(st.lists(st.sampled_from(_ALPHABET), max_size=40)))


@given(_texts())
@settings(max_examples=300, deadline=None)
def test_offsets_and_positions_invariants(text):
    toks = icu_tokenize_offsets(text)
    prev_pos = -1
    for term, pos, start, end in toks:
        # positions: strictly increasing, increment exactly 1
        assert pos == prev_pos + 1
        prev_pos = pos
        # offsets: in-bounds, non-empty, term derives from the slice
        assert 0 <= start < end <= len(text)
        assert term == text[start:end].lower()
        # a token never mixes CJK and non-CJK characters
        kinds = _classify(np.frombuffer(text[start:end].encode("utf-32-le"), dtype=np.uint32))[0]
        assert (kinds == _CJK).all() or not (kinds == _CJK).any()
        # CJK tokens are bigrams (or a lone unigram)
        if (kinds == _CJK).all():
            assert len(term) in (1, 2)
    # offsets of consecutive tokens never move backwards by more than the
    # bigram overlap (start is non-decreasing)
    starts = [s for _, _, s, _ in toks]
    assert starts == sorted(starts)


@given(_texts())
@settings(max_examples=200, deadline=None)
def test_break_chars_never_tokenized(text):
    joined = "".join(icu_terms(text))
    for ch in " _-.,!、。！":
        assert ch not in joined


@given(_texts())
@settings(max_examples=200, deadline=None)
def test_token_shape_matches_offsets_variant(text):
    assert icu_tokenize(text) == [(t, p) for t, p, _, _ in icu_tokenize_offsets(text)]


def test_cjk_run_bigram_count_arithmetic():
    # the gate's SQL twin arithmetic: n-1 bigrams per n-char run, 1 for a
    # lone char — verified against the tokenizer over random run layouts
    rng = np.random.default_rng(3)
    for _ in range(50):
        runs = ["".join(chr(0x4E00 + c) for c in rng.integers(0, 36, rng.integers(1, 9))) for _ in range(rng.integers(1, 6))]
        text = " ".join(runs)
        expect = sum(1 if len(r) == 1 else len(r) - 1 for r in runs)
        assert len(icu_terms(text)) == expect


def test_derived_zh_slice_matches_translate():
    # pipelines/multilingual._derive == DuckDB translate() semantics
    from lucene_solr_ray.pipelines.multilingual import _DST, _SRC, _derive

    batch = pd.DataFrame(
        {"doc_id": [1, 2], "text": ["fast join scan", "fast join scan"], "lang": ["zh", "en"]}
    )
    out = _derive(batch)
    import duckdb

    exp = duckdb.sql(
        f"SELECT translate('fast join scan', '{_SRC} _', '{_DST}')"
    ).fetchone()[0]
    assert out.iloc[0] == exp
    assert out.iloc[1] == "fast join scan"
    assert " " not in out.iloc[0] and all(unicodedata.category(c) == "Lo" for c in out.iloc[0])


def test_icu_index_build_and_search_duel(ray_session, tmp_path):
    """End-to-end CJK search: build_index(tokenizer="icu") over a mixed
    Han/English corpus, then duel the distributed searcher against the
    brute-force oracle analyzing with the SAME icu chain — term, bigram,
    boolean, phrase, prefix/wildcard, similarity variants."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.analysis.icu import icu_index_tokenize
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.oracle import BruteForceIndex
    from lucene_solr_ray.search import Searcher

    rng = np.random.default_rng(11)
    han = [chr(0x4E00 + i) for i in range(40)]
    en = ["merge", "fast", "query", "data", "the", "index"]
    texts = []
    for _ in range(120):
        parts = []
        for _ in range(rng.integers(3, 10)):
            if rng.random() < 0.5:
                parts.append("".join(rng.choice(han, rng.integers(1, 5))))
            else:
                parts.append(str(rng.choice(en)))
        texts.append(" ".join(parts))
    corpus = tmp_path / "part0.parquet"
    pq.write_table(
        pa.table(
            {
                "conv_id": pa.array([f"c{i:04d}" for i in range(len(texts))]),
                "turn_idx": pa.array(np.zeros(len(texts), dtype=np.int64)),
                "text": pa.array(texts),
                "role": pa.array(["user"] * len(texts)),
            }
        ),
        corpus,
    )
    idx = str(tmp_path / "idx")
    build_index([str(corpus)], idx, files_per_shard=1, tokenizer="icu")
    s = Searcher(idx)
    try:
        oracle = BruteForceIndex(
            texts, fields={"role": ["user"] * len(texts)}, analyzer=icu_index_tokenize
        )
        run = " ".join(t for t in texts[1].split() if len(t) >= 3 and t[0] in set("".join(han)))
        first_run = run.split()[0] if run else han[0] + han[1] + han[2]
        queries = [
            han[0] + han[1],                 # bare CJK bigram term
            "merge",                          # latin term, same index
            f"+merge {han[0]}{han[1]}",      # mixed boolean
            f'"{first_run}"',                 # CJK phrase (bigram chain)
            "merge fast",
            f"{han[0]}*",                     # CJK wildcard over the bigram dict
        ]
        for q in queries:
            got = s.search(q, 10)
            exp = [(d, float(sc)) for d, sc in oracle.search(q, 10)]
            assert got == exp, q
        for sim in ("classic", "dfr", "lmjm"):
            got = s.search("merge fast", 10, similarity=sim)
            exp = [(d, float(sc)) for d, sc in oracle.search("merge fast", 10, similarity=sim)]
            assert got == exp, sim
        # the manifest records the analyzer; a standard rebuild would not
        # resume on top of an icu index (fingerprint includes tokenizer)
        import json

        cfg = json.loads((tmp_path / "idx" / "manifest.json").read_text())["config"]
        assert cfg["tokenizer"] == "icu"
        # one tokenizer table serves build and Searcher: an unknown name
        # raises the same ValueError on both sides (no silent fallback)
        with pytest.raises(ValueError, match="unknown tokenizer 'klingon'"):
            build_index([str(corpus)], str(tmp_path / "idx2"), tokenizer="klingon")
        mpath = tmp_path / "idx" / "manifest.json"
        m = json.loads(mpath.read_text())
        m["config"]["tokenizer"] = "klingon"
        mpath.write_text(json.dumps(m))
        with pytest.raises(ValueError, match="unknown tokenizer 'klingon'"):
            Searcher(idx)
    finally:
        s.close()
        shutil.rmtree(idx, ignore_errors=True)


@given(_texts())
@settings(max_examples=200, deadline=None)
def test_token_count_matches_token_list(text):
    from lucene_solr_ray.analysis.icu import icu_token_count

    assert icu_token_count(text) == len(icu_terms(text))
