"""Multilingual analysis pipelines over the ICU-lite tokenizer
(`analysis/icu.py` — ICUTokenizer / CJKAnalyzer analogs, SURVEY §2.2).

The driver corpus is ASCII, so the non-ASCII slice is DERIVED
deterministically and identically on both sides: `lang='zh'` documents are
mapped through a fixed char table (a→U+4E00, b→U+4E01, …, space deleted)
— producing UNSEGMENTED Han text, the exact shape a real zh corpus has —
via pandas `str.translate` on the Ray side and SQL `translate()` in the
DuckDB twin.  The ICU-lite tokenizer then emits overlapping CJK bigrams
for those documents and ordinary lowercased word runs for the rest, and
both gates are strict (value-hash) checks.

Scale shape: token derivation + bigramming are one vectorized codepoint
pass per batch (composite uint64 bigram keys — no per-bigram Python
strings until the bounded merge); the top-bigrams aggregate uses the
bucketed vocabulary shuffle with per-bucket top-k partials, so the driver
merge is output-bounded.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..analysis.icu import icu_terms, icu_token_count  # noqa: F401 (icu_terms re-exported for tests)
from .common import Pipeline, bucketed, read
from .text import TOKEN_RE

# shared literal mapping: a-z0-9 → the first 36 CJK unified ideographs;
# space and underscore are DELETED (unsegmented CJK text).
_SRC = "abcdefghijklmnopqrstuvwxyz0123456789"
_DST = "".join(chr(0x4E00 + i) for i in range(36))
_TRANS = {**{ord(s): d for s, d in zip(_SRC, _DST)}, ord(" "): None, ord("_"): None}

CJK_RE = r"[\x{3040}-\x{30ff}\x{3400}-\x{4dbf}\x{4e00}-\x{9fff}\x{ac00}-\x{d7af}]+"
# the ICU-lite ASCII word class: letters+digits, NO underscore (Pc breaks
# in the icu chain, unlike the core TOKEN_RE); zh rows additionally count
# residual word runs the translate() map leaves untouched.  The twin's
# parity DOMAIN is ASCII + the derived Han slice (exactly what the driver
# corpus and the translate() derivation produce): full ICU semantics —
# non-ASCII Latin runs, script splits, accent folding — are not
# RE2-expressible, and are covered by the tokenizer's own property tests
# (tests/test_icu.py), not this SQL twin.
WORD_RE = "[a-z0-9]+"
TOP_BIGRAMS = 20


def _derive(batch: pd.DataFrame) -> pd.Series:
    """lang='zh' rows become unsegmented Han text; others pass through."""
    zh = batch["lang"].to_numpy() == "zh"
    out = batch["text"].copy()
    if zh.any():
        out[zh] = batch.loc[zh, "text"].str.translate(_TRANS)
    return out


def icu_multilingual_tokens(sf_dir: str):
    """Per-doc ICU-lite token counts over the derived mixed-script corpus:
    zh docs count CJK bigrams (n-1 per n-char run, 1 for a lone char),
    everything else counts word runs — the CJKAnalyzer-vs-Standard token
    arithmetic, strict-gated against a SQL twin that re-derives the same
    text with translate() and the same run arithmetic."""

    def counts(batch: pd.DataFrame) -> pd.DataFrame:
        texts = _derive(batch)
        n = np.fromiter(
            (icu_token_count(t) for t in texts), dtype=np.int64, count=len(texts)
        )
        return pd.DataFrame(
            {"doc_id": batch["doc_id"], "lang": batch["lang"], "n_tokens": n}
        )

    out = read(sf_dir, "documents", ["doc_id", "text", "lang"]).map_batches(
        counts, batch_format="pandas"
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


ICU_MULTILINGUAL_SQL = f"""
WITH d AS (
  SELECT doc_id, lang,
         CASE WHEN lang = 'zh'
              THEN translate(text, '{_SRC} _', '{_DST}')
              ELSE text END AS t
  FROM documents
)
SELECT doc_id, lang,
       CAST(CASE WHEN lang = 'zh' THEN COALESCE(list_sum(
              [CASE WHEN len(r) = 1 THEN 1 ELSE len(r) - 1 END
               for r in regexp_extract_all(t, '{CJK_RE}')]), 0)
              + len(regexp_extract_all(lower(t), '{WORD_RE}'))
            ELSE len(regexp_extract_all(lower(t), '{WORD_RE}'))
       END AS BIGINT) AS n_tokens
FROM d ORDER BY doc_id
"""


def cjk_top_bigrams(sf_dir: str):
    """Global top-{TOP_BIGRAMS} CJK bigrams over the derived zh slice —
    the TermsComponent shape on a bigrammed CJK field.  Bigrams live as
    composite uint64 codepoint keys through the shuffle; strings are only
    materialized for the bounded per-bucket top-k partials."""

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        zh = batch["lang"].to_numpy() == "zh"
        empty = pd.DataFrame(
            {
                "key": pd.Series([], dtype="uint64"),
                "cnt": pd.Series([], dtype="int64"),
                "gb": pd.Series([], dtype="int64"),
            }
        )
        if not zh.any():
            return empty
        texts = batch.loc[zh, "text"].str.translate(_TRANS)
        big = "\x01".join(texts)
        if len(big) < 2:
            return empty
        cp = np.frombuffer(big.encode("utf-32-le"), dtype=np.uint32)
        from ..analysis.icu import _CJK, _classify

        cjk = _classify(cp)[0] == _CJK  # the tokenizer's exact CJK class —
        a, b = cp[:-1], cp[1:]  # not a >= 0x3000 cutoff, which admits CJK
        valid = cjk[:-1] & cjk[1:]  # punctuation the twin's CJK_RE excludes
        keys = (a[valid].astype(np.uint64) << np.uint64(32)) | b[valid].astype(np.uint64)
        uniq, cnt = np.unique(keys, return_counts=True)
        return pd.DataFrame({"key": uniq, "cnt": cnt.astype(np.int64)})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("key", as_index=False)["cnt"].sum()
        keys = m["key"].to_numpy(np.uint64)
        m["bigram"] = [chr(int(k) >> 32) + chr(int(k) & 0xFFFFFFFF) for k in keys]
        m = m.sort_values(["cnt", "bigram"], ascending=[False, True]).head(TOP_BIGRAMS)
        return m[["bigram", "cnt"]]

    docs = read(sf_dir, "documents", ["text", "lang"]).map_batches(explode, batch_format="pandas")
    out = bucketed(docs, "key", merge).to_pandas()
    if not len(out):
        return pd.DataFrame(
            {"bigram": pd.Series([], dtype=object), "cnt": pd.Series([], dtype="int64")}
        )
    out["cnt"] = out["cnt"].astype("int64")
    return (
        out.sort_values(["cnt", "bigram"], ascending=[False, True])
        .head(TOP_BIGRAMS)
        .reset_index(drop=True)
    )


CJK_TOP_BIGRAMS_SQL = f"""
WITH d AS (
  SELECT translate(text, '{_SRC} _', '{_DST}') AS t
  FROM documents WHERE lang = 'zh'
),
runs AS (SELECT unnest(regexp_extract_all(t, '{CJK_RE}')) AS r FROM d),
bi AS (
  SELECT unnest([substr(r, i, 2) for i in range(1, len(r))]) AS bigram
  FROM runs WHERE len(r) >= 2
)
SELECT bigram, CAST(COUNT(*) AS BIGINT) AS cnt
FROM bi GROUP BY bigram
ORDER BY cnt DESC, bigram LIMIT {TOP_BIGRAMS}
"""


# --------------------------------------------------------------------------
# kuromoji-lite (analysis/ja.py).  The ja slice is DERIVED like the zh one:
# each ASCII token maps — by the SQL-replicable formula
# (len(w) + ascii(first char)) % 8 — onto one of eight dictionary words
# chosen to be concatenation-unambiguous (no dict word spans a boundary of
# any concatenation; asserted exhaustively in tests/test_ja.py), and the
# doc becomes their UNSEGMENTED concatenation.  The lattice must therefore
# recover exactly the mapped word sequence, so global per-term counts have
# a closed-form strict twin: count the source tokens per mapped word.

_JA8 = ["私", "勉強", "検索", "東京", "電車", "仕事", "猫", "犬"]


def ja_segment_terms(sf_dir: str):
    """Strict gate for the Japanese lattice on the index-analysis path:
    derive → segment (real Viterbi, per-doc loop = the documented
    configurable-analysis slow path) → bounded per-batch term partials
    (8-key domain → driver merge per the CLAUDE.md combiner rule)."""
    from ..analysis.ja import ja_tokenize

    return _mapped_terms(sf_dir, _JA8, ja_tokenize, "")


JA_SEGMENT_SQL = f"""
WITH toks AS (
  SELECT unnest(regexp_extract_all(lower(text), '{WORD_RE}')) AS w FROM documents
)
SELECT ['私','勉強','検索','東京','電車','仕事','猫','犬']
       [(len(w) + ascii(substr(w, 1, 1))) % 8 + 1] AS term,
       CAST(COUNT(*) AS BIGINT) AS cnt
FROM toks GROUP BY term ORDER BY term
"""


# --------------------------------------------------------------------------
# smartcn-lite (analysis/zh.py) and nori-lite (analysis/ko.py) gates, the
# same derived-slice construction as ja_segment_terms: ASCII tokens map by
# a SQL-replicable formula onto dictionary words chosen to re-segment (or
# suffix-strip) unambiguously — asserted exhaustively in tests/test_ko_zh.py
# — so global per-term counts have closed-form strict twins.

_ZH8 = ["中国", "时间", "工作", "学习", "电脑", "音乐", "朋友", "天气"]
_KO8 = ["학교", "사람", "나라", "시간", "음악", "친구", "가족", "날씨"]
_KO4 = ["은", "가", "를", "에서"]


def _mapped_terms(sf_dir: str, words8, tokenize, joiner: str):
    """Shared gate body: derive per-doc text from the ASCII tokens via the
    (len + ascii(first)) % 8 word map, run the REAL analysis chain per doc
    (the documented configurable-analysis slow path), and return bounded
    per-batch term partials merged on the driver (8-key domain)."""
    import re as _re

    word_re = _re.compile(WORD_RE)
    w8 = np.array(words8, dtype=object)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].str.lower().str.findall(word_re)
        flat = toks.explode().dropna()
        if not len(flat):
            return pd.DataFrame(
                {"term": pd.Series([], dtype=object), "cnt": pd.Series([], dtype="int64")}
            )
        w = flat.to_numpy(dtype=object)
        idx = (flat.str.len().to_numpy() + np.frombuffer(
            "".join(x[0] for x in w).encode("utf-32-le"), dtype=np.uint32
        ).astype(np.int64)) % 8
        mapped = pd.Series(w8[idx], index=flat.index)
        if joiner == " ":
            # Korean eojeol additionally carry a deterministic particle
            lens = flat.str.len().to_numpy() % 4
            mapped = pd.Series(
                [m + _KO4[i] for m, i in zip(mapped.to_numpy(), lens)], index=flat.index
            )
        derived = mapped.groupby(level=0).agg(joiner.join)
        terms: list[str] = []
        for t in derived:
            terms.extend(tok for tok, _ in tokenize(t))
        u, c = np.unique(np.asarray(terms, dtype=object), return_counts=True)
        return pd.DataFrame({"term": u, "cnt": c.astype(np.int64)})

    parts = (
        read(sf_dir, "documents", ["text"])
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
    )
    if not len(parts):
        return pd.DataFrame(
            {"term": pd.Series([], dtype=object), "cnt": pd.Series([], dtype="int64")}
        )
    out = parts.groupby("term", as_index=False)["cnt"].sum()
    out["cnt"] = out["cnt"].astype("int64")
    return out.sort_values("term").reset_index(drop=True)


def zh_segment_terms(sf_dir: str):
    """Strict gate for the smartcn-lite lattice: derive unsegmented Han
    concatenations → real Viterbi segmentation → bounded term partials."""
    from ..analysis.zh import zh_tokenize

    return _mapped_terms(sf_dir, _ZH8, zh_tokenize, "")


ZH_SEGMENT_SQL = f"""
WITH toks AS (
  SELECT unnest(regexp_extract_all(lower(text), '{WORD_RE}')) AS w FROM documents
)
SELECT ['中国','时间','工作','学习','电脑','音乐','朋友','天气']
       [(len(w) + ascii(substr(w, 1, 1))) % 8 + 1] AS term,
       CAST(COUNT(*) AS BIGINT) AS cnt
FROM toks GROUP BY term ORDER BY term
"""


def ko_strip_particles(sf_dir: str):
    """Strict gate for the nori-lite chain: derive space-separated eojeol
    (noun + deterministic josa) → real suffix-strip analysis → bounded
    stem partials; the twin counts the nouns by the same formula (the
    josa must vanish EXACTLY for the hash to match)."""
    from ..analysis.ko import ko_tokenize

    return _mapped_terms(sf_dir, _KO8, ko_tokenize, " ")


KO_STRIP_SQL = f"""
WITH toks AS (
  SELECT unnest(regexp_extract_all(lower(text), '{WORD_RE}')) AS w FROM documents
)
SELECT ['학교','사람','나라','시간','음악','친구','가족','날씨']
       [(len(w) + ascii(substr(w, 1, 1))) % 8 + 1] AS term,
       CAST(COUNT(*) AS BIGINT) AS cnt
FROM toks GROUP BY term ORDER BY term
"""


PIPELINES: dict[str, Pipeline] = {
    "icu_multilingual_tokens": Pipeline(
        icu_multilingual_tokens,
        ICU_MULTILINGUAL_SQL,
        "ICU-lite mixed-script token counts: CJK bigram arithmetic on the derived zh slice, word runs elsewhere",
    ),
    "cjk_top_bigrams": Pipeline(
        cjk_top_bigrams,
        CJK_TOP_BIGRAMS_SQL,
        "top CJK bigrams over the derived zh slice — bucketed vocabulary shuffle, composite codepoint keys",
    ),
    "ja_segment_terms": Pipeline(
        ja_segment_terms,
        JA_SEGMENT_SQL,
        "kuromoji-lite lattice segmentation over the derived unsegmented ja slice — closed-form strict twin",
    ),
    "zh_segment_terms": Pipeline(
        zh_segment_terms,
        ZH_SEGMENT_SQL,
        "smartcn-lite lattice segmentation over the derived unsegmented zh slice — closed-form strict twin",
    ),
    "ko_strip_particles": Pipeline(
        ko_strip_particles,
        KO_STRIP_SQL,
        "nori-lite josa/eomi suffix strip over derived Korean eojeol — closed-form strict twin",
    ),
}
