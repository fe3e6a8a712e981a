"""Training-data curation long tail: Gopher document-quality rules,
MOSS winnowing fingerprints, per-doc tf-idf keywords, and fixed-n
per-key sampling.

All four are strict-gated (DuckDB twins recompute the identical values):
floats are single-expression parities (one division / one ln·multiply on
both sides), hashes are the shared multiply-xor kernel
(`relational._sample_hash`) or a char-level polynomial the twin folds
with `list_reduce`.

Scale shapes: gopher/winnowing/keyword stage 1 are one vectorized pass
per batch; the keyword df/top-k steps are fixed-bucket shuffles (token
buckets then doc buckets — the vocabulary never lands on the driver);
sample_per_key is combiner partials (≤ groups × n rows per block) with a
bounded driver merge.

Reference anchors (survey citations, SURVEY.md §0): quality rules follow
Gopher (Rae et al. 2021 §A1.1) as the DocExpiration/Signature-URP-style
per-record gate; winnowing is Schleimer, Wilkerson & Aiken (SIGMOD 2003)
— the local fingerprinting the reference's MinHashFilter family
approximates globally; tf-idf keyword selection mirrors
MoreLikeThis.retrieveInterestingTerms (lucene/queries/.../mlt/
MoreLikeThis.java) as a corpus-wide batch op."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from .common import SHUFFLE_BUCKETS, Pipeline, bucketed, read
from .relational import _M32, _SAMPLE_C1, _SAMPLE_C2, _SAMPLE_SEED, _sample_hash
from .text import STOP, STOP_SQL, TOKEN_RE, _explode_tokens, _tokens

# --------------------------------------------------------------------------
# Gopher document-quality rules (word count / mean word length / stopword
# floor / distinct-word fraction), thresholds tuned to be non-vacuous on
# the synthetic corpus — every rule passes AND fails some documents.

G_MIN_WORDS, G_MAX_WORDS = 20, 90
G_MIN_WLEN, G_MAX_WLEN = 4.0, 5.0
G_MIN_STOP = 1
G_MIN_UNIQ_FRAC = 0.3


def gopher_quality_filter(sf_dir: str):
    stop_list = list(STOP)

    def rules(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        doc_idx, codes, uniq, counts = _explode_tokens(batch["text"])
        nw = counts.astype(np.int64)
        if codes.size:
            len_by_code = np.char.str_len(uniq.astype(str)).astype(np.int64)
            tc = np.bincount(doc_idx, weights=len_by_code[codes], minlength=n).astype(np.int64)
            stop_vocab = np.isin(uniq, stop_list)
            ns = np.bincount(doc_idx[stop_vocab[codes]], minlength=n).astype(np.int64)
            ud = np.unique(doc_idx * np.int64(max(uniq.size, 1)) + codes) // np.int64(max(uniq.size, 1))
            nd = np.bincount(ud, minlength=n).astype(np.int64)
        else:
            tc = ns = nd = np.zeros(n, dtype=np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            mwl = np.where(nw > 0, tc / nw, 0.0)
            uf = np.where(nw > 0, nd / nw, 0.0)
        ok_words = (nw >= G_MIN_WORDS) & (nw <= G_MAX_WORDS)
        ok_wlen = (mwl >= G_MIN_WLEN) & (mwl <= G_MAX_WLEN)
        ok_stop = ns >= G_MIN_STOP
        ok_uniq = uf >= G_MIN_UNIQ_FRAC
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_words": nw,
                "mean_wlen": mwl,
                "n_stop": ns,
                "uniq_frac": uf,
                "ok_words": ok_words.astype(np.int64),
                "ok_wlen": ok_wlen.astype(np.int64),
                "ok_stop": ok_stop.astype(np.int64),
                "ok_uniq": ok_uniq.astype(np.int64),
                "keep": (ok_words & ok_wlen & ok_stop & ok_uniq).astype(np.int64),
            }
        )

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(rules, batch_format="pandas")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


GOPHER_SQL = f"""
WITH s AS (
  SELECT doc_id, len(toks) AS nw,
         length(array_to_string(toks, '')) AS tc,
         len(list_filter(toks, x -> x IN ({STOP_SQL}))) AS ns,
         len(list_distinct(toks)) AS nd
  FROM (SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_RE}') AS toks FROM documents)
), m AS (
  SELECT doc_id, nw, ns, nd,
         CASE WHEN nw > 0 THEN tc / CAST(nw AS DOUBLE) ELSE 0.0 END AS mwl,
         CASE WHEN nw > 0 THEN nd / CAST(nw AS DOUBLE) ELSE 0.0 END AS uf
  FROM s
)
SELECT doc_id,
       CAST(nw AS BIGINT) AS n_words,
       mwl AS mean_wlen,
       CAST(ns AS BIGINT) AS n_stop,
       uf AS uniq_frac,
       CAST(CASE WHEN nw >= {G_MIN_WORDS} AND nw <= {G_MAX_WORDS} THEN 1 ELSE 0 END AS BIGINT) AS ok_words,
       CAST(CASE WHEN mwl >= {G_MIN_WLEN} AND mwl <= {G_MAX_WLEN} THEN 1 ELSE 0 END AS BIGINT) AS ok_wlen,
       CAST(CASE WHEN ns >= {G_MIN_STOP} THEN 1 ELSE 0 END AS BIGINT) AS ok_stop,
       CAST(CASE WHEN uf >= {G_MIN_UNIQ_FRAC} THEN 1 ELSE 0 END AS BIGINT) AS ok_uniq,
       CAST(CASE WHEN nw >= {G_MIN_WORDS} AND nw <= {G_MAX_WORDS}
                  AND mwl >= {G_MIN_WLEN} AND mwl <= {G_MAX_WLEN}
                  AND ns >= {G_MIN_STOP} AND uf >= {G_MIN_UNIQ_FRAC}
            THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM m ORDER BY doc_id
"""

# --------------------------------------------------------------------------
# Winnowing fingerprints (Schleimer et al. 2003): per doc, hash every
# K-token gram, slide a W-gram window, keep each window's minimum —
# rightmost on ties, encoded by minimizing the composite
# h·2²¹ + (2²⁰ − pos) — and emit the DISTINCT selected (pos, hash) pairs.
# Full windows only: a doc needs ≥ K+W−1 tokens to fingerprint.  Gram
# hash = char polynomial (h·31 + codepoint) mod 2³¹, folded identically
# by the twin's list_reduce.  pos is the 1-based gram start and must stay
# < 2²⁰ (docs are token-capped far below that).

W_GRAM = 3  # tokens per gram (K)
W_WIN = 4  # grams per window (W)
_W_POS_BITS = 21
_W_POS_MAX = 1 << 20


def _poly_hash(s: str) -> int:
    h = 0
    for ch in s:
        h = (h * 31 + ord(ch)) % 2147483648
    return h


def winnowing_fingerprint(sf_dir: str):
    def fp(batch: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "pos": pd.Series([], dtype="int64"),
                "fp": pd.Series([], dtype="int64"),
            }
        )
        toks = _tokens(batch["text"])
        counts = toks.map(len).to_numpy(dtype=np.int64)
        flat = np.asarray([t for ws in toks for t in ws], dtype=object)
        if flat.size < W_GRAM:
            return empty
        doc_idx = np.repeat(np.arange(len(toks), dtype=np.int64), counts)
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        pos = np.arange(flat.size, dtype=np.int64) - starts[doc_idx] + 1
        u = flat.astype(str)
        grams = np.char.add(np.char.add(np.char.add(np.char.add(u[:-2], " "), u[1:-1]), " "), u[2:])
        valid = doc_idx[:-2] == doc_idx[2:]
        gdoc, gpos, grams = doc_idx[:-2][valid], pos[:-2][valid], grams[valid]
        if gpos.size and int(gpos.max()) >= _W_POS_MAX:
            raise ValueError("winnowing position overflow: doc exceeds 2^20 grams")
        if grams.size < W_WIN:
            return empty
        ug, inv = np.unique(grams, return_inverse=True)
        hu = np.fromiter((_poly_hash(s) for s in ug), dtype=np.int64, count=ug.size)
        comp = hu[inv] * np.int64(1 << _W_POS_BITS) + (np.int64(_W_POS_MAX) - gpos)
        wmin = np.lib.stride_tricks.sliding_window_view(comp, W_WIN).min(axis=1)
        full = gdoc[: -(W_WIN - 1)] == gdoc[W_WIN - 1 :]
        sel_doc, sel = gdoc[: -(W_WIN - 1)][full], wmin[full]
        if sel.size == 0:
            return empty
        pair = np.unique(sel_doc * np.int64(1 << 52) + sel)  # comp < 2^52
        sdoc, scomp = pair >> np.int64(52), pair & np.int64((1 << 52) - 1)
        doc_ids = batch["doc_id"].to_numpy()
        return pd.DataFrame(
            {
                "doc_id": doc_ids[sdoc],
                "pos": np.int64(_W_POS_MAX) - (scomp % np.int64(1 << _W_POS_BITS)),
                "fp": scomp >> np.int64(_W_POS_BITS),
            }
        )

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(fp, batch_format="pandas")
    return out.to_pandas().sort_values(["doc_id", "pos"]).reset_index(drop=True)


WINNOW_SQL = f"""
WITH g AS (
  SELECT doc_id, i AS pos,
         toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2] AS gram
  FROM (SELECT doc_id, toks, unnest(range(1, len(toks) - 1)) AS i
        FROM (SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_RE}') AS toks FROM documents))
), h AS (
  SELECT doc_id, pos,
         list_reduce(list_prepend(CAST(0 AS BIGINT),
                                  list_transform(range(1, length(gram) + 1),
                                                 j -> CAST(unicode(gram[j]) AS BIGINT))),
                     (a, c) -> (a * 31 + c) % 2147483648) AS hv,
         COUNT(*) OVER (PARTITION BY doc_id) AS m
  FROM g
), w AS (
  SELECT doc_id, pos, m,
         MIN(hv * {1 << _W_POS_BITS} + ({_W_POS_MAX} - pos)) OVER (
           PARTITION BY doc_id ORDER BY pos
           ROWS BETWEEN CURRENT ROW AND {W_WIN - 1} FOLLOWING) AS wmin
  FROM h
), sel AS (SELECT doc_id, wmin FROM w WHERE pos <= m - {W_WIN - 1})
SELECT DISTINCT doc_id,
       CAST({_W_POS_MAX} - (wmin % {1 << _W_POS_BITS}) AS BIGINT) AS pos,
       CAST(wmin // {1 << _W_POS_BITS} AS BIGINT) AS fp
FROM sel ORDER BY doc_id, pos
"""

# --------------------------------------------------------------------------
# Per-doc tf-idf keywords (MoreLikeThis interesting-terms as a corpus-wide
# batch op): score(doc, token) = tf · ln(N / df), top KW_K per doc by
# (score desc, token asc).  Two fixed-bucket shuffles — df by token
# bucket, top-k by doc bucket — so neither the vocabulary nor any per-doc
# ordering lands on the driver.

KW_K = 3


def tfidf_keywords(sf_dir: str):
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = ds.count()  # parquet metadata count, no scan

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        doc_idx, codes, uniq, _ = _explode_tokens(batch["text"])
        if codes.size == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "token": pd.Series([], dtype=object),
                    "tf": pd.Series([], dtype="int64"),
                }
            )
        V = np.int64(uniq.size)
        comp, tf = np.unique(doc_idx * V + codes, return_counts=True)
        d, c = comp // V, comp % V
        doc_ids = batch["doc_id"].to_numpy()
        tok = np.asarray(uniq, dtype=object)[c]
        return pd.DataFrame({"doc_id": doc_ids[d], "token": tok, "tf": tf.astype(np.int64)})

    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # every (doc, token) row of a token lands in ONE bucket → df is
        # exact within the group; ln computed once per distinct df
        df_by_tok = g.groupby("token")["doc_id"].transform("size").to_numpy(np.int64)
        udf = np.unique(df_by_tok)
        logs = {int(v): math.log(n_docs / int(v)) for v in udf}
        lg = np.fromiter((logs[int(v)] for v in df_by_tok), dtype=np.float64, count=df_by_tok.size)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"],
                "token": g["token"],
                "score": g["tf"].to_numpy(np.float64) * lg,
            }
        )

    def topk_per_doc(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g["token"].to_numpy(), -g["score"].to_numpy(), g["doc_id"].to_numpy()))
        g = g.iloc[order]
        r = g.groupby("doc_id").cumcount()
        return g.loc[r < KW_K, ["doc_id", "token", "score"]]

    scored = bucketed(ds.map_batches(explode, batch_format="pandas"), "token", score_bucket)
    out = bucketed(scored, "doc_id", topk_per_doc).to_pandas()  # ≤ KW_K rows per doc
    order = np.lexsort((out["token"].to_numpy(), -out["score"].to_numpy(), out["doc_id"].to_numpy()))
    return out.iloc[order].reset_index(drop=True)


TFIDF_KEYWORDS_SQL = f"""
WITH tf AS (
  SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS tf
  FROM (SELECT doc_id, unnest(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS token FROM documents)
  GROUP BY doc_id, token
), dfv AS (SELECT token, COUNT(*) AS df FROM tf GROUP BY token),
n AS (SELECT COUNT(*) AS n FROM documents),
s AS (
  SELECT tf.doc_id, tf.token, tf.tf * ln(CAST(n.n AS DOUBLE) / dfv.df) AS score,
         ROW_NUMBER() OVER (PARTITION BY tf.doc_id
                            ORDER BY tf.tf * ln(CAST(n.n AS DOUBLE) / dfv.df) DESC, tf.token) AS r
  FROM tf JOIN dfv USING (token) CROSS JOIN n
)
SELECT doc_id, token, score FROM s WHERE r <= {KW_K}
ORDER BY doc_id, score DESC, token
"""

# --------------------------------------------------------------------------
# Fixed-n per-key sampling (reservoir-style but DETERMINISTIC: keep the n
# lowest hash values per key — reruns, shards and the SQL twin agree
# exactly).  Combiner shape: each block emits ≤ keys × n candidate rows,
# the driver merges the bounded partials.

SPK_N = 3


def sample_per_key(sf_dir: str):
    def cand(batch: pd.DataFrame) -> pd.DataFrame:
        b = pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "source": batch["source"],
                "h": _sample_hash(batch["doc_id"].to_numpy()),
            }
        )
        b = b.sort_values(["h", "doc_id"], kind="mergesort")
        return b.groupby(["lang", "source"], as_index=False, sort=False).head(SPK_N)

    parts = (
        read(sf_dir, "documents", ["doc_id", "lang", "source"])
        .map_batches(cand, batch_format="pandas")
        .to_pandas()  # ≤ keys × SPK_N per block
    )
    parts = parts.sort_values(["h", "doc_id"], kind="mergesort")
    top = parts.groupby(["lang", "source"], as_index=False, sort=False).head(SPK_N)
    return top.sort_values("doc_id").reset_index(drop=True)[["doc_id", "lang", "source"]]


SAMPLE_PER_KEY_SQL = f"""
WITH h1 AS (
  SELECT doc_id, lang, source,
         (CAST(doc_id % {_M32} + {_SAMPLE_SEED} AS HUGEINT) * {_SAMPLE_C1}) % {_M32} AS a
  FROM documents
), h2 AS (
  SELECT doc_id, lang, source, (CAST(xor(a, a >> 15) AS HUGEINT) * {_SAMPLE_C2}) % {_M32} AS b FROM h1
), r AS (
  SELECT doc_id, lang, source,
         ROW_NUMBER() OVER (PARTITION BY lang, source ORDER BY xor(b, b >> 13), doc_id) AS r
  FROM h2
)
SELECT doc_id, lang, source FROM r WHERE r <= {SPK_N} ORDER BY doc_id
"""


# --------------------------------------------------------------------------
# Fixed-length chunking with overlap (the training-data windowing step:
# split each doc's token stream into CHUNK-token windows every STRIDE
# tokens — RoBERTa/FiD-style sliding contexts).  Deterministic rule: one
# chunk per start s ∈ {1, 1+STRIDE, 1+2·STRIDE, …} ≤ n_tokens, length
# min(CHUNK, n−s+1).  Chunk text is re-joined from the analyzed tokens so
# the twin can rebuild it with list slicing + array_to_string.

CHUNK_TOKENS = 32
CHUNK_STRIDE = 24


def chunk_documents(sf_dir: str):
    def chunks(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(batch["text"])
        counts = toks.map(len).to_numpy(dtype=np.int64)
        n_chunks = np.where(counts > 0, (counts - 1) // CHUNK_STRIDE + 1, 0)
        doc_rep = np.repeat(np.arange(len(batch), dtype=np.int64), n_chunks)
        # chunk ordinal within its doc: global position minus the doc's
        # first-chunk offset (exclusive cumsum of per-doc chunk counts)
        first = np.concatenate(([0], np.cumsum(n_chunks[:-1])))
        k = np.arange(doc_rep.size, dtype=np.int64) - first[doc_rep]
        start = k * CHUNK_STRIDE + 1  # 1-based token index
        n_tok = np.minimum(CHUNK_TOKENS, counts[doc_rep] - start + 1)
        tok_lists = toks.to_numpy()
        text = [
            " ".join(tok_lists[d][s - 1 : s - 1 + ln])
            for d, s, ln in zip(doc_rep, start, n_tok)
        ]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy()[doc_rep],
                "chunk_idx": k + 1,
                "start_tok": start,
                "n_tok": n_tok,
                "chunk_text": pd.Series(text, dtype=object),
            }
        )

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(chunks, batch_format="pandas")
    return out.to_pandas().sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)


CHUNK_SQL = f"""
WITH d AS (SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_RE}') AS toks FROM documents),
c AS (
  SELECT doc_id, toks, s,
         (s - 1) // {CHUNK_STRIDE} + 1 AS chunk_idx,
         least({CHUNK_TOKENS}, len(toks) - s + 1) AS n_tok
  FROM (SELECT doc_id, toks, unnest(range(1, len(toks) + 1, {CHUNK_STRIDE})) AS s FROM d)
)
SELECT doc_id, CAST(chunk_idx AS BIGINT) AS chunk_idx, CAST(s AS BIGINT) AS start_tok,
       CAST(n_tok AS BIGINT) AS n_tok,
       array_to_string(toks[s : s + n_tok - 1], ' ') AS chunk_text
FROM c ORDER BY doc_id, chunk_idx
"""


# --------------------------------------------------------------------------
# Data-mixture diagnostics: per-(source, token) KL-divergence contribution
# p_s(t)·ln(p_s(t)/p_corpus(t)) — the DoReMi-style mixture signal (which
# sources skew which vocabulary).  Two passes: (A) per-source token totals
# (one vectorized count, sources are a bounded domain), (B) per-batch
# (source, token) count partials merged exactly inside a fixed token-
# bucket shuffle, contributions computed per row with SCALAR math.log
# (libm parity with the twin's ln — np.log differs in the last ulp).
# The gate is the contribution TABLE (each row an identical double
# expression both sides); the per-source KL scalar is a float SUM whose
# order SQL and the engine can't share at scale, so it stays pytest-side.


def source_token_kl(sf_dir: str):
    def totals(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(batch["text"])
        return pd.DataFrame(
            {"source": batch["source"], "n": toks.map(len).astype("int64")}
        ).groupby("source", as_index=False)["n"].sum()

    tot = (
        read(sf_dir, "documents", ["text", "source"])
        .map_batches(totals, batch_format="pandas")
        .to_pandas()
        .groupby("source")["n"]
        .sum()
        .to_dict()
    )
    n_total = int(sum(tot.values()))

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        doc_idx, codes, uniq, _ = _explode_tokens(batch["text"])
        if codes.size == 0:
            return pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "token": pd.Series([], dtype=object),
                    "c": pd.Series([], dtype="int64"),
                }
            )
        src = pd.factorize(batch["source"])
        s_codes, s_uniq = src
        V = np.int64(uniq.size)
        comp, c = np.unique(s_codes[doc_idx] * V + codes, return_counts=True)
        tokv = np.asarray(uniq, dtype=object)[comp % V]
        return pd.DataFrame(
            {
                "source": np.asarray(s_uniq, dtype=object)[comp // V],
                "token": tokv,
                "c": c.astype(np.int64),
            }
        )

    def contrib(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["source", "token"], as_index=False)["c"].sum()
        ct = m.groupby("token")["c"].transform("sum").to_numpy(np.int64)
        cs = m["c"].to_numpy(np.int64)
        ns = m["source"].map(tot).to_numpy(np.int64)
        p = cs / ns
        q = ct / n_total
        kl = np.fromiter(
            (pi * math.log(pi / qi) for pi, qi in zip(p, q)), dtype=np.float64, count=p.size
        )
        out = m[["source", "token"]].copy()
        out["cnt"] = cs
        out["contrib"] = kl
        return out

    docs = read(sf_dir, "documents", ["text", "source"]).map_batches(partials, batch_format="pandas")
    out = bucketed(docs, "token", contrib).to_pandas()  # ≤ sources × vocab rows
    return out.sort_values(["source", "token"]).reset_index(drop=True)


SOURCE_KL_SQL = f"""
WITH cnt AS (
  SELECT source, token, COUNT(*) AS c
  FROM (SELECT source, unnest(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS token FROM documents)
  GROUP BY source, token
), ns AS (SELECT source, SUM(c) AS n FROM cnt GROUP BY source),
ct AS (SELECT token, SUM(c) AS tc FROM cnt GROUP BY token),
nt AS (SELECT SUM(c) AS total FROM cnt)
SELECT source, token, CAST(c AS BIGINT) AS cnt,
       (c / CAST(n AS DOUBLE)) * ln((c / CAST(n AS DOUBLE)) / (tc / CAST(total AS DOUBLE))) AS contrib
FROM cnt JOIN ns USING (source) JOIN ct USING (token) CROSS JOIN nt
ORDER BY source, token
"""


# --------------------------------------------------------------------------
# Deterministic curriculum interleave: the training-order schedule that
# round-robins sources (doc with per-source rank r from source s trains at
# global position = |{(r', s') < (r, s)}| — the standard "interleave
# datasets by example index" mixing used by multi-corpus loaders).
#
# Scale shape — NO global sort: per-batch (source, range-bucket) count
# partials (bounded: sources × buckets rows) → the driver exclusive-scans
# per source over bucket totals and broadcasts base ranks + the per-source
# size table → each range-bucket group computes local ranks, and positions
# come from the CLOSED FORM over the size table:
#   pos(r, s) = Σ_{s'} min(n_{s'}, r)  +  |{s' < s : n_{s'} > r}|
# (docs with smaller rank, plus same-rank docs from earlier sources) —
# integer-exact, O(sources) driver state, never O(docs).


def interleave_order(sf_dir: str, nbuckets: int = SHUFFLE_BUCKETS):
    """→ (doc_id, source, rnk, position) sorted by doc_id; `rnk` is the
    doc's 0-based rank within its source (doc_id order), `position` its
    0-based slot in the interleaved global schedule."""
    return interleave_over(read(sf_dir, "documents", ["doc_id", "source"]), nbuckets)


def interleave_over(docs, nbuckets: int = SHUFFLE_BUCKETS):
    """Pandas-collected form of the interleave core (the standalone gate):
    `docs` carries (doc_id, source)."""
    ds = interleave_over_ds(docs, nbuckets)
    if ds is None:
        return pd.DataFrame({"doc_id": [], "source": [], "rnk": [], "position": []})
    out = ds.to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def interleave_over_ds(docs, nbuckets: int = SHUFFLE_BUCKETS):
    """LAZY Dataset core of interleave_order: → (doc_id, source, rnk,
    position), unsorted.  Returns None on an empty input (Ray drops the
    block schema there).  Driver traffic is bounded: the only collects are
    the max-doc-id scalar and the ≤ sources×nbuckets range-bucket count
    partials — never a per-doc frame."""
    import ray

    mx_df = docs.map_batches(
        lambda b: pd.DataFrame({"m": np.asarray([b["doc_id"].max()] if len(b) else [], dtype=np.int64)}),
        batch_format="pandas",
    ).to_pandas()
    if not len(mx_df):
        return None
    width = int(mx_df["m"].max()) // nbuckets + 1

    def counts(b: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"source": b["source"], "rb": b["doc_id"].to_numpy() // width, "cnt": 1})
        return g.groupby(["source", "rb"], as_index=False)["cnt"].sum()

    part = (
        docs.map_batches(counts, batch_format="pandas")
        .to_pandas()
        .groupby(["source", "rb"], as_index=False)["cnt"]
        .sum()
    )
    # per-source exclusive scan over the ≤ nbuckets bucket totals
    part = part.sort_values(["source", "rb"], kind="mergesort")
    part["base"] = part.groupby("source")["cnt"].cumsum() - part["cnt"]
    bases = {(s, int(rb)): int(b) for s, rb, b in zip(part["source"], part["rb"], part["base"])}
    sizes = part.groupby("source")["cnt"].sum().sort_index()
    src_names = np.asarray(sizes.index, dtype=object)
    src_sizes = sizes.to_numpy(dtype=np.int64)
    n_sorted = np.sort(src_sizes)
    n_prefix = np.concatenate([[0], np.cumsum(n_sorted)])
    # prefix structures for |{s' < s : n_{s'} > r}|, per source index
    prefix_sorted = [np.sort(src_sizes[:i]) for i in range(len(src_names))]
    ref = ray.put((bases, {s: i for i, s in enumerate(src_names)}, src_sizes, n_sorted, n_prefix, prefix_sorted))

    def rank_and_place(g: pd.DataFrame) -> pd.DataFrame:
        bases, sidx, sizes_, nsort, npref, presort = ray.get(ref)
        g = g.sort_values("doc_id", kind="mergesort").reset_index(drop=True)
        rb = g["doc_id"].to_numpy() // width
        src = g["source"].to_numpy()
        rnk = g.groupby("source").cumcount().to_numpy(dtype=np.int64)
        rnk += np.asarray([bases[(s, int(b))] for s, b in zip(src, rb)], dtype=np.int64)
        # term1: Σ min(n_s', r) = prefix_sum(n < r) + r · #(n ≥ r)
        j = np.searchsorted(nsort, rnk, side="left")
        term1 = npref[j] + rnk * (nsort.size - j)
        # term2: earlier sources with n > r — vectorized per source group
        term2 = np.zeros(len(g), dtype=np.int64)
        for s in pd.unique(src):
            m = src == s
            pre = presort[sidx[s]]
            term2[m] = pre.size - np.searchsorted(pre, rnk[m], side="right")
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(dtype=np.int64),
                "source": src,
                "rnk": rnk,
                "position": (term1 + term2).astype(np.int64),
            }
        )

    def add_rb(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["rb"] = b["doc_id"].to_numpy() // width
        return b

    return (
        docs.map_batches(add_rb, batch_format="pandas")
        .groupby("rb")
        .map_groups(rank_and_place, batch_format="pandas")
    )


INTERLEAVE_SQL = """
WITH r AS (
  SELECT doc_id, source,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY doc_id) - 1 AS rnk
  FROM documents
)
SELECT doc_id, source, CAST(rnk AS BIGINT) AS rnk,
       CAST(ROW_NUMBER() OVER (ORDER BY rnk, source, doc_id) - 1 AS BIGINT) AS position
FROM r ORDER BY doc_id
"""


# --------------------------------------------------------------------------
# Corpus datacard (the "datasheets for datasets" summary a training-data
# pipeline publishes with every corpus drop): per-language document/token/
# char totals, EXACT distinct-token counts, and exact-duplicate document
# counts — one strict row per language.
#
# Scale shape: ONE corpus read + one tokenizer pass; totals are combiner
# partials riding the same shuffle (key "", summed wherever they land);
# distinct tokens ride the bucketed token shuffle (per-bucket distinct
# (lang, token) counts sum exactly because buckets partition the token
# space); duplicate docs come from md5-signature partials through the same
# bucketed merge (distinct signatures per lang).  Driver traffic is
# O(langs × buckets); the vocabulary never lands on one node.


def corpus_datacard(sf_dir: str):
    """→ (lang, n_docs, n_tokens, n_chars, distinct_tokens, dup_docs,
    mean_doc_tokens) sorted by lang; mean is the one derived float
    (exact-int division, identical on both sides)."""
    import hashlib

    # ONE read + ONE tokenizer run: each batch emits three row kinds into
    # the same bucketed frame — "z" totals partials (key "", summed), "t"
    # distinct (lang, token) rows, "s" distinct (lang, md5) rows
    def rows(batch: pd.DataFrame) -> pd.DataFrame:
        doc_idx, codes, uniq, counts = _explode_tokens(batch["text"])
        langs = batch["lang"].to_numpy()
        tot = pd.DataFrame(
            {
                "lang": langs,
                "n_docs": np.int64(1),
                "n_tokens": counts,
                "n_chars": batch["n_chars"].to_numpy(dtype=np.int64),
            }
        ).groupby("lang", as_index=False).sum()
        tot["kind"] = "z"
        tot["key"] = ""
        frames = [tot]
        if codes.size:
            t = pd.DataFrame({"lang": langs[doc_idx], "key": uniq[codes]}).drop_duplicates()
            t["kind"] = "t"
            for c in ("n_docs", "n_tokens", "n_chars"):
                t[c] = np.int64(0)
            frames.append(t)
        sigs = batch["text"].map(lambda x: hashlib.md5(x.encode()).hexdigest())
        sg = pd.DataFrame({"lang": langs, "key": sigs}).drop_duplicates()
        sg["kind"] = "s"
        for c in ("n_docs", "n_tokens", "n_chars"):
            sg[c] = np.int64(0)
        frames.append(sg)
        cols = ["kind", "lang", "key", "n_docs", "n_tokens", "n_chars"]
        return pd.concat([f[cols] for f in frames], ignore_index=True)

    def bucket_merge(g: pd.DataFrame) -> pd.DataFrame:
        z = g["kind"].to_numpy() == "z"
        t = g[z].groupby("lang", as_index=False)[["n_docs", "n_tokens", "n_chars"]].sum()
        t["kind"] = "z"
        t["cnt"] = np.int64(0)
        d = g[~z].drop_duplicates(["kind", "lang", "key"])
        out = d.groupby(["kind", "lang"], as_index=False).agg(cnt=("key", "size"))
        for c in ("n_docs", "n_tokens", "n_chars"):
            out[c] = np.int64(0)
        cols = ["kind", "lang", "n_docs", "n_tokens", "n_chars", "cnt"]
        return pd.concat([t[cols], out[cols]], ignore_index=True)

    docs = read(sf_dir, "documents", ["lang", "text", "n_chars"]).map_batches(rows, batch_format="pandas")
    parts = bucketed(docs, "key", bucket_merge).to_pandas()
    if "kind" not in parts.columns:
        return pd.DataFrame(
            {c: [] for c in ("lang", "n_docs", "n_tokens", "n_chars", "distinct_tokens", "dup_docs", "mean_doc_tokens")}
        )
    tot = (
        parts[parts["kind"] == "z"]
        .groupby("lang", as_index=False)[["n_docs", "n_tokens", "n_chars"]]
        .sum()
    )
    dt = parts[parts["kind"] == "t"].groupby("lang", as_index=False)["cnt"].sum().rename(columns={"cnt": "dt"})
    ds = parts[parts["kind"] == "s"].groupby("lang", as_index=False)["cnt"].sum().rename(columns={"cnt": "ds"})
    out = tot.merge(dt, on="lang", how="left").merge(ds, on="lang", how="left")
    for c in ("n_docs", "n_tokens", "n_chars"):
        out[c] = out[c].astype("int64")
    out["distinct_tokens"] = out["dt"].fillna(0).astype("int64")
    out["dup_docs"] = (out["n_docs"] - out["ds"].fillna(0)).astype("int64")
    out["mean_doc_tokens"] = out["n_tokens"].to_numpy(np.int64) / out["n_docs"].to_numpy(np.int64)
    return (
        out[["lang", "n_docs", "n_tokens", "n_chars", "distinct_tokens", "dup_docs", "mean_doc_tokens"]]
        .sort_values("lang")
        .reset_index(drop=True)
    )


DATACARD_SQL = f"""
WITH d AS (
  SELECT lang, doc_id, text, n_chars,
         regexp_extract_all(lower(text), '{TOKEN_RE}') AS toks
  FROM documents
),
tot AS (
  SELECT lang, COUNT(*) AS n_docs, CAST(SUM(len(toks)) AS BIGINT) AS n_tokens,
         CAST(SUM(n_chars) AS BIGINT) AS n_chars,
         CAST(COUNT(*) - COUNT(DISTINCT md5(text)) AS BIGINT) AS dup_docs
  FROM d GROUP BY lang
),
dt AS (
  SELECT lang, CAST(COUNT(DISTINCT tok) AS BIGINT) AS distinct_tokens
  FROM (SELECT lang, unnest(toks) AS tok FROM d) GROUP BY lang
)
SELECT tot.lang, n_docs, n_tokens, n_chars,
       COALESCE(distinct_tokens, 0) AS distinct_tokens, dup_docs,
       CAST(n_tokens AS DOUBLE) / n_docs AS mean_doc_tokens
FROM tot LEFT JOIN dt USING (lang)
ORDER BY tot.lang
"""


PIPELINES: dict[str, Pipeline] = {
    "corpus_datacard": Pipeline(
        corpus_datacard,
        DATACARD_SQL,
        "per-language corpus datacard: exact totals, bucketed distinct tokens, md5 dup-doc counts",
    ),
    "interleave_order": Pipeline(
        interleave_order,
        INTERLEAVE_SQL,
        "deterministic curriculum interleave (round-robin sources by per-source rank) — closed-form positions, no global sort",
    ),
    "gopher_quality_filter": Pipeline(
        gopher_quality_filter,
        GOPHER_SQL,
        "Gopher document-quality rules (word count / word length / stopword floor / distinct fraction)",
    ),
    "winnowing_fingerprint": Pipeline(
        winnowing_fingerprint,
        WINNOW_SQL,
        "MOSS winnowing fingerprints (window-min of char-polynomial gram hashes, rightmost ties)",
    ),
    "tfidf_keywords": Pipeline(
        tfidf_keywords,
        TFIDF_KEYWORDS_SQL,
        "per-doc top-k tf-idf keywords via token-bucket df + doc-bucket top-k shuffles",
    ),
    "sample_per_key": Pipeline(
        sample_per_key,
        SAMPLE_PER_KEY_SQL,
        "deterministic fixed-n per-(lang,source) sample (lowest seeded hash wins)",
    ),
    "chunk_documents": Pipeline(
        chunk_documents,
        CHUNK_SQL,
        "fixed-length token chunking with stride overlap (training-data windowing)",
    ),
    "source_token_kl": Pipeline(
        source_token_kl,
        SOURCE_KL_SQL,
        "per-(source, token) KL-divergence contributions (data-mixture diagnostics)",
    ),
}
