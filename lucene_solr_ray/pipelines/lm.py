"""Bigram language-model quality scoring — the CCNet-style perplexity filter.

Reference shape (public literature, PAPERS.md): CCNet (Wenzek et al., 2019)
trains a KenLM n-gram model on a reference-corpus slice and buckets web
documents by perplexity; Gopher and RefinedWeb apply the same quality-filter
family.  The reference engine's nearest analog is the classification URP
family (SURVEY.md §2.4: solr/contrib/langid + lucene/classification) — a
model trained from corpus statistics, applied per document at ingest.

Here: an add-one-smoothed token-bigram LM, trained distributed and applied
as a broadcast-model streaming scorer:

Train — vocabulary-keyed counts NEVER merge unbucketed on one node
(CLAUDE.md bucketed-shuffle rule): one streaming pass emits per-batch
unigram/bigram count partials go through `bucketed` (LM_BUCKETS
buckets); each merge call (one or more whole buckets) merges exactly, counts
its distinct unigrams (V is the sum of the per-call distincts — exact,
buckets partition the vocab) and truncates to the top-M entries of each
bucket (the pruned-KenLM model cap; a bigram's global count is bucket-local,
so any global top-k ≤ M is exact).

Score — the bounded model is ray.put ONCE; an actor pool builds
math.log lookup tables in __init__ (libm, never np.log — CLAUDE.md score
parity) and each batch gathers per-bigram log-probs vectorized:
  lp(w1,w2) = ln((c2(w1,w2) + 1) / (c1(w1) + V))      known w1
            = ln(1 / V)                                unseen w1 (uniform)
  cross_entropy(doc) = -mean(lp)   ppl(doc) = exp(cross_entropy)
Per-doc summation runs in token order via np.add.reduceat (numpy's
deterministic pairwise float64 reduction — the pytest duel recomputes every
log-prob with scalar math.log and reduces with the same numpy kernel, so
the per-bigram probabilities are verified bit-exact and the aggregation
algorithm is pinned).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from .common import BUCKET_COL, Pipeline, bucketed, read, top_per_bucket
from .text import TOKEN_RE, _tokens

# per-bucket model cap: bounds the broadcast model to ≤ LM_BUCKETS·M rows
# per kind (CCNet prunes its KenLM the same way); never binds at test scale.
LM_TOP_M = 50_000
# the model's bucket count: with LM_TOP_M it sets the model's size, so it is
# part of the model (dsir.py shares it), not a shuffle-cost setting
LM_BUCKETS = 64


def _count_partials(batch: pd.DataFrame) -> pd.DataFrame:
    """One pass: per-batch unigram + bigram count partials, bucket-keyed."""
    toks = _tokens(batch["text"])
    flat = np.concatenate(toks.to_numpy()) if len(toks) else np.array([], dtype=object)
    lens = toks.str.len().to_numpy(dtype=np.int64) if len(toks) else np.array([], dtype=np.int64)
    frames = []
    if flat.size:
        u, c = np.unique(flat, return_counts=True)
        frames.append(pd.DataFrame({"key": u, "kind": 0, "cnt": c.astype("int64")}))
        # in-doc consecutive pairs: mask out cross-document adjacency
        if flat.size >= 2:
            doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
            same = doc_idx[:-1] == doc_idx[1:]
            if same.any():
                pairs = np.char.add(
                    np.char.add(flat[:-1][same].astype(str), " "),
                    flat[1:][same].astype(str),
                ).astype(object)
                u2, c2 = np.unique(pairs, return_counts=True)
                frames.append(pd.DataFrame({"key": u2, "kind": 1, "cnt": c2.astype("int64")}))
    if not frames:
        return pd.DataFrame({"key": pd.Series(dtype=object), "kind": pd.Series(dtype="int64"), "cnt": pd.Series(dtype="int64")})
    return pd.concat(frames, ignore_index=True)


def _merge_bucket_topm(g: pd.DataFrame) -> pd.DataFrame:
    """Exact merge + distinct-unigram count + per-bucket top-M truncation."""
    m = g.groupby([BUCKET_COL, "kind", "key"], as_index=False)["cnt"].sum()
    uni = m[m["kind"] == 0]
    big = m[m["kind"] == 1]
    v_row = pd.DataFrame({"key": ["__v__"], "kind": [2], "cnt": [np.int64(len(uni))]})
    keep = pd.concat(
        [
            top_per_bucket(uni, "cnt", "key", LM_TOP_M),
            top_per_bucket(big, "cnt", "key", LM_TOP_M),
            v_row,
        ],
        ignore_index=True,
    )
    keep["cnt"] = keep["cnt"].astype("int64")
    return keep[["kind", "key", "cnt"]]


def train_bigram_lm(sf_dir: str) -> tuple[dict, dict, int]:
    """→ (c1: token→count, c2: 'w1 w2'→count, V: exact distinct unigrams)."""
    parts = read(sf_dir, "documents", ["text"]).map_batches(_count_partials, batch_format="pandas")
    # ≤ LM_BUCKETS × (2·LM_TOP_M + 1) rows, model-bounded
    merged = bucketed(parts, "key", _merge_bucket_topm, LM_BUCKETS).to_pandas()
    uni = merged[merged["kind"] == 0]
    big = merged[merged["kind"] == 1]
    v = int(merged.loc[merged["kind"] == 2, "cnt"].sum())
    return (
        dict(zip(uni["key"], uni["cnt"].astype(int))),
        dict(zip(big["key"], big["cnt"].astype(int))),
        v,
    )


class _LMScorer:
    """Scorer state: model lookup tables built once per worker (libm logs).
    Run as a TASK pool (plain map_batches fn + per-worker cache, the
    knn_label_vote lesson) — the state is one ray.get away, and actor-pool
    startup costs more than the whole scoring pass at suite scale."""

    def __init__(self, model_ref):
        import ray

        c1, c2, V = ray.get(model_ref) if not isinstance(model_ref, tuple) else model_ref
        self.oov_lp = math.log(1.0 / V)
        # per-known-unigram backoff: ln(1/(c1+V)); per-bigram ln((c2+1)/(c1[w1]+V))
        self.uni_lp = pd.Series(
            {w: math.log(1.0 / (c + V)) for w, c in c1.items()}, dtype="float64"
        )
        big_lp = {}
        for key, c in c2.items():
            w1 = key.split(" ", 1)[0]
            big_lp[key] = math.log((c + 1.0) / (c1.get(w1, 0) + V))
        self.big_lp = pd.Series(big_lp, dtype="float64")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(batch["text"])
        lens = toks.str.len().to_numpy(dtype=np.int64)
        flat = (
            np.concatenate(toks.to_numpy()) if len(toks) else np.array([], dtype=object)
        )
        n = len(batch)
        n_big = np.maximum(lens - 1, 0)
        ce = np.zeros(n, dtype=np.float64)
        if flat.size >= 2:
            doc_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
            same = doc_idx[:-1] == doc_idx[1:]
            w1 = flat[:-1][same].astype(str)
            keys = np.char.add(np.char.add(w1, " "), flat[1:][same].astype(str))
            lp = pd.Series(keys).map(self.big_lp).to_numpy()
            miss = np.isnan(lp)
            if miss.any():  # unseen bigram: add-one backoff on w1's count
                back = pd.Series(w1[miss]).map(self.uni_lp).to_numpy()
                back = np.where(np.isnan(back), self.oov_lp, back)
                lp[miss] = back
            # token-order segment sums (reduceat is sequential float64)
            starts = np.zeros(n, dtype=np.int64)
            np.cumsum(n_big[:-1], out=starts[1:])
            nz = n_big > 0
            if lp.size:
                sums = np.add.reduceat(lp, starts[nz])
                ce[nz] = -sums / n_big[nz]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_bigrams": n_big.astype("int64"),
                "cross_entropy": ce,
                "ppl": np.array([math.exp(x) for x in ce], dtype=np.float64),
            }
        )


def lm_perplexity(sf_dir: str):
    """Train the bigram LM over documents, score every document streaming.

    Model-scored floats (no SQL twin — DuckDB float SUM order is not
    deterministic across threads); exactness covered by the pytest duel
    against a scalar per-document reference."""
    import ray

    model_ref = ray.put(train_bigram_lm(sf_dir))

    def score(batch: pd.DataFrame, _ref=model_ref) -> pd.DataFrame:
        sc = _SCORER_CACHE.get(_ref.hex())
        if sc is None:
            sc = _SCORER_CACHE[_ref.hex()] = _LMScorer(_ref)
        return sc(batch)

    out = (
        read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(score, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


_SCORER_CACHE: dict[str, _LMScorer] = {}  # per-worker-process model tables


def lm_bigram_model(sf_dir: str):
    """Gated model head: global top-40 bigrams by count with their add-one
    log-probs.  Exact despite per-bucket truncation: a bigram lives in
    exactly one bucket, so the global top-40 ⊆ union of per-bucket top-M."""
    c1, c2, V = train_bigram_lm(sf_dir)
    rows = []
    for key, c in c2.items():
        w1, w2 = key.split(" ", 1)
        rows.append((w1, w2, c, c1.get(w1, 0)))
    df = pd.DataFrame(rows, columns=["w1", "w2", "c2", "c1"])
    df = df.sort_values(["c2", "w1", "w2"], ascending=[False, True, True]).head(40)
    df["c2"] = df["c2"].astype("int64")
    df["c1"] = df["c1"].astype("int64")
    df["lp"] = [
        math.log((c2_ + 1.0) / (c1_ + V)) for c2_, c1_ in zip(df["c2"], df["c1"])
    ]
    return df.reset_index(drop=True)


LM_BIGRAM_MODEL_SQL = f"""
WITH t AS (
  SELECT regexp_extract_all(lower(text), '{TOKEN_RE}') AS toks FROM documents
),
uni AS (
  SELECT w, CAST(COUNT(*) AS BIGINT) AS c1
  FROM (SELECT unnest(toks) AS w FROM t) GROUP BY w
),
v AS (SELECT CAST(COUNT(*) AS BIGINT) AS V FROM uni),
big AS (
  SELECT toks[i] AS w1, toks[i + 1] AS w2, CAST(COUNT(*) AS BIGINT) AS c2
  FROM t, unnest(range(1, len(toks))) AS r(i)
  GROUP BY w1, w2
)
SELECT w1, w2, c2, c1, ln((c2 + 1.0) / (c1 + V)) AS lp
FROM big JOIN uni ON w1 = w CROSS JOIN v
ORDER BY c2 DESC, w1, w2 LIMIT 40
"""


# --------------------------------------------------------------------------
# CCNet perplexity-bucket mixing (Wenzek et al., 2019 §4.3): per language,
# documents split into head/middle/tail by perplexity tertiles.  Thresholds
# come from bounded per-lang histograms (4096 bins between the distributed
# min/max — CCNet's own thresholds are quantile-approximate), so nothing
# O(docs) ever reaches the driver: pass 1 = per-lang (min, max, count)
# combiner partials; pass 2 = per-lang bin-count partials; the driver
# merges (langs × bins) ints and picks the bin edges where the cumulative
# count crosses n/3 and 2n/3; pass 3 assigns buckets by comparison.

CCNET_BINS = 4096


def ccnet_buckets(sf_dir: str):
    """→ per-doc (doc_id, lang, ppl, bucket) with bucket ∈ head|middle|tail
    per language.  Model-scored floats → rows-only gate; the algorithm is
    pytest-oracled (threshold recomputation + balance/order properties)."""
    import ray

    model_ref = ray.put(train_bigram_lm(sf_dir))

    def score(batch: pd.DataFrame, _ref=model_ref) -> pd.DataFrame:
        sc = _SCORER_CACHE.get(_ref.hex())
        if sc is None:
            sc = _SCORER_CACHE[_ref.hex()] = _LMScorer(_ref)
        out = sc(batch)
        out["lang"] = batch["lang"].to_numpy()
        return out[["doc_id", "lang", "ppl"]]

    scored = read(sf_dir, "documents", ["doc_id", "text", "lang"]).map_batches(
        score, batch_format="pandas"
    ).materialize()  # scored once, scanned twice (range pass + bin pass)

    def range_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("lang")["ppl"].agg(["min", "max", "size"]).reset_index()
        return g.rename(columns={"min": "lo", "max": "hi", "size": "cnt"})

    rng = scored.map_batches(range_partial, batch_format="pandas").to_pandas()
    rng = rng.groupby("lang").agg(lo=("lo", "min"), hi=("hi", "max"), cnt=("cnt", "sum"))
    edges = {
        lang: np.linspace(r.lo, r.hi if r.hi > r.lo else r.lo + 1.0, CCNET_BINS + 1)
        for lang, r in rng.iterrows()
    }
    edges_ref = ray.put(edges)

    def bin_partial(b: pd.DataFrame, _e=edges_ref) -> pd.DataFrame:
        e = ray.get(_e)
        frames = []
        for lang, g in b.groupby("lang"):
            idx = np.clip(np.searchsorted(e[lang], g["ppl"].to_numpy(), side="right") - 1, 0, CCNET_BINS - 1)
            c = np.bincount(idx, minlength=CCNET_BINS).astype(np.int64)
            frames.append(pd.DataFrame({"lang": lang, "bin": np.arange(CCNET_BINS, dtype=np.int64), "c": c}))
        if not frames:
            return pd.DataFrame({"lang": pd.Series(dtype=object), "bin": pd.Series(dtype="int64"), "c": pd.Series(dtype="int64")})
        return pd.concat(frames, ignore_index=True)

    bins = scored.map_batches(bin_partial, batch_format="pandas").to_pandas()
    bins = bins.groupby(["lang", "bin"], as_index=False)["c"].sum()
    cuts = {}
    for lang, g in bins.groupby("lang"):
        g = g.sort_values("bin")
        cum = g["c"].cumsum().to_numpy()
        n = int(rng.loc[lang, "cnt"])
        e = edges[lang]
        # first bin whose cumulative count reaches the tertile → its upper
        # edge is the threshold (quantile-approximate, like CCNet's)
        b1 = int(np.searchsorted(cum, (n + 2) // 3))
        b2 = int(np.searchsorted(cum, (2 * n + 2) // 3))
        cuts[lang] = (float(e[min(b1 + 1, CCNET_BINS)]), float(e[min(b2 + 1, CCNET_BINS)]))
    cuts_ref = ray.put(cuts)

    def assign(b: pd.DataFrame, _c=cuts_ref) -> pd.DataFrame:
        c = ray.get(_c)
        t1 = b["lang"].map({k: v[0] for k, v in c.items()}).to_numpy()
        t2 = b["lang"].map({k: v[1] for k, v in c.items()}).to_numpy()
        p = b["ppl"].to_numpy()
        b = b.copy()
        b["bucket"] = np.where(p <= t1, "head", np.where(p <= t2, "middle", "tail"))
        return b

    out = scored.map_batches(assign, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


PIPELINES: dict[str, Pipeline] = {
    "lm_bigram_model": Pipeline(
        lm_bigram_model,
        LM_BIGRAM_MODEL_SQL,
        "bigram-LM head: top-40 bigram counts + add-one log-probs (bucketed vocab shuffle)",
    ),
    "lm_perplexity": Pipeline(
        lm_perplexity,
        None,
        "CCNet-style bigram-LM perplexity per document (broadcast model, actor-pool scorer)",
    ),
    "ccnet_buckets": Pipeline(
        ccnet_buckets,
        None,
        "CCNet head/middle/tail mixing: per-lang perplexity tertiles from bounded histograms",
    ),
}
