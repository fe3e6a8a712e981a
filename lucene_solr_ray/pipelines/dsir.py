"""DSIR — Data Selection with Importance Resampling (Xie et al., 2023).

Public-literature method (PAPERS.md family): estimate a target
distribution p (here: the `lang = 'en'` document slice) and a raw
distribution q (the whole corpus) over token features, score every raw
document with the importance log-weight

    logw(doc) = Σ_tokens [ ln p(t) − ln q(t) ]
    p(t) = (c_target(t) + 1) / (T_target + V)     add-one smoothing
    q(t) = (c_raw(t)    + 1) / (T_raw    + V)

and resample the top-weighted documents.  The reference engine's nearest
analog is the classification URP family (SURVEY.md §2.4) — corpus-trained
model applied per document at ingest — and the paper's own estimator uses
hashed n-gram buckets (see `dsir_weights(hash_dim=...)`).

Distribution of work mirrors `pipelines/lm.py`:

Train — token counts NEVER merge unbucketed (CLAUDE.md bucketed-shuffle
rule): per-batch (token, c_target, c_raw) partials go through
`bucketed` with LM_BUCKETS buckets; each merge call (whole buckets) merges
exactly, contributes its exact distinct count (V) and token-total partials
(T_target/T_raw over its FULL buckets, pre-truncation), then truncates the
shipped model to the per-bucket top-M by either count (a token lives in
exactly one bucket, so any global top-k ≤ M by c_target or c_raw is exact).

Score — the bounded model is ray.put ONCE; workers build math.log
lookup tables (libm — CLAUDE.md score parity) and each batch gathers
per-token log-ratios vectorized; per-doc sums run in token order via
np.add.reduceat (the pinned deterministic kernel — the pytest duel
recomputes scalar logs and reduces with the SAME kernel; see the lm.py
reduceat gotcha in CLAUDE.md).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from .common import BUCKET_COL, Pipeline, bucket_of, bucketed, read, top_per_bucket
from .lm import LM_BUCKETS, LM_TOP_M
from .text import TOKEN_RE, _explode_tokens

TARGET_LANG = "en"


def _dsir_partials(batch: pd.DataFrame) -> pd.DataFrame:
    # one shared token-explode kernel (text._explode_tokens) — the batch
    # token stream factorized once, counts as bincounts over codes
    doc_idx, codes, uniq, _counts = _explode_tokens(batch["text"])
    if not codes.size:
        return pd.DataFrame(
            {
                "key": pd.Series(dtype=object),
                "ct": pd.Series(dtype="int64"),
                "cr": pd.Series(dtype="int64"),
                "kind": pd.Series(dtype="int64"),
            }
        )
    tok_t = (batch["lang"].to_numpy() == TARGET_LANG)[doc_idx]
    cr = np.bincount(codes, minlength=uniq.size).astype(np.int64)
    ct = np.bincount(codes[tok_t], minlength=uniq.size).astype(np.int64)
    out = pd.DataFrame({"key": uniq, "ct": ct, "cr": cr})
    out["kind"] = np.int64(0)
    return out


def _merge_dsir_bucket(g: pd.DataFrame) -> pd.DataFrame:
    m = g.groupby([BUCKET_COL, "key"], as_index=False)[["ct", "cr"]].sum()
    # exact stats of the call's buckets BEFORE truncation: distinct vocab + totals
    stats = pd.DataFrame(
        {
            "key": ["__v__", "__tot__"],
            "ct": [np.int64(len(m)), m["ct"].sum()],
            "cr": [np.int64(len(m)), m["cr"].sum()],
            "kind": np.int64(1),
        }
    )
    top_t = top_per_bucket(m, "ct", "key", LM_TOP_M)
    top_r = top_per_bucket(m, "cr", "key", LM_TOP_M)
    keep = pd.concat([top_t, top_r], ignore_index=True).drop_duplicates("key")
    keep["kind"] = np.int64(0)
    out = pd.concat([keep, stats], ignore_index=True)
    for c in ("ct", "cr"):
        out[c] = out[c].astype("int64")
    return out[["key", "ct", "cr", "kind"]]


def train_dsir(sf_dir: str) -> tuple[dict, int, int, int]:
    """→ (counts: token → (c_target, c_raw), T_target, T_raw, V)."""
    parts = read(sf_dir, "documents", ["text", "lang"]).map_batches(_dsir_partials, batch_format="pandas")
    # ≤ LM_BUCKETS × (2·LM_TOP_M + 2) rows, model-bounded
    merged = bucketed(parts, "key", _merge_dsir_bucket, LM_BUCKETS).to_pandas()
    model_rows = merged[merged["kind"] == 0]
    v = int(merged.loc[(merged["kind"] == 1) & (merged["key"] == "__v__"), "ct"].sum())
    tots = merged[(merged["kind"] == 1) & (merged["key"] == "__tot__")]
    tt, tr = int(tots["ct"].sum()), int(tots["cr"].sum())
    counts = {
        k: (int(a), int(b))
        for k, a, b in zip(model_rows["key"], model_rows["ct"], model_rows["cr"])
    }
    return counts, tt, tr, v


def _log_ratio(ct: int, cr: int, tt: int, tr: int, v: int) -> float:
    """ln p − ln q, the exact two-ln shape the SQL twin replicates."""
    return math.log((ct + 1.0) / (tt + v)) - math.log((cr + 1.0) / (tr + v))


def dsir_model(sf_dir: str):
    """Gated model head: top-40 tokens by target count with their add-one
    log-probs and importance log-ratio.  Exact despite per-bucket
    truncation (top-40 by c_target ⊆ union of per-bucket top-M by ct)."""
    counts, tt, tr, v = train_dsir(sf_dir)
    df = pd.DataFrame(
        [(k, a, b) for k, (a, b) in counts.items()], columns=["token", "c_target", "c_raw"]
    )
    df = df.sort_values(["c_target", "token"], ascending=[False, True]).head(40)
    df["c_target"] = df["c_target"].astype("int64")
    df["c_raw"] = df["c_raw"].astype("int64")
    df["lp_target"] = [math.log((c + 1.0) / (tt + v)) for c in df["c_target"]]
    df["lp_raw"] = [math.log((c + 1.0) / (tr + v)) for c in df["c_raw"]]
    df["log_ratio"] = df["lp_target"].to_numpy() - df["lp_raw"].to_numpy()
    return df.reset_index(drop=True)


DSIR_MODEL_SQL = f"""
WITH d AS (
  SELECT lang, regexp_extract_all(lower(text), '{TOKEN_RE}') AS toks FROM documents
),
tok AS (SELECT lang, unnest(toks) AS w FROM d),
cnt AS (
  SELECT w, CAST(COUNT(*) FILTER (WHERE lang = '{TARGET_LANG}') AS BIGINT) AS c_target,
         CAST(COUNT(*) AS BIGINT) AS c_raw
  FROM tok GROUP BY w
),
tot AS (
  SELECT CAST(SUM(c_target) AS BIGINT) AS tt, CAST(SUM(c_raw) AS BIGINT) AS tr,
         CAST(COUNT(*) AS BIGINT) AS v
  FROM cnt
)
SELECT w AS token, c_target, c_raw,
       ln((c_target + 1.0) / (tt + v)) AS lp_target,
       ln((c_raw + 1.0) / (tr + v)) AS lp_raw,
       ln((c_target + 1.0) / (tt + v)) - ln((c_raw + 1.0) / (tr + v)) AS log_ratio
FROM cnt CROSS JOIN tot
ORDER BY c_target DESC, token LIMIT 40
"""


class _DsirScorer:
    """Per-worker scorer state (task pool + cache, the knn/lm pattern).
    Tokens truncated out of the model score as unseen (ct = cr = 0) — the
    documented model-cap approximation, never binding at test scale."""

    def __init__(self, model):
        counts, tt, tr, v = model
        self.oov_lr = _log_ratio(0, 0, tt, tr, v)
        self.lr = pd.Series(
            {k: _log_ratio(a, b, tt, tr, v) for k, (a, b) in counts.items()},
            dtype="float64",
        )

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        _doc_idx, codes, uniq, lens = _explode_tokens(batch["text"])
        logw = np.zeros(n, dtype=np.float64)
        if codes.size:
            # per-UNIQUE-token lookup, gathered back through the codes
            lr_u = pd.Series(uniq.astype(object)).map(self.lr).to_numpy()
            lr = np.where(np.isnan(lr_u), self.oov_lr, lr_u)[codes]
            starts = np.zeros(n, dtype=np.int64)
            np.cumsum(lens[:-1], out=starts[1:])
            nz = lens > 0
            sums = np.add.reduceat(lr, starts[nz])  # token-order segment sums
            logw[nz] = sums
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = np.where(lens > 0, logw / lens, 0.0)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": lens.astype("int64"),
                "logw": logw,
                "avg_logw": avg,
            }
        )


_SCORER_CACHE: dict[str, _DsirScorer] = {}


def _score_ds(sf_dir: str, model_ref):
    def score(batch: pd.DataFrame, _ref=model_ref) -> pd.DataFrame:
        sc = _SCORER_CACHE.get(_ref.hex())
        if sc is None:
            sc = _SCORER_CACHE[_ref.hex()] = _DsirScorer(__import__("ray").get(_ref))
        return sc(batch)

    return read(sf_dir, "documents", ["doc_id", "text"]).map_batches(score, batch_format="pandas")


def dsir_weights(sf_dir: str):
    """Per-document importance log-weights over the whole corpus.

    Model-scored floats (no SQL twin — per-doc float-sum order is the
    pinned reduceat kernel, not DuckDB's aggregate order); exactness
    covered by the pytest duel against a scalar per-token reference."""
    import ray

    model_ref = ray.put(train_dsir(sf_dir))
    out = _score_ds(sf_dir, model_ref).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


RESAMPLE_BINS = 1024


def dsir_resample(sf_dir: str, frac: float = 0.25):
    """Top-`frac` documents by length-normalized importance weight
    (deterministic rank resampling; the paper's Gumbel-noise variant is a
    seeded per-doc addend on the same path).

    EXACT selection without an O(corpus) driver sort: a bounded histogram
    over avg_logw finds the cut bin; every doc in a strictly-higher bin is
    in; only the BOUNDARY bin's rows (≈ N/bins) reach the driver for the
    exact tie-broken cut (avg_logw desc, doc_id asc) — the same
    histogram-threshold shape as ccnet_buckets, refined to exactness."""
    import ray

    model_ref = ray.put(train_dsir(sf_dir))
    scored = _score_ds(sf_dir, model_ref).materialize()  # scanned 3×, bounded cols

    def rng_part(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame({"lo": [], "hi": [], "n": []})
        v = b["avg_logw"].to_numpy()
        return pd.DataFrame({"lo": [v.min()], "hi": [v.max()], "n": [len(b)]})

    r = scored.map_batches(rng_part, batch_format="pandas").to_pandas()
    n_total = int(r["n"].sum())
    if n_total == 0:
        return pd.DataFrame({"doc_id": [], "n_tokens": [], "logw": [], "avg_logw": []})
    k = max(1, int(n_total * frac))
    lo, hi = float(r["lo"].min()), float(r["hi"].max())
    edges = np.linspace(lo, hi if hi > lo else lo + 1.0, RESAMPLE_BINS + 1)
    e_ref = ray.put(edges)

    def bin_part(b: pd.DataFrame, _e=e_ref) -> pd.DataFrame:
        e = ray.get(_e)
        idx = np.clip(np.searchsorted(e, b["avg_logw"].to_numpy(), side="right") - 1, 0, RESAMPLE_BINS - 1)
        c = np.bincount(idx, minlength=RESAMPLE_BINS).astype(np.int64)
        return pd.DataFrame({"bin": np.arange(RESAMPLE_BINS, dtype=np.int64), "c": c})

    hist = scored.map_batches(bin_part, batch_format="pandas").to_pandas()
    hist = hist.groupby("bin")["c"].sum().reindex(range(RESAMPLE_BINS), fill_value=0)
    # count from the TOP: cut bin = highest bin where the suffix sum ≥ k
    suffix = hist[::-1].cumsum()[::-1].to_numpy()
    # cut = HIGHEST bin whose suffix count still reaches k (suffix is
    # non-increasing, so that's the last True)
    ok = np.nonzero(suffix >= k)[0]
    cut = int(ok[-1]) if ok.size else 0
    cut_lo = float(edges[cut])
    above_k = int(suffix[cut + 1]) if cut + 1 < RESAMPLE_BINS else 0

    def split(b: pd.DataFrame, _lo=cut_lo, _hi=float(edges[min(cut + 1, RESAMPLE_BINS)])) -> pd.DataFrame:
        v = b["avg_logw"].to_numpy()
        # keep everything at or above the cut bin's lower edge; rows in
        # HIGHER bins are definitely selected, boundary-bin rows compete
        return b[v >= _lo]

    cand = scored.map_batches(split, batch_format="pandas").to_pandas()
    v = cand["avg_logw"].to_numpy()
    boundary = cand[v < float(edges[min(cut + 1, RESAMPLE_BINS)])] if cut + 1 < RESAMPLE_BINS else cand
    sure = cand[v >= float(edges[min(cut + 1, RESAMPLE_BINS)])] if cut + 1 < RESAMPLE_BINS else cand.head(0)
    need = k - len(sure)
    fill = (
        boundary.sort_values(["avg_logw", "doc_id"], ascending=[False, True]).head(max(need, 0))
        if need > 0
        else boundary.head(0)
    )
    assert len(sure) == above_k, (len(sure), above_k)  # histogram/scan agree
    top = pd.concat([sure, fill], ignore_index=True)
    return top.sort_values("doc_id").reset_index(drop=True)


def hashed_dsir_weights(sf_dir: str, hash_dim: int = 4096):
    """The paper's actual estimator: hashed token buckets instead of an
    explicit vocabulary — the model is a fixed (hash_dim, 2) count table,
    so the broadcast stays O(hash_dim) no matter the corpus (pytest-oracled;
    the bucketer is the deterministic siphash used by every vocab shuffle)."""
    import ray

    def hpartials(batch: pd.DataFrame) -> pd.DataFrame:
        doc_idx, codes, uniq, _ = _explode_tokens(batch["text"])
        if not codes.size:
            return pd.DataFrame({"h": pd.Series(dtype="int64"), "ct": pd.Series(dtype="int64"), "cr": pd.Series(dtype="int64")})
        # hash each UNIQUE token once, gather through the codes
        h = bucket_of(uniq, hash_dim)[codes]
        tok_t = (batch["lang"].to_numpy() == TARGET_LANG)[doc_idx]
        cr = np.bincount(h, minlength=hash_dim).astype(np.int64)
        ct = np.bincount(h[tok_t], minlength=hash_dim).astype(np.int64)
        return pd.DataFrame({"h": np.arange(hash_dim, dtype=np.int64), "ct": ct, "cr": cr})

    parts = (
        read(sf_dir, "documents", ["text", "lang"])
        .map_batches(hpartials, batch_format="pandas")
        .to_pandas()
    )
    m = parts.groupby("h")[["ct", "cr"]].sum().reindex(range(hash_dim), fill_value=0)
    tt, tr = int(m["ct"].sum()), int(m["cr"].sum())
    lr = np.array(
        [_log_ratio(int(a), int(b), tt, tr, hash_dim) for a, b in zip(m["ct"], m["cr"])],
        dtype=np.float64,
    )
    lr_ref = ray.put(lr)

    def score(batch: pd.DataFrame, _ref=lr_ref, _dim=hash_dim) -> pd.DataFrame:
        table = __import__("ray").get(_ref)
        n = len(batch)
        _di, codes, uniq, lens = _explode_tokens(batch["text"])
        logw = np.zeros(n, dtype=np.float64)
        if codes.size:
            h = bucket_of(uniq, _dim)[codes]
            starts = np.zeros(n, dtype=np.int64)
            np.cumsum(lens[:-1], out=starts[1:])
            nz = lens > 0
            logw[nz] = np.add.reduceat(table[h], starts[nz])
        return pd.DataFrame({"doc_id": batch["doc_id"], "logw": logw})

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(score, batch_format="pandas")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


PIPELINES: dict[str, Pipeline] = {
    "dsir_model": Pipeline(
        dsir_model,
        DSIR_MODEL_SQL,
        "DSIR importance model head: top-40 target tokens with add-one log-probs + log-ratio (bucketed vocab shuffle)",
    ),
    "dsir_weights": Pipeline(
        dsir_weights,
        None,
        "DSIR per-document importance log-weights (broadcast model, reduceat-pinned sums)",
    ),
    "dsir_resample": Pipeline(
        dsir_resample,
        None,
        "DSIR top-fraction resampling by length-normalized importance weight",
    ),
}
