"""BM25 similarity — exact Lucene 8 semantics, vectorized.

Reference: lucene/core/src/java/org/apache/lucene/search/similarities/
BM25Similarity.java :: idfExplain / BM25Scorer.score.  Lucene 8 dropped the
(k1+1) numerator constant (LUCENE-8563), precomputes a 256-entry
norm→length cache `cache[b] = k1·(1−b_param+b_param·LENGTH_TABLE[b]/avgdl)`
and scores `idf · freq/(freq + cache[normByte])`.  We replicate the same
arithmetic with float64 intermediates cast to float32 at the end; the
brute-force oracle does the identical computation.
"""

from __future__ import annotations

import math

import numpy as np

from ..index.smallfloat import LENGTH_TABLE
from ..index.stats_sidecar import StatsSidecar, sidecar_path

K1 = 1.2
B = 0.75


def make_norm_cache(avgdl: float) -> np.ndarray:
    """The 256-entry norm→k cache (BM25Scorer constructor) for one field's
    avgdl — per-field norms use per-field caches."""
    if avgdl > 0:
        return K1 * (1.0 - B + B * LENGTH_TABLE.astype(np.float64) / avgdl)
    return np.full(256, K1, dtype=np.float64)


class LazyBM25Stats:
    """Global stats (the ExactStatsCache analog) WITHOUT a driver-held
    vocabulary (r2's #1 scale ceiling): query terms are resolved on demand
    by exact lookups in the memory-mapped stats sidecar of the generation's
    parquet (`index.stats_sidecar`: the same term-sorted (term, df, cf)
    rows as an uncompressed Arrow IPC file, binary-searched in place, so
    only the touched pages fault in).  Resolved terms are cached.

    Reference shape: per-query `IndexSearcher.termStatistics` /
    `collectionStatistics` resolution (SURVEY.md §3.2) instead of a
    materialized dictionary.  The vocabulary itself never lands on one
    node — prefix/fuzzy expansion and spellcheck run shard-side
    (`IndexShard.expand_node` / `terms_partial` / `spellcheck_partial`).
    """

    def __init__(self, stats_path: str, n_docs: int, avgdl: float):
        self.stats_path = stats_path
        self.N = int(n_docs)
        self.avgdl = float(avgdl)
        self.norm_cache = make_norm_cache(self.avgdl)
        self._cache: dict[str, tuple[int, int]] = {}  # term -> (df, cf)
        self.reads = 0  # resolves that looked up uncached terms (diagnostics)
        self._sidecar = StatsSidecar(sidecar_path(stats_path))

    def resolve(self, terms) -> None:
        """Look up every not-yet-cached term of a query; absent terms
        cache as (0, 0)."""
        missing = {t for t in terms if t not in self._cache}
        if not missing:
            return
        self.reads += 1
        for t in missing:
            self._cache[t] = self._sidecar.lookup(t)

    def df(self, term: str) -> int:
        self.resolve([term])
        return self._cache[term][0]

    def cf(self, term: str) -> int:
        self.resolve([term])
        return self._cache[term][1]

    def idf(self, term: str) -> float:
        return bm25_idf(self.df(term), self.N)

    def idfs(self, terms: list[str]) -> dict[str, float]:
        """Absent terms (df=0) map to 0.0: the reference has no
        TermStatistics for them, so they contribute nothing to combined
        weights (MultiPhrase/blended scoring) — and a df=0 term can never
        match, so no other path observes the difference."""
        self.resolve(terms)
        return {t: (self.idf(t) if self.df(t) > 0 else 0.0) for t in set(terms)}


def bm25_idf(df: int, n_docs: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def score_postings(
    freqs: np.ndarray, norm_bytes: np.ndarray, idf: float, norm_cache: np.ndarray
) -> np.ndarray:
    """Vectorized BM25 over a posting list → float64 scores (callers cast)."""
    f = freqs.astype(np.float64)
    return idf * f / (f + norm_cache[norm_bytes])


# Classic TF-IDF similarity (pluggable Similarity, SURVEY.md §2.11;
# lucene/core/src/java/org/apache/lucene/search/similarities/
# ClassicSimilarity.java semantics without query-time coord/queryNorm):
# contribution = sqrt(tf) · idf² · 1/sqrt(dl'), idf = 1 + ln(N/(df+1)).
_INV_SQRT_LEN: np.ndarray = 1.0 / np.sqrt(np.maximum(LENGTH_TABLE.astype(np.float64), 1.0))


def classic_idf(df: int, n_docs: int) -> float:
    import math

    return 1.0 + math.log(n_docs / (df + 1.0))


def score_postings_classic(
    freqs: np.ndarray, norm_bytes: np.ndarray, idf: float
) -> np.ndarray:
    f = freqs.astype(np.float64)
    return np.sqrt(f) * (idf * idf) * _INV_SQRT_LEN[norm_bytes]


# LMDirichlet language-model similarity (lucene/core/src/java/org/apache/
# lucene/search/similarities/LMDirichletSimilarity.java semantics over our
# byte-decoded doc length; scores floored at 0 as in the reference):
# score = max(0, ln(1 + tf/(μ·p(t|C))) + ln(μ/(dl'+μ))), μ = 2000,
# p(t|C) = cf / sumTotalTermFreq.
LM_MU = 2000.0


def score_postings_lm(freqs: np.ndarray, norm_bytes: np.ndarray, p_coll: float) -> np.ndarray:
    if p_coll <= 0:
        return np.zeros(freqs.size, dtype=np.float64)
    f = freqs.astype(np.float64)
    dl = LENGTH_TABLE[norm_bytes].astype(np.float64)
    s = np.log1p(f / (LM_MU * p_coll)) + np.log(LM_MU / (dl + LM_MU))
    return np.maximum(s, 0.0)


# DFR I(n)L2 similarity (lucene/core/src/java/org/apache/lucene/search/
# similarities/DFRSimilarity.java with BasicModelIn + AfterEffectL +
# NormalizationH2, c=1): tfn = tf·log2(1 + avgdl/dl'),
# weight = log2((N+1)/(df+0.5)), score = weight · tfn/(tfn+1).
# The 256-entry tfn factor table is built with SCALAR math.log2 (libm) so
# engine and oracle agree bit-for-bit (np.log2 can differ in the last ulp).


def make_dfr_table(avgdl: float) -> np.ndarray:
    out = np.empty(256, dtype=np.float64)
    for b in range(256):
        dl = max(float(LENGTH_TABLE[b]), 1.0)
        out[b] = math.log2(1.0 + avgdl / dl)
    return out


def dfr_weight(df: int, n_docs: int) -> float:
    return math.log2((n_docs + 1.0) / (df + 0.5))


# DFR basic-model variants on the same L (after-effect) + H2 kernel
# (DFRSimilarity.java with BasicModelIF / BasicModelIne, c=1): only the
# driver-side gain changes — IF: log2(1 + (N+1)/(F+0.5)) over the corpus
# frequency F; Ine: log2((N+1)/(ne+0.5)) with ne = N·(1 − ((N−1)/N)^F).
def dfr_if_weight(cf: int, n_docs: int) -> float:
    return math.log2(1.0 + (n_docs + 1.0) / (cf + 0.5))


def dfr_ine_weight(cf: int, n_docs: int) -> float:
    if n_docs <= 0:
        return 0.0
    ne = n_docs * (1.0 - ((n_docs - 1.0) / n_docs) ** cf)
    return math.log2((n_docs + 1.0) / (ne + 0.5))


def score_postings_dfr(
    freqs: np.ndarray, norm_bytes: np.ndarray, weight: float, tfn_table: np.ndarray
) -> np.ndarray:
    tfn = freqs.astype(np.float64) * tfn_table[norm_bytes]
    return weight * tfn / (tfn + 1.0)


# -- r4 similarity long tail (SURVEY §2.11 search/similarities/) ------------
# Each follows the DFR pattern: per-term weight computed ONCE on the driver
# from global stats (scalar libm), per-field 256-entry norm tables built
# with scalar math so engine and oracle agree bit-for-bit, vectorized
# gathers shard-side.

# LMJelinekMercer (LMJelinekMercerSimilarity.java, λ = 0.1):
# score = max(0, ln(1 + ((1−λ)·tf/dl) / (λ·p(t|C)))); weight = p(t|C).
LMJM_LAMBDA = 0.1


def score_postings_lmjm(freqs: np.ndarray, norm_bytes: np.ndarray, p_coll: float) -> np.ndarray:
    if p_coll <= 0:
        return np.zeros(freqs.size, dtype=np.float64)
    f = freqs.astype(np.float64)
    dl = np.maximum(LENGTH_TABLE[norm_bytes].astype(np.float64), 1.0)
    s = np.log1p(((1.0 - LMJM_LAMBDA) * f / dl) / (LMJM_LAMBDA * p_coll))
    return np.maximum(s, 0.0)


# IB LL/DF/H2 (IBSimilarity.java with DistributionLL + LambdaDF +
# NormalizationH2, c=1): tfn = tf·log2(1 + avgdl/dl) (the SAME H2 table
# DFR uses), λ = (df+1)/(N+1), score = −ln(λ/(tfn+λ)) = ln(1 + tfn/λ).
def ib_lambda(df: int, n_docs: int) -> float:
    return (df + 1.0) / (n_docs + 1.0)


def score_postings_ib(
    freqs: np.ndarray, norm_bytes: np.ndarray, lam: float, tfn_table: np.ndarray
) -> np.ndarray:
    if lam <= 0:
        return np.zeros(freqs.size, dtype=np.float64)
    tfn = freqs.astype(np.float64) * tfn_table[norm_bytes]
    return np.log1p(tfn / lam)


# Axiomatic F2EXP (AxiomaticF2EXP.java, s=0.5, k=0.35):
# score = ((N+1)/df)^k · tf/(tf + s + s·dl/avgdl); weight = ((N+1)/df)^k.
AXIOMATIC_S = 0.5
AXIOMATIC_K = 0.35


def axiomatic_idf(df: int, n_docs: int) -> float:
    if df <= 0:
        return 0.0
    return ((n_docs + 1.0) / df) ** AXIOMATIC_K


def make_axiomatic_table(avgdl: float) -> np.ndarray:
    """256-entry norm → s + s·dl/avgdl denominator addend (scalar-built)."""
    out = np.empty(256, dtype=np.float64)
    for b in range(256):
        dl = max(float(LENGTH_TABLE[b]), 1.0)
        out[b] = AXIOMATIC_S + AXIOMATIC_S * dl / avgdl if avgdl > 0 else AXIOMATIC_S
    return out


def score_postings_axiomatic(
    freqs: np.ndarray, norm_bytes: np.ndarray, w: float, axio_table: np.ndarray
) -> np.ndarray:
    f = freqs.astype(np.float64)
    return w * f / (f + axio_table[norm_bytes])


# BooleanSimilarity (BooleanSimilarity.java): match = query boost, length
# and tf ignored entirely.
def score_postings_bool(freqs: np.ndarray, w: float) -> np.ndarray:
    return np.full(freqs.size, w, dtype=np.float64)


# DFI (lucene/core/.../search/similarities/DFISimilarity.java + the three
# Independence measures): expected freq under independence
# e = cf·dl/sum_ttf (w = cf/sum_ttf ships as the per-term weight, integer
# cfs summed BEFORE the one division for blended weights — the lm-family
# rule); freq ≤ e scores 0; otherwise score = log2(measure(f, e) + 1).
# np.log2 is the PINNED kernel on both engine and oracle (dfi never feeds
# the driver's value-hash; duels compare engine vs oracle, same ufunc).
_LEN_F = LENGTH_TABLE.astype(np.float64)

DFI_MEASURES = {
    "dfi": lambda f, e: (f - e) * (f - e) / e,  # ChiSquared (the Solr default)
    "dfi_standardized": lambda f, e: (f - e) / np.sqrt(e),
    "dfi_saturated": lambda f, e: (f - e) / e,
}


def score_postings_dfi(
    freqs: np.ndarray, norm_bytes: np.ndarray, w: float, measure: str = "dfi"
) -> np.ndarray:
    if w <= 0:
        return np.zeros(freqs.size, dtype=np.float64)
    dl = np.maximum(_LEN_F[norm_bytes], 1.0)
    f = freqs.astype(np.float64)
    e = w * dl
    with np.errstate(divide="ignore", invalid="ignore"):
        m = DFI_MEASURES[measure](f, e)
        s = np.log2(m + 1.0)
    return np.where(f > e, s, 0.0)


def term_weight(similarity: str, df: int, cf: int, n_docs: int, sum_ttf: int) -> float:
    """The driver-side weight a term carries to every shard under
    `similarity`, from its global (df, cf) — a blended synonym passes (max
    df, summed cf).  A bm25 term with df 0 weighs 0.0 (it never matches);
    the other similarities keep their formula's value."""
    if similarity == "classic":
        return classic_idf(df, n_docs)
    if similarity in ("lm", "lmjm") or similarity.startswith("dfi"):
        return cf / sum_ttf
    if similarity == "dfr":
        return dfr_weight(df, n_docs)
    if similarity == "dfr_if":
        return dfr_if_weight(cf, n_docs)
    if similarity == "dfr_ine":
        return dfr_ine_weight(cf, n_docs)
    if similarity == "ib":
        return ib_lambda(df, n_docs)
    if similarity == "axiomatic":
        return axiomatic_idf(df, n_docs)
    if similarity == "bool":
        return 1.0
    return bm25_idf(df, n_docs) if df > 0 else 0.0


def block_upper_bound(
    max_freq: np.ndarray, min_norm: np.ndarray, idf: float, norm_cache: np.ndarray
) -> np.ndarray:
    """Per-block score upper bound from (max_freq, min_norm_byte) — the
    block-max impact bound (Lucene84ScoreSkipReader / MaxScoreCache)."""
    f = max_freq.astype(np.float64)
    return idf * f / (f + norm_cache[min_norm])
