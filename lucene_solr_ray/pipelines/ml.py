"""Streaming text-ML family (SURVEY §2.4/§2.9 — the solrj io.stream ML ops):

- `features_igain`  — FeaturesSelectionStream / IGainTermsQParserPlugin
  (solr/core/src/java/org/apache/solr/search/IGainTermsQParserPlugin.java,
  solr/solrj/.../io/stream/FeaturesSelectionStream.java): per-term
  information gain of a query-defined positive class, top-N features.
- `logit_train`     — TextLogitStream (solr/solrj/.../io/stream/TextLogitStream.java
  + TrainStream alias): iterative batch-gradient logistic regression over
  term-presence features, one distributed pass per iteration.
- `classify_docs`   — ClassifyStream (solr/solrj/.../io/stream/ClassifyStream.java):
  apply the trained model to every document.

Ray-Data-first shapes:
- Feature selection is the two-pass FeaturesSelectionStream design: a tiny
  totals pass (n, n_positive), then per-batch term partials through the
  bucketed token shuffle with per-bucket top-N — driver merges
  ≤ buckets×N rows, the vocabulary never materializes on the driver.
- Training materializes the NARROW feature matrix once (doc_id, y, F int8
  presence columns — orders of magnitude smaller than the text), then each
  GD iteration is one `map_batches` pass emitting a per-batch gradient
  partial (F+1 float64 sums); the driver merges partials and updates w.
  The weight vector is broadcast per iteration via `ray.put`.
- Classification is a single stateless scoring pass with the model in the
  closure.

Float-parity note: the exported IG scores are computed with SCALAR
`math.log` (libm) per distinct surviving term so they hash-match the DuckDB
`ln()` twin bit-for-bit (see CLAUDE.md); the per-bucket candidate set is
vocabulary/buckets sized, so the scalar loop is bounded.  Training
metrics are not hash-gated (iterative / float-accumulation-order dependent
⇒ rows-only check + pytest duel vs a driver-side NumPy reference).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from .common import Pipeline, bucketed, read
from .text import TOKEN_RE, _explode_tokens

POS_TERM = "spark"  # the positive class is query-defined (text:spark) —
# exactly how TextLogitStream consumes a training set (positives = docs
# matching q, negatives = the rest).
DF_MIN = 5
N_FEATURES = 8
LOGIT_ITERS = 10
LOGIT_LR = 5.0


def _entropy(x: float) -> float:
    """Binary entropy with the 0·log0 = 0 convention; scalar libm log for
    bit-parity with DuckDB ln()."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log(x) + (1.0 - x) * math.log(1.0 - x))


def _ig(df: int, pos_df: int, n: int, npos: int) -> float:
    """Information gain of term presence w.r.t. the positive class, the
    IGainTermsQParserPlugin formula: H(C) - [P(t)H(C|t) + P(!t)H(C|!t)]."""
    pc = npos / n
    pt = df / n
    pct = pos_df / df
    pcnt = (npos - pos_df) / (n - df) if n > df else 0.0
    return _entropy(pc) - (pt * _entropy(pct) + (1.0 - pt) * _entropy(pcnt))


def _doc_term_partials(batch: pd.DataFrame, pos_term: str = POS_TERM) -> pd.DataFrame:
    """Per-batch (token, df, pos_df) partials over DISTINCT (doc, token)."""
    doc_idx, codes, uniq, _counts = _explode_tokens(batch["text"])
    if not codes.size:
        return pd.DataFrame(
            {
                "token": pd.Series([], dtype=object),
                "df": pd.Series([], dtype="int64"),
                "pos_df": pd.Series([], dtype="int64"),
                "gb": pd.Series([], dtype="int64"),
            }
        )
    comp = np.unique(doc_idx * np.int64(uniq.size) + codes)
    d_doc = comp // np.int64(uniq.size)
    d_code = comp % np.int64(uniq.size)
    df = np.bincount(d_code, minlength=uniq.size)
    pos_docs = np.zeros(len(batch), dtype=bool)
    hit = np.nonzero(uniq == pos_term)[0]
    if hit.size:
        pos_docs[d_doc[d_code == hit[0]]] = True
    pos_mask = pos_docs[d_doc]
    pos_df = np.bincount(d_code[pos_mask], minlength=uniq.size)
    return pd.DataFrame(
        {
            "token": uniq,
            "df": df.astype("int64"),
            "pos_df": pos_df.astype("int64"),
        }
    )


def features_igain(
    sf_dir: str,
    pos_term: str = POS_TERM,
    n_features: int = N_FEATURES,
    df_min: int = DF_MIN,
) -> pd.DataFrame:
    """Top-N features by information gain (FeaturesSelectionStream).

    ONE text scan: the (token, df, pos_df) partials are materialized, the
    class totals derive from them without re-reading text — n_docs is the
    parquet-metadata row count (no data I/O) and n_positive is by
    definition the global df of POS_TERM (summed from its partial rows) —
    then the same materialized partials feed the bucketed IG merge."""
    ds = read(sf_dir, "documents", ["text"])
    n = ds.count()  # parquet footer row counts — metadata only
    parts = ds.map_batches(
        lambda b, _t=pos_term: _doc_term_partials(b, _t), batch_format="pandas"
    ).materialize()
    pos_rows = parts.map_batches(
        lambda b, _t=pos_term: b[b["token"] == _t], batch_format="pandas"
    ).to_pandas()
    npos = int(pos_rows["df"].sum()) if len(pos_rows) else 0

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("token", as_index=False).agg(df=("df", "sum"), pos_df=("pos_df", "sum"))
        m = m[m["df"] >= df_min]
        if not len(m):
            return m.assign(ig=pd.Series([], dtype="float64"))
        m["ig"] = np.array(
            [_ig(int(d), int(p), n, npos) for d, p in zip(m["df"], m["pos_df"])],
            dtype=np.float64,
        )
        order = np.lexsort((m["token"].to_numpy(), -m["ig"].to_numpy()))
        return m.iloc[order].head(n_features)

    out = bucketed(parts, "token", merge).to_pandas()  # ≤ buckets × n_features rows
    cols = ["token", "df", "pos_df", "ig"]
    if not all(c in out.columns for c in cols):
        out = pd.DataFrame(
            {
                "token": pd.Series([], dtype=object),
                "df": pd.Series([], dtype="int64"),
                "pos_df": pd.Series([], dtype="int64"),
                "ig": pd.Series([], dtype="float64"),
            }
        )
    order = np.lexsort((out["token"].to_numpy(), -out["ig"].to_numpy()))
    out = out.iloc[order].head(n_features).reset_index(drop=True)
    out["df"] = out["df"].astype("int64")
    out["pos_df"] = out["pos_df"].astype("int64")
    return out[cols]


FEATURES_IGAIN_SQL = f"""
WITH d AS (
  SELECT doc_id,
         list_distinct(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS toks
  FROM documents
),
tot AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         CAST(COALESCE(SUM(CASE WHEN list_contains(toks, '{POS_TERM}') THEN 1 ELSE 0 END), 0) AS BIGINT) AS npos
  FROM d
),
tc AS (
  SELECT token,
         CAST(COUNT(*) AS BIGINT) AS df,
         CAST(SUM(CASE WHEN pos THEN 1 ELSE 0 END) AS BIGINT) AS pos_df
  FROM (SELECT list_contains(toks, '{POS_TERM}') AS pos, unnest(toks) AS token FROM d)
  GROUP BY token
),
p AS (
  SELECT token, df, pos_df,
         CAST(npos AS DOUBLE) / n AS pc,
         CAST(df AS DOUBLE) / n AS pt,
         CAST(pos_df AS DOUBLE) / df AS pct,
         CASE WHEN n > df THEN CAST(npos - pos_df AS DOUBLE) / (n - df) ELSE 0.0 END AS pcnt
  FROM tc, tot
  WHERE df >= {DF_MIN}
)
SELECT token, df, pos_df,
       (CASE WHEN pc <= 0 OR pc >= 1 THEN 0.0 ELSE -(pc * ln(pc) + (1 - pc) * ln(1 - pc)) END)
       - (pt * (CASE WHEN pct <= 0 OR pct >= 1 THEN 0.0 ELSE -(pct * ln(pct) + (1 - pct) * ln(1 - pct)) END)
          + (1 - pt) * (CASE WHEN pcnt <= 0 OR pcnt >= 1 THEN 0.0 ELSE -(pcnt * ln(pcnt) + (1 - pcnt) * ln(1 - pcnt)) END)) AS ig
FROM p
ORDER BY ig DESC, token
LIMIT {N_FEATURES}
"""


# --------------------------------------------------------------------------
# TextLogitStream: batch-gradient logistic regression, one streaming pass
# per iteration over the materialized narrow feature matrix.


def _feature_matrix(sf_dir: str, features: list[str], pos_term: str = POS_TERM):
    """Materialized (doc_id, y, f0..fK int8 presence) dataset."""
    feats = list(features)

    def fm(batch: pd.DataFrame) -> pd.DataFrame:
        doc_idx, codes, uniq, _ = _explode_tokens(batch["text"])
        n = len(batch)
        out = {"doc_id": batch["doc_id"].to_numpy()}
        cols = {}
        for j, t in enumerate(feats + [pos_term]):
            pres = np.zeros(n, dtype=np.int8)
            hit = np.nonzero(uniq == t)[0]
            if hit.size and codes.size:
                pres[np.unique(doc_idx[codes == hit[0]])] = 1
            cols[t] = pres
        for j, t in enumerate(feats):
            out[f"f{j}"] = cols[t]
        out["y"] = cols[pos_term]
        return pd.DataFrame(out)

    return (
        read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(fm, batch_format="pandas")
        .materialize()
    )


def _train(sf_dir: str, pos_term: str = POS_TERM) -> tuple[list[str], np.ndarray, float, int]:
    """→ (features, weights[F+1] with bias last, final_logloss, n_docs)."""
    import ray

    feats = [str(t) for t in features_igain(sf_dir, pos_term=pos_term)["token"]]
    mat = _feature_matrix(sf_dir, feats, pos_term=pos_term)
    ncols = len(feats)
    w = np.zeros(ncols + 1, dtype=np.float64)
    n_docs = mat.count()
    loss = float("nan")
    for _ in range(LOGIT_ITERS):
        ref = ray.put(w)

        def grad(batch: pd.DataFrame) -> pd.DataFrame:
            wv = ray.get(ref)
            X = np.column_stack(
                [batch[f"f{j}"].to_numpy(dtype=np.float64) for j in range(ncols)]
                + [np.ones(len(batch), dtype=np.float64)]
            )
            y = batch["y"].to_numpy(dtype=np.float64)
            z = X @ wv
            p = 1.0 / (1.0 + np.exp(-z))
            g = X.T @ (p - y)
            eps = 1e-12
            ll = -np.sum(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps))
            row = {f"g{j}": [g[j]] for j in range(ncols + 1)}
            row["ll"] = [ll]
            return pd.DataFrame(row)

        parts = mat.map_batches(grad, batch_format="pandas").to_pandas()
        g = np.array([parts[f"g{j}"].sum() for j in range(ncols + 1)])
        loss = float(parts["ll"].sum() / n_docs)
        w = w - LOGIT_LR * g / n_docs
    return feats, w, loss, n_docs


def logit_train(sf_dir: str, pos_term: str = POS_TERM) -> pd.DataFrame:
    """Final model weights per feature (TextLogitStream / TrainStream)."""
    feats, w, loss, _ = _train(sf_dir, pos_term)
    return pd.DataFrame(
        {
            "feature": feats + ["__bias__"],
            "weight": w.astype(np.float64),
            "logloss": np.full(len(feats) + 1, loss, dtype=np.float64),
        }
    )


def classify_docs(sf_dir: str, pos_term: str = POS_TERM) -> pd.DataFrame:
    """Score every document with the trained model (ClassifyStream)."""
    feats, w, _, _ = _train(sf_dir, pos_term)
    ncols = len(feats)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        doc_idx, codes, uniq, _ = _explode_tokens(batch["text"])
        n = len(batch)
        X = np.ones((n, ncols + 1), dtype=np.float64)
        for j, t in enumerate(feats):
            pres = np.zeros(n, dtype=np.float64)
            hit = np.nonzero(uniq == t)[0]
            if hit.size and codes.size:
                pres[np.unique(doc_idx[codes == hit[0]])] = 1.0
            X[:, j] = pres
        p = 1.0 / (1.0 + np.exp(-(X @ w)))
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "prob": p,
                "pred": (p > 0.5).astype("int64"),
            }
        )

    out = (
        read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(score, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


PIPELINES: dict[str, Pipeline] = {
    "features_igain": Pipeline(
        features_igain,
        FEATURES_IGAIN_SQL,
        "information-gain feature selection (FeaturesSelectionStream / IGainTermsQParserPlugin)",
    ),
    "logit_train": Pipeline(
        logit_train, None, "iterative logistic regression (TextLogitStream); pytest duel vs driver reference"
    ),
    "classify_docs": Pipeline(
        classify_docs, None, "model scoring over all docs (ClassifyStream); pytest-checked accuracy"
    ),
}
