"""Streaming text-ML ops (FeaturesSelectionStream / TextLogitStream /
ClassifyStream analogs): the iterative paths are rows-only in the driver
gate, so they get their oracles here — a driver-side full-batch NumPy
reference for the gradient-descent duel, and label accuracy for classify.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

SF = "/root/testdata/sf0.001"


def _reference_train(feats: list[str], iters: int, lr: float):
    """Full-batch GD on the driver over the same presence features."""
    from lucene_solr_ray.pipelines.ml import POS_TERM
    from lucene_solr_ray.pipelines.text import TOKEN_RE

    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    toks = docs["text"].str.lower().str.findall(TOKEN_RE).map(set)
    X = np.column_stack(
        [toks.map(lambda s, t=t: float(t in s)).to_numpy() for t in feats]
        + [np.ones(len(docs))]
    )
    y = toks.map(lambda s: float(POS_TERM in s)).to_numpy()
    w = np.zeros(X.shape[1])
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(X @ w)))
        w = w - lr * (X.T @ (p - y)) / len(y)
    return X, y, w


def test_logit_train_duel(ray_session):
    """Engine GD (per-batch gradient partials) == full-batch driver GD."""
    from lucene_solr_ray.pipelines.ml import LOGIT_ITERS, LOGIT_LR, logit_train

    out = logit_train(SF)
    feats = [f for f in out["feature"] if f != "__bias__"]
    _, _, w_ref = _reference_train(feats, LOGIT_ITERS, LOGIT_LR)
    np.testing.assert_allclose(out["weight"].to_numpy(), w_ref, rtol=1e-9, atol=1e-12)
    assert np.isfinite(out["logloss"]).all()


def test_classify_accuracy(ray_session):
    """The query-defined positive class is separable on the defining term —
    the trained model must classify it (ClassifyStream semantics)."""
    from lucene_solr_ray.pipelines.ml import POS_TERM, classify_docs
    from lucene_solr_ray.pipelines.text import TOKEN_RE

    c = classify_docs(SF).sort_values("doc_id")
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    y = (
        docs.sort_values("doc_id")["text"]
        .str.lower()
        .str.findall(TOKEN_RE)
        .map(lambda ws: int(POS_TERM in set(ws)))
        .to_numpy()
    )
    assert len(c) == len(docs)
    assert ((c["prob"] > 0.5).to_numpy().astype(int) == c["pred"].to_numpy()).all()
    assert (c["pred"].to_numpy() == y).mean() >= 0.99


def test_igain_formula_edges():
    from lucene_solr_ray.pipelines.ml import _entropy, _ig

    assert _entropy(0.0) == 0.0 and _entropy(1.0) == 0.0
    assert _entropy(0.5) == pytest.approx(math.log(2.0))
    # a term present in every doc carries no information
    assert _ig(100, 40, 100, 40) == pytest.approx(0.0)
    # a term exactly marking the positive class carries H(C)
    assert _ig(40, 40, 100, 40) == pytest.approx(_entropy(0.4))
