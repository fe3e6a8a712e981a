"""Byte-Pair-Encoding tokenizer: distributed training + broadcast encode.

The training-data op every LLM pipeline runs before anything else.  Public
recipe (Sennrich et al. 2016, arXiv:1508.07909; GPT-2's released encoder):
BPE merges are learned from the WORD-FREQUENCY table, not the raw corpus —
a word's contribution to every pair count is `freq(word)`, so the corpus
collapses to (word, count) rows before any merge arithmetic happens.

Ray shape:
- Train — one streaming pass emits per-batch (word, cnt) partials keyed
  into fixed hash buckets (vocabulary never merges unbucketed — CLAUDE.md
  bucketed-shuffle rule); each merge call (whole buckets) merges exactly and
  truncates to the top-M words per bucket (the standard frequency-table
  cap: a dropped rare word perturbs pair counts by ≤ its own count, which
  cannot reorder early merges at real scale and the cap never binds at
  test scale).  The driver then runs the merge loop over the BOUNDED table
  only (≤ BPE_BUCKETS·BPE_TOP_M rows) with vectorized numpy pair counting
  — never over the corpus.
- Encode — the merge-rank table is `ray.put` ONCE; each batch amortizes
  work through a distinct-word cache (np.unique over the batch word stream
  → encode each DISTINCT word once → gather back through the inverse
  index), the word-cache trick production tokenizers use: per-batch Python
  cost is O(distinct words · word length²), not O(tokens).

Determinism: merge selection is (max pair count, then lexicographically
smallest (left, right)); within a merge step occurrences apply leftmost-
greedy (run-parity mask, vectorized).  The pytest duel re-trains with a
pure-Python reference over the same word table and asserts the merge
tables are identical, and re-encodes documents with a naive encoder and
asserts token-for-token equality.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .common import BUCKET_COL, Pipeline, bucketed, read, top_per_bucket
from .text import _tokens

BPE_BUCKETS = 64
BPE_TOP_M = 100_000  # per-bucket word-table cap (never binds at test scale)
BPE_MERGES = 200


# --------------------------------------------------------------------------
# Word-frequency table (distributed)


def _word_partials(batch: pd.DataFrame) -> pd.DataFrame:
    toks = _tokens(batch["text"])
    flat = np.concatenate(toks.to_numpy()) if len(toks) else np.array([], dtype=object)
    if not flat.size:
        return pd.DataFrame({"word": pd.Series(dtype=object), "cnt": pd.Series(dtype="int64")})
    u, c = np.unique(flat, return_counts=True)
    return pd.DataFrame({"word": u, "cnt": c.astype("int64")})


def _merge_word_bucket(g: pd.DataFrame) -> pd.DataFrame:
    m = g.groupby([BUCKET_COL, "word"], as_index=False)["cnt"].sum()
    m = top_per_bucket(m, "cnt", "word", BPE_TOP_M)
    m["cnt"] = m["cnt"].astype("int64")
    return m[["word", "cnt"]]


def word_table(sf_dir: str) -> pd.DataFrame:
    """→ bounded (word, cnt) frequency table, sorted (cnt desc, word)."""
    parts = read(sf_dir, "documents", ["text"]).map_batches(_word_partials, batch_format="pandas")
    t = bucketed(parts, "word", _merge_word_bucket, BPE_BUCKETS).to_pandas()
    if "word" not in t.columns:  # all-empty corpus loses the schema
        t = pd.DataFrame({"word": pd.Series(dtype=object), "cnt": pd.Series(dtype="int64")})
    return t.sort_values(["cnt", "word"], ascending=[False, True]).reset_index(drop=True)


# --------------------------------------------------------------------------
# Merge training over the bounded word table (driver, vectorized)


def _leftmost_nonoverlap(idx: np.ndarray) -> np.ndarray:
    """Given SORTED candidate positions, keep the leftmost-greedy
    non-overlapping subset: within each run of consecutive positions keep
    even offsets ('aaa' + pair (a,a) merges once, at the left)."""
    if not idx.size:
        return idx
    new_run = np.r_[True, np.diff(idx) > 1]
    run_id = np.cumsum(new_run) - 1
    run_start = idx[new_run][run_id]
    return idx[(idx - run_start) % 2 == 0]


def train_bpe(words: pd.DataFrame, n_merges: int = BPE_MERGES, min_count: int = 2) -> pd.DataFrame:
    """→ merge table (rank, left, right, pair_count) learned from the
    (word, cnt) table.  Flat symbol stream + word-id array; each step is
    one pandas groupby over adjacent pairs — no per-word Python loop."""
    words = words.reset_index(drop=True)
    sym_list: list[str] = []
    wid_list: list[int] = []
    for i, w in enumerate(words["word"].to_numpy()):
        sym_list.extend(w)
        wid_list.extend([i] * len(w))
    sym = np.array(sym_list, dtype=object)
    wid = np.array(wid_list, dtype=np.int64)
    wcnt = words["cnt"].to_numpy(dtype=np.int64)

    merges = []
    for rank in range(n_merges):
        if sym.size < 2:
            break
        adj = wid[:-1] == wid[1:]
        if not adj.any():
            break
        pf = pd.DataFrame(
            {
                "l": sym[:-1][adj],
                "r": sym[1:][adj],
                "w": wcnt[wid[:-1][adj]],
            }
        )
        counts = pf.groupby(["l", "r"], as_index=False)["w"].sum()
        counts = counts.sort_values(["w", "l", "r"], ascending=[False, True, True])
        best = counts.iloc[0]
        if int(best["w"]) < min_count:
            break
        l, r, pc = str(best["l"]), str(best["r"]), int(best["w"])
        merges.append((rank, l, r, pc))
        cand = np.flatnonzero(adj & (sym[:-1] == l) & (sym[1:] == r))
        cand = _leftmost_nonoverlap(cand)
        sym[cand] = l + r
        keep = np.ones(sym.size, dtype=bool)
        keep[cand + 1] = False
        sym = sym[keep]
        wid = wid[keep]
    return pd.DataFrame(merges, columns=["rank", "left", "right", "pair_count"]).astype(
        {"rank": "int64", "pair_count": "int64"}
    )


def bpe_merges(sf_dir: str) -> pd.DataFrame:
    return train_bpe(word_table(sf_dir))


# --------------------------------------------------------------------------
# Encode (broadcast ranks + per-batch distinct-word cache)


def _encode_word(w: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    parts = list(w)
    while len(parts) > 1:
        best_rank, best_i = None, -1
        for i in range(len(parts) - 1):
            rk = ranks.get((parts[i], parts[i + 1]))
            if rk is not None and (best_rank is None or rk < best_rank):
                best_rank, best_i = rk, i
        if best_rank is None:
            break
        parts[best_i : best_i + 2] = [parts[best_i] + parts[best_i + 1]]
    return parts


def bpe_encode_counts(sf_dir: str) -> pd.DataFrame:
    """Per-document BPE token counts: (doc_id, n_words, n_bpe_tokens)."""
    import ray

    m = bpe_merges(sf_dir)
    ranks = {(l, r): int(k) for k, l, r in zip(m["rank"], m["left"], m["right"])}
    ranks_ref = ray.put(ranks)

    def encode(batch: pd.DataFrame) -> pd.DataFrame:
        rk = ray.get(ranks_ref)  # zero-copy handle, resolved once per task
        toks = _tokens(batch["text"])
        n_words = toks.map(len).to_numpy(dtype=np.int64)
        flat = np.concatenate(toks.to_numpy()) if len(toks) else np.array([], dtype=object)
        if flat.size:
            uniq, inv = np.unique(flat, return_inverse=True)
            per_word = np.array([len(_encode_word(w, rk)) for w in uniq], dtype=np.int64)
            doc_idx = np.repeat(np.arange(len(toks), dtype=np.int64), n_words)
            n_bpe = np.bincount(doc_idx, weights=per_word[inv], minlength=len(toks)).astype(np.int64)
        else:
            n_bpe = np.zeros(len(toks), dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "n_words": n_words,
                "n_bpe_tokens": n_bpe,
            }
        )

    out = (
        read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(encode, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


PIPELINES: dict[str, Pipeline] = {
    "bpe_merges": Pipeline(
        bpe_merges,
        None,
        "BPE tokenizer training over the bucketed distributed word-frequency table; pure-Python reference duel in pytest",
    ),
    "bpe_encode_counts": Pipeline(
        bpe_encode_counts,
        None,
        "per-document BPE token counts (broadcast merge ranks + distinct-word cache); naive-encoder duel in pytest",
    ),
}
