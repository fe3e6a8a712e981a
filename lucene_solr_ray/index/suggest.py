"""Persisted suggester artifact — the AnalyzingSuggester /
AnalyzingInfixSuggester build()+lookup() analog
(lucene/suggest/src/java/org/apache/lucene/search/suggest/analyzing/
AnalyzingSuggester.java builds an FST once and serves many lookups;
AnalyzingInfixSuggester.java indexes edge n-grams so infix lookups hit a
bounded posting set).  Re-expressed Ray-Data-first: ONE distributed build
pass writes a reusable on-disk structure, and every lookup is a
row-group-pruned parquet read — the vocabulary is never scanned per query
and never materialized on the driver.

Layout under <dir>:
  terms.parquet   (token, cf) sorted by token, fixed small row groups →
                  parquet min/max statistics prune a prefix range read to
                  the few groups overlapping [prefix, prefix+MAX_CHAR]
                  (the FST-arc-walk analog)
  grams.parquet   (gram, token, cf) sorted by char-3-gram: each token
                  emits its DISTINCT 3-grams; an infix lookup reads only
                  its first gram's row groups, then verifies the full
                  substring on that bounded candidate set
  manifest.json   source content fingerprint + row-group config (an
                  in-place change of the source rebuilds instead of
                  silently serving stale suggestions)

Build is a map_batches token explode (partial per-batch counts) feeding a
distributed groupby (unbounded key domain → the Ray all-to-all shuffle is
the right tool, per CLAUDE.md) + sort; the sorted output is re-assembled
into the artifact one row group at a time, so driver memory stays bounded
by a single block (same shape as index/build.py:_finalize).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

__all__ = ["build_suggester", "Suggester"]

ROW_GROUP_SIZE = 4096  # tokens / gram rows per row group (pruning granule)
GRAM_N = 3
FORMAT = 3  # artifact layout version: 2 adds contexts.parquet, 3 bigrams.parquet
CONTEXT_FIELD = "lang"  # AnalyzingInfixSuggester contexts source column
MAX_CHAR = "\U0010ffff"  # exclusive-ish upper bound for prefix range reads


def _stream_sorted(ds, out_path: Path, columns: list[str]) -> int:
    """Re-assemble a sorted Dataset into one stats-bearing parquet file,
    one row group at a time (driver holds a single block, never the
    vocabulary)."""
    writer = None
    n = 0
    try:
        for batch in ds.iter_batches(batch_size=ROW_GROUP_SIZE * 4, batch_format="pyarrow"):
            t = batch.select(columns)
            if writer is None:
                writer = pq.ParquetWriter(out_path, t.schema)
            if t.num_rows:
                writer.write_table(t, row_group_size=ROW_GROUP_SIZE)
                n += t.num_rows
    finally:
        if writer is not None:
            writer.close()
    return n


def build_suggester(sf_dir: str, out_dir: str | Path | None = None, force: bool = False) -> Path:
    """Build (or reuse) the suggester artifact for `documents.text`.

    Idempotent per source content: the manifest records a fingerprint and
    a fresh artifact is only rebuilt when the source changed or
    `force=True`."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..pipelines.common import source_fingerprint

    src = f"{sf_dir}/documents.parquet"
    d = (
        Path(out_dir)
        if out_dir is not None
        else Path(f"/tmp/lsr_suggest_{hashlib.sha1(sf_dir.encode()).hexdigest()[:10]}")
    )
    fp = source_fingerprint(src)
    man = d / "manifest.json"
    if not force and man.exists():
        try:
            m = json.loads(man.read_text())
            if m.get("source_fp") == fp and m.get("format") == FORMAT:
                return d
        except (ValueError, OSError):
            pass

    from ..pipelines.text import _tokens

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(batch["text"])
        flat = np.concatenate(toks.to_numpy()) if len(toks) else np.array([], dtype=object)
        if not flat.size:
            return pd.DataFrame({"token": pd.Series([], dtype=object), "cf": pd.Series([], dtype="int64")})
        uniq, counts = np.unique(flat, return_counts=True)
        return pd.DataFrame({"token": uniq, "cf": counts.astype("int64")})

    terms = (
        rd.read_parquet(src, columns=["text"])
        .map_batches(explode, batch_format="pandas")
        .groupby("token")
        .aggregate(Sum("cf", alias_name="cf"))
        .sort("token")
    )

    tmp = d.with_suffix(".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    n_terms = _stream_sorted(terms, tmp / "terms.parquet", ["token", "cf"])

    def to_grams(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["token"].astype(str)
        out_g, out_t, out_c = [], [], []
        for t, c in zip(toks, batch["cf"].to_numpy()):
            n = len(t)
            if n < GRAM_N:
                continue
            for g in {t[i : i + GRAM_N] for i in range(n - GRAM_N + 1)}:
                out_g.append(g)
                out_t.append(t)
                out_c.append(c)
        return pd.DataFrame({"gram": out_g, "token": out_t, "cf": np.asarray(out_c, dtype="int64")})

    grams = (
        rd.read_parquet(str(tmp / "terms.parquet"))
        .map_batches(to_grams, batch_format="pandas")
        .sort("gram")
    )
    n_grams = _stream_sorted(grams, tmp / "grams.parquet", ["gram", "token", "cf"])

    # contexts (AnalyzingInfixSuggester.lookup(..., contexts, ...)): per
    # (token, context) cf so lookups can be scoped to a context subset.
    # Composite shuffle key keeps it ONE vocabulary-sized exchange.
    # Built only when the source HAS the context column (contexts are an
    # optional suggester feature in the reference too).
    has_ctx = CONTEXT_FIELD in pq.read_schema(src).names

    def explode_ctx(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(batch["text"])
        counts = toks.map(len).to_numpy(dtype=np.int64)
        flat = np.concatenate(toks.to_numpy()) if len(toks) else np.array([], dtype=object)
        if not flat.size:
            # dtype "string" so the empty block's Arrow type stays string,
            # not null (groupby rejects mixed null/string blocks)
            return pd.DataFrame({"key": pd.Series([], dtype="string"), "cf": pd.Series([], dtype="int64")})
        ctx = np.repeat(batch[CONTEXT_FIELD].to_numpy(), counts)
        # "|" is outside the token alphabet ([a-z0-9_]) — a safe separator;
        # NB np.char.add silently strips "\x00", don't use NUL here
        keys = (pd.Series(flat, dtype=object) + "|" + pd.Series(ctx, dtype=object)).to_numpy()
        uniq, cnt = np.unique(keys, return_counts=True)
        return pd.DataFrame({"key": uniq, "cf": cnt.astype("int64")})

    # bigram LM (FreeTextSuggester, lucene/suggest/.../analyzing/
    # FreeTextSuggester.java builds an n-gram FST): per (ctx_token, next)
    # counts sorted by ctx_token — a lookup prunes to the context token's
    # row groups.  Composite "ctx|next" shuffle key, one exchange.
    def explode_bi(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(batch["text"])
        counts = toks.map(len).to_numpy(dtype=np.int64)
        flat = np.concatenate(toks.to_numpy()) if len(toks) else np.array([], dtype=object)
        if flat.size < 2:
            return pd.DataFrame({"key": pd.Series([], dtype="string"), "cf": pd.Series([], dtype="int64")})
        doc_idx = np.repeat(np.arange(len(toks), dtype=np.int64), counts)
        same = doc_idx[:-1] == doc_idx[1:]
        keys = (
            pd.Series(flat[:-1][same], dtype=object) + "|" + pd.Series(flat[1:][same], dtype=object)
        ).to_numpy()
        if not keys.size:
            return pd.DataFrame({"key": pd.Series([], dtype="string"), "cf": pd.Series([], dtype="int64")})
        uniq, cnt = np.unique(keys, return_counts=True)
        return pd.DataFrame({"key": uniq, "cf": cnt.astype("int64")})

    bigrams = (
        rd.read_parquet(src, columns=["text"])
        .map_batches(explode_bi, batch_format="pandas")
        .groupby("key")
        .aggregate(Sum("cf", alias_name="cf"))
        .sort("key")
        .map_batches(
            lambda b: pd.DataFrame(
                {
                    "ctx": b["key"].str.split("|").str[0],
                    "next": b["key"].str.split("|").str[1],
                    "cf": b["cf"].astype("int64"),
                }
            ),
            batch_format="pandas",
        )
    )
    n_bi = _stream_sorted(bigrams, tmp / "bigrams.parquet", ["ctx", "next", "cf"])

    n_ctx = 0
    if has_ctx:
        ctxs = (
            rd.read_parquet(src, columns=["text", CONTEXT_FIELD])
            .map_batches(explode_ctx, batch_format="pandas")
            .groupby("key")
            .aggregate(Sum("cf", alias_name="cf"))
            .sort("key")
            .map_batches(
                lambda b: pd.DataFrame(
                    {
                        "token": b["key"].str.split("|").str[0],
                        "ctx": b["key"].str.split("|").str[1],
                        "cf": b["cf"].astype("int64"),
                    }
                ),
                batch_format="pandas",
            )
        )
        n_ctx = _stream_sorted(ctxs, tmp / "contexts.parquet", ["token", "ctx", "cf"])

    (tmp / "manifest.json").write_text(
        json.dumps(
            {
                "source_fp": fp,
                "format": FORMAT,
                "n_terms": n_terms,
                "n_grams": n_grams,
                "n_ctx": n_ctx,
                "n_bigrams": n_bi,
                "gram_n": GRAM_N,
                "context_field": CONTEXT_FIELD if has_ctx else None,
                "row_group_size": ROW_GROUP_SIZE,
            }
        )
    )
    shutil.rmtree(d, ignore_errors=True)
    os.replace(tmp, d)
    return d


def matching_row_groups(path: str | Path, column: str, lo: str, hi: str) -> tuple[int, int]:
    """(groups whose [min,max] stats intersect [lo,hi], total groups) —
    the pruning diagnostic tests assert on."""
    f = pq.ParquetFile(path)
    hit = 0
    for i in range(f.metadata.num_row_groups):
        st = f.metadata.row_group(i).column(f.schema_arrow.get_field_index(column)).statistics
        if st is None or (st.min <= hi and st.max >= lo):
            hit += 1
    return hit, f.metadata.num_row_groups


from ..functions.scalar import levenshtein as _levenshtein  # shared kernel


class Suggester:
    """Serve lookups from a built artifact; every read is row-group-pruned."""

    def __init__(self, artifact_dir: str | Path):
        self.dir = Path(artifact_dir)
        self.manifest = json.loads((self.dir / "manifest.json").read_text())
        self.reads = 0  # pruned-read counter (tests/diagnostics)

    def lookup(self, prefix: str, k: int = 8, contexts: list[str] | None = None) -> pd.DataFrame:
        """Top-k completions of `prefix` by cf → (token, cf).  `contexts`
        scopes the counts to a context subset (AnalyzingInfixSuggester's
        contexts filter): the read switches to contexts.parquet with the
        same token row-group pruning plus a ctx membership filter, and cf
        sums over the selected contexts."""
        self.reads += 1
        rng = [("token", ">=", prefix), ("token", "<=", prefix + MAX_CHAR)]
        if contexts is None:
            t = pq.read_table(self.dir / "terms.parquet", filters=rng).to_pandas()
        else:
            if not self.manifest.get("context_field"):
                raise ValueError("suggester artifact was built without contexts")
            t = pq.read_table(
                self.dir / "contexts.parquet",
                columns=["token", "cf"],
                filters=rng + [("ctx", "in", list(contexts))],
            ).to_pandas()
            t = t.groupby("token", as_index=False)["cf"].sum()
        return (
            t.sort_values(["cf", "token"], ascending=[False, True]).head(k).reset_index(drop=True)
        )

    def lookup_blended(self, sub: str, k: int = 8, blender: str = "linear") -> pd.DataFrame:
        """BlendedInfixSuggester (lucene/suggest/src/java/org/apache/lucene/
        search/suggest/analyzing/BlendedInfixSuggester.java): infix
        suggestions over the bigram phrase table, re-weighted by WHERE the
        match sits in the suggestion — `linear`: cf × (1 − 0.10·pos),
        `reciprocal`: cf × 1/(1 + pos), position of the FIRST matching
        word.  Candidates come from the gram-pruned token lookup, then two
        `in`-pushdown reads of bigrams.parquet (ctx side = pos 0, next
        side = pos 1) — never a full-table scan.
        → (suggestion, cf, position, score), score-desc."""
        if blender not in ("linear", "reciprocal"):
            raise ValueError(blender)
        cand = self.lookup_infix(sub, k=1_000_000)["token"]
        if not len(cand):
            return pd.DataFrame(
                {
                    "suggestion": pd.Series([], dtype=object),
                    "cf": pd.Series([], dtype="int64"),
                    "position": pd.Series([], dtype="int64"),
                    "score": pd.Series([], dtype="float64"),
                }
            )
        cand_l = sorted(cand)
        self.reads += 2
        left = pq.read_table(
            self.dir / "bigrams.parquet", filters=[("ctx", "in", cand_l)]
        ).to_pandas()
        right = pq.read_table(
            self.dir / "bigrams.parquet", filters=[("next", "in", cand_l)]
        ).to_pandas()
        left["position"] = np.int64(0)
        right["position"] = np.int64(1)
        both = pd.concat([left, right], ignore_index=True)
        # a bigram matching on both sides keeps its FIRST matching position
        both = both.sort_values("position").drop_duplicates(["ctx", "next"], keep="first")
        coef = (
            1.0 - 0.10 * both["position"].to_numpy()
            if blender == "linear"
            else 1.0 / (1.0 + both["position"].to_numpy())
        )
        out = pd.DataFrame(
            {
                "suggestion": both["ctx"].astype(str) + " " + both["next"].astype(str),
                "cf": both["cf"].astype("int64"),
                "position": both["position"].astype("int64"),
                "score": both["cf"].to_numpy(np.float64) * coef,
            }
        )
        return (
            out.sort_values(["score", "suggestion"], ascending=[False, True])
            .head(k)
            .reset_index(drop=True)
        )

    def lookup_freetext(self, context: str, k: int = 8, backoff: bool = True) -> pd.DataFrame:
        """FreeTextSuggester.lookup: next-token predictions after `context`
        from the persisted bigram LM, ranked by pair count (ties by token)
        — one row-group-pruned read of the context token's slice.  With
        `backoff` (the suggester's stupid-backoff to the lower-order
        model), an UNSEEN context answers with the top unigrams by cf
        instead of nothing."""
        if self.manifest.get("format", 0) < 3:
            raise ValueError("suggester artifact was built without the bigram LM (format < 3)")
        if not self.manifest.get("n_bigrams"):
            # a valid format-3 artifact over a corpus with no 2-token docs:
            # zero bigrams is an answer, not an error
            return pd.DataFrame({"next": pd.Series([], dtype=object), "cnt": pd.Series([], dtype="int64")})
        self.reads += 1
        t = pq.read_table(
            self.dir / "bigrams.parquet",
            columns=["next", "cf"],
            filters=[("ctx", "==", context)],
        ).to_pandas()
        t = t.rename(columns={"cf": "cnt"})
        if not len(t) and backoff:
            u = pq.read_table(self.dir / "terms.parquet").to_pandas()
            u = u.rename(columns={"token": "next", "cf": "cnt"})
            t = u
        return (
            t.sort_values(["cnt", "next"], ascending=[False, True]).head(k).reset_index(drop=True)
        )

    def lookup_fuzzy(self, prefix: str, k: int = 8, max_edits: int = 1) -> pd.DataFrame:
        """FuzzySuggester (lucene/suggest/src/java/org/apache/lucene/search/
        suggest/analyzing/FuzzySuggester.java): top-k completions whose
        indexed PREFIX is within `max_edits` of the typed prefix, by cf.
        Lucene defaults mirrored: nonFuzzyPrefix=1 (first char exact — which
        is also what keeps the artifact read row-group-pruned to one
        first-char bucket), minFuzzyLength=3 (shorter inputs stay exact),
        transpositions NOT counted (plain Levenshtein, so the SQL twin's
        levenshtein() is the same function).  Alignment slack: the indexed
        prefix window ranges len(p)±max_edits, the automaton's reach."""
        if len(prefix) < 3:
            return self.lookup(prefix, k)
        self.reads += 1
        t = pq.read_table(
            self.dir / "terms.parquet",
            filters=[("token", ">=", prefix[0]), ("token", "<=", prefix[0] + MAX_CHAR)],
        ).to_pandas()
        L = len(prefix)
        windows = range(max(1, L - max_edits), L + max_edits + 1)
        keep = t["token"].map(
            lambda tok: min(_levenshtein(tok[:w], prefix) for w in windows) <= max_edits
        )
        t = t[keep]
        return (
            t.sort_values(["cf", "token"], ascending=[False, True]).head(k).reset_index(drop=True)
        )

    def lookup_infix(self, sub: str, k: int = 8, contexts: list[str] | None = None) -> pd.DataFrame:
        """Top-k tokens containing `sub` by cf → (token, cf).  Substrings
        shorter than the gram size fall back to a terms scan (documented:
        the reference's infix suggester has the same min-gram floor).
        `contexts` re-scores the gram-bounded CANDIDATE set from
        contexts.parquet — one pushdown read per lookup, filtered to the
        candidates' token range and the selected contexts."""
        self.reads += 1
        if len(sub) < self.manifest["gram_n"]:
            t = pq.read_table(self.dir / "terms.parquet").to_pandas()
        else:
            g = sub[: self.manifest["gram_n"]]
            t = pq.read_table(
                self.dir / "grams.parquet",
                columns=["token", "cf"],
                filters=[("gram", "==", g)],
            ).to_pandas()
        t = t[t["token"].str.contains(sub, regex=False)]
        if contexts is not None:
            if not self.manifest.get("context_field"):
                raise ValueError("suggester artifact was built without contexts")
            cand = sorted(t["token"].unique())
            if not cand:
                return t.head(0).reset_index(drop=True)
            c = pq.read_table(
                self.dir / "contexts.parquet",
                columns=["token", "cf"],
                filters=[
                    ("token", ">=", cand[0]),
                    ("token", "<=", cand[-1]),
                    ("ctx", "in", list(contexts)),
                ],
            ).to_pandas()
            t = c[c["token"].isin(cand)].groupby("token", as_index=False)["cf"].sum()
        return (
            t.sort_values(["cf", "token"], ascending=[False, True]).head(k).reset_index(drop=True)
        )
