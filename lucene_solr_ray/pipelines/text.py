"""Text-analysis pipelines over `documents` — the analyzer-adjacent operator
family plus large-scale training-data ops (token counting, quality scoring,
language id, fingerprinting, term enumeration, significant terms).

For SQL parity these use the SIMPLE token definition `[a-z0-9_]+` over
lowercased text (expressible identically in DuckDB via regexp_extract_all);
the full StandardAnalyzer chain (stopword gaps, 255-char cap) lives in
`analysis/` and is exercised by the BM25 path.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

from .common import SHUFFLE_BUCKETS, Pipeline, bucketed, merge_partials, pool, read, ts_us

TOKEN_RE = "[a-z0-9_]+"
# a small fixed stopword list shared literally with the SQL oracle
STOP = ["the", "a", "of", "to", "and", "in", "is", "it"]
STOP_SQL = "'" + "','".join(STOP) + "'"


def _tokens(texts: pd.Series) -> pd.Series:
    return texts.str.lower().str.findall(TOKEN_RE)


def _explode_tokens(texts: pd.Series, toks: pd.Series | None = None):
    """→ (doc_idx, codes, uniq, counts): the batch token stream factorized
    once — downstream per-doc reducers become bincount/np.unique passes over
    integer codes instead of Python set/sum loops per row.  Pass `toks`
    (the `_tokens` output) to skip re-running the regex tokenizer when the
    caller already has it."""
    if toks is None:
        toks = _tokens(texts)
    counts = toks.map(len).to_numpy(dtype=np.int64)
    flat = [t for ws in toks for t in ws]
    if not flat:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=object),
            counts,
        )
    codes, uniq = pd.factorize(np.asarray(flat, dtype=object))
    doc_idx = np.repeat(np.arange(len(toks), dtype=np.int64), counts)
    return doc_idx, codes.astype(np.int64), np.asarray(uniq, dtype=object), counts


# --------------------------------------------------------------------------
# §2.2 FieldLengthUpdateProcessor / token counting.


def token_count(sf_dir: str):
    def counts(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(batch["text"])
        return pd.DataFrame(
            {"doc_id": batch["doc_id"], "n_tokens": toks.map(len).astype("int64")}
        )

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(counts, batch_format="pandas")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


TOKEN_COUNT_SQL = f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS BIGINT) AS n_tokens
FROM documents ORDER BY doc_id
"""

# --------------------------------------------------------------------------
# Training-data quality scoring: token/stopword/char counts per doc
# (the reference's analysis chain exposes the same signals; quality filters
# are the large-scale pipeline use).


def quality_signals(sf_dir: str):
    stop = frozenset(STOP)

    def sig(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        doc_idx, codes, uniq, counts = _explode_tokens(batch["text"])
        stop_vocab = np.isin(uniq, list(stop))
        n_stop = np.bincount(doc_idx[stop_vocab[codes]], minlength=n) if codes.size else np.zeros(n, np.int64)
        # distinct tokens per doc: unique (doc, code) composite keys
        if codes.size:
            ud = np.unique(doc_idx * np.int64(uniq.size) + codes) // np.int64(uniq.size)
            n_uniq = np.bincount(ud, minlength=n)
        else:
            n_uniq = np.zeros(n, np.int64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": counts.astype("int64"),
                "n_stop": n_stop.astype("int64"),
                "n_chars": batch["text"].str.len().astype("int64"),
                "n_uniq": n_uniq.astype("int64"),
            }
        )

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(sig, batch_format="pandas")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


# --------------------------------------------------------------------------
# Training-data repetition signals (Gopher / RefinedWeb quality filters:
# Rae et al. 2021 §A1.1, Penedo et al. 2023): per-doc fraction of token
# occurrences claimed by the most frequent 2-gram, fraction of 3-gram
# occurrences that are duplicates, and duplicate-token fraction.  Fully
# vectorized: the batch token stream is factorized ONCE, n-grams become
# composite integer keys, per-(doc, gram) counts are one np.unique pass.


def repetition_signals(sf_dir: str):
    def rep(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        doc_idx, codes, uniq, counts = _explode_tokens(batch["text"])
        V = np.int64(max(uniq.size, 1))
        zeros_i = np.zeros(n, dtype=np.int64)
        out = {"doc_id": batch["doc_id"], "n_tokens": counts.astype("int64")}
        # duplicate-token fraction: (n - n_distinct) / n
        if codes.size:
            ud = np.unique(doc_idx * V + codes) // V
            n_uniq = np.bincount(ud, minlength=n).astype(np.int64)
        else:
            n_uniq = zeros_i
        with np.errstate(invalid="ignore", divide="ignore"):
            out["dup_tok_frac"] = np.where(counts > 0, (counts - n_uniq) / counts, 0.0)

        def gram_stats(gram_keys: np.ndarray, gram_docs: np.ndarray):
            """per-doc (max gram count, duplicate gram occurrences, total)."""
            tot = np.bincount(gram_docs, minlength=n).astype(np.int64)
            if gram_keys.size == 0:
                return zeros_i, zeros_i, tot
            # refactorize grams to a dense code space, then composite w/ doc
            g_uniq, g_codes = np.unique(gram_keys, return_inverse=True)
            G = np.int64(g_uniq.size)
            comp, cnt = np.unique(gram_docs * G + g_codes, return_counts=True)
            docs_of = comp // G
            mx = np.zeros(n, dtype=np.int64)
            np.maximum.at(mx, docs_of, cnt)
            dup = np.zeros(n, dtype=np.int64)
            np.add.at(dup, docs_of, np.where(cnt > 1, cnt, 0))
            return mx, dup, tot

        if codes.size >= 2:
            v2 = doc_idx[:-1] == doc_idx[1:]
            k2 = (codes[:-1] * V + codes[1:])[v2]
            d2 = doc_idx[:-1][v2]
        else:
            v2 = np.zeros(0, dtype=bool)
            k2 = d2 = np.empty(0, dtype=np.int64)
        max2, _, tot2 = gram_stats(k2, d2)
        with np.errstate(invalid="ignore", divide="ignore"):
            out["top2gram_frac"] = np.where(tot2 > 0, max2 / tot2, 0.0)

        if codes.size >= 3:
            v3 = v2[:-1] & v2[1:]
            # pair codes over the full stream keep 3-gram keys in range
            p_uniq, p_codes = np.unique(codes[:-1] * V + codes[1:], return_inverse=True)
            k3 = (p_codes[:-1] * V + codes[2:])[v3]
            d3 = doc_idx[:-2][v3]
        else:
            k3 = d3 = np.empty(0, dtype=np.int64)
        _, dup3, tot3 = gram_stats(k3, d3)
        with np.errstate(invalid="ignore", divide="ignore"):
            out["dup3gram_frac"] = np.where(tot3 > 0, dup3 / tot3, 0.0)
        return pd.DataFrame(out)

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(rep, batch_format="pandas")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


REPETITION_SQL = f"""
WITH d AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_RE}') AS toks FROM documents
),
b AS (
  SELECT doc_id, len(toks) AS nt, len(list_distinct(toks)) AS nd,
         [toks[i] || ' ' || toks[i+1] for i in range(1, len(toks))] AS g2,
         [toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2] for i in range(1, len(toks)-1)] AS g3
  FROM d
),
c2 AS (SELECT doc_id, g, COUNT(*) AS c FROM (SELECT doc_id, unnest(g2) AS g FROM b) GROUP BY doc_id, g),
m2 AS (SELECT doc_id, MAX(c) AS max2, SUM(c) AS tot2 FROM c2 GROUP BY doc_id),
c3 AS (SELECT doc_id, g, COUNT(*) AS c FROM (SELECT doc_id, unnest(g3) AS g FROM b) GROUP BY doc_id, g),
m3 AS (SELECT doc_id, SUM(CASE WHEN c > 1 THEN c ELSE 0 END) AS dup3, SUM(c) AS tot3 FROM c3 GROUP BY doc_id)
SELECT b.doc_id,
       CAST(nt AS BIGINT) AS n_tokens,
       CASE WHEN nt > 0 THEN (nt - nd) / CAST(nt AS DOUBLE) ELSE 0.0 END AS dup_tok_frac,
       CASE WHEN COALESCE(tot2, 0) > 0 THEN max2 / CAST(tot2 AS DOUBLE) ELSE 0.0 END AS top2gram_frac,
       CASE WHEN COALESCE(tot3, 0) > 0 THEN dup3 / CAST(tot3 AS DOUBLE) ELSE 0.0 END AS dup3gram_frac
FROM b LEFT JOIN m2 USING (doc_id) LEFT JOIN m3 USING (doc_id)
ORDER BY doc_id
"""


QUALITY_SQL = f"""
SELECT doc_id,
       CAST(len(toks) AS BIGINT) AS n_tokens,
       CAST(len(list_filter(toks, x -> x IN ({STOP_SQL}))) AS BIGINT) AS n_stop,
       CAST(length(text) AS BIGINT) AS n_chars,
       CAST(len(list_distinct(toks)) AS BIGINT) AS n_uniq
FROM (SELECT doc_id, text, regexp_extract_all(lower(text), '{TOKEN_RE}') AS toks FROM documents)
ORDER BY doc_id
"""

# --------------------------------------------------------------------------
# §2.4 language-id URP (LangDetectLanguageIdentifierUpdateProcessor):
# n-gram/stopword heuristic as an actor-pool stage (profile loaded once).


def lang_id(sf_dir: str):
    class LangId:
        def __init__(self):
            import re

            self.token = re.compile(TOKEN_RE)
            self.en_stop = frozenset(STOP)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            n = len(batch)
            doc_idx, codes, uniq, _ = _explode_tokens(batch["text"])
            stop_vocab = np.isin(uniq, list(self.en_stop))
            n_stop = (
                np.bincount(doc_idx[stop_vocab[codes]], minlength=n)
                if codes.size
                else np.zeros(n, np.int64)
            )
            pred = np.where(n_stop > 0, "en", "other")
            return pd.DataFrame({"doc_id": batch["doc_id"], "pred_lang": pred})

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        LangId, batch_format="pandas", concurrency=pool()
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


LANG_ID_SQL = f"""
SELECT doc_id,
       CASE WHEN len(list_filter(regexp_extract_all(lower(text), '{TOKEN_RE}'),
                                 x -> x IN ({STOP_SQL}))) > 0
            THEN 'en' ELSE 'other' END AS pred_lang
FROM documents ORDER BY doc_id
"""

# --------------------------------------------------------------------------
# §2.2 FingerprintFilter: sort+dedup all tokens, concat → one fingerprint.


# --------------------------------------------------------------------------
# Training-data diversity report: distinct-n / type-token ratio per corpus
# slice (the lexical-diversity side of the Gopher/RefinedWeb quality family;
# distinct-1/2/3 are the standard corpus diversity metrics).  Key domain is
# the n-gram vocabulary (unbounded) → per-batch dedup + bucketed gram
# shuffle with per-bucket distinct counts; token totals ride along as n=0
# partial rows (gram "", summed wherever they land).  Only (source, n,
# count) partials ever reach the driver.
# The shuffle ships gram STRINGS (the exact-distinct contract the SQL twin
# checks); at 100 TB swap the shuffle key to a 128-bit gram hash (same
# buckets, collision odds ≪ 1) and the strings never leave the mappers.


def distinct_ngrams(sf_dir: str):
    def gram_rows(batch: pd.DataFrame) -> pd.DataFrame:
        srcs = batch["source"].to_numpy()
        doc_idx, codes, uniq, counts = _explode_tokens(batch["text"])
        frames = []
        # n=0 rows: per-source token totals (sum-merged, not deduped)
        tot = pd.DataFrame({"source": srcs, "cnt": counts}).groupby("source", as_index=False)["cnt"].sum()
        frames.append(
            pd.DataFrame(
                {"source": tot["source"], "n": np.int64(0), "gram": "", "cnt": tot["cnt"].astype("int64")}
            )
        )
        if codes.size:
            doc_src = srcs[doc_idx]
            toks = uniq[codes]
            grams = {1: (toks, doc_src)}
            if codes.size >= 2:
                same = doc_idx[:-1] == doc_idx[1:]
                grams[2] = ((toks[:-1] + " " + toks[1:])[same], doc_src[:-1][same])
            if codes.size >= 3:
                same3 = same[:-1] & same[1:]
                grams[3] = ((toks[:-2] + " " + toks[1:-1] + " " + toks[2:])[same3], doc_src[:-2][same3])
            for n, (g, s) in grams.items():
                if g.size:
                    f = pd.DataFrame({"source": s, "n": np.int64(n), "gram": g, "cnt": np.int64(1)})
                    frames.append(f.drop_duplicates(["source", "n", "gram"]))
        return pd.concat(frames, ignore_index=True)

    def bucket_partial(g: pd.DataFrame) -> pd.DataFrame:
        tot = g[g["n"] == 0].groupby("source", as_index=False)["cnt"].sum()
        tot["n"] = np.int64(0)
        d = g[g["n"] != 0].drop_duplicates(["source", "n", "gram"])
        dc = d.groupby(["source", "n"], as_index=False).size().rename(columns={"size": "cnt"})
        return pd.concat([tot[["source", "n", "cnt"]], dc[["source", "n", "cnt"]]], ignore_index=True)

    grams = read(sf_dir, "documents", ["source", "text"]).map_batches(gram_rows, batch_format="pandas")
    parts = bucketed(grams, "gram", bucket_partial).to_pandas()
    merged = parts.groupby(["source", "n"], as_index=False)["cnt"].sum()
    wide = merged.pivot_table(index="source", columns="n", values="cnt", fill_value=0).reset_index()
    wide.columns.name = None
    out = pd.DataFrame(
        {
            "source": wide["source"],
            "n_tokens": wide.get(0, 0),
            "distinct_1": wide.get(1, 0),
            "distinct_2": wide.get(2, 0),
            "distinct_3": wide.get(3, 0),
        }
    )
    for c in ("n_tokens", "distinct_1", "distinct_2", "distinct_3"):
        out[c] = out[c].astype("int64")
    nt = out["n_tokens"].to_numpy()
    with np.errstate(invalid="ignore", divide="ignore"):
        out["ttr"] = np.where(nt > 0, out["distinct_1"].to_numpy() / nt.astype(np.float64), 0.0)
    return out.sort_values("source").reset_index(drop=True)


DISTINCT_NGRAMS_SQL = f"""
WITH d AS (
  SELECT source, regexp_extract_all(lower(text), '{TOKEN_RE}') AS toks FROM documents
),
t AS (SELECT source, SUM(len(toks)) AS n_tokens FROM d GROUP BY source),
c1 AS (SELECT source, COUNT(DISTINCT g) AS d1
       FROM (SELECT source, unnest(toks) AS g FROM d) GROUP BY source),
c2 AS (SELECT source, COUNT(DISTINCT g) AS d2
       FROM (SELECT source, unnest([toks[i] || ' ' || toks[i+1] for i in range(1, len(toks))]) AS g FROM d)
       GROUP BY source),
c3 AS (SELECT source, COUNT(DISTINCT g) AS d3
       FROM (SELECT source, unnest([toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2] for i in range(1, len(toks)-1)]) AS g FROM d)
       GROUP BY source)
SELECT t.source,
       CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(COALESCE(d1, 0) AS BIGINT) AS distinct_1,
       CAST(COALESCE(d2, 0) AS BIGINT) AS distinct_2,
       CAST(COALESCE(d3, 0) AS BIGINT) AS distinct_3,
       CASE WHEN n_tokens > 0 THEN COALESCE(d1, 0) / CAST(n_tokens AS DOUBLE) ELSE 0.0 END AS ttr
FROM t LEFT JOIN c1 USING (source) LEFT JOIN c2 USING (source) LEFT JOIN c3 USING (source)
ORDER BY source
"""


def fingerprint(sf_dir: str):
    def fp(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(batch["text"])
        fps = toks.map(lambda ws: hashlib.md5(" ".join(sorted(set(ws))).encode()).hexdigest())
        return pd.DataFrame({"doc_id": batch["doc_id"], "fp": fps})

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(fp, batch_format="pandas")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


FINGERPRINT_SQL = f"""
SELECT doc_id,
       md5(array_to_string(list_sort(list_distinct(regexp_extract_all(lower(text), '{TOKEN_RE}'))), ' ')) AS fp
FROM documents ORDER BY doc_id
"""

# --------------------------------------------------------------------------
# §2.6 TermsComponent: global term/df enumeration, top 20 by (df desc, term).


# Vocabulary-keyed merges go through `bucketed`; per-bucket TOP-K partials
# make every driver merge output-bounded — the vocabulary never
# materializes.


def terms_component(sf_dir: str):
    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        # partial df per batch: distinct (doc, token) → bincount per token
        doc_idx, codes, uniq, _ = _explode_tokens(batch["text"])
        if not codes.size:
            return pd.DataFrame({"token": pd.Series([], dtype=object), "df": pd.Series([], dtype="int64")})
        ucode = np.unique(doc_idx * np.int64(uniq.size) + codes) % np.int64(uniq.size)
        df_part = np.bincount(ucode, minlength=uniq.size)
        return pd.DataFrame({"token": uniq, "df": df_part.astype("int64")})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("token", as_index=False)["df"].sum()
        # per-bucket top-k: the global top-k is a subset of the union of
        # per-bucket top-k (each token lives in exactly one bucket)
        return m.sort_values(["df", "token"], ascending=[False, True]).head(20)

    docs = read(sf_dir, "documents", ["text"]).map_batches(explode, batch_format="pandas")
    out = bucketed(docs, "token", merge).to_pandas()  # ≤ buckets × 20 rows
    out["df"] = out["df"].astype("int64")
    return (
        out.sort_values(["df", "token"], ascending=[False, True]).head(20).reset_index(drop=True)
    )


# --------------------------------------------------------------------------
# strdist() value source, gated (ValueSourceParser `strdist`, SURVEY §2.9;
# DuckDB's levenshtein() is the exact-integer twin).  The source domain is
# BOUNDED, so per-batch value counts combine on the coordinator and the
# edit distance runs once per DISTINCT value.

STRDIST_REF = "src1"


def strdist_source(sf_dir: str):
    def counts(batch: pd.DataFrame) -> pd.DataFrame:
        return batch["source"].value_counts().rename_axis("source").reset_index(name="n")

    parts = read(sf_dir, "documents", ["source"]).map_batches(counts, batch_format="pandas")
    out = merge_partials(parts, ["source"], {"n": "sum"})

    def lev(s: str, t: str) -> int:
        prev = list(range(len(t) + 1))
        for i, ca in enumerate(s, 1):
            cur = [i] + [0] * len(t)
            for j, cb in enumerate(t, 1):
                cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            prev = cur
        return prev[-1]

    out["dist"] = [np.int64(lev(str(s), STRDIST_REF)) for s in out["source"]]
    out["n"] = out["n"].astype("int64")
    out["dist"] = out["dist"].astype("int64")
    return out[["source", "dist", "n"]].sort_values("source").reset_index(drop=True)


STRDIST_SQL = f"""
SELECT source, CAST(levenshtein(source, '{STRDIST_REF}') AS BIGINT) AS dist,
       CAST(COUNT(*) AS BIGINT) AS n
FROM documents GROUP BY source ORDER BY source
"""


TERMS_SQL = f"""
SELECT token, CAST(COUNT(*) AS BIGINT) AS df
FROM (SELECT doc_id, unnest(list_distinct(regexp_extract_all(lower(text), '{TOKEN_RE}'))) AS token
      FROM documents)
GROUP BY token ORDER BY df DESC, token LIMIT 20
"""

# --------------------------------------------------------------------------
# §2.6 SignificantTermsStream: foreground (lang='en') vs background df,
# scored by exact integer pair (fg_df, bg_df) → deterministic ratio ordering
# done on exact ints.


def significant_terms_over(ds, field: str, fg_mask, min_df: int, limit: int, n_buckets: int | None = None):
    """(token, fg_df, bg_df) for the `limit` terms of `ds[field]` most
    over-represented in the foreground, among terms with bg_df ≥ min_df.
    `fg_mask(batch)` → per-doc foreground flags (None: every doc).  df
    partials are per-doc-distinct; ranking is fg_df/bg_df desc, token asc."""

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(batch[field]).map(lambda ws: sorted(set(ws)))
        n = toks.map(len).to_numpy()
        fg = np.ones(len(batch), dtype=bool) if fg_mask is None else np.asarray(fg_mask(batch))
        flat = pd.DataFrame(
            {
                "token": np.concatenate(toks.to_numpy()) if len(toks) else np.array([], dtype=object),
                "fg": np.repeat(fg.astype(np.int64), n),
            }
        )
        return flat.groupby("token", as_index=False).agg(fg_df=("fg", "sum"), bg_df=("fg", "size"))

    def top(m: pd.DataFrame) -> pd.DataFrame:
        ratio = m["fg_df"].to_numpy() / m["bg_df"].to_numpy()
        return m.iloc[np.lexsort((m["token"].to_numpy(), -ratio))].head(limit)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("token", as_index=False).agg(fg_df=("fg_df", "sum"), bg_df=("bg_df", "sum"))
        return top(m[m["bg_df"] >= min_df])

    parts = ds.map_batches(explode, batch_format="pandas")
    out = bucketed(parts, "token", merge, n_buckets).to_pandas()  # ≤ buckets × limit rows
    out["fg_df"] = out["fg_df"].astype("int64")
    out["bg_df"] = out["bg_df"].astype("int64")
    return top(out).reset_index(drop=True)


def significant_terms(sf_dir: str):
    docs = read(sf_dir, "documents", ["text", "lang"])
    return significant_terms_over(docs, "text", lambda b: b["lang"].to_numpy() == "en", 10, 15)


SIGNIFICANT_SQL = f"""
SELECT token, fg_df, bg_df FROM (
  SELECT token,
         CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS BIGINT) AS fg_df,
         CAST(COUNT(*) AS BIGINT) AS bg_df
  FROM (SELECT lang, unnest(list_distinct(regexp_extract_all(lower(text), '{TOKEN_RE}'))) AS token
        FROM documents)
  GROUP BY token
) WHERE bg_df >= 10
ORDER BY fg_df * 1.0 / bg_df DESC, token LIMIT 15
"""

# --------------------------------------------------------------------------
# §2.3 TermQuery as a filter (regex word-boundary membership).


def term_filter(sf_dir: str):
    def f(batch: pd.DataFrame) -> pd.DataFrame:
        hit = batch["text"].str.lower().str.contains(r"\bspark\b", regex=True)
        return batch.loc[hit, ["doc_id"]]

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(f, batch_format="pandas")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


TERM_FILTER_SQL = r"""
SELECT doc_id FROM documents
WHERE regexp_matches(lower(text), '\bspark\b')
ORDER BY doc_id
"""

# --------------------------------------------------------------------------
# §2.9 scalar function library: regex JSON field extraction + grouped sum
# (ValueSource-style per-row computation).


def json_extract_sum(sf_dir: str):
    def ext(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch["props"].str.extract(r'"k": (\d+)')[0].astype("int64")
        g = pd.DataFrame({"event_type": batch["event_type"], "k_sum": k})
        return g.groupby("event_type", as_index=False).sum()

    out = merge_partials(
        read(sf_dir, "events", ["event_type", "props"]).map_batches(ext, batch_format="pandas"),
        ["event_type"],
        {"k_sum": "sum"},
    )
    out["k_sum"] = out["k_sum"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


JSON_EXTRACT_SQL = r"""
SELECT event_type,
       CAST(SUM(CAST(regexp_extract(props, '"k": (\d+)', 1) AS BIGINT)) AS BIGINT) AS k_sum
FROM events GROUP BY event_type ORDER BY event_type
"""


# --------------------------------------------------------------------------
# §2.2 ShingleFilter: word bigrams (contiguous positions under the simple
# tokenizer) → global top-15 by document frequency.


def shingle_bigrams(sf_dir: str):
    from ..analysis.extras import shingle_filter

    sh = shingle_filter(2)

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(batch["text"])
        grams = toks.map(lambda ws: sorted({t for t, _ in sh(list(zip(ws, range(len(ws)))))}))
        flat = pd.DataFrame(
            {"bigram": np.concatenate(grams.to_numpy()) if len(grams) else np.array([], dtype=object)}
        )
        return flat.groupby("bigram", as_index=False).size().rename(columns={"size": "df"})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("bigram", as_index=False)["df"].sum()
        return m.sort_values(["df", "bigram"], ascending=[False, True]).head(15)

    docs = read(sf_dir, "documents", ["text"]).map_batches(explode, batch_format="pandas")
    out = bucketed(docs, "bigram", merge).to_pandas()  # ≤ buckets × 15 rows
    out["df"] = out["df"].astype("int64")
    return out.sort_values(["df", "bigram"], ascending=[False, True]).head(15).reset_index(drop=True)


SHINGLE_SQL = f"""
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_RE}') AS toks FROM documents),
grams AS (
  SELECT DISTINCT doc_id, toks[i] || ' ' || toks[i + 1] AS bigram
  FROM t, unnest(range(1, len(toks))) AS r(i)
)
SELECT bigram, CAST(COUNT(*) AS BIGINT) AS df
FROM grams GROUP BY bigram ORDER BY df DESC, bigram LIMIT 15
"""


# --------------------------------------------------------------------------
# BPE-ish token counting for training-data budgeting: a GPT-style
# pre-tokenizer pattern (word runs / digit runs / punctuation runs —
# lookahead-free so Python re and DuckDB RE2 agree byte-for-byte).

BPE_RE = r"[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9\s]+"


def token_count_bpe(sf_dir: str):
    def counts(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].str.findall(BPE_RE)
        return pd.DataFrame(
            {"doc_id": batch["doc_id"], "n_bpe_tokens": toks.map(len).astype("int64")}
        )

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(counts, batch_format="pandas")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


TOKEN_BPE_SQL = f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{BPE_RE}')) AS BIGINT) AS n_bpe_tokens
FROM documents ORDER BY doc_id
"""

# --------------------------------------------------------------------------
# §2.4 suggester: prefix completion ranked by collection term frequency
# (AnalyzingSuggester semantics without the FST: top completions of a
# prefix weighted by cf).

SUGGEST_PREFIX = "s"


def _suggest_bucketed(sf_dir: str, token_filter, k: int = 8) -> pd.DataFrame:
    """Shared suggester shape: per-batch cf partials for tokens passing
    `token_filter`, bucketed shuffle, per-bucket top-k, bounded driver
    merge."""

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(batch["text"])
        flat = pd.DataFrame(
            {"token": np.concatenate(toks.to_numpy()) if len(toks) else np.array([], dtype=object)}
        )
        flat = flat[token_filter(flat["token"])]
        return flat.groupby("token", as_index=False).size().rename(columns={"size": "cf"})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("token", as_index=False)["cf"].sum()
        return m.sort_values(["cf", "token"], ascending=[False, True]).head(k)

    docs = read(sf_dir, "documents", ["text"]).map_batches(explode, batch_format="pandas")
    out = bucketed(docs, "token", merge).to_pandas()
    if "token" not in out.columns or not len(out):
        return pd.DataFrame({"token": pd.Series([], dtype=object), "cf": pd.Series([], dtype="int64")})
    out["cf"] = out["cf"].astype("int64")
    return out.sort_values(["cf", "token"], ascending=[False, True]).head(k).reset_index(drop=True)


def suggest_prefix(sf_dir: str):
    return _suggest_bucketed(sf_dir, lambda t: t.str.startswith(SUGGEST_PREFIX))


# FreeTextSuggester (lucene/suggest/src/java/org/apache/lucene/search/
# suggest/analyzing/FreeTextSuggester.java): an n-gram language model over
# the corpus predicts the NEXT token of a typed context — here the bigram
# order (the suggester's default shape is grams=2 separated contexts), with
# the unigram backoff exposed by the `onlyMorePopular`-style ranking:
# candidates ranked by P(next|ctx) ∝ count(ctx, next), ties by token.
# Shape: (ctx, next) pair counts are vocabulary-keyed → bucketed
# shuffle with per-bucket top-k partials; the gate pins one context
# literal shared with the SQL twin.

FREETEXT_CTX = "merge"
FREETEXT_K = 8


def suggest_freetext(sf_dir: str, context: str = FREETEXT_CTX, k: int = FREETEXT_K):
    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        doc_idx, codes, uniq, counts = _explode_tokens(batch["text"])
        empty = pd.DataFrame({"next": pd.Series([], dtype=object), "cnt": pd.Series([], dtype="int64")})
        if codes.size < 2:
            return empty
        hit = np.flatnonzero(uniq == context)
        if not hit.size:
            return empty
        first = codes[:-1] == hit[0]
        same_doc = doc_idx[:-1] == doc_idx[1:]
        nxt = codes[1:][first & same_doc]
        if not nxt.size:
            return empty
        ucode, cnt = np.unique(nxt, return_counts=True)
        toks = uniq[ucode]
        return pd.DataFrame({"next": toks, "cnt": cnt.astype(np.int64)})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("next", as_index=False)["cnt"].sum()
        return m.sort_values(["cnt", "next"], ascending=[False, True]).head(k)

    docs = read(sf_dir, "documents", ["text"]).map_batches(explode, batch_format="pandas")
    out = bucketed(docs, "next", merge).to_pandas()
    if "next" not in out.columns or not len(out):
        return pd.DataFrame({"next": pd.Series([], dtype=object), "cnt": pd.Series([], dtype="int64")})
    out["cnt"] = out["cnt"].astype("int64")
    return out.sort_values(["cnt", "next"], ascending=[False, True]).head(k).reset_index(drop=True)


SUGGEST_FREETEXT_SQL = f"""
WITH d AS (SELECT regexp_extract_all(lower(text), '{TOKEN_RE}') AS toks FROM documents),
pairs AS (
  SELECT unnest([toks[i+1] for i in range(1, len(toks))]) AS next, unnest([toks[i] for i in range(1, len(toks))]) AS ctx
  FROM d WHERE len(toks) >= 2
)
SELECT next, CAST(COUNT(*) AS BIGINT) AS cnt
FROM pairs WHERE ctx = '{FREETEXT_CTX}'
GROUP BY next ORDER BY cnt DESC, next LIMIT {FREETEXT_K}
"""


SUGGEST_SQL = f"""
SELECT token, CAST(COUNT(*) AS BIGINT) AS cf
FROM (SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS token FROM documents)
WHERE token LIKE '{SUGGEST_PREFIX}%'
GROUP BY token ORDER BY cf DESC, token LIMIT 8
"""


# --------------------------------------------------------------------------
# Infix suggester (lucene/suggest/src/java/org/apache/lucene/search/suggest/
# analyzing/AnalyzingInfixSuggester.java): substring completion over the
# term dictionary ranked by cf.

SUGGEST_INFIX = "oin"


def suggest_infix(sf_dir: str):
    return _suggest_bucketed(sf_dir, lambda t: t.str.contains(SUGGEST_INFIX, regex=False))


SUGGEST_INFIX_SQL = f"""
SELECT token, CAST(COUNT(*) AS BIGINT) AS cf
FROM (SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS token FROM documents)
WHERE token LIKE '%{SUGGEST_INFIX}%'
GROUP BY token ORDER BY cf DESC, token LIMIT 8
"""


# --------------------------------------------------------------------------
# Persisted suggester artifact (AnalyzingSuggester.build() analog): the two
# gates below serve lookups from the reusable on-disk structure built by
# `index/suggest.py` — row-group-pruned reads, no per-query vocabulary scan.
# SQL twins are the same brute-force queries as the recompute-per-query
# suggesters, so the gate proves artifact lookups == full recompute.


def suggest_artifact_prefix(sf_dir: str):
    from ..index.suggest import Suggester, build_suggester

    return Suggester(build_suggester(sf_dir)).lookup(SUGGEST_PREFIX, 8)


def suggest_artifact_infix(sf_dir: str):
    from ..index.suggest import Suggester, build_suggester

    return Suggester(build_suggester(sf_dir)).lookup_infix(SUGGEST_INFIX, 8)


SUGGEST_CONTEXTS = ["en"]


def suggest_context_prefix(sf_dir: str):
    from ..index.suggest import Suggester, build_suggester

    return Suggester(build_suggester(sf_dir)).lookup(
        SUGGEST_PREFIX, 8, contexts=SUGGEST_CONTEXTS
    )


SUGGEST_CONTEXT_SQL = f"""
SELECT token, CAST(COUNT(*) AS BIGINT) AS cf
FROM (SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS token
      FROM documents WHERE lang IN ('{"','".join(SUGGEST_CONTEXTS)}'))
WHERE token LIKE '{SUGGEST_PREFIX}%'
GROUP BY token ORDER BY cf DESC, token LIMIT 8
"""


SUGGEST_FUZZY = "sot"  # one edit inside the prefix of e.g. "sort"
SUGGEST_FUZZY_EDITS = 1


def suggest_artifact_freetext(sf_dir: str):
    from ..index.suggest import Suggester, build_suggester

    return Suggester(build_suggester(sf_dir)).lookup_freetext(FREETEXT_CTX, FREETEXT_K)


def suggest_artifact_fuzzy(sf_dir: str):
    from ..index.suggest import Suggester, build_suggester

    return Suggester(build_suggester(sf_dir)).lookup_fuzzy(
        SUGGEST_FUZZY, 8, max_edits=SUGGEST_FUZZY_EDITS
    )


def _fuzzy_windows_sql() -> str:
    L = len(SUGGEST_FUZZY)
    alts = ", ".join(
        f"levenshtein(substr(token, 1, {w}), '{SUGGEST_FUZZY}')"
        for w in range(max(1, L - SUGGEST_FUZZY_EDITS), L + SUGGEST_FUZZY_EDITS + 1)
    )
    return f"least({alts}) <= {SUGGEST_FUZZY_EDITS}"


SUGGEST_FUZZY_SQL = f"""
SELECT token, CAST(COUNT(*) AS BIGINT) AS cf
FROM (SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS token FROM documents)
WHERE token LIKE '{SUGGEST_FUZZY[0]}%' AND {_fuzzy_windows_sql()}
GROUP BY token ORDER BY cf DESC, token LIMIT 8
"""

# --------------------------------------------------------------------------
# Spellcheck (solr/core/.../handler/component/SpellCheckComponent.java over
# DirectSpellChecker): dictionary terms within edit distance ≤ 2 of a
# misspelled word, ranked (distance asc, df desc, term asc).  df is
# collected distributed; the distance scan runs over the (vocab-sized)
# dictionary on the driver — at larger vocabularies DirectSpellChecker
# prefilters by length bands the same way.

SPELL_WORD = "mrege"  # not in the corpus; 2 edits from "merge"


def spellcheck_suggest(sf_dir: str):
    from ..search.query import _levenshtein_leq

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        doc_idx, codes, uniq, _ = _explode_tokens(batch["text"])
        if not codes.size:
            return pd.DataFrame({"term": pd.Series([], dtype=object), "df": pd.Series([], dtype="int64")})
        ucode = np.unique(doc_idx * np.int64(uniq.size) + codes) % np.int64(uniq.size)
        df_part = np.bincount(ucode, minlength=uniq.size)
        # DirectSpellChecker length-band prefilter: only terms within the
        # edit budget of the query's length can be candidates
        lens = np.char.str_len(uniq.astype(str))
        keep = np.abs(lens - len(SPELL_WORD)) <= 2
        return pd.DataFrame({"term": uniq[keep], "df": df_part[keep].astype("int64")})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        # bucket-local distance scan over the bucket's slice of the
        # vocabulary — the dictionary never assembles on one node
        m = g.groupby("term", as_index=False)["df"].sum()
        rows = []
        for term, df in zip(m["term"], m["df"]):
            for d in (1, 2):
                if _levenshtein_leq(SPELL_WORD, str(term), d):
                    rows.append((str(term), np.int64(d), np.int64(df)))
                    break
        out = pd.DataFrame(rows, columns=["term", "distance", "df"])
        for c in ("distance", "df"):  # stable block schema incl. empty groups
            out[c] = out[c].astype("int64")
        return out.sort_values(["distance", "df", "term"], ascending=[True, False, True]).head(5)

    docs = read(sf_dir, "documents", ["text"]).map_batches(explode, batch_format="pandas")
    out = bucketed(docs, "term", merge).to_pandas()  # ≤ buckets × 5 rows
    if not len(out):
        return pd.DataFrame(
            {
                "term": pd.Series([], dtype=object),
                "distance": pd.Series([], dtype="int64"),
                "df": pd.Series([], dtype="int64"),
            }
        )
    out = out.sort_values(["distance", "df", "term"], ascending=[True, False, True]).head(5)
    for c in ("distance", "df"):
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


SPELLCHECK_SQL = f"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS t FROM documents
),
d AS (SELECT t AS term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df FROM toks GROUP BY t)
SELECT term, CAST(levenshtein(term, '{SPELL_WORD}') AS BIGINT) AS distance, df
FROM d WHERE levenshtein(term, '{SPELL_WORD}') BETWEEN 1 AND 2
ORDER BY distance, df DESC, term LIMIT 5
"""

# --------------------------------------------------------------------------
# Highlighting (solr/core/.../handler/component/HighlightComponent): snippet
# = ±3-token window around the first match, identical extraction both sides.

_HL_TERM = "spark"
_HL_RE = rf"(?:[a-z0-9_]+ ){{0,3}}{_HL_TERM}(?: [a-z0-9_]+){{0,3}}"


def highlight(sf_dir: str):
    def hl(batch: pd.DataFrame) -> pd.DataFrame:
        snip = batch["text"].str.lower().str.extract(f"({_HL_RE})", expand=False)
        out = pd.DataFrame({"doc_id": batch["doc_id"], "snippet": snip})
        return out[out["snippet"].notna()]

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(hl, batch_format="pandas")
    df = out.to_pandas()
    if "doc_id" not in df.columns:
        df = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"), "snippet": pd.Series([], dtype=object)})
    return df.sort_values("doc_id").reset_index(drop=True)


HIGHLIGHT_SQL = f"""
SELECT doc_id, regexp_extract(lower(text), '{_HL_RE}') AS snippet
FROM documents
WHERE regexp_matches(lower(text), '{_HL_RE}')
ORDER BY doc_id
"""

# --------------------------------------------------------------------------
# MoreLikeThis term selection (lucene/queries/src/java/org/apache/lucene/
# queries/mlt/MoreLikeThis.java): a doc's most interesting terms by
# tf·idf over the collection.


MLT_DOC = 0
MLT_TOP = 5


def mlt_terms(sf_dir: str):
    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        doc_idx, codes, uniq, _ = _explode_tokens(batch["text"])
        if not codes.size:
            return pd.DataFrame(
                {
                    "token": pd.Series([], dtype=object),
                    "df": pd.Series([], dtype="int64"),
                    "tf_doc": pd.Series([], dtype="int64"),
                }
            )
        ucode = np.unique(doc_idx * np.int64(uniq.size) + codes) % np.int64(uniq.size)
        df_part = np.bincount(ucode, minlength=uniq.size)
        is_mlt = batch["doc_id"].to_numpy()[doc_idx] == MLT_DOC
        tf_part = np.bincount(codes[is_mlt], minlength=uniq.size)
        present = df_part > 0
        return pd.DataFrame(
            {
                "token": uniq[present],
                "df": df_part[present].astype("int64"),
                "tf_doc": tf_part[present].astype("int64"),
            }
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("token", as_index=False).agg(df=("df", "sum"), tf=("tf_doc", "sum"))
        # only the MLT doc's own terms survive → output bounded by ONE
        # document's vocabulary, not the collection's
        return m[m["tf"] > 0]

    docs = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(explode, batch_format="pandas")
    agg = bucketed(docs, "token", merge).to_pandas().copy()
    n_docs = int(pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"]).shape[0])
    import math

    # math.log (libm), not np.log (SIMD): DuckDB's ln is libm and the two
    # can differ in the last ulp, which breaks exact value parity
    agg["score"] = [
        tf * math.log(n_docs / df)
        for tf, df in zip(agg["tf"].to_numpy().tolist(), agg["df"].to_numpy().tolist())
    ]
    agg["df"] = agg["df"].astype("int64")
    agg["tf"] = agg["tf"].astype("int64")
    out = agg.iloc[np.lexsort((agg["token"].to_numpy(), -agg["score"].to_numpy()))].head(MLT_TOP)
    return out[["token", "tf", "df", "score"]].reset_index(drop=True)


MLT_SQL = f"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS t FROM documents
),
dfs AS (SELECT t, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df FROM toks GROUP BY t),
tfs AS (SELECT t, CAST(COUNT(*) AS BIGINT) AS tf FROM toks WHERE doc_id = {MLT_DOC} GROUP BY t),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_docs FROM documents)
SELECT tfs.t AS token, tfs.tf, dfs.df,
       CAST(tfs.tf AS DOUBLE) * ln(CAST(n_docs AS DOUBLE) / CAST(dfs.df AS DOUBLE)) AS score
FROM tfs JOIN dfs ON dfs.t = tfs.t CROSS JOIN n
ORDER BY score DESC, token LIMIT {MLT_TOP}
"""


# --------------------------------------------------------------------------
# Intervals over raw text (lucene/queries/.../intervals/): ordered two-term
# greedy windows (for each occurrence of A, the first following B) with a
# max-width filter — the positions machinery gated against a SQL twin.

IV_A, IV_B = "fast", "merge"
IV_WIDTH = 6


def intervals_ordered_pairs(sf_dir: str):
    """Per doc: count of ordered (A … B) windows with width ≤ IV_WIDTH and
    the minimum qualifying width — vectorized greedy chain (search/
    intervals.chain_spans semantics for two terms), no per-doc loops."""
    from ..search.intervals import chain_spans

    def find(batch: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "n_windows": pd.Series([], dtype="int64"),
                "min_width": pd.Series([], dtype="int64"),
            }
        )
        doc_idx, codes, uniq, counts = _explode_tokens(batch["text"])
        if not codes.size:
            return empty
        offs = np.zeros(len(batch), dtype=np.int64)
        np.cumsum(counts[:-1], out=offs[1:])
        pos = np.arange(codes.size, dtype=np.int64) - np.repeat(offs, counts)
        children = []
        for t in (IV_A, IV_B):
            w = np.flatnonzero(uniq == t)
            if not w.size:
                return empty
            m = codes == w[0]
            children.append((doc_idx[m], pos[m], pos[m]))
        idoc, s, e = chain_spans(children, minimal=False)
        if not idoc.size:
            return empty
        width = e - s + 1
        ok = width <= IV_WIDTH
        if not ok.any():
            return empty
        n = np.bincount(idoc[ok], minlength=len(batch))
        mw = np.full(len(batch), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(mw, idoc[ok], width[ok])
        hit = np.flatnonzero(n > 0)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy()[hit],
                "n_windows": n[hit].astype("int64"),
                "min_width": mw[hit].astype("int64"),
            }
        )

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(find, batch_format="pandas")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


INTERVALS_SQL = f"""
WITH d AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_RE}') AS arr FROM documents
),
toks AS (SELECT doc_id, unnest(arr) AS t, unnest(range(len(arr))) AS pos FROM d),
pairs AS (
  SELECT a.doc_id, a.pos AS pa, MIN(b.pos) AS pb
  FROM (SELECT doc_id, pos FROM toks WHERE t = '{IV_A}') a
  JOIN (SELECT doc_id, pos FROM toks WHERE t = '{IV_B}') b
    ON b.doc_id = a.doc_id AND b.pos > a.pos
  GROUP BY a.doc_id, a.pos
)
SELECT doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_windows,
       CAST(MIN(pb - pa + 1) AS BIGINT) AS min_width
FROM pairs WHERE pb - pa + 1 <= {IV_WIDTH}
GROUP BY doc_id ORDER BY doc_id
"""


# --------------------------------------------------------------------------
# Multi-word synonym injection (SynonymGraphFilter) as an actor-pool stage:
# per doc the injected-token count equals the matched-phrase occurrences —
# gated against a SQL adjacency twin.  Linear rules (ONE single-token-output
# rule whose input phrase cannot overlap itself) are matched with vectorized
# adjacency masks over the flat factorized token stream — the text_tagger
# kernel — so the hot path never replays a per-doc Python token loop (r4
# verdict weak #2 closed).  Rules with genuine posLength branching
# (multi-token outputs, several rules, self-overlapping inputs) fall back to
# the real sequential graph filter, compiled once per actor.

SYN_IN = ("fast", "merge")
SYN_OUT = "fastmerge"


def _linear_synonym_rule(rules) -> tuple[tuple[str, ...], str] | None:
    """→ (input_phrase, output_token) when greedy longest-match counting
    reduces to adjacency-mask counting: exactly one rule, one single-token
    output, and no proper suffix of the input is also its prefix (a KMP
    border would let greedy consumption diverge from raw adjacency)."""
    if len(rules) != 1:
        return None
    (inp, outs), = rules.items()
    if len(outs) != 1 or len(outs[0]) != 1:
        return None
    k = len(inp)
    for b in range(1, k):
        if inp[k - b :] == inp[:b]:
            return None
    return inp, outs[0][0]


class SynonymPhraseMatcher:
    """Actor-pool stage counting injected synonym tokens per doc.

    `rules` is the synonym_graph_filter rule map; `count_token` the output
    token whose injections are counted (n_syn).  __init__ runs once per
    actor; __call__ once per batch."""

    def __init__(self, rules=None, count_token: str = SYN_OUT):
        import re

        from ..analysis.graph import synonym_graph_filter

        self.rules = rules if rules is not None else {SYN_IN: [(SYN_OUT,)]}
        self.count_token = count_token
        self.f = synonym_graph_filter(self.rules)
        self.token = re.compile(TOKEN_RE)
        self.linear = _linear_synonym_rule(self.rules)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        # vectorized candidate prefilter: a doc lacking every word of some
        # rule input can't match that rule
        texts = batch["text"].str.lower()
        cand = None
        for inp in self.rules:
            c = texts.str.contains(inp[0], regex=False)
            for w in inp[1:]:
                c &= texts.str.contains(w, regex=False)
            cand = c if cand is None else (cand | c)
        empty = pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"), "n_syn": pd.Series([], dtype="int64")}
        )
        if cand is None or not cand.any():
            return empty
        sub_ids = batch["doc_id"].to_numpy()[cand.to_numpy()]
        if self.linear is not None:
            words, _out = self.linear
            doc_idx, codes, uniq, _ = _explode_tokens(texts[cand])
            k = len(words)
            n = codes.size - k + 1
            if n <= 0:
                return empty
            wid = []
            for w in words:
                j = np.flatnonzero(uniq == w)
                if not j.size:
                    return empty
                wid.append(j[0])
            m = (codes[:n] == wid[0]) & (doc_idx[:n] == doc_idx[k - 1 :])
            for j in range(1, k):
                m &= codes[j : n + j] == wid[j]
            cnt = np.bincount(doc_idx[:n][m], minlength=len(sub_ids))
            hit = np.flatnonzero(cnt > 0)
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(sub_ids[hit], dtype="int64"),
                    "n_syn": pd.Series(cnt[hit], dtype="int64"),
                }
            )
        # sequential graph filter: only for posLength-branching rules
        tok_lists = texts[cand].str.findall(self.token)  # vectorized tokenize
        ids, ns = [], []
        for doc_id, toks in zip(sub_ids, tok_lists):
            stream = [(t, i, 1) for i, t in enumerate(toks)]
            # count INJECTED tokens only — a pre-existing token equal to the
            # synonym output (e.g. a literal "fastmerge") is not a match
            instream = set(stream)
            n = sum(
                1 for g in self.f(stream) if g[0] == self.count_token and g not in instream
            )
            if n:
                ids.append(doc_id)
                ns.append(n)
        return pd.DataFrame(
            {"doc_id": pd.Series(ids, dtype="int64"), "n_syn": pd.Series(ns, dtype="int64")}
        )


def synonym_phrase_match(sf_dir: str):
    # task pool, not actors: the matcher's state (one compiled regex + the
    # rule map) is tiny and ships once in the task closure — actor spin-up
    # dominated this stage (r4 monitor lesson; 2.25 s -> 0.6-1.0 s warm)
    fn = SynonymPhraseMatcher()
    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(fn, batch_format="pandas")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


SYNONYM_SQL = f"""
WITH d AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_RE}') AS arr FROM documents
),
toks AS (SELECT doc_id, unnest(arr) AS t, unnest(range(len(arr))) AS pos FROM d)
SELECT a.doc_id, CAST(COUNT(*) AS BIGINT) AS n_syn
FROM (SELECT doc_id, pos FROM toks WHERE t = '{SYN_IN[0]}') a
JOIN (SELECT doc_id, pos FROM toks WHERE t = '{SYN_IN[1]}') b
  ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
GROUP BY a.doc_id ORDER BY a.doc_id
"""


# --------------------------------------------------------------------------
# §2.2 PhoneticFilter (lucene/analysis/phonetic): soundex code groups over
# the corpus vocabulary.  Same bucketed shuffle as terms_component —
# per-bucket merges resolve distinct tokens
# and encode them (scalar soundex per DISTINCT token, bucket-bounded), and
# the driver merge is soundex-code-space bounded (≤26·7³ codes).  The SQL
# twin reimplements the identical soundex algorithm with translate + chained
# regexp_replace folds (RE2 has no backrefs, hence one fold per digit).

PHONETIC_MIN_TOKENS = 1
PHONETIC_TOP = 20


def phonetic_match(sf_dir: str):
    from ..analysis.phonetic import soundex

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        _, codes, uniq, _ = _explode_tokens(batch["text"])
        empty = pd.DataFrame({"token": pd.Series([], dtype=object), "occ": pd.Series([], dtype="int64")})
        if not codes.size:
            return empty
        occ = np.bincount(codes, minlength=uniq.size).astype("int64")
        alpha = pd.Series(uniq, dtype=object).str.fullmatch("[a-z]+").to_numpy(dtype=bool)
        if not alpha.any():
            return empty
        uniq, occ = uniq[alpha], occ[alpha]
        return pd.DataFrame({"token": uniq, "occ": occ})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("token", as_index=False)["occ"].sum()
        m["code"] = [soundex(t) for t in m["token"]]
        return m.groupby("code", as_index=False).agg(n_tokens=("token", "size"), occ=("occ", "sum"))

    docs = read(sf_dir, "documents", ["text"]).map_batches(partials, batch_format="pandas")
    out = bucketed(docs, "token", merge).to_pandas()  # ≤ buckets × codes-per-bucket, code-space bounded
    if not len(out):
        return pd.DataFrame(
            {
                "code": pd.Series([], dtype=object),
                "n_tokens": pd.Series([], dtype="int64"),
                "occ": pd.Series([], dtype="int64"),
            }
        )
    m = out.groupby("code", as_index=False).agg(n_tokens=("n_tokens", "sum"), occ=("occ", "sum"))
    m = m[m["n_tokens"] >= PHONETIC_MIN_TOKENS]
    m["n_tokens"] = m["n_tokens"].astype("int64")
    m["occ"] = m["occ"].astype("int64")
    return (
        m.sort_values(["n_tokens", "occ", "code"], ascending=[False, False, True])
        .head(PHONETIC_TOP)
        .reset_index(drop=True)[["code", "n_tokens", "occ"]]
    )


# --------------------------------------------------------------------------
# CartesianProductStream (solr/solrj/.../io/stream/CartesianProductStream.java):
# explode a multivalue field into one tuple per value.  The multivalue field
# here is the token list of `text`; a deterministic doc_id sample bounds the
# output (the stream itself is unbounded — it streams; the gate needs a
# finite table).  Pure per-batch flatMap: no shuffle, no driver state.

CARTESIAN_MOD = 50  # sample: doc_id % 50 == 0


def cartesian_product(sf_dir: str):
    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        sel = batch[batch["doc_id"] % CARTESIAN_MOD == 0]
        if not len(sel):
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"), "token": pd.Series([], dtype=object)}
            )
        toks = _tokens(sel["text"])
        counts = toks.map(len).to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": np.repeat(sel["doc_id"].to_numpy(np.int64), counts),
                "token": np.asarray([t for ws in toks for t in ws], dtype=object),
            }
        )

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(explode, batch_format="pandas")
    return out.to_pandas().sort_values(["doc_id", "token"]).reset_index(drop=True)


CARTESIAN_SQL = f"""
SELECT doc_id, unnest(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS token
FROM documents WHERE doc_id % {CARTESIAN_MOD} = 0
ORDER BY doc_id, token
"""


_SOUNDEX_FOLD_SQL = "replace(d, '9', '')"
for _dig in "0123456":
    _SOUNDEX_FOLD_SQL = f"regexp_replace({_SOUNDEX_FOLD_SQL}, '{_dig}+', '{_dig}', 'g')"

PHONETIC_SQL = f"""
WITH toks AS (
  SELECT token FROM (
    SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS token FROM documents
  ) WHERE regexp_matches(token, '^[a-z]+$')
),
enc AS (
  SELECT token, upper(token) AS u,
         translate(upper(token), 'ABCDEFGHIJKLMNOPQRSTUVWXYZ',
                   '01230129022455012623019202') AS d
  FROM toks
),
folded AS (
  SELECT token, u, substr(d, 1, 1) AS first_code, {_SOUNDEX_FOLD_SQL} AS coll
  FROM enc
),
codes AS (
  SELECT token,
         substr(u, 1, 1) ||
         substr(replace(CASE WHEN first_code = '9' THEN coll
                             ELSE substr(coll, 2) END, '0', '') || '000', 1, 3) AS code
  FROM folded
)
SELECT code,
       CAST(COUNT(DISTINCT token) AS BIGINT) AS n_tokens,
       CAST(COUNT(*) AS BIGINT) AS occ
FROM codes
GROUP BY code
HAVING COUNT(DISTINCT token) >= {PHONETIC_MIN_TOKENS}
ORDER BY n_tokens DESC, occ DESC, code
LIMIT {PHONETIC_TOP}
"""


# --------------------------------------------------------------------------
# Sequence packing (training-data prep: concatenate documents in docID
# order and cut fixed token-budget sequences — the straddle variant of the
# packing GPT/T5-style data loaders run before training): seq_id =
# exclusive-cumulative-tokens // BUDGET, offset = the doc's start inside
# its sequence.  The exclusive scan is DISTRIBUTED (r3 verdict weak #2:
# the old version pulled every per-doc count to the driver): per-range-
# bucket token totals are the only thing the driver scans (≤ nbuckets
# rows), base offsets are broadcast back, and each bucket computes its
# local cumsum inside a bounded-key groupby — the classic two-level
# exclusive-scan (partition sums → scan of partition totals → local scan),
# same shape as the docID base+rank assignment in index/build.py.

PACK_BUDGET = 2048

# instrumentation for the scale-shape pytest: how many metadata rows the
# driver actually touched in the last pack_offsets call.
last_pack_stats: dict = {}


def pack_offsets(counts_ds, budget: int, nbuckets: int = SHUFFLE_BUCKETS):
    """Append seq_id/offset to a Dataset of (doc_id, n_tokens [, extra
    cols]) WITHOUT materializing O(corpus) metadata on the driver.

    1. one partial-max pass → doc_id range → bucket width
    2. per-batch per-range-bucket token sums → driver exclusive-scans the
       ≤ nbuckets bucket totals, broadcasts base offsets via ray.put
    3. groupby(range bucket).map_groups: sort by doc_id, local exclusive
       cumsum + broadcast base → seq_id/offset

    Range buckets (doc_id // width) are contiguous, so the concatenation
    of per-bucket scans IS the global doc_id-ordered scan — integer-exact,
    identical to a single np.cumsum.  Driver traffic is O(nbuckets), not
    O(docs)."""
    import ray

    cds = counts_ds.materialize()  # metadata-sized; passed over 3×

    def batch_max(b: pd.DataFrame) -> pd.DataFrame:
        vals = [b["doc_id"].max()] if len(b) else []
        return pd.DataFrame({"m": np.asarray(vals, dtype=np.int64)})

    mx_df = cds.map_batches(batch_max, batch_format="pandas").to_pandas()
    if not len(mx_df):
        # all-empty blocks: Ray's to_pandas drops the block schema (the
        # recurring gotcha) — rebuild the projection from Dataset.schema()
        # so callers' column selections still resolve
        try:
            names = list(cds.schema().names)
        except Exception:
            names = []
        if not names:
            names = ["doc_id", "n_tokens"]
        empty = pd.DataFrame(
            {
                c: pd.Series([], dtype="int64" if c in ("doc_id", "n_tokens") else object)
                for c in names
            }
        )
        empty["seq_id"] = np.empty(0, np.int64)
        empty["offset"] = np.empty(0, np.int64)
        return ray.data.from_pandas(empty)
    mx = int(mx_df["m"].max())
    width = max(1, (mx + nbuckets) // nbuckets)

    def bucket_partials(b: pd.DataFrame) -> pd.DataFrame:
        rb = b["doc_id"].to_numpy(np.int64) // width
        return (
            pd.DataFrame({"rb": rb, "n": b["n_tokens"].to_numpy(np.int64)})
            .groupby("rb", as_index=False)["n"]
            .sum()
        )

    tot = (
        cds.map_batches(bucket_partials, batch_format="pandas")
        .to_pandas()
        .groupby("rb", as_index=False)["n"]
        .sum()
    )
    base = np.zeros(mx // width + 1, dtype=np.int64)
    base[tot["rb"].to_numpy(np.int64)] = tot["n"].to_numpy(np.int64)
    base = np.concatenate([[0], np.cumsum(base[:-1])])  # exclusive scan of bucket totals
    base_ref = ray.put(base)
    last_pack_stats.clear()
    last_pack_stats.update({"driver_rows": int(len(tot)), "n_buckets": int(len(base))})

    def add_rb(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["rb"] = b["doc_id"].to_numpy(np.int64) // width
        return b

    def local_scan(g: pd.DataFrame, _ref=base_ref) -> pd.DataFrame:
        g = g.sort_values("doc_id").reset_index(drop=True)
        n = g["n_tokens"].to_numpy(np.int64)
        excl = np.zeros(len(n), dtype=np.int64)
        if len(n) > 1:
            excl[1:] = np.cumsum(n[:-1])
        excl += ray.get(_ref)[int(g["rb"].iloc[0])]
        g = g.drop(columns=["rb"])
        g["seq_id"] = excl // budget
        g["offset"] = excl % budget
        return g

    return (
        cds.map_batches(add_rb, batch_format="pandas")
        .groupby("rb")
        .map_groups(local_scan, batch_format="pandas")
    )


def token_count_ds(sf_dir: str):
    def counts(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(batch["text"])
        return pd.DataFrame(
            {"doc_id": batch["doc_id"], "n_tokens": toks.map(len).astype("int64")}
        )

    return read(sf_dir, "documents", ["doc_id", "text"]).map_batches(counts, batch_format="pandas")


def sequence_pack(sf_dir: str):
    packed = pack_offsets(token_count_ds(sf_dir), PACK_BUDGET)
    return (
        packed.to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)[["doc_id", "n_tokens", "seq_id", "offset"]]
    )


# CASTs on seq_id/offset: DuckDB's windowed SUM(BIGINT) is HUGEINT and the
# division inherits it, surfacing as DOUBLE in the result frame — the r3
# driver's dtype-sensitive value-hash flagged exactly that (values were
# element-wise identical).
SEQUENCE_PACK_SQL = f"""
WITH t AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS BIGINT) AS n_tokens
  FROM documents
),
s AS (
  SELECT doc_id, n_tokens,
         COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS excl
  FROM t
)
SELECT doc_id, n_tokens,
       CAST(excl // {PACK_BUDGET} AS BIGINT) AS seq_id,
       CAST(excl % {PACK_BUDGET} AS BIGINT) AS "offset"
FROM s ORDER BY doc_id
"""


# --------------------------------------------------------------------------
# Corpus-composition report (the domain/source mixing table every
# pretraining run publishes — e.g. the Pile/Gopher/LLaMA data tables:
# per-source document and token counts, share of corpus, mean doc length,
# language breakdown entropy).  Pure combiner partials per (source, lang)
# — the report domain is bounded, so the driver merge is tiny; shares and
# the mean derive from exact integer sums with the same scalar formulas
# as the twin.


def domain_mix_report(sf_dir: str):
    def part(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(batch["text"])
        n_tok = toks.map(len).to_numpy(np.int64)
        g = pd.DataFrame(
            {
                # NULL-bucket parity (the drill/jw twin rule): missing
                # source/lang rows become a sentinel bucket on BOTH sides —
                # pandas groupby drops NaN keys and the twin's GROUP BY
                # keeps NULLs, so raw NULLs would both lose the bucket and
                # shift every token_share
                "source": batch["source"].fillna("__missing__"),
                "lang": batch["lang"].fillna("__missing__"),
                "docs": 1,
                "tokens": n_tok,
            }
        )
        return g.groupby(["source", "lang"], as_index=False).sum()

    g = merge_partials(
        read(sf_dir, "documents", ["source", "lang", "text"]).map_batches(
            part, batch_format="pandas"
        ),
        ["source", "lang"],
        {"docs": "sum", "tokens": "sum"},
    )
    total_tokens = int(g["tokens"].sum())
    g["docs"] = g["docs"].astype("int64")
    g["tokens"] = g["tokens"].astype("int64")
    g["token_share"] = g["tokens"].astype("float64") / float(total_tokens)
    g["mean_doc_tokens"] = g["tokens"].astype("float64") / g["docs"].astype("float64")
    return g.sort_values(["source", "lang"]).reset_index(drop=True)


DOMAIN_MIX_SQL = f"""
WITH d AS (
  SELECT COALESCE(source, '__missing__') AS source,
         COALESCE(lang, '__missing__') AS lang,
         CAST(len(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS BIGINT) AS n
  FROM documents
),
g AS (
  SELECT source, lang, CAST(COUNT(*) AS BIGINT) AS docs, CAST(SUM(n) AS BIGINT) AS tokens
  FROM d GROUP BY 1, 2
),
tot AS (SELECT CAST(SUM(tokens) AS BIGINT) AS total FROM g)
SELECT source, lang, docs, tokens,
       CAST(tokens AS DOUBLE) / CAST(total AS DOUBLE) AS token_share,
       CAST(tokens AS DOUBLE) / CAST(docs AS DOUBLE) AS mean_doc_tokens
FROM g CROSS JOIN tot ORDER BY source, lang
"""


# --------------------------------------------------------------------------
# Mixture-rate planning (the DoReMi/Pile-style data-mixing step made
# deterministic): given a TARGET language mixture (uniform here), compute
# the per-language keep rates that achieve the exact mixture on the
# largest possible corpus — water-filling: the binding language keeps rate
# 1.0, every other language downsamples to its quota.  Pure arithmetic on
# bounded per-lang token totals → strict SQL twin.


def mixture_rates(sf_dir: str):
    def part(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(batch["text"])
        g = pd.DataFrame(
            {"lang": batch["lang"].fillna("__missing__"), "tokens": toks.map(len).to_numpy(np.int64)}
        )
        return g.groupby("lang", as_index=False).sum()

    g = merge_partials(
        read(sf_dir, "documents", ["lang", "text"]).map_batches(part, batch_format="pandas"),
        ["lang"],
        {"tokens": "sum"},
    )
    g["tokens"] = g["tokens"].astype("int64")
    n_langs = len(g)
    share = 1.0 / n_langs  # uniform target mixture
    # largest total T* with exact shares: min over langs of tokens/share
    t_star = (g["tokens"].astype("float64") / share).min()
    g["share"] = share
    g["quota"] = share * t_star
    g["rate"] = (share * t_star) / g["tokens"].astype("float64")
    return g[["lang", "tokens", "share", "quota", "rate"]].sort_values("lang").reset_index(drop=True)


MIXTURE_RATES_SQL = f"""
WITH d AS (
  SELECT COALESCE(lang, '__missing__') AS lang,
         CAST(len(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS BIGINT) AS n
  FROM documents
),
g AS (SELECT lang, CAST(SUM(n) AS BIGINT) AS tokens FROM d GROUP BY lang),
p AS (
  SELECT lang, tokens, 1.0 / (SELECT COUNT(*) FROM g) AS share FROM g
),
t AS (SELECT MIN(CAST(tokens AS DOUBLE) / share) AS t_star FROM p)
SELECT lang, tokens, share,
       share * t_star AS quota,
       (share * t_star) / CAST(tokens AS DOUBLE) AS rate
FROM p CROSS JOIN t ORDER BY lang
"""


# --------------------------------------------------------------------------
# Exact-substring duplicate spans (Lee et al. 2022 "Deduplicating Training
# Data Makes Language Models Better", the ExactSubstr pass): token windows
# of SUBSTR_W that occur MORE THAN ONCE anywhere in the corpus (cross-doc
# or within-doc) are flagged, and per doc the flagged window starts merge
# into maximal spans (windows overlap-merge when starts are ≤ W apart).
#
# Shape: phase 1 finds the duplicated gram keys with the fixed-bucket
# vocabulary shuffle (per-batch per-key partial counts, per-bucket sums,
# ≥2 survivors only) — the dup-key set is OUTPUT-bounded (only repeated
# content) and broadcast via ray.put, exactly like decontaminate's
# benchmark set; at a scale where it stops fitting, the documented upgrade
# is a key-bucketed semi-join of phase 2 against the survivor Dataset.
# Phase 2 re-streams the corpus once: per-batch membership test + a
# vectorized gaps-and-islands merge.  Grams are uint64 FNV fingerprints
# end to end — no gram strings (the SQL twin builds real strings; the
# hashed representation is collision-equivalent at 2⁻⁶⁴, the
# decontaminate precedent).

SUBSTR_W = 20


def _doc_grams_pos(texts: pd.Series, width: int):
    """→ (uint64 gram keys, doc index, 0-based start pos within doc) for
    every width-token window — the positional variant of `_doc_grams`."""
    doc_idx, codes, uniq, counts = _explode_tokens(texts)
    if codes.size < width:
        e = np.empty(0, dtype=np.uint64)
        return e, np.empty(0, np.int64), np.empty(0, np.int64)
    flat = pd.util.hash_array(uniq.astype(object))[codes]
    valid = doc_idx[: -(width - 1)] == doc_idx[width - 1 :]
    grams = flat[: -(width - 1)].copy()
    for j in range(1, width):
        part = flat[j:] if j == width - 1 else flat[j : -(width - 1 - j)]
        grams = grams * _FNV_PRIME + part
    offsets = np.zeros(len(counts), dtype=np.int64)
    if len(counts) > 1:
        offsets[1:] = counts.cumsum()[:-1]
    pos = np.arange(codes.size, dtype=np.int64) - np.repeat(offsets, counts)
    return grams[valid], doc_idx[: -(width - 1)][valid], pos[: -(width - 1)][valid]


def substring_dup_spans(sf_dir: str, width: int = SUBSTR_W):
    import ray

    ds = read(sf_dir, "documents", ["doc_id", "text"])

    # phase 1: duplicated gram keys (corpus-wide count ≥ 2)
    def key_partials(batch: pd.DataFrame) -> pd.DataFrame:
        grams, _, _ = _doc_grams_pos(batch["text"], width)
        uniq, cnt = np.unique(grams, return_counts=True)
        return pd.DataFrame({"key": uniq, "n": cnt.astype(np.int64)})

    def dup_only(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("key", as_index=False)["n"].sum()
        return m[m["n"] >= 2][["key"]]

    dup_keys = bucketed(ds.map_batches(key_partials, batch_format="pandas"), "key", dup_only).to_pandas()
    dups = np.sort(dup_keys["key"].to_numpy(np.uint64)) if len(dup_keys) else np.empty(0, np.uint64)
    dup_ref = ray.put(dups)

    # phase 2: one streaming pass — membership + per-doc span merge
    def spans(batch: pd.DataFrame, _ref=dup_ref) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "span_start": pd.Series([], dtype="int64"),
                "span_end": pd.Series([], dtype="int64"),
                "n_grams": pd.Series([], dtype="int64"),
            }
        )
        dset = ray.get(_ref)
        if not dset.size:
            return empty
        grams, didx, pos = _doc_grams_pos(batch["text"], width)
        hit = np.isin(grams, dset)
        if not hit.any():
            return empty
        d_h, p_h = didx[hit], pos[hit]  # already (doc, pos)-ordered
        # gaps-and-islands: a new span starts at a doc change or a gap > W
        new_span = np.ones(d_h.size, dtype=bool)
        new_span[1:] = (d_h[1:] != d_h[:-1]) | (p_h[1:] - p_h[:-1] > width)
        span_id = np.cumsum(new_span) - 1
        starts = np.flatnonzero(new_span)
        ends = np.append(starts[1:], d_h.size) - 1
        ids = batch["doc_id"].to_numpy()
        return pd.DataFrame(
            {
                "doc_id": ids[d_h[starts]],
                "span_start": p_h[starts] + 1,  # 1-based, the SQL twin's range()
                "span_end": p_h[ends] + width,  # inclusive last covered token
                "n_grams": np.bincount(span_id).astype(np.int64),
            }
        )

    out = ds.map_batches(spans, batch_format="pandas").to_pandas()
    if "doc_id" not in out.columns or not len(out):
        out = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "span_start": pd.Series([], dtype="int64"),
                "span_end": pd.Series([], dtype="int64"),
                "n_grams": pd.Series([], dtype="int64"),
            }
        )
    return out.sort_values(["doc_id", "span_start"]).reset_index(drop=True)


SUBSTR_DUP_SQL = f"""
WITH d AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_RE}') AS toks FROM documents
),
g AS (
  SELECT doc_id, unnest(
    [{{'pos': i, 'gram': array_to_string(toks[i:i+{SUBSTR_W - 1}], ' ')}}
     for i in range(1, len(toks) - {SUBSTR_W - 2})], recursive := true)
  FROM d WHERE len(toks) >= {SUBSTR_W}
),
dup AS (SELECT gram FROM g GROUP BY gram HAVING COUNT(*) >= 2),
hits AS (
  SELECT doc_id, pos,
         CASE WHEN pos - lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) <= {SUBSTR_W}
              THEN 0 ELSE 1 END AS new_span
  FROM g WHERE gram IN (SELECT gram FROM dup)
),
isl AS (
  SELECT doc_id, pos,
         SUM(new_span) OVER (PARTITION BY doc_id ORDER BY pos) AS span_id
  FROM hits
)
SELECT doc_id,
       CAST(MIN(pos) AS BIGINT) AS span_start,
       CAST(MAX(pos) + {SUBSTR_W} - 1 AS BIGINT) AS span_end,
       CAST(COUNT(*) AS BIGINT) AS n_grams
FROM isl GROUP BY doc_id, span_id
ORDER BY doc_id, span_start
"""


# --------------------------------------------------------------------------
# Benchmark decontamination (training-data pipeline op — the n-gram-overlap
# test-set filter of GPT-3 App. C / Gopher / The Pile): documents sharing a
# W-token n-gram with any "benchmark" document are flagged.  The benchmark
# membership rule (doc_id % DECON_MOD == 0) is a literal shared with the SQL
# twin; real deployments pass the held-out set in its place.
#
# Shape: the benchmark gram set is collected DISTRIBUTED (per-batch distinct
# grams, driver union — bounded by the benchmark's size, which is the small
# side by definition: test sets are MBs against a 100 TB corpus), broadcast
# once via ray.put, and the corpus streams through one vectorized scan; no
# shuffle anywhere.

DECON_MOD = 97  # doc_id % MOD == 0 ⇒ benchmark member
DECON_W = 5  # n-gram width


_FNV_PRIME = np.uint64(1099511628211)


def _doc_grams(texts: pd.Series, toks: pd.Series | None = None):
    """→ (uint64 gram fingerprints, doc index per gram): each token string
    is hashed ONCE per batch (`pd.util.hash_array` — deterministic across
    processes), then W-gram fingerprints are a vectorized polynomial roll
    over the flat hash stream (wrapping uint64).  No gram strings are ever
    built — this is the hashed-n-gram representation real decontamination
    pipelines use (Lee et al. 2022); a cross-set collision needs ~2⁶⁴
    grams, far beyond any corpus."""
    doc_idx, codes, uniq, counts = _explode_tokens(texts, toks)
    n = len(texts)
    if codes.size < DECON_W:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64), n
    flat = pd.util.hash_array(uniq.astype(object))[codes]
    valid = doc_idx[: -(DECON_W - 1)] == doc_idx[DECON_W - 1 :]
    grams = flat[: -(DECON_W - 1)].copy()
    for j in range(1, DECON_W):
        part = flat[j:] if j == DECON_W - 1 else flat[j : -(DECON_W - 1 - j)]
        grams = grams * _FNV_PRIME + part
    return grams[valid], doc_idx[: -(DECON_W - 1)][valid], n


def decontaminate(sf_dir: str):
    import ray

    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def bench_grams(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["doc_id"] % DECON_MOD == 0]
        g, _, _ = _doc_grams(b["text"])
        return pd.DataFrame({"g": np.unique(g)})

    bench = np.unique(
        ds.map_batches(bench_grams, batch_format="pandas").to_pandas()["g"].to_numpy()
    )
    bench_ref = ray.put(np.sort(bench))

    def scan(batch: pd.DataFrame, _ref=bench_ref) -> pd.DataFrame:
        bset = ray.get(_ref)  # zero-copy plasma read per batch, no cache
        out = batch[batch["doc_id"] % DECON_MOD != 0]
        grams, didx, n = _doc_grams(out["text"])
        n_overlap = np.zeros(len(out), dtype=np.int64)
        if grams.size:
            codes, uniq = pd.factorize(grams)
            # distinct (doc, gram) pairs so repeats inside a doc count once
            comp = np.unique(didx * np.int64(len(uniq)) + codes)
            d_of, c_of = comp // len(uniq), comp % len(uniq)
            hit_uniq = np.isin(uniq, bset)
            np.add.at(n_overlap, d_of[hit_uniq[c_of]], 1)
        return pd.DataFrame(
            {
                "doc_id": out["doc_id"].to_numpy(),
                "n_overlap": n_overlap,
                "contaminated": n_overlap > 0,
            }
        )

    res = ds.map_batches(scan, batch_format="pandas").to_pandas()
    return res.sort_values("doc_id").reset_index(drop=True)


DECON_SQL = f"""
WITH d AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_RE}') AS toks FROM documents
),
g AS (
  SELECT doc_id,
         [array_to_string(toks[i:i+{DECON_W - 1}], ' ') for i in range(1, len(toks) - {DECON_W - 2})] AS grams
  FROM d
),
bench AS (
  SELECT DISTINCT unnest(grams) AS bg FROM g WHERE doc_id % {DECON_MOD} = 0
),
corpus AS (
  SELECT doc_id, unnest(list_distinct(grams)) AS cg FROM g WHERE doc_id % {DECON_MOD} != 0
),
hits AS (
  SELECT doc_id, COUNT(*) AS n FROM corpus JOIN bench ON cg = bg GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(hits.n, 0) AS n_overlap,
       COALESCE(hits.n, 0) > 0 AS contaminated
FROM d LEFT JOIN hits USING (doc_id)
WHERE d.doc_id % {DECON_MOD} != 0
ORDER BY d.doc_id
"""


# --------------------------------------------------------------------------
# Text Tagger (solr/core/src/java/org/apache/solr/handler/tagger/
# TaggerRequestHandler.java — the SolrTextTagger): a DICTIONARY of phrases
# is matched against every document; each hit reports the tag, its
# occurrence count and the first match position (1-based token offset).
# overlaps=ALL semantics (every dictionary entry reports independently —
# the handler's LONGEST_DOMINANT_RIGHT mode is a post-filter over these).
# The dictionary is tiny by definition (entity lists), the corpus is the
# 100 TB side: matching is one vectorized pass per batch over the shared
# flat token stream — per-tag adjacency masks, no per-document loop.

TAGGER_DICT = ["big data", "fast key order", "hash join", "sort merge", "window"]


def text_tagger(sf_dir: str):
    compiled = [(tag, tag.split()) for tag in TAGGER_DICT]

    def tag_batch(batch: pd.DataFrame) -> pd.DataFrame:
        doc_idx, codes, uniq, counts = _explode_tokens(batch["text"])
        n = len(batch)
        code_of = {t: i for i, t in enumerate(uniq)}
        offsets = np.zeros(len(counts), dtype=np.int64)
        if len(counts) > 1:
            offsets[1:] = counts.cumsum()[:-1]
        pos = np.arange(codes.size, dtype=np.int64) - np.repeat(offsets, counts)
        ids = batch["doc_id"].to_numpy()
        rows = []
        for tag, words in compiled:
            if any(w not in code_of for w in words):
                continue
            w = len(words)
            mask = codes[: codes.size - w + 1] == code_of[words[0]]
            for j in range(1, w):
                mask &= codes[j : codes.size - w + 1 + j] == code_of[words[j]]
            if w > 1:
                mask &= doc_idx[: codes.size - w + 1] == doc_idx[w - 1 :]
            if not mask.any():
                continue
            d = doc_idx[: codes.size - w + 1][mask]
            p = pos[: codes.size - w + 1][mask]
            cnt = np.bincount(d, minlength=n)
            first = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(first, d, p)
            hit = np.flatnonzero(cnt)
            rows.append(
                pd.DataFrame(
                    {
                        "doc_id": ids[hit],
                        "tag": tag,
                        "cnt": cnt[hit].astype("int64"),
                        "first_pos": first[hit] + 1,  # 1-based, = list_position
                    }
                )
            )
        if not rows:
            return pd.DataFrame(
                {
                    "doc_id": np.empty(0, np.int64),
                    "tag": pd.array([], dtype=object),
                    "cnt": np.empty(0, np.int64),
                    "first_pos": np.empty(0, np.int64),
                }
            )
        return pd.concat(rows, ignore_index=True)

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        tag_batch, batch_format="pandas"
    )
    return out.to_pandas().sort_values(["doc_id", "tag"]).reset_index(drop=True)


def _tagger_sql() -> str:
    parts = []
    for tag in TAGGER_DICT:
        w = len(tag.split())
        if w == 1:
            grams = "t"
        else:
            grams = f"[array_to_string(t[i:i+{w - 1}], ' ') for i in range(1, len(t) - {w - 2})]"
        parts.append(
            "SELECT * FROM (\n"
            f"  SELECT doc_id, '{tag}' AS tag,\n"
            f"         CAST(len(list_filter({grams}, x -> x = '{tag}')) AS BIGINT) AS cnt,\n"
            f"         CAST(list_position({grams}, '{tag}') AS BIGINT) AS first_pos\n"
            "  FROM d\n"
            ") WHERE cnt > 0"
        )
    body = "\nUNION ALL\n".join(parts)
    return (
        "WITH d AS (SELECT doc_id, regexp_extract_all(lower(text), "
        f"'{TOKEN_RE}') AS t FROM documents)\n"
        f"SELECT * FROM ({body}) ORDER BY doc_id, tag"
    )


TAGGER_SQL = _tagger_sql()


# --------------------------------------------------------------------------
# PII scrubbing (training-data pipeline op; the shape of Solr's
# RegexReplaceProcessorFactory in an update chain, solr/core/.../update/
# processor/RegexReplaceProcessorFactory.java, applied at corpus scale):
# pseudonymize identities (keyed hash), redact digit runs from free-form
# payloads, and generalize timestamps to day granularity (k-anonymity
# coarsening).  Everything is one vectorized pandas pass per batch; the
# regexes are module-level literals shared with the SQL twin.

PII_DIGIT_RUN = "[0-9]+"


def pii_scrub(sf_dir: str):
    def scrub(batch: pd.DataFrame) -> pd.DataFrame:
        props = batch["props"].astype(str)
        return pd.DataFrame(
            {
                "event_id": batch["event_id"],
                "user_token": batch["user_id"]
                .astype(str)
                .map(lambda s: hashlib.md5(s.encode()).hexdigest()[:12]),
                "day": ts_us(batch["ts"]) // 86_400_000_000,
                "props_redacted": props.str.replace(PII_DIGIT_RUN, "#", regex=True),
                "n_redactions": props.str.count(PII_DIGIT_RUN).astype("int64"),
            }
        )

    out = read(sf_dir, "events", ["event_id", "ts", "user_id", "props"]).map_batches(
        scrub, batch_format="pandas"
    )
    return out.to_pandas().sort_values("event_id").reset_index(drop=True)


PII_SCRUB_SQL = f"""
SELECT event_id,
       md5(CAST(user_id AS VARCHAR))[1:12] AS user_token,
       epoch_us(ts) // 86400000000 AS day,
       regexp_replace(props, '{PII_DIGIT_RUN}', '#', 'g') AS props_redacted,
       CAST(len(regexp_extract_all(props, '{PII_DIGIT_RUN}')) AS BIGINT) AS n_redactions
FROM events ORDER BY event_id
"""


# Typed PII pass over the documents table (the BigScience/RedPajama-v2
# "pii" signals shape: per-type regex redaction + per-type counts).  The
# synthetic fixture text carries no PII, so the pipeline injects a
# deterministic email/phone/IP per doc — making the gate non-vacuous on
# EVERY row — and the SQL twin injects the identical string.  Patterns
# are written to the RE2 ∩ Python-re common dialect: no backrefs, no
# lookaround, no \d (Python's is Unicode, RE2's is ASCII) and no \b
# (the word-char sets behind it differ the same way) — explicit [0-9]
# classes only, so engine and oracle scrub identically byte-for-byte.
# The lost boundary anchors trade a little precision (a phone-shaped
# substring inside a longer digit run is also scrubbed) for exactness —
# the right trade for a redactor.

PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IP = r"[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}"
PII_PHONE = r"[0-9]{3}-[0-9]{4}"


def pii_scrub_documents(sf_dir: str):
    def scrub(batch: pd.DataFrame) -> pd.DataFrame:
        did = batch["doc_id"].astype("int64")
        aug = (
            batch["text"].astype(str)
            + " contact user" + did.astype(str) + "@example.com"
            + " or call 555-" + (did % 10000).astype(str).str.zfill(4)
            + " from 10." + (did % 256).astype(str) + ".0.1"
        )
        # counts per type on the pre-scrub text (order-independent);
        # replacement chained email -> ip -> phone, mirrored in the twin
        clean = (
            aug.str.replace(PII_EMAIL, "<EMAIL>", regex=True)
            .str.replace(PII_IP, "<IP>", regex=True)
            .str.replace(PII_PHONE, "<PHONE>", regex=True)
        )
        return pd.DataFrame(
            {
                "doc_id": did,
                "clean": clean,
                "n_emails": aug.str.count(PII_EMAIL).astype("int64"),
                "n_phones": aug.str.count(PII_PHONE).astype("int64"),
                "n_ips": aug.str.count(PII_IP).astype("int64"),
            }
        )

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        scrub, batch_format="pandas"
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


PII_DOCS_SQL = f"""
WITH aug AS (
  SELECT doc_id,
         text || ' contact user' || CAST(doc_id AS VARCHAR) || '@example.com'
              || ' or call 555-' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
              || ' from 10.' || CAST(doc_id % 256 AS VARCHAR) || '.0.1' AS t
  FROM documents)
SELECT doc_id,
       regexp_replace(regexp_replace(regexp_replace(
           t, '{PII_EMAIL}', '<EMAIL>', 'g'),
              '{PII_IP}', '<IP>', 'g'),
              '{PII_PHONE}', '<PHONE>', 'g') AS clean,
       CAST(len(regexp_extract_all(t, '{PII_EMAIL}')) AS BIGINT) AS n_emails,
       CAST(len(regexp_extract_all(t, '{PII_PHONE}')) AS BIGINT) AS n_phones,
       CAST(len(regexp_extract_all(t, '{PII_IP}')) AS BIGINT) AS n_ips
FROM aug ORDER BY doc_id
"""


# --------------------------------------------------------------------------
# strdist(.., 'jw') value source — Jaro-Winkler, DuckDB-exact (see
# functions/scalar.jaro_winkler).  Computed once per DISTINCT value of the
# bounded `source` domain, like strdist_source.

JW_REF = "src7"


def strdist_jarowinkler(sf_dir: str):
    from ..functions.scalar import jaro_winkler

    def counts(batch: pd.DataFrame) -> pd.DataFrame:
        return batch["source"].value_counts().rename_axis("source").reset_index(name="n")

    parts = read(sf_dir, "documents", ["source"]).map_batches(counts, batch_format="pandas")
    out = merge_partials(parts, ["source"], {"n": "sum"})
    out["sim"] = out["source"].map(lambda s: jaro_winkler(str(s), JW_REF))
    out["n"] = out["n"].astype("int64")
    return out.sort_values("source").reset_index(drop=True)[["source", "sim", "n"]]


STRDIST_JW_SQL = f"""
SELECT source, jaro_winkler_similarity(source, '{JW_REF}') AS sim,
       CAST(COUNT(*) AS BIGINT) AS n
FROM documents WHERE source IS NOT NULL GROUP BY source ORDER BY source
"""


PIPELINES: dict[str, Pipeline] = {
    "strdist_jarowinkler": Pipeline(
        strdist_jarowinkler, STRDIST_JW_SQL, "strdist jw metric: Jaro-Winkler per bounded domain value (DuckDB-exact)"
    ),
    "pii_scrub": Pipeline(
        pii_scrub, PII_SCRUB_SQL, "PII scrubbing: pseudonymize ids, redact digit runs, coarsen timestamps (RegexReplaceProcessor at corpus scale)"
    ),
    "pii_scrub_documents": Pipeline(
        pii_scrub_documents,
        PII_DOCS_SQL,
        "typed PII pass over documents: email/phone/IP redaction + per-type counts "
        "(BigScience/RedPajama-v2 pii signals; deterministic injection keeps the gate non-vacuous)",
    ),
    "decontaminate": Pipeline(
        decontaminate, DECON_SQL, "benchmark decontamination: W-gram overlap vs a broadcast held-out set (GPT-3/Gopher test-set filter)"
    ),
    "domain_mix_report": Pipeline(
        domain_mix_report,
        DOMAIN_MIX_SQL,
        "corpus-composition report: per-(source, lang) docs/tokens/share/mean-length from bounded combiner partials",
    ),
    "substring_dup_spans": Pipeline(
        substring_dup_spans,
        SUBSTR_DUP_SQL,
        "exact-substring duplicate spans (Lee et al. ExactSubstr): bucketed dup-gram detection + vectorized span merge",
    ),
    "text_tagger": Pipeline(
        text_tagger, TAGGER_SQL, "dictionary phrase tagging with counts + first position (SolrTextTagger, overlaps=ALL)"
    ),
    "sequence_pack": Pipeline(
        sequence_pack, SEQUENCE_PACK_SQL, "token-budget sequence packing (training-data prep): distributed counts + metadata-only scan"
    ),
    "synonym_phrase_match": Pipeline(
        synonym_phrase_match, SYNONYM_SQL, "multi-word synonym injection (SynonymGraphFilter), actor pool"
    ),
    "intervals_ordered_pairs": Pipeline(
        intervals_ordered_pairs, INTERVALS_SQL, "ordered interval windows over positions (Intervals.ordered+maxwidth)"
    ),
    "token_count": Pipeline(token_count, TOKEN_COUNT_SQL, "per-doc token counting (FieldLength URP)"),
    "token_count_bpe": Pipeline(token_count_bpe, TOKEN_BPE_SQL, "BPE-ish pre-tokenizer counting (training-data budgeting)"),
    "highlight": Pipeline(highlight, HIGHLIGHT_SQL, "snippet extraction around matches (HighlightComponent)"),
    "mlt_terms": Pipeline(mlt_terms, MLT_SQL, "MoreLikeThis interesting-term selection (tf·idf)"),
    "suggest_prefix": Pipeline(suggest_prefix, SUGGEST_SQL, "prefix completion by cf (AnalyzingSuggester semantics)"),
    "suggest_freetext": Pipeline(
        suggest_freetext, SUGGEST_FREETEXT_SQL, "next-token prediction from a corpus bigram LM (FreeTextSuggester)"
    ),
    "suggest_infix": Pipeline(suggest_infix, SUGGEST_INFIX_SQL, "infix/substring completion by cf (AnalyzingInfixSuggester)"),
    "suggest_artifact_freetext": Pipeline(
        suggest_artifact_freetext,
        SUGGEST_FREETEXT_SQL,
        "next-token prediction from the PERSISTED bigram-LM artifact (FreeTextSuggester build+lookup)",
    ),
    "suggest_artifact_prefix": Pipeline(
        suggest_artifact_prefix, SUGGEST_SQL, "prefix lookup from the persisted suggester artifact (FST build analog)"
    ),
    "suggest_artifact_infix": Pipeline(
        suggest_artifact_infix, SUGGEST_INFIX_SQL, "infix lookup from the persisted gram index of the suggester artifact"
    ),
    "suggest_artifact_fuzzy": Pipeline(
        suggest_artifact_fuzzy, SUGGEST_FUZZY_SQL, "typo-tolerant prefix completion (FuzzySuggester: prefix within max_edits)"
    ),
    "suggest_context_prefix": Pipeline(
        suggest_context_prefix, SUGGEST_CONTEXT_SQL, "context-filtered completion (AnalyzingInfixSuggester contexts: per-(token,ctx) cf reads)"
    ),
    "spellcheck_suggest": Pipeline(spellcheck_suggest, SPELLCHECK_SQL, "did-you-mean by edit distance + df (DirectSpellChecker)"),
    "shingle_bigrams": Pipeline(shingle_bigrams, SHINGLE_SQL, "word-bigram shingles + df (ShingleFilter)"),
    "quality_signals": Pipeline(quality_signals, QUALITY_SQL, "quality scoring signals for training-data filtering"),
    "repetition_signals": Pipeline(repetition_signals, REPETITION_SQL, "Gopher/RefinedWeb repetition filters: top-2-gram / dup-3-gram / dup-token fractions per doc"),
    "distinct_ngrams": Pipeline(distinct_ngrams, DISTINCT_NGRAMS_SQL, "corpus diversity report: distinct-1/2/3 + type-token ratio per source (bucketed gram shuffle)"),
    "mixture_rates": Pipeline(mixture_rates, MIXTURE_RATES_SQL, "data-mixing rate planner: per-lang keep rates for an exact uniform token mixture (water-filling)"),
    "lang_id": Pipeline(lang_id, LANG_ID_SQL, "stopword-heuristic language id (langid URP), actor pool"),
    "fingerprint": Pipeline(fingerprint, FINGERPRINT_SQL, "document fingerprint (FingerprintFilter)"),
    "terms_component": Pipeline(terms_component, TERMS_SQL, "term/df enumeration (TermsComponent)"),
    "significant_terms": Pipeline(significant_terms, SIGNIFICANT_SQL, "fg-vs-bg term significance (SignificantTermsStream)"),
    "term_filter": Pipeline(term_filter, TERM_FILTER_SQL, "term membership filter (TermQuery as filter)"),
    "cartesian_product": Pipeline(
        cartesian_product, CARTESIAN_SQL, "multivalue-field explode (CartesianProductStream)"
    ),
    "phonetic_match": Pipeline(
        phonetic_match, PHONETIC_SQL, "soundex code groups over the vocabulary (PhoneticFilter family)"
    ),
    "strdist_source": Pipeline(
        strdist_source, STRDIST_SQL, "strdist() value source: exact edit distance per bounded domain value"
    ),
    "json_extract_sum": Pipeline(json_extract_sum, JSON_EXTRACT_SQL, "scalar function extraction (ValueSources)"),
}
