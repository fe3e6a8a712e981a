"""Distributed inverted-index build: SPIMI invert → term shuffle → merge.

Ray-Data-native reimplementation of the reference's indexing path
(SURVEY.md §3.1): what `DocumentsWriterPerThread` + `DefaultIndexingChain` +
`TermsHashPerField` do per thread (analyze + in-RAM posting accumulation,
lucene/core/src/java/org/apache/lucene/index/DefaultIndexingChain.java,
TermsHashPerField.java) happens here in one Ray task per input file; the
flush+merge LSM (TieredMergePolicy/SegmentMerger) is replaced by one
explicit hash shuffle per shard in raw Ray tasks: each invert task returns
its partial postings cut into the shard's buckets (one ObjectRef each),
and one merge task per bucket does a vectorized merge+encode of that
bucket's partials from every file
(lucene/core/src/java/org/apache/lucene/index/SegmentMerger.java,
codecs/lucene84/Lucene84PostingsWriter.java).

Physical design (SURVEY.md §7.0, designed for 100 TB / multi-node):

- Input: conv-range-partitioned Parquet files of transcripts
  (conv_id, turn_idx, role, text, tool, ts).  One file = one doc-partition
  (pid).  docIDs are global int64: base(pid) + rank within the file under
  (conv_id, turn_idx) sort — bases come from Parquet footer row counts, so
  docID assignment needs NO data pass and no global sort.
- Shards: contiguous groups of pids; each shard runs its own
  read → invert → bucket by hash(term_key) → merge → write pipeline and is
  the unit of RESUME (manifest).  Query serving fans out over shards (docID
  ranges are contiguous per shard) — the SolrCloud shard model.
- Shuffle width: a shard gets one bucket per `ROWS_PER_BUCKET` input rows
  (footer row counts), capped at `N_BUCKETS` (`shard_buckets`), and writes
  one `postings-<bucket>.parquet` per non-empty bucket.  Readers and
  compaction take whatever files a shard dir holds, so shards of different
  widths mix in one index.
- Skew: hot terms (sampled df above `HOT_DF_FRAC`) get SALTED keys — the
  salt is derived from the pid's position within the shard so each salted
  run covers a contiguous, disjoint docID range (BASELINE: explicit
  salted-key skew handling).  The salt is a shuffle key of this module
  only: readers and compaction order a term's runs by `first_doc`, so the
  runs concatenate into a fully sorted posting list.
- Postings row (per term[, salt]): delta+varbyte docIDs, varbyte freqs, raw
  norm bytes, varbyte delta positions, and per-128-doc-block
  (last_doc, max_freq, min_norm) block-max metadata.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..analysis import analyze_batch, index_tokenizer, tokenize
from ..analysis.icu import tokenized_analyze_batch
from . import codec
from .manifest import Manifest
from .segments import write_segment
from .smallfloat import int_to_byte4_np
from .stats_sidecar import SCHEMA as STATS_SCHEMA, sidecar_path, write_stats_sidecar

SALT_SEP = "\x01"
N_BUCKETS = 32  # cap on a shard's reduce-side hash-shuffle width
ROWS_PER_BUCKET = 16_384  # input rows per merge task (`shard_buckets`)
N_SALTS = 4  # salted runs per hot term per shard (at most one per file)
HOT_DF_FRAC = 0.02  # sampled df fraction at which a term is salted

PARTIAL_SCHEMA = pa.schema(
    [
        ("term_key", pa.string()),
        ("bucket", pa.int32()),
        ("term", pa.string()),
        ("salt", pa.int32()),
        ("pid", pa.int32()),
        ("docs", pa.list_(pa.int64())),
        ("freqs", pa.list_(pa.int32())),
        ("norms", pa.list_(pa.int32())),
        ("positions", pa.list_(pa.int32())),
    ]
)

POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("salt", pa.int32()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("first_doc", pa.int64()),
        ("last_doc", pa.int64()),
        ("docs", pa.binary()),
        ("freqs", pa.binary()),
        ("norms", pa.binary()),
        ("positions", pa.binary()),
        ("blk_last_doc", pa.list_(pa.int64())),
        ("blk_max_freq", pa.list_(pa.int32())),
        ("blk_min_norm", pa.list_(pa.int32())),
    ]
)


@dataclass
class FileSpec:
    pid: int
    path: str
    rows: int
    base: int  # exclusive-cumsum docID base


def plan_files(input_paths: list[str]) -> list[FileSpec]:
    """Read Parquet footers → per-file row counts → docID bases.

    Files are processed in sorted-path order; with conv-range-partitioned
    input this makes global docIDs equal to the rank under
    (conv_id, turn_idx) — the BASELINE stable-ordering invariant.
    """
    specs: list[FileSpec] = []
    base = 0
    for pid, p in enumerate(sorted(input_paths)):
        rows = pq.read_metadata(p).num_rows
        specs.append(FileSpec(pid=pid, path=p, rows=rows, base=base))
        base += rows
    return specs


def sample_hot_terms(paths: list[str], sample_docs: int = 4000) -> list[str]:
    """One cheap sample pass → terms whose estimated df fraction is hot.

    Reads the first row-group of up to 4 spread-out files.  The returned set
    drives salted shuffle keys (SURVEY.md §4 skew row).
    """
    take = max(1, sample_docs // 4)
    idxs = sorted({0, len(paths) // 3, (2 * len(paths)) // 3, len(paths) - 1})
    df_counts: dict[str, int] = {}
    hot_kw: set[str] = set()
    n = 0
    for i in idxs:
        f = pq.ParquetFile(paths[i])
        names = f.schema_arrow.names
        cols = ["text"] + [k for k in KEYWORD_FIELDS if k in names]
        t = f.read_row_group(0, columns=cols)
        texts = t.column("text").to_pylist()[:take]
        for txt in texts:
            n += 1
            for term in {t for t, _ in tokenize(txt or "")}:
                df_counts[term] = df_counts.get(term, 0) + 1
        # keyword-field terms are intrinsically hot (df ~ corpus fraction)
        for k in KEYWORD_FIELDS:
            if k in names:
                for v in pc.unique(t.column(k)).to_pylist():
                    if v is not None:
                        hot_kw.add(f"{k}:{v}")
    if n == 0:
        return []
    return sorted({t for t, c in df_counts.items() if c / n >= HOT_DF_FRAC} | hot_kw)


KEYWORD_FIELDS = ("role", "tool")



def _batch_analyzer(tokenizer: str):
    """Index-side batch analyzer by name: "standard" is the vectorized
    Arrow chain; any other `analysis.index_tokenizer` chain runs per row
    (the configurable-analysis slow path, like token_filter).  The choice
    is part of the config fingerprint AND persisted in the manifest so the
    Searcher analyzes queries with the same chain."""
    index_tokenize = index_tokenizer(tokenizer)
    if index_tokenize is None:
        return analyze_batch
    return functools.partial(tokenized_analyze_batch, index_tokenize=index_tokenize)


def _apply_token_filter(tok: dict, flt, n_rows: int) -> dict:
    """Run a custom token filter (list[(term, pos)] → list[(term, pos)])
    over the analyzed stream — the configurable-analysis slow path (only
    taken when an analyzer chain beyond the standard one is configured;
    the default build stays fully vectorized)."""
    rows, terms, poss = tok["row"], tok["term"], tok["pos"]
    counts = np.bincount(rows, minlength=n_rows).astype(np.int64)
    offs = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    out_rows, out_terms, out_pos = [], [], []
    dl = np.zeros(n_rows, dtype=np.int64)
    for r in range(n_rows):
        toks = list(zip(terms[offs[r] : offs[r + 1]], poss[offs[r] : offs[r + 1]]))
        new = flt(toks)
        dl[r] = len(new)
        for t, p in new:
            out_rows.append(r)
            out_terms.append(t)
            out_pos.append(int(p))
    return {
        "row": np.asarray(out_rows, dtype=np.int64),
        "term": np.asarray(out_terms, dtype=object),
        "pos": np.asarray(out_pos, dtype=np.int64),
        "dl": dl,
    }


def invert_partition(
    table: pa.Table,
    base: int,
    hot_terms: list[str],
    salt: int,
    n_buckets: int = 32,
    token_filter=None,
    analyzed_fields: tuple[str, ...] = (),
    keyword_fields: tuple[str, ...] = KEYWORD_FIELDS,
    tokenizer: str = "standard",
) -> tuple[pa.Table, pa.Table]:
    """Analyze + SPIMI-invert one doc-partition (vectorized, no row loops).

    The `text` column goes through the full analysis chain; `role`/`tool`
    columns (when present) are indexed as untokenized keyword terms
    `field:value` in the same term space — the StringField/StrField pattern
    (lucene/core/src/java/org/apache/lucene/document/StringField.java).
    Keyword terms carry freq=1/pos=0 and do NOT contribute to dl/norms
    (Lucene norms are per text field; keyword fields serve FILTER clauses).

    Returns (partial_postings, norms) where norms has one row per doc:
    (doc_id, conv_id, turn_idx, dl, norm_byte).
    """
    order = pc.sort_indices(table, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    table = table.take(order)
    n = table.num_rows
    doc_ids = base + np.arange(n, dtype=np.int64)

    _analyze = _batch_analyzer(tokenizer)
    tok = _analyze(table.column("text"))
    if token_filter is not None:
        tok = _apply_token_filter(tok, token_filter, n)
    dl = tok["dl"]
    norm_bytes = int_to_byte4_np(dl).astype(np.int64)
    # token streams: (row, term, pos, per-ROW norm-byte source) — postings
    # carry the norm byte of the FIELD the term belongs to (Lucene's
    # per-field norms, lucene/core/.../index/NormValuesWriter.java)
    streams = [(tok["row"], tok["term"], tok["pos"], norm_bytes)]
    norms_cols = {
        "doc_id": pa.array(doc_ids),
        "conv_id": table.column("conv_id"),
        "turn_idx": table.column("turn_idx"),
        "dl": pa.array(dl),
        "norm_byte": pa.array(norm_bytes.astype(np.int32)),
    }
    # extra ANALYZED fields: full analysis chain, terms namespaced
    # `field:token` with real positions, field-specific dl/norms
    for f in analyzed_fields:
        if f not in table.schema.names:
            continue
        ftok = _analyze(table.column(f))
        fdl = ftok["dl"]
        fnb = int_to_byte4_np(fdl).astype(np.int64)
        norms_cols[f"dl_{f}"] = pa.array(fdl)
        norms_cols[f"norm_byte_{f}"] = pa.array(fnb.astype(np.int32))
        if len(ftok["term"]):
            named = pc.binary_join_element_wise(
                pa.scalar(f), pa.array(ftok["term"], type=pa.string()), pa.scalar(":")
            ).to_numpy(zero_copy_only=False).astype(object)
            streams.append((ftok["row"], named, ftok["pos"], fnb))
    # keyword-field terms appended to the token stream (pos 0, no dl effect,
    # text-field norms — they serve FILTER clauses)
    for field in keyword_fields:
        if field not in table.schema.names or field in analyzed_fields:
            continue
        col = table.column(field)
        # keyword doc-values column (SortedDocValues analog) — lets FILTER
        # ranges choose a column scan over a postings union at query time
        # (IndexOrDocValuesQuery, lucene/core/.../search/
        # IndexOrDocValuesQuery.java)
        norms_cols[f"dv_{field}"] = col
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        rows = np.flatnonzero(valid)
        if rows.size:
            joined = pc.binary_join_element_wise(
                pa.scalar(field), pc.take(col, pa.array(rows)), pa.scalar(":")
            )
            streams.append(
                (
                    rows.astype(np.int64),
                    joined.to_numpy(zero_copy_only=False).astype(object),
                    np.zeros(rows.size, dtype=np.int64),
                    norm_bytes,
                )
            )
    tok = {
        "row": np.concatenate([s[0] for s in streams]),
        "term": np.concatenate([s[1] for s in streams]),
        "pos": np.concatenate([s[2] for s in streams]),
        "dl": dl,
    }
    tok_nb = np.concatenate([s[3][s[0]] for s in streams])

    norms = pa.table(norms_cols)

    if len(tok["row"]) == 0:
        return PARTIAL_SCHEMA.empty_table(), norms

    # group tokens by (term, doc) then runs by term — all vectorized
    term_codes, uniq_terms = pd.factorize(tok["term"], sort=True)
    tdoc = doc_ids[tok["row"]]
    order = np.lexsort((tok["pos"], tdoc, term_codes))
    tc, td, tp = term_codes[order], tdoc[order], tok["pos"][order]

    # (term, doc) run boundaries → per-entry doc/freq
    entry_new = np.empty(tc.size, dtype=bool)
    entry_new[0] = True
    entry_new[1:] = (tc[1:] != tc[:-1]) | (td[1:] != td[:-1])
    entry_idx = np.flatnonzero(entry_new)
    e_term = tc[entry_idx]
    e_doc = td[entry_idx]
    e_freq = np.diff(np.append(entry_idx, tc.size)).astype(np.int32)
    e_norm = tok_nb[order][entry_idx].astype(np.int32)  # field-specific norms

    # term run boundaries over entries → list offsets
    t_new = np.empty(e_term.size, dtype=bool)
    t_new[0] = True
    t_new[1:] = e_term[1:] != e_term[:-1]
    t_start = np.flatnonzero(t_new)
    n_terms = t_start.size
    e_offsets = np.append(t_start, e_term.size).astype(np.int32)
    terms_arr = uniq_terms[e_term[t_start]]

    # positions: flat per term (ordered by doc, pos); offsets via token runs
    tok_t_new = np.empty(tc.size, dtype=bool)
    tok_t_new[0] = True
    tok_t_new[1:] = tc[1:] != tc[:-1]
    p_offsets = np.append(np.flatnonzero(tok_t_new), tc.size).astype(np.int32)

    # salted shuffle keys for hot terms
    salts = np.zeros(n_terms, dtype=np.int32)
    if hot_terms:
        hot_mask = np.isin(terms_arr, np.asarray(hot_terms, dtype=object))
        salts[hot_mask] = salt
    term_keys = terms_arr.copy()
    for i in np.flatnonzero(salts != 0):  # hot terms only — a handful per partition
        term_keys[i] = f"{terms_arr[i]}{SALT_SEP}{salts[i]}"
    # stable shuffle bucket (crc32, NOT python hash()) per (term, salt)
    import zlib

    buckets = np.fromiter(
        (zlib.crc32(k.encode()) % n_buckets for k in term_keys), dtype=np.int32, count=n_terms
    )

    partial = pa.table(
        {
            "term_key": pa.array(term_keys, type=pa.string()),
            "bucket": pa.array(buckets),
            "term": pa.array(terms_arr, type=pa.string()),
            "salt": pa.array(salts),
            "pid": pa.array(np.full(n_terms, -1, dtype=np.int32)),  # filled by caller
            "docs": pa.ListArray.from_arrays(e_offsets, pa.array(e_doc, type=pa.int64())),
            "freqs": pa.ListArray.from_arrays(e_offsets, pa.array(e_freq, type=pa.int32())),
            "norms": pa.ListArray.from_arrays(e_offsets, pa.array(e_norm, type=pa.int32())),
            "positions": pa.ListArray.from_arrays(p_offsets, pa.array(tp.astype(np.int32), type=pa.int32())),
        },
        schema=PARTIAL_SCHEMA,
    )
    return partial, norms


def merge_bucket(group: pa.Table, codec_name: str = "varbyte") -> pa.Table:
    """Merge ALL (term, salt) groups inside one shuffle bucket — vectorized.

    The per-term `map_groups` dispatch cost dominates at vocabulary scale
    (ms per group × |vocab| groups), so the shuffle key is
    `bucket = hash(term_key) % B` and this function merges a whole bucket in
    segmented numpy: one global sort by (term_key, pid), one flatten, one
    segmented delta + varbyte encode for every term at once, then per-term
    byte-buffer slicing (a cheap memoryview loop).  Equivalent to a
    per-term merge (property-tested against the reference `merge_group` in
    tests/test_merge_bucket.py); the analog of Lucene's
    SegmentMerger + Lucene84PostingsWriter running per term dictionary
    range."""
    order = pc.sort_indices(group, sort_keys=[("term_key", "ascending"), ("pid", "ascending")])
    group = group.take(order)
    n_rows = group.num_rows
    if n_rows == 0:
        return POSTINGS_SCHEMA.empty_table()

    term_keys = group.column("term_key").to_numpy(zero_copy_only=False)
    docs_col = group.column("docs").combine_chunks()
    row_counts = np.diff(docs_col.offsets.to_numpy(zero_copy_only=False).astype(np.int64))
    docs = docs_col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    freqs = group.column("freqs").combine_chunks().flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    norms = group.column("norms").combine_chunks().flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    pos_col = group.column("positions").combine_chunks()
    positions = pos_col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)

    # term run boundaries over rows
    row_new = np.empty(n_rows, dtype=bool)
    row_new[0] = True
    row_new[1:] = term_keys[1:] != term_keys[:-1]
    term_row_start = np.flatnonzero(row_new)
    T = term_row_start.size
    row_of_term_end = np.append(term_row_start[1:], n_rows)
    # entries (postings) per term
    row_entry_off = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(row_counts, out=row_entry_off[1:])
    term_entry_off = row_entry_off[np.append(term_row_start, n_rows)]  # T+1
    n_t = np.diff(term_entry_off)

    # entry-level term-start mask
    E = docs.size
    entry_term_start = np.zeros(E, dtype=bool)
    entry_term_start[term_entry_off[:-1][n_t > 0]] = True
    if not (np.diff(docs)[~entry_term_start[1:]] > 0).all():
        raise AssertionError("postings not strictly increasing within a term")

    # encode docs (delta resets at term starts) + freqs; the varbyte path
    # encodes the whole bucket once with per-value lengths so per-term
    # buffers are slices of one global encode
    d_deltas = codec.delta_encode_resets(docs, entry_term_start)
    norms_buf = memoryview(norms.astype(np.uint8).tobytes())
    p_vals_off = np.zeros(E + 1, dtype=np.int64)
    np.cumsum(freqs, out=p_vals_off[1:])
    if positions.size:
        pos_reset = np.zeros(positions.size, dtype=bool)
        pos_reset[p_vals_off[:-1][freqs > 0]] = True
        p_deltas = codec.delta_encode_resets(positions, pos_reset)
    else:
        p_deltas = np.zeros(0, dtype=np.int64)
    term_pos_off = p_vals_off[term_entry_off]  # position-value offset per term boundary
    if codec_name != "for":
        docs_buf = memoryview(codec.varbyte_encode(d_deltas))
        d_len_off = np.zeros(E + 1, dtype=np.int64)
        np.cumsum(codec.varbyte_lengths(d_deltas), out=d_len_off[1:])
        freqs_buf = memoryview(codec.varbyte_encode(freqs))
        f_len_off = np.zeros(E + 1, dtype=np.int64)
        np.cumsum(codec.varbyte_lengths(freqs), out=f_len_off[1:])
        pos_buf = memoryview(codec.varbyte_encode(p_deltas))
        p_len = codec.varbyte_lengths(p_deltas) if p_deltas.size else np.zeros(0, dtype=np.int64)
        p_len_off = np.zeros(positions.size + 1, dtype=np.int64)
        np.cumsum(p_len, out=p_len_off[1:])

    # per-term stats
    cf = np.add.reduceat(freqs, term_entry_off[:-1]) if E else np.zeros(T, dtype=np.int64)
    first_doc = docs[term_entry_off[:-1]]
    last_doc = docs[term_entry_off[1:] - 1]

    # block-max metadata: blocks tile entries contiguously per term
    nb = (n_t + codec.BLOCK_SIZE - 1) // codec.BLOCK_SIZE
    total_blocks = int(nb.sum())
    term_of_block = np.repeat(np.arange(T), nb)
    nb_off = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(nb, out=nb_off[1:])
    blk_within = np.arange(total_blocks, dtype=np.int64) - nb_off[term_of_block]
    blk_start = term_entry_off[:-1][term_of_block] + blk_within * codec.BLOCK_SIZE
    blk_end = np.minimum(blk_start + codec.BLOCK_SIZE, term_entry_off[1:][term_of_block])
    blk_last = docs[blk_end - 1]
    blk_maxf = np.maximum.reduceat(freqs, blk_start) if total_blocks else np.zeros(0, np.int64)
    blk_minn = np.minimum.reduceat(norms, blk_start) if total_blocks else np.zeros(0, np.int64)

    # per-term buffers: varbyte slices one global encode (memoryview
    # slicing, cheap); the FOR/PFOR codec is block-framed per term, so it
    # encodes each term's delta segment directly (loop over TERMS in the
    # bucket — never over postings)
    norms_b = [bytes(norms_buf[term_entry_off[i] : term_entry_off[i + 1]]) for i in range(T)]
    if codec_name == "for":
        from .for_codec import for_encode

        docs_b = [for_encode(d_deltas[term_entry_off[i] : term_entry_off[i + 1]]) for i in range(T)]
        freqs_b = [for_encode(freqs[term_entry_off[i] : term_entry_off[i + 1]]) for i in range(T)]
        pos_b = [for_encode(p_deltas[term_pos_off[i] : term_pos_off[i + 1]]) for i in range(T)]
    else:
        d_off_t = d_len_off[term_entry_off]
        f_off_t = f_len_off[term_entry_off]
        p_off_t = p_len_off[term_pos_off]
        docs_b = [bytes(docs_buf[d_off_t[i] : d_off_t[i + 1]]) for i in range(T)]
        freqs_b = [bytes(freqs_buf[f_off_t[i] : f_off_t[i + 1]]) for i in range(T)]
        pos_b = [bytes(pos_buf[p_off_t[i] : p_off_t[i + 1]]) for i in range(T)]

    first_rows = term_row_start
    terms_out = group.column("term").take(pa.array(first_rows))
    salts_out = group.column("salt").take(pa.array(first_rows))
    blk_off32 = nb_off.astype(np.int32)
    return pa.table(
        {
            "term": terms_out,
            "salt": salts_out,
            "df": pa.array(n_t, type=pa.int64()),
            "cf": pa.array(cf.astype(np.int64)),
            "first_doc": pa.array(first_doc),
            "last_doc": pa.array(last_doc),
            "docs": pa.array(docs_b, type=pa.binary()),
            "freqs": pa.array(freqs_b, type=pa.binary()),
            "norms": pa.array(norms_b, type=pa.binary()),
            "positions": pa.array(pos_b, type=pa.binary()),
            "blk_last_doc": pa.ListArray.from_arrays(blk_off32, pa.array(blk_last, type=pa.int64())),
            "blk_max_freq": pa.ListArray.from_arrays(blk_off32, pa.array(blk_maxf.astype(np.int32))),
            "blk_min_norm": pa.ListArray.from_arrays(blk_off32, pa.array(blk_minn.astype(np.int32))),
        },
        schema=POSTINGS_SCHEMA,
    )


def shard_buckets(shard: list[FileSpec]) -> int:
    """A shard's shuffle width from its footer row counts (no data pass):
    one merge task per `ROWS_PER_BUCKET` rows, capped at `N_BUCKETS`.  A
    merge task costs ~9 ms of CPU whatever its size, and `merge_bucket`
    costs about the same per doc up to ~32k rows a bucket but more above
    (a 125k-row shard: 6.3 us/doc in 8 buckets, 10.9 in one), so a small
    shard gets one bucket and a large one a bucket per ~16k rows."""
    rows = sum(s.rows for s in shard)
    return min(N_BUCKETS, max(1, -(-rows // ROWS_PER_BUCKET)))


def _config_fingerprint(specs: list[FileSpec], files_per_shard: int) -> str:
    payload = json.dumps(
        [[s.path, s.rows] for s in specs] + [files_per_shard, N_SALTS], sort_keys=True
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def build_index(
    input_paths: list[str],
    index_dir: str | Path,
    *,
    files_per_shard: int = 8,
    resume: bool = True,
    max_concurrent_shards: int = 4,
    fail_after_shards: int | None = None,
    token_filter=None,
    tokenizer: str = "standard",
    analyzer_id: str = "standard",
    analyzed_fields: tuple[str, ...] = (),
    keyword_fields: tuple[str, ...] = KEYWORD_FIELDS,
    codec: str = "varbyte",
) -> Manifest:
    """Build (or resume) the full index.  Returns the committed manifest.

    `fail_after_shards` injects a crash after N completed shards — used by
    the kill-and-rerun resume test (FIXTURES.md F6).

    `token_filter` appends a custom analysis stage (list[(term, pos)] →
    list[(term, pos)], e.g. `analysis.graph.as_token_filter(...)`) after
    the standard chain; set `analyzer_id` to a distinct name so resume
    never mixes indexes built with different analyzers (it participates in
    the config fingerprint).

    `analyzed_fields` names extra string columns to run through the FULL
    analysis chain (the IndexSchema multi-field pattern,
    solr/core/src/java/org/apache/solr/schema/IndexSchema.java): their
    terms are namespaced `field:token` with positions and score with the
    FIELD's own norms/avgdl; `keyword_fields` stay untokenized
    `field:value` filter terms."""
    index_dir = Path(index_dir)
    index_tokenizer(tokenizer)  # an unknown name fails before any work
    specs = plan_files(input_paths)
    analyzed_fields = tuple(analyzed_fields)
    keyword_fields = tuple(keyword_fields)
    fp = (
        _config_fingerprint(specs, files_per_shard)
        + f":{analyzer_id}:{tokenizer}:{','.join(analyzed_fields)}:{','.join(keyword_fields)}:{codec}"
    )

    manifest = Manifest.load(index_dir) if resume else None
    if manifest is not None and manifest.data.get("config", {}).get("fingerprint") != fp:
        # incremental ingest (the TopicStream checkpointed-consumption
        # analog, SURVEY.md §2.10): if the previous inputs are a strict
        # prefix of the new ones (append-only growth in path order) with
        # identical layout params, keep completed shards and build only the
        # shards touched by new files; otherwise full rebuild.
        cfg = manifest.data.get("config", {})
        old_inputs = cfg.get("inputs", [])
        new_inputs = [[s.path, s.rows, s.base] for s in specs]
        if (
            cfg.get("files_per_shard") == files_per_shard
            and cfg.get("n_salts") == N_SALTS
            and cfg.get("codec", "varbyte") == codec
            # the ANALYSIS config must match too — appending with a different
            # analyzer/schema would silently mix term spaces
            and cfg.get("analyzer_id", "standard") == analyzer_id
            and cfg.get("tokenizer", "standard") == tokenizer
            and tuple(cfg.get("analyzed_fields", ())) == analyzed_fields
            and tuple(cfg.get("keyword_fields", KEYWORD_FIELDS)) == keyword_fields
            and len(old_inputs) < len(new_inputs)
            and new_inputs[: len(old_inputs)] == old_inputs
        ):
            # shard plan: keep the longest prefix of SEALED groups (file
            # count a multiple of files_per_shard — plain full shards and
            # compacted super-shards both qualify); regroup the unsealed
            # tail together with the appended files
            old_plan = cfg.get("shard_plan") or [
                list(range(i, min(i + files_per_shard, len(old_inputs))))
                for i in range(0, len(old_inputs), files_per_shard)
            ]
            kept: list[list[int]] = []
            for g in old_plan:
                if len(g) % files_per_shard != 0:
                    break
                kept.append(list(g))
            pool_start = sum(len(g) for g in kept)
            new_plan = kept + [
                list(range(i, min(i + files_per_shard, len(specs))))
                for i in range(pool_start, len(specs), files_per_shard)
            ]
            first_dirty_shard = len(kept)
            with manifest._lock:
                for sid in list(manifest.data["shards"]):
                    if int(sid) >= first_dirty_shard:
                        del manifest.data["shards"][sid]
                manifest.data["config"].update(
                    {
                        "fingerprint": fp,
                        "inputs": new_inputs,
                        "n_files": len(specs),
                        "shard_plan": new_plan,
                    }
                )
                manifest.data["status"] = "building"
            manifest.save()
        else:
            manifest = None  # input or layout changed → rebuild
    if manifest is None:
        if index_dir.exists():
            shutil.rmtree(index_dir)
        manifest = Manifest(index_dir)
        manifest.data["config"] = {
            "fingerprint": fp,
            "files_per_shard": files_per_shard,
            "n_salts": N_SALTS,
            "n_files": len(specs),
            "inputs": [[s.path, s.rows, s.base] for s in specs],
            "codec": codec,
            "analyzer_id": analyzer_id,
            "tokenizer": tokenizer,
            "analyzed_fields": list(analyzed_fields),
            "keyword_fields": list(keyword_fields),
            "shard_plan": [
                list(range(i, min(i + files_per_shard, len(specs))))
                for i in range(0, len(specs), files_per_shard)
            ],
        }
    if manifest.committed:
        # an index committed before stats sidecars existed gets its sidecar
        # here, so `Searcher` can open it read-only
        st = manifest.data["stats"]
        write_stats_sidecar(index_dir / st.get("stats_file", "global_stats.parquet"))
        return manifest

    hot_terms = sample_hot_terms([s.path for s in specs])
    manifest.data["config"]["hot_terms"] = hot_terms
    manifest.save()

    # shard grouping follows the manifest's shard plan (kept stable across
    # append rounds and rewritten by compaction)
    plan = manifest.data["config"]["shard_plan"]
    shards = [[specs[pid] for pid in group] for group in plan]
    shards_root = index_dir / manifest.data["config"].get("shards_dir", "shards")
    shards_root.mkdir(parents=True, exist_ok=True)
    done_count = 0

    def salt_of(local_idx: int, shard_len: int) -> int:
        runs = min(N_SALTS, shard_len)
        return (local_idx * runs) // shard_len

    import ray

    @ray.remote
    def invert_task(
        path: str, pid: int, base: int, salt: int, index_root: str, hot: list[str], n_buckets: int
    ):
        """Map side: read one doc-partition, invert, PARTITION BY BUCKET.

        Returns n_buckets partial tables (one ObjectRef per bucket, so each
        reducer fetches exactly its slice — an explicit map-side hash
        shuffle, the ParallelStream `{!hash workers=N}` pattern) plus a
        (n_docs, sum_dl) lineage tuple; the caller sets
        `num_returns=n_buckets + 1`.  The per-pid segment is side-written
        atomically by `segments.write_segment` (idempotent under retry)."""
        schema_names = pq.read_schema(path).names
        cols = ["conv_id", "turn_idx", "text"] + [
            f for f in dict.fromkeys(keyword_fields + analyzed_fields) if f in schema_names
        ]
        table = pq.read_table(path, columns=cols)
        partial, norms = invert_partition(
            table,
            base,
            hot,
            salt,
            n_buckets=n_buckets,
            token_filter=token_filter,
            analyzed_fields=analyzed_fields,
            keyword_fields=keyword_fields,
            tokenizer=tokenizer,
        )
        partial = partial.set_column(
            partial.schema.get_field_index("pid"),
            "pid",
            pa.array(np.full(partial.num_rows, pid, dtype=np.int32)),
        )
        write_segment(index_root, pid, norms)
        bcol = partial.column("bucket").to_numpy(zero_copy_only=False)
        order = np.argsort(bcol, kind="stable")
        partial = partial.take(pa.array(order))
        bounds = np.searchsorted(bcol[order], np.arange(n_buckets + 1))
        outs = [partial.slice(bounds[b], bounds[b + 1] - bounds[b]) for b in range(n_buckets)]
        field_sums = {
            f: int(pc.sum(norms.column(f"dl_{f}")).as_py() or 0)
            for f in analyzed_fields
            if f"dl_{f}" in norms.schema.names
        }
        lineage = (int(norms.num_rows), int(pc.sum(norms.column("dl")).as_py() or 0), field_sums)
        return (*outs, lineage)

    @ray.remote
    def merge_task(out_dir: str, bucket: int, *parts: pa.Table):
        """Reduce side: merge one bucket's partials from every partition,
        encode, and write a deterministic per-bucket parquet file."""
        live = [p for p in parts if p.num_rows]
        if not live:
            return (0, 0)
        merged = merge_bucket(pa.concat_tables(live), codec_name=codec)
        pq.write_table(merged, Path(out_dir) / f"postings-{bucket:05d}.parquet")
        return (int(merged.num_rows), int(pc.sum(merged.column("df")).as_py() or 0))

    def build_shard(shard_id: int) -> None:
        shard = shards[shard_id]
        t0 = time.monotonic()
        shard_dir = shards_root / f"shard={shard_id:05d}"
        tmp_dir = shards_root / f".shard={shard_id:05d}.tmp"
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir(parents=True)
        n_buckets = shard_buckets(shard)
        invert = invert_task.options(num_returns=n_buckets + 1)
        inv = [
            invert.remote(s.path, s.pid, s.base, salt_of(j, len(shard)), str(index_dir), hot_terms, n_buckets)
            for j, s in enumerate(shard)
        ]
        merges = [
            merge_task.remote(str(tmp_dir), b, *[refs[b] for refs in inv])
            for b in range(n_buckets)
        ]
        lineages = ray.get([refs[n_buckets] for refs in inv])
        counts = ray.get(merges)
        if shard_dir.exists():
            shutil.rmtree(shard_dir)
        os.replace(tmp_dir, shard_dir)

        n_terms = sum(c[0] for c in counts)
        n_postings = sum(c[1] for c in counts)
        for j, s in enumerate(shard):
            manifest.mark_segment(
                pid=s.pid,
                path=s.path,
                rows=s.rows,
                base=s.base,
                shard=shard_id,
                n_docs=lineages[j][0],
                sum_dl=lineages[j][1],
                field_sum_dl=lineages[j][2],
                status="done",
            )
        manifest.mark_shard(
            shard_id,
            pids=[s.pid for s in shard],
            doc_lo=shard[0].base,
            doc_hi=shard[-1].base + shard[-1].rows,
            n_terms=n_terms,
            n_postings=n_postings,
            wall_s=round(time.monotonic() - t0, 3),
            status="done",
        )

    pending = [i for i in range(len(shards)) if not manifest.shard_done(i)]
    with ThreadPoolExecutor(max_workers=max_concurrent_shards) as pool:
        futures = {}
        for sid in pending:
            if fail_after_shards is not None and done_count + len(futures) >= fail_after_shards:
                break
            futures[pool.submit(build_shard, sid)] = sid
        for fut in list(futures):
            fut.result()
            done_count += 1
    if fail_after_shards is not None and done_count >= fail_after_shards and pending[done_count:]:
        raise RuntimeError(f"injected failure after {done_count} shards")

    _finalize(index_dir, manifest)
    return manifest


STATS_ROW_GROUP_SIZE = 16_384  # terms per row group in global_stats.parquet:
# the file is term-sorted, so parquet min/max statistics on `term` let a
# filtered parquet reader prune the row groups its terms don't touch (query
# serving reads the memory-mapped sidecar instead, one batch per row group)

SHARD_STATS_NAME = "term_stats.arrow"  # a shard's sorted stats run; not
# *.parquet, so the shard dir's postings globs never see it


def _sum_by_term(t: pa.Table) -> pa.Table:
    agg = t.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
    return agg.rename_columns(STATS_SCHEMA.names).sort_by("term")


def _write_shard_stats(shard_dir: str) -> None:
    """A shard's sorted run: its (term, df, cf) with each hot term's salted
    rows summed, as zstd Arrow IPC batches.  Written once per shard dir: a
    committed one never changes (rebuilds and compaction make new dirs)."""
    d = Path(shard_dir)
    parts = [pq.read_table(f, columns=STATS_SCHEMA.names) for f in sorted(d.glob("postings-*.parquet"))]
    run = _sum_by_term(pa.concat_tables([STATS_SCHEMA.empty_table(), *parts]))
    tmp = d / f".{SHARD_STATS_NAME}.tmp"
    try:
        opts = pa.ipc.IpcWriteOptions(compression="zstd")
        with pa.OSFile(str(tmp), "wb") as sink, pa.ipc.new_file(sink, STATS_SCHEMA, options=opts) as w:
            w.write_table(run, max_chunksize=STATS_ROW_GROUP_SIZE)
        os.replace(tmp, d / SHARD_STATS_NAME)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _merge_shard_stats(runs: list[Path], tmp: Path) -> int:
    """k-way merge of the shards' sorted runs into the stats parquet at
    `tmp` (SegmentMerger's term-dictionary merge, SURVEY.md §3.1), holding
    one batch per run.  Each step cuts at the heads' smallest last term:
    runs are sorted with unique terms, so the heads' prefixes up to the cut
    hold every remaining row up to it.  → the number of terms."""
    readers = [pa.ipc.open_file(str(r)) for r in runs]
    its = [filter(len, map(r.get_batch, range(r.num_record_batches))) for r in readers]
    heads = [next(it, None) for it in its]
    out, n_terms = STATS_SCHEMA.empty_table(), 0
    with pq.ParquetWriter(tmp, STATS_SCHEMA) as writer:
        while any(h is not None for h in heads):
            cut = min(h.column("term")[-1].as_py() for h in heads if h is not None)
            prefixes = []
            for i, h in enumerate(heads):
                if h is not None:
                    n = pc.sum(pc.less_equal(h.column("term"), cut)).as_py()
                    prefixes.append(h.slice(0, n))
                    heads[i] = h.slice(n) if n < len(h) else next(its[i], None)
            step = _sum_by_term(pa.Table.from_batches(prefixes))
            n_terms += step.num_rows
            out = pa.concat_tables([out, step])
            full = out.num_rows - out.num_rows % STATS_ROW_GROUP_SIZE
            if full:
                writer.write_table(out.slice(0, full).combine_chunks(), STATS_ROW_GROUP_SIZE)
            out = out.slice(full)
        if out.num_rows:
            writer.write_table(out.combine_chunks())
    return n_terms


def _finalize(index_dir: Path, manifest: Manifest) -> None:
    """Global stats: df/cf per term across shards + collection totals.

    The reference resolves these once per query via termStatistics /
    collectionStatistics (lucene/core/.../search/IndexSearcher.java); we
    precompute them at build time so distributed scoring is globally
    consistent (the ExactStatsCache requirement, SURVEY.md §3.2).  Each
    shard dir without a sorted run gets one in a Ray task (an append writes
    only its new shards' runs); the driver merges the runs batch by batch,
    so its memory is bounded by batches, not the vocabulary."""
    import ray

    shards_root = index_dir / manifest.data["config"].get("shards_dir", "shards")
    shard_dirs = sorted(shards_root.glob("shard=*"))
    write_run = ray.remote(_write_shard_stats)
    ray.get([write_run.remote(str(d)) for d in shard_dirs if not (d / SHARD_STATS_NAME).exists()])
    tmp = index_dir / ".global_stats.parquet.tmp"
    stats_rows = _merge_shard_stats([d / SHARD_STATS_NAME for d in shard_dirs], tmp)
    # versioned stats file (append-only, like segment files): each commit
    # references its own generation via stats["stats_file"], so snapshots
    # (index/snapshot.py) pin a consistent vocabulary — an incremental
    # append never mutates the stats a pinned commit reads
    gen = 1 + max(
        (int(p.stem.rsplit("_g", 1)[-1]) for p in index_dir.glob("global_stats_g*.parquet")),
        default=0,
    )
    stats_name = f"global_stats_g{gen:03d}.parquet"
    sidecar_path(index_dir / stats_name).unlink(missing_ok=True)  # never a stale one
    os.replace(tmp, index_dir / stats_name)
    write_stats_sidecar(index_dir / stats_name)

    segs = list(manifest.data["segments"].values())
    n_docs = sum(s["n_docs"] for s in segs)
    sum_ttf = sum(s["sum_dl"] for s in segs)
    # per-analyzed-field collection stats (per-field avgdl drives the
    # field's own BM25 norm cache)
    field_stats: dict[str, dict] = {}
    for s in segs:
        for f, v in (s.get("field_sum_dl") or {}).items():
            field_stats.setdefault(f, {"sum_ttf": 0})["sum_ttf"] += int(v)
    for f, st in field_stats.items():
        st["avgdl"] = (st["sum_ttf"] / n_docs) if n_docs else 0.0
    manifest.commit(
        {
            "N": int(n_docs),
            "sum_ttf": int(sum_ttf),
            "avgdl": (sum_ttf / n_docs) if n_docs else 0.0,
            "n_terms": int(stats_rows),
            "fields": field_stats,
            "stats_file": stats_name,
        }
    )
