"""Posting-list codec: delta + variable-byte encoding with block-max metadata.

Reference semantics: Lucene encodes postings as delta-encoded docIDs in
128-doc blocks with per-block skip data and max impacts
(lucene/core/src/java/org/apache/lucene/codecs/lucene84/Lucene84PostingsWriter.java,
ForUtil.java; impacts per block power block-max WAND, Ding & Suel 2011).
This module is a from-scratch numpy implementation: classic varbyte (7 data
bits per byte, high bit = continuation) over int64/int32 arrays, plus
per-128-doc-block (last_doc, max_freq, min_norm_byte) metadata.

Everything is vectorized — no per-value Python loops.  Encode runs once
per stream of a whole merge bucket (`index/build.merge_bucket`).  Decode
runs when an index actor opens: `decode_rows` decodes a column's rows in
one call and `delta_decode_resets` restores docIDs (and positions) row by
row, so the query path slices decoded arrays; only a term's positions
decode per query, one call over its contiguous rows.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128

__all__ = [
    "BLOCK_SIZE",
    "varbyte_encode",
    "varbyte_decode",
    "delta_encode",
    "delta_decode",
    "delta_encode_resets",
    "delta_decode_resets",
    "decode_rows",
    "encode_postings",
    "decode_docs",
    "decode_freqs",
    "block_meta",
    "encode_positions",
    "decode_positions",
]


def varbyte_lengths(values: np.ndarray) -> np.ndarray:
    """Encoded byte length per value: ceil(bit_length/7), min 1 — vectorized."""
    v = np.asarray(values, dtype=np.uint64)
    nbytes = np.ones(v.size, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while np.any(tmp):
        nz = tmp > 0
        nbytes[nz] += 1
        tmp = tmp >> np.uint64(7)
    return nbytes


def varbyte_encode(values: np.ndarray, nbytes: np.ndarray | None = None) -> bytes:
    """Vectorized varbyte encode of a non-negative int array.

    Layout per value: little-endian 7-bit groups; every byte except the last
    has the high bit set.  `nbytes` is `varbyte_lengths(values)` when the
    caller already has it (the bucketed merge also needs the per-value
    offsets).
    """
    v = np.asarray(values, dtype=np.uint64)
    n = v.size
    if n == 0:
        return b""
    if nbytes is None:
        nbytes = varbyte_lengths(v)
    total = int(nbytes.sum())
    out = np.empty(total, dtype=np.uint8)
    # position of each value's first byte
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(nbytes[:-1], out=starts[1:])
    # byte index within each value: 0..nbytes-1
    idx = np.arange(total, dtype=np.int64)
    val_id = np.repeat(np.arange(n, dtype=np.int64), nbytes)
    pos_in_val = idx - starts[val_id]
    shifted = (v[val_id] >> (pos_in_val.astype(np.uint64) * np.uint64(7))) & np.uint64(0x7F)
    is_last = pos_in_val == (nbytes[val_id] - 1)
    out[:] = shifted.astype(np.uint8) | np.where(is_last, 0, 0x80).astype(np.uint8)
    return out.tobytes()


def varbyte_decode(buf, count: int | None = None) -> np.ndarray:
    """Vectorized varbyte decode of one or more concatenated streams → int64.

    `buf` is anything with the buffer protocol (bytes, an Arrow buffer, a
    uint8 array).  One masked OR pass per byte position (at most 10 for a
    64-bit value): pass k ORs the k-th 7-bit group into the values longer
    than k bytes."""
    b = np.frombuffer(buf, dtype=np.uint8)
    last = b < 0x80
    ends = np.flatnonzero(last)  # last byte of each value
    if b.size and (not ends.size or ends[-1] != b.size - 1):
        raise ValueError("varbyte stream ends inside a value")
    if count is not None and ends.size != count:
        raise ValueError(f"decoded {ends.size} values, expected {count}")
    low = b & np.uint8(0x7F)
    starts = np.empty(ends.size, dtype=np.int64)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    vals = low[starts].astype(np.uint64)
    longer = np.flatnonzero(~last[starts])  # values with a k-th byte
    k = 1
    while longer.size:
        at = starts[longer] + k
        vals[longer] |= low[at].astype(np.uint64) << np.uint64(7 * k)
        longer = longer[~last[at]]
        k += 1
    return vals.astype(np.int64)


def delta_encode(sorted_vals: np.ndarray) -> np.ndarray:
    """Deltas with implicit previous = -1, so strictly-increasing → gaps ≥ 1."""
    v = np.asarray(sorted_vals, dtype=np.int64)
    out = np.empty_like(v)
    if v.size:
        out[0] = v[0] + 1
        np.subtract(v[1:], v[:-1], out=out[1:])
    return out


def delta_encode_resets(sorted_vals: np.ndarray, reset_mask: np.ndarray) -> np.ndarray:
    """Deltas with an implicit previous of -1 restarting wherever
    reset_mask is True (segment starts) — the segmented form of
    delta_encode used by the bucketed merge."""
    v = np.asarray(sorted_vals, dtype=np.int64)
    out = np.empty_like(v)
    if v.size:
        out[0] = v[0] + 1
        np.subtract(v[1:], v[:-1], out=out[1:])
        starts = np.flatnonzero(reset_mask)
        out[starts] = v[starts] + 1
    return out


def delta_decode(deltas: np.ndarray) -> np.ndarray:
    d = np.asarray(deltas, dtype=np.int64)
    out = np.cumsum(d)
    return out - 1


def delta_decode_resets(deltas: np.ndarray, reset_mask: np.ndarray) -> np.ndarray:
    """Inverse of `delta_encode_resets`: a running sum that restarts (from
    an implicit previous of -1) wherever reset_mask is True, and at 0."""
    d = np.asarray(deltas, dtype=np.int64)
    if not d.size:
        return d.copy()
    cs = np.cumsum(d)
    starts = np.flatnonzero(reset_mask)
    if not starts.size or starts[0] != 0:
        starts = np.concatenate([[0], starts])
    carry = np.zeros(starts.size, dtype=np.int64)
    carry[1:] = cs[starts[1:] - 1]
    cs -= np.repeat(carry, np.diff(np.append(starts, d.size)))
    cs -= 1
    return cs


def decode_rows(values, byte_offsets: np.ndarray, counts: np.ndarray, codec: str = "varbyte") -> np.ndarray:
    """Decode the rows of a binary postings column in one pass → int64.

    `values` holds the column's bytes, row i at
    values[byte_offsets[i]:byte_offsets[i + 1]] (an Arrow binary value
    buffer with its offsets), and `counts[i]` is row i's value count.  The
    result is the rows' values back to back; deltas stay deltas
    (`delta_decode_resets` restores them).  Varbyte streams are
    self-delimiting, so the rows decode as one buffer; FOR rows each carry
    a header, and `for_decode_rows` walks them all in one call."""
    v = np.frombuffer(values, dtype=np.uint8)
    o = np.asarray(byte_offsets, dtype=np.int64)
    c = np.asarray(counts, dtype=np.int64)
    if codec == "for":
        from .for_codec import for_decode_rows

        return for_decode_rows(v, o, c)
    return varbyte_decode(v[o[0] : o[-1]], int(c.sum()))


def encode_postings(docs: np.ndarray, freqs: np.ndarray) -> tuple[bytes, bytes]:
    """Encode sorted docIDs (delta+varbyte) and freqs (varbyte)."""
    return varbyte_encode(delta_encode(docs)), varbyte_encode(np.asarray(freqs, dtype=np.int64))


def decode_ints(buf: bytes, count: int | None = None, codec: str = "varbyte") -> np.ndarray:
    """Codec-SPI dispatch (SURVEY.md §2.11): the build records the codec
    name in the manifest and readers decode through this switch."""
    if codec == "for":
        from .for_codec import for_decode

        return for_decode(buf, count)
    return varbyte_decode(buf, count)


def decode_docs(buf: bytes, count: int | None = None, codec: str = "varbyte") -> np.ndarray:
    return delta_decode(decode_ints(buf, count, codec))


def decode_freqs(buf: bytes, count: int | None = None, codec: str = "varbyte") -> np.ndarray:
    return decode_ints(buf, count, codec)


def block_meta(docs: np.ndarray, freqs: np.ndarray, norm_bytes: np.ndarray):
    """Per-128-doc-block metadata for skipping + block-max pruning.

    Returns (last_doc:int64[], max_freq:int32[], min_norm:int32[]) — one entry
    per block.  min_norm (smallest norm byte = shortest doc) combined with
    max_freq upper-bounds the BM25 score of any doc in the block
    (ref: lucene/core/.../codecs/lucene84/Lucene84ScoreSkipReader.java,
    MaxScoreCache.java).
    """
    n = docs.size
    if n == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z.astype(np.int32), z.astype(np.int32)
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    last_doc = np.empty(nblocks, dtype=np.int64)
    max_freq = np.empty(nblocks, dtype=np.int32)
    min_norm = np.empty(nblocks, dtype=np.int32)
    # pad to full blocks with neutral values, then reshape-reduce (vectorized)
    pad = nblocks * BLOCK_SIZE - n
    if pad:
        docs_p = np.concatenate([docs, np.full(pad, docs[-1], dtype=np.int64)])
        freqs_p = np.concatenate([np.asarray(freqs, dtype=np.int64), np.zeros(pad, dtype=np.int64)])
        norms_p = np.concatenate([np.asarray(norm_bytes, dtype=np.int64), np.full(pad, 255, dtype=np.int64)])
    else:
        docs_p = np.asarray(docs, dtype=np.int64)
        freqs_p = np.asarray(freqs, dtype=np.int64)
        norms_p = np.asarray(norm_bytes, dtype=np.int64)
    last_doc[:] = docs_p.reshape(nblocks, BLOCK_SIZE)[:, -1]
    max_freq[:] = freqs_p.reshape(nblocks, BLOCK_SIZE).max(axis=1)
    min_norm[:] = norms_p.reshape(nblocks, BLOCK_SIZE).min(axis=1)
    return last_doc, max_freq, min_norm


def encode_positions(positions: np.ndarray, freqs: np.ndarray) -> bytes:
    """Encode per-doc position lists, concatenated in doc order.

    `positions` is the flat concatenation of each doc's sorted positions;
    `freqs` gives the per-doc count.  Positions are delta-encoded within each
    doc (first position stored as-is + 1 via the implicit -1 convention).
    """
    pos = np.asarray(positions, dtype=np.int64)
    f = np.asarray(freqs, dtype=np.int64)
    if pos.size == 0:
        return b""
    deltas = np.empty_like(pos)
    deltas[0] = pos[0] + 1
    np.subtract(pos[1:], pos[:-1], out=deltas[1:])
    # reset delta at each doc boundary
    starts = np.zeros(f.size, dtype=np.int64)
    np.cumsum(f[:-1], out=starts[1:])
    starts = starts[f > 0]
    deltas[starts] = pos[starts] + 1
    return varbyte_encode(deltas)


def decode_positions(buf: bytes, freqs: np.ndarray, codec: str = "varbyte") -> tuple[np.ndarray, np.ndarray]:
    """Decode → (flat positions, per-doc start offsets into the flat array)."""
    f = np.asarray(freqs, dtype=np.int64)
    starts = np.zeros(f.size, dtype=np.int64)
    np.cumsum(f[:-1], out=starts[1:])
    deltas = decode_ints(buf, None, codec)
    reset = np.zeros(deltas.size, dtype=bool)
    reset[starts[f > 0]] = True
    return delta_decode_resets(deltas, reset), starts
