"""Posting-list codec: delta + variable-byte encoding with block-max metadata.

Reference semantics: Lucene encodes postings as delta-encoded docIDs in
128-doc blocks with per-block skip data and max impacts
(lucene/core/src/java/org/apache/lucene/codecs/lucene84/Lucene84PostingsWriter.java,
ForUtil.java; impacts per block power block-max WAND, Ding & Suel 2011).
This module is a from-scratch numpy implementation: classic varbyte (7 data
bits per byte, high bit = continuation) over int64/int32 arrays, plus
per-128-doc-block (last_doc, max_freq, min_norm_byte) metadata.

Everything is vectorized — no per-value Python loops — because encode runs
inside the posting-merge `map_groups` stage and decode runs in the hot query
path of the index actors.
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


def varbyte_decode(buf: bytes, count: int | None = None) -> np.ndarray:
    """Vectorized varbyte decode → int64 array."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.int64)
    is_last = (b & 0x80) == 0
    # value id per byte: number of completed values before this byte
    val_id = np.zeros(b.size, dtype=np.int64)
    np.cumsum(is_last[:-1], out=val_id[1:])
    n = int(is_last.sum())
    # position within value
    starts_mask = np.ones(b.size, dtype=bool)
    starts_mask[1:] = is_last[:-1]
    start_idx = np.flatnonzero(starts_mask)
    pos_in_val = np.arange(b.size, dtype=np.int64) - start_idx[val_id]
    vals = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(
        vals, val_id, (b.astype(np.uint64) & np.uint64(0x7F)) << (pos_in_val.astype(np.uint64) * np.uint64(7))
    )
    out = vals.astype(np.int64)
    if count is not None and out.size != count:
        raise ValueError(f"decoded {out.size} values, expected {count}")
    return out


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
    deltas = decode_ints(buf, None, codec)
    starts = np.zeros(f.size, dtype=np.int64)
    np.cumsum(f[:-1], out=starts[1:])
    if deltas.size == 0:
        return deltas, starts
    # segmented cumsum: cumsum all, then subtract the carried prefix at each start
    cs = np.cumsum(deltas)
    carried = np.zeros_like(cs)
    nz = starts[starts > 0]
    carried_vals = cs[nz - 1]
    adj = np.zeros(deltas.size, dtype=np.int64)
    adj[nz] = carried_vals
    # propagate each segment's carried prefix forward
    seg_id = np.zeros(deltas.size, dtype=np.int64)
    seg_id[nz] = 1
    seg_id = np.cumsum(seg_id)
    carry_per_seg = np.concatenate([[0], carried_vals]) if nz.size else np.zeros(1, dtype=np.int64)
    flat = cs - carry_per_seg[seg_id] - 1
    return flat, starts
