"""FOR / PFOR bit-packed block codec — the Lucene84 ForUtil/PForUtil analog
(lucene/core/src/java/org/apache/lucene/codecs/lucene84/ForUtil.java,
PForUtil.java: 128-value blocks packed at a chosen bit width; PFOR patches
up to 7 outliers per block, storing their positions and high bits
separately so a few large values don't inflate the whole block's width).

Fully vectorized via np.packbits/np.unpackbits over a (values × width) bit
matrix.  Layout per array:

  varint  n_values
  per block (≤128 values):
    1 byte width | 1 byte n_exceptions | 1 byte high-bytes length
    n_exceptions bytes  exception positions (within block)
    varbyte             exception high parts (value >> width)
    ceil(n·width/8)     packed low bits

  (the high-bytes length makes the decode's header walk pure arithmetic;
  all blocks' exception varbytes then decode in ONE batched call)

Registered as the second postings codec (codec SPI, SURVEY.md §2.11) and
selectable at build time via `build_index(codec="for")`.
"""

from __future__ import annotations

import numpy as np

from .codec import BLOCK_SIZE, varbyte_decode, varbyte_encode, varbyte_lengths

__all__ = ["for_encode", "for_decode"]

MAX_EXCEPTIONS = 7  # PForUtil.MAX_EXCEPTIONS


def _choose_widths(bl: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Vectorized PFOR width selection over ALL blocks at once.

    For a block whose bit-lengths sorted descending are s[0] ≥ s[1] ≥ …,
    the only widths worth considering are w = s[k] for k = 0..7: choosing
    k exceptions, the cheapest feasible width is exactly the (k+1)-th
    largest bit length (packing cost rises with w, so never pick a wider
    w for the same exception set).  Cost per candidate =
    packed bytes + k positions + varbyte bytes of the k high parts, and
    the high-part length is ceil((s_i − w)/7) — computable from the
    bit-lengths alone.  8 vectorized passes replace the per-block
    per-width Python search (the r3 'FOR encode 2.2× slower' fix).

    bl: (n_blocks, BLOCK_SIZE) bit lengths (padding rows are 0);
    cnt: (n_blocks,) true value counts.  → chosen width per block."""
    k8 = MAX_EXCEPTIONS + 1
    top8 = np.partition(bl, bl.shape[1] - k8, axis=1)[:, -k8:]  # O(n) select
    srt = np.sort(top8, axis=1)[:, ::-1]  # (n_blocks, 8) descending
    best_w = srt[:, 0].copy()  # k=0 → full width (0 for all-zero blocks)
    best_cost = (cnt * best_w + 7) // 8
    t7 = srt[:, :MAX_EXCEPTIONS]
    for k in range(1, k8):
        w = np.maximum(srt[:, k], 1)
        # feasible iff the 8th-largest fits → all exceptions are in the top 7
        feas = srt[:, MAX_EXCEPTIONS] <= w
        exc = t7 > w[:, None]
        n_exc = exc.sum(axis=1)
        hi_bytes = (np.where(exc, t7 - w[:, None] + 6, 0) // 7).sum(axis=1)
        cost = (cnt * w + 7) // 8 + n_exc + hi_bytes
        ok = feas & (cost < best_cost) & (srt[:, 0] > 0)
        best_w = np.where(ok, w, best_w)
        best_cost = np.where(ok, cost, best_cost)
    return best_w.astype(np.int64)


def _unpack_block(buf: memoryview, off: int, n: int) -> tuple[np.ndarray, int]:
    width = buf[off]
    n_exc = buf[off + 1]
    high_len = buf[off + 2]
    off += 3
    if width == 0:
        return np.zeros(n, dtype=np.int64), off
    exc = np.frombuffer(buf[off : off + n_exc], dtype=np.uint8).astype(np.int64)
    off += n_exc
    if n_exc:
        high = varbyte_decode(bytes(buf[off : off + high_len]), n_exc)
        off += high_len
    nbytes = (n * width + 7) // 8
    bits = np.unpackbits(np.frombuffer(buf[off : off + nbytes], dtype=np.uint8), count=n * width)
    bits = bits.reshape(n, width).astype(np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    vals = (bits << shifts[None, :]).sum(axis=1).astype(np.int64)
    if n_exc:
        vals[exc] |= high << np.int64(width)
    return vals, off + nbytes


def for_encode(values: np.ndarray) -> bytes:
    """Encode a non-negative int array in PFOR-patched 128-value blocks.

    Fully vectorized: width choice for every block at once
    (`_choose_widths`), low bits packed with ONE `np.packbits` per
    distinct width (same-width full blocks share a row matrix), exception
    high parts varbyte-encoded in ONE batched call; the only per-block
    Python is the final byte-slice assembly."""
    v = np.asarray(values, dtype=np.int64)
    if (v < 0).any():
        raise ValueError("FOR codec requires non-negative values")
    hdr = varbyte_encode(np.asarray([v.size], dtype=np.int64))
    if v.size == 0:
        return hdr
    n_blocks = (v.size + BLOCK_SIZE - 1) // BLOCK_SIZE
    pad = n_blocks * BLOCK_SIZE - v.size
    vp = np.concatenate([v, np.zeros(pad, dtype=np.int64)]).reshape(n_blocks, BLOCK_SIZE).astype(np.uint64)
    cnt = np.full(n_blocks, BLOCK_SIZE, dtype=np.int64)
    cnt[-1] = v.size - (n_blocks - 1) * BLOCK_SIZE
    bl = np.zeros((n_blocks, BLOCK_SIZE), dtype=np.int64)
    nz = vp > 0
    if nz.any():
        bl[nz] = np.floor(np.log2(vp[nz].astype(np.float64))).astype(np.int64) + 1
    widths = _choose_widths(bl, cnt)

    # exceptions, all blocks at once: positions + one batched varbyte of highs
    exc_mask = bl > widths[:, None]
    exc_bi, exc_pos = np.nonzero(exc_mask)
    n_exc = exc_mask.sum(axis=1).astype(np.int64)
    if exc_bi.size:
        highs = (vp[exc_bi, exc_pos] >> widths[exc_bi].astype(np.uint64)).astype(np.int64)
        hi_lens = varbyte_lengths(highs)
        hi_all = varbyte_encode(highs, hi_lens)
        hi_seg = np.zeros(exc_bi.size + 1, dtype=np.int64)  # per-VALUE byte offsets
        np.cumsum(hi_lens, out=hi_seg[1:])
        exc_off = np.zeros(n_blocks + 1, dtype=np.int64)  # per-BLOCK value offsets
        np.cumsum(n_exc, out=exc_off[1:])
        exc_pos_u8 = exc_pos.astype(np.uint8)
    else:
        hi_all, hi_seg, exc_off, exc_pos_u8 = b"", np.zeros(1, np.int64), np.zeros(n_blocks + 1, np.int64), None

    # pack low bits: one packbits per distinct width; full AND tail blocks
    # share the padded (m, BLOCK_SIZE) matrix — a tail's trailing pad values
    # are 0, so truncating its row to ceil(cnt·w/8) bytes is exact
    packed: dict[int, np.ndarray] = {}
    rowof = np.zeros(n_blocks, dtype=np.int64)
    for w in np.unique(widths):
        w = int(w)
        if w == 0:
            continue
        sel = np.flatnonzero(widths == w)
        rowof[sel] = np.arange(sel.size)
        low = (vp[sel] & np.uint64((1 << w) - 1)).astype(">u8")  # mask is a Python int: safe at w=64
        # big-endian byte view + one unpackbits pass, then keep the low w
        # bits per value — avoids the (m,128,w) uint64 shift intermediate
        u8 = low.view(np.uint8).reshape(sel.size, -1)
        bits = np.unpackbits(u8, axis=1).reshape(sel.size, BLOCK_SIZE, 64)[:, :, 64 - w :]
        packed[w] = np.packbits(np.ascontiguousarray(bits).reshape(sel.size, -1), axis=1)

    out = [hdr]
    for b in range(n_blocks):
        w = int(widths[b])
        ne = int(n_exc[b])
        if ne:
            s, e = exc_off[b], exc_off[b + 1]
            hi_b = hi_all[hi_seg[s] : hi_seg[e]]
            head = bytes([w, ne, len(hi_b)]) + exc_pos_u8[s:e].tobytes() + hi_b
        else:
            head = bytes([w, 0, 0])
        if w == 0:
            out.append(head)
            continue
        row = packed[w][rowof[b]]
        out.append(head + row[: (int(cnt[b]) * w + 7) // 8].tobytes())
    return b"".join(out)


def _extract_packed(raw_pad: np.ndarray, bit_offsets: np.ndarray, width: int) -> np.ndarray:
    """Vectorized bit-field extraction: for each value, gather the 8-byte
    window containing its bits (MSB-first packbits layout), view as
    big-endian u64, shift + mask.  One gather + one shift per value — the
    wide-batch unpack that replaces the per-bit unpackbits matrix (≈3×
    faster, the r2 'FOR decode 3.7× slower than varbyte' fix).  Requires
    width ≤ 56 (so the field plus its ≤7 leading remainder bits fits one
    64-bit window); callers fall back to unpackbits above that."""
    byte_off = (bit_offsets >> 3).astype(np.int64)
    rem = (bit_offsets & 7).astype(np.uint64)
    win = np.lib.stride_tricks.sliding_window_view(raw_pad, 8)[byte_off]
    w64 = np.ascontiguousarray(win).view(">u8")[:, 0].astype(np.uint64)
    mask = np.uint64((1 << width) - 1)
    return ((w64 >> (np.uint64(64 - width) - rem)) & mask).astype(np.int64)


def for_decode(buf: bytes, count: int | None = None) -> np.ndarray:
    """Decode: one cheap header walk collects (width, offsets, patches),
    then ALL full blocks of the same width unpack in a single vectorized
    np.unpackbits pass (the per-block Python work is header-sized only)."""
    mv = memoryview(buf)
    raw = np.frombuffer(buf, dtype=np.uint8)
    # varint header: find its end (first byte with high bit clear)
    hdr_len = 1
    while mv[hdr_len - 1] & 0x80:
        hdr_len += 1
    n = int(varbyte_decode(bytes(mv[:hdr_len]), 1)[0])
    if count is not None and n != count:
        raise ValueError(f"decoded {n} values, expected {count}")
    out = np.zeros(n, dtype=np.int64)
    off = hdr_len
    # header walk (pure arithmetic): group full blocks by width; exception
    # byte ranges are COLLECTED and decoded in one batched varbyte pass
    by_width: dict[int, list[tuple[int, int]]] = {}
    exc_meta: list[tuple[int, int, int, int, int]] = []  # (b, width, n_exc, hi_off, hi_len)
    tail: tuple[int, int, int] | None = None
    for b in range(0, n, BLOCK_SIZE):
        cnt = min(BLOCK_SIZE, n - b)
        width = mv[off]
        n_exc = mv[off + 1]
        high_len = mv[off + 2]
        off += 3
        if n_exc:
            exc_meta.append((b, width, n_exc, off + n_exc, high_len))
            off += n_exc + high_len
        if width:
            nbytes = (cnt * width + 7) // 8
            if cnt == BLOCK_SIZE:
                by_width.setdefault(width, []).append((b, off))
            else:
                tail = (b, off, width)
            off += nbytes
    patches: list[tuple[int, np.ndarray, np.ndarray]] = []
    if exc_meta:
        hi_idx = np.concatenate(
            [np.arange(ho, ho + hl, dtype=np.int64) for _, _, _, ho, hl in exc_meta]
        )
        all_high = varbyte_decode(raw[hi_idx].tobytes())
        counts = np.asarray([ne for _, _, ne, _, _ in exc_meta], dtype=np.int64)
        offs = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        for i, (b, width, ne, ho, hl) in enumerate(exc_meta):
            exc = np.frombuffer(mv[ho - ne : ho], dtype=np.uint8).astype(np.int64)
            patches.append((b, exc, all_high[offs[i] : offs[i + 1]] << np.int64(width)))
    raw_pad: np.ndarray | None = None  # zero-padded copy for 8-byte windows

    def padded() -> np.ndarray:
        nonlocal raw_pad
        if raw_pad is None:
            raw_pad = np.concatenate([raw, np.zeros(8, dtype=np.uint8)])
        return raw_pad

    shifts_cache: dict[int, np.ndarray] = {}
    for width, blocks in by_width.items():
        starts = np.asarray([o for _, o in blocks], dtype=np.int64)
        outs = np.asarray([b for b, _ in blocks], dtype=np.int64)
        oidx = outs[:, None] + np.arange(BLOCK_SIZE, dtype=np.int64)[None, :]
        if width <= 56:
            bit0 = starts[:, None] * 8 + (np.arange(BLOCK_SIZE, dtype=np.int64) * width)[None, :]
            out[oidx.ravel()] = _extract_packed(padded(), bit0.ravel(), width)
            continue
        nbytes = (BLOCK_SIZE * width + 7) // 8
        idx = starts[:, None] + np.arange(nbytes, dtype=np.int64)[None, :]
        bits = np.unpackbits(raw[idx.ravel()].reshape(-1, nbytes), axis=1, count=BLOCK_SIZE * width)
        bits = bits.reshape(len(blocks), BLOCK_SIZE, width).astype(np.uint64)
        shifts = shifts_cache.setdefault(width, np.arange(width - 1, -1, -1, dtype=np.uint64))
        vals = (bits << shifts[None, None, :]).sum(axis=2).astype(np.int64)
        out[oidx.ravel()] = vals.ravel()
    if tail is not None:
        b, o, width = tail
        cnt = n - b
        if width <= 56:
            bit0 = o * 8 + np.arange(cnt, dtype=np.int64) * width
            out[b:] = _extract_packed(padded(), bit0, width)
        else:
            nbytes = (cnt * width + 7) // 8
            bits = np.unpackbits(raw[o : o + nbytes], count=cnt * width).reshape(cnt, width).astype(np.uint64)
            shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
            out[b:] = (bits << shifts[None, :]).sum(axis=1).astype(np.int64)
    for b, exc, high in patches:
        out[b + exc] |= high
    return out
