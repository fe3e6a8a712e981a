"""WebP lossless (VP8L) codec — pure numpy + stdlib.

Decoder implements the public WebP Lossless Bitstream Specification
(RFC 9649): RIFF/VP8L container, LSB-first bitstream, canonical prefix
codes (simple + code-length-coded), color cache, LZ77 backward
references with the 120-entry near-neighbor distance plane, meta prefix
images, and all four inverse transforms (predictor ×14, cross-color,
subtract-green, color-indexing with sub-byte pixel packing).

Encoder emits a valid VP8L stream and can exercise EVERY decoder path
(each transform, the color cache, LZ77 run refs) so round-trip tests
cover the inverse kernels against an independent forward pass.  It is
literal-oriented (no entropy search) — the engine's media stages decode
far more than they encode.

Closes the last compressed-media seam behind `multimodal.decode_image`
(lossy VP8 stays NotImplementedError — see SURVEY §2.1 rich-doc seam).
Reference parity targets: lucene has no image codecs; the Solr-side
analog is extraction plumbing only, so correctness is defined by the
format spec + round-trip/property tests (same contract as
pipelines/jpeg.py and images.decode_png).
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["decode_webp", "encode_webp"]

from .images import codec_errors

# code-length-code symbol transmission order (spec §"Decoding the Code Lengths")
_CL_ORDER = [17, 18, 0, 1, 2, 3, 4, 5, 16, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]

# distance codes 1..120 → near-neighbor (dx, dy), the spec's literal table
# (RFC 9649 §4.2.2; libwebp kCodeToPlane packs it as yoffset << 4 |
# (8 - xoffset)).  dx > 0 is to the LEFT, dy > 0 rows UP: the backward
# pixel distance is dx + dy·width.
_CODE_TO_PLANE = (
    0x18, 0x07, 0x17, 0x19, 0x28, 0x06, 0x27, 0x29, 0x16, 0x1A,
    0x26, 0x2A, 0x38, 0x05, 0x37, 0x39, 0x15, 0x1B, 0x36, 0x3A,
    0x25, 0x2B, 0x48, 0x04, 0x47, 0x49, 0x14, 0x1C, 0x35, 0x3B,
    0x46, 0x4A, 0x24, 0x2C, 0x58, 0x45, 0x4B, 0x34, 0x3C, 0x03,
    0x57, 0x59, 0x13, 0x1D, 0x56, 0x5A, 0x23, 0x2D, 0x44, 0x4C,
    0x55, 0x5B, 0x33, 0x3D, 0x68, 0x02, 0x67, 0x69, 0x12, 0x1E,
    0x66, 0x6A, 0x22, 0x2E, 0x54, 0x5C, 0x43, 0x4D, 0x65, 0x6B,
    0x32, 0x3E, 0x78, 0x01, 0x77, 0x79, 0x53, 0x5D, 0x11, 0x1F,
    0x64, 0x6C, 0x42, 0x4E, 0x76, 0x7A, 0x21, 0x2F, 0x75, 0x7B,
    0x31, 0x3F, 0x63, 0x6D, 0x52, 0x5E, 0x00, 0x74, 0x7C, 0x41,
    0x4F, 0x10, 0x20, 0x62, 0x6E, 0x30, 0x73, 0x7D, 0x51, 0x5F,
    0x40, 0x72, 0x7E, 0x61, 0x6F, 0x50, 0x71, 0x7F, 0x60, 0x70,
)
_DIST_PLANE = [(8 - (c & 0xF), c >> 4) for c in _CODE_TO_PLANE]


def _plane_distance(code: int, w: int) -> int:
    """LZ77 distance code → backward pixel distance in a width-`w` image."""
    if code > 120:
        return code - 120
    dx, dy = _DIST_PLANE[code - 1]
    return max(1, dx + dy * w)  # < 1 only in very narrow images


_HASH_MUL = 0x1E35A7BD  # color-cache multiplicative hash


# --------------------------------------------------------------------------
# Bit I/O (LSB-first within bytes; prefix-code bits MSB-of-code-first)


class _BitReader:
    def __init__(self, data: bytes):
        self.d = data
        self.bit = 0

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        b, off = divmod(self.bit, 8)
        nbytes = (off + n + 7) // 8
        chunk = self.d[b : b + nbytes]
        if len(chunk) < nbytes:
            raise ValueError("VP8L bitstream truncated")
        self.bit += n
        return (int.from_bytes(chunk, "little") >> off) & ((1 << n) - 1)

    def read_sym(self, huff: "_Huff") -> int:
        if huff.single is not None:
            return huff.single
        code, length, m = 0, 0, huff.map
        while True:
            code = (code << 1) | self.read(1)
            length += 1
            s = m.get((length, code))
            if s is not None:
                return s
            if length > 15:
                raise ValueError("invalid prefix code in VP8L stream")


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, v: int, n: int):  # LSB-first
        self.acc |= (v & ((1 << n) - 1)) << self.n
        self.n += n
        while self.n >= 8:
            self.buf.append(self.acc & 0xFF)
            self.acc >>= 8
            self.n -= 8

    def write_code(self, code: int, length: int):  # MSB of the code first
        for i in range(length - 1, -1, -1):
            self.write((code >> i) & 1, 1)

    def bytes(self) -> bytes:
        out = bytes(self.buf)
        if self.n:
            out += bytes([self.acc & 0xFF])
        return out


# --------------------------------------------------------------------------
# Canonical prefix codes


class _Huff:
    """Canonical prefix code from per-symbol lengths (deflate ordering:
    by length, then symbol).  A single-symbol code consumes zero bits."""

    def __init__(self, lengths):
        syms = [(l, s) for s, l in enumerate(lengths) if l > 0]
        if not syms:
            raise ValueError("empty prefix code")
        if len(syms) == 1:
            self.single, self.map, self.book = syms[0][1], {}, {syms[0][1]: (0, 0)}
            return
        self.single = None
        syms.sort()
        code, prev_len, m, book = 0, 0, {}, {}
        for l, s in syms:
            code <<= l - prev_len
            m[(l, code)] = s
            book[s] = (l, code)
            code += 1
            prev_len = l
        if code != (1 << syms[-1][0]):
            raise ValueError("incomplete prefix code")
        self.map, self.book = m, book


def _limited_lengths(freqs: dict[int, int], limit: int) -> dict[int, int]:
    """Package-merge: optimal prefix-code lengths with max depth `limit`."""
    syms = sorted(freqs)
    if len(syms) <= 1:
        return {s: 0 for s in syms}
    if len(syms) > (1 << limit):
        raise ValueError("alphabet too large for depth limit")
    chains: list[list[tuple[int, tuple[int, ...]]]] = []
    base = sorted((freqs[s], (s,)) for s in syms)
    prev: list[tuple[int, tuple[int, ...]]] = []
    for _ in range(limit):
        merged = sorted(base + [(w1 + w2, t1 + t2) for (w1, t1), (w2, t2) in zip(prev[::2], prev[1::2])])
        chains.append(merged)
        prev = merged
    lengths = dict.fromkeys(syms, 0)
    for _, t in prev[: 2 * (len(syms) - 1)]:
        for s in t:
            lengths[s] += 1
    return lengths


# --------------------------------------------------------------------------
# LZ77 prefix-value coding (lengths and distance planes share it)


def _prefix_value(r: _BitReader, code: int) -> int:
    if code < 4:
        return code + 1
    extra = (code - 2) >> 1
    offset = (2 + (code & 1)) << extra
    return offset + r.read(extra) + 1


def _prefix_parts(v: int) -> tuple[int, int, int]:
    """value ≥ 1 → (prefix code, n extra bits, extra value)."""
    x = v - 1
    if x < 4:
        return x, 0, 0
    hb = x.bit_length() - 1
    extra = hb - 1
    return 2 * hb + ((x >> extra) & 1), extra, x & ((1 << extra) - 1)


def _cache_key(px: int, bits: int) -> int:
    return ((_HASH_MUL * px) & 0xFFFFFFFF) >> (32 - bits)


# --------------------------------------------------------------------------
# Decoder


def _read_prefix_code(r: _BitReader, alphabet: int) -> _Huff:
    if r.read(1):  # simple code: 1–2 symbols listed explicitly
        nsym = r.read(1) + 1
        s0 = r.read(8) if r.read(1) else r.read(1)
        if s0 >= alphabet:
            raise ValueError("simple prefix-code symbol exceeds alphabet")
        lengths = [0] * alphabet
        lengths[s0] = 1
        if nsym == 2:
            s1 = r.read(8)
            if s1 == s0:
                raise ValueError("duplicate symbol in simple prefix code")
            if s1 >= alphabet:
                raise ValueError("simple prefix-code symbol exceeds alphabet")
            lengths[s1] = 1
        else:
            return _Huff([0] * s0 + [1])  # single-symbol: zero-bit reads
        return _Huff(lengths)
    n_cl = 4 + r.read(4)
    cl_lens = [0] * 19
    for i in range(n_cl):
        cl_lens[_CL_ORDER[i]] = r.read(3)
    cl = _Huff(cl_lens)
    if r.read(1):
        nbits = 2 + 2 * r.read(3)
        max_symbol = 2 + r.read(nbits)
    else:
        max_symbol = alphabet
    lengths = [0] * alphabet
    prev, i = 8, 0
    while i < alphabet and max_symbol > 0:
        max_symbol -= 1
        c = r.read_sym(cl)
        if c < 16:
            lengths[i] = c
            i += 1
            if c:
                prev = c
        elif c == 16:
            rep = 3 + r.read(2)
            if i + rep > alphabet:
                raise ValueError("prefix-code repeat run exceeds alphabet")
            lengths[i : i + rep] = [prev] * rep
            i += rep
        elif c == 17:
            i += 3 + r.read(3)
        else:
            i += 11 + r.read(7)
    return _Huff(lengths)


def _read_groups(r: _BitReader, w: int, h: int, cache_bits: int, level0: bool):
    """(groups, meta index array | None, meta_bits) for one image stream."""
    meta, meta_bits = None, 0
    num_groups = 1
    if level0 and r.read(1):
        meta_bits = r.read(3) + 2
        mw, mh = -(-w >> meta_bits), -(-h >> meta_bits)
        mimg = _decode_image_stream(r, mw, mh, level0=False)
        meta = ((mimg >> 8) & 0xFFFF).astype(np.int64)  # (red<<8)|green
        num_groups = int(meta.max()) + 1
    green_alpha = 256 + 24 + ((1 << cache_bits) if cache_bits else 0)
    groups = []
    for _ in range(num_groups):
        groups.append([_read_prefix_code(r, a) for a in (green_alpha, 256, 256, 256, 40)])
    return groups, meta, meta_bits


def _decode_image_stream(r: _BitReader, w: int, h: int, level0: bool) -> np.ndarray:
    """One spatially-coded ARGB image (uint32 flat array, row-major).
    Transforms are read by the caller (only the level-0 stream has them)."""
    cache_bits = r.read(4) if r.read(1) else 0
    groups, meta, meta_bits = _read_groups(r, w, h, cache_bits, level0)
    cache = [0] * (1 << cache_bits) if cache_bits else None
    mw = -(-w >> meta_bits) if meta is not None else 0
    out = np.zeros(w * h, dtype=np.uint32)
    g = groups[0]
    i, n = 0, w * h
    while i < n:
        if meta is not None:
            y, x = divmod(i, w)
            g = groups[int(meta[(y >> meta_bits) * mw + (x >> meta_bits)])]
        s = r.read_sym(g[0])
        if s < 256:  # literal: green, red, blue, alpha
            red = r.read_sym(g[1])
            blue = r.read_sym(g[2])
            alpha = r.read_sym(g[3])
            px = (alpha << 24) | (red << 16) | (s << 8) | blue
            out[i] = px
            if cache is not None:
                cache[_cache_key(px, cache_bits)] = px
            i += 1
        elif s < 280:  # LZ77 backward reference
            length = _prefix_value(r, s - 256)
            dist = _plane_distance(_prefix_value(r, r.read_sym(g[4])), w)
            if dist > i or i + length > n:
                raise ValueError("VP8L backward reference out of bounds")
            for _ in range(length):  # may self-overlap: copy pixel-by-pixel
                px = int(out[i - dist])
                out[i] = px
                if cache is not None:
                    cache[_cache_key(px, cache_bits)] = px
                i += 1
        else:  # color-cache hit
            if cache is None:
                raise ValueError("cache symbol without a color cache")
            out[i] = cache[s - 280]
            i += 1
    return out


def _inv_subtract_green(px: np.ndarray) -> np.ndarray:
    g = (px >> 8) & 0xFF
    r = (((px >> 16) & 0xFF) + g) & 0xFF
    b = ((px & 0xFF) + g) & 0xFF
    return (px & 0xFF00FF00) | (r << 16) | b


def _ct_delta(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """ColorTransformDelta: (int8 t · int8 c) >> 5, arithmetic shift."""
    return (t.astype(np.int8).astype(np.int64) * c.astype(np.int8).astype(np.int64)) >> 5


def _inv_color_transform(px: np.ndarray, w: int, h: int, bits: int, cte: np.ndarray) -> np.ndarray:
    bw = -(-w >> bits)
    ys, xs = np.divmod(np.arange(w * h, dtype=np.int64), w)
    e = cte[(ys >> bits) * bw + (xs >> bits)]
    g2r, g2b, r2b = e & 0xFF, (e >> 8) & 0xFF, (e >> 16) & 0xFF
    g = (px >> 8) & 0xFF
    red = (((px >> 16) & 0xFF).astype(np.int64) + _ct_delta(g2r, g)) & 0xFF
    blue = ((px & 0xFF).astype(np.int64) + _ct_delta(g2b, g) + _ct_delta(r2b, red)) & 0xFF
    return (px & 0xFF00FF00) | (red.astype(np.uint32) << 16) | blue.astype(np.uint32)


def _unpack_argb(px: np.ndarray) -> np.ndarray:
    """uint32 ARGB flat → int64 (n, 4) [a, r, g, b]."""
    return np.stack([(px >> s) & 0xFF for s in (24, 16, 8, 0)], axis=1).astype(np.int64)


def _pack_argb(ch: np.ndarray) -> np.ndarray:
    a, r, g, b = (ch[:, i].astype(np.uint32) & 0xFF for i in range(4))
    return (a << 24) | (r << 16) | (g << 8) | b


def _avg2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a + b) >> 1


def _predict(mode: int, L, T, TL, TR) -> np.ndarray:
    """One predictor over (4,) int64 channel vectors [a,r,g,b]."""
    if mode == 0:
        return np.array([255, 0, 0, 0], dtype=np.int64)
    if mode == 1:
        return L
    if mode == 2:
        return T
    if mode == 3:
        return TR
    if mode == 4:
        return TL
    if mode == 5:
        return _avg2(_avg2(L, TR), T)
    if mode == 6:
        return _avg2(L, TL)
    if mode == 7:
        return _avg2(L, T)
    if mode == 8:
        return _avg2(TL, T)
    if mode == 9:
        return _avg2(T, TR)
    if mode == 10:
        return _avg2(_avg2(L, TL), _avg2(T, TR))
    if mode == 11:  # Select(T, L, TL): whichever T/L is closer to T+L−TL
        p_t = np.abs(L - TL).sum()
        p_l = np.abs(T - TL).sum()
        return T if p_t <= p_l else L
    if mode == 12:  # ClampAddSubtractFull
        return np.clip(L + T - TL, 0, 255)
    if mode == 13:  # ClampAddSubtractHalf (C truncating division)
        ave = _avg2(L, T)
        d = ave - TL
        return np.clip(ave + np.sign(d) * (np.abs(d) >> 1), 0, 255)
    raise ValueError(f"bad predictor mode {mode}")


def _inv_predictor(px: np.ndarray, w: int, h: int, bits: int, modes: np.ndarray) -> np.ndarray:
    """Sequential inverse predictor (raster order; TR of the rightmost
    column wraps to the leftmost pixel of the current row via flat i−w+1)."""
    bw = -(-w >> bits)
    ch = _unpack_argb(px)
    for i in range(w * h):
        y, x = divmod(i, w)
        if i == 0:
            pred = np.array([255, 0, 0, 0], dtype=np.int64)
        elif y == 0:
            pred = ch[i - 1]
        elif x == 0:
            pred = ch[i - w]
        else:
            mode = int((modes[(y >> bits) * bw + (x >> bits)] >> 8) & 0xFF)
            L, T, TL = ch[i - 1], ch[i - w], ch[i - w - 1]
            TR = ch[i - w + 1]  # flat index handles x==w−1 wrap
            pred = _predict(mode, L, T, TL, TR)
        ch[i] = (ch[i] + pred) & 0xFF
    return _pack_argb(ch)


def _inv_palette(px: np.ndarray, w: int, h: int, palette: np.ndarray, wbits: int) -> np.ndarray:
    if wbits:
        idx_bits = 8 >> wbits
        packed_w = -(-w >> wbits)
        green = ((px.reshape(h, packed_w) >> 8) & 0xFF).astype(np.int64)
        xs = np.arange(w, dtype=np.int64)
        shift = (xs & ((1 << wbits) - 1)) * idx_bits
        idx = (green[:, xs >> wbits] >> shift[None, :]) & ((1 << idx_bits) - 1)
        idx = idx.reshape(-1)
    else:
        idx = ((px >> 8) & 0xFF).astype(np.int64)
    out = np.zeros(idx.size, dtype=np.uint32)
    ok = idx < palette.size  # out-of-range palette index → 0x00000000
    out[ok] = palette[idx[ok]]
    return out


def _vp8l_decode(data: bytes) -> tuple[np.ndarray, int, int, bool]:
    if not data or data[0] != 0x2F:
        raise ValueError("bad VP8L signature")
    r = _BitReader(data[1:])
    w = r.read(14) + 1
    h = r.read(14) + 1
    alpha_hint = r.read(1)
    if r.read(3) != 0:
        raise ValueError("unknown VP8L version")
    cur_w = w
    transforms = []
    seen = set()
    while r.read(1):
        t = r.read(2)
        if t in seen:
            raise ValueError("repeated VP8L transform")
        seen.add(t)
        if t == 2:
            transforms.append(("subgreen",))
        elif t in (0, 1):
            bits = r.read(3) + 2
            img = _decode_image_stream(r, -(-cur_w >> bits), -(-h >> bits), level0=False)
            transforms.append(("pred" if t == 0 else "color", bits, img))
        else:  # color indexing
            psize = r.read(8) + 1
            praw = _decode_image_stream(r, psize, 1, level0=False)
            pch = np.cumsum(_unpack_argb(praw), axis=0) & 0xFF  # delta-coded
            palette = _pack_argb(pch)
            wbits = 3 if psize <= 2 else 2 if psize <= 4 else 1 if psize <= 16 else 0
            transforms.append(("palette", palette, wbits, cur_w))
            cur_w = -(-cur_w >> wbits) if wbits else cur_w
    px = _decode_image_stream(r, cur_w, h, level0=True)
    for t in reversed(transforms):
        if t[0] == "palette":
            px = _inv_palette(px, t[3], h, t[1], t[2])
            cur_w = t[3]
        elif t[0] == "subgreen":
            px = _inv_subtract_green(px)
        elif t[0] == "color":
            px = _inv_color_transform(px, cur_w, h, t[1], t[2])
        else:
            px = _inv_predictor(px, cur_w, h, t[1], t[2])
    return px, w, h, bool(alpha_hint)


@codec_errors
def decode_webp(b: bytes) -> np.ndarray:
    """WebP container → uint8 image array: (h, w, 3) RGB when the VP8L
    header's alpha hint is clear, else (h, w, 4) RGBA.  Lossy VP8 and
    animation payloads raise NotImplementedError (the declared seam)."""
    if len(b) < 12 or b[:4] != b"RIFF" or b[8:12] != b"WEBP":
        raise ValueError("not a WebP (RIFF/WEBP) payload")
    pos = 12
    while pos + 8 <= len(b):
        tag = b[pos : pos + 4]
        (size,) = struct.unpack("<I", b[pos + 4 : pos + 8])
        body = b[pos + 8 : pos + 8 + size]
        if tag == b"VP8L":
            px, w, h, alpha = _vp8l_decode(body)
            ch = _unpack_argb(px).astype(np.uint8).reshape(h, w, 4)
            rgba = ch[:, :, [1, 2, 3, 0]]  # ARGB → RGBA
            return rgba if alpha else np.ascontiguousarray(rgba[:, :, :3])
        if tag in (b"VP8 ", b"ANIM", b"ANMF"):
            raise NotImplementedError("only lossless (VP8L) WebP decodes here")
        pos += 8 + size + (size & 1)
    raise ValueError("no VP8L chunk in WebP container")


# --------------------------------------------------------------------------
# Encoder


def _write_prefix_code(bw: _BitWriter, freqs: dict[int, int], alphabet: int) -> dict[int, tuple[int, int]]:
    """Write one prefix code for the given symbol histogram; return the
    {symbol: (length, code)} book for the payload pass."""
    used = sorted(s for s, f in freqs.items() if f)
    if 1 <= len(used) <= 2 and used[-1] <= 255:
        bw.write(1, 1)  # simple
        bw.write(len(used) - 1, 1)
        if used[0] <= 1:
            bw.write(0, 1)
            bw.write(used[0], 1)
        else:
            bw.write(1, 1)
            bw.write(used[0], 8)
        if len(used) == 1:
            return {used[0]: (0, 0)}
        bw.write(used[1], 8)
        return {used[0]: (1, 0), used[1]: (1, 1)}
    bw.write(0, 1)  # normal: code-length-coded lengths
    lens = _limited_lengths({s: f for s, f in freqs.items() if f}, 15)
    lengths = [lens.get(s, 0) for s in range(alphabet)]
    # RLE the zero runs with CL symbols 17/18; literals otherwise
    seq: list[tuple[int, int, int]] = []  # (cl symbol, extra bits, extra val)
    i = 0
    while i < alphabet:
        if lengths[i] == 0:
            j = i
            while j < alphabet and lengths[j] == 0:
                j += 1
            run = j - i
            if j == alphabet:
                break  # trailing zeros are implicit (alphabet-bounded read)
            while run >= 11:
                take = min(run, 138)
                seq.append((18, 7, take - 11))
                run -= take
            while run >= 3:
                take = min(run, 10)
                seq.append((17, 3, take - 3))
                run -= take
            seq.extend((0, 0, 0) for _ in range(run))
            i = j
        else:
            seq.append((lengths[i], 0, 0))
            i += 1
    cl_freq: dict[int, int] = {}
    for s, _, _ in seq:
        cl_freq[s] = cl_freq.get(s, 0) + 1
    cl_lens = _limited_lengths(cl_freq, 7)
    if len(cl_lens) == 1:  # single-symbol CL code: pad to a complete code
        only = next(iter(cl_lens))
        cl_lens = {only: 1, (only + 1) % 19: 1}
    cl_arr = [cl_lens.get(s, 0) for s in range(19)]
    last = max(i for i, s in enumerate(_CL_ORDER) if cl_arr[s] > 0)
    n_cl = max(4, last + 1)
    bw.write(n_cl - 4, 4)
    for i in range(n_cl):
        bw.write(cl_arr[_CL_ORDER[i]], 3)
    # trailing zeros were dropped from `seq`, so the decoder must stop
    # after exactly len(seq) CL-symbol reads: emit the max_symbol shortcut
    # (max_symbol bounds the READ COUNT, not the symbol index — spec loop)
    bw.write(1, 1)
    nbits = max(2, -(-max(len(seq) - 2, 0).bit_length() // 2) * 2)
    bw.write((nbits - 2) // 2, 3)
    bw.write(len(seq) - 2, nbits)
    cl_book = _Huff(cl_arr).book
    for s, nbits, extra in seq:
        l, c = cl_book[s]
        bw.write_code(c, l)
        if nbits:
            bw.write(extra, nbits)
    return _Huff(lengths).book


def _fwd_predictor(px: np.ndarray, w: int, h: int, bits: int, mode: int) -> np.ndarray:
    """Forward residuals for a single fixed predictor mode (the inverse's
    exact mirror; neighbors are the ORIGINAL pixels — lossless)."""
    ch = _unpack_argb(px)
    res = np.empty_like(ch)
    for i in range(w * h):
        y, x = divmod(i, w)
        if i == 0:
            pred = np.array([255, 0, 0, 0], dtype=np.int64)
        elif y == 0:
            pred = ch[i - 1]
        elif x == 0:
            pred = ch[i - w]
        else:
            pred = _predict(mode, ch[i - 1], ch[i - w], ch[i - w - 1], ch[i - w + 1])
        res[i] = (ch[i] - pred) & 0xFF
    return _pack_argb(res)


def _fwd_color_transform(px: np.ndarray, cte: tuple[int, int, int]) -> np.ndarray:
    g2r, g2b, r2b = (np.asarray([v], dtype=np.int64) for v in cte)
    g = (px >> 8) & 0xFF
    red = (px >> 16) & 0xFF
    new_r = (red.astype(np.int64) - _ct_delta(g2r, g)) & 0xFF
    new_b = ((px & 0xFF).astype(np.int64) - _ct_delta(g2b, g) - _ct_delta(r2b, red)) & 0xFF
    return (px & 0xFF00FF00) | (new_r.astype(np.uint32) << 16) | new_b.astype(np.uint32)


def _emit_pixels(bw: _BitWriter, px: np.ndarray, cache_bits: int, rle: bool):
    """Tokenize (literals / dist-1 runs / cache hits), then huffman-code."""
    tokens: list[tuple] = []  # ("lit", px) | ("run", length) | ("hit", idx)
    cache = [None] * (1 << cache_bits) if cache_bits else None
    i, n = 0, px.size
    arr = px.astype(np.int64)
    while i < n:
        v = int(arr[i])
        if rle and i > 0 and v == int(arr[i - 1]):
            j = i
            while j < n and int(arr[j]) == v:
                j += 1
            # The length-prefix alphabet tops out at 4096 (24 prefix codes);
            # longer runs must be emitted as multiple back-reference tokens.
            run = j - i
            while run > 4096:
                tokens.append(("run", 4096))
                run -= 4096
            tokens.append(("run", run))
            if cache is not None:
                cache[_cache_key(v, cache_bits)] = v
            i = j
            continue
        if cache is not None:
            k = _cache_key(v, cache_bits)
            if cache[k] == v:
                tokens.append(("hit", k))
                i += 1
                continue
            cache[k] = v
        tokens.append(("lit", v))
        i += 1
    gf: dict[int, int] = {}
    rf: dict[int, int] = {}
    bf: dict[int, int] = {}
    af: dict[int, int] = {}
    df: dict[int, int] = {}
    for t in tokens:
        if t[0] == "lit":
            v = t[1]
            gf[(v >> 8) & 0xFF] = gf.get((v >> 8) & 0xFF, 0) + 1
            rf[(v >> 16) & 0xFF] = rf.get((v >> 16) & 0xFF, 0) + 1
            bf[v & 0xFF] = bf.get(v & 0xFF, 0) + 1
            af[(v >> 24) & 0xFF] = af.get((v >> 24) & 0xFF, 0) + 1
        elif t[0] == "run":
            code, _, _ = _prefix_parts(t[1])
            gf[256 + code] = gf.get(256 + code, 0) + 1
            dcode, _, _ = _prefix_parts(121)  # plane 121 → distance 1
            df[dcode] = df.get(dcode, 0) + 1
        else:
            gf[280 + t[1]] = gf.get(280 + t[1], 0) + 1
    if not df:
        df[0] = 1  # distance code is mandatory even when unused
    for f in (rf, bf, af):
        if not f:
            f[0] = 1
    green_alpha = 256 + 24 + ((1 << cache_bits) if cache_bits else 0)
    books = [
        _write_prefix_code(bw, gf, green_alpha),
        _write_prefix_code(bw, rf, 256),
        _write_prefix_code(bw, bf, 256),
        _write_prefix_code(bw, af, 256),
        _write_prefix_code(bw, df, 40),
    ]
    gb, rb, bb, ab, db = books
    for t in tokens:
        if t[0] == "lit":
            v = t[1]
            for book, sym in ((gb, (v >> 8) & 0xFF), (rb, (v >> 16) & 0xFF), (bb, v & 0xFF), (ab, (v >> 24) & 0xFF)):
                l, c = book[sym]
                bw.write_code(c, l)
        elif t[0] == "run":
            code, nb, ex = _prefix_parts(t[1])
            l, c = gb[256 + code]
            bw.write_code(c, l)
            if nb:
                bw.write(ex, nb)
            dcode, dnb, dex = _prefix_parts(121)
            l, c = db[dcode]
            bw.write_code(c, l)
            if dnb:
                bw.write(dex, dnb)
        else:
            l, c = gb[280 + t[1]]
            bw.write_code(c, l)


def encode_webp(
    img: np.ndarray,
    *,
    palette: bool = False,
    subtract_green: bool = False,
    predictor: int | None = None,
    color_transform: tuple[int, int, int] | None = None,
    cache_bits: int = 0,
    rle: bool = False,
) -> bytes:
    """uint8 (h, w, 3|4) image → lossless WebP bytes.

    Transform flags exercise the matching decoder inverses; they are
    applied in the spec's forward composition order (color-indexing is
    exclusive of the pixel transforms, as in the format)."""
    if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] not in (3, 4):
        raise ValueError("encode_webp wants uint8 (h, w, 3|4)")
    h, w = img.shape[:2]
    if not (1 <= w <= 16384 and 1 <= h <= 16384):
        raise ValueError("VP8L dimensions must be in [1, 16384]")
    has_alpha = img.shape[2] == 4
    ch = np.zeros((h * w, 4), dtype=np.int64)
    ch[:, 0] = img[:, :, 3].reshape(-1) if has_alpha else 255
    ch[:, 1:] = img[:, :, :3].reshape(-1, 3)
    px = _pack_argb(ch)
    if palette and (subtract_green or predictor is not None or color_transform):
        raise ValueError("color indexing composes with no other transform here")
    bw = _BitWriter()
    bw.write(w - 1, 14)
    bw.write(h - 1, 14)
    bw.write(1 if has_alpha else 0, 1)
    bw.write(0, 3)  # version
    cur_w = w
    if palette:
        colors, idx = np.unique(px, return_inverse=True)
        if colors.size > 256:
            raise ValueError("palette mode needs ≤256 distinct colors")
        bw.write(1, 1)
        bw.write(3, 2)
        bw.write(colors.size - 1, 8)
        pch = _unpack_argb(colors)
        deltas = _pack_argb(np.diff(np.vstack([np.zeros((1, 4), np.int64), pch]), axis=0) & 0xFF)
        _write_image_stream(bw, deltas, colors.size, cache_bits=0, rle=False, level0=False)
        wbits = 3 if colors.size <= 2 else 2 if colors.size <= 4 else 1 if colors.size <= 16 else 0
        if wbits:
            idx_bits = 8 >> wbits
            packed_w = -(-w >> wbits)
            packed = np.zeros((h, packed_w), dtype=np.int64)
            xs = np.arange(w, dtype=np.int64)
            shift = (xs & ((1 << wbits) - 1)) * idx_bits
            np.add.at(packed, (slice(None), xs >> wbits), idx.reshape(h, w) << shift[None, :])
            grn = packed.reshape(-1)
            cur_w = packed_w
        else:
            grn = idx
        px = _pack_argb(
            np.stack([np.full(grn.size, 255, np.int64), np.zeros(grn.size, np.int64), grn, np.zeros(grn.size, np.int64)], axis=1)
        )
    else:
        if predictor is not None:
            if not 0 <= predictor <= 13:
                raise ValueError("predictor mode must be 0..13")
            bits = 4
            bw.write(1, 1)
            bw.write(0, 2)
            bw.write(bits - 2, 3)
            bwid, bhei = -(-w >> bits), -(-h >> bits)
            modes = _pack_argb(
                np.stack(
                    [
                        np.full(bwid * bhei, 255, np.int64),
                        np.zeros(bwid * bhei, np.int64),
                        np.full(bwid * bhei, predictor, np.int64),
                        np.zeros(bwid * bhei, np.int64),
                    ],
                    axis=1,
                )
            )
            _write_image_stream(bw, modes, bwid, cache_bits=0, rle=False, level0=False)
            px = _fwd_predictor(px, w, h, bits, predictor)
        if color_transform is not None:
            bits = 4
            bw.write(1, 1)
            bw.write(1, 2)
            bw.write(bits - 2, 3)
            bwid, bhei = -(-w >> bits), -(-h >> bits)
            g2r, g2b, r2b = (v & 0xFF for v in color_transform)
            cte_px = np.full(bwid * bhei, (0xFF << 24) | (r2b << 16) | (g2b << 8) | g2r, dtype=np.uint32)
            _write_image_stream(bw, cte_px, bwid, cache_bits=0, rle=False, level0=False)
            px = _fwd_color_transform(px, color_transform)
        if subtract_green:
            bw.write(1, 1)
            bw.write(2, 2)
            g = (px >> 8) & 0xFF
            r = (((px >> 16) & 0xFF) - g) & 0xFF
            b = ((px & 0xFF) - g) & 0xFF
            px = (px & 0xFF00FF00) | (r << 16) | b
    bw.write(0, 1)  # end of transforms
    _write_image_stream(bw, px, cur_w, cache_bits=cache_bits, rle=rle)
    data = b"\x2f" + bw.bytes()
    chunk = b"VP8L" + struct.pack("<I", len(data)) + data + (b"\x00" if len(data) & 1 else b"")
    return b"RIFF" + struct.pack("<I", 4 + len(chunk)) + b"WEBP" + chunk


def _write_image_stream(
    bw: _BitWriter, px: np.ndarray, w: int, cache_bits: int, rle: bool, level0: bool = True
):
    """One spatially-coded image: cache bit, meta-prefix bit (level 0
    only — subimages never carry one), codes, pixels."""
    if cache_bits:
        bw.write(1, 1)
        bw.write(cache_bits, 4)
    else:
        bw.write(0, 1)
    if level0:
        bw.write(0, 1)  # no meta prefix codes
    _emit_pixels(bw, px, cache_bits, rle)
