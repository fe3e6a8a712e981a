"""WebP lossless (VP8L) codec — round-trips exercising every decoder
path (all four transforms, all 14 predictor modes, color cache, LZ77
runs), spec vectors for the distance plane, and container handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_solr_ray.pipelines.webp import (
    _DIST_PLANE,
    _Huff,
    _limited_lengths,
    _plane_distance,
    _prefix_parts,
    decode_webp,
    encode_webp,
)


def _rt(img, **kw):
    out = decode_webp(encode_webp(img, **kw))
    assert out.shape == img.shape and out.dtype == np.uint8
    assert np.array_equal(out, img)
    return out


def _rand(h, w, ch, seed):
    return np.random.default_rng(seed).integers(0, 256, (h, w, ch), dtype=np.uint8)


def test_distance_plane_spec_head():
    # first 10 entries of the spec's literal table (RFC 9649 §4.2.2), as
    # (xi, yi) with xi > 0 to the left
    head = [(0, 1), (1, 0), (1, 1), (-1, 1), (0, 2), (2, 0), (1, 2), (-1, 2), (2, 1), (-2, 1)]
    assert _DIST_PLANE[:10] == head
    assert _DIST_PLANE[-1] == (8, 7)
    assert len(_DIST_PLANE) == 120
    assert len(set(_DIST_PLANE)) == 120


def test_plane_code_to_distance():
    w = 10
    assert _plane_distance(1, w) == w  # directly above
    assert _plane_distance(2, w) == 1  # left neighbour
    assert _plane_distance(3, w) == w + 1  # top-left
    assert _plane_distance(4, w) == w - 1  # top-right
    assert _plane_distance(6, w) == 2  # two to the left
    assert _plane_distance(121, w) == 1  # codes > 120 are plain distances
    assert _plane_distance(10, 1) == 1  # negative reach clamps to 1


def test_prefix_value_parts_inverse():
    # prefix-code value coding round-trips over the LZ77 value range
    from lucene_solr_ray.pipelines.webp import _BitReader, _BitWriter, _prefix_value

    for v in list(range(1, 300)) + [1024, 4096, 99999]:
        code, nbits, extra = _prefix_parts(v)
        bw = _BitWriter()
        bw.write(extra, nbits)
        r = _BitReader(bw.bytes() + b"\x00")
        assert _prefix_value(r, code) == v


def test_limited_lengths_kraft_and_limit():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n = int(rng.integers(2, 280))
        freqs = {s: int(rng.integers(1, 1000)) for s in range(n)}
        for limit in (7, 15):
            if n > (1 << limit):
                continue
            lens = _limited_lengths(freqs, limit)
            assert max(lens.values()) <= limit
            assert sum(2.0 ** -l for l in lens.values()) == pytest.approx(1.0)
            _Huff([lens.get(s, 0) for s in range(n)])  # canonical build succeeds


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    seed=st.integers(0, 2**31),
    alpha=st.booleans(),
)
def test_roundtrip_plain(h, w, seed, alpha):
    _rt(_rand(h, w, 4 if alpha else 3, seed))


def test_roundtrip_subtract_green_and_cache_and_rle():
    img = _rand(17, 23, 3, 1)
    _rt(img, subtract_green=True)
    _rt(img, cache_bits=6)
    _rt(img, subtract_green=True, cache_bits=3)
    # runs → LZ77 backward references (dist-1 copies, overlap semantics)
    runs = np.repeat(_rand(5, 4, 3, 2), 9, axis=1)  # horizontal runs
    runs[3, :, :] = 7  # one constant row
    _rt(runs, rle=True)
    _rt(runs, rle=True, cache_bits=4)
    solid = np.full((9, 31, 4), 200, np.uint8)
    _rt(solid, rle=True)


@pytest.mark.parametrize("mode", range(14))
def test_roundtrip_all_predictor_modes(mode):
    img = _rand(21, 19, 3, 100 + mode)
    _rt(img, predictor=mode)
    # smooth gradients stress the clamp/select arithmetic differently
    x, y = np.meshgrid(np.arange(19), np.arange(21))
    grad = np.stack([x * 13 % 256, y * 7 % 256, (x + y) % 256], axis=-1).astype(np.uint8)
    _rt(grad, predictor=mode)


def test_roundtrip_color_transform():
    img = _rand(18, 22, 4, 5)
    for cte in [(0, 0, 0), (1, 2, 3), (255, 128, 64), (-3 & 0xFF, 17, -90 & 0xFF)]:
        _rt(img, color_transform=cte)
    _rt(img, color_transform=(42, 99, 7), subtract_green=True, predictor=11)


@pytest.mark.parametrize("ncolors", [1, 2, 3, 4, 9, 16, 17, 200, 256])
def test_roundtrip_palette(ncolors):
    rng = np.random.default_rng(ncolors)
    colors = rng.integers(0, 256, (ncolors, 3), dtype=np.uint8)
    idx = rng.integers(0, ncolors, (13, 29))
    img = colors[idx]
    out = _rt(img, palette=True)
    assert len(np.unique(out.reshape(-1, 3), axis=0)) <= ncolors
    # width 1 exercises the packed sub-byte path's last-column handling
    _rt(colors[rng.integers(0, ncolors, (7, 1))], palette=True)
    with pytest.raises(ValueError):
        encode_webp(img, palette=True, subtract_green=True)


def test_palette_too_many_colors_rejected():
    img = np.arange(2 * 400 * 3, dtype=np.uint8).reshape(2, 400, 3)
    img[1] = 255 - img[0]
    if len(np.unique(img.reshape(-1, 3), axis=0)) > 256:
        with pytest.raises(ValueError):
            encode_webp(img, palette=True)


def test_container_and_rejects():
    img = _rand(4, 4, 3, 9)
    b = encode_webp(img)
    assert b[:4] == b"RIFF" and b[8:12] == b"WEBP" and b[12:16] == b"VP8L"
    with pytest.raises(ValueError):
        decode_webp(b"not a webp at all")
    with pytest.raises(NotImplementedError):
        decode_webp(b"RIFF\x10\x00\x00\x00WEBPVP8 \x04\x00\x00\x00abcd")
    with pytest.raises(ValueError):
        decode_webp(b"RIFF\x04\x00\x00\x00WEBP")  # no VP8L chunk
    with pytest.raises(ValueError):
        encode_webp(img.astype(np.int32))
    with pytest.raises(ValueError):
        encode_webp(img[:, :, :2])
    # truncated stream
    with pytest.raises(ValueError):
        decode_webp(b[: len(b) - max(4, len(b) // 3)])


def test_alpha_hint_drives_channel_count():
    rgb = _rand(6, 6, 3, 11)
    assert decode_webp(encode_webp(rgb)).shape == (6, 6, 3)
    rgba = _rand(6, 6, 4, 12)
    assert decode_webp(encode_webp(rgba)).shape == (6, 6, 4)


def test_multimodal_decode_image_routes_webp():
    from lucene_solr_ray.pipelines.multimodal import decode_image

    img = _rand(8, 10, 3, 13)
    assert np.array_equal(decode_image(encode_webp(img)), img)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31), mode=st.integers(0, 13), cb=st.integers(0, 8))
def test_roundtrip_fuzz_transform_combos(seed, mode, cb):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 33)), int(rng.integers(1, 33))
    img = rng.integers(0, 256, (h, w, int(rng.choice([3, 4]))), dtype=np.uint8)
    _rt(img, predictor=mode, subtract_green=bool(seed & 1), cache_bits=cb, rle=bool(seed & 2))


def test_rle_runs_longer_than_4096_are_chunked():
    # The VP8L length-prefix alphabet tops out at 4096; a 4900-pixel
    # constant run must round-trip via multiple back-reference tokens.
    img = np.full((70, 70, 3), 5, np.uint8)
    for cb in (0, 4):
        assert np.array_equal(decode_webp(encode_webp(img, rle=True, cache_bits=cb)), img)


def test_malformed_prefix_codes_raise_valueerror():
    from lucene_solr_ray.pipelines.webp import _BitReader, _read_prefix_code
    import pytest

    # simple 1-symbol code naming a symbol past a tiny alphabet:
    # bits (LSB-first per write order): simple=1, nsym-1=0, 8bit-flag=1, symbol=8 bits
    val = 1 | (0 << 1) | (1 << 2) | (200 << 3)
    raw = val.to_bytes(3, "little")
    with pytest.raises(ValueError):
        _read_prefix_code(_BitReader(raw), alphabet=40)
