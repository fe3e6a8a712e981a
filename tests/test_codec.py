"""Posting codec round-trip + block-meta consistency (FIXTURES.md F5;
pattern: lucene/test-framework BasePostingsFormatTestCase)."""

import numpy as np
import pytest

from lucene_solr_ray.index import codec


@pytest.mark.parametrize("n", [0, 1, 2, 127, 128, 129, 1000, 10_000])
def test_docs_freqs_roundtrip(n):
    rng = np.random.default_rng(n)
    docs = np.sort(rng.choice(np.int64(2) ** 40, size=n, replace=False)) if n else np.empty(0, np.int64)
    freqs = rng.integers(1, 1000, size=n)
    db, fb = codec.encode_postings(docs, freqs)
    assert (codec.decode_docs(db, n) == docs).all()
    assert (codec.decode_freqs(fb, n) == freqs).all()


def test_varbyte_large_gaps():
    vals = np.array([0, 1, 127, 128, 16383, 16384, 2**30, 2**40, 2**62], dtype=np.int64)
    assert (codec.varbyte_decode(codec.varbyte_encode(vals)) == vals).all()


def test_varbyte_encode_takes_lengths():
    vals = np.array([0, 1, 127, 128, 16383, 16384, 2**30, 2**40, 2**62], dtype=np.int64)
    lens = codec.varbyte_lengths(vals)
    assert lens.tolist() == [1, 1, 1, 2, 2, 3, 5, 6, 9]
    assert codec.varbyte_encode(vals, lens) == codec.varbyte_encode(vals)
    assert len(codec.varbyte_encode(vals)) == lens.sum()


def test_decode_count_mismatch_raises():
    buf = codec.varbyte_encode(np.array([1, 2, 3]))
    with pytest.raises(ValueError):
        codec.varbyte_decode(buf, 5)


def test_positions_roundtrip():
    rng = np.random.default_rng(7)
    freqs = rng.integers(1, 8, size=200)
    pos = np.concatenate(
        [np.sort(rng.choice(500, size=f, replace=False)) for f in freqs]
    )
    buf = codec.encode_positions(pos, freqs)
    flat, starts = codec.decode_positions(buf, freqs)
    assert (flat == pos).all()
    assert starts[0] == 0 and (np.diff(starts) == freqs[:-1]).all()


def test_block_meta_consistency():
    rng = np.random.default_rng(3)
    n = 1000
    docs = np.sort(rng.choice(100_000, size=n, replace=False)).astype(np.int64)
    freqs = rng.integers(1, 50, size=n)
    norms = rng.integers(0, 256, size=n)
    last, maxf, minn = codec.block_meta(docs, freqs, norms)
    nb = (n + codec.BLOCK_SIZE - 1) // codec.BLOCK_SIZE
    assert last.size == maxf.size == minn.size == nb
    for b in range(nb):
        sl = slice(b * codec.BLOCK_SIZE, (b + 1) * codec.BLOCK_SIZE)
        assert last[b] == docs[sl][-1]
        assert maxf[b] == freqs[sl].max()
        assert minn[b] == norms[sl].min()
    # last_doc strictly increasing across blocks (skip-list invariant)
    assert (np.diff(last) > 0).all()


def test_varbyte_decode_extremes():
    """2**63-1 is 9 bytes; values from 2**63 up take 10 and decode to the
    same 64 bits (as int64)."""
    vals = np.array([2**63 - 1, 2**63, 2**64 - 1, 2**56, 0, 1], dtype=np.uint64)
    assert codec.varbyte_lengths(vals).tolist() == [9, 10, 10, 9, 1, 1]
    buf = codec.varbyte_encode(vals)
    assert len(buf) == 40
    assert (codec.varbyte_decode(buf, vals.size).view(np.uint64) == vals).all()


def test_varbyte_decode_empty_and_concatenated():
    out = codec.varbyte_decode(b"")
    assert out.dtype == np.int64 and out.size == 0
    assert codec.varbyte_decode(b"", 0).size == 0
    rng = np.random.default_rng(11)
    parts = [rng.integers(0, 2 ** int(b), size=n) for b, n in ((3, 5), (40, 7), (62, 1), (14, 0), (20, 300))]
    buf = b"".join(codec.varbyte_encode(p) for p in parts)
    assert (codec.varbyte_decode(buf, sum(p.size for p in parts)) == np.concatenate(parts)).all()
    # a uint8 view decodes like the bytes it holds
    head = len(codec.varbyte_encode(parts[0])) + len(codec.varbyte_encode(parts[1]))
    view = np.frombuffer(buf, dtype=np.uint8)[:head]
    assert (codec.varbyte_decode(view, 12) == np.concatenate(parts[:2])).all()


@pytest.mark.parametrize("buf, count", [(b"", 1), (bytes([5, 6]), 1), (bytes([5, 6]), 3)])
def test_varbyte_decode_count_mismatch(buf, count):
    with pytest.raises(ValueError, match="expected"):
        codec.varbyte_decode(buf, count)


def test_varbyte_decode_truncated_stream_raises():
    buf = codec.varbyte_encode(np.array([1, 300]))
    with pytest.raises(ValueError, match="inside a value"):
        codec.varbyte_decode(buf[:-1])


@pytest.mark.parametrize("first_reset", [True, False])
def test_delta_decode_resets_inverts_encode(first_reset):
    rng = np.random.default_rng(5)
    lens = rng.integers(1, 40, size=60)
    vals = np.concatenate([np.sort(rng.choice(10**6, size=n, replace=False)) for n in lens])
    reset = np.zeros(vals.size, dtype=bool)
    reset[np.cumsum(lens) - lens] = True
    reset[0] = first_reset  # index 0 restarts whatever the mask says
    deltas = codec.delta_encode_resets(vals, reset)
    assert (codec.delta_decode_resets(deltas, reset) == vals).all()
    assert codec.delta_decode_resets(deltas[:0], reset[:0]).size == 0


@pytest.mark.parametrize("name", ["varbyte", "for"])
def test_decode_rows_is_per_row_decode(name):
    """Rows decoded in one call equal each row decoded on its own."""
    from lucene_solr_ray.index.for_codec import for_encode

    enc = for_encode if name == "for" else codec.varbyte_encode
    rng = np.random.default_rng(2)
    rows = [rng.integers(0, 2 ** int(rng.integers(1, 63)), size=int(n)) for n in rng.integers(1, 300, size=40)]
    cells = [enc(r) for r in rows]
    values = np.frombuffer(b"xx" + b"".join(cells), dtype=np.uint8)  # rows need not start at 0
    offs = 2 + np.concatenate([[0], np.cumsum([len(c) for c in cells])])
    counts = np.array([r.size for r in rows])
    assert (codec.decode_rows(values, offs, counts, name) == np.concatenate(rows)).all()
    assert (codec.decode_rows(values, offs[3:6], counts[3:5], name) == np.concatenate(rows[3:5])).all()
    assert codec.decode_rows(values, offs[:1], counts[:0], name).size == 0
    with pytest.raises(ValueError):
        codec.decode_rows(values, offs, counts + 1, name)
