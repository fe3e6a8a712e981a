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
