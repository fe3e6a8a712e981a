"""FOR bit-packed block codec: round-trip + size/speed vs varbyte."""

import time

import numpy as np
import pytest

from lucene_solr_ray.index import codec
from lucene_solr_ray.index.for_codec import for_decode, for_decode_rows, for_encode, for_encode_rows


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 1000, 10_000])
def test_roundtrip(n):
    rng = np.random.default_rng(n)
    vals = rng.integers(0, 2**30, size=n)
    assert (for_decode(for_encode(vals)) == vals).all()


def test_roundtrip_deltas_like_postings():
    rng = np.random.default_rng(1)
    docs = np.sort(rng.choice(2**40, size=5000, replace=False)).astype(np.int64)
    deltas = codec.delta_encode(docs)
    out = codec.delta_decode(for_decode(for_encode(deltas)))
    assert (out == docs).all()


def test_zero_and_uniform_blocks():
    assert (for_decode(for_encode(np.zeros(300, dtype=np.int64))) == 0).all()
    v = np.full(129, 7, dtype=np.int64)
    assert (for_decode(for_encode(v)) == v).all()


def test_rows_encode_each_row_as_its_own_stream():
    """A column encoded in one call is each row's stream back to back: no
    block straddles a row, so every cell decodes on its own and the whole
    buffer decodes in one walk."""
    rng = np.random.default_rng(4)
    lens = np.array([0, 1, 127, 128, 129, 300, 0, 5, 1000, 2])
    off = np.concatenate([[0], np.cumsum(lens)])
    vals = rng.integers(0, 2**12, size=off[-1])
    vals[rng.integers(0, off[-1], 40)] = rng.integers(0, 2**62, 40)  # patched exceptions
    vals[off[8] : off[8] + 50] = rng.integers(2**60, 2**63 - 1, 50)  # wider than 56 bits
    buf, byte_off = for_encode_rows(vals, off)
    assert byte_off[0] == 0 and byte_off[-1] == len(buf)
    for i in range(lens.size):
        cell = buf[byte_off[i] : byte_off[i + 1]]
        assert cell == for_encode(vals[off[i] : off[i + 1]]), i
        assert (for_decode(cell, int(lens[i])) == vals[off[i] : off[i + 1]]).all(), i
    assert (for_decode_rows(buf, byte_off, lens) == vals).all()
    with pytest.raises(ValueError):
        for_decode_rows(buf, byte_off, lens + 1)
    buf0, off0 = for_encode_rows(vals[:0], [0])  # no rows
    assert buf0 == b"" and off0.tolist() == [0]


def test_negative_rejected():
    with pytest.raises(ValueError):
        for_encode(np.array([-1]))


def test_size_vs_varbyte_on_small_gaps():
    """Dense posting deltas (small gaps) pack tighter than varbyte's
    one-byte-per-value floor — the reason Lucene uses FOR blocks."""
    rng = np.random.default_rng(2)
    gaps = rng.integers(1, 30, size=20_000)  # ≤5 bits
    fb = for_encode(gaps)
    vb = codec.varbyte_encode(gaps)
    assert len(fb) < 0.8 * len(vb), (len(fb), len(vb))
    # decode speed sanity (not a benchmark, just "not pathological")
    t0 = time.perf_counter()
    for_decode(fb)
    assert time.perf_counter() - t0 < 0.5


def test_build_with_for_codec_duel(ray_session, tmp_path):
    """build_index(codec='for') round-trips: search results are identical
    to the varbyte build on the same corpus, and the manifest records the
    codec; postings bytes are smaller or comparable."""
    from lucene_solr_ray.fixtures import write_transcripts
    from lucene_solr_ray.index import build_index
    from lucene_solr_ray.search import Searcher

    paths = write_transcripts(str(tmp_path / "corpus"), 300, 4)
    build_index(paths, tmp_path / "vb", files_per_shard=2, resume=False)
    build_index(paths, tmp_path / "for", files_per_shard=2, resume=False, codec="for")
    import json

    assert json.loads((tmp_path / "for" / "manifest.json").read_text())["config"]["codec"] == "for"
    s1 = Searcher(tmp_path / "vb")
    s2 = Searcher(tmp_path / "for")
    try:
        for q in ["assistant", "error ok", '"tool output"', "+bash w00002", "w0000*", '"tool output"~3']:
            assert s1.search(q, 10) == s2.search(q, 10), q
    finally:
        s1.close()
        s2.close()

    def postings_bytes(d, min_df):
        import glob

        import pyarrow.parquet as pq

        total = 0
        for f in glob.glob(f"{d}/shards/*/*.parquet"):
            t = pq.read_table(f, columns=["df", "docs", "freqs", "positions"])
            dfs = t.column("df").to_pylist()
            for c in ("docs", "freqs", "positions"):
                for df_, v in zip(dfs, t.column(c)):
                    if df_ >= min_df:
                        total += len(v.as_py())
        return total

    # block codecs win on LONG lists; short lists pay the per-block header
    vb_long = postings_bytes(tmp_path / "vb", 128)
    fo_long = postings_bytes(tmp_path / "for", 128)
    assert fo_long < vb_long, (vb_long, fo_long)
