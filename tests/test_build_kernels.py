"""The build's whole-array kernels against per-term / per-doc references.

`sample_hot_terms` analyzes its sample in one `analyze_batch` call and
counts df with numpy; `reference_hot_terms` below is the scalar loop it
replaced (a dict over `tokenize`, one doc at a time).  `invert_partition`
finds hot terms by binary search in its sorted term array; the reference
is `np.isin`.  `_binary_cells` refuses a column its int32 offsets cannot
address instead of wrapping."""

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.analysis import tokenize
from lucene_solr_ray.fixtures import gen_conv_range
from lucene_solr_ray.index.build import (
    HOT_DF_FRAC,
    KEYWORD_FIELDS,
    SALT_SEP,
    _binary_cells,
    invert_partition,
    sample_hot_terms,
)

SAMPLE_DOCS = 400  # 100 docs a file


def reference_hot_terms(paths: list[str], sample_docs: int = 4000) -> list[str]:
    """The scalar hot-term sample: `tokenize` one doc at a time."""
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
        for txt in t.column("text").to_pylist()[:take]:
            n += 1
            for term in {t for t, _ in tokenize(txt or "")}:
                df_counts[term] = df_counts.get(term, 0) + 1
        for k in KEYWORD_FIELDS:
            if k in names:
                for v in t.column(k).unique().to_pylist():
                    if v is not None:
                        hot_kw.add(f"{k}:{v}")
    if n == 0:
        return []
    return sorted({t for t, c in df_counts.items() if c / n >= HOT_DF_FRAC} | hot_kw)


def _texts(rng, n: int) -> list[str]:
    """Zipf-ish words over a 400-word vocabulary: some terms clear the 2%
    df bar in a 100-400 doc sample and many do not."""
    vocab = np.array([f"w{i:03d}" for i in range(400)], dtype=object)
    p = 1.0 / np.arange(1, 401)
    p /= p.sum()
    return [" ".join(rng.choice(vocab, size=int(rng.integers(3, 15)), p=p)) for _ in range(n)]


def _write(path, texts, *, role=True, tool=True, row_group_size=None) -> str:
    n = len(texts)
    cols = {
        "conv_id": pa.array([f"c{i // 4:05d}" for i in range(n)]),
        "turn_idx": pa.array(np.arange(n) % 4),
        "text": pa.array(texts, type=pa.string()),
    }
    if role:
        cols["role"] = pa.array(["user", "assistant"] * (n // 2) + ["user"] * (n % 2))
    if tool:
        cols["tool"] = pa.array([("bash" if i % 7 == 0 else None) for i in range(n)], type=pa.string())
    pq.write_table(pa.table(cols), path, row_group_size=row_group_size)
    return str(path)


def _files(tmp_path, k: int, **kw) -> list[str]:
    rng = np.random.default_rng(k)
    return [_write(tmp_path / f"part-{i:05d}.parquet", _texts(rng, 150), **kw) for i in range(k)]


def _check(paths):
    got = sample_hot_terms(paths, SAMPLE_DOCS)
    assert got == reference_hot_terms(paths, SAMPLE_DOCS)
    return got


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_sample_equals_scalar_reference(tmp_path, k):
    """1, 2 and 3 files sample a deduplicated set of files (every one of
    them); 5 files sample 4 of them."""
    got = _check(_files(tmp_path, k))
    words = [t for t in got if ":" not in t]
    assert words and len(words) < 400  # some terms are hot and some are not
    assert {"role:user", "role:assistant", "tool:bash"} <= set(got)


def test_sample_null_text(tmp_path):
    rng = np.random.default_rng(1)
    texts = _texts(rng, 150)
    texts[::3] = [None] * len(texts[::3])
    paths = [_write(tmp_path / "a.parquet", texts), _write(tmp_path / "b.parquet", [None] * 50)]
    _check(paths)


def test_sample_long_token_and_stopword_rows(tmp_path):
    """A token over 255 chars sends its row down `analyze_batch`'s scalar
    fallback; stopword-only rows count towards n but give no terms."""
    rng = np.random.default_rng(2)
    texts = _texts(rng, 150)
    texts[3] = "w000 " + "x" * 300 + " w001 w001"
    texts[10:60] = ["the and of a", "is it to"] * 25
    got = _check([_write(tmp_path / "a.parquet", texts)])
    assert "x" * 255 not in got
    paths = [_write(tmp_path / "b.parquet", ["the a of"] * 40)]
    assert _check(paths) == ["role:assistant", "role:user", "tool:bash"]


def test_sample_without_keyword_columns(tmp_path):
    got = _check(_files(tmp_path, 3, role=False, tool=False))
    assert got and not any(":" in t for t in got)
    mixed = [_write(tmp_path / "k.parquet", _texts(np.random.default_rng(3), 80), tool=False)]
    _check(_files(tmp_path, 2, role=False) + mixed)


def test_sample_short_first_row_group(tmp_path):
    """The sample reads row group 0 only, however short it is."""
    rng = np.random.default_rng(4)
    paths = [
        _write(tmp_path / "a.parquet", _texts(rng, 150), row_group_size=30),
        _write(tmp_path / "b.parquet", _texts(rng, 150), row_group_size=7),
        _write(tmp_path / "c.parquet", _texts(rng, 150)),
    ]
    _check(paths)


@pytest.fixture(scope="module")
def table():
    return gen_conv_range(0, 60, seed=11)


def _terms(table) -> list[str]:
    p, _ = invert_partition(table, 0, [], 0, 1)
    return p.column("term").to_pylist()


HOT_LISTS = {
    "outside_range": lambda terms: ["!", "\uffff", terms[0], terms[-1]],
    "absent": lambda terms: ["nosuchterm", terms[len(terms) // 2] + "zz"],
    "keyword": lambda terms: ["role:user", "tool:bash", "role:nosuch"],
    "unsorted_dupes": lambda terms: [terms[5], terms[2], terms[5], "ok", "error"],
    "empty": lambda terms: [],
}


@pytest.mark.parametrize("case", sorted(HOT_LISTS))
@pytest.mark.parametrize("n_buckets", [1, 8])
def test_salt_matches_isin_reference(table, case, n_buckets):
    terms = _terms(table)
    assert terms == sorted(terms) and "role:user" in terms
    hot = HOT_LISTS[case](terms)
    p, _ = invert_partition(table, 0, hot, 3, n_buckets)
    got_terms = np.asarray(p.column("term").to_pylist(), dtype=object)
    want_salt = np.where(np.isin(got_terms, np.asarray(hot, dtype=object)), 3, 0)
    assert p.column("salt").to_pylist() == want_salt.tolist()
    assert (want_salt > 0).any() == (case not in ("absent", "empty"))
    want_keys = [t if s == 0 else f"{t}{SALT_SEP}{s}" for t, s in zip(got_terms, want_salt)]
    assert p.column("term_key").to_pylist() == want_keys
    want_bucket = [zlib.crc32(k.encode()) % n_buckets for k in want_keys]
    assert p.column("bucket").to_pylist() == want_bucket
    if n_buckets > 1:
        assert len(set(want_bucket)) > 1


def test_binary_cells():
    col = _binary_cells(b"abcdef", np.array([0, 2, 2, 6]))
    assert col.equals(pa.array([b"ab", b"", b"cdef"], type=pa.binary()))
    with pytest.raises(OverflowError, match="int32"):
        _binary_cells(b"ab", np.array([0, 2, 2**31], dtype=np.int64))
