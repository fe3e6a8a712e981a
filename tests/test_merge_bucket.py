"""merge_bucket (vectorized whole-bucket merge) must be row-for-row
equivalent to merge_group (per-term reference implementation)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.fixtures import gen_conv_range
from lucene_solr_ray.index import codec
from lucene_solr_ray.index.build import POSTINGS_SCHEMA, invert_partition, merge_bucket


def merge_group(group: pa.Table) -> pa.Table:
    """Merge one (term, salt) group's partials → one encoded postings row.

    Partials come from disjoint, ordered docID ranges (one per pid), so the
    merge is a pid-ordered concatenation — no k-way heap needed.  The
    docID-sortedness is asserted (CheckIndex-style invariant, SURVEY.md §5).
    """
    order = pc.sort_indices(group, sort_keys=[("pid", "ascending")])
    group = group.take(order)
    docs = group.column("docs").combine_chunks().flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    freqs = group.column("freqs").combine_chunks().flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    norms = group.column("norms").combine_chunks().flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    positions = (
        group.column("positions").combine_chunks().flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    )
    if docs.size > 1 and not (np.diff(docs) > 0).all():
        raise AssertionError(f"postings not strictly increasing for term {group.column('term')[0]}")
    docs_b, freqs_b = codec.encode_postings(docs, freqs)
    pos_b = codec.encode_positions(positions, freqs)
    blk_last, blk_maxf, blk_minn = codec.block_meta(docs, freqs, norms)
    term = group.column("term")[0].as_py()
    salt = group.column("salt")[0].as_py()
    return pa.table(
        {
            "term": pa.array([term], type=pa.string()),
            "salt": pa.array([salt], type=pa.int32()),
            "df": pa.array([int(docs.size)], type=pa.int64()),
            "cf": pa.array([int(freqs.sum())], type=pa.int64()),
            "first_doc": pa.array([int(docs[0]) if docs.size else -1], type=pa.int64()),
            "last_doc": pa.array([int(docs[-1]) if docs.size else -1], type=pa.int64()),
            "docs": pa.array([docs_b], type=pa.binary()),
            "freqs": pa.array([freqs_b], type=pa.binary()),
            "norms": pa.array([norms.astype(np.uint8).tobytes()], type=pa.binary()),
            "positions": pa.array([pos_b], type=pa.binary()),
            "blk_last_doc": pa.array([blk_last.tolist()], type=pa.list_(pa.int64())),
            "blk_max_freq": pa.array([blk_maxf.tolist()], type=pa.list_(pa.int32())),
            "blk_min_norm": pa.array([blk_minn.tolist()], type=pa.list_(pa.int32())),
        },
        schema=POSTINGS_SCHEMA,
    )


def _set_pid(p, pid):
    i = p.schema.get_field_index("pid")
    return p.set_column(i, "pid", pa.array(np.full(p.num_rows, pid, dtype=np.int32)))


@pytest.fixture(scope="module")
def partials():
    t1 = gen_conv_range(0, 120, seed=7)
    t2 = gen_conv_range(120, 120, seed=7)
    hot = ["assistant", "user", "ok", "error"]
    p1, _ = invert_partition(t1, 0, hot, 0)
    p2, _ = invert_partition(t2, t1.num_rows, hot, 1)
    return pa.concat_tables([_set_pid(p1, 0), _set_pid(p2, 1)])


def test_equivalent_to_per_term_merge(partials):
    out = merge_bucket(partials)
    by_key = {}
    for i in range(out.num_rows):
        by_key[(out.column("term")[i].as_py(), out.column("salt")[i].as_py())] = i

    tk = partials.column("term_key").to_numpy(zero_copy_only=False)
    import collections

    idx_by_key = collections.defaultdict(list)
    for i, k in enumerate(tk):
        idx_by_key[k].append(i)
    assert len(idx_by_key) == out.num_rows

    for k, idxs in list(idx_by_key.items())[::5]:
        g = partials.take(pa.array(idxs)).drop_columns(["term_key", "bucket"])
        ref = merge_group(g)
        j = by_key[(ref.column("term")[0].as_py(), ref.column("salt")[0].as_py())]
        for col in ["df", "cf", "first_doc", "last_doc", "docs", "freqs", "norms",
                    "positions", "blk_last_doc", "blk_max_freq", "blk_min_norm"]:
            assert ref.column(col)[0].as_py() == out.column(col)[j].as_py(), (k, col)


def test_empty_bucket(partials):
    empty = partials.slice(0, 0)
    assert merge_bucket(empty).num_rows == 0


def test_overlapping_docids_rejected(partials):
    """Two partials with the same pid-range docIDs must trip the
    CheckIndex-style monotonicity assertion."""
    t = gen_conv_range(0, 50, seed=9)
    p, _ = invert_partition(t, 0, [], 0)
    bad = pa.concat_tables([_set_pid(p, 0), _set_pid(p, 1)])
    with pytest.raises(AssertionError, match="strictly increasing"):
        merge_bucket(bad)
