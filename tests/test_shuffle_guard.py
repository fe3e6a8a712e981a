"""The bounded hash-bucket shuffle lives in ONE place,
`lucene_solr_ray.pipelines.common.bucketed`.  These tests pin its bucketer
and scan the pipeline sources so no site re-grows its own width literal,
hash or groupby → map_groups chain."""

import ast
from pathlib import Path

import numpy as np
import pandas as pd

PIPELINES = Path(__file__).resolve().parents[1] / "lucene_solr_ray" / "pipelines"

# (file, groupby key) of the shuffles that stay hand-written: the group key
# carries meaning (a real column, range buckets in prefix-scan order) or
# the group fn reads the bucket identity
ALLOWED_GROUPBY = {
    ("ann.py", "band"),
    ("ann.py", "cell"),
    ("dedup.py", "pb"),
    ("dedup.py", ("lang", "source")),
    ("quality.py", "rb"),
    ("relational.py", "c_mktsegment"),
    ("text.py", "rb"),
}


def _callee(node) -> str | None:
    if isinstance(node, ast.Call):
        f = node.func
        return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
    return None


def _is_512(node) -> bool:
    if _callee(node) and len(node.args) == 1:  # np.int64(512)
        node = node.args[0]
    return isinstance(node, ast.Constant) and node.value == 512


def _groupby_key(call: ast.Call):
    try:
        key = ast.literal_eval(call.args[0])
    except (IndexError, ValueError):
        return None
    return tuple(key) if isinstance(key, list) else key


def shuffle_violations(source: str, fname: str) -> list[str]:
    """→ one message per hand-rolled bucket shuffle piece in `source`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        where = f"{fname}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            if _callee(node.left) == "hash_array":
                out.append(f"{where}: hash_array(...) % n — use common.bucket_of")
            if _is_512(node.right):
                out.append(f"{where}: literal 512 bucket width — use common.SHUFFLE_BUCKETS")
        elif isinstance(node, ast.Assign) and _is_512(node.value):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if any("BUCKET" in n.upper() for n in names):
                out.append(f"{where}: literal 512 bucket width — use common.SHUFFLE_BUCKETS")
        elif isinstance(node, ast.arguments):
            args = node.posonlyargs + node.args
            pairs = list(zip(args[len(args) - len(node.defaults):], node.defaults))
            pairs += [(a, d) for a, d in zip(node.kwonlyargs, node.kw_defaults) if d is not None]
            for a, d in pairs:
                if "bucket" in a.arg.lower() and _is_512(d):
                    out.append(f"{where}: literal 512 bucket width default — use common.SHUFFLE_BUCKETS")
        elif _callee(node) == "map_groups":
            recv = node.func.value
            key = _groupby_key(recv) if _callee(recv) == "groupby" else None
            if (fname, key) not in ALLOWED_GROUPBY:
                out.append(f"{where}: groupby({key!r}).map_groups — use common.bucketed")
    return out


def test_pipelines_use_the_shared_bucketed_shuffle():
    found = []
    for path in sorted(PIPELINES.glob("*.py")):
        if path.name != "common.py":
            found += shuffle_violations(path.read_text(), path.name)
    assert not found, "\n".join(found)


def test_guard_catches_hand_rolled_shuffles():
    src = """
N_BUCKETS = 512
def f(ds, nbuckets=512):
    ds["gb"] = pd.util.hash_array(ds["k"].to_numpy()) % 64
    ds["b"] = ds["k"] % np.int64(512)
    return ds.groupby("gb").map_groups(g, batch_format="pandas")
"""
    assert len(shuffle_violations(src, "x.py")) == 5
    ok = 'ds.groupby("rb").map_groups(g)'
    assert shuffle_violations(ok, "text.py") == []
    assert len(shuffle_violations(ok, "x.py")) == 1


def test_bucket_of_integer_keys_are_their_residue():
    from lucene_solr_ray.pipelines.common import bucket_of

    k = np.array([-7, 0, 5, 511, 512, 2**40 + 3], dtype=np.int64)
    np.testing.assert_array_equal(bucket_of(k, 512), k % 512)
    u = np.array([2**63 + 9, 17], dtype=np.uint64)
    np.testing.assert_array_equal(bucket_of(u, 64), [(2**63 + 9) % 64, 17])
    assert bucket_of(k, 512).dtype == np.int64


def test_bucket_of_hashed_keys_colocate_equal_values():
    from lucene_solr_ray.pipelines.common import bucket_of

    s = pd.Series(["merge", "shard", "merge", "", "ünïcode"], dtype=object)
    b = bucket_of(s, 7)
    assert ((0 <= b) & (b < 7)).all() and b[0] == b[2]
    # the same strings bucket identically however they are held
    np.testing.assert_array_equal(b, bucket_of(s.to_numpy().astype(str), 7))
    np.testing.assert_array_equal(b, bucket_of(s.astype("string"), 7))
    f = np.array([0.5, 1e300, 0.5])
    assert bucket_of(f, 9)[0] == bucket_of(f, 9)[2]
    rows = pd.DataFrame({"a": ["x", "y", "x"], "n": [1, 2, 1]})
    rb = bucket_of(rows, 5)
    assert rb[0] == rb[2] and ((0 <= rb) & (rb < 5)).all()
