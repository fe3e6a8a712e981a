"""Parent-block join + diversified top-k, dueled against a brute-force
reimplementation over the same corpus."""

import numpy as np
import pytest


@pytest.fixture(scope="module")
def ctx(ray_session):
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from lucene_solr_ray.fixtures import write_transcripts
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.oracle import BruteForceIndex
    from lucene_solr_ray.search import Searcher

    paths = write_transcripts("/tmp/lsr_bj_corpus", 120, 4)
    import shutil

    shutil.rmtree("/tmp/lsr_bj_index", ignore_errors=True)
    build_index(paths, "/tmp/lsr_bj_index", files_per_shard=2)
    full = pa.concat_tables(
        pq.read_table(p, columns=["conv_id", "turn_idx", "text", "role", "tool"]) for p in sorted(paths)
    )
    full = full.take(pc.sort_indices(full, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]))
    oracle = BruteForceIndex(
        full.column("text").to_pylist(),
        fields={"role": full.column("role").to_pylist(), "tool": full.column("tool").to_pylist()},
    )
    convs = full.column("conv_id").to_pylist()
    s = Searcher("/tmp/lsr_bj_index", num_actors=2)  # parents aggregated on each actor, merged
    yield s, oracle, convs
    s.close()


def _oracle_parents(oracle, convs, query, k, mode):
    hits = oracle.search(query, oracle.N)  # all matches, float32 scores
    agg = {}
    for d, s in hits:
        agg.setdefault(convs[d], []).append(float(s))
    comb = {"max": max, "total": sum, "avg": lambda xs: sum(xs) / len(xs)}[mode]
    ps = [(c, float(np.float32(comb(xs)))) for c, xs in agg.items()]
    ps.sort(key=lambda p: (-p[1], p[0]))
    return ps[:k]


@pytest.mark.parametrize("mode", ["max", "total", "avg"])
def test_parent_block_join(ctx, mode):
    s, oracle, convs = ctx
    for q in ["error", "bash ok", '"tool output"']:
        got = s.search_parents(q, 5, score_mode=mode)
        exp = _oracle_parents(oracle, convs, q, 5, mode)
        assert got == exp, (q, mode, got[:3], exp[:3])


def test_diversified_topk(ctx):
    s, oracle, convs = ctx
    for q, cap in [("error", 1), ("assistant", 2)]:
        got = s.search_diversified(q, 8, max_per_parent=cap)
        # brute force: rank all, greedy cap per conv
        hits = oracle.search(q, oracle.N)
        used, exp = {}, []
        for d, sc in hits:
            c = convs[d]
            if used.get(c, 0) >= cap:
                continue
            used[c] = used.get(c, 0) + 1
            exp.append((d, float(sc)))
            if len(exp) == 8:
                break
        assert got == exp, q
        # cap respected
        per = {}
        for d, _ in got:
            per[convs[d]] = per.get(convs[d], 0) + 1
        assert max(per.values()) <= cap


def _oracle_children(oracle, convs, query, k, mode):
    """ToChild oracle: parent scores via the ToParent oracle, then every
    child of a matching conv carries the parent score; (score desc, doc asc)."""
    parents = dict(_oracle_parents(oracle, convs, query, 10**9, mode))
    exp = [(d, parents[convs[d]]) for d in range(oracle.N) if convs[d] in parents]
    exp.sort(key=lambda p: (-p[1], p[0]))
    return exp[:k]


@pytest.mark.parametrize("mode", ["max", "total", "avg"])
def test_child_block_join(ctx, mode):
    s, oracle, convs = ctx
    for q in ["error", "bash ok", '"tool output"']:
        got = s.search_children(q, 12, score_mode=mode)
        exp = _oracle_children(oracle, convs, q, 12, mode)
        assert got == exp, (q, mode, got[:3], exp[:3])


def test_child_block_join_masks_deletes(ctx):
    s, oracle, convs = ctx
    s.clear_deletes()
    before = s.search_children("error", 20)
    assert before
    # delete one specific child doc; it must vanish from the child list but
    # its conv's parent score (computed from live children) may change
    victim = before[0][0]
    s.delete_by_query("error")  # deletes all matching children
    after = s.search_children("error", 20)
    assert after == []  # no live children match → no parents → no children
    s.clear_deletes()
    assert s.search_children("error", 20) == before


@pytest.mark.parametrize("order", ["asc", "desc"])
def test_childfield_sort(ctx, order):
    """childfield(turn_idx,$q): parents ranked by min (asc) / max (desc)
    turn_idx over their MATCHING children — dueled against a per-hit
    dict aggregation over the brute-force oracle."""
    s, oracle, convs = ctx
    import pyarrow.parquet as pq
    import pyarrow as pa

    full = pa.concat_tables(
        pq.read_table(p, columns=["conv_id", "turn_idx"])
        for p in sorted(__import__("glob").glob("/tmp/lsr_bj_corpus/*.parquet"))
    )
    import pyarrow.compute as pc

    full = full.take(
        pc.sort_indices(full, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    )
    tix = full.column("turn_idx").to_pylist()
    for q in ["error", "bash ok", '"tool output"']:
        got = s.search_parents_childfield(q, "turn_idx", 6, order=order)
        agg = {}
        for d, _ in oracle.search(q, oracle.N):
            c = convs[d]
            v = float(tix[d])
            if c not in agg:
                agg[c] = v
            else:
                agg[c] = min(agg[c], v) if order == "asc" else max(agg[c], v)
        exp = sorted(agg.items(), key=lambda p: (p[1] if order == "asc" else -p[1], p[0]))[:6]
        assert got == [(c, v) for c, v in exp], (q, order, got[:3], exp[:3])


def test_child_doc_transformer(ctx):
    """[child limit=N]: top-k parents each carry their first N child
    docIDs, straight from the fixture's conv → docID blocks."""
    s, oracle, convs = ctx
    q = "error"
    got = s.search_with_children(q, 4, child_limit=3)
    exp_parents = _oracle_parents(oracle, convs, q, 4, "max")
    assert [(c, sc) for c, sc, _ in got] == exp_parents
    carr = np.asarray(convs, dtype=object)
    for conv, _, kids in got:
        block = np.flatnonzero(carr == conv)
        assert kids == block[:3].tolist()
        assert 1 <= len(kids) <= 3
    # unlimited-ish child_limit returns the whole block
    conv0 = got[0][0]
    all_kids = s.search_with_children(q, 1, child_limit=10**6)[0][2]
    assert all_kids == np.flatnonzero(carr == conv0).tolist()
    assert s.search_with_children("zzzznope", 3) == []
