"""Seeded index-lifecycle state-machine fuzz: delete_by_query, in-place dv
updates, and compaction interleaved, with search / sorted-search dueled
against a brute-force model after every step (live-docs semantics: term
stats stay pinned at the commit, deletes mask at read; dv views reflect
the latest sidecars; compaction preserves both)."""

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_solr_ray.fixtures import write_transcripts
from lucene_solr_ray.index import build_index
from lucene_solr_ray.index.compact import compact_index
from lucene_solr_ray.oracle import BruteForceIndex
from lucene_solr_ray.search import Searcher


def _open(idx):
    """One actor per shard, up to the session's CPUs: deletes and dv
    updates land on several actors, at every compaction."""
    import ray

    shards = json.loads((Path(idx) / "manifest.json").read_text())["shards"]
    return Searcher(idx, num_actors=min(len(shards), int(ray.cluster_resources()["CPU"])))


def test_lifecycle_fuzz(ray_session, tmp_path):
    import random

    rng = random.Random(4242)
    paths = write_transcripts(str(tmp_path / "corpus"), 140, 7)
    idx = str(tmp_path / "idx")
    build_index(paths, idx, files_per_shard=1)
    tables = [pq.read_table(p) for p in sorted(paths)]
    full = pa.concat_tables(tables)
    import pyarrow.compute as pc

    full = full.take(
        pc.sort_indices(full, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    )
    texts = full.column("text").to_pylist()
    oracle = BruteForceIndex(
        texts,
        fields={
            "role": full.column("role").to_pylist(),
            "tool": full.column("tool").to_pylist(),
        },
    )
    N = len(texts)
    alive = np.ones(N, bool)
    turn = full.column("turn_idx").to_numpy().astype(np.float64).copy()
    queries = ["assistant", "error ok", "+role:tool", '"tool output"', "answer"]
    del_queries = ["#role:tool", "error", "w00007", "#tool:bash"]

    def check(s):
        for q in rng.sample(queries, 2):
            exp = [(d, float(sc)) for d, sc in oracle.search(q, 10**6) if alive[d]][:10]
            assert s.search(q, 10) == exp, q
        q = rng.choice(queries)
        matches = [d for d, _ in oracle.search(q, 10**6) if alive[d]]
        order = sorted(matches, key=lambda d: (turn[d], d))[:8]
        got = s.search_sorted(q, "turn_idx asc", 8)
        assert [d for d, _ in got] == order, q
        assert [v for _, v in got] == [turn[d] for d in order], q

    s = _open(idx)
    try:
        check(s)
        for step in range(8):
            op = rng.choice(["delete", "dv", "dv", "compact"])
            if op == "delete":
                dq = rng.choice(del_queries)
                n = s.delete_by_query(dq)
                matched = [d for d, _ in oracle.search(dq, 10**6) if alive[d]]
                assert n == len(matched), (step, dq)
                alive[matched] = False
            elif op == "dv":
                cand = np.flatnonzero(alive)
                docs = rng.sample(cand.tolist(), min(5, cand.size))
                upd = {d: float(rng.randint(100, 999)) for d in docs}
                s.update_numeric_docvalues("turn_idx", upd)
                for d, v in upd.items():
                    turn[d] = v
            else:
                s.close()
                compact_index(idx, max_shards=rng.choice([2, 3]))
                s = _open(idx)
            check(s)
    finally:
        s.close()
