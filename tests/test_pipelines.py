"""Operator-pipeline tests at sf0.001.

SQL-gated entries are compared against their DuckDB oracle (the same check
the driver runs); rows-only entries get dedicated oracles here: MinHash-LSH
vs brute-force Jaccard, LSH-ANN recall vs exact cosine, simhash Hamming
locality, stubbed media decode vs direct computation.
"""

import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "tools"))

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def duck():
    import duckdb

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con


def _gated_names():
    from lucene_solr_ray.pipelines import REGISTRY

    return sorted(n for n, p in REGISTRY.items() if p.sql is not None)


@pytest.mark.parametrize("name", _gated_names())
def test_gated_pipeline_matches_oracle(ray_session, duck, name):
    from check_correctness import compare, to_pandas
    from lucene_solr_ray.pipelines import REGISTRY

    p = REGISTRY[name]
    ray_df = to_pandas(p.fn(SF))
    sql_df = duck.execute(p.sql).fetchdf()
    problems = compare(name, ray_df, sql_df)
    assert not problems, problems


def test_dedup_clusters_connected_components(ray_session):
    """Union-find labels == BFS components over the same verified pairs;
    exactly one keep per cluster, labeled by the minimum doc_id."""
    from lucene_solr_ray.pipelines.dedup import dedup_clusters, dedup_minhash

    pairs = dedup_minhash(SF)
    got = dedup_clusters(SF)
    adj: dict = {}
    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        adj.setdefault(int(a), set()).add(int(b))
        adj.setdefault(int(b), set()).add(int(a))
    assert len(got) == len(adj) > 0
    labels = dict(zip(got["doc_id"], got["cluster_id"]))
    seen = set()
    for root in sorted(adj):
        if root in seen:
            continue
        comp, stack = set(), [root]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        lbl = min(comp)
        assert all(labels[d] == lbl for d in comp), (root, comp)
    keeps = got[got["keep"]]
    assert set(keeps["doc_id"]) == set(got["cluster_id"].unique())


def test_minhash_vs_bruteforce_jaccard(ray_session):
    """Every brute-force pair with Jaccard ≥ 0.8 must be found by LSH (high
    recall at high similarity); reported pairs carry exact Jaccard ≥ 0.5."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.pipelines.dedup import _shingle_hashes, dedup_minhash
    from lucene_solr_ray.pipelines.text import TOKEN_RE

    found = dedup_minhash(SF)
    assert (found["jaccard"] >= 0.5).all()
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    sh = {
        int(r.doc_id): _shingle_hashes(pd.Series([r.text]).str.lower().str.findall(TOKEN_RE)[0])
        for r in docs.itertuples()
    }
    ids = sorted(sh)
    high_pairs = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            inter = np.intersect1d(sh[a], sh[b], assume_unique=True).size
            union = sh[a].size + sh[b].size - inter
            j = inter / union if union else 0.0
            if j >= 0.8:
                high_pairs.append((a, b))
    got = set(zip(found["doc_a"].astype(int), found["doc_b"].astype(int)))
    missed = [p for p in high_pairs if p not in got]
    assert not missed, f"LSH missed high-similarity pairs: {missed}"


def test_ann_lsh_recall(ray_session):
    from lucene_solr_ray.pipelines.ann import ann_cosine_topk, ann_lsh_topk

    exact = ann_cosine_topk(SF)["vec_id"].tolist()
    approx = ann_lsh_topk(SF)["vec_id"].tolist()
    recall = len(set(exact) & set(approx)) / len(exact)
    assert recall >= 0.5, f"LSH recall too low: {recall} ({approx} vs {exact})"
    assert approx[0] == exact[0] == 0  # the query vector itself is its own 1-NN


def test_simhash_locality(ray_session):
    """Identical docs → identical simhash; simhash is deterministic."""
    from lucene_solr_ray.pipelines.dedup import simhash

    a = simhash(SF)
    b = simhash(SF)
    pd.testing.assert_frame_equal(a, b)
    assert a["simhash"].nunique() > 400  # distinct docs spread out


def test_line_dedup_invariants(ray_session, tmp_path):
    """Planted corpus-duplicated line vanishes from EVERY doc; docs made
    only of unique lines round-trip byte-identically."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.pipelines.dedup import line_dedup

    docs = [
        "alpha beta\nshared line\ngamma",
        "delta\nshared line\nepsilon zeta",
        "all unique here\nanother one",
        "shared line",
    ]
    pq.write_table(
        pa.table({"doc_id": list(range(4)), "text": docs}), tmp_path / "documents.parquet"
    )
    out = line_dedup(str(tmp_path), sep="\n", min_count=2)
    assert out["text_clean"].tolist() == [
        "alpha beta\ngamma",
        "delta\nepsilon zeta",
        "all unique here\nanother one",
        "",
    ]
    assert out["n_removed"].tolist() == [1, 1, 0, 1]
    assert out["n_lines"].tolist() == [3, 3, 2, 1]
    # idempotent: a second pass over already-clean text removes nothing
    pq.write_table(
        pa.table({"doc_id": list(range(4)), "text": out["text_clean"].tolist()}),
        tmp_path / "documents.parquet",
    )
    again = line_dedup(str(tmp_path), sep="\n", min_count=2)
    assert (again["n_removed"].to_numpy() == 0).all()


def test_line_dedup_broadcast_free(ray_session, tmp_path, monkeypatch):
    """Scale shape (r4 verdict #1): the bucketed anti-join never ray.puts
    an O(dup-lines) object — with 300 docs sharing 60 hot lines, no
    driver-side put carries a container anywhere near the dup-set size."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray as ray_mod

    from lucene_solr_ray.pipelines.dedup import line_dedup

    hot = [f"hot shared line number {i}" for i in range(60)]
    docs = ["\n".join([f"unique {d} {j}" for j in range(3)] + hot) for d in range(300)]
    pq.write_table(
        pa.table({"doc_id": list(range(300)), "text": docs}), tmp_path / "documents.parquet"
    )

    put_sizes = []
    real_put = ray_mod.put

    def spy_put(obj, *a, **k):
        if isinstance(obj, (np.ndarray, set, frozenset, list, tuple, pd.Series)):
            put_sizes.append(len(obj))
        return real_put(obj, *a, **k)

    monkeypatch.setattr(ray_mod, "put", spy_put)
    out = line_dedup(str(tmp_path), sep="\n", min_count=2)
    assert (out["n_removed"].to_numpy() == 60).all()
    assert all(s < 60 for s in put_sizes), put_sizes


def test_curate_v2_composition_dataset_native(ray_session, monkeypatch):
    """Scale shape (r4 verdict #4): composing the v2 flagship never
    collects a per-doc frame to the driver — every to_pandas during plan
    construction is a bounded partial (no doc_id column crosses), and the
    composition itself is a lazy Dataset."""
    import ray.data

    from lucene_solr_ray.pipelines.curate import curate_corpus_v2_ds

    collected = []
    real = ray.data.Dataset.to_pandas

    def spy(self, *a, **k):
        df = real(self, *a, **k)
        collected.append(list(df.columns))
        return df

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", spy)
    ds = curate_corpus_v2_ds("/root/testdata/sf0.001")
    assert isinstance(ds, ray.data.Dataset)
    assert collected, "expected bounded partial collects (interleave counts)"
    assert all("doc_id" not in cols for cols in collected), collected


def test_media_features_stub(ray_session, duck):
    import zlib

    from lucene_solr_ray.pipelines.multimodal import decode_image, media_features

    out = media_features(SF)
    docs = duck.execute("SELECT doc_id, text FROM documents ORDER BY doc_id").fetchdf()
    merged = out.merge(docs, on="doc_id")
    assert (merged["n_bytes"] == merged["text"].str.len()).all()  # ascii corpus
    sample = merged.iloc[0]
    assert sample["crc32"] == zlib.crc32(sample["text"].encode())
    with pytest.raises(NotImplementedError):
        decode_image(b"\x89PNG")


def test_phrase_search_vs_bruteforce(ray_session, duck):
    from lucene_solr_ray.oracle import BruteForceIndex
    from lucene_solr_ray.pipelines.fulltext import _searcher

    texts = duck.execute("SELECT text FROM documents ORDER BY doc_id").fetchdf()["text"].tolist()
    oracle = BruteForceIndex(texts)
    with _searcher(SF) as searcher:
        for q in ['"slow scan"', '"fast merge"', "+spark -join", "window sort"]:
            got = searcher.search(q, 10)
            exp = [(d, float(s)) for d, s in oracle.search(q, 10)]
            assert got == exp, q


def test_entry_contract(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    assert len(res) >= 0 and "score" in res.columns
    qs, sqls = e.queries(), e.oracle_sql()
    assert set(sqls) <= set(qs)
    assert len(qs) >= 35 and len(sqls) >= 30


def test_ann_ivf_recall(ray_session):
    from lucene_solr_ray.pipelines.ann import ann_cosine_topk, ann_ivf_topk

    exact = ann_cosine_topk(SF)["vec_id"].tolist()
    approx = ann_ivf_topk(SF)["vec_id"].tolist()
    recall = len(set(exact) & set(approx)) / len(exact)
    assert recall >= 0.3, f"IVF recall too low: {recall}"
    assert approx and approx[0] == 0  # query vec is its own 1-NN (its cell is probed)


def test_token_count_bpe_matches_duck(ray_session, duck):
    from lucene_solr_ray.pipelines.text import token_count_bpe, TOKEN_BPE_SQL

    ray_df = token_count_bpe(SF)
    sql_df = duck.execute(TOKEN_BPE_SQL).fetchdf()
    assert ray_df["n_bpe_tokens"].tolist() == sql_df["n_bpe_tokens"].tolist()


def test_dedup_embedding_recall(ray_session, tmp_path):
    """Planted near-duplicate embedding pairs (cos ≥ 0.95) must all be
    found by the sign-LSH banding path; reported pairs carry exact cosine
    ≥ threshold.  Also: the natural fixture (max pairwise cos ≈ 0.48)
    yields no pairs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.pipelines.ann import dedup_embedding

    rng = np.random.default_rng(11)
    base = rng.standard_normal((200, 64))
    # plant 20 near-duplicates: tiny perturbations of the first 20 vectors
    dups = base[:20] + 0.02 * rng.standard_normal((20, 64))
    M = np.concatenate([base, dups])
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(len(M), dtype=np.int64)),
            "embedding": pa.array([r.astype(np.float32) for r in M], type=pa.list_(pa.float32())),
            "label": pa.array(np.zeros(len(M), dtype=np.int32)),
        }
    )
    pq.write_table(t, tmp_path / "embeddings.parquet")
    found = dedup_embedding(str(tmp_path), threshold=0.95)
    got = set(zip(found["vec_a"].astype(int), found["vec_b"].astype(int)))
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    S = Mn @ Mn.T
    np.fill_diagonal(S, -1)
    ia, ib = np.nonzero(np.triu(S >= 0.95))
    expected = set(zip(ia.tolist(), ib.tolist()))
    assert expected, "fixture must contain planted pairs"
    missed = expected - got
    assert not missed, f"missed near-dup pairs: {missed}"
    assert (found["cos"] >= 0.95).all()
    # the natural corpus has no near-dups
    assert len(dedup_embedding(SF, threshold=0.9)) == 0


def test_media_embed_ann(ray_session):
    """decode→embed→ANN chain: doc 0 is its own nearest neighbour, results
    are deterministic, and similarities are valid cosines."""
    from lucene_solr_ray.pipelines.multimodal import media_embed_ann

    a = media_embed_ann(SF)
    b = media_embed_ann(SF)
    pd.testing.assert_frame_equal(a, b)
    assert a["doc_id"][0] == 0 and abs(a["sim"][0] - 1.0) < 1e-6  # float32 storage
    assert ((a["sim"] <= 1.0 + 1e-6) & (a["sim"] >= -1.0)).all()  # float32 norms
    assert a["sim"].is_monotonic_decreasing


def test_repetition_signals_semantics(ray_session, tmp_path):
    """Gopher repetition metrics pinned on handcrafted docs: an all-repeat
    doc scores 1.0 everywhere, an all-distinct doc scores 0.0."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.pipelines.text import repetition_signals

    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "text": [
                "spam spam spam spam spam",          # 1 distinct token / 1 distinct 2&3-gram
                "alpha beta gamma delta epsilon",    # no repetition at all
                "one two one two one two",           # top 2-gram 'one two' = 3 of 5
            ],
        }
    )
    d = tmp_path / "rep"
    d.mkdir()
    pq.write_table(docs, d / "documents.parquet")
    out = repetition_signals(str(d)).set_index("doc_id")
    assert out.loc[0, "dup_tok_frac"] == 4 / 5
    assert out.loc[0, "top2gram_frac"] == 1.0 and out.loc[0, "dup3gram_frac"] == 1.0
    assert out.loc[1, "dup_tok_frac"] == 0.0
    assert out.loc[1, "top2gram_frac"] == 1 / 4  # all 2-grams distinct, max count 1
    assert out.loc[1, "dup3gram_frac"] == 0.0
    assert out.loc[2, "top2gram_frac"] == 3 / 5
    assert out.loc[2, "dup3gram_frac"] == 1.0  # both 3-gram kinds repeat


def test_ann_pq_recall(ray_session):
    """PQ ANN: asymmetric-LUT scan + exact rerank recovers most of the
    brute-force top-10, deterministically; the codes table really is
    PQ_M bytes/vector."""
    import glob

    import pyarrow.parquet as apq

    from lucene_solr_ray.pipelines.ann import PQ_M, ann_cosine_topk, ann_pq_topk, build_pq_index

    exact = ann_cosine_topk(SF)
    a = ann_pq_topk(SF)
    b = ann_pq_topk(SF)
    pd.testing.assert_frame_equal(a, b)
    recall = len(set(a["vec_id"]) & set(exact["vec_id"])) / len(exact)
    assert recall >= 0.8, recall
    d = build_pq_index(SF)
    t = apq.read_table(glob.glob(f"{d}/codes/*.parquet")[0])
    assert all(len(c) == PQ_M for c in t.column("codes").to_pylist()[:20])


def test_pack_offsets_distributed_scan(ray_session):
    """The packing exclusive scan must be the two-level distributed shape:
    ≥4 input blocks, doc order scattered across them, driver touches only
    O(nbuckets) bucket-total rows (never an O(docs) array), and the result
    equals the naive single-array cumsum exactly."""
    import ray

    from lucene_solr_ray.pipelines import text as T

    rng = np.random.default_rng(7)
    ids = rng.permutation(5000).astype(np.int64)
    toks = rng.integers(1, 400, size=ids.size).astype(np.int64)
    frames = [
        pd.DataFrame({"doc_id": ids[i::5], "n_tokens": toks[i::5]}) for i in range(5)
    ]
    ds = ray.data.from_pandas(frames)
    assert ds.num_blocks() >= 4
    out = (
        T.pack_offsets(ds, budget=257, nbuckets=64)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # driver-side metadata is bounded by the bucket count, not the doc count
    assert T.last_pack_stats["driver_rows"] <= 64 < ids.size
    assert T.last_pack_stats["n_buckets"] <= 65
    # exact parity with the naive global exclusive cumsum
    order = np.argsort(ids, kind="stable")
    n_sorted = toks[order]
    excl = np.zeros(ids.size, dtype=np.int64)
    excl[1:] = np.cumsum(n_sorted[:-1])
    assert (out["doc_id"].to_numpy() == ids[order]).all()
    assert (out["n_tokens"].to_numpy() == n_sorted).all()
    assert (out["seq_id"].to_numpy() == excl // 257).all()
    assert (out["offset"].to_numpy() == excl % 257).all()


def test_pack_offsets_extra_columns_and_sparse_ids(ray_session):
    """Sparse non-contiguous doc_ids (post-curation survivors) and carried
    extra columns survive the distributed scan."""
    import ray

    from lucene_solr_ray.pipelines import text as T

    df = pd.DataFrame(
        {
            "doc_id": np.array([3, 900, 44, 100_000, 7_777], dtype=np.int64),
            "n_tokens": np.array([10, 20, 30, 40, 50], dtype=np.int64),
            "lang": ["en", "de", "en", "fr", "en"],
        }
    )
    ds = ray.data.from_pandas([df.iloc[:2], df.iloc[2:4], df.iloc[4:]])
    out = T.pack_offsets(ds, budget=25).to_pandas().sort_values("doc_id").reset_index(drop=True)
    srt = df.sort_values("doc_id").reset_index(drop=True)
    excl = np.zeros(len(srt), dtype=np.int64)
    excl[1:] = np.cumsum(srt["n_tokens"].to_numpy()[:-1])
    assert list(out["lang"]) == list(srt["lang"])
    assert (out["seq_id"].to_numpy() == excl // 25).all()
    assert (out["offset"].to_numpy() == excl % 25).all()


def test_substring_dup_spans_semantics(ray_session, tmp_path):
    """ExactSubstr span semantics on a planted corpus: a W-token block
    shared by two docs is flagged in both; two overlapping duplicated
    windows merge into ONE span; unique text is never flagged."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.pipelines.text import SUBSTR_W, substring_dup_spans

    rng = np.random.default_rng(5)
    vocab = [f"tok{i:03d}" for i in range(400)]
    uniq = lambda n: " ".join(rng.choice(vocab, n))
    shared = " ".join(rng.choice(vocab, SUBSTR_W + 5))  # W+5 tokens → 6 windows
    texts = [
        uniq(30) + " " + shared + " " + uniq(25),   # doc 0: shared at pos 31
        shared + " " + uniq(40),                     # doc 1: shared at pos 1
        uniq(60),                                    # doc 2: clean
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], type=pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(["en"] * 3),
            }
        ),
        tmp_path / "documents.parquet",
    )
    out = substring_dup_spans(str(tmp_path))
    assert set(out["doc_id"]) == {0, 1}
    d0 = out[out["doc_id"] == 0]
    assert len(d0) == 1  # overlapping windows merged into one span
    assert int(d0["span_start"].iloc[0]) == 31
    assert int(d0["span_end"].iloc[0]) == 31 + SUBSTR_W + 5 - 1
    assert int(d0["n_grams"].iloc[0]) == 6
    d1 = out[out["doc_id"] == 1]
    assert int(d1["span_start"].iloc[0]) == 1 and int(d1["n_grams"].iloc[0]) == 6


def test_star_components_equal_union_find(ray_session):
    """The distributed small/large-star component labeling must produce
    EXACTLY the union-find answer (min-id roots, keep flags) on random
    graphs: chains, cliques, singleton-free pair lists, forests."""
    from lucene_solr_ray.pipelines.dedup import cluster_pairs_distributed

    rng = np.random.default_rng(17)
    for trial in range(4):
        n = int(rng.integers(10, 120))
        m = int(rng.integers(1, 4 * n))
        a = rng.integers(0, n, m)
        b = rng.integers(0, n, m)
        keep = a != b
        pairs = pd.DataFrame({"doc_a": a[keep].astype(np.int64), "doc_b": b[keep].astype(np.int64)})
        if not len(pairs):
            continue
        # reference: driver union-find (the dedup_clusters kernel)
        parent: dict = {}

        def find(x):
            r = x
            while parent.setdefault(r, r) != r:
                r = parent[r]
            while parent[x] != r:
                parent[x], x = r, parent[x]
            return r

        for x, y in zip(pairs["doc_a"], pairs["doc_b"]):
            rx, ry = find(int(x)), find(int(y))
            if rx != ry:
                lo, hi = (rx, ry) if rx < ry else (ry, rx)
                parent[hi] = lo
        docs = sorted(parent)
        exp = pd.DataFrame(
            {
                "doc_id": np.array(docs, dtype=np.int64),
                "cluster_id": np.array([find(d) for d in docs], dtype=np.int64),
            }
        )
        exp["keep"] = exp["doc_id"] == exp["cluster_id"]
        got = cluster_pairs_distributed(pairs, nbuckets=16)
        pd.testing.assert_frame_equal(got, exp.reset_index(drop=True)), trial


def test_star_components_long_chain(ray_session):
    """A long path graph (worst diameter) converges within the round cap
    and labels every node with the chain minimum."""
    from lucene_solr_ray.pipelines.dedup import cluster_pairs_distributed

    n = 60
    pairs = pd.DataFrame(
        {"doc_a": np.arange(n - 1, dtype=np.int64) + 1, "doc_b": np.arange(n - 1, dtype=np.int64)}
    )
    got = cluster_pairs_distributed(pairs, nbuckets=8)
    assert (got["cluster_id"] == 0).all() and len(got) == n
    assert got.loc[got["doc_id"] == 0, "keep"].iloc[0]
    assert got["keep"].sum() == 1


def test_ann_sq8_recall(ray_session):
    """int8 scalar quantization: integer-dot scan + exact rerank — SQ8 is
    a near-lossless ranking proxy, recall well above PQ's; codes really
    are dim bytes/vector."""
    import glob as _g
    import json as _json

    import pyarrow.parquet as apq

    from lucene_solr_ray.pipelines.ann import ann_cosine_topk, ann_sq8_topk, build_sq8_index

    exact = ann_cosine_topk(SF)
    a = ann_sq8_topk(SF)
    b = ann_sq8_topk(SF)
    pd.testing.assert_frame_equal(a, b)
    recall = len(set(a["vec_id"]) & set(exact["vec_id"])) / len(exact)
    assert recall >= 0.9, recall
    d = build_sq8_index(SF)
    meta = _json.loads((d / "manifest.json").read_text())
    t = apq.read_table(sorted(_g.glob(str(d / "codes" / "*.parquet")))[0])
    assert len(t.column("codes")[0].as_py()) == meta["dim"]


def test_pii_scrub_documents_nonvacuous(ray_session):
    from lucene_solr_ray.pipelines.text import pii_scrub_documents

    out = pii_scrub_documents(SF)
    # every row carries (at least) the injected email/phone/IP — and each
    # is gone from the scrubbed text
    assert (out["n_emails"] >= 1).all()
    assert (out["n_phones"] >= 1).all()
    assert (out["n_ips"] >= 1).all()
    assert out["clean"].str.contains("<EMAIL>", regex=False).all()
    assert out["clean"].str.contains("<PHONE>", regex=False).all()
    assert out["clean"].str.contains("<IP>", regex=False).all()
    assert not out["clean"].str.contains("@example.com", regex=False).any()


@pytest.mark.parametrize(
    "name",
    [
        "dedup_exact",
        "sessionize",
        "significant_terms",
        "terms_component",
        "line_dedup",
        "soft_dedup_weights",
        "percentile_disc",
        "collapse_best",
        "asof_join",
    ],
)
def test_bucket_width_invariance(ray_session, monkeypatch, name):
    # a bucketed shuffle only co-locates equal keys, so the answer must not
    # depend on the bucket count
    from lucene_solr_ray.pipelines import REGISTRY, common

    fn = REGISTRY[name].fn
    base = fn(SF)
    monkeypatch.setattr(common, "SHUFFLE_BUCKETS", 3)
    pd.testing.assert_frame_equal(base, fn(SF))
    assert len(base) > 0
