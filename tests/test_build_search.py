"""End-to-end index build + distributed-vs-oracle duel + resume.

Patterns adopted from the reference test strategy (SURVEY.md §5):
- distributed-vs-control oracle duel (BaseDistributedSearchTestCase /
  TestDuelingCodecs): rank-identical docIDs AND float32-identical scores;
- CheckIndex-style invariants: sorted terms, strictly-increasing docIDs,
  df == len(postings), manifest counts match a full recount;
- kill-and-rerun resume (FIXTURES.md F6).
"""

import glob
import json
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.fixtures import reference_queries, write_transcripts
from lucene_solr_ray.index import codec
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.oracle import BruteForceIndex
from lucene_solr_ray.search import Searcher
from lucene_solr_ray.search.query import parse_query

CORPUS_DIR = "/tmp/lsr_test_corpus"
INDEX_DIR = "/tmp/lsr_test_index"
N_CONV, N_FILES, FILES_PER_SHARD = 200, 6, 3


@pytest.fixture(scope="session")
def corpus(ray_session):
    paths = write_transcripts(CORPUS_DIR, N_CONV, N_FILES)
    tables = [
        pq.read_table(p, columns=["conv_id", "turn_idx", "text", "role", "tool"])
        for p in sorted(paths)
    ]
    full = pa.concat_tables(tables)
    full = full.take(
        pc.sort_indices(full, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    )
    return paths, full


@pytest.fixture(scope="session")
def index(ray_session, corpus):
    paths, _ = corpus
    m = build_index(paths, INDEX_DIR, files_per_shard=FILES_PER_SHARD, resume=False)
    return m


@pytest.fixture(scope="session")
def oracle(corpus):
    _, full = corpus
    return BruteForceIndex(
        full.column("text").to_pylist(),
        fields={
            "role": full.column("role").to_pylist(),
            "tool": full.column("tool").to_pylist(),
        },
    )


@pytest.fixture(scope="module")
def searcher(ray_session, index):
    # one actor per shard: every merge below runs across actors
    s = Searcher(INDEX_DIR, num_actors=N_FILES // FILES_PER_SHARD)
    yield s
    s.close()  # release actor CPU slots for later Ray Data tests


def test_manifest_committed(index):
    assert index.committed
    st = index.data["stats"]
    assert st["N"] > 0 and st["n_terms"] > 0 and st["avgdl"] > 0


def test_docid_invariant_text_equality(corpus, index):
    """BASELINE per-row invariant: docID == rank under (conv_id, turn_idx);
    per-turn text must round-trip byte-identical through the docmap."""
    _, full = corpus
    segs = sorted(glob.glob(f"{INDEX_DIR}/segments/pid=*/norms.parquet"))
    dm = pa.concat_tables(pq.read_table(s, columns=["doc_id", "conv_id", "turn_idx"]) for s in segs)
    dm = dm.sort_by("doc_id")
    assert (dm.column("doc_id").to_numpy() == np.arange(full.num_rows)).all()
    assert dm.column("conv_id").to_pylist() == full.column("conv_id").to_pylist()
    assert dm.column("turn_idx").to_pylist() == full.column("turn_idx").to_pylist()


def test_check_index_invariants(index, oracle):
    """CheckIndex analog: postings monotone, df consistent, stats match."""
    files = sorted(glob.glob(f"{INDEX_DIR}/shards/shard=*/*.parquet"))
    t = pa.concat_tables(pq.read_table(f) for f in files)
    n_postings = 0
    df_by_term: dict[str, int] = {}
    for i in range(t.num_rows):
        df = t.column("df")[i].as_py()
        docs = codec.decode_docs(t.column("docs")[i].as_py(), df)
        freqs = codec.decode_freqs(t.column("freqs")[i].as_py(), df)
        assert (np.diff(docs) > 0).all()
        assert (freqs >= 1).all()
        assert t.column("cf")[i].as_py() == freqs.sum()
        term = t.column("term")[i].as_py()
        df_by_term[term] = df_by_term.get(term, 0) + df
        n_postings += df
    # manifest recount
    m = json.loads(open(f"{INDEX_DIR}/manifest.json").read())
    assert sum(s["n_postings"] for s in m["shards"].values()) == n_postings
    # global df equals the brute-force oracle's df for every term
    for term, df in df_by_term.items():
        assert oracle.df[term] == df, term
    assert set(df_by_term) == set(oracle.df)


def test_global_stats_match_oracle(index, oracle):
    st = index.data["stats"]
    assert st["N"] == oracle.N
    assert st["sum_ttf"] == oracle.sum_ttf
    assert st["avgdl"] == pytest.approx(oracle.avgdl, abs=0)


def test_duel_rank_and_score_identical(searcher, oracle):
    """The headline correctness gate: all 100 reference queries."""
    for q in reference_queries():
        got = searcher.search(q["query"], q["k"])
        exp = [(d, float(s)) for d, s in oracle.search(q["query"], q["k"])]
        assert got == exp, f"qid={q['qid']} query={q['query']!r}\n got {got[:5]}\n exp {exp[:5]}"


def test_fuzz_random_queries(searcher, oracle):
    """Seeded random query-grammar duel: every syntax form the parser
    accepts (occurs, phrases w/ slop, boosts, prefix/wildcard/fuzzy/regexp,
    field terms) over head/mid/tail vocabulary — rank+float32-score
    identical to the brute-force oracle."""
    import random

    rng = random.Random(20260818)
    words = ["assistant", "error", "ok", "bash", "tool", "output", "the"] + [
        f"w{rng.randint(0, 19999):05d}" for _ in range(20)
    ]
    fields = [("role", ["user", "assistant", "system"]), ("tool", ["bash", "browser", "editor"])]

    def clause() -> str:
        sign = rng.choice(["", "", "", "+", "-"])
        r = rng.random()
        if r < 0.35:
            w = rng.choice(words)
            if rng.random() < 0.15:
                w += f"^{rng.randint(2, 5)}"
            return sign + w
        if r < 0.5:
            n = rng.randint(2, 3)
            ph = " ".join(rng.choice(words) for _ in range(n))
            slop = f"~{rng.randint(1, 3)}" if rng.random() < 0.4 else ""
            return f'{sign}"{ph}"{slop}'
        if r < 0.62:
            f, vals = rng.choice(fields)
            return f"{sign}{f}:{rng.choice(vals)}"
        if r < 0.74:
            return sign + rng.choice(words)[: rng.randint(2, 4)] + "*"
        if r < 0.82:
            return sign + "w?" + rng.choice(words)[2:5] + "*"
        if r < 0.92:
            return sign + rng.choice(words) + f"~{rng.randint(1, 2)}"
        return sign + "/" + rng.choice(words)[:3] + "[a-z0-9]*/"

    for trial in range(60):
        q = " ".join(clause() for _ in range(rng.randint(1, 3)))
        k = rng.choice([3, 10, 25])
        got = searcher.search(q, k)
        exp = [(d, float(s)) for d, s in oracle.search(q, k)]
        assert got == exp, f"trial {trial}: {q!r}\n got {got[:4]}\n exp {exp[:4]}"


PRUNE_QUERIES = [
    "assistant error ok",             # pure disjunction
    "w00001 w00002 w00003 bash",
    "ok error",
    "+assistant +error",              # pure conjunction (WAND MUST path)
    "+error ok bash",                 # MUST + SHOULDs
    "+assistant +bash w00002",        # two MUSTs + SHOULD
    "+error -bash ok",                # MUST + NOT + SHOULD
    "error ok #role:assistant",       # SHOULDs + FILTER
    "+error #role:assistant",         # MUST + FILTER
    '"tool output"',                  # exact phrase (phrase-path pruning)
    '"tool output bash"',
    '"tool output"~3',                # sloppy phrase
    '"user question"~5',
]


def test_pruned_equals_exhaustive(searcher):
    for query in PRUNE_QUERIES:
        assert searcher.search(query, 10, prune=True) == searcher.search(
            query, 10, prune=False
        ), query
        assert searcher.search(query, 0) == [], query  # no θ floor from an empty page


def test_prune_fires_for_conjunctions(ray_session, index):
    """Block-max pruning must actually skip candidates on MUST/mixed paths
    (WANDScorer coverage, not just pure disjunctions)."""
    import ray

    s2 = Searcher(INDEX_DIR, num_actors=N_FILES // FILES_PER_SHARD)  # per-actor counters
    try:
        base = sum(ray.get(a.prune_stats.remote())["candidates"] for a in s2.actors)
        # a common MUST term + varied SHOULDs: candidate bounds differ by
        # which optional terms each doc matches, so θ can prune
        s2.search("+assistant error ok w00002", 5)
        after = ray.get([a.prune_stats.remote() for a in s2.actors])
        cand = sum(s["candidates"] for s in after)
        scored = sum(s["scored"] for s in after)
        assert cand > base  # the pruned path ran for a conjunctive query
        assert scored < cand  # and it skipped candidates
    finally:
        s2.close()


def test_prune_scores_each_candidate_once(index):
    """Both block-max paths (phrase, boolean) score a candidate at most
    once: the θ seeds' exact scores are reused, so `scored` never exceeds
    `candidates` — per query, not just in total."""
    s2 = Searcher(INDEX_DIR, use_ray=False)
    try:
        shard = s2.actors[0]
        ran = {"phrase": 0, "bool": 0}
        for q, k in [('"tool output"', 1), ('"tool output"', 3), ('"assistant ok"', 2),
                     ("error ok", 1), ("error ok w00002", 3), ("+assistant error ok", 2),
                     ("assistant", 1), ("error OR tool", 5)]:
            before = shard.prune_stats()
            assert s2.search(q, k) == s2.search(q, k, prune=False), q
            after = shard.prune_stats()
            cand = after["candidates"] - before["candidates"]
            scored = after["scored"] - before["scored"]
            assert scored <= cand, (q, k, scored, cand)
            if cand:
                ran["phrase" if q.startswith('"') else "bool"] += 1
        assert ran["phrase"] and ran["bool"]  # both pruned paths were exercised
        st = shard.prune_stats()
        assert 0 <= st["scored"] <= st["candidates"] and st["pruned_frac"] >= 0
    finally:
        s2.close()


FILTER_AND_MULTI_QUERIES = [
    "error #role:assistant",          # scored term + keyword FILTER
    "#role:tool",                     # pure filter (score 0, docID order)
    "+bash #tool:bash",               # MUST + FILTER
    "w0000* error",                   # prefix expansion + term
    "w001?3",                         # wildcard
    "assistnt~",                      # fuzzy (edit distance ≤ 2)
    "bash~1",                         # fuzzy matching itself + neighbors
    "#role:assistant #tool:bash",     # two filters (empty: roles disjoint)
    "zzz* -error",                    # empty expansion
]


def test_duel_filters_and_multiterm(searcher, oracle):
    """Keyword-field FILTER clauses + prefix/wildcard/fuzzy expansion duel."""
    for q in FILTER_AND_MULTI_QUERIES:
        got = searcher.search(q, 10)
        exp = [(d, float(s)) for d, s in oracle.search(q, 10)]
        assert got == exp, f"query={q!r}\n got {got[:5]}\n exp {exp[:5]}"


def test_duel_boost_syntax(searcher, oracle):
    for q in ["error^2 ok", 'bash^0.5 "tool output"^3', "+assistant^2 -error"]:
        got = searcher.search(q, 10)
        exp = [(d, float(s)) for d, s in oracle.search(q, 10)]
        assert got == exp, q


def test_duel_dismax_termset_msm(searcher, oracle):
    """API-level queries: DisjunctionMax, TermInSet, minimumShouldMatch."""
    from lucene_solr_ray.search.query import QueryNode, dismax, term_set

    t = lambda w, b=1.0: QueryNode("term", terms=[w], boost=b)
    nodes = [
        dismax([t("error"), t("ok"), t("bash")], tiebreak=0.0),
        dismax([t("error"), t("ok", 2.0)], tiebreak=0.3),
        term_set(["bash", "python", "editor", "zzz"]),
        QueryNode(
            "bool",
            clauses=[("SHOULD", t("error")), ("SHOULD", t("ok")), ("SHOULD", t("bash"))],
            min_should_match=2,
        ),
        QueryNode(
            "bool",
            clauses=[("MUST", t("assistant")), ("SHOULD", t("error")), ("SHOULD", t("ok"))],
            min_should_match=1,
        ),
        QueryNode("bool", clauses=[("SHOULD", dismax([t("error"), t("w00001")], tiebreak=0.1)),
                                   ("FILTER", t("role:assistant"))]),
    ]
    for i, node in enumerate(nodes):
        got = searcher.search_node(node, 10)
        exp = [(d, float(s)) for d, s in oracle.search_node(node, 10)]
        assert got == exp, f"node#{i}\n got {got[:5]}\n exp {exp[:5]}"


def test_duel_sloppy_phrase(searcher, oracle):
    """Proximity phrases ("a b"~N): slop widens the match set."""
    queries = ['"tool bash"~1', '"tool output bash"~2', '"user error"~5',
               '"assistant ok"~3', '"output bash"~0']
    for q in queries:
        got = searcher.search(q, 10)
        exp = [(d, float(s)) for d, s in oracle.search(q, 10)]
        assert got == exp, f"query={q!r}\n got {got[:5]}\n exp {exp[:5]}"
    # slop strictly widens: exact ⊆ sloppy match sets
    exact = {d for d, _ in searcher.search('"tool output"', 1000)}
    sloppy = {d for d, _ in searcher.search('"tool output"~3', 1000)}
    assert exact <= sloppy and len(sloppy) >= len(exact)


def test_duel_edismax(searcher, oracle):
    from lucene_solr_ray.search.query import edismax

    for uq, fields in [
        ("bash error", {None: 1.0, "tool": 2.0}),
        ("assistant ok", {None: 1.0, "role": 1.5}),
        ("the bash", {None: 1.0, "tool": 0.5}),  # stopword dropped
    ]:
        node = edismax(uq, fields, tiebreak=0.1)
        got = searcher.search_node(node, 10)
        exp = [(d, float(s)) for d, s in oracle.search_node(node, 10)]
        assert got == exp, uq
    assert edismax("the of", {None: 1.0}) is None


def test_duel_edismax_phrase_boost(searcher, oracle):
    """edismax pf/ps: the whole query added as an optional boosted phrase
    outside the mm group — adjacency ranks above scattered terms."""
    from lucene_solr_ray.search.query import edismax

    for uq, pf, ps in [
        ("tool output", {None: 3.0}, 0),
        ("error ok", {None: 2.0}, 1),
        ("bash error ok", {None: 5.0}, 0),
    ]:
        node = edismax(uq, {None: 1.0}, pf=pf, ps=ps)
        got = searcher.search_node(node, 10)
        exp = [(d, float(s)) for d, s in oracle.search_node(node, 10)]
        assert got == exp, uq
    # the phrase boost actually changes the ranking vs plain edismax
    plain = searcher.search_node(edismax("tool output", {None: 1.0}), 10)
    boosted = searcher.search_node(edismax("tool output", {None: 1.0}, pf={None: 3.0}), 10)
    assert plain != boosted
    # single surviving token → no phrase layer (identical nodes)
    assert repr(edismax("bash", {None: 1.0}, pf={None: 2.0})) == repr(edismax("bash", {None: 1.0}))
    # pf2/pf3: consecutive bigram/trigram boosts, duel-exact
    for kwargs in [
        {"pf2": {None: 2.0}},
        {"pf3": {None: 4.0}},
        {"pf": {None: 2.0}, "pf2": {None: 1.5}, "pf3": {None: 3.0}, "ps": 1},
    ]:
        node = edismax("bash error ok", {None: 1.0}, **kwargs)
        got = searcher.search_node(node, 10)
        exp = [(d, float(s)) for d, s in oracle.search_node(node, 10)]
        assert got == exp, kwargs


def test_fetch_two_phase(searcher, corpus):
    _, full = corpus
    hits = searcher.search("assistant", 5)
    t = searcher.fetch([d for d, _ in hits])
    assert t.num_rows == 5
    got = {r["doc_id"]: (r["conv_id"], r["turn_idx"]) for r in t.to_pylist()}
    for d, _ in hits:
        assert got[d] == (
            full.column("conv_id")[d].as_py(),
            full.column("turn_idx")[d].as_py(),
        )


def test_salting_applied(index):
    """Hot terms must be split into multiple salted runs within a shard."""
    hot = index.data["config"]["hot_terms"]
    assert "assistant" in hot and "user" in hot
    files = sorted(glob.glob(f"{INDEX_DIR}/shards/shard=00000/*.parquet"))
    t = pa.concat_tables(pq.read_table(f, columns=["term", "salt"]) for f in files)
    mask = pc.equal(t.column("term"), "assistant")
    salts = sorted(t.filter(mask).column("salt").to_pylist())
    assert len(salts) > 1  # split into multiple runs
    cold = t.filter(pc.equal(t.column("term"), "w09999"))
    assert cold.num_rows <= 1


def test_resume_kill_and_rerun(ray_session, corpus):
    """FIXTURES.md F6: crash after 1 shard → rerun skips it, final index
    logically identical to an uninterrupted build."""
    paths, _ = corpus
    idx2 = "/tmp/lsr_test_index_resume"
    with pytest.raises(RuntimeError, match="injected failure"):
        build_index(paths, idx2, files_per_shard=FILES_PER_SHARD, resume=False, fail_after_shards=1)
    m1 = json.loads(open(f"{idx2}/manifest.json").read())
    assert m1["status"] == "building"
    done = [s for s in m1["shards"].values() if s.get("status") == "done"]
    assert len(done) == 1
    # resume — must complete and match the reference index
    m2 = build_index(paths, idx2, files_per_shard=FILES_PER_SHARD, resume=True)
    assert m2.committed
    ref = json.loads(open(f"{INDEX_DIR}/manifest.json").read())
    assert m2.data["stats"] == ref["stats"]

    def load_postings(d):
        fs = sorted(glob.glob(f"{d}/shards/shard=*/*.parquet"))
        t = pa.concat_tables(pq.read_table(f) for f in fs)
        return t.sort_by([("term", "ascending"), ("salt", "ascending")])

    a, b = load_postings(INDEX_DIR), load_postings(idx2)
    assert a.num_rows == b.num_rows
    for col in ["term", "salt", "df", "cf", "docs", "freqs", "norms", "positions"]:
        assert a.column(col).equals(b.column(col)), col


def test_spellcheck(searcher, oracle):
    """Did-you-mean: dictionary terms ranked (distance, df desc, term)."""
    sugg = searcher.spellcheck("assistnt")
    assert sugg and sugg[0][0] == "assistant"
    assert all(d in (1, 2) for _, _, d in sugg)
    # df values must equal the oracle's document frequencies
    for term, df, _ in sugg:
        assert oracle.df[term] == df
    # exact dictionary word → no suggestions
    assert searcher.spellcheck("assistant") == []
    # garbage far from everything at max_edits=1 → empty
    assert searcher.spellcheck("qqqqqqqqqq", max_edits=1) == []


def test_duel_regexp(searcher, oracle):
    """RegexpQuery: /re/ anchored term expansion, duel-identical; field
    prefix scopes to the keyword namespace."""
    for q in ["/w0000[12]/", "/err.*/", "/assist[ae]nt/", "role:/us.r/", "/zz+nope/"]:
        got = searcher.search(q, 10)
        exp = [(d, float(s)) for d, s in oracle.search(q, 10)]
        assert got == exp, q
    assert searcher.search("/w0000[12]/", 10)  # actually matches something
    assert searcher.search("role:/us.r/", 10)
    assert searcher.search("/zz+nope/", 10) == []
    from lucene_solr_ray.search.lucene_regexp import LuceneRegexpError

    with pytest.raises(LuceneRegexpError):
        parse_query("/w0000[/")


def test_join_query(searcher, corpus, oracle):
    """{!join from=tool to=tool}: docs sharing a join key with any subquery
    match; constant score 1.0, ties by docID asc — duel vs a brute-force
    pandas join over the fixture."""
    _, full = corpus
    tools = full.column("tool").to_pylist()
    for sub in ["error", "+error +ok", '"tool output"']:
        sub_docs = [d for d, _ in oracle.search(sub, 10**9)]
        keys = {tools[d] for d in sub_docs if tools[d] is not None}
        expected = [i for i, v in enumerate(tools) if v in keys][:20]
        got = searcher.join_search("tool", "tool", sub, 20)
        assert [d for d, _ in got] == expected, sub
        assert all(s == 1.0 for _, s in got), sub
    # subquery matching nothing → empty
    assert searcher.join_search("tool", "tool", "zzzznope") == []
    # unknown from-field → empty, not an error
    assert searcher.join_search("nosuchfield", "tool", "error") == []


def test_join_query_cross_index(searcher, corpus, oracle):
    """Cross-core {!join fromIndex=other}: from-side keys come from a
    DIFFERENT index's subquery matches; to-side runs here."""
    import shutil

    paths2 = write_transcripts("/tmp/lsr_xidx_corpus", 50, 2)
    shutil.rmtree("/tmp/lsr_xidx_index", ignore_errors=True)
    build_index(paths2, "/tmp/lsr_xidx_index", files_per_shard=1)
    full2 = pa.concat_tables(
        pq.read_table(p, columns=["conv_id", "turn_idx", "text", "role", "tool"])
        for p in sorted(paths2)
    )
    full2 = full2.take(
        pc.sort_indices(full2, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    )
    oracle2 = BruteForceIndex(
        full2.column("text").to_pylist(),
        fields={"role": full2.column("role").to_pylist(), "tool": full2.column("tool").to_pylist()},
    )
    other = Searcher("/tmp/lsr_xidx_index", num_actors=2)  # from-side merged across actors
    try:
        tools2 = full2.column("tool").to_pylist()
        sub_docs = [d for d, _ in oracle2.search("+error +ok", 10**9)]
        keys = {tools2[d] for d in sub_docs if tools2[d] is not None}
        _, full = corpus
        tools = full.column("tool").to_pylist()
        expected = [i for i, v in enumerate(tools) if v in keys][:20]
        got = searcher.join_search("tool", "tool", "+error +ok", 20, from_searcher=other)
        assert [d for d, _ in got] == expected
        assert all(s == 1.0 for _, s in got)
    finally:
        other.close()


def test_graph_query(searcher, corpus, oracle):
    """{!graph from=tool to=tool maxDepth=N}: BFS over the field self-join,
    duel vs a pandas traversal; constant score, docID order."""
    _, full = corpus
    tools = full.column("tool").to_pylist()
    root = "+error +bash"
    root_docs = {d for d, _ in oracle.search(root, 10**9)}
    # depth 0: just the root matches
    got0 = searcher.graph_search("tool", "tool", root, max_depth=0, k=30)
    assert got0 == [(d, 1.0) for d in sorted(root_docs)][:30]
    # BFS by hand
    reach = set(root_docs)
    keys: set = set()
    for _ in range(2):
        new_keys = {tools[d] for d in reach if tools[d] is not None} - keys
        if not new_keys:
            break
        keys |= new_keys
        reach |= {i for i, v in enumerate(tools) if v in new_keys}
    got2 = searcher.graph_search("tool", "tool", root, max_depth=2, k=40)
    assert got2 == [(d, 1.0) for d in sorted(reach)][:40]
    assert searcher.graph_search("tool", "tool", "zzzznope", 2) == []
    # returnRoot=false drops the seed docs from the result
    got_nr = searcher.graph_search("tool", "tool", root, max_depth=2, k=40, return_root=False)
    exp_nr = sorted({i for i, v in enumerate(tools) if v in keys})
    assert got_nr == [(d, 1.0) for d in exp_nr][:40]
    # traversalFilter restricts every hop (but not the roots)
    flt = "error"
    flt_docs = {d for d, _ in oracle.search(flt, 10**9)}
    reach_f = set(root_docs)
    frontier, fkeys = set(root_docs), set()
    for _ in range(2):
        nk = {tools[d] for d in frontier if tools[d] is not None} - fkeys
        if not nk:
            break
        fkeys |= nk
        frontier = {i for i, v in enumerate(tools) if v in nk and i in flt_docs}
        reach_f |= frontier
    got_f = searcher.graph_search("tool", "tool", root, max_depth=2, k=60, traversal_filter=flt)
    assert got_f == [(d, 1.0) for d in sorted(reach_f)][:60]


def test_join_query_score_modes(searcher, corpus, oracle):
    """JoinUtil ScoreMode max/total/avg: from-side scores aggregated per
    join key (float64 in docID order within a shard, merged in shard
    order) and carried by every to-side doc — bit-exact duel."""
    paths, full = corpus
    tools = full.column("tool").to_pylist()
    sizes = [pq.read_table(p).num_rows for p in sorted(paths)]
    ends = np.cumsum(sizes)[FILES_PER_SHARD - 1 :: FILES_PER_SHARD]
    sub = "error ok"
    pairs = sorted((d, np.float64(np.float32(s))) for d, s in oracle.search(sub, 10**9))
    merged: dict = {}
    start = 0
    for end in ends:  # replicate per-shard partials merged in shard order
        part: dict = {}
        for d, s in pairs:
            if start <= d < int(end) and tools[d] is not None:
                p = part.setdefault(tools[d], [np.float64(0.0), 0, np.float64("-inf")])
                p[0] += s
                p[1] += 1
                p[2] = max(p[2], s)
        for v, (s, c, m) in sorted(part.items()):
            cur = merged.setdefault(v, [np.float64(0.0), 0, np.float64("-inf")])
            cur[0] += s
            cur[1] += c
            cur[2] = max(cur[2], m)
        start = int(end)
    for mode in ["total", "avg", "max"]:
        key_score = {
            v: float(np.float32({"total": s, "avg": s / c, "max": m}[mode]))
            for v, (s, c, m) in merged.items()
        }
        scored = [(i, key_score[v]) for i, v in enumerate(tools) if v in key_score]
        expected = sorted(scored, key=lambda t: (-t[1], t[0]))[:15]
        got = searcher.join_search("tool", "tool", sub, 15, score=mode)
        assert got == expected, mode


def test_metrics(searcher, oracle, monkeypatch):
    """/admin/metrics analog: pool-aggregated counters + index gauges, from
    one scatter."""
    searcher.search("error ok w00042", 5)
    searcher.search("error ok w00042", 5)  # second hit is cached
    calls = []
    scatter = searcher._scatter
    monkeypatch.setattr(searcher, "_scatter", lambda *a, **kw: calls.append(a[0]) or scatter(*a, **kw))
    m = searcher.metrics()
    assert calls == ["prune_stats"]
    assert m["shards"] == N_FILES // FILES_PER_SHARD
    assert m["actors"] == len(searcher.actors) == N_FILES // FILES_PER_SHARD
    assert m["n_docs"] == oracle.N
    rc = m["result_cache"]
    assert rc["hits"] >= 1 and rc["misses"] >= 1
    assert rc["hit_rate"] == rc["hits"] / (rc["hits"] + rc["misses"])
    assert set(m["prune"]) == {"candidates", "scored", "pruned_frac"}


def test_terms_regex(searcher, oracle):
    """/terms with terms.regex: anchored shard-side filter, df-summed merge."""
    got = searcher.terms(regex="w0000[0-9]", limit=100)
    exp = sorted(
        ((t, df) for t, df in oracle.df.items() if re.fullmatch("w0000[0-9]", t)),
        key=lambda p: (-p[1], p[0]),
    )
    assert got == exp and got
    # prefix + regex compose
    assert searcher.terms(prefix="w", regex="w0000[0-9]", limit=100) == exp
    assert searcher.terms(regex="zzz+") == []


def test_wordbreak(searcher, oracle):
    """WordBreakSolrSpellChecker: break an unknown concatenation into two
    dictionary words; combine adjacent terms that concatenate into one."""
    res = searcher.wordbreak("toolerror")
    assert ("tool", "error") in [(a, b) for a, b, _ in res]
    for a, b, w in res:
        assert oracle.df[a] > 0 and oracle.df[b] > 0
        assert w == min(oracle.df[a], oracle.df[b])
    # ranked by weaker-half df desc
    assert [w for _, _, w in res] == sorted((w for _, _, w in res), reverse=True)
    # in-dictionary word → no break suggestions
    assert searcher.wordbreak("assistant") == []
    assert searcher.wordbreak("zzqqzzqq") == []
    # combine: fixture vocabulary has no two-word concatenations → empty,
    # and a manufactured hit is found via the oracle's own dictionary
    assert searcher.wordcombine(["tool", "output"]) == []
    some_term = "assistant"
    assert searcher.wordcombine([some_term[:4], some_term[4:]]) == [
        ("assi", "stant", oracle.df[some_term])
    ]


def test_count_matches(searcher, oracle):
    """numFound scatter (rows=0 counting): per-shard hit counts summed on
    the driver, duel vs the oracle's full match set."""
    for q in ["error", "assistant AND error", '"tool output"', "error OR ok", "zzzznope"]:
        exp = len(oracle.search(q, 10**9))
        assert searcher.count(q) == exp, q


def test_spellcheck_collate(searcher, oracle):
    """SpellCheckCollator: misspelled terms rewritten from spellcheck
    suggestions, each candidate collation VERIFIED to have hits > 0,
    ranked by hit count desc."""
    col = searcher.spellcheck_collate("assistnt errr")
    assert col, "expected at least one verified collation"
    best, hits = col[0]
    assert "assistant" in best.split()
    # reported hit count is the real conjunctive numFound
    assert hits == len(oracle.search(" AND ".join(best.split()), 10**9))
    assert hits > 0
    # counts are sorted desc
    assert [h for _, h in col] == sorted((h for _, h in col), reverse=True)
    # fully in-dictionary query → no collation needed
    assert searcher.spellcheck_collate("assistant error") == []


def test_duel_classic_similarity(searcher, oracle):
    """Pluggable Similarity: classic TF-IDF ranks differently from BM25 but
    identically between engine and oracle."""
    for q in ["error ok", "assistant", '"tool output"', "+bash w00001"]:
        got = searcher.search(q, 10, similarity="classic")
        exp = [(d, float(s)) for d, s in oracle.search(q, 10, similarity="classic")]
        assert got == exp, q
    bm = searcher.search("error ok w00002", 10)
    cl = searcher.search("error ok w00002", 10, similarity="classic")
    assert bm != cl  # genuinely different model


def test_duel_lm_dirichlet(searcher, oracle):
    """LMDirichlet language-model similarity, duel-identical."""
    for q in ["error ok", "assistant", "+bash w00002", '"tool output"']:
        got = searcher.search(q, 10, similarity="lm")
        exp = [(d, float(s)) for d, s in oracle.search(q, 10, similarity="lm")]
        assert got == exp, q
    assert searcher.search("error w00005", 10, similarity="lm") != searcher.search("error w00005", 10)


def test_query_result_cache(ray_session, index, tmp_path):
    """queryResultCache: one per-actor cache keys every `collect` request.
    Repeated searches and repeated faceted /select requests hit it, a
    different facet field or fq misses, and deletes and dv updates empty
    it (on a copy of the index: both write to the index dir)."""
    import shutil

    import ray

    idx = str(tmp_path / "idx")
    shutil.copytree(INDEX_DIR, idx)
    s2 = Searcher(idx, num_actors=N_FILES // FILES_PER_SHARD)  # one cache per actor

    def cache():
        st = ray.get([a.result_cache_stats.remote() for a in s2.actors])
        return [sum(c[f] for c in st) for f in ("hits", "misses", "items")]

    try:
        r1 = s2.search("error ok", 10)
        r2 = s2.search("error ok", 10)
        assert r1 == r2
        assert ray.get(s2.actors[0].result_cache_stats.remote())["hits"] >= 1
        n = len(s2.actors)
        sel = {"q": "error", "rows": 5, "fq": "role:tool", "facet.field": "role"}
        r = s2.handle_select(sel)
        h0, m0, _ = cache()
        assert s2.handle_select(sel) == r
        h1, m1, _ = cache()
        assert (h1 - h0, m1 - m0) == (n, 0)  # one cached collect per actor
        for other in ({**sel, "facet.field": "tool"}, {**sel, "fq": "role:user"}):
            s2.handle_select(other)
            h2, m2, _ = cache()
            assert (h2 - h1, m2 - m1) == (0, n), other
            h1, m1 = h2, m2
        assert cache()[2] > 0
        assert s2.delete_by_query("bash") > 0
        assert cache()[2] == 0
        s2.handle_select(sel)
        assert cache()[2] > 0
        s2.update_numeric_docvalues("turn_idx", {r["response"]["docs"][0]["doc_id"]: 7})
        assert cache()[2] == 0
    finally:
        s2.close()


def test_duel_intervals(searcher, oracle):
    """Intervals-lite: ordered and unordered window containment."""
    from lucene_solr_ray.search.query import interval

    nodes = [
        interval(["tool", "bash"], max_width=4, ordered=True),
        interval(["tool", "bash"], max_width=4, ordered=False),
        interval(["error", "ok"], max_width=10, ordered=False),
        interval(["user", "question", "error"], max_width=8, ordered=True),
        interval(["assistant", "ok"], max_width=3, ordered=False),
    ]
    for i, node in enumerate(nodes):
        got = searcher.search_node(node, 10)
        exp = [(d, float(s)) for d, s in oracle.search_node(node, 10)]
        assert got == exp, f"interval#{i}\n got {got[:5]}\n exp {exp[:5]}"
    # unordered is a superset of ordered at equal width
    o = {d for d, _ in searcher.search_node(interval(["tool", "bash"], 4, True), 1000)}
    u = {d for d, _ in searcher.search_node(interval(["tool", "bash"], 4, False), 1000)}
    assert o <= u


def test_duel_intervals_algebra(searcher, oracle):
    """Full intervals algebra (ordered/unordered/or/containing/
    contained_by/not_*/overlapping), engine vs brute-force oracle."""
    from lucene_solr_ray.search import intervals as IV
    from lucene_solr_ray.search.query import intervals_query

    a, b, c = IV.iterm("tool"), IV.iterm("bash"), IV.iterm("output")
    trees = [
        IV.maxwidth(6, IV.ordered(a, b)),
        IV.maxwidth(6, IV.unordered(IV.iterm("error"), IV.iterm("ok"))),
        IV.ior(IV.maxwidth(3, IV.ordered(a, b)), IV.maxwidth(3, IV.ordered(a, c))),
        IV.containing(IV.maxwidth(8, IV.ordered(IV.iterm("user"), IV.iterm("error"))), IV.iterm("question")),
        IV.not_containing(IV.maxwidth(8, IV.ordered(IV.iterm("user"), IV.iterm("error"))), IV.iterm("question")),
        IV.contained_by(c, IV.maxwidth(5, IV.unordered(a, b))),
        IV.not_contained_by(c, IV.maxwidth(5, IV.unordered(a, b))),
        IV.overlapping(IV.maxwidth(4, IV.ordered(a, c)), IV.maxwidth(4, IV.ordered(c, b))),
        IV.maxwidth(9, IV.ordered(a, IV.maxwidth(4, IV.unordered(b, c)))),
        # regression: `or` INSIDE a chain — candidates must union the
        # alternatives, not require every branch term (candidate_docs)
        IV.maxwidth(3, IV.ordered(IV.ior(a, IV.iterm("user")), c)),
        IV.maxwidth(4, IV.unordered(IV.ior(IV.iterm("error"), IV.iterm("zzznotaterm")), a)),
    ]
    for i, tree in enumerate(trees):
        node = intervals_query(tree)
        got = searcher.search_node(node, 10)
        exp = [(d, float(s)) for d, s in oracle.search_node(node, 10)]
        assert got == exp, f"algebra#{i}\n got {got[:5]}\n exp {exp[:5]}"


def _committed_stats(d) -> tuple:
    from pathlib import Path

    from lucene_solr_ray.index import stats_path
    from lucene_solr_ray.index.stats_sidecar import sidecar_path

    p = Path(stats_path(d))
    return p.read_bytes(), sidecar_path(p).read_bytes()


def test_finalize_rewrites_missing_shard_runs_identical(ray_session, index):
    """An index whose shards have no sorted stats runs (built before they
    existed, or a compacted super-shard) gets them on its next _finalize;
    the new generation's stats parquet and sidecar are byte-identical to
    the committed ones, and their rows equal an independent group_by over
    every shard's postings."""
    import shutil
    from pathlib import Path

    from lucene_solr_ray.index import stats_path
    from lucene_solr_ray.index.build import SHARD_STATS_NAME, Manifest, _finalize

    tmp = Path("/tmp/lsr_statsrun_idx")
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.copytree(INDEX_DIR, tmp)
    runs = sorted(tmp.glob(f"shards/shard=*/{SHARD_STATS_NAME}"))
    assert len(runs) == len(index.data["shards"])
    for r in runs:
        r.unlink()
    m = Manifest.load(tmp)
    _finalize(tmp, m)
    assert m.data["stats"]["stats_file"] != index.data["stats"]["stats_file"]
    assert _committed_stats(tmp) == _committed_stats(INDEX_DIR)
    assert all(r.exists() for r in runs)
    files = sorted(glob.glob(f"{INDEX_DIR}/shards/shard=*/postings-*.parquet"))
    want = (
        pa.concat_tables(pq.read_table(f, columns=["term", "df", "cf"]) for f in files)
        .group_by("term")
        .aggregate([("df", "sum"), ("cf", "sum")])
        .sort_by("term")
    )
    got = pq.read_table(stats_path(tmp))
    assert got.column("term").equals(want.column("term"))
    assert got.column("df").equals(want.column("df_sum"))
    assert got.column("cf").equals(want.column("cf_sum"))
    shutil.rmtree(tmp, ignore_errors=True)


def test_kill_in_finalize_and_rerun(corpus, index, monkeypatch):
    """A crash inside _finalize after the stats file is in place (the
    manifest commit raises once): a resume=True rerun commits, with stats
    byte-identical to an uninterrupted build."""
    from lucene_solr_ray.index.manifest import Manifest

    paths, _ = corpus
    idx = "/tmp/lsr_test_index_finalize_crash"
    commit = Manifest.commit
    calls = []

    def crash_once(self, stats):
        calls.append(stats["stats_file"])
        if len(calls) == 1:
            raise RuntimeError("injected failure in commit")
        commit(self, stats)

    monkeypatch.setattr(Manifest, "commit", crash_once)
    with pytest.raises(RuntimeError, match="injected failure in commit"):
        build_index(paths, idx, files_per_shard=FILES_PER_SHARD, resume=False)
    assert json.loads(open(f"{idx}/manifest.json").read())["status"] == "building"
    m = build_index(paths, idx, files_per_shard=FILES_PER_SHARD, resume=True)
    assert m.committed and len(calls) == 2
    assert m.data["stats"]["stats_file"] == calls[1] != calls[0]
    assert _committed_stats(idx) == _committed_stats(INDEX_DIR)


def test_shard_run_writer_failure_leaves_nothing(index, monkeypatch):
    """A run writer that raises leaves neither a run nor its tmp behind."""
    import os
    import shutil
    from pathlib import Path

    import lucene_solr_ray.index.build as build_mod

    d = Path("/tmp/lsr_statsrun_fail_shard")
    shutil.rmtree(d, ignore_errors=True)
    shutil.copytree(sorted(Path(INDEX_DIR).glob("shards/shard=*"))[0], d)
    (d / build_mod.SHARD_STATS_NAME).unlink()
    before = sorted(os.listdir(d))

    def boom(*a):
        raise OSError("injected failure in run rename")

    monkeypatch.setattr(build_mod.os, "replace", boom)
    with pytest.raises(OSError, match="injected"):
        build_mod._write_shard_stats(str(d))
    monkeypatch.undo()
    assert sorted(os.listdir(d)) == before
    shutil.rmtree(d, ignore_errors=True)


def test_duel_dfr_similarity(searcher, oracle):
    """DFR I(n)L2 similarity (DFRSimilarity In+L+H2), duel-identical."""
    for q in ["error ok", "assistant", "+bash w00002", '"tool output"', "w0000* error"]:
        got = searcher.search(q, 10, similarity="dfr")
        exp = [(d, float(s)) for d, s in oracle.search(q, 10, similarity="dfr")]
        assert got == exp, q
    assert searcher.search("error ok", 10, similarity="dfr") != searcher.search("error ok", 10)


def test_duel_match_all(searcher, oracle):
    """MatchAllDocsQuery (*:*): every doc at score 1, composable in
    boolean clauses; FieldExists via wildcard expansion (role:*)."""
    got = searcher.search("*:*", 2000)
    exp = [(d, float(s)) for d, s in oracle.search("*:*", 2000)]
    assert got == exp and len(got) == oracle.N
    for q in ["*:* -error", "#*:*", "error #*:*", "role:*", "tool:* error"]:
        got = searcher.search(q, 10)
        exp = [(d, float(s)) for d, s in oracle.search(q, 10)]
        assert got == exp, q


def test_explain_matches_search(searcher, oracle):
    """debugQuery explanation: the explained total equals the hit's score,
    and per-term contributions sum to the total for pure disjunctions."""
    hits = searcher.search("error ok", 5)
    for doc, score in hits:
        ex = searcher.explain("error ok", doc)
        assert ex is not None
        assert ex["total"] == score
        assert abs(sum(ex["terms"].values()) - score) < 1e-5
    assert searcher.explain("error", 10**9) is None
    ex = searcher.explain("+error -bash", hits[0][0])
    if ex is not None:
        assert "error" in ex["terms"]


def test_terms_and_facet_api(searcher, oracle):
    """/terms enumeration + keyword-field facet straight from term stats."""
    top = searcher.terms(limit=5)
    assert len(top) == 5 and all(df >= 1 for _, df in top)
    assert top[0][1] == max(df for _, df in top)
    # prefix enumeration matches the oracle's df
    for t, df in searcher.terms(prefix="w000", limit=10):
        assert oracle.df[t] == df and t.startswith("w000")
    # keyword facet == df of role:* terms == docs per role
    fac = dict(searcher.facet_field("role"))
    for val, cnt in fac.items():
        assert oracle.df[f"role:{val}"] == cnt


def test_query_elevation(searcher):
    organic = searcher.search("error ok", 5)
    pin = [organic[3][0], 999999]  # one real doc promoted + one synthetic id
    got = searcher.search_elevated("error ok", 5, {"error ok": pin})
    assert [d for d, _ in got[:2]] == pin  # pinned first, config order
    rest = [d for d, _ in got[2:]]
    assert pin[0] not in rest  # no duplicate of the promoted doc
    assert rest == [d for d, _ in organic if d not in pin][: len(rest)]


def test_fetch_text_roundtrip(searcher, corpus):
    """fetch_text reads the stored text of arbitrary docs via the lineage
    (pid-pruned source read + (conv_id, turn_idx) rank)."""
    _, full = corpus
    want = [0, 17, full.num_rows // 2, full.num_rows - 1]
    got = searcher.fetch_text(want)
    texts = full.column("text").to_pylist()
    for d in want:
        assert got[d] == texts[d]


def test_term_vectors_duel(searcher, corpus, oracle):
    """/tvrh: tf + positions equal a direct re-analysis; df equals the
    brute-force oracle's global df."""
    from lucene_solr_ray.analysis.analyzer import tokenize

    _, full = corpus
    doc = full.num_rows // 3
    vec = searcher.term_vectors(doc)
    toks = tokenize(full.column("text")[doc].as_py())
    assert sum(e["tf"] for e in vec.values()) == len(toks)
    exp: dict[str, list[int]] = {}
    for t, p in toks:
        exp.setdefault(t, []).append(p)
    assert {t: e["positions"] for t, e in vec.items()} == exp
    for t, e in vec.items():
        assert e["df"] == oracle.df[t]
    assert searcher.term_vectors(10**9) == {}


def test_more_like_this_duel(searcher, corpus, oracle):
    """MLT = independent term selection (tf·idf, same formula) + SHOULD
    BooleanQuery scored by the brute-force oracle; rank AND float32 score
    identical, seed doc excluded."""
    import math

    from lucene_solr_ray.analysis.analyzer import tokenize
    from lucene_solr_ray.search.query import QueryNode

    _, full = corpus
    doc = full.num_rows // 4
    got = searcher.more_like_this(doc, k=8, max_query_terms=10)
    assert got and all(d != doc for d, _ in got)

    tf: dict[str, int] = {}
    for t, _p in tokenize(full.column("text")[doc].as_py()):
        tf[t] = tf.get(t, 0) + 1
    scored = []
    for t, f in tf.items():
        df = oracle.df.get(t, 0)
        if df == 0:
            continue
        idf = math.log(1.0 + (oracle.N - df + 0.5) / (df + 0.5))
        scored.append((-(f * idf), t))
    scored.sort()
    terms = [t for _, t in scored[:10]]
    node = QueryNode("bool", clauses=[("SHOULD", QueryNode("term", terms=[t])) for t in terms])
    exp = [(d, float(s)) for d, s in oracle.search_node(node, 9) if d != doc][:8]
    assert got == exp


def test_index_info(searcher, oracle, index):
    """Luke handler analog: manifest-derived metadata + distributed top terms."""
    info = searcher.index_info(top_terms=5)
    assert info["max_doc"] == oracle.N
    assert info["num_docs"] == oracle.N - info["deleted_docs"]
    assert info["sum_ttf"] == oracle.sum_ttf
    assert info["avgdl"] == pytest.approx(oracle.avgdl, abs=0)
    assert info["num_segments"] == len(index.data["segments"])
    assert len(info["top_terms"]) == 5
    assert info["top_terms"] == searcher.terms(limit=5)


@pytest.mark.parametrize("sim", ["lmjm", "ib", "axiomatic", "bool", "dfi", "dfi_standardized", "dfi_saturated", "dfr_if", "dfr_ine"])
def test_duel_similarity_long_tail(searcher, oracle, sim):
    """r4 similarity long tail (SURVEY §2.11 search/similarities/):
    LMJelinekMercer (λ=0.1), IB LL/DF/H2, Axiomatic F2EXP (s=0.5, k=0.35),
    BooleanSimilarity — rank + float32-score duel-identical across term/
    boolean/phrase/prefix/synonym shapes."""
    queries = [
        "error ok",
        "assistant",
        "+bash w00002",
        '"tool output"',
        "w0000* error",
        "error^2 -bash",
    ]
    for q in queries:
        got = searcher.search(q, 10, similarity=sim)
        exp = [(d, float(s)) for d, s in oracle.search(q, 10, similarity=sim)]
        assert got == exp, (sim, q)
    # each sim actually changes the ranking function vs BM25 (bool trivially
    # flattens scores; the others reweight)
    assert searcher.search("error ok", 10, similarity=sim) != searcher.search("error ok", 10)


def test_boolean_similarity_flat_scores(searcher):
    """BooleanSimilarity: per-term contribution is the boost — tf and doc
    length never matter, so single-term scores are constant."""
    hits = searcher.search("error", 50, similarity="bool")
    assert hits and len({s for _, s in hits}) == 1
    assert hits[0][1] == 1.0


def test_unified_highlighter(searcher, oracle, corpus):
    """UnifiedHighlighter passage scoring over the top hits: snippets wrap
    the query terms, passage ranking follows the PassageScorer arithmetic
    (duel vs the shared single-doc reference scorer on re-analyzed text)."""
    from lucene_solr_ray.analysis import tokenize
    from lucene_solr_ray.pipelines.highlight import score_passages

    _, full = corpus
    texts = full.column("text").to_pylist()
    out = searcher.highlight("error ok", k=5, fragsize=8, snippets=2)
    assert out and all(len(frags) >= 1 for _, _, frags in out)
    ttf = {"error": oracle.cf("error"), "ok": oracle.cf("ok")}
    for doc, score, frags in out:
        toks = [t for t, _ in tokenize(texts[doc])]
        exp = score_passages(toks, ("error", "ok"), ttf, fragsize=8, snippets=2)
        assert frags == exp, doc
        # best-first passage ordering, markup wraps only query terms
        scores = [s for _, s, _ in frags]
        assert scores == sorted(scores, reverse=True)
        for _, _, snip in frags:
            assert "<em>error</em>" in snip or "<em>ok</em>" in snip
            assert "<em>the</em>" not in snip
    # a query with no positive analyzable terms still returns the hits
    flat = searcher.highlight('"tool output"', k=3, fragsize=8)
    assert len(flat) == 3 and all(f for _, _, f in flat)


def test_passage_scorer_ranking_properties():
    """More matched terms / denser matches rank passages higher; snippets
    cap respected; empty text yields nothing."""
    from lucene_solr_ray.pipelines.highlight import score_passages

    ttf = {"a": 100, "b": 50}
    toks = (
        ["x"] * 8                       # passage 0: no match
        + ["a", "x", "x", "x", "x", "x", "x", "x"]   # passage 1: one a
        + ["a", "b", "a", "x", "x", "x", "x", "x"]   # passage 2: a,a,b
    )
    out = score_passages(toks, ("a", "b"), ttf, fragsize=8, snippets=3)
    assert [p for p, _, _ in out][0] == 2       # densest passage wins
    assert len(out) == 2                        # passage 0 never scored
    assert out[0][2].startswith("<em>a</em> <em>b</em> <em>a</em>")
    assert score_passages([], ("a",), ttf) == []
    assert len(score_passages(toks, ("a",), ttf, fragsize=4, snippets=1)) == 1


@pytest.mark.parametrize("sim", ["lm", "lmjm", "ib", "axiomatic", "dfr", "dfi", "dfr_if", "dfr_ine"])
def test_duel_synonym_blended_weight_all_sims(searcher, oracle, sim):
    """SynonymQuery blended weights per similarity — the engine sums
    member cfs BEFORE the division for the lm family; the oracle must use
    the identical float order (ulp-divergent otherwise)."""
    from lucene_solr_ray.search.query import synonym_query

    node = synonym_query(["error", "ok"])
    got = searcher.search_node(node, 10, similarity=sim)
    oracle.similarity = sim
    try:
        exp = [(d, float(s)) for d, s in oracle.search_node(node, 10)]
    finally:
        oracle.similarity = "bm25"
    assert got == exp, sim


def test_search_after_deep_paging(searcher, oracle):
    """IndexSearcher.searchAfter: successive pages reconstruct the full
    ranking exactly (duel vs one big oracle page), pages never overlap,
    and the bound applies shard-side including float32 score ties."""
    q = "error ok bash"
    full = [(d, float(s)) for d, s in oracle.search(q, 10**6)]
    pages, after = [], None
    for _ in range(12):
        page = searcher.search_after(q, k=10, after=after)
        if not page:
            break
        pages.extend(page)
        after = page[-1]
    assert pages == full[: len(pages)]
    assert len(pages) == min(len(full), 120)
    assert len({d for d, _ in pages}) == len(pages)  # no duplicates across pages
    # page one with after=None equals plain search
    assert searcher.search_after(q, k=10) == searcher.search(q, 10, prune=False)
    # similarity variants page identically
    p1 = searcher.search_after("error ok", 5, similarity="classic")
    p2 = searcher.search_after("error ok", 5, after=p1[-1], similarity="classic")
    oracle.similarity = "classic"
    try:
        exp = [(d, float(s)) for d, s in oracle.search_node(parse_query("error ok"), 10)]
    finally:
        oracle.similarity = "bm25"
    assert p1 + p2 == exp


def test_schema_api(searcher):
    """Read-only /schema surface: field model + analyzer + codec from the
    committed manifest."""
    sch = searcher.schema()
    names = {f["name"] for f in sch["fields"]}
    assert "text" in names and {"role", "tool"} <= names
    text_f = next(f for f in sch["fields"] if f["name"] == "text")
    assert text_f["norms"] and text_f["avgdl"] > 0
    role_f = next(f for f in sch["fields"] if f["name"] == "role")
    assert role_f["type"] == "string" and not role_f["norms"]
    assert sch["analyzer"]["tokenizer"] == "standard"
    assert sch["codec"] in ("varbyte", "for")


def test_highlight_custom_tags_and_freetext_backoff(searcher):
    """hl.tag.pre/post override the markup; the persisted freetext
    suggester backs off to unigram popularity on an unseen context."""
    out = searcher.highlight("error", k=2, fragsize=8, tag_pre="[", tag_post="]")
    assert any("[error]" in snip for _, _, frags in out for _, _, snip in frags)
    from lucene_solr_ray.index.suggest import Suggester, build_suggester

    d = build_suggester("/root/testdata/sf0.001")
    s = Suggester(d)
    bo = s.lookup_freetext("zzzznotatoken", 5)
    assert len(bo) == 5 and (bo["cnt"] > 0).all()  # stupid-backoff unigrams
    assert len(s.lookup_freetext("zzzznotatoken", 5, backoff=False)) == 0


def test_search_after_fuzz_queries(searcher, oracle):
    """searchAfter paging reconstructs the oracle ranking for varied query
    shapes (boolean, phrase, prefix, filter) and page sizes."""
    for q, k in [
        ("+error ok", 7),
        ('"tool output" bash', 5),
        ("w0000* -bash", 9),
        ("error #role:assistant", 6),
    ]:
        full = [(d, float(s)) for d, s in oracle.search(q, 10**6)]
        pages, after = [], None
        while len(pages) < min(len(full), 40):
            page = searcher.search_after(q, k=k, after=after)
            if not page:
                break
            pages.extend(page)
            after = page[-1]
        assert pages == full[: len(pages)], q
        assert len(pages) == min(len(full), len(pages) // k * k + (len(pages) % k)), q


def test_terms_sort_index_and_mincount(searcher, oracle):
    """terms.sort=index + terms.mincount: global-df filter then plain term
    order (TermsComponent params)."""
    out = searcher.terms(prefix="err", limit=5, sort="index")
    assert out == sorted(out)  # term order, not count order
    assert all(oracle.df[t] == d for t, d in out)
    hi = searcher.terms(limit=1000, mincount=50)
    assert all(d >= 50 for _, d in hi)
    assert searcher.terms(limit=10, mincount=10**9) == []


def test_search_collapse_duel(searcher, oracle, corpus):
    """{!collapse field=...} on the index path: one best hit per doc-value
    group — duel vs a brute-force collapse over the oracle's full ranking."""
    _, full = corpus
    for fld, q in [("role", "error ok"), ("tool", "+error bash"), ("role", '"tool output"')]:
        vals = full.column(fld).to_pylist()
        ranked = oracle.search(q, 10**6)
        seen, exp = set(), []
        for d, s in ranked:
            v = vals[d]
            if v is None or v in seen:
                continue
            seen.add(v)
            exp.append((d, float(s), str(v)))
        got = searcher.search_collapse(q, fld, k=10)
        assert got == exp[:10], (fld, q)
    # unknown field ⇒ no dv column ⇒ empty, not an error
    assert searcher.search_collapse("error", "nosuchfield", 5) == []


def test_search_collapse_expand_duel(searcher, oracle, corpus):
    """ExpandComponent on the index path: collapsed heads + per-group top
    expand.rows OTHER members, dueled vs brute force over the full
    ranking (rank AND float32-score identical)."""
    _, full = corpus
    for fld, q, rows in [("role", "error ok", 3), ("tool", "+error bash", 2), ("role", '"tool output"', 5)]:
        vals = full.column(fld).to_pylist()
        ranked = oracle.search(q, 10**6)
        heads, expanded = searcher.search_collapse_expand(q, fld, k=10, expand_rows=rows)
        assert heads == searcher.search_collapse(q, fld, k=10)
        head_docs = {d for d, _, _ in heads}
        head_vals = [v for _, _, v in heads]
        assert set(expanded) == set(head_vals)
        for gv in head_vals:
            exp = [
                (d, float(s))
                for d, s in ranked
                if vals[d] is not None and str(vals[d]) == gv and d not in head_docs
            ][:rows]
            assert expanded[gv] == exp, (fld, q, gv)
    # empty query → ([], {})
    assert searcher.search_collapse_expand("zzzzqqq", "role", 5) == ([], {})


@pytest.mark.parametrize("sim", ["dfr_if", "dfr_ine", "dfi", "lmjm"])
def test_duel_intervals_under_new_sims(searcher, oracle, sim):
    """Interval/surround queries under the similarity long tail — the
    oracle's interval-tree scoring must carry every sim branch (review
    fix: dfr variants fell through to BM25)."""
    from lucene_solr_ray.search.query import expand_multi_term
    from lucene_solr_ray.search.surround import parse_surround, surround_to_node

    if not hasattr(oracle, "_vocab"):
        oracle._vocab = np.array(sorted(oracle.df), dtype=object)
    for q in ("error 3w ok", "tool 2n output"):
        got = searcher.search_surround(q, 10, similarity=sim)
        node = surround_to_node(parse_surround(q), lambda n: expand_multi_term(n, oracle._vocab))
        oracle.similarity = sim
        try:
            exp = [(d, float(s)) for d, s in oracle.search_node(node, 10)]
        finally:
            oracle.similarity = "bm25"
        assert got == exp, (sim, q)
