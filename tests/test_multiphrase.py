"""MultiPhraseQuery duel (lucene/core/.../search/MultiPhraseQuery.java):
per-slot alternative unions, exact + sloppy, scored with combined-term
idf — engine vs BruteForceIndex, rank AND float32 score identical."""

import pytest

from lucene_solr_ray.search.query import QueryNode, multi_phrase

# reuse the session-scoped corpus/index/searcher/oracle fixtures
from tests.test_build_search import corpus, index, oracle, searcher  # noqa: F401


CASES = [
    # slots, slop
    ([["tool", "assistant"], ["output"]], 0),
    ([["tool"], ["output", "result"]], 0),
    ([["tool", "user"], ["output", "ok"]], 0),
    ([["error", "ok"], ["assistant", "tool"]], 1),
    ([["tool"], ["output"], ["bash", "python"]], 0),
    ([["tool", "zzznotaterm"], ["output"]], 0),  # absent alternative ignored
    ([["zzznotaterm"], ["output"]], 0),  # dead slot → no matches
    ([["tool"], ["output", "zzz2"]], 2),  # sloppy with absent alternative
]


def test_duel_multi_phrase(searcher, oracle):  # noqa: F811
    for i, (slots, slop) in enumerate(CASES):
        node = multi_phrase(slots, slop=slop)
        got = searcher.search_node(node, 10)
        exp = [(d, float(s)) for d, s in oracle.search_node(node, 10)]
        assert got == exp, f"case#{i} {slots} slop={slop}\n got {got[:5]}\n exp {exp[:5]}"


PLAIN_PHRASES = [
    ["tool", "output"],
    ["tool", "output", "bash"],
    ["ok", "ok"],
    ["ok", "ok", "ok"],
    ["w00000", "w00000", "w00000"],
]


def test_multi_phrase_supersets_plain_phrase(searcher):  # noqa: F811
    """A one-alternative-per-slot multi-phrase equals the plain phrase
    (repeated terms included), the pruned phrase page equals the
    exhaustive one, and adding alternatives can only widen the match set."""
    for terms in PLAIN_PHRASES:
        for slop in (0, 1, 2):
            case = f"{terms} slop={slop}"
            node = QueryNode("phrase", terms=terms, slop=slop)
            plain = searcher.search_node(node, 1000)
            mp1 = searcher.search_node(multi_phrase([[t] for t in terms], slop=slop), 1000)
            # not vacuous: "ok ok ok" never occurs in this corpus, it pins
            # the empty repeated-term case
            assert plain or slop < 2 or terms == ["ok", "ok", "ok"], case
            assert plain == mp1, case
            for k in (1, 3, 10):
                assert searcher.search_node(node, k) == searcher.search_node(node, k, prune=False), case
            widened = [[terms[0], "user"]] + [[t] for t in terms[1:]]
            wide = searcher.search_node(multi_phrase(widened, slop=slop), 1000)
            assert {d for d, _ in mp1} <= {d for d, _ in wide}, case


def test_multi_phrase_boost(searcher):  # noqa: F811
    base = searcher.search_node(multi_phrase([["tool"], ["output"]]), 5)
    boosted = searcher.search_node(multi_phrase([["tool"], ["output"]], boost=2.0), 5)
    assert [d for d, _ in base] == [d for d, _ in boosted]
    for (_, s1), (_, s2) in zip(base, boosted):
        assert s2 == pytest.approx(2 * s1, rel=1e-6)


SYN_CASES = [
    ["tool", "instrument"],
    ["error", "ok"],
    ["assistant", "user"],
    ["tool", "zzznotaterm"],
    ["zzznotaterm", "zzzalsomissing"],
]


def test_duel_synonym_query(searcher, oracle):  # noqa: F811
    """SynonymQuery: blended df=max / tf=sum scoring, engine vs oracle."""
    from lucene_solr_ray.search.query import QueryNode, synonym_query

    for sim in ("bm25", "classic"):
        for terms in SYN_CASES:
            node = synonym_query(terms)
            got = searcher.search_node(node, 10, similarity=sim)
            oracle.similarity = sim
            exp = [(d, float(s)) for d, s in oracle.search_node(node, 10)]
            oracle.similarity = "bm25"
            assert got == exp, f"{terms} {sim}\n got {got[:3]}\n exp {exp[:3]}"
    # inside a boolean tree
    node = QueryNode(
        "bool",
        clauses=[("MUST", synonym_query(["tool", "instrument"])), ("SHOULD", synonym_query(["error", "ok"]))],
    )
    got = searcher.search_node(node, 10)
    exp = [(d, float(s)) for d, s in oracle.search_node(node, 10)]
    assert got == exp


def test_synonym_differs_from_dismax(searcher):  # noqa: F811
    """SynonymQuery blends (sum tf, one idf); dismax takes the best member
    — on a corpus where both members occur they must disagree."""
    from lucene_solr_ray.search.query import dismax, synonym_query, QueryNode

    t = lambda x: QueryNode("term", terms=[x])  # noqa: E731
    syn = dict(searcher.search_node(synonym_query(["tool", "output"]), 1000))
    dm = dict(searcher.search_node(dismax([t("tool"), t("output")]), 1000))
    assert set(syn) == set(dm)  # same match set (union)
    assert any(abs(syn[d] - dm[d]) > 1e-9 for d in syn)  # different scores


# a graph token filter that stacks a synonym on the SAME position as its
# source term: the only way two alternatives of one slot share a position
SAME_POS_SYNONYMS = {("tool",): [("instrument",)], ("output",): [("result",)]}
GRAPH_CASES = [
    ([["tool", "instrument"], ["output"]], 0),
    ([["tool", "instrument"], ["output", "result"]], 0),
    ([["tool"], ["output", "result"], ["bash"]], 0),
    ([["instrument"], ["result"]], 0),
    ([["tool", "instrument"], ["output", "result"]], 1),
    ([["tool", "instrument"], ["bash"]], 2),
    ([["tool", "instrument"], ["output", "result"], ["bash"]], 2),
]


@pytest.fixture(scope="module")
def graph_index(ray_session, corpus, tmp_path_factory):  # noqa: F811
    from lucene_solr_ray.analysis import tokenize
    from lucene_solr_ray.analysis.graph import as_token_filter, synonym_graph_filter
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.oracle import BruteForceIndex
    from lucene_solr_ray.search import Searcher

    paths, full = corpus
    flt = as_token_filter(synonym_graph_filter(SAME_POS_SYNONYMS))
    idx = tmp_path_factory.mktemp("graph") / "index"
    build_index(paths, idx, files_per_shard=3, token_filter=flt, analyzer_id="same_pos_synonyms")
    oracle = BruteForceIndex(
        full.column("text").to_pylist(),
        fields={"role": full.column("role").to_pylist(), "tool": full.column("tool").to_pylist()},
        analyzer=lambda text: flt(tokenize(text)),
    )
    s = Searcher(idx)
    yield s, oracle
    s.close()


def test_duel_multi_phrase_same_position_alternatives(graph_index):
    """Two alternatives of one slot at the same position count once
    (the slot is one union posting list): engine vs oracle, rank AND
    float32 score identical."""
    searcher, oracle = graph_index
    assert searcher.search("instrument", 1), "the synonym filter indexed nothing"
    for i, (slots, slop) in enumerate(GRAPH_CASES):
        node = multi_phrase(slots, slop=slop)
        got = searcher.search_node(node, 10)
        exp = [(d, float(s)) for d, s in oracle.search_node(node, 10)]
        assert got, f"case#{i} {slots} matches nothing"
        assert got == exp, f"case#{i} {slots} slop={slop}\n got {got[:5]}\n exp {exp[:5]}"
