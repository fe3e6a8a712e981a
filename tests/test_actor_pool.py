"""The shard-actor pool: its default size follows the index's documents
(one actor up to DOCS_PER_ACTOR docs, else one per shard capped by the
CPUs), every pool size gives the same answers and applies the same
deletes and doc-values updates, and a closed Searcher raises."""

import shutil

import pytest

from lucene_solr_ray.fixtures import write_transcripts
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search import Searcher
from lucene_solr_ray.search.searcher import DOCS_PER_ACTOR, default_pool_size

N_SHARDS = 3


@pytest.fixture(scope="module")
def index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("pool")
    paths = write_transcripts(str(d / "corpus"), 120, N_SHARDS)
    build_index(paths, str(d / "index"), files_per_shard=1)
    return str(d / "index")


@pytest.mark.parametrize(
    "n_docs,n_shards,cpus,want",
    [
        (0, 4, 4, 1),  # an empty index still gets one actor
        (DOCS_PER_ACTOR, 4, 4, 1),
        (DOCS_PER_ACTOR + 1, 4, 4, 4),  # past one actor: the full pool
        (DOCS_PER_ACTOR + 1, 8, 3, 3),  # capped by the CPUs
        (DOCS_PER_ACTOR + 1, 2, 8, 2),  # capped by the shards
        (10 * DOCS_PER_ACTOR, 8, 3, 3),
        (DOCS_PER_ACTOR + 1, 0, 4, 1),
    ],
)
def test_default_pool_size(n_docs, n_shards, cpus, want):
    assert default_pool_size(n_docs, n_shards, cpus) == want


def test_small_index_gets_one_actor(index):
    s = Searcher(index)
    try:
        m = s.metrics()
        assert m["n_docs"] < DOCS_PER_ACTOR
        assert (len(s.actors), m["actors"], m["shards"]) == (1, 1, N_SHARDS)
    finally:
        s.close()


def sel(**params):
    return ("select", params)


CALLS = [
    ("search", "error ok", 10), ("search", "error ok", 10, False), ("search", '"tool output"', 5),
    ("search", '"tool bash"~2', 5), ("search", "+tool +output", 5), ("search", "{!q.op=AND}tool output", 5),
    sel(q="error", rows=4, fq="role:tool", **{"facet.field": "role"}),
    sel(q="{!q.op=AND}tool output", rows=3, **{"stats.field": "turn_idx"}),
    sel(q="output", rows=3, sort="turn_idx desc", fl="turn_idx"),
    ("search_grouped", "error", "tool", 3), ("search_sorted", "error", "turn_idx desc", 5),
    ("count", "error"), ("facet_search", "error", "role"),
    ("terms", "to", 10), ("terms", "", 10, r"w0000\d"), ("spellcheck", "outpot"),
    ("search", "outp*", 5), ("search", "*utput", 5), ("explain", "error ok", 34),
]


def _answers(index, num_actors):
    s = Searcher(index, num_actors=num_actors)
    try:
        assert len(s.actors) == num_actors
        return [s.handle_select(args[0]) if name == "select" else getattr(s, name)(*args)
                for name, *args in CALLS]
    finally:
        s.close()  # the two pools do not fit the session's CPUs together


def test_pool_size_does_not_change_answers(index):
    one, wide = _answers(index, 1), _answers(index, N_SHARDS)
    for call, a, b in zip(CALLS, one, wide):
        assert repr(a) == repr(b), call
    assert any(one)


def _writes(index, tmp_path, num_actors):
    """Deletes and dv updates on a copy of the index (both write to it):
    every actor must mask and patch exactly the docs it owns."""
    idx = str(tmp_path / f"pool{num_actors}")
    shutil.copytree(index, idx)
    s = Searcher(idx, num_actors=num_actors)
    try:
        docs = range(0, s.stats.N, 7)  # spread over every shard
        out = [s.delete_by_query("#role:tool"), s.delete_by_query("#role:tool"),
               s.search("error ok", 10), s.count("error"),
               s.update_numeric_docvalues("turn_idx", {d: 1000.0 + d for d in docs}),
               s.search_sorted("error", "turn_idx desc", 5), s.stats_field("error", "turn_idx")]
        assert out[4] == len(docs)  # each doc patched once, by its owner
        s.clear_deletes()
        return out + [s.search("error ok", 10), s.search_sorted("error", "turn_idx desc", 5)]
    finally:
        s.close()


def test_pool_size_does_not_change_writes(index, tmp_path):
    one, wide = _writes(index, tmp_path, 1), _writes(index, tmp_path, N_SHARDS)
    assert repr(one) == repr(wide)
    assert wide[0] > 0 and wide[1] == 0  # deleted, then nothing new


@pytest.mark.parametrize("use_ray", [True, False])
def test_closed_searcher_raises(index, use_ray):
    s = Searcher(index, use_ray=use_ray)
    assert s.count("error") > 0
    s.close()
    for call in (lambda: s.search("error"), lambda: s.count("error"),
                 lambda: s.handle_select({"q": "error"}), lambda: s.terms("to", 5)):
        with pytest.raises(RuntimeError, match="Searcher is closed"):
            call()
