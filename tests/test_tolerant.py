"""shards.tolerant partial results: a dead shard actor is skipped, the
answer covers the live subset, and `last_partial` reports degradation
(SearchHandler partialResults semantics)."""

import time

import pytest

from lucene_solr_ray.fixtures import write_transcripts
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search import Searcher


def _kill_and_wait(actor, timeout: float = 30.0) -> None:
    """`ray.kill` returns before the actor is dead: poll it until a call
    fails, so the next scatter is certain to reach a dead shard."""
    import ray

    ray.kill(actor)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            ray.get(actor.ping.remote())
        except ray.exceptions.RayActorError:
            return
        time.sleep(0.05)
    raise AssertionError(f"actor still answers {timeout}s after ray.kill")


def test_shards_tolerant_partial_results(ray_session, tmp_path):
    import ray

    paths = write_transcripts(str(tmp_path / "corpus"), 80, 4)
    build_index(paths, str(tmp_path / "index"), files_per_shard=2)  # 2 shards
    s = Searcher(str(tmp_path / "index"), num_actors=2)  # one actor dies, one answers
    try:
        full = s.search("error", 50)
        full_count = s.count("error")
        assert full and full_count > 0

        _kill_and_wait(s.actors[0])
        # default (tolerant off): the dead shard fails the request
        with pytest.raises(ray.exceptions.RayActorError):
            s.search("error", 50)

        s.tolerant = True
        part = s.search("error", 50)
        assert s.last_partial is True
        full_scores = dict(full)
        assert part  # the live shard still answers
        assert len(part) < len(full)
        for d, sc in part:  # subset of the full answer, identical scores
            assert full_scores[d] == sc
        # every scatter op inherits: count over the live subset only
        assert 0 < s.count("error") < full_count
        assert s.last_partial is True
        # numFound and facets come from the same live subset
        r = s.handle_select({"q": "error", "rows": 0, "facet.field": "role", "facet.missing": "true"})
        assert s.last_partial is True
        n = r["response"]["numFound"]
        assert 0 < n < full_count and sum(c for _, c in r["facet_counts"]["facet_fields"]["role"]) == n
        # healthy scatter on the live shard resets the flag only per call
        s.tolerant = False
        with pytest.raises(ray.exceptions.RayActorError):
            s.count("error")
    finally:
        s.close()


def test_tolerant_select_answers_from_one_live_subset(ray_session, tmp_path):
    """A shard that dies after the first scatter cannot split a /select
    answer: the page, numFound and the facets come from the same live
    subset."""
    import ray

    paths = write_transcripts(str(tmp_path / "corpus"), 80, 4)
    build_index(paths, str(tmp_path / "index"), files_per_shard=2)  # 2 shards
    s = Searcher(str(tmp_path / "index"), num_actors=2)  # one actor dies, one answers
    scatter, killed = s._scatter, []

    def scatter_then_kill(method, *args):
        out = scatter(method, *args)
        if not killed:
            ray.kill(s.actors[0])
            killed.append(method)
        return out

    s._scatter = scatter_then_kill
    s.tolerant = True
    try:
        r = s.handle_select({"q": "error", "rows": 10**6, "facet.field": "role"})
        docs, n = r["response"]["docs"], r["response"]["numFound"]
        assert n > 0 and len(docs) == n == sum(c for _, c in r["facet_counts"]["facet_fields"]["role"])
    finally:
        del s._scatter
        s.close()
