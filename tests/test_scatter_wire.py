"""Every driver→shard call on a Ray pool travels as one pickled request to
`IndexShard.call` and comes back as one pickled reply (`Searcher._scatter`).
The wire must not change an answer: a 1- and a 2-actor Ray pool answer
exactly as the in-process Searcher does (docIDs and float32 score bits),
an exception raised in a shard method reaches the caller as its own type,
and `call` serves public methods only."""

import pickle
import re
import shutil

import numpy as np
import pytest

from lucene_solr_ray.fixtures import write_transcripts
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search import Searcher

SEARCHES = ["error ok", "tool OR output", "+tool +output", '"tool output"', '"tool bash"~2']

SELECTS = [
    {"q": "error", "rows": 5, "fq": "role:tool"},
    {"q": "error ok", "rows": 4, "fq": "role:tool", "facet.field": "role"},
    {"q": "tool output", "rows": 3, "facet.field": "role"},
]


@pytest.fixture(scope="module")
def index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("wire")
    paths = write_transcripts(str(d / "corpus"), 120, 2)
    build_index(paths, str(d / "index"), files_per_shard=1)  # 2 shards
    return str(d / "index")


def _score_bits(hits):
    """(docID, float32 bits of the score) per hit."""
    return [(d, int(np.float32(s).view(np.uint32))) for d, s in hits]


def _answers(index, tmp_path, tag, **kw):
    out = []
    s = Searcher(index, **kw)
    try:
        for q in SEARCHES:
            out.append(("search", q, _score_bits(s.search(q, 10))))
        for p in SELECTS:
            out.append(("select", repr(p), repr(s.handle_select(dict(p)))))
        out.append(("explain", repr(s.explain("error ok", s.search("error ok", 1)[0][0]))))
        out.append(("terms", s.terms("to", 10), s.terms("", 10, r"w0000\d")))
        out.append(("spellcheck", repr(s.spellcheck("outpot"))))
    finally:
        s.close()
    # deletes write tombstones next to the index: a copy per Searcher
    idx = tmp_path / tag
    shutil.copytree(index, idx)
    s = Searcher(str(idx), **kw)
    try:
        n = s.delete_by_query("#role:tool")
        out.append(("delete", n, _score_bits(s.search("error ok", 10)), s.count("error")))
        s.clear_deletes()
        out.append(("cleared", _score_bits(s.search("error ok", 10)), s.count("error")))
    finally:
        s.close()
    return out


def test_ray_pools_answer_as_in_process(index, tmp_path):
    local = _answers(index, tmp_path, "local", use_ray=False)
    assert local[0][2] and local[-2][1] > 0  # hits, and the delete matched
    for n in (1, 2):
        assert _answers(index, tmp_path, f"pool{n}", num_actors=n) == local, n


def test_shard_exception_keeps_its_type(index):
    s = Searcher(index, num_actors=2)
    try:
        with pytest.raises(re.error):
            s.terms("", 10, "(")  # compiled shard-side
        assert s.terms("to", 3)  # the pool still serves
    finally:
        s.close()


def test_call_refuses_private_methods(index):
    import ray

    shard = Searcher(index, use_ray=False).actors[0]  # the in-process IndexShard
    assert pickle.loads(shard.call(pickle.dumps(("ping", ())))) is True
    with pytest.raises(ValueError, match="not a public method"):
        shard.call(pickle.dumps(("_term_dict", ())))
    s = Searcher(index, num_actors=1)
    try:
        with pytest.raises(ValueError, match="not a public method"):
            ray.get(s.actors[0].call.remote(pickle.dumps(("_term_dict", ()))))
    finally:
        s.close()
