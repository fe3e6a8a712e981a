"""A query-scoped feature is one shard collector plus one driver merge.
The match set evaluates in ONE place per request, `IndexShard.collect`;
these tests scan the search sources so no feature re-grows its own shard
method (a public method that calls `self._eval(`) or its own scatter to
one (`_scatter("<collector name>", ...)` in searcher.py)."""

import ast
from pathlib import Path

SEARCH = Path(__file__).resolve().parents[1] / "lucene_solr_ray" / "search"

# public IndexShard methods that may evaluate a query themselves: the
# collector host, the cached join from-side, one-doc explain, the /export
# file writer and the whole-match-set reader
EVAL_ALLOWED = {"collect", "join_values", "explain", "export_shard_sorted", "match_all"}

# the per-feature shard methods the collectors replaced
RETIRED = {
    "count_matches", "facet_query_counts", "facet_counts", "facet_pair_counts", "facet_tuple_counts",
    "range_facet_counts", "stats_partial", "facet_stats_partial", "top_groups", "top_groups_sorted",
    "top_k_sorted", "top_k_collapse", "expand_members", "scores_of", "top_k_boosted", "top_k_franged",
    "count_franged", "match_parents", "match_children", "match_parents_childfield",
}


def _calls_self_eval(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        f = getattr(node, "func", None)
        if (
            isinstance(node, ast.Call)
            and isinstance(f, ast.Attribute)
            and f.attr == "_eval"
            and isinstance(f.value, ast.Name)
            and f.value.id == "self"
        ):
            return True
    return False


def shard_violations(source: str) -> list[str]:
    """→ one message per public IndexShard method outside EVAL_ALLOWED
    that evaluates a query itself."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef) and cls.name == "IndexShard":
            for fn in cls.body:
                if (
                    isinstance(fn, ast.FunctionDef)
                    and not fn.name.startswith("_")
                    and fn.name not in EVAL_ALLOWED
                    and _calls_self_eval(fn)
                ):
                    out.append(f"actor.py:{fn.lineno}: IndexShard.{fn.name} calls self._eval — make it a collector")
    return out


def scatter_violations(source: str, collectors) -> list[str]:
    """→ one message per `_scatter("<name>", ...)` naming a collector (or
    a retired per-feature method) instead of going through `collect`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        f = getattr(node, "func", None)
        if isinstance(node, ast.Call) and isinstance(f, ast.Attribute) and f.attr == "_scatter" and node.args:
            name = node.args[0]
            if isinstance(name, ast.Constant) and (name.value in collectors or name.value in RETIRED):
                out.append(f"searcher.py:{node.lineno}: _scatter({name.value!r}) — use Searcher._collect")
    return out


def test_only_collect_evaluates_for_features():
    assert shard_violations((SEARCH / "actor.py").read_text()) == []


def test_searcher_scatters_no_collector():
    from lucene_solr_ray.search.actor import COLLECT

    assert scatter_violations((SEARCH / "searcher.py").read_text(), COLLECT) == []


def test_retired_shard_methods_are_gone():
    from lucene_solr_ray.search.actor import COLLECT, IndexShard

    assert not [m for m in RETIRED if hasattr(IndexShard, m)]
    # every collector takes (shard, docs, scores, *args)
    for fn in COLLECT.values():
        assert fn.__code__.co_varnames[:3] == ("shard", "docs", "scores"), fn.__name__


def test_guard_catches_per_feature_pairs():
    shard_src = """
class IndexShard:
    def collect(self, node, idfs, sim, specs):
        return self._eval(node, idfs, sim)
    def facet_counts(self, node, idfs, field):
        docs, _ = self._eval(node, idfs)
        return docs
    def _private(self, node, idfs):
        return self._eval(node, idfs)
    def top_k(self, node, k, idfs):
        return self._top_k_uncached(node, k, idfs)
"""
    found = shard_violations(shard_src)
    assert len(found) == 1 and "facet_counts" in found[0]
    searcher_src = """
def f(self, node, idfs):
    self._scatter("facet_counts", node, idfs, "role")
    self._scatter("top_k_franged", node, 5, idfs)
    self._scatter("collect", node, idfs, "bm25", [("facet_counts", "role")])
    self._scatter("top_k", node, 10, idfs)
"""
    found = scatter_violations(searcher_src, {"facet_counts"})
    assert [m.split("_scatter(")[1].split(")")[0] for m in found] == ["'facet_counts'", "'top_k_franged'"]
