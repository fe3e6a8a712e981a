"""A query-scoped feature is one shard collector plus one driver merge.
The match set evaluates in ONE place per request, `IndexShard.collect`;
these tests scan the search sources so no feature re-grows its own shard
method (a public method that calls `self._eval(`) or its own scatter to
one (`_scatter("<collector name>", ...)` in searcher.py), and the ranked
page stays a collector (`top_k` is `collect`'s pruned page, never a
scatter target)."""

import ast
from pathlib import Path

SEARCH = Path(__file__).resolve().parents[1] / "lucene_solr_ray" / "search"

# public IndexShard methods that may evaluate a query themselves: the
# collector host, its pruned TOP_SCORES page (only `collect` calls
# `top_k`), one-doc explain, the /export file writer and the
# whole-match-set reader
EVAL_ALLOWED = {"collect", "top_k", "explain", "export_shard_sorted", "match_all"}

# the pruned page: `collect` calls it, the driver never scatters to it
UNSCATTERED = {"top_k"}

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
    a retired or unscattered method) instead of going through `collect`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        f = getattr(node, "func", None)
        if isinstance(node, ast.Call) and isinstance(f, ast.Attribute) and f.attr == "_scatter" and node.args:
            name = node.args[0]
            if isinstance(name, ast.Constant) and name.value in {*collectors, *RETIRED, *UNSCATTERED}:
                out.append(f"searcher.py:{node.lineno}: _scatter({name.value!r}) — use Searcher._collect")
    return out


def top_k_callers(source: str) -> list[str]:
    """→ the IndexShard methods that call `self.top_k(`."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef) and cls.name == "IndexShard":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "top_k"
                    and isinstance(n.func.value, ast.Name)
                    and n.func.value.id == "self"
                    for n in ast.walk(fn)
                ):
                    out.append(fn.name)
    return out


def test_only_collect_evaluates_for_features():
    assert shard_violations((SEARCH / "actor.py").read_text()) == []


def test_searcher_scatters_no_collector():
    from lucene_solr_ray.search.actor import COLLECT

    assert scatter_violations((SEARCH / "searcher.py").read_text(), COLLECT) == []


def test_searcher_scatters_no_page_or_join():
    src = (SEARCH / "searcher.py").read_text()
    assert '_scatter("top_k"' not in src and '_scatter("join_values"' not in src


def test_only_collect_calls_top_k():
    assert top_k_callers((SEARCH / "actor.py").read_text()) == ["collect"]


def test_retired_shard_methods_are_gone():
    from lucene_solr_ray.search.actor import COLLECT, IndexShard

    assert not [m for m in RETIRED | {"join_values", "_top_k_uncached"} if hasattr(IndexShard, m)]
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
        return self._eval(node, idfs)
    def join_values(self, node, idfs, field):
        return self.top_k(node, 10, idfs)
"""
    found = shard_violations(shard_src)
    assert len(found) == 1 and "facet_counts" in found[0]
    assert top_k_callers(shard_src) == ["join_values"]
    searcher_src = """
def f(self, node, idfs):
    self._scatter("facet_counts", node, idfs, "role")
    self._scatter("top_k_franged", node, 5, idfs)
    self._scatter("collect", node, idfs, "bm25", [("facet_counts", "role")])
    self._scatter("top_k", node, 10, idfs)
    self._scatter("explain", node, 3, idfs)
"""
    found = scatter_violations(searcher_src, {"facet_counts"})
    assert [m.split("_scatter(")[1].split(")")[0] for m in found] == ["'facet_counts'", "'top_k_franged'", "'top_k'"]
