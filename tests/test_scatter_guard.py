"""Every driver→shard call has one transport: `Searcher._scatter` sends
one pickled request to `IndexShard.call` and gets one pickled reply.
This scan of `lucene_solr_ray/search/` fails if a `.remote(` call appears
anywhere else than on the actor class (`ray.remote(...)(IndexShard)`,
construction) or inside `Searcher._scatter`, or if `_scatter` calls an
actor method other than `call`, so no feature grows a second transport
that pays Ray's per-argument serialization again."""

import ast
from pathlib import Path

SEARCH = Path(__file__).resolve().parents[1] / "lucene_solr_ray" / "search"


def _is_ray_remote(node) -> bool:
    """`ray.remote` itself (the decorator that makes an actor class)."""
    return isinstance(node, ast.Attribute) and node.attr == "remote" and isinstance(node.value, ast.Name) \
        and node.value.id == "ray"


def remote_violations(source: str, fname: str) -> list[str]:
    """→ one message per `.remote(` call outside construction and
    `Searcher._scatter`, and per `_scatter` call to a method other than
    `call`."""
    tree = ast.parse(source)
    # names bound to an actor class: `cls = ray.remote(...)(IndexShard)`
    actor_classes = {
        t.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Call) and _is_ray_remote(node.value.func.func)
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    in_scatter = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Searcher":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "_scatter":
                    in_scatter.update(id(n) for n in ast.walk(fn))
    out = []
    for node in ast.walk(tree):
        f = getattr(node, "func", None)
        if not (isinstance(node, ast.Call) and isinstance(f, ast.Attribute) and f.attr == "remote"):
            continue
        if _is_ray_remote(f) or (isinstance(f.value, ast.Name) and f.value.id in actor_classes):
            continue
        if id(node) in in_scatter:
            if isinstance(f.value, ast.Attribute) and f.value.attr == "call":
                continue
            out.append((node.lineno, "_scatter must send to IndexShard.call"))
        else:
            out.append((node.lineno, ".remote( outside Searcher._scatter — use _scatter"))
    return [f"{fname}:{n}: {msg}" for n, msg in sorted(out)]


def test_only_scatter_calls_shard_actors():
    found = []
    for path in sorted(SEARCH.rglob("*.py")):
        found += remote_violations(path.read_text(), path.name)
    assert not found, "\n".join(found)


def test_guard_catches_second_transports():
    src = """
class Searcher:
    def __init__(self):
        actor_cls = ray.remote(num_cpus=1)(IndexShard)
        self.actors = [actor_cls.remote(d) for d in dirs]
        ray.get([a.ping.remote() for a in self.actors])

    def _scatter(self, method, *args):
        refs = [a.call.remote(request) for a in self.actors]
        refs = [getattr(a, method).remote(*args) for a in self.actors]

    def stats(self):
        return ray.get(self.actors[0].prune_stats.remote())
"""
    found = remote_violations(src, "x.py")
    assert [int(m.split(":")[1]) for m in found] == [6, 10, 13], found
    assert "IndexShard.call" in found[1]
