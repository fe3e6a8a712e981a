"""Driver-side distributed searcher: scatter to shard actors, merge.

The two-phase SolrCloud scatter-gather (SURVEY.md §3.2,
solr/core/src/java/org/apache/solr/handler/component/QueryComponent.java ::
createMainQuery/mergeIds) with Lucene's Collector / CollectorManager
split (SURVEY.md §2.7) as the one shape of every query-scoped feature:

- Every query-scoped feature is a COLLECTOR over the match set: the
  ranked page, numFound, facet.field / facet.query / facet.range /
  facet.pivot, stats, grouping, field sorts, collapse/expand,
  function-scored and function-filtered top-k, block joins and the
  {!join}/{!graph} from-side.  `_collect` parses, composes fq, rewrites
  and weighs once (per-term weights from the build-time global stats —
  the ExactStatsCache analog), then ONE `collect` scatter evaluates the
  match set once per shard and runs every asked-for collector
  (`actor.COLLECT`) over it.  Each collector returns one bounded partial
  and pairs with one driver merge (`_Collect`); the page's merge,
  `_merge_top_k`, keeps (score desc, docID asc) over k·P rows — the
  TopDocs.merge pattern.  `handle_select` answers the page, numFound and
  all its sections in a single request.
- Phase GET_FIELDS: `fetch` materializes stored fields (conv_id, turn_idx)
  for the winners only, by reading just the per-pid segments whose docID
  range covers them.  `index/segments.py` owns that store (paths, the
  docID → pid lookup, the one column reader that applies in-place dv
  updates, and the dv-update writer): `fetch`, `fetch_fields`, `get` and
  `update_numeric_docvalues` go through it, as the shard actors do.

Actors are created lazily from the committed manifest.  Global stats are
LAZY (`LazyBM25Stats`): df/cf resolve per query term by binary search in
the memory-mapped, term-sorted Arrow sidecar of the committed
`global_stats_gNNN.parquet`; prefix/wildcard/fuzzy
expansion, /terms and spellcheck run shard-side and merge — the vocabulary
never materializes on the driver (the per-shard term-dictionary shape of
`IndexSearcher.termStatistics`, SURVEY.md §3.2).  `Searcher` owns no Ray
session — the caller must have Ray initialized.
"""

from __future__ import annotations

import json
import pickle
import re
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..index import segments
from ..index.stats_sidecar import sidecar_path, write_stats_sidecar
from .actor import IndexShard
from .bm25 import LazyBM25Stats, make_norm_cache, term_weight
from .query import MAX_EXPANSIONS, QueryNode, multi_term_nodes, node_key, parse_query, rewrite_with
from .qparser import QParserError


class _Collect(NamedTuple):
    """One query-scoped feature: the shard collector it asks for (`spec` =
    (name in `actor.COLLECT`, *args)), the driver merge of that
    collector's per-shard partials, and its result when q or an fq
    analyzes to nothing."""

    spec: tuple
    merge: Callable[[list], Any]
    empty: Any


_COUNT = _Collect(("count_matches",), sum, 0)  # numFound

# Docs one shard actor serves alone: the IndexSearcher.slices analog
# (MAX_DOCS_PER_SLICE).  A scatter to P actors costs P Ray calls of fixed
# CPU, so an index small enough for one actor to answer within the wider
# pool's p99 is served by one; a larger index gets the full pool, because
# in the sweep a 2-actor pool's p99 was worse than the full pool's.  Set
# from a sweep of perfbench corpora (CHANGES.md, ROADMAP direction 5).
DOCS_PER_ACTOR = 70_000


def default_pool_size(n_docs: int, n_shards: int, cpus: int) -> int:
    """Shard actors `Searcher` starts when `num_actors` is not given: one
    up to DOCS_PER_ACTOR docs, else one per shard up to the cluster's
    CPUs, at least one."""
    return 1 if n_docs <= DOCS_PER_ACTOR else max(1, min(n_shards, cpus))


def _facet_field_collector(field: str, limit: int, missing: bool, sort: str) -> _Collect:
    """facet.field: shard value→count partials summed, ranked (count desc,
    value asc) or by value (facet.sort=index); facet.missing appends the
    None bucket after the limit cut."""

    def merge(parts):
        agg: dict[str, int] = {}
        n_missing = 0
        for vals, cnts, nm in parts:
            n_missing += nm
            for v, c in zip(vals.tolist(), cnts.tolist()):
                agg[v] = agg.get(v, 0) + c
        key = (lambda p: p[0]) if sort == "index" else (lambda p: (-p[1], p[0]))
        out = sorted(agg.items(), key=key)[:limit]
        if missing:
            out.append((None, n_missing))
        return out

    return _Collect(("facet_counts", field), merge, [])


def _range_facet_collector(field: str, start: float, end: float, gap: float) -> _Collect:
    """facet.range: shard [before, buckets..., after] vectors summed.  The
    bucket arithmetic needs finite bounds, gap > 0 and end > start —
    checked here, before any shard is asked."""
    if not (np.isfinite([start, end, gap]).all() and gap > 0 and end > start):
        raise QParserError(
            f"facet.range needs finite start < end and gap > 0 (start={start}, end={end}, gap={gap})"
        )

    def merge(parts):
        total = np.sum(parts, axis=0)
        return {
            "counts": [(start + i * gap, int(total[1 + i])) for i in range(total.size - 2)],
            "before": int(total[0]),
            "after": int(total[-1]),
        }

    return _Collect(("range_facet_counts", field, start, end, gap), merge, {"counts": [], "before": 0, "after": 0})


def _stats_collector(field: str, percentiles: list[float] | None) -> _Collect:
    """stats.field: exact integer moment partials summed; percentiles from
    the merged per-shard t-digests."""
    import math

    def merge(parts):
        n = sum(p[0] for p in parts)
        if n == 0:
            return {"count": 0}
        s1 = sum(p[1] for p in parts)
        s2 = sum(p[2] for p in parts)
        var = (s2 - s1 * s1 / n) / (n - 1) if n > 1 else 0.0
        out = {
            "count": n,
            "sum": s1,
            "mean": s1 / n,
            "min": min(p[3] for p in parts if p[3] is not None),
            "max": max(p[4] for p in parts if p[4] is not None),
            "stddev": math.sqrt(max(var, 0.0)),
        }
        if percentiles:
            from ..state.tdigest import TDigest

            td = TDigest()
            for p in parts:
                if p[5] is not None:
                    td = td.merge(TDigest(p[5][0], p[5][1]))
            out["percentiles"] = {float(q): float(td.quantile(q / 100.0)) for q in percentiles}
        return out

    return _Collect(("stats_partial", field, bool(percentiles)), merge, {"count": 0})


def _pivot_collector(fields: list[str], limit: int) -> _Collect:
    """facet.pivot: value-tuple count partials summed; every level's
    counts derive from the one tuple frame, (count desc, value asc),
    `limit` per level."""
    keys = [f"v{i}" for i in range(len(fields))]

    def nest(sub: pd.DataFrame, depth: int) -> list[dict]:
        lvl = (
            sub.groupby(keys[depth], as_index=False)["n"].sum()
            .sort_values(["n", keys[depth]], ascending=[False, True], kind="mergesort")
            .head(limit)
        )
        out = []
        for v, c in zip(lvl[keys[depth]], lvl["n"]):
            entry = {"field": fields[depth], "value": str(v), "count": int(c)}
            if depth + 1 < len(fields):
                entry["pivot"] = nest(sub[sub[keys[depth]] == v], depth + 1)
            out.append(entry)
        return out

    def merge(parts):
        parts = [p for p in parts if p is not None]
        if not parts:
            return []
        return nest(pd.concat(parts, ignore_index=True).groupby(keys, as_index=False)["n"].sum(), 0)

    return _Collect(("facet_tuple_counts", list(fields)), merge, [])


def _group_collector(field: str, k: int, group_limit: int, group_sort: str | None) -> _Collect:
    """group.field: the top-k groups by best hit (score desc, docID asc),
    each with its top `group_limit` members — by score, or by a numeric
    dv field under group.sort (groups still rank by their best hit)."""
    if group_sort is None:

        def merge(parts):
            frames = [pd.DataFrame({"doc": d, "score": s, "val": v.astype(object)}) for d, s, v in parts if d.size]
            if not frames:
                return []
            g = pd.concat(frames).sort_values(["score", "doc"], ascending=[False, True], kind="mergesort")
            g["rank_in_group"] = g.groupby("val").cumcount()
            g = g[g["rank_in_group"] < group_limit]
            heads = g.drop_duplicates("val").head(k)  # groups in best-hit order
            out = []
            for val in heads["val"]:
                rows = g[g["val"] == val]
                out.append((str(val), [(int(d), float(s)) for d, s in zip(rows["doc"], rows["score"])]))
            return out

        return _Collect(("top_groups", field, group_limit), merge, [])
    spec = Searcher._parse_sort_spec(group_sort, True)
    if len(spec) != 1:
        raise ValueError("group.sort takes a single numeric field")
    [(sfield, sasc)] = spec

    def merge_sorted(parts):
        parts = [p for p in parts if p is not None]
        if not parts:
            return []
        g = pd.concat(parts, ignore_index=True)
        best = (
            g.sort_values(["gmax", "gdoc"], ascending=[False, True], kind="mergesort")
            .drop_duplicates("val")
            .head(k)
        )
        g = g.sort_values(["sv", "doc"], ascending=[sasc, True], kind="mergesort")
        out = []
        for val in best["val"]:
            rows = g[g["val"] == val].head(group_limit)
            out.append((str(val), [(int(d), float(s)) for d, s in zip(rows["doc"], rows["score"])]))
        return out

    return _Collect(("top_groups_sorted", field, group_limit, sfield, sasc), merge_sorted, [])


def _top_k_collector(spec: tuple, k: int) -> _Collect:
    """A collector whose shard partial is a (docIDs, float32 scores) top-k."""
    return _Collect(spec, lambda parts: Searcher._merge_top_k(parts, k), [])


class Searcher:
    """A committed index served by a pool of `IndexShard` actors, each a
    contiguous slice of its term-shards in docID order.  The default pool
    is sized to the index (`default_pool_size`): one actor up to
    DOCS_PER_ACTOR docs, as Lucene's `IndexSearcher.slices` lets small
    leaves share one slice, because every actor adds one Ray call of
    fixed CPU to each request; above it, one actor per shard up to the
    cluster's CPUs.  One actor cannot give `tolerant` partial results,
    so a small index that must survive an actor's death passes
    `num_actors`.  `use_ray=False` serves every shard from one
    in-process IndexShard.  `close()` frees the pool, after which every
    request raises."""

    def __init__(self, index_dir: str | Path, num_actors: int | None = None, use_ray: bool = True):
        self.index_dir = Path(index_dir)
        manifest = json.loads((self.index_dir / "manifest.json").read_text())
        if manifest.get("status") != "committed":
            raise RuntimeError(f"index at {index_dir} is not committed")
        self.manifest = manifest
        # query-time analyzer follows the INDEX's tokenizer (manifest
        # config) — QueryBuilder analyzes with the field's chain, so an
        # icu-built index parses queries with the icu chain too (None = the
        # standard chain, parse_query's default); an unknown name fails
        # here, before any actor starts
        from ..analysis import index_tokenizer

        self._analyzer = index_tokenizer(manifest["config"].get("tokenizer", "standard"))
        st = manifest["stats"]
        # Lazy stats: df/cf resolved per query term by binary search in
        # the memory-mapped stats sidecar — the vocabulary is NEVER
        # materialized on the driver.  Each commit references its own
        # stats generation (append-only files; snapshots pin a consistent
        # vocabulary).  `build_index` and `restore_snapshot` write a missing
        # sidecar; one still missing (an index copied in from before
        # sidecars existed) is written here, which needs a writable dir
        stats_file = self.index_dir / st.get("stats_file", "global_stats.parquet")
        try:
            write_stats_sidecar(stats_file)
        except OSError as e:
            raise RuntimeError(
                f"stats sidecar {sidecar_path(stats_file)} is missing and could not be "
                f"written ({e}); open the index once with write access to {self.index_dir}"
            ) from e
        self.stats = LazyBM25Stats(str(stats_file), st["N"], st["avgdl"])
        # per-field norm caches for extra analyzed fields (per-field avgdl)
        self.norm_caches = {"": self.stats.norm_cache}
        self.avgdls = {"": float(st["avgdl"])}
        for f, fs in (st.get("fields") or {}).items():
            self.norm_caches[f] = make_norm_cache(fs["avgdl"])
            self.avgdls[f] = float(fs["avgdl"])
        shard_ids = sorted(int(k) for k in manifest["shards"])
        shards_root = self.index_dir / manifest["config"].get("shards_dir", "shards")
        self.shard_dirs = [str(shards_root / f"shard={sid:05d}") for sid in shard_ids]
        # each shard's per-pid segments (doc values, convs, dv updates)
        seg_by_shard: dict[int, list[str]] = {}
        for pid in sorted(manifest["segments"], key=int):
            sid = int(manifest["segments"][pid]["shard"])
            seg_by_shard.setdefault(sid, []).append(str(segments.segment_path(self.index_dir, pid)))
        self.use_ray = use_ray
        if use_ray:
            import ray

            # pool sized to the index, as IndexSearcher.slices lets small
            # leaves share a slice: one actor for a small index, else
            # never more 1-CPU actors than shards or than the cluster can
            # schedule; each actor owns a contiguous slice of shards (doc
            # ranges stay ordered)
            if num_actors is None:
                cpus = int(ray.cluster_resources().get("CPU", 1))
                num_actors = default_pool_size(int(st["N"]), len(self.shard_dirs), cpus)
            assign: list[list[str]] = [[] for _ in range(num_actors)]
            assign_ids: list[list[int]] = [[] for _ in range(num_actors)]
            for i, d in enumerate(self.shard_dirs):
                slot = i * num_actors // len(self.shard_dirs)
                assign[slot].append(d)
                assign_ids[slot].append(shard_ids[i])
            assign_ids = [ids for a, ids in zip(assign, assign_ids) if a]
            assign = [a for a in assign if a]
            actor_cls = ray.remote(num_cpus=1)(IndexShard)
            codec_name = manifest["config"].get("codec", "varbyte")
            self.actors = [
                actor_cls.remote(
                    dirs, self.norm_caches, codec_name, self.avgdls,
                    [p for sid in ids for p in seg_by_shard.get(sid, [])],
                )
                for dirs, ids in zip(assign, assign_ids)
            ]
            self._scatter("ping")  # warm load
        else:
            self.actors = [
                IndexShard(
                    self.shard_dirs,
                    self.norm_caches,
                    manifest["config"].get("codec", "varbyte"),
                    self.avgdls,
                    [p for sid in shard_ids for p in seg_by_shard.get(sid, [])],
                )
            ]
        # shards.tolerant: skip dead shards instead of failing the request
        self.tolerant = False
        self.last_partial = False
        # install persisted tombstones actor-side (masked once at decode)
        self._tombstones = self._load_tombstones()
        if self._tombstones.size:
            self._push_tombstones()

    def _parse(self, query: str):
        """parse_query with this index's analyzer (see __init__)."""
        return parse_query(query, analyzer=self._analyzer)

    # -- distributed term-dictionary operations ---------------------------
    def _scatter(self, method: str, *args):
        """Call an IndexShard method on every actor, gather the results —
        the ONE round trip to the pool.  Query evaluation travels as
        `_scatter("collect", ...)` (see `_collect`); the only other query
        targets are `explain` (one doc), `export_shard_sorted` (writes a
        file) and `match_all` (every hit); the rest are dictionary
        partials (expand, terms, spellcheck) and admin calls.

        On a Ray pool the call is ONE pickled request, `(method, args)`,
        sent as the same bytes to every actor's `IndexShard.call`, and
        each actor answers with ONE pickled reply: Ray serializes one
        bytes object each way instead of every argument and every reply
        array on its own.  An in-process Searcher calls the method
        directly.

        `self.tolerant` is Solr's `shards.tolerant=true` (solr/core/.../
        handler/component/SearchHandler.java partialResults): a dead shard
        actor is SKIPPED instead of failing the request, and
        `self.last_partial` records that the answer covers a subset of the
        index — every scatter-based operation (search, count, terms,
        facets, spellcheck) inherits the behavior.  A closed Searcher has
        no actors and raises instead of answering empty."""
        if not self.actors:
            raise RuntimeError("Searcher is closed")
        if self.use_ray:
            import ray

            request = pickle.dumps((method, args), pickle.HIGHEST_PROTOCOL)
            refs = [a.call.remote(request) for a in self.actors]
            if not getattr(self, "tolerant", False):
                return [pickle.loads(r) for r in ray.get(refs)]
            out = []
            self.last_partial = False
            for r in refs:
                try:
                    out.append(pickle.loads(ray.get(r)))
                except ray.exceptions.RayActorError:
                    self.last_partial = True
            if not out:
                raise RuntimeError("all shards failed (tolerant scatter)")
            return out
        return [getattr(a, method)(*args) for a in self.actors]

    def _prepare(self, query, fq=None, similarity: str = "bm25"):
        """The one query preamble: parse (a string; a QueryNode passes
        through, so q.op survives), compose plain `fq`, rewrite multi-term
        leaves shard-side, weigh from the global stats.  → (node,
        weights), or None when q or an fq analyzes to nothing."""
        node = self._parse(query) if isinstance(query, str) else query
        node = self._rewrite(self._compose_fq(node, fq))
        return None if node is None else (node, self._weights_for(node, similarity))

    def _collect(self, query, collectors: list[_Collect], fq=None, similarity: str = "bm25") -> list:
        """Every query-scoped feature's request: `_prepare` once, then ONE
        `collect` scatter — each shard evaluates the match set once and
        runs every collector's spec over it.  → per collector, its merge
        of the shard partials, or its `empty` result when q or an fq
        analyzes to nothing."""
        prep = self._prepare(query, fq, similarity)
        if prep is None:
            return [c.empty for c in collectors]
        parts = self._scatter("collect", *prep, similarity, [c.spec for c in collectors])
        return [c.merge([p[i] for p in parts]) for i, c in enumerate(collectors)]

    @staticmethod
    def _merge_top_k(parts, k: int) -> list[tuple[int, float]]:
        """TopDocs.merge: the global top k by (score desc, docID asc) over
        per-shard (docIDs, float32 scores) partials — k·P rows, never a
        distributed sort."""
        docs = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, np.int64)
        scores = np.concatenate([p[1] for p in parts]) if parts else np.empty(0, np.float32)
        order = np.lexsort((docs, -scores))[:k]
        return [(int(docs[i]), float(scores[i])) for i in order]

    def _rewrite(self, node):
        """Distributed Query.rewrite: multi-term leaves expand SHARD-SIDE
        against each shard's local vocabulary; the driver unions matches
        per leaf (sorted, capped at MAX_EXPANSIONS — identical to the old
        global-dictionary scan, since shard vocabularies partition it)."""
        if node is None:
            return None
        leaves = multi_term_nodes(node)
        if not leaves:
            return node
        merged = self._expand_merged(leaves)
        return rewrite_with(node, lambda n: merged[node_key(n)])

    def _expand_merged(self, leaves) -> dict[tuple, list[str]]:
        """Shard-side dictionary expansion for a list of multi-term leaf
        QueryNodes → {node_key: sorted matched terms} (the scatter half of
        `_rewrite`, reused by parsers that pre-expand, e.g. surround)."""
        specs = sorted({node_key(n) for n in leaves})
        parts = self._scatter("expand_nodes", specs)
        merged: dict[tuple, list[str]] = {}
        for spec in specs:
            s: set[str] = set()
            for p in parts:
                s.update(p[spec])
            merged[spec] = sorted(s)[:MAX_EXPANSIONS]
        return merged

    # -- spellcheck --------------------------------------------------------
    def spellcheck(self, word: str, max_suggestions: int = 5, max_edits: int = 2):
        """Did-you-mean suggestions (solr/core/.../handler/component/
        SpellCheckComponent.java over DirectSpellChecker semantics):
        dictionary terms within `max_edits`, ranked by (edit distance asc,
        df desc, term asc).  An exact dictionary hit returns [].

        Distributed: each shard runs the vectorized matrix-Levenshtein DP
        over its LOCAL vocabulary (`search/spell.py`); the driver merges by
        summing per-shard dfs (dist is a pure string function, identical
        everywhere) — the vocabulary never materializes on the driver."""
        w = word.lower()
        if self.stats.df(w) > 0:
            return []
        agg: dict[str, list[int]] = {}
        for part in self._scatter("spellcheck_partial", w, max_edits):
            for term, df, dist in part:
                if term in agg:
                    agg[term][0] += df
                else:
                    agg[term] = [df, dist]
        out = sorted((d, -df, t) for t, (df, d) in agg.items())
        return [(t, -negdf, d) for d, negdf, t in out[:max_suggestions]]

    def spellcheck_collate(
        self,
        query: str,
        max_collations: int = 3,
        max_edits: int = 2,
        max_tries: int = 10,
    ) -> list[tuple[str, int]]:
        """SpellCheckCollator (solr/core/.../spelling/SpellCheckCollator
        .java): rewrite the query replacing each misspelled term with its
        top suggestions, then VERIFY each candidate collation actually
        matches documents — only collations with hits > 0 are returned,
        ranked by hit count desc (then collation asc).

        Per-term corrections come from the distributed spellcheck scatter;
        verification is one conjunctive count per candidate collation.
        Bounded like the reference: top-2 suggestions per misspelled term
        AND at most `max_tries` verification queries total (Solr's
        maxCollationTries) — a many-typo query can't fan out 2^m counts."""
        from itertools import islice, product

        words = [w for w in query.lower().split() if w]
        options: list[list[str]] = []
        any_fix = False
        for w in words:
            sugg = self.spellcheck(w, max_suggestions=2, max_edits=max_edits)
            if sugg:  # misspelled: try its suggestions
                options.append([t for t, _, _ in sugg])
                any_fix = True
            else:  # in-dictionary (or hopeless): keep as-is
                options.append([w])
        if not any_fix:
            return []
        seen: list[tuple[str, int]] = []
        for combo in islice(product(*options), max_tries):
            n = self.count(" AND ".join(combo))
            if n > 0:
                seen.append((" ".join(combo), n))
        return sorted(seen, key=lambda t: (-t[1], t[0]))[:max_collations]

    def metrics(self) -> dict:
        """/admin/metrics analog (solr/core/src/java/org/apache/solr/
        handler/admin/MetricsHandler.java): per-shard result-cache and
        block-max-pruning counters aggregated across the actor pool, plus
        index-level gauges (`postings`: what the actors decoded at open,
        summed over actors) — one scatter, numbers only."""
        pr = self._scatter("prune_stats")
        rc = [p["result_cache"] for p in pr]
        po = [p["postings"] for p in pr]
        cands = sum(p["candidates"] for p in pr)
        scored = sum(p["scored"] for p in pr)
        return {
            "shards": len(self.shard_dirs),
            "actors": len(self.actors),
            "n_docs": int(self.stats.N),
            "tombstones": int(self._tombstones.size),
            "result_cache": {
                "items": sum(r.get("items", 0) for r in rc),
                "hits": (h := sum(r.get("hits", 0) for r in rc)),
                "misses": (m := sum(r.get("misses", 0) for r in rc)),
                "hit_rate": h / (h + m) if (h + m) else 0.0,
            },
            "prune": {
                "candidates": cands,
                "scored": scored,
                "pruned_frac": (1.0 - scored / cands) if cands else 0.0,
            },
            "postings": {k: sum(p[k] for p in po) for k in ("postings", "decoded_mib", "open_decode_ms")},
        }

    def wordbreak(self, word: str, max_suggestions: int = 5) -> list[tuple[str, str, int]]:
        """WordBreakSolrSpellChecker break-words direction (solr/core/src/
        java/org/apache/solr/spelling/WordBreakSolrSpellChecker.java): an
        out-of-dictionary word is split into two dictionary words.  Ranked
        by the weaker half's df desc, then left half asc.  The df lookups
        are one batched `LazyBM25Stats.resolve` against the memory-mapped
        stats sidecar — the vocabulary never materializes on the driver."""
        w = word.lower()
        if self.stats.df(w) > 0:
            return []
        parts = [(w[:i], w[i:]) for i in range(1, len(w))]
        self.stats.resolve([p for ab in parts for p in ab])
        out = [
            (a, b, min(da, db))
            for a, b in parts
            if (da := self.stats.df(a)) > 0 and (db := self.stats.df(b)) > 0
        ]
        out.sort(key=lambda t: (-t[2], t[0]))
        return out[:max_suggestions]

    def wordcombine(self, terms: list[str]) -> list[tuple[str, str, int]]:
        """WordBreakSolrSpellChecker combine-words direction: adjacent
        query terms whose CONCATENATION is a dictionary word → (left,
        right, df of the combined word)."""
        toks = [t.lower() for t in terms]
        cands = [(toks[i], toks[i + 1], toks[i] + toks[i + 1]) for i in range(len(toks) - 1)]
        self.stats.resolve([c for _, _, c in cands])
        return [(a, b, df) for a, b, c in cands if (df := self.stats.df(c)) > 0]

    def join_search(
        self,
        from_field: str,
        to_field: str,
        subquery: str,
        k: int = 10,
        score: str = "none",
        from_searcher: "Searcher | None" = None,
    ) -> list[tuple[int, float]]:
        """`{!join from=f to=t score=m}subquery` (solr/core/src/java/org/
        apache/solr/search/JoinQParserPlugin.java over JoinUtil.
        createJoinQuery, lucene/join/src/java/org/apache/lucene/search/
        join/JoinUtil.java): docs whose `to_field` value equals the
        `from_field` value of ANY doc matching the subquery.

        `score` is JoinUtil's ScoreMode: "none" → constant 1.0 (Solr's
        default JoinQuery; ties rank by docID asc); "max" / "total" /
        "avg" → the from-side scores are aggregated PER JOIN KEY and each
        to-side doc carries its key's aggregate.  Per-key sums accumulate
        float64 in docID order within a shard and merge in shard order —
        deterministic for a given index layout.

        Distributed shape: the from-query runs shard-local and only each
        shard's DISTINCT join keys (with score partials) reach the driver
        — bounded by field cardinality, never by match count; the to-side
        is one TermInSetQuery fan-out over the keyword postings (per-key
        boosted when scored; key sets are disjoint, so the SHOULD-union
        assigns each doc exactly its key's score).

        `from_searcher` runs the from-side against ANOTHER index — Solr's
        cross-core `{!join fromIndex=other}`: the subquery is rewritten,
        weighted and scattered over the other collection's shards; only
        its distinct join keys travel to this one."""
        def merge(parts):
            merged: dict = {}
            for part in parts:
                for v, s, c, m in part:
                    cur = merged.get(v)
                    if cur is None:
                        merged[v] = [s, c, m]
                    else:
                        cur[0] += s
                        cur[1] += c
                        cur[2] = max(cur[2], m)
            return merged

        src = from_searcher or self
        merged = src._collect(self._parse(subquery), [_Collect(("join_values", from_field), merge, {})])[0]
        if not merged:
            return []
        if score == "none":
            tnode = QueryNode(
                "term_set", terms=[f"{to_field}:{v}" for v in sorted(merged)]
            )
        else:
            key_score = {
                v: {"total": s, "avg": s / c, "max": m}[score]
                for v, (s, c, m) in merged.items()
            }
            tnode = QueryNode(
                "bool",
                clauses=[
                    (
                        "SHOULD",
                        QueryNode(
                            "term_set", terms=[f"{to_field}:{v}"], boost=key_score[v]
                        ),
                    )
                    for v in sorted(merged)
                ],
            )
        return self.search_node(tnode, k)

    def graph_search(
        self,
        from_field: str,
        to_field: str,
        root_query: str,
        max_depth: int = 1,
        k: int = 10,
        return_root: bool = True,
        traversal_filter: str | None = None,
    ) -> list[tuple[int, float]]:
        """`{!graph from=f to=t maxDepth=N returnRoot=.. traversalFilter=..}
        root` (solr/core/src/java/org/apache/solr/search/join/GraphQuery
        .java): breadth-first traversal — the root query's docs seed the
        frontier; each hop collects the frontier's `from_field` values and
        expands to every doc whose `to_field` matches.  Returns all
        reachable docs (hops, plus the roots when `return_root`), constant
        score 1.0, ties by docID asc.  `traversal_filter` restricts which
        docs each hop may traverse THROUGH and return (the reference
        applies it to every non-root frontier).

        Each hop is the {!join} shape: shard-local distinct-key gather →
        driver union (bounded by field cardinality) → TermInSetQuery; the
        frontier is re-expressed as a key-set query, so per-doc frontiers
        never materialize on the driver.  Traversal stops early once a hop
        adds no new keys."""
        prep = self._prepare(root_query)
        if prep is None:
            return []
        node, idfs = prep
        tf_node, tf_idfs = (self._prepare(traversal_filter) if traversal_filter else None) or (None, {})
        idfs = {**idfs, **tf_idfs}

        def filtered(n: QueryNode) -> QueryNode:
            if tf_node is None:
                return n
            return QueryNode("bool", clauses=[("MUST", n), ("FILTER", tf_node)])

        seen_keys: set = set()
        frontier = node
        members: list[QueryNode] = (
            [QueryNode("bool", clauses=[("SHOULD", node)])] if return_root else []
        )
        for _ in range(max_depth):
            new_keys: set = set()
            for [part] in self._scatter("collect", frontier, idfs, "bm25", [("join_values", from_field)]):
                new_keys.update(v for v, _, _, _ in part)
            new_keys -= seen_keys
            if not new_keys:
                break
            seen_keys |= new_keys
            frontier = filtered(
                QueryNode("term_set", terms=[f"{to_field}:{v}" for v in sorted(new_keys)])
            )
            members.append(frontier)
        if not members:
            return []
        union = QueryNode(
            "bool",
            clauses=[("SHOULD", QueryNode("bool", clauses=[("FILTER", m)], boost=0.0)) for m in members],
        )
        # constant-score union: FILTER-wrapped members score 0; rank by docID
        hits = self.search_node(union, k)
        return [(d, 1.0) for d, _ in hits]

    def _compose_fq(self, node, fq):
        """q ∩ plain filter queries as ONE flat bool: MUST q plus one
        FILTER clause per fq (match required, no score).  Every fq path
        builds this same node, so their result-cache keys agree.  None
        when q or any fq analyzes to nothing (a filter on a stopword
        matches nothing)."""
        fqs = [fq] if isinstance(fq, str) else list(fq or [])
        if node is None or not fqs:
            return node
        clauses = [("MUST", node)]
        for f in fqs:
            fn = self._parse(f)
            if fn is None:
                return None
            clauses.append(("FILTER", fn))
        return QueryNode("bool", clauses=clauses)

    def count(self, query, fq: str | list[str] | None = None) -> int:
        """Total hit count of a query (numFound / rows=0) — each shard
        returns only its hit COUNT; no doc ids or scores cross the wire.
        `fq` composes plain filter queries as FILTER clauses (rows=0 with
        filters, the numFound contract).  `query` may be a pre-parsed
        node (the request handler passes one so q.op survives)."""
        return self._collect(query, [_COUNT], fq)[0]

    def facet_query(
        self, query: str, facet_queries: dict[str, str], fq: str | list[str] | None = None
    ) -> dict[str, int]:
        """Classic `facet.query` (SimpleFacets.getFacetQueryCounts): hit
        counts of arbitrary sub-queries over the BASE query's match set,
        one distributed pass — each shard intersects DocSets locally and
        returns counts only.  Unparseable/empty sub-queries count 0 (the
        reference omits them; callers filter); `fq` narrows the base
        DocSet.  → {key: count}."""
        return self._collect(query, [self._facet_query_collector(facet_queries)], fq)[0]

    def _facet_query_collector(self, facet_queries: dict[str, str]) -> _Collect:
        """facet.query sub-queries parse, rewrite and weigh on the driver;
        shards intersect each with the match set and return counts."""
        keys = list(facet_queries)
        subs = [self._prepare(facet_queries[key]) or (None, {}) for key in keys]

        def merge(parts):
            totals = np.sum(np.asarray(parts, dtype=np.int64), axis=0)
            return {key: int(t) for key, t in zip(keys, totals)}

        return _Collect(("facet_query_counts", subs), merge, {key: 0 for key in keys})

    # -- terms / facets over the index ------------------------------------
    def terms(
        self, prefix: str = "", limit: int = 10, regex: str | None = None,
        regex_dialect: str = "java", sort: str = "count", mincount: int = 1,
    ) -> list[tuple[str, int]]:
        """/terms handler (solr/core/.../handler/component/TermsComponent.java):
        dictionary terms with df, ranked (df desc, term asc) — the
        distributed TermsComponent merge: per-shard (term, df) partials in
        the prefix range, dfs summed on the driver (exact: a term's global
        df is the sum of its shard dfs).  `regex` = terms.regex, anchored,
        filtered shard-side."""
        parts = self._scatter("terms_partial", prefix, regex, regex_dialect)
        frames = [
            pd.DataFrame({"term": t.astype(str), "df": d}) for t, d in parts if t.size
        ]
        if not frames:
            return []
        g = pd.concat(frames).groupby("term", as_index=False)["df"].sum()
        # terms.mincount / terms.sort (TermsComponent.java): mincount
        # filters on the GLOBAL df (after the shard-df sum); sort=index is
        # plain term order, sort=count the (df desc, term asc) default
        g = g[g["df"] >= mincount]
        if sort == "index":
            g = g.sort_values("term", kind="mergesort").head(limit)
        else:
            g = g.sort_values(["df", "term"], ascending=[False, True], kind="mergesort").head(limit)
        return [(str(t), int(d)) for t, d in zip(g["term"], g["df"])]

    @staticmethod
    def _parse_sort_spec(sort_spec: str, ascending: bool) -> list[tuple[str, bool]]:
        """`"f1 asc, f2 desc"` → [(field_or_expr, asc)].  Commas inside
        function expressions (`sum(a,b) desc`) are NOT separators; a part
        without a direction keyword inherits `ascending`."""
        parts, depth, cur = [], 0, []
        for ch in sort_spec:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        parts.append("".join(cur))
        spec = []
        for p in parts:
            p = p.strip()
            if not p:
                continue
            m = re.match(r"^(.*?)(?:\s+(asc|desc))?$", p, re.I | re.S)
            spec.append((m.group(1).strip(), ascending if m.group(2) is None else m.group(2).lower() == "asc"))
        return spec

    def search_sorted(
        self, query, sort_field: str, k: int = 10, ascending: bool = True,
        after: tuple | None = None,
    ) -> list:
        """Solr `sort=<spec>` (TopFieldCollector / TopDocs field sort): the
        query's match set ordered by a COMPOUND sort spec — numeric or
        STRING doc-values fields and function expressions, each with its
        own `asc|desc` (`sort="role desc, turn_idx asc"`), ties by docID
        asc, missing values last.  Each shard returns at most k rows; the
        driver merges k·P with the identical comparator — never a global
        sort.  → [(doc_id, sort_value)] for a single-field spec,
        [(doc_id, (v0, v1, ...))] for a compound one.

        `after` = the previous page's LAST element (cursorMark on a field
        sort — CursorMarkParams with the docID tiebreak as the required
        uniqueKey clause): shards apply the strict-after bound BEFORE
        their top-k cut, so deep pages never over-fetch.

        `query` may be a pre-parsed QueryNode (the dispatcher passes one
        so local params like q.op survive)."""
        spec = [
            (f if f.isidentifier() else self._resolve_global_sources(f), asc)
            for f, asc in self._parse_sort_spec(sort_field, ascending)
        ]
        if not spec:
            raise ValueError(f"empty sort spec: {sort_field!r}")
        aft = None
        if after is not None:
            doc, vals = after
            vals = vals if isinstance(vals, tuple) else (vals,)
            if len(vals) != len(spec):
                raise ValueError("cursor arity != sort spec arity")
            aft = tuple(vals) + (int(doc),)

        def _py(v):
            if v is None or (isinstance(v, float) and np.isnan(v)):
                return None
            return float(v) if isinstance(v, (np.floating, float)) else str(v) if isinstance(v, (np.str_,)) else v

        def merge(parts):
            parts = [p for p in parts if p is not None]
            if not parts:
                return []
            merged = pd.concat(parts, ignore_index=True).sort_values(
                [f"s{i}" for i in range(len(spec))] + ["doc"],
                ascending=[asc for _, asc in spec] + [True],
                kind="mergesort",
                na_position="last",
            ).head(k)
            docs = merged["doc"].to_numpy()
            if len(spec) == 1:
                return [(int(d), _py(v)) for d, v in zip(docs, merged["s0"].tolist())]
            cols = [merged[f"s{i}"].tolist() for i in range(len(spec))]
            return [(int(docs[j]), tuple(_py(c[j]) for c in cols)) for j in range(len(docs))]

        return self._collect(query, [_Collect(("top_k_sorted", spec, k, aft), merge, [])])[0]

    def terms_list(self, terms: list[str], ttf: bool = False) -> list[tuple[str, int]]:
        """terms.list (TermsComponent explicit-list mode): stats for the
        GIVEN terms only, straight from the lazy global stats
        (LazyBM25Stats) — no shard scatter, no dictionary scan.
        `ttf=True` returns totalTermFreq (terms.ttf) instead of docFreq;
        absent terms report 0 (the reference omits them; callers filter)."""
        stat = self.stats.cf if ttf else self.stats.df
        return [(t, int(stat(t))) for t in terms]

    def facet_field(self, field: str, limit: int = 10) -> list[tuple[str, int]]:
        """Keyword-field facet straight from the term dictionary (the
        fieldValueCache facet path — `field:value` term dfs ARE the facet
        counts, no document scan), ranked (count desc, value asc)."""
        out = [
            (t.split(":", 1)[1], df) for t, df in self.terms(prefix=f"{field}:", limit=1 << 30)
        ]
        out.sort(key=lambda p: (-p[1], p[0]))
        return out[:limit]

    def facet_search(
        self, query: str, field: str, limit: int = 10, missing: bool = False,
        fq: str | list[str] | None = None, sort: str = "count",
    ) -> list[tuple[str | None, int]]:
        """Query-scoped field facet (/select?q=...&facet.field=... —
        SimpleFacets.getFacetFieldCounts over the query's DocSet): counts
        per `field` value across the MATCH SET, ranked (count desc, value
        asc).  Each shard returns its value→count partial (bounded by the
        value domain); the driver sums — never hit-count traffic.
        `missing=True` appends the facet.missing bucket (value None) after
        the limit cut, like the reference; `fq` narrows the DocSet with
        plain filter queries (the q∩fq domain every component uses)."""
        return self._collect(query, [_facet_field_collector(field, limit, missing, sort)], fq)[0]

    def facet_range(
        self, query: str, field: str, start: float, end: float, gap: float,
        fq: str | list[str] | None = None,
    ) -> dict:
        """Query-scoped range facet (facet.range over the match set, with
        facet.range.other=all): fixed [start, end) buckets of width `gap`
        → {"counts": [(bucket_start, n), ...], "before": n, "after": n}.
        Each shard returns one bounded count vector; the driver sums.
        `fq` narrows the DocSet with plain filter queries.  A non-finite
        bound, gap <= 0 or end <= start raises QParserError before any
        shard is asked."""
        return self._collect(query, [_range_facet_collector(field, start, end, gap)], fq)[0]

    def stats_field(
        self, query: str, field: str, percentiles: list[float] | None = None,
        fq: str | list[str] | None = None,
    ) -> dict:
        """Query-scoped StatsComponent (stats.field over the match set):
        count / sum / mean / min / max / stddev from exact int64 shard
        partials (order-independent merge; stddev uses the corrected
        two-pass-equivalent moment formula, n−1 denominator like Solr).
        `percentiles=[50, 90]` adds the stats.percentiles output via
        mergeable per-shard t-digest sketches — approximate, exactly like
        the reference's AVL t-digest (solr/core/.../stats/
        StatsValuesFactory.java percentiles).  `fq` narrows the DocSet."""
        return self._collect(query, [_stats_collector(field, percentiles)], fq)[0]

    def search_grouped(
        self, query: str, field: str, k: int = 10, group_limit: int = 2, similarity: str = "bm25",
        group_sort: str | None = None, fq: str | list[str] | None = None,
    ) -> list[tuple[str, list[tuple[int, float]]]]:
        """Result grouping (group=true&group.field=...&group.limit=j —
        the two-pass grouping collectors in one distributed pass): top-k
        GROUPS ranked by their best hit (score desc, docID asc), each with
        its own top-j docs.  Shards return ≤ j rows per group; the driver
        re-ranks within each group across shards.
        → [(group_value, [(doc_id, score), ...]), ...].

        `group_sort="turn_idx asc"` (group.sort — withinGroupSort): members
        order by a numeric doc-values field instead of score; groups STILL
        rank by their best hit under the score sort (each shard ships the
        group's best (score, doc) alongside its group-sorted members).
        `fq` narrows the DocSet with plain filter queries."""
        return self._collect(query, [_group_collector(field, k, group_limit, group_sort)], fq, similarity)[0]

    def facet_nested(
        self, query: str, field1: str, field2: str, limit1: int = 10, limit2: int = 10
    ) -> list[tuple[str, int, list[tuple[str, int]]]]:
        """Two-level nested terms facet over the match set (json.facet
        {type:terms × type:terms} on the index path — FacetFieldProcessor
        nesting): top parent buckets by (count desc, value asc), each with
        its sub-field buckets in the same order.  One scatter: per-shard
        (v1, v2) count partials summed on the driver (domain-product
        bounded); parent counts are the sub-bucket sums, so parents count
        only docs carrying BOTH fields (uniqueBlock-style nesting — use
        facet_search for single-field totals)."""

        def merge(parts):
            parts = [p for p in parts if p is not None]
            if not parts:
                return []
            g = pd.concat(parts, ignore_index=True).groupby(["v0", "v1"], as_index=False)["n"].sum()
            tot = g.groupby("v0", as_index=False)["n"].sum().sort_values(
                ["n", "v0"], ascending=[False, True], kind="mergesort"
            ).head(limit1)
            out = []
            for v1, n1 in zip(tot["v0"], tot["n"]):
                sub = g[g["v0"] == v1].sort_values(["n", "v1"], ascending=[False, True], kind="mergesort").head(limit2)
                out.append((str(v1), int(n1), [(str(v), int(c)) for v, c in zip(sub["v1"], sub["n"])]))
            return out

        return self._collect(query, [_Collect(("facet_tuple_counts", [field1, field2]), merge, [])])[0]

    def facet_pivot_search(
        self, query: str, fields: list[str], limit: int = 5,
        fq: str | list[str] | None = None,
    ) -> list[dict]:
        """facet.pivot over the MATCH SET (PivotFacetProcessor on the index
        path): arbitrary-depth nested value buckets, (count desc, value
        asc) at every level, `limit` per level.  One scatter of value-tuple
        count partials (domain-product bounded); the driver derives every
        level's counts from the same tuple frame.  → Solr-shaped
        [{"field", "value", "count", "pivot": [...]}]."""
        return self._collect(query, [_pivot_collector(fields, limit)], fq)[0]

    def facet_stats(
        self, query: str, field: str, stat_field: str, limit: int = 10
    ) -> list[dict]:
        """Terms facet with per-bucket sub-stats over the match set
        (json.facet {type:terms, field, facet:{sum,min,max,avg}} on the
        index path): buckets ranked (count desc, value asc), each carrying
        exact count/sum/min/max and the derived mean of `stat_field`."""

        def merge(parts):
            agg: dict[str, list] = {}
            for part in parts:
                for val, cnt, s, mn, mx in part:
                    cur = agg.get(val)
                    if cur is None:
                        agg[val] = [cnt, s, mn, mx]
                    else:
                        cur[0] += cnt
                        cur[1] += s
                        cur[2] = min(cur[2], mn)
                        cur[3] = max(cur[3], mx)
            order = sorted(agg.items(), key=lambda p: (-p[1][0], p[0]))[:limit]
            return [
                {"val": v, "count": c, "sum": s, "min": mn, "max": mx, "mean": s / c}
                for v, (c, s, mn, mx) in order
            ]

        return self._collect(query, [_Collect(("facet_stats_partial", field, stat_field), merge, [])])[0]

    # -- query elevation ---------------------------------------------------
    def search_elevated(
        self, query: str, k: int = 10, elevations: dict[str, list[int]] | None = None
    ) -> list[tuple[int, float]]:
        """QueryElevationComponent (solr/core/.../handler/component/
        QueryElevationComponent.java): configured doc ids for a query are
        pinned ahead of organic results in CONFIG ORDER; organic hits skip
        the pinned ids."""
        pinned = (elevations or {}).get(query, [])
        organic = self.search(query, k + len(pinned))
        seen = set(pinned)
        out: list[tuple[int, float]] = [
            (d, float(np.float32(np.inf))) for d in pinned
        ]
        for d, s in organic:
            if d not in seen:
                out.append((d, s))
            if len(out) >= k:
                break
        return out[:k]

    # -- block join (parent/child) ----------------------------------------
    def search_parents(
        self, query: str, k: int = 10, score_mode: str = "max"
    ) -> list[tuple[str, float]]:
        """ToParentBlockJoinQuery analog (lucene/join/src/java/org/apache/
        lucene/search/join/ToParentBlockJoinQuery.java): children are turns,
        parents are conversations (contiguous docID blocks under the
        (conv_id, turn_idx) sort).  Parent score = max|sum|avg of matching
        child scores; parents rank by (score desc, conv_id asc).

        Exact: every matching child is aggregated — SHARD-LOCALLY (conv
        blocks never span doc-range shards under conv-range partitioning),
        so only (conv, parent_score) tuples reach the driver, never child
        hits."""

        def merge(parts):
            pconvs = np.concatenate([p[0] for p in parts])
            pscores = np.concatenate([p[1] for p in parts])
            top = np.lexsort((pconvs, -pscores))[:k]
            return [(str(pconvs[i]), float(pscores[i])) for i in top]

        return self._collect(query, [_Collect(("match_parents", score_mode), merge, [])])[0]

    def search_with_children(
        self, query: str, k: int = 10, child_limit: int = 3, score_mode: str = "max"
    ) -> list[tuple[str, float, list[int]]]:
        """ChildDocTransformer `fl=*,[child limit=N]` (solr/core/src/java/
        org/apache/solr/response/transform/ChildDocTransformerFactory.java):
        top-k parents by the block join, each carrying its first
        `child_limit` live child docIDs nested in the row.  Two bounded
        scatters: parent scores (conv tuples only), then children of just
        the k winners."""
        parents = self.search_parents(query, k, score_mode)
        if not parents:
            return []
        convs = [c for c, _ in parents]
        kids: dict = {}
        for part in self._scatter("children_of", convs, child_limit):
            kids.update(part)
        return [(c, s, kids.get(c, [])) for c, s in parents]

    def search_children(
        self, query: str, k: int = 10, score_mode: str = "max"
    ) -> list[tuple[int, float]]:
        """ToChildBlockJoinQuery / `{!child}` (lucene/join/.../
        ToChildBlockJoinQuery.java): evaluate the parent query (turns →
        conv aggregation), return the CHILD docs of matching conversations,
        each scored with its parent's score; rank (score desc, docID asc).
        Shard-local join — only (doc, score) pairs reach the driver."""
        return self._collect(query, [_top_k_collector(("match_children", score_mode), k)])[0]

    def search_parents_childfield(
        self, query: str, field: str, k: int = 10, order: str = "desc"
    ) -> list[tuple[str, float]]:
        """`sort=childfield(field,$q) asc|desc` (solr/core/.../search/
        ChildFieldValueSourceParser.java onto lucene/join/.../
        ToParentBlockJoinSortField + BlockJoinSelector): rank parent convs
        by the min (asc) / max (desc) of `field` over their MATCHING
        children.  Aggregation is shard-local (conv blocks never span
        shards); only (conv, value) pairs reach the driver.  Ties break
        conv_id ascending, like every parent path here."""

        def merge(parts):
            convs = np.concatenate([p[0] for p in parts])
            vals = np.concatenate([p[1] for p in parts])
            top = np.lexsort((convs, vals if order == "asc" else -vals))[:k]
            return [(str(convs[i]), float(vals[i])) for i in top]

        sel = "min" if order == "asc" else "max"
        return self._collect(query, [_Collect(("match_parents_childfield", field, sel), merge, [])])[0]

    def search_diversified(
        self, query: str, k: int = 10, max_per_parent: int = 1
    ) -> list[tuple[int, float]]:
        """DiversifiedTopDocsCollector analog (lucene/misc/src/java/org/
        apache/lucene/search/DiversifiedTopDocsCollector.java): top-k with
        at most `max_per_parent` hits per conversation, capped shard-side
        (conv blocks never span shards)."""
        return self._collect(query, [_top_k_collector(("diversified_top_k", k, max_per_parent), k)])[0]

    # -- deletes (live-docs) ----------------------------------------------
    # Tombstones persist as PER-SHARD files (tombstones/shard=NNNNN.parquet,
    # the per-segment live-docs layout) and are installed actor-side once:
    # each actor masks its decoded postings, so queries never over-fetch and
    # the dead set never rides along with a query.

    def _tombstone_dir(self) -> Path:
        return self.index_dir / "tombstones"

    def _legacy_tombstone_path(self) -> Path:
        return self.index_dir / "tombstones.parquet"

    def _load_tombstones(self) -> np.ndarray:
        d = self._tombstone_dir()
        if d.is_dir():
            files = sorted(d.glob("shard=*.parquet"))
            if not files:
                return np.empty(0, dtype=np.int64)
            parts = [pq.read_table(f).column("doc_id").to_numpy().astype(np.int64) for f in files]
            return np.sort(np.concatenate(parts))
        p = self._legacy_tombstone_path()
        if not p.exists():
            return np.empty(0, dtype=np.int64)
        return np.sort(pq.read_table(p).column("doc_id").to_numpy().astype(np.int64))

    def _shard_ranges(self) -> list[tuple[int, int, int]]:
        """[(shard_id, doc_lo, doc_hi)] from the manifest."""
        out = []
        for sid, sh in self.manifest["shards"].items():
            out.append((int(sid), int(sh["doc_lo"]), int(sh["doc_hi"])))
        return sorted(out)

    def _write_tombstones(self, merged: np.ndarray) -> None:
        """Atomic per-shard tombstone files, split by shard doc ranges."""
        import os
        import shutil

        d = self._tombstone_dir()
        tmp = d.with_suffix(".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        for sid, lo, hi in self._shard_ranges():
            sub = merged[(merged >= lo) & (merged < hi)]
            if sub.size:
                pq.write_table(
                    pa.table({"doc_id": pa.array(sub)}), tmp / f"shard={sid:05d}.parquet"
                )
        shutil.rmtree(d, ignore_errors=True)
        os.replace(tmp, d)
        self._legacy_tombstone_path().unlink(missing_ok=True)

    def _push_tombstones(self) -> None:
        """Install the dead set on every actor (each masks at decode)."""
        self._scatter("set_tombstones", self._tombstones)

    def delete_by_query(self, query: str) -> int:
        """Mark matching docs deleted (live-docs bitset analog: deletes are
        a tombstone set applied at read time; term stats stay unchanged
        until a rebuild — exactly Lucene's deleted-docs semantics,
        lucene/core/.../codecs/lucene50/Lucene50LiveDocsFormat.java).
        Returns the number of newly deleted docs.

        Matching doc ids come straight from the shards' match_all (docID
        arrays only — never the scored top-k path, no driver-side sort of
        every hit)."""
        prep = self._prepare(query)
        if prep is None:
            return 0
        parts = self._scatter("match_all", *prep)
        new = (
            np.unique(np.concatenate([p[0] for p in parts]))
            if parts
            else np.empty(0, dtype=np.int64)
        )
        old = self._load_tombstones()
        merged = np.union1d(old, new)
        self._write_tombstones(merged)
        self._tombstones = merged
        self._push_tombstones()
        return int(merged.size - old.size)

    def clear_deletes(self) -> None:
        import shutil

        shutil.rmtree(self._tombstone_dir(), ignore_errors=True)
        self._legacy_tombstone_path().unlink(missing_ok=True)
        self._tombstones = np.empty(0, dtype=np.int64)
        self._push_tombstones()

    def close(self) -> None:
        """Release the actor pool (each actor holds a CPU slot while the
        searcher is open — close before running other Ray work on a small
        cluster).  Every later request raises."""
        if self.use_ray:
            import ray

            for a in self.actors:
                ray.kill(a)
        self.actors = []

    def search(
        self, query: str, k: int = 10, prune: bool = True, similarity: str = "bm25"
    ) -> list[tuple[int, float]]:
        """→ [(doc_id, float32 score)], rank order (score desc, docID asc).
        `similarity` selects the pluggable scoring model ("bm25" | "classic"
        TF-IDF — the Similarity SPI, SURVEY.md §2.11)."""
        node = self._parse(query)
        if node is None:
            return []
        return self.search_node(node, k, prune=prune, similarity=similarity)

    def search_complex_phrase(
        self, phrase: str, k: int = 10, slop: int = 0, similarity: str = "bm25"
    ) -> list[tuple[int, float]]:
        """Solr `{!complexphrase}` (ComplexPhraseQueryParser): a phrase
        whose elements may be wildcards, fuzzy terms, or `(a b)` groups —
        slots expand SHARD-SIDE like any multi-term query and the phrase
        executes as a MultiPhraseQuery."""
        from .query import complex_phrase

        node = complex_phrase(phrase, slop=slop, analyzer=self._analyzer)
        if node is None:
            return []
        return self.search_node(node, k, similarity=similarity)

    def query(
        self, q: str, k: int = 10, similarity: str = "bm25", fq: str | None = None,
        start: int = 0, sort: str | None = None,
    ):
        """Local-params front door (`{!parser k=v ...}body` — the
        QParserPlugin registry dispatch, see search/qparser.py).  A plain
        query string routes to the default `lucene` parser; `fq` accepts
        `{!collapse field=f}` (Solr's collapse-as-filter contract);
        `start` pages by offset (rows/start semantics); `sort=` replaces
        score ranking with a compound field sort."""
        from .qparser import dispatch

        return dispatch(self, q, k=k, similarity=similarity, fq=fq, start=start, sort=sort)

    def handle_select(self, params: dict) -> dict:
        """The /select request handler envelope (SearchHandler +
        ResponseBuilder): one params dict in, one Solr-shaped response
        dict out — q / fq (str or list) / rows / start / sort / fl /
        facet.field (str or list, facet.missing) / facet.query (dict) /
        facet.range / facet.pivot / group.field / stats.field
        (+stats.percentiles, a list or Solr's "25,50,90" string) / hl.
        The envelope mirrors Solr's JSON layout so a reference client's
        response-parsing code ports directly.

        numFound, every asked-for section and the ranked page are
        collectors of ONE `collect` request over the same q∩fq DocSet
        (Solr's ResponseBuilder contract — facets/stats/groups are
        filtered): each shard evaluates the match set once, so numFound
        and the page always cover the same shards.  A `sort=` page stays
        on `query()` → `search_sorted`.  Exotic `{!parser}` main
        queries or a local-params fq fall back to materializing the
        matching ids once (the reference holds a DocSet bitset per request
        too); a single `{!frange}` fq counts shard-side.  Section params
        require a default-parser q and plain fq (QParserError otherwise —
        Solr computes facets over the same DocSet, which the exotic
        parsers here don't expose); bad range-facet bounds raise
        QParserError before any shard is asked."""
        from .qparser import _bool, _lucene_main_node, parse_local_params

        q = params["q"]
        rows = int(params.get("rows", 10))
        start = int(params.get("start", 0))
        fq = params.get("fq")
        sort = params.get("sort")
        fl = params.get("fl")
        if isinstance(fl, str):
            fl = [f.strip() for f in fl.split(",") if f.strip()]
        resp: dict = {"responseHeader": {"status": 0, "params": {"q": q, "rows": rows, "start": start}}}
        plain_fq = fq is None or all(
            not f.lstrip().startswith("{!") for f in ([fq] if isinstance(fq, str) else fq)
        )
        qname, qp, qbody = parse_local_params(q)
        section_keys = (
            "facet.field", "facet.query", "facet.range", "facet.pivot", "group.field", "stats.field",
        )
        wants_sections = any(params.get(k) for k in section_keys) or str(
            params.get("hl", "false")
        ).lower() == "true"
        if wants_sections and (qname != "lucene" or not plain_fq):
            raise QParserError("facet/stats/group/hl sections require a default-parser q and plain fq")
        if sort is not None and (qname != "lucene" or not plain_fq):
            # the full-evaluation fallback is score-ranked — silently
            # paging it as a field sort would mis-order the response AND
            # label a BM25 score as the sort value
            raise QParserError("sort= requires a default-parser q and plain fq")
        # sections take the PRE-PARSED main node (q.op survives)
        qnode = _lucene_main_node(self, qp, qbody) if qname == "lucene" else None
        # (response path, collector) per asked-for section, in Solr's order
        sections: list[tuple[tuple, _Collect]] = []
        limit = int(params.get("facet.limit", 10))
        rf = params.get("facet.range")
        if rf:  # built first: its bounds are checked before any scatter
            rfc = _range_facet_collector(
                rf,
                float(params["facet.range.start"]),
                float(params["facet.range.end"]),
                float(params["facet.range.gap"]),
            )
        ff = params.get("facet.field")
        fquery = params.get("facet.query")
        missing = str(params.get("facet.missing", "false")).lower() == "true"
        for f in [ff] if isinstance(ff, str) else (ff or []):
            sections.append(
                (("facet_counts", "facet_fields", f),
                 _facet_field_collector(f, limit, missing, params.get("facet.sort", "count")))
            )
        if fquery:
            sections.append((("facet_counts", "facet_queries"), self._facet_query_collector(dict(fquery))))
        if rf:
            sections.append((("facet_counts", "facet_ranges", rf), rfc))
        fp = params.get("facet.pivot")
        if fp:
            flds = [f.strip() for f in fp.split(",")] if isinstance(fp, str) else list(fp)
            sections.append((("facet_counts", "facet_pivot", ",".join(flds)), _pivot_collector(flds, limit)))
        gf = params.get("group.field")
        if gf:
            sections.append(
                (("grouped", gf),
                 _group_collector(gf, rows, int(params.get("group.limit", 2)), params.get("group.sort")))
            )
        sf = params.get("stats.field")
        if sf:
            pct = params.get("stats.percentiles")
            if isinstance(pct, str):  # Solr's comma list, like fl and facet.pivot
                pct = [float(p) for p in pct.split(",") if p.strip()]
            sections.append((("stats", "stats_fields", sf), _stats_collector(sf, pct)))
        num_found_exact = True
        full = hits = None  # hits: the ranked page's first start+rows
        if qname == "lucene" and plain_fq:
            n = start + rows if rows and sort is None else 0
            page = [_top_k_collector(("top_scores", n, None, True), n)] if n else []
            num_found, *results = self._collect(qnode, [_COUNT] + [c for _, c in sections] + page, fq)
            hits = results.pop() if page else None
        else:
            results = []  # no sections here: refused above
            fname = fparams = fbody = None
            fq_list = [fq] if isinstance(fq, str) else list(fq or [])
            if qname == "lucene" and not plain_fq and len(fq_list) == 1:
                # the shortcut applies ONLY to a single frange fq — a list
                # with more filters must fall through so the full
                # evaluation raises the same QParserError the page would
                # (never a silent count over a subset of the filters)
                fname, fparams, fbody = parse_local_params(fq_list[0])
            if fname == "frange":
                # counts-only scatter — only per-shard hit counts cross;
                # the page itself comes from the bounded dispatch below.
                # qnode is the q.op-applied main node and _bool is the
                # dispatcher's own flag parser, so count and page agree
                # on both the query semantics and window closedness.
                num_found = self.count_franged(
                    qnode,
                    fbody,
                    lo=float(fparams["l"]) if "l" in fparams else None,
                    hi=float(fparams["u"]) if "u" in fparams else None,
                    incl=_bool(fparams.get("incl"), True),
                    incu=_bool(fparams.get("incu"), True),
                )
            else:
                # exotic parser / collapse fq: ONE bounded full evaluation
                # serves both numFound and the page.  numFound is exact up
                # to numFoundCap (default 100k; collapse results are
                # group-domain-bounded anyway); a truncated count reports
                # numFoundExact=false — Solr 8.6's numFoundExact contract.
                cap = max(start + rows, int(params.get("numFoundCap", 100_000)))
                full = self.query(q, cap, fq=fq)
                num_found = len(full)
                num_found_exact = num_found < cap
        if rows == 0:  # counts-only request (rows=0): no docs query at all
            docs = []
        elif fl:
            page = self.select(q, start + rows, fl=fl, fq=fq, sort=sort) if hits is None else self._project(hits, fl)
            docs = page.iloc[start:].to_dict(orient="records")
        else:
            if hits is None:
                hits = full if full is not None else self.query(q, start + rows, fq=fq, sort=sort)
            docs = [
                {"doc_id": int(h[0]), ("sort" if sort else "score"): h[1], **({"group": h[2]} if len(h) > 2 else {})}
                for h in hits[start : start + rows]
            ]
        resp["response"] = {
            "numFound": int(num_found),
            "numFoundExact": num_found_exact,
            "start": start,
            "docs": docs,
        }
        if ff or fquery:
            resp["facet_counts"] = {"facet_fields": {}, "facet_queries": {}}
        for (path, _), result in zip(sections, results):
            slot = resp
            for key in path[:-1]:
                slot = slot.setdefault(key, {})
            slot[path[-1]] = result
        if str(params.get("hl", "false")).lower() == "true":
            if docs and not all("score" in d for d in docs):
                # fl=/sort= pages carry no score — fetch the real scores
                # for the page ids (one bounded scores_of collector)
                # instead of labeling the hits 0.0
                ids = [int(d["doc_id"]) for d in docs]
                smap = self._scores_for_ids(qnode, ids)
                page_hits = [(i, smap.get(i, 0.0)) for i in ids]
            else:
                page_hits = [(d["doc_id"], d["score"]) for d in docs]
            resp["highlighting"] = {
                int(d): frags for d, _, frags in self.highlight(qbody, rows, hits=page_hits)
            }
        return resp

    def ltr_features(
        self, query: str, k: int = 10, feature_exprs: dict[str, str] | None = None
    ) -> list[tuple[int, float, dict[str, float]]]:
        """LTR feature logging (`fl=[features]`, solr/contrib/ltr/.../
        response/transform/LTRFeatureLoggerTransformerFactory.java): the
        top-k hits each carry their feature vector — `original_score` plus
        one value per entry of `feature_exprs` (function-query expressions
        over the numeric doc-values columns, the SolrFeature/FieldValue
        Feature analogs).  One extra bounded scatter gathers the dv values
        for the k winners only."""
        from ..functions.scalar import evaluate, expr_fields, parse_expr

        feature_exprs = feature_exprs or {"dl": "dl", "turn_idx": "turn_idx"}
        hits = self.search(query, k)
        if not hits:
            return []
        docs = np.array([d for d, _ in hits], dtype=np.int64)
        exprs = {name: parse_expr(src) for name, src in feature_exprs.items()}
        fields = sorted({f for e in exprs.values() for f in expr_fields(e)})
        cols = {f: np.full(docs.size, np.nan) for f in fields}
        seen: set[str] = set()
        order = np.argsort(docs)  # hits are rank-ordered; gather by sorted pos
        for part in self._scatter("numeric_dv_of", fields, docs[order].tolist()):
            for f, (owned, vals) in part.items():
                seen.add(f)
                cols[f][order[np.searchsorted(docs[order], owned)]] = vals
        missing = [f for f in fields if f not in seen]
        if missing:
            # fail loudly, like search_boosted — NaN features would rank
            # every hit arbitrarily with NaN model scores
            raise KeyError(f"unknown numeric doc-values field(s) {missing}")
        feats = {name: np.asarray(evaluate(e, cols), np.float64) for name, e in exprs.items()}
        out = []
        for i, (d, s) in enumerate(hits):
            row = {"original_score": float(s)}
            for name in feature_exprs:
                v = feats[name]
                row[name] = float(v if v.ndim == 0 else v[i])
            out.append((d, s, row))
        return out

    def rerank_query(
        self,
        query: str,
        rerank_query: str,
        k: int = 10,
        rerank_docs: int = 50,
        weight: float = 2.0,
        similarity: str = "bm25",
    ) -> list[tuple[int, float]]:
        """ReRankQParserPlugin (solr/core/.../search/ReRankQParserPlugin
        .java): first-pass top-`rerank_docs` by the main query, then each
        of those docs gains `weight × rerankQueryScore` (zero when the doc
        doesn't match the rerank query) — final top-k by the combined
        score, ties (score desc, docID asc).  The second pass ships only
        the N winner docIDs to the shards."""
        first = self.search(query, rerank_docs, similarity=similarity)
        if not first:
            return []
        docs = np.array([d for d, _ in first], dtype=np.int64)
        # second-pass scores are float32 like the first pass's, so both
        # share rounding before they combine
        smap = self._scores_for_ids(rerank_query, docs.tolist(), similarity)
        combined = np.array([s + weight * smap.get(d, 0.0) for d, s in first], dtype=np.float64)
        s32 = combined.astype(np.float32)
        top = np.lexsort((docs, -s32))[:k]
        return [(int(docs[i]), float(s32[i])) for i in top]

    def register_ltr_model(self, name: str, model, feature_exprs: dict[str, str] | None = None):
        """ManagedModelStore analog (solr/contrib/ltr managed resources):
        named models for `{!ltr model=name}` dispatch."""
        if not hasattr(self, "_ltr_models"):
            self._ltr_models: dict[str, tuple] = {}
        self._ltr_models[name] = (model, feature_exprs)

    def rerank_ltr(
        self, query: str, model, rerank_docs: int = 50, k: int = 10,
        feature_exprs: dict[str, str] | None = None,
    ) -> list[tuple[int, float]]:
        """`{!ltr model=m reRankDocs=N}` (solr/contrib/ltr LTRQParserPlugin):
        first-pass BM25 top-N, feature vectors logged, MODEL score reranks,
        final (model score desc, docID asc) top-k."""
        logged = self.ltr_features(query, rerank_docs, feature_exprs)
        if not logged:
            return []
        names = list(logged[0][2].keys())
        feats = {n: np.array([row[2][n] for row in logged], np.float64) for n in names}
        scores = model.score(feats)
        docs = np.array([d for d, _, _ in logged], dtype=np.int64)
        order = np.lexsort((docs, -scores))[:k]
        return [(int(docs[i]), float(scores[i])) for i in order]

    def search_boosted(
        self, query: str, boost_expr: str, k: int = 10, similarity: str = "bm25"
    ) -> list[tuple[int, float]]:
        """Solr `{!boost b=<expr>}query` (BoostQParserPlugin): the query's
        score is multiplied by a per-document function value computed from
        numeric doc-values columns (turn_idx, dl — FunctionScoreQuery
        .boostByValue).  The multiplier applies BEFORE shard top-k
        selection, so ranking reflects the boost, not a rerank."""
        spec = ("top_k_boosted", k, self._resolve_global_sources(boost_expr))
        return self._collect(query, [_top_k_collector(spec, k)], similarity=similarity)[0]

    def _resolve_global_sources(self, expr_src: str) -> str:
        """Substitute GLOBAL-stat value sources with constants before the
        scatter (Solr's ValueSource tree carries IndexSearcher stats the
        shard actors don't hold): docfreq('t'), totaltermfreq('t'),
        idf('t') (BM25 idf from global df), numdocs(), maxdoc().
        termfreq('t') stays — it's per-doc and materializes shard-side."""
        import math

        from ..functions.scalar import Expr, expr_to_src, parse_expr, transform_calls

        def repl(c):
            if c.name in ("docfreq", "totaltermfreq", "idf"):
                if len(c.args) != 1 or c.args[0].kind != "str":
                    raise ValueError(f"{c.name}() takes one quoted term")
                term = c.args[0].name
                if c.name == "docfreq":
                    return Expr("lit", value=float(self.stats.df(term)))
                if c.name == "totaltermfreq":
                    return Expr("lit", value=float(self.stats.cf(term)))
                df = self.stats.df(term)
                return Expr(
                    "lit", value=math.log(1.0 + (self.stats.N - df + 0.5) / (df + 0.5))
                )
            if c.name in ("numdocs", "maxdoc"):
                return Expr("lit", value=float(self.stats.N))
            return None

        return expr_to_src(transform_calls(parse_expr(expr_src), repl))

    def search_func(self, expr: str, k: int = 10) -> list[tuple[int, float]]:
        """Solr `{!func}expr` (FunctionQParserPlugin → FunctionQuery): every
        live doc matches, scored by a function over numeric doc-values
        columns.  Rides the boosted path with a MatchAllDocs base (score
        1.0 × expr = expr), so ranking IS the function value."""
        spec = ("top_k_boosted", k, self._resolve_global_sources(expr))
        return self._collect(QueryNode("match_all"), [_top_k_collector(spec, k)])[0]

    def search_franged(
        self,
        query: "str | QueryNode",
        frange_expr: str,
        lo: float | None = None,
        hi: float | None = None,
        k: int = 10,
        incl: bool = True,
        incu: bool = True,
        similarity: str = "bm25",
    ) -> list[tuple[int, float]]:
        """`fq={!frange l= u=}expr` over a main query (solr/core/.../search/
        FunctionRangeQParserPlugin): hits are masked SHARD-SIDE by the
        per-doc function value before shard top-k, so the page is exact —
        no driver over-fetch, no rerank.  `query` may be a pre-parsed
        QueryNode (the dispatch/handle_select paths pass the q.op-applied
        main node so count and page agree)."""
        spec = ("franged_hits", self._resolve_global_sources(frange_expr), lo, hi, incl, incu, k)
        page = _Collect(spec, lambda parts: self._merge_top_k([p[1:] for p in parts], k), [])
        return self._collect(query, [page], similarity=similarity)[0]

    def count_franged(
        self,
        query: "str | QueryNode",
        frange_expr: str,
        lo: float | None = None,
        hi: float | None = None,
        incl: bool = True,
        incu: bool = True,
        similarity: str = "bm25",
    ) -> int:
        """Exact numFound for `q` ∩ `{!frange}` — a counts-only scatter
        (the search_franged mask with a k=0 page, so only per-shard hit
        counts cross).  `query` may be a pre-parsed QueryNode, like
        search_franged."""
        spec = ("franged_hits", self._resolve_global_sources(frange_expr), lo, hi, incl, incu, 0)
        count = _Collect(spec, lambda parts: sum(p[0] for p in parts), 0)
        return self._collect(query, [count], similarity=similarity)[0]

    def _scores_for_ids(self, query, ids: list[int], similarity: str = "bm25") -> dict[int, float]:
        """Bounded score-by-id lookup (the rerank second-pass shape): one
        scores_of collector over just these docIDs, float32 parity.
        Feeds rerank_query and hit_score for fl=/sort= highlight pages,
        whose docs carry no score.  `query` is a string or a node."""
        if not ids:
            return {}
        docs = np.unique(np.asarray(ids, dtype=np.int64)).tolist()

        def merge(parts):
            return {int(d): float(s) for od, os_ in parts for d, s in zip(od, os_.astype(np.float32))}

        return self._collect(query, [_Collect(("scores_of", docs), merge, {})], similarity=similarity)[0]

    def search_covering(
        self, queries: list[str], min_match_field: str, k: int = 10, similarity: str = "bm25"
    ) -> list[tuple[int, float]]:
        """CoveringQuery (lucene/sandbox/.../search/CoveringQuery.java): a
        doc matches when at least `dv[min_match_field]` of the sub-queries
        match it — the per-doc dynamic minimumShouldMatch; score = sum of
        the matching sub-query scores."""
        from .query import QueryNode

        clauses = []
        for q in queries:
            sub = self._parse(q)
            if sub is not None:
                clauses.append(("SHOULD", sub))
        if not clauses:
            return []
        node = QueryNode("covering", clauses=clauses, pattern=min_match_field)
        return self.search_node(node, k, similarity=similarity)

    def search_surround(
        self, query: str, k: int = 10, similarity: str = "bm25"
    ) -> list[tuple[int, float]]:
        """Solr `{!surround}` (lucene/queryparser surround language):
        `a 3W b` / `5N(a, b)` span-proximity ops compiled onto the
        intervals algebra, `AND`/`OR`/`NOT` booleans, `*`/`?` truncation.
        Truncated terms inside distance ops expand SHARD-SIDE before the
        interval tree is built; the rest uses the normal rewrite."""
        from .query import node_key
        from .surround import multi_term_leaves, parse_surround, surround_to_node

        ast = parse_surround(query)
        leaves = multi_term_leaves(ast)
        merged = self._expand_merged(leaves) if leaves else {}
        node = surround_to_node(ast, lambda n: merged[node_key(n)])
        return self.search_node(node, k, similarity=similarity)

    def _weights_for(self, node, similarity: str = "bm25") -> dict:
        """Per-term weights + blended SynonymQuery weights for every
        synonym node in the tree: docFreq = max over members, ttf = sum
        (SynonymQuery.java's combined TermStatistics), both through
        `term_weight` from the GLOBAL stats on the driver so every shard
        scores identically.  A synonym none of whose members occurs
        weighs 0.0."""
        from .query import synonym_weight_key

        terms = node.all_terms()
        self.stats.resolve(terms)
        n_docs, sum_ttf = self.stats.N, self.manifest["stats"].get("sum_ttf")
        idfs = {
            t: term_weight(similarity, self.stats.df(t), self.stats.cf(t), n_docs, sum_ttf)
            for t in set(terms)
        }

        def walk(n):
            if n.kind == "synonym":
                df_max = max((self.stats.df(t) for t in n.terms), default=0)
                cf_sum = sum(self.stats.cf(t) for t in n.terms)
                w = term_weight(similarity, df_max, cf_sum, n_docs, sum_ttf) if df_max else 0.0
                idfs[synonym_weight_key(n.terms)] = w
            for _, c in n.clauses:
                walk(c)

        walk(node)
        return idfs

    def search_node(
        self,
        node,
        k: int = 10,
        prune: bool = True,
        similarity: str = "bm25",
        after: tuple[float, int] | None = None,
    ) -> list[tuple[int, float]]:
        """Programmatic query execution (dismax/term_set/minShouldMatch
        nodes have no string syntax, matching the reference's API-level
        queries).  `after` = (score, doc_id) shard-side strict-after bound
        (searchAfter — see `search_after` for the string-query wrapper)."""
        page = _top_k_collector(("top_scores", k, after, prune and after is None), k)
        return self._collect(node, [page], similarity=similarity)[0]

    def search_collapse(
        self,
        query: "str | QueryNode",
        field: str,
        k: int = 10,
        similarity: str = "bm25",
        min_field: str | None = None,
        max_field: str | None = None,
        null_policy: str = "ignore",
    ) -> list[tuple[int, float, str]]:
        """Query-time collapse on the index path ({!collapse field=...},
        CollapsingQParserPlugin): one head per `field` doc-value group,
        top-k groups by the heads' (score desc, docID asc).  The head is
        the group's best hit by score, or by `min_field`/`max_field`
        numeric doc-values (the plugin's min=/max= selectors — the head
        keeps its QUERY score for ranking).  Each shard returns at most
        one candidate per group (shard-side doc-value gather), the driver
        keeps the winner per group across shards — merge traffic is
        group-domain-bounded, never hit-count-bounded.  `null_policy`
        (the plugin's nullPolicy): ignore drops field-less docs, expand
        keeps each as its own singleton group (group_value None), collapse
        folds them into ONE null group.  → [(doc_id, score, group_value)].
        `query` may be a pre-parsed QueryNode (the dispatch path passes the
        q.op-applied main node, like search_franged).
        """
        if min_field and max_field:
            raise ValueError("collapse takes min= or max=, not both")
        if null_policy not in ("ignore", "expand", "collapse"):
            raise ValueError(f"unknown nullPolicy {null_policy!r}")
        if null_policy != "ignore" and (min_field or max_field):
            raise ValueError("nullPolicy=expand|collapse composes with the score selector only")
        sel_op = "min" if min_field else ("max" if max_field else None)

        def merge(parts):
            frames = [
                pd.DataFrame({"doc": d, "score": s, "val": v.astype(object), "sel": sv})
                for d, s, v, sv in parts
                if d.size
            ]
            if not frames:
                return []
            g = pd.concat(frames)
            # dedup key: null-group rows are singletons under expand, one
            # group under collapse ("\x00" can't collide — dv values are text)
            g["key"] = [
                (f"\x00{d}" if null_policy == "expand" else "\x00") if v is None else v
                for v, d in zip(g["val"], g["doc"])
            ]
            if sel_op is None:
                g = g.sort_values(["score", "doc"], ascending=[False, True], kind="mergesort")
            else:
                g = g.sort_values(["sel", "doc"], ascending=[sel_op == "min", True], kind="mergesort")
            g = g.drop_duplicates("key")
            g = g.sort_values(["score", "doc"], ascending=[False, True], kind="mergesort").head(k)
            return [
                (int(d), float(s), None if v is None else str(v))
                for d, s, v in zip(g["doc"], g["score"], g["val"])
            ]

        spec = ("top_k_collapse", field, k, sel_op, min_field or max_field, null_policy)
        return self._collect(query, [_Collect(spec, merge, [])], similarity=similarity)[0]

    def search_collapse_expand(
        self,
        query: str,
        field: str,
        k: int = 10,
        expand_rows: int = 5,
        similarity: str = "bm25",
    ):
        """`{!collapse field=}` + `expand=true` (ExpandComponent): the
        collapsed top-k heads PLUS, per head group, up to `expand.rows`
        other matching members ranked by (score desc, docID asc).  Two
        bounded scatters: the collapse pass (group-domain-bounded), then a
        members pass restricted to the k winning group values with the
        heads excluded (≤ k·rows·P rows move).  → (heads, {group_value:
        [(doc_id, score), ...]})."""
        heads = self.search_collapse(query, field, k, similarity)
        if not heads:
            return [], {}
        group_vals = [v for _, _, v in heads]
        exclude = [d for d, _, _ in heads]

        def merge(parts):
            expanded: dict[str, list] = {v: [] for v in group_vals}
            parts = [p for p in parts if p is not None]
            if parts:
                g = (
                    pd.concat(parts, ignore_index=True)
                    .sort_values(["score", "doc"], ascending=[False, True], kind="mergesort")
                    .groupby("val", sort=False)
                    .head(expand_rows)
                )
                for doc, score, val in zip(g["doc"], g["score"], g["val"]):
                    expanded[str(val)].append((int(doc), float(score)))
            return expanded

        spec = ("expand_members", field, group_vals, exclude, expand_rows)
        return heads, self._collect(query, [_Collect(spec, merge, {})], similarity=similarity)[0]

    def search_after(
        self,
        query: str,
        k: int = 10,
        after: tuple[float, int] | None = None,
        similarity: str = "bm25",
    ) -> list[tuple[int, float]]:
        """IndexSearcher.searchAfter deep paging (lucene/core/.../search/
        IndexSearcher.java): return the next page of k hits strictly after
        `after` — the LAST HIT of the previous page, in the (doc_id, score)
        shape search() returns — in (score desc, docID asc) rank order.
        The bound is applied SHARD-SIDE, so page N+1 moves only k rows per
        shard regardless of how deep the paging goes (the cursorMark
        shape; offset-based deep paging re-ships every earlier page).
        after=None is page one."""
        node = self._parse(query)
        if node is None:
            return []
        a = (float(after[1]), int(after[0])) if after is not None else None
        return self.search_node(node, k, similarity=similarity, after=a)

    def explain(self, query: str, doc_id: int, similarity: str = "bm25"):
        """debugQuery-style explanation (solr/core/.../util/SolrPluginUtils
        doDebug over IndexSearcher.explain): {'total': float32-rounded
        score, 'terms': {term: contribution}} or None if doc doesn't
        match."""
        prep = self._prepare(query, similarity=similarity)
        if prep is None:
            return None
        node, idfs = prep
        for p in self._scatter("explain", node, doc_id, idfs, similarity):
            if p is not None:
                p["total"] = float(np.float32(p["total"]))
                return p
        return None

    def fetch(self, doc_ids: list[int]) -> pa.Table:
        """GET_FIELDS phase: (doc_id, conv_id, turn_idx) for the winners,
        in docID order, dv updates applied.  Reads only the per-pid
        segments that hold the requested ids; None when none is asked."""
        want = np.asarray(sorted(set(doc_ids)), dtype=np.int64)
        if not want.size:
            return None
        paths = segments.paths_of(self.index_dir, self.manifest, want)
        return segments.read(paths, ["conv_id", "turn_idx"], docs=want)

    def export(
        self,
        query: str,
        sort_field: str,
        out_path: str,
        fl: list[str] | None = None,
        ascending: bool = True,
        batch_rows: int = 8192,
    ) -> int:
        """/export handler (ExportWriter): the FULL match set globally
        sorted by a numeric dv field, streamed to ONE parquet file.  Each
        shard writes its sorted part locally (rows never transit the
        driver scatter); the driver runs a chunked k-way merge — per-part
        buffers of `batch_rows`, safe-emit bound = min over unexhausted
        parts of their last buffered key — so driver memory is
        O(parts × batch_rows), never O(result).  Returns the row count."""
        prep = self._prepare(query)
        import shutil
        import tempfile

        tmp_dir = tempfile.mkdtemp(prefix="lsr_export_")
        writer = None
        total = 0
        try:
            paths = []
            if prep is not None:
                paths = [
                    p
                    for p in self._scatter("export_shard_sorted", *prep, sort_field, ascending, list(fl or []), tmp_dir)
                    if p is not None
                ]
            readers = [pq.ParquetFile(p).iter_batches(batch_size=batch_rows) for p in paths]
            bufs: list[pd.DataFrame | None] = []
            for r in readers:
                try:
                    bufs.append(next(r).to_pandas())
                except StopIteration:
                    bufs.append(None)
            sgn = 1.0 if ascending else -1.0

            def key_last(df):
                return (sgn * df[sort_field].iloc[-1], df["doc_id"].iloc[-1])

            while any(b is not None for b in bufs):
                bound = min(key_last(b) for b in bufs if b is not None)
                emit, keep = [], []
                for i, b in enumerate(bufs):
                    if b is None:
                        continue
                    kv = sgn * b[sort_field].to_numpy()
                    kd = b["doc_id"].to_numpy()
                    mask = (kv < bound[0]) | ((kv == bound[0]) & (kd <= bound[1]))
                    emit.append(b[mask])
                    rest = b[~mask]
                    if len(rest):
                        bufs[i] = rest.reset_index(drop=True)
                    else:
                        try:
                            bufs[i] = next(readers[i]).to_pandas()
                        except StopIteration:
                            bufs[i] = None
                chunk = pd.concat(emit, ignore_index=True)
                chunk["_k"] = sgn * chunk[sort_field].to_numpy()
                chunk = chunk.sort_values(["_k", "doc_id"], kind="mergesort").drop(columns="_k")
                tbl = pa.Table.from_pandas(chunk, preserve_index=False)
                if writer is None:
                    writer = pq.ParquetWriter(out_path, tbl.schema)
                writer.write_table(tbl)
                total += len(chunk)
        finally:
            if writer is not None:
                writer.close()
            shutil.rmtree(tmp_dir, ignore_errors=True)
        if writer is None:  # empty result: same schema as a non-empty export
            cols = {"doc_id": pa.array([], pa.int64()), sort_field: pa.array([], pa.float64())}
            for f in fl or []:
                if f != sort_field:
                    cols[f] = pa.array([], pa.float64())
            pq.write_table(pa.table(cols), out_path)
        return total

    def update_numeric_docvalues(self, field: str, updates: dict[int, float]) -> int:
        """In-place numeric doc-values update (Lucene IndexWriter.
        updateNumericDocValue / Solr in-place atomic updates on non-stored
        numeric dv fields): no reindex — `segments.write_dv_updates` merges
        the new values into the per-pid sidecars (tmp+rename commit,
        last-write-wins), and live actors patch their loaded caches in
        place.  Scoring norms are untouched, exactly like the
        reference (dv updates change sort/function/stats views only).
        Returns the number of docs patched on live actors."""
        if not updates:
            return 0
        docs = np.asarray(sorted(updates), dtype=np.int64)
        vals = np.asarray([float(updates[int(d)]) for d in docs], dtype=np.float64)
        segments.write_dv_updates(self.index_dir, self.manifest, field, docs, vals)
        return int(sum(self._scatter("apply_dv_updates", field, docs.tolist(), vals.tolist())))

    def fetch_fields(self, doc_ids: list[int], fields: list[str]) -> pd.DataFrame:
        """fl= projection for SPECIFIC docs: numeric stored columns and
        keyword doc-values (`role` reads `dv_role`) from the pid-pruned
        segments (dv updates applied), `text` from the manifest-lineage
        source files (fetch_text).  → frame indexed by doc_id, one column
        per field; unknown fields raise KeyError (Solr returns 400 for bad
        fl)."""
        want = sorted(set(int(d) for d in doc_ids))
        out = pd.DataFrame(index=pd.Index(want, name="doc_id"))
        seg_fields = [f for f in fields if f != "text"]
        if seg_fields:
            w = np.asarray(want, dtype=np.int64)
            paths = segments.paths_of(self.index_dir, self.manifest, w)
            t = segments.read(paths, [c for f in seg_fields for c in (f, f"dv_{f}")], docs=w)
            for f in seg_fields:
                c = next((c for c in (f, f"dv_{f}") if c in t.column_names), None)
                if c is None and want:
                    raise KeyError(f"unknown fl field {f!r}")
                vals = t.column(c).to_numpy(zero_copy_only=False) if c else np.empty(0, dtype=object)
                out[f] = pd.Series(vals, index=t.column("doc_id").to_numpy()).reindex(want)
        if "text" in fields:
            txt = self.fetch_text(want)
            out["text"] = [txt.get(d) for d in want]
        return out[fields]

    def select(self, q: str, k: int = 10, fl: list[str] | None = None, **kw) -> pd.DataFrame:
        """/select with a field list (the SearchHandler fl= contract):
        run `q` through the QParser front door, then ONE bounded
        fetch_fields scatter projects the requested stored/doc-values
        fields for the k winners only.  `score` is the ranking score;
        other names resolve like fetch_fields.  → frame in rank order."""
        fl = list(fl) if fl else ["score"]
        if kw.get("sort") is not None and "score" in fl:
            # a field sort doesn't score (search_sorted returns sort keys,
            # not scores) — refuse rather than mislabel sort values
            raise ValueError("fl=score is unavailable with sort= (field sorts do not score)")
        return self._project(self.query(q, k, **kw), fl)

    def _project(self, hits: list, fl: list[str]) -> pd.DataFrame:
        """The fl= projection of ranked `hits` (select's second half): one
        bounded fetch_fields read for the hit docs only."""
        rows = [(h[0], h[1]) for h in hits]  # collapse triples carry (doc, score, val)
        docs = [d for d, _ in rows]
        out = pd.DataFrame({"doc_id": np.asarray(docs, dtype=np.int64)})
        fields = [f for f in fl if f != "score"]
        if fields and docs:
            proj = self.fetch_fields(docs, fields)
            for f in fields:
                out[f] = proj[f].reindex(docs).to_numpy()
        elif fields:
            for f in fields:
                out[f] = pd.Series([], dtype=object)
        if "score" in fl:
            out["score"] = np.asarray([s for _, s in rows], dtype=np.float32)
        return out[["doc_id"] + fl]

    def fetch_text(self, doc_ids: list[int]) -> dict[int, str]:
        """Stored-field text for specific docs, read from the SOURCE files
        recorded in the manifest lineage (the index stores no text; docID =
        file base + rank under the (conv_id, turn_idx) sort, so the text of
        doc d lives at sorted-row (d - base) of its input file)."""
        inputs = self.manifest["config"]["inputs"]
        total = int(inputs[-1][2]) + int(inputs[-1][1]) if inputs else 0
        want = np.asarray(sorted(set(int(d) for d in doc_ids)), dtype=np.int64)
        want = want[(want >= 0) & (want < total)]
        pids = segments.pids_of(self.manifest, want)
        out: dict[int, str] = {}
        for pid in np.unique(pids):
            path, _rows, base = inputs[int(pid)]
            t = pq.read_table(path, columns=["conv_id", "turn_idx", "text"])
            import pyarrow.compute as pc

            order = pc.sort_indices(
                t, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
            ).to_numpy()
            texts = t.column("text").to_numpy(zero_copy_only=False)
            for d in want[pids == pid]:
                out[int(d)] = str(texts[order[int(d) - base]])
        return out

    # -- UnifiedHighlighter -------------------------------------------------
    def highlight(
        self, query: str, k: int = 10, fragsize: int = 20, snippets: int = 2,
        tag_pre: str = "<em>", tag_post: str = "</em>",
        hits: list[tuple[int, float]] | None = None,
    ) -> list[tuple[int, float, list[tuple[int, float, str]]]]:
        """UnifiedHighlighter over the top-k hits (lucene/highlighter/.../
        uhighlight/UnifiedHighlighter.java): search, fetch the winners'
        stored text (pid-pruned lineage read), re-analyze, and score fixed
        token-window passages with the PassageScorer arithmetic against the
        query's positive terms — weights from COLLECTION ttf (global
        stats), the reference's TermsEnum.totalTermFreq.  → [(doc_id,
        hit_score, [(passage_idx, passage_score, marked_snippet), ...])].
        `hits` highlights a GIVEN result page (the request handler passes
        its filtered/paged docs) instead of re-searching."""
        from ..analysis import tokenize
        from ..pipelines.highlight import score_passages

        _an = self._analyzer or tokenize
        node = self._parse(query)
        if node is None:
            return []
        terms = tuple(sorted(t for t in set(node.all_terms()) if ":" not in t))
        if hits is None:
            hits = self.search_node(node, k)
        if not hits or not terms:
            return [(d, s, []) for d, s in hits]
        ttf = {t: self.stats.cf(t) for t in terms}
        texts = self.fetch_text([d for d, _ in hits])
        out = []
        for d, s in hits:
            toks = [t for t, _ in _an(texts.get(d, ""))]
            out.append(
                (d, s, score_passages(toks, terms, ttf, fragsize, snippets, tag_pre, tag_post))
            )
        return out

    # -- TermVectorComponent ----------------------------------------------
    def term_vectors(self, doc_id: int) -> dict[str, dict]:
        """/tvrh (solr/core/.../handler/component/TermVectorComponent.java):
        per-document term vector {term: {tf, positions, df}}.  The reference
        re-analyzes stored fields when term vectors aren't stored in the
        segment — same here: one pid-pruned stored-text read + the analyzer
        chain; dfs resolve through the lazy global stats (memory-mapped
        sidecar lookups, vocabulary stays off the driver)."""
        from ..analysis.analyzer import tokenize

        tokenize = self._analyzer or tokenize

        text = self.fetch_text([doc_id]).get(int(doc_id))
        if text is None:
            return {}
        vec: dict[str, dict] = {}
        for term, pos in tokenize(text):
            e = vec.setdefault(term, {"tf": 0, "positions": []})
            e["tf"] += 1
            e["positions"].append(pos)
        for term, e in vec.items():
            e["df"] = int(self.stats.df(term))
        return vec

    # -- ClusteringComponent ----------------------------------------------
    def cluster_results(
        self, query: str, k: int = 50, n_clusters: int = 4, label_terms: int = 3, seed: int = 7
    ) -> list[dict]:
        """Search-result clustering (solr/contrib/clustering — the Carrot2
        ClusteringComponent): cluster the TOP-k result PAGE, not the corpus.
        Page docs are fetched (pid-pruned), tf-idf vectors built over the
        page vocabulary, spherical k-means with a fixed seed, clusters
        labelled by their centroids' top terms.  All work is O(page), the
        Solr contract — the distributed part is the search itself."""
        import math as _math

        from ..analysis.analyzer import tokenize

        tokenize = self._analyzer or tokenize

        hits = self.search(query, k)
        if not hits:
            return []
        doc_ids = [d for d, _ in hits]
        texts = self.fetch_text(doc_ids)
        toks = {d: [t for t, _ in tokenize(texts.get(d, ""))] for d in doc_ids}
        vocab = sorted({t for ts in toks.values() for t in ts})
        if not vocab or len(doc_ids) < 2:
            return [{"label": "", "docs": doc_ids}]
        vi = {t: i for i, t in enumerate(vocab)}
        tf = np.zeros((len(doc_ids), len(vocab)), dtype=np.float64)
        for r, d in enumerate(doc_ids):
            for t in toks[d]:
                tf[r, vi[t]] += 1.0
        df = (tf > 0).sum(axis=0)
        idf = np.array([_math.log(1.0 + len(doc_ids) / (1.0 + int(x))) for x in df])
        x = tf * idf[None, :]
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        x = x / np.where(norms > 0, norms, 1.0)
        nc = min(n_clusters, len(doc_ids))
        rng = np.random.default_rng(seed)
        cent = x[rng.choice(len(x), size=nc, replace=False)].copy()
        for _ in range(10):
            assign = (x @ cent.T).argmax(axis=1)
            for c in range(nc):
                m = x[assign == c]
                if len(m):
                    v = m.sum(axis=0)
                    n = np.linalg.norm(v)
                    cent[c] = v / n if n > 0 else cent[c]
        out = []
        for c in range(nc):
            members = [doc_ids[i] for i in np.flatnonzero(assign == c)]
            if not members:
                continue
            top = np.argsort(-cent[c])[:label_terms]
            out.append(
                {"label": " ".join(vocab[int(i)] for i in top if cent[c][int(i)] > 0), "docs": members}
            )
        return out

    # -- RealTimeGet -------------------------------------------------------
    def get(self, conv_id: str, turn_idx: int | None = None, with_text: bool = False) -> list[dict]:
        """/get by unique key (solr/core/.../handler/component/
        RealTimeGetComponent.java — there backed by the tlog; here the
        committed index IS the durable point, so /get reads the docmap).

        Input files are conv-range partitioned in path order (the block
        contract), so the owning partition is found by BINARY SEARCH over
        per-pid conv ranges read from parquet footer statistics — O(log
        n_files) footer reads, then ONE predicate-pushdown read of that
        pid's segment, matched on the built key; dv updates apply to the
        rows returned.  Tombstoned docs are filtered (deleted docs don't
        /get)."""
        inputs = self.manifest["config"]["inputs"]
        lo, hi = 0, len(inputs) - 1
        owner = None
        while lo <= hi:
            mid = (lo + hi) // 2
            md = pq.ParquetFile(segments.segment_path(self.index_dir, mid)).metadata
            idx = md.schema.to_arrow_schema().get_field_index("conv_id")
            mn = min(md.row_group(i).column(idx).statistics.min for i in range(md.num_row_groups))
            mx = max(md.row_group(i).column(idx).statistics.max for i in range(md.num_row_groups))
            if conv_id < mn:
                hi = mid - 1
            elif conv_id > mx:
                lo = mid + 1
            else:
                owner = mid
                break
        if owner is None:
            return []
        flt = [("conv_id", "==", conv_id)]
        if turn_idx is not None:
            flt.append(("turn_idx", "==", int(turn_idx)))
        t = segments.read([segments.segment_path(self.index_dir, owner)], filters=flt)
        dead = np.isin(t.column("doc_id").to_numpy(), self._tombstones)
        rows = t.filter(pa.array(~dead)).to_pylist()  # docID order = built turn order
        if with_text and rows:
            texts = self.fetch_text([r["doc_id"] for r in rows])
            for r in rows:
                r["text"] = texts.get(r["doc_id"])
        return rows

    # -- PayloadScoreQuery -------------------------------------------------
    def payload_score(
        self,
        term: str,
        k: int = 10,
        func: str = "max",
        delimiter: str = "|",
        include_span_score: bool = False,
        max_candidates: int = 1024,
    ) -> list[tuple[int, float]]:
        """{!payload_score} (solr/core/.../search/PayloadScoreQParserPlugin
        .java → lucene/queries/.../payloads/PayloadScoreQuery.java +
        PayloadFunction min/max/average/sum): rank docs matching `term` by
        the aggregate of the numeric payloads attached to its occurrences
        (`tok<delim>payload` markup, DelimitedPayloadTokenFilter).

        Two-phase like /tvrh: phase 1 is the normal index match (postings
        give the candidate docs — payload terms tokenize so the bare term
        still matches); phase 2 re-analyzes ONLY the candidates' stored
        text (pid-pruned fetch) with a whitespace split + payload
        extraction, aggregating per doc.  Payload bytes never live in the
        postings — the reference stores them per position; here the stored
        source IS the payload store, read O(candidates) rows.
        `include_span_score=True` multiplies by the BM25 term score
        (PayloadScoreQuery(includeSpanScore=true)).

        Exact over up to `max_candidates` matching docs (BM25-ordered
        overrequest); raise it toward the term's df for exhaustive
        payload ranking of very common terms."""
        if func not in ("min", "max", "sum", "average"):
            raise ValueError(f"unknown payload function {func!r}")
        hits = self.search(term, k=max(k * 32, max_candidates))
        if not hits:
            return []
        texts = self.fetch_text([d for d, _ in hits])
        span_score = dict(hits)
        scored: list[tuple[int, float]] = []
        for d, text in texts.items():
            vals: list[float] = []
            for w in text.split():
                i = w.find(delimiter)
                if i > 0 and w[:i].lower() == term:
                    try:
                        vals.append(float(w[i + len(delimiter) :]))
                    except ValueError:
                        pass
                elif w.lower() == term:
                    vals.append(1.0)  # Lucene default payload for bare terms
            if not vals:
                continue
            agg = {
                "min": min,
                "max": max,
                "sum": sum,
                "average": lambda v: sum(v) / len(v),
            }[func](vals)
            if include_span_score:
                agg *= span_score[d]
            scored.append((d, float(np.float32(agg))))
        scored.sort(key=lambda t: (-t[1], t[0]))
        return scored[:k]

    # -- MoreLikeThis ------------------------------------------------------
    def more_like_this(
        self,
        doc_id: int,
        k: int = 10,
        max_query_terms: int = 10,
        min_tf: int = 1,
        min_doc_freq: int = 1,
        similarity: str = "bm25",
    ) -> list[tuple[int, float]]:
        """MoreLikeThisHandler (lucene/queries/.../mlt/MoreLikeThis.java,
        solr/core/.../handler/MoreLikeThisHandler.java): pick the doc's top
        `max_query_terms` interesting terms by tf·idf (mintf/mindf gates),
        run them as a SHOULD BooleanQuery, exclude the seed doc.  Term
        selection runs on ONE fetched doc; the search is the normal
        scatter-gather path."""
        import math as _math

        from .query import QueryNode

        vec = self.term_vectors(doc_id)
        scored = []
        for term, e in vec.items():
            if e["tf"] < min_tf or e["df"] < min_doc_freq or e["df"] == 0:
                continue
            idf = _math.log(1.0 + (self.stats.N - e["df"] + 0.5) / (e["df"] + 0.5))
            scored.append((-(e["tf"] * idf), term))
        scored.sort()
        terms = [t for _, t in scored[:max_query_terms]]
        if not terms:
            return []
        node = QueryNode(
            "bool", clauses=[("SHOULD", QueryNode("term", terms=[t])) for t in terms]
        )
        hits = self.search_node(node, k + 1, similarity=similarity)
        return [(d, s) for d, s in hits if d != int(doc_id)][:k]

    # -- Luke / index introspection ---------------------------------------
    def schema(self) -> dict:
        """Read-only Schema API (/schema — solr/core/.../handler/SchemaHandler
        .java GET surface): the index's field model from the committed
        manifest — the default analyzed `text` field, extra analyzed fields
        with their own norms, keyword (StrField) filter fields, the
        analyzer chain in effect, and codec.  Mutation (ADD-FIELD …) is the
        build's job: analysis/config choices participate in the manifest
        fingerprint, so schema changes are new commits, never in-place."""
        cfg = self.manifest["config"]
        st = self.manifest["stats"]
        fields = [
            {"name": "text", "type": "text_general", "indexed": True, "norms": True,
             "avgdl": float(st["avgdl"])}
        ]
        for f, fs in (st.get("fields") or {}).items():
            fields.append(
                {"name": f, "type": "text_general", "indexed": True, "norms": True,
                 "avgdl": float(fs["avgdl"])}
            )
        for f in cfg.get("keyword_fields", []):
            if f not in (x["name"] for x in fields):
                fields.append({"name": f, "type": "string", "indexed": True, "norms": False})
        return {
            "fields": fields,
            "analyzer": {
                "tokenizer": cfg.get("tokenizer", "standard"),
                "id": cfg.get("analyzer_id", "standard"),
            },
            "codec": cfg.get("codec", "varbyte"),
            "uniqueKey": "doc_id",
        }

    def index_info(self, top_terms: int = 10) -> dict:
        """LukeRequestHandler (solr/core/.../handler/admin/LukeRequestHandler
        .java): index-level metadata + top terms, all from the committed
        manifest and the distributed /terms path — no corpus scan."""
        st = self.manifest["stats"]
        return {
            "num_docs": int(st["N"]) - int(self._tombstones.size),
            "max_doc": int(st["N"]),
            "deleted_docs": int(self._tombstones.size),
            "sum_ttf": int(st.get("sum_ttf", 0)),
            "avgdl": float(st["avgdl"]),
            "num_shards": len(self.shard_dirs),
            "num_segments": len(self.manifest["segments"]),
            "fields": [""] + sorted((st.get("fields") or {}).keys()),
            "codec": self.manifest["config"].get("codec", "varbyte"),
            "version": self.manifest.get("version"),
            "top_terms": self.terms(limit=top_terms),
        }


class AliasSearcher:
    """Collection alias spanning multiple Searchers (SolrCloud collection
    aliases, solr/core/src/java/org/apache/solr/cloud/Aliases.java
    routing): a query scatters to EVERY member collection and the
    per-collection TopDocs merge by raw score — Solr's alias contract
    scores each collection with its OWN stats (no cross-collection idf
    normalization; ExactStatsCache is a per-collection concern), ties
    broken (score desc, collection order, docID asc).
    → [(collection_name, doc_id, score)]."""

    def __init__(self, searchers: list["Searcher"], names: list[str] | None = None):
        if not searchers:
            raise ValueError("alias needs at least one collection")
        self.searchers = list(searchers)
        self.names = list(names) if names else [f"c{i}" for i in range(len(searchers))]
        if len(self.names) != len(self.searchers):
            raise ValueError("names/searchers length mismatch")

    def search(self, query: str, k: int = 10, similarity: str = "bm25"):
        hits = []
        for ci, (name, s) in enumerate(zip(self.names, self.searchers)):
            for doc, score in s.search(query, k, similarity=similarity):
                hits.append((name, ci, doc, score))
        hits.sort(key=lambda h: (-h[3], h[1], h[2]))
        return [(n, d, sc) for n, _, d, sc in hits[:k]]

    def count(self, query: str) -> int:
        """numFound across the alias — per-collection counts summed."""
        return sum(s.count(query) for s in self.searchers)

    def close(self):
        for s in self.searchers:
            s.close()
