"""Reverse search / percolator — the Lucene Monitor module
(lucene/monitor/src/java/org/apache/lucene/monitor/Monitor.java): a
REGISTERED set of parsed queries is matched against a stream of documents,
the inverse of an index search.  Used for alerting ("tell me when a doc
matching this query arrives") and, in training-data pipelines, for
rule-tagging a corpus against a query library at scale.

Ray-Data-first shape:
- the query set is parsed + compiled ONCE per actor (`MonitorMatcher.
  __init__` — the Monitor's QueryIndex build); documents stream through
  `map_batches` and never materialize;
- a term-filtered presearcher (monitor/TermFilteredPresearcher.java) skips
  queries none of whose ANCHOR terms occur in the batch vocabulary, so a
  large query library costs O(matching queries) per batch, not O(all);
- per-query evaluation is vectorized over the whole batch: one factorized
  token stream (`text._explode_tokens`), boolean presence vectors per term,
  numpy set-ops for the boolean algebra, and composite (doc, position) keys
  for phrase adjacency — no per-document Python loop.

At cluster scale the query library is built once and shipped via the actor
constructor (one ray.put under the hood), exactly the broadcast-small-side
pattern; documents are the 100 TB side and stream.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..search.query import QueryNode, parse_query
from .common import Pipeline, read
from .text import TOKEN_RE, _explode_tokens

# The default registered-query library for the gate: one per supported
# shape (term, conjunction, disjunction, negation, phrase).  Query strings
# use the engine's own QParser; the SQL twin is derived from the same
# token definition (tokens space-joined, membership = padded substring).
MONITOR_QUERIES: list[tuple[str, str]] = [
    ("q_and", "+fast +merge"),
    ("q_not", "+scan -window"),
    ("q_or", "spark dup"),
    ("q_phrase", '"hash join"'),
    ("q_term", "dup"),
]


def _anchor_terms(node: QueryNode) -> list[str]:
    """Presearcher term extraction (TermFilteredPresearcher.extract): a set
    of terms such that every matching doc contains AT LEAST ONE.  For a
    conjunction any single MUST/FILTER clause's anchors suffice (pick the
    first); a disjunction needs the union over SHOULD clauses; MUST_NOT
    contributes nothing.  Empty ⇒ unanchorable (always evaluate)."""
    if node.kind in ("term", "synonym", "term_set"):
        return list(node.terms)
    if node.kind in ("phrase", "interval"):
        return node.terms[:1]
    if node.kind == "multi_phrase":
        # a match holds ONE alternative from every slot — slot 0's
        # alternatives are a valid anchor set (any match contains one)
        return list(node.slots[0]) if node.slots else []
    if node.kind == "complex_phrase":
        return []  # slots may hold multi-term leaves: unanchorable
    if node.kind in ("bool", "dismax"):
        musts = [c for occ, c in node.clauses if occ in ("MUST", "FILTER")]
        if musts:
            # first MUST with a usable anchor set (a multi-term MUST is
            # unanchorable; another conjunct can still anchor the query)
            for m in musts:
                a = _anchor_terms(m)
                if a:
                    return a
            return []
        out: list[str] = []
        for occ, c in node.clauses:
            if occ == "SHOULD":
                a = _anchor_terms(c)
                if not a:
                    return []  # one unanchorable branch poisons the union
                out.extend(a)
        return out
    return []


class MonitorMatcher:
    """Actor-pool stage: compiled query library in __init__, vectorized
    batch matching in __call__ → (query_id, doc_id) pairs."""

    _SUPPORTED = (
        "term", "phrase", "bool", "dismax", "prefix", "wildcard", "fuzzy",
        "regexp", "multi_phrase", "complex_phrase",
    )

    @classmethod
    def _validate(cls, node: QueryNode, qid: str) -> None:
        """Reject unsupported shapes at REGISTRATION (the Monitor's
        register() is where Lucene throws too) — never mid-stream inside a
        running map_batches batch."""
        if node.kind not in cls._SUPPORTED:
            raise ValueError(f"monitor query {qid!r}: unsupported node kind {node.kind}")
        if node.kind in ("phrase", "multi_phrase", "complex_phrase") and node.slop:
            raise ValueError(f"monitor query {qid!r}: sloppy phrases are not supported")
        for _, c in node.clauses:
            cls._validate(c, qid)

    def __init__(self, queries: list[tuple[str, str]]):
        self.compiled: list[tuple[str, QueryNode, set[str]]] = []
        for qid, qstr in queries:
            # API-level queries (MultiPhraseQuery, ComplexPhrase) register
            # as QueryNodes directly — the MonitorQuery(Query) constructor
            node = qstr if isinstance(qstr, QueryNode) else parse_query(qstr)
            if node is not None:
                self._validate(node, qid)
                self.compiled.append((qid, node, set(_anchor_terms(node))))
        self.evaluated = 0  # presearcher diagnostics (per-actor, tests)
        self.skipped = 0

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        doc_idx, codes, uniq, counts = _explode_tokens(batch["text"])
        code_of = {t: i for i, t in enumerate(uniq)}
        vocab = set(code_of)
        # composite (doc, position) keys for phrase adjacency
        offsets = np.zeros(len(counts), dtype=np.int64)
        if len(counts) > 1:
            offsets[1:] = counts.cumsum()[:-1]
        pos = np.arange(codes.size, dtype=np.int64) - np.repeat(offsets, counts)
        stride = int(counts.max()) + 1 if len(counts) else 1
        key = doc_idx * stride + pos

        def term_vec(t: str) -> np.ndarray:
            v = np.zeros(n, dtype=bool)
            c = code_of.get(t)
            if c is not None:
                v[doc_idx[codes == c]] = True
            return v

        def slot_keys(alts: list[str], j: int) -> np.ndarray:
            parts = [key[codes == code_of[t]] - j for t in alts if t in code_of]
            if len(parts) <= 1:  # one term's keys are already sorted and unique
                return parts[0] if parts else np.empty(0, np.int64)
            return np.unique(np.concatenate(parts))

        def multi_phrase_vec(slots: list[list[str]]) -> np.ndarray:
            # per-slot alternative UNION on positions (MultiPhraseQuery)
            v = np.zeros(n, dtype=bool)
            cand = slot_keys(slots[0], 0) if slots else np.empty(0, np.int64)
            for j, alts in enumerate(slots[1:], 1):
                if not cand.size:
                    return v
                cand = cand[np.isin(cand, slot_keys(alts, j))]
            v[cand // stride] = True
            return v

        sorted_uniq: np.ndarray | None = None

        def match(node: QueryNode) -> np.ndarray:
            nonlocal sorted_uniq
            if node.kind == "term":
                return term_vec(node.terms[0])
            if node.kind == "phrase":
                return multi_phrase_vec([[t] for t in node.terms])
            if node.kind == "multi_phrase":
                return multi_phrase_vec(node.slots)
            if node.kind == "complex_phrase":
                # rewrite the slots against the BATCH vocabulary (the
                # ANYTOKEN presearcher path), then match as multi_phrase
                from ..search.query import expand_multi_term, rewrite_with

                if sorted_uniq is None:
                    sorted_uniq = np.sort(uniq.astype(str))
                rw = rewrite_with(node, lambda mt: expand_multi_term(mt, sorted_uniq))
                if rw is None or (rw.kind == "bool" and not rw.clauses):
                    return np.zeros(n, dtype=bool)
                return match(rw)
            if node.kind in ("prefix", "wildcard", "fuzzy", "regexp"):
                # multi-term leaf: expand against the BATCH vocabulary
                # (the Monitor's ANYTOKEN presearcher path — unanchorable,
                # so these queries evaluate on every batch)
                from ..search.query import expand_multi_term

                if sorted_uniq is None:
                    sorted_uniq = np.sort(uniq.astype(str))
                v = np.zeros(n, dtype=bool)
                for t in expand_multi_term(node, sorted_uniq):
                    v |= term_vec(t)
                return v
            if node.kind in ("bool", "dismax"):
                v = None
                should = np.zeros(n, dtype=bool)
                has_should = has_pos = False
                for occ, c in node.clauses:
                    if occ in ("MUST", "FILTER"):
                        cv = match(c)
                        v = cv if v is None else (v & cv)
                        has_pos = True
                    elif occ == "SHOULD":
                        should |= match(c)
                        has_should = True
                if not has_pos:
                    v = should if has_should else np.zeros(n, dtype=bool)
                for occ, c in node.clauses:
                    if occ == "MUST_NOT":
                        v &= ~match(c)
                return v
            raise ValueError(f"monitor: unsupported node kind {node.kind}")

        qids: list[str] = []
        dids: list[np.ndarray] = []
        ids = batch["doc_id"].to_numpy()
        for qid, node, anchors in self.compiled:
            if anchors and not (anchors & vocab):
                self.skipped += 1  # presearcher: no anchor term in batch
                continue
            self.evaluated += 1
            hit = match(node)
            if hit.any():
                matched = ids[hit]
                qids.extend([qid] * matched.size)
                dids.append(matched)
        return pd.DataFrame(
            {
                # dtype "string" keeps the Arrow type string even for empty
                # batches (a null-typed empty block breaks the global sort)
                "query_id": pd.Series(qids, dtype="string"),
                "doc_id": np.concatenate(dids) if dids else np.empty(0, np.int64),
            }
        )


_MATCHER_CACHE: dict = {}  # per-worker-process compiled-library cache


def monitor_match(sf_dir: str, queries: list[tuple[str, str]] | None = None):
    import ray

    qs = MONITOR_QUERIES if queries is None else queries
    # compile + VALIDATE the library once on the driver (registration is
    # where errors belong), broadcast via ray.put, and match with a TASK
    # pool — the knn_label_vote shape: the matcher's only per-worker state
    # is one zero-copy ray.get, so there is no actor-startup cost and the
    # pool is exactly as wide as the cluster lets map tasks run (the r3
    # verdict's concurrency=2 cap is gone without paying actor spin-up,
    # which measured SLOWER than the cap on startup-bound inputs).
    compiled = MonitorMatcher(qs)
    ref = ray.put(compiled)

    def match(batch: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        # the compiled library is a Python object (NOT zero-copy numpy), so
        # ray.get re-unpickles it per call — memoize per worker process,
        # keyed by the ObjectRef, so each worker deserializes once (the
        # actor-pool amortization without the actor spin-up)
        key = _ref.hex()
        m = _MATCHER_CACHE.get(key)
        if m is None:
            if len(_MATCHER_CACHE) >= 4:  # bound without evicting OTHER
                _MATCHER_CACHE.pop(next(iter(_MATCHER_CACHE)))  # concurrent
            m = _MATCHER_CACHE[key] = ray.get(_ref)  # pipelines' entries
        return m(batch)

    out = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        match, batch_format="pandas"
    )
    # result STAYS a Dataset (distributed sort): the match set is
    # output-bounded by the queries, not the corpus, but at 100 TB a hot
    # query library can still emit billions of pairs — consumers
    # write_parquet or iterate; the driver never holds them.
    return out.sort(["query_id", "doc_id"])


def _toks_cte() -> str:
    return (
        "WITH toks AS (SELECT doc_id, ' ' || array_to_string("
        f"regexp_extract_all(lower(text), '{TOKEN_RE}'), ' ') || ' ' AS ts "
        "FROM documents)"
    )


MONITOR_SQL = f"""
{_toks_cte()}
SELECT query_id, doc_id FROM (
  SELECT 'q_and' AS query_id, doc_id FROM toks
    WHERE contains(ts, ' fast ') AND contains(ts, ' merge ')
  UNION ALL
  SELECT 'q_not', doc_id FROM toks
    WHERE contains(ts, ' scan ') AND NOT contains(ts, ' window ')
  UNION ALL
  SELECT 'q_or', doc_id FROM toks
    WHERE contains(ts, ' spark ') OR contains(ts, ' dup ')
  UNION ALL
  SELECT 'q_phrase', doc_id FROM toks WHERE contains(ts, ' hash join ')
  UNION ALL
  SELECT 'q_term', doc_id FROM toks WHERE contains(ts, ' dup ')
) ORDER BY query_id, doc_id
"""


PIPELINES: dict[str, Pipeline] = {
    "monitor_match": Pipeline(
        monitor_match,
        MONITOR_SQL,
        "reverse search / percolator: registered query library matched against the document stream (lucene/monitor)",
    ),
}
