"""Full intervals algebra (lucene/queries/src/java/org/apache/lucene/
queries/intervals/Intervals.java + IntervalsSource.java).

An `IntervalsNode` tree composes interval sources over a single document's
positions; the engine evaluates the SAME tree over every candidate doc of a
shard at once with segmented numpy (no per-doc Python loop — composite
`doc·L + pos` keys make searchsorted/accumulate doc-boundary-safe).

Semantics (documented variant, shared bit-for-bit by the per-doc reference
evaluator `eval_doc` and the vectorized `eval_batch`; property-tested
against each other):

- term t          → one interval [p, p] per position of t
- or(a, b, …)     → sorted union of child intervals (exact dups removed)
- ordered(a, b, …)→ greedy chains: for each interval of the first child,
                    each later child contributes its FIRST interval (by
                    start order) starting after the previous child's end;
                    the resulting spans are then MINIMIZED (an interval
                    containing another interval of the same set is dropped
                    — Lucene's minimum-interval semantics)
- unordered(…)    → for every candidate right edge E (an end of any child
                    interval), each child contributes its max-start
                    interval with end ≤ E (ties → smaller end); the window
                    is [min starts, max ends] when every child is covered;
                    minimized as above
- maxwidth(w, x)  → intervals of x with (end − start + 1) ≤ w
- containing(big, small)      → big intervals containing ≥1 small interval
- not_containing(big, small)  → big intervals containing none
- contained_by(small, big)    → small intervals inside ≥1 big interval
- not_contained_by(small,big) → small intervals inside none
- overlapping(src, ref)       → src intervals overlapping ≥1 ref interval

Match frequency = number of intervals the tree yields for the doc; scoring
treats the tree like a phrase with that frequency (PhraseWeight-style
summed idf — see actor._score_intervals_tree).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_L = 1 << 22  # position limit; composite keys are doc·L + pos (matches actor)

_EMPTY = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))


@dataclass
class IntervalsNode:
    kind: str  # "term" | "or" | "ordered" | "unordered" | "maxwidth"
    #           | "containing" | "not_containing" | "contained_by"
    #           | "not_contained_by" | "overlapping"
    term: str = ""
    children: list["IntervalsNode"] = field(default_factory=list)
    width: int = 0

    def leaf_terms(self) -> list[str]:
        if self.kind == "term":
            return [self.term]
        out: list[str] = []
        for c in self.children:
            out.extend(c.leaf_terms())
        return out

    def scored_terms(self) -> list[str]:
        """Terms that contribute to scoring/required-doc sets: the filter
        side of containing/contained_by/overlapping narrows candidates but
        the *_not variants' filter side does not require presence."""
        if self.kind == "term":
            return [self.term]
        if self.kind in ("not_containing", "not_contained_by"):
            return self.children[0].scored_terms()
        out: list[str] = []
        for c in self.children:
            out.extend(c.scored_terms())
        return out


def candidate_docs(node: IntervalsNode, provider) -> np.ndarray:
    """Docs that can possibly yield an interval for `node` — the exact
    required-set pruning a scorer scans before evaluating the tree:
    UNION under `or` (any alternative suffices), INTERSECTION under
    chains/filters (every child must appear), first-child-only under the
    not_* variants (their filter side never requires presence).
    `provider(term)` returns the term's postings with docs at index 0, or
    None when absent.  (A flat intersection over scored_terms() would
    over-prune `or` alternatives — a doc matching one branch need not
    contain the other branch's terms.)"""
    if node.kind == "term":
        p = provider(node.term)
        return np.empty(0, np.int64) if p is None else np.asarray(p[0], np.int64)
    if node.kind == "or":
        parts = [candidate_docs(c, provider) for c in node.children]
        return np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
    if node.kind in ("not_containing", "not_contained_by", "maxwidth"):
        return candidate_docs(node.children[0], provider)
    # ordered / unordered / containing / contained_by / overlapping
    out: np.ndarray | None = None
    for c in node.children:
        d = candidate_docs(c, provider)
        out = d if out is None else np.intersect1d(out, d, assume_unique=True)
        if out.size == 0:
            return out
    return out if out is not None else np.empty(0, np.int64)


def iterm(t: str) -> IntervalsNode:
    return IntervalsNode("term", term=t)


def ordered(*children: IntervalsNode) -> IntervalsNode:
    return IntervalsNode("ordered", children=list(children))


def unordered(*children: IntervalsNode) -> IntervalsNode:
    return IntervalsNode("unordered", children=list(children))


def ior(*children: IntervalsNode) -> IntervalsNode:
    return IntervalsNode("or", children=list(children))


def maxwidth(w: int, child: IntervalsNode) -> IntervalsNode:
    return IntervalsNode("maxwidth", children=[child], width=w)


def containing(big: IntervalsNode, small: IntervalsNode) -> IntervalsNode:
    return IntervalsNode("containing", children=[big, small])


def not_containing(big: IntervalsNode, small: IntervalsNode) -> IntervalsNode:
    return IntervalsNode("not_containing", children=[big, small])


def contained_by(small: IntervalsNode, big: IntervalsNode) -> IntervalsNode:
    return IntervalsNode("contained_by", children=[small, big])


def not_contained_by(small: IntervalsNode, big: IntervalsNode) -> IntervalsNode:
    return IntervalsNode("not_contained_by", children=[small, big])


def overlapping(src: IntervalsNode, ref: IntervalsNode) -> IntervalsNode:
    return IntervalsNode("overlapping", children=[src, ref])


# ==========================================================================
# Per-doc reference evaluator (oracle form — plain Python over one doc's
# position lists; the duel/property tests compare eval_batch against this).


def _minimal_doc(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    spans = sorted(set(spans), key=lambda ab: (ab[1], -ab[0]))
    out: list[tuple[int, int]] = []
    max_start = -1
    for s, e in spans:
        if s > max_start:
            out.append((s, e))
            max_start = s
    return sorted(out)


def eval_doc(node: IntervalsNode, pos: dict[str, list[int]]) -> list[tuple[int, int]]:
    """→ sorted [(start, end)] intervals of `node` in one doc."""
    k = node.kind
    if k == "term":
        return [(p, p) for p in sorted(pos.get(node.term, ()))]
    if k == "or":
        out: list[tuple[int, int]] = []
        for c in node.children:
            out.extend(eval_doc(c, pos))
        return sorted(set(out))
    if k == "maxwidth":
        return [(s, e) for s, e in eval_doc(node.children[0], pos) if e - s + 1 <= node.width]
    if k == "ordered":
        child_iv = [eval_doc(c, pos) for c in node.children]
        if any(not iv for iv in child_iv):
            return []
        spans = []
        for s0, e0 in child_iv[0]:
            prev_end, ok = e0, True
            for iv in child_iv[1:]:
                nxt = next(((s, e) for s, e in iv if s > prev_end), None)
                if nxt is None:
                    ok = False
                    break
                prev_end = nxt[1]
            if ok:
                spans.append((s0, prev_end))
        return _minimal_doc(spans)
    if k == "unordered":
        child_iv = [eval_doc(c, pos) for c in node.children]
        if any(not iv for iv in child_iv):
            return []
        events = sorted({e for iv in child_iv for _, e in iv})
        spans = []
        for E in events:
            starts, ends = [], []
            ok = True
            for iv in child_iv:
                cand = [(s, e) for s, e in iv if e <= E]
                if not cand:
                    ok = False
                    break
                s, e = max(cand, key=lambda ab: (ab[0], -ab[1]))
                starts.append(s)
                ends.append(e)
            if ok:
                spans.append((min(starts), max(ends)))
        return _minimal_doc(spans)
    big = eval_doc(node.children[0], pos)
    small = eval_doc(node.children[1], pos)
    if k in ("containing", "not_containing"):
        hit = [(s, e) for s, e in big if any(s <= s2 and e2 <= e for s2, e2 in small)]
        return hit if k == "containing" else [iv for iv in big if iv not in hit]
    if k in ("contained_by", "not_contained_by"):
        hit = [(s, e) for s, e in big if any(s2 <= s and e <= e2 for s2, e2 in small)]
        return hit if k == "contained_by" else [iv for iv in big if iv not in hit]
    if k == "overlapping":
        return [(s, e) for s, e in big if any(s2 <= e and e2 >= s for s2, e2 in small)]
    raise ValueError(f"unknown intervals node kind {k!r}")


# ==========================================================================
# Vectorized batch evaluator — the engine form.  All arrays are parallel
# (idoc, start, end) triples sorted by (idoc, start, end), where idoc
# indexes the shard's candidate-doc array.


def _sort_iv(idoc, s, e):
    order = np.lexsort((e, s, idoc))
    return idoc[order], s[order], e[order]


def minimal_spans(idoc, s, e):
    """Drop spans that contain another span of the same doc (+ exact dups):
    sort by (doc, end asc, start desc), keep strictly-increasing composite
    start keys (earlier docs' keys are always smaller, so one running max
    is doc-boundary-safe)."""
    if idoc.size == 0:
        return _EMPTY
    order = np.lexsort((-s, e, idoc))
    idoc, s, e = idoc[order], s[order], e[order]
    key = idoc * _L + s
    runmax = np.maximum.accumulate(key)
    keep = np.empty(key.size, dtype=bool)
    keep[0] = True
    keep[1:] = key[1:] > runmax[:-1]
    return _sort_iv(idoc[keep], s[keep], e[keep])


def chain_spans(children_iv, minimal: bool):
    """Greedy ordered chains across children (each child sorted by
    (idoc, start)).  minimal=False yields the raw per-seed chains (sloppy-
    phrase counting); minimal=True applies minimum-interval semantics."""
    if not children_iv or any(c[0].size == 0 for c in children_iv):
        return _EMPTY
    cur_doc, cur_s, cur_e = children_iv[0]
    for jd, js, je in children_iv[1:]:
        key = jd * _L + js
        q = cur_doc * _L + cur_e
        pos = np.searchsorted(key, q, side="right")
        posc = np.clip(pos, 0, key.size - 1)
        keep = (pos < key.size) & (jd[posc] == cur_doc)
        cur_doc, cur_s, cur_e = cur_doc[keep], cur_s[keep], je[posc[keep]]
        if cur_doc.size == 0:
            return _EMPTY
    if minimal:
        return minimal_spans(cur_doc, cur_s, cur_e)
    return cur_doc, cur_s, cur_e


def unordered_spans(children_iv):
    """Minimal covering windows (see module docstring for the definition)."""
    if not children_iv or any(c[0].size == 0 for c in children_iv):
        return _EMPTY
    # events: unique (idoc, end) across all children
    ev_key = np.unique(np.concatenate([d * _L + e for d, _, e in children_iv]))
    ev_doc, ev_end = ev_key // _L, ev_key % _L
    n_ev = ev_key.size
    w_start = np.full(n_ev, np.iinfo(np.int64).max, dtype=np.int64)
    w_end = np.full(n_ev, -1, dtype=np.int64)
    covered = np.ones(n_ev, dtype=bool)
    LL = _L * _L
    for jd, js, je in children_iv:
        order = np.lexsort((je, jd))  # by (doc, end)
        d, s, e = jd[order], js[order], je[order]
        end_key = d * _L + e
        # prefix "best" = max start (ties → smaller end), doc-safe via
        # composite doc·L² + start·L + (L−1−end)
        comp = d * LL + s * _L + (_L - 1 - e)
        best = np.maximum.accumulate(comp)
        idx = np.searchsorted(end_key, ev_doc * _L + ev_end, side="right") - 1
        ok = idx >= 0
        idxc = np.clip(idx, 0, end_key.size - 1)
        b = best[idxc]
        ok &= (b // LL) == ev_doc  # the best entry must be in the event's doc
        covered &= ok
        bs = (b // _L) % _L
        be = _L - 1 - (b % _L)
        w_start = np.where(ok, np.minimum(w_start, bs), w_start)
        w_end = np.where(ok, np.maximum(w_end, be), w_end)
    if not covered.any():
        return _EMPTY
    return minimal_spans(ev_doc[covered], w_start[covered], w_end[covered])


def _pairwise_mask(src, ref, mode: str) -> np.ndarray:
    """For each src interval, does a ref interval of the same doc satisfy
    `mode`?  Vectorized with doc-safe composite keys.

    contains:     ∃ ref ⊆ src   (src.s ≤ ref.s ∧ ref.e ≤ src.e)
    contained_by: ∃ ref ⊇ src
    overlaps:     ∃ ref with ref.s ≤ src.e ∧ ref.e ≥ src.s
    """
    sd, ss, se = src
    rd, rs, re = ref
    if sd.size == 0:
        return np.zeros(0, dtype=bool)
    if rd.size == 0:
        return np.zeros(sd.size, dtype=bool)
    LL = _L * _L
    if mode == "contains":
        # among refs with start ≥ src.s (same doc): min end ≤ src.e?
        order = np.lexsort((rs, rd))
        d, s, e = rd[order], rs[order], re[order]
        start_key = d * _L + s
        # suffix-min of doc-safe end key (reverse accumulate)
        ekey = d * LL + e
        sufmin = np.minimum.accumulate(ekey[::-1])[::-1]
        idx = np.searchsorted(start_key, sd * _L + ss, side="left")
        ok = idx < start_key.size
        idxc = np.clip(idx, 0, start_key.size - 1)
        m = sufmin[idxc]
        return ok & ((m // LL) == sd) & ((m % LL) <= se)
    # contained_by / overlaps: among refs with start ≤ X: max end ≥ Y?
    order = np.lexsort((rs, rd))
    d, s, e = rd[order], rs[order], re[order]
    start_key = d * _L + s
    ekey = d * LL + e
    prefmax = np.maximum.accumulate(ekey)
    x = ss if mode == "contained_by" else se  # refs starting at or before x
    y = se if mode == "contained_by" else ss  # must reach at least y
    idx = np.searchsorted(start_key, sd * _L + x, side="right") - 1
    ok = idx >= 0
    idxc = np.clip(idx, 0, start_key.size - 1)
    m = prefmax[idxc]
    return ok & ((m // LL) == sd) & ((m % LL) >= y)


def term_intervals(provider, term: str, cand_docs: np.ndarray):
    """All positions of `term` within cand_docs as (idoc, start, end).
    `provider(term)` returns the (docs, freqs, norms, positions, starts)
    posting tuple or None."""
    p = provider(term)
    return _EMPTY if p is None else postings_intervals(p, cand_docs)


def postings_intervals(p, cand_docs: np.ndarray):
    """All positions of one (docs, freqs, norms, positions, starts)
    posting tuple within cand_docs as (idoc, start, end) — segmented
    gather, no per-doc loop."""
    docs, freqs, _, positions, starts = p
    idx = np.searchsorted(docs, cand_docs)
    idxc = np.clip(idx, 0, max(docs.size - 1, 0))
    present = docs[idxc] == cand_docs if docs.size else np.zeros(cand_docs.size, bool)
    pi = np.flatnonzero(present)
    if pi.size == 0:
        return _EMPTY
    f = freqs[idxc[pi]]
    s0 = starts[idxc[pi]]
    total = int(f.sum())
    csum = np.zeros(pi.size, dtype=np.int64)
    np.cumsum(f[:-1], out=csum[1:])
    flat = np.repeat(s0 - csum, f) + np.arange(total, dtype=np.int64)
    pos = positions[flat].astype(np.int64)
    idoc = np.repeat(pi.astype(np.int64), f)
    return _sort_iv(idoc, pos, pos.copy())


def eval_batch(node: IntervalsNode, provider, cand_docs: np.ndarray):
    """Vectorized tree evaluation over all candidate docs of a shard.
    → (idoc, start, end) sorted by (idoc, start, end)."""
    k = node.kind
    if k == "term":
        return term_intervals(provider, node.term, cand_docs)
    if k == "or":
        parts = [eval_batch(c, provider, cand_docs) for c in node.children]
        parts = [p for p in parts if p[0].size]
        if not parts:
            return _EMPTY
        idoc = np.concatenate([p[0] for p in parts])
        s = np.concatenate([p[1] for p in parts])
        e = np.concatenate([p[2] for p in parts])
        idoc, s, e = _sort_iv(idoc, s, e)
        keep = np.empty(idoc.size, dtype=bool)  # drop exact duplicates
        keep[0] = True
        keep[1:] = (idoc[1:] != idoc[:-1]) | (s[1:] != s[:-1]) | (e[1:] != e[:-1])
        return idoc[keep], s[keep], e[keep]
    if k == "maxwidth":
        idoc, s, e = eval_batch(node.children[0], provider, cand_docs)
        keep = (e - s + 1) <= node.width
        return idoc[keep], s[keep], e[keep]
    if k == "ordered":
        return chain_spans(
            [eval_batch(c, provider, cand_docs) for c in node.children], minimal=True
        )
    if k == "unordered":
        return unordered_spans([eval_batch(c, provider, cand_docs) for c in node.children])
    src = eval_batch(node.children[0], provider, cand_docs)
    ref = eval_batch(node.children[1], provider, cand_docs)
    if k in ("containing", "not_containing"):
        m = _pairwise_mask(src, ref, "contains")
        m = m if k == "containing" else ~m
    elif k in ("contained_by", "not_contained_by"):
        m = _pairwise_mask(src, ref, "contained_by")
        m = m if k == "contained_by" else ~m
    elif k == "overlapping":
        m = _pairwise_mask(src, ref, "overlaps")
    else:
        raise ValueError(f"unknown intervals node kind {k!r}")
    return src[0][m], src[1][m], src[2][m]
