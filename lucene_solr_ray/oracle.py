"""Brute-force single-process reference implementation (FIXTURES.md F3).

Mirrors Lucene semantics exactly, with no Ray and no index structures: every
document is scored directly.  Used only in tests as the oracle in the
distributed-vs-control duel (the `TestDuelingCodecs` /
`BaseDistributedSearchTestCase` pattern, SURVEY.md §5):

- analysis: the canonical `analysis.tokenize` chain;
- dl = indexed-token count; normByte = SmallFloat.intToByte4(dl); scoring
  uses the DECODED dl' = byte4ToInt(normByte)
  (lucene/core/.../index/NormValuesWriter.java, util/SmallFloat.java);
- idf = ln(1 + (N - df + 0.5)/(df + 0.5)); avgdl = sumTotalTermFreq/docCount;
  score = Σ_t idf_t · tf/(tf + k1·(1 − b + b·dl'/avgdl)), k1=1.2, b=0.75 —
  Lucene 8 BM25 without the (k1+1) constant factor
  (lucene/core/.../search/similarities/BM25Similarity.java :: scorer/score);
- top-k tie-break: (score desc, docID asc)
  (lucene/core/.../search/TopScoreDocCollector.java, HitQueue.java).

Scores are cast to float32 at the end, matching the engine.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .analysis import tokenize
from .index.smallfloat import byte4_to_int, int_to_byte4
from .search.query import QueryNode, parse_query, rewrite

K1 = 1.2
B = 0.75


class BruteForceIndex:
    """In-memory per-document term/position data + collection stats.

    `fields` optionally maps a keyword field name → per-doc values (None =
    absent); each value becomes an untokenized `field:value` term with
    freq 1, pos 0, excluded from dl — mirroring the engine's keyword-field
    indexing."""

    def __init__(
        self,
        texts: list[str],
        fields: dict[str, list] | None = None,
        analyzed_fields: dict[str, list] | None = None,
        analyzer=None,
    ):
        """`analyzed_fields` maps a field name → per-doc strings (None =
        absent); each runs the FULL analysis chain, terms namespaced
        `field:token` with positions, and the field keeps its OWN
        dl/avgdl for scoring — mirroring the engine's per-field norms."""
        self.docs: list[dict[str, list[int]]] = []
        self.dl: list[int] = []
        _an = analyzer or tokenize  # icu-built indexes duel with icu analysis
        self._analyzer = analyzer  # query-time analyzer (None = standard)
        fdl: dict[str, list[int]] = {f: [] for f in (analyzed_fields or {})}
        for i, text in enumerate(texts):
            toks = _an(text)
            by_term: dict[str, list[int]] = {}
            for term, pos in toks:
                by_term.setdefault(term, []).append(pos)
            self.docs.append(by_term)
            self.dl.append(len(toks))
            if fields:
                for fname, vals in fields.items():
                    if vals[i] is not None:
                        by_term.setdefault(f"{fname}:{vals[i]}", []).append(0)
            if analyzed_fields:
                for fname, vals in analyzed_fields.items():
                    ftoks = _an(vals[i]) if vals[i] is not None else []
                    for term, pos in ftoks:
                        by_term.setdefault(f"{fname}:{term}", []).append(pos)
                    fdl[fname].append(len(ftoks))
        self.N = len(texts)
        self.sum_ttf = sum(self.dl)
        self.avgdl = self.sum_ttf / self.N if self.N else 0.0
        self.df: Counter[str] = Counter()
        for d in self.docs:
            self.df.update(d.keys())
        self.dl_decoded = [byte4_to_int(int_to_byte4(l)) for l in self.dl]
        self.analyzed_fields = set(analyzed_fields or ())
        self.field_dl_decoded = {
            f: [byte4_to_int(int_to_byte4(l)) for l in ls] for f, ls in fdl.items()
        }
        self.field_avgdl = {f: sum(ls) / self.N if self.N else 0.0 for f, ls in fdl.items()}

    def idf(self, term: str) -> float:
        df = self.df.get(term, 0)
        if getattr(self, "similarity", "bm25") == "classic":
            return 1.0 + math.log(self.N / (df + 1.0))
        return math.log(1.0 + (self.N - df + 0.5) / (df + 0.5))

    def _field_of(self, term: str) -> str:
        if ":" in term:
            f = term.split(":", 1)[0]
            if f in self.analyzed_fields:
                return f
        return ""

    def _dl(self, doc: int, field: str = "") -> int:
        if field:
            return self.field_dl_decoded[field][doc]
        return self.dl_decoded[doc]

    def _norm_k(self, doc: int, field: str = "") -> float:
        if field:
            return K1 * (1.0 - B + B * self.field_dl_decoded[field][doc] / self.field_avgdl[field])
        return K1 * (1.0 - B + B * self.dl_decoded[doc] / self.avgdl)

    def _avgdl_of(self, field: str = "") -> float:
        return self.field_avgdl[field] if field else self.avgdl

    def _dfr_score(self, tf: float, weight: float, doc: int, field: str = "") -> float:
        # DFR I(n)L2 (DFRSimilarity In+L+H2, c=1) — see bm25.make_dfr_table
        tfn = tf * math.log2(1.0 + self._avgdl_of(field) / max(self._dl(doc, field), 1))
        return weight * tfn / (tfn + 1.0)

    def cf(self, term: str) -> int:
        if not hasattr(self, "_cf"):
            self._cf = Counter()
            for d in self.docs:
                for t, ps in d.items():
                    self._cf[t] += len(ps)
        return self._cf.get(term, 0)

    def _lm_score(self, tf: int, p_coll: float, doc: int) -> float:
        from .search.bm25 import LM_MU

        if p_coll <= 0 or tf == 0:
            return 0.0
        dl = np.float64(self.dl_decoded[doc])
        s = np.log1p(np.float64(tf) / (LM_MU * p_coll)) + np.log(LM_MU / (dl + LM_MU))
        return float(max(s, 0.0))


    # -- r4 similarity long tail (LMJelinekMercer / IB LL-DF-H2 / Axiomatic
    # F2EXP / Boolean) — identical scalar formulas to the engine's
    # vectorized kernels in search/bm25.py (np scalar ufuncs == the
    # vectorized elementwise kernels, the lm-score precedent).
    _NEW_SIMS = ("lmjm", "ib", "axiomatic", "bool", "dfi", "dfi_standardized", "dfi_saturated")

    def _w(self, term: str) -> float:
        """Per-term weight under the current similarity (new sims only)."""
        from .search.bm25 import axiomatic_idf, ib_lambda

        sim = getattr(self, "similarity", "bm25")
        df = self.df.get(term, 0)
        if sim == "lmjm" or sim.startswith("dfi"):
            return self.cf(term) / self.sum_ttf
        if sim == "ib":
            return ib_lambda(df, self.N)
        if sim == "axiomatic":
            return axiomatic_idf(df, self.N)
        return 1.0  # bool

    def _w_blended(self, df_max: int, terms) -> float:
        """SynonymQuery blended weight (df = max over members; lm-family
        weights sum member collection probabilities, as the engine does)."""
        from .search.bm25 import axiomatic_idf, ib_lambda

        sim = getattr(self, "similarity", "bm25")
        if sim == "lmjm" or sim.startswith("dfi"):
            # engine order: integer cfs summed FIRST, one division
            # (searcher._weights_for) — per-term quotients summed differ in
            # the last ulp on ~quarter of random triples
            return sum(self.cf(t) for t in terms) / self.sum_ttf
        if sim == "ib":
            return ib_lambda(df_max, self.N)
        if sim == "axiomatic":
            return axiomatic_idf(df_max, self.N)
        return 1.0  # bool

    def _new_sim_score(self, sim: str, tf: float, w: float, doc: int, field: str = "") -> float:
        from .search.bm25 import AXIOMATIC_S, LMJM_LAMBDA

        if sim == "bool":
            return float(w)
        if sim.startswith("dfi"):
            from .search.bm25 import DFI_MEASURES

            if w <= 0 or tf == 0:
                return 0.0
            dl = max(float(self._dl(doc, field)), 1.0)
            e = np.float64(w) * np.float64(dl)
            f = np.float64(tf)
            if not f > e:
                return 0.0
            return float(np.log2(DFI_MEASURES[sim](f, e) + 1.0))
        if sim == "lmjm":
            if w <= 0 or tf == 0:
                return 0.0
            dl = np.float64(max(self._dl(doc, field), 1))
            s = np.log1p(((1.0 - LMJM_LAMBDA) * np.float64(tf) / dl) / (LMJM_LAMBDA * w))
            return float(max(s, 0.0))
        if sim == "ib":
            if w <= 0:
                return 0.0
            tfn = tf * math.log2(1.0 + self._avgdl_of(field) / max(self._dl(doc, field), 1))
            return float(np.log1p(np.float64(tfn) / w))
        # axiomatic F2EXP: denominator addend computed with the engine's
        # exact table expression (s + s·dl/avgdl over the decoded length)
        avgdl = self._avgdl_of(field)
        dl = max(float(self._dl(doc, field)), 1.0)
        k = AXIOMATIC_S + AXIOMATIC_S * dl / avgdl if avgdl > 0 else AXIOMATIC_S
        return float(w * np.float64(tf) / (np.float64(tf) + k))

    def term_score(self, term: str, doc: int) -> float:
        tf = len(self.docs[doc].get(term, ()))
        if tf == 0:
            return 0.0
        sim = getattr(self, "similarity", "bm25")
        field = self._field_of(term)
        if sim == "classic":
            idf = self.idf(term)
            return math.sqrt(tf) * idf * idf / math.sqrt(max(self._dl(doc, field), 1))
        if sim == "lm":
            return self._lm_score(tf, self.cf(term) / self.sum_ttf, doc)
        if sim == "dfr":
            from .search.bm25 import dfr_weight

            return self._dfr_score(tf, dfr_weight(self.df.get(term, 0), self.N), doc, field)
        if sim in ("dfr_if", "dfr_ine"):
            from .search.bm25 import dfr_if_weight, dfr_ine_weight

            wf = dfr_if_weight if sim == "dfr_if" else dfr_ine_weight
            return self._dfr_score(tf, wf(self.cf(term), self.N), doc, field)
        if sim in self._NEW_SIMS:
            return self._new_sim_score(sim, tf, self._w(term), doc, field)
        return self.idf(term) * tf / (tf + self._norm_k(doc, field))

    def phrase_freq(self, terms: list[str], doc: int, slop: int = 0) -> float:
        """Phrase frequency: exact (consecutive → integer count) or sloppy
        (sloppyWeight-weighted: Σ 1/(1+matchLength), a float for slop>0)."""
        if not terms:
            return 0
        plists = [self.docs[doc].get(t) for t in terms]
        if any(p is None for p in plists):
            return 0
        if slop > 0:
            from .search.proximity import sloppy_phrase_freq

            return sloppy_phrase_freq([sorted(p) for p in plists], slop)
        first = set(plists[0])
        for off, pl in enumerate(plists[1:], start=1):
            first &= {p - off for p in pl}
        return len(first)

    def multi_phrase_freq(self, slots: list[list[str]], doc: int, slop: int = 0) -> float:
        """MultiPhraseQuery frequency: per-slot positions are the UNION of
        the slot's alternatives; exact = offset-intersect of the unions,
        sloppy = greedy-chain sloppyWeight sum over the unions."""
        if not slots:
            return 0
        plists = []
        for alts in slots:
            u: set[int] = set()
            for t in alts:
                u.update(self.docs[doc].get(t, ()))
            if not u:
                return 0
            plists.append(u)
        if slop > 0:
            from .search.proximity import sloppy_phrase_freq

            return sloppy_phrase_freq([sorted(p) for p in plists], slop)
        first = set(plists[0])
        for off, pl in enumerate(plists[1:], start=1):
            first &= {p - off for p in pl}
        return len(first)

    def phrase_score(self, terms: list[str], doc: int, slop: int = 0) -> float:
        """PhraseQuery scoring: BM25 over phrase freq with summed idf
        (lucene/core/.../search/PhraseWeight.java: similarity scorer over
        combined term statistics)."""
        pf = self.phrase_freq(terms, doc, slop=slop)
        if pf == 0:
            return 0.0
        sim = getattr(self, "similarity", "bm25")
        field = self._field_of(terms[0])
        if sim == "lm":
            p_sum = sum(self.cf(t) / self.sum_ttf for t in terms)
            return self._lm_score(pf, p_sum, doc)
        if sim == "dfr":
            from .search.bm25 import dfr_weight

            w_sum = sum(dfr_weight(self.df.get(t, 0), self.N) for t in terms)
            return self._dfr_score(pf, w_sum, doc, field)
        if sim in ("dfr_if", "dfr_ine"):
            # phrase weight = Σ per-term weights (the engine's one phrase
            # scorer, _score_phrase, sums the per-term `term_weight`s of every
            # slot alternative, like base dfr)
            from .search.bm25 import dfr_if_weight, dfr_ine_weight

            wf = dfr_if_weight if sim == "dfr_if" else dfr_ine_weight
            return self._dfr_score(pf, sum(wf(self.cf(t), self.N) for t in terms), doc, field)
        if sim in self._NEW_SIMS:
            # phrase weight = Σ per-term weights (the engine sums
            # per-term `term_weight`s — for dfi that is Σ cf_t/sum_ttf
            # per-term QUOTIENTS; only synonym blends sum cfs first)
            return self._new_sim_score(sim, pf, sum(self._w(t) for t in terms), doc, field)
        idf_sum = sum(self.idf(t) for t in terms)
        if sim == "classic":
            return math.sqrt(pf) * idf_sum * idf_sum / math.sqrt(max(self._dl(doc, field), 1))
        return idf_sum * pf / (pf + self._norm_k(doc, field))

    def _score_intervals_tree(self, tree, doc: int) -> tuple[bool, float]:
        """Intervals algebra scoring (shared minimal-interval semantics via
        search/intervals.eval_doc): freq = interval count, scored like a
        phrase over the tree's leaf terms."""
        from .search.intervals import eval_doc

        terms = tree.leaf_terms()
        pos = {t: sorted(self.docs[doc].get(t, [])) for t in set(terms)}
        pf = len(eval_doc(tree, pos))
        if pf == 0:
            return (False, 0.0)
        idf_sum = sum(self.idf(t) for t in terms)
        sim = getattr(self, "similarity", "bm25")
        field = self._field_of(terms[0])
        if sim == "lm":
            p_sum = sum(self.cf(t) / self.sum_ttf for t in terms)
            return (True, self._lm_score(pf, p_sum, doc))
        if sim == "dfr":
            from .search.bm25 import dfr_weight

            w_sum = sum(dfr_weight(self.df.get(t, 0), self.N) for t in terms)
            return (True, self._dfr_score(pf, w_sum, doc, field))
        if sim in ("dfr_if", "dfr_ine"):
            from .search.bm25 import dfr_if_weight, dfr_ine_weight

            wf = dfr_if_weight if sim == "dfr_if" else dfr_ine_weight
            return (True, self._dfr_score(pf, sum(wf(self.cf(t), self.N) for t in terms), doc, field))
        if sim in self._NEW_SIMS:
            return (True, self._new_sim_score(sim, pf, sum(self._w(t) for t in terms), doc, field))
        if sim == "classic":
            return (True, math.sqrt(pf) * idf_sum * idf_sum / math.sqrt(max(self._dl(doc, field), 1)))
        return (True, idf_sum * pf / (pf + self._norm_k(doc, field)))

    def score_query(self, node: QueryNode, doc: int) -> tuple[bool, float]:
        """Returns (matches, score·boost) for a parsed query node."""
        m, s = self._score_unboosted(node, doc)
        return (m, s * node.boost if m else 0.0)

    def _score_unboosted(self, node: QueryNode, doc: int) -> tuple[bool, float]:
        if node.kind == "match_all":
            return (True, 1.0)
        if node.kind == "term":
            s = self.term_score(node.terms[0], doc)
            return (node.terms[0] in self.docs[doc], s)
        if node.kind == "phrase":
            pf = self.phrase_freq(node.terms, doc, slop=node.slop)
            return (pf > 0, self.phrase_score(node.terms, doc, slop=node.slop))
        if node.kind == "synonym":
            # SynonymQuery: freq = Σ member tf, weight from df_max (the
            # combined TermStatistics of SynonymQuery.java)
            tf = sum(len(self.docs[doc].get(t, ())) for t in node.terms)
            if tf == 0:
                return (False, 0.0)
            df_max = max((self.df.get(t, 0) for t in node.terms), default=0)
            field = self._field_of(node.terms[0])
            sim = getattr(self, "similarity", "bm25")
            if sim == "classic":
                idf = 1.0 + math.log(self.N / (df_max + 1.0))
                return (True, math.sqrt(tf) * idf * idf / math.sqrt(max(self._dl(doc, field), 1)))
            if sim == "lm":
                # engine order: sum cfs first (searcher._weights_for)
                p_sum = sum(self.cf(t) for t in node.terms) / self.sum_ttf
                return (True, self._lm_score(tf, p_sum, doc))
            if sim == "dfr":
                from .search.bm25 import dfr_weight

                return (True, self._dfr_score(tf, dfr_weight(df_max, self.N), doc, field))
            if sim in ("dfr_if", "dfr_ine"):
                # blended: integer cfs summed FIRST, one weight evaluation
                from .search.bm25 import dfr_if_weight, dfr_ine_weight

                wf = dfr_if_weight if sim == "dfr_if" else dfr_ine_weight
                return (True, self._dfr_score(tf, wf(sum(self.cf(t) for t in node.terms), self.N), doc, field))
            if sim in self._NEW_SIMS:
                return (True, self._new_sim_score(sim, tf, self._w_blended(df_max, node.terms), doc, field))
            w = math.log(1.0 + (self.N - df_max + 0.5) / (df_max + 0.5))
            return (True, w * tf / (tf + self._norm_k(doc, field)))
        if node.kind == "multi_phrase":
            pf = self.multi_phrase_freq(node.slots, doc, slop=node.slop)
            if pf == 0:
                return (False, 0.0)
            # MultiPhraseQuery scoring: phrase shape, idf summed over every
            # alternative present in the index (combined TermStatistics)
            idf_sum = sum(self.idf(t) for alts in node.slots for t in alts if self.df.get(t, 0) > 0)
            field = self._field_of(node.slots[0][0])
            sim = getattr(self, "similarity", "bm25")
            if sim == "classic":
                return (True, math.sqrt(pf) * idf_sum * idf_sum / math.sqrt(max(self._dl(doc, field), 1)))
            return (True, idf_sum * pf / (pf + self._norm_k(doc, field)))
        if node.kind == "term_set":
            return (any(t in self.docs[doc] for t in node.terms), 1.0)
        if node.kind == "interval":
            from .search import intervals as IV

            tree = IV.maxwidth(
                node.max_edits,
                (IV.ordered if node.min_should_match else IV.unordered)(
                    *[IV.iterm(t) for t in node.terms]
                ),
            )
            return self._score_intervals_tree(tree, doc)
        if node.kind == "intervals":
            return self._score_intervals_tree(node.tree, doc)
        if node.kind == "dismax":
            child = [self.score_query(c, doc) for _, c in node.clauses]
            hits = [s for m, s in child if m]
            if not hits:
                return (False, 0.0)
            mx = max(hits)
            return (True, mx + node.tiebreak * (sum(hits) - mx))
        # boolean
        score = 0.0
        must_ok = True
        n_should = 0
        has_should = False
        has_must = False
        has_filter = False
        for clause, child in node.clauses:
            m, s = self.score_query(child, doc)
            if clause == "MUST":
                has_must = True
                if not m:
                    must_ok = False
                score += s
            elif clause == "SHOULD":
                has_should = True
                if m:
                    n_should += 1
                    score += s
            elif clause == "FILTER":
                has_filter = True
                if not m:
                    must_ok = False  # FILTER: required, unscored
            elif clause == "MUST_NOT":
                if m:
                    must_ok = False
        if not (has_must or has_should or has_filter):
            # only MUST_NOT clauses: matches nothing (BooleanQuery semantics)
            return (False, 0.0)
        # no MUST → at least one SHOULD must match (if any SHOULD present);
        # min_should_match raises the required SHOULD count in both cases
        need = max(node.min_should_match, 0 if has_must else (1 if has_should else 0))
        matches = must_ok and (n_should >= need)
        return (matches, score if matches else 0.0)

    def search(self, query: str, k: int, similarity: str = "bm25") -> list[tuple[int, float]]:
        """Top-k (docID, float32 score), tie-break (score desc, docID asc)."""
        node = parse_query(query, analyzer=self._analyzer)
        if node is None:
            return []
        self.similarity = similarity
        try:
            return self.search_node(node, k)
        finally:
            self.similarity = "bm25"

    def search_node(self, node: QueryNode, k: int) -> list[tuple[int, float]]:
        if not hasattr(self, "_vocab"):
            self._vocab = np.array(sorted(self.df), dtype=object)
        node = rewrite(node, self._vocab)
        if node is None or (node.kind in ("bool", "dismax") and not node.clauses):
            return []
        hits = []
        for doc in range(self.N):
            m, s = self.score_query(node, doc)
            if m:
                hits.append((doc, np.float32(s)))
        hits.sort(key=lambda h: (-h[1], h[0]))
        return hits[:k]
