"""IndexShard — the stateful query-serving unit (one per term-shard).

The Ray analog of a SolrCloud shard replica + Lucene IndexSearcher leaf
(SURVEY.md §2.4 "Query-serving searcher"): a plain class (wrapped with
`ray.remote` by the Searcher) that loads its shard's postings ONCE in
`__init__` and decodes every docID and freq there into flat arrays, so a
term's postings are slices (positions stay encoded until asked for).
Queries arrive as `collect(node, idfs, sim, specs)` (on a Ray pool
through `call`, one pickled request and one pickled reply): the match set
evaluates ONCE and every asked-for collector
(`COLLECT` — the ranked page, counts, facets, stats, groups, field sorts,
collapse, function scores, joins) reduces it to one bounded partial, and
the shard's one result cache keys the whole request.  A lone `top_scores`
page is Lucene's `ScoreMode.TOP_SCORES`: `top_k` may skip non-competitive
docs (WAND/block-max).  All per-query work is vectorized numpy over
decoded posting arrays:

- TermQuery    → slice (docs, freqs, norms), score via bm25.score_postings
  (lucene/core/.../search/TermQuery.java + TermScorer.java)
- BooleanQuery → sorted-array intersect/union/difference with score
  accumulation (BooleanWeight / ConjunctionDISI / DisjunctionSumScorer)
- PhraseQuery / MultiPhraseQuery → one matcher over per-slot postings (a
  multi-alternative slot is one union posting list, UnionPostingsEnum):
  composite-key (doc, pos−offset) intersection (ExactPhraseMatcher) or
  greedy chains (SloppyPhraseMatcher)
- top-k        → argpartition + (score desc, docID asc) tie-break
  (TopScoreDocCollector / HitQueue)
- block-max pruning for term-scored booleans and phrases via per-doc upper
  bounds (WANDScorer / MaxScoreCache; Ding & Suel 2011) — vectorized
  variant, one θ cut (`_block_max`): exact-score the k best-bounded
  candidates to get a floor θ, then drop all docs whose upper bound < θ
  before exact scoring.

The term dictionary is the postings table sorted ONCE at open by (term,
first_doc): a term has one run per shard it was built in (several for a
salted hot term), the runs cover disjoint docID ranges by construction, so
they become contiguous rows in docID order — ordered by docID as
SegmentMerger does, never by a per-segment label.

Per-doc values (conv_id for block joins and match-all, keyword `dv_<f>`
columns, numeric columns with their in-place updates) come from the
shard's per-pid segments through `index/segments.py`, the one reader of
that store: `_doc_column` reads a column once and caches it.
"""

from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from ..index import codec, segments
from ..index.build import POSTINGS_SCHEMA
from .bm25 import (
    block_upper_bound,
    make_axiomatic_table,
    make_dfr_table,
    score_postings,
    score_postings_classic,
    score_postings_dfr,
    score_postings_lm,
)
from .query import QueryNode

_POS_LIMIT = 1 << 22  # composite phrase key = doc * _POS_LIMIT + pos

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)
_IV_CHUNK = 1 << 18  # candidate chunk: keeps doc·L² composite keys in int64


class IndexShard:
    def __init__(
        self,
        shard_dirs: str | list[str],
        norm_cache=None,
        codec_name: str = "varbyte",
        avgdls: dict[str, float] | None = None,
        segment_paths: list[str] | None = None,
    ):
        """`shard_dirs` may be one dir or several — an actor owns one or
        more term-shards (the Searcher sizes its pool to the index, so a
        small index is one actor over all of its shards).  `segment_paths`
        are the per-pid segments of the same docs (`index.segments`): the
        doc-values, conv and dv-update reads of match-all, block joins,
        sorts, facets and ranges.

        `norm_cache` is the text-field 256-entry BM25 cache, or a dict
        {"": text_cache, field: field_cache} when extra analyzed fields
        exist (per-field norms — `field:token` terms score with their
        field's cache)."""
        if isinstance(norm_cache, dict):
            self.norm_caches = norm_cache
            norm_cache = norm_cache.get("")
        else:
            self.norm_caches = {"": norm_cache}
        if isinstance(shard_dirs, str):
            shard_dirs = [shard_dirs]
        import glob
        import os

        import pyarrow as pa
        import pyarrow.compute as pc

        files = [f for d in sorted(shard_dirs) for f in sorted(glob.glob(f"{d}/postings-*.parquet"))]
        tables = [pq.read_table(f) for f in files]
        table = pa.concat_tables(tables) if tables else POSTINGS_SCHEMA.empty_table()
        # (term, first_doc) order puts a term's runs in docID order
        order = pc.sort_indices(table, sort_keys=[("term", "ascending"), ("first_doc", "ascending")])
        # one Array per column: a row read does not search one chunk per file
        self._col = {name: pc.take(table[name], order).combine_chunks() for name in table.column_names}
        runs = pc.run_end_encode(self._col["term"])
        self._local_terms = runs.values.to_numpy(zero_copy_only=False)
        self._run_starts = np.concatenate([[0], runs.run_ends.to_numpy()]).astype(np.int64)
        # each run of a term must start past the previous run's last doc;
        # only overlapping runs (a duplicated postings file or dir) break this
        cont = np.ones(table.num_rows, dtype=bool)  # row continues its term
        cont[self._run_starts[:-1]] = False
        first, last = self._col["first_doc"].to_numpy(), self._col["last_doc"].to_numpy()
        bad = np.flatnonzero(cont[1:] & (first[1:] <= last[:-1]))
        if bad.size:
            row = int(bad[0]) + 1
            ends = np.cumsum([t.num_rows for t in tables])
            d = os.path.dirname(files[int(np.searchsorted(ends, order[row].as_py(), side="right"))])
            raise RuntimeError(
                f"postings of term {self._col['term'][row].as_py()!r} in {d} overlap an earlier "
                "run's docIDs (a postings file or shard dir opened twice?)"
            )
        # a term's df = Σ its runs' dfs (salted runs partition the doc space)
        df = self._col["df"].to_numpy()
        self._local_dfs = np.add.reduceat(df, self._run_starts[:-1])
        self._codec = codec_name
        self._decode_postings(df)
        # block-max lists flattened once: rows [lo, hi) own values[offsets[lo]:offsets[hi]]
        blk = (self._col[c] for c in ("blk_last_doc", "blk_max_freq", "blk_min_norm"))
        self._blk = [(a.offsets.to_numpy(), a.values.to_numpy().astype(np.int64)) for a in blk]
        self.norm_cache = norm_cache
        self._avgdls = avgdls or {}
        self._dfr_tables: dict[str, np.ndarray] = {}
        self._axio_tables: dict[str, np.ndarray] = {}
        # bounded cache of decoded positions, the one postings stream that
        # stays encoded (solr FastLRUCache): unbounded decode caches leak in
        # a long-lived serving actor
        from ..state import LRUCache

        self._cache = LRUCache(max_items=50_000)
        # queryResultCache (solr/core/.../search/SolrIndexSearcher.java ::
        # getDocListC): a repeated `collect` request short-circuits
        self._result_cache = LRUCache(max_items=1024)
        self._prune_candidates = 0
        self._prune_survivors = 0
        # per-shard tombstones (live-docs bitset analog): `_postings` masks
        # its slices with `_post_live`, so every read path sees only live
        # docs and the driver never over-fetches k + |deletes|
        self._dead = np.empty(0, dtype=np.int64)
        self._post_live: np.ndarray | None = None
        self._segment_paths = list(segment_paths or ())
        self._doc_columns: dict[tuple[str, bool], tuple | None] = {}

    def _decode_postings(self, df: np.ndarray) -> None:
        """Decode every row's docIDs and freqs once, into flat read-only
        arrays: row r owns postings [_post_off[r], _post_off[r + 1]), so a
        term's contiguous rows are one slice (Lucene84PostingsReader's bulk
        block decode, never a value at a time).  Norms are one byte per
        posting, read from their value buffer as is.  Positions stay
        encoded; `_positions` decodes a term's rows on demand.  Docs stay
        int64: the phrase key doc * _POS_LIMIT would overflow int32."""
        import time

        t0 = time.process_time()
        self._post_off = np.zeros(df.size + 1, dtype=np.int64)
        np.cumsum(df, out=self._post_off[1:])
        row_start = np.zeros(int(self._post_off[-1]), dtype=bool)
        row_start[self._post_off[:-1][df > 0]] = True

        def stream(name: str):
            arr = self._col.pop(name)  # the encoded column is not kept
            _, off, vals = arr.buffers()
            if off is None:  # an empty column
                return np.empty(0, np.uint8), np.zeros(1, np.int64)
            off = np.frombuffer(off, dtype=np.int32)[arr.offset : arr.offset + len(arr) + 1]
            return np.frombuffer(vals, dtype=np.uint8), off.astype(np.int64)

        docs = codec.delta_decode_resets(codec.decode_rows(*stream("docs"), df, self._codec), row_start)
        freqs = codec.decode_rows(*stream("freqs"), df, self._codec)
        nv, no = stream("norms")
        norms = nv[no[0] : no[-1]]
        # positions: one value buffer, row r at its [_pos_off[r], _pos_off[r + 1])
        self._pos_vals, self._pos_off = stream("positions")
        self._cf = self._col["cf"].to_numpy()
        for a in (docs, freqs, norms):
            a.flags.writeable = False  # a caller writing into a slice raises
        self._docs, self._freqs, self._norms = docs, freqs, norms
        self._decode_ms = (time.process_time() - t0) * 1e3

    def ping(self) -> bool:
        return True

    def call(self, request: bytes) -> bytes:
        """The one entry the driver's `Searcher._scatter` calls: `request`
        is `pickle((method, args))`; run that public method and → its
        result pickled.  One bytes object each way skips Ray's
        per-argument serialization (cloudpickle per argument, one buffer
        per ndarray), which costs more than the work of a cheap request.
        An exception raised by the method reaches the caller as its own
        type; a `_private` name is refused."""
        method, args = pickle.loads(request)
        if method.startswith("_"):
            raise ValueError(f"IndexShard.call: {method!r} is not a public method")
        return pickle.dumps(getattr(self, method)(*args), pickle.HIGHEST_PROTOCOL)

    # -- tombstones (per-shard live docs) ---------------------------------
    def set_tombstones(self, dead: np.ndarray) -> None:
        """Install the deleted-doc set (sorted at install) and its
        per-posting live mask over the flat decoded docs (None when no
        posting is dead), which `_postings` applies to each slice — the
        Lucene live-docs-bitset shape (lucene/core/.../codecs/lucene50/
        Lucene50LiveDocsFormat.java).  The flat arrays are never compacted,
        so clearing the set brings every doc back.  The positions and
        result caches are invalidated."""
        self._dead = np.sort(np.asarray(dead, dtype=np.int64))
        self._post_live = self._live_mask(self._docs)
        self._cache.clear()
        self._result_cache.clear()

    def _live_mask(self, docs: np.ndarray) -> np.ndarray | None:
        """Boolean live mask via binary search on the sorted dead set, or
        None when nothing is masked."""
        if not self._dead.size or not docs.size:
            return None
        i = np.minimum(np.searchsorted(self._dead, docs), self._dead.size - 1)
        live = self._dead[i] != docs
        return None if live.all() else live

    # -- shard-local term dictionary (the per-shard term dict of the
    # reference: prefix/fuzzy expansion, /terms and spellcheck run HERE and
    # the driver merges partials — the vocabulary never lands on one node)
    def _term_dict(self):
        """Sorted local term array + summed local dfs (built at open)."""
        return self._local_terms, self._local_dfs

    def _run(self, term: str) -> tuple[int, int] | None:
        """[lo, hi) rows of `term` in the sorted columns, or None if absent."""
        i = int(np.searchsorted(self._local_terms, term))
        if i == self._local_terms.size or self._local_terms[i] != term:
            return None
        return int(self._run_starts[i]), int(self._run_starts[i + 1])

    def _rev_dict(self):
        """Reverse-sorted companion dictionary (ReversedWildcardFilter-
        Factory's leading-wildcard trick, solr/core/.../analysis/
        ReversedWildcardFilterFactory.java — built lazily as a LOCAL
        sorted array instead of doubling the postings: the reversed terms
        only serve dictionary lookup, scoring uses the original terms)."""
        if getattr(self, "_rev_terms", None) is None:
            terms, _ = self._term_dict()
            rev = np.array([str(t)[::-1] for t in terms], dtype=object)
            order = np.argsort(rev)
            self._rev_terms = rev[order]
            self._rev_orig = terms[order]
        return self._rev_terms, self._rev_orig

    def expand_nodes(self, specs: list[tuple[str, str, int]]) -> dict:
        """Expand multi-term leaves against the LOCAL vocabulary.
        `specs`: [(kind, pattern, max_edits)] → {spec: [matching terms]}.
        The driver unions per-shard matches (sorted, capped) — the
        distributed Query.rewrite step (SURVEY.md §3.2).  Leading-wildcard
        patterns with a literal tail cut the reversed dictionary by prefix
        (binary search) instead of scanning the whole vocabulary."""
        import re as _re

        from .query import MAX_EXPANSIONS, QueryNode, _wildcard_to_re, expand_multi_term

        terms, _ = self._term_dict()
        out = {}
        self.last_wildcard_plan = None
        for kind, pattern, max_edits in specs:
            spec = (kind, pattern, max_edits)
            if kind == "wildcard" and pattern and pattern[0] in "*?":
                m = _re.search(r"[^*?]+$", pattern)
                if m and len(m.group(0)) >= 2:
                    revs, origs = self._rev_dict()
                    pre = m.group(0)[::-1]
                    lo = int(np.searchsorted(revs, pre))
                    hi = int(np.searchsorted(revs, pre + "￿"))
                    rx = _wildcard_to_re(pattern)
                    cand = [str(t) for t in origs[lo:hi] if rx.match(str(t))]
                    out[spec] = sorted(cand)[:MAX_EXPANSIONS]
                    self.last_wildcard_plan = "reversed"
                    continue
                self.last_wildcard_plan = "scan"
            n = QueryNode(kind, pattern=pattern, max_edits=max_edits)
            out[spec] = expand_multi_term(n, terms)
        return out

    def get_last_wildcard_plan(self):
        """Introspection for tests: 'reversed' | 'scan' | None."""
        return getattr(self, "last_wildcard_plan", None)

    def terms_partial(self, prefix: str = "", regex: str | None = None, regex_dialect: str = "java"):
        """(terms, local_dfs) in the prefix range — the per-shard half of
        the TermsComponent merge (solr/core/.../handler/component/
        TermsComponent.java).  `regex` is terms.regex: an anchored match
        applied SHARD-SIDE after the prefix cut, so only matching terms
        travel.  Dialect: Solr's TermsComponent compiles java.util.regex
        (Python `re` is the close analog, the default); pass
        regex_dialect="lucene" for the RegexpQuery automaton syntax
        (search/lucene_regexp.py) when the pattern comes from a /re/
        query."""
        terms, dfs = self._term_dict()
        lo = int(np.searchsorted(terms, prefix))
        hi = int(np.searchsorted(terms, prefix + "￿")) if prefix else terms.size
        terms, dfs = terms[lo:hi], dfs[lo:hi]
        if regex is not None:
            if regex_dialect == "lucene":
                from .lucene_regexp import compile_regexp

                rx = compile_regexp(regex)
            else:
                import re

                rx = re.compile(regex)
            keep = np.array([rx.fullmatch(str(t)) is not None for t in terms], dtype=bool)
            terms, dfs = terms[keep], dfs[keep]
        return terms, dfs

    def spellcheck_partial(self, word: str, max_edits: int = 2):
        """[(term, local_df, dist)] within `max_edits` of `word` — the
        per-shard half of the SpellCheckComponent merge."""
        from .spell import levenshtein_candidates

        terms, dfs = self._term_dict()
        return levenshtein_candidates(terms, dfs, word, max_edits)

    def result_cache_stats(self) -> dict:
        return self._result_cache.stats()

    def prune_stats(self) -> dict:
        """Cumulative block-max pruning effectiveness (Ding & Suel-style
        'fraction of candidates never exactly scored'), the positions- and
        result-cache counters and the open-time postings decode gauge
        (postings held decoded, their MiB, the decode's CPU ms):
        `Searcher.metrics()`'s one shard call."""
        c, s = self._prune_candidates, self._prune_survivors
        return {
            "candidates": c,
            "scored": s,
            "pruned_frac": (1.0 - s / c) if c else 0.0,
            "cache": self._cache.stats(),
            "result_cache": self._result_cache.stats(),
            "postings": {
                "postings": int(self._docs.size),
                "decoded_mib": sum(a.nbytes for a in (self._docs, self._freqs, self._norms)) / 2**20,
                "open_decode_ms": self._decode_ms,
            },
        }

    # -- postings access ---------------------------------------------------
    def _postings(self, term: str, with_positions: bool = False):
        """→ (docs, freqs, norm_bytes[, positions, pos_starts]) or None:
        read-only slices of the flat decoded arrays (copies where
        tombstones mask some postings)."""
        run = self._run(term)
        if run is None:
            return None
        lo, hi = run
        p0, p1 = int(self._post_off[lo]), int(self._post_off[hi])
        docs, freqs, norms = self._docs[p0:p1], self._freqs[p0:p1], self._norms[p0:p1]
        live = None if self._post_live is None else self._post_live[p0:p1]
        if live is not None and live.all():
            live = None
        if live is not None:
            docs, freqs, norms = docs[live], freqs[live], norms[live]
        if not with_positions:
            return docs, freqs, norms
        pos = self._cache.get(term)
        if pos is None:
            pos = self._positions(lo, hi, self._freqs[p0:p1], live)
            self._cache.put(term, pos)
        return (docs, freqs, norms, *pos)

    def _positions(self, lo: int, hi: int, freqs: np.ndarray, live: np.ndarray | None):
        """(positions, per-posting starts) of rows [lo, hi): one decode over
        the rows' contiguous bytes, each posting's deltas restarting at its
        first position; `live` masks the postings (freqs are unmasked)."""
        flat = codec.decode_rows(self._pos_vals, self._pos_off[lo : hi + 1], self._cf[lo:hi], self._codec)
        reset = np.zeros(flat.size, dtype=bool)
        reset[np.cumsum(freqs) - freqs] = True
        positions = codec.delta_decode_resets(flat, reset)
        if live is not None:
            positions = positions[np.repeat(live, freqs)]
            freqs = freqs[live]
        starts = np.cumsum(freqs) - freqs
        positions.flags.writeable = starts.flags.writeable = False  # cached
        return positions, starts

    def _block_meta(self, term: str):
        """Concatenated (last_doc, max_freq, min_norm) block arrays."""
        run = self._run(term)
        if run is None:
            return None
        lo, hi = run
        return tuple(v[o[lo] : o[hi]] for o, v in self._blk)

    # -- scoring -----------------------------------------------------------
    def _cache_for(self, term: str) -> np.ndarray:
        """Per-field norm cache: `field:token` terms of an analyzed extra
        field score with that field's avgdl; keyword-filter terms and plain
        text terms use the text cache."""
        if ":" in term and len(self.norm_caches) > 1:
            c = self.norm_caches.get(term.split(":", 1)[0])
            if c is not None:
                return c
        return self.norm_cache

    def _field_table(self, term: str, make, tables: dict) -> np.ndarray:
        """Per-field factor table `make(avgdl)` (DFR tfn, Axiomatic F2EXP
        denominator), built once per actor per field into `tables`."""
        field = term.split(":", 1)[0] if ":" in term else ""
        if field not in self._avgdls:
            field = ""
        if field not in tables:
            tables[field] = make(self._avgdls.get(field, 0.0))
        return tables[field]

    def _apply_sim(
        self, freqs: np.ndarray, norm_b: np.ndarray, w: float, sim: str, lead: str
    ) -> np.ndarray:
        """One Similarity dispatch for every scoring path (term/synonym/
        phrase/multi-phrase/freq-docs) — the pluggable-Similarity SPI
        (SURVEY §2.11 search/similarities/).  `w` is the driver-computed
        per-term weight (meaning varies per sim); `lead` selects the
        per-field norm/tfn tables."""
        from .bm25 import (
            score_postings_axiomatic,
            score_postings_bool,
            score_postings_ib,
            score_postings_lmjm,
        )

        if sim == "classic":
            return score_postings_classic(freqs, norm_b, w)
        if sim == "lm":
            return score_postings_lm(freqs, norm_b, w)
        if sim == "lmjm":
            return score_postings_lmjm(freqs, norm_b, w)
        if sim.startswith("dfr") or sim == "ib":  # dfr / dfr_if / dfr_ine / ib: the DFR tfn table
            tfn = self._field_table(lead, make_dfr_table, self._dfr_tables)
            return (score_postings_ib if sim == "ib" else score_postings_dfr)(freqs, norm_b, w, tfn)
        if sim == "axiomatic":
            axio = self._field_table(lead, make_axiomatic_table, self._axio_tables)
            return score_postings_axiomatic(freqs, norm_b, w, axio)
        if sim == "bool":
            return score_postings_bool(freqs, w)
        if sim.startswith("dfi"):
            from .bm25 import score_postings_dfi

            return score_postings_dfi(freqs, norm_b, w, sim)
        return score_postings(freqs, norm_b, w, self._cache_for(lead))

    def _score_term(self, term: str, idfs: dict[str, float], sim: str = "bm25"):
        p = self._postings(term)
        if p is None:
            return _EMPTY_I64, _EMPTY_F64
        docs, freqs, norms = p[0], p[1], p[2]
        return docs, self._apply_sim(freqs, norms, idfs.get(term, 0.0), sim, term)

    def _score_synonym(self, terms: list[str], idfs: dict[str, float], sim: str = "bm25"):
        """SynonymQuery (lucene/core/.../search/SynonymQuery.java): members
        score as ONE pseudo-term — per-doc freq is the SUM over members,
        and the blended weight (idf of max df, driver-computed from global
        stats under `synonym_weight_key`) scores the union list."""
        from .query import synonym_weight_key

        plists = [p for t in terms if (p := self._postings(t)) is not None]
        if not plists:
            return _EMPTY_I64, _EMPTY_F64
        docs_c = np.concatenate([p[0] for p in plists])
        freqs_c = np.concatenate([p[1] for p in plists])
        norms_c = np.concatenate([p[2] for p in plists])
        order = np.argsort(docs_c, kind="stable")
        docs_c, freqs_c, norms_c = docs_c[order], freqs_c[order], norms_c[order]
        first = np.ones(docs_c.size, bool)
        first[1:] = docs_c[1:] != docs_c[:-1]
        starts = np.flatnonzero(first)
        docs = docs_c[starts]
        freqs = np.add.reduceat(freqs_c, starts)
        norms = norms_c[starts]
        w = idfs.get(synonym_weight_key(terms), 0.0)
        return docs, self._apply_sim(freqs, norms, w, sim, terms[0])

    def _slot_postings(self, alts: list[str]):
        """One phrase slot as one posting list (MultiPhraseQuery's
        UnionPostingsEnum): a one-term slot is that term's postings; several
        alternatives union per doc — positions deduped (a graph-analyzed
        index can put two alternatives at one position), freq = distinct
        positions, norm from the first alternative in slot order that holds
        the doc.  → (docs, freqs, norms, positions, starts) or None."""
        pl = [p for t in alts if (p := self._postings(t, with_positions=True)) is not None]
        if len(pl) <= 1:
            return pl[0] if pl else None
        keys = np.unique(np.concatenate([np.repeat(p[0], p[1]) * _POS_LIMIT + p[3] for p in pl]))
        docs, starts, freqs = np.unique(keys // _POS_LIMIT, return_index=True, return_counts=True)
        d = np.concatenate([p[0] for p in pl])
        n = np.concatenate([p[2] for p in pl])
        order = np.argsort(d, kind="stable")
        d, n = d[order], n[order]
        first = np.ones(d.size, bool)
        first[1:] = d[1:] != d[:-1]
        return docs, freqs, n[first], keys % _POS_LIMIT, starts

    def _score_phrase(
        self, slots: list[list[str]], idfs: dict[str, float], slop: int = 0, sim: str = "bm25"
    ):
        """PhraseQuery and MultiPhraseQuery (ExactPhraseMatcher /
        SloppyPhraseMatcher over per-slot postings; a phrase is a
        multi-phrase of one-term slots): (docs, scores) for docs with
        phrase_freq > 0.  slop=0 intersects composite (doc, pos−offset)
        keys; slop>0 counts greedy chains (`_phrase_counts`).  Norms come
        from slot 0 (every match holds it); idf sums over every
        alternative — absent terms carry idf 0.0 in the GLOBAL stats, so
        the sum is shard-independent; a slot with no indexed alternative
        matches nothing."""
        plists = []
        for alts in slots:
            p = self._slot_postings(alts)
            if p is None:
                return _EMPTY_I64, _EMPTY_F64
            plists.append(p)
        if slop == 0:
            keys = None
            for off, (docs, freqs, _, positions, _) in enumerate(plists):
                doc_of_pos = np.repeat(docs, freqs)
                pos_adj = positions - off
                valid = pos_adj >= 0
                k = doc_of_pos[valid] * _POS_LIMIT + pos_adj[valid]
                keys = k if keys is None else np.intersect1d(keys, k, assume_unique=True)
                if keys.size == 0:
                    return _EMPTY_I64, _EMPTY_F64
            match_docs, pf = np.unique(keys // _POS_LIMIT, return_counts=True)
        else:
            cand = plists[0][0]
            for p in plists[1:]:
                cand = np.intersect1d(cand, p[0], assume_unique=True)
                if cand.size == 0:
                    return _EMPTY_I64, _EMPTY_F64
            pf = self._phrase_counts(plists, cand, slop)
            hit = pf > 0
            match_docs, pf = cand[hit], pf[hit]
        norm_b = plists[0][2][np.searchsorted(plists[0][0], match_docs)]
        idf_sum = sum(idfs.get(t, 0.0) for alts in slots for t in alts)
        return match_docs, self._apply_sim(pf, norm_b, idf_sum, sim, slots[0][0])

    def _score_freq_docs(self, cand: np.ndarray, counts: np.ndarray, terms, idfs, sim):
        """Score docs with per-doc match frequencies like a phrase (summed
        idf over `terms`, norms from the first term that holds the doc)."""
        hit = counts > 0
        match_docs = cand[hit]
        pf_arr = counts[hit]
        if match_docs.size == 0:
            return _EMPTY_I64, _EMPTY_F64
        norm_b = np.full(match_docs.size, -1, dtype=np.int64)
        for t in terms:
            missing = norm_b < 0
            if not missing.any():
                break
            p = self._postings(t)
            if p is None:
                continue
            docs, norms = p[0], p[2]
            idx = np.clip(np.searchsorted(docs, match_docs), 0, max(docs.size - 1, 0))
            present = (docs[idx] == match_docs) if docs.size else np.zeros(match_docs.size, bool)
            fill = missing & present
            norm_b[fill] = norms[idx[fill]]
        idf_sum = sum(idfs.get(t, 0.0) for t in terms)
        nb_arr = np.maximum(norm_b, 0)
        scores = self._apply_sim(pf_arr, nb_arr, idf_sum, sim, terms[0])
        return match_docs, scores

    def _score_interval(self, node: QueryNode, idfs: dict[str, float], sim: str):
        """Intervals-lite: ordered/unordered minimal windows ≤ max_width —
        evaluated with the vectorized algebra over ALL candidate docs at
        once (no per-doc Python loop; chunked so composite keys stay int64)."""
        from . import intervals as IV

        terms = node.terms
        ordered = bool(node.min_should_match)
        tree = IV.maxwidth(
            node.max_edits,
            (IV.ordered if ordered else IV.unordered)(*[IV.iterm(t) for t in terms]),
        )
        return self._score_intervals_tree(tree, idfs, sim)

    def _score_intervals_tree(self, tree, idfs: dict[str, float], sim: str):
        """Full intervals algebra (search/intervals.py): candidates follow
        the tree's required-set structure (union under `or`, intersection
        under chains — IV.candidate_docs); freq = intervals per doc;
        scored like a phrase over the tree's leaf terms."""
        from . import intervals as IV

        provider = lambda t: self._postings(t, with_positions=True)  # noqa: E731
        cand = IV.candidate_docs(tree, provider)
        if cand.size == 0:
            return _EMPTY_I64, _EMPTY_F64

        def count(chunk):
            idoc, _, _ = IV.eval_batch(tree, provider, chunk)
            return np.bincount(idoc, minlength=chunk.size) if idoc.size else np.zeros(chunk.size, np.int64)

        return self._score_freq_docs(cand, _chunked_counts(cand, count), tree.leaf_terms(), idfs, sim)

    @staticmethod
    def _phrase_counts(plists, cand: np.ndarray, slop: int) -> np.ndarray:
        """Greedy-chain sloppy phrase frequencies of the candidate docs over
        the slots' postings (position-verify stage, vectorized over docs
        via chain_spans): each match weighs 1/(1+matchLength) — Lucene's
        sloppyWeight — and the per-doc sum accumulates in p1 order
        (bincount input order), matching the oracle's sequential sum
        bit-for-bit.  slop=0 reduces to integral exact-phrase counts
        (weight 1)."""
        from .intervals import chain_spans, postings_intervals

        def count(chunk):
            idoc, s, e = chain_spans([postings_intervals(p, chunk) for p in plists], minimal=False)
            if not idoc.size:
                return np.zeros(chunk.size, np.float64)
            ml = (e - s) - (len(plists) - 1)
            ok = ml <= slop
            return np.bincount(idoc[ok], weights=1.0 / (1.0 + ml[ok]), minlength=chunk.size)

        return _chunked_counts(cand, count)

    def _eval_phrase_pruned(self, node: QueryNode, k: int, idfs: dict[str, float]):
        """Block-max-style pruning for the PHRASE path: the candidate set
        is the term conjunction; each candidate's score upper bound comes
        from the tightest available freq bound (min per-doc tf across terms
        for exact phrases — phrase freq can never exceed it; the leading
        term's tf for sloppy).  Position verification — the expensive part
        — runs only for the k best-bounded seeds and the θ-surviving docs
        (`_block_max`).  Result-identical to exhaustive evaluation."""
        terms, slop = node.terms, node.slop
        plists = []
        for t in terms:
            p = self._postings(t, with_positions=True)
            if p is None:
                return _EMPTY_I64, _EMPTY_F64
            plists.append(p)
        cand = None  # cost-ordered conjunction
        for p in sorted(plists, key=lambda p: p[0].size):
            cand = p[0] if cand is None else np.intersect1d(cand, p[0], assume_unique=True)
            if cand.size == 0:
                return _EMPTY_I64, _EMPTY_F64
        idf_sum = sum(idfs.get(t, 0.0) for t in terms)
        cache = self._cache_for(terms[0])
        norm_b = plists[0][2][np.searchsorted(plists[0][0], cand)]
        if slop == 0:
            ubf = None
            for docs_t, freqs_t, *_ in plists:
                f = freqs_t[np.searchsorted(docs_t, cand)]
                ubf = f if ubf is None else np.minimum(ubf, f)
        else:
            ubf = plists[0][1][np.searchsorted(plists[0][0], cand)]
        bounds = score_postings(ubf, norm_b, idf_sum, cache)

        def verify(idx: np.ndarray):
            counts = self._phrase_counts(plists, cand[idx], slop)
            hit = counts > 0
            scores = np.zeros(idx.size, dtype=np.float64)
            scores[hit] = score_postings(counts[hit], norm_b[idx][hit], idf_sum, cache)
            return scores, hit

        idx, scores = self._block_max(bounds, k, verify)
        return cand[idx], scores

    def _block_max(self, bounds: np.ndarray, k: int, score):
        """The block-max θ cut of both pruned evaluators (WANDScorer /
        MaxScoreCache; Ding & Suel 2011, vectorized).  `bounds` are sound
        per-candidate score upper bounds; `score(idx)` → (float64 scores,
        matched mask) for sorted candidate indices.  Exact-score the k
        best-bounded seeds, take θ from the kth seed score, exact-score only
        the other candidates whose bound reaches θ.  → (sorted indices of
        the matched scored candidates, their scores): result-identical to
        scoring every candidate."""
        if bounds.size <= k:
            scores, hit = score(np.arange(bounds.size))
            return np.flatnonzero(hit), scores[hit]
        top_idx = np.sort(np.argpartition(-bounds, k - 1)[:k])
        seed_scores, seed_hit = score(top_idx)
        # final ranking ties are decided at float32: θ must not prune a
        # doc whose exact score rounds to the same float32 as the kth
        # seed (it could win the docID tie-break) — use the float32
        # predecessor of the kth float32 seed score as the floor
        s32 = seed_scores.astype(np.float32)
        kth32 = np.partition(s32, s32.size - k)[s32.size - k]
        theta = float(np.nextafter(kth32, np.float32(-np.inf)))
        # θ ≤ every seed's exact score ≤ its bound, so the seeds survive
        # the cut: reuse their scores, exact-score only the other survivors
        keep = bounds >= theta
        keep[top_idx] = False
        self._prune_candidates += int(bounds.size)
        self._prune_survivors += int(top_idx.size) + int(keep.sum())
        scores = np.zeros(bounds.size, dtype=np.float64)
        hit = np.zeros(bounds.size, dtype=bool)
        scores[top_idx], hit[top_idx] = seed_scores, seed_hit
        scores[keep], hit[keep] = score(np.flatnonzero(keep))
        return np.flatnonzero(hit), scores[hit]

    def _eval(self, node: QueryNode, idfs: dict[str, float], sim: str = "bm25"):
        """→ (sorted matching docs, float64 scores).  node.boost multiplies
        the result (BoostQuery semantics)."""
        docs, scores = self._eval_unboosted(node, idfs, sim)
        if node.boost != 1.0 and scores.size:
            scores = scores * node.boost
        return docs, scores

    def _eval_unboosted(self, node: QueryNode, idfs: dict[str, float], sim: str = "bm25"):
        if node.kind == "match_all":
            docs = self._convs()[0].astype(np.int64)  # every doc in this actor's range
            live = self._live_mask(docs)
            if live is not None:
                docs = docs[live]
            return docs, np.ones(docs.size, dtype=np.float64)
        if node.kind == "term":
            return self._score_term(node.terms[0], idfs, sim)
        if node.kind == "phrase":
            return self._score_phrase([[t] for t in node.terms], idfs, node.slop, sim)
        if node.kind == "multi_phrase":
            return self._score_phrase(node.slots, idfs, node.slop, sim)
        if node.kind == "synonym":
            return self._score_synonym(node.terms, idfs, sim)
        if node.kind == "interval":
            return self._score_interval(node, idfs, sim)
        if node.kind == "intervals":
            return self._score_intervals_tree(node.tree, idfs, sim)
        if node.kind == "term_range":
            return self._eval_term_range(node)
        if node.kind == "term_set":
            # TermInSetQuery: constant-score union of member postings
            parts = [p[0] for t in node.terms if (p := self._postings(t)) is not None]
            if not parts:
                return _EMPTY_I64, _EMPTY_F64
            docs = np.unique(np.concatenate(parts))
            return docs, np.ones(docs.size, dtype=np.float64)
        if node.kind == "covering":
            # CoveringQuery (lucene/sandbox/.../search/CoveringQuery.java):
            # doc matches iff #matching SHOULD children >= a PER-DOC long
            # value (node.pattern names the numeric doc-values field);
            # score = sum of the matching children's scores
            results = [self._eval(c, idfs, sim) for _, c in node.clauses]
            results = [r for r in results if r[0].size]
            if not results:
                return _EMPTY_I64, _EMPTY_F64
            all_docs = np.concatenate([d for d, _ in results])
            docs, inv_all = np.unique(all_docs, return_inverse=True)
            sm = np.zeros(docs.size, dtype=np.float64)
            cnt = np.zeros(docs.size, dtype=np.int64)
            off = 0
            for d, s in results:
                idx = inv_all[off : off + d.size]
                np.add.at(sm, idx, s)
                np.add.at(cnt, idx, 1)
                off += d.size
            keep = cnt >= self._num_at(node.pattern, docs)
            return docs[keep], sm[keep]
        if node.kind == "dismax":
            # DisjunctionMaxQuery: max(child) + tiebreak·Σ(non-max children)
            results = [self._eval(c, idfs, sim) for _, c in node.clauses]
            results = [r for r in results if r[0].size]
            if not results:
                return _EMPTY_I64, _EMPTY_F64
            all_docs = np.concatenate([d for d, _ in results])
            docs, inv_all = np.unique(all_docs, return_inverse=True)
            mx = np.zeros(docs.size, dtype=np.float64)
            sm = np.zeros(docs.size, dtype=np.float64)
            off = 0
            for d, s in results:
                idx = inv_all[off : off + d.size]
                np.maximum.at(mx, idx, s)
                np.add.at(sm, idx, s)
                off += d.size
            return docs, mx + node.tiebreak * (sm - mx)
        musts, shoulds, nots, filters = [], [], [], []
        for occ, child in node.clauses:
            r = self._eval(child, idfs, sim)
            bucket = {"MUST": musts, "SHOULD": shoulds, "MUST_NOT": nots, "FILTER": filters}[occ]
            bucket.append(r)
        if not musts and not shoulds and not filters:
            return _EMPTY_I64, _EMPTY_F64
        if musts:
            # base = ∩ MUSTs: the INTERSECTION leads with the smallest doc
            # list (ConjunctionDISI cost ordering / the IndexOrDocValuesQuery
            # lead-cost model — cheapest clause drives); scores are then
            # gathered in CLAUSE order so float summation matches the oracle
            if len(musts) > 1:
                docs = None
                for d2, _ in sorted(musts, key=lambda m: m[0].size):
                    docs = d2 if docs is None else np.intersect1d(docs, d2, assume_unique=True)
                    if docs.size == 0:
                        break
                scores = np.zeros(docs.size, dtype=np.float64)
                for d2, s2 in musts:  # clause order — float parity
                    idx = np.searchsorted(d2, docs)
                    scores += s2[idx]
            else:
                docs, scores = musts[0]
            should_cnt = np.zeros(docs.size, dtype=np.int64)
            for d2, s2 in shoulds:
                if d2.size == 0 or docs.size == 0:
                    continue
                idx_c = np.clip(np.searchsorted(d2, docs), 0, d2.size - 1)
                hit = d2[idx_c] == docs
                add = np.zeros(docs.size, dtype=np.float64)
                add[hit] = s2[idx_c[hit]]
                scores = scores + add
                should_cnt += hit
            if node.min_should_match > 0 and shoulds:
                keep = should_cnt >= node.min_should_match
                docs, scores = docs[keep], scores[keep]
        elif shoulds:
            # no MUST: at least one SHOULD must match (BooleanWeight rule);
            # min_should_match raises that threshold
            all_docs = np.concatenate([d for d, _ in shoulds])
            all_scores = np.concatenate([s for _, s in shoulds])
            docs, inv = np.unique(all_docs, return_inverse=True)
            scores = np.zeros(docs.size, dtype=np.float64)
            np.add.at(scores, inv, all_scores)
            if node.min_should_match > 1:
                counts = np.bincount(inv, minlength=docs.size)
                keep = counts >= node.min_should_match
                docs, scores = docs[keep], scores[keep]
        else:
            # pure FILTER query: constant score 0
            docs = filters[0][0]
            scores = np.zeros(docs.size, dtype=np.float64)
            filters = filters[1:]
        # FILTER = MUST without scoring (BooleanClause.Occur.FILTER)
        for d2, _ in filters:
            docs, i1, _ = np.intersect1d(docs, d2, assume_unique=True, return_indices=True)
            scores = scores[i1]
        for d2, _ in nots:
            if d2.size and docs.size:
                keep = ~np.isin(docs, d2, assume_unique=True)
                docs, scores = docs[keep], scores[keep]
        return docs, scores

    # -- public API --------------------------------------------------------
    def collect(self, node: QueryNode, idfs: dict[str, float], sim: str, specs: list) -> list:
        """The one match-set request (Lucene's Collector over one Weight,
        Solr's SearchComponents over one DocSet): evaluate `node` ONCE,
        then run every `(name, *args)` spec's collector (`COLLECT`) over
        the same (docs, scores).  → one bounded partial per spec, in spec
        order; the driver pairs each collector with one merge.

        A lone `top_scores` spec is `ScoreMode.TOP_SCORES`: no other
        collector needs the whole match set, so `top_k` may prune.  The
        shard's one result cache (Solr's queryResultCache) keys the whole
        request: the weights are part of the key (a stats-generation flip
        must not serve stale partials), and specs hold plain Python values,
        so their `repr` is exact.  On a Ray pool the request arrives
        through `call`, unpickled into the same values, so the key is the
        same as for a direct call."""
        key = (repr(node), sim, tuple(sorted(idfs.items())), repr(specs))
        hit = self._result_cache.get(key)
        if hit is not None:
            return hit
        if len(specs) == 1 and specs[0][0] == "top_scores":
            _, k, after, prune = specs[0]
            out = [self.top_k(node, k, idfs, prune, sim, after)]
        else:
            docs, scores = self._eval(node, idfs, sim)
            out = [COLLECT[name](self, docs, scores, *args) for name, *args in specs]
        self._result_cache.put(key, out)
        return out

    def match_all(self, node: QueryNode, idfs: dict[str, float], sim: str = "bm25"):
        """ALL matching (docs, float64 scores) — feeds diversified top-k
        and delete-by-query, where every hit matters."""
        return self._eval(node, idfs, sim)

    def explain(self, node: QueryNode, doc: int, idfs: dict[str, float], sim: str = "bm25"):
        """Score explanation for one doc (Lucene's IndexSearcher.explain /
        Solr debugQuery): per-leaf-term contribution + the node total, or
        None if the doc doesn't match or lives outside this shard."""
        docs, scores = self._eval(node, idfs, sim)
        i = np.searchsorted(docs, doc)
        if i >= docs.size or docs[i] != doc:
            return None
        detail: dict[str, float] = {}
        for t in dict.fromkeys(node.all_terms()):
            td, ts = self._score_term(t, idfs, sim)
            j = np.searchsorted(td, doc)
            if j < td.size and td[j] == doc:
                detail[t] = float(ts[j])
        return {"total": float(scores[i]), "terms": detail}

    def export_shard_sorted(
        self,
        node: QueryNode,
        idfs: dict[str, float],
        sort_field: str,
        asc: bool,
        fl: list[str],
        out_dir: str,
    ):
        """/export handler shard half (solr/core/.../handler/export/
        ExportWriter.java): this shard's FULL match set sorted by a
        numeric dv field, written straight to a parquet part — rows never
        cross the wire; only the part path returns.  `fl` adds numeric dv
        columns."""
        import os

        docs, _ = self._eval(node, idfs, "bm25")
        if not docs.size:
            return None
        vals = self._num_at(sort_field, docs)
        order = np.lexsort((docs, vals if asc else -vals))
        cols = {"doc_id": docs[order], sort_field: vals[order]}
        for f in fl:
            if f != sort_field:
                cols[f] = self._num_at(f, docs)[order]
        import uuid

        import pyarrow as pa

        os.makedirs(out_dir, exist_ok=True)
        tag = uuid.uuid4().hex[:12]
        path = os.path.join(out_dir, f"part-{tag}.parquet")
        tmp = os.path.join(out_dir, f".part-{tag}.tmp")
        pq.write_table(pa.table(cols), tmp)
        os.replace(tmp, path)
        return path

    # -- doc values ----------------------------------------------------------
    def _doc_column(self, name: str, numeric: bool = False):
        """(doc_id, values) of segment column `name` over this shard's
        docs, read once through `segments.read` (dv updates applied).
        `numeric=True` wants a numeric column as a float64 array that
        `apply_dv_updates` patches in place.  None when no segment has the
        column (or, with `numeric`, it is not numeric)."""
        key = (name, numeric)
        if key not in self._doc_columns:
            t = segments.read(self._segment_paths, [name])
            col = None
            if name in t.column_names and (not numeric or segments.is_numeric(t.schema.field(name).type)):
                vals = t.column(name).to_numpy(zero_copy_only=False)
                col = (t.column("doc_id").to_numpy(), vals.astype(np.float64) if numeric else vals)
            self._doc_columns[key] = col
        return self._doc_columns[key]

    def _convs(self):
        """(docIDs, conv_id per doc) of every doc this shard serves, in
        docID order — conv blocks are contiguous and never span shards."""
        return self._doc_column("conv_id") or (_EMPTY_I64, np.empty(0, dtype=object))

    def _dv_at(self, field: str, docs: np.ndarray, numeric: bool = False):
        """(values, present mask) of `field`'s doc values at the sorted
        `docs` this shard owns — keyword (SortedDocValues, the `dv_<field>`
        column) by default, float64 with `numeric=True`.  A doc without a
        value is absent from the mask (`pd.notna`).  None when no segment
        has the column."""
        dv = self._doc_column(field if numeric else f"dv_{field}", numeric)
        if dv is None:
            return None
        fd, fv = dv
        vals = fv[np.searchsorted(fd, docs)]
        return vals, pd.notna(vals)

    def _num_at(self, field: str, docs: np.ndarray) -> np.ndarray:
        """Numeric doc values at `docs` for a column the request REQUIRES
        (sort keys, stats, range facets, function inputs): unknown → KeyError."""
        at = self._dv_at(field, docs, numeric=True)
        if at is None:
            raise KeyError(f"unknown numeric doc-values field {field!r}")
        return at[0]

    def apply_dv_updates(self, field: str, docs: list[int], vals: list[float]) -> int:
        """Live half of the in-place numeric doc-values update: patch the
        loaded cache for `field` (a cold cache loads THROUGH the sidecar
        the Searcher just wrote, so the patch is idempotent either way).
        Cached `collect` results may have read the old values, so the
        result cache is cleared.  Returns the number of docs this actor
        owns."""
        self._result_cache.clear()
        dv = self._doc_column(field, numeric=True)
        if dv is None:
            return 0
        dd, vv = dv
        ud = np.asarray(docs, dtype=np.int64)
        uv = np.asarray(vals, dtype=np.float64)
        pos = np.searchsorted(dd, ud)
        ok = (pos < dd.size) & (dd[np.minimum(pos, dd.size - 1)] == ud)
        vv[pos[ok]] = uv[ok]
        return int(ok.sum())

    def _expr_columns(self, expr, docs: np.ndarray):
        """Materialize an expression's inputs for the GIVEN doc vector:
        termfreq('term') becomes a per-doc tf array from this shard's
        postings (Solr's TermFreqValueSource — tombstone mask inherited
        from `_postings`), every other field loads from numeric doc-values.
        → (rewritten expr, columns dict)."""
        from ..functions.scalar import Expr, expr_fields, transform_calls

        cols: dict[str, np.ndarray] = {}
        n = [0]

        def repl(c):
            if c.name == "termfreq" and len(c.args) == 1 and c.args[0].kind == "str":
                key = f"__tf{n[0]}"
                n[0] += 1
                arr = np.zeros(docs.size, dtype=np.float64)
                p = self._postings(c.args[0].name)
                if p is not None and p[0].size:
                    td, tf = p[0], p[1]
                    pos = np.clip(np.searchsorted(td, docs), 0, td.size - 1)
                    ok = td[pos] == docs
                    arr[ok] = tf[pos[ok]]
                cols[key] = arr
                return Expr("field", name=key)
            return None

        expr = transform_calls(expr, repl)
        for f in expr_fields(expr):
            if f not in cols:
                cols[f] = self._num_at(f, docs)
        return expr, cols

    def numeric_dv_of(self, fields: list[str], docs: list[int]) -> dict:
        """{field: (owned docIDs, float64 values)} for the docs THIS actor
        owns — the gather half of feature logging (each actor answers for
        its doc ranges only)."""
        d = np.asarray(docs, np.int64)
        out: dict = {}
        for f in fields:
            dv = self._doc_column(f, numeric=True)
            if dv is None:
                continue
            fd, fv = dv
            pos = np.clip(np.searchsorted(fd, d), 0, max(fd.size - 1, 0))
            ok = (fd[pos] == d) if fd.size else np.zeros(d.size, bool)
            out[f] = (d[ok], fv[pos[ok]])
        return out

    # -- TermRange via the IndexOrDocValues cost model ---------------------
    # lucene/core/src/java/org/apache/lucene/search/IndexOrDocValuesQuery
    # .java: the same predicate is answerable from the term index (union of
    # matching postings, cost ≈ Σ df) or from the doc-values column (full
    # column scan, cost ≈ maxDoc); pick by estimated cost.
    RANGE_SCAN_FRACTION = 8  # index wins when Σ df ≤ maxDoc / 8

    def _range_matching_terms(self, field: str, lo: str, hi: str):
        terms, dfs = self._term_dict()
        i = int(np.searchsorted(terms, f"{field}:{lo}"))
        j = int(np.searchsorted(terms, f"{field}:{hi}", side="right"))
        return terms[i:j], dfs[i:j]

    def _range_docs_index(self, field: str, lo: str, hi: str) -> np.ndarray:
        m_terms, _ = self._range_matching_terms(field, lo, hi)
        parts = [p[0] for t in m_terms if (p := self._postings(str(t))) is not None]
        if not parts:
            return _EMPTY_I64
        return np.unique(np.concatenate(parts))

    def _range_docs_scan(self, field: str, lo: str, hi: str) -> np.ndarray:
        dv = self._doc_column(f"dv_{field}")
        if dv is None:
            return _EMPTY_I64
        doc_ids, vals = dv
        valid = pd.notna(vals)  # docs without the field never match
        sv = vals[valid].astype("U")
        m = (sv >= lo) & (sv <= hi)
        docs = doc_ids[valid][m].astype(np.int64)
        live = self._live_mask(docs)
        return docs if live is None else docs[live]

    def _eval_term_range(self, node: QueryNode):
        """Constant-score TermRangeQuery with the cost-based plan choice;
        the chosen plan is recorded in `last_range_plan` for inspection."""
        field, lo, hi = node.pattern, node.terms[0], node.terms[1]
        _, m_dfs = self._range_matching_terms(field, lo, hi)
        cost_index = int(m_dfs.sum())
        n_docs = int(self._convs()[0].size)
        dv_available = self._doc_column(f"dv_{field}") is not None
        use_index = (not dv_available) or cost_index * self.RANGE_SCAN_FRACTION <= n_docs
        self.last_range_plan = {
            "field": field,
            "cost_index": cost_index,
            "n_docs": n_docs,
            "plan": "index" if use_index else "docvalues",
        }
        docs = (
            self._range_docs_index(field, lo, hi)
            if use_index
            else self._range_docs_scan(field, lo, hi)
        )
        return docs, np.ones(docs.size, dtype=np.float64)

    def children_of(self, convs: list, limit: int) -> dict:
        """First `limit` LIVE child docIDs per conv — the fetch half of the
        ChildDocTransformer (solr/core/src/java/org/apache/solr/response/
        transform/ChildDocTransformerFactory.java).  Conv blocks are
        shard-local, so exactly one shard answers for each conv; only
        k × limit ids ever cross the wire."""
        fd, fc = self._convs()
        out = {}
        for c in convs:
            lo = int(np.searchsorted(fc, c, "left"))
            hi = int(np.searchsorted(fc, c, "right"))
            if lo == hi:
                continue
            docs = fd[lo:hi].astype(np.int64)
            live = self._live_mask(docs)
            if live is not None:
                docs = docs[live]
            if docs.size:
                out[c] = docs[:limit].tolist()
        return out

    def top_k(
        self,
        node: QueryNode,
        k: int,
        idfs: dict[str, float],
        prune: bool = True,
        sim: str = "bm25",
        after: tuple | None = None,
    ):
        """The `TOP_SCORES` page of `collect` (its only caller): the
        block-max or phrase-pruned evaluator when it applies, else the
        exhaustive match set, then the `top_scores` cut.  → (doc_ids
        int64, scores float32), shard-local top-k."""
        # searchAfter disables the pruned paths: WAND's θ floor assumes the
        # page starts at rank 0 (Lucene routes searchAfter through a
        # PagingTopScoreDocCollector for the same reason); an empty page
        # has no kth score to take θ from
        prune = prune and sim == "bm25" and after is None and k > 0
        plan = self._prunable_plan(node) if prune else None
        if plan is not None:
            docs, scores = self._eval_bool_pruned(*plan, k, idfs)
        elif prune and node.kind == "phrase" and node.boost == 1.0:
            docs, scores = self._eval_phrase_pruned(node, k, idfs)
        else:
            docs, scores = self._eval(node, idfs, sim)
        return top_scores(self, docs, scores, k, after, prune)

    def _prunable_plan(self, node: QueryNode):
        """WAND/block-max pruning applies when every SCORED clause is an
        unboosted term (WANDScorer.java preconditions, SURVEY.md §3.2);
        FILTER / MUST_NOT clauses may be arbitrary sub-queries — they only
        shape the candidate set and never contribute score bounds.
        → (must_terms, should_terms, filter_nodes, not_nodes) or None."""
        if node.kind != "bool" or node.boost != 1.0:
            return None
        musts: list[str] = []
        shoulds: list[str] = []
        filters: list[QueryNode] = []
        nots: list[QueryNode] = []
        for occ, c in node.clauses:
            if occ in ("MUST", "SHOULD"):
                if c.kind != "term" or c.boost != 1.0:
                    return None
                (musts if occ == "MUST" else shoulds).append(c.terms[0])
            elif occ == "FILTER":
                filters.append(c)
            else:
                nots.append(c)
        if not musts and not shoulds:
            return None  # pure-filter query: nothing to bound
        # should-COUNT constraints need per-doc tallies → exhaustive path
        # (union candidates already guarantee ≥1 should when no must)
        if node.min_should_match > (0 if musts else 1):
            return None
        return musts, shoulds, filters, nots

    def _eval_bool_pruned(self, musts, shoulds, filters, nots, k: int, idfs: dict[str, float]):
        """Vectorized block-max pruning for term-scored boolean queries.

        1. Candidates: ∩ MUST doc lists (∪ SHOULD lists when no MUST),
           then ∩ FILTER matches and ∖ MUST_NOT matches.  2. Per-doc upper
        bound = Σ over scored terms of the block_upper_bound of the block
        holding the doc (0 if absent).  3. `_block_max`: exact-score the k
        best-bounded docs → floor θ; docs with bound < θ cannot enter the
        top-k → drop; exact-score the survivors only.  Result-identical to
        exhaustive evaluation (upper bounds are sound, θ is float32-safe).
        """
        metas, posts, live_terms = [], [], []
        must_docs: list[np.ndarray] = []
        for t in musts:
            p = self._postings(t)
            if p is None:
                return _EMPTY_I64, _EMPTY_F64  # missing MUST term → no match
            must_docs.append(p[0])
        for t in musts + shoulds:
            m = self._block_meta(t)
            p = self._postings(t)
            if m is None or p is None:
                continue  # only reachable for missing SHOULD terms
            metas.append(m)
            posts.append((p[0], p[1], p[2]))  # cache may hold the 5-tuple w/ positions
            live_terms.append(t)
        if not posts:
            return _EMPTY_I64, _EMPTY_F64
        if must_docs:
            docs = None  # cost-ordered: smallest list leads (ConjunctionDISI)
            for d2 in sorted(must_docs, key=lambda d: d.size):
                docs = d2 if docs is None else np.intersect1d(docs, d2, assume_unique=True)
                if docs.size == 0:
                    return _EMPTY_I64, _EMPTY_F64
        else:
            docs = np.unique(np.concatenate([p[0] for p in posts]))
        for f in filters:
            fd, _ = self._eval(f, idfs, "bm25")
            docs = np.intersect1d(docs, fd, assume_unique=True)
            if docs.size == 0:
                return _EMPTY_I64, _EMPTY_F64
        for nnode in nots:
            nd, _ = self._eval(nnode, idfs, "bm25")
            if nd.size and docs.size:
                docs = docs[~np.isin(docs, nd, assume_unique=True)]
        if docs.size == 0:
            return _EMPTY_I64, _EMPTY_F64
        bounds = np.zeros(docs.size, dtype=np.float64)
        for t, (last, maxf, minn), (pdocs, _, _) in zip(live_terms, metas, posts):
            ub = block_upper_bound(maxf, minn, idfs.get(t, 0.0), self._cache_for(t))
            blk = np.searchsorted(last, docs)  # block whose range covers doc
            mic = np.clip(np.searchsorted(pdocs, docs), 0, pdocs.size - 1)
            sel = (pdocs[mic] == docs) & (blk < last.size)
            add = np.zeros(docs.size, dtype=np.float64)
            add[sel] = ub[blk[sel]]
            bounds += add

        def exact(idx: np.ndarray):  # every candidate matches
            return self._exact_scores(docs[idx], live_terms, posts, idfs), np.ones(idx.size, bool)

        idx, scores = self._block_max(bounds, k, exact)
        return docs[idx], scores

    def _exact_scores(self, docs: np.ndarray, terms: list[str], posts, idfs: dict[str, float]):
        scores = np.zeros(docs.size, dtype=np.float64)
        for t, (pdocs, pfreqs, pnorms) in zip(terms, posts):
            idx = np.searchsorted(pdocs, docs)
            mic = np.clip(idx, 0, max(pdocs.size - 1, 0))
            hit = pdocs[mic] == docs if pdocs.size else np.zeros(docs.size, bool)
            s = score_postings(pfreqs[mic[hit]], pnorms[mic[hit]], idfs.get(t, 0.0), self._cache_for(t))
            scores[hit] += s
        return scores


def _chunked_counts(cand: np.ndarray, count) -> np.ndarray:
    """Per-doc positional counts of `cand`, `count(chunk)` evaluated over
    `_IV_CHUNK`-doc slices."""
    parts = [count(cand[c0 : c0 + _IV_CHUNK]) for c0 in range(0, cand.size, _IV_CHUNK)]
    return np.concatenate(parts) if parts else np.zeros(0, np.float64)


def _cut_top_k(docs: np.ndarray, scores32: np.ndarray, k: int):
    """TopScoreDocCollector's cut: the top k by (float32 score desc, docID
    asc).  The kth-highest score is the tie boundary — every candidate at
    or above it is kept, then ordered exactly."""
    if docs.size > k > 0:
        thresh = scores32[np.argpartition(-scores32, k - 1)[k - 1]]
        cand = np.flatnonzero(scores32 >= thresh)
        sel = cand[np.lexsort((docs[cand], -scores32[cand]))[:k]]
    else:
        sel = np.lexsort((docs, -scores32))[: max(k, 0)]
    return docs[sel], scores32[sel]


# -- collectors ----------------------------------------------------------------
# Each is `fn(shard, docs, scores, *args)` over the match set that
# `IndexShard.collect` evaluated once (sorted docIDs, float64 scores) and
# returns one bounded partial; `Searcher` holds the matching merge.


def top_scores(shard, docs, scores, k: int, after: tuple | None, prune: bool):
    """The ranked page (TopScoreDocCollector): the top k by (float32 score
    desc, docID asc).  `after` = (score float32, doc_id) is IndexSearcher.
    searchAfter (lucene/core/.../search/IndexSearcher.java): only hits
    STRICTLY after the bound in rank order survive, so page N+1 never
    re-ships page N's hits from any shard.  `prune` only picks `top_k`'s
    evaluator when this is the request's lone collector.
    → (docs int64, float32 scores)."""
    if after is not None and docs.size:
        a_s, a_d = np.float32(after[0]), int(after[1])
        s32 = scores.astype(np.float32)
        keep = (s32 < a_s) | ((s32 == a_s) & (docs > a_d))
        docs, scores = docs[keep], scores[keep]
    return _cut_top_k(docs, scores.astype(np.float32), k)


def count_matches(shard, docs, scores) -> int:
    """numFound: only the hit COUNT crosses the wire."""
    return int(docs.size)


def facet_query_counts(shard, docs, scores, subs: list) -> list:
    """facet.query (SimpleFacets.getFacetQueryCounts): hit count of each
    (sub-node, weights) INTERSECTED with the match set — each sub
    evaluates once per shard, only counts cross the wire."""
    out = []
    for sn, sidfs in subs:
        if sn is None or docs.size == 0:
            out.append(0)
            continue
        sd, _ = shard._eval(sn, sidfs, "bm25")
        out.append(int(np.intersect1d(docs, sd, assume_unique=True).size))
    return out


def facet_counts(shard, docs, scores, field: str):
    """facet.field over the match set (SimpleFacets over a DocSet):
    (values, counts, n_missing), bounded by the field's value domain."""
    none = np.empty(0, dtype=object)
    at = shard._dv_at(field, docs)
    if at is None:  # no dv column at all: every match counts as missing
        return none, _EMPTY_I64, int(docs.size)
    vals, present = at
    n_missing = int(docs.size - present.sum())
    if not present.any():
        return none, _EMPTY_I64, n_missing
    uniq, cnt = np.unique(vals[present].astype(str), return_counts=True)
    return uniq.astype(object), cnt.astype(np.int64), n_missing


def facet_tuple_counts(shard, docs, scores, fields: list[str]):
    """facet.pivot / nested terms partial over the match set: per-shard
    value-tuple → count over docs carrying EVERY field, bounded by the
    domain product.  → frame (v0..vN-1, n) or None."""
    cols = {}
    keep = np.ones(docs.size, dtype=bool)
    for i, f in enumerate(fields):
        at = shard._dv_at(f, docs)
        if at is None:
            return None
        cols[f"v{i}"], present = at
        keep &= present
    if not keep.any():
        return None
    df = pd.DataFrame({c: v[keep].astype(str) for c, v in cols.items()})
    return df.groupby(list(cols), as_index=False).size().rename(columns={"size": "n"})


def range_facet_counts(shard, docs, scores, field: str, start: float, end: float, gap: float):
    """facet.range over the match set (RangeFacetProcessor): fixed
    [start, end) buckets of width `gap` plus before/after counts — a
    bounded (n_buckets+2) int64 vector."""
    n_buckets = int(np.ceil((end - start) / gap))
    counts = np.zeros(n_buckets + 2, dtype=np.int64)  # [before, buckets..., after]
    if not docs.size:
        return counts
    vals = shard._num_at(field, docs)
    before = vals < start
    after = vals >= start + n_buckets * gap
    mid = ~(before | after)
    counts[0] = int(before.sum())
    counts[-1] = int(after.sum())
    if mid.any():
        idx = ((vals[mid] - start) // gap).astype(np.int64)
        counts[1:-1] += np.bincount(idx, minlength=n_buckets)
    return counts


def stats_partial(shard, docs, scores, field: str, with_digest: bool):
    """StatsComponent partial over the match set: (count, Σx, Σx², min,
    max) in EXACT integer arithmetic (partials merge exactly in any
    order); `with_digest` appends the t-digest centroids for
    stats.percentiles."""
    if not docs.size:
        return (0, 0, 0, None, None) + ((None,) if with_digest else ())
    vals = shard._num_at(field, docs)
    iv = vals.astype(np.int64)
    if not np.array_equal(iv.astype(np.float64), vals):
        raise ValueError(f"stats over non-integral doc values field {field!r} unsupported")
    out = (
        int(docs.size),
        int(iv.sum(dtype=object)),
        int((iv.astype(object) * iv.astype(object)).sum()),
        int(iv.min()),
        int(iv.max()),
    )
    if with_digest:
        from ..state.tdigest import TDigest

        td = TDigest.of(vals)
        out = out + ((td.means, td.weights),)
    return out


def _keyed_hits(shard, docs, scores, field: str):
    """(docs, float32 scores, values) of the hits carrying a `field`
    value, or None when none does."""
    at = shard._dv_at(field, docs)
    if at is None or not at[1].any():
        return None
    vals, present = at
    return docs[present], scores[present].astype(np.float32), vals[present]


def facet_stats_partial(shard, docs, scores, field: str, stat_field: str) -> list:
    """Terms facet with sub-stats over the match set: per `field` value,
    (count, Σx, min, max) of `stat_field` in exact int64."""
    hits = _keyed_hits(shard, docs, scores, field)
    if hits is None:
        return []
    docs, _, vals = hits
    x = shard._num_at(stat_field, docs)
    ix = x.astype(np.int64)
    if not np.array_equal(ix.astype(np.float64), x):
        raise ValueError(f"facet stats over non-integral field {stat_field!r} unsupported")
    codes, uniq = pd.factorize(vals)
    cnt = np.bincount(codes)
    s = np.bincount(codes, weights=ix).astype(np.int64)  # exact ≤ 2^53 per shard
    mn = np.full(uniq.size, np.iinfo(np.int64).max)
    mx = np.full(uniq.size, np.iinfo(np.int64).min)
    np.minimum.at(mn, codes, ix)
    np.maximum.at(mx, codes, ix)
    return [(str(uniq[i]), int(cnt[i]), int(s[i]), int(mn[i]), int(mx[i])) for i in range(uniq.size)]


def top_groups(shard, docs, scores, field: str, j: int):
    """Grouped-search partial (FirstPassGroupingCollector +
    TopGroupsCollector in one pass): top-j hits per `field` group by
    (score desc, docID asc).  → (docs, float32 scores, values)."""
    hits = _keyed_hits(shard, docs, scores, field)
    if hits is None:
        return _EMPTY_I64, np.empty(0, np.float32), np.empty(0, dtype=object)
    docs, scores, vals = hits
    order = np.lexsort((docs, -scores))
    docs, scores, vals = docs[order], scores[order], vals[order]
    codes, _ = pd.factorize(vals)
    # rank within group: stable-sort by group preserves the rank order
    by_grp = np.argsort(codes, kind="stable")
    grp_sorted = codes[by_grp]
    starts = np.flatnonzero(np.concatenate(([True], grp_sorted[1:] != grp_sorted[:-1])))
    width = np.arange(grp_sorted.size) - np.repeat(starts, np.diff(np.append(starts, grp_sorted.size)))
    sel = np.sort(by_grp[width < j])  # back to global rank order
    return docs[sel], scores[sel], vals[sel]


def top_groups_sorted(shard, docs, scores, field: str, j: int, sort_field: str, sort_asc: bool):
    """group.sort=<numeric dv field> (withinGroupSort ≠ main sort): per
    group the top-j docs BY THE GROUP SORT plus the group's best (score,
    doc) for group ranking.  → frame (doc, score, val, sv, gmax, gdoc)."""
    hits = _keyed_hits(shard, docs, scores, field)
    if hits is None:
        return None
    docs, scores, vals = hits
    df = pd.DataFrame({"doc": docs, "score": scores, "val": vals, "sv": shard._num_at(sort_field, docs)})
    best = df.sort_values(["score", "doc"], ascending=[False, True], kind="mergesort").drop_duplicates("val")
    gmax = dict(zip(best["val"], best["score"]))
    gdoc = dict(zip(best["val"], best["doc"]))
    df = df.sort_values(["sv", "doc"], ascending=[sort_asc, True], kind="mergesort")
    df = df.groupby("val", sort=False).head(j)
    df["gmax"] = df["val"].map(gmax).astype(np.float32)
    df["gdoc"] = df["val"].map(gdoc).astype(np.int64)
    return df


def top_k_collapse(shard, docs, scores, field: str, k: int, sel_op, sel_field, null_policy: str):
    """Query-time collapse (CollapsingQParserPlugin): the group head per
    `field` value — by (score desc, docID asc), or by min/max of a numeric
    dv field for `sel_op` (the head keeps its QUERY score).  Field-less
    docs: ignore drops them, expand keeps each (a k cut is safe —
    singleton groups), collapse folds them into ONE null group.  Every
    group winner returns (another shard may beat any group's best), so
    the merge is group-domain-bounded.  → (docs, scores, values, sel)."""
    empty = (_EMPTY_I64, _EMPTY_F64, np.empty(0, dtype=object), _EMPTY_F64)
    at = shard._dv_at(field, docs) if docs.size else None
    if at is None:
        return empty
    vals, keep = at
    nd_, ns_ = docs[~keep], scores[~keep].astype(np.float32)  # null-group docs
    docs, scores, vals = docs[keep], scores[keep].astype(np.float32), vals[keep]

    def with_nulls(res):
        if null_policy == "ignore" or not nd_.size:
            return res
        order = np.lexsort((nd_, -ns_))
        order = order[:1] if null_policy == "collapse" else order[:k]
        return (
            np.concatenate([res[0], nd_[order]]),
            np.concatenate([res[1], ns_[order]]),
            np.concatenate([res[2], np.full(order.size, None, dtype=object)]),
            np.concatenate([res[3], np.zeros(order.size)]),
        )

    if not docs.size:
        return with_nulls(empty)
    if sel_op is None:
        order = np.lexsort((docs, -scores))
        selv_sorted = None
    else:
        selv = shard._num_at(sel_field, docs)
        order = np.lexsort((docs, selv if sel_op == "min" else -selv))
        selv_sorted = selv[order]
    docs, scores, vals = docs[order], scores[order], vals[order]
    codes, _ = pd.factorize(vals)
    _, first_idx = np.unique(codes, return_index=True)  # first hit per
    sel = np.sort(first_idx)  # group in head order — vectorized
    out_sel = selv_sorted[sel] if selv_sorted is not None else np.zeros(sel.size)
    return with_nulls((docs[sel], scores[sel], vals[sel], out_sel))


def expand_members(shard, docs, scores, field: str, group_vals: list, exclude: list, limit: int):
    """ExpandComponent: for the GIVEN head groups, the top `limit` OTHER
    matching members per group by (score desc, docID asc) — at most
    |groups|·limit rows leave the shard."""
    hits = _keyed_hits(shard, docs, scores, field)
    if hits is None:
        return None
    docs, scores, vals = hits
    keep = pd.Series(vals).isin(group_vals).to_numpy() & ~np.isin(docs, np.asarray(exclude, np.int64))
    if not keep.any():
        return None
    df = pd.DataFrame({"doc": docs[keep], "score": scores[keep], "val": vals[keep]})
    df = df.sort_values(["score", "doc"], ascending=[False, True], kind="mergesort")
    return df.groupby("val", sort=False).head(limit)


def _strict_after_mask(cols: dict, spec: list, docs: np.ndarray, after: tuple) -> np.ndarray:
    """cursorMark on a field sort: rows STRICTLY after `after`
    (= (v0, v1, ..., last_doc)) in the compound order — lexicographic
    walk with missing-last semantics on every key, docID asc tiebreak."""
    n = docs.size
    after_m = np.zeros(n, bool)
    eq = np.ones(n, bool)
    for i, (_f, asc) in enumerate(spec):
        v = pd.Series(cols[f"s{i}"])
        a = after[i]
        vna = v.isna().to_numpy()
        if a is None or (isinstance(a, float) and np.isnan(a)):
            gt = np.zeros(n, bool)  # nothing sorts after a missing key (na last)
            eqi = vna
        else:
            cmp = (v > a) if asc else (v < a)
            gt = np.where(vna, True, cmp.fillna(False).to_numpy(dtype=bool))
            eqi = np.where(vna, False, (v == a).fillna(False).to_numpy(dtype=bool))
        after_m |= eq & gt
        eq &= eqi
    after_m |= eq & (docs > int(after[-1]))
    return after_m


def top_k_sorted(shard, docs, scores, spec: list, k: int, after: tuple | None):
    """Top-k of the match set by a COMPOUND sort spec (TopFieldCollector
    over a SortField list).  Each (field, asc) resolves to a numeric dv
    column, a STRING dv column (the bounded k values ship instead of
    ordinals) or a function expression.  Ties by docID asc, missing
    values LAST either way; `after` is the cursorMark bound, applied
    before the cut.  → frame of ≤ k rows (s0..sN, doc) or None."""
    if docs.size == 0:
        return None
    cols = {}
    for i, (field, _asc) in enumerate(spec):
        if field.isidentifier():
            at = shard._dv_at(field, docs, numeric=True) or shard._dv_at(field, docs)
            if at is None:
                raise KeyError(f"unknown sort field {field!r}")
            cols[f"s{i}"] = at[0]
        else:
            from ..functions.scalar import evaluate, parse_expr

            expr, ecols = shard._expr_columns(parse_expr(field), docs)
            cols[f"s{i}"] = np.broadcast_to(np.asarray(evaluate(expr, ecols), np.float64), docs.shape).astype(np.float64)
    if after is not None:
        m = _strict_after_mask(cols, spec, docs, after)
        if not m.any():
            return None
        docs = docs[m]
        cols = {c: v[m] for c, v in cols.items()}
    df = pd.DataFrame(cols)
    df["doc"] = docs
    return df.sort_values(
        [f"s{i}" for i in range(len(spec))] + ["doc"],
        ascending=[asc for _, asc in spec] + [True],
        kind="mergesort",
        na_position="last",
    ).head(k)


def scores_of(shard, docs, scores, req: list[int]):
    """(owned matching docIDs, float64 scores) restricted to the GIVEN
    doc list — ReRankQParserPlugin's second-pass scorer."""
    if docs.size == 0:
        return _EMPTY_I64, _EMPTY_F64
    req = np.asarray(sorted(req), np.int64)
    pos = np.clip(np.searchsorted(docs, req), 0, docs.size - 1)
    ok = docs[pos] == req
    return req[ok], scores[pos[ok]]


def top_k_boosted(shard, docs, scores, k: int, expr_src: str):
    """`{!boost b=expr}` (BoostQParserPlugin → FunctionScoreQuery
    .boostByValue): score × per-doc function value in float64 BEFORE the
    float32 cast, then the top-k cut.  No WAND — its score bounds don't
    survive a per-doc multiplier."""
    from ..functions.scalar import evaluate, parse_expr

    if docs.size == 0:
        return _EMPTY_I64, np.empty(0, np.float32)
    expr, cols = shard._expr_columns(parse_expr(expr_src), docs)
    boosted = scores * np.broadcast_to(np.asarray(evaluate(expr, cols), np.float64), scores.shape)
    return _cut_top_k(docs, boosted.astype(np.float32), k)


def franged_hits(shard, docs, scores, expr_src: str, lo, hi, incl: bool, incu: bool, k: int):
    """`fq={!frange l= u=}expr` (FunctionRangeQuery): keep the hits whose
    per-doc function value lies in the [l, u] window (bounds optional,
    incl/incu closedness).  → (hit count, top-k docs, float32 scores) by
    the UNCHANGED query score — numFound and the page come from the one
    mask, so they can never disagree."""
    from ..functions.scalar import evaluate, parse_expr

    if docs.size == 0:
        return 0, _EMPTY_I64, np.empty(0, np.float32)
    expr, cols = shard._expr_columns(parse_expr(expr_src), docs)
    vals = np.broadcast_to(np.asarray(evaluate(expr, cols), np.float64), scores.shape)
    mask = np.ones(docs.size, dtype=bool)
    if lo is not None:
        mask &= (vals >= lo) if incl else (vals > lo)
    if hi is not None:
        mask &= (vals <= hi) if incu else (vals < hi)
    docs, scores = docs[mask], scores[mask]
    return (int(docs.size),) + _cut_top_k(docs, scores.astype(np.float32), k)


def _conv_runs(shard, docs):
    """(conv per doc, start index of each conv run) for sorted `docs` —
    conv blocks never span doc-range shards, so a run is a whole parent."""
    fd, fc = shard._convs()
    convs = fc[np.searchsorted(fd, docs)]
    new = np.empty(convs.size, dtype=bool)
    new[0] = True
    new[1:] = convs[1:] != convs[:-1]
    return convs, np.flatnonzero(new)


def match_parents(shard, docs, scores, score_mode: str):
    """ToParentBlockJoin aggregation SHARD-LOCAL: per conv, max | total |
    avg of its matching child scores (float64 accumulation in doc order,
    identical to a sequential driver sum).  → (conv_id, float32 score)."""
    if docs.size == 0:
        return np.empty(0, dtype=object), np.empty(0, dtype=np.float32)
    convs, starts = _conv_runs(shard, docs)
    s64 = scores.astype(np.float32).astype(np.float64)
    if score_mode == "max":
        agg = np.maximum.reduceat(s64, starts)
    elif score_mode == "total":
        agg = np.add.reduceat(s64, starts)
    else:
        agg = np.add.reduceat(s64, starts) / np.diff(np.append(starts, convs.size))
    return convs[starts], agg.astype(np.float32)


def match_children(shard, docs, scores, score_mode: str):
    """ToChildBlockJoinQuery, SHARD-LOCAL: the parent query aggregates to
    (conv, parent score) exactly as `match_parents`, then every LIVE child
    of a matching conv carries its parent's score.  → (doc, float32)."""
    pconvs, pscores = match_parents(shard, docs, scores, score_mode)
    if pconvs.size == 0:
        return _EMPTY_I64, np.empty(0, dtype=np.float32)
    fd, fc = shard._convs()
    # vectorized conv → parent-score gather: sort parents, searchsorted
    order = np.argsort(pconvs, kind="stable")
    sp, ss = pconvs[order], pscores[order]
    pos = np.minimum(np.searchsorted(sp, fc), sp.size - 1)
    hit = sp[pos] == fc
    kids, kscores = fd.astype(np.int64)[hit], ss[pos[hit]]
    live = shard._live_mask(kids)
    if live is not None:
        kids, kscores = kids[live], kscores[live]
    return kids, kscores.astype(np.float32)


def diversified_top_k(shard, docs, scores, k: int, max_per_parent: int):
    """DiversifiedTopDocsCollector (lucene/misc/.../search/Diversified
    TopDocsCollector.java): the top k by (float32 score desc, docID asc)
    keeping at most `max_per_parent` hits per conv.  A conv block never
    spans shards, so the per-conv cap is exact here and the page merges
    like any top-k.  → (docs int64, float32 scores)."""
    s32 = scores.astype(np.float32)
    if docs.size == 0:
        return docs, s32
    order = np.lexsort((docs, -s32))
    codes = pd.factorize(_conv_runs(shard, docs)[0][order])[0]
    occ = pd.Series(codes).groupby(codes).cumcount().to_numpy()  # rank within its conv
    keep = order[occ < max_per_parent][:k]
    return docs[keep], s32[keep]


def match_parents_childfield(shard, docs, scores, field: str, sel: str):
    """ToParentBlockJoinSortField (BlockJoinSelector min/max): a parent's
    sort value is min|max of `field` over its MATCHING children,
    aggregated per conv shard-locally.  → (conv_id, float64 value)."""
    empty = (np.empty(0, dtype=object), np.empty(0, np.float64))
    at = shard._dv_at(field, docs, numeric=True) if docs.size else None
    if at is None or not at[1].any():
        return empty
    vals, present = at
    convs, starts = _conv_runs(shard, docs[present])
    v = vals[present]
    agg = np.maximum.reduceat(v, starts) if sel == "max" else np.minimum.reduceat(v, starts)
    return convs[starts], agg.astype(np.float64)


def join_values(shard, docs, scores, field: str) -> list:
    """JoinQParserPlugin from-side (solr/core/src/java/org/apache/solr/
    search/JoinQParserPlugin.java): the `field` doc values of every
    matching live doc, as this shard's UNIQUE value set — only distinct
    join keys cross the wire (JoinQuery's from-side term enumeration).
    Per key, the score partials of JoinUtil's ScoreMode (lucene/join/src/
    java/org/apache/lucene/search/join/ScoreMode.java): (sum64, count,
    max32), accumulated in docID order within the shard (bincount is
    sequential) and merged on the driver in shard order — deterministic
    for a given layout; max/count are order-free.  → sorted [(value,
    sum, count, max)]."""
    at = shard._dv_at(field, docs)
    if at is None or docs.size == 0:
        return []
    vals, keep = at
    vals, s64 = vals[keep], scores[keep].astype(np.float32).astype(np.float64)
    if not vals.size:
        return []
    codes, uniq = pd.factorize(vals)
    sums = np.bincount(codes, weights=s64)
    counts = np.bincount(codes)
    maxs = np.full(len(uniq), -np.inf)
    np.maximum.at(maxs, codes, s64)
    return sorted(
        (v, float(s), int(c), float(m))
        for v, s, c, m in zip(uniq.tolist(), sums, counts, maxs)
    )


COLLECT = {
    fn.__name__: fn
    for fn in (
        top_scores,
        count_matches,
        facet_query_counts,
        facet_counts,
        facet_tuple_counts,
        range_facet_counts,
        stats_partial,
        facet_stats_partial,
        top_groups,
        top_groups_sorted,
        top_k_collapse,
        expand_members,
        top_k_sorted,
        scores_of,
        top_k_boosted,
        franged_hits,
        match_parents,
        match_children,
        diversified_top_k,
        match_parents_childfield,
        join_values,
    )
}
