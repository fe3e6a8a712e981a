"""Solr local-params QParser dispatch (solr/core/src/java/org/apache/
solr/search/QParserPlugin.java + LocalParams syntax, `{!type k=v ...}body`).

`parse_local_params` splits a query string into (parser name, params,
body); `dispatch` routes to the Searcher method implementing that parser —
the engine's analog of the QParserPlugin registry:

    {!lucene}...            → Searcher.search           (default)
    {!complexphrase}"a b*"  → Searcher.search_complex_phrase
    {!surround}a 3w b       → Searcher.search_surround
    {!boost b=expr}query    → Searcher.search_boosted
    {!join from=f to=t score=m}subq        → Searcher.join_search
    {!graph from=f to=t maxDepth=N ...}q   → Searcher.graph_search
    {!parent score=m}childq / {!child score=m}parentq → block joins
    {!payload_score func=max}term          → Searcher.payload_score
    {!bool must= should= must_not= filter= mm=} → boolean composition
    {!term f=}/{!raw f=}/{!terms f=}       → exact term / TermInSet
    {!func}expr                            → Searcher.search_func
    {!frange l= u=}expr (main or fq)       → Searcher.search_franged
    {!mlt mintf= mindf= maxqt=}doc_id      → Searcher.more_like_this
    {!dismax qf= mm= tie= pf= ps=}         → escaped-user-text dismax
    {!collapse field=f} (as fq)            → Searcher.search_collapse

Param values may be bare, 'single-' or "double-quoted"; `v=` overrides the
trailing body (the LocalParams `v` convention)."""

from __future__ import annotations

import re

_LP_RE = re.compile(
    r"^\{!\s*([\w.]+)?((?:\s+[\w.]+=(?:'[^']*'|\"[^\"]*\"|[^\s}]+))*)\s*\}(.*)$",
    re.DOTALL,
)
_PARAM_RE = re.compile(r"([\w.]+)=('[^']*'|\"[^\"]*\"|[^\s}]+)")
_PHRASE_RE = re.compile(r'^\s*"(.*)"(?:~(\d+))?\s*$', re.DOTALL)


class QParserError(ValueError):
    pass


def parse_local_params(q: str) -> tuple[str, dict[str, str], str]:
    """→ (parser_name, params, body).  A query without a `{!...}` prefix
    is ('lucene', {}, q)."""
    m = _LP_RE.match(q)
    if not m:
        return "lucene", {}, q
    name = m.group(1) or "lucene"
    params: dict[str, str] = {}
    for pm in _PARAM_RE.finditer(m.group(2) or ""):
        v = pm.group(2)
        if v and v[0] in "'\"" and v[-1] == v[0]:
            v = v[1:-1]
        params[pm.group(1)] = v
    body = params.pop("v", m.group(3).strip())
    return name.lower(), params, body


def parse_local_params_multi(q: str) -> tuple[str, list[tuple[str, str]], str]:
    """Like parse_local_params but preserves REPEATED params as an ordered
    (key, value) list — `{!bool must=a must=b}` carries two must clauses
    (BoolQParserPlugin accepts repeated clause params)."""
    m = _LP_RE.match(q)
    if not m:
        return "lucene", [], q
    name = m.group(1) or "lucene"
    pairs: list[tuple[str, str]] = []
    body = m.group(3).strip()
    for pm in _PARAM_RE.finditer(m.group(2) or ""):
        v = pm.group(2)
        if v and v[0] in "'\"" and v[-1] == v[0]:
            v = v[1:-1]
        if pm.group(1) == "v":
            body = v
        else:
            pairs.append((pm.group(1), v))
    return name.lower(), pairs, body


def _bool(v: str | None, default: bool) -> bool:
    if v is None:
        return default
    return v.lower() in ("true", "1", "yes", "on")


def _subquery_node(searcher, s: str):
    """Parse a clause body with the default lucene parser (nested local
    params inside clause values are rejected — keep clause bodies plain)."""
    if s.lstrip().startswith("{!"):
        raise QParserError(f"nested local params unsupported in clause: {s!r}")
    return searcher._parse(s)


def _lucene_main_node(searcher, params: dict, body: str):
    """Parse a default-parser main query honoring `q.op=AND` (unsigned
    SHOULD clauses become MUST) — shared by the plain-fq and sort paths so
    the local param is never silently dropped.

    The rewrite is deliberately TOP-LEVEL ONLY: this grammar has no
    parenthesized sub-queries, so any nested bool in the parse tree is an
    analyzer expansion (synonym/graph alternatives) whose SHOULD means
    "one of these interchangeable terms" — Lucene's setDefaultOperator
    does not AND-ify analysis alternatives either.  Recursing would turn
    `wifi` (→ wi OR fi OR wifi) into an unmatchable conjunction."""
    node = searcher._parse(body)
    if node is not None and params.get("q.op", "").upper() == "AND" and node.kind == "bool":
        from .query import QueryNode

        node = QueryNode(
            "bool",
            clauses=[("MUST" if occ == "SHOULD" else occ, c) for occ, c in node.clauses],
        )
    return node


def dispatch(
    searcher,
    q: str,
    k: int = 10,
    similarity: str = "bm25",
    fq: str | None = None,
    start: int = 0,
    sort: str | None = None,
):
    """Execute `q` through the parser its local params name — the
    SearchHandler front door.  `fq={!collapse field=f}` applies query-time
    collapse to the main query (Solr's collapse-as-filter contract);
    `start` is offset paging (rows=k & start=N → fetch N+k, return the
    page — use search_after for deep pages); `sort="f1 asc, f2 desc"`
    replaces score ranking with the compound field sort (search_sorted —
    default-parser main queries only)."""
    if sort is not None:
        qname, qp, qbody = parse_local_params(q)
        if qname != "lucene" or fq is not None:
            raise QParserError("sort= composes with the default parser only (no fq)")
        node = _lucene_main_node(searcher, qp, qbody)
        if node is None:
            return []
        page = searcher.search_sorted(node, sort, k=start + k)
        return page[start:]
    if start:
        page = dispatch(searcher, q, k=start + k, similarity=similarity, fq=fq)
        return page[start:]
    if fq is not None:
        fqs = fq if isinstance(fq, list) else [fq]
        if all(not f.lstrip().startswith("{!") for f in fqs):
            # plain filter queries (the everyday `fq=field:value` contract):
            # each becomes a FILTER clause — must match, contributes no
            # score (BooleanClause.Occur.FILTER); scores stay the main
            # query's alone.  An fq that analyzes to nothing matches
            # nothing (empty result, like a filter on a stopword).
            qname, qp, qbody = parse_local_params(q)
            if qname != "lucene":
                raise QParserError(f"plain fq composes with the default parser only, not {{!{qname}}}")
            node = searcher._compose_fq(_lucene_main_node(searcher, qp, qbody), fqs)
            return [] if node is None else searcher.search_node(node, k, similarity=similarity)
        if len(fqs) > 1:
            raise QParserError("only one {!...} local-params fq is supported per request")
        fname, fparams, fbody = parse_local_params(fq)
        qname, qp, qbody = parse_local_params(q)
        if qname != "lucene":
            # collapse/frange parse their main query with the default
            # parser — a {!surround}/{!complexphrase} main query would
            # silently misparse as lucene term syntax, so reject the mix
            raise QParserError(f"fq composes with the default parser only, not {{!{qname}}}")
        if fname == "collapse" and "field" in fparams:
            # the main node goes through _lucene_main_node like the frange
            # and plain-fq branches, so q.op=AND is never silently dropped
            return searcher.search_collapse(
                _lucene_main_node(searcher, qp, qbody),
                fparams["field"],
                k,
                similarity=similarity,
                min_field=fparams.get("min"),
                max_field=fparams.get("max"),
                null_policy=fparams.get("nullPolicy", "ignore"),
            )
        if fname == "frange":
            # fq={!frange l=0 u=10 incl=true incu=false}expr — Solr's
            # FunctionRangeQParserPlugin filter contract; the main node is
            # built through _lucene_main_node so q.op=AND survives (and
            # count_franged in handle_select sees the SAME node)
            return searcher.search_franged(
                _lucene_main_node(searcher, qp, qbody),
                fbody,
                lo=float(fparams["l"]) if "l" in fparams else None,
                hi=float(fparams["u"]) if "u" in fparams else None,
                k=k,
                incl=_bool(fparams.get("incl"), True),
                incu=_bool(fparams.get("incu"), True),
                similarity=similarity,
            )
        raise QParserError(f"unsupported fq parser: {fq!r}")
    name, p, body = parse_local_params(q)
    if name == "lucene":
        node = _lucene_main_node(searcher, p, body)  # honors q.op=AND
        return [] if node is None else searcher.search_node(node, k, similarity=similarity)
    if name == "field":
        # {!field f=role v=tool} / {!field f=role}tool — exact keyword term
        # (FieldQParserPlugin; no analysis, no wildcard interpretation)
        if "f" not in p:
            raise QParserError("{!field} requires f=")
        from .query import QueryNode

        return searcher.search_node(
            QueryNode("term", terms=[f"{p['f'].lower()}:{body.lower()}"]), k, similarity=similarity
        )
    if name == "prefix":
        # {!prefix f=tool v=ba} — PrefixQParserPlugin (no escaping needed)
        if "f" not in p:
            raise QParserError("{!prefix} requires f=")
        from .query import QueryNode

        return searcher.search_node(
            QueryNode("prefix", pattern=f"{p['f'].lower()}:{body.lower()}"), k, similarity=similarity
        )
    if name == "bool":
        # {!bool must='a b' should=c must_not=d filter=e mm=N} —
        # BoolQParserPlugin; clause params may repeat, each value parses
        # with the default lucene parser
        from .query import QueryNode

        _, pairs, _ = parse_local_params_multi(q)
        occur = {"must": "MUST", "must_not": "MUST_NOT", "should": "SHOULD", "filter": "FILTER"}
        clauses = []
        mm = 0
        for key, val in pairs:
            if key == "mm":
                mm = int(val)
                continue
            if key not in occur:
                raise QParserError(f"{{!bool}} unknown param {key!r}")
            sub = _subquery_node(searcher, val)
            if sub is None:
                if key in ("must", "filter"):
                    return []  # an unmatchable required clause
                continue
            clauses.append((occur[key], sub))
        if not clauses:
            return []
        return searcher.search_node(
            QueryNode("bool", clauses=clauses, min_should_match=mm), k, similarity=similarity
        )
    if name in ("term", "raw"):
        # {!term f=F}value / {!raw f=F}value — TermQParserPlugin /
        # RawQParserPlugin: the body is ONE exact term, no analysis, no
        # special-character interpretation (the index stores analyzed
        # lowercase terms, so a mixed-case body simply matches nothing —
        # the honest raw-bytes contract)
        if "f" not in p:
            raise QParserError(f"{{!{name}}} requires f=")
        from .query import QueryNode

        fld = p["f"].lower()
        term = body if fld == "text" else f"{fld}:{body}"
        return searcher.search_node(QueryNode("term", terms=[term]), k, similarity=similarity)
    if name == "terms":
        # {!terms f=F separator=,}v1,v2,... — TermsQParserPlugin →
        # TermInSetQuery (constant-score union)
        if "f" not in p:
            raise QParserError("{!terms} requires f=")
        from .query import QueryNode

        fld = p["f"].lower()
        sep = p.get("separator", ",")
        vals = [v.strip() for v in body.split(sep) if v.strip()]
        if not vals:
            return []
        terms = [v if fld == "text" else f"{fld}:{v}" for v in vals]
        return searcher.search_node(QueryNode("term_set", terms=terms), k, similarity=similarity)
    if name == "func":
        # {!func}expr — FunctionQParserPlugin: all docs, score = expr
        return searcher.search_func(body, k)
    if name == "frange":
        # {!frange l= u=}expr as the MAIN query: FunctionRangeQuery over
        # MatchAllDocs (constant score 1.0 for in-range docs)
        return searcher.search_franged(
            "*:*",
            body,
            lo=float(p["l"]) if "l" in p else None,
            hi=float(p["u"]) if "u" in p else None,
            k=k,
            incl=_bool(p.get("incl"), True),
            incu=_bool(p.get("incu"), True),
            similarity=similarity,
        )
    if name == "mlt":
        # {!mlt mintf=1 mindf=1 maxqt=10}doc_id — MLTQParserPlugin (body
        # is the seed document's uniqueKey)
        return searcher.more_like_this(
            int(body),
            k=k,
            max_query_terms=int(p.get("maxqt", 10)),
            min_tf=int(p.get("mintf", 1)),
            min_doc_freq=int(p.get("mindf", 1)),
            similarity=similarity,
        )
    if name == "dismax":
        # {!dismax qf= mm= tie= pf= ps=} — DisMaxQParser: user text is
        # ESCAPED (no field:/boolean/phrase syntax), each term dismaxed
        # across qf; pf2/pf3 are edismax-only
        from .query import edismax

        def fb2(s: str | None) -> dict | None:
            if s is None:
                return None
            out: dict = {}
            for part in s.split():
                f, _, b = part.partition("^")
                out[None if f == "text" else f] = float(b) if b else 1.0
            return out

        plain = re.sub(r'[+\-!(){}\[\]^"~*?:\\/]', " ", body)
        node = edismax(
            plain,
            fb2(p.get("qf", "text")) or {None: 1.0},
            tiebreak=float(p.get("tie", 0.0)),
            min_should_match=int(p.get("mm", 0)),
            pf=fb2(p.get("pf")),
            ps=int(p.get("ps", 0)),
        )
        return [] if node is None else searcher.search_node(node, k, similarity=similarity)
    if name == "complexphrase":
        pm = _PHRASE_RE.match(body)
        text = pm.group(1) if pm else body
        slop = int(pm.group(2)) if (pm and pm.group(2)) else 0
        return searcher.search_complex_phrase(text, k, slop=slop, similarity=similarity)
    if name == "surround":
        return searcher.search_surround(body, k, similarity=similarity)
    if name == "boost":
        if "b" not in p:
            raise QParserError("{!boost} requires b=<function>")
        return searcher.search_boosted(body, p["b"], k, similarity=similarity)
    if name == "join":
        if "from" not in p or "to" not in p:
            raise QParserError("{!join} requires from= and to=")
        return searcher.join_search(
            p["from"], p["to"], body, k, score=p.get("score", "none")
        )
    if name == "graph":
        if "from" not in p or "to" not in p:
            raise QParserError("{!graph} requires from= and to=")
        return searcher.graph_search(
            p["from"],
            p["to"],
            body,
            max_depth=int(p.get("maxDepth", 1)),
            k=k,
            return_root=_bool(p.get("returnRoot"), True),
            traversal_filter=p.get("traversalFilter"),
        )
    if name == "edismax":
        # {!edismax qf='text^1 role^2' mm=N tie=t pf='text^3' ps=S pf2= pf3=}
        # — "text" names the analyzed default field (None key)
        from .query import edismax

        def fb(s: str | None) -> dict | None:
            if s is None:
                return None
            out: dict = {}
            for part in s.split():
                f, _, b = part.partition("^")
                out[None if f == "text" else f] = float(b) if b else 1.0
            return out

        node = edismax(
            body,
            fb(p.get("qf", "text")) or {None: 1.0},
            tiebreak=float(p.get("tie", 0.0)),
            min_should_match=int(p.get("mm", 0)),
            pf=fb(p.get("pf")),
            ps=int(p.get("ps", 0)),
            pf2=fb(p.get("pf2")),
            pf3=fb(p.get("pf3")),
        )
        return [] if node is None else searcher.search_node(node, k, similarity=similarity)
    if name == "parent":
        # {!parent score=m}childQuery → ToParentBlockJoin (the engine's
        # block structure fixes `which=` to conversation parents)
        return searcher.search_parents(body, k, score_mode=p.get("score", "max"))
    if name == "child":
        # {!child score=m}parentQuery → ToChildBlockJoin
        return searcher.search_children(body, k, score_mode=p.get("score", "max"))
    if name == "rerank":
        # {!rerank reRankQuery='...' reRankDocs=N reRankWeight=w}mainQuery
        if "reRankQuery" not in p:
            raise QParserError("{!rerank} requires reRankQuery=")
        return searcher.rerank_query(
            body,
            p["reRankQuery"],
            k=k,
            rerank_docs=int(p.get("reRankDocs", 200)),
            weight=float(p.get("reRankWeight", 2.0)),
            similarity=similarity,
        )
    if name == "ltr":
        # {!ltr model=m reRankDocs=N}query — LTRQParserPlugin over the
        # ManagedModelStore analog (Searcher.register_ltr_model)
        models = getattr(searcher, "_ltr_models", {})
        if p.get("model") not in models:
            raise QParserError(f"unknown LTR model {p.get('model')!r}")
        model, fx = models[p["model"]]
        return searcher.rerank_ltr(
            body, model, rerank_docs=int(p.get("reRankDocs", 50)), k=k, feature_exprs=fx
        )
    if name == "payload_score":
        return searcher.payload_score(
            body,
            k,
            func=p.get("func", "max"),
            include_span_score=_bool(p.get("includeSpanScore"), False),
        )
    raise QParserError(f"unknown query parser {name!r}")
