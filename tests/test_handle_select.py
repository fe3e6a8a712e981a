"""/select request-handler envelope (SearchHandler + ResponseBuilder):
params dict in, Solr-shaped response out — every section must equal its
component method's output."""

from tests.test_build_search import corpus, index, oracle, searcher  # noqa: F401


def test_handle_select_envelope(searcher):  # noqa: F811
    r = searcher.handle_select(
        {
            "q": "tool output",
            "rows": 5,
            "fq": "role:tool",
            "facet.field": ["role", "tool"],
            "facet.query": {"errors": "error"},
            "stats.field": "turn_idx",
        }
    )
    assert r["responseHeader"]["status"] == 0
    assert r["response"]["numFound"] == searcher.count("tool output", fq="role:tool")
    hits = searcher.query("tool output", 5, fq="role:tool")
    assert [d["doc_id"] for d in r["response"]["docs"]] == [d for d, _ in hits]
    # sections compute over q∩fq (the ResponseBuilder DocSet contract)
    assert r["facet_counts"]["facet_fields"]["role"] == searcher.facet_search(
        "tool output", "role", limit=10, fq="role:tool"
    )
    assert r["facet_counts"]["facet_queries"] == searcher.facet_query(
        "tool output", {"errors": "error"}, fq="role:tool"
    )
    assert r["stats"]["stats_fields"]["turn_idx"] == searcher.stats_field(
        "tool output", "turn_idx", fq="role:tool"
    )
    # the filter actually bites: only role=tool buckets remain, and their
    # counts sum to numFound
    ff = r["facet_counts"]["facet_fields"]["role"]
    assert [v for v, _ in ff] == ["tool"]
    assert sum(c for _, c in ff) == r["response"]["numFound"]
    # non-vacuous bite check on a broader q: filtered facet differs from
    # the unfiltered one
    rb = searcher.handle_select({"q": "error", "rows": 2, "fq": "role:assistant", "facet.field": "role"})
    assert rb["facet_counts"]["facet_fields"]["role"] != searcher.facet_search("error", "role", limit=10)
    assert [v for v, _ in rb["facet_counts"]["facet_fields"]["role"]] == ["assistant"]


def test_handle_select_fl_sort_paging(searcher):  # noqa: F811
    r = searcher.handle_select(
        {"q": "tool output", "rows": 4, "start": 2, "sort": "turn_idx desc", "fl": "turn_idx,role"}
    )
    full = searcher.select("tool output", 6, fl=["turn_idx", "role"], sort="turn_idx desc")
    assert [d["doc_id"] for d in r["response"]["docs"]] == full["doc_id"].iloc[2:].tolist()
    assert set(r["response"]["docs"][0]) == {"doc_id", "turn_idx", "role"}
    # hl section present and doc-keyed
    rh = searcher.handle_select({"q": "assistant", "rows": 2, "hl": "true"})
    assert set(rh["highlighting"]) == {d["doc_id"] for d in rh["response"]["docs"]}


def test_handle_select_range_and_grouping(searcher):  # noqa: F811
    r = searcher.handle_select(
        {
            "q": "tool output",
            "rows": 3,
            "facet.range": "turn_idx",
            "facet.range.start": 0,
            "facet.range.end": 12,
            "facet.range.gap": 4,
            "group.field": "role",
            "group.limit": 2,
            "group.sort": "turn_idx asc",
        }
    )
    assert r["facet_counts"]["facet_ranges"]["turn_idx"] == searcher.facet_range(
        "tool output", "turn_idx", 0, 12, 4
    )
    assert r["grouped"]["role"] == searcher.search_grouped(
        "tool output", "role", k=3, group_limit=2, group_sort="turn_idx asc"
    )
    # bucket arithmetic needs finite bounds, gap > 0 and end > start: bad
    # params are refused on the driver before any shard is asked
    import pytest

    from lucene_solr_ray.search.qparser import QParserError

    calls = []
    scatter = searcher._scatter
    searcher._scatter = lambda method, *a: calls.append(method) or scatter(method, *a)
    try:
        for start, end, gap in [(0, 12, 0), (0, 12, -4), (12, 0, 4), (0, 12, "nan"), (0, "inf", 4)]:
            with pytest.raises(QParserError):
                searcher.handle_select(
                    {"q": "tool output", "rows": 3, "facet.range": "turn_idx", "facet.range.start": start,
                     "facet.range.end": end, "facet.range.gap": gap, "facet.field": "role"}
                )
            with pytest.raises(QParserError):
                searcher.facet_range("tool output", "turn_idx", float(start), float(end), float(gap))
    finally:
        del searcher._scatter
    assert calls == []


def test_handle_select_one_collect_request(searcher):  # noqa: F811
    """numFound, every section and the page ride ONE `collect` scatter
    over the q∩fq match set."""
    calls = []
    scatter = searcher._scatter
    searcher._scatter = lambda method, *a: calls.append(method) or scatter(method, *a)
    params = {
        "q": "output",
        "rows": 4,
        "fq": "role:tool",
        "facet.field": ["role", "tool"],
        "facet.query": {"errors": "error"},
        "facet.range": "turn_idx",
        "facet.range.start": 0,
        "facet.range.end": 12,
        "facet.range.gap": 4,
        "stats.field": "turn_idx",
        "group.field": "tool",
    }
    try:
        r = searcher.handle_select(params)
    finally:
        del searcher._scatter
    assert calls == ["collect"]
    # the page is the default-parser page, and each section still equals
    # its own component call
    assert [(d["doc_id"], d["score"]) for d in r["response"]["docs"]] == searcher.query("output", 4, fq="role:tool")
    fc = r["facet_counts"]
    assert r["response"]["numFound"] == searcher.count("output", fq="role:tool") > 0
    assert fc["facet_fields"]["tool"] == searcher.facet_search("output", "tool", fq="role:tool")
    assert fc["facet_queries"] == searcher.facet_query("output", {"errors": "error"}, fq="role:tool")
    assert fc["facet_ranges"]["turn_idx"] == searcher.facet_range("output", "turn_idx", 0, 12, 4, fq="role:tool")
    assert r["grouped"]["tool"] == searcher.search_grouped("output", "tool", k=4, fq="role:tool")
    # stats.percentiles as Solr's comma string = the list form
    rp = searcher.handle_select({"q": "output", "rows": 0, "stats.field": "turn_idx", "stats.percentiles": "25,50,90"})
    want = searcher.stats_field("output", "turn_idx", percentiles=[25, 50, 90])
    assert rp["stats"]["stats_fields"]["turn_idx"] == want and set(want["percentiles"]) == {25.0, 50.0, 90.0}


def test_handle_select_pivot(searcher):  # noqa: F811
    r = searcher.handle_select({"q": "output", "rows": 2, "facet.pivot": "role,tool", "facet.limit": 4})
    assert r["facet_counts"]["facet_pivot"]["role,tool"] == searcher.facet_pivot_search(
        "output", ["role", "tool"], limit=4
    )


def test_handle_select_consistency_review_fixes(searcher):  # noqa: F811
    """Review fixes: numFound with local-params q/fq; hl keys follow the
    returned page; section params with exotic parsers are refused."""
    import pytest

    from lucene_solr_ray.search.qparser import QParserError

    # q.op main query: numFound matches the AND semantics of the docs
    r = searcher.handle_select({"q": "{!lucene q.op=AND}error ok", "rows": 10**6})
    assert r["response"]["numFound"] == len(r["response"]["docs"]) == len(
        searcher.search("+error +ok", 10**6)
    )
    # local-params fq: numFound is the filtered total, not the page size
    r2 = searcher.handle_select({"q": "output", "rows": 3, "fq": "{!frange l=0 u=3}turn_idx"})
    full = searcher.query("output", 10**6, fq="{!frange l=0 u=3}turn_idx")
    assert r2["response"]["numFound"] == len(full) > 3 == len(r2["response"]["docs"])
    # hl keys == the returned (paged) docs
    rh = searcher.handle_select({"q": "assistant", "rows": 3, "start": 4, "hl": "true"})
    assert set(rh["highlighting"]) == {d["doc_id"] for d in rh["response"]["docs"]}
    # sections with an exotic parser or local-params fq refuse loudly
    with pytest.raises(QParserError):
        searcher.handle_select({"q": "{!surround}a 3w b", "facet.field": "role"})
    with pytest.raises(QParserError):
        searcher.handle_select({"q": "output", "fq": "{!frange l=0 u=3}turn_idx", "stats.field": "turn_idx"})


def test_rows_zero_and_facet_sort_index(searcher):  # noqa: F811
    r = searcher.handle_select({"q": "error", "rows": 0, "facet.field": "role", "facet.sort": "index"})
    assert r["response"]["docs"] == [] and r["response"]["numFound"] == searcher.count("error")
    ff = r["facet_counts"]["facet_fields"]["role"]
    assert [v for v, _ in ff] == sorted(v for v, _ in ff)  # index order
    assert dict(ff) == dict(searcher.facet_search("error", "role", limit=10))


def test_third_review_fixes(searcher, tmp_path):  # noqa: F811
    """Third review pass: q.op faceted requests serve (node threaded to
    sections); facet.limit shared default; NaN-safe JSONL."""
    import math

    import ray.data as rd

    from lucene_solr_ray.sources.loaders import read_json_docs
    from lucene_solr_ray.sources.sinks import write_jsonl

    r = searcher.handle_select({"q": "{!lucene q.op=AND}error ok", "rows": 2, "facet.field": "role"})
    strict = {d for d, _ in searcher.search("+error +ok", 10**6)}
    assert r["response"]["numFound"] == len(strict)
    assert sum(c for _, c in r["facet_counts"]["facet_fields"]["role"]) == len(strict)
    # NaN/inf round-trip as nulls
    rows = [{"i": 0, "x": float("nan")}, {"i": 1, "x": float("inf")}, {"i": 2, "x": 1.5}]
    write_jsonl(rd.from_items(rows), tmp_path / "j")
    import glob

    back = read_json_docs(glob.glob(str(tmp_path / "j" / "*.jsonl"))).to_pandas().sort_values("i")
    assert math.isnan(back["x"].iloc[0]) or back["x"].iloc[0] is None  # null → NaN in pandas
    assert back["x"].iloc[2] == 1.5


def test_r5_advice_fixes(searcher):  # noqa: F811
    """r4 ADVICE: sort with exotic q/fq refuses (the fallback is
    score-ranked); frange-fq numFound is a counts-only scatter and exact;
    numFoundExact rides the envelope; hl hit_score on sort pages carries
    the REAL BM25 score, not 0.0."""
    import pytest

    from lucene_solr_ray.search.qparser import QParserError

    with pytest.raises(QParserError):
        searcher.handle_select({"q": "{!surround}tool 3w output", "sort": "turn_idx desc"})
    with pytest.raises(QParserError):
        searcher.handle_select(
            {"q": "output", "fq": "{!frange l=0 u=3}turn_idx", "sort": "turn_idx asc"}
        )

    r = searcher.handle_select({"q": "output", "rows": 3, "fq": "{!frange l=0 u=3}turn_idx"})
    assert r["response"]["numFound"] == len(
        searcher.query("output", 10**6, fq="{!frange l=0 u=3}turn_idx")
    )
    assert r["response"]["numFoundExact"] is True
    # default path carries the flag too
    assert searcher.handle_select({"q": "error", "rows": 1})["response"]["numFoundExact"] is True
    # a saturating cap reports numFoundExact=false
    rc = searcher.handle_select(
        {"q": "{!surround}tool 3w output", "rows": 1, "numFoundCap": 1}
    )
    assert rc["response"]["numFoundExact"] is False and rc["response"]["numFound"] == 1

    # hl over a sort= page: hit scores are the docs' real query scores
    rh = searcher.handle_select(
        {"q": "assistant", "rows": 3, "sort": "turn_idx desc", "hl": "true"}
    )
    ids = [d["doc_id"] for d in rh["response"]["docs"]]
    smap = searcher._scores_for_ids(searcher._parse("assistant"), ids)
    got = {d: s for d, s, _ in searcher.highlight("assistant", 3, hits=[(i, smap[i]) for i in ids])}
    assert all(smap[i] > 0.0 for i in ids)
    assert set(rh["highlighting"]) == set(ids)
    assert got  # the same hits drive the envelope's highlighting section


def test_r5_review_fixes(searcher):  # noqa: F811
    """r5 review pass: frange count and page share flag parsing (_bool),
    the q.op-applied main node, and refuse multi-filter lists identically."""
    import pytest

    from lucene_solr_ray.search.qparser import QParserError

    # incl=no parses as False on BOTH count and page paths
    fq = "{!frange l=0 u=3 incl=no}turn_idx"
    r = searcher.handle_select({"q": "output", "rows": 5, "fq": fq})
    full = searcher.query("output", 10**6, fq=fq)
    assert r["response"]["numFound"] == len(full)
    assert [d["doc_id"] for d in r["response"]["docs"]] == [d for d, _ in full[:5]]
    # incl flips the boundary exactly: (0,3] = [0,3] minus the turn_idx==0
    # slice (an identity, so the check can't go vacuous on corpus luck)
    incl = searcher.handle_select({"q": "output", "rows": 0, "fq": "{!frange l=0 u=3}turn_idx"})
    zero = len(searcher.query("output", 10**6, fq="{!frange l=0 u=0}turn_idx"))
    assert r["response"]["numFound"] == incl["response"]["numFound"] - zero
    # and the boundary DOES bite somewhere: a query with turn-0 matches
    q0 = "user input"
    z0 = len(searcher.query(q0, 10**6, fq="{!frange l=0 u=0}turn_idx"))
    if z0:
        lo = searcher.handle_select({"q": q0, "rows": 0, "fq": "{!frange l=0 u=3 incl=no}turn_idx"})
        hi = searcher.handle_select({"q": q0, "rows": 0, "fq": "{!frange l=0 u=3}turn_idx"})
        assert lo["response"]["numFound"] == hi["response"]["numFound"] - z0 < hi["response"]["numFound"]

    # a frange fq in a multi-filter list refuses loudly even at rows=0
    with pytest.raises(QParserError):
        searcher.handle_select(
            {"q": "output", "rows": 0, "fq": ["{!frange l=0 u=3}turn_idx", "role:user"]}
        )

    # q.op=AND survives into BOTH the frange count and the frange page
    fq2 = "{!frange l=0 u=30}turn_idx"
    rand = searcher.handle_select({"q": "{!lucene q.op=AND}error ok", "rows": 10**6, "fq": fq2})
    assert rand["response"]["numFound"] == len(rand["response"]["docs"])
    ror = searcher.handle_select({"q": "error ok", "rows": 0, "fq": fq2})
    assert rand["response"]["numFound"] < ror["response"]["numFound"]  # AND bites
    strict = {d for d, _ in searcher.search("+error +ok", 10**6)}
    assert {d["doc_id"] for d in rand["response"]["docs"]} <= strict


def test_percentile_tdigest_empty_input(tmp_path):
    """r5 review: an empty lineitem must return NaNs, not loop forever."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.pipelines.relational import percentile_tdigest

    pq.write_table(
        pa.table({"l_extendedprice": pa.array([], type=pa.float64())}),
        tmp_path / "lineitem.parquet",
    )
    out = percentile_tdigest(str(tmp_path))
    assert list(out.columns) == ["p50", "p90", "p99"]
    assert out.isna().all().all()
