"""Relational / aggregate operator pipelines over the TPC-H-ish test tables.

Each entry re-expresses a reference operator Ray-Data-first and carries a
DuckDB oracle for the driver's correctness gate.  Reference anchors are in
the per-pipeline docstrings (SURVEY.md §2.5–§2.8).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .common import Pipeline, bucketed, cents, merge_partials, read, ts_us

# --------------------------------------------------------------------------
# §2.6 field facet (SimpleFacets / FacetComponent): group-by-term counts,
# ordered by count desc then value — the classic facet response.


def facet_field(sf_dir: str):
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["lang"].value_counts()
        return pd.DataFrame({"lang": vc.index, "cnt": vc.to_numpy()})

    ds = read(sf_dir, "documents", ["lang"]).map_batches(partial, batch_format="pandas")
    df = merge_partials(ds, ["lang"], {"cnt": "sum"})
    df["cnt"] = df["cnt"].astype("int64")
    return df.sort_values(["cnt", "lang"], ascending=[False, True]).reset_index(drop=True)


FACET_FIELD_SQL = """
SELECT lang, CAST(COUNT(*) AS BIGINT) AS cnt
FROM documents GROUP BY lang ORDER BY cnt DESC, lang
"""

# Classic facet parameter surface (solr/core/src/java/org/apache/solr/
# request/SimpleFacets.java): facet.prefix + facet.contains narrow the
# bucket domain, facet.sort=index orders lexicographically, facet.offset/
# facet.limit page, facet.mincount prunes, facet.missing appends the
# null-bucket count as a sentinel row.  The prefix/contains filters run
# INSIDE the per-batch combiner, so pruned buckets never shuffle.

# prefix must NOT imply contains, or the contains path is untested
FACET_PREFIX, FACET_CONTAINS = "src", "1"
FACET_OFFSET, FACET_LIMIT, FACET_MINCOUNT = 2, 5, 1
FACET_MISSING_SENTINEL = "__missing__"


def facet_field_params(sf_dir: str):
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["source"]
        n_missing = int(s.isna().sum())
        keep = s.dropna()
        keep = keep[keep.str.startswith(FACET_PREFIX) & keep.str.contains(FACET_CONTAINS, regex=False)]
        vc = keep.value_counts()
        out = pd.DataFrame({"source": vc.index, "cnt": vc.to_numpy()})
        if n_missing:
            out = pd.concat(
                [out, pd.DataFrame({"source": [FACET_MISSING_SENTINEL], "cnt": [n_missing]})]
            )
        return out

    ds = read(sf_dir, "documents", ["source"]).map_batches(partial, batch_format="pandas")
    df = merge_partials(ds, ["source"], {"cnt": "sum"})
    df["cnt"] = df["cnt"].astype("int64")
    missing = df[df["source"] == FACET_MISSING_SENTINEL]
    buckets = df[(df["source"] != FACET_MISSING_SENTINEL) & (df["cnt"] >= FACET_MINCOUNT)]
    buckets = buckets.sort_values("source")  # facet.sort=index
    page = buckets.iloc[FACET_OFFSET : FACET_OFFSET + FACET_LIMIT]
    if missing.empty:  # facet.missing=true always reports, even count 0
        missing = pd.DataFrame({"source": [FACET_MISSING_SENTINEL], "cnt": [0]})
    return pd.concat([page, missing]).reset_index(drop=True)


FACET_PARAMS_SQL = f"""
SELECT source, cnt FROM (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM documents
  WHERE source LIKE '{FACET_PREFIX}%' AND contains(source, '{FACET_CONTAINS}')
  GROUP BY source HAVING COUNT(*) >= {FACET_MINCOUNT}
  ORDER BY source LIMIT {FACET_LIMIT} OFFSET {FACET_OFFSET}
)
UNION ALL
SELECT '{FACET_MISSING_SENTINEL}' AS source,
       CAST(COUNT(*) FILTER (WHERE source IS NULL) AS BIGINT) AS cnt
FROM documents
"""

# --------------------------------------------------------------------------
# §2.6 range facet / TimeSeriesStream: fixed-window time rollup.


def time_series_rollup(sf_dir: str):
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # map-side combiner: only (group, partial n/sum) rows ever shuffle
        g = pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "day": ts_us(batch["ts"]) // 86_400_000_000,
                "value_cents": cents(batch["value"].to_numpy()),
                "n": 1,
            }
        )
        return g.groupby(["event_type", "day"], as_index=False).sum()

    ds = read(sf_dir, "events", ["event_type", "ts", "value"]).map_batches(
        partial, batch_format="pandas"
    )
    out = merge_partials(ds, ["event_type", "day"], {"n": "sum", "value_cents": "sum"})
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["event_type", "day"]).reset_index(drop=True)


TIME_SERIES_SQL = """
SELECT event_type,
       epoch_us(ts) // 86400000000 AS day,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS value_cents
FROM events GROUP BY event_type, day ORDER BY event_type, day
"""

# --------------------------------------------------------------------------
# §2.6 StatsComponent: global numeric stats (exact-integer derived mean).


def stats_numeric(sf_dir: str):
    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column("l_extendedprice").to_numpy()
        c = cents(x)
        return pa.table(
            {
                "n": pa.array([len(x)], type=pa.int64()),
                "sum_cents": pa.array([int(c.sum())], type=pa.int64()),
                "min_price": pa.array([float(x.min())], type=pa.float64()),
                "max_price": pa.array([float(x.max())], type=pa.float64()),
            }
        )

    # combiner pattern: per-batch partials, tiny final reduce on the driver
    parts = (
        read(sf_dir, "lineitem", ["l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    n = int(parts["n"].sum())
    s = int(parts["sum_cents"].sum())
    return pd.DataFrame(
        {
            "n": [n],
            "sum_cents": [s],
            "min_price": [parts["min_price"].min()],
            "max_price": [parts["max_price"].max()],
            "mean_price": [s / (100.0 * n)],
        }
    )


STATS_SQL = """
SELECT CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_cents,
       MIN(l_extendedprice) AS min_price,
       MAX(l_extendedprice) AS max_price,
       CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) AS BIGINT) / (100.0 * COUNT(*)) AS mean_price
FROM lineitem
"""


def stats_string(sf_dir: str):
    """StatsComponent over a STRING field (solr/core/.../component/
    StatsValuesFactory.java StringStatsValues: min/max are lexicographic,
    plus count/missing/countDistinct).  The field is a nullable projection
    (NULLIF(event_type,'error')) so the missing counter is non-vacuous on
    the fixture.  Combiner shape: per-batch partials carry min/max/counts
    and the batch-local distinct set — the value domain is BOUNDED (an
    enum-like field; unbounded domains route through the bucketed distinct
    machinery instead, see sql.py COUNT(DISTINCT))."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        f = batch["event_type"].where(batch["event_type"] != "error")
        vals = f.dropna()
        return pd.DataFrame(
            {
                "count_vals": [np.int64(len(vals))],
                "missing": [np.int64(f.isna().sum())],
                "min_val": [vals.min() if len(vals) else None],
                "max_val": [vals.max() if len(vals) else None],
                "distinct": [sorted(vals.unique())],
            }
        )

    parts = (
        read(sf_dir, "events", ["event_type"])
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
    )
    uniq = sorted({v for lst in parts["distinct"] for v in lst})
    mins = parts["min_val"].dropna()
    maxs = parts["max_val"].dropna()
    return pd.DataFrame(
        {
            "count_vals": [np.int64(parts["count_vals"].sum())],
            "missing": [np.int64(parts["missing"].sum())],
            "min_val": [mins.min() if len(mins) else None],
            "max_val": [maxs.max() if len(maxs) else None],
            "count_distinct": [np.int64(len(uniq))],
        }
    )


STATS_STRING_SQL = """
SELECT CAST(COUNT(f) AS BIGINT) AS count_vals,
       CAST(SUM(CASE WHEN f IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS missing,
       MIN(f) AS min_val,
       MAX(f) AS max_val,
       CAST(COUNT(DISTINCT f) AS BIGINT) AS count_distinct
FROM (SELECT NULLIF(event_type, 'error') AS f FROM events)
"""

# --------------------------------------------------------------------------
# §2.6 streaming rollup (RollupStream) — the TPC-H Q1 shape: multi-metric
# grouped aggregate with a range predicate, pre-aggregated per batch.


def rollup_pricing(sf_dir: str):
    cutoff = np.datetime64("1998-09-01", "us").astype("int64")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        keep = ts_us(batch["l_shipdate"]) <= cutoff
        b = batch[keep]
        disc_price = b["l_extendedprice"].to_numpy() * (1.0 - b["l_discount"].to_numpy())
        g = pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty": b["l_quantity"].to_numpy().astype(np.int64),
                "base_cents": cents(b["l_extendedprice"].to_numpy()),
                "disc_cents": cents(disc_price),
                "n": 1,
            }
        )
        return g.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()

    ds = read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(partial, batch_format="pandas")
    out = merge_partials(
        ds,
        ["l_returnflag", "l_linestatus"],
        {"qty": "sum", "base_cents": "sum", "disc_cents": "sum", "n": "sum"},
    ).rename(
        columns={
            "qty": "sum_qty",
            "base_cents": "sum_base_cents",
            "disc_cents": "sum_disc_cents",
            "n": "count_order",
        }
    )
    for c in ["sum_qty", "sum_base_cents", "sum_disc_cents", "count_order"]:
        out[c] = out[c].astype("int64")
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


ROLLUP_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_base_cents,
       CAST(SUM(CAST(ROUND(l_extendedprice*(1-l_discount)*100) AS BIGINT)) AS BIGINT) AS sum_disc_cents,
       CAST(COUNT(*) AS BIGINT) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-01'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""

# --------------------------------------------------------------------------
# §2.5 broadcast hash join (HashJoinStream / FetchStream): orders enriched
# with the small customer dim via ray.put broadcast — no shuffle.


def join_facet(sf_dir: str):
    """Broadcast the small dim once with ray.put; enrich + PARTIAL-aggregate
    inside each batch so the groupby shuffles ~5 rows per batch, not 150k."""
    import pyarrow.parquet as pq
    import ray

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    lookup_ref = ray.put(dict(zip(cust.column("c_custkey").to_pylist(), cust.column("c_mktsegment").to_pylist())))

    def enrich_partial(batch: pd.DataFrame) -> pd.DataFrame:
        lookup = ray.get(lookup_ref)
        g = pd.DataFrame(
            {
                "c_mktsegment": batch["o_custkey"].map(lookup),
                "revenue_cents": cents(batch["o_totalprice"].to_numpy()),
                "n_orders": 1,
            }
        )
        return g.groupby("c_mktsegment", as_index=False).sum()

    ds = read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        enrich_partial, batch_format="pandas"
    )
    out = merge_partials(ds, ["c_mktsegment"], {"revenue_cents": "sum", "n_orders": "sum"})
    out["revenue_cents"] = out["revenue_cents"].astype("int64")
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("c_mktsegment").reset_index(drop=True)


JOIN_FACET_SQL = """
SELECT c_mktsegment,
       CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS revenue_cents,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment ORDER BY c_mktsegment
"""

# --------------------------------------------------------------------------
# §2.5 multi-way dim join (region ⋈ nation ⋈ customer).


def join_multi_region(sf_dir: str):
    import pyarrow.parquet as pq
    import ray

    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    region = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    nk_to_region = dict(
        zip(
            nation["n_nationkey"],
            nation["n_regionkey"].map(dict(zip(region["r_regionkey"], region["r_name"]))),
        )
    )
    ref = ray.put(nk_to_region)

    def enrich_partial(batch: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(ref)
        g = pd.DataFrame(
            {
                "r_name": batch["c_nationkey"].map(m),
                "acctbal_cents": cents(batch["c_acctbal"].to_numpy()),
                "n_customers": 1,
            }
        )
        return g.groupby("r_name", as_index=False).sum()

    ds = read(sf_dir, "customer", ["c_nationkey", "c_acctbal"]).map_batches(
        enrich_partial, batch_format="pandas"
    )
    out = merge_partials(ds, ["r_name"], {"n_customers": "sum", "acctbal_cents": "sum"})
    out["n_customers"] = out["n_customers"].astype("int64")
    out["acctbal_cents"] = out["acctbal_cents"].astype("int64")
    return out.sort_values("r_name").reset_index(drop=True)


JOIN_MULTI_SQL = """
SELECT r_name,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       CAST(SUM(CAST(ROUND(c_acctbal*100) AS BIGINT)) AS BIGINT) AS acctbal_cents
FROM customer
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name ORDER BY r_name
"""

# --------------------------------------------------------------------------
# §2.5 semi-join (JoinUtil / {!join}): broadcast key-set membership filter.


def semi_join(sf_dir: str):
    import pyarrow.parquet as pq
    import ray

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]).to_pandas()
    keys = np.sort(cust.query("c_mktsegment == 'BUILDING'")["c_custkey"].to_numpy())
    ref = ray.put(keys)

    def semi_partial(batch: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(ref)
        ck = batch["o_custkey"].to_numpy()
        idx_c = np.clip(np.searchsorted(ks, ck), 0, max(ks.size - 1, 0))
        mask = ks[idx_c] == ck if ks.size else np.zeros(ck.size, bool)
        g = batch.loc[mask, ["o_orderpriority"]].copy()
        g["n"] = 1
        return g.groupby("o_orderpriority", as_index=False).sum()

    ds = read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).map_batches(
        semi_partial, batch_format="pandas"
    )
    out = merge_partials(ds, ["o_orderpriority"], {"n": "sum"})
    out["n"] = out["n"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


SEMI_JOIN_SQL = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n
FROM orders
WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""

# --------------------------------------------------------------------------
# §2.5 ToChildBlockJoinQuery / `{!child}` in relational form: evaluate a
# PARENT-level predicate (orders), emit the CHILD rows (lineitems) of the
# matching parents, each carrying its parent's value — the reference
# propagates the parent score to every child (lucene/join/src/java/org/
# apache/lucene/search/join/ToChildBlockJoinQuery.java).  The index-side
# analog is `Searcher.search_children` (dueled in tests/test_blockjoin.py).

CHILD_JOIN_CENTS = 35_000_000  # parent filter: urgent orders over $350k


def child_join(sf_dir: str):
    import ray

    # parent pass: distributed filter, bounded (selective) parent set
    def parent_partial(batch: pd.DataFrame) -> pd.DataFrame:
        c = cents(batch["o_totalprice"].to_numpy())
        m = (batch["o_orderpriority"].to_numpy() == "1-URGENT") & (c > CHILD_JOIN_CENTS)
        return pd.DataFrame(
            {"o_orderkey": batch["o_orderkey"].to_numpy()[m], "parent_cents": c[m]}
        )

    parents = (
        read(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])
        .map_batches(parent_partial, batch_format="pandas")
        .to_pandas()  # bounded by predicate selectivity
        .sort_values("o_orderkey")
    )
    keys = parents["o_orderkey"].to_numpy()
    vals = parents["parent_cents"].to_numpy()
    ref = ray.put((keys, vals))

    # child pass: stream lineitem once, gather the parent value per child
    def child_partial(batch: pd.DataFrame) -> pd.DataFrame:
        ks, vs = ray.get(ref)
        ok = batch["l_orderkey"].to_numpy()
        pos = np.clip(np.searchsorted(ks, ok), 0, max(ks.size - 1, 0))
        m = ks[pos] == ok if ks.size else np.zeros(ok.size, bool)
        return pd.DataFrame(
            {
                "l_orderkey": ok[m],
                "l_linenumber": batch["l_linenumber"].to_numpy()[m].astype(np.int64),
                "parent_cents": vs[pos[m]],
            }
        )

    out = (
        read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber"])
        .map_batches(child_partial, batch_format="pandas")
        .to_pandas()
    )
    out["parent_cents"] = out["parent_cents"].astype("int64")
    return out.sort_values(["l_orderkey", "l_linenumber"]).reset_index(drop=True)


CHILD_JOIN_SQL = f"""
SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
       CAST(ROUND(o_totalprice*100) AS BIGINT) AS parent_cents
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE o_orderpriority = '1-URGENT'
  AND CAST(ROUND(o_totalprice*100) AS BIGINT) > {CHILD_JOIN_CENTS}
ORDER BY l_orderkey, l_linenumber
"""

# --------------------------------------------------------------------------
# §2.6 BlockJoinFacetComponent (solr/core/src/java/org/apache/solr/search/
# join/BlockJoinFacetComponent.java; the JSON-facet `uniqueBlock(_root_)`
# agg): facet over CHILD field values for children of matching parents,
# counting each PARENT once per bucket no matter how many of its children
# carry the value.  Shape: broadcast the matching parent keys (the query
# result), one child stream pass emits per-batch-deduped (bucket-value,
# parent) pairs, and a bucketed shuffle on the parent key dedups across
# batches — per-bucket distinct counts merge on the driver (facet domain ×
# buckets rows).


def blockjoin_facet(sf_dir: str):
    import ray

    def parent_partial(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch["o_orderpriority"].to_numpy() == "1-URGENT"
        return pd.DataFrame({"o_orderkey": batch["o_orderkey"].to_numpy()[m]})

    keys = np.sort(
        read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
        .map_batches(parent_partial, batch_format="pandas")
        .to_pandas()["o_orderkey"]
        .to_numpy()
    )
    ref = ray.put(keys)

    def child_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(ref)
        ok = batch["l_orderkey"].to_numpy()
        pos = np.clip(np.searchsorted(ks, ok), 0, max(ks.size - 1, 0))
        m = ks[pos] == ok if ks.size else np.zeros(ok.size, bool)
        return pd.DataFrame(
            {"l_returnflag": batch["l_returnflag"].to_numpy()[m], "l_orderkey": ok[m]}
        ).drop_duplicates()

    def count_distinct(g: pd.DataFrame) -> pd.DataFrame:
        u = g.drop_duplicates(["l_returnflag", "l_orderkey"])
        out = u.groupby("l_returnflag", as_index=False).size()
        return out.rename(columns={"size": "n_parents"})

    li = read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])
    parts = bucketed(li.map_batches(child_pairs, batch_format="pandas"), "l_orderkey", count_distinct).to_pandas()
    out = parts.groupby("l_returnflag", as_index=False)["n_parents"].sum()
    out["n_parents"] = out["n_parents"].astype("int64")
    return out.sort_values("l_returnflag").reset_index(drop=True)


BLOCKJOIN_FACET_SQL = """
SELECT l_returnflag, CAST(COUNT(DISTINCT l_orderkey) AS BIGINT) AS n_parents
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE o_orderpriority = '1-URGENT'
GROUP BY l_returnflag ORDER BY l_returnflag
"""


# --------------------------------------------------------------------------
# §2.6 grouped faceting (solr/core/src/java/org/apache/solr/request/
# SimpleFacets.java getGroupedCounts + grouping/TermGroupFacetCollector):
# group.facet=true — each GROUP counts once toward a facet value if ANY of
# its docs carries the value.  Shape: per-batch (value, group) dedup →
# bucketed shuffle on the group key → per-bucket distinct counts →
# bounded coordinator merge (the uniqueBlock design, group key unbounded).


def group_facet(sf_dir: str):
    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch["o_orderstatus"].to_numpy() == "O"
        return pd.DataFrame(
            {
                "o_orderpriority": batch["o_orderpriority"].to_numpy()[m],
                "o_custkey": batch["o_custkey"].to_numpy()[m],
            }
        ).drop_duplicates()

    def count_distinct(g: pd.DataFrame) -> pd.DataFrame:
        u = g.drop_duplicates(["o_orderpriority", "o_custkey"])
        out = u.groupby("o_orderpriority", as_index=False).size()
        return out.rename(columns={"size": "n_groups"})

    gp = read(sf_dir, "orders", ["o_custkey", "o_orderpriority", "o_orderstatus"])
    parts = bucketed(gp.map_batches(pairs, batch_format="pandas"), "o_custkey", count_distinct).to_pandas()
    out = parts.groupby("o_orderpriority", as_index=False)["n_groups"].sum()
    out["n_groups"] = out["n_groups"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


GROUP_FACET_SQL = """
SELECT o_orderpriority, CAST(COUNT(DISTINCT o_custkey) AS BIGINT) AS n_groups
FROM orders WHERE o_orderstatus = 'O'
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


# --------------------------------------------------------------------------
# §2.5 anti-join (MUST_NOT / ComplementStream): customers with no orders.


def anti_join(sf_dir: str):
    # both-sides-distributed anti join: Ray's native hash-partitioned
    # left_anti — neither side is ever built on the driver
    import ray

    cust = read(sf_dir, "customer", ["c_custkey"])
    orders = read(sf_dir, "orders", ["o_custkey"])
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    out = cust.join(
        orders,
        join_type="left_anti",
        num_partitions=max(2, cpus // 8),
        on=("c_custkey",),
        right_on=("o_custkey",),
    ).to_pandas()
    if "c_custkey" not in out.columns:  # empty result loses the schema
        out = pd.DataFrame({"c_custkey": pd.Series([], dtype="int64")})
    return out[["c_custkey"]].sort_values("c_custkey").reset_index(drop=True)


ANTI_JOIN_SQL = """
SELECT c_custkey FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
ORDER BY c_custkey
"""

# --------------------------------------------------------------------------
# §2.7 grouping (FirstPassGroupingCollector/TopGroupsCollector): top-2 rows
# per group by (value desc, key asc).


def group_topk(sf_dir: str):
    def top2(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["c_acctbal", "c_custkey"], ascending=[False, True]).head(2)

    out = (
        read(sf_dir, "customer", ["c_mktsegment", "c_custkey", "c_acctbal"])
        .groupby("c_mktsegment")
        .map_groups(top2, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["c_mktsegment", "c_custkey"]).reset_index(drop=True)


GROUP_TOPK_SQL = """
SELECT c_mktsegment, c_custkey, c_acctbal FROM customer
QUALIFY row_number() OVER (PARTITION BY c_mktsegment ORDER BY c_acctbal DESC, c_custkey) <= 2
ORDER BY c_mktsegment, c_custkey
"""

# group.query (solr/core/.../search/grouping/GroupingSpecification — query
# groups: each group.query= names an arbitrary predicate and returns ITS
# OWN top docs, unlike group.field's value partitions).  Shape: ONE scan,
# each batch emits a ≤ k-row combiner partial PER query group, the driver
# merges the bounded partials — groups may overlap, a doc can appear in
# several (the Solr contract).

GROUP_QUERIES = {
    "high_value": lambda b: b["o_totalprice"] > 300000,
    "urgent_open": lambda b: (b["o_orderpriority"] == "1-URGENT") & (b["o_orderstatus"] == "O"),
}
GROUP_QUERY_K = 3


def group_query(sf_dir: str):
    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for name, pred in GROUP_QUERIES.items():
            g = batch[pred(batch)]
            g = g.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True]).head(
                GROUP_QUERY_K
            )
            g = g[["o_orderkey", "o_totalprice"]].copy()
            g["grp"] = name
            outs.append(g)
        return pd.concat(outs) if outs else batch.iloc[:0][["o_orderkey", "o_totalprice"]]

    parts = (
        read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderpriority", "o_orderstatus"])
        .map_batches(partials, batch_format="pandas")
        .to_pandas()  # ≤ |groups| × k per block
    )
    parts = parts.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
    top = parts.groupby("grp", as_index=False, sort=False).head(GROUP_QUERY_K)
    return (
        top.sort_values(["grp", "o_orderkey"])
        .reset_index(drop=True)[["grp", "o_orderkey", "o_totalprice"]]
    )


GROUP_QUERY_SQL = f"""
SELECT grp, o_orderkey, o_totalprice FROM (
  SELECT 'high_value' AS grp, o_orderkey, o_totalprice FROM orders
  WHERE o_totalprice > 300000
  ORDER BY o_totalprice DESC, o_orderkey LIMIT {GROUP_QUERY_K}
)
UNION ALL
SELECT grp, o_orderkey, o_totalprice FROM (
  SELECT 'urgent_open' AS grp, o_orderkey, o_totalprice FROM orders
  WHERE o_orderpriority = '1-URGENT' AND o_orderstatus = 'O'
  ORDER BY o_totalprice DESC, o_orderkey LIMIT {GROUP_QUERY_K}
)
ORDER BY grp, o_orderkey
"""

# group.ngroups=true (solr/core/.../search/grouping/ GroupingSpecification /
# TopGroupsResultTransformer): the grouped response carries the TOTAL
# distinct group count alongside the returned page of groups.  Shape: the
# collapse combiner (per-batch best-per-key, bucketed shuffle); each bucket
# emits its top-10 partial and carries its distinct-group count on its
# first row, so the driver merge sees ≤ 10 rows per bucket — ngroups is
# the sum of per-bucket counts (buckets partition the key space), never a
# driver-side distinct.

_COLLAPSE_COLS = ["o_custkey", "o_orderkey", "o_totalprice"]


def _best_per_custkey(b: pd.DataFrame) -> pd.DataFrame:
    """Highest-priced order per o_custkey (ties → lowest o_orderkey)."""
    b = b.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
    return b.drop_duplicates("o_custkey")[_COLLAPSE_COLS]


def _collapsed(sf_dir: str, merge):
    orders = read(sf_dir, "orders", _COLLAPSE_COLS).map_batches(_best_per_custkey, batch_format="pandas")
    return bucketed(orders, "o_custkey", merge).to_pandas()


def group_ngroups(sf_dir: str):
    def merge(g: pd.DataFrame) -> pd.DataFrame:
        b = _best_per_custkey(g)
        out = b.sort_values(["o_totalprice", "o_custkey"], ascending=[False, True]).head(10)
        ng = np.zeros(len(out), dtype=np.int64)
        ng[:1] = len(b)
        return out.assign(ng_part=ng)

    parts = _collapsed(sf_dir, merge)
    ngroups = int(parts["ng_part"].sum())
    top = parts.sort_values(["o_totalprice", "o_custkey"], ascending=[False, True]).head(10)
    top = top.drop(columns=["ng_part"])
    top["ngroups"] = np.int64(ngroups)
    return top.sort_values("o_custkey").reset_index(drop=True)


GROUP_NGROUPS_SQL = """
WITH best AS (
  SELECT o_custkey, o_orderkey, o_totalprice FROM orders
  QUALIFY row_number() OVER (PARTITION BY o_custkey ORDER BY o_totalprice DESC, o_orderkey) = 1
),
ng AS (SELECT CAST(COUNT(*) AS BIGINT) AS ngroups FROM best),
page AS (
  SELECT * FROM best
  QUALIFY row_number() OVER (ORDER BY o_totalprice DESC, o_custkey) <= 10
)
SELECT o_custkey, o_orderkey, o_totalprice, ngroups
FROM page CROSS JOIN ng ORDER BY o_custkey
"""


# Date-math range facet (solr/core/.../util/DateMathParser.java powering
# facet.range on date fields): the bucket bounds come from REAL date-math
# expressions evaluated against a pinned NOW — the SQL twin derives the
# same instants independently with date_trunc + INTERVAL arithmetic
# (DuckDB clamps month ends exactly like Calendar.add), so the gate
# verifies the parser, not just the bucketing.

DM_NOW = "2024-02-20T10:30:00Z"
DM_START_EXPR = "NOW/MONTH-1MONTH"  # → 2024-01-01
DM_END_EXPR = "NOW/MONTH+1MONTH"  # → 2024-03-01
DM_GAP_US = 7 * 86_400_000_000  # 7 days


def date_math_range_facet(sf_dir: str):
    from ..functions.datemath import parse_date_math

    s_us = int(np.datetime64(parse_date_math(DM_START_EXPR, now=DM_NOW), "us").astype("int64"))
    e_us = int(np.datetime64(parse_date_math(DM_END_EXPR, now=DM_NOW), "us").astype("int64"))

    def part(batch: pd.DataFrame) -> pd.DataFrame:
        us = ts_us(batch["ts"])
        keep = (us >= s_us) & (us < e_us)
        bk = (us[keep] - s_us) // DM_GAP_US
        g = pd.DataFrame({"bk": bk, "n": 1, "cents": cents(batch["value"].to_numpy()[keep])})
        return g.groupby("bk", as_index=False).sum()

    out = merge_partials(
        read(sf_dir, "events", ["ts", "value"]).map_batches(part, batch_format="pandas"),
        ["bk"],
        {"n": "sum", "cents": "sum"},
    )
    out["bucket_start_us"] = (s_us + out["bk"].astype("int64") * DM_GAP_US).astype("int64")
    out["n"] = out["n"].astype("int64")
    out["cents"] = out["cents"].astype("int64")
    return out[["bucket_start_us", "n", "cents"]].sort_values("bucket_start_us").reset_index(drop=True)


DATE_MATH_SQL = f"""
WITH b AS (
  SELECT date_trunc('month', TIMESTAMP '2024-02-20 10:30:00') - INTERVAL 1 MONTH AS s,
         date_trunc('month', TIMESTAMP '2024-02-20 10:30:00') + INTERVAL 1 MONTH AS e
),
f AS (
  SELECT (epoch_us(ts) - epoch_us(s)) // {DM_GAP_US} AS bk, epoch_us(s) AS s_us, value
  FROM events CROSS JOIN b WHERE ts >= s AND ts < e
)
SELECT CAST(s_us + bk * {DM_GAP_US} AS BIGINT) AS bucket_start_us,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS cents
FROM f GROUP BY 1 ORDER BY 1
"""


# --------------------------------------------------------------------------
# §2.6 collapse (CollapsingQParserPlugin): keep the best doc per group key.


def collapse_best(sf_dir: str):
    # per-batch local best per key (combiner), then the bucketed shuffle
    # merges the locals in pandas
    out = _collapsed(sf_dir, _best_per_custkey)
    return out.sort_values("o_custkey").reset_index(drop=True)


COLLAPSE_SQL = """
SELECT o_custkey, o_orderkey, o_totalprice FROM orders
QUALIFY row_number() OVER (PARTITION BY o_custkey ORDER BY o_totalprice DESC, o_orderkey) = 1
ORDER BY o_custkey
"""


# --------------------------------------------------------------------------
# ExpandComponent (solr/core/src/java/org/apache/solr/handler/component/
# ExpandComponent.java): after a collapse, return the OTHER members of the
# collapsed groups that appear on the result page — up to `expand.rows`
# per group, in the expand sort order.

EXPAND_PAGE = 10  # collapsed heads on the page
EXPAND_ROWS = 3  # expanded members per group


def collapse_expand(sf_dir: str):
    import ray

    # phase 1: the collapse page (bucketed collapse -> top-P heads)
    heads = collapse_best(sf_dir)
    page = heads.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True]).head(
        EXPAND_PAGE
    )
    page_keys = page["o_custkey"].to_numpy(np.int64)
    head_orders = page["o_orderkey"].to_numpy(np.int64)
    ref = ray.put((np.sort(page_keys), head_orders[np.argsort(page_keys)]))

    # phase 2: ONE streaming pass; the page keys (bounded) broadcast into a
    # semi-join filter + per-batch per-group top-E combiner — the driver
    # merge is ≤ page × (E+1) rows per batch, never the orders table
    def expand(batch: pd.DataFrame) -> pd.DataFrame:
        keys, horders = ray.get(ref)
        ck = batch["o_custkey"].to_numpy(np.int64)
        pos = np.clip(np.searchsorted(keys, ck), 0, max(keys.size - 1, 0))
        m = (keys[pos] == ck) if keys.size else np.zeros(ck.size, bool)
        m &= batch["o_orderkey"].to_numpy(np.int64) != horders[pos]  # not the head
        sub = batch.loc[m]
        return (
            sub.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
            .groupby("o_custkey", sort=False)
            .head(EXPAND_ROWS)
        )

    parts = (
        read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
        .map_batches(expand, batch_format="pandas")
        .to_pandas()
    )
    out = (
        parts.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
        .groupby("o_custkey", sort=False)
        .head(EXPAND_ROWS)
    )
    return out.sort_values(
        ["o_custkey", "o_totalprice", "o_orderkey"], ascending=[True, False, True]
    ).reset_index(drop=True)


COLLAPSE_EXPAND_SQL = f"""
WITH heads AS (
  SELECT o_custkey, o_orderkey, o_totalprice FROM orders
  QUALIFY row_number() OVER (PARTITION BY o_custkey ORDER BY o_totalprice DESC, o_orderkey) = 1
), page AS (
  SELECT * FROM heads ORDER BY o_totalprice DESC, o_orderkey LIMIT {EXPAND_PAGE}
)
SELECT o.o_custkey AS o_custkey, o.o_orderkey AS o_orderkey, o.o_totalprice AS o_totalprice
FROM orders o JOIN page p ON o.o_custkey = p.o_custkey
WHERE o.o_orderkey != p.o_orderkey
QUALIFY row_number() OVER (PARTITION BY o.o_custkey ORDER BY o.o_totalprice DESC, o.o_orderkey) <= {EXPAND_ROWS}
ORDER BY o.o_custkey, o.o_totalprice DESC, o.o_orderkey
"""

# --------------------------------------------------------------------------
# §2.7 top-k by fields (TopFieldCollector): distributed top-10, merged on
# the driver — never a full sort.


def sort_topk(sf_dir: str):
    K = 10

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True]).head(K)

    parts = (
        read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .map_batches(local_topk, batch_format="pandas")
        .to_pandas()
    )
    return (
        parts.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
        .head(K)
        .reset_index(drop=True)
    )


SORT_TOPK_SQL = """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""

# --------------------------------------------------------------------------
# §2.3 numeric/date range predicate (PointRangeQuery) with read-time pruning.


def range_filter(sf_dir: str):
    lo = np.datetime64("1996-01-01", "us").astype("int64")
    hi = np.datetime64("1997-01-01", "us").astype("int64")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        us = ts_us(batch["l_shipdate"])
        q = batch["l_quantity"].to_numpy()
        keep = (us >= lo) & (us < hi) & (q >= 10) & (q <= 20)
        return pd.DataFrame({"n": [int(keep.sum())], "sum_qty": [int(q[keep].sum())]})

    parts = (
        read(sf_dir, "lineitem", ["l_shipdate", "l_quantity"])
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
    )
    return pd.DataFrame({"n": [int(parts["n"].sum())], "sum_qty": [int(parts["sum_qty"].sum())]})


RANGE_FILTER_SQL = """
SELECT CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1997-01-01'
  AND l_quantity BETWEEN 10 AND 20
"""

# --------------------------------------------------------------------------
# §2.8 MergeStream/union: sorted union of two sources.


def merge_union(sf_dir: str):
    a = read(sf_dir, "customer", ["c_name"]).map_batches(
        lambda t: t.rename_columns(["name"]), batch_format="pyarrow"
    )
    b = read(sf_dir, "supplier", ["s_name"]).map_batches(
        lambda t: t.rename_columns(["name"]), batch_format="pyarrow"
    )
    # the sort is DISTRIBUTED (range-partitioned ds.sort); to_pandas here
    # only materializes the gate result at small sf — at scale the consumer
    # is a partitioned write_parquet of the already-sorted blocks
    return a.union(b).sort("name").to_pandas()


MERGE_UNION_SQL = """
SELECT name FROM (
  SELECT c_name AS name FROM customer
  UNION ALL
  SELECT s_name AS name FROM supplier
) ORDER BY name
"""

# --------------------------------------------------------------------------
# §2.8 UniqueStream / unique agg: distinct values.


def unique_values(sf_dir: str):
    vals = read(sf_dir, "events", ["event_type"]).unique("event_type")
    return pd.DataFrame({"event_type": sorted(vals)})


UNIQUE_SQL = "SELECT DISTINCT event_type FROM events ORDER BY event_type"

# --------------------------------------------------------------------------
# §2.7 cursor paging (CursorMark): keyset pagination — page 3 of the
# (o_totalprice desc, o_orderkey) ordering WITHOUT a deep offset scan.


def cursor_paging(sf_dir: str):
    PAGE = 10

    def local_topk(k):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True]).head(k)

        return f

    ds = read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    # pages 1-2 establish the cursor (in one pass: top 20)
    first2 = (
        ds.map_batches(local_topk(2 * PAGE), batch_format="pandas")
        .to_pandas()
        .sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
        .head(2 * PAGE)
    )
    last = first2.iloc[-1]
    cur_price, cur_key = float(last["o_totalprice"]), int(last["o_orderkey"])

    def after_cursor(batch: pd.DataFrame) -> pd.DataFrame:
        p = batch["o_totalprice"].to_numpy()
        k = batch["o_orderkey"].to_numpy()
        keep = (p < cur_price) | ((p == cur_price) & (k > cur_key))
        return local_topk(PAGE)(batch[keep])

    page3 = (
        ds.map_batches(after_cursor, batch_format="pandas")
        .to_pandas()
        .sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
        .head(PAGE)
    )
    return page3.reset_index(drop=True)


CURSOR_SQL = """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10 OFFSET 20
"""

# --------------------------------------------------------------------------
# §2.7 export-style exact percentile (quantile_disc): value at the smallest
# index with cumulative fraction ≥ q — a raw value, so bit-exact.


def _value_counts(sf_dir: str, table: str, cols: list[str]) -> pd.DataFrame:
    """Distributed (cols…, n) value-count histogram, bucketed on the last
    column (the raw value — bit-exact, quantiles return existing values);
    driver rows = distinct values, never the row count."""
    def vc(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby(cols, as_index=False).size().rename(columns={"size": "n"})

    def merge_counts(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(cols, as_index=False)["n"].sum()

    parts = read(sf_dir, table, cols).map_batches(vc, batch_format="pandas")
    return bucketed(parts, cols[-1], merge_counts).to_pandas().sort_values(cols)


def percentile_disc(sf_dir: str):
    """Exact discrete percentiles WITHOUT a full sort or driver
    materialization: the driver walks the distributed (distinct-value,
    count) histogram."""
    hist = _value_counts(sf_dir, "lineitem", ["l_extendedprice"])
    v = hist["l_extendedprice"].to_numpy()
    n = hist["n"].to_numpy()
    cum = np.cumsum(n)
    total = int(cum[-1])
    out = {}
    for q, name in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")]:
        rank = int(np.ceil(q * total))  # 1-based rank of quantile_disc
        idx = int(np.searchsorted(cum, max(rank, 1)))
        out[name] = [float(v[idx])]
    return pd.DataFrame(out)


PERCENTILE_SQL = """
SELECT quantile_disc(l_extendedprice, 0.5) AS p50,
       quantile_disc(l_extendedprice, 0.9) AS p90,
       quantile_disc(l_extendedprice, 0.99) AS p99
FROM lineitem
"""


def percentile_cont(sf_dir: str):
    """Interpolated (continuous) percentiles from the SAME distributed
    value-count histogram as `percentile_disc`: the two neighbouring order
    statistics at h = q·(n−1) are read from the histogram walk, then
    blended with DuckDB's own interpolation `lo·(1−frac) + hi·frac`
    (verified formula — `lo + frac·(hi−lo)` differs in the last ulp)."""
    hist = _value_counts(sf_dir, "lineitem", ["l_extendedprice"])
    v = hist["l_extendedprice"].to_numpy()
    cum = np.cumsum(hist["n"].to_numpy())
    total = int(cum[-1])

    def order_stat(rank0: int) -> float:  # 0-based rank in the sorted stream
        return float(v[int(np.searchsorted(cum, rank0 + 1))])

    out = {}
    for q, name in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")]:
        h = q * (total - 1)
        lo_i = int(np.floor(h))
        hi_i = int(np.ceil(h))
        lo, hi = order_stat(lo_i), order_stat(hi_i)
        frac = h - np.floor(h)
        out[name] = [lo * (1 - frac) + hi * frac]
    return pd.DataFrame(out)


PERCENTILE_CONT_SQL = """
SELECT quantile_cont(l_extendedprice, 0.5) AS p50,
       quantile_cont(l_extendedprice, 0.9) AS p90,
       quantile_cont(l_extendedprice, 0.99) AS p99
FROM lineitem
"""


def percentile_tdigest(sf_dir: str):
    """Sketch-guided EXACT percentiles: pass 1 builds mergeable per-batch
    t-digests (state/tdigest.py — only ~1.6 KB sketches ever reach the
    driver); the merged digest brackets each target rank with a quantile
    window, and pass 2 fetches exact below-window counts plus the in-window
    candidate slice, from which the true order statistics interpolate with
    the quantile_cont formula (lo·(1−f)+hi·f — the verified-parity form).
    This is the dsir_resample boundary-refinement shape: no O(corpus)
    sort, driver traffic bounded by ~2·margin·n candidates, and a
    widen-and-retry guard means a digest miss can never yield a wrong
    answer — so the gate is strict (quantile_cont twin), while the digest
    remains the mergeable sketch doing the heavy lifting."""
    from ..state.tdigest import TDigest

    def sketch(batch: pd.DataFrame) -> pd.DataFrame:
        d = TDigest.of(batch["l_extendedprice"].to_numpy())
        return pd.DataFrame({"sketch": [d.to_bytes()]})

    ds = read(sf_dir, "lineitem", ["l_extendedprice"])
    parts = ds.map_batches(sketch, batch_format="pandas").to_pandas()
    d = TDigest()
    # an all-empty read yields zero blocks and Ray drops the pandas schema
    # (the streams._to_df gotcha) — treat a missing column as no sketches
    if "sketch" in parts.columns:
        for blob in parts["sketch"]:
            d = d.merge(TDigest.from_bytes(blob))
    total = int(round(d.weights.sum()))
    targets = {"p50": 0.5, "p90": 0.9, "p99": 0.99}
    if total == 0:  # empty table: quantile_cont is NULL — and the widen
        # loop could never resolve a rank that doesn't exist
        return pd.DataFrame({k: [np.nan] for k in ("p50", "p90", "p99")})
    out: dict[str, float] = {}
    todo = set(targets)
    margin = 0.005
    while todo:
        windows = {}
        for name in sorted(todo):
            q = targets[name]
            if margin >= 1.0:  # digest missed twice: fall back to a full window
                windows[name] = (-np.inf, np.inf)
            else:
                windows[name] = (
                    d.quantile(max(0.0, q - margin)),
                    d.quantile(min(1.0, q + margin)),
                )

        def refine(batch: pd.DataFrame, w=windows) -> pd.DataFrame:
            x = batch["l_extendedprice"].to_numpy(dtype=np.float64)
            return pd.DataFrame(
                {
                    "name": list(w.keys()),
                    "below": [np.int64((x < lv).sum()) for lv, _ in w.values()],
                    "cand": [x[(x >= lv) & (x <= hv)].tolist() for lv, hv in w.values()],
                }
            )

        ref = ds.map_batches(refine, batch_format="pandas").to_pandas()
        for name in sorted(todo):
            rows = ref[ref["name"] == name]
            below = int(rows["below"].sum())
            cand = (
                np.sort(np.concatenate([np.asarray(c, dtype=np.float64) for c in rows["cand"]]))
                if len(rows)
                else np.empty(0, np.float64)
            )
            q = targets[name]
            h = q * (total - 1)
            lo_r, hi_r = int(np.floor(h)), int(np.ceil(h))
            if lo_r < below or hi_r >= below + cand.size:
                continue  # window missed the rank: widen and retry
            frac = h - np.floor(h)
            lo, hi = float(cand[lo_r - below]), float(cand[hi_r - below])
            out[name] = lo * (1 - frac) + hi * frac
            todo.discard(name)
        margin *= 8
    return pd.DataFrame({k: [out[k]] for k in ("p50", "p90", "p99")})


# --------------------------------------------------------------------------
# §2.9 FunctionScoreQuery: rank by a ValueSource expression evaluated with
# the functions/ library per batch — freshness-decayed price score.

FUNC_EXPR = "mul(recip(days, 1, 1000, 1000), sqrt(price))"


def function_query(sf_dir: str):
    from ..functions import evaluate, parse_expr

    ast = parse_expr(FUNC_EXPR)
    epoch0 = np.datetime64("1990-01-01", "us").astype("int64")

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        days = (ts_us(batch["o_orderdate"]) - epoch0) // 86_400_000_000
        s = evaluate(ast, {"days": days.astype(np.float64), "price": batch["o_totalprice"].to_numpy()})
        out = pd.DataFrame({"o_orderkey": batch["o_orderkey"], "score": s})
        return out.sort_values(["score", "o_orderkey"], ascending=[False, True]).head(10)

    parts = (
        read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_totalprice"])
        .map_batches(score, batch_format="pandas")
        .to_pandas()
    )
    return (
        parts.sort_values(["score", "o_orderkey"], ascending=[False, True])
        .head(10)
        .reset_index(drop=True)
    )


FUNCTION_QUERY_SQL = """
SELECT o_orderkey,
       (1000 / (1 * CAST(datediff('day', DATE '1990-01-01', o_orderdate) AS DOUBLE) + 1000))
       * sqrt(o_totalprice) AS score
FROM orders
ORDER BY score DESC, o_orderkey LIMIT 10
"""


# --------------------------------------------------------------------------
# §2.3 {!frange}: FunctionRangeQuery (solr/core/src/java/org/apache/solr/
# search/FunctionRangeQParserPlugin.java / lucene FunctionRangeQuery) —
# FILTER docs by a ValueSource expression's value in [l, u].  Same
# vectorized expression evaluator as function_query; the range test is a
# per-batch mask, so the filter streams (no materialization, no shuffle).

FRANGE_L, FRANGE_U = 150.0, 155.0


def frange_filter(sf_dir: str):
    from ..functions import evaluate, parse_expr

    ast = parse_expr(FUNC_EXPR)
    epoch0 = np.datetime64("1990-01-01", "us").astype("int64")

    def frange(batch: pd.DataFrame) -> pd.DataFrame:
        days = (ts_us(batch["o_orderdate"]) - epoch0) // 86_400_000_000
        s = evaluate(ast, {"days": days.astype(np.float64), "price": batch["o_totalprice"].to_numpy()})
        keep = (s >= FRANGE_L) & (s <= FRANGE_U)  # inclusive bounds (frange default incl=true)
        return pd.DataFrame({"o_orderkey": batch["o_orderkey"][keep], "score": s[keep]})

    out = (
        read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_totalprice"])
        .map_batches(frange, batch_format="pandas")
        .to_pandas()
    )
    if out.empty:  # keep a stable schema when no doc's value lands in range
        out = pd.DataFrame({"o_orderkey": pd.Series([], dtype="int64"), "score": pd.Series([], dtype="float64")})
    return out.sort_values("o_orderkey").reset_index(drop=True)


FRANGE_SQL = f"""
WITH s AS (
  SELECT o_orderkey,
         (1000 / (1 * CAST(datediff('day', DATE '1990-01-01', o_orderdate) AS DOUBLE) + 1000))
         * sqrt(o_totalprice) AS score
  FROM orders
)
SELECT o_orderkey, score FROM s
WHERE score >= {FRANGE_L} AND score <= {FRANGE_U}
ORDER BY o_orderkey
"""


# --------------------------------------------------------------------------
# §2.9 CurrencyFieldType (solr/.../schema/CurrencyFieldType.java): a
# "amount,CODE" currency column is synthesized deterministically from
# orders (code = o_orderkey % 3), round-tripped through the REAL exact
# string parse (functions/currency.py, BigDecimal-style digits-only), then
# converted with CurrencyValue.convertTo's truncating long multiply via
# the pre-resolved currency() ValueSource.  The SQL twin computes the same
# minor units directly — strict because trunc(CAST(c AS DOUBLE)*rate) is
# the identical IEEE op on both sides.


def currency_convert(sf_dir: str):
    from ..functions import evaluate, parse_expr
    from ..functions.currency import (
        ExchangeRateProvider,
        convert_cents,
        format_currency,
        parse_currency,
        resolve_currency_codes,
    )
    from .common import cents as _cents

    provider = ExchangeRateProvider()
    codes3 = np.array(["USD", "EUR", "JPY"], dtype=object)
    # the function-query form, pre-resolved per source code at plan time
    ast = parse_expr("currency(price, USD)")

    def conv(batch: pd.DataFrame) -> pd.DataFrame:
        keys = batch["o_orderkey"].to_numpy()
        src = codes3[keys % 3]
        raw = format_currency(_cents(batch["o_totalprice"].to_numpy()), src)
        c, parsed_codes = parse_currency(raw)  # exact round-trip, no floats
        usd_minor = convert_cents(c, parsed_codes, "USD", provider)
        # ValueSource path over the same batch (one code at a time, as the
        # resolver binds a single source code per column)
        vs = np.empty(c.size, dtype=np.float64)
        for code in codes3:
            m = parsed_codes == code
            if not m.any():
                continue
            node = resolve_currency_codes(ast, provider, {"price": str(code)})
            vs[m] = evaluate(node, {"price_cents": c[m].astype(np.float64)})
        assert np.array_equal(vs, usd_minor.astype(np.float64))
        out = pd.DataFrame(
            {"o_orderkey": keys, "code": src, "usd": usd_minor / 100.0}
        )
        return out.sort_values(["usd", "o_orderkey"], ascending=[False, True]).head(10)

    parts = (
        read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .map_batches(conv, batch_format="pandas")
        .to_pandas()
    )
    return (
        parts.sort_values(["usd", "o_orderkey"], ascending=[False, True])
        .head(10)
        .reset_index(drop=True)
    )


CURRENCY_SQL = """
WITH c AS (
  SELECT o_orderkey,
         CASE o_orderkey % 3 WHEN 0 THEN 'USD' WHEN 1 THEN 'EUR' ELSE 'JPY' END AS code,
         CAST(round(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders)
SELECT o_orderkey, code,
       trunc(CAST(cents AS DOUBLE) *
             CASE code WHEN 'USD' THEN 1.0 WHEN 'EUR' THEN 1.08 ELSE 0.0092 END) / 100.0 AS usd
FROM c
ORDER BY usd DESC, o_orderkey
LIMIT 10
"""


# --------------------------------------------------------------------------
# §2.1 /export: full sorted dump via distributed sort → partitioned parquet
# sink, then read back (resumable layout: one directory per run).


def export_sorted(sf_dir: str):
    import hashlib as _h

    import pyarrow.parquet as _pq

    out_dir = f"/tmp/lsr_export_{_h.sha1(sf_dir.encode()).hexdigest()[:8]}"
    import shutil as _sh

    _sh.rmtree(out_dir, ignore_errors=True)
    ds = read(sf_dir, "supplier", ["s_suppkey", "s_name", "s_acctbal"])
    ds.sort(["s_acctbal", "s_suppkey"], descending=[True, False]).write_parquet(out_dir)
    # read back in file order and ASSERT the global ordering (a driver-side
    # re-sort here would silently mask any cross-file ordering bug in ds.sort)
    files = sorted(__import__("glob").glob(f"{out_dir}/*.parquet"))
    t = pa.concat_tables(_pq.read_table(f) for f in files).to_pandas()
    key = list(zip(-t["s_acctbal"].to_numpy(), t["s_suppkey"].to_numpy()))
    assert all(key[i] <= key[i + 1] for i in range(len(key) - 1)), "export files out of order"
    return t.reset_index(drop=True)


EXPORT_SQL = """
SELECT s_suppkey, s_name, s_acctbal FROM supplier
ORDER BY s_acctbal DESC, s_suppkey
"""


# --------------------------------------------------------------------------
# §2.7 random sampling (RandomSortField): pseudo-random but DETERMINISTIC
# order via a seeded multiplicative hash — fully vectorized (uint64 numpy;
# the DuckDB twin computes the identical rounds in HUGEINT) and
# reproducible across engines and runs.

_SAMPLE_SEED = 7
_SAMPLE_C1 = 2654435761  # Knuth multiplicative
_SAMPLE_C2 = 2246822519  # xxhash PRIME32_2
_M32 = 1 << 32


def _sample_hash(k: np.ndarray) -> np.ndarray:
    h = ((k.astype(np.uint64) % _M32 + np.uint64(_SAMPLE_SEED)) * np.uint64(_SAMPLE_C1)) % np.uint64(_M32)
    h = ((h ^ (h >> np.uint64(15))) * np.uint64(_SAMPLE_C2)) % np.uint64(_M32)
    return (h ^ (h >> np.uint64(13))).astype(np.int64)


def random_sample_hash(sf_dir: str):
    def key(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"o_orderkey": batch["o_orderkey"], "hk": _sample_hash(batch["o_orderkey"].to_numpy())}
        )
        return out.sort_values(["hk", "o_orderkey"]).head(20)

    parts = (
        read(sf_dir, "orders", ["o_orderkey"])
        .map_batches(key, batch_format="pandas")
        .to_pandas()
    )
    top = parts.sort_values(["hk", "o_orderkey"]).head(20).reset_index(drop=True)
    return top[["o_orderkey"]]


# Stratified / domain-mix sampling (training-data mixing: per-domain keep
# rates, e.g. upsample curated sources and downsample web crawl — the
# UpdateProcessor-chain sampling analog at corpus scale).  Deterministic:
# keep doc ⇔ hash(doc_id) < rate(lang)·2³², so reruns and the SQL twin
# agree exactly; no shuffle, one streaming mask per batch.

STRATA_RATES = {"en": 0.5, "de": 0.25}
STRATA_DEFAULT_RATE = 0.1


def stratified_sample(sf_dir: str):
    thresh_by_lang = {k: int(v * _M32) for k, v in STRATA_RATES.items()}
    default_thresh = int(STRATA_DEFAULT_RATE * _M32)

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        h = _sample_hash(batch["doc_id"].to_numpy()).astype(np.uint64)
        limits = (
            batch["lang"].map(thresh_by_lang).fillna(default_thresh).to_numpy(dtype=np.uint64)
        )
        out = batch[h < limits]
        return pd.DataFrame({"doc_id": out["doc_id"], "lang": out["lang"]})

    parts = (
        read(sf_dir, "documents", ["doc_id", "lang"])
        .map_batches(keep, batch_format="pandas")
        .to_pandas()
    )
    return parts.sort_values("doc_id").reset_index(drop=True)


def _strata_sql() -> str:
    cases = " ".join(
        f"WHEN lang = '{k}' THEN {int(v * _M32)}" for k, v in STRATA_RATES.items()
    )
    return f"""
WITH h1 AS (
  SELECT doc_id, lang,
         (CAST(doc_id % {_M32} + {_SAMPLE_SEED} AS HUGEINT) * {_SAMPLE_C1}) % {_M32} AS a
  FROM documents
), h2 AS (
  SELECT doc_id, lang, (CAST(xor(a, a >> 15) AS HUGEINT) * {_SAMPLE_C2}) % {_M32} AS b FROM h1
)
SELECT doc_id, lang FROM h2
WHERE xor(b, b >> 13) < CASE {cases} ELSE {int(STRATA_DEFAULT_RATE * _M32)} END
ORDER BY doc_id
"""


STRATIFIED_SAMPLE_SQL = _strata_sql()


RANDOM_SAMPLE_SQL = f"""
WITH h1 AS (
  SELECT o_orderkey,
         (CAST(o_orderkey % {_M32} + {_SAMPLE_SEED} AS HUGEINT) * {_SAMPLE_C1}) % {_M32} AS a
  FROM orders
), h2 AS (
  SELECT o_orderkey, (CAST(xor(a, a >> 15) AS HUGEINT) * {_SAMPLE_C2}) % {_M32} AS b FROM h1
)
SELECT o_orderkey FROM h2 ORDER BY xor(b, b >> 13), o_orderkey LIMIT 20
"""

# --------------------------------------------------------------------------
# §2.6 stddev/variance via exact integer moments (StddevAgg/VarianceAgg):
# (n, Σcents, Σcents²) are exact ints; variance derived with one identical
# double formula on both sides.


def variance_moments(sf_dir: str):
    def partial(batch: pa.Table) -> pa.Table:
        c = cents(batch.column("l_discount").to_numpy() * 100.0)  # basis points
        return pa.table(
            {
                "n": pa.array([len(c)], type=pa.int64()),
                "s1": pa.array([int(c.sum())], type=pa.int64()),
                "s2": pa.array([int((c * c).sum())], type=pa.int64()),
            }
        )

    parts = (
        read(sf_dir, "lineitem", ["l_discount"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    n = int(parts["n"].sum())
    s1 = int(parts["s1"].sum())
    s2 = int(parts["s2"].sum())
    var_pop = (s2 - (s1 * s1) / n) / n
    return pd.DataFrame({"n": [n], "s1": [s1], "s2": [s2], "var_pop_bp": [var_pop]})


VARIANCE_SQL = """
WITH m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(c) AS BIGINT) AS s1,
         CAST(SUM(c*c) AS BIGINT) AS s2
  FROM (SELECT CAST(ROUND(l_discount*100*100) AS BIGINT) AS c FROM lineitem)
)
SELECT n, s1, s2, (s2 - (s1 * s1) / n) / n AS var_pop_bp FROM m
"""


# --------------------------------------------------------------------------
# TPC-H Q14-style promotion share: conditional aggregate over a dim join
# (part ⋈ lineitem), exact-integer cents both sides.


def promo_revenue_share(sf_dir: str):
    import pyarrow.parquet as pq
    import ray

    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    promo = dict(
        zip(part.column("p_partkey").to_pylist(), [t == "PROMO" for t in part.column("p_type").to_pylist()])
    )
    ref = ray.put(promo)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(ref)
        rev = cents(batch["l_extendedprice"].to_numpy() * (1.0 - batch["l_discount"].to_numpy()))
        mm = batch["l_partkey"].map(m)
        matched = mm.notna().to_numpy()  # mirror the SQL inner join: unmatched keys drop
        is_promo = mm.fillna(False).to_numpy(dtype=bool)
        return pd.DataFrame(
            {"promo_cents": [int(rev[is_promo].sum())], "total_cents": [int(rev[matched].sum())]}
        )

    parts = (
        read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
    )
    promo_c = int(parts["promo_cents"].sum())
    total_c = int(parts["total_cents"].sum())
    return pd.DataFrame(
        {
            "promo_cents": [promo_c],
            "total_cents": [total_c],
            "promo_share": [promo_c / total_c],
        }
    )


PROMO_SQL = """
WITH r AS (
  SELECT CAST(ROUND(l_extendedprice*(1-l_discount)*100) AS BIGINT) AS c,
         p_type = 'PROMO' AS is_promo
  FROM lineitem JOIN part ON l_partkey = p_partkey
)
SELECT CAST(SUM(CASE WHEN is_promo THEN c ELSE 0 END) AS BIGINT) AS promo_cents,
       CAST(SUM(c) AS BIGINT) AS total_cents,
       CAST(SUM(CASE WHEN is_promo THEN c ELSE 0 END) AS BIGINT)
         / CAST(CAST(SUM(c) AS BIGINT) AS DOUBLE) AS promo_share
FROM r
"""


# --------------------------------------------------------------------------
# Percentiles INSIDE facet buckets (StatsComponent facet.stats /
# PercentileAgg under a terms facet): distributed (group, value) counts;
# the driver walks each group's histogram — driver rows = distinct values
# per group, never row counts.


def group_percentile(sf_dir: str):
    hist = _value_counts(sf_dir, "customer", ["c_mktsegment", "c_acctbal"])
    rows = []
    for seg, g in hist.groupby("c_mktsegment"):
        v = g["c_acctbal"].to_numpy()
        cum = np.cumsum(g["n"].to_numpy())
        total = int(cum[-1])
        out = {"c_mktsegment": seg}
        for q, name in [(0.5, "p50"), (0.9, "p90")]:
            rank = max(int(np.ceil(q * total)), 1)
            out[name] = float(v[int(np.searchsorted(cum, rank))])
        rows.append(out)
    return pd.DataFrame(rows).sort_values("c_mktsegment").reset_index(drop=True)


GROUP_PERCENTILE_SQL = """
SELECT c_mktsegment,
       quantile_disc(c_acctbal, 0.5) AS p50,
       quantile_disc(c_acctbal, 0.9) AS p90
FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment
"""


# --------------------------------------------------------------------------
# Hierarchical rollup (RollupStream over multiple levels / SQL GROUPING
# SETS): one distributed pass computes the finest (flag, status) cells;
# the subtotal levels aggregate the SMALL grouped result on the driver —
# exactly how a rollup coordinator refines.

_ALL = "__all__"


def rollup_cube(sf_dir: str):
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "n": 1,
                "qty": batch["l_quantity"].to_numpy().astype(np.int64),
            }
        )
        return g.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()

    cells = merge_partials(
        read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"]).map_batches(
            partial, batch_format="pandas"
        ),
        ["l_returnflag", "l_linestatus"],
        {"n": "sum", "qty": "sum"},
    )
    lvl1 = cells.groupby("l_returnflag", as_index=False)[["n", "qty"]].sum()
    lvl1["l_linestatus"] = _ALL
    total = pd.DataFrame(
        {"l_returnflag": [_ALL], "l_linestatus": [_ALL], "n": [cells["n"].sum()], "qty": [cells["qty"].sum()]}
    )
    out = pd.concat([cells, lvl1, total], ignore_index=True)
    for c in ("n", "qty"):
        out[c] = out[c].astype("int64")
    cols = ["l_returnflag", "l_linestatus", "n", "qty"]
    return out[cols].sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


ROLLUP_CUBE_SQL = f"""
SELECT COALESCE(l_returnflag, '{_ALL}') AS l_returnflag,
       COALESCE(l_linestatus, '{_ALL}') AS l_linestatus,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS qty
FROM lineitem
GROUP BY ROLLUP (l_returnflag, l_linestatus)
ORDER BY l_returnflag, l_linestatus
"""


# --------------------------------------------------------------------------
# Atomic updates (solr/core/src/java/org/apache/solr/update/processor/
# AtomicUpdateDocumentMerger.java): per-document `set` / `inc` field ops
# applied to a base table.  The event stream aggregates to one (set-latest,
# inc-sum) row per key — a SMALL side broadcast into a single base scan.


def atomic_update(sf_dir: str):
    import pyarrow.parquet as pq
    import ray

    ev = pq.read_table(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "event_id", "ts", "value"]
    ).to_pandas()
    # `inc` ops: click values accumulate; `set` ops: latest purchase value
    # wins (ts, then event_id as the deterministic tie-break) — this
    # aggregation is itself a bounded groupby (distinct keys), done here on
    # the update SIDE which is small relative to the base table
    inc = (
        pd.DataFrame({"user_id": ev["user_id"], "c": cents(ev["value"].to_numpy())})[
            ev["event_type"].eq("click").to_numpy()
        ]
        .groupby("user_id")["c"]
        .sum()
    )
    pur = ev[ev["event_type"] == "purchase"].sort_values(["ts", "event_id"])
    setv = pd.Series(cents(pur["value"].to_numpy()), index=pur["user_id"]).groupby(level=0).last()
    ref = ray.put((inc.to_dict(), setv.to_dict()))

    def apply(batch: pd.DataFrame) -> pd.DataFrame:
        incs, sets = ray.get(ref)
        key = batch["c_custkey"]
        base = cents(batch["c_acctbal"].to_numpy())
        set_ = key.map(sets)
        out_cents = np.where(set_.notna(), set_.fillna(0).to_numpy(), base).astype(np.int64)
        out_cents = out_cents + key.map(incs).fillna(0).to_numpy().astype(np.int64)
        return pd.DataFrame({"c_custkey": key, "balance_cents": out_cents})

    out = (
        read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
        .map_batches(apply, batch_format="pandas")
        .to_pandas()
    )
    out["balance_cents"] = out["balance_cents"].astype("int64")
    return out.sort_values("c_custkey").reset_index(drop=True)


ATOMIC_UPDATE_SQL = """
WITH inc AS (
  SELECT user_id, CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS inc_c
  FROM events WHERE event_type = 'click' GROUP BY user_id
),
setv AS (
  SELECT user_id, CAST(ROUND(value*100) AS BIGINT) AS set_c FROM events
  WHERE event_type = 'purchase'
  QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
)
SELECT c_custkey,
       CAST(COALESCE(set_c, CAST(ROUND(c_acctbal*100) AS BIGINT)) + COALESCE(inc_c, 0) AS BIGINT)
         AS balance_cents
FROM customer
LEFT JOIN setv ON setv.user_id = c_custkey
LEFT JOIN inc ON inc.user_id = c_custkey
ORDER BY c_custkey
"""


# Atomic updates on MULTI-VALUED fields (AtomicUpdateDocumentMerger add /
# add-distinct / remove ops — the other half of set/inc above): each
# customer's `segments` field accumulates add-distinct of its event types
# with 'view' removed.  Update side: per-batch distinct (user, type)
# pairs (≤ users × |event types| rows), deduped once more on the driver —
# the same small-update-side contract as atomic_update; the base-table
# pass is a broadcast map.


def atomic_update_multivalued(sf_dir: str):
    import ray

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["event_type"] != "view"]  # the `remove` op
        return b[["user_id", "event_type"]].drop_duplicates()

    upd = (
        read(sf_dir, "events", ["user_id", "event_type"])
        .map_batches(pairs, batch_format="pandas")
        .to_pandas()
        .drop_duplicates()  # add-distinct across batches
    )
    g = upd.sort_values(["user_id", "event_type"]).groupby("user_id")["event_type"]
    segs = g.agg(",".join).to_dict()
    nvals = g.size().to_dict()
    ref = ray.put((segs, nvals))

    def apply(batch: pd.DataFrame) -> pd.DataFrame:
        m, nv = ray.get(ref)
        key = batch["c_custkey"]
        return pd.DataFrame(
            {
                "c_custkey": key,
                "segments": key.map(m).fillna("").astype(object),
                "n_vals": key.map(nv).fillna(0).astype("int64"),
            }
        )

    out = (
        read(sf_dir, "customer", ["c_custkey"])
        .map_batches(apply, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("c_custkey").reset_index(drop=True)


ATOMIC_MULTIVALUED_SQL = """
WITH upd AS (
  SELECT user_id,
         array_to_string(list_sort(list_distinct(array_agg(event_type))), ',') AS segs,
         CAST(len(list_distinct(array_agg(event_type))) AS BIGINT) AS nv
  FROM events WHERE event_type <> 'view' GROUP BY user_id
)
SELECT c_custkey, COALESCE(segs, '') AS segments, COALESCE(nv, 0) AS n_vals
FROM customer LEFT JOIN upd ON upd.user_id = c_custkey
ORDER BY c_custkey
"""


# --------------------------------------------------------------------------
# As-of (temporal) join — the classic "latest dimension row at-or-before
# the fact timestamp" join (DuckDB/kdb ASOF JOIN; Solr-side analog is the
# fetch/rollup stream over time-ordered collections).  Distributed shape:
# co-partition BOTH sides by key hash into fixed buckets (one union'd
# Dataset with a side tag — one shuffle, no broadcast), then a per-bucket
# pandas merge_asof.  Partitioning assumption: all rows of one key land in
# one bucket; time order is restored inside the bucket, never globally.
# Ties on (key, time) in the right side are broken deterministically
# (highest order key wins) so engine and oracle agree row-for-row.


def asof_join(sf_dir: str):
    left = read(sf_dir, "events", ["event_id", "user_id", "ts"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "key": b["user_id"].astype("int64"),
                "t": ts_us(b["ts"]),
                "event_id": b["event_id"].astype("int64"),
                "o_orderkey": np.int64(-1),
                "o_totalprice": np.nan,
                "side": np.int8(0),
            }
        ),
        batch_format="pandas",
    )
    right = read(
        sf_dir, "orders", ["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "key": b["o_custkey"].astype("int64"),
                "t": ts_us(b["o_orderdate"]),
                "event_id": np.int64(-1),
                "o_orderkey": b["o_orderkey"].astype("int64"),
                "o_totalprice": b["o_totalprice"].astype("float64"),
                "side": np.int8(1),
            }
        ),
        batch_format="pandas",
    )

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["side"] == 0][["key", "t", "event_id"]].sort_values("t", kind="mergesort")
        # one sort suffices: ordered by (t, o_orderkey), same-(key,t) rows
        # appear in ascending o_orderkey order (drop_duplicates keeps the
        # last OCCURRENCE — adjacency not required), and the frame is
        # already t-sorted for merge_asof
        r = (
            g[g["side"] == 1][["key", "t", "o_orderkey", "o_totalprice"]]
            .sort_values(["t", "o_orderkey"], kind="mergesort")
            .drop_duplicates(["key", "t"], keep="last")
        )
        if l.empty or r.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series(dtype="int64"),
                    "order_key": pd.Series(dtype="int64"),
                    "order_price": pd.Series(dtype="float64"),
                }
            )
        m = pd.merge_asof(l, r, on="t", by="key", direction="backward")
        m = m.dropna(subset=["o_orderkey"])
        return pd.DataFrame(
            {
                "event_id": m["event_id"].astype("int64").to_numpy(),
                "order_key": m["o_orderkey"].astype("int64").to_numpy(),
                "order_price": m["o_totalprice"].to_numpy(),
            }
        )

    out = bucketed(left.union(right), "key", join_bucket).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


ASOF_JOIN_SQL = """
WITH r AS (
  SELECT o_custkey, o_orderdate,
         MAX(o_orderkey) AS order_key,
         ARG_MAX(o_totalprice, o_orderkey) AS order_price
  FROM orders GROUP BY o_custkey, o_orderdate)
SELECT e.event_id, r.order_key, r.order_price
FROM events e ASOF JOIN r ON e.user_id = r.o_custkey AND e.ts >= r.o_orderdate
ORDER BY e.event_id
"""


# --------------------------------------------------------------------------
# Range (interval-containment) join — fact rows joined to every band whose
# [lo, hi] interval contains the value; bands OVERLAP, so this is a real
# one-to-many join, not a bucketing CASE.  Shape: the band table is tiny →
# broadcast once per batch closure; per-batch vectorized containment masks
# feed combiner partials (no shuffle at all).  Partitioning assumption:
# the band side fits in memory; a large band side would interval-partition
# both sides by range instead.

_QTY_BANDS = [("low", 1, 25), ("mid", 10, 40), ("high", 30, 50)]


def range_join(sf_dir: str):
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        q = batch["l_quantity"].to_numpy()
        # FLOOR on both sides — unambiguous, unlike CAST(DOUBLE AS BIGINT)
        # rounding semantics (CLAUDE.md derived-value invariant)
        qi = np.floor(q).astype("int64")
        rows = []
        for band, lo, hi in _QTY_BANDS:
            mask = (q >= lo) & (q <= hi)
            rows.append((band, int(mask.sum()), int(qi[mask].sum())))
        return pd.DataFrame(rows, columns=["band", "n", "sum_qty"])

    parts = read(sf_dir, "lineitem", ["l_quantity"]).map_batches(
        partial, batch_format="pandas"
    )
    out = merge_partials(parts, ["band"], {"n": "sum", "sum_qty": "sum"})
    out["n"] = out["n"].astype("int64")
    out["sum_qty"] = out["sum_qty"].astype("int64")
    return out.sort_values("band").reset_index(drop=True)


RANGE_JOIN_SQL = """
WITH bands(band, lo, hi) AS (VALUES ('low',1,25),('mid',10,40),('high',30,50))
SELECT band, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(FLOOR(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty
FROM lineitem JOIN bands ON l_quantity BETWEEN lo AND hi
GROUP BY band ORDER BY band
"""


PIPELINES: dict[str, Pipeline] = {
    "asof_join": Pipeline(
        asof_join,
        ASOF_JOIN_SQL,
        "as-of temporal join: each event matched to the latest order of its key "
        "at-or-before its timestamp (co-partitioned bucketed shuffle + per-bucket backward merge)",
    ),
    "range_join": Pipeline(
        range_join,
        RANGE_JOIN_SQL,
        "interval-containment range join against overlapping bands "
        "(broadcast small side + vectorized masks + combiner partials)",
    ),
    "atomic_update": Pipeline(atomic_update, ATOMIC_UPDATE_SQL, "set/inc atomic document updates (AtomicUpdateDocumentMerger)"),
    "atomic_update_multivalued": Pipeline(
        atomic_update_multivalued,
        ATOMIC_MULTIVALUED_SQL,
        "add-distinct/remove atomic updates on a multi-valued field",
    ),
    "rollup_cube": Pipeline(rollup_cube, ROLLUP_CUBE_SQL, "hierarchical GROUPING-SETS rollup (multi-level RollupStream)"),
    "group_percentile": Pipeline(group_percentile, GROUP_PERCENTILE_SQL, "exact percentiles inside facet buckets (facet.stats / PercentileAgg)"),
    "facet_field_params": Pipeline(
        facet_field_params, FACET_PARAMS_SQL, "classic facet params: prefix/contains/sort=index/offset/limit/mincount/missing (SimpleFacets)"
    ),
    "facet_field": Pipeline(facet_field, FACET_FIELD_SQL,"field facet counts (SimpleFacets)"),
    "promo_revenue_share": Pipeline(promo_revenue_share, PROMO_SQL, "conditional aggregate over dim join (TPC-H Q14 shape)"),
    "random_sample_hash": Pipeline(random_sample_hash, RANDOM_SAMPLE_SQL, "seeded pseudo-random sampling (RandomSortField)"),
    "stratified_sample": Pipeline(
        stratified_sample, STRATIFIED_SAMPLE_SQL, "per-domain keep-rate sampling (training-data mixing), deterministic hash"
    ),
    "variance_moments": Pipeline(variance_moments, VARIANCE_SQL, "stddev/variance from exact integer moments (VarianceAgg)"),
    "export_sorted": Pipeline(export_sorted, EXPORT_SQL, "full sorted export via ds.sort → parquet sink (/export)"),
    "function_query": Pipeline(function_query, FUNCTION_QUERY_SQL, "ValueSource expression scoring (FunctionScoreQuery)"),
    "frange_filter": Pipeline(frange_filter, FRANGE_SQL, "{!frange}: filter by ValueSource expression range (FunctionRangeQuery)"),
    "currency_convert": Pipeline(currency_convert, CURRENCY_SQL, "CurrencyFieldType: exact-cents parse + truncating-multiply conversion (currency() ValueSource)"),
    "time_series_rollup": Pipeline(time_series_rollup, TIME_SERIES_SQL, "calendar-window rollup (TimeSeriesStream)"),
    "stats_numeric": Pipeline(stats_numeric, STATS_SQL, "global field stats (StatsComponent)"),
    "stats_string": Pipeline(stats_string, STATS_STRING_SQL, "string-field stats (StringStatsValues: lexicographic min/max, count/missing/countDistinct over a nullable projection)"),
    "rollup_pricing": Pipeline(rollup_pricing, ROLLUP_SQL, "multi-metric grouped rollup (RollupStream / TPC-H Q1 shape)"),
    "join_facet": Pipeline(join_facet, JOIN_FACET_SQL, "broadcast hash join + facet (HashJoinStream)"),
    "join_multi_region": Pipeline(join_multi_region, JOIN_MULTI_SQL, "multi-way dim join"),
    "semi_join": Pipeline(semi_join, SEMI_JOIN_SQL, "broadcast semi-join (JoinUtil)"),
    "child_join": Pipeline(child_join, CHILD_JOIN_SQL, "children of matching parents w/ parent value (ToChildBlockJoinQuery / {!child})"),
    "blockjoin_facet": Pipeline(blockjoin_facet, BLOCKJOIN_FACET_SQL, "child-field facet counting each parent once per bucket (BlockJoinFacetComponent / uniqueBlock)"),
    "group_facet": Pipeline(group_facet, GROUP_FACET_SQL, "grouped faceting: each group counts once per value (group.facet=true / TermGroupFacetCollector)"),
    "anti_join": Pipeline(anti_join, ANTI_JOIN_SQL, "anti-join (MUST_NOT / ComplementStream)"),
    "group_ngroups": Pipeline(
        group_ngroups, GROUP_NGROUPS_SQL, "grouped page + total distinct group count via per-bucket count partials (group.ngroups)"
    ),
    "group_topk": Pipeline(group_topk, GROUP_TOPK_SQL, "top-k docs per group (grouping collectors)"),
    "group_query": Pipeline(
        group_query, GROUP_QUERY_SQL, "group.query: per-predicate top-k via bounded combiner partials"
    ),
    "collapse_best": Pipeline(collapse_best, COLLAPSE_SQL, "field collapse (CollapsingQParserPlugin)"),
    "collapse_expand": Pipeline(
        collapse_expand, COLLAPSE_EXPAND_SQL, "expand collapsed groups on the page (ExpandComponent)"
    ),
    "sort_topk": Pipeline(sort_topk, SORT_TOPK_SQL, "distributed top-k by fields (TopFieldCollector)"),
    "range_filter": Pipeline(range_filter, RANGE_FILTER_SQL, "numeric/date range predicate (PointRangeQuery)"),
    "merge_union": Pipeline(merge_union, MERGE_UNION_SQL, "sorted union (MergeStream)"),
    "unique_values": Pipeline(unique_values, UNIQUE_SQL, "distinct values (UniqueStream)"),
    "cursor_paging": Pipeline(cursor_paging, CURSOR_SQL, "keyset pagination (CursorMark)"),
    "date_math_range_facet": Pipeline(
        date_math_range_facet,
        DATE_MATH_SQL,
        "range facet with REAL date-math bounds (DateMathParser NOW/MONTH±N) — twin derives the same instants via date_trunc+INTERVAL",
    ),
    "percentile_disc": Pipeline(percentile_disc, PERCENTILE_SQL, "exact discrete percentiles via distributed value counts (StatsComponent percentiles)"),
    "percentile_cont": Pipeline(percentile_cont, PERCENTILE_CONT_SQL, "interpolated percentiles from the distributed value-count histogram (quantile_cont parity)"),
    "percentile_tdigest": Pipeline(percentile_tdigest, PERCENTILE_CONT_SQL, "mergeable t-digest percentile sketch (PercentileAgg) + exact boundary refinement — strict quantile_cont parity"),
}
