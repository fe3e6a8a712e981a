"""Stream-shaped operators over the `events` log (SURVEY.md §2.10).

Ray Data has no event-time windows; the reference has none either — its
streaming is sorted-tuple pull.  Session windows are implemented as
`groupby(key).map_groups` over ts-sorted groups (ordering assumption: a
group fits and is sorted in-worker; the oracle SQL uses lag/window fns).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .common import Pipeline, bucketed, read, ts_us

SESSION_GAP_US = 1_800_000_000  # 30 min


def sessionize(sf_dir: str):
    """Per-user session count + max session length (30-min inactivity gap).

    A user's history is co-located by the bucketed shuffle; inside each
    bucket the gap/session logic is one vectorized pass over the
    (user, ts)-sorted rows."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        us = ts_us(g["ts"])
        uid = g["user_id"].to_numpy()
        new_user = np.empty(len(g), dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        new_sess = new_user.copy()
        new_sess[1:] |= np.diff(us) > SESSION_GAP_US
        sess_id = np.cumsum(new_sess) - 1
        sizes = np.bincount(sess_id)
        uniq, inv = np.unique(uid, return_inverse=True)
        n_sessions = np.bincount(inv[new_sess], minlength=uniq.size)
        sess_user = inv[new_sess]  # owning user per session
        max_size = np.zeros(uniq.size, dtype=np.int64)
        np.maximum.at(max_size, sess_user, sizes)
        return pd.DataFrame(
            {
                "user_id": uniq,
                "n_sessions": n_sessions.astype(np.int64),
                "max_session_events": max_size,
            }
        )

    out = bucketed(read(sf_dir, "events", ["user_id", "event_id", "ts"]), "user_id", per_bucket).to_pandas()
    out["n_sessions"] = out["n_sessions"].astype("int64")
    out["max_session_events"] = out["max_session_events"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


SESSIONIZE_SQL = f"""
WITH gaps AS (
  SELECT user_id, event_id, ts,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w > {SESSION_GAP_US}
              OR lag(ts) OVER w IS NULL THEN 1 ELSE 0 END AS new_sess
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
sess AS (
  SELECT user_id,
         SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS sess_id
  FROM gaps
),
sizes AS (
  SELECT user_id, sess_id, COUNT(*) AS n FROM sess GROUP BY user_id, sess_id
)
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_sessions,
       CAST(MAX(n) AS BIGINT) AS max_session_events
FROM sizes GROUP BY user_id ORDER BY user_id
"""

# --------------------------------------------------------------------------
# §2.10 TopicStream-style incremental consumption: running per-type count
# restricted to events after a checkpoint ts (the "only new docs" contract).


def incremental_after_checkpoint(sf_dir: str):
    checkpoint = np.datetime64("2024-01-20", "us").astype("int64")

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        keep = ts_us(batch["ts"]) > checkpoint
        b = batch[keep]
        return b.groupby("event_type", as_index=False).agg(n=("event_id", "size"))

    from .common import merge_partials

    ds = read(sf_dir, "events", ["event_type", "event_id", "ts"]).map_batches(
        f, batch_format="pandas"
    )
    out = merge_partials(ds, ["event_type"], {"n": "sum"})
    out["n"] = out["n"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


INCREMENTAL_SQL = """
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n
FROM events WHERE ts > TIMESTAMP '2024-01-20'
GROUP BY event_type ORDER BY event_type
"""


# --------------------------------------------------------------------------
# §2.10 TTL expiry (DocExpirationUpdateProcessorFactory): periodic
# delete-of-expired compaction — filter to live docs, write the compacted
# partition set, report survivors.

TTL_CUTOFF = "2024-01-10"  # docs with ts < cutoff are expired


def ttl_compact(sf_dir: str):
    import hashlib as _h
    import shutil as _sh

    cutoff = np.datetime64(TTL_CUTOFF, "us").astype("int64")
    out_dir = f"/tmp/lsr_ttl_{_h.sha1(sf_dir.encode()).hexdigest()[:8]}"
    _sh.rmtree(out_dir, ignore_errors=True)

    def live(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[ts_us(batch["ts"]) >= cutoff]

    ds = read(sf_dir, "events", ["event_id", "event_type", "ts"]).map_batches(
        live, batch_format="pandas"
    )
    ds.write_parquet(out_dir)  # the compacted partition set
    import ray.data as rd

    from .common import merge_partials

    # Survivor counts via per-batch partials over the written files — only
    # (event_type, n) rows reach the driver, never the compacted data.
    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch[["event_type"]].copy()
        g["n_live"] = 1
        return g.groupby("event_type", as_index=False).sum()

    out = merge_partials(
        rd.read_parquet(out_dir, columns=["event_type"]).map_batches(
            count_partial, batch_format="pandas"
        ),
        ["event_type"],
        {"n_live": "sum"},
    )
    out["n_live"] = out["n_live"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


TTL_SQL = f"""
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_live
FROM events WHERE ts >= TIMESTAMP '{TTL_CUTOFF}'
GROUP BY event_type ORDER BY event_type
"""


# --------------------------------------------------------------------------
# Hopping (sliding) windows: every event contributes to the W daily windows
# that contain it — the event EXPLODES into (window, partial) rows inside
# map_batches with a combiner, so the shuffle carries only per-(window,
# type) partials; full windows only.

HOP_W = 7  # window length in days, hop = 1 day


def hopping_window(sf_dir: str):
    from .common import cents, read, ts_us

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        day = ts_us(batch["ts"]) // 86_400_000_000
        c = cents(batch["value"].to_numpy())
        n = len(batch)
        # window_end ∈ [day, day+W): event at d belongs to windows ending
        # d..d+W-1 (each window covers [end-W+1, end])
        ends = (day[:, None] + np.arange(HOP_W, dtype=np.int64)[None, :]).reshape(-1)
        g = pd.DataFrame(
            {
                "event_type": np.repeat(batch["event_type"].to_numpy(), HOP_W),
                "window_end": ends,
                "n": 1,
                "value_cents": np.repeat(c, HOP_W),
            }
        )
        return g.groupby(["event_type", "window_end"], as_index=False).sum()

    from .common import merge_partials

    out = merge_partials(
        read(sf_dir, "events", ["event_type", "ts", "value"]).map_batches(
            explode, batch_format="pandas"
        ),
        ["event_type", "window_end"],
        {"n": "sum", "value_cents": "sum"},
    )
    # full windows only: drop the warm-up edge (first W−1 window ends per type)
    lo = out.groupby("event_type")["window_end"].transform("min") + (HOP_W - 1)
    out = out[out["window_end"] >= lo]
    for c in ("n", "value_cents"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["event_type", "window_end"]).reset_index(drop=True)


HOPPING_SQL = f"""
WITH daily AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS day,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS c
  FROM events GROUP BY event_type, day
),
w AS (
  SELECT d.event_type, d.day + ends.i AS window_end, d.n, d.c
  FROM daily d CROSS JOIN (SELECT unnest(range({HOP_W})) AS i) ends
),
agg AS (
  SELECT event_type, window_end, CAST(SUM(n) AS BIGINT) AS n, CAST(SUM(c) AS BIGINT) AS value_cents
  FROM w GROUP BY event_type, window_end
)
SELECT event_type, window_end, n, value_cents FROM agg
QUALIFY window_end >= MIN(window_end) OVER (PARTITION BY event_type) + {HOP_W - 1}
ORDER BY event_type, window_end
"""


def left_outer_enrich(sf_dir: str):
    """LEFT OUTER join (Ray native hash join): every customer with its
    order count/revenue, zero for customers without orders — the
    OuterHashJoinStream analog.  The per-customer pre-aggregate runs as
    a `bucketed` shuffle (per-key sums inside the bucket),
    NOT a Ray Aggregate — the Aggregate op carries a 2-4 s fixed cost on
    this box (CLAUDE.md), and the join must see ONE row per key or the
    left join would duplicate customers."""
    import ray

    from .common import cents, read

    orders = read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def pre(batch: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame(
            {"o_custkey": batch["o_custkey"], "revenue_cents": cents(batch["o_totalprice"].to_numpy()), "n_orders": 1}
        )
        return g.groupby("o_custkey", as_index=False).sum()

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("o_custkey", as_index=False)[["revenue_cents", "n_orders"]].sum()

    per_cust = bucketed(orders.map_batches(pre, batch_format="pandas"), "o_custkey", combine)
    cust = read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    joined = cust.join(
        per_cust,
        join_type="left_outer",
        num_partitions=max(2, cpus // 8),
        on=("c_custkey",),
        right_on=("o_custkey",),
    ).to_pandas()
    joined["revenue_cents"] = joined["revenue_cents"].fillna(0).astype("int64")
    joined["n_orders"] = joined["n_orders"].fillna(0).astype("int64")
    cols = ["c_custkey", "c_mktsegment", "n_orders", "revenue_cents"]
    return joined[cols].sort_values("c_custkey").reset_index(drop=True)


LEFT_OUTER_SQL = """
SELECT c_custkey, c_mktsegment,
       CAST(COALESCE(COUNT(o_custkey), 0) AS BIGINT) AS n_orders,
       CAST(COALESCE(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)), 0) AS BIGINT) AS revenue_cents
FROM customer LEFT JOIN orders ON o_custkey = c_custkey
GROUP BY c_custkey, c_mktsegment ORDER BY c_custkey
"""


# --------------------------------------------------------------------------
# Cohort retention (the classic time-series analytics table; engine analog
# of a TimeSeriesStream × gatherNodes composition): users grouped by their
# first-activity day, counted once per subsequent active day.  Users
# are co-located by the bucketed shuffle, so every per-bucket partial
# (cohort day, day offset, distinct users) is EXACT and the driver
# merge handles cohorts × offsets × buckets ints only.


def cohort_retention(sf_dir: str):
    def user_days(batch: pd.DataFrame) -> pd.DataFrame:
        us = ts_us(batch["ts"])
        days = (us.astype("datetime64[us]").astype("datetime64[D]")).astype(np.int64)
        return pd.DataFrame({"user_id": batch["user_id"].to_numpy(), "m": days}).drop_duplicates()

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "m"])
        cohort = g.groupby("user_id")["m"].transform("min")
        pairs = pd.DataFrame(
            {"cohort_d": cohort, "offset_d": g["m"].to_numpy() - cohort.to_numpy()}
        )
        out = pairs.groupby(["cohort_d", "offset_d"], as_index=False).size()
        return out.rename(columns={"size": "n_users"})

    days = read(sf_dir, "events", ["user_id", "ts"]).map_batches(user_days, batch_format="pandas")
    parts = bucketed(days, "user_id", per_bucket).to_pandas()
    out = parts.groupby(["cohort_d", "offset_d"], as_index=False)["n_users"].sum()
    # days since epoch → midnight timestamp (DuckDB date_trunc twin)
    out["cohort"] = out["cohort_d"].to_numpy().astype("datetime64[D]").astype("datetime64[us]")
    out["offset_d"] = out["offset_d"].astype("int64")
    out["n_users"] = out["n_users"].astype("int64")
    return (
        out[["cohort", "offset_d", "n_users"]]
        .sort_values(["cohort", "offset_d"])
        .reset_index(drop=True)
    )


COHORT_RETENTION_SQL = """
WITH um AS (SELECT DISTINCT user_id, date_trunc('day', ts) AS m FROM events),
c AS (SELECT user_id, MIN(m) AS cohort FROM um GROUP BY user_id)
SELECT CAST(cohort AS TIMESTAMP) AS cohort,
       CAST(datediff('day', cohort, m) AS BIGINT) AS offset_d,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM um JOIN c USING (user_id)
GROUP BY cohort, offset_d ORDER BY cohort, offset_d
"""


# --------------------------------------------------------------------------
# Funnel conversion (ordered event-sequence matching — the event-log analog
# of a chained gatherNodes walk): per user, the first `view`, the first
# `click` strictly after it, the first `purchase` strictly after that.
# Users co-located by the bucketed shuffle → per-bucket step flags are
# exact; the driver merges 3 ints per bucket.

FUNNEL_STEPS = ("view", "click", "purchase")


def funnel_conversion(sf_dir: str):
    def steps(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch["event_type"].isin(FUNNEL_STEPS)
        out = batch.loc[m, ["user_id", "event_type"]].copy()
        out["us"] = ts_us(batch.loc[m, "ts"])
        return out

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        counts = np.zeros(len(FUNNEL_STEPS), dtype=np.int64)
        # vectorized per user: first step-0 ts, then first later step-1, …
        cur: pd.Series | None = None
        for i, st in enumerate(FUNNEL_STEPS):
            if i == 0:
                cur = g[g["event_type"] == st].groupby("user_id")["us"].min()
            else:
                # first occurrence of this step strictly after the user's
                # previous-step time: min over events with us > cur[user]
                ev = g[g["event_type"] == st][["user_id", "us"]]
                ev = ev.merge(cur.rename("prev"), left_on="user_id", right_index=True)
                ev = ev[ev["us"] > ev["prev"]]
                cur = ev.groupby("user_id")["us"].min()
            counts[i] = len(cur)
            if cur.empty:
                break
        return pd.DataFrame(
            {"step": np.arange(len(FUNNEL_STEPS), dtype=np.int64), "n_users": counts}
        )

    ev = read(sf_dir, "events", ["user_id", "event_type", "ts"]).map_batches(steps, batch_format="pandas")
    parts = bucketed(ev, "user_id", per_bucket).to_pandas()
    out = parts.groupby("step", as_index=False)["n_users"].sum()
    out["step_name"] = [FUNNEL_STEPS[i] for i in out["step"]]
    out["n_users"] = out["n_users"].astype("int64")
    return out[["step", "step_name", "n_users"]].sort_values("step").reset_index(drop=True)


FUNNEL_SQL = f"""
WITH s0 AS (
  SELECT user_id, MIN(ts) AS t0 FROM events
  WHERE event_type = '{FUNNEL_STEPS[0]}' GROUP BY user_id
),
s1 AS (
  SELECT e.user_id, MIN(ts) AS t1 FROM events e JOIN s0 USING (user_id)
  WHERE event_type = '{FUNNEL_STEPS[1]}' AND ts > t0 GROUP BY e.user_id
),
s2 AS (
  SELECT e.user_id, MIN(ts) AS t2 FROM events e JOIN s1 USING (user_id)
  WHERE event_type = '{FUNNEL_STEPS[2]}' AND ts > t1 GROUP BY e.user_id
)
SELECT * FROM (
  SELECT CAST(0 AS BIGINT) AS step, '{FUNNEL_STEPS[0]}' AS step_name,
         CAST((SELECT COUNT(*) FROM s0) AS BIGINT) AS n_users
  UNION ALL
  SELECT 1, '{FUNNEL_STEPS[1]}', CAST((SELECT COUNT(*) FROM s1) AS BIGINT)
  UNION ALL
  SELECT 2, '{FUNNEL_STEPS[2]}', CAST((SELECT COUNT(*) FROM s2) AS BIGINT)
) ORDER BY step
"""


PIPELINES: dict[str, Pipeline] = {
    "sessionize": Pipeline(sessionize, SESSIONIZE_SQL, "session windows over the event log"),
    "ttl_compact": Pipeline(ttl_compact, TTL_SQL, "TTL expiry compaction (DocExpiration URP)"),
    "incremental_after_checkpoint": Pipeline(
        incremental_after_checkpoint, INCREMENTAL_SQL, "checkpointed incremental consumption (TopicStream)"
    ),
    "hopping_window": Pipeline(hopping_window, HOPPING_SQL, "7-day hopping windows via event explode + combiner"),
    "left_outer_enrich": Pipeline(left_outer_enrich, LEFT_OUTER_SQL, "left-outer enrichment join (OuterHashJoinStream)"),
    "cohort_retention": Pipeline(
        cohort_retention, COHORT_RETENTION_SQL, "cohort retention matrix: first-activity day × day offset distinct users (bucketed exact partials)"
    ),
    "funnel_conversion": Pipeline(
        funnel_conversion, FUNNEL_SQL, "ordered event-sequence funnel: view → click → purchase first-occurrence chain per user"
    ),
}
