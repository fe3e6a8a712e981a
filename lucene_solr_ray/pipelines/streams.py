"""Streaming-expression language — the `Expressible` SPI surface.

Reference: the reference's streaming expressions are a tiny functional
language over TupleStreams; every stream/metric/evaluator is constructible
from a parsed expression:
  solr/solrj/src/java/org/apache/solr/client/solrj/io/stream/expr/
    StreamExpressionParser.java (~300, char-level recursive parser),
    StreamFactory.java (~400, name -> constructor registry);
  streams under solr/solrj/.../io/stream/ (SearchStream, RollupStream,
    SelectStream, RankStream ("top"), UniqueStream, MergeStream,
    InnerJoinStream, LeftOuterJoinStream, HashJoinStream, IntersectStream,
    ComplementStream, HavingStream, FacetStream, StatsStream, FetchStream,
    CartesianProductStream, ParallelStream);
  metrics under .../io/stream/metrics/ (SumMetric, MeanMetric, ...);
  boolean evaluators under .../io/eval/ (GreaterThanEvaluator, AndEvaluator...).

Here: the same grammar parsed by a char-level recursive-descent parser into
`Expr` nodes, then planned by a name->constructor REGISTRY onto the engine's
Ray Data shapes:

- `search` is a pruned parquet read + vectorized per-batch docvalues mask
  (the /export-style docvalues search); `qt="/select"` instead routes the
  query through the real BM25 shard actor pool (CloudSolrStream leaf).
- `rollup`/`facet`/`stats` run as per-batch combiner partials merged on the
  coordinator (`common.merge_partials`) — the bounded-domain aggregate
  pattern; Solr's FacetStream is likewise a facet response merge.  For
  UNBOUNDED group domains use `drill` (bucketed exact merge, Dataset out).
- `top` (RankStream) is per-batch top-k + a bounded driver merge: only
  n rows per block ever leave workers.
- join/intersect/complement broadcast the (small) right side exactly as the
  reference's HashJoinStream reads its `hashed` stream fully into memory;
  the left side streams.
- `unique` keeps the first tuple per key under the stream's declared sort
  (per-batch first-per-key partials, coordinator re-sort of the bounded
  partial set).
- `parallel` is accepted and is a no-op: Ray Data executes every stage
  data-parallel already (the `{!hash workers=N}` shuffle is native).

Exactness: gated expressions aggregate integer columns only (float sums are
order-dependent); raw float columns pass through untouched. `avg` is
computed as float64(exact int sum)/float64(count) on both sides.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable

import numpy as np
import pandas as pd

from .common import BUCKET_COL, Pipeline, bucketed, merge_partials, read

# --------------------------------------------------------------------------
# Parser (StreamExpressionParser analog)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


@dataclass
class Expr:
    """One parsed expression node: name(positional..., key=value...)."""

    name: str
    args: list = dc_field(default_factory=list)  # positional: Expr | str
    params: dict = dc_field(default_factory=dict)  # named: str -> Expr | str

    def __repr__(self) -> str:  # round-trippable-ish, for error messages
        inner = [repr(a) if isinstance(a, Expr) else a for a in self.args]
        inner += [f"{k}={v!r}" for k, v in self.params.items()]
        return f"{self.name}({', '.join(map(str, inner))})"


class StreamExprError(ValueError):
    pass


class _Parser:
    def __init__(self, s: str):
        self.s = s
        self.i = 0

    def _ws(self) -> None:
        while self.i < len(self.s) and self.s[self.i].isspace():
            self.i += 1

    def _fail(self, msg: str) -> None:
        raise StreamExprError(f"{msg} at offset {self.i}: ...{self.s[self.i:self.i+30]!r}")

    def parse(self) -> Expr:
        self._ws()
        e = self._expr()
        self._ws()
        if self.i != len(self.s):
            self._fail("trailing input")
        return e

    def _expr(self) -> Expr:
        m = _IDENT_RE.match(self.s, self.i)
        if not m:
            self._fail("expected stream/function name")
        name = m.group(0)
        self.i = m.end()
        self._ws()
        if self.i >= len(self.s) or self.s[self.i] != "(":
            self._fail(f"expected '(' after {name!r}")
        self.i += 1
        e = Expr(name)
        self._ws()
        if self.i < len(self.s) and self.s[self.i] == ")":
            self.i += 1
            return e
        while True:
            self._operand(e)
            self._ws()
            if self.i >= len(self.s):
                self._fail("unterminated expression")
            if self.s[self.i] == ",":
                self.i += 1
                self._ws()
                continue
            if self.s[self.i] == ")":
                self.i += 1
                return e
            self._fail("expected ',' or ')'")

    def _operand(self, parent: Expr) -> None:
        self._ws()
        if self.i < len(self.s) and self.s[self.i] == '"':
            parent.args.append(self._quoted())
            return
        m = _IDENT_RE.match(self.s, self.i)
        if m:
            j = m.end()
            while j < len(self.s) and self.s[j].isspace():
                j += 1
            if j < len(self.s) and self.s[j] == "(":
                inner = self._expr()
                # `expr as alias` (select-operation naming, StreamExpression
                # value syntax): wrap as Expr("as", [inner, alias])
                save = self.i
                self._ws()
                m_as = re.match(r"as\s+(\w+)", self.s[self.i :])
                if m_as:
                    self.i += m_as.end()
                    inner = Expr("as", args=[inner, m_as.group(1)])
                else:
                    self.i = save
                parent.args.append(inner)
                return
            if j < len(self.s) and self.s[j] == "=":
                key = m.group(0)
                self.i = j + 1
                self._ws()
                if self.i < len(self.s) and self.s[self.i] == '"':
                    parent.params[key] = self._quoted()
                    return
                m2 = _IDENT_RE.match(self.s, self.i)
                if m2:
                    j2 = m2.end()
                    while j2 < len(self.s) and self.s[j2].isspace():
                        j2 += 1
                    if j2 < len(self.s) and self.s[j2] == "(":
                        parent.params[key] = self._expr()
                        return
                parent.params[key] = self._bare()
                return
        parent.args.append(self._bare())

    def _quoted(self) -> str:
        assert self.s[self.i] == '"'
        self.i += 1
        out: list[str] = []
        while self.i < len(self.s):
            c = self.s[self.i]
            if c == "\\" and self.i + 1 < len(self.s):
                out.append(self.s[self.i + 1])
                self.i += 2
                continue
            if c == '"':
                self.i += 1
                return "".join(out)
            out.append(c)
            self.i += 1
        self._fail("unterminated string")
        raise AssertionError  # unreachable

    def _bare(self) -> str:
        start = self.i
        while self.i < len(self.s) and self.s[self.i] not in ",)":
            self.i += 1
        val = self.s[start : self.i].strip()
        if not val:
            self._fail("empty operand")
        return val


def parse_expr(s: str) -> Expr:
    return _Parser(s).parse()


# --------------------------------------------------------------------------
# Plan-time helpers

@dataclass
class SRes:
    """A planned stream: either a lazy Ray Dataset (unbounded, streaming) or
    a bounded pandas frame already safe on the coordinator, plus the
    stream's declared sort (StreamComparator analog)."""

    ds: Any = None
    df: pd.DataFrame | None = None
    sort: list[tuple[str, bool]] = dc_field(default_factory=list)  # (col, asc)


@dataclass
class Ctx:
    sf_dir: str


def _map(res: SRes, fn: Callable[[pd.DataFrame], pd.DataFrame]) -> SRes:
    if res.df is not None:
        return SRes(df=fn(res.df), sort=res.sort)
    return SRes(ds=res.ds.map_batches(fn, batch_format="pandas"), sort=res.sort)


def _to_df(res: SRes) -> pd.DataFrame:
    """Materialize — ONLY for bounded results and broadcast (hashed/right)
    join sides, mirroring HashJoinStream reading its build side fully."""
    if res.df is not None:
        return res.df
    df = res.ds.to_pandas()
    if len(df.columns) == 0:  # all blocks empty: Ray drops the schema
        try:
            schema = res.ds.schema()
            if schema is not None:
                df = pd.DataFrame({c: pd.Series(dtype="object") for c in schema.names})
        except Exception:
            pass
    return df


def _parse_sort(spec: str) -> list[tuple[str, bool]]:
    out = []
    for part in spec.split(","):
        toks = part.split()
        if not toks:
            continue
        asc = True
        if len(toks) > 1:
            d = toks[1].lower()
            if d not in ("asc", "desc"):
                raise StreamExprError(f"bad sort direction {toks[1]!r}")
            asc = d == "asc"
        out.append((toks[0], asc))
    if not out:
        raise StreamExprError(f"empty sort spec {spec!r}")
    return out


def _sorted_df(df: pd.DataFrame, sort: list[tuple[str, bool]]) -> pd.DataFrame:
    return df.sort_values(
        [c for c, _ in sort], ascending=[a for _, a in sort], kind="mergesort"
    )


def _split_fl(spec: str) -> list[str]:
    return [c.strip() for c in spec.split(",") if c.strip()]


# --------------------------------------------------------------------------
# Docvalues query compiler for search(q=...): *:* | clause AND clause...
# clause := field:value | field:[lo TO hi] | field:(v1 OR v2 ...)

def _typed(col_type, raw: str):
    import pyarrow.types as pt

    if pt.is_integer(col_type):
        return int(raw)
    if pt.is_floating(col_type):
        return float(raw)
    if pt.is_timestamp(col_type):
        return pd.Timestamp(raw.strip('"'))
    return raw


def _compile_q(q: str, schema) -> tuple[list[str], Callable | None]:
    q = q.strip()
    if q in ("*:*", ""):
        return [], None
    clauses = []
    cols: list[str] = []
    for part in re.split(r"\s+AND\s+", q):
        part = part.strip()
        m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*):(.+)$", part, re.S)
        if not m:
            raise StreamExprError(f"unsupported query clause {part!r}")
        fld, rhs = m.group(1), m.group(2).strip()
        if fld not in schema.names:
            raise StreamExprError(f"unknown field {fld!r} in q")
        typ = schema.field(fld).type
        cols.append(fld)
        rm = re.match(r"^\[(.+?)\s+TO\s+(.+?)\]$", rhs)
        if rm:
            lo = None if rm.group(1) == "*" else _typed(typ, rm.group(1))
            hi = None if rm.group(2) == "*" else _typed(typ, rm.group(2))
            clauses.append(("range", fld, lo, hi))
        elif rhs.startswith("(") and rhs.endswith(")"):
            vals = [_typed(typ, v.strip()) for v in re.split(r"\s+OR\s+", rhs[1:-1])]
            clauses.append(("in", fld, vals, None))
        else:
            if rhs.startswith('"') and rhs.endswith('"'):
                rhs = rhs[1:-1]
            clauses.append(("eq", fld, _typed(typ, rhs), None))

    def mask(batch: pd.DataFrame) -> np.ndarray:
        m = np.ones(len(batch), dtype=bool)
        for kind, fld, a, b in clauses:
            col = batch[fld]
            if kind == "eq":
                m &= (col == a).to_numpy()
            elif kind == "in":
                m &= col.isin(a).to_numpy()
            else:  # range, [] = inclusive both ends (TermRange semantics)
                if a is not None:
                    m &= (col >= a).to_numpy()
                if b is not None:
                    m &= (col <= b).to_numpy()
        return m

    return cols, mask


# --------------------------------------------------------------------------
# Metrics (RollupStream / FacetStream metrics)

_METRIC_NAMES = {"sum", "min", "max", "avg", "count"}


@dataclass
class Metric:
    op: str
    col: str  # "*" for count

    @property
    def out(self) -> str:
        return f"{self.op}({self.col})"


def _metrics_of(e: Expr) -> list[Metric]:
    ms = []
    for a in e.args:
        if isinstance(a, Expr) and a.name in _METRIC_NAMES:
            col = a.args[0] if a.args else "*"
            if a.name != "count" and (not isinstance(col, str) or col == "*"):
                raise StreamExprError(f"metric {a.name} needs a field operand")
            ms.append(Metric(a.name, col if isinstance(col, str) else "*"))
    return ms


def _rollup_partials(res: SRes, over: list[str], metrics: list[Metric]) -> pd.DataFrame:
    """Per-batch combiner partials + coordinator merge (bounded group domain
    — the facet/stats coordinator pattern; unbounded keys belong in a
    bucketed groupby shuffle, see CLAUDE.md)."""
    named: dict[str, tuple[str, str]] = {}
    merge_ops: dict[str, str] = {}
    need_n = False
    for m in metrics:
        if m.op == "count" or m.op == "avg":
            need_n = True
        if m.op in ("sum", "avg"):
            named[f"__sum_{m.col}"] = (m.col, "sum")
            merge_ops[f"__sum_{m.col}"] = "sum"
        elif m.op in ("min", "max"):
            named[f"__{m.op}_{m.col}"] = (m.col, m.op)
            merge_ops[f"__{m.op}_{m.col}"] = m.op
    if need_n:
        merge_ops["__n"] = "sum"

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        gb = batch.groupby(over, as_index=False, sort=False)
        aggs = dict(named)
        if need_n:
            aggs["__n"] = (over[0], "size")
        return gb.agg(**aggs)

    part = _map(res, partial)
    if part.df is not None:
        merged = part.df.groupby(over, as_index=False).agg(merge_ops)
    else:
        merged = merge_partials(part.ds, over, merge_ops)

    out = merged[over].copy()
    for m in metrics:
        if m.op == "count":
            out[m.out] = merged["__n"].astype("int64")
        elif m.op == "sum":
            out[m.out] = merged[f"__sum_{m.col}"].astype("int64")
        elif m.op == "avg":
            out[m.out] = merged[f"__sum_{m.col}"].astype("int64").astype(
                "float64"
            ) / merged["__n"].astype("int64").astype("float64")
        else:
            out[m.out] = merged[f"__{m.op}_{m.col}"]
    return out.sort_values(over, kind="mergesort").reset_index(drop=True)


# --------------------------------------------------------------------------
# Boolean evaluators for having() (io/eval/*Evaluator)

def _bool_eval(e: Expr | str, df: pd.DataFrame) -> np.ndarray:
    if not isinstance(e, Expr):
        raise StreamExprError(f"expected boolean evaluator, got {e!r}")
    if e.name in ("and", "or"):
        masks = [_bool_eval(a, df) for a in e.args]
        out = masks[0]
        for m in masks[1:]:
            out = (out & m) if e.name == "and" else (out | m)
        return out
    if e.name == "not":
        return ~_bool_eval(e.args[0], df)
    if e.name in ("eq", "gt", "lt", "gteq", "lteq"):
        lhs, rhs = e.args
        if isinstance(lhs, Expr):  # metric reference, e.g. count(*)
            lname = f"{lhs.name}({lhs.args[0] if lhs.args else '*'})"
        else:
            lname = lhs
        if lname not in df.columns:
            raise StreamExprError(f"having: unknown field {lname!r}")
        col = df[lname]
        try:
            val: Any = float(rhs) if "." in str(rhs) else int(rhs)
        except ValueError:
            val = str(rhs).strip('"')
        op = {"eq": "__eq__", "gt": "__gt__", "lt": "__lt__", "gteq": "__ge__", "lteq": "__le__"}[e.name]
        return getattr(col, op)(val).to_numpy()
    raise StreamExprError(f"unknown boolean evaluator {e.name!r}")


# --------------------------------------------------------------------------
# Stream constructors (StreamFactory registry)

def _eval_stream_arg(ctx: Ctx, e: Expr) -> SRes:
    if not isinstance(e, Expr) or e.name not in REGISTRY_STREAMS:
        raise StreamExprError(f"expected a stream, got {e!r}")
    return REGISTRY_STREAMS[e.name](ctx, e)


def _stream_args(e: Expr) -> list[Expr]:
    return [a for a in e.args if isinstance(a, Expr) and a.name in REGISTRY_STREAMS]


def _search_index(ctx: Ctx, e: Expr) -> SRes:
    """CloudSolrStream leaf over the real engine: qt=\"/select\" routes the
    query through the BM25 shard actor pool (analyzed text field), returns
    (doc_id, score, rank) for the top `rows` hits; compose with fetch()
    for stored-field enrichment (the two-phase distributed shape)."""
    from .fulltext import _searcher

    q = str(e.params.get("q", ""))
    if q.startswith("text:"):
        q = q[len("text:") :]
    rows = int(str(e.params.get("rows", 10)))
    with _searcher(ctx.sf_dir) as s:
        hits = s.search(q, rows)
        fetched = s.fetch([d for d, _ in hits]).to_pylist() if hits else []
    conv_by_doc = {r["doc_id"]: r["conv_id"] for r in fetched}
    df = pd.DataFrame(
        {
            "doc_id": pd.Series(
                [int(conv_by_doc[d].split("-")[1]) for d, _ in hits], dtype="int64"
            ),
            "score": pd.Series([sc for _, sc in hits], dtype="float32"),
            "rank": pd.Series(range(1, len(hits) + 1), dtype="int64"),
        }
    )
    return SRes(df=df, sort=[("score", False), ("doc_id", True)])


def _search(ctx: Ctx, e: Expr) -> SRes:
    import pyarrow.parquet as pq

    if not e.args or not isinstance(e.args[0], str):
        raise StreamExprError("search(collection, ...) needs a collection name")
    if str(e.params.get("qt", "")) == "/select":
        return _search_index(ctx, e)
    table = e.args[0]
    schema = pq.read_schema(f"{ctx.sf_dir}/{table}.parquet")
    fl = _split_fl(e.params.get("fl", ",".join(schema.names)))
    for c in fl:
        if c not in schema.names:
            raise StreamExprError(f"unknown field {c!r} in fl")
    qcols, mask = _compile_q(str(e.params.get("q", "*:*")), schema)
    read_cols = list(dict.fromkeys(fl + qcols))  # prune the read
    ds = read(ctx.sf_dir, table, read_cols)
    if mask is not None:
        ds = ds.map_batches(
            lambda b, _m=mask, _fl=fl: b.loc[_m(b), _fl], batch_format="pandas"
        )
    elif read_cols != fl:
        ds = ds.map_batches(lambda b, _fl=fl: b[_fl], batch_format="pandas")
    sort = _parse_sort(e.params["sort"]) if "sort" in e.params else []
    res = SRes(ds=ds, sort=sort)
    if "rows" in e.params:  # bounded: per-batch top-k + driver merge
        if not sort:
            raise StreamExprError("search rows= needs sort=")
        return _rank(res, int(str(e.params["rows"])), sort)
    return res


def _rank(res: SRes, n: int, sort: list[tuple[str, bool]]) -> SRes:
    def topk(batch: pd.DataFrame) -> pd.DataFrame:
        return _sorted_df(batch, sort).head(n)

    part = _map(res, topk)
    df = _sorted_df(_to_df(part), sort).head(n).reset_index(drop=True)
    return SRes(df=df, sort=sort)


def _top(ctx: Ctx, e: Expr) -> SRes:
    inner = _eval_stream_arg(ctx, _stream_args(e)[0])
    n = int(str(e.params["n"]))
    sort = _parse_sort(str(e.params["sort"]))
    return _rank(inner, n, sort)


def _rollup(ctx: Ctx, e: Expr) -> SRes:
    inner = _eval_stream_arg(ctx, _stream_args(e)[0])
    over = _split_fl(str(e.params["over"]))
    metrics = _metrics_of(e)
    if not metrics:
        raise StreamExprError("rollup needs at least one metric")
    return SRes(df=_rollup_partials(inner, over, metrics), sort=[(c, True) for c in over])


def _facet(ctx: Ctx, e: Expr) -> SRes:
    # FacetStream: pushed-down facet over a collection (not a wrapped stream)
    search_e = Expr("search", args=[e.args[0]], params={"q": e.params.get("q", "*:*")})
    buckets = _split_fl(str(e.params["buckets"]))
    metrics = _metrics_of(e)
    if not metrics:
        raise StreamExprError("facet needs at least one metric")
    cols = list(dict.fromkeys(buckets + [m.col for m in metrics if m.col != "*"]))
    search_e.params["fl"] = ",".join(cols)
    inner = _search(ctx, search_e)
    df = _rollup_partials(inner, buckets, metrics)
    sorts = _parse_sort(str(e.params.get("bucketSorts", f"{buckets[0]} asc")))
    # deterministic: append bucket columns as tie-break
    full = sorts + [(b, True) for b in buckets if b not in [c for c, _ in sorts]]
    df = _sorted_df(df, full)
    lim = e.params.get("bucketSizeLimit")
    if lim is not None:
        df = df.head(int(str(lim)))
    return SRes(df=df.reset_index(drop=True), sort=sorts)


def _stats(ctx: Ctx, e: Expr) -> SRes:
    search_e = Expr("search", args=[e.args[0]], params={"q": e.params.get("q", "*:*")})
    metrics = _metrics_of(e)
    cols = list(dict.fromkeys([m.col for m in metrics if m.col != "*"])) or None
    if cols:
        search_e.params["fl"] = ",".join(cols)
    inner = _search(ctx, search_e)
    one = _map(inner, lambda b: b.assign(__g=0))
    df = _rollup_partials(one, ["__g"], metrics).drop(columns="__g")
    return SRes(df=df.reset_index(drop=True))


def _to_scalar_expr(x):
    """streams.Expr → functions.scalar Expr (select-operation evaluators:
    add/sub/mul/div/if/eq/gt/... share the ValueSource kernel registry)."""
    from ..functions import scalar as FS

    if isinstance(x, Expr):
        if x.params:
            raise StreamExprError(f"evaluator {x.name} takes positional args only")
        return FS.Expr("call", name=x.name, args=[_to_scalar_expr(a) for a in x.args])
    try:
        return FS.Expr("lit", value=float(x))
    except (TypeError, ValueError):
        return FS.Expr("field", name=str(x))


def _select(ctx: Ctx, e: Expr) -> SRes:
    inner = _eval_stream_arg(ctx, _stream_args(e)[0])
    items: list[tuple[str, str]] = []
    evals: list[tuple[object, str]] = []  # (scalar Expr, output name)
    for a in e.args:
        if isinstance(a, str):
            for part in a.split(","):
                toks = re.split(r"\s+as\s+", part.strip(), flags=re.I)
                src = toks[0].strip()
                dst = toks[1].strip() if len(toks) > 1 else src
                items.append((src, dst))
        elif isinstance(a, Expr) and a.name == "as" and len(a.args) == 2:
            target, alias = a.args
            if isinstance(target, Expr) and target.name not in REGISTRY_STREAMS:
                evals.append((_to_scalar_expr(target), str(alias)))
        elif isinstance(a, Expr) and a.name not in REGISTRY_STREAMS:
            raise StreamExprError(f"select operation {a.name}(...) needs `as <name>`")
    if not items and not evals:
        raise StreamExprError("select needs field specs")

    def proj(batch: pd.DataFrame) -> pd.DataFrame:
        from ..functions.scalar import evaluate

        out = {dst: batch[src] for src, dst in items}
        cols = {c: batch[c].to_numpy() for c in batch.columns}
        for sexpr, dst in evals:
            v = np.asarray(evaluate(sexpr, cols))
            out[dst] = np.broadcast_to(v, (len(batch),)) if v.ndim == 0 else v
        return pd.DataFrame(out, index=batch.index)

    ren = dict(items)
    sort = [(ren.get(c, c), a) for c, a in inner.sort if c in ren]
    out = _map(inner, proj)
    out.sort = sort
    return out


def _unique(ctx: Ctx, e: Expr) -> SRes:
    inner = _eval_stream_arg(ctx, _stream_args(e)[0])
    over = _split_fl(str(e.params["over"]))
    if not inner.sort:
        raise StreamExprError("unique requires a sorted input stream")
    sort = inner.sort

    def first_per_key(batch: pd.DataFrame) -> pd.DataFrame:
        return _sorted_df(batch, sort).drop_duplicates(subset=over, keep="first")

    part = _map(inner, first_per_key)
    # coordinator sees (#keys x #blocks) rows — bounded-domain merge
    df = (
        _sorted_df(_to_df(part), sort)
        .drop_duplicates(subset=over, keep="first")
        .reset_index(drop=True)
    )
    return SRes(df=df, sort=sort)


def _merge(ctx: Ctx, e: Expr) -> SRes:
    streams = [_eval_stream_arg(ctx, a) for a in _stream_args(e)]
    sort = _parse_sort(str(e.params["on"])) if "on" in e.params else []
    if all(s.ds is not None for s in streams):
        ds = streams[0].ds
        for s in streams[1:]:
            ds = ds.union(s.ds)
        return SRes(ds=ds, sort=sort)
    df = pd.concat([_to_df(s) for s in streams], ignore_index=True)
    return SRes(df=_sorted_df(df, sort).reset_index(drop=True) if sort else df, sort=sort)


def _parse_on(spec: str) -> tuple[list[str], list[str]]:
    left, right = [], []
    for part in spec.split(","):
        part = part.strip()
        if "=" in part:
            a, b = part.split("=", 1)
            left.append(a.strip())
            right.append(b.strip())
        else:
            left.append(part)
            right.append(part)
    return left, right


def _join(ctx: Ctx, e: Expr, how: str) -> SRes:
    streams = _stream_args(e)
    if "hashed" in e.params:  # hashJoin(left, hashed=right, on=...)
        left = _eval_stream_arg(ctx, streams[0])
        right = _eval_stream_arg(ctx, e.params["hashed"])
    else:
        left = _eval_stream_arg(ctx, streams[0])
        right = _eval_stream_arg(ctx, streams[1])
    lk, rk = _parse_on(str(e.params["on"]))
    rdf = _to_df(right)  # broadcast build side (HashJoinStream semantics)

    def joiner(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(rdf, left_on=lk, right_on=rk, how=how)

    return _map(left, joiner)


def _semi(ctx: Ctx, e: Expr, keep: bool) -> SRes:
    streams = _stream_args(e)
    left = _eval_stream_arg(ctx, streams[0])
    right = _eval_stream_arg(ctx, streams[1])
    lk, rk = _parse_on(str(e.params["on"]))
    rdf = _to_df(right)[rk].drop_duplicates()

    def mask(batch: pd.DataFrame) -> pd.DataFrame:
        if len(lk) == 1:
            m = batch[lk[0]].isin(rdf[rk[0]]).to_numpy()
        else:  # vectorized multi-key membership via an indexed left merge
            probe = batch[lk].merge(
                rdf, left_on=lk, right_on=rk, how="left", indicator=True
            )
            m = (probe["_merge"] == "both").to_numpy()
        return batch.loc[m if keep else ~m]

    return _map(left, mask)


def _having(ctx: Ctx, e: Expr) -> SRes:
    inner = _eval_stream_arg(ctx, _stream_args(e)[0])
    cond = next(
        a for a in e.args if isinstance(a, Expr) and a.name not in REGISTRY_STREAMS
    )
    return _map(inner, lambda b: b.loc[_bool_eval(cond, b)].reset_index(drop=True))


def _fetch(ctx: Ctx, e: Expr) -> SRes:
    # FetchStream: batch keys from the (bounded) stream, fetch matching rows
    # via parquet predicate pushdown, merge fields.
    import pyarrow.parquet as pq

    table = e.args[0] if isinstance(e.args[0], str) else None
    if table is None:
        raise StreamExprError("fetch(collection, stream, ...) needs a collection")
    inner = _eval_stream_arg(ctx, _stream_args(e)[0])
    if inner.df is None:
        raise StreamExprError("fetch expects a bounded input stream (top/rollup/...)")
    lk, rk = _parse_on(str(e.params["on"]))
    if len(lk) != 1:
        raise StreamExprError("fetch joins on a single key")
    fl = _split_fl(str(e.params["fl"]))
    keys = sorted(inner.df[lk[0]].unique().tolist())
    got = pq.read_table(
        f"{ctx.sf_dir}/{table}.parquet",
        columns=list(dict.fromkeys([rk[0]] + fl)),
        filters=[(rk[0], "in", keys)],  # row-group pruned, keys only
    ).to_pandas()
    out = inner.df.merge(got, left_on=lk[0], right_on=rk[0], how="left")
    if rk[0] != lk[0]:
        out = out.drop(columns=[rk[0]])
    return SRes(df=out, sort=inner.sort)


def _cartesian(ctx: Ctx, e: Expr) -> SRes:
    inner = _eval_stream_arg(ctx, _stream_args(e)[0])
    fld = next(a for a in e.args if isinstance(a, str))

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.explode(fld, ignore_index=True)
        return out

    return _map(inner, explode)


def _sort(ctx: Ctx, e: Expr) -> SRes:
    # SortStream: full re-sort of a stream. Bounded inputs sort on the
    # coordinator; unbounded ones use Ray's range-partitioned distributed
    # sort (the /export shape) and stay lazy.
    inner = _eval_stream_arg(ctx, _stream_args(e)[0])
    sort = _parse_sort(str(e.params["by"]))
    if inner.df is not None:
        return SRes(df=_sorted_df(inner.df, sort).reset_index(drop=True), sort=sort)
    ds = inner.ds.sort([c for c, _ in sort], descending=[not a for _, a in sort])
    return SRes(ds=ds, sort=sort)


def _timeseries(ctx: Ctx, e: Expr) -> SRes:
    # TimeSeriesStream: fixed calendar-window rollups off a date field.
    # gap supports +nDAY / +nHOUR / +nMINUTE (DateMathParser subset).
    field_name = str(e.params["field"])
    gap = str(e.params.get("gap", "+1DAY"))
    m = re.match(r"^\+?(\d+)(DAY|HOUR|MINUTE)S?$", gap)
    if not m:
        raise StreamExprError(f"unsupported gap {gap!r}")
    unit_us = {"DAY": 86_400_000_000, "HOUR": 3_600_000_000, "MINUTE": 60_000_000}
    width = int(m.group(1)) * unit_us[m.group(2)]
    metrics = _metrics_of(e)
    if not metrics:
        raise StreamExprError("timeseries needs at least one metric")
    search_e = Expr("search", args=[e.args[0]], params={"q": e.params.get("q", "*:*")})
    cols = list(dict.fromkeys([field_name] + [mt.col for mt in metrics if mt.col != "*"]))
    search_e.params["fl"] = ",".join(cols)
    inner = _search(ctx, search_e)

    def bucket(batch: pd.DataFrame) -> pd.DataFrame:
        us = batch[field_name].astype("datetime64[us]").astype("int64").to_numpy()
        out = batch.drop(columns=[field_name])
        out[field_name] = us // width  # bucket ordinal (epoch-us / gap)
        return out

    df = _rollup_partials(_map(inner, bucket), [field_name], metrics)
    return SRes(df=df, sort=[(field_name, True)])


def _let(ctx: Ctx, e: Expr) -> SRes:
    # let(a=stream, b=stream, get(a)...): named cells usable via get(name)
    # inside the trailing expression (LetStream/GetStream subset).
    cells: dict[str, SRes] = {}
    body: Expr | None = None
    for k, v in e.params.items():
        if isinstance(v, Expr):
            cells[k] = _eval_stream_arg(ctx, v)
    for a in e.args:
        if isinstance(a, Expr):
            body = a
    if body is None:
        raise StreamExprError("let needs a trailing stream expression")
    def _get_cell(c: Ctx, ee: Expr) -> SRes:
        name = ee.args[0] if ee.args else None
        if name not in cells:
            raise StreamExprError(f"get({name!r}): unknown let binding")
        return cells[name]

    prev = REGISTRY_STREAMS.get("get")
    REGISTRY_STREAMS["get"] = _get_cell
    try:
        return _eval_stream_arg(ctx, body)
    finally:
        if prev is None:
            REGISTRY_STREAMS.pop("get", None)
        else:
            REGISTRY_STREAMS["get"] = prev


def _drill(ctx: Ctx, e: Expr) -> SRes:
    """DrillStream (Solr 8.5 /export drill): the UNBOUNDED-key-domain
    rollup.  Where rollup() coordinator-merges combiner partials (bounded
    group domains only), drill keeps the aggregation distributed end-to-end:
    per-batch combiner partials are bucketed by hash(over) into a fixed
    shuffle domain and each bucket merges its share of the key space exactly
    (buckets partition the keys).  The result stays a Dataset — arbitrary
    group cardinality never lands on the coordinator.

    Syntax: drill(collection, q=..., fl=..., rollup(input(), over=..., metrics))
    """
    roll = next(
        (a for a in e.args if isinstance(a, Expr) and a.name == "rollup"), None
    )
    if roll is None:
        raise StreamExprError("drill needs a rollup(input(), ...) operand")
    over = _split_fl(str(roll.params["over"]))
    metrics = _metrics_of(roll)
    if not metrics:
        raise StreamExprError("drill rollup needs at least one metric")
    search_e = Expr("search", args=[e.args[0]], params={"q": e.params.get("q", "*:*")})
    cols = list(dict.fromkeys(over + [m.col for m in metrics if m.col != "*"]))
    search_e.params["fl"] = e.params.get("fl", ",".join(cols))
    inner = _search(ctx, search_e)

    named: dict[str, tuple[str, str]] = {}
    merge_ops: dict[str, str] = {}
    need_n = False
    for m in metrics:
        if m.op in ("count", "avg"):
            need_n = True
        if m.op in ("sum", "avg"):
            named[f"__sum_{m.col}"] = (m.col, "sum")
            merge_ops[f"__sum_{m.col}"] = "sum"
        elif m.op in ("min", "max"):
            named[f"__{m.op}_{m.col}"] = (m.col, m.op)
            merge_ops[f"__{m.op}_{m.col}"] = m.op
    if need_n:
        merge_ops["__n"] = "sum"

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        gb = batch.groupby(over, as_index=False, sort=False)
        aggs = dict(named)
        if need_n:
            aggs["__n"] = (over[0], "size")
        return gb.agg(**aggs)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        merged = g.groupby(over, as_index=False).agg(merge_ops)
        out = merged[over].copy()
        for m in metrics:
            if m.op == "count":
                out[m.out] = merged["__n"].astype("int64")
            elif m.op == "sum":
                out[m.out] = merged[f"__sum_{m.col}"].astype("int64")
            elif m.op == "avg":
                out[m.out] = merged[f"__sum_{m.col}"].astype("int64").astype(
                    "float64"
                ) / merged["__n"].astype("int64").astype("float64")
            else:
                out[m.out] = merged[f"__{m.op}_{m.col}"]
        return out

    ds = (
        inner.ds.map_batches(partial, batch_format="pandas")
        if inner.ds is not None
        else None
    )
    if ds is None:
        return SRes(df=merge(partial(inner.df)))
    return SRes(ds=bucketed(ds, over, merge, 64), sort=[(c, True) for c in over])


def _significant_terms(ctx: Ctx, e: Expr) -> SRes:
    # SignificantTermsStream, fully parameterized: terms over-represented in
    # the q-matching foreground vs the whole collection (the registry
    # significant_terms core, vocabulary never merged on the driver).
    import pyarrow.parquet as pq

    from .text import significant_terms_over

    table = e.args[0]
    field_name = str(e.params.get("field", "text"))
    limit = int(str(e.params.get("limit", 15)))
    mindf = int(str(e.params.get("minDocFreq", 1)))
    schema = pq.read_schema(f"{ctx.sf_dir}/{table}.parquet")
    qcols, mask = _compile_q(str(e.params.get("q", "*:*")), schema)
    cols = list(dict.fromkeys([field_name] + qcols))
    # 64 buckets: map_groups fixed cost dominates at 512 (see lm.py)
    out = significant_terms_over(read(ctx.sf_dir, table, cols), field_name, mask, mindf, limit, 64)
    return SRes(df=out)


def _knn_search(ctx: Ctx, e: Expr) -> SRes:
    # knnSearch: brute-force cosine top-k against a stored vector (pushdown
    # single-row query fetch; per-batch matmul + top-k; bounded merge).
    import pyarrow.parquet as pq

    table = e.args[0]
    qid = int(str(e.params["id"]))
    field_name = str(e.params.get("field", "embedding"))
    k = int(str(e.params.get("k", 10)))
    use_hnsw = str(e.params.get("method", "")).lower() == "hnsw"
    if use_hnsw and (table != "embeddings" or field_name != "embedding"):
        # route through the persisted per-shard HNSW graphs (Solr 9 {!knn}
        # runs on Lucene's HNSW format); approximate — exact path below
        raise StreamExprError("knnSearch method=hnsw serves the embeddings.embedding index only")
    qrow = pq.read_table(
        f"{ctx.sf_dir}/{table}.parquet",
        columns=["vec_id", field_name],
        filters=[("vec_id", "==", qid)],
    ).to_pandas()
    if not len(qrow):
        raise StreamExprError(f"knnSearch: vec_id {qid} not found")
    q = np.asarray(list(qrow[field_name].iloc[0]), dtype=np.float64)
    qn = q / np.linalg.norm(q)
    if use_hnsw:
        from .ann import hnsw_search

        top = hnsw_search(ctx.sf_dir, q, k).copy()
        top["sim"] = top["sim"].astype(np.float64)
        df = pd.DataFrame(
            {
                "rank": np.arange(1, len(top) + 1, dtype=np.int64),
                "vec_id": top["vec_id"].astype("int64"),
                "sim": top["sim"],
            }
        )
        return SRes(df=df, sort=[("rank", True)])

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(batch[field_name].to_numpy()).astype(np.float64)
        sims = (m @ qn) / np.linalg.norm(m, axis=1)
        d = pd.DataFrame({"vec_id": batch["vec_id"], "sim": sims})
        return d.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)

    parts = (
        read(ctx.sf_dir, table, ["vec_id", field_name])
        .map_batches(score, batch_format="pandas")
        .to_pandas()
    )
    top = parts.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k).reset_index(drop=True)
    df = pd.DataFrame(
        {
            "rank": np.arange(1, len(top) + 1, dtype=np.int64),
            "vec_id": top["vec_id"].astype("int64"),
            "sim": top["sim"],
        }
    )
    return SRes(df=df, sort=[("rank", True)])


def _pos_term_of(e: Expr) -> str:
    # FeaturesSelectionStream/TextLogitStream define the positive class by a
    # query; the engine's ML family supports the text:<term> form.
    q = str(e.params.get("q", ""))
    if not q.startswith("text:") or not q[len("text:") :].strip():
        raise StreamExprError(f"{e.name} needs q=\"text:<term>\"")
    return q[len("text:") :].strip()


def _features(ctx: Ctx, e: Expr) -> SRes:
    # FeaturesSelectionStream: top-N terms by information gain vs q-class.
    from .ml import DF_MIN, N_FEATURES, features_igain

    df = features_igain(
        ctx.sf_dir,
        pos_term=_pos_term_of(e),
        n_features=int(str(e.params.get("numTerms", N_FEATURES))),
        df_min=int(str(e.params.get("minDocFreq", DF_MIN))),
    )
    return SRes(df=df)


def _train_stream(ctx: Ctx, e: Expr) -> SRes:
    # TextLogitStream / TrainStream: logistic regression over IG features.
    from .ml import logit_train

    return SRes(df=logit_train(ctx.sf_dir, pos_term=_pos_term_of(e)))


def _classify(ctx: Ctx, e: Expr) -> SRes:
    # ClassifyStream: score every document with the trained model.
    from .ml import classify_docs

    return SRes(df=classify_docs(ctx.sf_dir, pos_term=_pos_term_of(e)), sort=[("doc_id", True)])


# --------------------------------------------------------------------------
# Graph streams (solr/solrj/.../io/graph/): GatherNodesStream ("nodes"),
# ScoreNodesStream, ShortestPathStream — planned onto the engine's
# frontier-broadcast scans (pipelines/graph.py): the edge table is only
# ever scanned with a broadcast membership filter, never shuffled, and the
# node/frontier sets stay driver-sized (dimension-bounded key domains).


def _nodes(ctx: Ctx, e: Expr) -> SRes:
    import pyarrow.parquet as pq

    from .graph import gather_counts

    if not e.args or not isinstance(e.args[0], str):
        raise StreamExprError("nodes(collection, ...) needs a collection name")
    table = e.args[0]
    walk = str(e.params.get("walk", ""))
    if "->" not in walk:
        raise StreamExprError('nodes needs walk="<src>-><field>"')
    src_s, fld = (t.strip() for t in walk.split("->", 1))
    gather = str(e.params.get("gather", ""))
    if not gather:
        raise StreamExprError('nodes needs gather="<field>"')
    schema = pq.read_schema(f"{ctx.sf_dir}/{table}.parquet")
    for c in (fld, gather):
        if c not in schema.names:
            raise StreamExprError(f"unknown field {c!r} in nodes walk/gather")
    inner_streams = _stream_args(e)
    if inner_streams:
        # walk source = a column of the wrapped stream (chained hops use
        # the previous hop's "node" column)
        vals_df = _to_df(_eval_stream_arg(ctx, inner_streams[0]))
        if src_s not in vals_df.columns:
            raise StreamExprError(f"walk source {src_s!r} is not a column of the inner stream")
        vals = np.unique(vals_df[src_s].to_numpy())
    else:  # literal root values, typed by the walk field
        typ = schema.field(fld).type
        vals = np.unique(np.array([_typed(typ, v.strip()) for v in src_s.split(",")]))
    g = gather_counts(ctx.sf_dir, table, fld, vals, gather)
    if any(isinstance(a, Expr) and a.name == "count" for a in e.args):
        g = g.rename(columns={"n": "count(*)"})
    else:
        g = g[["node"]]
    return SRes(df=g.reset_index(drop=True), sort=[("node", True)])


def _score_nodes_stream(ctx: Ctx, e: Expr) -> SRes:
    from .graph import score_gathered_nodes

    inner_e = _stream_args(e)
    if not inner_e:
        raise StreamExprError("scoreNodes needs a nodes() operand")
    inner = _to_df(_eval_stream_arg(ctx, inner_e[0]))
    if "node" not in inner.columns or "count(*)" not in inner.columns:
        raise StreamExprError("scoreNodes needs (node, count(*)) tuples — add count(*) to nodes()")
    g = inner.rename(columns={"count(*)": "cnt"})[["node", "cnt"]]
    out = score_gathered_nodes(
        ctx.sf_dir,
        g,
        table=str(e.params.get("collection", "lineitem")),
        node_col=str(e.params.get("termField", "l_partkey")),
        doc_col=str(e.params.get("docField", "l_orderkey")),
        docs_table=str(e.params.get("docsCollection", "orders")),
        docs_key=str(e.params.get("docsKey", "o_orderkey")),
        top=int(str(e.params.get("top", 25))),
    )
    return SRes(df=out, sort=[("score", False), ("node", True)])


def _shortest_path(ctx: Ctx, e: Expr) -> SRes:
    from .graph import shortest_path_route

    if not e.args or not isinstance(e.args[0], str):
        raise StreamExprError("shortestPath(collection, ...) needs a collection name")
    edge = str(e.params.get("edge", "l_partkey->l_orderkey"))
    if "->" not in edge:
        raise StreamExprError('shortestPath needs edge="<node_field>-><doc_field>"')
    node_col, doc_col = (t.strip() for t in edge.split("->", 1))
    path = shortest_path_route(
        ctx.sf_dir,
        int(str(e.params["from"])),
        int(str(e.params["to"])),
        int(str(e.params.get("maxDepth", 6))),
        e.args[0],
        node_col,
        doc_col,
    )
    if path is None:
        df = pd.DataFrame({"step": pd.Series(dtype="int64"), "node": pd.Series(dtype="int64")})
    else:
        df = pd.DataFrame(
            {
                "step": np.arange(len(path), dtype=np.int64),
                "node": np.asarray(path, dtype=np.int64),
            }
        )
    return SRes(df=df, sort=[("step", True)])


def _random(ctx: Ctx, e: Expr) -> SRes:
    # RandomStream (solr/solrj/.../io/stream/RandomStream.java): pseudo-random
    # docs.  DETERMINISTIC here: the seeded multiplicative hash of idField
    # (relational._sample_hash — SQL-replicable, the facet_sample pattern)
    # orders the rows; per-batch top-`rows` partials, bounded driver merge.
    import pyarrow.parquet as pq

    from .relational import _sample_hash

    if not e.args or not isinstance(e.args[0], str):
        raise StreamExprError("random(collection, ...) needs a collection name")
    table = e.args[0]
    rows = int(str(e.params.get("rows", 10)))
    id_field = str(e.params.get("idField", ""))
    if not id_field:
        raise StreamExprError('random needs idField="<unique int field>"')
    schema = pq.read_schema(f"{ctx.sf_dir}/{table}.parquet")
    fl = _split_fl(str(e.params.get("fl", ",".join(schema.names))))
    search_e = Expr("search", args=[table], params={"q": e.params.get("q", "*:*")})
    search_e.params["fl"] = ",".join(dict.fromkeys(fl + [id_field]))
    inner = _search(ctx, search_e)

    def key(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.assign(__hk=_sample_hash(batch[id_field].to_numpy()))
        return b.sort_values(["__hk", id_field]).head(rows)

    parts = _to_df(_map(inner, key))
    top = parts.sort_values(["__hk", id_field]).head(rows).reset_index(drop=True)
    return SRes(df=top[fl])


def _analyze(ctx: Ctx, e: Expr) -> SRes:
    # AnalyzeEvaluator / the /stream analyze() helper: run the engine's
    # analysis chain over a literal string → one tuple per emitted token
    # (term, position — stopword gaps preserved).
    from ..analysis.analyzer import tokenize

    if not e.args or not isinstance(e.args[0], str):
        raise StreamExprError('analyze("text", ...) needs a text operand')
    toks = tokenize(e.args[0])
    return SRes(
        df=pd.DataFrame(
            {
                "term": pd.Series([t for t, _ in toks], dtype="object"),
                "position": pd.Series([p for _, p in toks], dtype="int64"),
            }
        ),
        sort=[("position", True)],
    )


def _null(ctx: Ctx, e: Expr) -> SRes:
    # NullStream: consume the wrapped stream, emit one tuple with the count
    # (used to benchmark the stream without tuple transfer).
    inner = _eval_stream_arg(ctx, _stream_args(e)[0])
    n = len(inner.df) if inner.df is not None else inner.ds.count()
    return SRes(df=pd.DataFrame({"nullCount": [np.int64(n)]}))


def _reduce(ctx: Ctx, e: Expr) -> SRes:
    # ReduceStream: group-adjacent reduce under the stream's sort; the
    # group(sort=..., n=...) operation keeps the top-n tuples per key.
    # Top-n-per-key is a mergeable partial (per-batch groupby-head).  The
    # merge is keyed by the UNBOUNDED `by` domain, so Dataset inputs go
    # through the bucketed shuffle (buckets partition the keys — per-bucket
    # top-n is exact) and the result STAYS a Dataset; only a bounded df
    # input merges on the coordinator.
    inner = _eval_stream_arg(ctx, _stream_args(e)[0])
    by = _split_fl(str(e.params["by"]))
    grp = next((a for a in e.args if isinstance(a, Expr) and a.name == "group"), None)
    if grp is None:
        raise StreamExprError("reduce needs a group(sort=..., n=...) operation")
    sort = _parse_sort(str(grp.params["sort"]))
    n = int(str(grp.params.get("n", 1)))
    full = [(c, True) for c in by] + sort

    def topn(batch: pd.DataFrame) -> pd.DataFrame:
        return _sorted_df(batch, full).groupby(by, sort=False).head(n)

    if inner.df is not None:
        out = _sorted_df(topn(inner.df), full).groupby(by, sort=False).head(n)
        return SRes(df=out.reset_index(drop=True), sort=full)

    def bucket_final(g: pd.DataFrame) -> pd.DataFrame:
        return topn(g).drop(columns=BUCKET_COL)

    out_ds = bucketed(inner.ds.map_batches(topn, batch_format="pandas"), by, bucket_final)
    return SRes(ds=out_ds, sort=full)


def _priority(ctx: Ctx, e: Expr) -> SRes:
    # PriorityStream: two wrapped (topic) streams — drain the high-priority
    # one first; the low-priority stream's tuples flow only when the high
    # one is empty.
    ss = _stream_args(e)
    if len(ss) != 2:
        raise StreamExprError("priority needs exactly two stream operands")
    hi = _eval_stream_arg(ctx, ss[0])
    hi_df = _to_df(hi)
    if len(hi_df):
        return SRes(df=hi_df, sort=hi.sort)
    return _eval_stream_arg(ctx, ss[1])


def _delete(ctx: Ctx, e: Expr) -> SRes:
    # DeleteStream: delete-by-id sink against an update() destination
    # collection — rewrites each parquet part without the matching ids,
    # atomically per file (the tombstone-install analog for stream
    # collections; the INDEX delete path is index tombstones).
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    if not e.args or not isinstance(e.args[0], str) or not e.args[0].startswith("/tmp/"):
        raise StreamExprError("delete(dest, stream): dest must be a /tmp/... path")
    dest = e.args[0]
    id_field = str(e.params.get("id", "id"))
    inner = _to_df(_eval_stream_arg(ctx, _stream_args(e)[0]))
    if id_field not in inner.columns:
        raise StreamExprError(f"delete: id field {id_field!r} not in the wrapped stream")
    ids = set(inner[id_field].tolist())
    deleted = 0
    for f in sorted(os.listdir(dest)):
        if not f.endswith(".parquet"):
            continue
        path = f"{dest}/{f}"
        t = pq.read_table(path)
        keep = ~pd.Series(t[id_field].to_pandas()).isin(ids)
        if not keep.all():
            deleted += int((~keep).sum())
            pq.write_table(t.filter(pa.array(keep.to_numpy())), path + ".tmp")
            os.replace(path + ".tmp", path)
    return SRes(df=pd.DataFrame({"totalDeleted": [np.int64(deleted)]}))


def _knn_mlt(ctx: Ctx, e: Expr) -> SRes:
    # KnnStream ("knn": MoreLikeThis of a seed document — distinct from
    # knnSearch's vector ANN): term selection + scatter-gather through the
    # BM25 shard actor pool (Searcher.more_like_this).
    from .fulltext import _searcher

    doc = int(str(e.params["id"]))
    k = int(str(e.params.get("k", 10)))
    mqt = int(str(e.params.get("maxQueryTerms", 10)))
    with _searcher(ctx.sf_dir) as s:
        hits = s.more_like_this(doc, k=k, max_query_terms=mqt)
    return SRes(
        df=pd.DataFrame(
            {
                "doc_id": pd.Series([d for d, _ in hits], dtype="int64"),
                "score": pd.Series([sc for _, sc in hits], dtype="float32"),
                "rank": pd.Series(range(1, len(hits) + 1), dtype="int64"),
            }
        ),
        sort=[("rank", True)],
    )


def _facet2d(ctx: Ctx, e: Expr) -> SRes:
    # Facet2DStream: two-dimensional facet — the top dimX x-buckets by the
    # metric, each with its top dimY y-buckets.  One combiner-partials pass
    # over the (bounded) x×y lattice; the per-dimension cuts happen on the
    # lattice, the coordinator never sees raw rows.
    if not e.args or not isinstance(e.args[0], str):
        raise StreamExprError("facet2D(collection, ...) needs a collection name")
    x, y = str(e.params["x"]), str(e.params["y"])
    dims = [int(v) for v in str(e.params.get("dimensions", "10,10")).split(",")]
    if len(dims) != 2:
        raise StreamExprError('facet2D dimensions="dimX,dimY"')
    metrics = _metrics_of(e)
    if len(metrics) != 1:
        raise StreamExprError("facet2D needs exactly one metric")
    m = metrics[0]
    search_e = Expr("search", args=[e.args[0]], params={"q": e.params.get("q", "*:*")})
    cols = list(dict.fromkeys([x, y] + ([m.col] if m.col != "*" else [])))
    search_e.params["fl"] = ",".join(cols)
    lattice = _rollup_partials(_search(ctx, search_e), [x, y], [m])
    per_x = lattice.groupby(x, as_index=False)[m.out].sum()
    top_x = per_x.sort_values([m.out, x], ascending=[False, True], kind="mergesort").head(dims[0])
    out = lattice.merge(top_x[[x]], on=x)
    out = out.sort_values([x, m.out, y], ascending=[True, False, True], kind="mergesort")
    out = out.groupby(x, sort=False).head(dims[1]).reset_index(drop=True)
    return SRes(df=out, sort=[(x, True), (m.out, False), (y, True)])


def _topic(ctx: Ctx, e: Expr) -> SRes:
    # TopicStream: checkpointed pub/sub over a collection — remembers the
    # max ingested id and each call returns only NEW rows (id > watermark),
    # read with a parquet predicate pushdown so caught-up polls touch only
    # the row groups whose max exceeds the watermark.  The checkpoint file
    # is the durable consumption state (Solr stores it in a checkpoint
    # collection).  initialCheckpoint=0 replays from the beginning; absent,
    # the first call initializes the watermark to the current max and
    # returns nothing (Solr's default new-topic behavior).
    import json
    import os

    import pyarrow.parquet as pq

    if len(e.args) < 2 or not isinstance(e.args[0], str) or not isinstance(e.args[1], str):
        raise StreamExprError("topic(checkpointDir, collection, ...) needs two names")
    ckpt_dir, table = e.args[0], e.args[1]
    if not ckpt_dir.startswith("/tmp/"):
        raise StreamExprError("topic checkpointDir must be a /tmp/... path")
    id_field = str(e.params.get("id", ""))
    if not id_field:
        raise StreamExprError('topic needs id="<monotonic int field>"')
    schema = pq.read_schema(f"{ctx.sf_dir}/{table}.parquet")
    fl = _split_fl(str(e.params.get("fl", ",".join(schema.names))))
    os.makedirs(ckpt_dir, exist_ok=True)
    ckpt = f"{ckpt_dir}/topic_{table}_{id_field}.json"
    wm: int | None = None
    if os.path.exists(ckpt):
        with open(ckpt) as f:
            wm = int(json.load(f)["checkpoint"])
    elif "initialCheckpoint" in e.params:
        wm = int(str(e.params["initialCheckpoint"])) - 1

    import ray.data as rd

    # current max id from parquet FOOTER statistics — metadata only, no
    # column read (the collection may be arbitrarily large); fall back to
    # a single-column scan when the writer omitted statistics, and treat a
    # zero-row-group file as "nothing ingested yet" instead of raising.
    pf = pq.ParquetFile(f"{ctx.sf_dir}/{table}.parquet")
    col_idx = pf.schema_arrow.names.index(id_field)
    if pf.metadata.num_row_groups == 0:
        cur_max = wm if wm is not None else -1
    else:
        stats = [
            pf.metadata.row_group(i).column(col_idx).statistics
            for i in range(pf.metadata.num_row_groups)
        ]
        if any(s is None or s.max is None for s in stats):
            import pyarrow.compute as pc

            col = pq.read_table(f"{ctx.sf_dir}/{table}.parquet", columns=[id_field])
            mx = pc.max(col[id_field]).as_py()  # None on an all-null/0-row file
            cur_max = int(mx) if mx is not None else (wm if wm is not None else -1)
        else:
            cur_max = max(s.max for s in stats)
    if wm is None:  # new topic, default: start from NOW
        new_df = pd.DataFrame({c: pd.Series(dtype="object") for c in fl})
        res = SRes(df=new_df)
    else:
        import pyarrow.dataset as pds

        # bounded increment (wm, cur_max]: rows appended between the
        # footer scan and execution belong to the NEXT poll, never to
        # both (the unbounded `> wm` read double-emitted them).
        ds = rd.read_parquet(
            f"{ctx.sf_dir}/{table}.parquet",
            columns=list(dict.fromkeys(fl + [id_field])),
            filter=(pds.field(id_field) > wm) & (pds.field(id_field) <= cur_max),
        )
        # materialize BEFORE the checkpoint commit: the increment lives in
        # the object store (never the driver), and a failed read leaves the
        # watermark untouched — at-least-once, the reference TopicStream's
        # persist-after-read semantics (its checkpoints are stored once the
        # documents have been read).
        res = SRes(ds=ds.map_batches(lambda b, _fl=fl: b[_fl], batch_format="pandas").materialize())
        cur_max = max(cur_max, wm)
    tmp = ckpt + ".tmp"  # atomic checkpoint advance (commit point)
    with open(tmp, "w") as f:
        json.dump({"checkpoint": cur_max}, f)
    os.replace(tmp, ckpt)
    return res


def _shuffle(ctx: Ctx, e: Expr) -> SRes:
    # ShuffleStream (solr/solrj/.../io/stream/ShuffleStream.java): the
    # search stream pinned to the /export handler — the FULL sorted result
    # stream (worker-partitionable), never a top-k page: `sort` is
    # mandatory and `rows` is rejected.
    if "sort" not in e.params:
        raise StreamExprError("shuffle requires sort= (the /export contract)")
    if "rows" in e.params:
        raise StreamExprError("shuffle streams the full result set; use search() for rows=")
    return _search(ctx, Expr("search", args=e.args, params={k: v for k, v in e.params.items() if k != "qt"}))


def _daemon(ctx: Ctx, e: Expr) -> SRes:
    # DaemonStream (solr/solrj/.../io/stream/DaemonStream.java): re-run the
    # wrapped expression on an interval — usually update(topic(...)), the
    # alerting/ingest loop.  Solr spawns a background thread; here the loop
    # runs SYNCHRONOUSLY and bounded (`iterations`, default 1; with
    # terminate=true it stops early once the inner expression yields zero
    # tuples, Solr's topic-drained termination), returning the daemon's
    # status tuple.  Long-lived scheduling belongs to the engine daemon
    # (index/daemon.run_incremental_daemon).
    import time as _time

    did = str(e.params.get("id", "daemon"))
    iterations = int(str(e.params.get("iterations", "1")))
    interval_ms = int(str(e.params.get("runInterval", "0")))
    terminate = str(e.params.get("terminate", "false")).lower() == "true"
    if iterations < 1 or iterations > 1000:
        raise StreamExprError("daemon iterations must be in [1, 1000]")
    inner = _stream_args(e)
    if len(inner) != 1:
        raise StreamExprError("daemon wraps exactly one stream expression")
    runs = 0
    last_rows = 0
    for _ in range(iterations):
        out = _to_df(_eval_stream_arg(ctx, inner[0]))
        runs += 1
        last_rows = len(out)
        if terminate and last_rows == 0:
            break
        if interval_ms and runs < iterations:
            _time.sleep(min(interval_ms, 100) / 1000.0)  # bounded in-sandbox
    return SRes(
        df=pd.DataFrame(
            {
                "id": pd.Series([did], dtype="object"),
                "state": pd.Series(["TERMINATED"], dtype="object"),
                "iterations": pd.Series([np.int64(runs)], dtype="int64"),
                "lastRows": pd.Series([np.int64(last_rows)], dtype="int64"),
            }
        )
    )


def _executor(ctx: Ctx, e: Expr) -> SRes:
    # ExecutorStream: each incoming tuple carries a streaming expression in
    # its `expr_s` field; execute each and concatenate the results.  The
    # task list is bounded (it is a work queue, not data), so the driver
    # loop matches Solr's executor threads-on-the-worker model.
    inner = _to_df(_eval_stream_arg(ctx, _stream_args(e)[0]))
    if "expr_s" not in inner.columns:
        raise StreamExprError("executor needs tuples with an expr_s field")
    outs = [_to_df(_eval_stream_arg(ctx, parse_expr(str(s)))) for s in inner["expr_s"]]
    outs = [o for o in outs if len(o)]
    return SRes(df=pd.concat(outs, ignore_index=True) if outs else pd.DataFrame())


def _update(ctx: Ctx, e: Expr) -> SRes:
    # UpdateStream: terminal sink writing the wrapped stream into a
    # destination collection (a parquet directory). Unbounded inputs stream
    # straight through write_parquet (never materialized); returns the
    # batch-count summary tuples the reference's UpdateStream emits.
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    dest = e.args[0] if e.args and isinstance(e.args[0], str) else None
    if dest is None or not dest.startswith("/tmp/"):
        raise StreamExprError("update(dest, stream): dest must be a /tmp/... path")
    inner = _eval_stream_arg(ctx, _stream_args(e)[0])
    os.makedirs(dest, exist_ok=True)
    if inner.df is not None:
        n = len(inner.df)
        if n:
            # append-numbered parts: repeated updates (a daemon/topic poll
            # loop) accumulate batches instead of overwriting part-0.
            # O_EXCL claims the slot — two concurrent update() plans (plist/
            # executor) that count the same k cannot overwrite each other.
            k = sum(1 for f in os.listdir(dest) if f.endswith(".parquet"))
            while True:
                try:
                    fd = open(f"{dest}/part-{k:05d}.parquet", "xb")
                    break
                except FileExistsError:
                    k += 1
            with fd:
                pq.write_table(pa.Table.from_pandas(inner.df, preserve_index=False), fd)
    else:
        before = {f for f in os.listdir(dest) if f.endswith(".parquet")}
        inner.ds.write_parquet(dest)
        n = sum(
            pq.read_metadata(os.path.join(dest, f)).num_rows
            for f in os.listdir(dest)
            if f.endswith(".parquet") and f not in before
        )
    if n == 0:
        # UpdateStream emits one summary tuple PER BATCH — zero documents
        # means zero tuples, which is what daemon(terminate=true) watches
        return SRes(df=pd.DataFrame({"batchIndexed": pd.Series([], dtype="int64"), "worker": pd.Series([], dtype="object")}))
    return SRes(df=pd.DataFrame({"batchIndexed": [np.int64(n)], "worker": [dest]}))


def _parallel(ctx: Ctx, e: Expr) -> SRes:
    # ParallelStream ships the plan to N workers over a hash partition; Ray
    # Data already executes every stage data-parallel, so this is the
    # identity wrapper (workers/sort params accepted for compatibility).
    return _eval_stream_arg(ctx, _stream_args(e)[0])


def _tuple_stream(ctx: Ctx, e: Expr) -> SRes:
    # TupStream: one tuple whose fields are values or single-row projections
    # of evaluated streams (row counts for multi-row operands).
    row: dict[str, Any] = {}
    for k, v in e.params.items():
        if isinstance(v, Expr):
            df = _to_df(_eval_stream_arg(ctx, v))
            row[k] = df.iloc[0, 0] if len(df) == 1 and len(df.columns) == 1 else len(df)
        else:
            row[k] = v
    return SRes(df=pd.DataFrame([row]))


def _list_stream(ctx: Ctx, e: Expr) -> SRes:
    # ListStream: evaluate wrapped streams in order, concatenate tuples.
    frames = [_to_df(_eval_stream_arg(ctx, a)) for a in _stream_args(e)]
    if not frames:
        raise StreamExprError("list needs at least one stream")
    return SRes(df=pd.concat(frames, ignore_index=True))


def _num(v):
    s = str(v)
    try:
        return int(s)
    except ValueError:
        try:
            return float(s)
        except ValueError:
            return v


def _cat(ctx: Ctx, e: Expr) -> SRes:
    # CatStream: read text files under the data root (Solr's userfiles
    # chroot analog is ctx.sf_dir), emitting {file, line} tuples in file
    # order.  Lines stream through ray.data.read_text — the file contents
    # never sit on the driver.  maxLines bounds the TOTAL emitted lines.
    import os

    import ray.data as rd

    if not e.args or isinstance(e.args[0], Expr):
        raise StreamExprError("cat(...) needs a comma-separated file list")
    max_lines = int(str(e.params.get("maxLines", -1)))
    rels = [p.strip() for p in str(e.args[0]).split(",") if p.strip()]
    if not rels:
        raise StreamExprError("cat: empty file list")
    root = os.path.realpath(ctx.sf_dir)
    fulls, rel_of = [], {}
    for rel in rels:
        full = os.path.realpath(os.path.join(root, rel))
        if full != root and not full.startswith(root + os.sep):
            raise StreamExprError(f"cat: path escapes the data root: {rel}")
        if not os.path.isfile(full):
            raise StreamExprError(f"cat: no such file: {rel}")
        fulls.append(full)
        rel_of[full] = rel
    # One Ray task per FILE (file contents never touch the driver); the
    # streaming executor does not preserve block order, so each line is
    # stamped with (file_seq, line_no) and a keyed sort restores the
    # file-then-line order CatStream promises.
    def read_one(row: dict) -> pd.DataFrame:
        with open(row["full"], "r", encoding="utf-8", errors="replace") as f:
            lines = f.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        return pd.DataFrame(
            {
                "file": row["rel"],
                "line": lines,
                "_fseq": int(row["seq"]),
                "_lno": np.arange(len(lines), dtype=np.int64),
            }
        )

    items = [{"seq": i, "full": f, "rel": rel_of[f]} for i, f in enumerate(fulls)]
    out = (
        rd.from_items(items)
        .map_batches(
            lambda df: pd.concat([read_one(r) for _, r in df.iterrows()], ignore_index=True),
            batch_format="pandas",
            batch_size=1,
        )
        .sort(["_fseq", "_lno"])
        .map_batches(lambda df: df[["file", "line"]], batch_format="pandas")
    )
    if max_lines >= 0:
        out = out.limit(max_lines)
    return SRes(ds=out)


def _array_stream(ctx: Ctx, e: Expr) -> SRes:
    # ArrayEvaluator surfaced as a stream: one tuple holding the list.
    # Only literal members are supported — nested evaluator calls are
    # rejected loudly (silently dropping them would shift the pairing
    # zplot does positionally).
    if any(isinstance(a, Expr) for a in e.args):
        raise StreamExprError("array(...) takes literal values, not nested expressions")
    return SRes(df=pd.DataFrame([{"array": [_num(a) for a in e.args]}]))


def _zplot(ctx: Ctx, e: Expr) -> SRes:
    """ZplotStream (solr/solrj/.../io/stream/ZplotStream.java): pair named
    array operands positionally into one plottable tuple per index.  Each
    param value is an array-valued single-cell stream (col(...)/array(...)
    or a get(name) let binding); scalars broadcast across the arrays.
    `table=` instead explodes a matrix (list-of-rows cell) into col0..colN
    columns — the reference's heatmap shape."""
    series: dict[str, Any] = {}
    for k, v in e.params.items():
        if isinstance(v, Expr):
            df = _to_df(_eval_stream_arg(ctx, v))
            if len(df) == 1 and len(df.columns) == 1:
                series[k] = df.iloc[0, 0]
            else:
                raise StreamExprError(f"zplot: {k} must evaluate to one array/scalar cell")
        else:
            series[k] = _num(v)
    if "table" in series:
        m = series.pop("table")
        if series:
            raise StreamExprError("zplot: table= composes alone")
        if not isinstance(m, (list, tuple, np.ndarray)):
            # a scalar binding is a misuse, not a TypeError escape hatch
            raise StreamExprError("zplot: table= needs a matrix (list of rows)")
        rows = [list(r) if isinstance(r, (list, tuple, np.ndarray)) else [r] for r in m]
        w = max((len(r) for r in rows), default=0)
        return SRes(df=pd.DataFrame(rows, columns=[f"col{i}" for i in range(w)]))
    if not series:
        raise StreamExprError("zplot needs named array operands")
    n = max(
        (len(v) for v in series.values() if isinstance(v, (list, tuple, np.ndarray))),
        default=1,
    )
    out = {}
    for k, v in series.items():
        if isinstance(v, (list, tuple, np.ndarray)):
            if len(v) != n:
                raise StreamExprError("zplot: arrays must share one length")
            out[k] = list(v)
        else:
            out[k] = [v] * n
    return SRes(df=pd.DataFrame(out))


def _sql_stream(ctx: Ctx, e: Expr) -> SRes:
    """SqlStream / the stream-backed /sql handler (solr/solrj/.../io/
    stream/SqlStream.java): `sql(collection, stmt="SELECT ...")` runs the
    statement through the Parallel SQL planner (pipelines/sql.py) — the
    collection operand is carried for API parity, the statement's FROM
    names the table like the reference's dbVisitor."""
    from .sql import execute_sql

    stmt = e.params.get("stmt") or e.params.get("sql")
    if not stmt:
        raise StreamExprError("sql() needs stmt=\"SELECT ...\"")
    return SRes(df=execute_sql(ctx.sf_dir, str(stmt)))


def _cell(ctx: Ctx, e: Expr) -> SRes:
    """CellStream (solr/solrj/.../io/stream/CellStream.java): evaluate the
    wrapped stream and emit ONE tuple whose single field (the cell name)
    holds the full tuple list — the bridge that lets a bounded result ride
    inside let()/math expressions as a value."""
    name = next((a for a in e.args if isinstance(a, str)), None)
    streams = _stream_args(e)
    if name is None or not streams:
        raise StreamExprError("cell(name, stream) needs a name and a stream")
    df = _to_df(_eval_stream_arg(ctx, streams[0]))
    return SRes(df=pd.DataFrame([{name: df.to_dict("records")}]))


def _col(ctx: Ctx, e: Expr) -> SRes:
    """ColumnEvaluator (`col(a, field)` in math expressions): extract one
    field from a let-bound stream (or an inline stream) as a single
    array-valued tuple.  A bare first operand resolves through get(), so
    `let(a=search(...), col(a, price))` works like the reference."""
    strs = [a for a in e.args if isinstance(a, str)]
    exprs = _stream_args(e)
    if exprs:
        src, field = _eval_stream_arg(ctx, exprs[0]), (strs[0] if strs else None)
    elif len(strs) >= 2:
        src = _eval_stream_arg(ctx, Expr("get", args=[strs[0]]))
        field = strs[1]
    else:
        src, field = None, None
    if src is None or field is None:
        raise StreamExprError("col(binding|stream, field) needs a source and a field")
    df = _to_df(src)
    if field not in df.columns:
        raise StreamExprError(f"col: unknown field {field!r}")
    return SRes(df=pd.DataFrame([{field: df[field].tolist()}]))


def _eval_stream(ctx: Ctx, e: Expr) -> SRes:
    """EvalStream (solr/solrj/.../io/stream/EvalStream.java): read the
    FIRST tuple of the wrapped stream and evaluate its `expr_s` field as a
    new streaming expression — the stored-query indirection."""
    streams = _stream_args(e)
    if not streams:
        raise StreamExprError("eval(stream) needs a wrapped stream")
    inner = _to_df(_eval_stream_arg(ctx, streams[0]))
    if not len(inner) or "expr_s" not in inner.columns:
        raise StreamExprError("eval(stream): first tuple needs an expr_s field")
    return _eval_stream_arg(ctx, parse_expr(str(inner.iloc[0]["expr_s"])))


def _model(ctx: Ctx, e: Expr) -> SRes:
    """ModelStream (solr/solrj/.../io/stream/ModelStream.java): fetch a
    stored model tuple by id from a model collection (an update()-written
    /tmp parquet directory) — the newest matching tuple wins, mirroring
    the reference's highest-iteration cache semantics."""
    import glob as _glob

    import pyarrow.parquet as _pq

    dest = next((a for a in e.args if isinstance(a, str)), None)
    model_id = e.params.get("id")
    if dest is None or not dest.startswith("/tmp/") or model_id is None:
        raise StreamExprError("model(dir, id=...): needs a /tmp/... collection and id=")
    parts = sorted(_glob.glob(f"{dest}/*.parquet"))
    if not parts:
        raise StreamExprError(f"model: empty collection {dest!r}")
    frames = [_pq.read_table(p).to_pandas() for p in parts]
    df = pd.concat(frames, ignore_index=True)
    id_col = next((c for c in ("name_s", "id") if c in df.columns), None)
    if id_col is None:
        raise StreamExprError("model: collection tuples need a name_s or id field")
    hit = df[df[id_col].astype(str) == str(model_id)]
    if not len(hit):
        raise StreamExprError(f"model: no tuple with {id_col}={model_id!r}")
    if "iteration_i" in hit.columns:
        it = pd.to_numeric(hit["iteration_i"], errors="coerce")
        hit = hit.iloc[np.argsort(it.to_numpy(), kind="mergesort")]
    return SRes(df=hit.tail(1).reset_index(drop=True))


REGISTRY_STREAMS: dict[str, Callable[[Ctx, Expr], SRes]] = {
    "sql": _sql_stream,
    "search": _search,
    "shuffle": _shuffle,
    "top": _top,
    "rollup": _rollup,
    "facet": _facet,
    "stats": _stats,
    "select": _select,
    "unique": _unique,
    "merge": _merge,
    "innerJoin": lambda c, e: _join(c, e, "inner"),
    "leftOuterJoin": lambda c, e: _join(c, e, "left"),
    "hashJoin": lambda c, e: _join(c, e, "inner"),
    "outerHashJoin": lambda c, e: _join(c, e, "left"),
    "intersect": lambda c, e: _semi(c, e, True),
    "complement": lambda c, e: _semi(c, e, False),
    "having": _having,
    "fetch": _fetch,
    "cartesianProduct": _cartesian,
    "parallel": _parallel,
    "sort": _sort,
    "timeseries": _timeseries,
    "let": _let,
    "update": _update,
    "commit": lambda c, e: _eval_stream_arg(c, _stream_args(e)[0]),  # write is atomic per file
    "significantTerms": _significant_terms,
    "knnSearch": _knn_search,
    "drill": _drill,
    "input": lambda c, e: SRes(df=pd.DataFrame()),  # placeholder inside drill
    "echo": lambda c, e: SRes(df=pd.DataFrame({"echo": [e.args[0] if e.args else ""]})),
    "tuple": _tuple_stream,
    "list": _list_stream,
    "features": _features,
    "train": _train_stream,
    "classify": _classify,
    "nodes": _nodes,
    "gatherNodes": _nodes,  # pre-7.0 alias
    "scoreNodes": _score_nodes_stream,
    "shortestPath": _shortest_path,
    "random": _random,
    "analyze": _analyze,
    "null": _null,
    "reduce": _reduce,
    "plist": _list_stream,  # parallel list: Ray runs each plan data-parallel
    "facet2D": _facet2d,
    "topic": _topic,
    "daemon": _daemon,
    "executor": _executor,
    "priority": _priority,
    "delete": _delete,
    "knn": _knn_mlt,
    "cat": _cat,
    "cell": _cell,
    "col": _col,
    "array": _array_stream,
    "zplot": _zplot,
    "eval": _eval_stream,
    "model": _model,
}


def register_stream(name: str, fn: Callable[[Ctx, Expr], SRes]) -> None:
    """Extension surface: StreamFactory.withFunctionName analog."""
    REGISTRY_STREAMS[name] = fn


def run_expr(expr_str: str, sf_dir: str) -> pd.DataFrame:
    """Parse and execute a streaming expression; returns the full result as
    a pandas frame (callers wanting the lazy Dataset use plan_expr)."""
    res = plan_expr(expr_str, sf_dir)
    df = _to_df(res)
    return df.reset_index(drop=True)


def plan_expr(expr_str: str, sf_dir: str) -> SRes:
    e = parse_expr(expr_str)
    return _eval_stream_arg(Ctx(sf_dir), e)


# --------------------------------------------------------------------------
# Gated pipelines

def stream_expr_rollup(sf_dir: str):
    return run_expr(
        'rollup(search(documents, q="lang:en", fl="source,n_chars", sort="source asc"),'
        ' over="source", sum(n_chars), count(*), avg(n_chars), min(n_chars), max(n_chars))',
        sf_dir,
    )


STREAM_EXPR_ROLLUP_SQL = """
SELECT source,
       CAST(SUM(n_chars) AS BIGINT) AS "sum(n_chars)",
       CAST(COUNT(*) AS BIGINT) AS "count(*)",
       CAST(CAST(SUM(n_chars) AS BIGINT) AS DOUBLE) / CAST(COUNT(*) AS BIGINT) AS "avg(n_chars)",
       MIN(n_chars) AS "min(n_chars)",
       MAX(n_chars) AS "max(n_chars)"
FROM documents WHERE lang = 'en' GROUP BY source
"""


def stream_expr_join(sf_dir: str):
    return run_expr(
        'innerJoin('
         'search(orders, q="o_orderstatus:F", fl="o_orderkey,o_custkey,o_totalprice", sort="o_custkey asc"),'
        ' search(customer, q="c_mktsegment:BUILDING", fl="c_custkey,c_name", sort="c_custkey asc"),'
        ' on="o_custkey=c_custkey")',
        sf_dir,
    )


STREAM_EXPR_JOIN_SQL = """
SELECT o_orderkey, o_custkey, o_totalprice, c_custkey, c_name
FROM orders JOIN customer ON o_custkey = c_custkey
WHERE o_orderstatus = 'F' AND c_mktsegment = 'BUILDING'
"""


def stream_expr_topk(sf_dir: str):
    return run_expr(
        'top(n=20, search(events, q="event_type:click", fl="event_id,user_id,value"),'
        ' sort="value desc, event_id asc")',
        sf_dir,
    )


STREAM_EXPR_TOPK_SQL = """
SELECT event_id, user_id, value
FROM events WHERE event_type = 'click'
ORDER BY value DESC, event_id LIMIT 20
"""


def stream_expr_facet(sf_dir: str):
    return run_expr(
        'having(facet(events, q="*:*", buckets="event_type",'
        ' bucketSorts="count(*) desc", bucketSizeLimit=100, count(*)),'
        ' gt(count(*), 10))',
        sf_dir,
    )


STREAM_EXPR_FACET_SQL = """
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS "count(*)"
FROM events GROUP BY event_type HAVING COUNT(*) > 10
"""


def stream_expr_significant(sf_dir: str):
    return run_expr(
        'significantTerms(documents, q="lang:en", field="text", limit=10, minDocFreq=10)',
        sf_dir,
    )


STREAM_EXPR_SIGNIFICANT_SQL = """
SELECT token, fg_df, bg_df FROM (
  SELECT token,
         CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS BIGINT) AS fg_df,
         CAST(COUNT(*) AS BIGINT) AS bg_df
  FROM (
    SELECT doc_id, lang,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS token
    FROM documents
  ) GROUP BY token
) WHERE bg_df >= 10
ORDER BY fg_df / CAST(bg_df AS DOUBLE) DESC, token LIMIT 10
"""


def stream_expr_drill(sf_dir: str):
    # unbounded-key rollup: one group per customer, stays distributed
    res = plan_expr(
        'drill(orders, q="*:*", fl="o_custkey,o_orderkey",'
        ' rollup(input(), over="o_custkey", count(*), max(o_orderkey)))',
        sf_dir,
    )
    df = _to_df(res)
    return df.sort_values("o_custkey").reset_index(drop=True)


STREAM_EXPR_DRILL_SQL = """
SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS "count(*)",
       MAX(o_orderkey) AS "max(o_orderkey)"
FROM orders GROUP BY o_custkey ORDER BY o_custkey
"""


def stream_expr_nodes(sf_dir: str):
    # two chained gatherNodes hops: parts that share an order with part 1
    return run_expr(
        'nodes(lineitem, nodes(lineitem, walk="1->l_partkey", gather="l_orderkey"),'
        ' walk="node->l_orderkey", gather="l_partkey", count(*))',
        sf_dir,
    )


STREAM_EXPR_NODES_SQL = """
WITH o1 AS (SELECT DISTINCT l_orderkey FROM lineitem WHERE l_partkey = 1)
SELECT l_partkey AS node, CAST(COUNT(*) AS BIGINT) AS "count(*)"
FROM lineitem WHERE l_orderkey IN (SELECT l_orderkey FROM o1)
GROUP BY l_partkey ORDER BY node
"""


def stream_expr_random(sf_dir: str):
    return run_expr(
        'random(events, q="event_type:click", fl="event_id,user_id", rows=15,'
        ' idField="event_id")',
        sf_dir,
    )


def _random_sql() -> str:
    from .relational import _M32, _SAMPLE_C1, _SAMPLE_C2, _SAMPLE_SEED

    return f"""
WITH b AS (SELECT event_id, user_id FROM events WHERE event_type = 'click'),
h1 AS (
  SELECT *, (CAST(event_id % {_M32} + {_SAMPLE_SEED} AS HUGEINT) * {_SAMPLE_C1}) % {_M32} AS a
  FROM b
),
h2 AS (SELECT *, (CAST(xor(a, a >> 15) AS HUGEINT) * {_SAMPLE_C2}) % {_M32} AS h FROM h1)
SELECT event_id, user_id FROM h2 ORDER BY xor(h, h >> 13), event_id LIMIT 15
"""


def stream_expr_facet2d(sf_dir: str):
    return run_expr(
        'facet2D(customer, q="*:*", x="c_mktsegment", y="c_nationkey",'
        ' dimensions="3,2", count(*))',
        sf_dir,
    )


STREAM_EXPR_FACET2D_SQL = """
WITH l AS (
  SELECT c_mktsegment, c_nationkey, CAST(COUNT(*) AS BIGINT) AS "count(*)"
  FROM customer GROUP BY c_mktsegment, c_nationkey
),
px AS (SELECT c_mktsegment, SUM("count(*)") AS t FROM l GROUP BY c_mktsegment),
topx AS (
  SELECT c_mktsegment FROM px
  QUALIFY row_number() OVER (ORDER BY t DESC, c_mktsegment) <= 3
)
SELECT l.c_mktsegment, c_nationkey, "count(*)" FROM l JOIN topx USING (c_mktsegment)
QUALIFY row_number() OVER (PARTITION BY l.c_mktsegment
                           ORDER BY "count(*)" DESC, c_nationkey) <= 2
ORDER BY c_mktsegment, "count(*)" DESC, c_nationkey
"""


PIPELINES: dict[str, Pipeline] = {
    "stream_expr_facet2d": Pipeline(
        stream_expr_facet2d,
        STREAM_EXPR_FACET2D_SQL,
        "streaming-expression language: facet2D two-dimensional facet with per-dimension cuts",
    ),
    "stream_expr_drill": Pipeline(
        stream_expr_drill,
        STREAM_EXPR_DRILL_SQL,
        "streaming-expression language: drill (distributed unbounded-key rollup)",
    ),
    "stream_expr_significant": Pipeline(
        stream_expr_significant,
        STREAM_EXPR_SIGNIFICANT_SQL,
        "streaming-expression language: parameterized significantTerms over any q/field",
    ),
    "stream_expr_rollup": Pipeline(
        stream_expr_rollup,
        STREAM_EXPR_ROLLUP_SQL,
        "streaming-expression language: rollup(search(...)) with 5 metrics",
    ),
    "stream_expr_join": Pipeline(
        stream_expr_join,
        STREAM_EXPR_JOIN_SQL,
        "streaming-expression language: innerJoin of two searches",
    ),
    "stream_expr_topk": Pipeline(
        stream_expr_topk,
        STREAM_EXPR_TOPK_SQL,
        "streaming-expression language: top (RankStream) over a search",
    ),
    "stream_expr_facet": Pipeline(
        stream_expr_facet,
        STREAM_EXPR_FACET_SQL,
        "streaming-expression language: having(facet(...)) with bucketSorts",
    ),
    "stream_expr_nodes": Pipeline(
        stream_expr_nodes,
        STREAM_EXPR_NODES_SQL,
        "streaming-expression language: chained gatherNodes hops with edge counts",
    ),
    "stream_expr_random": Pipeline(
        stream_expr_random,
        _random_sql(),
        "streaming-expression language: deterministic seeded random sample (RandomStream)",
    ),
}
