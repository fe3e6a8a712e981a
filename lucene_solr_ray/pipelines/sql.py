"""Parallel SQL handler (SURVEY.md §2: solr/core/src/java/org/apache/solr/
handler/sql/ — Solr's /sql endpoint compiles Calcite plans onto streaming
expressions).  Here: a restricted ANSI-SQL dialect parsed and planned onto
the engine's Ray Data shapes:

  SELECT cols | aggregates  FROM table  [WHERE ...]  [GROUP BY ...]
  [HAVING ...]  [ORDER BY ... [ASC|DESC], ...]  [LIMIT n]

Plan shapes (mirroring how the reference maps Calcite nodes to streams):
- projection prunes the parquet read to referenced columns only;
- WHERE is a vectorized per-batch mask (streams, never materializes);
- GROUP BY runs as per-batch combiner partials (sum/count/min/max per
  group) merged on the coordinator — the bounded-domain aggregate pattern
  (`common.merge_partials`); HAVING filters the merged frame;
- ORDER BY + LIMIT without grouping is per-batch top-k + driver merge
  (the `sort_topk` shape), so only k rows per batch leave workers.

Exactness: COUNT/MIN/MAX are exact; SUM/AVG are exact over integer
columns (the gated queries use integer sums — float sums are
order-dependent and would break the driver's value-hash).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from .common import Pipeline, bucketed, read

# --------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)"
    r"|(?P<str>'(?:[^']|'')*')"
    r"|(?P<id>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|<>|!=|[(),*<>=+\-/%]))"
)

_KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit", "offset",
    "and", "or", "not", "in", "between", "like", "as", "asc", "desc",
    "count", "sum", "avg", "min", "max", "is", "null", "distinct",
    "join", "on", "left", "outer",
    "case", "when", "then", "else", "end",
    "union", "all",
}


def tokenize(sql: str) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if m is None:
            if sql[pos:].strip() == "":
                break
            raise ValueError(f"SQL syntax error at {sql[pos:pos+20]!r}")
        pos = m.end()
        if m.lastgroup == "num":
            out.append(("num", m.group("num")))
        elif m.lastgroup == "str":
            out.append(("str", m.group("str")[1:-1].replace("''", "'")))
        elif m.lastgroup == "id":
            w = m.group("id")
            out.append(("kw", w.lower()) if w.lower() in _KEYWORDS else ("id", w))
        else:
            out.append(("op", m.group("op")))
    out.append(("eof", ""))
    return out


# --------------------------------------------------------------------------
# AST

@dataclass
class Col:
    name: str


@dataclass
class Lit:
    value: object


@dataclass
class Bin:
    op: str
    left: object
    right: object


@dataclass
class Un:
    op: str  # 'not' | 'neg'
    arg: object


@dataclass
class InList:
    expr: object
    items: list
    negated: bool


@dataclass
class InSubquery:
    """`expr IN (SELECT ...)` — resolved to a ResolvedIn before planning:
    the sub-select executes first (its own pruned/partialed plan) and its
    first column's values broadcast into the outer WHERE mask.  NULLs in
    the subquery result are ignored (the gate/duel statements keep the
    standard-SQL NOT IN null trap out of scope)."""

    expr: object
    select: object
    negated: bool


@dataclass
class ResolvedIn:
    expr: object
    values: object  # np.ndarray of the subquery's first column
    negated: bool


@dataclass
class Between:
    expr: object
    lo: object
    hi: object
    negated: bool


@dataclass
class Like:
    expr: object
    pattern: str
    negated: bool


@dataclass
class IsNull:
    expr: object
    negated: bool


@dataclass
class Union:
    """UNION ALL chain; ORDER BY/LIMIT/OFFSET (written after the LAST
    branch) apply to the combined rows — the standard SQL contract."""

    selects: list["Select"]
    order_by: list[tuple[str, bool]]
    limit: int | None
    offset: int


@dataclass
class Case:
    whens: list  # [(condition expr, value expr)]
    default: object | None  # ELSE value (None = SQL NULL)


@dataclass
class Func:
    fn: str  # scalar: upper/lower/length/abs/round/coalesce/substr/concat
    args: list


@dataclass
class Agg:
    fn: str  # count/sum/avg/min/max
    arg: object | None  # None = COUNT(*)
    distinct: bool = False


@dataclass
class Select:
    cols: list[tuple[object, str]]  # (expr, output name)
    table: str = ""
    where: object | None = None
    group_by: list[str] = field(default_factory=list)
    # GROUP BY <expression>: synthetic key name -> expr (plain columns stay
    # bare names in group_by; expressions group by a computed column)
    group_exprs: dict[str, object] = field(default_factory=dict)
    having: object | None = None
    order_by: list[tuple[str, bool]] = field(default_factory=list)  # (name, asc)
    limit: int | None = None
    offset: int = 0
    joins: list[tuple[str, str, str]] = field(default_factory=list)  # (table, left col, right col)


class _Parser:
    def __init__(self, toks: list[tuple[str, str]]):
        self.toks = toks
        self.i = 0

    def peek(self) -> tuple[str, str]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def accept(self, kind: str, val: str | None = None) -> bool:
        k, v = self.peek()
        if k == kind and (val is None or v == val):
            self.i += 1
            return True
        return False

    def expect(self, kind: str, val: str | None = None) -> str:
        k, v = self.next()
        if k != kind or (val is not None and v != val):
            raise ValueError(f"expected {val or kind}, got {v!r}")
        return v

    # expression grammar: or < and < not < predicate < additive < mult < unary
    def expr(self):
        e = self.and_()
        while self.accept("kw", "or"):
            e = Bin("or", e, self.and_())
        return e

    def and_(self):
        e = self.not_()
        while self.accept("kw", "and"):
            e = Bin("and", e, self.not_())
        return e

    def not_(self):
        if self.accept("kw", "not"):
            return Un("not", self.not_())
        return self.pred()

    def pred(self):
        e = self.add()
        neg = False
        if self.peek() == ("kw", "not"):
            # lookahead: NOT IN / NOT BETWEEN / NOT LIKE
            nxt = self.toks[self.i + 1]
            if nxt in (("kw", "in"), ("kw", "between"), ("kw", "like")):
                self.next()
                neg = True
        if self.accept("kw", "in"):
            self.expect("op", "(")
            if self.peek() == ("kw", "select"):
                sub = self.select()  # single SELECT (no UNION inside IN)
                self.expect("op", ")")
                return InSubquery(e, sub, neg)
            items = [self.add()]
            while self.accept("op", ","):
                items.append(self.add())
            self.expect("op", ")")
            return InList(e, items, neg)
        if self.accept("kw", "between"):
            lo = self.add()
            self.expect("kw", "and")
            return Between(e, lo, self.add(), neg)
        if self.accept("kw", "like"):
            k, v = self.next()
            if k != "str":
                raise ValueError("LIKE needs a string pattern")
            return Like(e, v, neg)
        if self.accept("kw", "is"):
            neg = self.accept("kw", "not")
            self.expect("kw", "null")
            return IsNull(e, neg)
        k, v = self.peek()
        if k == "op" and v in ("<", "<=", ">", ">=", "=", "!=", "<>"):
            self.next()
            return Bin("!=" if v == "<>" else v, e, self.add())
        return e

    def add(self):
        e = self.mul()
        while True:
            k, v = self.peek()
            if k == "op" and v in ("+", "-"):
                self.next()
                e = Bin(v, e, self.mul())
            else:
                return e

    def mul(self):
        e = self.unary()
        while True:
            k, v = self.peek()
            if k == "op" and v in ("*", "/", "%"):
                self.next()
                e = Bin(v, e, self.unary())
            else:
                return e

    def unary(self):
        if self.accept("op", "-"):
            return Un("neg", self.unary())
        return self.primary()

    def primary(self):
        k, v = self.next()
        if k == "num":
            return Lit(float(v) if "." in v else int(v))
        if k == "str":
            return Lit(v)
        if k == "kw" and v == "case":
            # searched: CASE WHEN c THEN v ... [ELSE d] END
            # simple:   CASE base WHEN x THEN v ... [ELSE d] END
            base = None
            if self.peek() != ("kw", "when"):
                base = self.expr()
            whens = []
            while self.accept("kw", "when"):
                cond = self.expr()
                if base is not None:
                    cond = Bin("=", base, cond)
                self.expect("kw", "then")
                whens.append((cond, self.expr()))
            if not whens:
                raise ValueError("CASE needs at least one WHEN")
            default = self.expr() if self.accept("kw", "else") else None
            self.expect("kw", "end")
            return Case(whens, default)
        if k == "kw" and v in ("count", "sum", "avg", "min", "max"):
            self.expect("op", "(")
            distinct = self.accept("kw", "distinct")
            if v == "count" and self.accept("op", "*"):
                self.expect("op", ")")
                return Agg("count", None)
            arg = self.add()
            self.expect("op", ")")
            return Agg(v, arg, distinct)
        if k == "id":
            if self.peek() == ("op", "("):
                # scalar function call: name(arg, ...)
                self.next()
                args = []
                if not self.accept("op", ")"):
                    args.append(self.expr())
                    while self.accept("op", ","):
                        args.append(self.expr())
                    self.expect("op", ")")
                fn = v.lower()
                if fn not in _SCALAR_FNS:
                    raise ValueError(f"unknown scalar function {fn!r}")
                return Func(fn, args)
            return Col(v)
        if k == "op" and v == "(":
            e = self.expr()
            self.expect("op", ")")
            return e
        raise ValueError(f"unexpected token {v!r}")

    def select(self) -> Select:
        self.expect("kw", "select")
        is_distinct = self.accept("kw", "distinct")
        cols: list[tuple[object, str]] = []
        while True:
            e = self.expr()
            if self.accept("kw", "as"):
                name = self.expect("id")
            elif isinstance(e, Col):
                name = e.name
            else:
                name = f"col{len(cols)}"
            cols.append((e, name))
            if not self.accept("op", ","):
                break
        stmt = Select(cols)
        stmt.distinct = is_distinct
        self.expect("kw", "from")
        stmt.table = self.expect("id")
        while True:
            # equi-joins, one column each side: [LEFT [OUTER]] JOIN t ON a = b
            if self.accept("kw", "left"):
                self.accept("kw", "outer")
                self.expect("kw", "join")
                how = "left"
            elif self.accept("kw", "join"):
                how = "inner"
            else:
                break
            jt = self.expect("id")
            self.expect("kw", "on")
            pairs = []
            while True:  # ON a = b [AND c = d ...] — multi-column equi-join
                lcol = self.expect("id")
                self.expect("op", "=")
                rcol = self.expect("id")
                pairs.append((lcol, rcol))
                if not self.accept("kw", "and"):
                    break
            stmt.joins.append((jt, pairs, how))
        if self.accept("kw", "where"):
            stmt.where = self.expr()
        if self.accept("kw", "group"):
            self.expect("kw", "by")
            while True:
                ge = self.expr()
                if isinstance(ge, Col):
                    stmt.group_by.append(ge.name)
                else:  # GROUP BY substr(col, 1, 5) etc: computed group key
                    name = f"__g{len(stmt.group_exprs)}"
                    stmt.group_exprs[name] = ge
                    stmt.group_by.append(name)
                if not self.accept("op", ","):
                    break
        if self.accept("kw", "having"):
            stmt.having = self.expr()
        if self.accept("kw", "order"):
            self.expect("kw", "by")
            while True:
                name = self.expect("id")
                asc = True
                if self.accept("kw", "desc"):
                    asc = False
                else:
                    self.accept("kw", "asc")
                stmt.order_by.append((name, asc))
                if not self.accept("op", ","):
                    break
        if self.accept("kw", "limit"):
            stmt.limit = int(self.expect("num"))
            if self.accept("kw", "offset"):
                stmt.offset = int(self.expect("num"))
        return stmt

    def statement(self) -> "Select | Union":
        first = self.select()
        branches = [first]
        while self.accept("kw", "union"):
            self.expect("kw", "all")
            branches.append(self.select())
        if len(branches) == 1:
            self.expect("eof")
            return first
        for b in branches[:-1]:
            if b.order_by or b.limit is not None:
                raise ValueError("ORDER BY/LIMIT belongs after the last UNION ALL branch")
        last = branches[-1]
        u = Union(branches, last.order_by, last.limit, last.offset)
        last.order_by, last.limit, last.offset = [], None, 0
        self.expect("eof")
        return u


def parse_sql(sql: str) -> "Select | Union":
    return _Parser(tokenize(sql)).statement()


# --------------------------------------------------------------------------
# Vectorized evaluation + planning

_SCALAR_FNS = frozenset(
    ["upper", "lower", "length", "abs", "round", "coalesce", "substr", "substring", "concat"]
)


def _apply_func(fn: str, args: list):
    """Apply a scalar function to evaluated args (Series or scalars) with
    DuckDB semantics: 1-based substr, BIGINT length, round-half-away."""

    if fn == "upper":
        return args[0].str.upper() if isinstance(args[0], pd.Series) else str(args[0]).upper()
    if fn == "lower":
        return args[0].str.lower() if isinstance(args[0], pd.Series) else str(args[0]).lower()
    if fn == "length":
        v = args[0]
        return v.str.len().astype("int64") if isinstance(v, pd.Series) else len(str(v))
    if fn == "abs":
        return np.abs(args[0])
    if fn == "round":
        nd = int(args[1]) if len(args) > 1 else 0
        x = np.asarray(args[0], dtype=np.float64)
        scale = 10.0**nd
        # DuckDB rounds DOUBLE half AWAY from zero (C round), numpy rounds
        # half to even — replicate the former exactly
        r = np.sign(x) * np.floor(np.abs(x) * scale + 0.5) / scale
        return pd.Series(r, index=args[0].index) if isinstance(args[0], pd.Series) else float(r)
    if fn == "coalesce":
        out = args[0]
        for nxt in args[1:]:
            if isinstance(out, pd.Series):
                out = out.where(~out.isna(), nxt)
            elif out is None or (isinstance(out, float) and np.isnan(out)):
                out = nxt
        return out
    if fn in ("substr", "substring"):
        s = args[0]
        start = int(args[1]) - 1  # SQL is 1-based
        ln = int(args[2]) if len(args) > 2 else None
        stop = None if ln is None else start + ln
        return s.str.slice(start, stop) if isinstance(s, pd.Series) else str(s)[start:stop]
    if fn == "concat":
        out = None
        for a in args:
            part = a.astype(str) if isinstance(a, pd.Series) else str(a)
            out = part if out is None else out + part  # Series/str broadcast
        return out
    raise ValueError(f"unknown scalar function {fn!r}")


def _cols_of(e, out: set[str]):
    if isinstance(e, Col):
        out.add(e.name)
    elif isinstance(e, Bin):
        _cols_of(e.left, out)
        _cols_of(e.right, out)
    elif isinstance(e, Un):
        _cols_of(e.arg, out)
    elif isinstance(e, InList):
        _cols_of(e.expr, out)
        for it in e.items:
            _cols_of(it, out)
    elif isinstance(e, Between):
        _cols_of(e.expr, out)
        _cols_of(e.lo, out)
        _cols_of(e.hi, out)
    elif isinstance(e, (Like, IsNull, ResolvedIn)):
        _cols_of(e.expr, out)
    elif isinstance(e, Agg) and e.arg is not None:
        _cols_of(e.arg, out)
    elif isinstance(e, Func):
        for a in e.args:
            _cols_of(a, out)
    elif isinstance(e, Case):
        for c, v in e.whens:
            _cols_of(c, out)
            _cols_of(v, out)
        if e.default is not None:
            _cols_of(e.default, out)


def _eval(e, df: pd.DataFrame):
    """Evaluate a NON-aggregate expression over a batch → Series/array."""
    if isinstance(e, Col):
        return df[e.name]
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Un):
        v = _eval(e.arg, df)
        return ~v if e.op == "not" else -v
    if isinstance(e, Bin):
        l, r = _eval(e.left, df), _eval(e.right, df)
        if e.op == "and":
            return l & r
        if e.op == "or":
            return l | r
        if e.op == "=":
            return l == r
        if e.op == "!=":
            return l != r
        if e.op == "<":
            return l < r
        if e.op == "<=":
            return l <= r
        if e.op == ">":
            return l > r
        if e.op == ">=":
            return l >= r
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        if e.op == "/":
            return l / r
        if e.op == "%":
            return l % r
    if isinstance(e, InList):
        v = _eval(e.expr, df)
        m = v.isin([_eval(it, df) for it in e.items])
        return ~m if e.negated else m
    if isinstance(e, ResolvedIn):
        v = _eval(e.expr, df)
        m = (v if isinstance(v, pd.Series) else pd.Series(v, index=df.index)).isin(e.values)
        return ~m if e.negated else m
    if isinstance(e, Between):
        v = _eval(e.expr, df)
        m = (v >= _eval(e.lo, df)) & (v <= _eval(e.hi, df))
        return ~m if e.negated else m
    if isinstance(e, Like):
        rx = "^" + re.escape(e.pattern).replace("%", ".*").replace("_", ".") + "$"
        m = _eval(e.expr, df).astype(str).str.match(rx)
        return ~m if e.negated else m
    if isinstance(e, IsNull):
        m = _eval(e.expr, df).isna()
        return ~m if e.negated else m
    if isinstance(e, Func):
        return _apply_func(e.fn, [_eval(a, df) for a in e.args])
    if isinstance(e, Case):
        # first-match-wins: apply WHENs in reverse over the ELSE base.
        # Result dtype follows the BRANCH VALUE types (never coerce a
        # string branch like '1' to a number — DuckDB keeps it VARCHAR)
        vals = [_eval(v, df) for _, v in e.whens]
        dflt = _eval(e.default, df) if e.default is not None else np.nan

        def _is_str(v) -> bool:
            return isinstance(v, str) or (hasattr(v, "dtype") and np.asarray(v).dtype.kind in "OUS")

        stringy = any(_is_str(v) for v in vals) or _is_str(dflt)
        dt = object if stringy else np.float64
        out = np.asarray(dflt, dtype=dt)
        out = np.broadcast_to(out, (len(df),)).copy() if out.ndim == 0 else out
        for (cond, _), v in zip(reversed(e.whens), reversed(vals)):
            c = np.asarray(_eval(cond, df), dtype=bool)
            out = np.where(c, v, out)
        s = pd.Series(out, index=df.index)
        if not stringy:
            # all-integer CASEs export int64 like the twin (no NULL branch)
            f = s.to_numpy(np.float64)
            if e.default is not None and not np.isnan(f).any() and (f == np.rint(f)).all():
                ints = all(
                    isinstance(v, (int, np.integer)) or (hasattr(v, "dtype") and np.asarray(v).dtype.kind in "iu")
                    for v in vals + [dflt]
                )
                if ints:
                    return s.astype("int64")
        return s
    raise ValueError(f"cannot evaluate {e!r} outside aggregation")


def _find_aggs(e, out: list):
    if isinstance(e, Agg):
        out.append(e)
    elif isinstance(e, Bin):
        _find_aggs(e.left, out)
        _find_aggs(e.right, out)
    elif isinstance(e, Un):
        _find_aggs(e.arg, out)
    elif isinstance(e, Func):
        for a in e.args:
            _find_aggs(a, out)
    elif isinstance(e, Case):
        for c, v in e.whens:
            _find_aggs(c, out)
            _find_aggs(v, out)
        if e.default is not None:
            _find_aggs(e.default, out)


def _agg_key(a: Agg) -> str:
    parts: set[str] = set()
    if a.arg is not None:
        _cols_of(a.arg, parts)
    return f"_{a.fn}{'_d' if a.distinct else ''}_{'_'.join(sorted(parts)) or 'star'}"


def _eval_with_aggs(e, merged: pd.DataFrame, aggcol: dict):
    """Evaluate a select/having expression AFTER aggregation: Agg nodes
    read their merged column; bare Cols read the group-by column."""
    if isinstance(e, Agg):
        if e.fn == "avg":
            return merged[aggcol[("sum", _agg_key(e))]] / merged[aggcol[("count", _agg_key(e))]]
        return merged[aggcol[(e.fn, _agg_key(e))]]
    if isinstance(e, Bin):
        l = _eval_with_aggs(e.left, merged, aggcol)
        r = _eval_with_aggs(e.right, merged, aggcol)
        return _eval(Bin(e.op, Lit(l), Lit(r)), merged)
    if isinstance(e, Un):
        v = _eval_with_aggs(e.arg, merged, aggcol)
        return ~v if e.op == "not" else -v
    if isinstance(e, Func):
        return _apply_func(e.fn, [_eval_with_aggs(a, merged, aggcol) for a in e.args])
    return _eval(e, merged)


def execute_sql(sf_dir: str, sql: str) -> pd.DataFrame:
    """Parse + plan + run `sql` over the parquet tables in `sf_dir`."""
    stmt = parse_sql(sql)
    if isinstance(stmt, Union):
        parts = [_execute_select(sf_dir, b) for b in stmt.selects]
        cols0 = list(parts[0].columns)
        for p_ in parts[1:]:
            if list(p_.columns) != cols0:
                raise ValueError(f"UNION ALL branch schemas differ: {cols0} vs {list(p_.columns)}")
        df = pd.concat(parts, ignore_index=True)
        if stmt.order_by:
            df = df.sort_values(
                [c for c, _ in stmt.order_by],
                ascending=[a for _, a in stmt.order_by],
                kind="mergesort",
            )
        if stmt.limit is not None:
            df = df.iloc[stmt.offset : stmt.offset + stmt.limit]
        elif stmt.offset:
            df = df.iloc[stmt.offset :]
        return df.reset_index(drop=True)
    return _execute_select(sf_dir, stmt)


def _walk_replace(e, fn, into_aggs: bool = True):
    """Bottom-up structural rewrite over the boolean/scalar expression
    tree.  `into_aggs=False` leaves Agg subtrees untouched — required for
    POST-plan substitutions, where a rewritten Agg would no longer match
    its partial-column key."""
    def w(x):
        return _walk_replace(x, fn, into_aggs)

    if isinstance(e, Bin):
        e = Bin(e.op, w(e.left), w(e.right))
    elif isinstance(e, Un):
        e = Un(e.op, w(e.arg))
    elif isinstance(e, Func):
        e = Func(e.fn, [w(a) for a in e.args])
    elif isinstance(e, Case):
        e = Case(
            [(w(c), w(v)) for c, v in e.whens],
            None if e.default is None else w(e.default),
        )
    elif isinstance(e, InList):
        e = InList(w(e.expr), [w(i) for i in e.items], e.negated)
    elif isinstance(e, Between):
        e = Between(w(e.expr), w(e.lo), w(e.hi), e.negated)
    elif isinstance(e, Like):
        e = Like(w(e.expr), e.pattern, e.negated)
    elif isinstance(e, IsNull):
        e = IsNull(w(e.expr), e.negated)
    elif isinstance(e, Agg):
        if not into_aggs:
            return e
        if e.arg is not None:
            e = Agg(e.fn, w(e.arg), e.distinct)
    elif isinstance(e, InSubquery):
        e = InSubquery(w(e.expr), e.select, e.negated)
    return fn(e)


def _execute_select(sf_dir: str, stmt: Select) -> pd.DataFrame:
    if stmt.where is not None:
        # resolve IN (SELECT ...): run the sub-select first, broadcast its
        # first column into the outer mask
        def res(e):
            if isinstance(e, InSubquery):
                sub = _execute_select(sf_dir, e.select)
                return ResolvedIn(e.expr, pd.Series(sub.iloc[:, 0]).dropna().unique(), e.negated)
            return e

        stmt.where = _walk_replace(stmt.where, res)
    if stmt.having is not None:
        # HAVING may reference output aliases (the DuckDB extension):
        # substitute the aliased expression unless the name is a real
        # group-by column
        alias = {
            name: e
            for e, name in stmt.cols
            if not (isinstance(e, Col) and e.name == name) and name not in stmt.group_by
        }
        if alias:
            stmt.having = _walk_replace(
                stmt.having, lambda e: alias.get(e.name, e) if isinstance(e, Col) else e
            )
    need: set[str] = set()
    for e, _ in stmt.cols:
        _cols_of(e, need)
    if stmt.where is not None:
        _cols_of(stmt.where, need)
    for g in stmt.group_by:
        if g in stmt.group_exprs:
            _cols_of(stmt.group_exprs[g], need)
        else:
            need.add(g)
    if stmt.having is not None:
        _cols_of(stmt.having, need)
    aggs: list[Agg] = []
    for e, _ in stmt.cols:
        _find_aggs(e, aggs)
    if stmt.having is not None:
        _find_aggs(stmt.having, aggs)

    if stmt.joins:
        # INNER equi-joins: every joined table is read ONCE (pruned to the
        # referenced columns + key), broadcast via ray.put, and merged into
        # each root batch — the small-side lookup-join shape.  Key sides are
        # resolved by schema membership (TPC-H column prefixes are unique).
        import pyarrow.parquet as pq
        import ray

        root_names = set(pq.read_schema(f"{sf_dir}/{stmt.table}.parquet").names)
        avail = set(root_names)
        join_plan: list[tuple[str, list, list, set[str], set[str], str]] = []
        for jt, pairs, how in stmt.joins:
            jnames = set(pq.read_schema(f"{sf_dir}/{jt}.parquet").names)
            lks, rks = [], []
            for a, b in pairs:
                if b in jnames and a in avail:
                    lk, rk = a, b
                elif a in jnames and b in avail:
                    lk, rk = b, a
                else:
                    raise ValueError(f"cannot resolve join keys {a} = {b} against {jt}")
                lks.append(lk)
                rks.append(rk)
            rcols = ({c for c in need if c in jnames} - avail) | set(rks)
            # a LATER join's left key may be provided by an EARLIER table
            for lk in lks:
                if lk not in root_names:
                    for _, _, _, rcols2, jnames2, _ in join_plan:
                        if lk in jnames2:
                            rcols2.add(lk)
                            break
            join_plan.append((jt, lks, rks, rcols, jnames, how))
            avail |= jnames
        root_need = sorted(
            (need | {lk for _, lks, _, _, _, _ in join_plan for lk in lks}) & root_names
        )
        ds = read(sf_dir, stmt.table, root_need or None)
        refs = [
            (lks, rks, how, ray.put(read(sf_dir, jt, sorted(rcols)).to_pandas()))
            for jt, lks, rks, rcols, _, how in join_plan
        ]

        def joiner(batch: pd.DataFrame) -> pd.DataFrame:
            for lks, rks, how, ref in refs:
                batch = batch.merge(ray.get(ref), left_on=lks, right_on=rks, how=how)
            return batch

        ds = ds.map_batches(joiner, batch_format="pandas")
    else:
        ds = read(sf_dir, stmt.table, sorted(need) or None)

    if not aggs and not stmt.group_by:
        # pure scan: filter + project per batch; ORDER+LIMIT → per-batch
        # top-k, merged on the driver (only k rows per batch move).
        # SELECT DISTINCT dedupes per batch (a mergeable partial — only the
        # batch's distinct domain moves) and once more on the driver.
        def scan(batch: pd.DataFrame) -> pd.DataFrame:
            if stmt.where is not None:
                batch = batch[np.asarray(_eval(stmt.where, batch), dtype=bool)]
            out = pd.DataFrame(index=batch.index)
            for e, name in stmt.cols:
                out[name] = _eval(e, batch)
            if stmt.distinct:
                out = out.drop_duplicates()
            if stmt.order_by and stmt.limit is not None:
                keys = [k for k, _ in stmt.order_by]
                asc = [a for _, a in stmt.order_by]
                # partials keep limit+offset rows — the page the driver
                # slices can start past the per-batch top-k otherwise
                out = out.sort_values(keys, ascending=asc, kind="mergesort").head(
                    stmt.limit + stmt.offset
                )
            return out

        res = ds.map_batches(scan, batch_format="pandas").to_pandas()
        if len(res.columns) == 0:  # Ray drops the schema when EVERY block
            res = pd.DataFrame(  # filtered to zero rows — rebuild it
                {name: pd.Series([], dtype=object) for _, name in stmt.cols}
            )
        if stmt.distinct:
            res = res.drop_duplicates()
    else:
        # grouped aggregation: per-batch combiner partials, coordinator
        # merge.  COUNT(DISTINCT x) is handled separately below: its partial
        # is the batch's distinct (group, value) PAIRS, not a scalar.
        if any(a.distinct and a.fn != "count" for a in aggs):
            raise ValueError("DISTINCT is only supported inside COUNT(...)")
        gb = stmt.group_by
        dist_by_key: dict[str, Agg] = {_agg_key(a): a for a in aggs if a.distinct}
        plan: dict[tuple[str, str], str] = {}  # (op, agg key) -> partial col
        for a in aggs:
            if a.distinct:
                continue
            key = _agg_key(a)
            ops = [("sum", key), ("count", key)] if a.fn == "avg" else [(a.fn, key)]
            for op, k in ops:
                plan.setdefault((op, k), f"{op}{k}")
        by_key: dict[str, Agg] = {_agg_key(a): a for a in aggs if not a.distinct}

        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            if stmt.where is not None:
                batch = batch[np.asarray(_eval(stmt.where, batch), dtype=bool)]
            g = pd.DataFrame(index=batch.index)
            for k in gb:
                g[k] = np.asarray(_eval(stmt.group_exprs[k], batch)) if k in stmt.group_exprs else batch[k]
            vals: dict[str, tuple[str, object]] = {}
            for (op, key), colname in plan.items():
                a = by_key[key]
                if a.fn == "count" and a.arg is None:
                    vals[colname] = ("sum", np.ones(len(batch), dtype=np.int64))
                elif op == "count" or a.fn == "count":
                    v = _eval(a.arg, batch)
                    vals[colname] = ("sum", pd.Series(v, index=batch.index).notna().to_numpy(np.int64))
                else:
                    vals[colname] = (op, np.asarray(_eval(a.arg, batch)))
            for colname, (_, v) in vals.items():
                g[colname] = v
            merged_ops = {c: op for c, (op, _) in vals.items()}
            if not gb:
                g["_g"] = 0
                return g.groupby("_g", as_index=False).agg(merged_ops).drop(columns=["_g"]) if len(g) else g.head(0).drop(columns=["_g"])
            return g.groupby(gb, as_index=False).agg(merged_ops)

        merged: pd.DataFrame | None = None
        if plan:
            parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
            merge_ops = {colname: ("sum" if op in ("sum", "count") else op) for (op, _), colname in plan.items()}
            if parts.empty:  # zero matching rows anywhere: rebuild a stable schema
                parts = pd.DataFrame({**{k: pd.Series([], dtype=object) for k in gb},
                                      **{c: pd.Series([], dtype="int64") for c in merge_ops}})
            if gb:
                merged = parts.groupby(gb, as_index=False).agg(merge_ops)
            else:
                merged = parts.agg(merge_ops).to_frame().T if len(parts) else parts
        aggcol = {k: v for k, v in plan.items()}

        # COUNT(DISTINCT x): per-batch distinct (group, value) pairs through
        # the bucketed shuffle on the value (buckets partition the value
        # space, so per-bucket distinct counts sum exactly); the driver only
        # ever sees buckets × groups count rows, never the distinct-pair
        # domain (which is vocabulary-sized).
        for dkey, a in dist_by_key.items():
            colname = f"dcnt{dkey}"

            def dpart(batch: pd.DataFrame, _a=a) -> pd.DataFrame:
                if stmt.where is not None:
                    batch = batch[np.asarray(_eval(stmt.where, batch), dtype=bool)]
                g = pd.DataFrame(index=batch.index)
                for k in gb:
                    g[k] = np.asarray(_eval(stmt.group_exprs[k], batch)) if k in stmt.group_exprs else batch[k]
                g["_v"] = _eval(_a.arg, batch)
                return g.dropna(subset=["_v"]).drop_duplicates()

            def bucket_count(grp: pd.DataFrame) -> pd.DataFrame:
                d = grp.drop_duplicates(subset=gb + ["_v"]) if gb else grp.drop_duplicates(subset=["_v"])
                if gb:
                    out = d.groupby(gb, as_index=False).agg(**{colname: ("_v", "size")})
                else:
                    out = pd.DataFrame({colname: [len(d)]})
                return out

            parts_d = bucketed(ds.map_batches(dpart, batch_format="pandas"), "_v", bucket_count).to_pandas()
            if gb:
                if parts_d.empty and not all(k in parts_d.columns for k in gb):
                    parts_d = pd.DataFrame({**{k: pd.Series([], dtype=object) for k in gb},
                                            colname: pd.Series([], dtype="int64")})
                cnt = parts_d.groupby(gb, as_index=False)[colname].sum()
                cnt[colname] = cnt[colname].astype("int64")
                if merged is None:
                    merged = cnt
                else:
                    merged = merged.merge(cnt, on=gb, how="left")
                    merged[colname] = merged[colname].fillna(0).astype("int64")
            else:
                n_uni = np.int64(int(parts_d[colname].sum())) if len(parts_d) else np.int64(0)
                if merged is None:
                    merged = pd.DataFrame({colname: [n_uni]})
                else:
                    merged[colname] = n_uni
            aggcol[("count", dkey)] = colname
        assert merged is not None

        def _map_group_expr(e):
            for synth, ge in stmt.group_exprs.items():
                if e == ge:
                    return Col(synth)
            return e

        def sub_g(e):
            """A select/HAVING expression structurally equal to a GROUP BY
            expression reads the computed group-key column (its inputs no
            longer exist after the merge) — full-tree rewrite, predicates
            (IN/BETWEEN/LIKE/IS NULL) included."""
            return _walk_replace(e, _map_group_expr, into_aggs=False)

        if stmt.having is not None:
            merged = merged[np.asarray(_eval_with_aggs(sub_g(stmt.having), merged, aggcol), dtype=bool)]
        res = pd.DataFrame(index=merged.index)
        for e, name in stmt.cols:
            res[name] = _eval_with_aggs(sub_g(e), merged, aggcol)

    if stmt.order_by:
        keys = [k for k, _ in stmt.order_by]
        asc = [a for _, a in stmt.order_by]
        res = res.sort_values(keys, ascending=asc, kind="mergesort")
    if stmt.limit is not None:
        res = res.iloc[stmt.offset : stmt.offset + stmt.limit]
    # normalize count-like columns to int64 (pandas sums may widen)
    for c in res.columns:
        if res[c].dtype == np.int32:
            res[c] = res[c].astype(np.int64)
    return res.reset_index(drop=True)


# --------------------------------------------------------------------------
# Gated pipelines — the oracle IS the input SQL string, run by DuckDB.

SQL_SELECT = """
SELECT o_orderkey, o_totalprice, o_orderpriority
FROM orders
WHERE o_orderstatus = 'O' AND o_totalprice BETWEEN 100000 AND 200000
  AND o_orderpriority IN ('1-URGENT', '2-HIGH')
ORDER BY o_totalprice DESC, o_orderkey ASC
LIMIT 25
"""

SQL_GROUPBY = """
SELECT p_brand, COUNT(*) AS n, SUM(p_size) AS total_size,
       MIN(p_retailprice) AS min_price, MAX(p_retailprice) AS max_price
FROM part
WHERE p_size > 10 AND p_type LIKE '%AND%'
GROUP BY p_brand
HAVING COUNT(*) > 2
ORDER BY n DESC, p_brand
LIMIT 10
"""


def sql_select(sf_dir: str) -> pd.DataFrame:
    return execute_sql(sf_dir, SQL_SELECT)


def sql_groupby(sf_dir: str) -> pd.DataFrame:
    return execute_sql(sf_dir, SQL_GROUPBY)


SQL_SCALAR_FNS = """
SELECT upper(substr(o_orderpriority, 1, 3)) AS pri3,
       lower(o_orderstatus) AS st,
       length(o_orderpriority) AS plen,
       round(o_totalprice, 1) AS price1,
       abs(o_custkey - 500) AS dkey,
       concat(o_orderstatus, '-', o_orderpriority) AS tag
FROM orders
WHERE length(o_orderpriority) >= 8 AND round(o_totalprice, 0) > 150000
ORDER BY price1 DESC, dkey ASC, tag ASC, pri3 ASC, st ASC, plen ASC
LIMIT 30
"""

SQL_SCALAR_AGG = """
SELECT o_orderstatus, round(sum(o_custkey) / 7, 2) AS total,
       concat(o_orderstatus, ':', o_orderstatus) AS tag2
FROM orders
GROUP BY o_orderstatus
ORDER BY o_orderstatus
"""


def sql_scalar_fns(sf_dir: str) -> pd.DataFrame:
    a = execute_sql(sf_dir, SQL_SCALAR_FNS)
    b = execute_sql(sf_dir, SQL_SCALAR_AGG)
    # one gate, both shapes: row-wise scalar pipeline + scalar-over-agg
    b.columns = [f"g_{c}" for c in b.columns]
    a["k"] = 1
    b["k"] = 1
    return a.merge(b, on="k").drop(columns=["k"])


def _scalar_twin() -> str:
    return f"""
WITH a AS ({SQL_SCALAR_FNS}), b AS (
SELECT g_o_orderstatus, g_total, g_tag2 FROM (
  SELECT o_orderstatus AS g_o_orderstatus, round(sum(o_custkey) / 7, 2) AS g_total,
         concat(o_orderstatus, ':', o_orderstatus) AS g_tag2
  FROM orders GROUP BY o_orderstatus) ORDER BY g_o_orderstatus)
SELECT * FROM a CROSS JOIN b
"""


def _twin(sql: str) -> str:
    # DuckDB twin: identical statement, with BIGINT casts on the count-ish
    # outputs so both sides export int64 (DuckDB COUNT is already BIGINT;
    # SUM over INTEGER promotes to HUGEINT → cast back)
    return sql.replace("SUM(p_size) AS total_size", "CAST(SUM(p_size) AS BIGINT) AS total_size")


SQL_DISTINCT = """
SELECT DISTINCT o_orderpriority, o_orderstatus FROM orders
WHERE o_totalprice > 100000
ORDER BY o_orderpriority, o_orderstatus
"""


def sql_distinct(sf_dir: str) -> pd.DataFrame:
    return execute_sql(sf_dir, SQL_DISTINCT)


SQL_COUNT_DISTINCT = """
SELECT event_type, COUNT(DISTINCT user_id) AS uniq_users, COUNT(*) AS n
FROM events GROUP BY event_type ORDER BY event_type
"""


def sql_count_distinct(sf_dir: str) -> pd.DataFrame:
    return execute_sql(sf_dir, SQL_COUNT_DISTINCT)


SQL_JOIN = """
SELECT c_mktsegment, n_name, COUNT(*) AS n, SUM(c_nationkey) AS key_sum
FROM customer JOIN nation ON c_nationkey = n_nationkey
WHERE c_acctbal > 0
GROUP BY c_mktsegment, n_name
HAVING COUNT(*) > 1
ORDER BY c_mktsegment, n_name
"""


def sql_join(sf_dir: str) -> pd.DataFrame:
    return execute_sql(sf_dir, SQL_JOIN)


SQL_UNION = (
    "SELECT o_orderstatus AS g, COUNT(*) AS n FROM orders GROUP BY o_orderstatus"
    " UNION ALL "
    "SELECT c_mktsegment AS g, COUNT(*) AS n FROM customer GROUP BY c_mktsegment"
    " ORDER BY g"
)


SQL_LEFT_JOIN = """
SELECT c_mktsegment, COUNT(*) AS n_rows, COUNT(o_orderkey) AS n_orders
FROM customer LEFT JOIN orders ON o_custkey = c_custkey
GROUP BY c_mktsegment
ORDER BY c_mktsegment
"""


def sql_left_join(sf_dir: str) -> pd.DataFrame:
    return execute_sql(sf_dir, SQL_LEFT_JOIN)


SQL_IN_SUBQUERY = """
SELECT o_orderkey, o_totalprice FROM orders
WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')
  AND o_totalprice > 150000
ORDER BY o_totalprice DESC, o_orderkey
LIMIT 20
"""


def sql_in_subquery(sf_dir: str) -> pd.DataFrame:
    return execute_sql(sf_dir, SQL_IN_SUBQUERY)


SQL_GROUP_EXPR = """
SELECT substr(p_type, 1, 5) AS type5, COUNT(*) AS n, SUM(p_size) AS total_size
FROM part
GROUP BY substr(p_type, 1, 5)
HAVING COUNT(*) > 1
ORDER BY type5
"""


def sql_group_expr(sf_dir: str) -> pd.DataFrame:
    return execute_sql(sf_dir, SQL_GROUP_EXPR)


def sql_union(sf_dir: str) -> pd.DataFrame:
    out = execute_sql(sf_dir, SQL_UNION)
    out["n"] = out["n"].astype("int64")
    return out


PIPELINES: dict[str, Pipeline] = {
    "sql_distinct": Pipeline(
        sql_distinct,
        SQL_DISTINCT,
        "Parallel SQL handler: SELECT DISTINCT via mergeable per-batch dedupe partials",
    ),
    "sql_count_distinct": Pipeline(
        sql_count_distinct,
        SQL_COUNT_DISTINCT,
        "Parallel SQL handler: COUNT(DISTINCT) via distinct-pair partials + driver merge",
    ),
    "sql_join": Pipeline(
        sql_join,
        "SELECT c_mktsegment, n_name, CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(c_nationkey) AS BIGINT) AS key_sum"
        " FROM customer JOIN nation ON c_nationkey = n_nationkey WHERE c_acctbal > 0"
        " GROUP BY c_mktsegment, n_name HAVING COUNT(*) > 1 ORDER BY c_mktsegment, n_name",
        "Parallel SQL handler: broadcast equi-join + grouped aggregate over the joined stream",
    ),
    "sql_union": Pipeline(
        sql_union,
        SQL_UNION,
        "Parallel SQL handler: UNION ALL with trailing ORDER BY over the combined branches",
    ),
    "sql_scalar_fns": Pipeline(
        sql_scalar_fns,
        _scalar_twin(),
        "Parallel SQL handler: scalar functions (upper/lower/length/abs/round/coalesce/substr/concat) in projections, WHERE, and over aggregates",
    ),
    "sql_select": Pipeline(
        sql_select,
        _twin(SQL_SELECT),
        "Parallel SQL handler: scan query (WHERE/IN/BETWEEN, ORDER BY, LIMIT) parsed + planned onto per-batch top-k",
    ),
    "sql_left_join": Pipeline(
        sql_left_join,
        SQL_LEFT_JOIN,
        "Parallel SQL handler: LEFT OUTER equi-join (broadcast right side, how='left' merge) + grouped aggregate",
    ),
    "sql_in_subquery": Pipeline(
        sql_in_subquery,
        SQL_IN_SUBQUERY,
        "Parallel SQL handler: IN (SELECT ...) — sub-select runs first, first column broadcast into the outer mask",
    ),
    "sql_group_expr": Pipeline(
        sql_group_expr,
        _twin(SQL_GROUP_EXPR),
        "Parallel SQL handler: GROUP BY <expression> (computed group keys through the combiner partials)",
    ),
    "sql_groupby": Pipeline(
        sql_groupby,
        _twin(SQL_GROUPBY),
        "Parallel SQL handler: aggregate query (GROUP BY/HAVING/LIKE) planned onto combiner partials + coordinator merge",
    ),
}
