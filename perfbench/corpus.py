"""Seeded inputs for every workload, generated here and nowhere else.

Nothing in this module imports the package under test, so a change to the
program cannot change what the benchmark feeds it.  The same seed always
gives byte-identical tables and query streams.

- `transcripts`: conversation turns with the package's input schema
  (conv_id, turn_idx, role, text, tool, ts), split into parquet files that
  hold disjoint, ordered conv_id ranges.  Text is a Zipf token stream over
  a pseudo-word vocabulary much larger than the package's own fixtures,
  plus a few hot role/tool terms so the build's salted shuffle sees skew.
- `HeadStream` / `TailStream`: query streams for the two serving
  workloads.  Head draws from the most frequent terms; tail draws terms
  uniformly over every term the corpus uses.
- `pipeline_tables`: the `documents` and `events` tables the pipelines
  workload reads, with the shared test-data schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB_SIZE = 150_000
ZIPF_S = 1.05
TOOLS = ("search", "browser", "bash", "python", "editor")
ROLE_PREFIX = {"user": "user asks", "assistant": "assistant replies", "tool": "tool returns"}
HOT = ("ok", "error", "done", "retry")
BASE_TS_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z

_CONS = "bcdfghjklmnprstvwxz"
_VOWELS = "aeiou"
_SYLL = [c + v for c in _CONS for v in _VOWELS]  # 95 CV syllables


def _word(i: int) -> str:
    """Pseudo-word for vocabulary slot i: base-95 CV syllables, at least
    two, so it is lowercase alphabetic, unique, and never a stop word."""
    i += len(_SYLL)
    out = []
    while i:
        i, r = divmod(i, len(_SYLL))
        out.append(_SYLL[r])
    return "".join(reversed(out))


VOCAB = np.array([_word(i) for i in range(VOCAB_SIZE)], dtype=object)
_P = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_S
_CDF = np.cumsum(_P / _P.sum())


def _zipf_ranks(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.minimum(np.searchsorted(_CDF, rng.random(n)), VOCAB_SIZE - 1)


@dataclass
class Corpus:
    """A written transcript corpus: parquet paths (sorted = docID order),
    per-file row counts, and the vocabulary ids each file actually uses."""

    paths: list[str]
    rows: list[int]
    input_bytes: int
    word_of_rank: np.ndarray  # rank -> pseudo-word (seed-permuted)
    used_ranks: np.ndarray  # sorted Zipf ranks present in the text
    bigrams: list[tuple[str, str]]  # phrase pool of the head stream
    # rank -> (its word, the word after it) at one occurrence in the text
    pairs: dict[int, tuple[str, str]]
    pair_ranks: np.ndarray  # sorted keys of `pairs`

    @property
    def turns(self) -> int:
        return sum(self.rows)


def _conv_file(rng: np.random.Generator, word_of_rank, conv_lo: int, n_conv: int, tag: str):
    turns = np.minimum(1 + rng.poisson(6, n_conv), 30)
    conv = np.repeat(np.arange(n_conv), turns)
    starts = np.cumsum(turns) - turns
    turn_idx = np.arange(conv.size) - starts[conv]
    n = conv.size
    role = np.where(turn_idx % 2 == 0, "user", "assistant").astype(object)
    is_tool = (turn_idx % 2 == 1) & (rng.random(n) < 0.12)
    role[is_tool] = "tool"
    tool = np.full(n, None, dtype=object)
    tool[is_tool] = rng.choice(np.array(TOOLS, dtype=object), int(is_tool.sum()))

    ntok = np.clip(np.exp(rng.normal(3.0, 0.6, n)).astype(np.int64), 4, 80)
    ranks = _zipf_ranks(rng, int(ntok.sum()))
    words = word_of_rank[ranks]
    hot = rng.random(words.size) < 0.02
    words[hot] = rng.choice(np.array(HOT, dtype=object), int(hot.sum()))
    upper = rng.random(words.size) < 0.02  # analyzer lowercasing
    words[upper] = [w.upper() for w in words[upper]]
    punct = rng.random(words.size) < 0.01  # analyzer punctuation split
    words[punct] = [w + "," for w in words[punct]]
    offs = np.concatenate([[0], np.cumsum(ntok)])
    wl = words.tolist()
    prefix = [ROLE_PREFIX[r] if t is None else f"{ROLE_PREFIX[r]} {t}" for r, t in zip(role, tool)]
    text = [prefix[i] + " " + " ".join(wl[offs[i] : offs[i + 1]]) for i in range(n)]

    conv_ids = np.array([f"{tag}-{conv_lo + c:07d}" for c in range(n_conv)], dtype=object)
    ts = BASE_TS_US + (conv_lo + conv) * 3_600_000_000 + turn_idx * 20_000_000
    table = pa.table(
        {
            "conv_id": pa.array(conv_ids[conv], pa.string()),
            "turn_idx": pa.array(turn_idx.astype(np.int32)),
            "role": pa.array(role, pa.string()),
            "text": pa.array(text, pa.string()),
            "tool": pa.array(tool, pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    # bigrams for phrase queries: adjacent plain tokens of a few turns
    bigrams = []
    for i in rng.choice(n, size=min(n, 64), replace=False):
        a, b = int(offs[i]), int(offs[i + 1])
        if b - a >= 2 and not (hot[a] or hot[a + 1] or upper[a] or upper[a + 1] or punct[a]):
            bigrams.append((wl[a], wl[a + 1]))
    # the first occurrence of each rank whose successor is in the same turn,
    # both tokens plain: one (word, next word) pair per rank
    follows = np.ones(words.size - 1, dtype=bool)
    follows[offs[1:-1] - 1] = False  # last token of a turn
    plain = ~(hot | punct)
    at = np.flatnonzero(follows & plain[:-1] & plain[1:])
    r, first = np.unique(ranks[at], return_index=True)
    at = at[first]
    pairs = dict(zip(r.tolist(), zip(word_of_rank[ranks[at]].tolist(), word_of_rank[ranks[at + 1]].tolist())))
    return table, np.unique(ranks), bigrams, pairs


def transcripts(seed: int, out_dir: Path, n_files: int, conv_per_file: int, first_file: int = 0,
                word_of_rank: np.ndarray | None = None) -> Corpus:
    """Write files `first_file .. first_file+n_files-1` of the seed's corpus.

    File k holds conversations [k*conv_per_file, (k+1)*conv_per_file), so
    appending files with a higher `first_file` extends the corpus in
    docID order (the incremental-ingest shape)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if word_of_rank is None:
        word_of_rank = VOCAB[np.random.default_rng([seed, 0]).permutation(VOCAB_SIZE)]
    paths, rows, used, bigrams, pairs = [], [], [], [], {}
    for k in range(first_file, first_file + n_files):
        rng = np.random.default_rng([seed, 1, k])
        table, ranks, bg, pr = _conv_file(rng, word_of_rank, k * conv_per_file, conv_per_file, f"s{seed}")
        p = out_dir / f"part-{k:05d}.parquet"
        pq.write_table(table, p)
        paths.append(str(p))
        rows.append(table.num_rows)
        used.append(ranks)
        bigrams.extend(bg)
        for r, pair in pr.items():
            pairs.setdefault(r, pair)
    return Corpus(
        paths=paths,
        rows=rows,
        input_bytes=sum(Path(p).stat().st_size for p in paths),
        word_of_rank=word_of_rank,
        used_ranks=np.unique(np.concatenate(used)),
        bigrams=bigrams,
        pairs=pairs,
        pair_ranks=np.array(sorted(pairs), dtype=np.int64),
    )


# -- query streams ---------------------------------------------------------

K = 10
_GOLDEN = 0.6180339887498949


def _term(rng, corpus: Corpus, head: bool) -> str:
    """A term that occurs in the corpus.  Head terms come from the 200 top
    ranks; tail terms are uniform over every used rank, so most are rare."""
    ranks = corpus.used_ranks
    idx = int(rng.integers(0, min(200, ranks.size) if head else ranks.size))
    return str(corpus.word_of_rank[ranks[idx]])


def _tail_pair(rng, corpus: Corpus) -> tuple[str, str]:
    """A rank drawn uniformly, its word and the word that follows it in
    the text: two terms that co-occur, for tail conjunctions and phrases."""
    return corpus.pairs[int(corpus.pair_ranks[rng.integers(0, corpus.pair_ranks.size)])]


def _request(rng, corpus: Corpus, head: bool, select: bool = False, u: float | None = None) -> dict:
    """One request: {"kind": search|select, "q": ..., ...}.  `u` in [0, 1)
    picks its shape (term, OR, AND, phrase); drawn from `rng` if None."""
    if u is None:
        u = rng.random()
    if u < 0.30:
        q = _term(rng, corpus, head)
    elif u < 0.55:
        q = " ".join(_term(rng, corpus, head) for _ in range(int(rng.integers(2, 5))))
    elif u < 0.75:
        a, b = (_term(rng, corpus, True), _term(rng, corpus, True)) if head else _tail_pair(rng, corpus)
        q = f"+{a} +{b}"
    else:
        a, b = corpus.bigrams[int(rng.integers(0, len(corpus.bigrams)))] if head else _tail_pair(rng, corpus)
        q = f'"{a} {b}"'
    if select:
        fq = "role:" + ("user", "assistant")[int(rng.integers(0, 2))]
        return {"kind": "select", "q": q, "fq": fq, "rows": K}
    return {"kind": "search", "q": q, "k": K}


def req_key(r: dict) -> tuple:
    return tuple(sorted(r.items()))


def _distinct(rng, corpus: Corpus, n: int, select: bool) -> list[dict]:
    """`n` distinct head requests.  The shape of the i-th follows a fixed
    low-discrepancy sequence, not the seed, so every seed puts the same
    shapes at the same popularity ranks and only the terms differ."""
    out: list[dict] = []
    seen: set[tuple] = set()
    while len(out) < n:
        r = _request(rng, corpus, head=True, select=select, u=(len(out) * _GOLDEN) % 1.0)
        if req_key(r) not in seen:
            seen.add(req_key(r))
            out.append(r)
    return out


class HeadStream:
    """The small query space of `query_head` and draws from it.

    `space` holds `n_search` top-k searches and `n_select` /select requests
    (q + fq + facet.field + rows).  A draw is a /select with probability
    `select_share`, picked uniformly, and otherwise a search picked with
    Zipf(1.1) popularity, so every seed gets the same mix of request kinds."""

    def __init__(self, seed: int, corpus: Corpus, n_search: int = 64, n_select: int = 16,
                 select_share: float = 0.2):
        rng = np.random.default_rng([seed, 2])
        self.searches = _distinct(rng, corpus, n_search, select=False)
        self.selects = _distinct(rng, corpus, n_select, select=True)
        self.space = self.searches + self.selects
        self.select_share = select_share
        self.rng = np.random.default_rng([seed, 3])
        p = 1.0 / np.arange(1, n_search + 1) ** 1.1
        self.cdf = np.cumsum(p / p.sum())

    def __next__(self) -> dict:
        if self.rng.random() < self.select_share:
            return self.selects[int(self.rng.integers(0, len(self.selects)))]
        i = min(int(np.searchsorted(self.cdf, self.rng.random())), len(self.searches) - 1)
        return self.searches[i]


class TailStream:
    """Every request distinct, terms uniform across the used vocabulary."""

    def __init__(self, seed: int, corpus: Corpus):
        self.corpus = corpus
        self.rng = np.random.default_rng([seed, 4, 0])
        self.seen: set[tuple] = set()

    def __next__(self) -> dict:
        while True:
            r = _request(self.rng, self.corpus, head=False)
            if req_key(r) not in self.seen:
                self.seen.add(req_key(r))
                return r


# -- pipelines tables ------------------------------------------------------

_DOC_WORDS = np.array(
    "batch part spark line column order small sort fast value scan hash slow group agg filter "
    "query big key window row table stream merge data index shard term score".split(),
    dtype=object,
)
_LANGS = np.array(["en", "de", "fr", "zh", "es"], dtype=object)
_EVENTS = np.array(["view", "click", "signup", "purchase", "error"], dtype=object)


def pipeline_tables(seed: int, out_dir: Path, n_docs: int, n_events: int) -> dict[str, int]:
    """Write documents/events parquet; → rows per table."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 5])
    # documents: short token streams with ~5% exact duplicates, so dedup
    # and the significant-terms foreground/background split do real work
    ntok = rng.integers(20, 70, n_docs)
    words = rng.choice(_DOC_WORDS, int(ntok.sum()))
    words[rng.random(words.size) < 0.12] = "a"
    offs = np.concatenate([[0], np.cumsum(ntok)])
    wl = words.tolist()
    text = np.array([" ".join(wl[offs[i] : offs[i + 1]]) for i in range(n_docs)], dtype=object)
    dup = np.flatnonzero(rng.random(n_docs) < 0.05)
    text[dup] = text[rng.integers(0, n_docs, dup.size)]
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
            "text": pa.array(text, pa.string()),
            "lang": pa.array(rng.choice(_LANGS, n_docs, p=[0.4, 0.15, 0.15, 0.15, 0.15]), pa.string()),
            "source": pa.array([f"src{i}" for i in rng.integers(0, 10, n_docs)], pa.string()),
            "n_chars": pa.array(np.array([len(t) for t in text], dtype=np.int64)),
        }
    )
    n_users = max(1, n_events // 60)
    events = pa.table(
        {
            "event_id": pa.array(np.arange(n_events, dtype=np.int64)),
            "ts": pa.array(
                BASE_TS_US + np.sort(rng.integers(0, 30 * 86_400_000_000, n_events)), pa.timestamp("us")
            ),
            "user_id": pa.array(rng.integers(0, n_users, n_events).astype(np.int64)),
            "event_type": pa.array(rng.choice(_EVENTS, n_events), pa.string()),
            "value": pa.array(np.round(rng.uniform(0, 500, n_events), 2)),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_events)], pa.string()),
        }
    )
    tables = {"documents": docs, "events": events}
    for name, t in tables.items():
        pq.write_table(t, out_dir / f"{name}.parquet")
    return {name: t.num_rows for name, t in tables.items()}
