"""Kuromoji-lite Japanese segmentation (SURVEY §2.2
`lucene/analysis/kuromoji` JapaneseTokenizer / JapaneseAnalyzer analog).

The real kuromoji runs a Viterbi lattice over the MeCab-IPADIC
dictionary with learned word + connection costs.  This "lite" port keeps
the ALGORITHM — a min-cost lattice walk with dictionary edges and
character-class unknown-word edges — over a small built-in dictionary of
common Japanese vocabulary (public knowledge), with costs chosen by
class rather than learned:

- dictionary edge: cost 100 − len(word)  (longer matches slightly
  cheaper, the "prefer fewer, longer tokens" bias the learned costs
  exhibit);
- unknown KATAKANA: the whole maximal katakana run (incl. ー U+30FC) is
  ONE edge at cost 300 — kuromoji's unknown-word grouping for katakana;
- unknown KANJI / other CJK char: single-char edge at cost 1000
  (kuromoji emits unknown kanji per character);
- unknown HIRAGANA char: single-char edge at cost 500 (most hiragana is
  covered by the particle/auxiliary dictionary).

Ties break toward the edge relaxed first; edges are relaxed longest
dictionary match first, so equal-cost splits prefer the longer first
token (deterministic, documented).

Scope pinned like `analysis/icu.py`: no inflection lattice (conjugated
forms appear in the dictionary directly or split at class boundaries),
no POS tagging, no search-mode compound splitting.  Hangul runs fall
back to CJK bigrams (Korean morphological analysis — `nori` — stays out
of scope).  Non-CJK word runs behave exactly as the ICU chain
(script-split, lowercased).
"""

from __future__ import annotations

from .icu import _CJK, _segments

# -- character classes within a CJK run -------------------------------------

_HIRA, _KATA, _KANJI, _HANGUL = 0, 1, 2, 3


def _jclass(ch: str) -> int:
    cp = ord(ch)
    if 0x3040 <= cp < 0x30A0:
        return _HIRA
    if 0x30A0 <= cp < 0x3100:  # includes ー U+30FC and katakana middle dot
        return _KATA
    if 0x1100 <= cp < 0x1200 or 0xAC00 <= cp < 0xD7B0:
        return _HANGUL
    return _KANJI


# -- built-in dictionary (common vocabulary; public knowledge) ---------------

_WORDS = [
    # particles / copula / auxiliaries (the hiragana backbone)
    "は", "が", "を", "に", "で", "と", "の", "も", "へ", "や", "か", "ね", "よ",
    "から", "まで", "より", "だ", "です", "ます", "ました", "ません", "でした",
    "ない", "なかった", "して", "した", "しない", "します", "いる", "います",
    "いた", "ある", "あります", "する", "なる", "れる", "られる", "たい", "て",
    "こと", "もの", "これ", "それ", "あれ", "ここ", "そこ", "どこ", "この",
    "その", "どの", "何", "誰", "いつ", "なぜ", "そして", "しかし", "でも",
    # pronouns / common nouns
    "私", "僕", "君", "彼", "彼女", "人", "日本", "日本語", "英語", "言葉",
    "東京", "京都", "大阪", "学校", "学生", "先生", "会社", "仕事", "時間",
    "今日", "明日", "昨日", "今", "年", "月", "日", "週", "天気", "映画",
    "音楽", "写真", "電話", "水", "本", "車", "電車", "駅", "道", "家",
    "犬", "猫", "朝", "夜", "昼", "検索", "勉強", "旅行", "買い物", "料理",
    "世界", "国", "町", "店", "名前", "友達", "家族", "子供", "男", "女",
    # verbs (dictionary + common conjugated forms)
    "行く", "行き", "行った", "来る", "来て", "来た", "見る", "見て", "見た",
    "食べる", "食べて", "食べた", "飲む", "飲んだ", "読む", "読んだ", "書く",
    "書いた", "話す", "話した", "聞く", "聞いた", "使う", "使った", "作る",
    "作った", "思う", "思った", "言う", "言った", "分かる", "知る", "知って",
    "買う", "買った", "売る", "待つ", "会う", "帰る", "働く", "住む", "住んで",
    # adjectives / adverbs
    "新しい", "古い", "大きい", "小さい", "高い", "安い", "いい", "悪い",
    "楽しい", "難しい", "簡単", "きれい", "とても", "少し", "たくさん",
    "もっと", "すぐ", "まだ", "もう", "一緒", "全部",
    # greetings
    "ありがとう", "こんにちは", "さようなら", "おはよう", "すみません",
]

_DICT_COST = {w: 100.0 - len(w) for w in _WORDS}
_BY_FIRST: dict[str, list[tuple[str, float]]] = {}
for _w, _c in sorted(_DICT_COST.items(), key=lambda p: -len(p[0])):
    _BY_FIRST.setdefault(_w[0], []).append((_w, _c))

_UNK_KATA, _UNK_HIRA, _UNK_KANJI = 300.0, 500.0, 1000.0

# JapaneseAnalyzer stop set (stopwords.txt particles/auxiliaries subset)
JA_STOP_WORDS = frozenset(
    ["は", "が", "を", "に", "で", "と", "の", "も", "へ", "や", "か",
     "から", "まで", "より", "だ", "です", "ます", "て", "この", "その"]
)


def _unk_edge(run: str, i: int) -> tuple[int, float]:
    """Unknown-word edge by character class: katakana runs group into one
    edge (incl. ー), everything else is per-char."""
    n = len(run)
    cls = _jclass(run[i])
    if cls == _KATA:
        j = i + 1
        while j < n and _jclass(run[j]) == _KATA:
            j += 1
        return j, _UNK_KATA
    return i + 1, _UNK_HIRA if cls == _HIRA else _UNK_KANJI


def _viterbi(run: str) -> list[tuple[int, int]]:
    """Min-cost lattice walk → [(start, end)] token spans covering `run`
    (the shared kernel in analysis/lattice.py with the ja dictionary)."""
    from .lattice import viterbi_spans

    return viterbi_spans(run, _BY_FIRST, _unk_edge)


def ja_tokenize_offsets(text: str) -> list[tuple[str, int, int, int]]:
    """→ [(term, position, start_offset, end_offset)].  Word runs behave
    as the ICU chain; CJK runs go through the lattice unless they contain
    Hangul (then CJK bigrams, the `nori`-out-of-scope fallback)."""
    out: list[tuple[str, int, int, int]] = []
    pos = 0
    for s, e, kind in _segments(text):
        if kind != _CJK:
            out.append((text[s:e].lower(), pos, s, e))
            pos += 1
            continue
        run = text[s:e]
        if any(_jclass(c) == _HANGUL for c in run):
            if len(run) == 1:
                out.append((run, pos, s, e))
                pos += 1
            else:
                for i in range(len(run) - 1):
                    out.append((run[i : i + 2], pos, s + i, s + i + 2))
                    pos += 1
            continue
        for a, b in _viterbi(run):
            out.append((run[a:b], pos, s + a, s + b))
            pos += 1
    return out


def ja_tokenize(text: str) -> list[tuple[str, int]]:
    """Token = (term, position) — the filter-chain SPI shape."""
    return [(t, p) for t, p, _, _ in ja_tokenize_offsets(text)]


def ja_index_tokenize(text: str) -> list[tuple[str, int]]:
    """JapaneseAnalyzer chain for the INDEX path: lattice tokenize + the
    Japanese stop set + the English stop set for Latin runs, keeping
    position gaps (StopFilter posInc semantics) — used by both
    `build_index(tokenizer="ja")` and query parsing on a ja-built index."""
    from .analyzer import ENGLISH_STOP_WORDS

    return [
        (t, p)
        for t, p in ja_tokenize(text)
        if t not in JA_STOP_WORDS and t not in ENGLISH_STOP_WORDS
    ]


def ja_tokenizer():
    """TOKENIZER_REGISTRY entry ("ja")."""
    return ja_tokenize
