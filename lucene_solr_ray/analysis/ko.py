"""nori-lite Korean analysis (SURVEY §2.2 `lucene/analysis/nori`
KoreanTokenizer / KoreanAnalyzer analog).

The real nori runs a Viterbi lattice over the mecab-ko-dic dictionary,
tags parts of speech, and the analyzer drops particles/endings via
KoreanPartOfSpeechStopFilter (J* josa, E* endings).  Korean text is
already space-segmented into eojeol (word + attached particles), so the
"lite" port keeps the USER-VISIBLE contract — particles and verb endings
disappear, stems remain — with a longest-match suffix strip instead of a
lattice:

- an all-Hangul run (one eojeol) strips the LONGEST matching suffix from
  the built-in josa/eomi table, provided a non-empty stem remains; the
  suffix is dropped (the POS-stop-filter behavior), the stem is the
  token.  At most one suffix is stripped (stacked particles like 에서는
  appear in the table as units);
- a standalone particle (the whole run IS a suffix) stays intact and is
  removed by the stop set on the index chain;
- runs mixing Hangul with Han (hanja) or kana fall back to CJK bigrams —
  hanja reading is out of scope, documented like analysis/ja.py's Hangul
  fallback;
- non-CJK word runs behave exactly as the ICU chain.

No decompounding and no lemmatization (만났 stays 만났, not 만나다): the
suffix table is a class heuristic, not a morphological dictionary —
deterministic and documented, the same scope-pinning as ja/zh."""

from __future__ import annotations

from .icu import _CJK, _segments

# -- suffix table (josa + common endings; public knowledge) ------------------

_JOSA = [
    "은", "는", "이", "가", "을", "를", "의", "에", "도", "만", "와", "과",
    "나", "야", "랑", "에서", "에게", "께서", "한테", "까지", "부터", "처럼",
    "보다", "마다", "조차", "라도", "으로", "로", "로서", "으로서", "로써",
    "으로써", "에서는", "에게서", "이나", "이라도",
]
_EOMI = [
    "습니다", "ㅂ니다", "입니다", "합니다", "했습니다", "됩니다", "하다",
    "했다", "한다", "하는", "해서", "하고", "되다", "되었다", "었다", "았다",
    "였다", "이다", "예요", "에요", "어요", "아요", "지만", "면서", "에서도",
]
# longest-first so 에서는 wins over 는, 했습니다 over 습니다
_SUFFIXES = sorted(set(_JOSA) | set(_EOMI), key=len, reverse=True)

# KoreanAnalyzer-equivalent stop set: standalone particles/endings plus a
# few function words (POS-stop-filter analog on the index chain)
KO_STOP_WORDS = frozenset(set(_JOSA) | set(_EOMI) | {"그", "저", "것", "수", "등", "및"})


def _is_hangul(ch: str) -> bool:
    cp = ord(ch)
    return 0x1100 <= cp < 0x1200 or 0xAC00 <= cp < 0xD7B0


def strip_suffix(eojeol: str) -> tuple[str, str]:
    """→ (stem, stripped_suffix).  Longest suffix wins; the stem must be
    non-empty (a run that IS a particle stays whole)."""
    for s in _SUFFIXES:
        if len(eojeol) > len(s) and eojeol.endswith(s):
            return eojeol[: -len(s)], s
    return eojeol, ""


def ko_tokenize_offsets(text: str) -> list[tuple[str, int, int, int]]:
    """→ [(term, position, start_offset, end_offset)].  Word runs behave
    as the ICU chain; all-Hangul runs strip one josa/eomi suffix (the
    stem keeps the run's position); mixed-script CJK runs fall back to
    CJK bigrams."""
    out: list[tuple[str, int, int, int]] = []
    pos = 0
    for s, e, kind in _segments(text):
        if kind != _CJK:
            out.append((text[s:e].lower(), pos, s, e))
            pos += 1
            continue
        run = text[s:e]
        if all(_is_hangul(c) for c in run):
            stem, _suf = strip_suffix(run)
            out.append((stem, pos, s, s + len(stem)))
            pos += 1
            continue
        if len(run) == 1:
            out.append((run, pos, s, e))
            pos += 1
        else:
            for i in range(len(run) - 1):
                out.append((run[i : i + 2], pos, s + i, s + i + 2))
                pos += 1
    return out


def ko_tokenize(text: str) -> list[tuple[str, int]]:
    """Token = (term, position) — the filter-chain SPI shape."""
    return [(t, p) for t, p, _, _ in ko_tokenize_offsets(text)]


def ko_index_tokenize(text: str) -> list[tuple[str, int]]:
    """KoreanAnalyzer chain for the INDEX path: suffix-strip tokenize +
    the Korean stop set (standalone particles) + the English stop set for
    Latin runs, keeping position gaps — used by both
    `build_index(tokenizer="ko")` and query parsing on a ko-built index."""
    from .analyzer import ENGLISH_STOP_WORDS

    return [
        (t, p)
        for t, p in ko_tokenize(text)
        if t not in KO_STOP_WORDS and t not in ENGLISH_STOP_WORDS
    ]


def ko_tokenizer():
    """TOKENIZER_REGISTRY entry ("ko")."""
    return ko_tokenize
