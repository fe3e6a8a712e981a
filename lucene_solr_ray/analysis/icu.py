"""ICU-lite multilingual word-break + CJK bigramming (SURVEY §2.2
`lucene/analysis/icu` ICUTokenizer and `cjk/CJKAnalyzer` analogs).

Scope, pinned and documented (the r3 verdict's "ICU-lite pass"):

- word runs are Unicode letter/digit sequences (`unicodedata` categories
  L*/N*, plus combining marks M* which attach to the preceding letter) —
  not the ASCII-only [a-z0-9_] of the core analyzer;
- a run SPLITS at script boundaries (Latin|Greek|Cyrillic|…), the
  ICUTokenizer behavior; digits and combining marks inherit the script of
  the preceding character;
- CJK characters (Han, Hiragana, Katakana, Hangul) emit overlapping
  BIGRAMS, one position each — CJKBigramFilter semantics, including mixed
  sub-script bigrams (the filter does not split Han|Katakana); a lone CJK
  character emits its unigram;
- Thai/Lao/Khmer (dictionary-break scripts in real ICU) emit whole runs —
  an approximation, stated here;
- non-CJK terms are lowercased (ICUNormalizer2 nfkc_cf approximated by
  str.lower()).

The tokenizer is exposed three ways: `icu_tokenize` (Token = (term, pos)
for the filter-chain SPI), `icu_tokenize_offsets` ((term, pos, start,
end) for the offsets/posInc property tests), and vectorized per-batch use
in `pipelines/multilingual.py`.  Character classification is a vectorized
`np.searchsorted` over a sorted codepoint-range table covering the common
blocks; anything outside the table is classified once via
`unicodedata.category` and cached.
"""

from __future__ import annotations

import unicodedata

import numpy as np

# class kinds
_BREAK, _WORD, _CJK, _MARK, _DIGIT = 0, 1, 2, 3, 4

# (start, end_exclusive, kind, script_id) — script_id only matters for
# _WORD (break-on-script-change); CJK is ONE class (no sub-script split).
_RANGES = [
    (0x0030, 0x003A, _DIGIT, 0),
    (0x0041, 0x005B, _WORD, 1),  # Latin
    (0x0061, 0x007B, _WORD, 1),
    (0x00C0, 0x0250, _WORD, 1),  # Latin-1 suppl + extended
    (0x0300, 0x0370, _MARK, 0),  # combining diacritics
    (0x0370, 0x0400, _WORD, 2),  # Greek
    (0x0400, 0x0530, _WORD, 3),  # Cyrillic
    (0x0530, 0x0590, _WORD, 4),  # Armenian
    (0x0590, 0x0600, _WORD, 5),  # Hebrew
    (0x0600, 0x0700, _WORD, 6),  # Arabic
    (0x0900, 0x0980, _WORD, 7),  # Devanagari
    (0x0980, 0x0A00, _WORD, 8),  # Bengali
    (0x0E00, 0x0E80, _WORD, 9),  # Thai (whole-run approximation)
    (0x0E80, 0x0F00, _WORD, 10),  # Lao
    (0x10A0, 0x1100, _WORD, 11),  # Georgian
    (0x1100, 0x1200, _CJK, 0),  # Hangul Jamo
    (0x1E00, 0x1F00, _WORD, 1),  # Latin extended additional
    (0x1F00, 0x2000, _WORD, 2),  # Greek extended
    (0x3040, 0x30A0, _CJK, 0),  # Hiragana
    (0x30A0, 0x3100, _CJK, 0),  # Katakana
    (0x3400, 0x4DC0, _CJK, 0),  # Han ext A
    (0x4E00, 0xA000, _CJK, 0),  # Han
    (0xAC00, 0xD7B0, _CJK, 0),  # Hangul syllables
    (0xF900, 0xFB00, _CJK, 0),  # Han compatibility
]
_STARTS = np.array([r[0] for r in _RANGES], dtype=np.uint32)
_ENDS = np.array([r[1] for r in _RANGES], dtype=np.uint32)
_KINDS = np.array([r[2] for r in _RANGES], dtype=np.int8)
_SCRIPTS = np.array([r[3] for r in _RANGES], dtype=np.int32)

_fallback_cache: dict[int, tuple[int, int]] = {}


def _fallback(cp: int) -> tuple[int, int]:
    """(kind, script) for a codepoint outside the range table, via
    unicodedata; script approximated by the 128-codepoint block (so two
    adjacent letters from DIFFERENT unlisted scripts still split)."""
    hit = _fallback_cache.get(cp)
    if hit is None:
        cat = unicodedata.category(chr(cp))
        if cat.startswith("L"):
            hit = (_WORD, 100 + (cp >> 7))
        elif cat.startswith("N"):
            hit = (_DIGIT, 0)
        elif cat.startswith("M"):
            hit = (_MARK, 0)
        else:
            hit = (_BREAK, 0)
        _fallback_cache[cp] = hit
    return hit


def _classify(cp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """codepoints → (kind, script) arrays, vectorized over the range table."""
    idx = np.searchsorted(_STARTS, cp, side="right") - 1
    idx_c = np.clip(idx, 0, len(_RANGES) - 1)
    in_range = (idx >= 0) & (cp < _ENDS[idx_c])
    kind = np.where(in_range, _KINDS[idx_c], _BREAK).astype(np.int8)
    script = np.where(in_range, _SCRIPTS[idx_c], 0).astype(np.int32)
    out = np.flatnonzero(~in_range & (cp > 0x7F))  # ASCII misses are breaks
    for i in out:
        k, s = _fallback(int(cp[i]))
        kind[i] = k
        script[i] = s
    return kind, script


def _segments(text: str) -> list[tuple[int, int, int]]:
    """→ [(start, end, kind)] maximal segments, kind ∈ {_WORD, _CJK}.

    Digits/marks merge into an adjacent word run (or stand alone as a
    word run of script 0); word runs split at script changes."""
    if not text:
        return []
    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    kind, script = _classify(cp)
    n = len(cp)
    # effective script: digits + marks inherit the previous char's script
    inherit = (kind == _DIGIT) | (kind == _MARK)
    idx = np.arange(n)
    src = np.where(inherit, -1, idx)
    np.maximum.accumulate(src, out=src)
    eff_script = np.where(src >= 0, script[np.clip(src, 0, None)], script)
    # word-ness: digits/marks count as word chars (marks only after a word
    # char — a leading mark is a break)
    is_word = (kind == _WORD) | (kind == _DIGIT)
    is_mark = kind == _MARK
    prev_wordish = np.zeros(n, dtype=bool)
    prev_wordish[1:] = is_word[:-1] | is_mark[:-1]
    is_word = is_word | (is_mark & prev_wordish)
    is_cjk = kind == _CJK
    # boundaries: class transitions, or script change within a word run
    cls = np.where(is_cjk, 2, np.where(is_word, 1, 0)).astype(np.int8)
    boundary = np.ones(n, dtype=bool)
    # script split only between two real letter scripts (eff 0 = a leading
    # digit run, which BRIDGES into the following letters — "123abc" is one
    # token, matching "abc123")
    boundary[1:] = (cls[1:] != cls[:-1]) | (
        (cls[1:] == 1)
        & (cls[:-1] == 1)
        & (eff_script[1:] != eff_script[:-1])
        & (eff_script[1:] != 0)
        & (eff_script[:-1] != 0)
    )
    starts = np.flatnonzero(boundary & (cls > 0))
    if not starts.size:
        return []
    all_bounds = np.flatnonzero(boundary)
    ends = np.empty(len(all_bounds), dtype=np.int64)
    ends[:-1] = all_bounds[1:]
    ends[-1] = n
    end_of = dict(zip(all_bounds.tolist(), ends.tolist()))
    return [(int(s), end_of[int(s)], _CJK if cls[s] == 2 else _WORD) for s in starts]


def icu_tokenize_offsets(text: str) -> list[tuple[str, int, int, int]]:
    """→ [(term, position, start_offset, end_offset)]."""
    out: list[tuple[str, int, int, int]] = []
    pos = 0
    for s, e, kind in _segments(text):
        if kind == _WORD:
            out.append((text[s:e].lower(), pos, s, e))
            pos += 1
        else:  # CJK run → overlapping bigrams (unigram iff run length 1)
            if e - s == 1:
                out.append((text[s:e], pos, s, e))
                pos += 1
            else:
                for i in range(s, e - 1):
                    out.append((text[i : i + 2], pos, i, i + 2))
                    pos += 1
    return out


def icu_tokenize(text: str) -> list[tuple[str, int]]:
    """Token = (term, position) — the filter-chain SPI shape."""
    return [(t, p) for t, p, _, _ in icu_tokenize_offsets(text)]


def icu_terms(text: str) -> list[str]:
    """Just the term stream (pipelines)."""
    return [t for t, _, _, _ in icu_tokenize_offsets(text)]


def icu_token_count(text: str) -> int:
    """Token count WITHOUT materializing the token list: one word run = 1,
    one CJK run of n chars = max(1, n-1) bigrams — the hot-path form the
    counting gates use (same arithmetic the SQL twin expresses)."""
    n = 0
    for s, e, kind in _segments(text):
        n += 1 if kind == _WORD else max(1, e - s - 1)
    return n


def icu_index_tokenize(text: str) -> list[tuple[str, int]]:
    """The CJKAnalyzer-chain INDEX analysis: ICU-lite tokenize + the same
    English stop filter the standard chain applies, with position gaps
    (StopFilter posInc semantics).  Used by BOTH the index build
    (`build_index(tokenizer="icu")`) and query parsing on an icu-built
    index — the analyzer must match on both sides."""
    from .analyzer import ENGLISH_STOP_WORDS

    return [(t, p) for t, p in icu_tokenize(text) if t not in ENGLISH_STOP_WORDS]


def tokenized_analyze_batch(texts, index_tokenize) -> dict:
    """Batch analysis in the `analyze_batch` output shape (row/term/pos/dl)
    — the configurable-analysis slow path (per-row loop; the default
    standard chain stays fully vectorized).  Accepts a pyarrow Array.
    `index_tokenize(text) -> [(term, pos)]` supplies the chain — shared by
    every `analysis.index_tokenizer` chain so the accumulation contract
    can't diverge."""
    import pyarrow as pa

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    rows: list[int] = []
    terms: list[str] = []
    poss: list[int] = []
    dl = np.zeros(len(texts), dtype=np.int64)
    for r, v in enumerate(texts):
        toks = index_tokenize(v.as_py() or "")
        dl[r] = len(toks)
        for t, p in toks:
            rows.append(r)
            terms.append(t)
            poss.append(p)
    return {
        "row": np.asarray(rows, dtype=np.int64),
        "term": np.asarray(terms, dtype=object),
        "pos": np.asarray(poss, dtype=np.int64),
        "dl": dl,
    }


def icu_tokenizer():
    """TOKENIZER_REGISTRY entry ("icu")."""
    return icu_tokenize


def cjk_tokenizer():
    """TOKENIZER_REGISTRY entry ("cjk") — same engine; the CJKAnalyzer is
    the ICU path with bigramming, which this tokenizer always applies."""
    return icu_tokenize
