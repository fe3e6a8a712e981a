"""smartcn-lite Chinese segmentation (SURVEY §2.2
`lucene/analysis/smartcn` HMMChineseTokenizer / SmartChineseAnalyzer
analog).

The real smartcn runs a hidden-Markov segmenter over a bigram dictionary
with learned emission/transition frequencies.  This "lite" port keeps the
SHAPE — a min-cost lattice walk (`analysis/lattice.py`, the same kernel
kuromoji-lite uses) over a small built-in dictionary of common Mandarin
vocabulary (public knowledge) — with class costs instead of learned ones:

- dictionary edge: cost 100 − len(word) (prefer fewer, longer tokens);
- unknown Han character: single-char edge at cost 1000 (smartcn emits
  unknown hanzi per character, like kuromoji's unknown kanji).

Scope pinned like `analysis/ja.py`: no learned bigram frequencies, no
number/date grouping rules.  Kana or Hangul inside a CJK run falls back
to CJK bigrams (those scripts are out of smartcn's domain too).  Non-CJK
word runs behave exactly as the ICU chain (script-split, lowercased)."""

from __future__ import annotations

from .icu import _CJK, _segments
from .lattice import viterbi_spans

# -- built-in dictionary (common Mandarin vocabulary; public knowledge) ------

_WORDS = [
    # function words / pronouns (single char)
    "的", "了", "是", "在", "有", "我", "你", "他", "她", "它", "这", "那",
    "就", "不", "也", "都", "很", "和", "与", "或", "但", "去", "来", "看",
    "说", "想", "要", "会", "能", "做", "吃", "喝", "大", "小", "好", "人",
    "年", "月", "日", "天", "上", "下", "中", "国",
    # common two-char words
    "中国", "时间", "工作", "学习", "电脑", "音乐", "朋友", "天气", "今天",
    "明天", "昨天", "现在", "北京", "上海", "学校", "学生", "老师", "公司",
    "世界", "问题", "什么", "怎么", "因为", "所以", "可以", "知道", "觉得",
    "喜欢", "吃饭", "睡觉", "说话", "东西", "事情", "地方", "名字", "电话",
    "手机", "网络", "搜索", "数据", "引擎", "程序", "代码", "我们", "你们",
    "他们", "大家", "先生", "小姐", "谢谢", "再见", "很多", "非常", "一起",
    "已经", "还是", "或者", "但是", "如果", "开始", "结束", "使用", "需要",
    "帮助", "文件", "系统", "语言", "文字", "汉语", "中文", "英语", "日本",
    "韩国", "美国",
    # three-char words
    "为什么", "计算机", "互联网", "图书馆", "办公室",
]

_DICT_COST = {w: 100.0 - len(w) for w in _WORDS}
_BY_FIRST: dict[str, list[tuple[str, float]]] = {}
for _w, _c in sorted(_DICT_COST.items(), key=lambda p: -len(p[0])):
    _BY_FIRST.setdefault(_w[0], []).append((_w, _c))

_UNK_HAN = 1000.0

# SmartChineseAnalyzer stop set (stopwords.txt function-word subset)
ZH_STOP_WORDS = frozenset(
    ["的", "了", "是", "在", "和", "与", "或", "但", "就", "也", "都", "很"]
)


def _out_of_domain(ch: str) -> bool:
    """Kana or Hangul — scripts outside smartcn's Chinese domain."""
    cp = ord(ch)
    return 0x3040 <= cp < 0x3100 or 0x1100 <= cp < 0x1200 or 0xAC00 <= cp < 0xD7B0


def _unk_edge(run: str, i: int) -> tuple[int, float]:
    return i + 1, _UNK_HAN


def _viterbi(run: str) -> list[tuple[int, int]]:
    """Min-cost lattice walk with the zh dictionary (shared kernel)."""
    return viterbi_spans(run, _BY_FIRST, _unk_edge)


def zh_tokenize_offsets(text: str) -> list[tuple[str, int, int, int]]:
    """→ [(term, position, start_offset, end_offset)].  Word runs behave
    as the ICU chain; CJK runs go through the lattice unless they contain
    kana/Hangul (then CJK bigrams, the out-of-domain fallback)."""
    out: list[tuple[str, int, int, int]] = []
    pos = 0
    for s, e, kind in _segments(text):
        if kind != _CJK:
            out.append((text[s:e].lower(), pos, s, e))
            pos += 1
            continue
        run = text[s:e]
        if any(_out_of_domain(c) for c in run):
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


def zh_tokenize(text: str) -> list[tuple[str, int]]:
    """Token = (term, position) — the filter-chain SPI shape."""
    return [(t, p) for t, p, _, _ in zh_tokenize_offsets(text)]


def zh_index_tokenize(text: str) -> list[tuple[str, int]]:
    """SmartChineseAnalyzer chain for the INDEX path: lattice tokenize +
    the Chinese stop set + the English stop set for Latin runs, keeping
    position gaps (StopFilter posInc semantics) — used by both
    `build_index(tokenizer="zh")` and query parsing on a zh-built index."""
    from .analyzer import ENGLISH_STOP_WORDS

    return [
        (t, p)
        for t, p in zh_tokenize(text)
        if t not in ZH_STOP_WORDS and t not in ENGLISH_STOP_WORDS
    ]


def zh_tokenizer():
    """TOKENIZER_REGISTRY entry ("zh")."""
    return zh_tokenize
