from .analyzer import (
    ENGLISH_STOP_WORDS,
    MAX_TOKEN_LENGTH,
    StandardAnalyzer,
    analyze_batch,
    tokenize,
)
from .icu import icu_index_tokenize
from .ja import ja_index_tokenize
from .ko import ko_index_tokenize
from .zh import zh_index_tokenize

# the named analysis chains: per-text `index_tokenize(text) -> [(term,
# pos)]`, None for "standard" (the vectorized Arrow chain)
INDEX_TOKENIZERS = {
    "standard": None,
    "icu": icu_index_tokenize,  # ICU-lite multilingual chain
    "cjk": icu_index_tokenize,  # the registry's alias for icu
    "ja": ja_index_tokenize,  # kuromoji-lite lattice
    "ko": ko_index_tokenize,  # nori-lite suffix strip
    "zh": zh_index_tokenize,  # smartcn-lite lattice
}


def index_tokenizer(name: str):
    """`INDEX_TOKENIZERS[name]`.  The build analyzes documents with it and
    the Searcher parses queries with it (the name persists in the
    manifest), so both sides raise the same ValueError on an unknown
    name."""
    try:
        return INDEX_TOKENIZERS[name]
    except KeyError:
        raise ValueError(f"unknown tokenizer {name!r} ({'|'.join(INDEX_TOKENIZERS)})") from None


__all__ = [
    "ENGLISH_STOP_WORDS",
    "INDEX_TOKENIZERS",
    "MAX_TOKEN_LENGTH",
    "StandardAnalyzer",
    "analyze_batch",
    "index_tokenizer",
    "tokenize",
]
