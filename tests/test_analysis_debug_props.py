"""/analysis/field debug handler + hypothesis property tests for the
phonetic encoders and alternative tokenizers (the reference test strategy's
property-test leg, SURVEY §5)."""

import re
import string
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from lucene_solr_ray.analysis.debug import analyze_debug, analyze_standard_debug
from lucene_solr_ray.analysis.extras import lowercase_filter, porter_stem_filter, stop_filter
from lucene_solr_ray.analysis.phonetic import metaphone, nysiis, refined_soundex, soundex
from lucene_solr_ray.analysis.tokenizers import (
    html_strip_char_filter,
    letter_tokenizer,
    path_hierarchy_tokenizer,
    whitespace_tokenizer,
)

words = st.text(alphabet=string.ascii_letters + "'-0123456789", min_size=0, max_size=24)
texts = st.text(alphabet=string.ascii_letters + " .,'-<>&;/0123456789", max_size=120)


@given(words)
def test_soundex_shape_and_case(w):
    c = soundex(w)
    assert c == soundex(w.upper()) == soundex(w.lower())
    if c:
        assert re.fullmatch(r"[A-Z][0-9]{3}", c)
    else:
        assert not any(ch.isalpha() for ch in w)


@given(words)
def test_refined_soundex_shape(w):
    c = refined_soundex(w)
    assert c == refined_soundex(w.swapcase())
    if c:
        assert re.fullmatch(r"[A-Z][0-9]+", c)
        # no adjacent duplicate digits (run folding)
        assert not re.search(r"([0-9])\1", c[1:])


@given(words, st.integers(min_value=1, max_value=8))
def test_metaphone_shape(w, cap):
    c = metaphone(w, max_code_len=cap)
    assert c == metaphone(w.upper(), max_code_len=cap)
    assert len(c) <= max(cap, 1)
    assert all(ch in "0ABCDEFGHIJKLMNOPQRSTUVWXYZ" for ch in c)


@given(words)
def test_nysiis_shape(w):
    c = nysiis(w)
    assert c == nysiis(w.lower())
    assert len(c) <= 6
    assert all("A" <= ch <= "Z" for ch in c)


@given(texts)
def test_whitespace_letter_tokenizers_props(s):
    wt = whitespace_tokenizer()(s)
    assert [t for t, _ in wt] == s.split()
    assert [p for _, p in wt] == list(range(len(wt)))
    lt = letter_tokenizer()(s)
    assert all(t.isalpha() for t, _ in lt)


@given(st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6), max_size=6))
def test_path_hierarchy_props(parts):
    s = "/".join(parts)
    toks = [t for t, _ in path_hierarchy_tokenizer("/")(s)]
    if s:
        assert toks[-1] == s  # longest prefix is the whole path
        assert all(s.startswith(t) for t in toks)
        rev = [t for t, _ in path_hierarchy_tokenizer("/", reverse=True)(s)]
        assert rev[-1] == s and all(s.endswith(t) for t in rev)


def test_analyze_debug_trace():
    trace = analyze_debug(
        "<b>The RUNNING Foxes</b>",
        tokenizer=whitespace_tokenizer(),
        char_filters=[("html_strip", html_strip_char_filter())],
        filters=[
            ("lowercase", lowercase_filter()),
            ("stop", stop_filter(frozenset(["the"]))),
            ("porter", porter_stem_filter()),
        ],
    )
    assert [t["stage"] for t in trace] == ["html_strip", "tokenizer", "lowercase", "stop", "porter"]
    assert trace[0]["output"] == " The RUNNING Foxes "
    assert trace[2]["output"] == [("the", 0), ("running", 1), ("foxes", 2)]
    assert trace[3]["output"] == [("running", 1), ("foxes", 2)]  # gap at 0
    assert trace[4]["output"] == [("run", 1), ("fox", 2)]


def test_analyze_standard_debug():
    tr = analyze_standard_debug("The quick fox")
    assert tr[0]["output"] == [("the", 0), ("quick", 1), ("fox", 2)]
    assert tr[1]["output"] == [("quick", 1), ("fox", 2)]
