"""Phonetic encoders, alternative tokenizers/char filters, and the §2.2
long-tail token filters.  Soundex vectors are the archival standard set;
metaphone vectors are the widely documented classic examples; NYSIIS is
checked by algorithm-derived values + spelling-variant equivalence.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from lucene_solr_ray.analysis.extras import (
    capitalization_filter,
    common_grams_filter,
    decimal_digit_filter,
    delimited_payload_filter,
    elision_filter,
    english_minimal_stem_filter,
    english_possessive_filter,
    keep_word_filter,
    limit_token_count_filter,
    pattern_replace_filter,
    porter_stem_filter,
    remove_duplicates_filter,
    stemmer_override_filter,
    truncate_filter,
)
from lucene_solr_ray.analysis.phonetic import (
    metaphone,
    nysiis,
    phonetic_filter,
    refined_soundex,
    soundex,
)
from lucene_solr_ray.analysis.tokenizers import (
    html_strip_char_filter,
    keyword_tokenizer,
    letter_tokenizer,
    mapping_char_filter,
    path_hierarchy_tokenizer,
    pattern_replace_char_filter,
    pattern_tokenizer,
    url_email_tokenizer,
    whitespace_tokenizer,
)


# -- soundex (National Archives standard vectors) ---------------------------


@pytest.mark.parametrize(
    "word,code",
    [
        ("Robert", "R163"),
        ("Rupert", "R163"),
        ("Ashcraft", "A261"),  # h bridges same-code s/c → coded once
        ("Ashcroft", "A261"),
        ("Tymczak", "T522"),  # cz same code adjacent → once
        ("Pfister", "P236"),  # first letter suppresses same-code follower
        ("Honeyman", "H555"),
        ("Jackson", "J250"),
        ("Washington", "W252"),
        ("Lee", "L000"),
        ("Gutierrez", "G362"),
        ("Wheaton", "W350"),  # initial W (code-less) does not eat T
    ],
)
def test_soundex_vectors(word, code):
    assert soundex(word) == code


def test_soundex_edges():
    assert soundex("") == ""
    assert soundex("123") == ""
    assert soundex("a") == "A000"
    assert soundex("o'brien") == soundex("OBrien")


def test_refined_soundex():
    # commons-codec RefinedSoundex vector
    assert refined_soundex("testing") == "T6036084"
    assert refined_soundex("TESTING") == "T6036084"
    assert refined_soundex("") == ""


# -- metaphone (classic published examples) ---------------------------------


@pytest.mark.parametrize(
    "word,code",
    [
        ("metaphone", "MTFN"),
        ("knight", "NT"),  # initial KN, silent GH, silent H after G
        ("school", "SKL"),  # SCH → K
        ("phone", "FN"),
        ("thought", "0T"),  # TH → theta, GH silent
        ("judge", "JJ"),  # DGE → J
        ("church", "XRX"),  # CH + vowel → X
        ("christopher", "KRSTFR"[:4]),  # CH + consonant → K (cap 4)
        ("xavier", "SFR"),  # initial X → S
        ("lamb", "LM"),  # final MB → silent B
        ("science", "SNS"),  # SCI → silent C
        ("quick", "KK"),
        ("wright", "RT"),  # initial WR drops W
    ],
)
def test_metaphone_vectors(word, code):
    assert metaphone(word) == code


def test_metaphone_len_cap():
    assert metaphone("christopher", max_code_len=6) == "KRSTFR"
    assert len(metaphone("antidisestablishmentarianism")) <= 4


# -- nysiis -----------------------------------------------------------------


def test_nysiis_variants_collide():
    assert nysiis("Smith") == "SNAT"  # strict NYSIIS: Y is not a vowel
    assert nysiis("PHILLIPS") == nysiis("FILLIPS")
    assert nysiis("Knight") == nysiis("Night")


def test_nysiis_shape():
    assert nysiis("") == ""
    code = nysiis("Brianwashington", strict=True)
    assert len(code) <= 6
    assert nysiis("MacDonald").startswith("MC")  # MAC → MCC prefix rule


# -- phonetic filter wrapper ------------------------------------------------


def test_phonetic_filter_inject():
    f = phonetic_filter("soundex", inject=True)
    out = f([("robert", 0), ("rupert", 2)])
    assert out == [("robert", 0), ("R163", 0), ("rupert", 2), ("R163", 2)]
    g = phonetic_filter("metaphone", inject=False)
    assert g([("school", 5)]) == [("SKL", 5)]


# -- tokenizers / char filters ----------------------------------------------


def test_whitespace_letter_keyword():
    assert whitespace_tokenizer()("a b  c") == [("a", 0), ("b", 1), ("c", 2)]
    assert letter_tokenizer()("wi-fi 2ghz") == [("wi", 0), ("fi", 1), ("ghz", 2)]
    assert keyword_tokenizer()("one whole value") == [("one whole value", 0)]
    assert keyword_tokenizer()("") == []


def test_pattern_tokenizer():
    assert pattern_tokenizer(r",\s*")("a, b,c") == [("a", 0), ("b", 1), ("c", 2)]
    assert pattern_tokenizer(r"'([^']+)'", group=1)("x 'a b' y 'c'") == [("a b", 0), ("c", 1)]


def test_path_hierarchy_tokenizer():
    t = path_hierarchy_tokenizer("/")
    assert t("a/b/c") == [("a", 0), ("a/b", 0), ("a/b/c", 0)]
    r = path_hierarchy_tokenizer("/", reverse=True)
    assert r("a/b/c") == [("c", 0), ("b/c", 0), ("a/b/c", 0)]
    s = path_hierarchy_tokenizer("/", skip=1)
    assert s("a/b/c") == [("b", 0), ("b/c", 0)]


def test_url_email_tokenizer():
    toks = [t for t, _ in url_email_tokenizer()("mail bob@example.com or https://x.io/p?q=1 now")]
    assert "bob@example.com" in toks and "https://x.io/p?q=1" in toks and "mail" in toks


def test_char_filters():
    assert html_strip_char_filter()("<b>bold</b> &amp; more") == " bold  & more"
    assert mapping_char_filter({"ph": "f", "qu": "kw"})("phquick") == "fkwick"
    assert pattern_replace_char_filter(r"\d+", "#")("a12b3") == "a#b#"


# -- long-tail token filters ------------------------------------------------


def test_common_grams():
    f = common_grams_filter(frozenset(["the"]))
    out = f([("of", 0), ("the", 1), ("people", 2)])
    assert out == [("of", 0), ("of_the", 0), ("the", 1), ("the_people", 1), ("people", 2)]


def test_pattern_replace_and_dedup():
    assert pattern_replace_filter(r"\d", "")([("ab12", 0), ("34", 1)]) == [("ab", 0)]
    assert remove_duplicates_filter()([("a", 0), ("a", 0), ("a", 1)]) == [("a", 0), ("a", 1)]


def test_simple_transform_filters():
    assert capitalization_filter()([("mcDONald", 0)]) == [("Mcdonald", 0)]
    assert limit_token_count_filter(2)([("a", 0), ("b", 1), ("c", 2)]) == [("a", 0), ("b", 1)]
    assert truncate_filter(3)([("abcdef", 0)]) == [("abc", 0)]
    assert decimal_digit_filter()([("weight٤٢kg", 0)]) == [("weight42kg", 0)]
    assert keep_word_filter(frozenset(["b"]))([("a", 0), ("b", 1)]) == [("b", 1)]
    assert delimited_payload_filter()([("term|2.5", 0), ("plain", 1)]) == [("term", 0), ("plain", 1)]


def test_elision_and_english():
    assert elision_filter()([("l'avion", 0), ("d'une", 1), ("x'y", 2)]) == [
        ("avion", 0),
        ("une", 1),
        ("x'y", 2),
    ]
    assert english_possessive_filter()([("john's", 0), ("its", 1)]) == [("john", 0), ("its", 1)]
    stem = english_minimal_stem_filter()
    assert stem([("dogs", 0)]) == [("dog", 0)]
    assert stem([("cities", 0)]) == [("city", 0)]
    assert stem([("glass", 0)]) == [("glass", 0)]  # -ss kept
    assert stem([("corpus", 0)]) == [("corpus", 0)]  # -us kept
    assert stem([("goes", 0)]) == [("goes", 0)]  # -oes kept


def test_stemmer_override():
    f = stemmer_override_filter({"running": "sprint"}, porter_stem_filter())
    assert f([("running", 0), ("jumping", 1)]) == [("sprint", 0), ("jump", 1)]
