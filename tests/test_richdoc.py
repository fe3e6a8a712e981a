"""Rich-doc extraction (the Tika position): writer↔extractor round-trips
per format, hostile-input behavior, and the gated pipeline vs DuckDB."""

import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_solr_ray.pipelines.richdoc import (
    RICH_DOC_SQL,
    detect_doc_format,
    encode_docx,
    encode_html,
    encode_pdf,
    encode_rtf,
    extract_docx,
    extract_html,
    extract_metadata,
    extract_pdf,
    extract_rtf,
    extract_text,
    rich_doc_extract,
)

SF = "/root/testdata/sf0.001"


# ----------------------------------------------------------------- PDF

def test_pdf_roundtrip_multiline_and_pages():
    pages = ["first line\nsecond (with parens)\nthird \\ backslash", "page two"]
    for compress in (True, False):
        b = encode_pdf(pages, compress=compress)
        assert b.startswith(b"%PDF-1.4")
        assert extract_pdf(b) == "first line\nsecond (with parens)\nthird \\ backslash\npage two"


def test_pdf_escapes_and_controls():
    t = 'quotes "x" \t tab and high byte: caf\xe9'
    assert extract_pdf(encode_pdf([t])) == t


def test_pdf_writer_is_latin1_only():
    with pytest.raises(ValueError):
        encode_pdf(["中文"])


def test_pdf_xref_offsets_are_exact():
    b = encode_pdf(["hello"])
    # every xref entry must point at "N 0 obj"
    xref_at = int(b.rsplit(b"startxref\n", 1)[1].split(b"\n")[0])
    lines = b[xref_at:].split(b"\n")
    n = int(lines[1].split()[1])
    for oid in range(1, n):
        off = int(lines[2 + oid].split()[0])
        assert b[off:].startswith(b"%d 0 obj" % oid)


def test_pdf_rejects_garbage():
    with pytest.raises(ValueError):
        extract_pdf(b"not a pdf")
    # truncated string literal
    bad = b"%PDF-1.4\n<< /Length 20 >>\nstream\nBT (unterminated Tj\nendstream"
    with pytest.raises(ValueError):
        extract_pdf(bad)


def test_pdf_indirect_length_falls_back_to_endstream():
    # "/Length 12 0 R" is an object reference, not a 1-byte direct length
    b = b"%PDF-1.4\n1 0 obj\n<< /Length 12 0 R >>\nstream\nBT (hello world) Tj ET\nendstream\nendobj\n%%EOF"
    assert extract_pdf(b) == "hello world"


@settings(max_examples=25, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=255, blacklist_characters="\r\x0b\x0c\x85"), max_size=120))
def test_pdf_roundtrip_fuzz(t):
    assert extract_pdf(encode_pdf([t])) == t


# ----------------------------------------------------------------- DOCX

def test_docx_roundtrip_paragraphs_tabs():
    paras = ["alpha", "tab\there", "x & <y> entities", ""]
    assert extract_docx(encode_docx(paras)) == "alpha\ntab\there\nx & <y> entities\n"


@settings(max_examples=25, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x2FFF, blacklist_characters="\u2028\u2029"), max_size=120))
def test_docx_roundtrip_fuzz(t):
    assert extract_docx(encode_docx([t + "\tt"])) == t + "\tt"


def test_docx_writer_rejects_xml_invalid_controls():
    with pytest.raises(ValueError):
        encode_docx(["bad \x1f char"])


# ----------------------------------------------------------------- RTF

def test_rtf_roundtrip_escapes_unicode():
    t = "braces {x} backslash \\ caf\xe9 中文 tab\tnl\nend"
    assert extract_rtf(encode_rtf(t)) == t


def test_rtf_skips_destination_groups():
    b = b"{\\rtf1\\ansi{\\fonttbl{\\f0 Helvetica;}}{\\*\\generator Acme 1.0;}\\f0 body text}"
    assert extract_rtf(b) == "body text"


@settings(max_examples=25, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=0x2FFF, blacklist_characters="\r\x0b\x0c\x85  "), max_size=120))
def test_rtf_roundtrip_fuzz(t):
    assert extract_rtf(encode_rtf(t)) == t


# ----------------------------------------------------------------- HTML

def test_html_drops_script_style_head():
    b = (b"<html><head><title>T</title><style>p{}</style></head>"
         b"<body><script>var x=1;</script><p>keep this</p><p>and this</p></body></html>")
    assert extract_html(b) == "keep this\nand this"


def test_html_unterminated_head_and_title():
    # no </head> (and no </title>): body-level tags close them implicitly
    b = (b'<html><head><title>T</title><meta name="author" content="A">'
         b"<body><p>keep this</p><p>and this</p></body></html>")
    assert extract_html(b) == "keep this\nand this"
    assert extract_metadata(b) == {"title": "T", "author": "A"}
    b = b"<html><head><title>T<body><p>keep</p></body></html>"
    assert extract_html(b) == "keep"
    assert extract_metadata(b)["title"] == "T"


def test_html_entities_decoded():
    assert extract_html(b"<html><body><p>a &amp; b &lt;c&gt;</p></body></html>") == "a & b <c>"


# ----------------------------------------------------------------- dispatch

def test_detect_and_extract_text_dispatch():
    cases = {
        "pdf": encode_pdf(["x y"]),
        "docx": encode_docx(["x y"]),
        "rtf": encode_rtf("x y"),
        "html": encode_html("x y"),
    }
    for fmt, payload in cases.items():
        assert detect_doc_format(payload) == fmt
        assert extract_text(payload) == "x y"
    assert extract_text(b"plain utf-8 text") == "plain utf-8 text"


# ----------------------------------------------------------------- pipeline

def test_rich_doc_extract_matches_duckdb(ray_session):
    got = rich_doc_extract(SF)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.execute(RICH_DOC_SQL).df()
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=True
    )


# ----------------------------------------------------------------- XLSX/PPTX

def test_xlsx_roundtrip_rows_cells():
    from lucene_solr_ray.pipelines.richdoc import encode_xlsx, extract_xlsx

    rows = [["a1", "b1 & <x>"], ["a2"], [""]]
    assert extract_xlsx(encode_xlsx(rows)) == "a1\tb1 & <x>\na2\n"


def test_xlsx_shared_strings_and_numbers():
    from lucene_solr_ray.pipelines.richdoc import extract_xlsx
    import io, zipfile

    # hand-built sheet using the sharedStrings + numeric cell paths
    S = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
    ss = (f'<sst xmlns="{S}"><si><t>hello</t></si><si><t>world</t></si></sst>')
    sheet = (
        f'<worksheet xmlns="{S}"><sheetData>'
        '<row r="1"><c r="A1" t="s"><v>0</v></c><c r="B1" t="s"><v>1</v></c>'
        '<c r="C1"><v>42</v></c></row></sheetData></worksheet>'
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("xl/workbook.xml", f'<workbook xmlns="{S}"/>')
        z.writestr("xl/sharedStrings.xml", ss)
        z.writestr("xl/worksheets/sheet1.xml", sheet)
    assert extract_xlsx(buf.getvalue()) == "hello\tworld\t42"


def test_pptx_roundtrip_slides_in_order():
    from lucene_solr_ray.pipelines.richdoc import encode_pptx, extract_pptx

    slides = [f"slide {i}\nsecond line {i}" for i in range(12)]
    assert extract_pptx(encode_pptx(slides)) == "\n".join(slides)


def test_detect_ooxml_members_not_magic():
    from lucene_solr_ray.pipelines.richdoc import encode_pptx, encode_xlsx

    assert detect_doc_format(encode_xlsx([["x"]])) == "xlsx"
    assert detect_doc_format(encode_pptx(["x"])) == "pptx"
    assert extract_text(encode_xlsx([["x y"]])) == "x y"
    assert extract_text(encode_pptx(["x y"])) == "x y"
    # a zip that is none of the three OOXML kinds is rejected loudly
    import io, zipfile
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("random.txt", "hi")
    with pytest.raises(ValueError):
        extract_text(buf.getvalue())


# ------------------------------------------------------- hostile payloads

@settings(max_examples=60, deadline=None)
@given(
    prefix=st.sampled_from([b"%PDF-1.4\n", b"PK\x03\x04", b"{\\rtf1", b"<html>", b""]),
    junk=st.binary(max_size=300),
)
def test_extract_text_error_contract(prefix, junk):
    # wild-corpus contract: returns str or raises ValueError — never a
    # stray zipfile/XML/zlib/index error out of an actor-pool stage
    try:
        out = extract_text(prefix + junk)
        assert isinstance(out, str)
    except ValueError:
        pass


# ------------------------------------------------------------- metadata

def test_metadata_roundtrip_all_formats():
    from lucene_solr_ray.pipelines.richdoc import (
        encode_pptx, encode_xlsx, extract_metadata,
    )

    t, a = "My Title (v2) \\ special", "Ann O'Nymous caf\xe9"
    for b in [
        encode_pdf(["body"], title=t, author=a),
        encode_docx(["body"], title=t, author=a),
        encode_xlsx([["body"]], title=t, author=a),
        encode_pptx(["body"], title=t, author=a),
        encode_rtf("body", title=t, author=a),
        encode_html("body", title=t, author=a),
    ]:
        assert extract_metadata(b) == {"title": t, "author": a}
        assert extract_text(b) == "body"  # info/core parts must not leak


def test_metadata_absent_is_none():
    from lucene_solr_ray.pipelines.richdoc import extract_metadata

    assert extract_metadata(encode_pdf(["x"])) == {"title": None, "author": None}
    assert extract_metadata(encode_docx(["x"])) == {"title": None, "author": None}
    assert extract_metadata(encode_rtf("x")) == {"title": None, "author": None}


def test_rtf_unicode_metadata():
    from lucene_solr_ray.pipelines.richdoc import extract_metadata

    md = extract_metadata(encode_rtf("x", title="中文 T", author="\xfc"))
    assert md == {"title": "中文 T", "author": "\xfc"}


def test_rich_doc_metadata_matches_duckdb(ray_session):
    from lucene_solr_ray.pipelines.richdoc import RICH_DOC_META_SQL, rich_doc_metadata

    got = rich_doc_metadata(SF)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.execute(RICH_DOC_META_SQL).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=True
    )


def test_rich_docs_feed_the_index_path(ray_session, tmp_path):
    """Composability: binary rich-doc payloads → extract_text → the real
    inverted-index build → BM25 search must equal an index built straight
    from the source text (extraction is exact, so the indexes are
    identical)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.fixtures import write_transcripts
    from lucene_solr_ray.index import build_index
    from lucene_solr_ray.search import Searcher
    from lucene_solr_ray.pipelines.richdoc import (
        encode_pptx, encode_xlsx, extract_text as _extract,
    )

    src_dir = tmp_path / "src"
    paths = write_transcripts(str(src_dir), 120, 4)
    enc = [
        lambda t: encode_pdf([t]),
        lambda t: encode_docx([t]),
        lambda t: encode_rtf(t),
        lambda t: encode_xlsx([[t]]),
    ]
    rich_dir = tmp_path / "rich"
    rich_dir.mkdir()
    rich_paths = []
    for p in paths:
        t = pq.read_table(p)
        texts = t.column("text").to_pylist()
        payloads = [enc[i % 4](x) for i, x in enumerate(texts)]
        extracted = [_extract(b) for b in payloads]
        assert extracted == texts
        t = t.set_column(t.schema.get_field_index("text"), "text", pa.array(extracted))
        out = rich_dir / p.split("/")[-1]
        pq.write_table(t, out)
        rich_paths.append(str(out))

    idx_a = tmp_path / "idx_a"
    idx_b = tmp_path / "idx_b"
    build_index(paths, idx_a, files_per_shard=2)
    build_index(rich_paths, idx_b, files_per_shard=2)
    sa, sb = Searcher(str(idx_a)), Searcher(str(idx_b))
    try:
        for q in ["assistant", '"tool output"', "spark query +batch"]:
            assert sa.search(q, 10) == sb.search(q, 10)
    finally:
        sa.close()
        sb.close()


# ----------------------------------------------------- review-pass regressions

def test_valueless_meta_attribute_does_not_crash():
    assert extract_text(b"<html><head><meta name></head><body><p>x</p></body></html>") == "x"


def test_negative_ucN_terminates():
    from lucene_solr_ray.pipelines.richdoc import extract_metadata

    # negative \ucN used to walk the scanner backwards forever
    md = extract_metadata(b"{\\rtf1{\\info{\\title A\\uc-40 \\u65 B}}body}")
    assert md["title"] == "AAB"
    assert extract_text(b"{\\rtf1 pre\\uc-40 \\u65 Bpost}") == "preABpost"


def test_xlsx_sheets_sort_numerically():
    import io, zipfile
    from lucene_solr_ray.pipelines.richdoc import extract_xlsx

    S = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("xl/workbook.xml", f'<workbook xmlns="{S}"/>')
        for i in (1, 2, 10):
            z.writestr(
                f"xl/worksheets/sheet{i}.xml",
                f'<worksheet xmlns="{S}"><sheetData><row r="1">'
                f'<c r="A1" t="inlineStr"><is><t>s{i}</t></is></c></row></sheetData></worksheet>',
            )
    assert extract_xlsx(buf.getvalue()) == "s1\ns2\ns10"


def test_pdf_utf16be_info_strings():
    from lucene_solr_ray.pipelines.richdoc import extract_metadata

    pdf = encode_pdf(["body"], title="ignored")
    raw = pdf.replace(b"/Title (ignored) ", b"/Title <FEFF004D0079> ")
    assert extract_metadata(raw)["title"] == "My"


def test_info_grep_scoped_to_trailer():
    from lucene_solr_ray.pipelines.richdoc import extract_metadata

    pdf = encode_pdf(["see /Info 99 0 R inside text"], compress=False)
    assert extract_metadata(pdf) == {"title": None, "author": None}


def test_metadata_error_contract_matches_extract_text():
    from lucene_solr_ray.pipelines.richdoc import extract_metadata

    for bad in [b"PK\x03\x04garbage", b"\xff\xfe\xfd not utf8 \xc3"]:
        with pytest.raises(ValueError):
            extract_metadata(bad)


def test_empty_string_metadata_is_not_none():
    from lucene_solr_ray.pipelines.richdoc import extract_metadata

    for b in [
        encode_docx(["x"], title="", author=""),
        encode_rtf("x", title="", author=""),
        encode_pdf(["x"], title="", author=""),
        encode_html("x", title="", author=""),
    ]:
        assert extract_metadata(b) == {"title": "", "author": ""}


def test_html_absent_title_is_none():
    from lucene_solr_ray.pipelines.richdoc import extract_metadata

    assert extract_metadata(encode_html("x")) == {"title": None, "author": None}
    assert extract_text(encode_html("x")) == "x"


# ----------------------------------------------------------------- EPUB

def test_epub_roundtrip_chapters_and_metadata():
    from lucene_solr_ray.pipelines.richdoc import (
        encode_epub, extract_epub, extract_metadata,
    )
    import io, zipfile

    b = encode_epub(["ch one\nline two", "ch two"], title="Book", author="A. Writer")
    assert detect_doc_format(b) == "epub"
    assert extract_text(b) == "ch one\nline two\nch two"
    assert extract_metadata(b) == {"title": "Book", "author": "A. Writer"}
    assert extract_metadata(encode_epub(["x"])) == {"title": None, "author": None}
    # OCF: mimetype first, stored uncompressed
    z = zipfile.ZipFile(io.BytesIO(b))
    assert z.infolist()[0].filename == "mimetype"
    assert z.infolist()[0].compress_type == zipfile.ZIP_STORED

# ----------------------------------------------------- OpenDocument (ODF)

def test_odt_roundtrip_whitespace_elements():
    from lucene_solr_ray.pipelines.richdoc import encode_odt, extract_odt
    import io, zipfile

    t = "one\ttab  double   triple\nnext line"
    b = encode_odt([t, "second para"])
    assert detect_doc_format(b) == "odt"
    assert extract_odt(b) == t + "\nsecond para"
    assert extract_text(b) == t + "\nsecond para"
    # spec whitespace: runs >=2 must be element-encoded, not literal
    with zipfile.ZipFile(io.BytesIO(b)) as z:
        content = z.read("content.xml").decode()
    assert "<text:s text:c=" in content and "<text:tab/>" in content
    assert z.infolist()[0].filename == "mimetype"
    assert z.infolist()[0].compress_type == zipfile.ZIP_STORED


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=120))
def test_odt_roundtrip_fuzz(t):
    from lucene_solr_ray.pipelines.richdoc import encode_odt, extract_odt

    assert extract_odt(encode_odt([t])) == t


def test_ods_roundtrip_rows_cells():
    from lucene_solr_ray.pipelines.richdoc import encode_ods, extract_ods

    b = encode_ods([["a", "b  c"], ["d"]])
    assert detect_doc_format(b) == "ods"
    assert extract_ods(b) == "a\tb  c\nd"
    assert extract_text(b) == "a\tb  c\nd"


def test_ods_repeated_filler_cells_stripped_but_data_kept():
    from lucene_solr_ray.pipelines.richdoc import extract_ods, _odf_package

    # an office-suite-shaped row: data, then 1013 repeated empty filler cells
    body = (
        '<office:spreadsheet><table:table table:name="S">'
        "<table:table-row>"
        '<table:table-cell office:value-type="string"><text:p>x</text:p></table:table-cell>'
        '<table:table-cell table:number-columns-repeated="1013"/>'
        "</table:table-row>"
        '<table:table-row>'
        '<table:table-cell office:value-type="string"><text:p>a</text:p></table:table-cell>'
        '<table:table-cell table:number-columns-repeated="3">'
        "<text:p>r</text:p></table:table-cell>"
        "</table:table-row>"
        "</table:table></office:spreadsheet>"
    )
    b = _odf_package("ods", body, None, None)
    assert extract_ods(b) == "x\na\tr\tr\tr"


def test_odp_roundtrip_slides():
    from lucene_solr_ray.pipelines.richdoc import encode_odp, extract_odp

    b = encode_odp(["slide one\nbullet", "slide two"])
    assert detect_doc_format(b) == "odp"
    assert extract_odp(b) == "slide one\nbullet\nslide two"
    with pytest.raises(ValueError):
        encode_odp([])


def test_odf_metadata_contract():
    from lucene_solr_ray.pipelines.richdoc import (
        encode_odt, encode_ods, encode_odp, extract_metadata,
    )

    b = encode_odt(["x"], title="T", author="A")
    assert extract_metadata(b) == {"title": "T", "author": "A"}
    # element present but empty -> '', meta.xml absent -> None
    assert extract_metadata(encode_ods([["x"]], title="", author="")) == {
        "title": "", "author": "",
    }
    assert extract_metadata(encode_odp(["x"])) == {"title": None, "author": None}


def test_odf_hostile_space_count_and_errors():
    from lucene_solr_ray.pipelines.richdoc import extract_odt, _odf_package

    # hostile text:s count must raise, not allocate gigabytes
    body = '<office:text><text:p>a<text:s text:c="99999999"/>b</text:p></office:text>'
    with pytest.raises(ValueError):
        extract_odt(_odf_package("odt", body, None, None))
    # truncated zip and wrong body both raise ValueError via extract_text
    good = _odf_package("odt", "<office:text><text:p>x</text:p></office:text>", None, None)
    with pytest.raises(ValueError):
        extract_text(good[: len(good) // 2])
    with pytest.raises(ValueError):
        extract_odt(_odf_package("odt", "<office:spreadsheet/>", None, None))


# ------------------------------------------------- ODF review-pass regressions

def test_corrupt_mimetype_member_keeps_valueerror_contract():
    import io, zipfile
    from lucene_solr_ray.pipelines.richdoc import extract_metadata

    # a zip whose DEFLATED mimetype member has corrupt compressed bytes:
    # detect_doc_format must not leak zlib.error past extract_*'s contract
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        z.writestr("mimetype", "application/vnd.oasis.opendocument.text")
    raw = bytearray(buf.getvalue())
    # corrupt the member's compressed payload (after the local header+name)
    raw[38:44] = b"\xff\xff\xff\xff\xff\xff"
    assert detect_doc_format(bytes(raw)) == "zip"
    with pytest.raises(ValueError):
        extract_text(bytes(raw))
    with pytest.raises(ValueError):
        extract_metadata(bytes(raw))


def test_deeply_nested_spans_raise_valueerror_not_recursionerror():
    from lucene_solr_ray.pipelines.richdoc import _odf_package

    depth = 20000
    body = (
        "<office:text><text:p>"
        + "<text:span>" * depth
        + "x"
        + "</text:span>" * depth
        + "</text:p></office:text>"
    )
    with pytest.raises(ValueError):
        extract_text(_odf_package("odt", body, None, None))


def test_footnote_paragraph_not_duplicated():
    from lucene_solr_ray.pipelines.richdoc import extract_odt, _odf_package

    # a text:p nested inside another paragraph's subtree (footnote shape)
    # must appear exactly once, inline
    body = (
        "<office:text><text:p>body"
        '<text:note><text:note-body><text:p>note text</text:p></text:note-body></text:note>'
        " tail</text:p><text:p>second</text:p></office:text>"
    )
    assert extract_odt(_odf_package("odt", body, None, None)) == "bodynote text tail\nsecond"


def test_single_trailing_empty_cell_is_filler_but_empty_string_is_data():
    from lucene_solr_ray.pipelines.richdoc import extract_ods, encode_ods, _odf_package

    # LibreOffice pads short rows with ONE contentless cell — filler
    body = (
        '<office:spreadsheet><table:table table:name="S"><table:table-row>'
        '<table:table-cell office:value-type="string"><text:p>x</text:p></table:table-cell>'
        "<table:table-cell/>"
        "</table:table-row></table:table></office:spreadsheet>"
    )
    assert extract_ods(_odf_package("ods", body, None, None)) == "x"
    # but a written empty-STRING cell carries a text:p and survives round-trip
    assert extract_ods(encode_ods([["a", ""]])) == "a\t"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=40), min_size=1, max_size=4), min_size=1, max_size=4))
def test_ods_roundtrip_fuzz(rows):
    from lucene_solr_ray.pipelines.richdoc import encode_ods, extract_ods

    want = "\n".join("\t".join(r) for r in rows)
    # cells containing tab/newline change the row geometry; the codec is
    # exact for cell text without structural separators
    if any("\t" in c or "\n" in c for r in rows for c in r):
        return
    got = extract_ods(encode_ods(rows))
    # trailing empty-string cells round-trip (they carry a text:p)
    assert got == want


@settings(max_examples=25, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=80), min_size=1, max_size=3))
def test_odp_roundtrip_fuzz(slides):
    from lucene_solr_ray.pipelines.richdoc import encode_odp, extract_odp

    assert extract_odp(encode_odp(slides)) == "\n".join(slides)
