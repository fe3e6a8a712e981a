"""Rich-document text extraction — the Tika position (SURVEY §2.1).

Reference: solr/contrib/extraction ExtractingRequestHandler (Tika): rich
binary documents in, plain indexable text out.  Tika itself is a JVM
dependency forest; what a data pipeline actually needs from it is text
extraction for the handful of formats web corpora ship.  Here: pure
stdlib extractors for PDF (1.4, Flate content streams), the OOXML
family (DOCX/XLSX/PPTX via zipfile+ElementTree, dispatched on the zip's
main part), EPUB (OCF container → OPF spine → XHTML chapters), the
OpenDocument family (ODT/ODS/ODP via the OCF `mimetype` member,
element-encoded whitespace: text:tab / text:line-break / text:s), RTF
and HTML — plus matching writers so fixtures and the gated pipeline
exercise every extractor bit-exactly (the same encoder-proves-decoder
pattern as the PNG/JPEG/WebP/GIF codecs).  Both text (`extract_text`)
and metadata (`extract_metadata`: title/author from PDF /Info, OOXML
docProps/core.xml, EPUB/ODF dc:, RTF {\\info}, HTML <title>/<meta>).

Documented limits (each raises or degrades loudly, never silently):
PDF — 1.x non-encrypted, Flate or plain content streams, standard-font
text operators (Tj ' " TJ, T*/Td/TD line breaks), Latin-1 string
literals (UTF-16BE recognized in /Info strings); no CMap-subsetted
font decoding.  DOCX — main document part paragraphs/runs (w:t, w:tab,
w:br/w:cr).  RTF — ANSI with \\'hh and \\uN? escapes, destination
groups skipped.  HTML — script/style dropped, block tags break lines,
entities decoded by html.parser.  Error contract: every malformed
payload raises ValueError (hostile-input fuzz in tests).
"""

from __future__ import annotations

import io
import re
import zipfile
import zlib
from html.parser import HTMLParser
from xml.etree import ElementTree as ET

import numpy as np
import pandas as pd
import pyarrow as pa

from .common import Pipeline, pool, read

# --------------------------------------------------------------------------
# PDF

_PDF_ESC = {ord("\\"): b"\\\\", ord("("): b"\\(", ord(")"): b"\\)"}


def _pdf_literal(s: str) -> bytes:
    out = bytearray(b"(")
    for ch in s:
        o = ord(ch)
        if o > 255:
            raise ValueError("PDF writer here is Latin-1 only")
        if o in _PDF_ESC:
            out += _PDF_ESC[o]
        elif 32 <= o <= 126:
            out.append(o)
        else:
            out += b"\\%03o" % o
    out += b")"
    return bytes(out)


def encode_pdf(
    pages: list[str],
    compress: bool = True,
    title: str | None = None,
    author: str | None = None,
) -> bytes:
    """Minimal valid PDF 1.4: one Helvetica text column per page, one
    line per T*; correct xref table (byte-exact offsets); optional
    document-information dictionary (/Info in the trailer)."""
    if not pages:
        raise ValueError("encode_pdf needs at least one page")
    n_pages = len(pages)
    objs: dict[int, bytes] = {}
    kid_ids = [4 + 2 * i for i in range(n_pages)]
    objs[1] = b"<< /Type /Catalog /Pages 2 0 R >>"
    kids = b" ".join(b"%d 0 R" % k for k in kid_ids)
    objs[2] = b"<< /Type /Pages /Kids [" + kids + b"] /Count %d >>" % n_pages
    objs[3] = b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>"
    info_id = None
    if title is not None or author is not None:
        info_id = kid_ids[-1] + 2
        info = b"<< "
        if title is not None:
            info += b"/Title " + _pdf_literal(title) + b" "
        if author is not None:
            info += b"/Author " + _pdf_literal(author) + b" "
        objs[info_id] = info + b">>"
    streams: dict[int, bytes] = {}
    for i, page in enumerate(pages):
        pid, cid = kid_ids[i], kid_ids[i] + 1
        objs[pid] = (
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 3 0 R >> >> /Contents %d 0 R >>" % cid
        )
        lines = page.split("\n")
        content = bytearray(b"BT /F1 12 Tf 14 TL 72 720 Td ")
        for j, ln in enumerate(lines):
            if j:
                content += b"T* "
            content += _pdf_literal(ln) + b" Tj "
        content += b"ET"
        data = zlib.compress(bytes(content)) if compress else bytes(content)
        filt = b"/Filter /FlateDecode " if compress else b""
        streams[cid] = (
            b"<< " + filt + b"/Length %d >>\nstream\n" % len(data) + data + b"\nendstream"
        )
    buf = bytearray(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
    max_id = max(max(objs), max(streams))
    offsets = [0] * (max_id + 1)
    for oid in range(1, max_id + 1):
        body = objs.get(oid) or streams.get(oid)
        if body is None:
            continue
        offsets[oid] = len(buf)
        buf += b"%d 0 obj\n" % oid + body + b"\nendobj\n"
    xref_at = len(buf)
    buf += b"xref\n0 %d\n" % (max_id + 1)
    buf += b"0000000000 65535 f \n"
    for oid in range(1, max_id + 1):
        buf += b"%010d 00000 n \n" % offsets[oid]
    info_ref = b" /Info %d 0 R" % info_id if info_id else b""
    buf += (
        b"trailer\n<< /Size %d /Root 1 0 R" % (max_id + 1)
        + info_ref
        + b" >>\nstartxref\n%d\n%%%%EOF\n" % xref_at
    )
    return bytes(buf)


_STREAM_RE = re.compile(rb"<<(.*?)>>\s*stream\r?\n", re.DOTALL)


def _pdf_streams(b: bytes):
    """Yield decoded stream payloads (Flate or plain)."""
    for m in _STREAM_RE.finditer(b):
        d, start = m.group(1), m.end()
        lm = re.search(rb"/Length\s+(\d+)(?!\d)(?!\s+0\s+R)", d)
        if lm:
            data = b[start : start + int(lm.group(1))]
        else:  # indirect /Length: fall back to the endstream keyword
            end = b.find(b"endstream", start)
            if end < 0:
                continue
            data = b[start:end].rstrip(b"\r\n")
        if b"/FlateDecode" in d:
            try:
                data = zlib.decompress(data)
            except zlib.error as exc:
                raise ValueError(f"bad Flate stream in PDF: {exc}") from exc
        yield data


def _pdf_string(data: bytes, i: int) -> tuple[str, int]:
    """Parse a ( ) literal at data[i] (after the paren); returns (text, next)."""
    out, depth = bytearray(), 1
    n = len(data)
    while i < n:
        c = data[i]
        if c == 0x5C:  # backslash
            i += 1
            if i >= n:
                break
            e = data[i]
            if e in b"nrtbf":
                out += {0x6E: b"\n", 0x72: b"\r", 0x74: b"\t", 0x62: b"\b", 0x66: b"\f"}[e]
                i += 1
            elif e in b"()\\":
                out.append(e)
                i += 1
            elif 0x30 <= e <= 0x37:  # octal, 1-3 digits
                oct_s, k = "", 0
                while k < 3 and i < n and 0x30 <= data[i] <= 0x37:
                    oct_s += chr(data[i])
                    i += 1
                    k += 1
                out.append(int(oct_s, 8) & 0xFF)
            elif e in b"\r\n":  # line continuation
                i += 1
                if e == 0x0D and i < n and data[i] == 0x0A:
                    i += 1
            else:
                out.append(e)
                i += 1
        elif c == 0x28:
            depth += 1
            out.append(c)
            i += 1
        elif c == 0x29:
            depth -= 1
            if depth == 0:
                return out.decode("latin-1"), i + 1
            out.append(c)
            i += 1
        else:
            out.append(c)
            i += 1
    raise ValueError("unterminated PDF string literal")


def _pdf_hex_string(data: bytes, i: int) -> tuple[str, int]:
    """Parse a <...> hex string with data[i] at the '<'; returns (latin-1
    text, index past '>')."""
    j = data.find(b">", i)
    if j < 0:
        raise ValueError("unterminated PDF hex string")
    hx = re.sub(rb"\s", b"", data[i + 1 : j])
    if len(hx) % 2:
        hx += b"0"
    return bytes.fromhex(hx.decode("ascii")).decode("latin-1"), j + 1


def _pdf_text_string(s: str) -> str:
    """PDF text-string semantics: UTF-16BE when the bytes open with the
    FEFF BOM (the common wild-PDF /Info encoding), PDFDocEncoding≈Latin-1
    otherwise.  `s` is the raw bytes latin-1-lifted."""
    if s.startswith("\xfe\xff"):
        return s.encode("latin-1").decode("utf-16-be")[1:]  # drop the BOM char
    return s


def _pdf_text_from_content(data: bytes) -> list[str]:
    """Walk one content stream's text operators; returns emitted chunks
    (strings and '\n' markers) in order."""
    out: list[str] = []
    strings: list[str] = []  # operand stack of string values
    in_array: list[str] | None = None
    emitted_in_block = False
    i, n = 0, len(data)
    while i < n:
        c = data[i]
        if c == 0x28:  # (
            s, i = _pdf_string(data, i + 1)
            (in_array if in_array is not None else strings).append(s)
            continue
        if c == 0x3C and i + 1 < n and data[i + 1] != 0x3C:  # hex string
            s, i = _pdf_hex_string(data, i)
            (in_array if in_array is not None else strings).append(s)
            continue
        if c == 0x5B:  # [
            in_array = []
            i += 1
            continue
        if c == 0x5D:  # ]
            if in_array is not None:
                strings.append("".join(in_array))
                in_array = None
            i += 1
            continue
        if c == 0x25:  # % comment to EOL
            j = data.find(b"\n", i)
            i = n if j < 0 else j + 1
            continue
        m = re.match(rb"[A-Za-z'\"*]+", data[i:])
        if m:
            op = m.group(0)
            i += len(op)
            if op == b"BT":
                emitted_in_block = False
                strings.clear()
            elif op == b"Tj" or op == b"TJ":
                if strings:
                    out.append(strings[-1])
                    emitted_in_block = True
                strings.clear()
            elif op == b"'" or op == b'"':
                out.append("\n")
                if strings:
                    out.append(strings[-1])
                emitted_in_block = True
                strings.clear()
            elif op in (b"T*", b"Td", b"TD"):
                if emitted_in_block:
                    out.append("\n")
                strings.clear()
            elif op == b"BI":  # inline image: skip to EI
                j = data.find(b"EI", i)
                i = n if j < 0 else j + 2
            continue
        i += 1
    return out


def extract_pdf(b: bytes) -> str:
    if not b.startswith(b"%PDF-"):
        raise ValueError("not a PDF payload")
    pages = []
    for data in _pdf_streams(b):
        if b"BT" not in data:
            continue
        chunks = _pdf_text_from_content(data)
        if chunks:
            pages.append("".join(chunks))
    return "\n".join(pages)


def _pdf_dict_string(obj: bytes, key: bytes) -> str | None:
    m = re.search(rb"/" + key + rb"\s*", obj)
    if not m:
        return None
    i = m.end()
    if obj[i : i + 1] == b"(":
        s, _ = _pdf_string(obj, i + 1)
        return _pdf_text_string(s)
    if obj[i : i + 1] == b"<":
        s, _ = _pdf_hex_string(obj, i)
        return _pdf_text_string(s)
    return None


def extract_pdf_metadata(b: bytes) -> dict:
    if not b.startswith(b"%PDF-"):
        raise ValueError("not a PDF payload")
    # only the trailer dictionary may name /Info — scanning the whole file
    # would match bytes inside compressed stream bodies
    t_at = b.rfind(b"trailer")
    refs = re.findall(rb"/Info\s+(\d+)\s+0\s+R", b[t_at:]) if t_at >= 0 else []
    if not refs:
        return {"title": None, "author": None}
    oid = int(refs[-1])
    m = re.search(rb"(?:^|[\r\n])%d 0 obj(.*?)endobj" % oid, b, re.DOTALL)
    if not m:
        raise ValueError("PDF /Info points at a missing object")
    obj = m.group(1)
    return {
        "title": _pdf_dict_string(obj, b"Title"),
        "author": _pdf_dict_string(obj, b"Author"),
    }


# --------------------------------------------------------------------------
# DOCX (OOXML main document part)

_W = "http://schemas.openxmlformats.org/wordprocessingml/2006/main"

_DOCX_CT = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
    '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
    '<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>'
    '<Default Extension="xml" ContentType="application/xml"/>'
    '<Override PartName="/word/document.xml" ContentType="application/vnd.openxmlformats-officedocument.wordprocessingml.document.main+xml"/>'
    "</Types>"
)
_DOCX_RELS = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
    '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
    '<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" Target="word/document.xml"/>'
    "</Relationships>"
)


_XML_INVALID = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff￾￿]")


def _xml_escape(s: str) -> str:
    if _XML_INVALID.search(s):
        raise ValueError("control characters are not representable in OOXML")
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_CP = "http://schemas.openxmlformats.org/package/2006/metadata/core-properties"
_DC = "http://purl.org/dc/elements/1.1/"
_CORE_CT_OVERRIDE = (
    '<Override PartName="/docProps/core.xml" '
    'ContentType="application/vnd.openxmlformats-package.core-properties+xml"/>'
)
_CORE_REL = (
    '<Relationship Id="rIdCore" '
    'Type="http://schemas.openxmlformats.org/package/2006/relationships/metadata/core-properties" '
    'Target="docProps/core.xml"/>'
)


def _core_xml(title: str | None, author: str | None) -> str:
    parts = []
    if title is not None:
        parts.append(f"<dc:title>{_xml_escape(title)}</dc:title>")
    if author is not None:
        parts.append(f"<dc:creator>{_xml_escape(author)}</dc:creator>")
    return (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<cp:coreProperties xmlns:cp="{_CP}" xmlns:dc="{_DC}">'
        f'{"".join(parts)}</cp:coreProperties>'
    )


def _write_core(z: zipfile.ZipFile, title: str | None, author: str | None) -> None:
    if title is not None or author is not None:
        z.writestr("docProps/core.xml", _core_xml(title, author))


def _with_core(ct: str, rels: str, has_meta: bool) -> tuple[str, str]:
    if not has_meta:
        return ct, rels
    return (
        ct.replace("</Types>", _CORE_CT_OVERRIDE + "</Types>"),
        rels.replace("</Relationships>", _CORE_REL + "</Relationships>"),
    )


def _core_from_zip(z: zipfile.ZipFile) -> dict:
    if "docProps/core.xml" not in z.namelist():
        return {"title": None, "author": None}
    root = ET.fromstring(z.read("docProps/core.xml"))
    t = root.find(f"{{{_DC}}}title")
    a = root.find(f"{{{_DC}}}creator")
    # element present but empty → '' (ET gives .text None), absent → None
    return {
        "title": (t.text or "") if t is not None else None,
        "author": (a.text or "") if a is not None else None,
    }


def encode_docx(
    paragraphs: list[str], title: str | None = None, author: str | None = None
) -> bytes:
    runs = []
    for p in paragraphs:
        parts = []
        for seg_i, seg in enumerate(p.split("\t")):
            if seg_i:
                parts.append("<w:tab/>")
            if seg:
                parts.append(f'<w:t xml:space="preserve">{_xml_escape(seg)}</w:t>')
        runs.append(f"<w:p><w:r>{''.join(parts)}</w:r></w:p>")
    doc = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<w:document xmlns:w="{_W}"><w:body>{"".join(runs)}</w:body></w:document>'
    )
    ct, rels = _with_core(_DOCX_CT, _DOCX_RELS, title is not None or author is not None)
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        z.writestr("[Content_Types].xml", ct)
        z.writestr("_rels/.rels", rels)
        z.writestr("word/document.xml", doc)
        _write_core(z, title, author)
    return buf.getvalue()


def _zip_core_metadata(b: bytes) -> dict:
    with zipfile.ZipFile(io.BytesIO(b)) as z:
        return _core_from_zip(z)


extract_docx_metadata = _zip_core_metadata
extract_xlsx_metadata = _zip_core_metadata
extract_pptx_metadata = _zip_core_metadata


def extract_docx(b: bytes) -> str:
    with zipfile.ZipFile(io.BytesIO(b)) as z:
        xml = z.read("word/document.xml")
    root = ET.fromstring(xml)
    body = root.find(f"{{{_W}}}body")
    if body is None:
        raise ValueError("DOCX without a document body")
    paras = []
    for p in body.iter(f"{{{_W}}}p"):
        parts = []
        for el in p.iter():
            tag = el.tag.rsplit("}", 1)[-1]
            if tag == "t" and el.text:
                parts.append(el.text)
            elif tag == "tab":
                parts.append("\t")
            elif tag in ("br", "cr"):
                parts.append("\n")
        paras.append("".join(parts))
    return "\n".join(paras)


# --------------------------------------------------------------------------
# XLSX (SpreadsheetML): inline-string cells; rows → lines, cells → tabs

_XLSX_CT = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
    '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
    '<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>'
    '<Default Extension="xml" ContentType="application/xml"/>'
    '<Override PartName="/xl/workbook.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>'
    '<Override PartName="/xl/worksheets/sheet1.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.worksheet+xml"/>'
    "</Types>"
)
_XLSX_RELS = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
    '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
    '<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" Target="xl/workbook.xml"/>'
    "</Relationships>"
)
_XLSX_WB_RELS = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
    '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
    '<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/worksheet" Target="worksheets/sheet1.xml"/>'
    "</Relationships>"
)
_S = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"


def _col_name(j: int) -> str:
    s = ""
    j += 1
    while j:
        j, r = divmod(j - 1, 26)
        s = chr(65 + r) + s
    return s


def encode_xlsx(
    rows: list[list[str]], title: str | None = None, author: str | None = None
) -> bytes:
    body = []
    for i, row in enumerate(rows):
        cells = []
        for j, v in enumerate(row):
            ref = f"{_col_name(j)}{i + 1}"
            cells.append(
                f'<c r="{ref}" t="inlineStr"><is>'
                f'<t xml:space="preserve">{_xml_escape(str(v))}</t></is></c>'
            )
        body.append(f'<row r="{i + 1}">{"".join(cells)}</row>')
    sheet = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<worksheet xmlns="{_S}"><sheetData>{"".join(body)}</sheetData></worksheet>'
    )
    wb = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<workbook xmlns="{_S}" xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships">'
        '<sheets><sheet name="Sheet1" sheetId="1" r:id="rId1"/></sheets></workbook>'
    )
    ct, rels = _with_core(_XLSX_CT, _XLSX_RELS, title is not None or author is not None)
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        z.writestr("[Content_Types].xml", ct)
        z.writestr("_rels/.rels", rels)
        z.writestr("xl/workbook.xml", wb)
        z.writestr("xl/_rels/workbook.xml.rels", _XLSX_WB_RELS)
        z.writestr("xl/worksheets/sheet1.xml", sheet)
        _write_core(z, title, author)
    return buf.getvalue()


def extract_xlsx(b: bytes) -> str:
    with zipfile.ZipFile(io.BytesIO(b)) as z:
        shared: list[str] = []
        if "xl/sharedStrings.xml" in z.namelist():
            root = ET.fromstring(z.read("xl/sharedStrings.xml"))
            for si in root.iter(f"{{{_S}}}si"):
                shared.append("".join(t.text or "" for t in si.iter(f"{{{_S}}}t")))
        sheets = sorted(
            (n for n in z.namelist() if re.fullmatch(r"xl/worksheets/sheet\d+\.xml", n)),
            key=lambda n: int(re.search(r"\d+", n.rsplit("/", 1)[1]).group(0)),
        )
        lines = []
        for name in sheets:
            root = ET.fromstring(z.read(name))
            for row in root.iter(f"{{{_S}}}row"):
                cells = []
                for c in row.iter(f"{{{_S}}}c"):
                    typ = c.get("t", "n")
                    if typ == "inlineStr":
                        is_el = c.find(f"{{{_S}}}is")
                        cells.append(
                            "".join(t.text or "" for t in is_el.iter(f"{{{_S}}}t"))
                            if is_el is not None
                            else ""
                        )
                    else:
                        v = c.find(f"{{{_S}}}v")
                        val = v.text if v is not None and v.text else ""
                        cells.append(shared[int(val)] if typ == "s" and val else val)
                lines.append("\t".join(cells))
        return "\n".join(lines)


# --------------------------------------------------------------------------
# PPTX (PresentationML): a:t runs per a:p paragraph, slides in order

_A = "http://schemas.openxmlformats.org/drawingml/2006/main"
_P = "http://schemas.openxmlformats.org/presentationml/2006/main"


def encode_pptx(
    slides: list[str], title: str | None = None, author: str | None = None
) -> bytes:
    n = len(slides)
    if not n:
        raise ValueError("encode_pptx needs at least one slide")
    overrides = "".join(
        f'<Override PartName="/ppt/slides/slide{i + 1}.xml" '
        'ContentType="application/vnd.openxmlformats-officedocument.presentationml.slide+xml"/>'
        for i in range(n)
    )
    ct = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
        '<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>'
        '<Default Extension="xml" ContentType="application/xml"/>'
        '<Override PartName="/ppt/presentation.xml" ContentType="application/vnd.openxmlformats-officedocument.presentationml.presentation.main+xml"/>'
        + overrides
        + "</Types>"
    )
    rels = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
        '<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" Target="ppt/presentation.xml"/>'
        "</Relationships>"
    )
    slide_rels = "".join(
        f'<Relationship Id="rId{i + 1}" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/slide" Target="slides/slide{i + 1}.xml"/>'
        for i in range(n)
    )
    pres_rels = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
        + slide_rels
        + "</Relationships>"
    )
    sld_ids = "".join(
        f'<p:sldId id="{256 + i}" r:id="rId{i + 1}"/>' for i in range(n)
    )
    pres = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<p:presentation xmlns:p="{_P}" xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships">'
        f"<p:sldIdLst>{sld_ids}</p:sldIdLst></p:presentation>"
    )
    ct, rels = _with_core(ct, rels, title is not None or author is not None)
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        z.writestr("[Content_Types].xml", ct)
        z.writestr("_rels/.rels", rels)
        z.writestr("ppt/presentation.xml", pres)
        z.writestr("ppt/_rels/presentation.xml.rels", pres_rels)
        _write_core(z, title, author)
        for i, text in enumerate(slides):
            paras = "".join(
                f'<a:p><a:r><a:t>{_xml_escape(p)}</a:t></a:r></a:p>'
                for p in text.split("\n")
            )
            sld = (
                '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
                f'<p:sld xmlns:p="{_P}" xmlns:a="{_A}"><p:cSld><p:spTree>'
                f"<p:sp><p:txBody>{paras}</p:txBody></p:sp>"
                "</p:spTree></p:cSld></p:sld>"
            )
            z.writestr(f"ppt/slides/slide{i + 1}.xml", sld)
    return buf.getvalue()


def extract_pptx(b: bytes) -> str:
    with zipfile.ZipFile(io.BytesIO(b)) as z:
        names = sorted(
            (n for n in z.namelist() if re.fullmatch(r"ppt/slides/slide\d+\.xml", n)),
            key=lambda n: int(re.search(r"\d+", n.rsplit("/", 1)[1]).group(0)),
        )
        slides = []
        for name in names:
            root = ET.fromstring(z.read(name))
            paras = []
            for p in root.iter(f"{{{_A}}}p"):
                paras.append("".join(t.text or "" for t in p.iter(f"{{{_A}}}t")))
            slides.append("\n".join(paras))
    return "\n".join(slides)


# --------------------------------------------------------------------------
# RTF

def _rtf_escape(text: str) -> str:
    body = []
    for ch in text:
        o = ord(ch)
        if ch in "\\{}":
            body.append("\\" + ch)
        elif ch == "\n":
            body.append("\\par\n")
        elif ch == "\t":
            body.append("\\tab ")
        elif o < 128:
            body.append(ch)
        elif o < 256:
            body.append(f"\\'{o:02x}")
        else:
            body.append(f"\\u{o}?")
    return "".join(body)


def encode_rtf(text: str, title: str | None = None, author: str | None = None) -> bytes:
    info = ""
    if title is not None or author is not None:
        groups = ""
        if title is not None:
            groups += "{\\title " + _rtf_escape(title) + "}"
        if author is not None:
            groups += "{\\author " + _rtf_escape(author) + "}"
        info = "{\\info" + groups + "}"
    return (
        "{\\rtf1\\ansi\\ansicpg1252{\\fonttbl{\\f0\\fswiss Helvetica;}}"
        + info
        + "\\f0\\fs24 "
        + _rtf_escape(text)
        + "}"
    ).encode("latin-1")


_RTF_DESTS = {
    "fonttbl", "colortbl", "stylesheet", "info", "pict", "themedata",
    "header", "footer", "generator", "filetbl", "listtable",
}


def extract_rtf(b: bytes) -> str:
    s = b.decode("latin-1")
    if not s.startswith("{\\rtf"):
        raise ValueError("not an RTF payload")
    out: list[str] = []
    skip_depth = 0  # >0 while inside a skipped destination group
    depth = 0
    uc_skip = 1
    i, n = 0, len(s)
    pending_star = False
    while i < n:
        c = s[i]
        if c == "{":
            depth += 1
            if skip_depth:
                skip_depth += 1
            i += 1
            pending_star = False
            continue
        if c == "}":
            depth -= 1
            if skip_depth:
                skip_depth -= 1
            i += 1
            continue
        if c == "\\":
            i += 1
            if i >= n:
                break
            e = s[i]
            if e == "*":
                # {\* ...}: unknown destination — skip the whole group
                if not skip_depth:
                    skip_depth = 1
                i += 1
                pending_star = False
                continue
            if e in "\\{}":
                if not skip_depth:
                    out.append(e)
                i += 1
                continue
            if e == "'":
                hx = s[i + 1 : i + 3]
                if not skip_depth:
                    out.append(chr(int(hx, 16)))
                i += 3
                continue
            if e == "~":
                if not skip_depth:
                    out.append(" ")
                i += 1
                continue
            m = re.match(r"[a-zA-Z]+(-?\d+)?", s[i:])
            if not m:
                i += 1
                continue
            word = re.match(r"[a-zA-Z]+", m.group(0)).group(0)
            param = m.group(1)
            i += len(m.group(0))
            if i < n and s[i] == " ":  # control-word delimiter
                i += 1
            if word in _RTF_DESTS:
                if not skip_depth:
                    skip_depth = 1
                continue
            if skip_depth:
                continue
            if word in ("par", "line"):
                out.append("\n")
            elif word == "tab":
                out.append("\t")
            elif word == "uc" and param is not None:
                uc_skip = max(0, int(param))  # negative \\ucN must not walk backwards (hang)
            elif word == "u" and param is not None:
                cp = int(param)
                out.append(chr(cp + 65536 if cp < 0 else cp))
                i += uc_skip  # skip the ANSI fallback chars
            continue
        if c in "\r\n":
            i += 1
            continue
        if not skip_depth:
            out.append(c)
        i += 1
    return "".join(out)


def _rtf_balanced(s: str, i: int) -> tuple[str, int]:
    """Body of the group opening at s[i]=='{' (escape-aware); returns
    (body, index past the closing brace)."""
    if s[i] != "{":
        raise ValueError("expected an RTF group")
    depth, j = 1, i + 1
    n = len(s)
    while j < n:
        c = s[j]
        if c == "\\" and j + 1 < n:
            j += 2
            continue
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return s[i + 1 : j], j + 1
        j += 1
    raise ValueError("unterminated RTF group")


def _rtf_unescape(body: str) -> str:
    """Interpret escapes in a destination-free group body; control words
    other than par/line/tab are dropped (the group's own destination word
    included)."""
    out: list[str] = []
    i, n = 0, len(body)
    uc_skip = 1
    while i < n:
        c = body[i]
        if c == "\\":
            i += 1
            if i >= n:
                break
            e = body[i]
            if e in "\\{}":
                out.append(e)
                i += 1
                continue
            if e == "'":
                out.append(chr(int(body[i + 1 : i + 3], 16)))
                i += 3
                continue
            if e == "~":
                out.append(" ")
                i += 1
                continue
            m = re.match(r"[a-zA-Z]+(-?\d+)?", body[i:])
            if not m:
                i += 1
                continue
            word = re.match(r"[a-zA-Z]+", m.group(0)).group(0)
            param = m.group(1)
            i += len(m.group(0))
            if i < n and body[i] == " ":
                i += 1
            if word in ("par", "line"):
                out.append("\n")
            elif word == "tab":
                out.append("\t")
            elif word == "uc" and param is not None:
                uc_skip = max(0, int(param))  # negative \\ucN must not walk backwards (hang)
            elif word == "u" and param is not None:
                cp = int(param)
                out.append(chr(cp + 65536 if cp < 0 else cp))
                i += uc_skip
            continue
        if c in "{}\r\n":
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def extract_rtf_metadata(b: bytes) -> dict:
    s = b.decode("latin-1")
    if not s.startswith("{\\rtf"):
        raise ValueError("not an RTF payload")
    meta = {"title": None, "author": None}
    at = s.find("{\\info")
    if at < 0:
        return meta
    info, _ = _rtf_balanced(s, at)
    for key in ("title", "author"):
        m = re.search(r"\{\\" + key + r"[ \r\n]", info)
        if m:
            body, _ = _rtf_balanced(info, m.start())
            meta[key] = _rtf_unescape(body)
    return meta


# --------------------------------------------------------------------------
# HTML

class _HTMLText(HTMLParser):
    _BLOCK = {"p", "br", "div", "li", "tr", "h1", "h2", "h3", "h4", "h5", "h6"}
    _HEAD = {"html", "head", "title", "meta", "link", "base", "script", "style", "noscript", "template"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.chunks: list[str] = []
        self.title_chunks: list[str] = []
        self.author: str | None = None
        self.saw_title = False
        self._skip = 0
        self._in_head = 0
        self._in_title = 0

    def handle_starttag(self, tag, attrs):
        if tag not in self._HEAD:
            # body-level content implicitly closes an unterminated head/title
            self._in_head = self._in_title = 0
        if tag == "title":
            self.saw_title = True
            self._in_title += 1
        elif tag == "head":
            self._in_head += 1
        elif tag in ("script", "style"):
            self._skip += 1
        elif tag == "meta":
            d = dict(attrs)
            # valueless attributes parse as ('name', None) — never .lower() them
            if (d.get("name") or "").lower() == "author" and d.get("content") is not None:
                self.author = d["content"]
        elif tag in self._BLOCK and self.chunks:
            self.chunks.append("\n")

    def handle_endtag(self, tag):
        if tag == "title" and self._in_title:
            self._in_title -= 1
        elif tag == "head" and self._in_head:
            self._in_head -= 1
        elif tag in ("script", "style") and self._skip:
            self._skip -= 1

    def handle_data(self, data):
        if self._in_title:
            self.title_chunks.append(data)
        elif not (self._skip or self._in_head) and data:
            self.chunks.append(data)


def encode_html(text: str, title: str | None = None, author: str | None = None) -> bytes:
    # no fabricated placeholder title: absent metadata must extract as None
    head = f"<title>{_xml_escape(title)}</title>" if title is not None else ""
    if author is not None:
        q = author.replace("&", "&amp;").replace('"', "&quot;").replace("<", "&lt;")
        head += f'<meta name="author" content="{q}">'
    paras = "".join(f"<p>{_xml_escape(p)}</p>" for p in text.split("\n"))
    return f"<html><head>{head}</head><body>{paras}</body></html>".encode("utf-8")


def extract_html(b: bytes) -> str:
    p = _HTMLText()
    p.feed(b.decode("utf-8", errors="replace"))
    p.close()
    # collapse the writer's structural whitespace, keep block breaks
    text = "".join(p.chunks)
    return "\n".join(ln.strip() for ln in text.split("\n") if ln.strip())


def extract_html_metadata(b: bytes) -> dict:
    p = _HTMLText()
    p.feed(b.decode("utf-8", errors="replace"))
    p.close()
    title = "".join(p.title_chunks).strip() if p.saw_title else None
    return {"title": title, "author": p.author}


# --------------------------------------------------------------------------
# EPUB (OCF zip: container.xml → OPF manifest/spine → XHTML chapters)

_EPUB_CONTAINER = (
    '<?xml version="1.0" encoding="UTF-8"?>'
    '<container version="1.0" xmlns="urn:oasis:names:tc:opendocument:xmlns:container">'
    '<rootfiles><rootfile full-path="OEBPS/content.opf" '
    'media-type="application/oebps-package+xml"/></rootfiles></container>'
)
_OPF = "http://www.idpf.org/2007/opf"
_CNT = "urn:oasis:names:tc:opendocument:xmlns:container"


def encode_epub(
    chapters: list[str], title: str | None = None, author: str | None = None
) -> bytes:
    if not chapters:
        raise ValueError("encode_epub needs at least one chapter")
    items = "".join(
        f'<item id="c{i}" href="ch{i}.xhtml" media-type="application/xhtml+xml"/>'
        for i in range(len(chapters))
    )
    spine = "".join(f'<itemref idref="c{i}"/>' for i in range(len(chapters)))
    meta = ""
    if title is not None:
        meta += f"<dc:title>{_xml_escape(title)}</dc:title>"
    if author is not None:
        meta += f"<dc:creator>{_xml_escape(author)}</dc:creator>"
    opf = (
        '<?xml version="1.0" encoding="UTF-8"?>'
        f'<package xmlns="{_OPF}" xmlns:dc="{_DC}" version="3.0" unique-identifier="id">'
        f"<metadata>{meta}</metadata><manifest>{items}</manifest>"
        f"<spine>{spine}</spine></package>"
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        # OCF: the mimetype member comes first and is STORED uncompressed
        z.writestr(
            zipfile.ZipInfo("mimetype"), "application/epub+zip",
            compress_type=zipfile.ZIP_STORED,
        )
        z.writestr("META-INF/container.xml", _EPUB_CONTAINER)
        z.writestr("OEBPS/content.opf", opf)
        for i, ch in enumerate(chapters):
            z.writestr(f"OEBPS/ch{i}.xhtml", encode_html(ch).decode("utf-8"))
    return buf.getvalue()


def extract_epub(b: bytes) -> str:
    with zipfile.ZipFile(io.BytesIO(b)) as z:
        croot = ET.fromstring(z.read("META-INF/container.xml"))
        rf = croot.find(f".//{{{_CNT}}}rootfile")
        if rf is None or not rf.get("full-path"):
            raise ValueError("EPUB container without a rootfile")
        opf_path = rf.get("full-path")
        base = opf_path.rsplit("/", 1)[0] + "/" if "/" in opf_path else ""
        opf = ET.fromstring(z.read(opf_path))
        hrefs = {
            it.get("id"): it.get("href")
            for it in opf.iter(f"{{{_OPF}}}item")
            if (it.get("media-type") or "").startswith("application/xhtml")
        }
        chapters = []
        for ref in opf.iter(f"{{{_OPF}}}itemref"):
            href = hrefs.get(ref.get("idref"))
            if href:
                chapters.append(extract_html(z.read(base + href)))
    return "\n".join(chapters)


def extract_epub_metadata(b: bytes) -> dict:
    with zipfile.ZipFile(io.BytesIO(b)) as z:
        croot = ET.fromstring(z.read("META-INF/container.xml"))
        rf = croot.find(f".//{{{_CNT}}}rootfile")
        if rf is None or not rf.get("full-path"):
            raise ValueError("EPUB container without a rootfile")
        opf = ET.fromstring(z.read(rf.get("full-path")))
        t = opf.find(f".//{{{_DC}}}title")
        a = opf.find(f".//{{{_DC}}}creator")
        return {
            "title": (t.text or "") if t is not None else None,
            "author": (a.text or "") if a is not None else None,
        }


# --------------------------------------------------------------------------
# OpenDocument (ODF: ODT text / ODS spreadsheet / ODP presentation).
# OCF-style zip: STORED `mimetype` member first, META-INF/manifest.xml,
# content.xml body, meta.xml Dublin-Core metadata.  Whitespace is
# element-encoded per the spec: <text:tab/>, <text:line-break/>, and
# space runs >=2 as one literal space + <text:s text:c="n-1"/>.

_ODF_OFFICE = "urn:oasis:names:tc:opendocument:xmlns:office:1.0"
_ODF_TEXT = "urn:oasis:names:tc:opendocument:xmlns:text:1.0"
_ODF_TABLE = "urn:oasis:names:tc:opendocument:xmlns:table:1.0"
_ODF_DRAW = "urn:oasis:names:tc:opendocument:xmlns:drawing:1.0"
_ODF_MANIFEST = "urn:oasis:names:tc:opendocument:xmlns:manifest:1.0"
_ODF_MIMES = {
    "application/vnd.oasis.opendocument.text": "odt",
    "application/vnd.oasis.opendocument.spreadsheet": "ods",
    "application/vnd.oasis.opendocument.presentation": "odp",
}
_ODF_FMT_MIME = {v: k for k, v in _ODF_MIMES.items()}
_ODT_WS = re.compile(r"\t|\n| {2,}")
# cap on <text:s text:c=N> expansion — hostile N must not allocate GBs
_ODF_SPACE_CAP = 1 << 20


def _odt_runs(p: str) -> str:
    parts, pos = [], 0
    for m in _ODT_WS.finditer(p):
        if m.start() > pos:
            parts.append(_xml_escape(p[pos : m.start()]))
        tok = m.group()
        if tok == "\t":
            parts.append("<text:tab/>")
        elif tok == "\n":
            parts.append("<text:line-break/>")
        else:
            parts.append(f' <text:s text:c="{len(tok) - 1}"/>')
        pos = m.end()
    if pos < len(p):
        parts.append(_xml_escape(p[pos:]))
    return "".join(parts)


def _odf_package(
    fmt: str, body: str, title: str | None, author: str | None
) -> bytes:
    mime = _ODF_FMT_MIME[fmt]
    content = (
        '<?xml version="1.0" encoding="UTF-8"?>'
        f'<office:document-content xmlns:office="{_ODF_OFFICE}" '
        f'xmlns:text="{_ODF_TEXT}" xmlns:table="{_ODF_TABLE}" '
        f'xmlns:draw="{_ODF_DRAW}" office:version="1.2">'
        f"<office:body>{body}</office:body></office:document-content>"
    )
    has_meta = title is not None or author is not None
    entries = [
        f'<manifest:file-entry manifest:full-path="/" manifest:media-type="{mime}"/>',
        '<manifest:file-entry manifest:full-path="content.xml" manifest:media-type="text/xml"/>',
    ]
    if has_meta:
        entries.append(
            '<manifest:file-entry manifest:full-path="meta.xml" manifest:media-type="text/xml"/>'
        )
    manifest = (
        '<?xml version="1.0" encoding="UTF-8"?>'
        f'<manifest:manifest xmlns:manifest="{_ODF_MANIFEST}" manifest:version="1.2">'
        f'{"".join(entries)}</manifest:manifest>'
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        # OCF contract (same as EPUB): mimetype first, STORED uncompressed
        z.writestr(zipfile.ZipInfo("mimetype"), mime, compress_type=zipfile.ZIP_STORED)
        z.writestr("META-INF/manifest.xml", manifest)
        z.writestr("content.xml", content)
        if has_meta:
            meta_parts = []
            if title is not None:
                meta_parts.append(f"<dc:title>{_xml_escape(title)}</dc:title>")
            if author is not None:
                meta_parts.append(f"<dc:creator>{_xml_escape(author)}</dc:creator>")
            meta = (
                '<?xml version="1.0" encoding="UTF-8"?>'
                f'<office:document-meta xmlns:office="{_ODF_OFFICE}" '
                f'xmlns:dc="{_DC}" office:version="1.2">'
                f'<office:meta>{"".join(meta_parts)}</office:meta>'
                "</office:document-meta>"
            )
            z.writestr("meta.xml", meta)
    return buf.getvalue()


def encode_odt(
    paragraphs: list[str], title: str | None = None, author: str | None = None
) -> bytes:
    paras = "".join(f"<text:p>{_odt_runs(p)}</text:p>" for p in paragraphs)
    return _odf_package("odt", f"<office:text>{paras}</office:text>", title, author)


def encode_ods(
    rows: list[list[str]], title: str | None = None, author: str | None = None
) -> bytes:
    body_rows = []
    for row in rows:
        cells = "".join(
            '<table:table-cell office:value-type="string">'
            f"<text:p>{_odt_runs(str(v))}</text:p></table:table-cell>"
            for v in row
        )
        body_rows.append(f"<table:table-row>{cells}</table:table-row>")
    body = (
        '<office:spreadsheet><table:table table:name="Sheet1">'
        f'{"".join(body_rows)}</table:table></office:spreadsheet>'
    )
    return _odf_package("ods", body, title, author)


def encode_odp(
    slides: list[str], title: str | None = None, author: str | None = None
) -> bytes:
    if not slides:
        raise ValueError("encode_odp needs at least one slide")
    pages = []
    for i, text in enumerate(slides):
        paras = "".join(f"<text:p>{_odt_runs(p)}</text:p>" for p in text.split("\n"))
        pages.append(
            f'<draw:page draw:name="page{i + 1}"><draw:frame>'
            f"<draw:text-box>{paras}</draw:text-box></draw:frame></draw:page>"
        )
    body = f'<office:presentation>{"".join(pages)}</office:presentation>'
    return _odf_package("odp", body, title, author)


def _odf_para_text(el) -> str:
    """Flatten one text:p / text:h: literal text + element-encoded
    whitespace (+ nested spans), in document order."""
    parts = [el.text or ""]
    for child in el:
        tag = child.tag.rsplit("}", 1)[-1]
        if tag == "tab":
            parts.append("\t")
        elif tag == "line-break":
            parts.append("\n")
        elif tag == "s":
            n = int(child.get(f"{{{_ODF_TEXT}}}c", "1") or "1")
            if n < 0 or n > _ODF_SPACE_CAP:
                raise ValueError(f"text:s count out of range: {n}")
            parts.append(" " * n)
        else:
            parts.append(_odf_para_text(child))
        parts.append(child.tail or "")
    return "".join(parts)


def _odf_body(b: bytes):
    with zipfile.ZipFile(io.BytesIO(b)) as z:
        root = ET.fromstring(z.read("content.xml"))
    body = root.find(f"{{{_ODF_OFFICE}}}body")
    if body is None:
        raise ValueError("ODF content.xml without an office:body")
    return body


def _odf_outer_paras(el, out: list) -> list:
    """Collect OUTERMOST text:p / text:h only — a paragraph nested inside
    another's subtree (footnote text:note, office:annotation) is already
    flattened inline by _odf_para_text; yielding it again would duplicate
    its text."""
    for child in el:
        if child.tag in (f"{{{_ODF_TEXT}}}p", f"{{{_ODF_TEXT}}}h"):
            out.append(child)
        else:
            _odf_outer_paras(child, out)
    return out


def extract_odt(b: bytes) -> str:
    txt = _odf_body(b).find(f"{{{_ODF_OFFICE}}}text")
    if txt is None:
        raise ValueError("ODT without an office:text body")
    return "\n".join(_odf_para_text(p) for p in _odf_outer_paras(txt, []))


def extract_ods(b: bytes) -> str:
    ss = _odf_body(b).find(f"{{{_ODF_OFFICE}}}spreadsheet")
    if ss is None:
        raise ValueError("ODS without an office:spreadsheet body")
    lines = []
    for row in ss.iter(f"{{{_ODF_TABLE}}}table-row"):
        cells: list[str] = []
        fillers: list[bool] = []
        for cell in row.iter(f"{{{_ODF_TABLE}}}table-cell"):
            paras = [_odf_para_text(p) for p in _odf_outer_paras(cell, [])]
            text = "\n".join(paras)
            rep = int(cell.get(f"{{{_ODF_TABLE}}}number-columns-repeated", "1") or "1")
            if rep < 0 or rep > _ODF_SPACE_CAP:
                raise ValueError(f"number-columns-repeated out of range: {rep}")
            cells.extend([text] * rep)
            # office suites pad rows to the column count with contentless
            # cells (single OR repeated) — layout filler, not data; a data
            # cell holding an empty string still carries a text:p
            fillers.extend([not paras] * rep)
        while cells and fillers[-1]:
            cells.pop()
            fillers.pop()
        lines.append("\t".join(cells))
    return "\n".join(lines)


def extract_odp(b: bytes) -> str:
    pres = _odf_body(b).find(f"{{{_ODF_OFFICE}}}presentation")
    if pres is None:
        raise ValueError("ODP without an office:presentation body")
    slides = []
    for page in pres.iter(f"{{{_ODF_DRAW}}}page"):
        paras = [_odf_para_text(p) for p in _odf_outer_paras(page, [])]
        slides.append("\n".join(paras))
    return "\n".join(slides)


def extract_odf_metadata(b: bytes) -> dict:
    with zipfile.ZipFile(io.BytesIO(b)) as z:
        if "meta.xml" not in z.namelist():
            return {"title": None, "author": None}
        root = ET.fromstring(z.read("meta.xml"))
    t = root.find(f".//{{{_DC}}}title")
    a = root.find(f".//{{{_DC}}}creator")
    # element present but empty → '' (ET gives .text None), absent → None
    return {
        "title": (t.text or "") if t is not None else None,
        "author": (a.text or "") if a is not None else None,
    }


# --------------------------------------------------------------------------
# Dispatch

def detect_doc_format(b: bytes) -> str:
    if b.startswith(b"%PDF-"):
        return "pdf"
    if b.startswith(b"PK\x03\x04"):  # OOXML family: dispatch on the main part
        try:
            with zipfile.ZipFile(io.BytesIO(b)) as z:
                names = set(z.namelist())
                mime = (
                    z.read("mimetype").decode("ascii", "replace").strip()
                    if "mimetype" in names
                    else ""
                )
        except (zipfile.BadZipFile, zlib.error, KeyError, OSError):
            # a corrupt member read must not break the ValueError contract
            # of the extract_* callers — it's still a zip, just a bad one
            return "zip"
        if "word/document.xml" in names:
            return "docx"
        if "xl/workbook.xml" in names:
            return "xlsx"
        if "ppt/presentation.xml" in names:
            return "pptx"
        if mime in _ODF_MIMES:
            return _ODF_MIMES[mime]
        if "META-INF/container.xml" in names:
            return "epub"
        return "zip"
    if b.startswith(b"{\\rtf"):
        return "rtf"
    head = b[:256].lstrip().lower()
    if head.startswith(b"<!doctype html") or head.startswith(b"<html"):
        return "html"
    return "txt"


_EXTRACTORS = {
    "pdf": extract_pdf,
    "docx": extract_docx,
    "xlsx": extract_xlsx,
    "pptx": extract_pptx,
    "epub": extract_epub,
    "odt": extract_odt,
    "ods": extract_ods,
    "odp": extract_odp,
    "rtf": extract_rtf,
    "html": extract_html,
}


def extract_text(b: bytes) -> str:
    """Sniff + extract.  Error contract: EVERY malformed payload raises
    ValueError (an extraction stage over wild corpora needs ONE catchable
    type, not whatever zipfile/ElementTree/zlib happened to throw)."""
    fmt = detect_doc_format(b)
    fn = _EXTRACTORS.get(fmt)
    if fn is not None:
        try:
            return fn(b)
        except ValueError:
            raise
        except (zipfile.BadZipFile, ET.ParseError, KeyError, IndexError,
                zlib.error, UnicodeDecodeError, OverflowError,
                RecursionError) as exc:
            raise ValueError(f"malformed {fmt} payload: {exc}") from exc
    if fmt == "zip":
        raise ValueError("zip container without a known OOXML main part")
    try:
        return b.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"undecodable text payload: {exc}") from exc


_META_EXTRACTORS = {
    "pdf": extract_pdf_metadata,
    "docx": _zip_core_metadata,
    "xlsx": _zip_core_metadata,
    "pptx": _zip_core_metadata,
    "epub": extract_epub_metadata,
    "odt": extract_odf_metadata,
    "ods": extract_odf_metadata,
    "odp": extract_odf_metadata,
    "rtf": extract_rtf_metadata,
    "html": extract_html_metadata,
}


def extract_metadata(b: bytes, fmt: str | None = None) -> dict:
    """{'title': str|None, 'author': str|None} — same error contract as
    extract_text (ValueError for every malformed payload).  Pass `fmt`
    when the caller already sniffed it (saves a zip open per payload)."""
    if fmt is None:
        fmt = detect_doc_format(b)
    if fmt == "zip":
        raise ValueError("zip container without a known OOXML main part")
    fn = _META_EXTRACTORS.get(fmt)
    if fn is None:
        try:
            b.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"undecodable text payload: {exc}") from exc
        return {"title": None, "author": None}
    try:
        return fn(b)
    except ValueError:
        raise
    except (zipfile.BadZipFile, ET.ParseError, KeyError, IndexError,
            zlib.error, UnicodeDecodeError, OverflowError) as exc:
        raise ValueError(f"malformed {fmt} metadata: {exc}") from exc


# --------------------------------------------------------------------------
# Pipeline: documents → rotated rich-doc payloads → extract → verify

def _payloads(sf_dir: str, with_meta: bool = False):
    def to_payload(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        srcs = batch.column("source").to_pylist() if with_meta else [None] * len(ids)
        pays = []
        for d, t, src in zip(ids, texts, srcs):
            title = f"Doc {d}" if with_meta else None
            author = src if with_meta else None
            m = d % 8
            if m == 0:
                pays.append(
                    encode_pdf([t], compress=bool(d % 14 == 0), title=title, author=author)
                )
            elif m == 1:
                pays.append(encode_docx([t], title=title, author=author))
            elif m == 2:
                pays.append(encode_rtf(t, title=title, author=author))
            elif m == 3:
                pays.append(encode_html(t, title=title, author=author))
            elif m == 4:
                pays.append(encode_xlsx([[t]], title=title, author=author))
            elif m == 5:
                pays.append(encode_pptx([t], title=title, author=author))
            elif m == 6:
                pays.append(encode_epub([t], title=title, author=author))
            else:
                pays.append(encode_odt([t], title=title, author=author))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "payload": pa.array(pays, type=pa.binary()),
                "src_text": pa.array(texts, type=pa.string()),
            }
        )

    cols = ["doc_id", "text"] + (["source"] if with_meta else [])
    return read(sf_dir, "documents", cols).map_batches(
        to_payload, batch_format="pyarrow", batch_size=512
    )


class RichDocExtractor:
    """Actor-pool stage: sniff format, extract text, verify against the
    shipped source text (an extractor regression fails the JOB, loudly,
    not a hash check three stages later)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, fmts, chars = [], [], []
        for did, payload, src in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("payload").to_pylist(),
            batch.column("src_text").to_pylist(),
        ):
            fmt = detect_doc_format(payload)
            text = extract_text(payload)
            if text != src:
                raise ValueError(f"rich-doc extraction mismatch for doc {did} ({fmt})")
            ids.append(did)
            fmts.append(fmt)
            chars.append(len(text))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "format": pa.array(fmts, type=pa.string()),
                "n_chars_extracted": pa.array(chars, type=pa.int64()),
            }
        )


def rich_doc_extract(sf_dir: str):
    out = (
        _payloads(sf_dir)
        .map_batches(RichDocExtractor, batch_format="pyarrow", batch_size=128, concurrency=pool())
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def _meta_batch(batch: pa.Table) -> pa.Table:
    ids, fmts, titles, authors = [], [], [], []
    for did, payload in zip(
        batch.column("doc_id").to_pylist(), batch.column("payload").to_pylist()
    ):
        fmt = detect_doc_format(payload)  # sniff ONCE, reuse for extraction
        md = extract_metadata(payload, fmt=fmt)
        ids.append(did)
        fmts.append(fmt)
        titles.append(md["title"])
        authors.append(md["author"])
    return pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "format": pa.array(fmts, type=pa.string()),
            "title": pa.array(titles, type=pa.string()),
            "author": pa.array(authors, type=pa.string()),
        }
    )


def rich_doc_metadata(sf_dir: str):
    out = (
        _payloads(sf_dir, with_meta=True)
        .map_batches(_meta_batch, batch_format="pyarrow", batch_size=256)
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


RICH_DOC_META_SQL = """
SELECT doc_id,
       CASE CAST(doc_id % 8 AS INTEGER)
            WHEN 0 THEN 'pdf' WHEN 1 THEN 'docx' WHEN 2 THEN 'rtf'
            WHEN 3 THEN 'html' WHEN 4 THEN 'xlsx' WHEN 5 THEN 'pptx'
            WHEN 6 THEN 'epub' ELSE 'odt' END AS format,
       'Doc ' || CAST(doc_id AS VARCHAR) AS title,
       source AS author
FROM documents
ORDER BY doc_id
"""


RICH_DOC_SQL = """
SELECT doc_id,
       CASE CAST(doc_id % 8 AS INTEGER)
            WHEN 0 THEN 'pdf' WHEN 1 THEN 'docx' WHEN 2 THEN 'rtf'
            WHEN 3 THEN 'html' WHEN 4 THEN 'xlsx' WHEN 5 THEN 'pptx'
            WHEN 6 THEN 'epub' ELSE 'odt' END AS format,
       CAST(LENGTH(text) AS BIGINT) AS n_chars_extracted
FROM documents
ORDER BY doc_id
"""

PIPELINES: dict[str, Pipeline] = {
    "rich_doc_extract": Pipeline(
        rich_doc_extract,
        RICH_DOC_SQL,
        "Tika-position rich-doc extraction: PDF/DOCX/XLSX/PPTX/EPUB/ODT/RTF/HTML payloads "
        "→ sniff + extract + per-doc round-trip verification (actor pool over opaque binary columns)",
    ),
    "rich_doc_metadata": Pipeline(
        rich_doc_metadata,
        RICH_DOC_META_SQL,
        "Tika-position metadata extraction: PDF /Info, OOXML docProps/core.xml, RTF "
        "{\\info}, HTML <title>/<meta author> → (doc_id, format, title, author)",
    ),
}
