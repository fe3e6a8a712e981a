"""The per-pid segment store has one owner: `index/segments.py` names its
files, reads its columns and applies its dv updates.  This scan fails if
any other module under `lucene_solr_ray/` names `norms.parquet` or
`dv_updates.parquet`, so a second hand-rolled reader (one that could skip
the dv-update overlay) does not grow back."""

import re
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "lucene_solr_ray"
OWNER = Path("index", "segments.py")
SEGMENT_FILE = re.compile(r"(norms|dv_updates)\.parquet")


def segment_file_names(source: str, fname: str) -> list[str]:
    """→ one message per line of `source` naming a segment file."""
    return [
        f"{fname}:{n}: {line.strip()}"
        for n, line in enumerate(source.splitlines(), 1)
        if SEGMENT_FILE.search(line)
    ]


def test_only_the_segment_store_names_its_files():
    found = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG)
        if rel != OWNER:
            found += segment_file_names(path.read_text(), str(rel))
    assert not found, "\n".join(found)


def test_guard_catches_segment_file_names():
    src = """
seg = index_dir / "segments" / f"pid={pid:05d}" / "norms.parquet"
side = seg.parent / 'dv_updates.parquet'
t = segments.read(paths, ["turn_idx"])  # apply_dv_updates patches the cache
"""
    assert len(segment_file_names(src, "x.py")) == 2
    assert segment_file_names((PKG / OWNER).read_text(), str(OWNER))  # the owner does name them
