"""The salt is a shuffle key of the build and nothing else: a term's runs
are ordered by `first_doc` when served and concatenated as they are when
compacted.  This scan fails if any module under `lucene_solr_ray/` other
than `index/build.py` names the `salt` column, so the run-order decision
does not spread back to the reader or to compaction."""

import re
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "lucene_solr_ray"
OWNER = Path("index", "build.py")
SALT_LITERAL = re.compile(r"""(["'])salt\1""")


def salt_literals(source: str, fname: str) -> list[str]:
    """→ one message per line of `source` holding the string literal salt."""
    return [
        f"{fname}:{n}: {line.strip()}"
        for n, line in enumerate(source.splitlines(), 1)
        if SALT_LITERAL.search(line)
    ]


def test_only_the_build_names_the_salt_column():
    found = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG)
        if rel != OWNER:
            found += salt_literals(path.read_text(), str(rel))
    assert not found, "\n".join(found)


def test_guard_catches_salt_literals():
    src = """
keys = pa.table({"term": t["term"], "salt": t["salt"]})
order = pc.sort_indices(t, sort_keys=[('salt', "ascending")])
# salted runs concatenate by first_doc; a salt is a build-side key
"""
    assert len(salt_literals(src, "x.py")) == 2
    assert salt_literals((PKG / OWNER).read_text(), str(OWNER))  # the owner does name it
