"""The build's shuffle width follows the shard's documents: one bucket per
`ROWS_PER_BUCKET` input rows, capped at `N_BUCKETS`.  At test scale every
shard gets one bucket, so this duel builds the same corpus again with the
constant patched small (several buckets per shard) and checks that the
width changes nothing a reader sees: the postings, the stats sidecar and
the answers.  A mixed case joins a multi-bucket cold build, a
default-width append and a compaction."""

import math
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.fixtures import write_transcripts
from lucene_solr_ray.index import build
from lucene_solr_ray.index.compact import compact_index
from lucene_solr_ray.index.manifest import Manifest
from lucene_solr_ray.index.stats_sidecar import sidecar_path
from lucene_solr_ray.search import Searcher

N_CONV, N_FILES, FILES_PER_SHARD = 160, 8, 2
SMALL = 64  # rows per bucket: the ~320-row shards get 5-6 buckets

SEL = lambda **p: ("select", p)  # noqa: E731
BATTERY = [
    ("search", "error ok", 10),
    ("search", "assistant", 10),
    ("search", '"tool output"', 5),
    ("search", '"tool bash"~2', 5),
    ("search", "+tool +output", 5),
    ("search", "error ok", 5, True, "classic"),
    ("search", "w00000 w00013 w00500", 10),
    ("search", "outp*", 5),
    ("search", "outpot~1", 5),
    ("search", "role:tool error", 5),
    ("count", "error"),
    ("facet_search", "error", "role"),
    ("search_sorted", "error", "turn_idx desc", 5),
    ("terms", "to", 10),
    SEL(q="error", rows=5),
    SEL(q="tool output", rows=3, start=2),
    SEL(q='"tool output"~1', rows=4, fq="role:tool"),
    SEL(q="error", rows=4, fq="role:tool", **{"facet.field": "role"}),
    SEL(q="{!q.op=AND}tool output", rows=3, **{"stats.field": "turn_idx"}),
    SEL(q="error", rows=3, fq="{!collapse field=role}"),
]


def _answers(idx) -> list:
    s = Searcher(str(idx), use_ray=False)
    try:
        return [
            repr(s.handle_select(args[0]) if name == "select" else getattr(s, name)(*args))
            for name, *args in BATTERY
        ]
    finally:
        s.close()


def _postings(idx, sid: int) -> pa.Table:
    m = Manifest.load(idx).data
    d = Path(idx) / m["config"].get("shards_dir", "shards") / f"shard={sid:05d}"
    files = sorted(d.glob("postings-*.parquet"))
    assert files
    return pa.concat_tables(pq.read_table(f) for f in files).sort_by(
        [("term", "ascending"), ("first_doc", "ascending")]
    )


def _sidecar_bytes(idx) -> bytes:
    st = Manifest.load(idx).data["stats"]
    return sidecar_path(Path(idx) / st["stats_file"]).read_bytes()


def _n_files(idx) -> dict[int, int]:
    """Postings files per shard dir: one per non-empty bucket."""
    m = Manifest.load(idx).data
    root = Path(idx) / m["config"].get("shards_dir", "shards")
    return {int(k): len(list((root / f"shard={int(k):05d}").glob("postings-*.parquet"))) for k in m["shards"]}


def _expected_width(paths: list[str], rows_per_bucket: int) -> int:
    rows = sum(pq.read_metadata(p).num_rows for p in paths)
    return min(build.N_BUCKETS, max(1, math.ceil(rows / rows_per_bucket)))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return write_transcripts(str(tmp_path_factory.mktemp("corpus")), N_CONV, N_FILES)


@pytest.fixture(scope="module")
def default_index(ray_session, corpus, tmp_path_factory):
    idx = tmp_path_factory.mktemp("default") / "index"
    build.build_index(corpus, idx, files_per_shard=FILES_PER_SHARD, resume=False)
    return idx


def test_shard_buckets_rule(monkeypatch):
    spec = lambda rows: build.FileSpec(pid=0, path="", rows=rows, base=0)  # noqa: E731
    monkeypatch.setattr(build, "ROWS_PER_BUCKET", 100)
    assert build.shard_buckets([]) == 1
    assert build.shard_buckets([spec(0)]) == 1
    assert build.shard_buckets([spec(100)]) == 1
    assert build.shard_buckets([spec(60), spec(41)]) == 2
    assert build.shard_buckets([spec(100 * build.N_BUCKETS + 1)]) == build.N_BUCKETS


def test_bucket_width_duel(ray_session, corpus, default_index, tmp_path, monkeypatch):
    monkeypatch.setattr(build, "ROWS_PER_BUCKET", SMALL)
    multi = tmp_path / "multi"
    build.build_index(corpus, multi, files_per_shard=FILES_PER_SHARD, resume=False)
    monkeypatch.undo()

    groups = [corpus[i : i + FILES_PER_SHARD] for i in range(0, N_FILES, FILES_PER_SHARD)]
    assert _n_files(default_index) == {sid: 1 for sid in range(len(groups))}
    for sid, g in enumerate(groups):
        # hundreds of terms: no bucket is empty
        assert _n_files(multi)[sid] == _expected_width(g, SMALL) > 1
        assert _postings(multi, sid).equals(_postings(default_index, sid))
    assert _sidecar_bytes(multi) == _sidecar_bytes(default_index)
    assert _answers(multi) == _answers(default_index)


def test_mixed_widths_append_then_compact(ray_session, corpus, default_index, tmp_path, monkeypatch):
    """A multi-bucket cold build, a default-width append and a compaction
    into one shard (which takes the union of the members' bucket files)
    answer like a fresh build of all the files."""
    idx = tmp_path / "mixed"
    half = N_FILES // 2
    monkeypatch.setattr(build, "ROWS_PER_BUCKET", SMALL)
    build.build_index(corpus[:half], idx, files_per_shard=FILES_PER_SHARD, resume=False)
    monkeypatch.undo()
    build.build_index(corpus, idx, files_per_shard=FILES_PER_SHARD)
    widths = _n_files(idx)
    assert widths[0] > 1 and widths[1] > 1 and widths[2] == widths[3] == 1
    compact_index(idx, max_shards=1)
    assert _answers(idx) == _answers(default_index)
