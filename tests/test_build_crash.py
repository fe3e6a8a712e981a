"""A worker that dies inside an invert task: Ray retries the task, the
per-pid segment write is tmp + rename and the shard's merges only start
from the retried outputs, so the committed index equals an uncrashed
build's — stats sidecar bytes, postings and norms segments."""

import os
from pathlib import Path

import pyarrow.parquet as pq

from lucene_solr_ray.fixtures import write_transcripts
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.manifest import Manifest
from lucene_solr_ray.index.segments import segment_path
from lucene_solr_ray.index.stats_sidecar import sidecar_path


def crash_once(marker: str):
    """A pass-through token filter whose first call, in whichever worker
    makes it, creates `marker` and kills that worker process.  A closure,
    so it pickles by value: workers need not import this test module."""

    def flt(toks):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return toks
        os._exit(1)

    return flt


def _committed(idx: Path) -> tuple[bytes, dict, dict]:
    m = Manifest.load(idx).data
    assert m["status"] == "committed"
    sidecar = sidecar_path(idx / m["stats"]["stats_file"]).read_bytes()
    postings = {
        str(f.relative_to(idx)): pq.read_table(f)
        for f in sorted((idx / "shards").glob("shard=*/postings-*.parquet"))
    }
    norms = {pid: pq.read_table(segment_path(idx, int(pid))) for pid in m["segments"]}
    return sidecar, postings, norms


def test_worker_death_in_invert_task_is_retried(ray_session, tmp_path):
    paths = write_transcripts(str(tmp_path / "corpus"), 60, 4)
    crashed = tmp_path / "crash.marker"
    kw = dict(files_per_shard=2, resume=False, analyzer_id="crash_once")
    build_index(paths, tmp_path / "crashed", token_filter=crash_once(str(crashed)), **kw)
    assert crashed.exists()  # one worker did die

    never = tmp_path / "never.marker"
    never.touch()  # the same filter, already spent: no crash
    build_index(paths, tmp_path / "clean", token_filter=crash_once(str(never)), **kw)

    got, want = _committed(tmp_path / "crashed"), _committed(tmp_path / "clean")
    assert got[0] == want[0]
    assert got[1].keys() == want[1].keys() and all(got[1][k].equals(want[1][k]) for k in want[1])
    assert got[2].keys() == want[2].keys() and all(got[2][k].equals(want[2][k]) for k in want[2])
