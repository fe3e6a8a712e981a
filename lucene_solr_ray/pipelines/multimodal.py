"""Multimodal-column plumbing: opaque binary payloads + typed metadata.

Treats a binary column as an opaque media payload moved through an
actor-pool `map_batches` stage — the Ray-side plumbing (schema, batch
sizing, actor signature, output layout) is real and tested; the actual
media decode is STUBBED (no image/audio libs in this container): a
deterministic fake "decoder" extracts byte-level features, and
`decode_image` raises NotImplementedError to mark the integration point.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

from .common import Pipeline, bucketed, pool, read


def decode_image(payload: bytes):
    """Real-decoder integration point.  PNG (stdlib zlib, 8-bit RGB/RGBA,
    all five scanline filters — pipelines/images.decode_png), baseline
    JPEG (pure-numpy JFIF: Huffman + dequant + IDCT — pipelines/jpeg.py),
    lossless WebP (VP8L — pipelines/webp.py) and the uncompressed BMP/PPM
    codecs are REAL; lossy-VP8 WebP, video and progressive JPEG remain
    unimplemented in this container — see FakeDecoder for the
    deterministic stand-in those tests use."""
    if payload[:8] == b"\x89PNG\r\n\x1a\n":
        from .images import decode_png

        return decode_png(payload)
    if payload[:2] == b"\xff\xd8":
        from .jpeg import decode_jpeg

        return decode_jpeg(payload)
    if payload[:4] == b"RIFF" and payload[8:12] == b"WEBP":
        from .webp import decode_webp

        return decode_webp(payload)
    if payload[:6] in (b"GIF87a", b"GIF89a"):
        from .gif import decode_gif

        return decode_gif(payload)
    if payload[:2] == b"BM":
        from .images import decode_bmp

        return decode_bmp(payload)
    if payload[:2] == b"P6":
        from .images import decode_ppm

        return decode_ppm(payload)
    raise NotImplementedError("only PNG/JPEG/WebP-lossless/GIF/BMP/PPM decode in this environment")


class FakeDecoder:
    """Actor-pool stage: 'decode' binary payloads → feature columns.

    State (here: nothing heavy; in a real decoder: model weights, codec
    contexts) is built once per actor in __init__; __call__ handles one
    Arrow batch with small batch_size because payloads are wide."""

    def __init__(self):
        self.crc = zlib.crc32

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        n_bytes = np.array([len(p) for p in payloads], dtype=np.int64)
        crc = np.array([self.crc(p) for p in payloads], dtype=np.int64)
        first = np.array([p[0] if p else -1 for p in payloads], dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_bytes": pa.array(n_bytes),
                "crc32": pa.array(crc),
                "first_byte": pa.array(first),
            }
        )


def media_features(sf_dir: str):
    """documents.text bytes stand in for an opaque media payload column."""

    def to_payload(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "payload": pa.array([t.encode() for t in texts], type=pa.binary()),
            }
        )

    out = (
        read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(to_payload, batch_format="pyarrow")
        .map_batches(FakeDecoder, batch_format="pyarrow", batch_size=256, concurrency=pool())
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


class FakeResizer:
    """Actor-pool 'resize' stage: deterministic byte-domain downsample
    (every k-th byte) standing in for an image resize — the Ray-side
    plumbing (binary in/binary out, small batches, actor state) is real."""

    def __init__(self, factor: int = 4):
        self.factor = factor

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        resized = [p[:: self.factor] for p in payloads]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "payload": pa.array(resized, type=pa.binary()),
                "orig_bytes": pa.array([len(p) for p in payloads], type=pa.int64()),
                "resized_bytes": pa.array([len(r) for r in resized], type=pa.int64()),
            }
        )


class FrameSampler:
    """Actor-pool 'frame sample' stage: split a payload into fixed-size
    frames and keep every `stride`-th — the video frame-sampling shape
    (1 row in → N frame rows out via a flat-map style batch fn)."""

    def __init__(self, frame_bytes: int = 64, stride: int = 2):
        self.frame_bytes = frame_bytes
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, frame_idx, frames = [], [], []
        for did, p in zip(batch.column("doc_id").to_pylist(), batch.column("payload").to_pylist()):
            chunks = [p[i : i + self.frame_bytes] for i in range(0, len(p), self.frame_bytes)]
            for j in range(0, len(chunks), self.stride):
                doc_ids.append(did)
                frame_idx.append(j)
                frames.append(chunks[j])
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "frame_idx": pa.array(frame_idx, type=pa.int64()),
                "frame": pa.array(frames, type=pa.binary()),
            }
        )


def media_pipeline(sf_dir: str):
    """Full multimodal chain: payload → resize → frame-sample → per-doc
    frame counts (decode stubbed; plumbing/schema/batch-sizing real)."""

    def to_payload(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "payload": pa.array([t.encode() for t in batch.column("text").to_pylist()], type=pa.binary()),
            }
        )

    def frame_counts(t: pa.Table) -> pa.Table:
        # combiner: per-batch frame counts per doc — only (doc_id, n) rows
        # leave the stage, never the frame payloads
        ids = t.column("doc_id").to_numpy()
        uniq, counts = np.unique(ids, return_counts=True)
        return pa.table({"doc_id": pa.array(uniq), "n_frames": pa.array(counts.astype(np.int64))})

    # a bucketed shuffle instead of the Ray Aggregate op (2-4 s fixed
    # cost per call — CLAUDE.md)
    def _sum_frames(g):
        return g.groupby("doc_id", as_index=False)["n_frames"].sum()

    frames = (
        read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(to_payload, batch_format="pyarrow")
        .map_batches(FakeResizer, batch_format="pyarrow", batch_size=128, concurrency=1)
        .map_batches(
            lambda t: t.select(["doc_id", "payload"]), batch_format="pyarrow"
        )
        .map_batches(FrameSampler, batch_format="pyarrow", batch_size=128, concurrency=1)
        .map_batches(frame_counts, batch_format="pyarrow")
    )
    agg = bucketed(frames, "doc_id", _sum_frames).to_pandas()
    agg["n_frames"] = agg["n_frames"].astype("int64")
    return agg.sort_values("doc_id").reset_index(drop=True)


# crc32 has no DuckDB twin → media_features stays rows-only; media_pipeline
# frame counts ARE SQL-derivable from byte lengths → gated.  strlen() is
# DuckDB's BYTE length (length() is characters) — the engine frames over
# UTF-8 bytes, and a zero-byte payload yields no frame row on either side.
MEDIA_PIPELINE_SQL = """
SELECT doc_id,
       CAST(CEIL(CEIL(CEIL(strlen(text) / 4.0) / 64.0) / 2.0) AS BIGINT) AS n_frames
FROM documents WHERE strlen(text) > 0 ORDER BY doc_id
"""

# --------------------------------------------------------------------------
# Media embedding → similarity search: the decode→embed→ANN chain a
# multimodal training pipeline runs.  The "encoder" is a deterministic
# byte-bigram histogram (model weights would load in __init__ exactly the
# same way); the similarity stage is the streaming brute-cosine scan.

EMB_DIM = 64


def _embed_bytes(payload: bytes, dim: int = EMB_DIM) -> np.ndarray:
    b = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    if b.size < 2:
        v = np.ones(dim, dtype=np.float64)
    else:
        keys = (b[:-1] * 31 + b[1:]) % dim
        v = np.bincount(keys, minlength=dim).astype(np.float64) + 1.0
    return v / np.linalg.norm(v)


class FakeEmbedder:
    """Actor-pool 'embedding model' stage: encoder state loads once per
    actor in __init__ (here: nothing heavy; for a real model: weights),
    __call__ embeds one batch of binary payloads."""

    def __init__(self, dim: int = EMB_DIM):
        self.dim = dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = [_embed_bytes(p, self.dim) for p in batch.column("payload").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "embedding": pa.array([v.astype(np.float32) for v in vecs], type=pa.list_(pa.float32())),
            }
        )


def media_embed_ann(sf_dir: str, k: int = 10):
    """payload → actor-pool embed → streaming cosine top-k against doc 0's
    embedding — one pass, per-batch local top-k, driver merges k×batches.
    Rows-only (the fake encoder has no SQL twin); pytest checks self-match
    and determinism."""
    q = _embed_bytes(_first_doc_text(sf_dir).encode())

    def to_payload(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "payload": pa.array(
                    [t.encode() for t in batch.column("text").to_pylist()], type=pa.binary()
                ),
            }
        )

    def score(batch: pa.Table) -> pa.Table:
        m = np.stack([np.asarray(v, dtype=np.float64) for v in batch.column("embedding").to_pylist()])
        sims = m @ q
        order = np.lexsort((batch.column("doc_id").to_numpy(), -sims))[:k]
        return pa.table(
            {
                "doc_id": pa.array(batch.column("doc_id").to_numpy()[order]),
                "sim": pa.array(sims[order]),
            }
        )

    parts = (
        read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(to_payload, batch_format="pyarrow")
        .map_batches(FakeEmbedder, batch_format="pyarrow", batch_size=256, concurrency=pool())
        .map_batches(score, batch_format="pyarrow")
        .to_pandas()
    )
    top = parts.sort_values(["sim", "doc_id"], ascending=[False, True]).head(k).reset_index(drop=True)
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    top["doc_id"] = top["doc_id"].astype("int64")
    return top[["rank", "doc_id", "sim"]]


def _first_doc_text(sf_dir: str) -> str:
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"], filters=[("doc_id", "==", 0)]
    )
    return t.column("text")[0].as_py()


PIPELINES: dict[str, Pipeline] = {
    "media_features": Pipeline(media_features, None, "binary-payload actor-pool decode plumbing (stubbed decoder)"),
    "media_pipeline": Pipeline(media_pipeline, MEDIA_PIPELINE_SQL, "resize → frame-sample multimodal chain (stubbed ops, real plumbing)"),
    "media_embed_ann": Pipeline(media_embed_ann, None, "payload → actor-pool embed → streaming cosine top-k (decode→embed→ANN chain)"),
}
