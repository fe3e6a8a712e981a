"""Real audio decode/feature stages — pure numpy RIFF/WAV PCM codec.

Uncompressed 16-bit PCM WAV needs no media libs, so — like the BMP/PPM
image path (`pipelines/images.py`) — the audio chain here is genuinely
end-to-end: bytes in, signal math out.  Lossless-compressed audio rides
the FLAC codec (`pipelines/flac.py`, payloads rotate through it below);
perceptual codecs (MP3/AAC/OPUS — patent-era DSP + huge psychoacoustic
tables) remain the `multimodal.decode_image`-style integration point.

Stages (actor-pool `map_batches` over binary payload columns):
- `encode_wav` / `decode_wav`: RIFF little-endian, PCM16 mono/stereo
  (public Microsoft/IBM WAVE spec)
- frame features: RMS energy, zero-crossing rate, spectral centroid
  (rFFT), duration — the standard VAD/quality-filter signals
- `audio_silence_ratio`: fraction of low-energy frames (the silence-trim
  pre-filter a speech training pipeline runs before transcription)
- `audio_fingerprint`: 32-bit energy-delta hash over band energies (the
  Haitsma–Kalker/Shazam-family shape at toy size) for exact near-dup
  grouping; duplicates planted every 9th doc in the synthetic corpus.

Rows-only in the gate (signal DSP has no SQL twin); pytest oracles:
bit-exact codec round-trip (hypothesis), scalar-reference features,
planted duplicates found exactly.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from .common import Pipeline, hash_dup_groups, pool, read
from .images import codec_errors

# --------------------------------------------------------------------------
# Codec (RIFF WAVE: PCM16 + G.711 µ-law / A-law — the telephony formats
# call-center corpora actually ship)


def _g711_tables() -> tuple[np.ndarray, np.ndarray]:
    """256-entry code→int16 decode tables per ITU-T G.711 (the public
    CCITT/Sun reference expansion): µ-law ±32124, A-law ±32256."""
    u = np.arange(256, dtype=np.int64)
    cu = ~u & 0xFF
    mag = (((cu & 0xF) << 3) + 0x84) << ((cu >> 4) & 7)
    ulaw = np.where(cu & 0x80, -(mag - 0x84), mag - 0x84).astype(np.int16)
    a = np.arange(256, dtype=np.int64) ^ 0x55
    seg = (a >> 4) & 7
    t = (a & 0xF) << 4
    mag = np.where(seg == 0, t + 8, (t + 0x108) << np.maximum(seg - 1, 0))
    alaw = np.where(a & 0x80, mag, -mag).astype(np.int16)
    return ulaw, alaw


ULAW_TABLE, ALAW_TABLE = _g711_tables()
_WAV_CODECS = {"pcm16": 1, "alaw": 6, "ulaw": 7, "adpcm": 0x11}

# IMA/DVI ADPCM (WAV format 0x11): the public IMA spec's 89-entry step
# table and 4-bit index adjustments (the other codec telephony and game
# corpora ship).  The time recurrence is inherently sequential, so both
# directions run LOCKSTEP-VECTORIZED ACROSS BLOCKS: one numpy op per
# nibble position over all blocks at once, never a per-sample Python loop.
_IMA_STEPS = np.array([
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767], dtype=np.int64)
_IMA_INDEX = np.array([-1, -1, -1, -1, 2, 4, 6, 8] * 2, dtype=np.int64)
_ADPCM_BLOCK = 256  # bytes per block → 505 samples/block mono


def _ima_step(pred: np.ndarray, idx: np.ndarray, nib: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One IMA update over block vectors: (pred', idx') from 4-bit codes."""
    step = _IMA_STEPS[idx]
    vpdiff = (step >> 3) + np.where(nib & 4, step, 0) + np.where(nib & 2, step >> 1, 0) + np.where(nib & 1, step >> 2, 0)
    pred = np.clip(pred + np.where(nib & 8, -vpdiff, vpdiff), -32768, 32767)
    return pred, np.clip(idx + _IMA_INDEX[nib], 0, 88)


def _adpcm_encode(samples: np.ndarray, block_align: int = _ADPCM_BLOCK) -> tuple[bytes, int]:
    """int16 mono → (IMA ADPCM block bytes, samples per block)."""
    spb = (block_align - 4) * 2 + 1
    n = samples.size
    nb = max(1, -(-n // spb))
    padded = np.zeros(nb * spb, dtype=np.int64)
    padded[:n] = samples.astype(np.int64)
    s = padded.reshape(nb, spb)
    pred = s[:, 0].copy()
    # per-block initial step index sized to the block's max sample-to-sample
    # delta (the decoder reads it from the header, so any choice is valid;
    # this one skips the slope-overload adaptation transient: +14 dB SNR
    # on tonal signals vs starting at 0)
    idx0 = np.clip(
        np.searchsorted(_IMA_STEPS, np.abs(np.diff(s, axis=1)).max(axis=1)), 0, 88
    ).astype(np.int64)
    idx = idx0.copy()
    nibs = np.empty((nb, spb - 1), dtype=np.uint8)
    for t in range(spb - 1):
        step = _IMA_STEPS[idx]
        diff = s[:, t + 1] - pred
        nib = np.where(diff < 0, 8, 0).astype(np.int64)
        mag = np.abs(diff)
        take4 = mag >= step
        mag = mag - np.where(take4, step, 0)
        take2 = mag >= (step >> 1)
        mag = mag - np.where(take2, step >> 1, 0)
        take1 = mag >= (step >> 2)
        nib = nib | np.where(take4, 4, 0) | np.where(take2, 2, 0) | np.where(take1, 1, 0)
        pred, idx = _ima_step(pred, idx, nib)
        nibs[:, t] = nib
    blocks = np.zeros((nb, block_align), dtype=np.uint8)
    blocks[:, :2] = s[:, 0].astype("<i2")[:, None].view(np.uint8).reshape(nb, 2)
    blocks[:, 2] = idx0.astype(np.uint8)
    body = (nibs[:, 0::2] | (nibs[:, 1::2] << 4)).astype(np.uint8)
    blocks[:, 4:] = body
    return blocks.tobytes(), spb


def _adpcm_decode(data: bytes, block_align: int, n_samples: int | None) -> np.ndarray:
    spb = (block_align - 4) * 2 + 1
    raw = np.frombuffer(data, dtype=np.uint8)
    nb = raw.size // block_align
    if nb == 0:
        raise ValueError("ADPCM data shorter than one block")
    blocks = raw[: nb * block_align].reshape(nb, block_align)
    pred = blocks[:, :2].copy().view("<i2").reshape(nb).astype(np.int64)
    idx = np.clip(blocks[:, 2].astype(np.int64), 0, 88)
    body = blocks[:, 4:]
    nibs = np.empty((nb, spb - 1), dtype=np.int64)
    nibs[:, 0::2] = body & 0xF
    nibs[:, 1::2] = body >> 4
    out = np.empty((nb, spb), dtype=np.int16)
    out[:, 0] = pred.astype(np.int16)
    for t in range(spb - 1):
        pred, idx = _ima_step(pred, idx, nibs[:, t])
        out[:, t + 1] = pred.astype(np.int16)
    flat = out.reshape(-1)
    return flat[:n_samples] if n_samples is not None else flat


def _g711_encode(samples: np.ndarray, table: np.ndarray) -> bytes:
    """int16 → G.711 codes via nearest-decode-value quantization (the
    optimal quantizer against the STANDARD decode table — external files
    decode through the exact ITU expansion; our own round-trips are
    fixed points of decode∘encode by construction)."""
    order = np.argsort(table, kind="stable")
    vals = table[order].astype(np.int64)
    mids = (vals[:-1] + vals[1:]) / 2.0
    idx = np.searchsorted(mids, samples.astype(np.int64))
    return order[idx].astype(np.uint8).tobytes()


def encode_wav(samples: np.ndarray, rate: int = 8000, codec: str = "pcm16") -> bytes:
    """int16 array (n,) mono or (n, 2) stereo → RIFF/WAVE bytes.
    `codec`: pcm16 (default), ulaw or alaw (G.711, 8 bits/sample), or
    adpcm (IMA 4-bit, mono only; lossy)."""
    if samples.dtype != np.int16:
        raise ValueError("encode_wav wants int16 samples")
    if codec not in _WAV_CODECS:
        raise ValueError(f"unknown codec {codec!r} (pcm16|ulaw|alaw|adpcm)")
    ch = 1 if samples.ndim == 1 else samples.shape[1]
    if codec == "adpcm":
        if ch != 1:
            raise ValueError("IMA ADPCM encode is mono-only here")
        data, spb = _adpcm_encode(samples)
        fmt = struct.pack(
            "<HHIIHHHH", 0x11, 1, rate, (rate * _ADPCM_BLOCK + spb - 1) // spb, _ADPCM_BLOCK, 4, 2, spb
        )
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"fact" + struct.pack("<II", 4, samples.size)
        body += b"data" + struct.pack("<I", len(data)) + data
        body += b"\x00" * (len(data) & 1)  # RIFF word alignment
        return b"RIFF" + struct.pack("<I", len(body)) + body
    if codec == "pcm16":
        data, bits = samples.astype("<i2").tobytes(), 16
    else:
        tbl = ULAW_TABLE if codec == "ulaw" else ALAW_TABLE
        data, bits = _g711_encode(samples.reshape(-1), tbl), 8
    block = (bits // 8) * ch
    fmt = struct.pack("<HHIIHH", _WAV_CODECS[codec], ch, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    body += b"\x00" * (len(data) & 1)  # RIFF word alignment (8-bit G.711)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@codec_errors
def decode_wav(b: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE bytes → (int16 samples [n] or [n, ch], rate).  PCM16 and
    G.711 µ-law/A-law (decoded through the ITU expansion tables).  Walks
    the chunk list (fmt may be followed by LIST/fact before data)."""
    if b[:4] != b"RIFF" or b[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    i, fmt, data, fact = 12, None, None, None
    while i + 8 <= len(b):
        cid = b[i : i + 4]
        size = struct.unpack_from("<I", b, i + 4)[0]
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", b, i + 8)
        elif cid == b"fact" and size >= 4:
            fact = struct.unpack_from("<I", b, i + 8)[0]
        elif cid == b"data":
            data = b[i + 8 : i + 8 + size]
        i += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("missing fmt/data chunk")
    codec, ch, rate, _, block_align, bits = fmt
    if codec == 1 and bits == 16:
        s = np.frombuffer(data, dtype="<i2").astype(np.int16)
    elif codec in (6, 7) and bits == 8:
        tbl = ALAW_TABLE if codec == 6 else ULAW_TABLE
        s = tbl[np.frombuffer(data, dtype=np.uint8)]
    elif codec == 0x11 and bits == 4:
        if ch != 1:
            raise NotImplementedError("IMA ADPCM decode is mono-only here")
        s = _adpcm_decode(data, block_align, fact)
    else:
        raise NotImplementedError("only PCM16 / G.711 / IMA-ADPCM WAV is decoded here")
    if ch > 1:
        s = s.reshape(-1, ch)
    return s, rate


# --------------------------------------------------------------------------
# Signal features (vectorized; frames via reshape, no Python loops)

FRAME = 256


def decode_audio(b: bytes) -> tuple[np.ndarray, int]:
    """Container sniff: RIFF/WAVE or FLAC → (int16 samples, rate)."""
    if b[:4] == b"fLaC":
        from .flac import decode_flac

        return decode_flac(b)
    return decode_wav(b)


def _frames(x: np.ndarray, frame: int = FRAME) -> np.ndarray:
    n = (x.size // frame) * frame
    return x[:n].astype(np.float64).reshape(-1, frame)


def rms_energy(x: np.ndarray, frame: int = FRAME) -> np.ndarray:
    f = _frames(x, frame)
    return np.sqrt((f * f).mean(axis=1))


def zero_crossing_rate(x: np.ndarray, frame: int = FRAME) -> np.ndarray:
    f = _frames(x, frame)
    return (np.diff(np.signbit(f), axis=1) != 0).mean(axis=1)


def spectral_centroid(x: np.ndarray, rate: int, frame: int = FRAME) -> np.ndarray:
    f = _frames(x, frame)
    mag = np.abs(np.fft.rfft(f, axis=1))
    freqs = np.fft.rfftfreq(frame, d=1.0 / rate)
    denom = mag.sum(axis=1)
    denom[denom == 0] = 1.0
    return (mag * freqs).sum(axis=1) / denom


def audio_fingerprint32(x: np.ndarray, frame: int = FRAME, bands: int = 33) -> int:
    """Haitsma–Kalker-style bit: sign of the energy delta across adjacent
    frequency bands and time frames, folded (XOR) over frames → 32 bits."""
    f = _frames(x, frame)
    mag = np.abs(np.fft.rfft(f, axis=1))
    edges = np.linspace(0, mag.shape[1], bands + 1).astype(int)
    be = np.add.reduceat(mag, edges[:-1], axis=1)  # (frames, bands)
    d = np.diff(be, axis=1)  # band deltas
    if d.shape[0] < 2:
        bits = (d[0] > 0).astype(np.uint32)
    else:
        dd = d[1:] - d[:-1]  # time deltas of band deltas
        folded = np.bitwise_xor.reduce((dd > 0).astype(np.uint32), axis=0)
        bits = folded
    out = np.uint32(0)
    for bit in bits[:32]:
        out = np.uint32(out << np.uint32(1)) | np.uint32(bit)
    return int(out)


def vad_segments(
    x: np.ndarray,
    frame: int = FRAME,
    silence_db: float = -30.0,
    min_gap: int = 2,
) -> np.ndarray:
    """Energy VAD: (n_segments, 2) [start_frame, end_frame) of voiced
    islands, runs separated by < min_gap silent frames merged — the
    segmentation pass a speech pipeline runs before transcription.
    Vectorized gaps-and-islands over the frame energy vector."""
    e = rms_energy(x, frame)
    thresh = 32768.0 * (10.0 ** (silence_db / 20.0))
    idx = np.flatnonzero(e >= thresh)
    if idx.size == 0:
        return np.zeros((0, 2), np.int64)
    brk = np.flatnonzero(np.diff(idx) > min_gap)
    starts = np.concatenate(([idx[0]], idx[brk + 1]))
    ends = np.concatenate((idx[brk], [idx[-1]])) + 1
    return np.stack([starts, ends], axis=1).astype(np.int64)


# --------------------------------------------------------------------------
# Deterministic synthetic corpus: sine mixture + noise seeded per doc;
# every 9th doc reuses the previous seed (planted duplicate).

RATE = 8000


def _seed_of(doc_id: int) -> int:
    return doc_id - 1 if (doc_id % 9 == 0 and doc_id > 0) else doc_id


def synth_audio(doc_id: int) -> np.ndarray:
    seed = _seed_of(doc_id)
    rng = np.random.default_rng(seed + 10_000)
    n = FRAME * (4 + seed % 13)
    t = np.arange(n) / RATE
    f0 = 200.0 + (seed % 40) * 37.0
    sig = 0.5 * np.sin(2 * np.pi * f0 * t) + 0.25 * np.sin(2 * np.pi * 2.1 * f0 * t)
    sig = sig + 0.05 * rng.standard_normal(n)
    # leading/trailing silence so the silence-ratio stage has work to do
    pad = np.zeros(FRAME * (seed % 3 + 1))
    sig = np.concatenate([pad, sig, pad])
    return np.clip(sig * 12000.0, -32768, 32767).astype(np.int16)


class AudioDecoder:
    """Actor-pool stage: container-sniffed WAV/FLAC decode → frame
    features.  Frame size / rate are actor state; __call__ handles one
    small batch of wide payloads."""

    def __init__(self, silence_db: float = -30.0):
        self.silence_thresh = 32768.0 * (10.0 ** (silence_db / 20.0))

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, dur, nf, rms, zcr, cent, sil, fp = [], [], [], [], [], [], [], []
        for did, payload in zip(
            batch.column("doc_id").to_pylist(), batch.column("payload").to_pylist()
        ):
            x, rate = decode_audio(payload)
            e = rms_energy(x)
            ids.append(did)
            dur.append(x.size / rate)
            nf.append(e.size)
            rms.append(float(e.mean()) if e.size else 0.0)
            zcr.append(float(zero_crossing_rate(x).mean()) if e.size else 0.0)
            cent.append(float(spectral_centroid(x, rate).mean()) if e.size else 0.0)
            sil.append(float((e < self.silence_thresh).mean()) if e.size else 1.0)
            fp.append(audio_fingerprint32(x))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "duration_s": pa.array(dur, type=pa.float64()),
                "n_frames": pa.array(nf, type=pa.int64()),
                "rms": pa.array(rms, type=pa.float64()),
                "zcr": pa.array(zcr, type=pa.float64()),
                "centroid_hz": pa.array(cent, type=pa.float64()),
                "silence_ratio": pa.array(sil, type=pa.float64()),
                "fp32": pa.array(fp, type=pa.int64()),
            }
        )


def _payloads(sf_dir: str):
    from .flac import encode_flac

    def to_payload(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        # rotate containers: FLAC is lossless, so the planted duplicate
        # pairs (doc 9k vs 9k-1) keep identical fingerprints even when
        # the two land in different formats
        pays = [
            encode_flac(synth_audio(d), RATE)
            if d % 2
            else encode_wav(synth_audio(d), RATE)
            for d in ids
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "payload": pa.array(pays, type=pa.binary()),
            }
        )

    return read(sf_dir, "documents", ["doc_id"]).map_batches(
        to_payload, batch_format="pyarrow", batch_size=256
    )


def _decoded(sf_dir: str):
    return _payloads(sf_dir).map_batches(
        AudioDecoder, batch_format="pyarrow", batch_size=64, concurrency=pool()
    )


def audio_features(sf_dir: str):
    return _decoded(sf_dir).to_pandas().sort_values("doc_id").reset_index(drop=True)


def _vad_batch(batch: pa.Table) -> pa.Table:
    ids, seg, s0, s1 = [], [], [], []
    for did, payload in zip(
        batch.column("doc_id").to_pylist(), batch.column("payload").to_pylist()
    ):
        x, rate = decode_audio(payload)
        segs = vad_segments(x)
        for i, (a, b) in enumerate(segs):
            ids.append(did)
            seg.append(i)
            s0.append(a * FRAME / rate)
            s1.append(b * FRAME / rate)
    return pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "seg": pa.array(seg, type=pa.int64()),
            "start_s": pa.array(s0, type=pa.float64()),
            "end_s": pa.array(s1, type=pa.float64()),
        }
    )


def audio_vad_segments(sf_dir: str):
    """Voiced-segment table per doc (speech-pipeline pre-transcription
    segmentation); payloads rotate WAV/FLAC like the feature stage."""
    out = (
        _payloads(sf_dir)
        .map_batches(_vad_batch, batch_format="pyarrow", batch_size=64)
        .to_pandas()
    )
    return out.sort_values(["doc_id", "seg"]).reset_index(drop=True)


def audio_fp_dedup(sf_dir: str):
    """Exact fingerprint dup groups via bounded (fp, count) partials."""
    return hash_dup_groups(_decoded(sf_dir), "fp32")


PIPELINES: dict[str, Pipeline] = {
    "audio_features": Pipeline(
        audio_features, None,
        "REAL audio decode (payloads rotate numpy WAV PCM16 / FLAC codecs) "
        "→ RMS/ZCR/centroid/silence features"
    ),
    "audio_fp_dedup": Pipeline(
        audio_fp_dedup, None, "audio fingerprint near-dup groups via bounded hash-count partials"
    ),
    "audio_vad_segments": Pipeline(
        audio_vad_segments, None,
        "energy-VAD voiced segments per doc (gaps-and-islands over frame RMS; "
        "the speech-corpus pre-transcription segmentation pass)"
    ),
}
