"""Line-dictionary codec ("lined") for line-structured text (source code).

The engine's partition-wide trained-dictionary stage (SURVEY.md §7.4:
"exploit cross-row redundancy PPMd can't see — partition-wide dictionaries
of repeated lines"): split the byte stream at newlines, dictionary-encode
whole lines (Arrow's C kernel), then:

- the line-id stream (u16/u32 LE bytes) → LZ (repeated multi-line blocks
  and duplicate files collapse to matches) or rANS, smallest wins;
- the distinct-line text → LZ + order-1 rANS;
- distinct-line offsets → delta/bit-pack.

On template-heavy source corpora this beats PPMd var.H (the reference
ceiling): repeated lines cost ~1.3 bytes each here vs ~2-4 bytes of
context-model output. The selector only picks it where it wins (CSV-like
data with unique lines falls back to plain LZ).
"""

from __future__ import annotations

import numpy as np

from .base import CodecError, pack_blob, read_uvarint, register, write_uvarint


def _best_inner(data: bytes, allow_lz: bool = True) -> bytes:
    """Best byte-stream blob. For large inputs, codecs are TRIALED on a
    64 KiB sample and only the winner encodes the full stream — full-size
    trials multiply memory traffic and collapse multi-worker scaling."""
    from .lz import encode_lz
    from .numeric import encode_raw
    from .rans import encode_rans0
    from .rans_ctx import encode_rans1

    from .rans import best_entropy_blob, estimate_rans_sizes

    n = len(data)
    if n < 256 or not allow_lz:
        return best_entropy_blob(data)
    if n <= 96 << 10:
        return min((best_entropy_blob(data), encode_lz(data)), key=len)
    # two-phase: estimate entropy sizes, trial lz on a mid-stream sample,
    # then ONE full encode of the winner
    mid = n // 2
    sample = data[mid : mid + (64 << 10)]
    _, r0, r1 = estimate_rans_sizes(data)
    lz_sample = len(encode_lz(sample))
    lz_est = int(lz_sample * (n / len(sample)) * 0.9)  # lz improves with window
    if lz_est < min(r0, r1, n):
        blob = encode_lz(data)
        if len(blob) < min(r0, r1, n + 16):
            return blob
    return best_entropy_blob(data)


def encode_lined(data: bytes | memoryview | np.ndarray) -> bytes:
    arr = np.frombuffer(data, dtype=np.uint8) if not isinstance(data, np.ndarray) else data
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    n = int(arr.size)
    raw = arr.tobytes()
    if n < 4096 or not (arr == 10).any():
        return pack_blob("lined", {"n": n, "m": 0}, _best_inner(raw))

    import pyarrow as pa

    nl = np.flatnonzero(arr == 10)
    offs = np.unique(np.concatenate(([0], nl + 1, [n]))).astype(np.int64)
    n_lines = int(offs.size) - 1
    lines = pa.Array.from_buffers(
        pa.large_binary(), n_lines, [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(raw)]
    )
    d = lines.dictionary_encode()
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    n_distinct = len(d.dictionary)
    if n_distinct > n_lines * 3 // 4:
        # lines mostly unique → dictionary is pure overhead
        return pack_blob("lined", {"n": n, "m": 0}, _best_inner(raw))

    from .numeric import encode_int_auto
    from .strings import strcol_from_arrow

    voff, vdata = strcol_from_arrow(d.dictionary)
    width = 2 if n_distinct <= 0xFFFF else 4
    code_bytes = codes.astype("<u2" if width == 2 else "<u4").tobytes()

    # fixed-width element stream: stride-aligned LZ candidates only
    # (misaligned matches on u16/u32 ids are noise — smaller AND faster)
    from .lz import encode_lz
    from .rans import best_entropy_blob

    cands = [best_entropy_blob(code_bytes)]
    if len(code_bytes) >= 256:
        cands.append(encode_lz(code_bytes, stride=width))
    cb = min(cands, key=len)
    ob = encode_int_auto(voff)
    vb = _best_inner(vdata)
    payload = b"".join(
        (write_uvarint(len(cb)), cb, write_uvarint(len(ob)), ob, vb)
    )
    meta = {"n": n, "m": 1, "L": n_lines, "D": n_distinct, "w": width}
    return pack_blob("lined", meta, payload)


def _decode_lined(meta: dict, payload: memoryview) -> bytes:
    from .base import decode_blob

    if meta["m"] == 0:
        return decode_blob(payload)
    n = meta["n"]
    clen, pos = read_uvarint(payload, 0)
    code_bytes = decode_blob(payload[pos : pos + clen])
    pos += clen
    olen, pos2 = read_uvarint(payload, pos)
    voff = np.asarray(decode_blob(payload[pos2 : pos2 + olen]), dtype=np.int64)
    if voff.size != meta["D"] + 1:
        raise CodecError("lined dictionary size mismatch")
    vdata = decode_blob(payload[pos2 + olen :])
    codes = np.frombuffer(code_bytes, dtype="<u2" if meta["w"] == 2 else "<u4").astype(
        np.int64
    )
    if codes.size != meta["L"]:
        raise CodecError("lined code count mismatch")
    # reconstruction via Arrow's C take kernel — the numpy gather needs
    # ~24B of int64 index temporaries per output byte and saturates memory
    # bandwidth under multi-worker decode
    import pyarrow as pa
    import pyarrow.compute as pc

    from .strings import checked_binary_values

    values = checked_binary_values(voff, vdata, "lined")
    taken = pc.take(values, pa.array(codes, type=pa.int64()))
    from .strings import strcol_from_arrow

    _, out = strcol_from_arrow(taken)
    if len(out) != n:
        raise CodecError("lined length mismatch")
    return out


register(18, "lined", _decode_lined)
