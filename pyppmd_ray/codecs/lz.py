"""From-scratch LZ77 + rANS block codec ("lz").

This is the engine's high-ratio general-purpose codec — the role PPMd's
adaptive context model plays in the reference. Where the reference predicts
one byte at a time from suffix contexts (`/root/reference/src/lib/ppmd/
Ppmd7Enc.c:77-185`, inherently sequential), this codec factors the block
into (literal-run, match) sequences against the full block window and
entropy-codes the token streams with the static rANS stage.

Design (public knowledge: LZ77; zstd's sequence/stream architecture as
described in RFC 8878 — format here is the engine's own):
- match finding (numpy): 6-gram and 16-gram hash tables built from one
  8-gram pack; candidate = nearest previous position with the same hash,
  found by one sort per table;
- greedy parse (C, ``kernels.c``): per position, probe the candidates and
  keep the best by net bit gain; the probes verify and extend every
  candidate, so hash collisions only cost a short or failed match;
- sequences = (lit_len, match_len, offset) with log2-bucket codes + raw
  extra bits (bit-packed in C); codes and literals rANS-coded when smaller
  than raw;
- decode expands the sequences in C, checking every length and offset
  against the output and literal bounds.

The Python/numpy parse and expand loops these replaced are kept in
``tests/numpy_oracle.py``, and the tests hold the two byte-identical.
"""

from __future__ import annotations

import numpy as np

from .base import CodecError, pack_blob, register, read_uvarint, write_uvarint
from .native import ffi, lib
from .numeric import encode_raw, pack_varbits, unpack_varbits

MIN_MATCH = 5  # kernels.c hard-codes the same
_U64 = np.uint64
_I64 = np.int64


def _best_bytes_blob(data: bytes) -> bytes:
    if len(data) < 64:
        return encode_raw(data)
    from .rans import best_entropy_blob

    return best_entropy_blob(data)


# ------------------------------------------------------- length/offset codes

def _bitlen(v: np.ndarray) -> np.ndarray:
    """Exact bit length for int64 values >= 1 (v < 2**53)."""
    return np.frexp(v.astype(np.float64))[1].astype(_I64)


def _val_codes(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """v >= 0 → (code, extra, width): direct 0..15, else 12+bitlen bucket."""
    code = v.astype(_I64).copy()
    extra = np.zeros(v.size, dtype=_I64)
    width = np.zeros(v.size, dtype=_I64)
    big = v >= 16
    if big.any():
        bl = _bitlen(v[big])
        code[big] = 12 + bl
        width[big] = bl - 1
        extra[big] = v[big] - (np.int64(1) << (bl - 1))
    return code, extra, width


def _val_widths(code: np.ndarray) -> np.ndarray:
    w = np.zeros(code.size, dtype=_I64)
    big = code >= 16
    w[big] = code[big] - 13
    return w


def _val_decode(code: np.ndarray, extra: np.ndarray) -> np.ndarray:
    v = code.astype(_I64).copy()
    big = code >= 16
    v[big] = (np.int64(1) << (code[big] - 13)) + extra[big]
    return v


def _off_codes(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """v >= 1 → (code=bitlen, extra=v-2^(code-1), width=code-1)."""
    bl = _bitlen(v)
    return bl, v - (np.int64(1) << (bl - 1)), bl - 1


def _off_widths(code: np.ndarray) -> np.ndarray:
    return (code - 1).astype(_I64)


def _off_decode(code: np.ndarray, extra: np.ndarray) -> np.ndarray:
    return (np.int64(1) << (code - 1)) + extra


# ------------------------------------------------------------ match finding

def _grams_u64(data: np.ndarray, k: int) -> np.ndarray:
    """k<=8: exact little-endian pack; k>8: polynomial hash (collisions
    are fine — candidates are verified by extension)."""
    n = data.size - k + 1
    if n <= 0:
        return np.zeros(0, dtype=_U64)
    g = np.zeros(n, dtype=_U64)
    if k <= 8:
        for j in range(k):
            g |= data[j : j + n].astype(_U64) << _U64(8 * j)
        return g
    prime = np.uint64(0x100000001B3)
    for j in range(k):
        g = g * prime + data[j : j + n].astype(_U64)
    return g


_GOLD = np.uint64(0x9E3779B97F4A7C15)
_POS_BITS = 24  # max 16M positions per parse segment
_POS_MASK = np.uint64((1 << _POS_BITS) - 1)


def _prev_from_hash(h: np.ndarray, stride: int = 1) -> np.ndarray:
    """Nearest previous position with the same 40-bit hash.

    Single in-place sort of (hash << 24 | pos) — the position rides in the
    low bits, so equal-hash runs come out position-ascending and no argsort
    permutation is needed. Candidates are verified later by extension from
    length 0 (hash collisions just yield a short/failed match).

    ``stride > 1``: only stride-aligned positions participate (for fixed-
    width element streams like u16 line ids, misaligned matches are noise
    — dropping them is both faster AND smaller; the wire format is
    unchanged, offsets/lengths stay byte-granular)."""
    n = h.size
    if n <= 1:
        return np.full(max(n, 0), -1, dtype=np.int32)
    cand = np.full(n, -1, dtype=np.int32)
    key = h[::stride] << np.uint64(_POS_BITS)
    key |= np.arange(0, n, stride, dtype=_U64)
    key.sort()
    pos = (key & _POS_MASK).astype(np.int32)
    key >>= np.uint64(_POS_BITS)  # the hashes, in sorted order
    same = key[1:] == key[:-1]
    cand[pos[1:][same]] = pos[:-1][same]
    return cand


def _match_candidates(data: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g8, c6, c16): the little-endian 8-byte pack at every position, and
    the nearest earlier position with the same 6-gram / 16-gram hash."""
    # one 8-gram pack pass feeds BOTH tables: the 6-gram is its low 48
    # bits; the 16-gram hash mixes g8[i] with g8[i+8] (saves ~14 full-array
    # passes vs building each gram independently; the 2 tail positions the
    # g8 window can't cover are a negligible candidate loss)
    g8 = _grams_u64(data, 8)
    shift = np.uint64(64 - 40)
    # the hash arrays are temporaries, freed as soon as each table is built
    c6 = _prev_from_hash(((g8 & np.uint64(0xFFFFFFFFFFFF)) * _GOLD) >> shift, stride)
    if g8.size > 8:
        c16 = _prev_from_hash(
            ((g8[:-8] * _GOLD) ^ (g8[8:] * np.uint64(0xC2B2AE3D27D4EB4F))) >> shift, stride
        )
    else:
        c16 = np.full(0, -1, dtype=np.int32)
    return g8, c6, c16


def lz_parse(
    data: np.ndarray, stride: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Greedy parse → (lit_lens, match_lens, offsets, literal bytes), the
    first three as int32 arrays. The parse loop is ``lz_parse`` in
    ``kernels.c``; its comment gives the decision rule."""
    data = np.ascontiguousarray(data, dtype=np.uint8)
    n = int(data.size)
    if n >= 1 << _POS_BITS:
        raise CodecError("lz_parse segment too large; encode_lz must chunk")
    g8, c6, c16 = _match_candidates(data, stride)
    # every match is at least MIN_MATCH bytes long
    seqs = np.empty((3, n // MIN_MATCH + 1), dtype=np.int32)
    lits = np.empty(n, dtype=np.uint8)
    nlit = ffi.new("int64_t *")
    S = lib.lz_parse(
        ffi.from_buffer("uint8_t[]", data), n, ffi.from_buffer("uint64_t[]", g8),
        ffi.from_buffer("int32_t[]", c6), c6.size, ffi.from_buffer("int32_t[]", c16), c16.size,
        ffi.from_buffer("int32_t[]", seqs[0]), ffi.from_buffer("int32_t[]", seqs[1]),
        ffi.from_buffer("int32_t[]", seqs[2]), ffi.from_buffer("uint8_t[]", lits), nlit,
    )
    return seqs[0, :S], seqs[1, :S], seqs[2, :S], lits[: nlit[0]]


def encode_lz(data: bytes | memoryview | np.ndarray, stride: int = 1) -> bytes:
    arr = np.frombuffer(data, dtype=np.uint8) if not isinstance(arr_in := data, np.ndarray) else data
    n = int(arr.size)
    if n < 32:
        return pack_blob("lz", {"n": n, "S": -1}, encode_raw(bytes(arr.tobytes())))
    if n >= 1 << _POS_BITS:
        # multi-segment: independent windows of <16M positions each
        seg = ((1 << _POS_BITS) - 1) // stride * stride
        parts = []
        for s in range(0, n, seg):
            child = encode_lz(arr[s : s + seg], stride=stride)
            parts.append(write_uvarint(len(child)) + child)
        return pack_blob("lz", {"n": n, "S": -2}, b"".join(parts))

    ll, ml, of, lits = lz_parse(arr, stride=stride)
    S = int(ll.size)
    ll = ll.astype(_I64)
    ml = ml.astype(_I64) - MIN_MATCH
    of = of.astype(_I64)
    llc, lle, llw = _val_codes(ll)
    mlc, mle, mlw = _val_codes(ml)
    ofc, ofe, ofw = _off_codes(of) if S else (np.zeros(0, _I64),) * 3

    parts = [
        _best_bytes_blob(llc.astype(np.uint8).tobytes()),
        _best_bytes_blob(mlc.astype(np.uint8).tobytes()),
        _best_bytes_blob(ofc.astype(np.uint8).tobytes()),
        pack_varbits(lle, llw) + pack_varbits(mle, mlw) + pack_varbits(ofe, ofw),
        _best_bytes_blob(lits.tobytes()),
    ]
    payload = b"".join(write_uvarint(len(p)) + p for p in parts)
    return pack_blob("lz", {"n": n, "S": S, "L": int(lits.size)}, payload)


def _decode_lz(meta: dict, payload: memoryview) -> bytes:
    from .base import decode_blob

    n, S = meta["n"], meta["S"]
    if S == -1:
        return decode_blob(payload)
    if S == -2:
        out = bytearray()
        pos = 0
        while pos < len(payload):
            blen, pos = read_uvarint(payload, pos)
            out += decode_blob(payload[pos : pos + blen])
            pos += blen
        if len(out) != n:
            raise CodecError("lz multi-segment length mismatch")
        return bytes(out)
    parts: list[memoryview] = []
    pos = 0
    for _ in range(5):
        plen, pos = read_uvarint(payload, pos)
        parts.append(payload[pos : pos + plen])
        pos += plen
    llc = np.frombuffer(decode_blob(parts[0]), dtype=np.uint8).astype(_I64)
    mlc = np.frombuffer(decode_blob(parts[1]), dtype=np.uint8).astype(_I64)
    ofc = np.frombuffer(decode_blob(parts[2]), dtype=np.uint8).astype(_I64)
    if not (llc.size == mlc.size == ofc.size == S):
        raise CodecError("lz stream count mismatch")
    extras = parts[3]
    llw, mlw, ofw = _val_widths(llc), _val_widths(mlc), _off_widths(ofc)
    nb_ll = (int(llw.sum()) + 7) // 8
    nb_ml = (int(mlw.sum()) + 7) // 8
    if len(extras) != nb_ll + nb_ml + (int(ofw.sum()) + 7) // 8:
        raise CodecError("lz extra-bits length mismatch")
    lle = unpack_varbits(extras[:nb_ll], llw).astype(_I64)
    mle = unpack_varbits(extras[nb_ll : nb_ll + nb_ml], mlw).astype(_I64)
    ofe = unpack_varbits(extras[nb_ll + nb_ml :], ofw).astype(_I64)
    ll = np.ascontiguousarray(_val_decode(llc, lle), dtype=_I64)
    ml = np.ascontiguousarray(_val_decode(mlc, mle) + MIN_MATCH, dtype=_I64)
    of = np.ascontiguousarray(_off_decode(ofc, ofe), dtype=_I64)
    lits = np.frombuffer(decode_blob(parts[4]), dtype=np.uint8)
    if lits.size != meta["L"]:
        raise CodecError("lz literal count mismatch")
    if n < 0 or int(ml.sum()) + lits.size != n:
        raise CodecError("lz decode length mismatch")
    out = np.empty(n, dtype=np.uint8)
    rc = lib.lz_expand(
        ffi.from_buffer("int64_t[]", ll), ffi.from_buffer("int64_t[]", ml),
        ffi.from_buffer("int64_t[]", of), S, ffi.from_buffer("uint8_t[]", lits), lits.size,
        ffi.from_buffer("uint8_t[]", out), n,
    )
    if rc == -1:
        # e.g. a corrupt offset pointing before the start of the output
        raise CodecError("lz match offset or length out of range")
    if rc:
        raise CodecError("lz decode length mismatch")
    return out.tobytes()


register(10, "lz", _decode_lz)
