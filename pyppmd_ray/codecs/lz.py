"""From-scratch LZ77 + rANS block codec ("lz").

This is the engine's high-ratio general-purpose codec — the role PPMd's
adaptive context model plays in the reference. Where the reference predicts
one byte at a time from suffix contexts (`/root/reference/src/lib/ppmd/
Ppmd7Enc.c:77-185`, inherently sequential), this codec factors the block
into (literal-run, match) sequences against the full block window and
entropy-codes the token streams with the vectorized static rANS stage —
so both passes are numpy-vectorized except a per-TOKEN (not per-byte)
greedy scan.

Design (public knowledge: LZ77; zstd's sequence/stream architecture as
described in RFC 8878 — format here is the engine's own):
- match finding: exact 5-gram and 8-gram tables; candidate = nearest
  previous position with the same gram (via stable argsort — no hash
  collisions, no verification needed);
- greedy parse with next-match skipping (iterations ≈ #matches);
- sequences = (lit_len, match_len, offset) with log2-bucket codes + raw
  extra bits; codes and literals rANS-coded when smaller than raw.
"""

from __future__ import annotations

import numpy as np

from .base import CodecError, pack_blob, register, read_uvarint, write_uvarint
from .rans import encode_rans0

MIN_MATCH = 5
_U64 = np.uint64
_I64 = np.int64


def _best_bytes_blob(data: bytes) -> bytes:
    from .numeric import encode_raw

    if len(data) < 64:
        return encode_raw(data)
    from .rans import best_entropy_blob

    return best_entropy_blob(data)


# ------------------------------------------------------------ bit packing

def pack_varbits(vals: np.ndarray, widths: np.ndarray) -> bytes:
    """Pack vals[i] (LSB-first) into widths[i] bits, concatenated."""
    total = int(widths.sum())
    if total == 0:
        return b""
    starts = np.concatenate(([0], np.cumsum(widths)))[:-1]
    bits = np.zeros(total, dtype=np.uint8)
    vu = vals.astype(_U64)
    mw = int(widths.max())
    for j in range(mw):
        m = widths > j
        bits[starts[m] + j] = ((vu[m] >> _U64(j)) & _U64(1)).astype(np.uint8)
    return np.packbits(bits, bitorder="little").tobytes()


def unpack_varbits(buf: memoryview | bytes, widths: np.ndarray) -> np.ndarray:
    total = int(widths.sum())
    out = np.zeros(widths.size, dtype=_U64)
    if total == 0:
        return out
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little", count=total)
    starts = np.concatenate(([0], np.cumsum(widths)))[:-1]
    mw = int(widths.max())
    for j in range(mw):
        m = widths > j
        out[m] |= bits[starts[m] + j].astype(_U64) << _U64(j)
    return out


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
        return np.full(max(n, 0), -1, dtype=_I64)
    cand = np.full(n, -1, dtype=_I64)
    if stride > 1:
        idx = np.arange(0, n, stride, dtype=_U64)
        key = (h[::stride] << np.uint64(_POS_BITS)) | idx
    else:
        key = (h << np.uint64(_POS_BITS)) | np.arange(n, dtype=_U64)
    key.sort()
    pos = (key & _POS_MASK).astype(_I64)
    hh = key >> np.uint64(_POS_BITS)
    same = hh[1:] == hh[:-1]
    cand[pos[1:][same]] = pos[:-1][same]
    return cand


def _mismatch_at(a: bytes, b: bytes) -> int:
    """First differing index of two equal-length unequal byte strings."""
    lo, hi = 0, len(a)
    while hi - lo > 32:
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    for t in range(lo, hi):
        if a[t] != b[t]:
            return t
    return hi


def _extend_match(db: bytes, c: int, j: int, L: int, n: int) -> int:
    """Extend a guaranteed L-byte match in doubling memcmp chunks."""
    limit = n - j
    step = 64
    while L < limit:
        m = min(step, limit - L)
        a = db[j + L : j + L + m]
        b = db[c + L : c + L + m]
        if a == b:
            L += m
            step = min(step * 2, 1 << 16)
            continue
        return L + _mismatch_at(a, b)
    return L


# ------------------------------------------------------------------ codec

def lz_parse(data: np.ndarray, stride: int = 1) -> tuple[list[int], list[int], list[int], np.ndarray]:
    """Greedy parse → (lit_lens, match_lens, offsets, literal bytes).

    Match lengths are computed LAZILY, only at chosen token positions
    (chunked extend from the exact-gram guaranteed prefix) — total length
    work is O(sum of emitted match lengths), not O(n × avg match)."""
    n = int(data.size)
    if n >= 1 << _POS_BITS:
        raise CodecError("lz_parse segment too large; encode_lz must chunk")
    # one 8-gram pack pass feeds BOTH tables: the 6-gram is its low 48
    # bits; the 16-gram hash mixes g8[i] with g8[i+8] (saves ~14 full-array
    # passes vs building each gram independently; the 2 tail positions the
    # g8 window can't cover are a negligible candidate loss)
    g8 = _grams_u64(data, 8)
    shift = np.uint64(64 - 40)
    h6 = ((g8 & np.uint64(0xFFFFFFFFFFFF)) * _GOLD) >> shift
    c6 = _prev_from_hash(h6, stride)
    if g8.size > 8:
        h16 = ((g8[:-8] * _GOLD) ^ (g8[8:] * np.uint64(0xC2B2AE3D27D4EB4F))) >> shift
        c16 = _prev_from_hash(h16, stride)
    else:
        c16 = np.full(0, -1, dtype=_I64)
    # NOTE: lengths are computed LAZILY per chosen token (extend-from-0).
    # A vectorized capped-length precompute was tried and reverted: the
    # greedy parse visits ~10% of candidate positions, so precomputing
    # lengths for all of them costs more than the per-token extends save.
    mpos = np.flatnonzero(c6 >= 0)
    db = data.tobytes()
    # memoryview scalar indexing: C-speed reads WITHOUT materializing
    # millions of PyLongs (list conversion here costs ~90MB/block and
    # serializes concurrent workers on the allocator)
    c6l = memoryview(np.ascontiguousarray(c6))
    c16l = memoryview(np.ascontiguousarray(c16))
    n16 = len(c16l)
    mposl = memoryview(np.ascontiguousarray(mpos))
    g8l = memoryview(np.ascontiguousarray(g8))
    lls: list[int] = []
    mls: list[int] = []
    ofs: list[int] = []
    lit_slices: list[bytes] = []
    anchor = 0
    i = 0
    np_size = int(mpos.size)
    extend = _extend_match

    # exact-prefix probes from the ALREADY-PACKED 8-grams: xor of the two
    # little-endian packs gives the first mismatching BYTE as the lowest
    # set bit's byte index — candidates shorter than 8 (the bulk of probe
    # work) resolve with two int ops instead of a bytes-compare call;
    # longer ones enter _extend_match with the first 8/16 bytes proven.
    def probe6(c: int, j: int) -> int:
        x = g8l[j] ^ g8l[c]
        if x:
            return ((x & -x).bit_length() - 1) >> 3
        return extend(db, c, j, 8, n)

    def probe16(c: int, j: int) -> int:
        x = g8l[j] ^ g8l[c]
        if x:
            return ((x & -x).bit_length() - 1) >> 3
        x = g8l[j + 8] ^ g8l[c + 8]  # in-bounds: the 16-gram domain is g8.size-8
        if x:
            return 8 + (((x & -x).bit_length() - 1) >> 3)
        return extend(db, c, j, 16, n)
    p = 0  # monotone cursor into mpos (i only increases → amortized O(|mpos|))
    while True:
        while p < np_size and mposl[p] < i:
            p += 1
        if p >= np_size:
            break
        j = mposl[p]
        # 16-gram candidate first (repeated lines/files → long match; when
        # it is long we skip the short-gram probes entirely). Between
        # candidates, choose by net bit gain 8*L - bitlen(offset) — a long
        # match at a huge offset can lose to a shorter near one
        L = 0
        c = -1
        score = -1 << 30
        if j < n16:
            c2 = c16l[j]
            if c2 >= 0:
                L = probe16(c2, j)
                c = c2
                score = 8 * L - (j - c2).bit_length()
        if L < 64:
            c1 = c6l[j]
            if c1 >= 0 and c1 != c:
                L1 = probe6(c1, j)
                s1 = 8 * L1 - (j - c1).bit_length()
                if s1 > score:
                    c, L, score = c1, L1, s1
            if L < 24 and c1 >= 0:
                cc = c6l[c1]  # one chain hop on the 6-gram chain
                if cc >= 0 and cc != c:
                    L2 = probe6(cc, j)
                    s2 = 8 * L2 - (j - cc).bit_length()
                    if s2 > score:
                        c, L, score = cc, L2, s2
        of = j - c
        # cost-aware acceptance: far matches must be longer to pay for
        # their offset extra bits
        min_l = MIN_MATCH if of < 1 << 14 else (6 if of < 1 << 20 else 8)
        if L < min_l:
            i = j + 1
            continue
        lls.append(j - anchor)
        mls.append(L)
        ofs.append(of)
        if j > anchor:
            lit_slices.append(db[anchor:j])
        anchor = j + L
        i = anchor
    if anchor < n:
        lit_slices.append(db[anchor:])
    lits = (
        np.frombuffer(b"".join(lit_slices), dtype=np.uint8)
        if lit_slices
        else np.zeros(0, dtype=np.uint8)
    )
    return lls, mls, ofs, lits


def encode_lz(data: bytes | memoryview | np.ndarray, stride: int = 1) -> bytes:
    arr = np.frombuffer(data, dtype=np.uint8) if not isinstance(arr_in := data, np.ndarray) else data
    n = int(arr.size)
    if n < 32:
        from .numeric import encode_raw

        return pack_blob("lz", {"n": n, "S": -1}, encode_raw(bytes(arr.tobytes())))
    if n >= 1 << _POS_BITS:
        # multi-segment: independent windows of <16M positions each
        seg = ((1 << _POS_BITS) - 1) // stride * stride
        parts = []
        for s in range(0, n, seg):
            child = encode_lz(arr[s : s + seg], stride=stride)
            parts.append(write_uvarint(len(child)) + child)
        return pack_blob("lz", {"n": n, "S": -2}, b"".join(parts))

    lls, mls, ofs, lits = lz_parse(arr, stride=stride)
    S = len(lls)
    ll = np.array(lls, dtype=_I64)
    ml = np.array(mls, dtype=_I64) - MIN_MATCH
    of = np.array(ofs, dtype=_I64)
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
    lle = unpack_varbits(extras[:nb_ll], llw).astype(_I64)
    mle = unpack_varbits(extras[nb_ll : nb_ll + nb_ml], mlw).astype(_I64)
    ofe = unpack_varbits(extras[nb_ll + nb_ml :], ofw).astype(_I64)
    ll = _val_decode(llc, lle)
    ml = _val_decode(mlc, mle) + MIN_MATCH
    of = _off_decode(ofc, ofe)
    lits = np.frombuffer(decode_blob(parts[4]), dtype=np.uint8)
    if S:
        # output position where each match starts: a corrupt offset that
        # points before the start of the output would wrap numpy slicing
        # into the unwritten tail of ``out`` and decode silently wrong
        start = np.cumsum(ll) + np.cumsum(ml) - ml
        if not (
            np.all(of >= 1) and np.all(of <= start) and start[-1] + ml[-1] <= n
        ):
            raise CodecError("lz match offset or length out of range")

    out = np.empty(n, dtype=np.uint8)
    o = 0
    lp = 0
    for s in range(S):
        llv = int(ll[s])
        mlv = int(ml[s])
        ofv = int(of[s])
        if llv:
            out[o : o + llv] = lits[lp : lp + llv]
            o += llv
            lp += llv
        src = o - ofv
        if ofv >= mlv:
            out[o : o + mlv] = out[src : src + mlv]
        else:
            pattern = out[src:o]
            reps = -(-mlv // ofv)
            out[o : o + mlv] = np.tile(pattern, reps)[:mlv]
        o += mlv
    tail = n - o
    if tail:
        out[o:] = lits[lp : lp + tail]
        lp += tail
    if lp != lits.size or o + tail != n:
        raise CodecError("lz decode length mismatch")
    return out.tobytes()


register(10, "lz", _decode_lz)
