"""Word-token dictionary codec ("wtok") for prose-like text.

The engine's prose-ratio stage — the role PPMd's high-order context
model plays on natural text in the reference (`/root/reference/src/lib/
ppmd/Ppmd7Enc.c:77-185`: per-byte suffix-context prediction). Prose is a
WORD stream: almost all of its predictability is "which word comes
next", and a byte-context model spends most of its modeling capacity
re-learning the lexicon. This codec factors that out directly:

- split the byte stream at spaces (each token keeps its trailing
  space, so reconstruction is pure concatenation — same discipline as
  the newline-based ``lined`` codec);
- dictionary-encode whole tokens (Arrow's C kernel);
- entropy-code the id stream DIRECTLY as one wide-alphabet rANS
  stream at 15-bit probability precision (``prob_bits=15`` — the
  12-bit default loses ~1.4 bits/token to quantization once the
  alphabet passes a few hundred symbols; measured on the documents
  fixture: 216 KB vs 171 KB for the same ids). Ids are LEX ranks, so
  no permutation table is needed;
- store the vocabulary lex-sorted and FRONT-CODED (per-word shared-
  prefix length + suffix bytes): adjacent sorted words share prefixes,
  so the text shrinks ~7x before the byte codec even runs.

The id stream lands within ~0.5% of the word-unigram entropy — on
word-stream text this beats PPMd var.H (measured on the sf0.1
documents text column: 174.4 KB engine vs 175.8 KB var.H o6/16M — see
BASELINE.md) at the speed of the compiled rANS core, and the selector
only picks it where the trial encode wins (code/CSV stays on
lz/lined/fieldt).

Wire format history: m=0 raw-fallback, m=1 legacy lo/hi byte-plane
split (kept for decode compatibility), m=2 direct wide-rANS + front-
coded vocab (current encoder output for D <= MAX_DIRECT).
"""

from __future__ import annotations

import numpy as np

from .base import CodecError, pack_blob, read_uvarint, register, write_uvarint

SEP = 32  # space

# vocab caps: a bigger lexicon means the dictionary itself dominates and
# the general codecs do better anyway
MAX_VOCAB = 1 << 16
# direct wide-rANS path: at most 2^14 symbols so the 2^15-slot table
# keeps >= 2 slots/symbol on average (beyond that quantization loss
# rivals the plane-split loss and the legacy m=1 path competes)
MAX_DIRECT = 1 << 14
WIDE_BITS = 15


def _front_code(voff: np.ndarray, vdata: bytes) -> tuple[np.ndarray, np.ndarray, bytes]:
    """(lcp, suffix_len, suffix_bytes) for lex-sorted words.

    LCP is computed vectorized over the first 256 bytes of each word
    (a capped LCP is still a correct front coding — the suffix just
    keeps the rest); one (D x 256) gather, no per-word Python loop."""
    D = int(voff.size) - 1
    data = np.frombuffer(vdata, dtype=np.uint8)
    lens = (voff[1:] - voff[:-1]).astype(np.int64)
    cap = int(min(lens.max(initial=0), 256))
    if D <= 1 or cap == 0:
        lcp = np.zeros(D, dtype=np.int64)
        return lcp, lens.copy(), vdata
    cols = np.arange(cap)
    capped = np.minimum(lens, cap)
    # clamped gather: out-of-range columns re-read the word's last byte,
    # then get masked to 0 so padding can't fake a shared prefix beyond
    # the shorter word (the minlen clamp below re-guards that anyway)
    take = voff[:-1, None] + np.minimum(cols, np.maximum(capped - 1, 0)[:, None])
    pad = data[take] * (cols < capped[:, None])
    neq = pad[1:] != pad[:-1]
    first_neq = np.where(neq.any(axis=1), neq.argmax(axis=1), cap)
    minlen = np.minimum(capped[1:], capped[:-1])
    lcp = np.zeros(D, dtype=np.int64)
    lcp[1:] = np.minimum(first_neq, minlen)
    suf_len = lens - lcp
    # gather suffix bytes: ranges [voff[i]+lcp[i], voff[i+1])
    starts = voff[:-1] + lcp
    total = int(suf_len.sum())
    if total == 0:
        return lcp, suf_len, b""
    # ragged gather via repeat + cumulative offsets
    base = np.repeat(starts, suf_len)
    within = np.arange(total) - np.repeat(
        np.concatenate(([0], np.cumsum(suf_len)))[:-1], suf_len
    )
    out = data[base + within]
    return lcp, suf_len, out.tobytes()


def encode_wtok(data: bytes | memoryview | np.ndarray) -> bytes:
    arr = np.frombuffer(data, dtype=np.uint8) if not isinstance(data, np.ndarray) else data
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    n = int(arr.size)
    raw = arr.tobytes()
    from .lined import _best_inner

    if n < 4096:
        return pack_blob("wtok", {"n": n, "m": 0}, _best_inner(raw))
    sp = np.flatnonzero(arr == SEP)
    # need real token structure: one token every ~4..64 bytes
    if sp.size < n // 64 or sp.size > n // 3:
        return pack_blob("wtok", {"n": n, "m": 0}, _best_inner(raw))

    import pyarrow as pa

    # [0] + (sp+1) + [n] is already sorted; the only possible duplicate
    # is a trailing space making sp[-1]+1 == n — no O(T log T) unique()
    tail = [] if sp.size and int(sp[-1]) + 1 == n else [n]
    offs = np.concatenate(([0], sp + 1, tail)).astype(np.int64)
    T = int(offs.size) - 1
    tokens = pa.Array.from_buffers(
        pa.large_binary(), T, [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(raw)]
    )
    d = tokens.dictionary_encode()
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    D = len(d.dictionary)
    if D > MAX_VOCAB or D > T * 3 // 4:
        # mostly-unique tokens → the dictionary is pure overhead
        return pack_blob("wtok", {"n": n, "m": 0}, _best_inner(raw))
    if D <= MAX_DIRECT:
        blob = _encode_direct(raw, n, T, D, codes, d.dictionary)
    else:
        blob = _encode_planes(n, T, D, codes, d.dictionary)
    if len(blob) >= n:  # pathological: never worse than raw + header
        return pack_blob("wtok", {"n": n, "m": 0}, _best_inner(raw))
    return blob


def _wide_lanes(T: int) -> int:
    # fewer lanes than the byte coder: token streams are ~6x shorter
    # than their text, and each final state costs 4 bytes of header
    return max(1, min(4096, T // 700))


def _encode_direct(raw: bytes, n: int, T: int, D: int, codes: np.ndarray,
                   dictionary) -> bytes:
    """m=2: lex-rank ids through one prob_bits=15 rANS stream + front-
    coded vocab. No permutation table (stream ids ARE lex ranks)."""
    import pyarrow.compute as pc

    from .lined import _best_inner
    from .numeric import encode_int_auto
    from .rans import cap_full_freq, normalize_freqs, rans_encode
    from .strings import strcol_from_arrow

    lex = pc.sort_indices(dictionary)
    lexnp = lex.to_numpy(zero_copy_only=False).astype(np.int64)
    rank = np.empty(D, dtype=np.int64)
    rank[lexnp] = np.arange(D)
    ids = rank[codes]

    m = 1 << WIDE_BITS
    counts = np.bincount(ids, minlength=2)
    freqs = cap_full_freq(normalize_freqs(counts, m), m)
    stream, states, N = rans_encode(
        ids.astype(np.uint16), freqs, prob_bits=WIDE_BITS, n_lanes=_wide_lanes(T)
    )

    vocab = pc.take(dictionary, lex)
    voff, vdata = strcol_from_arrow(vocab)
    lcp, suf_len, sufb = _front_code(np.asarray(voff, dtype=np.int64), vdata)

    # freqs lex-ordered are runs of small equal values (most words get
    # 1-2 slots) — encode_int_auto's RLE lands ~2 bits/symbol here,
    # smaller than entropy-coding the raw counts
    fb = encode_int_auto(freqs.astype(np.int64))
    lb = encode_int_auto(lcp)
    sb = encode_int_auto(suf_len)
    vb = _best_inner(sufb)
    payload = b"".join(
        (
            write_uvarint(len(fb)), fb,
            states.astype("<u4").tobytes(),
            write_uvarint(len(stream)), stream,
            write_uvarint(len(lb)), lb,
            write_uvarint(len(sb)), sb,
            vb,
        )
    )
    return pack_blob("wtok", {"n": n, "m": 2, "T": T, "D": D, "N": N}, payload)


def _encode_planes(n: int, T: int, D: int, codes: np.ndarray, dictionary) -> bytes:
    """m=1 legacy path (D > MAX_DIRECT): frequency-sorted ids split into
    lo/hi byte planes, each order-0/1 rANS coded."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .lined import _best_inner
    from .numeric import encode_int_auto
    from .rans import best_entropy_blob
    from .strings import strcol_from_arrow

    counts = np.bincount(codes, minlength=D)
    order = np.argsort(-counts, kind="stable")
    rank = np.empty(D, dtype=np.int64)
    rank[order] = np.arange(D)
    codes = rank[codes]
    vocab = pc.take(dictionary, pa.array(order, type=pa.int64()))

    lo = best_entropy_blob((codes & 0xFF).astype(np.uint8).tobytes())
    hi = best_entropy_blob((codes >> 8).astype(np.uint8).tobytes())
    cb = write_uvarint(len(lo)) + lo + hi

    voff, vdata = strcol_from_arrow(vocab)
    ob = encode_int_auto(voff)
    vb = _best_inner(vdata)
    payload = b"".join(
        (write_uvarint(len(cb)), cb, write_uvarint(len(ob)), ob, vb)
    )
    return pack_blob("wtok", {"n": n, "m": 1, "T": T, "D": D, "p": 2}, payload)


def _decode_wtok(meta: dict, payload: memoryview) -> bytes:
    from .base import decode_blob

    if meta["m"] == 0:
        return decode_blob(payload)
    if meta["m"] == 2:
        return _decode_direct(meta, payload)
    n, T, D = meta["n"], meta["T"], meta["D"]
    clen, pos = read_uvarint(payload, 0)
    cpart = payload[pos : pos + clen]
    pos += clen
    if meta["p"] == 1:
        codes = np.frombuffer(decode_blob(cpart), dtype=np.uint8).astype(np.int64)
    else:
        llen, p2 = read_uvarint(cpart, 0)
        lo = np.frombuffer(decode_blob(cpart[p2 : p2 + llen]), dtype=np.uint8)
        hi = np.frombuffer(decode_blob(cpart[p2 + llen :]), dtype=np.uint8)
        if lo.size != hi.size:
            raise CodecError("wtok plane size mismatch")
        codes = lo.astype(np.int64) | (hi.astype(np.int64) << 8)
    if codes.size != T:
        raise CodecError("wtok token count mismatch")
    olen, pos2 = read_uvarint(payload, pos)
    voff = np.asarray(decode_blob(payload[pos2 : pos2 + olen]), dtype=np.int64)
    vdata = decode_blob(payload[pos2 + olen :])
    if int(voff.size) - 1 != D:
        raise CodecError("wtok vocab size mismatch")
    return _gather_tokens(n, D, codes, voff, vdata)


def _decode_direct(meta: dict, payload: memoryview) -> bytes:
    from .base import decode_blob
    from .rans import rans_decode

    n, T, D, N = meta["n"], meta["T"], meta["D"], meta["N"]
    if not (0 < D <= MAX_DIRECT) or N <= 0 or T < 0:
        raise CodecError("wtok bad header")
    flen, pos = read_uvarint(payload, 0)
    freqs = np.asarray(decode_blob(payload[pos : pos + flen]), dtype=np.int64)
    pos += flen
    if freqs.size < D or int(freqs.sum()) != (1 << WIDE_BITS) or (freqs < 0).any():
        raise CodecError("wtok bad freq table")
    states = np.frombuffer(payload[pos : pos + 4 * N], dtype="<u4")
    if states.size != N:
        raise CodecError("wtok truncated states")
    pos += 4 * N
    slen, pos = read_uvarint(payload, pos)
    stream = payload[pos : pos + slen]
    pos += slen
    ids = rans_decode(stream, states, N, T, freqs, prob_bits=WIDE_BITS).astype(np.int64)
    if ids.size and int(ids.max()) >= D:
        raise CodecError("wtok id out of range")

    llen, pos = read_uvarint(payload, pos)
    lcp = np.asarray(decode_blob(payload[pos : pos + llen]), dtype=np.int64)
    pos += llen
    blen, pos = read_uvarint(payload, pos)
    suf_len = np.asarray(decode_blob(payload[pos : pos + blen]), dtype=np.int64)
    pos += blen
    sufb = decode_blob(payload[pos:])
    if lcp.size != D or suf_len.size != D or (lcp < 0).any() or (suf_len < 0).any():
        raise CodecError("wtok bad vocab framing")
    if int(suf_len.sum()) != len(sufb):
        raise CodecError("wtok vocab byte count mismatch")

    # un-front-code: word[i] = word[i-1][:lcp[i]] + suffix[i]
    lens = lcp + suf_len
    voff = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    vdata = bytearray(int(voff[-1]))
    sview = memoryview(sufb)
    spos = 0
    prev_start = 0
    prev_len = 0
    for i in range(D):
        w0 = int(voff[i])
        li, si = int(lcp[i]), int(suf_len[i])
        if li > prev_len:
            raise CodecError("wtok lcp exceeds previous word")
        vdata[w0 : w0 + li] = vdata[prev_start : prev_start + li]
        vdata[w0 + li : w0 + li + si] = sview[spos : spos + si]
        spos += si
        prev_start = w0
        prev_len = li + si
    return _gather_tokens(n, D, ids, voff, bytes(vdata))


def _gather_tokens(n: int, D: int, codes: np.ndarray, voff: np.ndarray,
                   vdata: bytes) -> bytes:
    if codes.size and (codes.max() >= D or codes.min() < 0):
        raise CodecError("wtok code out of range")
    import pyarrow as pa
    import pyarrow.compute as pc

    from .strings import checked_binary_values, strcol_from_arrow

    values = checked_binary_values(voff, vdata, "wtok")
    taken = pc.take(values, pa.array(codes, type=pa.int64()))
    _, out = strcol_from_arrow(taken)
    if len(out) != n:
        raise CodecError("wtok length mismatch")
    return out


register(25, "wtok", _decode_wtok)
