"""FSST-style trained symbol-table codec for short strings.

From-scratch implementation of the idea in the public FSST paper
(Boncz, Neumann, Leis — "FSST: Fast Random Access String Compression",
PVLDB 13(9), 2020): a table of up to 255 symbols, each 1–8 bytes long,
replaces frequent substrings with 1-byte codes.

Engine-specific format choices (NOT the paper's wire format):
- code 255 = escape; escaped literal bytes go to a SEPARATE literal stream
  (no in-band escape ambiguity);
- the code stream and literal stream are each coded by the engine's one
  entropy stage (``rans.best_entropy_blob``: raw, rans0 or rans1).

Table training (which symbols) runs in numpy here; the greedy
longest-match encode and the decode are compiled (``kernels.c``). The
numpy/Python versions they replaced are kept in ``tests/numpy_oracle.py``,
and the tests hold the two byte-identical.

The trained table is the engine's analogue of the reference's per-stream
adaptive model state. A planned dataset trains it once, on the sample
(``pipelines.compress.plan_sample_table`` puts it in the plan as the
``fsst_table`` hint, and every block reuses it); a block without one
trains its own. Either way it is shipped IN the blob, so any worker can
decode (unlike the reference, whose model is unpicklable and rebuilt by
replaying the stream, `/root/reference/src/ext/_ppmdmodule.c:617-634`).
"""

from __future__ import annotations

import numpy as np

from .base import CodecError, pack_blob, register, read_uvarint, write_uvarint
from .native import ffi, lib
from .rans import best_entropy_blob

ESCAPE = 255  # kernels.c hard-codes the same (FSST_ESCAPE)
MAX_SYMS = 255
# a table is trained on at most this many leading bytes, per block or per
# dataset sample (``pipelines.compress.plan_sample_table``)
TRAIN_BYTES = 64 << 10
_U64 = np.uint64


def _grams(data: np.ndarray, k: int) -> np.ndarray:
    """Pack every k-gram (k<=8) into a uint64, little-endian by position."""
    n = data.size - k + 1
    if n <= 0:
        return np.zeros(0, dtype=_U64)
    g = np.zeros(n, dtype=_U64)
    for j in range(k):
        g |= data[j : j + n].astype(_U64) << _U64(8 * j)
    return g


def train_table(sample: bytes | np.ndarray, max_syms: int = MAX_SYMS) -> list[bytes]:
    """Pick up to ``max_syms`` symbols (1–8 bytes) by compression gain.

    Two-round greedy: round 1 scores raw k-gram frequencies; round 2
    re-scores on a sample encoding with the round-1 table so composed /
    overlapping grams don't double-count.
    """
    data = np.frombuffer(sample, dtype=np.uint8) if not isinstance(sample, np.ndarray) else sample
    if data.size == 0:
        return []

    def top_grams(arr: np.ndarray) -> list[tuple[int, bytes]]:
        cands: list[tuple[int, bytes]] = []
        for k in range(2, 9):
            g = _grams(arr, k)
            if g.size == 0:
                continue
            vals, counts = np.unique(g, return_counts=True)
            # keep grams worth at least ~3 uses
            keep = counts >= 3
            vals, counts = vals[keep], counts[keep]
            if vals.size > 4 * MAX_SYMS:
                top = np.argsort(-counts)[: 4 * MAX_SYMS]
                vals, counts = vals[top], counts[top]
            for v, c in zip(vals.tolist(), counts.tolist()):
                sym = int(v).to_bytes(8, "little")[:k]
                cands.append((int(c) * (k - 1), sym))
        # frequent single bytes (gain: avoids 1-byte escape overhead)
        bc = np.bincount(arr, minlength=256)
        for b in np.argsort(-bc)[:128].tolist():
            if bc[b] >= 4:
                cands.append((int(bc[b]), bytes([b])))
        cands.sort(key=lambda t: -t[0])
        return cands

    chosen: list[bytes] = []
    seen: set[bytes] = set()
    for gain, sym in top_grams(data):
        if sym not in seen:
            seen.add(sym)
            chosen.append(sym)
            if len(chosen) >= max_syms:
                break
    if not chosen:
        return []

    # round 2: encode the sample, count actual symbol usage, re-pick
    codes, lits = fsst_encode_codes(data, chosen)
    used = np.bincount(codes[codes != ESCAPE], minlength=len(chosen))
    order = np.argsort(-(used * (np.array([len(s) for s in chosen]) )))
    table = [chosen[i] for i in order if used[i] > 0][:max_syms]
    return table


def _table_arrays(table: list[bytes]) -> tuple[bytes, bytes]:
    """(symbols zero-padded to 8 bytes each, symbol lengths): the table
    layout of ``fsst_encode``/``fsst_decode`` in ``kernels.c``."""
    if len(table) > MAX_SYMS or not all(1 <= len(s) <= 8 for s in table):
        raise CodecError("fsst table must hold at most 255 symbols of 1-8 bytes")
    return b"".join(bytes(s).ljust(8, b"\0") for s in table), bytes(len(s) for s in table)


def fsst_encode_codes(data: np.ndarray, table: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Greedy longest-match encode → (code stream uint8, literal bytes uint8).
    The loop is ``fsst_encode`` in ``kernels.c``; its comment gives the rule."""
    data = np.ascontiguousarray(data, dtype=np.uint8)
    n = int(data.size)
    syms, lens = _table_arrays(table)
    if n == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.uint8)
    codes = np.empty(n, dtype=np.uint8)
    lits = np.empty(n, dtype=np.uint8)
    nlit = ffi.new("int64_t *")
    nc = lib.fsst_encode(
        ffi.from_buffer("uint8_t[]", data), n, ffi.from_buffer("uint8_t[]", syms),
        ffi.from_buffer("uint8_t[]", lens), len(table), ffi.from_buffer("uint8_t[]", codes),
        ffi.from_buffer("uint8_t[]", lits), nlit,
    )
    return codes[:nc], lits[: nlit[0]]


def fsst_decode_codes(codes: np.ndarray, lits: np.ndarray, table: list[bytes]) -> bytes:
    """Expand a code stream and its literals through the table; raises
    CodecError on a code past the table or escapes that do not take
    exactly the literals given."""
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    lits = np.ascontiguousarray(lits, dtype=np.uint8)
    syms, lens = _table_arrays(table)
    args = (
        ffi.from_buffer("uint8_t[]", codes), codes.size, ffi.from_buffer("uint8_t[]", lits),
        lits.size, ffi.from_buffer("uint8_t[]", syms), ffi.from_buffer("uint8_t[]", lens),
        len(table),
    )
    total = lib.fsst_decode(*args, ffi.NULL)
    if total == -1:
        raise CodecError("fsst code past the end of the symbol table")
    if total < 0:
        raise CodecError("fsst escapes do not match the literal stream")
    out = np.empty(total + 8, dtype=np.uint8)
    lib.fsst_decode(*args, ffi.from_buffer("uint8_t[]", out))
    return out[:total].tobytes()


def encode_fsst(data: bytes | np.ndarray, table: list[bytes] | None = None) -> bytes:
    """Self-describing FSST blob over a byte sequence."""
    arr = np.frombuffer(data, dtype=np.uint8) if not isinstance(data, np.ndarray) else data
    n = int(arr.size)
    if table is None:
        table = train_table(arr[:TRAIN_BYTES])
    codes, lits = fsst_encode_codes(arr, table)
    cb = best_entropy_blob(codes.tobytes())
    lb = best_entropy_blob(lits.tobytes())
    tab = b"".join(write_uvarint(len(s)) + s for s in table)
    payload = b"".join(
        (write_uvarint(len(table)), tab, write_uvarint(len(cb)), cb, lb)
    )
    return pack_blob("fsst", {"n": n}, payload)


def _decode_fsst(meta: dict, payload: memoryview) -> bytes:
    from .base import decode_blob

    nsym, pos = read_uvarint(payload, 0)
    if nsym > MAX_SYMS:
        raise CodecError("fsst symbol table too large")
    table: list[bytes] = []
    for _ in range(nsym):
        slen, pos = read_uvarint(payload, pos)
        table.append(bytes(payload[pos : pos + slen]))
        pos += slen
    cblen, pos = read_uvarint(payload, pos)
    codes = np.frombuffer(decode_blob(payload[pos : pos + cblen]), dtype=np.uint8)
    lits = np.frombuffer(decode_blob(payload[pos + cblen :]), dtype=np.uint8)
    out = fsst_decode_codes(codes, lits, table)
    if len(out) != meta["n"]:
        raise CodecError("fsst length mismatch")
    return out


register(9, "fsst", _decode_fsst)
