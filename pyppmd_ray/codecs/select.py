"""Sampling-based codec auto-selection (per block / partition).

The north-rule selector: sample rows inside the batch (no shuffle —
SURVEY.md §2.6), trial-encode candidates on the sample, pin the winning
cascade for the full block. Deterministic given the input block (fixed
stride sampling, no RNG) so Ray task retries re-produce identical bytes
(lineage re-execution safety, SURVEY.md §4.2).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .fieldt import encode_fieldt
from .fsst import encode_fsst
from .lined import encode_lined
from .lz import encode_lz
from .strings import StrCol, dict_encode_strcol, strcol_from_arrow

SAMPLE_BYTES = 32 << 10


def _sample_strcol(col: StrCol, max_bytes: int = SAMPLE_BYTES) -> bytes:
    """Deterministic stride sample of whole rows, ~max_bytes of data."""
    offsets, data = col
    n = offsets.size - 1
    total = int(offsets[-1])
    if total <= max_bytes or n <= 4:
        return data
    stride = max(1, int(np.ceil(total / max_bytes)))
    rows = np.arange(0, n, stride)
    parts = [data[offsets[r] : offsets[r + 1]] for r in rows.tolist()]
    s = b"".join(parts)
    return s[:max_bytes] if len(s) > max_bytes else s


def pick_byte_codec(sample: bytes, avg_len: float | None = None) -> str:
    """Pick the byte-stream codec for a column from a sample.

    Entropy codecs (raw/rans0/rans1) are scored by O(n) histogram
    ESTIMATES; only structure-dependent codecs (fsst/lz/lined/fieldt) get
    real trial encodes, each gated by a cheap structural probe — planning
    must stay a small fraction of encoding."""
    from .rans import estimate_rans_sizes

    n = len(sample)
    if n < 64:
        return "raw"
    raw_sz, r0, r1 = estimate_rans_sizes(sample)
    scored: list[tuple[float, str]] = [
        (float(raw_sz), "raw"),
        (r0 * 1.02, "rans0"),
        (r1 * 1.03, "rans1"),
    ]
    trials: list[tuple[str, object, float]] = []
    if avg_len is None or avg_len <= 96:
        trials.append(("fsst", encode_fsst, 1.05))
    if n >= 4096 and (avg_len is None or avg_len > 32):
        trials.append(("lz", encode_lz, 1.08))
    if sample.count(b"\n", 0, 8192) >= 16:
        trials.append(("lined", encode_lined, 1.00))
        from .fieldt import _detect

        if _detect(sample.split(b"\n")[:512])[0] is not None:
            trials.append(("fieldt", encode_fieldt, 1.00))
    # prose probe: space-token structure (one token every ~4..64 bytes)
    # → try the word-dictionary codec; like lined, its dictionary gains
    # GROW with block size, so no cost bias at trial time
    n_sp = sample.count(b" ")
    if n >= 4096 and n // 64 <= n_sp <= n // 3:
        from .wtok import encode_wtok

        trials.append(("wtok", encode_wtok, 1.00))
    for name, enc, bias in trials:
        try:
            scored.append((len(enc(sample)) * bias, name))
        except Exception:
            continue
    return min(scored)[1]


def plan_strcol(col: StrCol) -> dict:
    offsets, data = col
    n = int(offsets.size) - 1
    hints: dict = {}
    if n >= 8:
        # distinct ratio on a row sample (stride, deterministic)
        stride = max(1, n // 2048)
        rows = np.arange(0, n, stride)
        lens = np.diff(offsets)
        sub_off = np.concatenate(([0], np.cumsum(lens[rows]))).astype(np.int64)
        sub_data = b"".join(data[offsets[r] : offsets[r + 1]] for r in rows.tolist())
        codes, (voff, _) = dict_encode_strcol((sub_off, sub_data))
        distinct_ratio = (voff.size - 1) / max(1, rows.size)
        hints["layout"] = "sdict" if distinct_ratio <= 0.5 else "strs"
    else:
        hints["layout"] = "strs"
    avg_len = int(offsets[-1]) / max(1, n)
    total = int(offsets[-1])
    # line-dictionary pre-check on the FULL column (cheap C kernel):
    # dictionary gains grow with block size, so no sample can reveal them —
    # measure the real distinct-line ratio instead of extrapolating
    if total > 512 << 10 and _line_dict_wins(data):
        hints["data_codec"] = "lined"
        return hints
    # larger sample for big columns: dictionary-style codecs need enough
    # rows in the sample to reveal cross-row repeats
    sample_bytes = SAMPLE_BYTES if total < 1 << 20 else 4 * SAMPLE_BYTES
    hints["data_codec"] = pick_byte_codec(
        _sample_strcol(col, max_bytes=sample_bytes), avg_len=avg_len
    )
    return hints


def _line_dict_wins(data: bytes, max_distinct_ratio: float = 0.35) -> bool:
    """True when splitting at newlines yields mostly-repeated lines —
    the regime where the line-dictionary codec dominates LZ."""
    import pyarrow as pa

    arr = np.frombuffer(data, dtype=np.uint8)
    nl = np.flatnonzero(arr == 10)
    if nl.size < 64:
        return False
    offs = np.unique(np.concatenate(([0], nl + 1, [arr.size]))).astype(np.int64)
    n_lines = offs.size - 1
    avg_line = arr.size / n_lines
    if avg_line > 512:  # long "lines" → not line-structured text
        return False
    lines = pa.Array.from_buffers(
        pa.large_binary(), n_lines,
        [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(bytes(data))],
    )
    distinct = len(lines.dictionary_encode().dictionary)
    return distinct <= n_lines * max_distinct_ratio


def plan_table(tbl: pa.Table) -> dict[str, dict]:
    """Per-column hints for one block; only string-ish columns need a plan
    (numeric cascades self-select cheaply inside encode_int_auto)."""
    plans: dict[str, dict] = {}
    for name in tbl.column_names:
        col = tbl[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        if (
            pa.types.is_string(t)
            or pa.types.is_large_string(t)
            or pa.types.is_binary(t)
            or pa.types.is_large_binary(t)
        ):
            arr = col
            if arr.null_count:
                import pyarrow.compute as pc

                is_bin = pa.types.is_binary(t) or pa.types.is_large_binary(t)
                arr = pc.fill_null(arr, b"" if is_bin else "")
            plans[name] = plan_strcol(strcol_from_arrow(arr))
    return plans


def validate_hints(hints: dict | None) -> dict | None:
    """Validate a user-supplied hints dict at pipeline entry (the engine's
    public parameter surface, analogue of the reference's max_order /
    mem_size / variant validation, `/root/reference/src/ext/
    _ppmdmodule.c:157-174` + `__init__.py:142-149`). Raises CodecError."""
    from .base import CodecError
    from .strings import BYTE_CODECS

    if hints is None:
        return None
    if not isinstance(hints, dict):
        raise CodecError(f"hints must be a dict of per-column dicts, got {type(hints).__name__}")
    for col, h in hints.items():
        if not isinstance(h, dict):
            raise CodecError(f"hints[{col!r}] must be a dict, got {type(h).__name__}")
        layout = h.get("layout")
        if layout not in (None, "sdict", "strs"):
            raise CodecError(f"hints[{col!r}]['layout'] must be 'sdict' or 'strs', got {layout!r}")
        dc = h.get("data_codec")
        if dc is not None and dc not in BYTE_CODECS:
            raise CodecError(
                f"hints[{col!r}]['data_codec'] must be one of {BYTE_CODECS}, got {dc!r}"
            )
        ft = h.get("fsst_table")
        if ft is not None and not (
            isinstance(ft, list) and all(isinstance(s, (bytes, bytearray)) for s in ft)
        ):
            raise CodecError(f"hints[{col!r}]['fsst_table'] must be a list of bytes")
        unknown = set(h) - {"layout", "data_codec", "fsst_table"}
        if unknown:
            raise CodecError(f"hints[{col!r}] has unknown keys {sorted(unknown)}")
    return hints
