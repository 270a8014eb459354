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

from .strings import (
    BYTE_CODECS,
    StrCol,
    dict_encode_strcol,
    filled_strcol,
    strcol_from_arrow,
    strcol_to_arrow,
)

SAMPLE_BYTES = 32 << 10


def _take_rows(col: StrCol, rows: np.ndarray) -> StrCol:
    """The given rows of a column, gathered by Arrow's C take kernel."""
    return strcol_from_arrow(strcol_to_arrow(col).take(pa.array(rows, type=pa.int64())))


def _sample_strcol(col: StrCol, max_bytes: int = SAMPLE_BYTES) -> bytes:
    """Deterministic stride sample of whole rows, ~max_bytes of data."""
    offsets, data = col
    n = offsets.size - 1
    total = int(offsets[-1])
    if total <= max_bytes or n <= 4:
        return data
    stride = max(1, int(np.ceil(total / max_bytes)))
    s = _take_rows(col, np.arange(0, n, stride))[1]
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
    trials: list[tuple[str, float]] = []
    if avg_len is None or avg_len <= 96:
        trials.append(("fsst", 1.05))
    if n >= 4096 and (avg_len is None or avg_len > 32):
        trials.append(("lz", 1.08))
    if sample.count(b"\n", 0, 8192) >= 16:
        trials.append(("lined", 1.00))
        from .fieldt import _detect

        if _detect(sample.split(b"\n")[:512])[0] is not None:
            trials.append(("fieldt", 1.00))
    # prose probe: space-token structure (one token every ~4..64 bytes)
    # → try the word-dictionary codec; like lined, its dictionary gains
    # GROW with block size, so no cost bias at trial time
    n_sp = sample.count(b" ")
    if n >= 4096 and n // 64 <= n_sp <= n // 3:
        trials.append(("wtok", 1.00))
    for name, bias in trials:
        try:
            scored.append((len(BYTE_CODECS[name](sample)) * bias, name))
        except Exception:
            continue
    return min(scored)[1]


def plan_strcol(col: StrCol) -> dict:
    """``{"layout", "data_codec"}`` for one string column — the engine's
    only string codec chooser: ``plan_table`` calls it for top-level
    columns, the column encoder for any string column whose hints lack a
    key (nested children, fixed-size binary, partial hints).

    The layout comes from the distinct ratio of a row sample. The data
    codec is chosen on the bytes that layout encodes: under ``sdict``
    that is the block's distinct values, not the column."""
    offsets, _ = col
    n = int(offsets.size) - 1
    layout = "strs"
    if n >= 8:
        # distinct ratio on a row sample (stride, deterministic)
        rows = np.arange(0, n, max(1, n // 2048))
        _, (voff, _) = dict_encode_strcol(_take_rows(col, rows))
        if (voff.size - 1) / max(1, rows.size) <= 0.5:
            layout = "sdict"
    if layout == "sdict":
        _, col = dict_encode_strcol(col)  # the values encode_sdict encodes
    return {"layout": layout, "data_codec": _pick_data_codec(col)}


def _pick_data_codec(col: StrCol) -> str:
    """The byte codec for the data bytes of ``col``."""
    offsets, data = col
    total = int(offsets[-1])
    if total < 64:  # encode_strings stores data this small raw
        return "raw"
    # line-dictionary pre-check on the FULL column (cheap C kernel):
    # dictionary gains grow with block size, so no sample can reveal them —
    # measure the real distinct-line ratio instead of extrapolating
    if total > 512 << 10 and _line_dict_wins(data):
        return "lined"
    # larger sample for big columns: dictionary-style codecs need enough
    # rows in the sample to reveal cross-row repeats
    sample_bytes = SAMPLE_BYTES if total < 1 << 20 else 4 * SAMPLE_BYTES
    return pick_byte_codec(
        _sample_strcol(col, max_bytes=sample_bytes), avg_len=total / max(1, offsets.size - 1)
    )


def _line_dict_wins(data: bytes, max_distinct_ratio: float = 0.35) -> bool:
    """True when splitting at newlines yields mostly-repeated lines —
    the regime where the line-dictionary codec dominates LZ."""
    import pyarrow as pa

    from .lined import line_offsets

    arr = np.frombuffer(data, dtype=np.uint8)
    offs, newlines = line_offsets(arr)
    if newlines < 64:
        return False
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
        col = filled_strcol(tbl[name])
        if col is not None:
            plans[name] = plan_strcol(col)
    return plans


def validate_hints(hints: dict | None) -> dict | None:
    """Validate a user-supplied hints dict at pipeline entry (the engine's
    public parameter surface, analogue of the reference's max_order /
    mem_size / variant validation, `/root/reference/src/ext/
    _ppmdmodule.c:157-174` + `__init__.py:142-149`). Raises CodecError."""
    from .base import CodecError

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
                f"hints[{col!r}]['data_codec'] must be one of {tuple(BYTE_CODECS)}, got {dc!r}"
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
