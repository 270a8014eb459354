"""Per-layer timing from outside the package.

``install()`` replaces the public functions of each layer, at the module
attributes through which the package calls them, with wrappers that add
their wall time to in-memory sums. Nothing inside ``pyppmd_ray`` is
changed on disk. Layers and their entry points:

- ``select``: ``plan_table`` and ``plan_sample_table``;
- ``blocks``: ``split_by_bytes``, ``encode_block``, ``decode_block``, the
  block hash (``canonical_column_bytes`` plus its sha256 updates);
- ``column``: ``encode_column`` and ``decode_blob`` as ``encode_block``
  and ``decode_block`` call them, attributed to a column name and to
  every value codec named in that column's cascade in the block ``meta``.

In a Ray worker, ``install_worker`` (a ``worker_process_setup_hook``)
installs the same wrappers and appends the sums to a per-process file
after every ``encode_batches``/``decode_batches`` call, so the driver
can add them up.
"""

from __future__ import annotations

import functools
import json
import os
import re
import time
from collections import defaultdict

FAMILIES = ("lined", "lz", "fsst", "wtok", "fdec", "gcd", "forpack", "delta", "rle", "bshuf", "raw")
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
_TOKEN = re.compile(r"[A-Za-z0-9_]+")


class Tracer:
    """Sums of milliseconds and counts, keyed by metric name."""

    def __init__(self):
        self.ms = defaultdict(float)
        self.n = defaultdict(int)
        self.stack: list[str] = []
        self.frames: list[dict] = []  # one per active encode/decode_block
        self.pending_meta: list[str] = []  # metas of the batch being decoded
        self.paused = False  # projected decodes are not traced

    def reset(self):
        self.ms.clear()
        self.n.clear()

    def add_from(self, other: dict):
        for k, v in other.get("ms", {}).items():
            self.ms[k] += v
        for k, v in other.get("n", {}).items():
            self.n[k] += v

    def snapshot(self) -> dict:
        return {"ms": dict(self.ms), "n": dict(self.n)}


TRACER = Tracer()


def _now() -> float:
    return time.perf_counter_ns() / 1e6


def _families(cascade: str) -> set[str]:
    return set(_TOKEN.findall(cascade)) & set(FAMILIES)


def _timed(label, fn, record):
    """Wrap ``fn``: push ``label`` on the stack while it runs, then call
    ``record(ms, args, kwargs, result)``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr = TRACER
        tr.stack.append(label)
        t0 = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = _now() - t0
            tr.stack.pop()
        record(dt, args, kwargs, result)
        return result

    return wrapper


def _parent() -> str | None:
    return TRACER.stack[-1] if TRACER.stack else None


# ------------------------------------------------------------- select


def _wrap_plan(fn):
    def record(dt, args, kwargs, result):
        if "plan" not in TRACER.stack:
            TRACER.ms["select.plan_ms"] += dt
            TRACER.n["select.plan_calls"] += 1
            if TRACER.frames and _parent() == "encode_block":
                TRACER.frames[-1]["plan"] += dt

    return _timed("plan", fn, record)


# ------------------------------------------------------------- blocks


def _wrap_split(fn):
    def record(dt, args, kwargs, result):
        if "plan" not in TRACER.stack:
            TRACER.ms["blocks.split_ms"] += dt

    return _timed("split", fn, record)


def _wrap_canonical(fn):
    def record(dt, args, kwargs, result):
        if _parent() == "encode_block":
            TRACER.ms["blocks.hash_ms"] += dt
            TRACER.frames[-1]["hash"] += dt

    return _timed("canonical", fn, record)


class _TimedHash:
    """A sha256 object whose ``update`` time counts as block-hash time."""

    def __init__(self, h):
        self._h = h

    def update(self, data):
        t0 = _now()
        self._h.update(data)
        dt = _now() - t0
        if _parent() == "encode_block":
            TRACER.ms["blocks.hash_ms"] += dt
            TRACER.frames[-1]["hash"] += dt

    def __getattr__(self, name):
        return getattr(self._h, name)


class _HashlibProxy:
    def __init__(self, real):
        self._real = real

    def sha256(self, *args, **kwargs):
        return _TimedHash(self._real.sha256(*args, **kwargs))

    def __getattr__(self, name):
        return getattr(self._real, name)


def _wrap_encode_column(fn):
    def record(dt, args, kwargs, result):
        if _parent() == "encode_block":
            TRACER.frames[-1]["cols"].append(dt)

    return _timed("encode_column", fn, record)


def _wrap_decode_blob(fn):
    def record(dt, args, kwargs, result):
        if _parent() == "decode_block":
            TRACER.frames[-1]["cols"].append(dt)

    return _timed("decode_blob", fn, record)


def _new_frame():
    return {"cols": [], "hash": 0.0, "plan": 0.0}


def _wrap_encode_block(fn):
    @functools.wraps(fn)
    def wrapper(tbl, *args, **kwargs):
        tr = TRACER
        tr.frames.append(_new_frame())
        tr.stack.append("encode_block")
        t0 = _now()
        try:
            row = fn(tbl, *args, **kwargs)
        finally:
            dt = _now() - t0
            tr.stack.pop()
            frame = tr.frames.pop()
        tr.ms["blocks.encode_ms"] += dt
        cols_meta = json.loads(row["meta"])["columns"]
        names = list(tbl.column_names)
        col_ms = frame["cols"]
        if len(col_ms) == len(names):
            for name, ms in zip(names, col_ms):
                _add_column(name, "encode", ms, cols_meta.get(name, {}).get("codec", ""))
        tr.ms["blocks.encode_self_ms"] += dt - sum(col_ms) - frame["hash"] - frame["plan"]
        return row

    return wrapper


def _add_column(name: str, phase: str, ms: float, cascade: str):
    TRACER.ms[f"column.{name}.{phase}_ms"] += ms
    for fam in _families(cascade):
        TRACER.ms[f"codec.{fam}.{phase}_ms"] += ms


def _entry_names(payload) -> list[str]:
    """Entry names of a block payload, in order (uvarint count, then
    per entry: uvarint name length, name, uvarint blob length, blob)."""
    mv = memoryview(payload)

    def uvarint(pos):
        n = shift = 0
        while True:
            b = mv[pos]
            pos += 1
            n |= (b & 0x7F) << shift
            if not b & 0x80:
                return n, pos
            shift += 7

    count, pos = uvarint(0)
    names = []
    for _ in range(count):
        nlen, pos = uvarint(pos)
        names.append(bytes(mv[pos : pos + nlen]).decode())
        blen, pos = uvarint(pos + nlen)
        pos += blen
    return names


def _wrap_decode_block(fn):
    @functools.wraps(fn)
    def wrapper(payload, columns=None, **kwargs):
        tr = TRACER
        if tr.paused:
            return fn(payload, columns=columns, **kwargs)
        meta = tr.pending_meta.pop(0) if tr.pending_meta else None
        tr.frames.append(_new_frame())
        tr.stack.append("decode_block")
        t0 = _now()
        try:
            out = fn(payload, columns=columns, **kwargs)
        finally:
            dt = _now() - t0
            tr.stack.pop()
            frame = tr.frames.pop()
        tr.ms["blocks.decode_ms"] += dt
        col_ms = 0.0
        cascades = {k: v.get("codec", "") for k, v in json.loads(meta)["columns"].items()} if meta else {}
        # decode_blob runs for every payload entry that is not a skipped
        # column: the row permutation (not a column) and each requested one
        entries = [
            n for n in _entry_names(payload)
            if n not in cascades or columns is None or n in columns
        ]
        if cascades and len(entries) == len(frame["cols"]):
            for name, ms in zip(entries, frame["cols"]):
                if name in cascades:
                    _add_column(name, "decode", ms, cascades[name])
                    col_ms += ms
        tr.ms["blocks.decode_self_ms"] += dt - col_ms
        return out

    return wrapper


# ------------------------------------------------------------- batches


def _wrap_encode_batches(fn, flush):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            flush()

    return wrapper


def _wrap_decode_batches(fn, flush):
    @functools.wraps(fn)
    def wrapper(batch, *args, **kwargs):
        TRACER.paused = kwargs.get("columns") is not None
        TRACER.pending_meta = batch["meta"].to_pylist()
        try:
            yield from fn(batch, *args, **kwargs)
        finally:
            TRACER.pending_meta = []
            TRACER.paused = False
            flush()

    return wrapper


def _no_flush():
    pass


def install(flush=_no_flush):
    """Wrap every layer entry point at the module attributes the package
    calls it through. ``flush`` runs after each batch-level call."""
    from pyppmd_ray.codecs import select
    from pyppmd_ray.pipelines import compress
    from pyppmd_ray.stages import blocks, encode

    select.plan_table = _wrap_plan(select.plan_table)
    blocks.plan_table = _wrap_plan(blocks.plan_table)
    compress.plan_sample_table = _wrap_plan(compress.plan_sample_table)
    encode.split_by_bytes = _wrap_split(encode.split_by_bytes)
    encode.encode_block = _wrap_encode_block(encode.encode_block)
    encode.decode_block = _wrap_decode_block(encode.decode_block)
    blocks.canonical_column_bytes = _wrap_canonical(blocks.canonical_column_bytes)
    blocks.hashlib = _HashlibProxy(blocks.hashlib)
    blocks.encode_column = _wrap_encode_column(blocks.encode_column)
    blocks.decode_blob = _wrap_decode_blob(blocks.decode_blob)
    encode.encode_batches = _wrap_encode_batches(encode.encode_batches, flush)
    encode.decode_batches = _wrap_decode_batches(encode.decode_batches, flush)


def _append_to_file():
    path = os.path.join(os.environ[TRACE_DIR_ENV], f"{os.getpid()}.jsonl")
    with open(path, "a") as f:
        f.write(json.dumps(TRACER.snapshot()) + "\n")
    TRACER.reset()


def install_worker():
    """Ray ``worker_process_setup_hook``: trace this worker too."""
    install(flush=_append_to_file)


def collect_worker_files(trace_dir: str) -> dict:
    """Sum of every record the workers appended to ``trace_dir``."""
    total = Tracer()
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as f:
            for line in f:
                total.add_from(json.loads(line))
    return total.snapshot()


def clear_worker_files(trace_dir: str):
    for name in os.listdir(trace_dir):
        os.remove(os.path.join(trace_dir, name))
