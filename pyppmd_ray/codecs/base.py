"""Blob container format + codec registry.

Design note (vs the reference): pyppmd emits an opaque range-coder byte
stream with *no header at all* — codec parameters and the uncompressed
length must travel out-of-band (`/root/reference/src/ext/_ppmdmodule.c:836`,
`docs/ppmd8.rst:41-46`), which forces the fragile ``needs_input`` /
feed-``b"\\0"`` decode protocol (`/root/reference/README.rst:35-54`).
This engine makes the opposite choice: every encoded blob is fully
self-describing (magic, codec id, JSON meta incl. lengths, payload), so any
worker can decode any block with no session state — the property that makes
decode a stateless Ray ``map_batches`` pass.

Blob layout (little-endian):

    b'PR'  version:1B  codec_id:1B  meta_len:varint  meta:JSON-utf8  payload
"""

from __future__ import annotations

import json
from typing import Any, Callable

MAGIC = b"PR"
# v2: u32/16-bit-renorm rANS streams (u16 words, L=2^16) + fieldt typed
# exception framing. v1 archives raise a loud CodecError instead of
# decoding silently wrong through the new rANS reader.
VERSION = 2


class CodecError(ValueError):
    """Engine codec failure (analogue of the reference's ``PpmdError``,
    `/root/reference/src/pyppmd/c/c_ppmd.py:21-23`)."""


def write_uvarint(n: int) -> bytes:
    if n < 0:
        raise CodecError("uvarint must be non-negative")
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def read_uvarint(buf: bytes, pos: int) -> tuple[int, int]:
    n = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise CodecError("truncated uvarint")
        b = buf[pos]
        pos += 1
        n |= (b & 0x7F) << shift
        if not (b & 0x80):
            return n, pos
        shift += 7
        if shift > 63:
            raise CodecError("uvarint too long")


# codec_id -> (name, decode_fn(meta, payload) -> object)
_REGISTRY: dict[int, tuple[str, Callable[[dict, memoryview], Any]]] = {}
_NAME_TO_ID: dict[str, int] = {}


def register(codec_id: int, name: str, decode_fn: Callable[[dict, memoryview], Any]) -> None:
    if codec_id in _REGISTRY and _REGISTRY[codec_id][0] != name:
        raise CodecError(f"codec id {codec_id} already registered")
    _REGISTRY[codec_id] = (name, decode_fn)
    _NAME_TO_ID[name] = codec_id


def codec_id(name: str) -> int:
    return _NAME_TO_ID[name]


def codec_name(blob: bytes | memoryview) -> str:
    # byte layout: magic(2) version(1) codec_id(1) — the codec id is index 3
    return _REGISTRY[int(memoryview(blob)[3])][0]


def pack_blob(name: str, meta: dict, payload: bytes | memoryview = b"") -> bytes:
    mb = json.dumps(meta, separators=(",", ":"), sort_keys=True).encode()
    return b"".join(
        (MAGIC, bytes((VERSION, _NAME_TO_ID[name])), write_uvarint(len(mb)), mb, payload)
    )


def unpack_blob(blob: bytes | memoryview) -> tuple[str, dict, memoryview]:
    mv = memoryview(blob)
    if len(mv) < 4:
        raise CodecError("truncated blob header")
    if bytes(mv[:2]) != MAGIC:
        raise CodecError("bad magic")
    if mv[2] != VERSION:
        raise CodecError(
            f"unsupported blob version {mv[2]} (this build reads v{VERSION}; "
            "v1 archives must be decoded by a v1 build)"
        )
    cid = mv[3]
    if cid not in _REGISTRY:
        raise CodecError(f"unknown codec id {cid}")
    mlen, pos = read_uvarint(mv, 4)
    try:
        meta = json.loads(bytes(mv[pos : pos + mlen]).decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CodecError(f"truncated or corrupt blob meta: {e}") from e
    if not isinstance(meta, dict):
        raise CodecError("corrupt blob meta: not a JSON object")
    return _REGISTRY[cid][0], meta, mv[pos + mlen :]


def decode_blob(blob: bytes | memoryview) -> Any:
    """Decode any self-describing blob to the codec's natural value type.

    Decoders index their meta directly, so a corrupt blob with a missing
    key or a wrongly typed value raises ``KeyError``/``TypeError`` inside
    them; both are reported as ``CodecError``, like every other corruption."""
    name, meta, payload = unpack_blob(blob)
    try:
        return _REGISTRY[_NAME_TO_ID[name]][1](meta, payload)
    except (KeyError, TypeError) as e:
        raise CodecError(f"corrupt {name} blob meta: {e!r}") from e
