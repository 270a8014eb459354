"""High-level byte-stream API mirroring the reference's public surface.

Reference parity (`/root/reference/src/pyppmd/__init__.py`):
- ``compress(data_or_str)`` / ``decompress`` / ``decompress_str``
  (`__init__.py:126-155, 158-207`) → one-shot block compression;
- ``PpmdCompressor`` / ``PpmdDecompressor`` streaming sessions
  (`__init__.py:62-123`) → :class:`BlockCompressor` /
  :class:`BlockDecompressor`.

Semantics difference, by design: the reference emits one headerless
adaptive stream whose decode needs out-of-band params + the fragile
``needs_input``/feed-``b"\\0"`` protocol (`/root/reference/README.rst:35-54`).
This engine frames every block explicitly (varint length + self-describing
blob), so decode needs no session parameters and never guesses at stream
end. The round-trip contract ``decompress(compress(x)) == x`` — the
property the reference's tests pin (`/root/reference/tests/test_ppmd7.py:
56-92`) — holds for any chunking on either side.
"""

from __future__ import annotations

import numpy as np

from .base import CodecError, decode_blob, read_uvarint, write_uvarint
from .strings import BYTE_CODECS

# the public subset of BYTE_CODECS that compress() and BlockCompressor take
ONE_SHOT_CODECS = ("fsst", "lz", "rans0", "raw")

DEFAULT_BLOCK_SIZE = 4 << 20
# public parameter bounds — the analogue of the reference's max_order /
# mem_size clamping (`/root/reference/src/ext/_ppmdmodule.c:157-174`,
# which silently clamps out-of-range values rather than raising)
MIN_BLOCK_SIZE = 4 << 10
MAX_BLOCK_SIZE = 256 << 20


def clamp_block_size(v: int) -> int:
    """Silently clamp like the reference clamps mem_size
    (`/root/reference/src/ext/_ppmdmodule.c:157-174`)."""
    try:
        v = int(v)
    except (TypeError, ValueError) as e:
        raise CodecError(f"block_size must be an int, got {v!r}") from e
    return max(MIN_BLOCK_SIZE, min(MAX_BLOCK_SIZE, v))


def compress(data: bytes | bytearray | memoryview | str, *, codec: str = "lz") -> bytes:
    """One-shot compress; str is UTF-8 encoded first (reference
    `__init__.py:144-145` behavior). ``codec`` is validated against the
    public codec set (CodecError on unknown, like the reference's variant
    check, `__init__.py:142-149`)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    if codec not in ONE_SHOT_CODECS:
        raise CodecError(f"unknown codec {codec!r}; choose from {list(ONE_SHOT_CODECS)}")
    return BYTE_CODECS[codec](bytes(data))


def decompress(blob: bytes | memoryview) -> bytes:
    out = decode_blob(blob)
    if not isinstance(out, (bytes, bytearray)):
        raise CodecError("blob does not decode to a byte stream")
    return bytes(out)


def compress_str(text: str, *, codec: str = "lz") -> bytes:
    return compress(text, codec=codec)


def decompress_str(blob: bytes | memoryview, encoding: str = "utf-8") -> str:
    return decompress(blob).decode(encoding)


class BlockCompressor:
    """Streaming compressor: buffers input, emits framed self-describing
    blocks of ~``block_size`` bytes. ``compress()*`` + ``flush()`` mirrors
    the reference session API (`/root/reference/src/pyppmd/__init__.py:
    62-92`); output = concatenation of all returned bytes."""

    def __init__(self, codec: str = "lz", block_size: int = DEFAULT_BLOCK_SIZE):
        if codec not in ONE_SHOT_CODECS:
            raise CodecError(f"unknown codec {codec!r}; choose from {list(ONE_SHOT_CODECS)}")
        self.codec = codec
        self.block_size = clamp_block_size(block_size)
        self._buf = bytearray()
        self._flushed = False

    @property
    def eof(self) -> bool:
        return self._flushed

    def compress(self, chunk: bytes | bytearray | memoryview | str) -> bytes:
        if self._flushed:
            raise CodecError("compressor already flushed")
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8")
        self._buf += bytes(chunk)
        out = bytearray()
        while len(self._buf) >= self.block_size:
            block = bytes(self._buf[: self.block_size])
            del self._buf[: self.block_size]
            blob = BYTE_CODECS[self.codec](block)
            out += write_uvarint(len(blob)) + blob
        return bytes(out)

    def flush(self) -> bytes:
        """Emit the final partial block plus an explicit END-OF-STREAM
        terminator frame (a zero-length frame — real blocks always carry a
        non-empty blob, so ``varint 0`` is unambiguous). The terminator is
        what flips the peer :class:`BlockDecompressor`'s ``eof``, the
        framed analogue of the reference's endmark (`/root/reference/src/
        ext/_ppmdmodule.c:637-655`: ``eof`` when the decoder sees
        ``Code==0`` at the endmark symbol)."""
        if self._flushed:
            raise CodecError("compressor already flushed")
        self._flushed = True
        out = b""
        if self._buf:
            blob = BYTE_CODECS[self.codec](bytes(self._buf))
            self._buf.clear()
            out = write_uvarint(len(blob)) + blob
        return out + write_uvarint(0)


class BlockDecompressor:
    """Streaming decompressor over framed blocks; explicit framing means
    no ``needs_input`` guessing (contrast `/root/reference/src/ext/
    _ppmdmodule.c:424-501`'s unconsumed-buffer machinery). ``eof`` flips
    exactly when the flush()-written terminator frame is consumed —
    parity with the reference decoder's ``eof`` accessor
    (`_ppmdmodule.c:637-655`); bytes fed after that accumulate in
    ``unused_data``, as in the reference."""

    def __init__(self):
        self._buf = bytearray()
        self._eof = False

    @property
    def eof(self) -> bool:
        return self._eof

    @property
    def needs_input(self) -> bool:
        return not self._eof and len(self._buf) > 0

    @property
    def unused_data(self) -> bytes:
        return bytes(self._buf)

    def decompress(self, chunk: bytes | bytearray | memoryview) -> bytes:
        self._buf += bytes(chunk)
        if self._eof:
            return b""
        out = bytearray()
        while True:
            try:
                blen, pos = read_uvarint(bytes(self._buf[:10]), 0)
            except CodecError:
                break
            if blen == 0:  # terminator frame: stream complete
                del self._buf[:pos]
                self._eof = True
                break
            if len(self._buf) - pos < blen:
                break
            blob = bytes(self._buf[pos : pos + blen])
            del self._buf[: pos + blen]
            out += decompress(blob)
        return bytes(out)
