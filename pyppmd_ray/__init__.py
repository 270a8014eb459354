"""pyppmd_ray — a Ray-Data-native per-column lightweight-compression engine.

A brand-new engine (NOT a port) with the round-trip contract of the
reference pyppmd library (`/root/reference/src/pyppmd/__init__.py:126-207`:
``decompress(compress(x)) == x``), re-expressed as columnar compression over
Parquet tables of source-code repositories using Ray Data:

- codec library: dictionary, RLE, frame-of-reference + bit-packing, delta,
  FSST-style trained symbol tables, a from-scratch LZ77+rANS block codec,
  and an interleaved static rANS entropy stage — numpy over zero-copy
  Arrow buffers, with the rANS and bit-packing loops in one C source
  that the first import compiles (``codecs/native.py``);
- sampling-based per-column codec auto-selection per encoded block;
- Ray Data pipelines: ``read_parquet → map_batches(encode_batches) →
  encoded-block parquet + per-partition lineage manifests`` and the inverse
  decode pass, with checkpoint-resume — every shape runs one encode and
  one decode kernel as stateless Ray tasks;
- per-row sha256 equality verification (the translation of the reference's
  round-trip tests, `/root/reference/tests/test_ppmd7.py:56-92`).

High-level one-shot API mirroring the reference's ``compress``/``decompress``
(`/root/reference/src/pyppmd/__init__.py:126-155, 185-207`):

>>> import pyppmd_ray as ppr
>>> blob = ppr.compress(b"some bytes")
>>> ppr.decompress(blob) == b"some bytes"
True
"""

from __future__ import annotations

__version__ = "0.1.0"

from .codecs import encode_blob, decode_blob  # noqa: F401
from .codecs.bytesapi import (  # noqa: F401
    compress,
    decompress,
    compress_str,
    decompress_str,
    BlockCompressor,
    BlockDecompressor,
    CodecError,
)
