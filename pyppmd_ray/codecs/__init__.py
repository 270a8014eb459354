"""Codec library: self-describing blobs, registry, and all codec modules.

Importing this package registers every codec; ``decode_blob`` then
dispatches any blob produced by any encoder.
"""

from __future__ import annotations

from .base import CodecError, decode_blob, pack_blob, unpack_blob, codec_name  # noqa: F401

# import order registers codec ids 1..16
from . import numeric  # noqa: F401  (raw, constant, forpack, delta, rle)
from . import rans  # noqa: F401     (rans0)
from . import rans_ctx  # noqa: F401 (rans1)
from . import fsst  # noqa: F401     (fsst)
from . import lz  # noqa: F401       (lz)
from . import lined  # noqa: F401    (lined)
from . import fieldt  # noqa: F401   (fieldt)
from . import wtok  # noqa: F401     (wtok)
from . import strings  # noqa: F401  (strs, sdict)
from . import column  # noqa: F401   (bshuf, boolp, plist, column)

from .numeric import encode_int_auto, encode_raw  # noqa: F401
from .rans import encode_rans0  # noqa: F401
from .rans_ctx import encode_rans1  # noqa: F401
from .fsst import encode_fsst  # noqa: F401
from .lz import encode_lz  # noqa: F401
from .lined import encode_lined  # noqa: F401
from .fieldt import encode_fieldt  # noqa: F401
from .wtok import encode_wtok  # noqa: F401
from .strings import BYTE_CODECS, encode_strings, encode_sdict  # noqa: F401
from .column import encode_column  # noqa: F401
