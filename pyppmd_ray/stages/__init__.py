from .blocks import encode_block, decode_block, split_by_bytes, BLOCK_SCHEMA  # noqa: F401
from .encode import encode_batches, decode_batches, DEFAULT_BLOCK_BYTES  # noqa: F401
