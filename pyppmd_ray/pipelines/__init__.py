from .compress import (  # noqa: F401
    encode_dataset,
    decode_dataset,
    run_encode_job,
    run_decode_job,
    run_decode_to_parquet,
    run_verify_job,
    read_encoded,
    plan_units,
    row_sha256,
)
