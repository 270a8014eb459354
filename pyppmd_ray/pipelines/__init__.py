from .compress import (  # noqa: F401
    encode_dataset,
    encode_dataset_shared,
    decode_dataset,
    run_encode_job,
    run_decode_job,
    run_decode_to_parquet,
    run_verify_job,
    read_encoded,
    plan_units,
    plan_dataset_hints,
    train_shared_state,
    row_sha256,
)
