"""End-to-end Ray Data pipeline tests: encode → decode → per-row sha256
equality (the reference round-trip contract,
`/root/reference/tests/test_ppmd7.py:56-92`), partitioning invariance
(FIXTURES.md F4), and checkpoint-resume (FIXTURES.md F6)."""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pyppmd_ray.fixtures import generate_source_table, source_table_path
from pyppmd_ray.pipelines import (
    decode_dataset,
    encode_dataset,
    plan_units,
    read_encoded,
    row_sha256,
    run_encode_job,
    run_verify_job,
)
from pyppmd_ray.stages.blocks import decode_block, encode_block, split_by_bytes
from pyppmd_ray.state.manifest import completed_units, load_all_manifests, unit_manifest_path


@pytest.fixture(scope="module")
def source_tbl():
    return generate_source_table(1500, seed=42)


@pytest.fixture(scope="module")
def source_parquet(tmp_path_factory, source_tbl):
    p = tmp_path_factory.mktemp("src") / "source_files.parquet"
    pq.write_table(source_tbl, str(p), row_group_size=300)
    return str(p)


class TestBlocks:
    def test_block_roundtrip(self, source_tbl):
        sub = source_tbl.slice(0, 200)
        row = encode_block(sub)
        out = decode_block(row["payload"])
        assert out.equals(sub.select(out.column_names))
        assert row["n_rows"] == 200
        assert row["encoded_bytes"] < row["uncompressed_bytes"]
        meta = json.loads(row["meta"])
        assert set(meta["columns"]) == set(sub.column_names)

    def test_block_id_content_addressed(self, source_tbl):
        a = encode_block(source_tbl.slice(0, 50))
        b = encode_block(source_tbl.slice(0, 50))
        c = encode_block(source_tbl.slice(50, 50))
        assert a["block_id"] == b["block_id"] != c["block_id"]

    def test_split_by_bytes_budget(self, source_tbl):
        parts = split_by_bytes(source_tbl, 256 << 10)
        assert sum(p.num_rows for p in parts) == source_tbl.num_rows
        assert len(parts) > 1
        recon = pa.concat_tables(parts)
        assert recon.equals(source_tbl)


@pytest.mark.usefixtures("ray_session")
class TestStreamingPipeline:
    def test_encode_decode_sha(self, source_parquet, source_tbl):
        import ray.data as rd

        ds = rd.read_parquet(source_parquet)
        enc = encode_dataset(ds, target_block_bytes=1 << 20)
        dec = decode_dataset(enc)
        out = pa.concat_tables(dec.iter_batches(batch_size=None, batch_format="pyarrow"))
        # order-insensitive per-row sha comparison (streaming does not
        # guarantee block order)
        sa = sorted(row_sha256(source_tbl))
        sb = sorted(row_sha256(out))
        assert sa == sb
        assert out.num_rows == source_tbl.num_rows

    def test_compression_beats_raw(self, source_parquet):
        import ray.data as rd

        enc = encode_dataset(rd.read_parquet(source_parquet), target_block_bytes=4 << 20)
        stats = enc.to_pandas()
        ratio = stats["uncompressed_bytes"].sum() / stats["encoded_bytes"].sum()
        assert ratio > 3.0, f"ratio {ratio}"


@pytest.mark.usefixtures("ray_session")
class TestResumableJob:
    def test_job_and_verify(self, source_parquet, tmp_path):
        out_dir = str(tmp_path / "enc")
        s = run_encode_job(source_parquet, out_dir, target_block_bytes=1 << 20, unit_bytes=1)
        assert s["units_encoded"] == 5  # 1500 rows / 300 per row-group
        assert s["ratio"] > 3.0
        v = run_verify_job(source_parquet, out_dir, unit_bytes=1)
        assert v["ok"], v
        assert v["failed_units"] == []
        mans = load_all_manifests(out_dir)
        assert len(mans) == 5
        assert all(m["status"] == "done" for m in mans)
        assert all(m["ratio"] > 1 for m in mans)

    def test_verify_reports_failed_units_bounded(self, source_parquet, tmp_path):
        """A broken unit flips ok=False and lands (by id) in the bounded
        failed_units sample; the summary stays a streamed reduce."""
        import os

        from pyppmd_ray.state.manifest import load_all_manifests, unit_blocks_path

        out_dir = str(tmp_path / "encfail")
        run_encode_job(source_parquet, out_dir, target_block_bytes=1 << 20, unit_bytes=1)
        victim = load_all_manifests(out_dir)[2]["unit_id"]
        os.remove(unit_blocks_path(out_dir, victim))
        v = run_verify_job(source_parquet, out_dir, unit_bytes=1)
        assert not v["ok"]
        assert v["units"] == 5
        assert v["failed_units"] == [victim]

    def test_resume_skips_done(self, source_parquet, tmp_path):
        out_dir = str(tmp_path / "enc2")
        s1 = run_encode_job(source_parquet, out_dir, target_block_bytes=1 << 20, unit_bytes=1)
        s2 = run_encode_job(source_parquet, out_dir, target_block_bytes=1 << 20, unit_bytes=1)
        assert s1["units_encoded"] == 5 and s2["units_encoded"] == 0
        assert s2["units_skipped"] == 5

    def test_resume_after_partial_failure(self, source_parquet, tmp_path):
        """F6: kill after k units; rerun must skip completed and produce
        byte-identical output to an uninterrupted run."""
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        run_encode_job(source_parquet, out_a, target_block_bytes=1 << 20, unit_bytes=1)
        # simulate a crashed run: only 2 units completed
        units = plan_units(source_parquet, unit_bytes=1)
        os.makedirs(out_b, exist_ok=True)
        import shutil

        # _job.json is written before any unit, so a real crashed run
        # always has it — resume without it is rejected (tested below)
        shutil.copy(os.path.join(out_a, "_job.json"), os.path.join(out_b, "_job.json"))
        for u in units[:2]:
            shutil.copytree(
                os.path.join(out_a, "_manifests"),
                os.path.join(out_b, "_manifests"),
                dirs_exist_ok=True,
            )
        # keep only 2 manifests + their blocks
        keep = {u["unit_id"] for u in units[:2]}
        for f in glob.glob(os.path.join(out_b, "_manifests", "*.json")):
            uid = os.path.basename(f)[len("unit-") : -len(".json")]
            if uid not in keep:
                os.remove(f)
        os.makedirs(os.path.join(out_b, "blocks"), exist_ok=True)
        for uid in keep:
            shutil.copy(
                os.path.join(out_a, "blocks", f"unit-{uid}.parquet"),
                os.path.join(out_b, "blocks", f"unit-{uid}.parquet"),
            )
        assert completed_units(out_b) == keep
        s = run_encode_job(source_parquet, out_b, target_block_bytes=1 << 20, unit_bytes=1)
        assert s["units_skipped"] == 2 and s["units_encoded"] == 3
        # byte-identical block files across the two runs
        for u in units:
            a = open(os.path.join(out_a, "blocks", f"unit-{u['unit_id']}.parquet"), "rb").read()
            b = open(os.path.join(out_b, "blocks", f"unit-{u['unit_id']}.parquet"), "rb").read()
            ta = pq.read_table(pa.BufferReader(a))
            tb = pq.read_table(pa.BufferReader(b))
            assert ta.equals(tb), f"unit {u['unit_id']} differs between runs"

    def test_torn_manifest_not_done(self, source_parquet, tmp_path):
        out_dir = str(tmp_path / "enc3")
        run_encode_job(source_parquet, out_dir, target_block_bytes=1 << 20, unit_bytes=1)
        units = plan_units(source_parquet, unit_bytes=1)
        # corrupt one manifest → that unit must be re-run
        with open(unit_manifest_path(out_dir, units[0]["unit_id"]), "w") as f:
            f.write('{"status": "do')  # torn write
        assert units[0]["unit_id"] not in completed_units(out_dir)
        s = run_encode_job(source_parquet, out_dir, target_block_bytes=1 << 20, unit_bytes=1)
        assert s["units_encoded"] == 1


@pytest.mark.usefixtures("ray_session")
class TestPartitioningInvariance:
    """FIXTURES.md F4: decoded table identical at any partition count /
    block budget (translation of the reference's split-point tests,
    tests/test_ppmd7.py:23-53)."""

    @pytest.mark.parametrize("budget", [256 << 10, 8 << 20])  # FIXTURES.md F4
    def test_budget_invariance(self, source_tbl, budget):
        parts = split_by_bytes(source_tbl, budget)
        rows = [encode_block(p) for p in parts]
        recon = pa.concat_tables([decode_block(r["payload"]) for r in rows])
        assert recon.equals(source_tbl.select(recon.column_names))


@pytest.mark.usefixtures("ray_session")
def test_shared_state_encode_roundtrip(tmp_path):
    """North-star shared state: trained tables broadcast once (one
    object-store copy of the tasks' fn_kwargs), reused across blocks —
    decode must still be a stateless pass producing bit-identical rows."""
    import ray.data as rd

    from pyppmd_ray.fixtures import generate_source_table
    from pyppmd_ray.pipelines import decode_dataset, encode_dataset_shared, train_shared_state

    t = generate_source_table(2000, seed=7)
    ds = rd.from_arrow(t)
    state = train_shared_state(ds)
    assert state["hints"], "selector produced no plan"
    enc = encode_dataset_shared(ds, target_block_bytes=1 << 20, concurrency=2)
    dec = pa.concat_tables(
        decode_dataset(enc).iter_batches(batch_size=None, batch_format="pyarrow")
    )
    assert dec.num_rows == t.num_rows
    a = dec.sort_by("path")
    b = t.sort_by("path")
    assert a.equals(b.select(a.column_names))


@pytest.mark.usefixtures("ray_session")
def test_decode_quarantine_skips_corrupt_block(tmp_path):
    """A corrupt block must not poison the decode job: with
    quarantine=True it is skipped and parked under _quarantine/."""
    import glob
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from pyppmd_ray.fixtures import generate_source_table
    from pyppmd_ray.pipelines import run_decode_job, run_encode_job

    src = str(tmp_path / "src.parquet")
    out = str(tmp_path / "out")
    pq.write_table(generate_source_table(300, seed=3), src)
    run_encode_job(src, out, target_block_bytes=64 << 10, concurrency=2)
    # corrupt ONE block payload in place
    bpath = sorted(glob.glob(os.path.join(out, "blocks", "*.parquet")))[0]
    t = pq.read_table(bpath)
    payloads = t["payload"].to_pylist()
    assert len(payloads) >= 2, "need >=2 blocks for a meaningful skip test"
    bad = bytearray(payloads[0])
    bad[5:25] = b"\x00" * 20
    payloads[0] = bytes(bad)
    t = t.set_column(t.schema.get_field_index("payload"), "payload",
                     pa.array(payloads, type=pa.large_binary()))
    pq.write_table(t, bpath, compression="none")

    with pytest.raises(Exception):
        pa.concat_tables(
            run_decode_job(out).iter_batches(batch_size=None, batch_format="pyarrow")
        )
    dec = pa.concat_tables(
        run_decode_job(out, quarantine=True).iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
    )
    assert 0 < dec.num_rows < 300
    qfiles = glob.glob(os.path.join(out, "_quarantine", "*.bin"))
    assert len(qfiles) == 1
    assert os.path.exists(qfiles[0].replace(".bin", ".error.txt"))


@pytest.mark.usefixtures("ray_session")
def test_resume_with_different_params_refuses(tmp_path):
    import pyarrow.parquet as pq

    from pyppmd_ray.codecs.base import CodecError
    from pyppmd_ray.fixtures import generate_source_table
    from pyppmd_ray.pipelines import run_encode_job

    src = str(tmp_path / "src.parquet")
    out = str(tmp_path / "out")
    pq.write_table(generate_source_table(200, seed=5), src)
    run_encode_job(src, out, unit_bytes=32 << 20, concurrency=2)
    # same params resume: all skipped, no error
    s = run_encode_job(src, out, unit_bytes=32 << 20, concurrency=2)
    assert s["units_skipped"] == s["units_total"]
    with pytest.raises(CodecError):
        run_encode_job(src, out, unit_bytes=64 << 20, concurrency=2)


@pytest.mark.usefixtures("ray_session")
def test_encode_dataset_plan_block_roundtrip():
    """plan='block' (per-batch selector, heterogeneous-input mode)."""
    import ray.data as rd

    from pyppmd_ray.fixtures import generate_source_table
    from pyppmd_ray.pipelines import decode_dataset, encode_dataset

    t = generate_source_table(500, seed=11)
    dec = pa.concat_tables(
        decode_dataset(encode_dataset(rd.from_arrow(t), plan="block")).iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
    )
    assert dec.sort_by("path").equals(t.sort_by("path").select(dec.column_names))


class TestProjectionDecode:
    """Column-projection decode: only requested per-column blobs are
    decoded; the rest are skipped via the length-prefixed framing."""

    def test_decode_block_projected(self):
        t = pa.table(
            {
                "doc_id": pa.array(range(100), type=pa.int64()),
                "text": pa.array([f"line {i} " * 20 for i in range(100)]),
                "lang": pa.array(["en", "de"] * 50),
            }
        )
        blk = encode_block(t)
        proj = decode_block(blk["payload"], columns=["doc_id", "lang"])
        assert proj.column_names == ["doc_id", "lang"]
        assert proj.equals(t.select(["doc_id", "lang"]))
        # full decode still bit-identical
        assert decode_block(blk["payload"]).equals(t)

    def test_decode_block_projected_missing_column(self):
        t = pa.table({"a": pa.array([1, 2, 3], type=pa.int64())})
        blk = encode_block(t)
        with pytest.raises(KeyError):
            decode_block(blk["payload"], columns=["a", "nope"])

    def test_decode_dataset_projected(self, source_parquet):
        import ray.data as rd

        ds = rd.read_parquet(source_parquet)
        enc = encode_dataset(ds)
        dec = pa.concat_tables(
            decode_dataset(enc, columns=["path"]).iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
        )
        orig = pq.read_table(source_parquet, columns=["path"])
        assert dec.num_rows == orig.num_rows
        assert sorted(dec["path"].to_pylist()) == sorted(orig["path"].to_pylist())

    def test_projected_restores_cluster_sorted_order(self):
        # block with a non-identity cluster permutation: projection must
        # still restore the ORIGINAL row order via the perm entry
        t = pa.table(
            {
                "lang": pa.array(["zz", "aa"] * 50),
                "doc_id": pa.array(range(100), type=pa.int64()),
                "text": pa.array([f"body {i}" for i in range(100)]),
            }
        )
        blk = encode_block(t, cluster_by=("lang",))
        proj = decode_block(blk["payload"], columns=["doc_id"])
        assert proj["doc_id"].to_pylist() == list(range(100))


def test_quarantine_requires_dir():
    import ray.data as rd

    from pyppmd_ray.codecs.base import CodecError

    enc = encode_dataset(rd.from_arrow(pa.table({"a": [1, 2]})))
    with pytest.raises(ValueError):
        decode_dataset(enc, on_error="quarantine", quarantine_dir=None)


def test_resume_without_job_json_rejected(source_parquet, tmp_path):
    """blocks/ present but no _job.json (pre-guard layout) → resume must
    refuse instead of silently re-planning to new unit ids."""
    from pyppmd_ray.codecs.base import CodecError

    out = str(tmp_path / "legacy")
    run_encode_job(source_parquet, out, target_block_bytes=1 << 20, unit_bytes=1)
    os.remove(os.path.join(out, "_job.json"))
    with pytest.raises(CodecError):
        run_encode_job(source_parquet, out, target_block_bytes=1 << 20, unit_bytes=1)
    # resume=False proceeds (re-encodes everything)
    s = run_encode_job(
        source_parquet, out, target_block_bytes=1 << 20, unit_bytes=1, resume=False
    )
    assert s["units_encoded"] == s["units_total"]


class TestResumableDecode:
    def test_decode_to_parquet_resumes(self, source_parquet, tmp_path):
        from pyppmd_ray.pipelines import run_decode_to_parquet

        out = str(tmp_path / "enc")
        dest = str(tmp_path / "dec")
        run_encode_job(source_parquet, out, target_block_bytes=1 << 20, unit_bytes=1)
        s1 = run_decode_to_parquet(out, dest)
        assert s1["units_decoded"] == s1["units_total"] and s1["units_skipped"] == 0
        # decoded rows == original rows, bit-identical per column
        import pyarrow.dataset as pads

        orig = pq.read_table(source_parquet)
        dec = pads.dataset(dest, format="parquet").to_table()
        assert dec.num_rows == orig.num_rows
        assert sorted(row_sha256(dec, "content")) == sorted(row_sha256(orig, "content"))
        # delete one output → rerun decodes exactly that unit
        files = sorted(os.listdir(dest))
        os.remove(os.path.join(dest, files[0]))
        s2 = run_decode_to_parquet(out, dest)
        assert s2["units_decoded"] == 1
        assert s2["units_skipped"] == s2["units_total"] - 1
        # full rerun is a no-op
        s3 = run_decode_to_parquet(out, dest)
        assert s3["units_decoded"] == 0

    def test_decode_to_parquet_projected(self, source_parquet, tmp_path):
        from pyppmd_ray.pipelines import run_decode_to_parquet

        out = str(tmp_path / "enc")
        dest = str(tmp_path / "dec")
        run_encode_job(source_parquet, out, target_block_bytes=1 << 20, unit_bytes=1)
        run_decode_to_parquet(out, dest, columns=["path"])
        import pyarrow.dataset as pads

        dec = pads.dataset(dest, format="parquet").to_table()
        assert dec.column_names == ["path"]
        assert dec.num_rows == pq.read_table(source_parquet).num_rows


def test_job_pipeline_exotic_types(tmp_path):
    """run_encode_job → run_verify_job → run_decode_to_parquet over a
    parquet table using the round-3 type surface (decimal, struct, map,
    dictionary, fsb, duration) — the 'any parquet table' claim through
    the production job path."""
    from decimal import Decimal

    from pyppmd_ray.pipelines import run_decode_to_parquet

    n = 500
    t = pa.table(
        {
            "id": pa.array(range(n), type=pa.int64()),
            "content": pa.array([f"body {i} " * (i % 7 + 1) for i in range(n)]),
            "dec": pa.array([Decimal(i * 7) / 100 for i in range(n)], type=pa.decimal128(18, 2)),
            "st": pa.array(
                [{"a": i % 5, "b": f"s{i % 3}"} for i in range(n)],
                type=pa.struct([("a", pa.int64()), ("b", pa.string())]),
            ),
            "mp": pa.array(
                [[(f"k{i % 2}", i)] for i in range(n)],
                type=pa.map_(pa.string(), pa.int64()),
            ),
            "fsb": pa.array([bytes([i % 256] * 4) for i in range(n)], type=pa.binary(4)),
            "dur": pa.array(range(n), type=pa.duration("ms")),
            "dct": pa.array([f"v{i % 4}" for i in range(n)]).dictionary_encode(),
        }
    )
    src = str(tmp_path / "exotic.parquet")
    pq.write_table(t, src)
    out = str(tmp_path / "enc")
    s = run_encode_job(src, out, target_block_bytes=64 << 10)
    assert s["n_rows"] == n and s["ratio"] > 1.0
    v = run_verify_job(src, out)
    assert v["ok"], v
    dest = str(tmp_path / "dec")
    run_decode_to_parquet(out, dest)
    import pyarrow.dataset as pads

    dec = pads.dataset(dest, format="parquet").to_table()
    # dictionary columns decode to dictionary type; parquet round-trip of
    # the DECODED table may re-encode — compare logical values
    assert dec.num_rows == n
    for c in t.column_names:
        a = t[c].combine_chunks()
        b = dec[c].combine_chunks()
        if pa.types.is_dictionary(a.type) and not pa.types.is_dictionary(b.type):
            a = a.cast(a.type.value_type)
        elif pa.types.is_dictionary(b.type) and not pa.types.is_dictionary(a.type):
            b = b.cast(b.type.value_type)
        assert a.equals(b), c


@pytest.mark.usefixtures("ray_session")
class TestOneKernel:
    """Every pipeline shape runs the same encode_batches/decode_batches
    kernels: with one pinned plan, the job and the streaming encode write
    exactly the bytes the in-process kernel writes, and every decode
    shape gives the input back."""

    BLOCK = 512 << 10

    @pytest.fixture(scope="class")
    def pinned(self, tmp_path_factory):
        from pyppmd_ray.pipelines.compress import plan_sample_table

        path = str(tmp_path_factory.mktemp("onekernel") / "src.parquet")
        pq.write_table(generate_source_table(600, seed=3), path)
        tbl = pq.read_table(path)
        hints, _ = plan_sample_table(tbl)
        return path, tbl, hints

    def _expected(self, tbl, hints):
        from pyppmd_ray.stages.encode import encode_batches

        exp = encode_batches(tbl, target_block_bytes=self.BLOCK, hints=hints)
        assert exp.num_rows > 1
        return exp["payload"].to_pylist()

    def test_encode_job_matches_kernel(self, pinned, tmp_path):
        path, tbl, hints = pinned
        out = str(tmp_path / "enc")
        s = run_encode_job(path, out, target_block_bytes=self.BLOCK, hints=hints)
        assert s["units_total"] == 1
        blocks = pq.read_table(glob.glob(os.path.join(out, "blocks", "*.parquet"))[0])
        assert blocks["payload"].to_pylist() == self._expected(tbl, hints)

        v = run_verify_job(path, out)
        assert v["ok"] and v["units"] == 1, v

        from pyppmd_ray.pipelines import run_decode_to_parquet

        dest = str(tmp_path / "dec")
        run_decode_to_parquet(out, dest)
        dec = pq.read_table(glob.glob(os.path.join(dest, "*.parquet"))[0])
        assert dec.equals(tbl)

    def test_encode_dataset_matches_kernel(self, pinned):
        import ray.data as rd

        path, tbl, hints = pinned
        enc_ds = encode_dataset(
            rd.read_parquet(path), target_block_bytes=self.BLOCK, hints=hints,
            batch_rows=tbl.num_rows,
        )
        enc = pa.concat_tables(enc_ds.iter_batches(batch_size=None, batch_format="pyarrow"))
        assert enc["payload"].to_pylist() == self._expected(tbl, hints)

        dec = pa.concat_tables(
            decode_dataset(rd.from_arrow(enc)).iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
        )
        assert dec.sort_by("path").equals(tbl.sort_by("path"))


@pytest.mark.usefixtures("ray_session")
def test_unit_manifest_covers_every_block(tmp_path):
    """A unit whose blocks chose different cascades lists them all, and
    its per-column bytes sum over every block, not just block 0."""
    rng = np.random.default_rng(0)
    n = 2000
    t = pa.table(
        {
            "k": pa.array(
                np.concatenate([np.arange(n), rng.integers(0, 1 << 40, n)]),
                type=pa.int64(),
            )
        }
    )
    src = str(tmp_path / "src.parquet")
    pq.write_table(t, src)
    out = str(tmp_path / "enc")
    # 8 bytes a row: one block per half, sorted then random
    run_encode_job(src, out, target_block_bytes=8 * n)
    (man,) = load_all_manifests(out)
    blocks = pq.read_table(glob.glob(os.path.join(out, "blocks", "*.parquet"))[0])
    metas = [json.loads(m)["columns"]["k"] for m in blocks["meta"].to_pylist()]
    assert len(metas) == 2
    codecs = sorted({m["codec"] for m in metas})
    assert len(codecs) == 2, codecs
    col = man["columns"]["k"]
    assert col["codec"] == codecs
    assert col["bytes"] == sum(m["bytes"] for m in metas)
    assert col["type"] == metas[0]["type"]
