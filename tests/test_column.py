"""Column codec round-trips over every supported Arrow type, including the
north-rule input schema (repo, path, commit, lang, content) and the test
tables' types. Bit-identity is the engine translation of the reference's
sha256 round-trip contract (`/root/reference/tests/test_ppmd7.py:56-92`)."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from pyppmd_ray.codecs import decode_blob
from pyppmd_ray.codecs.column import encode_column
from pyppmd_ray.codecs.strings import encode_sdict, encode_strings, strcol_from_arrow


def rt(arr: pa.Array, hints=None) -> bytes:
    blob = encode_column(arr, hints=hints)
    out = decode_blob(blob)
    assert out.type.equals(arr.type), (out.type, arr.type)
    if pa.types.is_floating(arr.type):
        # bit-level comparison (Array.equals treats NaN != NaN)
        assert out.is_null().equals(arr.is_null())
        np.testing.assert_array_equal(
            out.to_numpy(zero_copy_only=False), arr.to_numpy(zero_copy_only=False)
        )
    else:
        assert out.equals(arr), f"mismatch for {arr.type}"
    return blob


CASES = [
    pa.array(["python", "c", "python", "rust", "python", "c"] * 10),
    pa.array([], type=pa.string()),
    pa.array(["", "x", ""], type=pa.large_string()),
    pa.array([b"\x00\xff", b"", b"abc"], type=pa.binary()),
    pa.array([b"blob"] * 5, type=pa.large_binary()),
    pa.array(np.arange(100), type=pa.int64()),
    pa.array([1, 2, None, 4], type=pa.int32()),
    pa.array(np.random.default_rng(0).integers(0, 255, 50), type=pa.uint8()),
    pa.array([1.5, -2.25, float("nan"), 0.0], type=pa.float64()),
    pa.array(np.random.default_rng(1).normal(size=200).astype(np.float32)),
    pa.array([True, False, None, True]),
    pa.array([1, None, 3], type=pa.timestamp("us")),
    pa.array([1000, 2000], type=pa.timestamp("ns", tz="UTC")),
    pa.array([10, 20, None], type=pa.date32()),
    pa.array([[1.0, 2.0], [], None, [3.5]], type=pa.list_(pa.float32())),
    pa.array([[1, 2, 3], [4]], type=pa.list_(pa.int64())),
    pa.array([None, None], type=pa.string()),
    pa.array(["dup", "dup", "dup", "uniq%d" % 7] * 100),
]


@pytest.mark.parametrize("i", range(len(CASES)))
def test_column_roundtrip(i):
    rt(CASES[i])


def test_source_table_shape():
    """north-rule input shape from BASELINE.json input_hint"""
    n = 500
    rng = np.random.default_rng(42)
    repos = pa.array([f"org{i % 7}/repo{i % 13}" for i in range(n)])
    paths = pa.array([f"src/pkg{i % 11}/module_{i % 29}.py" for i in range(n)])
    commits = pa.array([hashlib.sha1(bytes([i % 8])).hexdigest() for i in range(n)])
    langs = pa.array(["python", "c", "go", "rust"][i % 4] for i in range(n))
    content = pa.array(
        ["def f_%d():\n    return %d\n" % (i, i) * (i % 20 + 1) for i in range(n)],
        type=pa.large_string(),
    )
    for arr in (repos, paths, commits, langs, content):
        rt(arr)


def test_sliced_array_roundtrip():
    arr = pa.array(["aa", "bb", "cc", "dd", "ee"]).slice(1, 3)
    rt(arr)


def test_hints_pin_layout():
    arr = pa.array(["x%d" % (i % 3) for i in range(100)])
    b_dict = encode_column(arr, hints={"layout": "sdict"})
    b_plain = encode_column(arr, hints={"layout": "strs", "data_codec": "raw"})
    assert decode_blob(b_dict).equals(arr)
    assert decode_blob(b_plain).equals(arr)
    assert len(b_dict) < len(b_plain)


def test_content_compresses_with_lz():
    content = pa.array(
        ["class Handler%d:\n    def run(self):\n        return %d\n" % (i, i) for i in range(500)],
        type=pa.large_string(),
    )
    blob = encode_column(content, hints={"layout": "strs", "data_codec": "lz"})
    raw_size = sum(len(s.as_py()) for s in content)
    assert decode_blob(blob).equals(content)
    assert len(blob) < raw_size // 3


def test_strcol_helpers():
    arr = pa.array(["abc", "", "defg"])
    off, data = strcol_from_arrow(arr)
    assert off.tolist() == [0, 3, 3, 7] and data == b"abcdefg"
    for enc in (encode_strings, encode_sdict):
        out_off, out_data = decode_blob(enc((off, data)))
        assert out_off.tolist() == off.tolist() and out_data == data


def test_uint64_full_range_roundtrip():
    # values >= 2^63 must bit-reinterpret through the int64 codec substrate
    # (round-2 ADVICE: value-cast wrapped 2^64-1 to -1 and broke decode)
    arr = pa.array(
        [0, 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64 - 2, 12345, None],
        type=pa.uint64(),
    )
    rt(arr)


def test_unsigned_boundary_matrix():
    for t, hi in [(pa.uint8(), 2**8), (pa.uint16(), 2**16), (pa.uint32(), 2**32), (pa.uint64(), 2**64)]:
        rt(pa.array([0, hi - 1, hi // 2, hi // 2 - 1, 7], type=t))
    for t, hi in [(pa.int8(), 2**7), (pa.int16(), 2**15), (pa.int32(), 2**31), (pa.int64(), 2**63)]:
        rt(pa.array([-hi, hi - 1, 0, -1, hi // 2], type=t))


def test_codec_name_reads_codec_id_byte():
    from pyppmd_ray.codecs.base import codec_name
    from pyppmd_ray.codecs.lz import encode_lz
    from pyppmd_ray.codecs.numeric import encode_raw

    assert codec_name(encode_lz(b"abcabcabcabc" * 20)) == "lz"
    assert codec_name(encode_raw(b"xyz")) == "raw"
    assert codec_name(encode_column(pa.array([1, 2, 3]))) == "column"


class TestExtendedTypes:
    """Round 3: full practical Arrow type surface — decimal128, struct,
    map, dictionary, fixed_size_binary, time32/64, duration, float16 —
    with nulls, slicing, and deterministic block ids."""

    def _cases(self):
        import numpy as np
        from decimal import Decimal

        return {
            "decimal": pa.array(
                [Decimal("1.23"), None, Decimal("-99999.99")], type=pa.decimal128(10, 2)
            ),
            "decimal_wide": pa.array(
                [Decimal("12345678901234567890.123"), Decimal("-0.001")],
                type=pa.decimal128(38, 3),
            ),
            "struct": pa.array(
                [{"a": 1, "b": "x"}, None, {"a": 2, "b": None}],
                type=pa.struct([("a", pa.int64()), ("b", pa.string())]),
            ),
            "fsb": pa.array([b"abcd", None, b"efgh"], type=pa.binary(4)),
            "dict": pa.array(["a", "b", None, "a"]).dictionary_encode(),
            "map": pa.array(
                [[("k", 1), ("j", 2)], None, []], type=pa.map_(pa.string(), pa.int64())
            ),
            "time32": pa.array([1, None, 3], type=pa.time32("s")),
            "time64": pa.array([1, 2, 3], type=pa.time64("ns")),
            "duration": pa.array([1, None, 3], type=pa.duration("ms")),
            "f16": pa.array(
                [np.float16(1.5), None, np.float16(-2.25)], type=pa.float16()
            ),
            "list_of_struct": pa.array(
                [[{"a": 1}], [{"a": 2}, {"a": 3}]],
                type=pa.list_(pa.struct([("a", pa.int64())])),
            ),
        }

    def test_column_roundtrip(self):
        from pyppmd_ray.codecs import decode_blob
        from pyppmd_ray.codecs.column import encode_column

        for name, arr in self._cases().items():
            out = decode_blob(encode_column(arr))
            assert out.equals(arr), name

    def test_sliced_block_roundtrip_and_deterministic_ids(self):
        from decimal import Decimal

        from pyppmd_ray.stages.blocks import decode_block, encode_block, split_by_bytes

        n = 600
        t = pa.table(
            {
                "id": pa.array(range(n), type=pa.int64()),
                "dec": pa.array(
                    [Decimal(i) / 100 for i in range(n)], type=pa.decimal128(20, 2)
                ),
                "st": pa.array(
                    [{"a": i, "b": f"s{i}"} for i in range(n)],
                    type=pa.struct([("a", pa.int64()), ("b", pa.string())]),
                ),
                "fsb": pa.array(
                    [bytes([i % 256] * 8) for i in range(n)], type=pa.binary(8)
                ),
                "mp": pa.array(
                    [[(f"k{i % 3}", i)] for i in range(n)],
                    type=pa.map_(pa.string(), pa.int64()),
                ),
                "dct": pa.array([f"v{i % 5}" for i in range(n)]).dictionary_encode(),
            }
        )
        subs = split_by_bytes(t, 4 << 10)
        assert len(subs) > 2  # slicing actually exercised
        ids_a, ids_b = [], []
        for sub in subs:
            blk = encode_block(sub)
            assert decode_block(blk["payload"]).equals(sub.combine_chunks())
            ids_a.append(blk["block_id"])
            ids_b.append(encode_block(sub)["block_id"])
        assert ids_a == ids_b  # content-addressed ids are deterministic

    def test_projection_skips_exotic_columns(self):
        from decimal import Decimal

        from pyppmd_ray.stages.blocks import decode_block, encode_block

        t = pa.table(
            {
                "id": pa.array([1, 2], type=pa.int64()),
                "dec": pa.array([Decimal("1.5"), None], type=pa.decimal128(5, 1)),
            }
        )
        blk = encode_block(t)
        proj = decode_block(blk["payload"], columns=["id"])
        assert proj.column_names == ["id"]


class TestOneStringPlanner:
    """A string column without hints is encoded under ``plan_strcol``'s
    choice — the planner ``plan_table`` runs for top-level columns — so a
    nested child gets the bytes it would get planned at top level."""

    @pytest.fixture(scope="class")
    def paths(self) -> list[str]:
        from pyppmd_ray.fixtures import generate_source_table

        return generate_source_table(300, seed=11)["path"].to_pylist()

    @staticmethod
    def planned(child: pa.Array) -> bytes:
        from pyppmd_ray.codecs.select import plan_strcol
        from pyppmd_ray.codecs.strings import filled_strcol

        return encode_column(child, hints=plan_strcol(filled_strcol(child)))

    def test_nested_children_encode_as_planned(self, paths):
        child = pa.array(paths)
        null_row = pa.array([i == 7 for i in range(len(paths))])
        triples = [paths[i : i + 3] for i in range(0, len(paths), 3)]
        nested = {
            # a null parent row reaches the child as a null
            "struct": (
                pa.StructArray.from_arrays([child], ["path"], mask=null_row),
                pa.array([None if i == 7 else p for i, p in enumerate(paths)]),
            ),
            "list<string>": (pa.array(triples, type=pa.list_(pa.string())), child),
            "dictionary<string>": (child.dictionary_encode(), child.unique()),
        }
        for name, (arr, expect_child) in nested.items():
            blob = encode_column(arr)
            assert self.planned(expect_child) in blob, name
            assert decode_blob(blob).equals(arr), name

    def test_fixed_size_binary_encodes_as_planned(self, paths):
        from pyppmd_ray.codecs.select import plan_strcol

        values = [p.encode()[:16].ljust(16, b" ") for p in paths]
        arr = pa.array(values, type=pa.binary(16))
        col = (np.arange(len(values) + 1, dtype=np.int64) * 16, b"".join(values))
        blob = encode_column(arr)
        assert blob == encode_column(arr, hints=plan_strcol(col))
        assert decode_blob(blob).equals(arr)

    def test_small_sdict_dictionary_plans_raw_without_trial(self, monkeypatch):
        """Under ``sdict`` the data codec encodes only the distinct values;
        under 64 bytes they are stored raw, so no trial may run."""
        from pyppmd_ray.codecs import select

        def no_trial(*args, **kwargs):
            raise AssertionError("trial encode for a dictionary under 64 bytes")

        monkeypatch.setattr(select, "pick_byte_codec", no_trial)
        flags = pa.array(["A", "N", "R"] * 20_000)
        assert select.plan_strcol(strcol_from_arrow(flags)) == {
            "layout": "sdict", "data_codec": "raw"
        }

    def test_sdict_codec_chosen_on_distinct_values(self):
        """A hint-less ``list<str>`` of F1 lines: choosing the codec on a
        sample of the whole column gave 246,618 bytes (wtok); chosen on
        the distinct lines it is smaller."""
        from pyppmd_ray.fixtures import generate_source_table

        contents = generate_source_table(900, seed=11)["content"].to_pylist()
        lines = pa.array([c.split("\n") for c in contents], type=pa.list_(pa.string()))
        blob = encode_column(lines)
        assert len(blob) < 246_618
        assert decode_blob(blob).equals(lines)

    def test_partial_hint_takes_planned_codec(self, paths):
        from pyppmd_ray.codecs.select import plan_strcol

        arr = pa.array(paths)
        data_codec = plan_strcol(strcol_from_arrow(arr))["data_codec"]
        blob = encode_column(arr, hints={"layout": "strs"})
        assert blob == encode_column(arr, hints={"layout": "strs", "data_codec": data_codec})
