"""Codec-level round-trip tests.

Model: the reference's golden-vector + round-trip strategy
(`/root/reference/tests/test_ppmd7.py:10-92` — fixed tiny inputs plus a
checksummed corpus round-trip), applied per engine codec.
"""

from __future__ import annotations

import numpy as np
import pytest

from pyppmd_ray.codecs import decode_blob
from pyppmd_ray.codecs.numeric import (
    encode_constant,
    encode_delta,
    encode_for,
    encode_int_auto,
    encode_raw,
    encode_rle,
    pack_uints,
    unpack_uints,
)
from pyppmd_ray.codecs.rans import encode_rans0, normalize_freqs, M
from pyppmd_ray.codecs.fsst import encode_fsst, train_table
from pyppmd_ray.codecs.lz import encode_lz, pack_varbits, unpack_varbits

# the reference's golden sentence, tests/test_ppmd7.py:10
SENTENCE = b"This file is located in a folder.This file is located in the root."

CODE_SAMPLE = (
    b"def encode(self, data):\n    out = []\n    for b in data:\n"
    b"        out.append(self.table[b])\n    return b''.join(out)\n" * 50
)


def rt_int(arr, enc):
    blob = enc(arr)
    out = np.asarray(decode_blob(blob))
    assert out.dtype == arr.dtype
    np.testing.assert_array_equal(out, arr)
    return blob


class TestBitpack:
    @pytest.mark.parametrize("width", [0, 1, 3, 7, 8, 13, 31, 33, 63, 64])
    def test_roundtrip(self, width):
        rng = np.random.default_rng(42)
        if width == 0:
            arr = np.zeros(17, dtype=np.uint64)
        elif width == 64:
            arr = rng.integers(0, 1 << 63, 100, dtype=np.uint64) * 2 + 1
        else:
            arr = rng.integers(0, 1 << width, 100, dtype=np.uint64)
        out = unpack_uints(pack_uints(arr, width), arr.size, width)
        np.testing.assert_array_equal(out, arr)

    def test_varbits(self):
        vals = np.array([0, 1, 5, 1000, 0, 7], dtype=np.int64)
        widths = np.array([0, 1, 3, 10, 2, 3], dtype=np.int64)
        out = unpack_varbits(pack_varbits(vals, widths), widths)
        np.testing.assert_array_equal(out.astype(np.int64), vals)


class TestIntCodecs:
    cases = [
        np.array([], dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.array([5, 5, 5, 5], dtype=np.int64),
        np.arange(1000, dtype=np.int64),
        np.array([3, -1, 10**18, -(10**18), 0], dtype=np.int64),
        np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max], dtype=np.int64),
        np.random.default_rng(1).integers(-100, 100, 5000).astype(np.int64),
        np.repeat(np.array([1, 9, 1, 4], dtype=np.int64), [100, 1, 50, 3]),
    ]

    @pytest.mark.parametrize("enc", [encode_for, encode_delta, encode_rle, encode_int_auto])
    @pytest.mark.parametrize("i", range(len(cases)))
    def test_roundtrip(self, enc, i):
        rt_int(self.cases[i], enc)

    def test_unsigned(self):
        arr = np.array([0, 2**64 - 1, 5], dtype=np.uint64)
        rt_int(arr, encode_for)

    def test_constant(self):
        blob = encode_constant(5, -3, True)
        np.testing.assert_array_equal(decode_blob(blob), np.full(5, -3, dtype=np.int64))

    def test_delta_wins_on_sorted(self):
        arr = np.arange(0, 10**6, 137, dtype=np.int64)
        assert len(encode_delta(arr)) < len(encode_for(arr)) / 5


class TestRans:
    def test_normalize(self):
        counts = np.array([1000, 1, 0, 7])
        f = normalize_freqs(counts)
        assert f.sum() == M and f[2] == 0 and (f[np.array([0, 1, 3])] >= 1).all()

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"aaaaaaaaaaaaaa",
            SENTENCE,
            CODE_SAMPLE,
            bytes(range(256)) * 10,
            np.random.default_rng(3).integers(0, 256, 100_000).astype(np.uint8).tobytes(),
            np.random.default_rng(4).integers(0, 4, 50_000).astype(np.uint8).tobytes(),
        ],
    )
    def test_roundtrip(self, data):
        blob = encode_rans0(data)
        assert decode_blob(blob) == data

    def test_compresses_skewed(self):
        data = np.random.default_rng(5).integers(0, 4, 100_000).astype(np.uint8).tobytes()
        blob = encode_rans0(data)
        # entropy is 2 bits/byte → ~4x; allow slack for headers
        assert len(blob) < len(data) // 3


class TestFsst:
    @pytest.mark.parametrize(
        "data",
        [b"", b"x", SENTENCE, CODE_SAMPLE, b"/usr/lib/python3/dist-packages/foo.py" * 30],
    )
    def test_roundtrip(self, data):
        blob = encode_fsst(data)
        assert decode_blob(blob) == data

    def test_trained_table_compresses_paths(self):
        paths = b"\n".join(
            b"src/main/java/com/example/service/Handler%d.java" % i for i in range(200)
        )
        blob = encode_fsst(paths)
        assert len(blob) < len(paths) // 2

    def test_table_roundtrip_binary(self):
        data = bytes(range(256)) * 4 + b"\x00\x00\x00\x00" * 64
        assert decode_blob(encode_fsst(data)) == data


class TestLz:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"short",
            b"a" * 10_000,
            SENTENCE,
            CODE_SAMPLE,
            CODE_SAMPLE * 20,
            np.random.default_rng(6).integers(0, 256, 64_000).astype(np.uint8).tobytes(),
            b"ab" * 50_000,
            bytes(range(256)),
        ],
    )
    def test_roundtrip(self, data):
        blob = encode_lz(data)
        assert decode_blob(blob) == data

    def test_ratio_on_code(self):
        data = CODE_SAMPLE * 20
        blob = encode_lz(data)
        assert len(blob) < len(data) // 10

    def test_overlapping_matches(self):
        data = b"abcde" * 1000 + b"xyz" + b"q" * 500
        assert decode_blob(encode_lz(data)) == data

    def test_offset_before_output_start_raises(self, monkeypatch):
        """A corrupt match offset reaching before the first output byte
        must raise CodecError, not wrap into the unwritten output tail."""
        from pyppmd_ray.codecs import lz
        from pyppmd_ray.codecs.base import CodecError
        from pyppmd_ray.fixtures import generate_source_table

        t = generate_source_table(40, seed=1)
        data = "\n".join(t["content"].to_pylist()).encode()[:20_000]
        blob = encode_lz(data)
        assert decode_blob(blob) == data
        lls, mls, ofs, _ = lz.lz_parse(np.frombuffer(data, dtype=np.uint8))
        ml = np.array(mls)
        src = np.cumsum(lls) + np.cumsum(ml) - ml - np.array(ofs)
        # the latest match copying from the first 2,000 bytes: pushed
        # 2,000 bytes further back, it points before the output start
        k = int(np.flatnonzero(src < 2_000)[-1])
        assert k > 0
        orig = lz._off_decode

        def shifted(code, extra):
            of = orig(code, extra).copy()
            of[k] += 2_000
            return of

        monkeypatch.setattr(lz, "_off_decode", shifted)
        with pytest.raises(CodecError):
            decode_blob(blob)


class TestRaw:
    def test_roundtrip(self):
        assert decode_blob(encode_raw(b"hello")) == b"hello"
        assert decode_blob(encode_raw(b"")) == b""


class TestRans1:
    @pytest.mark.parametrize(
        "data",
        [b"", b"a" * 100, SENTENCE, CODE_SAMPLE * 20,
         np.random.default_rng(9).integers(0, 256, 80_000).astype(np.uint8).tobytes()],
    )
    def test_roundtrip(self, data):
        from pyppmd_ray.codecs.rans_ctx import encode_rans1

        assert decode_blob(encode_rans1(data)) == data

    def test_beats_order0_on_text(self):
        from pyppmd_ray.codecs.rans_ctx import encode_rans1

        data = CODE_SAMPLE * 20
        assert len(encode_rans1(data)) < len(encode_rans0(data))


class TestLined:
    @pytest.mark.parametrize(
        "data",
        [b"", b"no newlines here", b"a\nb\nc\n", CODE_SAMPLE * 40,
         b"\n" * 5000, (b"x" * 300 + b"\n") * 100,
         b"line one\nline two\nline one\nline three" * 200],
    )
    def test_roundtrip(self, data):
        from pyppmd_ray.codecs.lined import encode_lined

        assert decode_blob(encode_lined(data)) == data

    def test_wins_on_repeated_lines(self):
        from pyppmd_ray.codecs.lined import encode_lined
        from pyppmd_ray.codecs.lz import encode_lz

        data = CODE_SAMPLE * 40
        assert len(encode_lined(data)) < len(data) // 10


class TestFieldt:
    @pytest.mark.parametrize(
        "data",
        [b"", b"a,b\n", b"no delims", b"1,2,3\n4,5\n6,7,8\n" * 500,
         b"x/y/z\n" * 2000,
         b"Alice,3,14.50\nBob,27,0.99\n" * 800,
         b"a,-5,0.00\nb,0,123.45\n" * 600],
    )
    def test_roundtrip(self, data):
        from pyppmd_ray.codecs.fieldt import encode_fieldt

        assert decode_blob(encode_fieldt(data)) == data

    def test_typed_fields_win(self):
        from pyppmd_ray.codecs.fieldt import encode_fieldt
        from pyppmd_ray.codecs.rans import best_entropy_blob

        rows = b"".join(b"cat%d,%d,%d.%02d\n" % (i % 5, i * 37, i % 900, i % 100)
                        for i in range(4000))
        assert len(encode_fieldt(rows)) < len(best_entropy_blob(rows))

    def test_negative_zero_decimal_roundtrip(self):
        from pyppmd_ray.codecs.fieldt import encode_fieldt

        data = b"a,-0.00\nb,1.50\n" * 3000  # sign lost through cents==0 unless verified
        assert decode_blob(encode_fieldt(data)) == data

    def test_lined_u32_codes(self):
        from pyppmd_ray.codecs.lined import encode_lined

        # >65535 distinct lines forces the u32 code path, with enough
        # repeats to keep the dictionary worthwhile
        lines = [b"ln%d" % i for i in range(70000)] + [b"dup"] * 40000
        data = b"\n".join(lines) + b"\n"
        assert decode_blob(encode_lined(data)) == data


class TestWtok:
    @pytest.mark.parametrize(
        "data",
        [b"", b"nospaceshere", b" " * 5000, b"a b c " * 2000,
         b"the quick brown fox jumps over the lazy dog " * 500,
         bytes(range(256)) * 64,  # binary incl. 0x20
         b"word " * 3 + b"tail-without-trailing-space",
         (b"alpha beta gamma delta " * 50 + b"unique%d " % 7) * 40],
    )
    def test_roundtrip(self, data):
        from pyppmd_ray.codecs.wtok import encode_wtok

        assert decode_blob(encode_wtok(data)) == data

    def test_roundtrip_direct_wide_vocab(self):
        """Hundreds of distinct tokens: the direct wide-rANS path (m=2,
        prob_bits=15, front-coded vocab) must round-trip."""
        from pyppmd_ray.codecs.wtok import encode_wtok

        words = [b"w%04d" % (i % 700) for i in range(30000)]
        data = b" ".join(words) + b" "
        blob = encode_wtok(data)
        assert decode_blob(blob) == data
        from pyppmd_ray.codecs.base import unpack_blob

        _, meta, _ = unpack_blob(blob)
        assert meta["m"] == 2 and meta["D"] >= 700

    def test_roundtrip_two_plane_vocab(self):
        """>MAX_DIRECT distinct tokens falls back to the legacy lo/hi
        plane path (m=1) — quantizing >16k symbols into 32k slots would
        cost more than the plane split."""
        import numpy as np

        from pyppmd_ray.codecs.base import unpack_blob
        from pyppmd_ray.codecs.wtok import MAX_DIRECT, encode_wtok

        rng = np.random.default_rng(11)
        words = [b"w%05d" % (i % 20000) for i in range(60000)]
        rng.shuffle(words)
        data = b" ".join(words) + b" "
        blob = encode_wtok(data)
        assert decode_blob(blob) == data
        _, meta, _ = unpack_blob(blob)
        assert meta["m"] in (0, 1)
        if meta["m"] == 1:
            assert meta["D"] > MAX_DIRECT

    def test_unique_tokens_fall_back(self):
        """Mostly-unique tokens: dictionary is pure overhead; must take
        the m=0 general-codec path and still round-trip."""
        from pyppmd_ray.codecs.base import unpack_blob
        from pyppmd_ray.codecs.wtok import encode_wtok

        data = b" ".join(b"unique-token-%08d" % i for i in range(5000))
        blob = encode_wtok(data)
        assert decode_blob(blob) == data
        _, meta, _ = unpack_blob(blob)
        assert meta["m"] == 0

    def test_wins_on_word_stream_text(self):
        """Small-vocab word streams are the prose design point: wtok must
        beat every general codec (this is the documents-table regime
        where the reference's PPMd sits at ~8.5x)."""
        import numpy as np

        from pyppmd_ray.codecs.fsst import encode_fsst
        from pyppmd_ray.codecs.lz import encode_lz
        from pyppmd_ray.codecs.wtok import encode_wtok

        rng = np.random.default_rng(3)
        vocab = [b"spark", b"table", b"merge", b"window", b"stream",
                 b"column", b"vector", b"query", b"batch", b"join",
                 b"hash", b"scan", b"sort", b"agg", b"filter", b"row"]
        data = b" ".join(vocab[i] for i in rng.integers(0, 16, 60000)) + b" "
        w = len(encode_wtok(data))
        assert w < len(encode_lz(data))
        assert w < len(encode_fsst(data))
        # near the unigram entropy floor: 4 bits/token + dict overhead
        assert w < 60000 * 4.6 / 8

    def test_selector_picks_wtok_on_prose(self):
        import numpy as np
        import pyarrow as pa

        from pyppmd_ray.codecs.select import plan_table

        rng = np.random.default_rng(5)
        vocab = ["data", "spark", "merge", "query", "join", "table",
                 "scan", "row", "agg", "key", "window", "stream"]
        texts = [
            " ".join(vocab[i] for i in rng.integers(0, 12, 60))
            for _ in range(3000)
        ]
        plan = plan_table(pa.table({"text": texts}))
        assert plan["text"]["data_codec"] == "wtok"


class TestGcdCodec:
    def test_timestamp_stride_roundtrip(self):
        import numpy as np

        from pyppmd_ray.codecs import decode_blob
        from pyppmd_ray.codecs.numeric import encode_gcd, encode_int_auto

        day = 86_400_000_000
        rng = np.random.default_rng(9)
        v = (rng.integers(10_000, 12_000, 500) * day).astype(np.int64)
        blob = encode_gcd(v)
        assert blob is not None
        np.testing.assert_array_equal(decode_blob(blob), v)
        # the auto selector must pick it up and beat plain FOR
        auto = encode_int_auto(v)
        assert len(auto) <= len(blob)
        np.testing.assert_array_equal(decode_blob(auto), v)

    def test_gcd_one_returns_none(self):
        import numpy as np

        from pyppmd_ray.codecs.numeric import encode_gcd

        v = np.array([0, 1, 2, 5], dtype=np.int64)
        assert encode_gcd(v) is None

    def test_unsigned_full_range(self):
        import numpy as np

        from pyppmd_ray.codecs import decode_blob
        from pyppmd_ray.codecs.numeric import encode_gcd

        v = np.array(
            [2**64 - 2, 2**64 - 4, 10, 2, 2**63], dtype=np.uint64
        )  # gcd(v - 2) = 2
        blob = encode_gcd(v)
        assert blob is not None
        np.testing.assert_array_equal(decode_blob(blob), v)

    def test_negative_values(self):
        import numpy as np

        from pyppmd_ray.codecs import decode_blob
        from pyppmd_ray.codecs.numeric import encode_gcd

        v = np.array([-300, -100, 500, 12_300], dtype=np.int64)
        blob = encode_gcd(v)  # gcd of (v+300) = 100
        assert blob is not None
        np.testing.assert_array_equal(decode_blob(blob), v)


    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int16, np.float64])
    def test_non_64bit_dtype_declines(self, dtype):
        from pyppmd_ray.codecs.numeric import encode_gcd

        v = (np.arange(0, 1000, 10) * 3).astype(dtype)  # gcd 30
        assert encode_gcd(v) is None


class TestCorruptMeta:
    """A blob whose meta lacks a key the decoder reads raises CodecError
    (not KeyError), so callers catching CodecError see every corruption."""

    @pytest.mark.parametrize("codec", ["rans0", "rans1", "lz", "lined"])
    def test_each_meta_key_deleted_raises(self, codec):
        from pyppmd_ray.codecs import encode_lined, unpack_blob
        from pyppmd_ray.codecs.base import CodecError, pack_blob
        from pyppmd_ray.codecs.rans_ctx import encode_rans1
        from pyppmd_ray.fixtures import generate_source_table

        t = generate_source_table(60, seed=2)
        data = "\n".join(t["content"].to_pylist()).encode()[:30_000]
        enc = {"rans0": encode_rans0, "rans1": encode_rans1, "lz": encode_lz,
               "lined": encode_lined}[codec]
        blob = enc(data)
        name, meta, payload = unpack_blob(blob)
        assert name == codec and len(meta) >= 3
        for key in meta:
            bad = pack_blob(name, {k: v for k, v in meta.items() if k != key}, payload)
            with pytest.raises(CodecError):
                decode_blob(bad)

    def test_wrongly_typed_meta_raises(self):
        from pyppmd_ray.codecs import unpack_blob
        from pyppmd_ray.codecs.base import CodecError, pack_blob

        blob = encode_rans0(SENTENCE * 10)
        name, meta, payload = unpack_blob(blob)
        for key in meta:
            with pytest.raises(CodecError):
                decode_blob(pack_blob(name, {**meta, key: "x"}, payload))
        with pytest.raises(CodecError):
            decode_blob(blob[:4] + b"\x02[]" + bytes(payload))


class TestFdecCodec:
    def _roundtrip(self, arr):
        import numpy as np
        import pyarrow as pa

        from pyppmd_ray.codecs import decode_blob, encode_column

        col = pa.array(arr)
        blob = encode_column(col)
        out = decode_blob(blob).to_numpy(zero_copy_only=False)
        # bitwise compare: pa.Array.equals treats NaN != NaN
        view = np.uint32 if arr.dtype == np.float32 else np.uint64
        np.testing.assert_array_equal(out.view(view), np.asarray(arr).view(view))
        return blob

    def test_two_decimal_prices_compress(self):
        import numpy as np

        from pyppmd_ray.codecs import encode_column
        import pyarrow as pa

        rng = np.random.default_rng(4)
        v = np.round(rng.uniform(0, 100, 2000), 2)
        blob = self._roundtrip(v)
        # must beat the shuffle path by a wide margin on 2-decimal data
        raw = 2000 * 8
        assert len(blob) < raw / 3
        # the inner blob must be fdec (wire id 27 = 0x1b, blob VERSION 2)
        assert b"PR\x02\x1b" in bytes(blob)

    def test_negative_zero_falls_back_bitwise(self):
        import numpy as np

        v = np.array([0.25, -0.0, 1.5], dtype=np.float64)
        self._roundtrip(v)  # -0.0 must survive bit-for-bit

    def test_negative_zero_in_large_decimal_column(self):
        # large enough that fdec would WIN on size if it validated: the
        # int64 payload cannot represent -0.0, so the self-validation
        # (which replays the int64 cast) must force the fallback
        import numpy as np

        rng = np.random.default_rng(8)
        v = np.round(rng.uniform(0, 100, 2000), 2)
        v[1000] = -0.0
        blob = self._roundtrip(v)
        assert b"PR\x02\x1b" not in bytes(blob)  # fdec must NOT be chosen

    def test_nan_inf_fall_back(self):
        import numpy as np

        v = np.array([1.25, np.nan, np.inf, -2.5], dtype=np.float64)
        self._roundtrip(v)

    def test_float32_scaling(self):
        import numpy as np

        v = np.array([0.1, 0.2, 0.3, 12.7], dtype=np.float32)
        self._roundtrip(v)

    def test_non_decimal_noise_falls_back(self):
        import numpy as np

        rng = np.random.default_rng(11)
        v = rng.standard_normal(500)
        self._roundtrip(v)
