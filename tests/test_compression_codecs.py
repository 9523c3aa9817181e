"""Unit tests for individual compression codecs.

Generic round-trip/size/determinism properties live in
``test_compression_properties.py``, swept over every registry codec
(including chunked and sorted variants) — codec-specific behaviour
stays here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    BpcCodec,
    ChunkedCodec,
    DeltaCodec,
    RawCodec,
    RleCodec,
    SortingCodec,
    as_unsigned_bits,
    bpc_chunk_encoded_sizes,
    from_unsigned_bits,
)
from repro.compression.bpc import _batch_chunk_sizes
from repro.compression.sizes import bpc_group_sizes

uint64_arrays = st.lists(
    st.integers(0, 2 ** 64 - 1), min_size=0, max_size=100
).map(lambda xs: np.asarray(xs, dtype=np.uint64))


@st.composite
def bpc_rows(draw, width, chunk):
    """One chunk whose DBX planes hit every BPC symbol class.

    ``stepped`` rows repeat one step except at one or two adjacent
    positions: a constant non-zero step gives all-ones planes, the odd
    steps give single-bit and two-adjacent-bit planes, and a negative
    (wrapped) step sets the borrow bit of every delta.
    """
    mask = (1 << width) - 1
    kind = draw(st.sampled_from(["random", "constant", "stepped"]))
    if kind == "random":
        return draw(st.lists(st.integers(0, mask), min_size=chunk,
                             max_size=chunk))
    row = [draw(st.integers(0, mask))]
    if kind == "constant":
        return row * chunk
    power_step = st.builds(lambda k, neg: (-(1 << k) if neg else 1 << k)
                           & mask,
                           st.integers(0, width - 1), st.booleans())
    step_values = st.one_of(st.sampled_from([0, 1, mask]), power_step,
                            st.integers(0, mask))
    steps = [draw(step_values)] * (chunk - 1)
    first = draw(st.integers(0, chunk - 2))
    for pos in range(first, first + draw(st.integers(0, 2))):
        if pos < chunk - 1:
            steps[pos] = draw(step_values)
    for step in steps:
        row.append((row[-1] + step) & mask)
    return row


@st.composite
def bpc_tables(draw):
    """(width, chunk, rows) for the batched BPC sizer."""
    width = draw(st.sampled_from([8, 16, 32, 64]))
    chunk = draw(st.integers(2, 65))
    rows = draw(st.lists(bpc_rows(width, chunk), min_size=1, max_size=4))
    return width, chunk, rows


class TestBitViewHelpers:
    def test_float_bits_roundtrip(self):
        x = np.array([1.5, -2.25, 0.0, 3e38], dtype=np.float32)
        bits = as_unsigned_bits(x)
        assert bits.dtype == np.uint32
        back = from_unsigned_bits(bits, np.float32)
        assert np.array_equal(back, x)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(TypeError):
            as_unsigned_bits(np.array(["a"], dtype=object))


class TestDeltaCodec:
    def test_compresses_sorted_neighbour_sets(self):
        rng = np.random.default_rng(3)
        ids = np.sort(rng.integers(0, 4000, 500)).astype(np.uint32)
        assert DeltaCodec().ratio(ids) > 2.0

    def test_expands_random_data(self):
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 2 ** 32, 500, dtype=np.uint64).astype(np.uint32)
        assert DeltaCodec().ratio(ids) < 1.0

    def test_small_deltas_one_byte_each(self):
        x = np.arange(1000, dtype=np.uint32)  # all deltas == 1
        size = DeltaCodec().encoded_size(x)
        assert size <= 2 + (x.size - 1)  # first varint + 1B per delta

    @settings(max_examples=20, deadline=None)
    @given(data=uint64_arrays)
    def test_u64_roundtrip(self, data):
        codec = DeltaCodec()
        out = codec.decode(codec.encode(data), data.size, np.uint64)
        assert np.array_equal(out, data)


class TestBpcCodec:
    def test_vectorized_sizes_match_encoder_exactly(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            base = rng.integers(0, 10 ** 6)
            x = (base + np.cumsum(rng.integers(0, 50, 257))).astype(np.uint32)
            sizes = bpc_chunk_encoded_sizes(x)
            assert sizes.sum() == len(BpcCodec().encode(x))

    @settings(max_examples=150, deadline=None)
    @given(bpc_tables())
    def test_batch_sizes_match_encoder_per_chunk(self, drawn):
        width, chunk, rows = drawn
        item = width // 8
        table = np.array(rows, dtype=np.uint64)
        codec = BpcCodec(chunk)
        expected = [len(codec._encode_chunk(
            np.array(row, dtype=f"u{item}"), width)) for row in rows]
        assert _batch_chunk_sizes(table, width, item).tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(bpc_tables(), st.lists(st.integers(1, 300), max_size=3))
    def test_group_sizes_match_encoder(self, drawn, cuts):
        width, chunk, rows = drawn
        bits = np.array([v for row in rows for v in row],
                        dtype=f"u{width // 8}")
        bounds = sorted({0, bits.size, *(c % bits.size for c in cuts)})
        codec = BpcCodec(chunk)
        expected = [len(codec.encode(bits[a:b]))
                    for a, b in zip(bounds[:-1], bounds[1:])]
        starts = np.array(bounds[:-1], dtype=np.int64)
        assert bpc_group_sizes(bits, starts, chunk).tolist() == expected

    def test_vectorized_sizes_match_on_random(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 2 ** 32, 320, dtype=np.uint64).astype(np.uint32)
        assert bpc_chunk_encoded_sizes(x).sum() == len(BpcCodec().encode(x))

    def test_vectorized_sizes_match_u64(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 2 ** 63, 96, dtype=np.uint64)
        assert bpc_chunk_encoded_sizes(x).sum() == len(BpcCodec().encode(x))

    def test_never_expands_beyond_flag_byte(self):
        rng = np.random.default_rng(8)
        x = rng.integers(0, 2 ** 32, 32, dtype=np.uint64).astype(np.uint32)
        raw = x.size * 4
        assert BpcCodec().encoded_size(x) <= raw + 1

    def test_similar_values_compress_well(self):
        rng = np.random.default_rng(9)
        x = (10 ** 6 + rng.integers(0, 16, 256)).astype(np.uint32)
        assert BpcCodec().ratio(x) > 3.0

    def test_rejects_degenerate_chunks(self):
        with pytest.raises(ValueError):
            BpcCodec(chunk_elems=1)

    def test_custom_chunk_size_roundtrip(self):
        codec = BpcCodec(chunk_elems=8)
        x = np.arange(30, dtype=np.uint32) * 3
        out = codec.decode(codec.encode(x), x.size, np.uint32)
        assert np.array_equal(out, x)


class TestBdiCodec:
    def test_zero_line_compresses_to_tag(self):
        from repro.compression import bdi_line_size
        assert bdi_line_size(bytes(64)) == 1

    def test_repeat_line(self):
        from repro.compression import bdi_line_size
        line = (b"\x11" * 8) * 8
        assert bdi_line_size(line) == 9

    def test_base8_delta1(self):
        from repro.compression import bdi_line_size
        base = 10 ** 12
        words = np.array([base + d for d in range(8)], dtype=np.uint64)
        assert bdi_line_size(words.tobytes()) == 1 + 8 + 8

    def test_incompressible_line_is_raw(self):
        from repro.compression import bdi_line_size
        rng = np.random.default_rng(10)
        line = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
        assert bdi_line_size(line) == 65

    def test_line_roundtrip(self):
        from repro.compression import bdi_decode_line, bdi_encode_line
        rng = np.random.default_rng(11)
        cases = [
            bytes(64),
            (b"\xab" * 8) * 8,
            np.arange(16, dtype=np.uint32).tobytes(),
            rng.integers(0, 256, 64, dtype=np.uint8).tobytes(),
            (np.uint64(2 ** 40) + np.arange(8, dtype=np.uint64)).tobytes(),
        ]
        for line in cases:
            assert bdi_decode_line(bdi_encode_line(line)) == line


class TestRleCodec:
    def test_runs_compress_heavily(self):
        x = np.repeat(np.array([5, 9, 5], dtype=np.uint32), 500)
        assert RleCodec().ratio(x) > 100

    def test_alternating_large_values_expand(self):
        # Each length-1 run costs 1 byte length + 4 bytes value = 5 bytes,
        # versus 4 raw bytes per element.
        x = np.tile(np.array([1 << 20, 1 << 21], dtype=np.uint32), 100)
        assert RleCodec().ratio(x) < 1.0


class TestChunkedCodec:
    def test_framing_roundtrip(self):
        codec = ChunkedCodec(DeltaCodec(), chunk_elems=16)
        x = np.arange(100, dtype=np.uint32) * 7
        out = codec.decode(codec.encode(x), x.size, np.uint32)
        assert np.array_equal(out, x)

    def test_partial_final_chunk(self):
        codec = ChunkedCodec(BpcCodec(chunk_elems=8), chunk_elems=8)
        x = np.arange(13, dtype=np.uint32)
        out = codec.decode(codec.encode(x), x.size, np.uint32)
        assert np.array_equal(out, x)

    def test_encoded_size_matches(self):
        codec = ChunkedCodec(DeltaCodec(), chunk_elems=32)
        rng = np.random.default_rng(12)
        x = rng.integers(0, 1000, 75, dtype=np.uint64).astype(np.uint32)
        assert codec.encoded_size(x) == len(codec.encode(x))

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            ChunkedCodec(RawCodec(), chunk_elems=0)


class TestSortingCodec:
    def test_sorting_preserves_multiset_per_chunk(self):
        inner = ChunkedCodec(DeltaCodec(), chunk_elems=8)
        codec = SortingCodec(inner, chunk_elems=8)
        rng = np.random.default_rng(13)
        x = rng.integers(0, 100, 40, dtype=np.uint64).astype(np.uint32)
        out = codec.decode(codec.encode(x), x.size, np.uint32)
        for start in range(0, x.size, 8):
            assert sorted(out[start:start + 8]) == \
                sorted(x[start:start + 8].tolist())
            assert np.array_equal(out[start:start + 8],
                                  np.sort(x[start:start + 8]))

    def test_sorting_improves_ratio_on_scattered_sets(self):
        rng = np.random.default_rng(14)
        x = rng.integers(0, 10 ** 5, 512, dtype=np.uint64).astype(np.uint32)
        plain = ChunkedCodec(DeltaCodec(), chunk_elems=32)
        sorted_ = SortingCodec(ChunkedCodec(DeltaCodec(), chunk_elems=32),
                               chunk_elems=32)
        assert sorted_.encoded_size(x) < plain.encoded_size(x)

    def test_does_not_mutate_input(self):
        x = np.array([5, 1, 9, 2], dtype=np.uint32)
        original = x.copy()
        SortingCodec(RawCodec(), chunk_elems=4).encode(x)
        assert np.array_equal(x, original)
