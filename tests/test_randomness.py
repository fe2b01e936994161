import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastjl import randomness, transforms
from fastjl.errors import ParameterRangeError
from fastjl.randomness import BitSource, derive_stream


class TestRademacher:
    def test_empty_draw(self):
        src = BitSource(1)
        out = src.draw_rademacher(0)
        assert out.shape == (0,) and src.bits_consumed == 0

    def test_determinism(self):
        a = BitSource(42, 3).draw_rademacher(64)
        b = BitSource(42, 3).draw_rademacher(64)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {-1, 1}

    def test_exact_bit_count(self):
        src = BitSource(5)
        src.draw_rademacher(37)
        assert src.bits_consumed == 37
        src.draw_rademacher(100)
        assert src.bits_consumed == 137

    def test_clt_mean(self):
        # 4-sigma band around zero at a million draws
        signs = BitSource(99).draw_rademacher(10**6)
        assert abs(signs.mean()) < 4 / math.sqrt(10**6)

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 200), max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_counter_additivity(self, seed, sizes):
        src = BitSource(seed)
        for k in sizes:
            src.draw_rademacher(k)
        assert src.bits_consumed == sum(sizes)


class TestGaussian:
    def test_empty(self):
        assert BitSource(1).draw_gaussian(0).shape == (0,)

    def test_moments(self):
        g = BitSource(7).draw_gaussian(10**5)
        assert abs(g.mean()) < 0.02
        assert abs(g.var() - 1.0) < 0.03

    def test_tail_fraction(self):
        g = BitSource(11).draw_gaussian(10**5)
        frac = np.mean(np.abs(g) > 1.96)
        assert 0.044 <= frac <= 0.056

    def test_sample_counter(self):
        src = BitSource(2)
        src.draw_gaussian(123)
        assert src.gaussian_samples_consumed == 123
        assert src.bits_consumed == 0  # gaussians count as samples, not bits

    def test_deterministic_and_interleavable(self):
        a, b = BitSource(9), BitSource(9)
        xa = np.concatenate(
            [a.draw_gaussian(3), a.draw_rademacher(5).astype(float), a.draw_gaussian(4)]
        )
        xb = np.concatenate(
            [b.draw_gaussian(3), b.draw_rademacher(5).astype(float), b.draw_gaussian(4)]
        )
        assert np.array_equal(xa, xb)


class TestUniformIndex:
    def test_m1_consumes_nothing(self):
        src = BitSource(1)
        assert src.draw_uniform_index(1) == 0
        assert src.bits_consumed == 0

    def test_m2_costs_one_bit(self):
        src = BitSource(1)
        v = src.draw_uniform_index(2)
        assert v in (0, 1) and src.bits_consumed == 1

    def test_m3_frequencies_and_cost(self):
        src = BitSource(3)
        draws = [src.draw_uniform_index(3) for _ in range(10**5)]
        freqs = np.bincount(draws, minlength=3) / 10**5
        assert np.abs(freqs - 1 / 3).max() < 0.01
        # rejection on 2 bits: expected cost 2 * 4/3 = 8/3 per draw
        per_draw = src.bits_consumed / 10**5
        assert 2.0 <= per_draw <= 3.2

    def test_invalid(self):
        with pytest.raises(ParameterRangeError):
            BitSource(1).draw_uniform_index(0)

    def test_batch_matches_distribution(self):
        vals = BitSource(4).draw_uniform_indices(6, 60000)
        freqs = np.bincount(vals, minlength=6) / 60000
        assert np.abs(freqs - 1 / 6).max() < 0.02


class TestPermutation:
    def test_identity_cases(self):
        assert np.array_equal(BitSource(1).sample_permutation(0), [])
        assert np.array_equal(BitSource(1).sample_permutation(1), [0])

    def test_bijection(self):
        p = BitSource(11).sample_permutation(1000)
        assert sorted(p.tolist()) == list(range(1000))

    def test_s3_uniformity(self):
        src = BitSource(5)
        counts = Counter(tuple(src.sample_permutation(3)) for _ in range(60000))
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / 60000 - 1 / 6) < 0.01

    def test_bit_budget_n1024(self):
        # Seed-averaged consumption must clear 1.2 n ceil(log2 n).
        total = 0
        for seed in range(100):
            src = derive_stream(seed, 0)
            before = src.bits_consumed
            src.sample_permutation(1024)
            total += src.bits_consumed - before
        assert total / 100 <= 1.2 * 1024 * 10

    def test_deterministic(self):
        assert np.array_equal(
            BitSource(8, 2).sample_permutation(50), BitSource(8, 2).sample_permutation(50)
        )

    def test_plan_cache_bounded(self):
        for n in range(2, 4 * randomness._PLAN_CACHE_SIZE):
            BitSource(1).sample_permutation(n)
        info = randomness._permutation_plan.cache_info()
        assert info.currsize <= randomness._PLAN_CACHE_SIZE


class TestDeriveStream:
    def test_same_index_same_bits(self):
        a = derive_stream(123, 5).draw_rademacher(128)
        b = derive_stream(123, 5).draw_rademacher(128)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = derive_stream(123, 0).draw_rademacher(128)
        b = derive_stream(123, 1).draw_rademacher(128)
        assert not np.array_equal(a, b)

    def test_no_duplicate_prefixes_birthday(self):
        seen = set()
        for i in range(10**4):
            bits = derive_stream(77, i).draw_rademacher(64)
            seen.add(bits.tobytes())
        assert len(seen) == 10**4


class TestBitCursor:
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.sampled_from(["bits", "words", "int"]), st.integers(0, 200)), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_draws_read_the_stream_msb_first(self, seed, ops):
        # Reference: the stream's blocks written out as 64-bit binary strings.
        sizes = {"bits": lambda k: k, "words": lambda k: 64 * (k // 40), "int": lambda k: k}
        total = sum(sizes[op](k) for op, k in ops)
        blocks = BitSource(seed)._peek_blocks((total + 63) // 64)
        stream = "".join(format(int(b), "064b") for b in blocks)
        src = BitSource(seed)
        pos = 0
        for op, k in ops:
            size = sizes[op](k)
            expected = stream[pos : pos + size]
            if op == "bits":
                got = "".join(map(str, src._take_bits(size).tolist()))
            elif op == "words":
                words = src._take_words(size // 64)
                assert words.dtype == np.uint64
                got = "".join(format(int(w), "064b") for w in words)
            else:
                got = format(src._take_bits_as_int(size), f"0{size}b") if size else ""
            assert got == expected
            pos += size
            assert src.bits_consumed == pos
            assert src._block_index == (pos + 63) // 64
            assert src._word_bits == src._block_index * 64 - pos

    def test_fjlt_build_memory_bounded(self):
        kind = transforms.parse_kind("fjlt:0.25")
        tracemalloc.start()
        try:
            transforms.build(kind, 4096, 64, BitSource(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
