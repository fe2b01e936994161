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
        blocks = _reference_blocks(BitSource(seed), (total + 63) // 64)
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

    @pytest.mark.parametrize("sources, count", [(1, 1), (1, 8), (2, 4), (1, 9), (3, 3), (5, 40)])
    def test_stream_blocks_match_reference(self, sources, count):
        # Requests on both sides of _SCALAR_MIX_BLOCKS, from sources at
        # different block indices.
        srcs = [BitSource(6, k) for k in range(sources)]
        for k, src in enumerate(srcs):
            src._take_bits(64 * k + 5)
        blocks = randomness._stream_blocks(srcs, count)
        assert blocks.dtype == np.uint64 and blocks.shape == (sources, count)
        for row, src in zip(blocks, srcs):
            assert np.array_equal(row, _reference_blocks(src, count))

    def test_fjlt_build_memory_bounded(self):
        kind = transforms.parse_kind("fjlt:0.25")
        tracemalloc.start()
        try:
            transforms.build(kind, 4096, 64, BitSource(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def _state(src):
    return (
        src._block_index,
        src._word,
        src._word_bits,
        src.bits_consumed,
        src.gaussian_samples_consumed,
    )


def _twin_sources(seed, prefixes, copies=2):
    """Equal lists of sources, each source advanced by its prefix:
    (bits, gaussians) drawn before the row draw under test."""
    twins = []
    for _ in range(copies):
        sources = []
        for k, (bits, gaussians) in enumerate(prefixes):
            src = BitSource(seed, k)
            src._take_bits(bits)
            src.draw_gaussian(gaussians)
            src._take_bits(bits // 3)
            sources.append(src)
        twins.append(sources)
    return twins


# Independent scalar references for the row draws: the bit-unpacking reader,
# the polar loop and the mixed-radix permutation decode written out one
# source at a time, so the row path is never checked against itself.


def _reference_blocks(src, count):
    """Blocks from src's block index on, without advancing it: the
    splitmix64 finalizer of key + i * phi, mod 2^64."""
    mask = (1 << 64) - 1
    out = []
    for i in range(src._block_index, src._block_index + count):
        z = (src._key + i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return np.array(out, dtype=np.uint64)


def _reference_int_bits(v, n):
    word = np.array([v << (64 - n)], dtype=">u8")
    return np.unpackbits(word.view(np.uint8))[:n]


def _reference_take_bits(src, n):
    src.bits_consumed += n
    have = src._word_bits
    if n <= have:
        src._word_bits = have - n
        v = src._word >> src._word_bits
        src._word &= (1 << src._word_bits) - 1
        return _reference_int_bits(v, n)
    need = n - have
    count = (need + 63) // 64
    blocks = _reference_blocks(src, count)
    src._block_index += count
    fresh = np.unpackbits(blocks.astype(">u8").view(np.uint8))[:need]
    out = np.concatenate((_reference_int_bits(src._word, have), fresh)) if have else fresh
    src._word_bits = 64 * count - need
    src._word = int(blocks[-1]) & ((1 << src._word_bits) - 1)
    return out


def _reference_rademacher(src, n):
    return 1 - 2 * _reference_take_bits(src, n).astype(np.int64)


def _reference_gaussian(src, n):
    out = np.empty(n)
    filled = 0
    while filled < n:
        need_pairs = (n - filled + 1) // 2
        batch = randomness._polar_batch(n - filled)
        u = randomness._polar_uniforms(_reference_blocks(src, 2 * batch)).reshape(batch, 2)
        s = u[:, 0] ** 2 + u[:, 1] ** 2
        ok = (s > 0.0) & (s < 1.0)
        cum = np.cumsum(ok)
        if cum[-1] >= need_pairs:
            used_pairs = int(np.searchsorted(cum, need_pairs) + 1)
        else:
            used_pairs = batch
        src._block_index += 2 * used_pairs
        sel = ok[:used_pairs]
        pairs = u.view(np.complex128).ravel()[:used_pairs][sel]
        g = randomness._polar_transform(pairs, s[:used_pairs][sel])
        take = min(n - filled, g.shape[0])
        out[filled : filled + take] = g[:take]
        filled += take
    src.gaussian_samples_consumed += n
    return out


def _reference_permutation(src, n):
    if n < 2:
        return np.arange(n)
    plan = randomness._permutation_plan(n)
    bits = "".join(map(str, _reference_take_bits(src, plan.total_bits).tolist()))
    offsets = np.cumsum(plan.kbits) - plan.kbits
    vals = [int(bits[o : o + k], 2) for o, k in zip(offsets, plan.kbits)]
    # Rejected batch draws are redrawn after the whole batch read, in order.
    for b, (k, acc) in enumerate(zip(plan.kbits.tolist(), plan.accept.tolist())):
        while vals[b] >= acc:
            vals[b] = int("".join(map(str, _reference_take_bits(src, k).tolist())), 2)
    perm = list(range(n))
    residue = [v % m for v, m in zip(vals, plan.mods.tolist())]
    for b, i in zip(plan.batch_of.tolist(), plan.swap_targets):
        residue[b], d = divmod(residue[b], i + 1)
        perm[i], perm[d] = perm[d], perm[i]
    return np.array(perm)


# kind -> (row draw, independent reference, scalar draw).
ROW_DRAWS = {
    "rademacher": (
        randomness.draw_rademacher_rows,
        _reference_rademacher,
        BitSource.draw_rademacher,
    ),
    "permutation": (
        randomness.sample_permutation_rows,
        _reference_permutation,
        BitSource.sample_permutation,
    ),
    "gaussian": (randomness.draw_gaussian_rows, _reference_gaussian, BitSource.draw_gaussian),
}


def _assert_rows_match(kind, rows_src, ref_src, n):
    rows_draw, reference, _ = ROW_DRAWS[kind]
    out = rows_draw(rows_src, n)
    assert out.shape == (len(rows_src), n)
    for row, src, twin in zip(out, rows_src, ref_src):
        expected = reference(twin, n)
        assert row.dtype == expected.dtype
        assert row.tobytes() == expected.tobytes()
        assert _state(src) == _state(twin)
    return out


NEGATIVE_DRAWS = {
    "draw_rademacher": lambda src: src.draw_rademacher(-5),
    "draw_gaussian": lambda src: src.draw_gaussian(-3),
    "draw_uniform_indices": lambda src: src.draw_uniform_indices(4, -2),
    "draw_uniform_indices_m1": lambda src: src.draw_uniform_indices(1, -2),
    "sample_permutation": lambda src: src.sample_permutation(-2),
    "_take_bits": lambda src: src._take_bits(-1),
    "_take_words": lambda src: src._take_words(-1),
    "draw_rademacher_rows": lambda src: randomness.draw_rademacher_rows([src], -5),
    "draw_gaussian_rows": lambda src: randomness.draw_gaussian_rows([src], -3),
    "sample_permutation_rows": lambda src: randomness.sample_permutation_rows([src], -2),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_DRAWS))
def test_negative_draw_size_rejected(name):
    src = BitSource(4)
    src._take_bits(13)
    before = _state(src)
    with pytest.raises(ParameterRangeError):
        NEGATIVE_DRAWS[name](src)
    assert _state(src) == before


class TestRowDraws:
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(0, 300), st.integers(0, 40)), min_size=1, max_size=5),
        st.lists(
            st.tuples(st.sampled_from(sorted(ROW_DRAWS)), st.integers(0, 300)),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_scalar_draws(self, seed, prefixes, draws):
        # Sources start from mixed states: odd bit counts and Gaussian
        # draws beforehand put each one mid-word at its own block index.
        # Each row must equal the reference draw, and so must the scalar
        # draw, which is the one-row case of the row draw.
        rows_src, ref_src, scalar_src = _twin_sources(seed, prefixes, copies=3)
        for kind, n in draws:
            out = _assert_rows_match(kind, rows_src, ref_src, n)
            scalar_draw = ROW_DRAWS[kind][2]
            for row, src, twin in zip(out, scalar_src, ref_src):
                assert scalar_draw(src, n).tobytes() == row.tobytes()
                assert _state(src) == _state(twin)

    def test_permutation_retries_match(self, monkeypatch):
        # With no slack bits a batch draw is rejected up to half the time,
        # so most rows redraw some batch through _take_bits_as_int.
        monkeypatch.setattr(randomness, "_BATCH_SLACK", 0)
        randomness._permutation_plan.cache_clear()
        try:
            n = 100
            plan = randomness._permutation_plan(n)
            rows_src, scalar_src = _twin_sources(5, [(k, 0) for k in range(0, 70, 7)])
            before = [src.bits_consumed for src in rows_src]
            _assert_rows_match("permutation", rows_src, scalar_src, n)
            used = [src.bits_consumed - b for src, b in zip(rows_src, before)]
            assert max(used) > plan.total_bits
        finally:
            randomness._permutation_plan.cache_clear()

    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_second_polar_round_matches(self, monkeypatch, n):
        # A first round of exactly the pairs needed is short whenever one
        # pair is rejected; those rows keep the round's samples and run
        # more rounds on their own source, never through the scalar draw.
        # n = 3 leaves full rows too.
        monkeypatch.setattr(randomness, "_polar_batch", lambda n: (n + 1) // 2)
        rows_src, scalar_src = _twin_sources(8, [(k, k % 3) for k in range(12)])
        monkeypatch.setattr(BitSource, "draw_gaussian", None)
        before = [src._block_index for src in rows_src]
        _assert_rows_match("gaussian", rows_src, scalar_src, n)
        advanced = [src._block_index - b for src, b in zip(rows_src, before)]
        assert max(advanced) > n + 1
        if n == 3:
            assert min(advanced) == n + 1

    def test_empty_rows(self):
        sources = [BitSource(1, k) for k in range(3)]
        for kind in ROW_DRAWS:
            out = ROW_DRAWS[kind][0](sources, 0)
            assert out.shape == (3, 0)
        assert [_state(s) for s in sources] == [_state(BitSource(1, k)) for k in range(3)]

    def test_chunk_working_set_bounded(self):
        # One chunk of new-gaussian trials at the jlp benchmark's size; the
        # chunk holds a few (K, n) arrays, about 50 KiB per trial.
        from fastjl import harness

        args = ("new-gaussian", 1024, 64, "random-unit", harness._CHUNK, 3)
        harness._block_distortions(*args)
        tracemalloc.start()
        try:
            harness._block_distortions(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < harness._CHUNK * 64 * 2**10
