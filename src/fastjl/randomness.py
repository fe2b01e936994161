"""Deterministic seeded randomness with exact bit/sample accounting.

A BitSource is a counter-based stream built on a 64-bit mixing function
(splitmix64 finalizer).  Identical (master_seed, stream_id) pairs replay
identical streams, every consumed random bit is counted, and Gaussian
draws are counted as samples on a separate counter, so randomness budgets
are testable artifact properties rather than folklore.

Uniform permutations are sampled with batched mixed-radix rejection: the
Fisher-Yates digits for many indices are decoded from one large uniform
draw.  Per-index rejection on ceil(log2 m) bits provably averages about
1.245 * n * ceil(log2 n) bits at n = 1024, which misses the documented
1.2 budget; batching lands around 1.13x the entropy and clears it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ParameterRangeError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64

# Largest mixed-radix product packed into one uniform draw.
_BATCH_CAP = 1 << 57
# Extra rejection bits per batched draw; rejection probability <= 2^-6.
_BATCH_SLACK = 6
# Permutation plans kept for reuse; one at n=65536 holds about 12 MiB.
_PLAN_CACHE_SIZE = 8


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


_MASK = (1 << 64) - 1


def _mix64_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _derive_key(master_seed: int, stream_id: int) -> np.uint64:
    a = _mix64_int((master_seed + 0x9E3779B97F4A7C15) & _MASK)
    b = _mix64_int((stream_id * 0xBF58476D1CE4E5B9 + 0x9E3779B97F4A7C15) & _MASK)
    return _U64(_mix64_int(a ^ ((b + 0x9E3779B97F4A7C15) & _MASK)))


class BitSource:
    """Seeded stream of random bits and Gaussian samples with exact counters.

    Single-owner: never share one instance across concurrent workers; give
    each parallel trial its own stream via derive_stream.
    """

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = int(master_seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_id = int(stream_id) & 0xFFFFFFFFFFFFFFFF
        self._key = _derive_key(self.master_seed, self.stream_id)
        self._block_index = 0
        self._bit_leftover = np.empty(0, dtype=np.uint8)
        self.bits_consumed = 0
        self.gaussian_samples_consumed = 0

    def _blocks(self, count: int) -> np.ndarray:
        blocks = self._peek_blocks(count)
        self._block_index += count
        return blocks

    def _peek_blocks(self, count: int) -> np.ndarray:
        idx = np.arange(
            self._block_index, self._block_index + count, dtype=np.uint64
        )
        return _mix64(self._key + idx * _GOLDEN)

    def _take_bits(self, n: int) -> np.ndarray:
        """Next n bits of the stream, MSB-first within each 64-bit block."""
        if n < 0:
            raise ParameterRangeError("bit count must be nonnegative")
        self.bits_consumed += n
        have = self._bit_leftover.shape[0]
        if n <= have:
            out = self._bit_leftover[:n]
            self._bit_leftover = self._bit_leftover[n:]
            return out
        need = n - have
        blocks = self._blocks((need + 63) // 64)
        shifts = np.arange(63, -1, -1, dtype=np.uint64)
        fresh = ((blocks[:, None] >> shifts) & _U64(1)).astype(np.uint8).ravel()
        out = np.concatenate((self._bit_leftover, fresh[:need]))
        self._bit_leftover = fresh[need:]
        return out

    def _take_bits_as_int(self, k: int) -> int:
        if k == 0:
            return 0
        bits = self._take_bits(k).astype(np.int64)
        weights = (1 << np.arange(k - 1, -1, -1)).astype(np.int64)
        return int(bits @ weights)

    # -- draw operations ---------------------------------------------------

    def draw_rademacher(self, n: int) -> np.ndarray:
        """n independent +-1 signs; consumes exactly n bits."""
        bits = self._take_bits(int(n))
        return 1 - 2 * bits.astype(np.int64)

    def draw_gaussian(self, n: int) -> np.ndarray:
        """n i.i.d. N(0,1) samples by the polar rejection method.

        Consumes whole 64-bit blocks as uniforms (two per attempted pair);
        increments gaussian_samples_consumed by n and leaves bits_consumed
        untouched.  An odd request discards the second half of its final
        accepted pair.
        """
        n = int(n)
        if n == 0:
            return np.empty(0)
        out = np.empty(n)
        filled = 0
        while filled < n:
            need_pairs = (n - filled + 1) // 2
            batch = max(16, int(need_pairs * 4 / math.pi * 1.08) + 64)
            raw = self._peek_blocks(2 * batch)
            # 53-bit uniforms; int64 intermediate keeps the conversion on
            # the fast path.
            u = (raw >> _U64(11)).astype(np.int64).astype(np.float64)
            u *= 2.0 ** -52
            u -= 1.0
            u = u.reshape(batch, 2)
            s = u[:, 0] ** 2 + u[:, 1] ** 2
            ok = (s > 0.0) & (s < 1.0)
            cum = np.cumsum(ok)
            if cum[-1] >= need_pairs:
                used_pairs = int(np.searchsorted(cum, need_pairs) + 1)
            else:
                used_pairs = batch
            self._block_index += 2 * used_pairs
            sel = ok[:used_pairs]
            s = s[:used_pairs]
            factor = np.where(sel, np.sqrt(-2.0 * np.log(np.where(sel, s, 0.5)) / s), 0.0)
            g = (u[:used_pairs] * factor[:, None]).ravel()
            g = g[np.repeat(sel, 2)]
            take = min(n - filled, g.shape[0])
            out[filled : filled + take] = g[:take]
            filled += take
        self.gaussian_samples_consumed += n
        return out

    def draw_uniform_index(self, m: int) -> int:
        """Uniform draw from {0, ..., m-1} by rejection on ceil(log2 m) bits.

        Every consumed bit is counted, including rejected draws.
        """
        m = int(m)
        if m < 1:
            raise ParameterRangeError("m must be >= 1")
        if m == 1:
            return 0
        k = (m - 1).bit_length()
        while True:
            v = self._take_bits_as_int(k)
            if v < m:
                return v

    def draw_uniform_indices(self, m: int, count: int) -> np.ndarray:
        """Vectorized batch of uniform draws from {0, ..., m-1}.

        Same rejection scheme and exact bit accounting as
        draw_uniform_index, but retries are grouped into rounds, so the
        bit-to-draw assignment differs from a scalar loop.
        """
        m = int(m)
        if m < 1:
            raise ParameterRangeError("m must be >= 1")
        out = np.empty(count, dtype=np.int64)
        if m == 1:
            out[:] = 0
            return out
        k = (m - 1).bit_length()
        pending = count
        pos = 0
        weights = (1 << np.arange(k - 1, -1, -1)).astype(np.int64)
        while pending > 0:
            bits = self._take_bits(pending * k).astype(np.int64)
            vals = bits.reshape(pending, k) @ weights
            good = vals[vals < m]
            take = good.shape[0]
            out[pos : pos + take] = good
            pos += take
            pending -= take
        return out

    def sample_permutation(self, n: int) -> np.ndarray:
        """Uniformly random permutation of {0, ..., n-1} (as an index array).

        Fisher-Yates digits are decoded from batched mixed-radix uniform
        draws; the bit counter reflects total consumption including
        rejected batch draws.
        """
        n = int(n)
        perm = np.arange(n)
        if n < 2:
            return perm
        plan = _permutation_plan(n)
        bits = self._take_bits(plan.total_bits).astype(np.int64)
        padded = np.append(bits, 0)
        vals = padded[plan.gather] @ plan.pow2
        bad = np.flatnonzero(vals >= plan.accept)
        for b in bad:
            kb = int(plan.kbits[b])
            acc = int(plan.accept[b])
            while True:
                v = self._take_bits_as_int(kb)
                if v < acc:
                    vals[b] = v
                    break
        u = vals % plan.mods
        digits = np.empty_like(plan.radix_mat)
        for pos in range(plan.radix_mat.shape[1]):
            col = plan.radix_mat[:, pos]
            digits[:, pos] = u % col
            u //= col
        flat = digits.ravel()
        for i, d in zip(plan.swap_targets, flat[plan.digit_mask]):
            perm[i], perm[d] = perm[d], perm[i]
        return perm


class _PermutationPlan:
    """Precomputed batching layout for sample_permutation at one n."""

    def __init__(self, n: int):
        batches: list[list[int]] = []
        current: list[int] = []
        mod = 1
        for i in range(n - 1, 0, -1):
            m = i + 1
            if mod * m > _BATCH_CAP:
                batches.append(current)
                current = []
                mod = 1
            current.append(i)
            mod *= m
        if current:
            batches.append(current)

        kbits, accepts, mods, lengths = [], [], [], []
        for batch in batches:
            m = 1
            for i in batch:
                m *= i + 1
            if m & (m - 1) == 0:
                k = m.bit_length() - 1
                acc = m
            else:
                k = min((m - 1).bit_length() + _BATCH_SLACK, 63)
                acc = ((1 << k) // m) * m
            mods.append(m)
            kbits.append(k)
            accepts.append(acc)
            lengths.append(len(batch))

        nb = len(batches)
        lmax = max(lengths)
        self.kbits = np.array(kbits, dtype=np.int64)
        self.accept = np.array(accepts, dtype=np.int64)
        self.mods = np.array(mods, dtype=np.int64)
        self.total_bits = int(self.kbits.sum())
        # Right-aligned gather of each batch's bits into 63 columns; the
        # sentinel index (= total_bits) reads an appended zero pad.
        self.gather = np.full((nb, 63), self.total_bits, dtype=np.int64)
        offset = 0
        for b, k in enumerate(kbits):
            self.gather[b, 63 - k :] = np.arange(offset, offset + k)
            offset += k
        self.pow2 = (1 << np.arange(62, -1, -1)).astype(np.int64)
        # Radix matrix padded with 1s; digit j of batch b swaps index
        # radix_mat[b, j] - 1 ... recorded directly in swap_targets.
        self.radix_mat = np.ones((nb, lmax), dtype=np.int64)
        mask = np.zeros((nb, lmax), dtype=bool)
        swap_targets: list[int] = []
        for b, batch in enumerate(batches):
            for pos, i in enumerate(batch):
                self.radix_mat[b, pos] = i + 1
                mask[b, pos] = True
                swap_targets.append(i)
        self.digit_mask = mask.ravel()
        self.swap_targets = swap_targets


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _permutation_plan(n: int) -> _PermutationPlan:
    return _PermutationPlan(n)


def derive_stream(master_seed: int, trial_index: int) -> BitSource:
    """Child source for one trial: deterministic, distinct per index."""
    return BitSource(master_seed, stream_id=trial_index)
