"""Deterministic seeded randomness with exact bit/sample accounting.

A BitSource is a counter-based stream built on a 64-bit mixing function
(splitmix64 finalizer): block i of the stream is mix64(key + i * phi), where
the key is derived from (master_seed, stream_id).  Identical pairs replay
identical streams, every consumed random bit is counted, and Gaussian draws
are counted as samples on a separate counter, so randomness budgets are
testable artifact properties rather than folklore.

The whole state of a source is four integers: the key, the index of the
next unread block, the pending word (the unread low bits of the last block
a bit draw touched) and its bit count, which is below 64.  Bit draws read
the stream MSB-first within each block, starting with the pending bits;
Gaussian draws consume whole blocks from the block index on and leave the
pending bits for the next bit draw.

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

_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64

# Largest mixed-radix product packed into one uniform draw.
_BATCH_CAP = 1 << 57
# Extra rejection bits per batched draw; rejection probability <= 2^-6.
_BATCH_SLACK = 6
# Largest polar-method batch, in pairs (two 64-bit blocks each).
_GAUSS_BATCH_CAP = 1 << 16
# Largest number of draws whose bits draw_uniform_indices holds at once.
_INDICES_SLICE = 1 << 16
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


def _derive_key(master_seed: int, stream_id: int) -> int:
    a = _mix64_int((master_seed + _GOLDEN_INT) & _MASK)
    b = _mix64_int((stream_id * 0xBF58476D1CE4E5B9 + _GOLDEN_INT) & _MASK)
    return _mix64_int(a ^ ((b + _GOLDEN_INT) & _MASK))


def _int_bits(v: int, n: int) -> np.ndarray:
    """The n (<= 64) low bits of v as a uint8 array, MSB-first."""
    word = np.array([v << (64 - n)], dtype=">u8")
    return np.unpackbits(word.view(np.uint8))[:n]


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
        # Unread low _word_bits bits (0..63) of the last block handed out.
        self._word = 0
        self._word_bits = 0
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
        return _mix64(_U64(self._key) + idx * _GOLDEN)

    def _pop_word(self, k: int) -> int:
        """Top k (<= _word_bits) pending bits as an int."""
        rest = self._word_bits - k
        v = self._word >> rest
        self._word &= (1 << rest) - 1
        self._word_bits = rest
        return v

    def _take_bits(self, n: int) -> np.ndarray:
        """Next n bits of the stream, MSB-first within each 64-bit block."""
        if n < 0:
            raise ParameterRangeError("bit count must be nonnegative")
        self.bits_consumed += n
        have = self._word_bits
        if n <= have:
            return _int_bits(self._pop_word(n), n)
        need = n - have
        count = (need + 63) // 64
        blocks = self._blocks(count)
        fresh = np.unpackbits(blocks.astype(">u8").view(np.uint8))[:need]
        out = np.concatenate((_int_bits(self._word, have), fresh)) if have else fresh
        self._word_bits = 64 * count - need
        self._word = int(blocks[-1]) & ((1 << self._word_bits) - 1)
        return out

    def _take_bits_as_int(self, k: int) -> int:
        """Next k bits of the stream read as one MSB-first integer."""
        self.bits_consumed += k
        v, need = 0, k
        while need > self._word_bits:
            v = (v << self._word_bits) | self._word
            need -= self._word_bits
            self._word = _mix64_int((self._key + self._block_index * _GOLDEN_INT) & _MASK)
            self._word_bits = 64
            self._block_index += 1
        return (v << need) | self._pop_word(need)

    def _take_words(self, count: int) -> np.ndarray:
        """Next 64 * count bits of the stream as count uint64 words, each
        read MSB-first."""
        self.bits_consumed += 64 * count
        if count == 0:
            return np.empty(0, dtype=np.uint64)
        blocks = self._blocks(count)
        have = self._word_bits
        if have == 0:
            return blocks
        # Each word is the pending tail of the previous block followed by
        # the head of the next; the last block's tail stays pending.
        prev = np.empty(count, dtype=np.uint64)
        prev[0] = self._word
        prev[1:] = blocks[:-1]
        words = (prev << _U64(64 - have)) | (blocks >> _U64(have))
        self._word = int(blocks[-1]) & ((1 << have) - 1)
        return words

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
            batch = min(max(16, int(need_pairs * 4 / math.pi * 1.08) + 64), _GAUSS_BATCH_CAP)
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
            # Only accepted pairs reach log/sqrt.  A pair is selected as one
            # complex128, and the arithmetic runs in place: fresh temporaries
            # this size cost more in page faults than the arithmetic itself.
            sel = ok[:used_pairs]
            s = s[:used_pairs][sel]
            factor = np.log(s)
            factor *= -2.0
            factor /= s
            np.sqrt(factor, out=factor)
            pairs = u.view(np.complex128).ravel()[:used_pairs][sel]
            g = pairs.view(np.float64).reshape(-1, 2)
            g *= factor[:, None]
            g = g.ravel()
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
            # One rejection round reads pending * k bits, in slices so the
            # bit array never holds more than _INDICES_SLICE draws.
            drawn = pending
            for start in range(0, drawn, _INDICES_SLICE):
                size = min(_INDICES_SLICE, drawn - start)
                vals = self._take_bits(size * k).reshape(size, k) @ weights
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
        if n < 2:
            return np.arange(n)
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
        perm = list(range(n))
        for i, d in zip(plan.swap_targets, digits.ravel()[plan.digit_mask].tolist()):
            perm[i], perm[d] = perm[d], perm[i]
        return np.array(perm)


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
