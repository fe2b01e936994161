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
1.2 budget; batching lands around 1.13x the entropy and clears it.  The
swaps those digits spell are not run one by one except for small draws: a
stable sort of the steps by digit and pointer jumping give each entry of
the permutation directly (see _PermutationPlan.decode), the same rows the
swap loop gives.

Row draws (draw_rademacher_rows, sample_permutation_rows,
draw_gaussian_rows) make one draw on each of K sources and return the
results as the rows of a (K, n) array.  Because block i of a stream is a
pure function of (key, i), the K streams advance together in one mix over
keys x counters.  The scalar draws draw_rademacher, draw_gaussian and
sample_permutation are the one-row case of these, so row k is by
construction what source k draws alone, and every source is left with the
state and counters that draw leaves; the harness can run its trials in
chunks whose results equal the per-trial streams bit for bit.  Every array
of bits comes from one reader, _take_row_words, and every Gaussian from
one polar round, _polar_round; only the scalar index draws read bits
through a Python-int reservoir (_take_bits_as_int).
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
# Permutation plans kept for reuse; one at n=65536 holds about 8 MiB.
_PLAN_CACHE_SIZE = 8
# Largest block request mixed as Python ints: below about a dozen blocks,
# the scalar mix beats the fixed cost of the dozen array operations.
_SCALAR_MIX_BLOCKS = 8
# Smallest permutation row draw, rows x n entries, that is decoded; smaller
# ones run their Fisher-Yates swaps one by one on a Python list, which beats
# the decode's fixed cost of a few dozen numpy calls there.  timeit on a
# 2-vCPU x86-64 host, us a row, swaps vs decode: n=64, one row 10 vs 25;
# n=64, 8 rows 6.5 vs 5.5; n=512, one row 47 vs 42; n=1024, 16 rows 85 vs 34.
_DECODE_MIN_ENTRIES = 512
# Most permutation entries decoded at once: the decode's int64 temporaries
# stay at 64 KiB, under glibc's mmap threshold, so they reuse heap pages.
_DECODE_SLICE = 1 << 13


def _stream_blocks(sources: list[BitSource], count: int) -> np.ndarray:
    """Blocks i .. i + count - 1 of each source's stream, i its block index,
    as a (K, count) array of mix64(key + i * phi).  No source advances.

    Up to _SCALAR_MIX_BLOCKS blocks are mixed as Python ints; larger
    requests are mixed in place over one keys x counters array.
    """
    if len(sources) * count <= _SCALAR_MIX_BLOCKS:
        blocks = [
            _mix64_int((s._key + i * _GOLDEN_INT) & _MASK)
            for s in sources
            for i in range(s._block_index, s._block_index + count)
        ]
        return np.array(blocks, dtype=np.uint64).reshape(len(sources), count)
    first = [(s._key + s._block_index * _GOLDEN_INT) & _MASK for s in sources]
    z = np.arange(count, dtype=np.uint64)
    z *= _GOLDEN
    z = z + np.array(first, dtype=np.uint64)[:, None]
    t = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, _U64(shift), out=t)
        z ^= t
        z *= mult
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    return z


_MASK = (1 << 64) - 1


def _mix64_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _derive_key(master_seed: int, stream_id: int) -> int:
    a = _mix64_int((master_seed + _GOLDEN_INT) & _MASK)
    b = _mix64_int((stream_id * 0xBF58476D1CE4E5B9 + _GOLDEN_INT) & _MASK)
    return _mix64_int(a ^ ((b + _GOLDEN_INT) & _MASK))


def _polar_uniforms(raw: np.ndarray) -> np.ndarray:
    """Blocks as 53-bit uniforms on [-1, 1), overwriting raw.

    The int64 view keeps the conversion on numpy's fast path.
    """
    raw >>= _U64(11)
    u = raw.view(np.float64)
    np.multiply(raw.view(np.int64), 2.0 ** -52, out=u)
    u -= 1.0
    return u


def _polar_batch(n: int) -> int:
    """Pairs drawn in one polar round that still needs n samples."""
    need_pairs = (n + 1) // 2
    return min(max(16, int(need_pairs * 4 / math.pi * 1.08) + 64), _GAUSS_BATCH_CAP)


def _polar_transform(pairs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Gaussians from accepted polar pairs, as a flat float array.

    pairs is a contiguous complex128 array of accepted (u, v) pairs and s
    their u^2 + v^2.  The arithmetic runs in place: fresh temporaries this
    size cost more in page faults than the arithmetic itself.
    """
    factor = np.log(s)
    factor *= -2.0
    factor /= s
    np.sqrt(factor, out=factor)
    g = pairs.view(np.float64).reshape(-1, 2)
    g *= factor[:, None]
    return g.ravel()


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

    def _pop_word(self, k: int) -> int:
        """Top k (<= _word_bits) pending bits as an int."""
        rest = self._word_bits - k
        v = self._word >> rest
        self._word &= (1 << rest) - 1
        self._word_bits = rest
        return v

    def _take_bits(self, n: int) -> np.ndarray:
        """Next n bits of the stream, MSB-first within each 64-bit block."""
        return _take_row_bits([self], n)[0]

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
        return _take_row_words([self], 64 * count)[0]

    # -- draw operations ---------------------------------------------------

    def draw_rademacher(self, n: int) -> np.ndarray:
        """n independent +-1 signs; consumes exactly n bits."""
        return draw_rademacher_rows([self], n)[0]

    def draw_gaussian(self, n: int) -> np.ndarray:
        """n i.i.d. N(0,1) samples by the polar rejection method.

        Consumes whole 64-bit blocks as uniforms (two per attempted pair);
        increments gaussian_samples_consumed by n and leaves bits_consumed
        untouched.  An odd request discards the second half of its final
        accepted pair.
        """
        return draw_gaussian_rows([self], n)[0]

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
        count = _draw_count(count)
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
        return sample_permutation_rows([self], n)[0]


class _PermutationPlan:
    """Precomputed batching layout and decode constants for
    sample_permutation at one n.

    Fisher-Yates step i, from n-1 down to 1, swaps index i with a digit in
    [0, i].  The digits are grouped into batches whose radix product mod
    stays within _BATCH_CAP; batch b is one kbits[b]-bit uniform draw,
    redrawn while it is at or above accept[b], and its digits are the
    mixed-radix expansion of the draw mod mods[b].

    decode turns digits into the permutation the swaps would leave,
    without running them.  Add a step 0 with digit 0 and let d_i be step
    i's digit.  Step i is the last to touch index i, so perm[i] is the
    value at index d_i just before step i.  Index k's content changes only
    at the steps whose digit is k, all of them at or above k, and at step k
    itself.  A stable sort of the steps by (digit, step) lists each index's
    swaps as one group, in reverse time order, so for each step j:

    - perm[j] = A[next(j)], next(j) the step after j in its group, or d_j
      when j is the last; A[k] is the value at index k just before step k;
    - A[k] = A[c(k)], c(k) the first step above k in group k, or k when
      there is none.

    The chains k -> c(k) climb, and pointer jumping resolves them in about
    log2 of the longest one rounds (5 at n = 1024 for random digits,
    ceil(log2 n) + 1 at most).  decode works on slices of whole rows of
    at most _DECODE_SLICE entries (one row when n is larger), numbered
    row by row: entry row * n + j stands for step j of that row, and a
    sort key row * n + d_j keeps each row's groups its own.
    """

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

        kbits, accepts, mods = [], [], []
        # Step i's batch and place value, for steps 0 .. n-1.
        batch_of, prefix = [0] * n, [1] * n
        for b, batch in enumerate(batches):
            m = 1
            for i in batch:
                batch_of[i] = b
                prefix[i] = m
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
        # Step 0 ends the last batch with radix 1: its place value is that
        # batch's mod, so its digit is 0.
        batch_of[0], prefix[0] = len(batches) - 1, mods[-1]

        self.kbits = np.array(kbits, dtype=np.int64)
        self.accept = np.array(accepts, dtype=np.int64)
        self.mods = np.array(mods, dtype=np.int64)
        self.total_bits = int(self.kbits.sum())
        # Batch b's bits start at bit `shift` of stream word `word`; the
        # window word|next word, shifted left, holds them MSB-first.  A
        # batch in the last word never reaches the next one, so that index
        # is clamped.
        offsets = np.cumsum(self.kbits) - self.kbits
        last = (self.total_bits - 1) // 64
        self.word = offsets >> 6
        self.next_word = np.minimum(self.word + 1, last)
        self.shift = (offsets & 63).astype(np.uint64)
        self.drop = (64 - self.kbits).astype(np.uint64)
        # Step j's digit is q_j % (j + 1), q_j = u[batch_of[j]] // prefix[j].
        # Within a batch step j - 1 comes next, so q_(j-1) = q_j // (j + 1)
        # and the digit is q_j - q_(j-1) * carry[j], carry[j] = j + 1; where
        # step j ends its batch, carry[j] = 0.
        self.batch_of = np.array(batch_of, dtype=np.int64)
        self.prefix = np.array(prefix, dtype=np.int64)
        self.carry = np.arange(1, n + 1, dtype=np.int64)
        self.carry[1:][self.batch_of[1:] != self.batch_of[:-1]] = 0
        # Decode constants for a slice of up to `rows` rows.
        self.rows = max(1, _DECODE_SLICE // n)
        size = self.rows * n
        self.key_dtype = np.uint16 if size <= 1 << 16 else np.uint32
        self.row_base = np.arange(0, size, n, dtype=np.int64)[:, None]
        self.entries = np.arange(size + 1, dtype=np.intp)

    def batch_values(self, words: np.ndarray) -> np.ndarray:
        """Each batch's draw from (K, W) stream words: a (K, batches) array."""
        window = words[:, self.word] << self.shift
        window |= words[:, self.next_word] >> (_U64(64) - self.shift)
        window >>= self.drop
        return window.view(np.int64)

    def digits(self, vals: np.ndarray) -> np.ndarray:
        """Fisher-Yates digits of steps 0 .. n-1 from accepted batch draws."""
        q = np.take(vals % self.mods, self.batch_of, axis=-1)
        q //= self.prefix
        q[..., 1:] -= q[..., :-1] * self.carry[1:]
        return q

    def swap(self, digits: np.ndarray, out: np.ndarray) -> None:
        """The permutations that rows of digits spell, into the rows of out,
        by running the swaps on a Python list."""
        n = out.shape[1]
        for row, row_digits in zip(out, digits.tolist()):
            perm = list(range(n))
            for i, d in zip(range(n - 1, 0, -1), reversed(row_digits)):
                perm[i], perm[d] = perm[d], perm[i]
            row[:] = perm

    def decode(self, digits: np.ndarray, out: np.ndarray) -> None:
        """The permutations that up to `rows` rows of digits spell, into
        the rows of out, without running the swaps (see the class
        docstring)."""
        rows, n = out.shape
        size = rows * n
        base = self.row_base[:rows]
        keys = digits.astype(self.key_dtype)
        keys += base.astype(self.key_dtype)
        keys = keys.ravel()
        # Steps sorted by (row, digit, step); same[t]: sorted t and t + 1
        # are one group.
        order = np.argsort(keys, kind="stable")
        group = keys[order]
        same = group[1:] == group[:-1]
        # ahead[t]: the step after sorted t in its group, or t's own step;
        # after[j], the same by step.
        ahead = np.empty(size, dtype=np.intp)
        ahead[:-1] = np.where(same, order[1:], order[:-1])
        ahead[-1] = order[-1]
        after = np.empty(size, dtype=np.intp)
        after[order] = ahead
        # link[k] = c(k), read at the head of group k: its first step, or
        # the step after it when that is step k itself (k again if none).
        # k without a group keeps link[k] = k.  Entries that head no group
        # write the spare slot.
        head = np.where(order == group, ahead, order)
        del ahead
        first = np.empty(size, dtype=bool)
        first[0] = True
        np.logical_not(same, out=first[1:])
        slot = np.where(first, group, np.intp(size))
        del first, same, group
        link = self.entries[: size + 1].copy()
        link[slot] = head
        del slot, head, order
        link = link[:size]
        # Pointer jumping; an entry whose target is a root is done.
        jumped = link[link]
        active = np.flatnonzero(jumped != link)
        link = jumped
        while active.size:
            target = link[active]
            jumped = link[target]
            link[active] = jumped
            active = active[jumped != target]
        perm = np.where(after == self.entries[:size], keys, link[after])
        np.subtract(perm.reshape(rows, n), base, out=out)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _permutation_plan(n: int) -> _PermutationPlan:
    return _PermutationPlan(n)


def derive_stream(master_seed: int, trial_index: int) -> BitSource:
    """Child source for one trial: deterministic, distinct per index."""
    return BitSource(master_seed, stream_id=trial_index)


def _draw_count(n: int) -> int:
    """A draw's size as an int; a negative size is a ParameterRangeError."""
    n = int(n)
    if n < 0:
        raise ParameterRangeError(f"draw size must be nonnegative, got {n}")
    return n


def _take_row_words(sources: list[BitSource], nbits: int) -> np.ndarray:
    """The next nbits of each source's stream, as (K, ceil(nbits/64))
    uint64 words read MSB-first; the last word's unused low bits are junk.

    This is the one bit reader behind every array draw.  Each source's
    pending bits come first, and each source is left holding the unread
    tail of the last block its bits reached.
    """
    nbits = _draw_count(nbits)
    count = (nbits + 63) // 64
    if count == 0:
        return np.empty((len(sources), 0), dtype=np.uint64)
    blocks = _stream_blocks(sources, count)
    have = np.array([s._word_bits for s in sources], dtype=np.uint64)
    # Word j is the pending tail of block j-1 (the pending word for j = 0)
    # followed by the head of block j; numpy shifts by 64 give 0.
    words = blocks >> have[:, None]
    head = np.empty_like(blocks)
    head[:, 0] = [s._word for s in sources]
    head[:, 1:] = blocks[:, :-1]
    head <<= (_U64(64) - have)[:, None]
    words |= head
    for k, src in enumerate(sources):
        src.bits_consumed += nbits
        need = nbits - src._word_bits
        if need <= 0:
            src._pop_word(nbits)
            continue
        fresh = (need + 63) // 64
        src._word_bits = 64 * fresh - need
        src._word = int(blocks[k, fresh - 1]) & ((1 << src._word_bits) - 1)
        src._block_index += fresh
    return words


def _take_row_bits(sources: list[BitSource], n: int) -> np.ndarray:
    """The next n bits of each source's stream, as a (K, n) uint8 array."""
    words = _take_row_words(sources, n)
    return np.unpackbits(words.astype(">u8").view(np.uint8), axis=1, count=int(n))


def draw_rademacher_rows(sources: list[BitSource], n: int) -> np.ndarray:
    """draw_rademacher(n) on each source, as the rows of a (K, n) array."""
    signs = _take_row_bits(sources, n).astype(np.int64)
    signs *= -2
    signs += 1
    return signs


def sample_permutation_rows(sources: list[BitSource], n: int) -> np.ndarray:
    """sample_permutation(n) on each source, as the rows of a (K, n) array.

    Every row's batches are decoded from one pass over the K streams; a
    batch draw that is rejected is redrawn from its own source, in batch
    order.  Small draws run the swaps; larger ones are decoded in slices
    of plan.rows rows.
    """
    n = _draw_count(n)
    if n < 2:
        return np.tile(np.arange(n), (len(sources), 1))
    plan = _permutation_plan(n)
    vals = plan.batch_values(_take_row_words(sources, plan.total_bits))
    for k, b in zip(*np.nonzero(vals >= plan.accept)):
        kb, acc = int(plan.kbits[b]), int(plan.accept[b])
        while (v := sources[k]._take_bits_as_int(kb)) >= acc:
            pass
        vals[k, b] = v
    out = np.empty((len(sources), n), dtype=np.int64)
    if out.size < _DECODE_MIN_ENTRIES:
        plan.swap(plan.digits(vals), out)
        return out
    for start in range(0, len(sources), plan.rows):
        stop = start + plan.rows
        plan.decode(plan.digits(vals[start:stop]), out[start:stop])
    return out


def _polar_round(
    sources: list[BitSource], n: int, batch: int
) -> tuple[np.ndarray, list[int], list[int]]:
    """One polar round of batch pairs on each of K sources, for rows that
    still need n samples.  No source advances.

    Row k reads the 2 * batch blocks from its block index on and keeps its
    first min(accepted, ceil(n / 2)) accepted pairs.  Returns their
    Gaussians, row after row in one flat array, the pairs each row kept,
    and the pairs each row used: up to its last kept pair, or the whole
    batch when the row falls short.
    """
    need_pairs = (n + 1) // 2
    u = _polar_uniforms(_stream_blocks(sources, 2 * batch)).reshape(len(sources), batch, 2)
    s = u[:, :, 0] ** 2
    s += u[:, :, 1] ** 2
    ok = (s > 0.0) & (s < 1.0)
    cum = np.cumsum(ok, axis=1, dtype=np.int32)
    kept = [min(c, need_pairs) for c in cum[:, -1].tolist()]
    # The pairs before a row's need_pairs-th acceptance; batch when short.
    before = (cum < need_pairs).sum(axis=1).tolist()
    used = [min(b + 1, batch) for b in before]
    ok &= cum <= need_pairs
    # The round's arrays go before the arithmetic: they are the largest
    # part of a harness chunk's working set.
    del cum
    # Only kept pairs reach log/sqrt; a pair is selected as one complex128.
    pairs = u.view(np.complex128)[:, :, 0][ok]
    s = s[ok]
    del u, ok
    return _polar_transform(pairs, s), kept, used


def draw_gaussian_rows(sources: list[BitSource], n: int) -> np.ndarray:
    """draw_gaussian(n) on each source, as the rows of a (K, n) array.

    All rows draw their first polar round together.  A row that round
    leaves short of n samples keeps what it drew and continues, one round
    at a time, on its own source.
    """
    n = _draw_count(n)
    if n == 0 or not sources:
        return np.empty((len(sources), n))
    g, kept, used = _polar_round(sources, n, _polar_batch(n))
    got = [min(2 * k, n) for k in kept]
    if min(got) == n:
        out = g.reshape(len(sources), -1)[:, :n]
    else:
        out = np.empty((len(sources), n))
        ends = np.cumsum([2 * k for k in kept])
        for row, piece, m in zip(out, np.split(g, ends[:-1]), got):
            row[:m] = piece[:m]
    for src, row, filled, pairs in zip(sources, out, got, used):
        src._block_index += 2 * pairs
        src.gaussian_samples_consumed += n
        while filled < n:
            rest = n - filled
            piece, _, (advanced,) = _polar_round([src], rest, _polar_batch(rest))
            take = min(rest, piece.size)
            row[filled : filled + take] = piece[:take]
            src._block_index += 2 * advanced
            filled += take
    return np.ascontiguousarray(out)
