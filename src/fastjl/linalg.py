"""Dense matrix/vector kernels shared by every other module.

Everything here is deterministic and pure: the fast Walsh-Hadamard
butterfly, symmetric eigenvalues, extreme singular values and least squares
through LAPACK (numpy.linalg), and circular convolution through the real FFT
(numpy.fft).

Hadamard matrices are never materialized; only the butterfly is exposed.
It has the constant geometry of Pease's FFT ("An adaptation of the fast
Fourier transform for parallel processing", JACM 1968).  Columns go
through in blocks of about _BLOCK_BYTES, each copied once, transposed,
into a (columns, n) buffer.  Every stage reads the adjacent pairs
(2i, 2i+1) of each row and writes a+b to index i and a-b to index i + n/2
of a second buffer; the two buffers swap roles after each stage, and no
stage allocates.  Writing to i + n/2 rotates the index bits right by one,
so stage s pairs the entries whose original indices differ in bit s, and
after log2(n) stages the output is in natural order.  Stage s thus adds
and subtracts the same two partial sums, lower index first, as the
in-place stage h = 2^s that pairs (i, i + h), and the result, divided by
sqrt(n) after the last stage, is the same to the last bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DimensionError, SingularMatrixError


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def require_finite(a: np.ndarray, what: str = "input") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ContractError(f"{what} contains NaN or Inf entries")
    return a


# Bytes of one column block of the butterfly.  Its two (columns, n) buffers
# take twice this, so a block stays in one core's L2 cache.
_BLOCK_BYTES = 512 * 1024


def fwht_normalized(v: np.ndarray, signs: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal Walsh-Hadamard transform W @ v, entries of W are +-1/sqrt(n).

    Accepts a vector of power-of-two length, or a matrix whose axis-0 length
    is a power of two (each column is transformed).  O(n log n) butterfly;
    the transform is an involution.  With signs, a length-n vector, returns
    W @ diag(signs) @ v, with each product formed as in v * signs[:, None].
    Returns a new C-ordered float64 array of the input's shape; the input is
    never written.
    """
    a = np.asarray(v, dtype=float)
    if a.ndim not in (1, 2):
        raise DimensionError(f"fwht expects a vector or a matrix, got shape {a.shape}")
    n = a.shape[0]
    if not is_power_of_two(n):
        raise DimensionError(f"fwht length must be a power of two, got {n}")
    if signs is not None and np.shape(signs) != (n,):
        raise DimensionError(f"fwht signs have shape {np.shape(signs)}, expected ({n},)")
    x = a[:, None] if a.ndim == 1 else a
    m = x.shape[1]
    out = np.empty(a.shape)
    y = out.reshape(n, m)
    half = n // 2
    scale = math.sqrt(n)
    stages = n.bit_length() - 1
    width = max(1, _BLOCK_BYTES // (8 * n))
    front = np.empty((min(width, m), n))
    if m == 1:
        # One column is laid out as a (1, n) buffer already, so the result
        # serves as the buffer the last stage writes, and a vector costs one
        # scratch buffer, not two.
        front, back = out.reshape(1, n), front
        if stages % 2:
            front, back = back, front
    else:
        back = np.empty_like(front)
    for c0 in range(0, m, width):
        c1 = min(c0 + width, m)
        src, dst = front[: c1 - c0], back[: c1 - c0]
        if signs is None:
            src[...] = x[:, c0:c1].T
        else:
            np.multiply(x[:, c0:c1].T, signs, out=src)
        # Pairs (2i, 2i+1) go to (i, i + n/2); see the module docstring for
        # why the output lands in natural order with the same bits.
        for _ in range(stages):
            even, odd = src[:, 0::2], src[:, 1::2]
            np.add(even, odd, out=dst[:, :half])
            np.subtract(even, odd, out=dst[:, half:])
            src, dst = dst, src
        np.divide(src.T, scale, out=y[:, c0:c1])
    return out


def symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending (LAPACK eigvalsh).

    Also takes a stack of matrices, shape (..., k, k), and returns their
    eigenvalues in shape (..., k).  Each matrix must be symmetric within
    1e-10 * max(1, ||M||_F); the symmetrized matrix is decomposed.
    """
    a = require_finite(m, "matrix")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    at = np.swapaxes(a, -1, -2)
    if a.size:
        scale = np.linalg.norm(a, axis=(-2, -1))
        if np.any(np.abs(a - at).max(axis=(-2, -1)) > 1e-10 * np.maximum(1.0, scale)):
            raise ContractError("matrix is not symmetric within 1e-10")
    return np.linalg.eigvalsh(0.5 * (a + at))


def spectral_extremes(m: np.ndarray) -> tuple[float, float]:
    """(sigma_min, sigma_max) of an arbitrary matrix, over its min(rows, cols)
    singular values (LAPACK, values only)."""
    a = np.atleast_2d(require_finite(m, "matrix"))
    if a.ndim != 2 or a.size == 0:
        raise DimensionError(f"expected a non-empty matrix, got shape {a.shape}")
    sigma = np.linalg.svd(a, compute_uv=False)
    return float(sigma[-1]), float(sigma[0])


def least_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin_x ||A x - b||_2 (LAPACK lstsq).

    A must have at least as many rows as columns and sigma_min(A) above
    1e-6 * sigma_max(A); rank-deficient systems raise SingularMatrixError
    carrying the condition estimate sigma_max / sigma_min (inf when
    sigma_min is 0).
    """
    a = require_finite(a, "matrix")
    b = require_finite(b, "right-hand side")
    if a.ndim != 2:
        raise DimensionError("A must be a matrix")
    if b.ndim != 1 or b.shape[0] != a.shape[0]:
        raise DimensionError(
            f"b has length {b.shape[0] if b.ndim == 1 else '?'}, expected {a.shape[0]}"
        )
    rows, cols = a.shape
    if cols == 0:
        raise DimensionError("least squares needs at least one column")
    if rows < cols:
        raise DimensionError(f"underdetermined system {rows}x{cols}")
    x, _, _, sigma = np.linalg.lstsq(a, b, rcond=None)
    if sigma[-1] <= 1e-6 * sigma[0]:
        cond = math.inf if sigma[-1] == 0 else float(sigma[0] / sigma[-1])
        raise SingularMatrixError(
            f"rank-deficient least-squares system (condition ~ {cond:.3e})",
            condition_estimate=cond,
        )
    return x


def circular_convolve(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_i = sum_j g_{(i-j) mod n} x_j through the real FFT, O(n log n).

    x is a length-n vector or an (n, m) matrix convolved column by column.
    """
    g = require_finite(g, "generator")
    x = require_finite(x, "input")
    if g.ndim != 1 or x.ndim not in (1, 2) or not 0 < g.shape[0] == x.shape[0]:
        raise DimensionError(
            "circular_convolve requires a generator and an input of equal length"
        )
    n = g.shape[0]
    spectrum = np.fft.rfft(g)
    if x.ndim == 2:
        spectrum = spectrum[:, None]
    return np.fft.irfft(spectrum * np.fft.rfft(x, axis=0), n=n, axis=0)


def circulant_rows(g: np.ndarray, count: int) -> np.ndarray:
    """First `count` rows of the circulant matrix generated by g."""
    g = require_finite(g, "generator")
    n = g.shape[0]
    return g[(np.arange(count)[:, None] - np.arange(n)) % n]


def save_matrix_csv(path, m: np.ndarray) -> None:
    """Write a matrix as CSV: first line "rows,cols", then row-major values.

    Values are written with shortest round-trip notation (exact at 17
    significant digits).
    """
    a = np.atleast_2d(np.asarray(m, dtype=float))
    rows, cols = a.shape
    with open(path, "w") as fh:
        fh.write(f"{rows},{cols}\n")
        for i in range(rows):
            fh.write(",".join(repr(float(v)) for v in a[i]) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            rows, cols = (int(part) for part in header.split(","))
        except ValueError as exc:
            raise DimensionError(f"bad matrix header {header!r}") from exc
        if rows < 0 or cols < 0:
            raise DimensionError(f"bad matrix header {header!r}")
        values = []
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            try:
                values.extend(float(tok) for tok in line.split(","))
            except ValueError as exc:
                raise ContractError(
                    f"matrix line {lineno}: expected numbers, got {line!r}"
                ) from exc
    if len(values) != rows * cols:
        raise DimensionError(
            f"expected {rows * cols} values, found {len(values)}"
        )
    return np.array(values).reshape(rows, cols)
