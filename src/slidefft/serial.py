"""Serial radix-2 FFT built from one bit-reversal permutation and segment crossings.

The transform is organized the way the distributed engine in :mod:`slidefft.wave`
expects it: the input is first reordered by the bit-reversal permutation, then
``log2(n)`` levels of crossings merge adjacent segment pairs of doubling size.
An exact-index O(n^1.5) DFT, which shares no code with that path, is provided
as the verification oracle.

All transforms operate on the last axis, so a batch of inputs can be shaped
``(batch, n)`` and processed in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Cost convention for one crossing pair: a complex multiply is 6 real FLOPs,
# each complex add/subtract is 2, so L = E + U*O and R = E - U*O cost 10.
FLOPS_PER_PAIR = 10


class FlopCounter:
    """Accumulates floating-point operation counts booked by crossings."""

    __slots__ = ("flops",)

    def __init__(self) -> None:
        self.flops = 0

    def add(self, count: int) -> None:
        self.flops += int(count)


def log2_exact(n: int) -> int:
    """Return m with n == 2**m, rejecting anything that is not a power of two."""
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")
    return n.bit_length() - 1


def _as_samples(x) -> np.ndarray:
    y = np.asarray(x, dtype=np.complex128)
    if y.ndim < 1 or y.shape[-1] < 1:
        raise ValueError("sample vector must have at least one element")
    if not np.all(np.isfinite(y)):
        raise ValueError("sample vector contains non-finite values")
    return y


def bit_reverse_index(i: int, m: int) -> int:
    """Reverse the m-bit binary representation of i.

    Written as a direct bit loop so it stays independent of the
    doubling construction in :func:`build_permutation` it is used to verify.
    """
    if m < 0:
        raise ValueError("bit width must be non-negative")
    if not 0 <= i < (1 << m):
        raise ValueError(f"index {i} out of range for {m} bits")
    r = 0
    for _ in range(m):
        r = (r << 1) | (i & 1)
        i >>= 1
    return r


@dataclass(frozen=True)
class PermutationTable:
    """Input order of a 2**m-point transform: ``final_row[i]`` is i with its
    m bits reversed, so ``x[final_row]`` is what the first level reads."""

    final_row: np.ndarray


def build_permutation(m: int) -> PermutationTable:
    """Build the bit-reversal permutation of a 2**m-point transform in O(n),
    as a table whose one field is the read-only row ``final_row``.

    Each doubling step maps a reversed (j-1)-bit row r to the reversed j-bit
    row (2r, 2r + 1), written in place into the front of one array.
    """
    if m < 1:
        raise ValueError("need at least one level (m >= 1)")
    n = 1 << m
    row = np.zeros(n, dtype=np.int64)
    size = 1
    for _ in range(m):
        np.multiply(row[:size], 2, out=row[:size])
        np.add(row[:size], 1, out=row[size : 2 * size])
        size *= 2
    row.setflags(write=False)
    return PermutationTable(final_row=row)


@lru_cache(maxsize=None)
def twiddle_table(N: int) -> tuple[np.ndarray, ...]:
    """The read-only twiddle tables of every segment-pair size 2, 4, ..., N
    of an N-point transform, all views of one exp table: the last holds
    exp(-2*pi*i*k/N), k = 0 .. N/2 - 1, built in place from a complex
    ``arange`` by the operations of ``np.exp(-2j * np.pi * k / N)``, and
    each other, of size N/2**j, views every (2**j)-th of them.  Code that
    reads a level table many times copies it contiguous where it runs that
    level, and keeps no copy: a multiply reading every 128th element is
    several times slower."""
    if N < 2 or (N & (N - 1)) != 0:
        raise ValueError(f"segment pair size must be a power of two >= 2, got {N}")
    factors = np.arange(N // 2, dtype=np.complex128)
    np.multiply(-2j * np.pi, factors, out=factors)
    np.divide(factors, N, out=factors)
    np.exp(factors, out=factors)
    factors.setflags(write=False)
    # A level of size N >> j reads every (2**j)-th root.  The angles agree
    # bit for bit: scaling k and N by a power of two is exact.
    return tuple(factors[:: 1 << j] for j in range(log2_exact(N) - 1, -1, -1))


def butterfly(e: np.ndarray, o: np.ndarray, u: np.ndarray) -> None:
    """The one arithmetic step of every level, in place: R = E - U*O over o,
    then L = E + U*O over e.  e and o must not overlap."""
    op = u * o
    np.subtract(e, op, out=o)
    np.add(e, op, out=e)


def merge_level(y: np.ndarray, u: np.ndarray) -> None:
    """Merge, in place, every adjacent segment pair of size N = 2 * len(u)
    along the last axis of y: each pair's L over its first half and R over
    its second.  Splitting one axis always gives a view, so y may itself be
    a view, such as a comb of mesh blocks."""
    N = 2 * len(u)
    v = y.reshape(y.shape[:-1] + (y.shape[-1] // N, N))
    butterfly(v[..., : N // 2], v[..., N // 2 :], u)


def fft_serial(x, counter: FlopCounter | None = None) -> np.ndarray:
    """Radix-2 decimation-in-time FFT over the last axis.

    The input is permuted by the bit-reversal row of :func:`build_permutation`
    into a new array, and levels p = m .. 1 merge its segment pairs of size
    N = 2, 4, ..., n in place, with contiguous copies of ``twiddle_table(n)``.
    Total booked FLOPs come to exactly 5 * n * log2(n).
    """
    y = _as_samples(x)
    n = y.shape[-1]
    m = log2_exact(n)
    if m == 0:
        return y.copy()
    y = np.take(y, build_permutation(m).final_row, axis=-1)
    for factors in twiddle_table(n):
        merge_level(y, np.ascontiguousarray(factors))
        if counter is not None:
            counter.add(FLOPS_PER_PAIR * (n // 2))
    return y


def ifft_serial(X, counter: FlopCounter | None = None) -> np.ndarray:
    """Inverse transform via conjugation: ifft(X) = conj(fft(conj(X))) / n."""
    X = _as_samples(X)
    n = X.shape[-1]
    return np.conj(fft_serial(np.conj(X), counter=counter)) / n


def dft_oracle(x) -> np.ndarray:
    """Exact-index DFT over the last axis, X[k] = sum_j x[j] e^{-2pi i jk/n},
    in O(n^1.5), independent of the radix-2 machinery above and of any
    length restriction.

    One two-factor split of the sum (Gentleman and Sande, 1966): with
    n = n1*n2, n1 the largest divisor of n up to sqrt(n), and W_r = e^{-2pi i/r},

        X[k1 + n1*k2] = sum_j2 W_n2^(j2*k2) W_n^(j2*k1) sum_j1 x[n2*j1 + j2] W_n1^(j1*k1),

    as two 2-D matrix products with the batch folded into their columns or
    rows.  The three matrices index one table of the n roots e^{-2pi i t/n}
    with the exact integer product mod n, held in the narrowest unsigned
    type that holds the largest, (n-1)*(n2-1), so no root is evaluated at a
    large angle.  The n2-point matrix is built max(1, 2**16 // n2) columns
    at a time in one reused index buffer, which bounds the oracle's memory
    for every n.  A prime n has n1 = 1: the brute-force sum
    ``x @ roots[(j*k) % n]``.
    """
    x = _as_samples(x)
    n = x.shape[-1]
    n1 = int(n**0.5)
    while n % n1:
        n1 -= 1
    n2 = n // n1
    roots = np.exp(-2j * np.pi * np.arange(n) / n)

    def powers(rows, cols, out=None):
        index = np.multiply.outer(rows, cols, out=out)
        return roots[np.remainder(index, n, out=index)]

    j1 = np.arange(n1, dtype=np.min_scalar_type((n - 1) * (n2 - 1)))
    j2 = np.arange(n2, dtype=j1.dtype)
    # Rows j1, columns (batch, j2); then rows (k1, batch), columns j2.
    batch = x.size // n
    y = x.reshape(batch, n1, n2).transpose(1, 0, 2).reshape(n1, batch * n2)
    y = (powers(n2 * j1, j1) @ y).reshape(n1, batch, n2)
    y *= powers(j1, j2)[:, None, :]
    y = y.reshape(n1 * batch, n2)
    X = np.empty(x.shape, x.dtype)       # C order, so ``out`` is a view of it
    out = X.reshape(batch, n2, n1)
    block = max(1, 2**16 // n2)
    buffer = np.empty((n2, min(block, n2)), j1.dtype)
    for k0 in range(0, n2, block):
        k2 = j2[k0 : k0 + block]
        spectrum = y @ powers(n1 * j2, k2, out=buffer[:, : len(k2)])
        out[:, k0 : k0 + len(k2)] = spectrum.reshape(n1, batch, len(k2)).transpose(1, 2, 0)
    return X
