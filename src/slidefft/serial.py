"""Serial radix-2 FFT built from one bit-reversal permutation and segment crossings.

The transform is organized the way the distributed engine in :mod:`slidefft.wave`
expects it: the input is first reordered by the bit-reversal permutation, then
``log2(n)`` levels of crossings merge adjacent segment pairs of doubling size.
A brute-force O(n^2) DFT is provided as the verification oracle.

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
    of an N-point transform.  The last holds the unit-circle factors
    exp(-2*pi*i*k/N), k = 0 .. N/2 - 1; each other, of size N/2**j, is a
    contiguous copy of every (2**j)-th of them, so a transform evaluates
    one exp table.  That table is built in one buffer by the operations of
    ``np.exp(-2j * np.pi * k / N)``, all but the first in place, so no
    temporary outlives the tables kept."""
    if N < 2 or (N & (N - 1)) != 0:
        raise ValueError(f"segment pair size must be a power of two >= 2, got {N}")
    factors = np.multiply(-2j * np.pi, np.arange(N // 2))
    np.divide(factors, N, out=factors)
    np.exp(factors, out=factors)
    # A level of size N >> j reads every (2**j)-th root.  The angles agree
    # bit for bit: scaling k and N by a power of two is exact.  Copies, not
    # strided views: a multiply reading every 128th element is several
    # times slower.
    levels = tuple(factors[:: 1 << j].copy()
                   for j in range(log2_exact(N) - 1, 0, -1)) + (factors,)
    for table in levels:
        table.setflags(write=False)
    return levels


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
    N = 2, 4, ..., n in place, with the level tables of ``twiddle_table(n)``.
    Total booked FLOPs come to exactly 5 * n * log2(n).
    """
    y = _as_samples(x)
    n = y.shape[-1]
    m = log2_exact(n)
    if m == 0:
        return y.copy()
    y = np.take(y, build_permutation(m).final_row, axis=-1)
    for factors in twiddle_table(n):
        merge_level(y, factors)
        if counter is not None:
            counter.add(FLOPS_PER_PAIR * (n // 2))
    return y


def ifft_serial(X, counter: FlopCounter | None = None) -> np.ndarray:
    """Inverse transform via conjugation: ifft(X) = conj(fft(conj(X))) / n."""
    X = _as_samples(X)
    n = X.shape[-1]
    return np.conj(fft_serial(np.conj(X), counter=counter)) / n


def dft_oracle(x) -> np.ndarray:
    """Brute-force O(n^2) DFT over the last axis, X[j] = sum_k x[k] e^{-2pi i jk/n}.

    Independent of the radix-2 machinery above and of any length restriction.
    It builds its own table of the n roots e^{-2pi i t/n} and indexes it with
    the exact integer (j*k) mod n, so no root is evaluated at a large angle.
    The index is held in the narrowest unsigned type that holds (n-1)**2
    (``np.min_scalar_type``), so j*k never overflows, and is built in one
    buffer reused by every block: the product j*k, then its remainder, taken
    as ``& (n - 1)`` when n is a power of two and ``% n`` otherwise.  The DFT
    matrix is built in blocks of about 2**16 entries, max(1, 2**16 // n)
    output bins j at a time, which bounds the oracle's memory for every n and
    keeps each block in cache.
    """
    x = _as_samples(x)
    n = x.shape[-1]
    roots = np.exp(-2j * np.pi * np.arange(n) / n)
    X = np.empty_like(x)
    k = np.arange(n, dtype=np.min_scalar_type((n - 1) ** 2))
    block = max(1, 2**16 // n)
    buffer = np.empty((n, min(block, n)), k.dtype)
    for j0 in range(0, n, block):
        j = k[j0 : j0 + block]
        index = np.multiply.outer(k, j, out=buffer[:, : len(j)])
        if n & (n - 1):
            np.remainder(index, n, out=index)
        else:
            np.bitwise_and(index, n - 1, out=index)
        X[..., j0 : j0 + len(j)] = x @ roots[index]
    return X
