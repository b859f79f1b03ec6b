"""K-wise independent hash families over a Mersenne-prime field.

A k-wise independent family is realised as a random degree-(k-1) polynomial
over GF(p) with p = 2^61 - 1, reduced modulo the target range::

    h(x) = (a_{k-1} x^{k-1} + ... + a_1 x + a_0 mod p) mod range_size

For k = 2 this is the classical pairwise-independent multiply-mod-prime
construction used by Count-Min / Count-Median / Count-Sketch.  Evaluation is
available element-wise (``__call__`` on a python int), vectorised over numpy
index arrays (``hash_array`` / ``hash_all``) and row-stacked over a whole
family (:func:`hash_matrix`, which runs in the native kernel of
:mod:`repro._kernels` when it is loaded).

The arithmetic is done with python integers when evaluating scalars (exact,
no overflow concerns) and with ``object``-free numpy ``uint64`` arithmetic via
128-bit emulation when evaluating arrays.  Because p < 2^61 and coefficients
are < p, the product a*x can exceed 64 bits; we therefore split operands into
high/low 32-bit halves for the vectorised path.  The native kernel computes
the same values with a 128-bit multiply.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro import _kernels
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import require_positive_int

#: The Mersenne prime 2^61 - 1 used as the field size of every hash family.
MERSENNE_PRIME_61 = (1 << 61) - 1

_MASK_32 = (1 << 32) - 1
_MASK_64 = (1 << 64) - 1

# splitmix64 finalizer constants (Steele, Lea & Flood 2014)
_MIX_INCREMENT = 0x9E3779B97F4A7C15
_MIX_MULTIPLIER_1 = 0xBF58476D1CE4E5B9
_MIX_MULTIPLIER_2 = 0x94D049BB133111EB


def _mix_scalar(value: int) -> int:
    """Apply the splitmix64 finalizer (a fixed bijection on 64-bit integers).

    Frequency-vector indices arrive as consecutive integers 0, 1, 2, ...;
    evaluating two independent linear polynomials mod p on consecutive inputs
    leaves them jointly sitting on a 1-D lattice, which for unlucky
    coefficient draws correlates the bucket choice of one hash with the sign
    of another (a classic LCG-style artefact).  Composing the polynomial with
    a *fixed* bijective avalanche permutation keeps every k-wise independence
    guarantee (the coefficients are still uniformly random over GF(p)) while
    destroying that arithmetic structure.
    """
    value = (value + _MIX_INCREMENT) & _MASK_64
    value ^= value >> 30
    value = (value * _MIX_MULTIPLIER_1) & _MASK_64
    value ^= value >> 27
    value = (value * _MIX_MULTIPLIER_2) & _MASK_64
    value ^= value >> 31
    return value


def _mix_array(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalizer (uint64 arithmetic wraps modulo 2^64)."""
    v = values.astype(np.uint64, copy=True)
    v += np.uint64(_MIX_INCREMENT)
    v ^= v >> np.uint64(30)
    v *= np.uint64(_MIX_MULTIPLIER_1)
    v ^= v >> np.uint64(27)
    v *= np.uint64(_MIX_MULTIPLIER_2)
    v ^= v >> np.uint64(31)
    return v


def _fold61(x: np.ndarray) -> np.ndarray:
    """Exact ``x mod MERSENNE_PRIME_61`` for uint64 ``x``, division-free.

    Uses the Mersenne identity ``2^61 ≡ 1 (mod p)``: writing
    ``x = q·2^61 + r`` gives ``x ≡ q + r``, and ``q + r < p + 9`` for any
    64-bit ``x``, so one conditional subtract completes the reduction.
    Shift/mask/where run at SIMD speed where the ``%`` ufunc (integer
    division) does not.
    """
    p = np.uint64(MERSENNE_PRIME_61)
    folded = (x >> np.uint64(61)) + (x & p)
    # branch-free conditional subtract: folded < 2^62, so when folded < p the
    # wrapped difference folded - p exceeds 2^63 and minimum keeps folded,
    # and when folded >= p the difference is the reduced value
    return np.minimum(folded, folded - p)


def _mulmod_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Compute ``(a * b) mod MERSENNE_PRIME_61`` element-wise without overflow.

    Both inputs must be ``uint64`` arrays with values < 2^61.  The product is
    formed from 32-bit halves and every partial reduction uses the
    division-free :func:`_fold61`; the result is bit-identical to the
    classical ``%``-based reduction.
    """
    a = a.astype(np.uint64, copy=False)
    b = b.astype(np.uint64, copy=False)
    a_hi = a >> np.uint64(32)
    a_lo = a & np.uint64(_MASK_32)
    b_hi = b >> np.uint64(32)
    b_lo = b & np.uint64(_MASK_32)

    # a*b = (a_hi*b_hi << 64) + ((a_hi*b_lo + a_lo*b_hi) << 32) + a_lo*b_lo
    # Each partial product is reduced with the Mersenne fold, using
    # 2^64 ≡ 8 (mod p) for the high term and a 29/32-bit split for the
    # middle term's 2^32 factor.
    lo = a_lo * b_lo  # < 2^64, fits
    mid = a_hi * b_lo + a_lo * b_hi  # < 2^62, fits
    hi = a_hi * b_hi  # < 2^58, fits

    # Contribution of hi: hi * 2^64 ≡ hi * 8 (mod p); hi*8 < 2^61 so one fold
    term_hi = _fold61(hi * np.uint64(8))
    # Contribution of mid: mid * 2^32 (mod p).  Fold mid below p first, then
    # split into top 32 / bottom 29 bits so the << 32 stays inside 64 bits.
    mid_mod = _fold61(mid)
    mid_hi = mid_mod >> np.uint64(29)  # multiplying by 2^32 shifts past bit 61
    mid_lo = mid_mod & np.uint64((1 << 29) - 1)
    term_mid = _fold61(mid_hi + (mid_lo << np.uint64(32)))
    term_lo = _fold61(lo)

    return _fold61(term_hi + term_mid + term_lo)


class KWiseHash:
    """A single hash function drawn from a k-wise independent family.

    Parameters
    ----------
    range_size:
        The size ``s`` of the hash range; outputs lie in ``{0, ..., s-1}``.
    independence:
        The independence parameter ``k`` (degree of the random polynomial plus
        one).  ``k = 2`` gives the pairwise-independent family used throughout
        the paper.
    seed:
        Seed / generator controlling the random coefficients.
    """

    def __init__(
        self,
        range_size: int,
        independence: int = 2,
        seed: RandomSource = None,
    ) -> None:
        self.range_size = require_positive_int(range_size, "range_size")
        self.independence = require_positive_int(independence, "independence")
        rng = as_rng(seed)
        # Leading coefficient non-zero keeps the polynomial degree exactly k-1;
        # pairwise independence holds either way but this matches the textbook
        # construction.
        coeffs = rng.integers(0, MERSENNE_PRIME_61, size=self.independence)
        if self.independence > 1 and coeffs[0] == 0:
            coeffs[0] = 1
        #: Polynomial coefficients, highest degree first.
        self.coefficients: List[int] = [int(c) for c in coeffs]

    def __call__(self, item: int) -> int:
        """Hash a single non-negative integer item into ``[0, range_size)``."""
        if item < 0:
            raise ValueError(f"hash input must be non-negative, got {item}")
        acc = 0
        x = _mix_scalar(int(item)) % MERSENNE_PRIME_61
        for coefficient in self.coefficients:
            acc = (acc * x + coefficient) % MERSENNE_PRIME_61
        return acc % self.range_size

    def hash_array(self, items: Sequence[int]) -> np.ndarray:
        """Vectorised evaluation over an array of non-negative integers."""
        arr = np.asarray(items, dtype=np.uint64)
        mixed = _fold61(_mix_array(arr))
        # Horner evaluation seeded with the leading coefficient (the first
        # iteration of the classical loop is a multiply by zero)
        acc = np.full(arr.shape, np.uint64(self.coefficients[0]))
        for coefficient in self.coefficients[1:]:
            acc = _mulmod_arrays(acc, mixed)
            acc = _fold61(acc + np.uint64(coefficient))
        return (acc % np.uint64(self.range_size)).astype(np.int64)

    def hash_all(self, domain_size: int) -> np.ndarray:
        """Evaluate the hash on every item of ``[0, domain_size)`` at once."""
        domain_size = require_positive_int(domain_size, "domain_size")
        return self.hash_array(np.arange(domain_size, dtype=np.uint64))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KWiseHash(range_size={self.range_size}, "
            f"independence={self.independence})"
        )


class PairwiseHash(KWiseHash):
    """The 2-wise independent special case used by all sketches in the paper."""

    def __init__(self, range_size: int, seed: RandomSource = None) -> None:
        super().__init__(range_size, independence=2, seed=seed)


def hash_matrix(hashes: Sequence[KWiseHash], items) -> np.ndarray:
    """Fused row-stacked evaluation of a whole hash family on a batch of keys.

    Returns the ``(len(hashes), len(items))`` bucket matrix whose row ``r``
    equals ``hashes[r].hash_array(items)``, evaluated in **one** vectorised
    pass: the splitmix64 finalizer runs once for the whole batch (it is
    shared by every row) and the per-row polynomials are evaluated on a
    row-stacked ``(depth, k)`` coefficient matrix with broadcasting.  The
    outputs are bit-identical to the per-row ``hash_array`` path, and to the
    native kernel's ``hash_rows``, which replaces the numpy evaluation when
    it is loaded.

    All hashes must share ``range_size`` and ``independence`` (they do for
    every table built by :func:`hash_family`).
    """
    if not hashes:
        raise ValueError("hash_matrix needs at least one hash function")
    range_size = hashes[0].range_size
    independence = hashes[0].independence
    for h in hashes[1:]:
        if h.range_size != range_size or h.independence != independence:
            raise ValueError(
                "hash_matrix requires all hashes to share range_size and "
                "independence"
            )
    arr = np.asarray(items, dtype=np.uint64)
    if arr.ndim != 1:
        raise ValueError(f"items must be 1-D, got shape {arr.shape}")
    coefficients = np.array(
        [h.coefficients for h in hashes], dtype=np.uint64
    )
    kernel = _kernels.KERNEL
    if kernel is not None:
        return kernel.hash_rows(arr, coefficients, range_size)
    mixed = _fold61(_mix_array(arr))[None, :]
    # Horner evaluation seeded with each row's leading coefficient (the
    # first iteration of the classical loop is a multiply by zero); the
    # (depth, 1) seed broadcasts through _mulmod_arrays
    acc = coefficients[:, 0][:, None]
    for degree in range(1, independence):
        acc = _mulmod_arrays(acc, mixed)
        acc = _fold61(acc + coefficients[:, degree][:, None])
    # for independence >= 2 this is already full-shape; a degree-0 polynomial
    # (constant hash) still needs the (depth, 1) seed broadcast out
    acc = np.broadcast_to(acc, (len(hashes), arr.size))
    return (acc % np.uint64(range_size)).astype(np.int64)


def hash_family(
    count: int,
    range_size: int,
    independence: int = 2,
    seed: RandomSource = None,
) -> List[KWiseHash]:
    """Draw ``count`` independent hash functions ``h_1, ..., h_count``.

    The functions are mutually independent: each consumes fresh randomness from
    a generator derived from ``seed``.
    """
    count = require_positive_int(count, "count")
    rng = as_rng(seed)
    return [
        KWiseHash(range_size, independence=independence, seed=rng)
        for _ in range(count)
    ]
