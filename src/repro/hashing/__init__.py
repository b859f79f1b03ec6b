"""Hash-function substrate.

The paper (Section 4.4) notes that all its analysis only requires second
moments, so 2-wise independent hash functions suffice for every component:
the bucket-assignment functions ``h : [n] -> [s]`` of the CM/CS matrices and
the sign functions ``r : [n] -> {-1, +1}`` of Count-Sketch.

This package provides multiply-mod-prime k-wise independent families that can
be evaluated both on scalars (streaming updates) and on whole batches of keys
at once.  Batch evaluation runs in the native kernel of :mod:`repro._kernels`
when it is loaded and in numpy otherwise, with bit-identical results; the
sketch tables' ingest path fuses the same hash into its scatter there.
"""

from repro.hashing.families import (
    MERSENNE_PRIME_61,
    KWiseHash,
    PairwiseHash,
    hash_family,
)
from repro.hashing.signs import SignHash, sign_family

__all__ = [
    "MERSENNE_PRIME_61",
    "KWiseHash",
    "PairwiseHash",
    "hash_family",
    "SignHash",
    "sign_family",
]
