"""The native ingest kernel: ``ingest.c``, compiled on first import.

Three entry points replace the numpy bodies of the ingest hot path:

* :meth:`NativeKernel.hash_rows` — :func:`repro.hashing.families.hash_matrix`;
* :meth:`NativeKernel.scatter_add` — ``HashedCounterTable.add_batch``
  (hashing fused with the signed or unsigned scatter);
* :meth:`NativeKernel.cu_update` — ``CountMinCU._flush_runs``.

Each performs the same float operations in the same order as the numpy
code it replaces, so sketch state is byte-identical under either path.

The source is compiled with the system C compiler (``cc -O3 -shared
-fPIC``) into this package's ``__pycache__``, under a name keyed by the
source, compiler, flags and platform; later imports reuse the cached
library.  The build writes a temporary file and publishes it with
``os.replace``, so concurrent first imports are safe.  The library is loaded
with :class:`ctypes.CDLL`, which releases the GIL for the duration of every
call.  When the build or the load fails, :data:`KERNEL` is ``None``, one
``WARNING`` goes to the ``repro.kernels`` logger, and every call site runs
its numpy reference code instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

logger = logging.getLogger("repro.kernels")

SOURCE = Path(__file__).with_name("ingest.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
COMPILER = "cc"
FLAGS = ("-O3", "-shared", "-fPIC")

_POINTER = ctypes.c_void_p
_INT = ctypes.c_int64


def _keys(keys) -> np.ndarray:
    """Keys as a contiguous uint64 array (validated keys are non-negative)."""
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
    if keys.dtype == np.int64:
        keys = keys.view(np.uint64)
    return np.ascontiguousarray(keys, dtype=np.uint64)


def _writable_table(table: np.ndarray) -> None:
    if not (table.ndim == 2 and table.dtype == np.float64
            and table.flags.c_contiguous):
        raise ValueError("the counter table must be 2-D C-contiguous float64")
    if not table.flags.writeable:
        raise ValueError("assignment destination is read-only")


def _coefficients(coefficients: np.ndarray, depth: int) -> np.ndarray:
    """A contiguous ``(depth, k)`` uint64 coefficient matrix, k >= 1."""
    coefficients = np.ascontiguousarray(coefficients, dtype=np.uint64)
    if coefficients.ndim != 2 or coefficients.shape[0] != depth \
            or coefficients.shape[1] < 1:
        raise ValueError(
            f"expected a ({depth}, k) coefficient matrix, got shape "
            f"{coefficients.shape}"
        )
    return coefficients


class NativeKernel:
    """Typed wrappers around the compiled entry points."""

    def __init__(self, library: ctypes.CDLL) -> None:
        self.library = library
        self._hash_rows = library.hash_rows
        self._hash_rows.argtypes = [_POINTER, _INT, _POINTER, _INT, _INT,
                                    ctypes.c_uint64, _POINTER]
        self._hash_rows.restype = ctypes.c_int
        self._scatter_add = library.scatter_add
        self._scatter_add.argtypes = [_POINTER, _INT, _INT, _POINTER, _POINTER,
                                      _INT, _POINTER, _INT, _POINTER, _INT, _INT]
        self._scatter_add.restype = ctypes.c_int
        self._cu_update = library.cu_update
        self._cu_update.argtypes = [_POINTER, _INT, _INT, _POINTER, _POINTER,
                                    _INT, _POINTER, _INT]
        self._cu_update.restype = ctypes.c_int

    def hash_rows(self, keys, coefficients: np.ndarray,
                  range_size: int) -> np.ndarray:
        """The ``(depth, n)`` int64 bucket matrix of ``hash_matrix``."""
        if range_size < 1:
            raise ValueError(f"range_size must be positive, got {range_size}")
        keys = _keys(keys)
        coefficients = _coefficients(coefficients, len(coefficients))
        depth, k = coefficients.shape
        out = np.empty((depth, keys.size), dtype=np.int64)
        status = self._hash_rows(keys.ctypes.data, keys.size,
                                 coefficients.ctypes.data, depth, k, range_size,
                                 out.ctypes.data)
        if status != 0:
            raise MemoryError("native hash_rows could not allocate its buffer")
        return out

    def scatter_add(self, table: np.ndarray, keys, deltas,
                    coefficients: np.ndarray,
                    sign_coefficients: Optional[np.ndarray],
                    block: int) -> None:
        """``table[r, h_r(key)] += s_r(key) · delta`` for every update."""
        _writable_table(table)
        if block < 1:
            raise ValueError(f"block must be positive, got {block}")
        keys = _keys(keys)
        deltas = np.ascontiguousarray(
            np.broadcast_to(deltas, keys.shape), dtype=np.float64
        )
        depth, width = table.shape
        coefficients = _coefficients(coefficients, depth)
        signs, sign_k = None, 0
        if sign_coefficients is not None:
            sign_coefficients = _coefficients(sign_coefficients, depth)
            signs, sign_k = sign_coefficients.ctypes.data, sign_coefficients.shape[1]
        status = self._scatter_add(
            table.ctypes.data, depth, width, keys.ctypes.data, deltas.ctypes.data,
            keys.size, coefficients.ctypes.data, coefficients.shape[1],
            signs, sign_k, block,
        )
        if status != 0:
            raise MemoryError("native scatter_add could not allocate its scratch")

    def cu_update(self, table: np.ndarray, keys, deltas,
                  coefficients: np.ndarray) -> None:
        """Conservative update of coalesced runs, in order."""
        _writable_table(table)
        keys = _keys(keys)
        deltas = np.ascontiguousarray(deltas, dtype=np.float64)
        if deltas.shape != keys.shape:
            raise ValueError("deltas must match keys in shape")
        depth, width = table.shape
        coefficients = _coefficients(coefficients, depth)
        status = self._cu_update(
            table.ctypes.data, depth, width, keys.ctypes.data, deltas.ctypes.data,
            keys.size, coefficients.ctypes.data, coefficients.shape[1],
        )
        if status != 0:
            raise MemoryError("native cu_update could not allocate its buffer")


def build(compiler: str = COMPILER, cache_dir: Path = CACHE_DIR) -> Path:
    """Compile ``ingest.c`` into the cache unless it is there; returns its path.

    The file name is keyed by the source, compiler, flags and platform, so
    an edited source or another compiler gets a library of its own.
    """
    digest = hashlib.sha256(SOURCE.read_bytes())
    for part in (compiler, *FLAGS, sys.platform, platform.machine()):
        digest.update(b"\0" + part.encode())
    target = Path(cache_dir) / f"ingest-{digest.hexdigest()[:16]}.so"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temporary = tempfile.mkstemp(
        prefix=target.stem + ".", suffix=".tmp", dir=target.parent
    )
    os.close(handle)
    try:
        subprocess.run(
            [compiler, *FLAGS, "-o", temporary, str(SOURCE)],
            check=True, capture_output=True, text=True,
        )
        os.replace(temporary, target)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)
    return target


def load(compiler: str = COMPILER,
         cache_dir: Path = CACHE_DIR) -> Optional[NativeKernel]:
    """Build (if needed) and load the kernel; ``None`` and one warning on failure."""
    try:
        return NativeKernel(ctypes.CDLL(str(build(compiler, cache_dir))))
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        logger.warning(
            "native ingest kernel unavailable, using the numpy path: %s",
            str(detail).strip(),
        )
        return None


#: the loaded kernel, or ``None`` when it could not be built or loaded
KERNEL: Optional[NativeKernel] = load()


def backend() -> str:
    """``"native"`` when :data:`KERNEL` is loaded, else ``"numpy"``."""
    return "numpy" if KERNEL is None else "native"
