"""Property tests: segmented CU batching ≡ scalar replay.

The segmented conservative-update engine (:mod:`repro.sketches._cu_batch`)
claims more than approximate agreement: within a conflict-free segment the
min/max rule performs the *same float operations* as the scalar path, and
the CML-CU randomised-rounding draws are consumed in the scalar order, so
the batched state must be **bit-identical** to scalar replay for integer
deltas — table, ``items_processed``, and (for CML-CU) the serialised
generator state.  Float deltas are bit-identical for CML-CU too (no
coalescing); CM-CU coalesces consecutive equal indices, which changes float
summation order, so there the contract is allclose.

The geometries are chosen adversarially: tiny widths force heavy cell
collisions (down to ``width=1``, where every run is its own segment),
duplicate-heavy and sorted/reverse-sorted streams stress run coalescing and
the conflict graph, and hashed-key mode (``dimension=None``) exercises the
unbounded-universe column mapping.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.conservative import CountMinCU
from repro.sketches.count_min_log import CountMinLogCU

#: every case runs under the native ingest kernel and under the numpy path
pytestmark = pytest.mark.usefixtures("kernel_backend")

DIMENSION = 96

CU_KINDS = (CountMinCU, CountMinLogCU)

#: adversarial collision pressure: width=1 collides every run, width=2/3
#: keep segments tiny, width=64 leaves most batches conflict-free
widths = st.sampled_from([1, 2, 3, 16, 64])
depths = st.integers(1, 4)
seeds = st.integers(0, 2**31 - 1)

#: integer deltas, zeros included (a zero consumes no update and no draw)
integer_updates = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=DIMENSION - 1),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=0,
    max_size=120,
)

#: float deltas mixing zeros, fractions and integer-valued floats (the
#: integer-valued ones hit the CML encode tables' fraction == 0 rows)
float_updates = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=DIMENSION - 1),
        st.one_of(
            st.just(0.0),
            st.just(1.0),
            st.floats(min_value=0.0, max_value=8.0,
                      allow_nan=False, allow_infinity=False),
        ),
    ),
    min_size=0,
    max_size=100,
)


def _pair(cls, width, depth, seed, dimension=DIMENSION):
    return (
        cls(dimension, width, depth, seed=seed),
        cls(dimension, width, depth, seed=seed),
    )


def _replay(sketch, updates):
    for index, delta in updates:
        sketch.update(index, float(delta))


def _batch(updates):
    indices = np.array([index for index, _ in updates], dtype=np.int64)
    deltas = np.array([delta for _, delta in updates], dtype=np.float64)
    return indices, deltas


def _assert_identical(scalar, batched):
    assert scalar.items_processed == batched.items_processed
    np.testing.assert_array_equal(scalar.table, batched.table)
    if isinstance(scalar, CountMinLogCU):
        assert (
            scalar._rng.bit_generator.state == batched._rng.bit_generator.state
        ), "randomised-rounding draw sequences diverged"


# --------------------------------------------------------------------------- #
# bit-identity for integer deltas, under collision pressure
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("cls", CU_KINDS)
@given(updates=integer_updates, width=widths, depth=depths, seed=seeds)
@settings(max_examples=30, deadline=None)
def test_integer_deltas_bit_identical(cls, updates, width, depth, seed):
    scalar, batched = _pair(cls, width, depth, seed)
    _replay(scalar, updates)
    indices, deltas = _batch(updates)
    batched.update_batch(indices, deltas)
    _assert_identical(scalar, batched)


@pytest.mark.parametrize("cls", CU_KINDS)
@given(updates=integer_updates, width=widths, depth=depths, seed=seeds,
       chunk=st.integers(1, 13))
@settings(max_examples=15, deadline=None)
def test_chunk_boundaries_do_not_matter(cls, updates, width, depth, seed, chunk):
    """Segment boundaries only ever *add* at chunk edges; state is unchanged."""
    whole, chunked = _pair(cls, width, depth, seed)
    indices, deltas = _batch(updates)
    whole.update_batch(indices, deltas)
    for start in range(0, indices.size, chunk):
        chunked.update_batch(
            indices[start:start + chunk], deltas[start:start + chunk]
        )
    _assert_identical(whole, chunked)


# --------------------------------------------------------------------------- #
# float deltas: CML-CU stays bit-identical (no coalescing); CM-CU coalesces
# consecutive equal indices, so float summation order changes → allclose
# --------------------------------------------------------------------------- #
@given(updates=float_updates, width=widths, depth=depths, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_cm_cu_float_deltas_allclose(updates, width, depth, seed):
    scalar, batched = _pair(CountMinCU, width, depth, seed)
    _replay(scalar, updates)
    indices, deltas = _batch(updates)
    batched.update_batch(indices, deltas)
    assert scalar.items_processed == batched.items_processed
    np.testing.assert_allclose(scalar.table, batched.table, rtol=1e-12, atol=0)


@given(updates=float_updates, width=widths, depth=depths, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_cml_cu_float_deltas_bit_identical(updates, width, depth, seed):
    scalar, batched = _pair(CountMinLogCU, width, depth, seed)
    _replay(scalar, updates)
    indices, deltas = _batch(updates)
    batched.update_batch(indices, deltas)
    _assert_identical(scalar, batched)


# --------------------------------------------------------------------------- #
# adversarial stream shapes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("cls", CU_KINDS)
@pytest.mark.parametrize("order", ["sorted", "reversed"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_sorted_duplicate_heavy_streams(cls, order, data):
    """Sorted/reverse-sorted duplicate-heavy streams (maximal coalescing)."""
    seed = data.draw(seeds)
    width = data.draw(widths)
    raw = data.draw(
        st.lists(st.integers(0, 7), min_size=1, max_size=150)
    )
    keys = sorted(raw, reverse=(order == "reversed"))
    scalar, batched = _pair(cls, width, 3, seed)
    for key in keys:
        scalar.update(key, 2.0)
    batched.update_batch(np.array(keys, dtype=np.int64), 2.0)
    _assert_identical(scalar, batched)


@pytest.mark.parametrize("cls", CU_KINDS)
@given(keys=st.lists(st.integers(0, 2**40), min_size=0, max_size=100),
       width=widths, seed=seeds)
@settings(max_examples=20, deadline=None)
def test_hashed_key_mode_bit_identical(cls, keys, width, seed):
    """dimension=None: arbitrary 64-bit keys through the hashed column map."""
    scalar, batched = _pair(cls, width, 3, seed, dimension=None)
    for key in keys:
        scalar.update(key)
    batched.update_batch(np.array(keys, dtype=np.int64))
    _assert_identical(scalar, batched)


@pytest.mark.parametrize("cls", CU_KINDS)
@given(updates=integer_updates, seed=seeds)
@settings(max_examples=15, deadline=None)
def test_fit_matches_scalar_weighted_replay(cls, updates, seed):
    """fit() replays non-zero coordinates in index order, bit-identically."""
    vector = np.zeros(DIMENSION)
    for index, delta in updates:
        vector[index] += delta
    scalar, batched = _pair(cls, 16, 3, seed)
    for index in np.flatnonzero(vector):
        scalar.update(int(index), float(vector[index]))
    batched.fit(vector)
    _assert_identical(scalar, batched)


# --------------------------------------------------------------------------- #
# the degenerate case: every run collides, segments shrink to one run each
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("cls", CU_KINDS)
def test_all_collide_degenerate_case(cls):
    """width=1 sends every run to the same cells: segment size 1.

    Correctness must hold (each one-run segment performs exactly the scalar
    arithmetic), and the batch path must not regress to worse than the old
    per-run chunked loop — whose cost the scalar replay bounds from below.
    """
    rng = np.random.default_rng(5)
    indices = rng.integers(0, DIMENSION, size=5000)
    # distinct consecutive indices so run coalescing cannot shrink the batch
    indices[1:][indices[1:] == indices[:-1]] += 1
    indices %= DIMENSION
    deltas = rng.integers(1, 4, size=indices.size).astype(np.float64)

    scalar, batched = _pair(cls, 1, 3, seed=99)
    start = time.perf_counter()
    for index, delta in zip(indices.tolist(), deltas.tolist()):
        scalar.update(index, delta)
    scalar_time = time.perf_counter() - start

    from repro.sketches import _cu_batch

    cells = _cu_batch.flat_cells(
        batched._table.bucket_columns(indices), batched.width
    )
    bounds = _cu_batch.segment_bounds(cells, batched.width * batched.depth)
    assert bounds == list(range(indices.size + 1)), (
        "every run shares its cells, so every segment must hold one run"
    )

    start = time.perf_counter()
    batched.update_batch(indices, deltas)
    batch_time = time.perf_counter() - start

    _assert_identical(scalar, batched)
    # generous bound: both paths degrade to one python iteration per run
    assert batch_time <= scalar_time * 3.0 + 0.05, (
        f"degenerate batch path took {batch_time:.3f}s vs scalar "
        f"{scalar_time:.3f}s"
    )


@pytest.mark.parametrize("cls", CU_KINDS)
def test_zero_deltas_are_skipped_exactly(cls):
    """Zeros consume no update count and (for CML-CU) no RNG draw."""
    scalar, batched = _pair(cls, 16, 3, seed=21)
    indices = np.arange(12, dtype=np.int64) % 5
    deltas = np.where(np.arange(12) % 3 == 0, 0.0, 1.0)
    for index, delta in zip(indices.tolist(), deltas.tolist()):
        scalar.update(int(index), delta)
    batched.update_batch(indices, deltas)
    _assert_identical(scalar, batched)
    assert batched.items_processed == int(np.count_nonzero(deltas))
