"""Property tests: the native ingest kernel is byte-equal to the numpy path.

Every case runs the same work twice — once with the loaded kernel and once
with the loader's ``KERNEL`` patched to ``None`` — and compares ``to_bytes``
and ``query_batch`` output byte for byte.  Float deltas are included: the
kernel sums in the order ``np.bincount`` does, so equality is exact, not
approximate.
"""

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SketchConfig, SketchSession, WindowSpec, _kernels
from repro.hashing.families import hash_family, hash_matrix
from repro.sketches._tables import HashedCounterTable
from repro.sketches.base import SCAN_BLOCK
from repro.sketches.registry import get_spec

DIMENSION = 500
TOP_KEY = 2**63 - 1

#: kinds whose batch path runs through the kernel (CML-CU only through
#: ``hash_matrix``), and whether they accept hashed-key mode (dimension=None)
KINDS = {
    "count_min": True,
    "count_median": True,
    "count_sketch": True,
    "count_min_cu": True,
    "count_min_log_cu": True,
    "l2_sr_streaming": False,
}
CASH_REGISTER_ONLY = {"count_min_cu", "count_min_log_cu"}

seeds = st.integers(0, 2**31 - 1)
widths = st.sampled_from([1, 2, 7, 64])
depths = st.sampled_from([1, 3, 100])
delta_kinds = st.sampled_from(["unit", "integer", "float", "zero", "constant"])


@pytest.fixture(scope="module", autouse=True)
def native_kernel():
    if _kernels.KERNEL is None:
        pytest.fail("the native ingest kernel did not load")


@contextmanager
def numpy_path():
    loaded = _kernels.KERNEL
    _kernels.KERNEL = None
    try:
        yield
    finally:
        _kernels.KERNEL = loaded


def both(run):
    """``run()`` under the native kernel, then under the numpy path."""
    native = run()
    with numpy_path():
        reference = run()
    return native, reference


def make_deltas(kind, size, rng, non_negative):
    if kind == "unit":
        return None
    if kind == "zero":
        return np.zeros(size)
    if kind == "constant":
        # one non-unit weight for the whole batch
        return np.full(size, 2.5)
    if kind == "integer":
        low = 0 if non_negative else -20
        return rng.integers(low, 20, size).astype(np.float64)
    values = rng.normal(0.0, 3.0, size)
    return np.abs(values) if non_negative else values


def keys_for(dimension, size, rng):
    top = TOP_KEY if dimension is None else dimension - 1
    keys = rng.integers(0, top, size, endpoint=True)
    keys[:2] = [0, top][:size]
    return keys


def assert_same(native, reference):
    native_bytes, native_answers = native
    reference_bytes, reference_answers = reference
    assert native_bytes == reference_bytes
    assert native_answers.tobytes() == reference_answers.tobytes()


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(KINDS)), bounded=st.booleans(),
       width=widths, depth=depths, deltas=delta_kinds, seed=seeds,
       size=st.integers(0, 300))
def test_sketch_state_and_answers_are_byte_equal(name, bounded, width, depth,
                                                 deltas, seed, size):
    dimension = DIMENSION if bounded or not KINDS[name] else None
    if name == "l2_sr_streaming":
        width = max(width, 2)  # its Bias-Heap head needs two buckets
    rng = np.random.default_rng(seed)
    keys = keys_for(dimension, size, rng)
    weights = make_deltas(deltas, size, rng, name in CASH_REGISTER_ONLY)
    queries = keys_for(dimension, 50, rng)

    def run():
        sketch = get_spec(name).build(dimension, width, depth, seed=seed)
        sketch.update_batch(keys, weights)
        sketch.update_batch(keys[::-1], weights if weights is None else weights[::-1])
        return sketch.to_bytes(), np.asarray(sketch.query_batch(queries))

    assert_same(*both(run))


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(["count_min", "count_sketch"]),
       deltas=delta_kinds, seed=seeds, size=st.integers(1, 400))
def test_sliding_window_is_byte_equal(name, deltas, seed, size):
    rng = np.random.default_rng(seed)
    keys = keys_for(DIMENSION, size, rng)
    weights = make_deltas(deltas, size, rng, False)
    config = SketchConfig(
        name, dimension=DIMENSION, width=16, depth=3, seed=seed,
        window=WindowSpec(mode="sliding", panes=3, pane_size=37),
    )

    def run():
        session = SketchSession.from_config(config)
        session.ingest(keys, deltas=weights)
        answers = session.query(kind="point", index=np.arange(DIMENSION))
        return session.to_bytes(), np.asarray(answers)

    assert_same(*both(run))


@pytest.mark.parametrize("name", sorted(KINDS))
@pytest.mark.parametrize("size", [SCAN_BLOCK - 1, SCAN_BLOCK + 1])
def test_batches_around_the_scan_block(name, size):
    dimension = None if KINDS[name] else DIMENSION
    rng = np.random.default_rng(size)
    keys = keys_for(dimension, size, rng)
    weights = make_deltas("float", size, rng, name in CASH_REGISTER_ONLY)

    def run():
        sketch = get_spec(name).build(dimension, 64, 5, seed=3)
        sketch.update_batch(keys, weights)
        return sketch.to_bytes(), np.asarray(sketch.query_batch(keys[:100]))

    assert_same(*both(run))


@pytest.mark.parametrize("name", sorted(KINDS))
def test_strided_and_narrow_inputs(name):
    rng = np.random.default_rng(11)
    wide = rng.integers(0, DIMENSION, 600)
    deltas = np.abs(rng.normal(0.0, 2.0, 1_200)).astype(np.float32)[::2]
    inputs = [wide[::2], wide[:300].astype(np.int32), wide[:300].astype(np.uint16),
              wide[:300].astype(np.uint64)]

    def run():
        sketch = get_spec(name).build(DIMENSION, 32, 4, seed=5)
        for keys in inputs:
            sketch.update_batch(keys, deltas[:keys.size])
        return sketch.to_bytes(), np.asarray(sketch.query_batch(wide[::3]))

    assert_same(*both(run))


@settings(max_examples=40, deadline=None)
@given(independence=st.integers(1, 4),
       range_size=st.sampled_from([1, 2, 3, 1_000, 1_024, 2**31 - 1, 2**61 - 1]),
       keys=st.lists(st.integers(0, TOP_KEY), min_size=0, max_size=200),
       depth=st.integers(1, 6), seed=seeds)
def test_hash_matrix_is_bit_identical(independence, range_size, keys, depth, seed):
    hashes = hash_family(depth, range_size, independence=independence, seed=seed)
    items = np.array([0, TOP_KEY] + keys, dtype=np.uint64)
    native, reference = both(lambda: hash_matrix(hashes, items))
    assert native.dtype == reference.dtype == np.int64
    assert native.tobytes() == reference.tobytes()
    assert [int(v) for v in native[:, 1]] == [h(TOP_KEY) for h in hashes]


@pytest.mark.parametrize("dimension", [DIMENSION, None])
@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("bad", [-1, DIMENSION])
@pytest.mark.parametrize("path", [nullcontext, numpy_path], ids=["native", "numpy"])
def test_bad_keys_raise_before_any_counter_moves(dimension, signed, bad, path):
    if dimension is None and bad >= 0:
        bad = -5
    table = HashedCounterTable(dimension, 16, 3, signed=signed, seed=2)
    # the bad key sits in the second SCAN_BLOCK chunk, after a valid chunk
    keys = np.concatenate([np.arange(SCAN_BLOCK + 10) % 400, [bad]])
    with path(), pytest.raises(IndexError):
        table.add_batch(keys, np.ones(keys.size))
    assert not table.table.any()


@pytest.mark.parametrize("bad", [-1, DIMENSION])
@pytest.mark.parametrize("path", [nullcontext, numpy_path], ids=["native", "numpy"])
def test_cu_bad_keys_leave_the_table_untouched(bad, path):
    sketch = get_spec("count_min_cu").build(DIMENSION, 16, 3, seed=2)
    with path(), pytest.raises(IndexError):
        sketch.update_batch([1, 2, bad])
    assert not sketch.table.any()


def test_cu_nan_and_infinite_counters_match_numpy():
    """Restored state may hold non-finite counters; both paths treat them alike."""
    keys = np.arange(200) % 37

    def run():
        sketch = get_spec("count_min_cu").build(DIMENSION, 64, 3, seed=4)
        sketch.table[0, sketch._table.bucket_column(5)[0]] = np.nan
        sketch.table[1, sketch._table.bucket_column(9)[1]] = np.inf
        sketch.update_batch(keys, np.full(keys.size, 2.0))
        return sketch.to_bytes(), np.asarray(sketch.query_batch(keys))

    native, reference = both(run)
    assert np.isnan(reference[1][5])
    assert_same(native, reference)
