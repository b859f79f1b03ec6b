"""Property-based tests (hypothesis) for the sliding-window engine.

The windowing layer is pure plumbing over the pane-merge algebra, so its
core contract is *exact*: for every linear sketch and every pane geometry,

* **window/fresh equivalence** — the windowed estimate is bit-identical to
  a fresh sketch fed only the in-window updates (the suffix of the stream
  the live panes cover), for count- and time-based panes, scalar and
  batched replay;
* **pane merge order is irrelevant** — the merged view equals the panes
  merged in any permutation (linearity);
* **decay algebra** — the decayed sketch equals the per-pane sketches
  merged with weights ``decay**age`` via ``scale``.

Streams are integer-weighted throughout: integer scatter-adds are exact in
float64, which is what makes "bit-identical" a meaningful bar.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CapabilityError, SketchConfig
from repro.sketches.registry import available_sketches, get_spec
from repro.streaming import SlidingWindowSketch, WindowSpec

#: every case runs under the native ingest kernel and under the numpy path
pytestmark = pytest.mark.usefixtures("kernel_backend")

DIMENSION = 64
WIDTH = 16
DEPTH = 3

LINEAR_SKETCHES = [
    name for name in available_sketches() if get_spec(name).linear
]
NON_LINEAR_SKETCHES = [
    name for name in available_sketches() if not get_spec(name).linear
]

seeds = st.integers(0, 2**31 - 1)

#: a short integer-weighted cash-register stream over [0, DIMENSION)
update_streams = st.lists(
    st.tuples(
        st.integers(0, DIMENSION - 1),
        st.integers(1, 8),
    ),
    min_size=1,
    max_size=60,
)


def base_config(name, seed, window=None):
    return SketchConfig(name, dimension=DIMENSION, width=WIDTH, depth=DEPTH,
                        seed=seed, window=window)


def build_window(name, seed, panes, pane_size, by="count"):
    spec = WindowSpec(mode="sliding", panes=panes, pane_size=pane_size, by=by)
    return SlidingWindowSketch(base_config(name, seed, window=spec))


def in_window_count(total, panes, pane_size):
    """Updates the live panes cover after ``total`` count-based updates."""
    closes = total // pane_size
    fill = total % pane_size
    return fill + min(closes, panes - 1) * pane_size


def fresh_replay(name, seed, updates):
    sketch = base_config(name, seed).build()
    for index, delta in updates:
        sketch.update(index, float(delta))
    return sketch


def assert_states_identical(a, b, *, compare_meta=False):
    """Bit-identical state arrays and scalars (meta excluded by default:
    order-dependent bookkeeping like the streaming-ℓ2 heap membership may
    break rank ties differently across merge orders)."""
    sa, sb = a.state_dict(), b.state_dict()
    assert sa["kind"] == sb["kind"]
    assert set(sa["arrays"]) == set(sb["arrays"])
    for key in sa["arrays"]:
        assert np.array_equal(sa["arrays"][key], sb["arrays"][key]), key
    assert sa["scalars"] == sb["scalars"]
    if compare_meta:
        assert sa["meta"] == sb["meta"]


class TestWindowFreshEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(updates=update_streams, seed=seeds,
           panes=st.integers(1, 4), pane_size=st.integers(1, 7))
    def test_window_equals_fresh_sketch_on_suffix(self, updates, seed, panes,
                                                  pane_size):
        """The windowed estimate is bit-identical to a fresh sketch fed only
        the in-window updates — for every linear sketch kind."""
        expected = in_window_count(len(updates), panes, pane_size)
        suffix = updates[len(updates) - expected:]
        probe = np.arange(DIMENSION)
        for name in LINEAR_SKETCHES:
            window = build_window(name, seed, panes, pane_size)
            for index, delta in updates:
                window.update(index, float(delta))
            assert window.items_in_window == expected, name
            fresh = fresh_replay(name, seed, suffix)
            view = window.view()
            assert_states_identical(view, fresh)
            assert np.array_equal(
                view.query_batch(probe), fresh.query_batch(probe)
            ), name

    @settings(max_examples=8, deadline=None)
    @given(updates=update_streams, seed=seeds,
           panes=st.integers(1, 4), pane_size=st.integers(1, 7))
    def test_batched_replay_reaches_the_same_window(self, updates, seed,
                                                    panes, pane_size):
        """One vectorised update_batch call lands every update in the same
        pane as the scalar replay (same bytes, hence same window)."""
        indices = np.array([u[0] for u in updates], dtype=np.int64)
        deltas = np.array([u[1] for u in updates], dtype=np.float64)
        for name in LINEAR_SKETCHES:
            scalar = build_window(name, seed, panes, pane_size)
            for index, delta in updates:
                scalar.update(index, float(delta))
            batched = build_window(name, seed, panes, pane_size)
            batched.update_batch(indices, deltas)
            assert batched.to_bytes() == scalar.to_bytes(), name

    @settings(max_examples=8, deadline=None)
    @given(updates=update_streams, seed=seeds, panes=st.integers(1, 4),
           pane_span=st.sampled_from([0.5, 1.0, 3.0]),
           horizon=st.floats(1.0, 20.0))
    def test_time_window_equals_fresh_sketch_on_suffix(self, updates, seed,
                                                       panes, pane_span,
                                                       horizon):
        """Time-based panes: the window summarises exactly the updates whose
        pane index is within ``panes`` of the open pane."""
        count = len(updates)
        stamps = np.linspace(0.0, horizon, count)
        pane_ids = np.floor(stamps / pane_span).astype(np.int64)
        open_pane = int(pane_ids[-1])
        kept = [u for u, pane in zip(updates, pane_ids)
                if pane > open_pane - panes]
        probe = np.arange(DIMENSION)
        for name in LINEAR_SKETCHES:
            window = build_window(name, seed, panes, pane_span, by="time")
            for (index, delta), stamp in zip(updates, stamps):
                window.update(index, float(delta), timestamp=float(stamp))
            fresh = fresh_replay(name, seed, kept)
            view = window.view()
            assert_states_identical(view, fresh)
            assert np.array_equal(
                view.query_batch(probe), fresh.query_batch(probe)
            ), name


class TestPaneMergeOrder:
    @settings(max_examples=8, deadline=None)
    @given(updates=update_streams, seed=seeds, shuffle_seed=seeds)
    def test_pane_merge_order_is_irrelevant(self, updates, seed, shuffle_seed):
        """Merging the live panes in any permutation reproduces the view."""
        panes, pane_size = 4, 5
        for name in LINEAR_SKETCHES:
            window = build_window(name, seed, panes, pane_size)
            for index, delta in updates:
                window.update(index, float(delta))
            live = list(window._closed) + [window._current]
            order = np.random.default_rng(shuffle_seed).permutation(len(live))
            merged = live[order[0]].copy()
            for position in order[1:]:
                merged.merge(live[position])
            assert_states_identical(window.view(), merged)
            probe = np.arange(DIMENSION)
            assert np.array_equal(
                window.view().query_batch(probe), merged.query_batch(probe)
            ), name


class TestDecayAlgebra:
    @settings(max_examples=8, deadline=None)
    @given(updates=update_streams, seed=seeds,
           pane_size=st.integers(1, 7),
           decay=st.sampled_from([0.25, 0.5, 0.75]))
    def test_decay_equals_weighted_pane_merge(self, updates, seed, pane_size,
                                              decay):
        """The decayed sketch equals the per-pane sketches scaled by
        ``decay**age`` and merged — decay is a weighted window.

        Exact powers of two keep every scale exact in float64, so the
        comparison is again bit-identical.
        """
        spec = WindowSpec(mode="decay", pane_size=pane_size, decay=decay)
        probe = np.arange(DIMENSION)
        for name in LINEAR_SKETCHES:
            window = SlidingWindowSketch(base_config(name, seed, window=spec))
            for index, delta in updates:
                window.update(index, float(delta))
            # group updates into their panes and rebuild the weighted sum
            boundaries = range(0, len(updates), pane_size)
            panes = [updates[start:start + pane_size] for start in boundaries]
            ages = [len(panes) - 1 - position if len(updates) % pane_size
                    else len(panes) - position for position in range(len(panes))]
            reference = base_config(name, seed).build()
            for age, pane_updates in zip(ages, panes):
                pane = fresh_replay(name, seed, pane_updates)
                pane.scale(decay ** age)
                reference.merge(pane)
            assert np.array_equal(
                window.view().query_batch(probe),
                reference.query_batch(probe),
            ), name


class TestCapabilityGuards:
    @pytest.mark.parametrize("name", NON_LINEAR_SKETCHES)
    def test_non_linear_sketches_are_rejected(self, name):
        with pytest.raises(CapabilityError, match="pane-merge algebra"):
            base_config(name, 1, window=WindowSpec(pane_size=4))
