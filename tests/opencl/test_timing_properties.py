"""Property-based tests for the timing model's invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.kernel_ir import Space
from repro.opencl.device import GTX580, GTX8800
from repro.opencl.executor import LaunchTrace, SiteTrace
from repro.opencl.timing import (
    _count_distinct_pairs,
    _max_per_key_bucket,
    _sorted_pairs,
    analyze_site,
    time_launch,
)


def make_site(space, accesses, elem_bytes=4, width=1):
    site = SiteTrace(space, elem_bytes, width, is_store=False)
    for lane, idx in accesses:
        site.lanes.append(lane)
        site.indices.append(idx)
    return site


@given(
    st.lists(
        st.tuples(st.integers(0, 31), st.integers(0, 255)),
        min_size=1,
        max_size=120,
    )
)
@settings(max_examples=60, deadline=None)
def test_event_grouping_is_order_insensitive_per_lane_history(accesses):
    """Shuffling whole-lane histories does not change the aggregate
    (events are keyed by per-lane sequence, not arrival order)."""
    site_a = make_site(Space.GLOBAL, accesses)
    stats_a = analyze_site(site_a, GTX8800, local_size=32)
    # Reorder by stable-sorting on lane: preserves each lane's sequence.
    reordered = sorted(accesses, key=lambda pair: pair[0])
    site_b = make_site(Space.GLOBAL, reordered)
    stats_b = analyze_site(site_b, GTX8800, local_size=32)
    assert stats_a.transactions == stats_b.transactions
    assert stats_a.events == stats_b.events


@given(
    st.lists(
        st.tuples(st.integers(0, 31), st.integers(0, 1023)),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=60, deadline=None)
def test_strict_coalescing_never_cheaper_than_relaxed(accesses):
    site = make_site(Space.GLOBAL, accesses)
    strict = analyze_site(site, GTX8800, local_size=32)
    # Same trace under the cached device: relaxed counting.
    site2 = make_site(Space.GLOBAL, accesses)
    relaxed = analyze_site(site2, GTX580, local_size=32)
    # Segment sizes differ (64 vs 128B), so compare per-device lower
    # bounds instead: strict >= its own distinct-segment count is the
    # invariant worth holding.
    site3 = make_site(Space.GLOBAL, accesses)
    from dataclasses import replace

    relaxed_same_seg = analyze_site(
        site3, replace(GTX8800, strict_coalescing=False), local_size=32
    )
    assert strict.transactions >= relaxed_same_seg.transactions


@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 255)),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=60, deadline=None)
def test_local_conflicts_bounded_by_lanes(accesses):
    site = make_site(Space.LOCAL, accesses)
    stats = analyze_site(site, GTX8800, local_size=16)
    assert stats.conflict_cycles >= stats.events
    assert stats.conflict_cycles <= len(accesses)


@given(st.integers(1, 10 ** 7), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_kernel_time_monotone_in_ops(fp_ops, extra):
    a = LaunchTrace("k", 64, 64)
    a.op_cycles["fp"] = fp_ops
    b = LaunchTrace("k", 64, 64)
    b.op_cycles["fp"] = fp_ops + extra
    ta = time_launch(a, GTX580).kernel_ns
    tb = time_launch(b, GTX580).kernel_ns
    assert tb >= ta


def test_timing_deterministic():
    accesses = [(lane, lane * 3 % 64) for lane in range(32)] * 4
    runs = []
    for _ in range(3):
        trace = LaunchTrace("k", 32, 32)
        trace.op_cycles["fp"] = 1234
        trace.sites = {0: make_site(Space.GLOBAL, accesses)}
        runs.append(time_launch(trace, GTX8800).kernel_ns)
    assert runs[0] == runs[1] == runs[2]


# -- pair counting against a structured-np.unique reference -----------------


def reference_distinct_pairs(keys, values):
    """Distinct (key, value) pairs via np.unique over a structured array."""
    if len(keys) == 0:
        return 0
    pairs = np.empty(len(keys), dtype=[("k", np.int64), ("v", np.int64)])
    pairs["k"] = keys
    pairs["v"] = values
    return len(np.unique(pairs))


def reference_max_per_key_bucket(keys, buckets):
    """Sum over keys of the largest bucket multiplicity, via np.unique
    over a structured array."""
    if len(keys) == 0:
        return 0
    pairs = np.empty(len(keys), dtype=[("k", np.int64), ("b", np.int64)])
    pairs["k"] = keys
    pairs["b"] = buckets
    uniq, counts = np.unique(pairs, return_counts=True)
    best = {}
    for key, count in zip(uniq["k"].tolist(), counts.tolist()):
        best[key] = max(best.get(key, 0), count)
    return sum(best.values())


INT64 = st.integers(-(2 ** 63), 2 ** 63 - 1)
# Few distinct small values (so pairs repeat), negative indices as
# un-sanitized per-item code can record them, and full-range values that
# force the lexsort fallback.
PAIR_COLUMN_VALUE = st.one_of(st.integers(-8, 8), st.integers(-5000, 5000), INT64)


def pair_columns(pairs):
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.int64)
    return keys, values


def assert_matches_reference(keys, values):
    assert _count_distinct_pairs(keys, values) == reference_distinct_pairs(
        keys, values
    )
    assert _max_per_key_bucket(keys, values) == reference_max_per_key_bucket(
        keys, values
    )


@given(st.lists(st.tuples(PAIR_COLUMN_VALUE, PAIR_COLUMN_VALUE), max_size=200))
@settings(max_examples=200, deadline=None)
def test_pair_counting_matches_structured_unique(pairs):
    assert_matches_reference(*pair_columns(pairs))


@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=60),
    st.sampled_from([1 << 40, 1 << 62, 2 ** 63 - 1]),
)
@settings(max_examples=100, deadline=None)
def test_pair_counting_matches_reference_across_lexsort_fallback(pairs, far):
    """Repeated pairs plus a far-away key and value: packed codes would
    overflow, so the counts come from the lexsort path."""
    keys, values = pair_columns(pairs + [(0, far), (-far, 0)])
    assert _sorted_pairs(keys, values)[1] == 1  # lexsort fallback taken
    assert_matches_reference(keys, values)


def test_pair_counting_empty_input():
    empty = np.array([], dtype=np.int64)
    assert _count_distinct_pairs(empty, empty) == 0
    assert _max_per_key_bucket(empty, empty) == 0
