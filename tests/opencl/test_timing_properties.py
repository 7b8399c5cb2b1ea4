"""Property-based tests for the timing model's invariants."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.kernel_ir import Space
from repro.opencl.device import CORE_I7, GTX580, GTX8800, HD5970
from repro.opencl.executor import LaunchTrace, SiteTrace
from repro.opencl.timing import (
    _RowLayout,
    _count_distinct_pairs,
    _max_per_key_bucket,
    _shared_lanes,
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


# -- row view of batch-tier sites against the general path -------------------

# Small devices make many warps and segments out of few lanes; the
# catalog devices cover the real warp widths, bank counts and rules.
SMALL_RELAXED = replace(
    GTX580, warp_width=4, local_memory_banks=4, transaction_bytes=16
)
SMALL_STRICT = replace(
    GTX8800, warp_width=8, local_memory_banks=4, transaction_bytes=32
)
DEVICES = [GTX580, GTX8800, HD5970, CORE_I7, SMALL_RELAXED, SMALL_STRICT]
ANALYZED_SPACES = [Space.GLOBAL, Space.IMAGE, Space.LOCAL, Space.CONSTANT]


def per_item_copy(site):
    """The same accesses recorded one at a time, in per-lane order: the
    general path's input, as the per-item tier would record it."""
    lanes, indices = site.arrays()
    copy = SiteTrace(site.space, site.elem_bytes, site.width, site.is_store)
    copy.lanes = lanes.tolist()
    copy.indices = indices.tolist()
    return copy


def block_indices(rng, pattern, lanes):
    n = len(lanes)
    if pattern == "unit":
        return lanes + int(rng.integers(-3, 40))
    if pattern == "stride":
        return lanes * int(rng.integers(2, 40)) + int(rng.integers(0, 8))
    if pattern == "reversed":
        return lanes[::-1] * int(rng.integers(1, 3))
    if pattern == "equal":
        return np.full(n, int(rng.integers(0, 100)), dtype=np.int64)
    if pattern == "few":
        return rng.integers(0, 4, size=n) * int(rng.integers(1, 33))
    return rng.integers(-50, 600, size=n)


@st.composite
def batch_sites(draw):
    """A batch-tier site: blocks over one shared, strictly increasing
    lanes array (the whole launch or a masked subset), each holding an
    index array or a broadcast scalar."""
    device = draw(st.sampled_from(DEVICES))
    local_size = draw(st.sampled_from([1, 3, 4, 6, 8, 12, 16, 24, 32, 40, 64, 96, 128]))
    global_size = local_size * draw(st.integers(1, max(1, 384 // local_size)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lanes = np.arange(global_size, dtype=np.int64)
    if draw(st.booleans()):
        keep = rng.random(global_size) < draw(st.sampled_from([0.3, 0.6, 0.9, 0.97]))
        keep[rng.integers(global_size)] = True
        lanes = np.flatnonzero(keep).astype(np.int64)
    site = SiteTrace(
        draw(st.sampled_from(ANALYZED_SPACES)),
        draw(st.sampled_from([1, 2, 4, 8])),
        draw(st.sampled_from([1, 2, 3, 4, 8, 16])),
        is_store=draw(st.booleans()),
    )
    patterns = ["scalar", "unit", "stride", "reversed", "equal", "few", "random"]
    for pattern in draw(st.lists(st.sampled_from(patterns), min_size=1, max_size=6)):
        if pattern == "scalar":
            site.append_block(lanes, int(rng.integers(0, 300)), count=len(lanes))
        else:
            site.append_block(lanes, block_indices(rng, pattern, lanes))
    return site, device, local_size


@given(batch_sites())
@settings(derandomize=True, max_examples=400, deadline=None)
def test_row_view_matches_general_path(case):
    site, device, local_size = case
    lanes = site.blocks[0][0]
    assert _shared_lanes(site) is lanes
    if lanes[-1] + 1 == len(lanes):
        # A whole launch always takes the row view.
        assert _RowLayout.build(lanes, local_size, max(1, device.warp_width))
    general = analyze_site(per_item_copy(site), device, local_size)
    assert analyze_site(site, device, local_size) == general


def test_row_view_counts_broadcast_blocks_in_closed_form():
    lanes = np.arange(64, dtype=np.int64)
    for space in ANALYZED_SPACES:
        site = SiteTrace(space, 4, 1, is_store=False)
        site.append_block(lanes, 7, count=64)
        site.append_block(lanes, lanes)
        stats = analyze_site(site, GTX8800, local_size=32)
        assert stats == analyze_site(per_item_copy(site), GTX8800, local_size=32)
        assert stats.events == 4


def test_sparse_masks_keep_the_general_path():
    """Lanes spread so thinly that padded rows would more than double
    the data are analysed by the general path, with the same result."""
    lanes = np.arange(0, 512, 32, dtype=np.int64)
    lanes = np.append(lanes, np.arange(1, 32, dtype=np.int64))
    lanes.sort()
    assert _RowLayout.build(lanes, 128, 32) is None
    site = SiteTrace(Space.LOCAL, 4, 1, is_store=False)
    site.append_block(lanes, lanes * 3)
    assert analyze_site(site, GTX580, 128) == analyze_site(
        per_item_copy(site), GTX580, 128
    )


PER_ITEM_ACCESSES = st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 300)), min_size=1, max_size=40
)


@given(batch_sites(), PER_ITEM_ACCESSES)
@settings(derandomize=True, max_examples=100, deadline=None)
def test_mixed_per_item_and_block_sites_keep_the_general_path(case, items):
    """A site with per-item accesses besides its blocks is not batch
    shaped: it gives exactly what the same accesses recorded per-item
    give."""
    site, device, local_size = case
    for lane, idx in items:
        site.lanes.append(lane)
        site.indices.append(idx)
    assert _shared_lanes(site) is None
    assert analyze_site(site, device, local_size) == analyze_site(
        per_item_copy(site), device, local_size
    )


def test_blocks_over_different_lane_arrays_keep_the_general_path():
    site = SiteTrace(Space.GLOBAL, 4, 1, is_store=False)
    site.append_block(np.arange(64, dtype=np.int64), np.arange(64) * 5)
    site.append_block(np.arange(64, dtype=np.int64), 3, count=64)
    assert _shared_lanes(site) is None
    assert analyze_site(site, GTX8800, 32) == analyze_site(
        per_item_copy(site), GTX8800, 32
    )


def test_layout_cache_is_keyed_on_lanes_and_shape():
    """One ``layouts`` dict shared across sites, local sizes and warp
    widths gives what a fresh analysis of each site gives."""
    lanes = np.arange(96, dtype=np.int64)
    layouts = {}
    for device in (GTX580, HD5970, SMALL_STRICT):
        for local_size in (96, 32, 24):
            site = SiteTrace(Space.LOCAL, 4, 1, is_store=False)
            site.append_block(lanes, (lanes * 3) % 50)
            assert analyze_site(site, device, local_size, layouts) == analyze_site(
                site, device, local_size
            )
    assert len(layouts) == 9
