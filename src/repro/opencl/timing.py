"""The device timing model.

Converts a :class:`repro.opencl.executor.LaunchTrace` into simulated
kernel nanoseconds for a given :class:`DeviceModel`. The model is
deliberately analytic (deterministic, additive) but captures every
first-order effect the paper's evaluation turns on:

- **coalescing** — global accesses are grouped into *simultaneous
  events*: accesses by the lanes of one warp at the same per-lane
  sequence position of one site. Each event costs as many memory
  transactions as distinct ``transaction_bytes``-sized segments it
  touches. Strided per-thread access (e.g. spilled private arrays)
  explodes into one transaction per lane; unit-stride access coalesces.
- **bank conflicts** — local-memory events cost the maximum number of
  lanes hitting any single bank (a broadcast of one word costs one
  cycle), so padding visibly pays off.
- **constant memory** — an event costs the number of *distinct* words
  read (1 for a broadcast, serialized otherwise).
- **caches (Fermi / CPU)** — on devices with an L1, repeated addresses
  within a work-group hit cache: only unique segments pay bandwidth,
  the rest are charged a per-access cache cycle. This is what makes the
  GTX580 insensitive to memory placement (Figure 8(b)).
- **double precision / transcendentals** — per-device throughput ratios
  (Section 5.1's 2-3x double slowdown; OpenCL's native transcendentals).

The roofline combination ``max(compute, memory) + launch overhead``
keeps the model monotone and explainable; the tests in
``tests/opencl/test_timing.py`` pin each effect individually.

A site is analysed on one of two paths with equal results:

- the **row view**, for a batch-tier site whose blocks all share one
  strictly increasing lanes array (the whole launch, or the masked lanes
  of a divergent ``if`` or grid-stride pass). Every block holds each of
  those lanes once, so a lane's sequence number is the block index and
  a warp event is one (group, warp) run of lanes inside one block: the
  stacked ``(blocks, lanes)`` indices are viewed as one row per event
  and counted row by row, with no global sort. Broadcast-scalar blocks
  are counted in closed form;
- the **general path**, for everything else (per-item and sanitized
  traces, index-offset launches, blocks over different lanes arrays,
  masks too sparse to pad): it rebuilds sequence numbers with a stable
  ``argsort`` and counts distinct (event, value) pairs by sorting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend.kernel_ir import Space


@dataclass
class SiteStats:
    """Aggregated behavior of one access site under a given device."""

    space: Space
    accesses: int
    bytes_moved: int
    is_store: bool
    transactions: int = 0  # global/image: coalesced memory transactions
    unique_transactions: int = 0  # distinct segments per work-group (cache)
    conflict_cycles: int = 0  # local: serialized cycles across events
    serial_words: int = 0  # constant: distinct words summed over events
    events: int = 0  # simultaneous access events


@dataclass
class KernelTiming:
    """The timing verdict for one launch."""

    kernel_ns: float
    compute_ns: float
    memory_ns: float
    launch_overhead_ns: float
    op_cycles: dict
    site_stats: dict = field(default_factory=dict)

    def describe(self):
        return {
            "kernel_ns": self.kernel_ns,
            "compute_ns": self.compute_ns,
            "memory_ns": self.memory_ns,
            "ops": dict(self.op_cycles),
        }


def _event_keys(lanes, local_size, warp_width):
    """Group events into 'simultaneous' sets.

    Events of one site are recorded in per-item execution order; the
    k-th access a lane makes at a site lines up with the k-th access of
    every other lane (lockstep SIMT execution of uniform control flow).
    The simultaneous-event key is (group, warp, sequence#).
    """
    order = np.argsort(lanes, kind="stable")
    sorted_lanes = lanes[order]
    # Rank within each lane: position - first index of that lane value.
    change = np.empty(len(sorted_lanes), dtype=bool)
    if len(sorted_lanes):
        change[0] = True
        change[1:] = sorted_lanes[1:] != sorted_lanes[:-1]
    starts = np.flatnonzero(change)
    group_sizes = np.diff(np.append(starts, len(sorted_lanes)))
    offsets = np.repeat(starts, group_sizes)
    seq_sorted = np.arange(len(sorted_lanes)) - offsets
    seq = np.empty(len(lanes), dtype=np.int64)
    seq[order] = seq_sorted
    groups = lanes // local_size
    warps = (lanes % local_size) // warp_width
    # Composite key, dense enough for np.unique.
    return (groups.astype(np.int64) << 40) | (warps.astype(np.int64) << 28) | seq


# Packed pair codes stay below this bound; wider ranges fall back to
# lexsort so no code can overflow int64.
_PACK_LIMIT = 1 << 62


def _sorted_pairs(keys, values):
    """Sort the (key, value) pairs by key, then by value.

    Returns ``(ordered, span, new)``: ``ordered[i] // span`` is the key
    of the i-th sorted pair (shifted by a constant), and ``new[i]`` is
    True where that pair differs from the one before it. When the pairs
    fit, each packs into one int64 code ``(k - kmin) * span + (v -
    vmin)`` and a plain sort orders them; otherwise ``np.lexsort`` does.
    """
    kmin, kmax = int(keys.min()), int(keys.max())
    vmin, vmax = int(values.min()), int(values.max())
    span = vmax - vmin + 1
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    if (kmax - kmin + 1) * span < _PACK_LIMIT:
        codes = (keys - kmin) * span + (values - vmin)
        codes.sort()
        np.not_equal(codes[1:], codes[:-1], out=new[1:])
        return codes, span, new
    order = np.lexsort((values, keys))
    keys_sorted = keys[order]
    values_sorted = values[order]
    new[1:] = (keys_sorted[1:] != keys_sorted[:-1]) | (
        values_sorted[1:] != values_sorted[:-1]
    )
    return keys_sorted, 1, new


def _count_distinct_pairs(keys, values):
    """Number of distinct (key, value) pairs — also the sum over keys of
    the number of distinct values, the serialization cost of
    constant-memory events."""
    if len(keys) == 0:
        return 0
    return int(np.count_nonzero(_sorted_pairs(keys, values)[2]))


def _max_per_key_bucket(keys, buckets):
    """For each key, the maximum multiplicity of any bucket value;
    returns the sum over keys (serialized cycles)."""
    if len(keys) == 0:
        return 0
    ordered, span, new = _sorted_pairs(keys, buckets)
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(ordered)))
    # Distinct pairs come out grouped by key: take the max per key.
    pair_keys = ordered[starts] // span
    key_change = np.empty(len(pair_keys), dtype=bool)
    key_change[0] = True
    np.not_equal(pair_keys[1:], pair_keys[:-1], out=key_change[1:])
    maxima = np.maximum.reduceat(counts, np.flatnonzero(key_change))
    return int(maxima.sum())


def _strict_coalescing_transactions(keys, byte_addr, segment_bytes, access_bytes):
    """Transactions under pre-Fermi coalescing rules.

    Per simultaneous event: lanes hitting distinct, densely packed
    addresses (a contiguous run, lane k at base + k*width) coalesce into
    the segments the run spans; any other shape — a broadcast, a large
    stride, a scatter — issues one transaction per lane, which is the
    paper's up-to-10x global penalty on the GTX8800.
    """
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    addr_sorted = byte_addr[order]
    change = np.empty(len(keys_sorted), dtype=bool)
    change[0] = True
    change[1:] = keys_sorted[1:] != keys_sorted[:-1]
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], len(keys_sorted))
    total = 0
    for start, end in zip(starts, ends):
        window = addr_sorted[start:end]
        lanes = end - start
        lo = int(window.min())
        hi = int(window.max())
        distinct = len(np.unique(window))
        dense = distinct == lanes and (hi - lo) == (lanes - 1) * access_bytes
        if lanes == 1 or dense:
            total += (hi + access_bytes - 1) // segment_bytes - lo // segment_bytes + 1
        else:
            total += lanes
    return total


def _shared_lanes(trace_site):
    """The one lanes array every block of a batch-tier site shares, or
    None when the site has any other shape (per-item accesses, blocks
    over different lane sets, lanes out of order)."""
    blocks = trace_site.blocks
    if trace_site.lanes or not blocks:
        return None
    lanes = blocks[0][0]
    if len(lanes) == 0 or any(b is not lanes for b, _ in blocks):
        return None
    if not (lanes[1:] > lanes[:-1]).all():
        return None
    return lanes


def _runs(keys):
    """Split ``keys`` (sorted) into runs of equal values.

    Returns ``(lengths, pos, pads)``: ``pos`` is None when every run has
    the same length (a reshape views the runs as rows); otherwise it is
    a ``(runs, width)`` gather index whose short rows are padded with
    the run's own first position, flagged True in ``pads``. Returns None
    when padding would more than double the data.
    """
    n = len(keys)
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.concatenate(([0], starts))
    lengths = np.diff(np.append(starts, n))
    width = int(lengths.max())
    if len(starts) * width == n:
        return lengths, None, None
    if len(starts) * width > 2 * n:
        return None
    cols = np.arange(width)
    pads = cols >= lengths[:, None]
    return lengths, starts[:, None] + np.where(pads, 0, cols), pads


class _RowLayout:
    """Where the warp events and the work-groups of one shared lanes
    array lie.

    Every block of a batch-tier site holds each lane of the array once,
    so the k-th access of a lane is in block k: the sequence number is
    the block index, and an event is one run of lanes of one (group,
    warp) in one block. :meth:`rows` views ``(blocks, lanes)`` values
    as one row per event, :meth:`group_rows` as one row per work-group.
    """

    __slots__ = ("lengths", "pos", "pads", "group_lengths", "group_pos")

    @classmethod
    def build(cls, lanes, local_size, warp):
        per_group = -(-local_size // warp)
        groups = lanes // local_size
        events = _runs(groups * per_group + (lanes % local_size) // warp)
        group_runs = _runs(groups)
        if events is None or group_runs is None:
            return None
        layout = cls()
        layout.lengths, layout.pos, layout.pads = events
        layout.group_lengths, layout.group_pos, _ = group_runs
        return layout

    @staticmethod
    def _view(values, lengths, pos):
        """``(blocks, lanes)`` values as ``(blocks, runs, width)``."""
        if pos is None:
            return values.reshape(values.shape[0], len(lengths), int(lengths[0]))
        return values[:, pos]

    def rows(self, values):
        """``(blocks, lanes)`` values as ``(blocks x runs, width)``."""
        view = self._view(values, self.lengths, self.pos)
        blocks, runs, width = view.shape
        return view.reshape(blocks * runs, width)

    def group_rows(self, values):
        """``(blocks, lanes)`` values as ``(groups, blocks x width)``."""
        view = self._view(values, self.group_lengths, self.group_pos)
        blocks, groups, width = view.shape
        return view.transpose(1, 0, 2).reshape(groups, blocks * width)

    def row_lengths(self, blocks):
        """Lanes per event row of :meth:`rows` over ``blocks`` blocks."""
        if self.pos is None:
            return self.lengths[0]
        return np.tile(self.lengths, blocks)


def _distinct_per_row(rows):
    """Distinct values of each row, summed over rows."""
    if rows.shape[0] == 0:
        return 0
    ordered = np.sort(rows, axis=1)
    return rows.shape[0] + int(np.count_nonzero(ordered[:, 1:] != ordered[:, :-1]))


def _strict_rows(rows, lengths, segment_bytes, access_bytes):
    """:func:`_strict_coalescing_transactions` on one event per row."""
    if rows.shape[0] == 0:
        return 0
    ordered = np.sort(rows, axis=1)
    distinct = 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)
    lo = ordered[:, 0]
    hi = ordered[:, -1]
    # A single lane is dense too.
    dense = (distinct == lengths) & (hi - lo == (lengths - 1) * access_bytes)
    segments = (hi + access_bytes - 1) // segment_bytes - lo // segment_bytes + 1
    return int(np.where(dense, segments, lengths).sum())


def _max_bank_rows(banks, pads, n_banks):
    """:func:`_max_per_key_bucket` on one event per row: pads count in
    an extra bank that no maximum reads."""
    if banks.shape[0] == 0:
        return 0
    width = n_banks + 1
    if pads is not None:
        pads = np.tile(pads, (banks.shape[0] // len(pads), 1))
        banks = np.where(pads, n_banks, banks)
    codes = banks + np.arange(banks.shape[0])[:, None] * width
    counts = np.bincount(codes.ravel(), minlength=banks.shape[0] * width)
    return int(counts.reshape(-1, width)[:, :n_banks].max(axis=1).sum())


def _analyze_rows(trace_site, device, layout, stats):
    """Fill ``stats`` for a site whose blocks all share one lanes array.

    Array blocks stack into a ``(blocks, lanes)`` matrix that the layout
    views row-wise. A block whose index is a broadcast scalar touches one
    word (one segment) per event, so it is counted in closed form.
    """
    arrays = []
    scalars = []
    for _, idx in trace_site.blocks:
        if idx.strides == (0,):
            scalars.append(idx[0])
        else:
            arrays.append(idx)
    n_lanes = len(trace_site.blocks[0][0])
    runs = len(layout.lengths)
    stats.events = len(trace_site.blocks) * runs
    access_bytes = trace_site.elem_bytes * trace_site.width
    matrix = np.stack(arrays) if arrays else np.empty((0, n_lanes), np.int64)
    byte_addr = matrix * access_bytes
    scalar_addr = np.array(scalars, dtype=np.int64) * access_bytes
    space = trace_site.space
    if space in (Space.GLOBAL, Space.IMAGE):
        tb = device.transaction_bytes
        seg_lo = byte_addr // tb
        scalar_seg = scalar_addr // tb
        spans = 0
        if tb % access_bytes:
            # Accesses that straddle a segment boundary pay one more.
            seg_hi = (byte_addr + access_bytes - 1) // tb
            scalar_hi = (scalar_addr + access_bytes - 1) // tb
            spans = int(np.count_nonzero(seg_hi != seg_lo)) + n_lanes * int(
                np.count_nonzero(scalar_hi != scalar_seg)
            )
        if not device.strict_coalescing or space is Space.IMAGE:
            transactions = _distinct_per_row(layout.rows(seg_lo)) + runs * len(scalars)
        else:
            transactions = _strict_rows(
                layout.rows(byte_addr),
                layout.row_lengths(len(arrays)),
                tb,
                access_bytes,
            )
            # A broadcast event is coalesced only on a single lane.
            singles = int(np.count_nonzero(layout.lengths == 1))
            scalar_segments = (scalar_addr + access_bytes - 1) // tb - scalar_seg + 1
            transactions += singles * int(scalar_segments.sum()) + (
                n_lanes - singles
            ) * len(scalars)
        stats.transactions = transactions + spans
        group_segments = layout.group_rows(seg_lo)
        if scalars:
            # Every group sees each broadcast block's one segment.
            shape = (len(group_segments), len(scalars))
            scalar_cols = np.broadcast_to(scalar_seg, shape)
            group_segments = np.concatenate([group_segments, scalar_cols], axis=1)
        stats.unique_transactions = _distinct_per_row(group_segments) + spans
    elif space is Space.LOCAL:
        words = byte_addr // 4
        word_rows = layout.rows(words)
        distinct_words = _distinct_per_row(word_rows) + runs * len(scalars)
        if distinct_words == stats.events:
            stats.conflict_cycles = stats.events
        else:
            max_bank = _max_bank_rows(
                word_rows % device.local_memory_banks,
                layout.pads,
                device.local_memory_banks,
            )
            stats.conflict_cycles = max_bank + n_lanes * len(scalars)
    elif space is Space.CONSTANT:
        words = byte_addr // 4
        stats.serial_words = _distinct_per_row(layout.rows(words)) + runs * len(scalars)
    return stats


def analyze_site(trace_site, device, local_size, layouts=None):
    """Aggregate one :class:`SiteTrace` into :class:`SiteStats`.

    ``layouts`` caches each shared lanes array's :class:`_RowLayout`
    across the sites of one launch: most sites of a launch share one
    lanes array, and building its layout once per launch instead of
    once per site cuts ``timing.time_launch_s`` by about a third on
    ``paper-default`` and ``stream-fleet``. An entry holds its array,
    so the array's id cannot be reused while the entry lives.
    """
    stats = SiteStats(
        space=trace_site.space,
        accesses=trace_site.accesses,
        bytes_moved=trace_site.bytes_moved,
        is_store=trace_site.is_store,
    )
    warp = max(1, device.warp_width)
    shared = _shared_lanes(trace_site)
    if shared is not None:
        if layouts is None:
            layouts = {}
        key = (id(shared), local_size, warp)
        if key not in layouts:
            layouts[key] = (shared, _RowLayout.build(shared, local_size, warp))
        layout = layouts[key][1]
        if layout is not None:
            return _analyze_rows(trace_site, device, layout, stats)
    lanes, indices = trace_site.arrays()
    if len(lanes) == 0:
        return stats
    keys = _event_keys(lanes, local_size, warp)
    stats.events = len(np.unique(keys))
    byte_addr = indices * (trace_site.elem_bytes * trace_site.width)
    if trace_site.space in (Space.GLOBAL, Space.IMAGE):
        seg_lo = byte_addr // device.transaction_bytes
        seg_hi = (
            byte_addr + trace_site.elem_bytes * trace_site.width - 1
        ) // device.transaction_bytes
        spans = int((seg_hi != seg_lo).sum())
        if not device.strict_coalescing or trace_site.space is Space.IMAGE:
            # Relaxed path: an event costs its distinct segments.
            transactions = _count_distinct_pairs(keys, seg_lo)
        else:
            # Strict pre-Fermi coalescing: an event is coalesced only
            # when its lanes hit distinct, densely packed addresses
            # within one segment-aligned window; anything else — a
            # broadcast, a stride, a scatter — serializes into one
            # transaction per lane (the paper's up-to-10x global
            # penalty on the GTX8800).
            transactions = _strict_coalescing_transactions(
                keys,
                byte_addr,
                device.transaction_bytes,
                trace_site.elem_bytes * trace_site.width,
            )
        stats.transactions = transactions + spans
        # Unique segments per work-group: what a group-resident cache
        # must fetch from DRAM.
        groups = lanes // local_size
        stats.unique_transactions = _count_distinct_pairs(groups, seg_lo) + spans
    elif trace_site.space is Space.LOCAL:
        words = byte_addr // 4
        banks = words % device.local_memory_banks
        # Broadcast detection: an event where every lane reads the same
        # word costs one cycle; otherwise the max-per-bank multiplicity.
        distinct_words = _count_distinct_pairs(keys, words)
        max_bank = _max_per_key_bucket(keys, banks)
        if distinct_words == stats.events:
            # Every event touched a single word: pure broadcast.
            stats.conflict_cycles = stats.events
        else:
            stats.conflict_cycles = max_bank
    elif trace_site.space is Space.CONSTANT:
        words = byte_addr // 4
        stats.serial_words = _count_distinct_pairs(keys, words)
    return stats


# Per-op cycle weights, shared across devices; device ratios are applied
# on top (dp ratio, transcendental cycles).
_BASE_CYCLES = {"int": 1.0, "long": 2.0, "fp": 1.0, "cmp": 1.0, "branch": 1.0}


def time_launch(trace, device):
    """Compute the simulated time of one kernel launch on ``device``."""
    local_size = max(1, trace.local_size)
    layouts = {}
    site_stats = {
        site: analyze_site(tr, device, local_size, layouts)
        for site, tr in trace.sites.items()
    }

    ops = trace.op_cycles
    cycles = 0.0
    for kind, weight in _BASE_CYCLES.items():
        cycles += ops.get(kind, 0) * weight
    cycles += ops.get("dp", 0) * device.dp_throughput_ratio
    cycles += ops.get("trans_f", 0) * device.transcendental_cycles
    cycles += (
        ops.get("trans_d", 0)
        * device.transcendental_cycles
        * device.dp_throughput_ratio
    )

    # On-chip memory joins the compute pipeline.
    dram_bytes = 0.0
    cache_hit_bytes = 0.0
    for stats in site_stats.values():
        if stats.space is Space.LOCAL:
            cycles += stats.conflict_cycles * local_size_weight(device)
        elif stats.space is Space.CONSTANT:
            cycles += stats.serial_words * local_size_weight(device)
        elif stats.space is Space.IMAGE:
            # Texture path: cached and vectorized; charge a fixed 2
            # cycles per event plus the DRAM traffic of unique segments.
            cycles += stats.events * 2 * local_size_weight(device)
            dram_bytes += stats.unique_transactions * device.transaction_bytes
        elif stats.space is Space.GLOBAL:
            if device.has_l1_cache:
                unique_bytes = stats.unique_transactions * device.transaction_bytes
                total_bytes = stats.transactions * device.transaction_bytes
                dram_bytes += unique_bytes
                cache_hit_bytes += max(0.0, total_bytes - unique_bytes)
            else:
                dram_bytes += stats.transactions * device.transaction_bytes

    total_lanes = device.compute_units * device.fp_units_per_unit
    effective_rate = (
        total_lanes * device.clock_ghz * device.compute_efficiency
    )  # ops per ns
    compute_ns = cycles / effective_rate if effective_rate else 0.0

    # Cache hits are serviced at the cache's rate across compute units.
    if cache_hit_bytes:
        cache_rate = (
            device.compute_units
            * device.cache_bytes_per_cycle
            * device.clock_ghz
        )  # bytes per ns
        compute_ns += cache_hit_bytes / cache_rate

    bandwidth = device.global_bandwidth_gbps * device.bandwidth_efficiency  # B/ns
    memory_ns = dram_bytes / bandwidth if bandwidth else 0.0
    # Uncovered latency: one burst per wave of work-groups.
    waves = max(1.0, trace.work_groups / device.compute_units)
    memory_ns += device.global_latency_ns * waves if dram_bytes else 0.0

    kernel_ns = max(compute_ns, memory_ns) + device.launch_overhead_ns
    return KernelTiming(
        kernel_ns=kernel_ns,
        compute_ns=compute_ns,
        memory_ns=memory_ns,
        launch_overhead_ns=device.launch_overhead_ns,
        op_cycles=dict(ops),
        site_stats=site_stats,
    )


def local_size_weight(device):
    """Cost, in pipeline cycles per lane-event, of an on-chip access.

    On-chip accesses are charged like ALU ops; the warp serialization is
    already reflected in the conflict counts, so the per-event weight is
    the warp width (one cycle per lane at full throughput equals one
    warp-cycle per event)."""
    return float(device.warp_width)
