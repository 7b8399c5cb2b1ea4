"""The vectorized batch tier: eligibility, fallback, and guards.

The batch tier executes a whole NDRange as NumPy array operations, but
only for kernels whose semantics survive the lowering. Local arrays
(one column per work-group), barriers in uniform control flow, and
top-level divergent ``if``s (masked arms) are in; barriers under
divergent control, nested divergent branches, assignments in a branch
to an outer variable, vector access to local memory, ``while`` loops
and data-dependent *inner* loops are out. These tests pin down both
sides of that contract:

- ineligible kernels **decline** with a specific reason and fall back
  to per-item execution even when ``tier="batch"`` is requested;
- eligible kernels run batched, bit-identically to per-item: the same
  buffers, op counts, barrier count and per-lane access sequences;
- a sanitizer guard always forces the instrumented per-item path —
  bounds faults still fire when the caller asked for ``batch``;
- tier resolution: explicit argument beats the ``REPRO_EXEC_TIER``
  environment variable beats ``auto``; unknown names are structured
  errors.
"""

import math

import numpy as np
import pytest

from repro.apps.nbody import BASELINE_OPENCL
from repro.errors import BoundsFault, DeviceError
from repro.opencl.clc import compile_opencl_source
from repro.opencl.executor import (
    EXEC_TIER_ENV,
    _vfmod,
    batch_eligibility,
    compile_kernel,
    resolve_exec_tier,
)
from repro.runtime.sanitizer import LaunchGuard, SanitizerConfig

ELIGIBLE = """
__kernel void saxpy(__global float* out, __global const float* x,
                    float a, int n) {
    int i = get_global_id(0);
    out[i] = a * x[i] + 1.0f;
}
"""

BARRIER_TILED = """
__kernel void tiled(__global float* out, __global const float* in, int n) {
    __local float tile[8];
    int lid = get_local_id(0);
    int gid = get_global_id(0);
    tile[lid] = in[gid];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[gid] = tile[7 - lid];
}
"""

DIVERGENT = """
__kernel void branchy(__global float* out, __global const float* x, int n) {
    int i = get_global_id(0);
    if (x[i] > 0.5f) {
        out[i] = x[i] * 2.0f;
    } else {
        out[i] = 0.0f;
    }
}
"""

UNIFORM_BRANCH_BARRIER = """
__kernel void gated(__global float* out, __global const float* x, int n) {
    __local float tile[8];
    int lid = get_local_id(0);
    int i = get_global_id(0);
    if (n > 4) {
        tile[lid] = x[i];
        barrier(CLK_LOCAL_MEM_FENCE);
        out[i] = tile[(lid + 1) % 8];
    }
}
"""

VECTOR_TOP_LEVEL = """
__kernel void swizzle(__global float* out, __global const float* x, int n) {
    int i = get_global_id(0);
    float4 v = vload4(i % 4, x);
    out[i] = v.y + v.w;
}
"""

BARRIER_IN_BRANCH = """
__kernel void fenced(__global float* out, __global const float* x, int n) {
    __local float tile[8];
    int lid = get_local_id(0);
    int i = get_global_id(0);
    if (x[i] > 0.5f) {
        tile[lid] = x[i];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    out[i] = tile[lid];
}
"""

NESTED_BRANCH = """
__kernel void nested_if(__global float* out, __global const float* x, int n) {
    int i = get_global_id(0);
    if (x[i] > 0.25f) {
        out[i] = 0.5f;
        if (x[i] > 0.75f) {
            out[i] = 1.0f;
        }
    }
}
"""

OUTER_ASSIGN = """
__kernel void clamp_outer(__global float* out, __global const float* x, int n) {
    int i = get_global_id(0);
    float v = x[i];
    if (v > 0.5f) {
        v = 0.5f;
    }
    out[i] = v;
}
"""

REDECLARE_IN_BRANCH = """
__kernel void shadow(__global float* out, __global const float* x, int n) {
    int i = get_global_id(0);
    float v = x[i];
    if (v > 0.5f) {
        float v = 2.0f;
        out[i] = v;
    }
    out[i] = out[i] + v;
}
"""

LOCAL_VSTORE = """
__kernel void stage4(__global float* out, __global const float* x, int n) {
    __local float tile[32];
    int lid = get_local_id(0);
    int i = get_global_id(0);
    vstore4(vload4(i, x), lid, tile);
    barrier(CLK_LOCAL_MEM_FENCE);
    out[i] = tile[lid * 4];
}
"""

NESTED_DATA_DEPENDENT = """
__kernel void nested(__global int* out, __global const int* bounds, int n) {
    int i = get_global_id(0);
    int acc = 0;
    for (int j = 0; j < n; j = j + 1) {
        for (int k = 0; k < bounds[i]; k = k + 1) {
            acc = acc + k;
        }
    }
    out[i] = acc;
}
"""

UNIFORM_LOOP = """
__kernel void window(__global int* out, __global const int* x, int n) {
    int i = get_global_id(0);
    int acc = 0;
    for (int j = 0; j < 3; j++) {
        acc = acc + x[(i * 5 + j * 3) % n];
    }
    out[i] = acc;
}
"""

OOB_WRITE = """
__kernel void oob(__global float* out, __global const float* x, int n) {
    int i = get_global_id(0);
    out[i + n] = x[i];
}
"""


def _compile(source, name):
    return compile_kernel(compile_opencl_source(source)[name])


def _saxpy_buffers(n=8):
    return (
        {
            "out": np.zeros(n, dtype=np.float32),
            "x": np.linspace(0.0, 1.0, n).astype(np.float32),
        },
        {"a": 3.0, "n": n},
    )


# -- eligibility ---------------------------------------------------------


def test_eligible_kernel_is_batch_supported():
    ck = _compile(ELIGIBLE, "saxpy")
    assert ck.batch_supported
    assert ck._batch_callable() is not None


@pytest.mark.parametrize(
    "source,name,reason_contains",
    [
        (BARRIER_IN_BRANCH, "fenced", "barrier under divergent control"),
        (NESTED_BRANCH, "nested_if", "nested divergent branch"),
        (OUTER_ASSIGN, "clamp_outer", "assignment in a branch"),
        # Generated code has one namespace: the inner v assigns the outer.
        (REDECLARE_IN_BRANCH, "shadow", "assignment in a branch"),
        (LOCAL_VSTORE, "stage4", "vector access to a local array"),
        # The nbody hand-tuned baseline stages particles with vstore4.
        (BASELINE_OPENCL, "nbody_forces", "vector access to a local array"),
        # (the clc frontend lowers the inner data-dependent for into a
        # while loop; either spelling is the same decline)
        (NESTED_DATA_DEPENDENT, "nested", "data-dependent"),
    ],
)
def test_ineligible_kernels_decline_with_reason(source, name, reason_contains):
    ck = _compile(source, name)
    assert not ck.batch_supported
    assert reason_contains in ck.batch_reason
    assert ck._batch_callable() is None
    # The standalone predicate agrees with the compiled artifact.
    supported, reason = batch_eligibility(ck.kernel)
    assert not supported and reason_contains in reason


# -- fallback semantics --------------------------------------------------


def test_batch_request_on_ineligible_kernel_falls_back_per_item():
    ck = _compile(OUTER_ASSIGN, "clamp_outer")
    n = 8
    x = np.linspace(0.0, 1.0, n).astype(np.float32)
    buffers = {"out": np.zeros(n, dtype=np.float32), "x": x}
    trace = ck.launch(buffers, {"n": n}, n, 8, tier="batch")
    assert trace.tier == "per-item"
    assert trace.declined == ck.batch_reason
    assert np.array_equal(buffers["out"], np.minimum(x, np.float32(0.5)))


def test_batch_runs_batched_and_matches_per_item():
    ck = _compile(ELIGIBLE, "saxpy")
    bufs_a, scalars = _saxpy_buffers()
    bufs_b = {k: v.copy() for k, v in bufs_a.items()}
    t_item = ck.launch(bufs_a, scalars, 8, 4, tier="per-item")
    t_batch = ck.launch(bufs_b, scalars, 8, 4, tier="batch")
    assert t_item.tier == "per-item"
    assert t_batch.tier == "batch"
    assert np.array_equal(bufs_a["out"], bufs_b["out"])
    assert t_item.op_cycles == t_batch.op_cycles


def _per_lane_sequences(trace):
    """Each site's accesses stably sorted by lane: every lane's access
    order at that site, independent of how the tier interleaved lanes."""
    out = {}
    for site, tr in trace.sites.items():
        lanes, indices = tr.arrays()
        order = np.argsort(lanes, kind="stable")
        out[site] = (lanes[order].tolist(), indices[order].tolist())
    return out


@pytest.mark.parametrize(
    "source,name,buffers,scalars",
    [
        (
            ELIGIBLE,
            "saxpy",
            lambda n: {
                "out": np.zeros(n, dtype=np.float32),
                "x": np.linspace(0.0, 1.0, n).astype(np.float32),
            },
            {"a": 3.0},
        ),
        (
            UNIFORM_LOOP,
            "window",
            lambda n: {
                "out": np.zeros(n, dtype=np.int32),
                "x": np.arange(n, dtype=np.int32) * 7,
            },
            {},
        ),
    ],
)
def test_per_item_and_batch_record_the_same_per_lane_accesses(
    source, name, buffers, scalars
):
    ck = _compile(source, name)
    assert ck.batch_supported
    n = 16
    scalars = dict(scalars, n=n)
    bufs_a, bufs_b = buffers(n), buffers(n)
    t_item = ck.launch(bufs_a, scalars, n, 4, tier="per-item")
    t_batch = ck.launch(bufs_b, scalars, n, 4, tier="batch")
    assert (t_item.tier, t_batch.tier) == ("per-item", "batch")
    assert np.array_equal(bufs_a["out"], bufs_b["out"])
    seq_item = _per_lane_sequences(t_item)
    assert seq_item == _per_lane_sequences(t_batch)
    # Every site saw every lane, in a shape the comparison can tell apart.
    assert all(len(lanes) >= n for lanes, _ in seq_item.values())


def _input(key):
    return lambda n: {
        "out": np.zeros(n, dtype=np.float32),
        key: (np.arange(n, dtype=np.float32) * 0.37) % 1.0,
    }


@pytest.mark.parametrize(
    "source,name,buffers",
    [
        (BARRIER_TILED, "tiled", _input("in")),
        (DIVERGENT, "branchy", _input("x")),
        (UNIFORM_BRANCH_BARRIER, "gated", _input("x")),
        (VECTOR_TOP_LEVEL, "swizzle", _input("x")),
    ],
    ids=["tiled", "branchy", "gated", "swizzle"],
)
def test_tiled_and_masked_kernels_match_per_item(
    source, name, buffers
):
    ck = _compile(source, name)
    assert ck.batch_supported, ck.batch_reason
    # Two work-groups of 8: local arrays must not leak between groups.
    n = 16
    bufs_a, bufs_b = buffers(n), buffers(n)
    t_item = ck.launch(bufs_a, {"n": n}, n, 8, tier="per-item")
    t_batch = ck.launch(bufs_b, {"n": n}, n, 8, tier="batch")
    assert (t_item.tier, t_batch.tier) == ("per-item", "batch")
    assert bufs_a["out"].tobytes() == bufs_b["out"].tobytes()
    assert t_item.op_cycles == t_batch.op_cycles
    assert t_item.barriers == t_batch.barriers
    assert _per_lane_sequences(t_item) == _per_lane_sequences(t_batch)


def test_masked_branch_runs_each_arm_on_its_lanes_only():
    ck = _compile(DIVERGENT, "branchy")
    n = 16
    bufs = _input("x")(n)
    trace = ck.launch(bufs, {"n": n}, n, 8, tier="batch")
    taken = bufs["x"] > 0.5
    want = np.where(taken, bufs["x"] * np.float32(2.0), np.float32(0.0))
    assert np.array_equal(bufs["out"], want)
    # Each arm's store site recorded exactly the lanes that took it.
    store_lanes = sorted(
        tuple(tr.arrays()[0].tolist())
        for tr in trace.sites.values()
        if tr.is_store
    )
    assert store_lanes == sorted(
        [tuple(np.nonzero(taken)[0]), tuple(np.nonzero(~taken)[0])]
    )


def test_barrier_count_matches_per_item_scheduler():
    ck = _compile(BARRIER_TILED, "tiled")
    n = 32
    bufs = _input("in")(n)
    trace = ck.launch(bufs, {"n": n}, n, 8, tier="batch")
    assert trace.tier == "batch"
    assert trace.barriers == 4  # one barrier x four work-groups


# -- sanitizer guards force the instrumented path ------------------------


def test_guard_overrides_batch_request():
    ck = _compile(ELIGIBLE, "saxpy")
    buffers, scalars = _saxpy_buffers()
    guard = LaunchGuard(SanitizerConfig(), "saxpy")
    trace = ck.launch(buffers, scalars, 8, 4, guard=guard, tier="batch")
    assert trace.tier == "sanitized"


def test_bounds_fault_fires_despite_batch_request():
    ck = _compile(OOB_WRITE, "oob")
    buffers, scalars = _saxpy_buffers()
    guard = LaunchGuard(SanitizerConfig(), "oob")
    with pytest.raises(BoundsFault):
        ck.launch(buffers, scalars, 8, 4, guard=guard, tier="batch")
    assert guard.trips.get("bounds")


def test_unguarded_oob_is_a_device_error_on_both_tiers():
    ck = _compile(OOB_WRITE, "oob")
    for tier in ("per-item", "batch"):
        buffers, scalars = _saxpy_buffers()
        with pytest.raises(DeviceError):
            ck.launch(buffers, scalars, 8, 4, tier=tier)


def test_vfmod_matches_math_fmod_lane_for_lane():
    inf, nan = math.inf, math.nan
    a = np.array([-1.5, 1.5, -0.0, 7.25, 1e300, nan, 3.0, nan])
    b = np.array([1.0, -1.0, 2.0, inf, 3e-7, 0.0, nan, nan])
    got = _vfmod(a, b)
    want = np.array([math.fmod(x, y) for x, y in zip(a, b)])
    assert got.tobytes() == want.tobytes()
    assert _vfmod(-1.5, 1.0) == math.fmod(-1.5, 1.0)


@pytest.mark.parametrize("a,b", [([1.0, 2.0], [1.0, 0.0]), ([math.inf], 2.0)])
def test_vfmod_raises_where_math_fmod_does(a, b):
    # Launches run under np.errstate(all="ignore"); so does this call.
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        _vfmod(np.array(a), b)


# -- tier resolution -----------------------------------------------------


def test_resolve_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(EXEC_TIER_ENV, "per-item")
    assert resolve_exec_tier("batch") == "batch"


def test_resolve_env_beats_auto(monkeypatch):
    monkeypatch.setenv(EXEC_TIER_ENV, "per-item")
    assert resolve_exec_tier(None) == "per-item"
    monkeypatch.delenv(EXEC_TIER_ENV)
    assert resolve_exec_tier(None) == "auto"


def test_resolve_unknown_tier_raises(monkeypatch):
    with pytest.raises(DeviceError):
        resolve_exec_tier("warp-speed")
    monkeypatch.setenv(EXEC_TIER_ENV, "bogus")
    with pytest.raises(DeviceError):
        resolve_exec_tier(None)


def test_env_var_drives_launch_tier(monkeypatch):
    ck = _compile(ELIGIBLE, "saxpy")
    buffers, scalars = _saxpy_buffers()
    monkeypatch.setenv(EXEC_TIER_ENV, "per-item")
    assert ck.launch(buffers, scalars, 8, 4).tier == "per-item"
    monkeypatch.setenv(EXEC_TIER_ENV, "batch")
    assert ck.launch(buffers, scalars, 8, 4).tier == "batch"
