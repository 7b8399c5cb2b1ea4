"""End-to-end fleet chaos tests: transparent failover and
OOM-partitioned relaunch.

The acceptance bar for the fleet layer: a two-device run with one
device killed mid-stream must produce the *bit-exact* single-device
result with zero host fallbacks — every item is recovered inside the
fleet — and the Chrome trace must show the scheduling on per-device
tracks. A device memory ceiling must likewise be absorbed by splitting
the NDRange, never by dropping to the host interpreter.
"""

import pytest

from repro.apps.registry import BENCHMARKS
from repro.evaluation.harness import run_configuration
from repro.runtime.resilience import FleetPolicy, ResiliencePolicy
from repro.runtime.tracing import Tracer

SCALE = 0.2
STEPS = 4
MAX_ITEMS = 128


def run(devices=None, resilience=None, tracer=None, steps=STEPS,
        fleet_policy=None, bench="jg-series-single"):
    return run_configuration(
        BENCHMARKS[bench],
        "gtx580",
        scale=SCALE,
        steps=steps,
        max_sim_items=MAX_ITEMS,
        devices=devices,
        resilience=resilience,
        tracer=tracer,
        fleet_policy=fleet_policy,
    )


# -- transparent failover ----------------------------------------------------


@pytest.mark.parametrize("bench", ["jg-series-single", "mosaic"])
def test_killed_device_fails_over_bit_exact(bench):
    clean = run(bench=bench)
    policy = ResiliencePolicy.from_flags(kill_devices={"gtx580": 0})
    tracer = Tracer(wallclock=lambda: 0)
    chaos = run(
        bench=bench, devices=["gtx580", "hd5970"], resilience=policy,
        tracer=tracer,
    )

    # Bit-exact output, recovered entirely inside the fleet: every item
    # failed over to the surviving device, none fell back to the host.
    assert chaos.checksum == clean.checksum
    assert chaos.faults["recovery.failovers"] > 0
    assert chaos.faults["recovery.fallbacks"] == 0
    assert chaos.metrics["recovery.failovers.from.gtx580"] == \
        chaos.faults["recovery.failovers"]
    assert chaos.offloaded == clean.offloaded

    # The dead device was demoted by its breaker; the survivor did all
    # the real work.
    assert chaos.fleet["gtx580"]["state"] == "demoted"
    assert chaos.fleet["gtx580"]["launches"] == 0
    assert chaos.fleet["gtx580"]["faults"] > 0
    assert chaos.fleet["hd5970"]["state"] == "healthy"
    assert chaos.fleet["hd5970"]["launches"] > 0

    # The Chrome trace shows both device tracks plus the main track.
    events = tracer.chrome_events()
    thread_names = {
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert "device:gtx580" in thread_names
    assert "device:hd5970" in thread_names
    tids = {e["tid"] for e in events if e["ph"] != "M"}
    assert len(tids) >= 3  # main simulated-time track + 2 device tracks
    failover_instants = [
        e for e in events if e["ph"] == "i" and e["name"] == "failover"
    ]
    assert failover_instants
    assert all(
        e["args"]["device"] == "gtx580" and e["args"]["to"] == "hd5970"
        for e in failover_instants
    )


def test_single_device_trace_has_no_device_tracks():
    tracer = Tracer(wallclock=lambda: 0)
    run(tracer=tracer)
    events = tracer.chrome_events()
    assert {e["tid"] for e in events} == {1}
    thread_names = [
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    assert thread_names == ["simulated-time"]


def test_fleet_run_without_faults_matches_single_device_checksum():
    clean = run()
    fleet = run(devices=["gtx580", "hd5970"])
    assert fleet.checksum == clean.checksum
    assert fleet.faults == {}
    assert fleet.target == "fleet:gtx580+hd5970"
    # Health placement explored both devices.
    total = sum(rec["launches"] for rec in fleet.fleet.values())
    assert total > 0
    assert all(rec["launches"] > 0 for rec in fleet.fleet.values())


def test_fleet_runs_are_deterministic():
    policy = ResiliencePolicy.from_flags(kill_devices={"gtx580": 1})
    a = run(devices=["gtx580", "hd5970"], resilience=policy)
    policy = ResiliencePolicy.from_flags(kill_devices={"gtx580": 1})
    b = run(devices=["gtx580", "hd5970"], resilience=policy)
    assert a.checksum == b.checksum
    assert a.total_ns == b.total_ns
    assert a.faults == b.faults
    assert a.fleet == b.fleet


def test_round_robin_policy_spreads_items():
    fleet = run(
        devices=["gtx580", "hd5970"],
        fleet_policy=FleetPolicy(policy="round-robin"),
        steps=6,
    )
    clean = run(steps=6)
    assert fleet.checksum == clean.checksum
    launches = {k: rec["launches"] for k, rec in fleet.fleet.items()}
    assert launches["gtx580"] > 0 and launches["hd5970"] > 0


# -- OOM-partitioned relaunch ------------------------------------------------


def test_oom_is_absorbed_by_partitioned_relaunch():
    clean = run(steps=2)
    policy = ResiliencePolicy.from_flags(oom_bytes=256)
    squeezed = run(steps=2, resilience=policy)

    assert squeezed.checksum == clean.checksum
    assert squeezed.faults["recovery.partitioned_launches"] > 0
    # The OOM never reached the host-fallback tier.
    assert squeezed.faults["recovery.fallbacks"] == 0
    assert squeezed.faults.get("demoted_tasks", []) == []
    assert squeezed.metrics.get("recovery.partitioned_launches") == \
        squeezed.faults["recovery.partitioned_launches"]
    # Partitioning costs extra launches, which the run accounts for.
    assert squeezed.total_ns >= clean.total_ns


def test_tighter_ceiling_means_more_chunks():
    loose_policy = ResiliencePolicy.from_flags(oom_bytes=256)
    tight_policy = ResiliencePolicy.from_flags(oom_bytes=64)
    loose = run(steps=2, resilience=loose_policy)
    tight = run(steps=2, resilience=tight_policy)
    assert tight.checksum == loose.checksum
    assert (
        tight.faults["recovery.partitioned_launches"]
        > loose.faults["recovery.partitioned_launches"]
    )


def test_partitioned_relaunch_emits_trace_instants():
    policy = ResiliencePolicy.from_flags(oom_bytes=256)
    tracer = Tracer(wallclock=lambda: 0)
    run(steps=2, resilience=policy, tracer=tracer)
    instants = [
        s for s in tracer.events if s.name == "partitioned_relaunch"
    ]
    assert instants
    for span in instants:
        assert span.cat == "recovery"
        assert span.args["chunks"] >= 2


def test_oom_in_a_fleet_partitions_on_the_placed_device():
    clean = run(steps=2)
    policy = ResiliencePolicy.from_flags(oom_bytes=256)
    squeezed = run(
        steps=2, devices=["gtx580", "hd5970"], resilience=policy
    )
    assert squeezed.checksum == clean.checksum
    assert squeezed.faults["recovery.partitioned_launches"] > 0
    assert squeezed.faults["recovery.fallbacks"] == 0


def test_oom_never_partitions_a_group_shaped_kernel():
    # parboil-cp's default kernel tiles through local memory behind
    # barriers; it runs on the batch tier, but offset chunk launches
    # would change its work-group shapes. The OOM must demote the task
    # instead of splitting the NDRange.
    policy = ResiliencePolicy.from_flags(oom_bytes=4000)
    squeezed = run_configuration(
        BENCHMARKS["parboil-cp"],
        "gtx580",
        scale=0.1,
        steps=1,
        resilience=policy,
    )
    assert squeezed.faults["recovery.partitioned_launches"] == 0
    assert squeezed.faults["demoted_tasks"] == ["CP.potentials"]
