"""Differential property tests for the execution tiers.

The batch tier (vectorized whole-NDRange execution) must be
*bit-identical* to the per-item tier — and both must agree with the
host interpreter — on every app. Two layers of evidence:

- **End to end**: each Table 3 benchmark runs under ``per-item`` and
  ``batch`` with the same config; checksums, total simulated time, and
  the full stage breakdown must match exactly (timing equality means
  the tiers produced identical instruction traces, segment counts, and
  memory-access sites — not just identical output buffers). The
  bytecode target supplies the interpreter's checksum.
- **Kernel level, randomized inputs**: every launch of a run is
  captured and replayed under both tiers on seeded-random buffer
  contents; every output buffer must be NaN-safe bit-equal
  (:func:`repro.runtime.sanitizer.values_equal`) and the simulated
  op-cycle counts identical.

Both tests run at two configs: the paper's default, where the memory
optimizer stages reused arrays into local memory behind barriers and a
guarded ``if`` (the tiled apps must then run batch with no per-item
launch), and with local-memory staging compiled off
(``use_local=False``), where every app's map kernel is a flat
grid-stride loop.
"""

import numpy as np
import pytest

from repro.apps.registry import BENCHMARKS
from repro.compiler.options import OptimizationConfig
from repro.evaluation.harness import run_configuration
from repro.evaluation.perfbench import capture_launches, nolocal_config
from repro.runtime.sanitizer import values_equal

APPS = sorted(BENCHMARKS)

SCALE = 0.1
MAX_ITEMS = 128

# Every app at both configs; the default-config cases carry a suffix.
CASES = [pytest.param(name, nolocal_config, id=name) for name in APPS] + [
    pytest.param(name, OptimizationConfig, id=name + "-default")
    for name in APPS
]

# Apps whose default-config kernels are tiled through local memory.
TILED = {"nbody-single", "nbody-double", "mosaic", "parboil-cp", "parboil-mriq"}


def _run(name, tier, config):
    return run_configuration(
        BENCHMARKS[name],
        "gtx580",
        scale=SCALE,
        steps=1,
        config=config,
        max_sim_items=MAX_ITEMS,
        exec_tier=tier,
    )


@pytest.mark.parametrize("name,make_config", CASES)
def test_end_to_end_tiers_and_interpreter_agree(name, make_config):
    config = make_config()
    per_item = _run(name, "per-item", config)
    batch = _run(name, "batch", config)

    assert values_equal(per_item.checksum, batch.checksum)
    # Timing equality is the strong check: identical simulated time
    # means identical instruction segments and memory-access traces.
    assert per_item.total_ns == batch.total_ns
    assert per_item.stages == batch.stages

    # The tier request was honored, not silently ignored.
    assert per_item.executor["executor.launches"] == {
        "per-item": sum(per_item.executor["executor.launches"].values())
    }
    assert batch.executor["executor.launches"].get("batch", 0) > 0
    if make_config is OptimizationConfig and name in TILED:
        assert "per-item" not in batch.executor["executor.launches"]

    host = run_configuration(
        BENCHMARKS[name], "bytecode", scale=SCALE, steps=1
    )
    assert values_equal(per_item.checksum, host.checksum)


def _randomize(buffers, rng):
    """Seeded-random float contents (positive, away from zero, so no
    tier hits a math-domain fault); integer buffers keep their captured
    values — they may index memory."""
    out = {}
    for name, buf in buffers.items():
        if buf.dtype.kind == "f":
            out[name] = (rng.rand(buf.size) + 0.5).astype(buf.dtype)
        else:
            out[name] = buf.copy()
    return out


@pytest.mark.parametrize("name,make_config", CASES)
def test_kernel_level_bit_equal_on_random_inputs(name, make_config):
    config = make_config()
    with capture_launches() as captured:
        run_configuration(
            BENCHMARKS[name],
            "gtx580",
            scale=SCALE,
            steps=1,
            config=config,
            max_sim_items=MAX_ITEMS,
            exec_tier="per-item",
        )
    rng = np.random.RandomState(abs(hash(name)) % 2**31)
    compared = 0
    for kname, rec in sorted(captured.items()):
        compiled = rec["kernel"]
        if not compiled.batch_supported or compiled._batch_callable() is None:
            continue
        for bufs, scalars, gsz, lsz in rec["launches"][:2]:
            seed_bufs = _randomize(bufs, rng)
            item_bufs = {n: b.copy() for n, b in seed_bufs.items()}
            batch_bufs = {n: b.copy() for n, b in seed_bufs.items()}
            item_trace = compiled.launch(
                item_bufs, dict(scalars), gsz, lsz, tier="per-item"
            )
            batch_trace = compiled.launch(
                batch_bufs, dict(scalars), gsz, lsz, tier="batch"
            )
            assert item_trace.tier == "per-item"
            assert batch_trace.tier == "batch"
            assert item_trace.op_cycles == batch_trace.op_cycles, kname
            assert item_trace.barriers == batch_trace.barriers, kname
            for pname in item_bufs:
                assert values_equal(item_bufs[pname], batch_bufs[pname]), (
                    "buffer {!r} of kernel {} diverged between tiers".format(
                        pname, kname
                    )
                )
            compared += 1
    assert compared > 0, "no batch-eligible kernel captured for " + name
