"""Golden snapshots of the generated OpenCL C and simulator Python.

Every app's map kernel is compiled through the full pipeline and the
emitted OpenCL C compared byte-for-byte against a checked-in snapshot
under ``tests/golden/``. The same kernel's simulator sources — the
per-item, sanitized and batch Python the executor generates (or the
batch tier's decline reason) — are pinned in a ``.sim.txt`` snapshot
next to it; the suffix keeps the lint job from reading these bodies
as Python modules. Two axes:

- the **default** configuration on the GTX 580 for all nine apps, and
- **device-varied** memory plans (GTX 8800 and HD 5970) for the
  local-memory-tiling apps, where the plan's shape depends on the
  device's shared-memory size and bank count.

The snapshots exist to catch *unintentional* codegen drift — a change
that shows up here but was not meant to alter generated code is a bug.
Intentional changes re-bless with::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/backend/test_golden_kernels.py
"""

import os
import pathlib

import pytest

from repro.apps.registry import BENCHMARKS
from repro.backend.opencl_gen import emit_opencl
from repro.compiler.options import FIGURE8_CONFIGS
from repro.compiler.pipeline import compile_filter
from repro.opencl import get_device

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"

DEFAULT_DEVICE = "gtx580"

# Apps whose memory plans are device-shaped (local-memory staging):
# snapshot them on every device in the catalog. (On the current
# catalog the plans happen to coincide — bank-conflict padding has the
# same parity on 16 and 32 banks and the constant capacities are
# equal — but the snapshots pin that fact down.)
DEVICE_VARIED = ["nbody-single", "mosaic", "parboil-cp"]
OTHER_DEVICES = ["gtx8800", "hd5970"]

# Memory-plan variation along the Figure 8 configuration axis, where
# the generated code genuinely differs (global vs local staging vs
# constant, with and without vectorized accesses).
CONFIG_VARIED = [
    ("nbody-single", "Global"),
    ("nbody-single", "Local+NoConflicts+Vector"),
    ("parboil-cp", "Constant+Vector"),
    ("mosaic", "Local"),
]

CASES = (
    [(name, DEFAULT_DEVICE, None) for name in sorted(BENCHMARKS)]
    + [
        (name, device, None)
        for name in DEVICE_VARIED
        for device in OTHER_DEVICES
    ]
    + [(name, DEFAULT_DEVICE, config) for name, config in CONFIG_VARIED]
)


def _compile(name, device_name, config_name):
    bench = BENCHMARKS[name]
    checked = bench.checked()
    worker = checked.lookup_method(bench.main_class, bench.filter_method)
    return compile_filter(
        checked,
        worker,
        device=get_device(device_name),
        config=FIGURE8_CONFIGS[config_name] if config_name else None,
        bound_values={p.name: 4 for p in worker.params[:-1]},
    )


def _emit(name, device_name, config_name):
    compiled = _compile(name, device_name, config_name)
    return emit_opencl(compiled.plan.kernel, local_size_hint=128)


def _simulator_sources(name, device_name, config_name):
    """The three Python variants the executor generates for the kernel,
    as one text: per-item, sanitized, and batch (or why it declined)."""
    ck = _compile(name, device_name, config_name).compiled_kernel
    ck._sanitized_item()
    if ck._batch_callable() is not None:
        batch = ck.batch_source
    else:
        batch = "# declined: {}".format(ck.batch_reason)
    return "".join(
        "# --- {} ---\n{}\n".format(label, text)
        for label, text in (
            ("per-item", ck.source),
            ("sanitized", ck.sanitized_source),
            ("batch", batch),
        )
    )


def _stem(name, device, config):
    stem = "{}-{}".format(name, device)
    if config:
        stem += "-" + config.lower().replace("+", "-")
    return stem


def _check_snapshot(text, path, what):
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        return
    assert path.exists(), (
        "missing golden snapshot {} — run with REPRO_UPDATE_GOLDEN=1 "
        "to create it".format(path)
    )
    assert text == path.read_text(), (
        "{} drifted from {} — if the change is intentional, re-bless "
        "with REPRO_UPDATE_GOLDEN=1".format(what, path.name)
    )


@pytest.mark.parametrize("name,device,config", CASES)
def test_golden_opencl(name, device, config):
    _check_snapshot(
        _emit(name, device, config),
        GOLDEN_DIR / (_stem(name, device, config) + ".cl"),
        "generated OpenCL C for {} on {}".format(name, device),
    )


@pytest.mark.parametrize("name,device,config", CASES)
def test_golden_simulator_source(name, device, config):
    _check_snapshot(
        _simulator_sources(name, device, config),
        GOLDEN_DIR / (_stem(name, device, config) + ".sim.txt"),
        "generated simulator Python for {} on {}".format(name, device),
    )
