"""The benchmark's three workloads: their ops, seeded inputs and oracles.

An *op* is the unit the benchmark times. It has four parts:

- ``reset()`` pins cold state before the op. The global kernel cache is
  emptied, no disk kernel store is used, and the program is parsed
  again. Each op then pays what a fresh ``repro run`` pays.
- ``run()`` is the timed call into the program.
- ``check(result)`` is the oracle. It returns an error string or None,
  and it never runs the OpenCL compiler under test.
- ``fingerprint(result)`` is the simulated result as text. Two
  repetitions of an op in one invocation must give the same text.

Program runs are checked against the host interpreter's checksum (the
``bytecode`` target). That checksum is cached on disk per (program,
scale, stream depth, input digest, source digest). The interpreter
costs about a minute at the paper's scale, so it runs in child
processes (``oracle.py``) only when the cache misses. Compiles are
checked by re-parsing the emitted OpenCL C with the repo's own OpenCL C
frontend, and byte for byte against ``tests/golden`` where a snapshot
exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import frontend
from repro.apps.base import freeze
from repro.apps.registry import ALL_BENCHMARKS, BENCHMARKS
from repro.backend import opencl_gen
from repro.compiler.options import FIGURE8_CONFIGS, OptimizationConfig
from repro.compiler.pipeline import Offloader
from repro.evaluation.harness import run_configuration
from repro.opencl import get_device, kernel_cache
from repro.opencl.clc import compile_opencl_source
from repro.runtime.engine import Engine
from repro.runtime.profiler import ExecutionProfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")
ORACLE_DIR = os.path.join(OUT_DIR, "oracle")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")

# ``repro run <app>`` at its defaults: one GPU, scale 0.3, the default
# OptimizationConfig (local tiling on) and the app's own stream depth.
TARGET = "gtx580"
PAPER_SCALE = 0.3
PAPER_PROGRAMS = list(BENCHMARKS) + ["pipeline3"]

# The batch-tier programs on a two-device concurrent fleet. Scale 0.04
# puts every input at its app's minimum size, so each of the 24 stream
# items is a small launch and the fixed per-launch costs dominate.
FLEET_PROGRAMS = [
    "parboil-rpes",
    "jg-crypt",
    "jg-series-single",
    "jg-series-double",
    "pipeline3",
]
FLEET_DEVICES = ["gtx580", "hd5970"]
FLEET_SCALE = 0.04
FLEET_STEPS = 24

ORACLE_WORKERS = 2

# Every program x every GPU x the eight Figure 8 configs plus the default.
SWEEP_DEVICES = ["gtx8800", "gtx580", "hd5970"]
SWEEP_CONFIGS = [("default", OptimizationConfig())] + list(
    FIGURE8_CONFIGS.items()
)
# The local-size hint `repro compile` and the golden snapshots use.
LOCAL_SIZE_HINT = 128


def seeded_inputs(bench, scale, seed):
    """The app's ``make_input(scale)`` with the rows of its first data
    array permuted by ``seed``. Scalars and later arrays (keys, k-space
    tables) are left alone, so every app's value constraints hold."""
    inputs = list(bench.make_input(scale=scale))
    for i, value in enumerate(inputs):
        if isinstance(value, np.ndarray):
            # NumPy seeds must be non-negative; this keeps any int usable.
            rng = np.random.default_rng(
                [seed % 2**64, zlib.crc32(bench.name.encode())]
            )
            inputs[i] = freeze(value[rng.permutation(len(value))])
            break
    return inputs


def input_digest(inputs):
    h = hashlib.sha256()
    for value in inputs:
        if isinstance(value, np.ndarray):
            h.update("{}{}".format(value.dtype.str, value.shape).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
        h.update(b";")
    return h.hexdigest()


def seeded_bench(name, scale, seed):
    """The registered benchmark with ``make_input`` replaced by the
    seeded inputs: the program sees only generated inputs, through the
    unchanged ``run_configuration``. Returns ``(bench, digest)``."""
    bench = ALL_BENCHMARKS[name]
    inputs = seeded_inputs(bench, scale, seed)

    def make_input(scale=scale, _expected=scale, _inputs=tuple(inputs)):
        if scale != _expected:
            raise ValueError(
                "seeded inputs were made for scale {}, not {}".format(
                    _expected, scale
                )
            )
        return list(_inputs)

    seeded = dataclasses.replace(bench, make_input=make_input, _checked=None)
    return seeded, input_digest(inputs)


# -- oracle cache --------------------------------------------------------


def _oracle_path(name, scale, steps, digest):
    bench = ALL_BENCHMARKS[name]
    source = hashlib.sha256(bench.lime_source.encode()).hexdigest()
    key = json.dumps([name, scale, steps, digest, source])
    return os.path.join(
        ORACLE_DIR, hashlib.sha256(key.encode()).hexdigest() + ".json"
    )


def load_oracles(requests, seed):
    """Interpreter checksums for ``requests`` (dicts with ``program``,
    ``scale``, ``steps`` and ``digest``), from the cache or, for the
    misses, from ``oracle.py`` child processes."""
    found = {}
    missing = []
    for req in requests:
        path = _oracle_path(req["program"], req["scale"], req["steps"], req["digest"])
        try:
            with open(path) as fh:
                found[req["program"]] = json.load(fh)["checksum"]
        except FileNotFoundError:
            missing.append(dict(req, seed=seed))
    if missing:
        # One child per program, two at a time: set-up is not measured
        # while they run, and the machine has two cores.
        with ThreadPoolExecutor(max_workers=ORACLE_WORKERS) as pool:
            checksums = list(pool.map(_interpret, missing))
        os.makedirs(ORACLE_DIR, exist_ok=True)
        for req, checksum in zip(missing, checksums):
            path = _oracle_path(req["program"], req["scale"], req["steps"], req["digest"])
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump({"program": req["program"], "checksum": checksum}, fh)
            os.replace(tmp, path)
            found[req["program"]] = checksum
    return found


def _interpret(request):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "oracle.py"), json.dumps(request)],
        stdout=subprocess.PIPE,
        check=True,
        timeout=170,
    )
    return json.loads(proc.stdout.decode().splitlines()[-1])


def _cold():
    kernel_cache.reset_global_cache()
    kernel_cache.configure_disk_store(None)


# -- program runs (paper-default, stream-fleet) -------------------------


class ProgramOp:
    """One ``repro run``-equivalent program run."""

    def __init__(self, bench, scale, steps, devices, oracle):
        self.bench = bench
        self.program = bench.name
        self.key = bench.name
        self.scale = scale
        self.steps = steps
        self.devices = devices
        self.oracle = oracle

    def reset(self):
        _cold()
        self.bench._checked = None

    def run(self):
        if self.devices:
            return run_configuration(
                self.bench,
                TARGET,
                scale=self.scale,
                steps=self.steps,
                devices=self.devices,
                fleet_policy="health",
                fleet_schedule="concurrent",
            )
        return run_configuration(
            self.bench, TARGET, scale=self.scale, steps=self.steps
        )

    def check(self, result):
        if result.checksum == self.oracle:
            return None
        return "checksum {!r} != interpreter checksum {!r}".format(
            result.checksum, self.oracle
        )

    def fingerprint(self, result):
        return json.dumps(
            [
                repr(result.checksum),
                repr(result.total_ns),
                repr(result.makespan_ns),
                sorted((k, repr(v)) for k, v in result.stages.items()),
            ]
        )


def _program_ops(names, scale, steps, devices, seed):
    benches = {}
    requests = []
    for name in names:
        bench, digest = seeded_bench(name, scale, seed)
        depth = steps if steps is not None else bench.steps
        benches[name] = bench
        requests.append(
            {"program": name, "scale": scale, "steps": depth, "digest": digest}
        )
    oracles = load_oracles(requests, seed)
    return [
        ProgramOp(benches[name], scale, steps, devices, oracles[name])
        for name in names
    ]


class PaperDefault:
    name = "paper-default"

    def prepare(self, seed):
        return _program_ops(PAPER_PROGRAMS, PAPER_SCALE, None, None, seed)


class StreamFleet:
    name = "stream-fleet"

    def prepare(self, seed):
        return _program_ops(
            FLEET_PROGRAMS, FLEET_SCALE, FLEET_STEPS, FLEET_DEVICES, seed
        )


# -- compiles (compile-sweep) -------------------------------------------


class _FilterRecorder:
    """An offloader that records the filters a run offers, with their
    bound values, and offloads none of them."""

    def __init__(self):
        self.offered = []

    def compile_filter(self, checked, worker, profile, bound_values=None):
        cls, method = worker.qualified_name.split(".", 1)
        self.offered.append((cls, method, bound_values))
        return None


def offered_filters(bench):
    """The filters a real run of ``bench`` offers for offload and the
    bound values it passes (``task Cls.m(bound...)``). A zero-depth
    stream builds the whole task graph but runs no item."""
    recorder = _FilterRecorder()
    engine = Engine(bench.checked(), offloader=recorder)
    engine.run_static(bench.main_class, bench.run_method, bench.make_input(PAPER_SCALE) + [0])
    return recorder.offered


def _golden_name(program, device, config_name):
    stem = "{}-{}".format(program, device)
    if config_name != "default":
        stem += "-" + config_name.lower().replace("+", "-")
    return stem + ".cl"


def _kernels(compiled):
    if compiled.plan is not None:
        yield compiled.plan.kernel
    if compiled.reduce_kernel is not None:
        yield compiled.reduce_kernel.kernel


class CompileOp:
    """One program taken from Lime source to emitted OpenCL C for one
    device and one config: parse, typecheck, ``Offloader.compile_filter``
    for every filter a run offers, and ``emit_opencl``."""

    def __init__(self, bench, device, config_name, config, filters, golden, verified):
        self.bench = bench
        self.program = bench.name
        self.key = "{}/{}/{}".format(bench.name, device, config_name)
        self.device = device
        self.config = config
        self.filters = filters
        self.golden = golden
        self._verified = verified
        self._designated = "{}.{}".format(bench.main_class, bench.filter_method)

    def reset(self):
        _cold()

    def run(self):
        checked = frontend.check_program(frontend.parse_program(self.bench.lime_source))
        offloader = Offloader(device=get_device(self.device), config=self.config)
        profile = ExecutionProfile()
        emitted = []
        for cls, method, bound in self.filters:
            worker = checked.lookup_method(cls, method)
            compiled = offloader.compile_filter(
                checked, worker, profile, bound_values=bound
            )
            if compiled is None:
                continue
            emitted.append(
                (
                    worker.qualified_name,
                    [
                        opencl_gen.emit_opencl(k, local_size_hint=LOCAL_SIZE_HINT)
                        for k in _kernels(compiled)
                    ],
                )
            )
        return emitted, sorted(offloader.rejections)

    def check(self, result):
        emitted, _rejections = result
        if not emitted:
            return "no filter compiled"
        for qualified_name, texts in emitted:
            for text in texts:
                error = self._reparse(text)
                if error is not None:
                    return "{}: emitted C does not re-parse: {}".format(
                        qualified_name, error
                    )
            if (
                qualified_name == self._designated
                and self.golden is not None
                and texts[0] != self.golden
            ):
                return "{}: emitted C differs from its golden snapshot".format(
                    qualified_name
                )
        return None

    def _reparse(self, text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest not in self._verified:
            try:
                compile_opencl_source(text)
                self._verified[digest] = None
            except Exception as err:  # any parse/translate failure is a verdict
                self._verified[digest] = "{}: {}".format(type(err).__name__, err)
        return self._verified[digest]

    def fingerprint(self, result):
        emitted, rejections = result
        return json.dumps(
            [
                [name, [hashlib.sha256(t.encode()).hexdigest() for t in texts]]
                for name, texts in emitted
            ]
            + [rejections]
        )


class CompileSweep:
    name = "compile-sweep"

    def prepare(self, seed):
        if not os.path.isdir(GOLDEN_DIR):
            raise FileNotFoundError("no golden snapshots at " + GOLDEN_DIR)
        verified = {}
        ops = []
        for name in PAPER_PROGRAMS:
            bench, _digest = seeded_bench(name, PAPER_SCALE, seed)
            filters = offered_filters(bench)
            for device in SWEEP_DEVICES:
                for config_name, config in SWEEP_CONFIGS:
                    golden = None
                    path = os.path.join(
                        GOLDEN_DIR, _golden_name(name, device, config_name)
                    )
                    if os.path.exists(path):
                        with open(path) as fh:
                            golden = fh.read()
                    ops.append(
                        CompileOp(
                            bench, device, config_name, config, filters, golden, verified
                        )
                    )
        # The seed draws the op order; every op starts cold either way.
        random.Random(seed).shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (PaperDefault, CompileSweep, StreamFleet)}
