"""Wall-clock spans around calls into each layer's public functions.

The traced run wraps, from the benchmark's side only, the functions
each layer exposes. The program itself is not changed:

==========  ================================================
layer       wrapped
==========  ================================================
frontend    ``parse_program``, ``check_program``
compiler    ``pipeline.compile_filter`` (what ``Offloader`` and
            ``FleetOffloader`` call per filter and device)
codegen     ``kernel_cache.cached_compile_kernel``
backend     ``opencl_gen.emit_opencl``
executor    ``CompiledKernel.launch``, split by the tier that ran
timing      ``timing.time_launch``, with the copies that
            ``backend.glue`` and ``opencl.api`` import
marshal     ``runtime.marshal.serialize`` / ``deserialize``
glue        ``CompiledFilter.prepare`` / ``run_prepared``
runtime     the rest of each op (host interpreter, task graph,
            fleet queues, profiler)
==========  ================================================

Spans are kept in memory. Each has a name, start, end, parent and op
id. A span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

LAYER_METRICS = [
    ("frontend.parse_s", "s", "lower"),
    ("frontend.check_s", "s", "lower"),
    ("frontend.tokens_per_s", "1/s", "higher"),
    ("compiler.compile_filter_s", "s", "lower"),
    ("compiler.filters", "count", "higher"),
    ("compiler.rejected", "count", "lower"),
    ("codegen.compile_s", "s", "lower"),
    ("codegen.hits", "count", "higher"),
    ("codegen.misses", "count", "lower"),
    ("backend.emit_s", "s", "lower"),
    ("backend.emitted_bytes", "bytes", "lower"),
    ("executor.per_item_s", "s", "lower"),
    ("executor.batch_s", "s", "lower"),
    ("executor.launches.per_item", "count", "lower"),
    ("executor.launches.batch", "count", "higher"),
    ("executor.trace_accesses", "count", "lower"),
    ("timing.time_launch_s", "s", "lower"),
    ("timing.calls", "count", "lower"),
    ("marshal.s", "s", "lower"),
    ("marshal.calls", "count", "lower"),
    ("marshal.bytes", "bytes", "lower"),
    ("glue.self_s", "s", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

# Span name -> the self-time metric it adds to.
_SELF_METRIC = {
    "frontend.parse": "frontend.parse_s",
    "frontend.check": "frontend.check_s",
    "compiler.compile_filter": "compiler.compile_filter_s",
    "codegen.cached_compile_kernel": "codegen.compile_s",
    "codegen.lookup": "codegen.compile_s",
    "backend.emit_opencl": "backend.emit_s",
    "executor.per_item": "executor.per_item_s",
    "executor.batch": "executor.batch_s",
    "executor.launch": "executor.per_item_s",  # a launch that raised
    "timing.time_launch": "timing.time_launch_s",
    "marshal.serialize": "marshal.s",
    "marshal.deserialize": "marshal.s",
    "glue.prepare": "glue.self_s",
    "glue.run_prepared": "glue.self_s",
    "op": "runtime.self_s",
}


def _nbytes(data):
    if hasattr(data, "nbytes"):
        return int(data.nbytes)
    if isinstance(data, (bytes, bytearray, memoryview)):
        return len(data)
    return 0


class Tracer:
    """In-memory span recorder plus the counters kept beside it."""

    def __init__(self, token_counts):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id]
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._token_counts = token_counts

    def op_span(self, op_id, fn):
        """Run ``fn`` as op ``op_id`` inside a root ``op`` span."""
        self.op = op_id
        return self._call("op", None, fn, (), {})

    def _call(self, name, after, fn, args, kwargs):
        index = len(self.spans)
        span = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        if after is not None:
            renamed = after(self, result, args, kwargs)
            if renamed is not None:
                span[0] = renamed
        return result

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, after, fn, args, kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per span, its duration minus its direct children's (ns)."""
        child = [0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [
            (span[0], span[2] - span[1] - child[i])
            for i, span in enumerate(self.spans)
        ]

    def op_seconds(self):
        """Measured wall seconds inside op spans."""
        return sum(
            (end - start) / 1e9
            for name, start, end, _parent, _op in self.spans
            if name == "op"
        )

    def metrics(self, factor):
        """Per-layer self times and counters. Times are measured seconds
        multiplied by ``factor``, the traced pass's conversion to seconds
        at the reference speed."""
        out = {name: 0.0 for name, _unit, _better in LAYER_METRICS}
        for name, self_ns in self.self_times():
            out[_SELF_METRIC[name]] += self_ns / 1e9 * factor
        out.update(
            {
                "compiler.filters": self.counts["compiler.compile_filter"],
                "compiler.rejected": self.counts["compiler.rejected"],
                "codegen.hits": self.counts["codegen.hits"],
                "codegen.misses": self.counts["codegen.misses"],
                "backend.emitted_bytes": self.counts["backend.emitted_bytes"],
                "executor.launches.per_item": self.counts["executor.per_item"],
                "executor.launches.batch": self.counts["executor.batch"],
                "executor.trace_accesses": self.counts["executor.trace_accesses"],
                "timing.calls": self.counts["timing.time_launch"],
                "marshal.calls": self.counts["marshal.serialize"]
                + self.counts["marshal.deserialize"],
                "marshal.bytes": self.counts["marshal.bytes"],
            }
        )
        if out["frontend.parse_s"] > 0:
            out["frontend.tokens_per_s"] = (
                self.counts["frontend.tokens"] / out["frontend.parse_s"]
            )
        return out

    def write_chrome(self, path):
        """Write the spans as Chrome ``traceEvents`` (wall-clock
        microseconds), readable by ``repro trace FILE`` and
        ``repro trace A B``."""
        t0 = self.spans[0][1] if self.spans else 0
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - t0) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": parent, "op": op, "wall_ns": end - start},
            }
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        os.replace(tmp, path)


# -- after-call hooks: counters, and the executor's tier split ------------


def _count(name):
    def after(tracer, _result, _args, _kwargs):
        tracer.counts[name] += 1

    return after


def _after_parse(tracer, _result, args, kwargs):
    source = args[0] if args else kwargs["source"]
    tracer.counts["frontend.tokens"] += tracer._token_counts[source]


def _after_launch(tracer, trace, _args, _kwargs):
    tier = "executor.batch" if trace.tier == "batch" else "executor.per_item"
    tracer.counts[tier] += 1
    tracer.counts["executor.trace_accesses"] += sum(
        len(site.lanes) + sum(len(lanes) for lanes, _idx in site.blocks)
        for site in trace.sites.values()
    )
    return tier


def _after_lookup(tracer, result, _args, _kwargs):
    _entry, kind = result
    tracer.counts["codegen.misses" if kind == "miss" else "codegen.hits"] += 1


def _after_emit(tracer, text, _args, _kwargs):
    tracer.counts["backend.emitted_bytes"] += len(text.encode())


def _after_serialize(tracer, result, _args, _kwargs):
    tracer.counts["marshal.serialize"] += 1
    tracer.counts["marshal.bytes"] += _nbytes(result[0])


def _after_deserialize(tracer, _result, args, kwargs):
    tracer.counts["marshal.deserialize"] += 1
    tracer.counts["marshal.bytes"] += _nbytes(args[0] if args else kwargs["data"])


def _compile_filter(tracer, fn):
    from repro.errors import KernelRejected

    wrapped = tracer.wrap("compiler.compile_filter", fn, _count("compiler.compile_filter"))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return wrapped(*args, **kwargs)
        except KernelRejected:
            tracer.counts["compiler.compile_filter"] += 1
            tracer.counts["compiler.rejected"] += 1
            raise

    return wrapper


def install(tracer):
    """Wrap every layer entry point; each module binding of a function
    gets the same wrapper."""
    from repro import frontend
    from repro.apps import base
    from repro.backend import glue, opencl_gen
    from repro.compiler import pipeline
    from repro.frontend import parser, typecheck
    from repro.opencl import api, executor, kernel_cache, timing
    from repro.runtime import marshal

    def patch(bindings, wrapper):
        for owner, attr in bindings:
            setattr(owner, attr, wrapper)

    patch(
        [(parser, "parse_program"), (frontend, "parse_program"), (base, "parse_program")],
        tracer.wrap("frontend.parse", parser.parse_program, _after_parse),
    )
    patch(
        [(typecheck, "check_program"), (frontend, "check_program"), (base, "check_program")],
        tracer.wrap("frontend.check", typecheck.check_program),
    )
    patch([(pipeline, "compile_filter")], _compile_filter(tracer, pipeline.compile_filter))
    patch(
        [(kernel_cache, "cached_compile_kernel"), (pipeline, "cached_compile_kernel")],
        tracer.wrap("codegen.cached_compile_kernel", kernel_cache.cached_compile_kernel),
    )
    patch(
        [(kernel_cache.KernelCache, "lookup")],
        tracer.wrap("codegen.lookup", kernel_cache.KernelCache.lookup, _after_lookup),
    )
    patch(
        [(opencl_gen, "emit_opencl")],
        tracer.wrap("backend.emit_opencl", opencl_gen.emit_opencl, _after_emit),
    )
    patch(
        [(executor.CompiledKernel, "launch")],
        tracer.wrap("executor.launch", executor.CompiledKernel.launch, _after_launch),
    )
    patch(
        [(timing, "time_launch"), (glue, "time_launch"), (api, "time_launch")],
        tracer.wrap("timing.time_launch", timing.time_launch, _count("timing.time_launch")),
    )
    patch(
        [(marshal, "serialize")],
        tracer.wrap("marshal.serialize", marshal.serialize, _after_serialize),
    )
    patch(
        [(marshal, "deserialize")],
        tracer.wrap("marshal.deserialize", marshal.deserialize, _after_deserialize),
    )
    patch(
        [(glue.CompiledFilter, "prepare")],
        tracer.wrap("glue.prepare", glue.CompiledFilter.prepare),
    )
    patch(
        [(glue.CompiledFilter, "run_prepared")],
        tracer.wrap("glue.run_prepared", glue.CompiledFilter.run_prepared),
    )
