"""Wall-clock benchmark of the Lime-to-OpenCL reproduction.

Usage (from the repository root)::

    python3 wallbench/run.py --workload paper-default --seed 1 --seconds 15 --trace 0

Workloads (see README.md for why each was chosen): ``paper-default``,
``compile-sweep`` and ``stream-fleet``. Every op starts from cold state
and is checked against an oracle. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics. ``--trace 1``
adds one traced pass and reports per-layer wall time instead, and
writes the spans to ``wallbench/.out/trace-<workload>.json`` in Chrome
``traceEvents`` form for ``repro trace``.

The benchmark imports the program from ``src/`` next to this directory
and exits with status 2 when it is not there.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Environment knobs that would change what a `repro run` at defaults does.
PINNED_ENV = (
    "REPRO_EXEC_TIER",
    "REPRO_FUSE",
    "REPRO_MAX_SIM_ITEMS",
    "REPRO_KERNEL_CACHE_DIR",
)
# Set-up runs this many times; setup_s reports the median, so a cold
# oracle build in the first round does not swing it.
SETUP_ROUNDS = 3
# A tail percentile needs this many ops beyond it.
TAIL_BEYOND = 10
# Every run times at least this many passes, so that every op is
# repeated and its simulated result compared.
MIN_PASSES = 2
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(latencies):
    """``(value, percentile, beyond)``: the highest percentile with at
    least TAIL_BEYOND ops beyond it, or the slowest op when there are
    too few ops for that."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0, 0
    return ordered[rank - 1], 100.0 * rank / len(ordered), TAIL_BEYOND


class Outcome:
    """Every op execution of one run, in order."""

    def __init__(self):
        self.passes = []  # per pass: list of (op, seconds)
        self.attempted = 0
        self.failed = 0
        self.first = {}  # op key -> fingerprint of its first repetition

    def record(self, op, result, error):
        self.attempted += 1
        if error is None:
            fingerprint = op.fingerprint(result)
            first = self.first.setdefault(op.key, fingerprint)
            if fingerprint != first:
                error = "simulated result differs from the first repetition"
        if error is not None:
            self.failed += 1
            print("wallbench: FAIL {}: {}".format(op.key, error), file=sys.stderr)

    def digest(self):
        h = hashlib.sha256()
        for key in sorted(self.first):
            h.update("{}={}\n".format(key, self.first[key]).encode())
        return h.hexdigest()


def run_pass(ops, outcome, meter, tracer=None):
    """Run every op once. Returns ``(op, seconds)`` per op, in seconds at
    the reference speed (see speed.py), and the pass's measured wall
    seconds, less the probes' time."""
    spans = []
    with meter:
        for op in ops:
            op.reset()
            error = result = None
            paused = meter.paused_s
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = op.run()
                else:
                    result = tracer.op_span(op.key, op.run)
            except Exception:
                error = traceback.format_exc()
            end = time.perf_counter()
            spans.append((op, start, end, end - start - (meter.paused_s - paused)))
            if error is None:
                try:
                    error = op.check(result)
                except Exception:
                    error = "oracle raised:\n" + traceback.format_exc()
            outcome.record(op, result, error)
    timings = [
        (op, seconds * meter.factor(start, end)) for op, start, end, seconds in spans
    ]
    outcome.passes.append(timings)
    return timings, sum(seconds for _op, _start, _end, seconds in spans)


def report(metrics, units):
    for name, value in metrics.items():
        print("  {:32s} {:>16.6g} {}".format(name, value, units[name]))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("wallbench: no program source at {}".format(SRC), file=sys.stderr)
        return 2
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, SRC)
    import layers
    import speed
    import workloads

    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print("wallbench: imported repro from outside src/", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(
            "wallbench: unknown workload {!r} (choose from: {})".format(
                args.workload, ", ".join(workloads.WORKLOADS)
            ),
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    import_s = time.perf_counter() - _T0

    meter = speed.SpeedMeter()
    meter.sample()
    rounds = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        ops = workload.prepare(args.seed)
        rounds.append(time.perf_counter() - start)
        meter.sample()
    setup_factor = meter.setup_factor()
    setup_s = (import_s + statistics.median(rounds)) * setup_factor

    # Whole passes until --seconds have gone by, and at least MIN_PASSES.
    outcome = Outcome()
    measured = []
    deadline = time.perf_counter() + args.seconds
    while len(measured) < MIN_PASSES or time.perf_counter() < deadline:
        measured.append(run_pass(ops, outcome, meter)[1])
    untraced = outcome.passes[:]
    latencies = [seconds for p in untraced for _op, seconds in p]
    # A typical pass: each op at its median over the passes, so a slow
    # spell during one repetition does not count.
    per_op = {}
    for timings in untraced:
        for op, seconds in timings:
            per_op.setdefault(op, []).append(seconds)
    wall = sum(statistics.median(v) for v in per_op.values())

    print(
        "wallbench: workload={} seed={} passes={} ops/pass={} "
        "first set-up {:.3f} s (median of {} rounds reported)".format(
            args.workload,
            args.seed,
            len(untraced),
            len(ops),
            (import_s + rounds[0]) * setup_factor,
            SETUP_ROUNDS,
        )
    )
    print(
        "  times are at the reference speed; measured: set-up {:.6f} s, "
        "median pass {:.6f} s".format(
            import_s + statistics.median(rounds), statistics.median(measured)
        )
    )
    tails = [tail([s for _op, s in p]) for p in untraced]
    _value, percentile, beyond = tails[0]
    print(
        "  op_tail_ms is p{:.1f} of {} ops per pass ({} beyond), "
        "median over {} passes".format(percentile, len(ops), beyond, len(untraced))
    )

    if args.trace:
        tracer = layers.Tracer(
            {op.bench.lime_source: _token_count(op.bench.lime_source) for op in ops}
        )
        layers.install(tracer)
        timings, _measured = run_pass(ops, outcome, meter, tracer)
        traced = sum(seconds for _op, seconds in timings)
        # Op spans include the probes' pauses; scaling every layer by
        # the same factor makes the layers sum to the traced pass.
        metrics = tracer.metrics(traced / tracer.op_seconds())
        metrics["trace.overhead_s"] = traced - wall
        metrics["trace.coverage"] = (
            1.0 - metrics["runtime.self_s"] / traced if traced > 0 else 0.0
        )
        units = {name: unit for name, unit, _better in layers.LAYER_METRICS}
        for program in workloads.PAPER_PROGRAMS:
            name = "program.{}.wall_s".format(program)
            metrics[name] = sum(
                statistics.median(v)
                for op, v in per_op.items()
                if op.program == program
            )
            units[name] = "s"
        path = os.path.join(workloads.OUT_DIR, "trace-{}.json".format(args.workload))
        tracer.write_chrome(path)
        print("  traced pass wall {:.6f} s; spans written to {}".format(
            traced, os.path.relpath(path)))
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": statistics.median(t[0] for t in tails) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (outcome.attempted - outcome.failed) / outcome.attempted,
        }
        units = dict(END_TO_END)

    print("  digest {} sha256:{}".format(args.workload, outcome.digest()))
    report(metrics, units)
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def _token_count(source):
    from repro.frontend.lexer import tokenize

    return len(tokenize(source))


if __name__ == "__main__":
    sys.exit(main())
