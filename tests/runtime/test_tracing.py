"""The tracing & metrics subsystem: span recording, the null tracer's
zero-overhead contract, the typed metrics registry, both exporters
(golden files), the readers, and the flame/diff renderers."""

import json
import time
from pathlib import Path

import pytest

from repro.apps.registry import BENCHMARKS
from repro.compiler.options import FIGURE8_CONFIGS
from repro.evaluation.harness import run_configuration
from repro.runtime.profiler import (
    ExecutionProfile,
    FailureLedger,
    render_executor_summary,
    render_failure_summary,
)
from repro.runtime.tracing import (
    DEFAULT_BUCKETS,
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    SimClock,
    Tracer,
    diff_traces,
    flame_summary,
    read_trace,
)

GOLDEN = Path(__file__).parent.parent / "golden"


# -- the clock ---------------------------------------------------------------


def test_sim_clock_only_moves_forward():
    clock = SimClock()
    clock.advance(100.0)
    clock.advance(-50.0)
    clock.advance(0.0)
    assert clock.now() == 100.0


# -- span recording ----------------------------------------------------------


def test_charge_records_closed_span_and_advances_clock():
    tracer = Tracer(wallclock=lambda: 0)
    span = tracer.charge("kernel", 500.0, cat="stage", tier="batch")
    assert tracer.now_ns() == 500.0
    assert span.ts_ns == 0.0 and span.dur_ns == 500.0
    assert span.args == {"tier": "batch"}
    assert span.parent is None and span.depth == 0


def test_span_duration_is_clock_delta_and_nesting_is_recorded():
    tracer = Tracer(wallclock=lambda: 0)
    with tracer.span("item", cat="task", task="A.f") as handle:
        tracer.charge("java_marshal", 100.0, cat="stage")
        with tracer.span("inner"):
            tracer.advance(40.0)
        handle.set(seq=3)
    spans = {s.name: s for s in tracer.events}
    item = spans["item"]
    assert item.dur_ns == 140.0
    assert item.args == {"task": "A.f", "seq": 3}
    assert spans["java_marshal"].parent == item.id
    assert spans["java_marshal"].depth == 1
    assert spans["inner"].parent == item.id
    assert spans["inner"].dur_ns == 40.0
    assert tracer._stack == []


def test_span_exception_recorded_and_reraised():
    tracer = Tracer(wallclock=lambda: 0)
    with pytest.raises(ValueError):
        with tracer.span("item"):
            raise ValueError("boom")
    (span,) = tracer.events
    assert span.args["error"] == "ValueError"
    assert tracer._stack == []


def test_instant_records_point_event_under_current_span():
    tracer = Tracer(wallclock=lambda: 0)
    with tracer.span("item"):
        tracer.instant("fault", cat="recovery", stage="transfer")
    instants = [e for e in tracer.events if e.kind == "instant"]
    assert len(instants) == 1
    assert instants[0].dur_ns == 0.0
    assert instants[0].parent is not None


def test_coverage_counts_top_level_spans_only():
    tracer = Tracer(wallclock=lambda: 0)
    with tracer.span("item"):
        tracer.charge("kernel", 80.0)
    tracer.charge("host_compute", 20.0)
    assert tracer.coverage() == pytest.approx(1.0)
    assert tracer.coverage(200.0) == pytest.approx(0.5)
    assert Tracer().coverage() == 1.0  # empty trace, zero total


# -- the null tracer ---------------------------------------------------------


def test_null_tracer_is_inert_shared_singleton():
    assert isinstance(NULL_TRACER, NullTracer)
    assert NULL_TRACER.enabled is False
    handle_a = NULL_TRACER.span("item", cat="task", task="A.f")
    handle_b = NULL_TRACER.span("other")
    assert handle_a is handle_b  # one shared handle, no allocation
    with handle_a as h:
        assert h.set(x=1) is h
    assert NULL_TRACER.charge("kernel", 100.0) is None
    assert NULL_TRACER.instant("fault") is None
    assert NULL_TRACER.advance(100.0) is None
    assert NULL_TRACER.now_ns() == 0.0


def test_fresh_profile_uses_null_tracer():
    assert ExecutionProfile().tracer is NULL_TRACER


def test_tracing_off_overhead_under_two_percent():
    """With tracing off the instrumentation must cost < 2% of a
    jg-series run: (tracer calls the run makes) x (null per-call cost)
    bounded against the run's wall time. Both times are the minimum of
    several samples, so one slow sample cannot decide the verdict."""
    bench = BENCHMARKS["jg-series-single"]
    run_configuration(bench, "gtx580", scale=0.2)  # warm caches
    run_times = []
    for _ in range(3):
        start = time.perf_counter()
        run_configuration(bench, "gtx580", scale=0.2)
        run_times.append(time.perf_counter() - start)
    run_s = min(run_times)

    tracer = Tracer()
    run_configuration(bench, "gtx580", scale=0.2, tracer=tracer)
    n_calls = len(tracer.events)  # every event is one tracer call site

    reps = 20000
    pair_times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(reps):
            with NULL_TRACER.span("item", cat="task", task="A.f", seq=0):
                NULL_TRACER.charge("kernel", 100.0, cat="stage", tier="batch")
        pair_times.append((time.perf_counter() - start) / reps)
    per_pair = min(pair_times)
    overhead_s = n_calls * per_pair  # pair cost over-counts: safe bound
    assert overhead_s < 0.02 * run_s, (
        "null-tracer overhead {:.6f}s vs run {:.3f}s "
        "({} call sites)".format(overhead_s, run_s, n_calls)
    )


# -- metrics registry --------------------------------------------------------


def test_counter_gauge_histogram():
    reg = MetricsRegistry()
    assert reg.inc("cache.hits") == 1
    assert reg.inc("cache.hits", 4) == 5
    assert reg.get("cache.hits") == 5
    assert reg.get("cache.misses") == 0  # absent -> default
    reg.gauge("executor.active").set(3)
    assert reg.get("executor.active") == 3
    hist = reg.histogram("task.invoke_ns")
    hist.observe(50.0)
    hist.observe(5e3)
    hist.observe(5e8)  # overflow bucket
    assert hist.summary() == {
        "count": 3,
        "sum": 50.0 + 5e3 + 5e8,
        "min": 50.0,
        "max": 5e8,
    }
    assert hist.bucket_counts[0] == 1
    assert hist.bucket_counts[-1] == 1
    assert len(hist.bounds) == len(DEFAULT_BUCKETS)


def test_registry_returns_same_instrument_and_rejects_kind_clash():
    reg = MetricsRegistry()
    assert reg.counter("recovery.faults") is reg.counter("recovery.faults")
    with pytest.raises(TypeError):
        reg.gauge("recovery.faults")
    with pytest.raises(TypeError):
        reg.histogram("recovery.faults")


def test_registry_as_dict_flattens_histograms():
    reg = MetricsRegistry()
    reg.inc("cache.hits", 2)
    reg.histogram("task.invoke_ns").observe(100.0)
    flat = reg.as_dict()
    assert flat["cache.hits"] == 2
    assert flat["task.invoke_ns.count"] == 1
    assert flat["task.invoke_ns.sum"] == 100.0
    assert "cache.hits = 2" in reg.render()
    assert reg.names() == ["cache.hits", "task.invoke_ns"]


def test_instrument_kinds():
    assert Counter.kind == "counter"
    assert Gauge.kind == "gauge"
    assert Histogram.kind == "histogram"


# -- ledger/profile -> canonical metrics -------------------------------------


def test_ledger_publishes_canonical_metrics():
    reg = MetricsRegistry()
    ledger = FailureLedger(metrics=reg)
    ledger.record_fault("A.f", "transfer")
    ledger.record_fault("A.f", "launch")
    ledger.record_retry("A.f")
    ledger.record_fallback("A.f")
    ledger.record_demotion("A.f")
    ledger.record_demotion("A.f")  # second demotion of same task: no-op
    ledger.record_promotion("A.f")
    ledger.record_trip("A.f", "bounds", 3)
    ledger.record_validation("A.f", ok=False)
    ledger.add_time_lost("A.f", 500.0)
    assert reg.get("recovery.faults") == 2
    assert reg.get("recovery.faults.transfer") == 1
    assert reg.get("recovery.faults.launch") == 1
    assert reg.get("recovery.retries") == 1
    assert reg.get("recovery.fallbacks") == 1
    assert reg.get("recovery.demotions") == 1
    assert reg.get("recovery.promotions") == 1
    assert reg.get("guards.trips.bounds") == 3
    assert reg.get("guards.validations") == 1
    assert reg.get("guards.mismatches") == 1
    assert reg.get("recovery.time_lost_ns") == 500.0


def test_profile_publishes_tier_and_cache_metrics():
    profile = ExecutionProfile()
    profile.record_tier("batch")
    profile.record_tier("batch")
    profile.record_tier("per-item")
    profile.record_cache(hit=True)
    profile.record_cache(hit=False)
    assert profile.metrics.get("executor.launches.batch") == 2
    assert profile.metrics.get("executor.launches.per-item") == 1
    assert profile.metrics.get("cache.hits") == 1
    assert profile.metrics.get("cache.misses") == 1
    summary = profile.executor_summary()
    # Canonical dotted keys only — the legacy aliases are gone.
    assert summary["cache.hits"] == 1
    assert summary["executor.launches"] == {"batch": 2, "per-item": 1}
    assert "cache_hits" not in summary
    assert "tiers" not in summary


def test_batch_declines_are_counted_by_reason():
    profile = ExecutionProfile()
    profile.record_tier("per-item", "unknown builtin 'foo'")
    profile.record_tier("per-item", "unknown builtin 'foo'")
    profile.record_tier("batch")
    assert profile.metrics.get("executor.batch_declined.unknown-builtin-foo") == 2
    summary = profile.executor_summary()
    assert summary["executor.batch_declined"] == {"unknown-builtin-foo": 2}
    assert "batch_declined.unknown-builtin-foo=2" in render_executor_summary(
        summary
    )


def test_run_reports_why_a_launch_left_the_batch_tier():
    # The texture config reads nbody's particles through image loads,
    # which the batch tier declines.
    result = run_configuration(
        BENCHMARKS["nbody-single"],
        "gtx580",
        scale=0.1,
        steps=1,
        config=FIGURE8_CONFIGS["Texture"],
        max_sim_items=128,
    )
    assert result.executor["executor.launches"] == {"per-item": 1}
    assert result.executor["executor.batch_declined"] == {"image-loads": 1}
    assert "batch_declined.image-loads=1" in render_executor_summary(
        result.executor
    )


def test_render_failure_summary_canonical_keys():
    ledger = FailureLedger()
    ledger.record_fault("A.f", "transfer")
    ledger.record_retry("A.f")
    text = render_failure_summary(ledger.summary())
    assert "failure ledger: faults=1 retries=1" in text
    assert "fallbacks=0" in text and "demotions=0" in text
    ledger.record_failover("A.f", "gtx580", "hd5970")
    ledger.record_partition("A.f", 4)
    ledger.record_demotion("A.f")
    text = render_failure_summary(ledger.summary())
    assert "fleet: failovers=1 partitioned_launches=4" in text
    assert "DEMOTED-TO-HOST" in text


def test_render_executor_summary():
    assert render_executor_summary({}) == ""
    text = render_executor_summary(
        {
            "executor.launches": {"batch": 2, "per-item": 1},
            "cache.hits": 1,
            "cache.misses": 1,
        }
    )
    assert "launches.batch=2" in text
    assert "launches.per-item=1" in text
    assert "cache.hits=1" in text and "cache.misses=1" in text
    # Legacy alias keys no longer render — canonical names only.
    assert render_executor_summary({"tiers": {"batch": 5}}) == ""


# -- exporters: golden files -------------------------------------------------


def _golden_tracer():
    """A small fixed trace exercising nesting, charges, instants, args,
    and an exception — deterministic because wall time is pinned."""
    tracer = Tracer(wallclock=lambda: 0)
    with tracer.span("item", cat="task", task="A.f", seq=0):
        tracer.charge("java_marshal", 100.0, cat="stage", param="x")
        tracer.charge(
            "transfer", 50.0, cat="stage", bytes=4096, direction="h2d"
        )
        with tracer.span("device", cat="executor", kernel="k"):
            pass
        tracer.charge(
            "kernel", 200.0, cat="stage", kernel="k", tier="batch"
        )
        tracer.instant("cache_hit", cat="compile", kernel="k")
    with tracer.span("item", cat="task", task="A.f", seq=1):
        tracer.instant("fault", cat="recovery", stage="launch", attempt=1)
        tracer.charge("retry_backoff", 1000.0, cat="recovery", attempt=1)
    tracer.charge("host_compute", 25.0, cat="host", benchmark="demo")

    metrics = MetricsRegistry()
    metrics.inc("cache.hits")
    metrics.counter("recovery.faults").inc(1)
    metrics.histogram("task.invoke_ns").observe(350.0)
    return tracer, metrics


def test_chrome_export_matches_golden(tmp_path):
    tracer, metrics = _golden_tracer()
    path = tmp_path / "trace.json"
    tracer.write_chrome(path, metrics=metrics)
    assert path.read_text() == (GOLDEN / "trace_chrome.json").read_text()


def test_jsonl_export_matches_golden(tmp_path):
    tracer, metrics = _golden_tracer()
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path, metrics=metrics)
    assert path.read_text() == (GOLDEN / "trace_events.jsonl").read_text()


def test_chrome_export_is_loadable_and_well_formed(tmp_path):
    tracer, metrics = _golden_tracer()
    path = tmp_path / "trace.json"
    tracer.write_chrome(path, metrics=metrics)
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ns"
    phases = {ev["ph"] for ev in payload["traceEvents"]}
    assert phases == {"M", "X", "i"}
    complete = [ev for ev in payload["traceEvents"] if ev["ph"] == "X"]
    assert all({"name", "cat", "ts", "dur", "pid", "tid"} <= set(ev)
               for ev in complete)
    meta = [ev for ev in payload["traceEvents"] if ev["ph"] == "M"]
    assert meta[-1]["name"] == "metrics"
    assert meta[-1]["args"]["cache.hits"] == 1


# -- readers -----------------------------------------------------------------


def test_read_trace_roundtrip_both_formats(tmp_path):
    tracer, metrics = _golden_tracer()
    chrome = tmp_path / "trace.json"
    jsonl = tmp_path / "trace.jsonl"
    tracer.write_chrome(chrome, metrics=metrics)
    tracer.write_jsonl(jsonl, metrics=metrics)
    from_chrome = read_trace(chrome)
    from_jsonl = read_trace(jsonl)
    key = lambda e: (e["ts_ns"], e["name"], e["kind"], e["dur_ns"])  # noqa: E731
    assert sorted(map(key, from_chrome)) == sorted(map(key, from_jsonl))
    spans = [e for e in from_jsonl if e["kind"] == "span"]
    items = [e for e in spans if e["name"] == "item"]
    assert len(items) == 2
    kernel = next(e for e in spans if e["name"] == "kernel")
    assert kernel["parent"] == items[0]["id"]
    assert kernel["args"]["tier"] == "batch"


# -- flame summary & diff ----------------------------------------------------


def test_flame_summary_self_time_and_ordering():
    tracer, _metrics = _golden_tracer()
    events = [
        {
            "kind": s.kind,
            "name": s.name,
            "cat": s.cat,
            "ts_ns": s.ts_ns,
            "dur_ns": s.dur_ns,
            "id": s.id,
            "parent": s.parent,
            "depth": s.depth,
            "wall_ns": s.wall_ns,
            "args": s.args,
        }
        for s in tracer.events
    ]
    text = flame_summary(events)
    lines = text.splitlines()
    assert "flame summary" in lines[0]
    # retry_backoff (1000 self ns) must rank first; item's self time is
    # ~0 because its children account for its whole duration.
    assert lines[1].startswith("retry_backoff")
    item_line = next(line for line in lines if line.startswith("item"))
    assert "self              0 ns" in item_line
    assert flame_summary([]) == "trace: no spans"
    assert len(flame_summary(events, top=2).splitlines()) == 3


def test_diff_traces_marks_new_gone_and_equal(tmp_path):
    tracer_a, _m = _golden_tracer()
    tracer_b = Tracer(wallclock=lambda: 0)
    tracer_b.charge("kernel", 400.0, cat="stage")
    tracer_b.charge("brand_new", 10.0)
    a = read_events(tracer_a, tmp_path / "a.jsonl")
    b = read_events(tracer_b, tmp_path / "b.jsonl")
    text = diff_traces(a, b, label_a="a", label_b="b")
    assert "a -> b" in text
    kernel_line = next(
        line for line in text.splitlines() if line.startswith("kernel")
    )
    assert "+100.0%" in kernel_line
    new_line = next(
        line for line in text.splitlines() if line.startswith("brand_new")
    )
    assert "new" in new_line


def read_events(tracer, path):
    tracer.write_jsonl(path)
    return read_trace(path)


# -- end to end --------------------------------------------------------------


def test_mosaic_trace_end_to_end(tmp_path):
    tracer = Tracer()
    result = run_configuration(
        BENCHMARKS["mosaic"],
        "gtx580",
        scale=0.2,
        max_sim_items=256,
        tracer=tracer,
    )
    # The clock model guarantees near-total coverage (the acceptance
    # bar is 95%).
    assert tracer.coverage(result.total_ns) >= 0.95

    path = tmp_path / "trace.json"
    tracer.write_chrome(path, metrics=result.metrics)
    events = read_trace(path)
    spans = {e["id"]: e for e in events if e["kind"] == "span"}
    names = {e["name"] for e in events}
    assert {"compile", "item", "kernel", "java_marshal", "transfer",
            "host_compute"} <= names
    # Causality: every kernel charge is nested under a glue item span.
    kernels = [e for e in events if e["name"] == "kernel"]
    assert kernels
    for charge in kernels:
        assert spans[charge["parent"]]["name"] == "item"
    # The run's metrics ride along in RunResult. (The compile cache is
    # process-global, so an earlier test may have warmed it: hits and
    # misses both count as cache activity.)
    assert (
        result.metrics.get("cache.hits", 0)
        + result.metrics.get("cache.misses", 0)
    ) >= 1
    assert any(k.startswith("executor.launches.") for k in result.metrics)
    assert result.metrics["transfer.bytes_to_device"] > 0


def test_faulted_run_trace_accounts_recovery_time():
    from repro.runtime.resilience import ResiliencePolicy

    tracer = Tracer()
    policy = ResiliencePolicy.from_flags(fault_rate=0.3, seed=7)
    result = run_configuration(
        BENCHMARKS["jg-series-single"],
        "gtx580",
        scale=0.2,
        resilience=policy,
        tracer=tracer,
    )
    names = {e.name for e in tracer.events}
    assert "fault" in names
    assert "retry_backoff" in names
    # Recovery charges keep the clock aligned with the profile total.
    assert tracer.coverage(result.total_ns) >= 0.95
