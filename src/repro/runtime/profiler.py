"""Execution profiling: the Figure 9 stage breakdown.

The profiler aggregates simulated time per stage of offloaded execution
(Java marshal, C marshal, OpenCL setup, PCIe transfer, device kernel)
plus host compute, and provides the communication cost model that converts
:class:`repro.runtime.marshal.MarshalStats` and transfer sizes into
nanoseconds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.runtime.cost import StageTimes
from repro.runtime.tracing import NULL_TRACER, MetricsRegistry


@dataclass(frozen=True)
class CommCostModel:
    """Costs of moving a value between the JVM and the device.

    The constants reflect the paper's measurements qualitatively:

    - Java-side marshalling is the most expensive stage ("Marshaling
      objects in Java suffers from significant overheads due to array
      bounds checking and object allocation") — high per-element cost on
      the generic path, and a per-byte cost plus allocation overhead on
      the specialized path.
    - C-side marshalling is cheaper ("simply use malloc/free").
    - OpenCL setup is per-buffer/per-launch API overhead ("typically 5%").
    - Raw PCIe transfer "does not play a major role".
    """

    # Java serializer: bounds checks and allocation make this the most
    # expensive stage (the paper's ~30% share).
    java_element_ns: float = 25.0  # generic path: per element walked
    java_byte_ns: float = 1.1  # specialized path: per bulk byte
    # Byte-element arrays pay extra: "the cost of byte-array accesses in
    # Lime are more expensive than in Java" (Section 5.1) — this is what
    # makes JG-Crypt marshalling-bound.
    java_byte_array_extra_ns: float = 12.0
    java_alloc_ns: float = 300.0

    # C serializer: "simply use malloc/free" — cheaper.
    c_element_ns: float = 6.0
    c_byte_ns: float = 0.45
    c_alloc_ns: float = 120.0

    # OpenCL API ("typically 5%").
    setup_per_buffer_ns: float = 500.0
    setup_per_launch_ns: float = 2_500.0

    # PCIe: "raw data transfer does not play a major role".
    pcie_byte_ns: float = 0.125
    pcie_latency_ns: float = 700.0

    @staticmethod
    def for_cpu():
        """The CPU OpenCL runtime shares memory with the JVM: no PCIe.
        Marshalling across the JNI boundary still happens (the paper's
        Figure 9(a) shows JG-Crypt dominated by it), but transfers are
        cache-speed copies and buffer setup is cheaper."""
        return CommCostModel(
            setup_per_buffer_ns=250.0,
            setup_per_launch_ns=900.0,
            pcie_byte_ns=0.02,
            pcie_latency_ns=120.0,
        )

    def java_marshal_ns(self, stats):
        return (
            self.java_element_ns * stats.elements
            + self.java_byte_ns * stats.bulk_bytes
            + self.java_byte_array_extra_ns * stats.byte_array_bytes
            + self.java_alloc_ns * stats.allocations
        )

    def c_marshal_ns(self, stats):
        return (
            self.c_element_ns * stats.elements
            + self.c_byte_ns * stats.bulk_bytes
            + self.c_alloc_ns * stats.allocations
        )

    def setup_ns(self, buffers, launches):
        return (
            self.setup_per_buffer_ns * buffers
            + self.setup_per_launch_ns * launches
        )

    def transfer_ns(self, nbytes, transfers=1):
        return self.pcie_byte_ns * nbytes + self.pcie_latency_ns * transfers


@dataclass
class TaskFaultRecord:
    """Per-task failure-ledger entry.

    ``faults`` counts injected-or-real device faults observed;
    ``retries`` counts device re-attempts; ``fallbacks`` counts stream
    items completed on the host after retries were exhausted;
    ``demoted`` is set when the circuit breaker moved the whole task to
    its host worker; ``time_lost_ns`` is simulated time burned on failed
    attempts plus retry backoff; ``by_stage`` splits faults by the
    Figure 6 stage that failed.

    Guarded execution adds: ``trips`` splits sanitizer violations by
    kind (``bounds``/``race``/``divergence``/``deadline``/``nan``/
    ``validate`` — may exceed the fault count because one race fault can
    batch many conflicting addresses); ``validations``/``mismatches``
    count differential-validation samples and how many disagreed with
    the host; ``promotions`` counts half-open breaker probes that
    returned the task from the host to the device.

    Fleet scheduling adds: ``failovers`` counts stream items replayed
    on another fleet device after the placed device faulted (the item
    still completed on *a* device — not a fallback); and
    ``partitioned_launches`` counts chunk launches executed because a
    device OOM forced the NDRange to be split.
    """

    faults: int = 0
    retries: int = 0
    fallbacks: int = 0
    demoted: bool = False
    time_lost_ns: float = 0.0
    by_stage: dict = field(default_factory=dict)
    trips: dict = field(default_factory=dict)
    validations: int = 0
    mismatches: int = 0
    promotions: int = 0
    failovers: int = 0
    partitioned_launches: int = 0


class FailureLedger:
    """The run's fault accounting: per-task :class:`TaskFaultRecord`
    entries plus aggregate views, surfaced by the CLI and the
    evaluation report. Every ``record_*`` call also bumps the matching
    canonical counter (``recovery.*`` / ``guards.*``) on the shared
    :class:`~repro.runtime.tracing.MetricsRegistry`, so ledger totals
    and metric values can never drift apart."""

    def __init__(self, metrics=None):
        self.tasks = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def _record(self, task_name):
        if task_name not in self.tasks:
            self.tasks[task_name] = TaskFaultRecord()
        return self.tasks[task_name]

    def record_fault(self, task_name, stage):
        rec = self._record(task_name)
        rec.faults += 1
        rec.by_stage[stage] = rec.by_stage.get(stage, 0) + 1
        self.metrics.inc("recovery.faults")
        self.metrics.inc("recovery.faults.{}".format(stage))

    def record_retry(self, task_name):
        self._record(task_name).retries += 1
        self.metrics.inc("recovery.retries")

    def record_fallback(self, task_name):
        self._record(task_name).fallbacks += 1
        self.metrics.inc("recovery.fallbacks")

    def record_demotion(self, task_name):
        rec = self._record(task_name)
        if not rec.demoted:
            self.metrics.inc("recovery.demotions")
        rec.demoted = True

    def record_trip(self, task_name, kind, count=1):
        """Count ``count`` sanitizer violations of ``kind`` (a
        :data:`repro.runtime.sanitizer.TRIP_KINDS` key)."""
        rec = self._record(task_name)
        rec.trips[kind] = rec.trips.get(kind, 0) + count
        self.metrics.inc("guards.trips.{}".format(kind), count)

    def record_validation(self, task_name, ok):
        rec = self._record(task_name)
        rec.validations += 1
        self.metrics.inc("guards.validations")
        if not ok:
            rec.mismatches += 1
            self.metrics.inc("guards.mismatches")

    def record_promotion(self, task_name):
        """A half-open breaker probe succeeded: the task moved back from
        the host to the device."""
        self._record(task_name).promotions += 1
        self.metrics.inc("recovery.promotions")

    def record_failover(self, task_name, from_device, to_device):
        """A stream item was transparently replayed on ``to_device``
        after ``from_device`` faulted — the fleet absorbed the fault
        without involving the host."""
        self._record(task_name).failovers += 1
        self.metrics.inc("recovery.failovers")
        self.metrics.inc(
            "recovery.failovers.from.{}".format(from_device)
        )

    def record_partition(self, task_name, chunks):
        """A device-OOM launch completed as ``chunks`` partitioned chunk
        launches instead of failing the task."""
        self._record(task_name).partitioned_launches += chunks
        self.metrics.inc("recovery.partitioned_launches", chunks)

    def add_time_lost(self, task_name, ns):
        self._record(task_name).time_lost_ns += ns
        self.metrics.inc("recovery.time_lost_ns", ns)

    @property
    def total_faults(self):
        return sum(rec.faults for rec in self.tasks.values())

    @property
    def total_retries(self):
        return sum(rec.retries for rec in self.tasks.values())

    @property
    def total_fallbacks(self):
        return sum(rec.fallbacks for rec in self.tasks.values())

    @property
    def demotions(self):
        return [name for name, rec in self.tasks.items() if rec.demoted]

    @property
    def time_lost_ns(self):
        return sum(rec.time_lost_ns for rec in self.tasks.values())

    @property
    def total_trips(self):
        totals = {}
        for rec in self.tasks.values():
            for kind, count in rec.trips.items():
                totals[kind] = totals.get(kind, 0) + count
        return totals

    @property
    def total_validations(self):
        return sum(rec.validations for rec in self.tasks.values())

    @property
    def total_mismatches(self):
        return sum(rec.mismatches for rec in self.tasks.values())

    @property
    def total_promotions(self):
        return sum(rec.promotions for rec in self.tasks.values())

    @property
    def total_failovers(self):
        return sum(rec.failovers for rec in self.tasks.values())

    @property
    def total_partitioned_launches(self):
        return sum(rec.partitioned_launches for rec in self.tasks.values())

    def any_faults(self):
        return self.total_faults > 0

    def any_activity(self):
        """True when the ledger holds anything worth reporting — faults,
        sanitizer trips, validation samples, re-promotions, fleet
        failovers, or partitioned relaunches."""
        return bool(self.tasks) and (
            self.any_faults()
            or self.total_trips
            or self.total_validations
            or self.total_promotions
            or self.total_failovers
            or self.total_partitioned_launches
        )

    def summary(self):
        """A plain-dict view (stable across runs with the same seed).

        Aggregate keys are the canonical ``recovery.*`` / ``guards.*``
        metric names, mirroring the
        :class:`~repro.runtime.tracing.MetricsRegistry`; the bare legacy
        aliases (``faults``, ``retries``, ...) served their one-release
        deprecation and are gone. ``demoted_tasks`` lists the tasks the
        breaker moved to the host (``recovery.demotions`` is the count).
        """
        return {
            "recovery.faults": self.total_faults,
            "recovery.retries": self.total_retries,
            "recovery.fallbacks": self.total_fallbacks,
            "recovery.demotions": len(self.demotions),
            "recovery.promotions": self.total_promotions,
            "recovery.failovers": self.total_failovers,
            "recovery.partitioned_launches": self.total_partitioned_launches,
            "recovery.time_lost_ns": self.time_lost_ns,
            "guards.trips": dict(sorted(self.total_trips.items())),
            "guards.validations": self.total_validations,
            "guards.mismatches": self.total_mismatches,
            "demoted_tasks": list(self.demotions),
            "per_task": {
                name: {
                    "faults": rec.faults,
                    "retries": rec.retries,
                    "fallbacks": rec.fallbacks,
                    "demoted": rec.demoted,
                    "time_lost_ns": rec.time_lost_ns,
                    "by_stage": dict(sorted(rec.by_stage.items())),
                    "trips": dict(sorted(rec.trips.items())),
                    "validations": rec.validations,
                    "mismatches": rec.mismatches,
                    "promotions": rec.promotions,
                    "failovers": rec.failovers,
                    "partitioned_launches": rec.partitioned_launches,
                }
                for name, rec in sorted(self.tasks.items())
            },
        }

    def report(self):
        """Render the ledger as text for the CLI — one format,
        shared with :func:`render_failure_summary` (the evaluation
        report renders the identical text from the summary dict)."""
        return render_failure_summary(self.summary())

    # -- journal support: per-item deltas and silent replay -----------------

    _COUNT_FIELDS = (
        "faults", "retries", "fallbacks", "time_lost_ns", "validations",
        "mismatches", "promotions", "failovers", "partitioned_launches",
    )

    def snapshot_tasks(self):
        """Opaque capture of every task record, input to :meth:`delta`."""
        return {
            name: {
                "demoted": rec.demoted,
                "by_stage": dict(rec.by_stage),
                "trips": dict(rec.trips),
                **{f: getattr(rec, f) for f in self._COUNT_FIELDS},
            }
            for name, rec in self.tasks.items()
        }

    def delta(self, before):
        """JSON-able per-task change since ``before``
        (a :meth:`snapshot_tasks` capture)."""
        out = {}
        for name, rec in sorted(self.tasks.items()):
            prev = before.get(name, {})
            d = {}
            for f in self._COUNT_FIELDS:
                diff = getattr(rec, f) - prev.get(f, 0)
                if diff:
                    d[f] = diff
            if rec.demoted != prev.get("demoted", False):
                d["demoted"] = rec.demoted
            for dict_field in ("by_stage", "trips"):
                pdict = prev.get(dict_field, {})
                cur = getattr(rec, dict_field)
                diffs = {
                    k: v - pdict.get(k, 0)
                    for k, v in sorted(cur.items())
                    if v != pdict.get(k, 0)
                }
                if diffs:
                    d[dict_field] = diffs
            if d:
                out[name] = d
        return out

    def merge_task(self, task_name, delta):
        """Apply a journaled per-task :meth:`delta` entry *without*
        bumping metrics — the journal restores those separately through
        :meth:`MetricsRegistry.merge_delta`, so going through the
        ``record_*`` API here would double-count every fault."""
        rec = self._record(task_name)
        for f in self._COUNT_FIELDS:
            if f in delta:
                setattr(rec, f, getattr(rec, f) + delta[f])
        if "demoted" in delta:
            rec.demoted = delta["demoted"]
        for dict_field in ("by_stage", "trips"):
            for k, v in delta.get(dict_field, {}).items():
                cur = getattr(rec, dict_field)
                cur[k] = cur.get(k, 0) + v


def render_failure_summary(summary):
    """The single canonical text rendering of a failure-ledger summary.

    Used by ``FailureLedger.report()``, the ``run`` CLI, and
    ``repro.evaluation.report.failure_report`` — previously three
    near-duplicate formats. The header keys are the canonical
    ``recovery.*`` metric leaf names.
    """
    per_task = (summary or {}).get("per_task") or {}
    if not per_task:
        return "failure ledger: no device faults recorded"
    header = (
        "failure ledger: faults={} retries={} fallbacks={} demotions={} "
        "time_lost_ns={:.0f}".format(
            summary.get("recovery.faults", 0),
            summary.get("recovery.retries", 0),
            summary.get("recovery.fallbacks", 0),
            summary.get("recovery.demotions", 0),
            summary.get("recovery.time_lost_ns", 0.0),
        )
    )
    failovers = summary.get("recovery.failovers", 0)
    partitioned = summary.get("recovery.partitioned_launches", 0)
    if failovers or partitioned:
        header += "\n  fleet: failovers={} partitioned_launches={}".format(
            failovers, partitioned
        )
    trips = summary.get("guards.trips", {}) or {}
    validations = summary.get("guards.validations", 0)
    mismatches = summary.get("guards.mismatches", 0)
    promotions = summary.get("recovery.promotions", 0)
    if trips or validations or promotions:
        parts = [
            "{}={}".format(kind, count) for kind, count in sorted(trips.items())
        ]
        parts.append("validations={}".format(validations))
        parts.append("mismatches={}".format(mismatches))
        if promotions:
            parts.append("promotions={}".format(promotions))
        header += "\n  guards: " + " ".join(parts)
    lines = [header]
    for name, rec in sorted(per_task.items()):
        stages = ", ".join(
            "{}={}".format(stage, count)
            for stage, count in sorted(rec.get("by_stage", {}).items())
        )
        extra = ""
        if rec.get("validations"):
            extra += " validations={} mismatches={}".format(
                rec["validations"], rec.get("mismatches", 0)
            )
        if rec.get("promotions"):
            extra += " promotions={}".format(rec["promotions"])
        if rec.get("failovers"):
            extra += " failovers={}".format(rec["failovers"])
        if rec.get("partitioned_launches"):
            extra += " partitioned={}".format(rec["partitioned_launches"])
        lines.append(
            "  {}: faults={} ({}) retries={} fallbacks={}{}{} "
            "time_lost={:.0f}ns".format(
                name,
                rec.get("faults", 0),
                stages or "-",
                rec.get("retries", 0),
                rec.get("fallbacks", 0),
                extra,
                " DEMOTED-TO-HOST" if rec.get("demoted") else "",
                rec.get("time_lost_ns", 0.0),
            )
        )
    return "\n".join(lines)


# Counters of auto/batch launches the batch tier declined, by reason.
DECLINED_PREFIX = "executor.batch_declined."


def _slug(reason):
    """A decline reason as a metric-name segment: ``image loads`` ->
    ``image-loads``."""
    return re.sub(r"[^a-z0-9]+", "-", reason.lower()).strip("-")


def render_executor_summary(summary):
    """The single canonical text rendering of executor-tier and
    kernel-cache counters, keyed by the canonical metric names."""
    if not summary:
        return ""
    tiers = summary.get("executor.launches", {}) or {}
    hits = summary.get("cache.hits", 0)
    misses = summary.get("cache.misses", 0)
    disk_hits = summary.get("cache.disk_hits", 0)
    if not tiers and not hits and not misses and not disk_hits:
        return ""
    parts = [
        "launches.{}={}".format(tier, count)
        for tier, count in sorted(tiers.items())
    ]
    parts += [
        "batch_declined.{}={}".format(reason, count)
        for reason, count in sorted(
            (summary.get("executor.batch_declined") or {}).items()
        )
    ]
    parts.append("cache.hits={}".format(hits))
    if disk_hits:
        parts.append("cache.disk_hits={}".format(disk_hits))
    parts.append("cache.misses={}".format(misses))
    return "executor: " + " ".join(parts)


class ExecutionProfile:
    """Aggregated stage times for one end-to-end run, plus per-task
    detail, the failure ledger, the run's metrics registry, and the
    tracer every instrumented layer reaches through ``profile.tracer``
    (the :data:`~repro.runtime.tracing.NULL_TRACER` no-op unless the
    run asked for a trace). All figures are simulated nanoseconds."""

    def __init__(self, tracer=None):
        self.stages = StageTimes()
        self.per_task = {}
        self.kernel_launches = 0
        self.bytes_to_device = 0
        self.bytes_from_device = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = MetricsRegistry()
        self.faults = FailureLedger(metrics=self.metrics)
        # Executor bookkeeping: launches per execution tier
        # (batch / per-item / sanitized) and kernel-cache traffic.
        self.tier_launches = {}
        self.cache_hits = 0
        self.cache_disk_hits = 0
        self.cache_misses = 0

    def record_tier(self, tier, declined=None):
        """Count one kernel launch against the tier that executed it;
        ``declined`` is why a batch request ran per-item, if it did."""
        self.tier_launches[tier] = self.tier_launches.get(tier, 0) + 1
        self.metrics.inc("executor.launches.{}".format(tier))
        if declined:
            self.metrics.inc(DECLINED_PREFIX + _slug(declined))

    def record_cache(self, hit):
        """Count one kernel-cache lookup. ``hit`` is either the legacy
        bool (in-memory hit / codegen miss) or a kind string: ``"hit"``
        (LRU), ``"disk"`` (served from the content-addressed on-disk
        store — no codegen ran, but it was not in memory either), or
        ``"miss"`` (codegen ran)."""
        if hit is True:
            kind = "hit"
        elif hit is False:
            kind = "miss"
        else:
            kind = hit
        if kind == "hit":
            self.cache_hits += 1
            self.metrics.inc("cache.hits")
        elif kind == "disk":
            self.cache_disk_hits += 1
            self.metrics.inc("cache.disk_hits")
        else:
            self.cache_misses += 1
            self.metrics.inc("cache.misses")

    def executor_summary(self):
        """Tier and compilation-cache counters for reports, keyed by the
        canonical metric names (the pre-tracing ``tiers`` /
        ``cache_hits`` / ``cache_misses`` aliases completed their
        one-release deprecation and are gone)."""
        declined = {
            name[len(DECLINED_PREFIX):]: self.metrics.get(name)
            for name in self.metrics.names()
            if name.startswith(DECLINED_PREFIX)
        }
        return {
            "executor.launches": dict(sorted(self.tier_launches.items())),
            "executor.batch_declined": declined,
            "cache.hits": self.cache_hits,
            "cache.disk_hits": self.cache_disk_hits,
            "cache.misses": self.cache_misses,
        }

    def task_stages(self, task_name):
        if task_name not in self.per_task:
            self.per_task[task_name] = StageTimes()
        return self.per_task[task_name]

    def record(self, task_name, stage_times):
        self.stages.add(stage_times)
        self.task_stages(task_name).add(stage_times)
        self.metrics.histogram("task.invoke_ns").observe(stage_times.total())

    def restore(self, task_name, stage_dict, profile_delta=None):
        """Journal replay: re-apply a completed item's stage times and
        executor bookkeeping without re-observing metrics (histograms
        and counters are restored separately via
        :meth:`MetricsRegistry.merge_delta`)."""
        st = StageTimes(
            **{k: v for k, v in stage_dict.items() if k != "total"}
        )
        self.stages.add(st)
        self.task_stages(task_name).add(st)
        if profile_delta:
            self.kernel_launches += profile_delta.get("kernel_launches", 0)
            self.bytes_to_device += profile_delta.get("bytes_to_device", 0)
            self.bytes_from_device += profile_delta.get(
                "bytes_from_device", 0
            )
            for tier, count in profile_delta.get(
                "tier_launches", {}
            ).items():
                self.tier_launches[tier] = (
                    self.tier_launches.get(tier, 0) + count
                )

    def record_recovery(self, task_name, ns):
        """Charge fault-recovery overhead (failed partial attempts,
        retry backoff) to the ``recovery`` stage."""
        if ns <= 0:
            return
        self.stages.recovery += ns
        self.task_stages(task_name).recovery += ns

    def total_ns(self):
        return self.stages.total()

    def communication_ns(self):
        return self.stages.communication()

    def breakdown(self):
        """Fractions per stage — the bars of Figure 9."""
        total = self.total_ns()
        if total == 0:
            return {name: 0.0 for name in self.stages.as_dict()}
        return {
            name: value / total for name, value in self.stages.as_dict().items()
        }
