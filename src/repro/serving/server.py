"""The serving daemon: shared fleet, drain protocol, tenant metrics.

:class:`ServeDaemon` owns the process-wide serving state:

- one shared :class:`repro.runtime.fleet.DeviceFleet` (when device keys
  are configured) that every session's
  :class:`repro.compiler.pipeline.FleetOffloader` schedules onto — so
  sessions contend for the same health-scored devices and a device
  death degrades *placement* for everyone while each healthy session
  keeps its own results bit-exact;
- one daemon-level :class:`repro.runtime.profiler.ExecutionProfile`
  whose registry holds ``serving.*`` counters and the fleet's health
  events (the monitor is bound to it once, and shared-fleet offloaders
  do not rebind);
- the :class:`repro.serving.admission.AdmissionController` (per-tenant
  quotas + registries) and the bounded
  :class:`repro.serving.scheduler.FleetScheduler`.

Graceful degradation contract:

- a device killed mid-serve fails affected launches over to surviving
  fleet devices (or demotes to host) via the existing resilience layer;
  sessions on healthy devices are untouched;
- SIGTERM/SIGINT (or ``drain_after_ms``) starts a *drain*: admission
  shuts (``AdmissionRejected(draining)``), queued sessions are pulled
  un-run, running sessions stop at their next item boundary with the
  in-flight item journaled, and the daemon exits cleanly — ``repro
  serve --resume`` re-admits every non-completed session and replays
  its journal bit-exactly.

Metric attribution: each session runs in its own engine with a private
registry; its final ``RunResult.metrics_delta`` is merged once into the
session's tenant registry (under the admission lock) and once into the
daemon registry (under the daemon lock). Per-tenant registries
therefore sum to the daemon's session-scoped metrics exactly.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.apps.registry import get_benchmark
from repro.errors import (
    AdmissionRejected,
    ReproError,
    SessionAborted,
    SessionDeadlineExceeded,
    SessionDrained,
    TenantBudgetExceeded,
)
from repro.evaluation.harness import run_configuration
from repro.runtime.profiler import ExecutionProfile
from repro.runtime.resilience import FleetPolicy, ResiliencePolicy
from repro.serving import session as sess
from repro.serving.admission import AdmissionController, TenantQuota
from repro.serving.scheduler import FleetScheduler
from repro.serving.session import Session, load_session_specs


@dataclass
class ServeConfig:
    """Everything the daemon needs, grouped so the CLI and the load
    generator construct it the same way."""

    # placement
    devices: Optional[list] = None  # fleet keys; None = single target
    target: str = "gtx580"
    fleet_policy: Optional[str] = None
    # dispatch schedule for the shared fleet's command queues:
    # "concurrent" lets sessions genuinely share fleet throughput
    # (each queue's cursor is monotonic across sessions), "sequential"
    # keeps one item in flight per session.
    fleet_schedule: str = "concurrent"
    # scheduling + admission
    max_concurrency: int = 4
    queue_depth: int = 16
    tenant_max_inflight: int = 4
    tenant_sim_budget_ns: Optional[float] = None
    # per-session run shape
    max_sim_items: Optional[int] = None
    exec_tier: Optional[str] = None
    session_deadline_ms: Optional[float] = None
    # tail tolerance: "on" arms hedged launches on the shared fleet;
    # each session's deadline fraction shrinks its own hedge budget,
    # so near-deadline sessions hedge eagerly (docs/HEDGING.md).
    hedge: str = "off"
    # chaos
    fault_rate: float = 0.0
    fault_seed: int = 0
    validate_every: int = 0
    breaker_cooloff: Optional[int] = None
    kill_devices: dict = field(default_factory=dict)
    oom_bytes: int = 0
    # persistence
    serve_dir: Optional[str] = None
    resume: bool = False


class ServeDaemon:
    """A long-lived multi-session serving loop (see module docstring)."""

    def __init__(self, config):
        self.config = config
        self.profile = ExecutionProfile()
        self.metrics = self.profile.metrics
        self._metrics_lock = threading.Lock()
        self.controller = AdmissionController(
            default_quota=TenantQuota(
                max_inflight=config.tenant_max_inflight,
                sim_budget_ns=config.tenant_sim_budget_ns,
            ),
            metrics=self.metrics,
        )
        self.fleet = None
        if config.devices:
            from repro.runtime.fleet import DeviceFleet

            from dataclasses import replace

            policy = config.fleet_policy
            if isinstance(policy, str):
                policy = FleetPolicy(policy=policy)
            policy = replace(
                policy or FleetPolicy(),
                schedule=config.fleet_schedule or "concurrent",
                hedge=config.hedge or "off",
            )
            self.fleet = DeviceFleet(list(config.devices), policy=policy)
            self.fleet.monitor.bind(self.profile)
        self.scheduler = FleetScheduler(
            self._run_session,
            max_concurrency=config.max_concurrency,
            queue_depth=config.queue_depth,
        )
        self.sessions = {}
        self._registry_lock = threading.Lock()
        self._drain = threading.Event()
        self._drain_timer = None
        self._old_handlers = {}

    # -- submission ------------------------------------------------------------

    def submit(self, spec):
        """Admit and enqueue one session; raises
        :class:`AdmissionRejected` (code ``duplicate`` /
        ``draining`` / ``tenant_inflight`` / ``tenant_budget`` /
        ``queue_full``) when it cannot run."""
        with self._registry_lock:
            existing = self.sessions.get(spec.name)
            # A shed session may be resubmitted; anything else with the
            # same name is a live or finished duplicate.
            if existing is not None and existing.state != sess.REJECTED:
                self.controller.reject(
                    spec.tenant, spec.name, "duplicate"
                )  # raises
        self.controller.admit(spec.tenant, spec.name)  # raises on refusal
        session = Session(spec, session_dir=self._session_dir(spec.name))
        session.state = sess.QUEUED
        session.persist()
        with self._registry_lock:
            self.sessions[spec.name] = session
        if not self.scheduler.submit(session):
            session.finish(sess.REJECTED, error="queue_full")
            self.controller.shed(spec.tenant, spec.name)  # raises
        self.metrics.gauge("serving.queue.depth").set(self.scheduler.depth())
        return session

    def try_submit(self, spec):
        """:meth:`submit`, but a rejection is returned (and recorded on
        a REJECTED session object) instead of raised."""
        try:
            return self.submit(spec), None
        except AdmissionRejected as rej:
            with self._registry_lock:
                session = self.sessions.get(spec.name)
                if session is None or not session.terminal:
                    session = Session(spec)
                    session.finish(sess.REJECTED, error=rej.code)
                    self.sessions.setdefault(spec.name, session)
            return None, rej

    def _session_dir(self, name):
        if self.config.serve_dir is None:
            return None
        return os.path.join(self.config.serve_dir, "sessions", name)

    # -- the per-session runner (worker threads land here) ---------------------

    def _item_guard(self, session):
        """The engine-level guard: fires before every task item of the
        session's run. Raising here stops the run at a clean item
        boundary; ``run_configuration`` journals the abort."""

        def guard(task_name):
            if self._drain.is_set():
                raise SessionDrained(
                    "session '{}' drained at task '{}'".format(
                        session.name, task_name
                    )
                )
            if session.deadline_exceeded():
                raise SessionDeadlineExceeded(
                    "session '{}' exceeded its {:.0f} ms deadline at "
                    "task '{}'".format(
                        session.name, session.spec.deadline_ms, task_name
                    )
                )
            if self.controller.tenant_over_budget(session.tenant):
                raise TenantBudgetExceeded(
                    "tenant '{}' sim budget exhausted at task '{}'".format(
                        session.tenant, task_name
                    )
                )

        return guard

    def _make_offloader(self):
        if self.fleet is None:
            return None, None
        from repro.compiler.pipeline import FleetOffloader

        offloader = FleetOffloader(
            fleet=self.fleet,
            max_sim_items=self.config.max_sim_items,
            exec_tier=self.config.exec_tier,
        )
        return offloader, "fleet:" + "+".join(self.fleet.keys)

    def _make_resilience(self):
        cfg = self.config
        # Fresh injector per session, same seed: a session's fault
        # schedule is identical to a solo run with the same flags, so
        # served results stay bit-exact against solo baselines.
        return ResiliencePolicy.from_flags(
            fault_rate=cfg.fault_rate,
            seed=cfg.fault_seed,
            validate_every=cfg.validate_every,
            cooloff=cfg.breaker_cooloff,
            kill_devices=cfg.kill_devices,
            oom_bytes=cfg.oom_bytes,
        )

    def _run_session(self, session):
        if self._drain.is_set():
            self._settle(session, sess.DRAINED, error="drained before start")
            return
        session.mark_running()
        self.metrics.gauge("serving.queue.depth").set(self.scheduler.depth())
        cfg = self.config
        offloader, target_label = self._make_offloader()
        try:
            result = run_configuration(
                get_benchmark(session.spec.benchmark),
                target_label if offloader is not None else cfg.target,
                scale=session.spec.scale,
                steps=session.spec.steps,
                resilience=self._make_resilience(),
                max_sim_items=cfg.max_sim_items,
                exec_tier=cfg.exec_tier,
                journal=session.journal_dir(),
                resume=cfg.resume,
                offloader=offloader,
                item_guard=self._item_guard(session),
                hedge_urgency=session.deadline_fraction,
            )
        except SessionDrained as err:
            self._settle(session, sess.DRAINED, error=str(err))
        except SessionAborted as err:
            self._settle(session, sess.ABORTED, error=str(err))
        except ReproError as err:
            self._settle(
                session,
                sess.FAILED,
                error="{}: {}".format(type(err).__name__, err),
            )
        except Exception as err:  # the daemon must never crash
            self._settle(
                session,
                sess.FAILED,
                error="unexpected {}: {}".format(type(err).__name__, err),
            )
        else:
            self._settle(session, sess.COMPLETED, result=result)

    def _settle(self, session, state, result=None, error=None):
        session.finish(state, result=result, error=error)
        outcome = {
            sess.COMPLETED: "completed",
            sess.FAILED: "failed",
        }.get(state, "aborted")
        delta = result.metrics_delta if result is not None else None
        self.controller.finish(
            session.tenant,
            outcome,
            sim_ns=result.total_ns if result is not None else 0.0,
            metrics_delta=delta,
        )
        with self._metrics_lock:
            if delta:
                self.metrics.merge_delta(delta)
            self.metrics.inc("serving.sessions.{}".format(state))
            if session.wall_ms is not None:
                self.metrics.histogram("serving.session.wall_ms").observe(
                    session.wall_ms
                )

    # -- drain protocol --------------------------------------------------------

    def request_drain(self, reason="requested"):
        """Stop admitting, pull queued sessions, abort running ones at
        their next item boundary. Idempotent and signal-safe (it only
        sets flags; settlement happens on worker threads)."""
        if self._drain.is_set():
            return
        self._drain.set()
        self.controller.start_drain()
        self.metrics.inc("serving.drain.{}".format(reason))

    def _drain_queued_sessions(self):
        for session in self.scheduler.drain_queued():
            self._settle(session, sess.DRAINED, error="drained in queue")

    def install_signal_handlers(self):
        """Route SIGTERM/SIGINT to :meth:`request_drain` (main thread
        only)."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._old_handlers[signum] = signal.signal(
                signum, self._on_signal
            )

    def restore_signal_handlers(self):
        for signum, handler in self._old_handlers.items():
            signal.signal(signum, handler)
        self._old_handlers = {}

    def _on_signal(self, signum, frame):
        self.request_drain(reason=signal.Signals(signum).name.lower())

    # -- the serve loop --------------------------------------------------------

    def serve(self, specs, drain_after_ms=None, poll_s=0.02):
        """Run ``specs`` to completion (or drain) and return the report.

        Args:
            specs: :class:`SessionSpec` list; each is submitted through
                admission (rejected ones are recorded, not raised).
            drain_after_ms: optional self-drain timer — the test/CI
                stand-in for an operator's SIGTERM.
        """
        # Parse + typecheck each distinct benchmark once, serially,
        # before worker threads share the memoized CheckedProgram.
        for name in sorted({s.benchmark for s in specs}):
            get_benchmark(name).checked()
        self.scheduler.start()
        if drain_after_ms is not None:
            self._drain_timer = threading.Timer(
                drain_after_ms / 1000.0, self.request_drain, ["timer"]
            )
            self._drain_timer.daemon = True
            self._drain_timer.start()
        for spec in specs:
            self.try_submit(spec)
        try:
            while True:
                if self._drain.is_set():
                    self._drain_queued_sessions()
                with self._registry_lock:
                    live = [
                        s for s in self.sessions.values() if not s.terminal
                    ]
                if not live:
                    break
                time.sleep(poll_s)
        finally:
            if self._drain_timer is not None:
                self._drain_timer.cancel()
            self.scheduler.stop()
        return self.report()

    def resume_specs(self):
        """Sessions persisted by a previous (drained/killed) daemon in
        ``serve_dir``, ready to re-submit."""
        if self.config.serve_dir is None:
            return []
        return load_session_specs(self.config.serve_dir)

    # -- reporting -------------------------------------------------------------

    def report(self):
        with self._registry_lock:
            sessions = {
                name: s.describe() for name, s in sorted(self.sessions.items())
            }
        states = [s["state"] for s in sessions.values()]
        return {
            "sessions": sessions,
            "counts": {
                state: states.count(state)
                for state in sorted(set(states))
            },
            "tenants": self.controller.snapshot(),
            "metrics": self.metrics.as_dict(),
            "fleet": self.fleet.snapshot() if self.fleet else {},
            "queues": (
                self.fleet.queues_snapshot() if self.fleet else {}
            ),
            "drained": self._drain.is_set(),
        }


