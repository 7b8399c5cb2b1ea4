"""Content-addressed compilation cache for kernel IR.

``compile_filter`` rebuilds kernel IR from scratch for every stream
task and every :class:`Offloader`, so without a cache the simulator
re-runs codegen (IR -> Python source -> ``exec``) for kernels it has
already compiled — across stream items, engine runs, and evaluation
sweeps. The cache keys compiled artifacts by *content*:

    (IR fingerprint, compiler options, sanitizer config, device)

- The **fingerprint** is a SHA-256 over a canonical serialization of
  the kernel IR (params, in-kernel arrays, statements, types). Site
  ids and the free-form ``meta`` dict are excluded: sites are
  derived deterministically from the structure, and ``meta`` is
  consumed by the host glue, not by codegen.
- **Options** (``OptimizationConfig.describe()``) are part of the key
  because memory-plan toggles change the IR *and* because a future
  option may change codegen without changing the IR.
- The **sanitizer config** is part of the key so that toggling
  ``--sanitize`` can never reuse an artifact compiled for a different
  instrumentation level (see ``tests/opencl/test_kernel_cache.py``).
- The **device** name is included because memory plans are
  device-shaped.

The cache is bounded (LRU) and module-global: hit/miss counts are
exposed both globally and per :class:`ExecutionProfile` via the
``profile`` argument of :func:`cached_compile_kernel`.

The LRU can additionally be backed by a content-addressed **on-disk
store** (:class:`DiskKernelStore`) keyed by the *same* tuple, so a
restarted process recompiles nothing: lookups miss the in-memory LRU,
load the pickled :meth:`CompiledKernel.artifact` from disk, and count
as ``cache.disk_hits`` (codegen never runs). Enable it with
:func:`configure_disk_store`, the ``REPRO_KERNEL_CACHE_DIR``
environment variable, or ``repro run --kernel-cache DIR`` (``--journal
DIR`` defaults it to ``DIR/kernels``). Artifacts are written with
:func:`repro.ioutil.atomic_write`; a torn or unpicklable artifact is a
cache miss, never an error.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import threading
from collections import OrderedDict

from repro.backend import kernel_ir as K
from repro.ioutil import atomic_write
from repro.opencl.executor import DISK_ARTIFACT_VERSION, CompiledKernel
from repro.runtime.tracing import NULL_TRACER

DEFAULT_CAPACITY = 128

KERNEL_CACHE_DIR_ENV = "REPRO_KERNEL_CACHE_DIR"

# Fields that do not affect the compiled artifact.
_SKIP_FIELDS = frozenset({"site", "meta"})


def _serialize(node, out):
    """Append a canonical token stream for ``node`` to ``out``."""
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        out.append(type(node).__name__)
        out.append("(")
        for f in dataclasses.fields(node):
            if f.name in _SKIP_FIELDS:
                continue
            out.append(f.name + "=")
            _serialize(getattr(node, f.name), out)
        out.append(")")
    elif isinstance(node, enum.Enum):
        out.append(type(node).__name__ + "." + node.name)
    elif isinstance(node, (list, tuple)):
        out.append("[")
        for item in node:
            _serialize(item, out)
            out.append(",")
        out.append("]")
    elif isinstance(node, float):
        # repr round-trips floats exactly (incl. -0.0 vs 0.0).
        out.append("f" + repr(node))
    elif isinstance(node, bool):
        out.append("b" + repr(node))
    elif isinstance(node, int):
        out.append("i" + repr(node))
    elif isinstance(node, str):
        out.append("s" + repr(node))
    elif node is None:
        out.append("~")
    else:
        raise TypeError(
            "cannot fingerprint {} in kernel IR".format(type(node).__name__)
        )


def kernel_fingerprint(kernel):
    """Deterministic SHA-256 hex digest of a kernel's compiled content."""
    out = []
    _serialize(kernel, out)
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()


def sanitizer_key(sanitizer):
    """Stable cache-key component for a SanitizerConfig (or None)."""
    if sanitizer is None:
        return "none"
    return "bounds={},races={},divergence={},nan={},deadline={},validate={}".format(
        sanitizer.bounds,
        sanitizer.races,
        sanitizer.divergence,
        sanitizer.nan_poison,
        sanitizer.deadline_ns,
        sanitizer.validate_every,
    )


class DiskKernelStore:
    """Content-addressed on-disk store of pickled
    :meth:`CompiledKernel.artifact` snapshots.

    Filenames are the SHA-256 of the full cache key, so the same
    directory safely holds artifacts for every (options, sanitizer,
    device) combination. Writes go through
    :func:`repro.ioutil.atomic_write`; loads treat *any* failure —
    missing file, torn pickle, version or key mismatch — as a miss and
    count it in :attr:`corrupt` when the file existed but could not be
    trusted.
    """

    def __init__(self, root):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.loads = 0
        self.stores = 0
        self.corrupt = 0

    def _path(self, key):
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return os.path.join(self.root, digest + ".kpkl")

    def load(self, key):
        """The stored :class:`CompiledKernel` for ``key``, or None."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            self.corrupt += 1
            return None
        try:
            if payload.get("key") != list(key):
                raise ValueError("key mismatch")
            entry = CompiledKernel.from_artifact(payload["artifact"])
        except Exception:
            self.corrupt += 1
            return None
        self.loads += 1
        return entry

    def store(self, key, compiled):
        payload = {
            "version": DISK_ARTIFACT_VERSION,
            "key": list(key),
            "artifact": compiled.artifact(),
        }
        atomic_write(self._path(key), pickle.dumps(payload))
        self.stores += 1


_DISK_STORE = None
_DISK_STORE_CONFIGURED = False


def configure_disk_store(root):
    """Set (or with None, clear) the process-wide on-disk kernel store.

    Overrides the ``REPRO_KERNEL_CACHE_DIR`` environment variable.
    """
    global _DISK_STORE, _DISK_STORE_CONFIGURED
    if root is None:
        _DISK_STORE = None
        _DISK_STORE_CONFIGURED = False
    else:
        _DISK_STORE = DiskKernelStore(root)
        _DISK_STORE_CONFIGURED = True
    return _DISK_STORE


def active_disk_store():
    """The configured store, else one resolved from the environment."""
    global _DISK_STORE
    if _DISK_STORE_CONFIGURED:
        return _DISK_STORE
    env = os.environ.get(KERNEL_CACHE_DIR_ENV)
    if not env:
        return None
    if _DISK_STORE is None or os.fspath(_DISK_STORE.root) != env:
        _DISK_STORE = DiskKernelStore(env)
    return _DISK_STORE


class KernelCache:
    """Bounded LRU cache of :class:`CompiledKernel` artifacts."""

    def __init__(self, capacity=DEFAULT_CAPACITY):
        self.capacity = capacity
        self._entries = OrderedDict()
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0
        # The cache is shared by every concurrent serving session; one
        # lock covers the LRU mutation *and* the compile-on-miss, so
        # two sessions missing on the same kernel serialize (the
        # second one hits) instead of compiling twice or corrupting
        # the OrderedDict.
        self._lock = threading.RLock()

    def __len__(self):
        return len(self._entries)

    def lookup(self, kernel, options="", sanitizer="", device="", store=None):
        """Resolve ``kernel`` to a compiled entry (thread-safe).

        Returns ``(entry, kind)`` where kind is ``"hit"`` (in-memory
        LRU), ``"disk"`` (loaded from ``store`` — no codegen ran), or
        ``"miss"`` (codegen ran; the result is saved to ``store`` when
        one is given).
        """
        key = (kernel_fingerprint(kernel), options, sanitizer, device)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry, "hit"
            kind = "miss"
            if store is not None:
                entry = store.load(key)
                if entry is not None:
                    kind = "disk"
                    self.disk_hits += 1
            if entry is None:
                self.misses += 1
                entry = CompiledKernel(kernel)
                if store is not None:
                    store.store(key, entry)
            self._entries[key] = entry
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return entry, kind

    def clear(self):
        self._entries.clear()

    def stats(self):
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
        }


_GLOBAL_CACHE = KernelCache()


def reset_global_cache():
    """Drop all entries and zero the counters (test isolation)."""
    global _GLOBAL_CACHE
    _GLOBAL_CACHE = KernelCache()
    return _GLOBAL_CACHE


def cached_compile_kernel(
    kernel, options="", sanitizer="", device="", profile=None
):
    """Compile ``kernel`` through the global cache.

    ``profile`` (an :class:`repro.runtime.profiler.ExecutionProfile`)
    gets its per-run hit/miss counters bumped when provided, and its
    tracer records a "cache_lookup" span (wall time covers codegen on a
    miss) plus a hit/miss instant.
    """
    tracer = profile.tracer if profile is not None else NULL_TRACER
    store = active_disk_store()
    with tracer.span("cache_lookup", cat="compile", kernel=kernel.name) as sp:
        compiled, kind = _GLOBAL_CACHE.lookup(
            kernel,
            options=options,
            sanitizer=sanitizer,
            device=device,
            store=store,
        )
        sp.set(hit=kind != "miss", kind=kind)
    tracer.instant(
        "cache_hit" if kind != "miss" else "cache_miss",
        cat="compile",
        kernel=kernel.name,
    )
    if profile is not None:
        profile.record_cache(kind)
    return compiled
