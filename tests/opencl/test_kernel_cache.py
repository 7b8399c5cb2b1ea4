"""The content-addressed kernel-compilation cache.

Includes the regression test for the cache-key bug class this PR
guards against: the key must incorporate the **sanitizer config** and
the **compiler options** — toggling ``--sanitize`` or a memory-plan
flag after a warm cache must *never* hand back an artifact compiled
under the other setting. (An uninstrumented artifact reused for a
sanitized run would silently skip every bounds/race check.)
"""

import pytest

from repro.apps.registry import BENCHMARKS
from repro.backend import kernel_ir as K
from repro.compiler.options import OptimizationConfig
from repro.evaluation.harness import run_configuration
from repro.opencl.executor import codegen_compiles
from repro.opencl.kernel_cache import (
    KernelCache,
    kernel_fingerprint,
    reset_global_cache,
    sanitizer_key,
)
from repro.runtime.sanitizer import SanitizerConfig

I32 = K.KScalar("int")


def make_kernel(name="k", const=1):
    out = K.KParam("out", I32, K.Space.GLOBAL, is_pointer=True)
    gid = K.KCall("get_global_id", [K.KConst(0, I32)], I32)
    return K.Kernel(
        name=name,
        params=[out],
        arrays=[],
        body=[
            K.KDecl("i", I32, gid),
            K.KStore(
                "out",
                K.KVar("i", I32),
                K.KBin("+", K.KVar("i", I32), K.KConst(const, I32), I32),
                K.Space.GLOBAL,
                I32,
            ),
        ],
        meta={},
    )


class TestFingerprint:
    def test_deterministic(self):
        assert kernel_fingerprint(make_kernel()) == kernel_fingerprint(
            make_kernel()
        )

    def test_body_change_changes_fingerprint(self):
        assert kernel_fingerprint(make_kernel(const=1)) != kernel_fingerprint(
            make_kernel(const=2)
        )

    def test_name_change_changes_fingerprint(self):
        assert kernel_fingerprint(make_kernel("a")) != kernel_fingerprint(
            make_kernel("b")
        )

    def test_meta_and_sites_excluded(self):
        plain = make_kernel()
        decorated = make_kernel()
        decorated.meta["source_param"] = "xs"
        K.assign_sites(decorated)
        assert kernel_fingerprint(plain) == kernel_fingerprint(decorated)


class TestCacheBehavior:
    def test_second_compile_is_a_hit_without_codegen(self):
        cache = KernelCache()
        first, kind1 = cache.lookup(make_kernel())
        before = codegen_compiles()
        second, kind2 = cache.lookup(make_kernel())
        assert (kind1 == "hit", kind2 == "hit") == (False, True)
        assert second is first
        # The acceptance check: a cache hit runs no codegen at all.
        assert codegen_compiles() == before

    def test_sanitizer_config_is_part_of_the_key(self):
        # Regression: a warm cache must not serve the uninstrumented
        # artifact once --sanitize is toggled on (or vice versa).
        cache = KernelCache()
        plain, _ = cache.lookup(make_kernel(), sanitizer="none")
        sanitized, kind = cache.lookup(
            make_kernel(), sanitizer=sanitizer_key(SanitizerConfig())
        )
        assert kind != "hit"
        assert sanitized is not plain
        # And back again still hits the original entry.
        _, kind = cache.lookup(make_kernel(), sanitizer="none")
        assert kind == "hit"

    def test_compiler_options_are_part_of_the_key(self):
        cache = KernelCache()
        config = OptimizationConfig()
        cache.lookup(make_kernel(), options=config.describe())
        from dataclasses import replace

        toggled = replace(config, use_local=False)
        _, kind = cache.lookup(make_kernel(), options=toggled.describe())
        assert kind != "hit"
        assert cache.stats()["misses"] == 2

    def test_device_is_part_of_the_key(self):
        cache = KernelCache()
        cache.lookup(make_kernel(), device="gtx580")
        _, kind = cache.lookup(make_kernel(), device="hd5970")
        assert kind != "hit"

    def test_lru_eviction_is_bounded(self):
        cache = KernelCache(capacity=4)
        for i in range(10):
            cache.lookup(make_kernel(const=i))
        assert len(cache) == 4
        assert cache.stats()["evictions"] == 6
        # Most-recent entries survive; the oldest were evicted.
        _, kind = cache.lookup(make_kernel(const=9))
        assert kind == "hit"
        _, kind = cache.lookup(make_kernel(const=0))
        assert kind != "hit"


class TestSanitizerKey:
    def test_none_and_default_differ(self):
        assert sanitizer_key(None) != sanitizer_key(SanitizerConfig())

    def test_every_flag_matters(self):
        base = SanitizerConfig()
        from dataclasses import replace

        variants = [
            replace(base, bounds=False),
            replace(base, races=False),
            replace(base, divergence=False),
            replace(base, nan_poison=False),
            replace(base, deadline_ns=1e9),
            replace(base, validate_every=4),
        ]
        keys = {sanitizer_key(v) for v in variants}
        keys.add(sanitizer_key(base))
        assert len(keys) == len(variants) + 1


class TestEndToEnd:
    def test_second_run_hits_the_cache(self):
        reset_global_cache()
        bench = BENCHMARKS["jg-series-single"]
        first = run_configuration(
            bench, "gtx580", scale=0.1, steps=1, max_sim_items=64
        )
        assert first.executor["cache.misses"] >= 1
        assert first.executor["cache.hits"] == 0
        before = codegen_compiles()
        second = run_configuration(
            bench, "gtx580", scale=0.1, steps=1, max_sim_items=64
        )
        assert second.executor["cache.misses"] == 0
        assert second.executor["cache.hits"] >= 1
        # No codegen ran for the per-item artifact on the warm run.
        assert codegen_compiles() == before

    def test_sanitize_toggle_recompiles_end_to_end(self):
        # Regression, end-to-end flavor: warm the cache unsanitized,
        # then run guarded — the guarded run must be a miss (its
        # launches execute instrumented code, which is only correct if
        # the artifact was compiled under the sanitized key).
        reset_global_cache()
        bench = BENCHMARKS["jg-series-single"]
        run_configuration(bench, "gtx580", scale=0.1, steps=1, max_sim_items=64)
        guarded = run_configuration(
            bench,
            "gtx580",
            scale=0.1,
            steps=1,
            max_sim_items=64,
            sanitizer=SanitizerConfig(),
        )
        assert guarded.executor["cache.misses"] >= 1
        assert guarded.executor["executor.launches"].get("sanitized", 0) > 0

    def test_config_toggle_recompiles_end_to_end(self):
        reset_global_cache()
        from dataclasses import replace

        bench = BENCHMARKS["jg-series-single"]
        run_configuration(bench, "gtx580", scale=0.1, steps=1, max_sim_items=64)
        toggled = run_configuration(
            bench,
            "gtx580",
            scale=0.1,
            steps=1,
            max_sim_items=64,
            config=replace(OptimizationConfig(), vectorize=False),
        )
        assert toggled.executor["cache.misses"] >= 1
