"""Golden snapshot of the timing model's per-site verdicts.

Every launch of the ten programs (the nine Table 3 apps plus
``pipeline3``) at the default configuration is timed on three devices
that exercise different rules: the GTX 580 (relaxed coalescing, cache),
the GTX 8800 (strict pre-Fermi coalescing, 16 banks) and the HD 5970
(64-wide wavefronts). For each launch the snapshot holds ``kernel_ns``
and every site's :class:`SiteStats`. All stats are integers and
``kernel_ns`` is computed from them, so the snapshot does not depend on
the NumPy version.

The snapshot pins the timing model's *output*: a change to how sites
are analysed must leave it unchanged. Intentional model changes
re-bless with::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/opencl/test_timing_golden.py
"""

import json
import os
import pathlib

import repro.backend.glue as glue
from repro.apps.registry import ALL_BENCHMARKS, BENCHMARKS
from repro.evaluation.harness import run_configuration

GOLDEN = (
    pathlib.Path(__file__).resolve().parents[1] / "golden" / "timing_site_stats.json"
)
PROGRAMS = sorted(BENCHMARKS) + ["pipeline3"]
DEVICES = ["gtx580", "gtx8800", "hd5970"]
SCALE = 0.3
STEPS = 2

STAT_FIELDS = (
    "accesses",
    "bytes_moved",
    "is_store",
    "transactions",
    "unique_transactions",
    "conflict_cycles",
    "serial_words",
    "events",
)


def _launch_record(timing):
    sites = {
        str(site): [stats.space.name] + [int(getattr(stats, f)) for f in STAT_FIELDS]
        for site, stats in sorted(timing.site_stats.items())
    }
    return {"kernel_ns": timing.kernel_ns, "sites": sites}


def _timed_launches(program, device, monkeypatch):
    records = []
    time_launch = glue.time_launch

    def recording(trace, dev):
        timing = time_launch(trace, dev)
        records.append(dict(_launch_record(timing), kernel=trace.kernel_name))
        return timing

    with monkeypatch.context() as patch:
        patch.setattr(glue, "time_launch", recording)
        run_configuration(ALL_BENCHMARKS[program], device, scale=SCALE, steps=STEPS)
    return records


def _dump(snapshot):
    """One launch per line, so a drift shows as a readable diff."""
    lines = []
    for key in sorted(snapshot):
        launches = ",\n".join(
            json.dumps(launch, sort_keys=True) for launch in snapshot[key]
        )
        lines.append("{}: [\n{}\n]".format(json.dumps(key), launches))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_site_stats_match_golden_snapshot(monkeypatch):
    monkeypatch.delenv("REPRO_MAX_SIM_ITEMS", raising=False)
    snapshot = {
        "{}@{}".format(program, device): _timed_launches(program, device, monkeypatch)
        for device in DEVICES
        for program in PROGRAMS
    }
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN.write_text(_dump(snapshot))
        return
    assert GOLDEN.exists(), (
        "missing golden snapshot {} — run with REPRO_UPDATE_GOLDEN=1 "
        "to create it".format(GOLDEN)
    )
    expected = json.loads(GOLDEN.read_text())
    assert sorted(snapshot) == sorted(expected)
    for key in sorted(expected):
        assert len(snapshot[key]) == len(expected[key]), key
        for i, (got, want) in enumerate(zip(snapshot[key], expected[key])):
            assert got == want, "{} launch {} ({})".format(key, i, want["kernel"])

