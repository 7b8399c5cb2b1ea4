"""Schema of the committed wall-clock trajectory.

``benchmarks/results/BENCH_e2e.json`` records, per change, the
``wallbench/run.py`` numbers of the change and of its parent commit:
for each workload and seed measured, the median and quartiles of every
end-to-end metric over alternating parent/change runs, and on the
change row the number of pairs in which the change did better. A later
change may add workloads, so an entry only has to cover the workloads
it names, each with a parent and a change row. A speed-up must leave
the model's output bit-identical, so each change row must carry the
same digest as its parent row.
"""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "benchmarks" / "results" / "BENCH_e2e.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}

ENTRY_KEYS = {"change", "parent", "machine", "method", "rows"}
ROW_KEYS = {"workload", "rev", "seed", "runs", "digest", "median", "q1", "q3"}
DIGEST = re.compile(r"^sha256:[0-9a-f]{64}$")


def entries():
    data = json.loads(TRAJECTORY.read_text())
    assert data["schema"] == 1
    assert data["entries"]
    return data["entries"]


def check_row(row):
    wins = row.get("wins")
    assert set(row) == ROW_KEYS | ({"wins"} if wins is not None else set())
    assert row["workload"] in WORKLOADS
    assert row["rev"] in ("parent", "change")
    assert isinstance(row["seed"], int)
    assert isinstance(row["runs"], int) and row["runs"] >= 1
    assert DIGEST.match(row["digest"])
    assert END_TO_END <= set(row["median"])
    assert set(row["q1"]) == set(row["median"]) == set(row["q3"])
    for metric, median in row["median"].items():
        lo, hi = row["q1"][metric], row["q3"][metric]
        assert all(isinstance(v, float) and v >= 0.0 for v in (lo, median, hi))
        assert lo <= median <= hi, metric
    if wins is not None:
        assert row["rev"] == "change"
        assert set(wins) <= set(row["median"])
        assert all(0 <= n <= row["runs"] for n in wins.values())


def test_trajectory_schema():
    for entry in entries():
        assert set(entry) == ENTRY_KEYS
        assert re.match(r"^[0-9a-f]{7,40}$", entry["parent"])
        assert entry["change"] and entry["machine"] and entry["method"]
        keys = set()
        for row in entry["rows"]:
            check_row(row)
            keys.add((row["workload"], row["seed"], row["rev"]))
        assert len(keys) == len(entry["rows"]), "one row per workload, seed, rev"
        measured = {(w, seed) for w, seed, _ in keys}
        revs = ("parent", "change")
        assert keys == {(w, seed, rev) for w, seed in measured for rev in revs}


def test_change_rows_keep_parent_digests():
    for entry in entries():
        digests = {
            (r["workload"], r["seed"], r["rev"]): r["digest"] for r in entry["rows"]
        }
        for workload, seed, _ in digests:
            change = digests[workload, seed, "change"]
            parent = digests[workload, seed, "parent"]
            assert change == parent, (entry["change"], workload, seed)
