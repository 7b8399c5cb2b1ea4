"""Compute host-interpreter checksums for seeded program runs.

Run by ``workloads.load_oracles`` as a child process when the oracle
cache misses, so the interpreter's time and memory stay out of the
measured process. Argument: one JSON request with ``program``,
``scale``, ``steps``, ``seed`` and the parent's input ``digest``.
Prints the checksum as JSON.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import seeded_bench  # noqa: E402

from repro.evaluation.harness import run_configuration  # noqa: E402


def main(argv):
    req = json.loads(argv[1])
    bench, digest = seeded_bench(req["program"], req["scale"], req["seed"])
    if digest != req["digest"]:
        raise SystemExit(
            "{}: seeded inputs differ from the parent's".format(req["program"])
        )
    result = run_configuration(bench, "bytecode", scale=req["scale"], steps=req["steps"])
    print(json.dumps(result.checksum))


if __name__ == "__main__":
    main(sys.argv)
