"""Regenerate perfbench/goldens.json from the current asymcolor sources.

    python3 perfbench/make_goldens.py [workload ...]

For each workload it runs one pass untraced, whose outputs become the
goldens, and one pass traced, whose work counters become the counter
fingerprint. Only regenerate when the benchmark's passes change, or when
a change to asymcolor is meant to change its outputs or counters, and say
why in the change that commits the new file.
"""

from __future__ import annotations

import json
import random
import sys

import bench
from tracing import Tracer

# Known verdicts for hosts the oracle cannot decide today: K_{40,40} has
# no triangle, so under K3/K3 every coloring of it is valid. Such an op
# may fail (it raises RecursionError today); it is then listed under
# known_failures and counted as a failed op, not as a missing output.
KNOWN_VERDICTS = {"oracle": {"K40,40": "valid"}}


def golden_for(wl) -> dict:
    wl.setup()
    plain = wl.run_pass(random.Random(0))
    tracer = Tracer(bench.roles(wl))
    with tracer.installed():
        traced = wl.run_pass(random.Random(0))
    if traced.output != plain.output:
        raise SystemExit(f"{wl.name}: traced and untraced outputs differ")
    for note in plain.notes:
        print(note, file=sys.stderr)
    known = KNOWN_VERDICTS.get(wl.name, {})
    missing = set(wl.keys()) - plain.output.keys()
    if missing - known.keys():
        raise SystemExit(f"{wl.name}: no output for {sorted(missing - known.keys())}")
    output = {**known, **plain.output}
    return {
        "output": dict(sorted(output.items())),
        "known_failures": sorted(missing),
        "fingerprint": {key: tracer.counters[key] for key in bench.FINGERPRINT},
    }


def main(names: list[str]) -> int:
    all_workloads = bench.workloads()
    goldens = bench.load_goldens() if bench.GOLDENS.exists() else {}
    for name in names or sorted(all_workloads):
        goldens[name] = golden_for(all_workloads[name])
        print(f"{name}: {json.dumps(goldens[name]['fingerprint'])}", file=sys.stderr)
    bench.GOLDENS.write_text(json.dumps(dict(sorted(goldens.items())), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
