"""The asymcolor benchmark: one workload per invocation.

    python3 perfbench/run.py --workload grid --seed 20260816 --seconds 25 --trace 0

Run it from anywhere inside a checkout that holds src/asymcolor; it needs
nothing installed. It times `import asymcolor.harness` in nine fresh
interpreters, then runs the workload in its own process (bench.py),
prints every metric with its unit (times in reference seconds, see
speed.py, next to the raw work-clock figure of an untraced run) and, as
the last line, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 gives the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-module ones.

Exit status: 0 when every output matched its golden, 1 when one did not,
2 when the benchmark could not run (no src/asymcolor, the workload
process failed or timed out). No result line is printed in case 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the import takes about 0.1 s and is noisy; setup_s uses the median
IMPORT_REPS = 9
DEADLINE_S = 175.0

# prints the import time in raw and in reference seconds (speed.py)
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); import asymcolor.harness; "
    "t = time.perf_counter() - t0; sys.path.insert(0, sys.argv[1]); import speed; "
    "print(t, t * speed.reference_factor([speed.time_reference() for _ in range(20)]))"
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="asymcolor benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=20260816)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "asymcolor" / "__init__.py").is_file():
        return fail(f"no asymcolor sources under {ROOT / 'src'}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # a fixed hash seed keeps the iteration order of string-keyed sets and
    # dicts, and so the work done, the same in every run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    imports = []
    for _ in range(IMPORT_REPS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE)], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        if probe.returncode != 0:
            return fail(f"importing asymcolor failed:\n{probe.stderr}")
        imports.append([float(t) for t in probe.stdout.split()])

    command = [
        sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        worker = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
        )
    except subprocess.TimeoutExpired:
        return fail(f"workload {args.workload} did not finish within {DEADLINE_S:.0f} s")
    if worker.returncode != 0 or not worker.stdout.strip():
        return fail(f"workload {args.workload} exited with status {worker.returncode}")
    result = json.loads(worker.stdout.strip().splitlines()[-1])

    values, raw = result["metrics"], result["raw_metrics"]
    if not args.trace:
        raw["setup_s"] += statistics.median(t for t, _ in imports)
        values["setup_s"] += statistics.median(t for _, t in imports)
    if set(values) != set(units):
        return fail(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    infinite = [name for name, v in values.items() if not math.isfinite(v)]
    if infinite:
        return fail(f"{infinite} not finite: too many failed ops for the percentile")

    for note in result["notes"]:
        print(note)
    print(
        f"{args.workload}: seed {args.seed}, {result['passes']} pass(es), "
        f"{result['attempted']} ops attempted, {result['failed']} failed"
    )
    for name in units:
        line = f"  {name:<42} {values[name]:>16.6g} {units[name]:<6}"
        print(f"{line} (raw {raw[name]:.6g})" if name in raw else line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
