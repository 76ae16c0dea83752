"""One workload of the asymcolor benchmark, run in its own process.

    python3 perfbench/bench.py --workload grid --seed 20260816 --seconds 25 --trace 0

perfbench/run.py starts this script once per benchmark run; run it
directly only to debug a workload. It imports asymcolor from the
checkout's src/, times calls to the library's public functions, checks
every output against perfbench/goldens.json and prints one JSON object
on its last line.

A workload is a fixed *pass* of ops whose results are known (goldens).
A run repeats the pass while another one fits in --seconds, so a faster
program does more passes of the same work. --seed shuffles the order of
the ops inside each pass; it does not change which ops a pass holds,
because runs with different seeds must measure the same work to be
comparable within the benchmark's bounds, and only fixed inputs can have
committed goldens.

With --trace 1 the run first measures passes untraced for half of
--seconds, then replays the same passes with every public function
wrapped (see tracing.py) and reports per-module numbers per pass.

Every reported time is in reference seconds (see speed.py); the untraced
end-to-end metrics are also given in raw work-clock seconds.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from asymcolor import density, families, graphs, harness  # noqa: E402
from asymcolor.families import verify_coloring  # noqa: E402  the untraced original

from speed import Sampler  # noqa: E402
from tracing import Tracer  # noqa: E402

MASTER_SEED = 20260816
ORACLE_BUDGET = 20_000
SETUP_REPS = 3
GOLDENS = HERE / "goldens.json"

PAIRS = {
    "K4/C4": lambda: (graphs.complete_graph(4), graphs.cycle_graph(4)),
    "K5/C4": lambda: (graphs.complete_graph(5), graphs.cycle_graph(4)),
    # two separate triangle objects, so copies can be told apart by role
    "K3/K3": lambda: (graphs.complete_graph(3), graphs.complete_graph(3)),
}

FINGERPRINT = (
    "graphs.enumerate_copies.copies.h1",
    "graphs.enumerate_copies.copies.h2",
    "graphs.enumerate_copies.copies.blocker",
    "graphs.enumerate_embeddings.yielded",
    "colorer.deletions",
    "colorer.retirements",
    "colorer.recolor_flips",
    "families.oracle.nodes",
    "grow.steps",
    "density.m_density.calls",
)


@dataclasses.dataclass
class Pass:
    # (start, end, ok) of every op attempted, on the run's clock; ok is
    # False where the op raised
    ops: list[tuple[float, float, bool]] = dataclasses.field(default_factory=list)
    output: dict = dataclasses.field(default_factory=dict)  # compared against the goldens
    notes: list[str] = dataclasses.field(default_factory=list)
    start: float = 0.0  # the whole pass, untimed checks included
    end: float = 0.0

    def record(self, start: float, end: float, ok: bool) -> None:
        self.ops.append((start, end, ok))


def _specs(pair_names) -> dict:
    return {name: density.build_pair_spec(*PAIRS[name]()) for name in pair_names}


def _error(err: BaseException) -> str:
    return f"{type(err).__name__}: {str(err).splitlines()[0] if str(err) else ''}"


class SweepWorkload:
    """harness.sweep in FullPipeline mode; one op is one trial.

    Trials run inside sweep, so the op clock is a thin wrapper on
    harness.run_trial (two clock reads per trial), removed after the pass.
    The pass output is the sha256 of render_csv per pair, with the cells
    in (n, b) order so that the shuffled grid order does not change it.
    """

    def __init__(self, name, pairs, ns, bs, trials):
        self.name = name
        self.pairs = tuple(pairs)
        self.ns = tuple(ns)
        self.bs = tuple(Fraction(b) for b in bs)
        self.trials = trials
        self.specs: dict = {}

    def keys(self) -> list[str]:
        """The output keys of a pass."""
        return list(self.pairs)

    def setup(self) -> None:
        """Pair specs plus the bound-6 catalog sweep builds before its first trial."""
        self.specs = _specs(self.pairs)
        for spec in self.specs.values():
            families.enumerate_blockers(spec, harness.DEFAULT_A_HAT_BOUND, ORACLE_BUDGET)

    def run_pass(self, rng: random.Random, clock=time.perf_counter) -> Pass:
        rec = Pass()
        run_trial = harness.run_trial

        def timed_trial(*args, **kwargs):
            t0 = clock()
            try:
                result = run_trial(*args, **kwargs)
            except Exception:
                rec.record(t0, clock(), False)
                raise
            rec.record(t0, clock(), True)
            return result

        pairs, ns, bs = list(self.pairs), list(self.ns), list(self.bs)
        rng.shuffle(pairs)
        harness.run_trial = timed_trial
        try:
            for name in pairs:
                rng.shuffle(ns)
                rng.shuffle(bs)
                t0, ops_before = clock(), len(rec.ops)
                try:
                    report = harness.sweep(
                        self.specs[name], ns, bs, self.trials, MASTER_SEED,
                        "FullPipeline", ORACLE_BUDGET,
                    )
                except Exception as err:
                    # a raising trial is already a failed op; sweep's own
                    # code raising outside a trial is counted as one too.
                    # Either way the pair has no output, which fails the run.
                    if len(rec.ops) == ops_before or rec.ops[-1][2]:
                        rec.record(t0, clock(), False)
                    rec.notes.append(f"{self.name} {name}: sweep stopped by {_error(err)}")
                    continue
                cells = tuple(sorted(report.cells, key=lambda c: (c.n, c.b)))
                csv = harness.render_csv(dataclasses.replace(report, cells=cells))
                rec.output[name] = hashlib.sha256(csv.encode()).hexdigest()
        finally:
            harness.run_trial = run_trial
        return rec


class CatalogWorkload:
    """families.enumerate_blockers at a vertex bound; one op is one catalog."""

    def __init__(self, name, pairs, bound):
        self.name = name
        self.pairs = tuple(pairs)
        self.bound = bound
        self.specs: dict = {}

    def keys(self) -> list[str]:
        return list(self.pairs)

    def setup(self) -> None:
        self.specs = _specs(self.pairs)

    def run_pass(self, rng: random.Random, clock=time.perf_counter) -> Pass:
        rec = Pass()
        pairs = list(self.pairs)
        rng.shuffle(pairs)
        for name in pairs:
            t0 = clock()
            try:
                catalog = families.enumerate_blockers(self.specs[name], self.bound, ORACLE_BUDGET)
            except Exception as err:
                rec.record(t0, clock(), False)
                rec.notes.append(f"{self.name} {name}: {_error(err)}")
                continue
            rec.record(t0, clock(), True)
            rec.output[name] = {
                "members": [graphs.emit_graph6(e.graph) for e in catalog.entries],
                "verdicts": [e.search.status for e in catalog.entries],
            }
        return rec


class OracleWorkload:
    """families.has_valid_coloring on fixed hosts; one op is one host.

    Hosts are the G(20, p(b=2)) samples of the K3/K3 b=2 cell plus
    K_{40,40}. K_{40,40} has no triangle, so every coloring is valid; its
    expected verdict is "valid" whatever the search does today.
    """

    def __init__(self, name, samples):
        self.name = name
        self.samples = samples
        self.pairs = ("K3/K3",)
        self.specs: dict = {}
        self.hosts: list = []

    def keys(self) -> list[str]:
        return [f"gnp20-b2-t{t}" for t in range(self.samples)] + ["K40,40"]

    def setup(self) -> None:
        self.specs = _specs(self.pairs)

    def _make_hosts(self) -> list:
        spec = self.specs["K3/K3"]
        b = Fraction(2)
        p = harness.edge_probability(spec, 20, b)
        hosts = [
            harness.sample_gnp(20, p, harness.derive_seed(MASTER_SEED, 20, b, t))
            for t in range(self.samples)
        ]
        return list(zip(self.keys(), hosts + [graphs.complete_bipartite(40, 40)]))

    def run_pass(self, rng: random.Random, clock=time.perf_counter) -> Pass:
        rec = Pass()
        spec = self.specs["K3/K3"]
        if not self.hosts:  # inputs are made once, outside the op clock
            self.hosts = self._make_hosts()
        hosts = list(self.hosts)
        rng.shuffle(hosts)
        for name, g in hosts:
            t0 = clock()
            try:
                search = families.has_valid_coloring(g, spec, ORACLE_BUDGET)
            except Exception as err:
                rec.record(t0, clock(), False)
                rec.notes.append(f"{self.name} {name}: {_error(err)}")
                continue
            rec.record(t0, clock(), True)
            rec.output[name] = search.status
            if search.status == "valid" and not verify_coloring(search.coloring, spec).ok:
                rec.output[name] = "valid-but-fails-verify_coloring"
        return rec


def workloads() -> dict:
    quarter, half, one = Fraction(1, 4), Fraction(1, 2), Fraction(1)
    return {
        "grid": SweepWorkload(
            "grid", ("K4/C4", "K5/C4", "K3/K3"), (20, 30, 40), (quarter, half, one), trials=6
        ),
        "catalog": CatalogWorkload("catalog", ("K3/K3", "K4/C4"), bound=7),
        "stuck": SweepWorkload("stuck", ("K3/K3",), (20,), (Fraction(3, 2),), trials=200),
        "oracle": OracleWorkload("oracle", samples=20),
    }


# ---------------------------------------------------------------------------
# running and reporting


def golden_problems(name: str, output: dict, golden: dict) -> list[str]:
    """Every golden a pass did not match: an output that differs, an
    output the goldens do not know, and a golden key the pass gave no
    output for. An op that raised, or a sweep that stopped, leaves its key
    without output, which fails the run unless the goldens list the key
    under known_failures (an op that raises today, counted as a failed op)."""
    want_all = golden["output"]
    known = set(golden.get("known_failures", ()))
    problems = []
    for key in sorted(want_all.keys() | output.keys()):
        if key not in output:
            if key not in known:
                problems.append(f"{name} {key}: no output, golden is {want_all[key]!r}")
        elif output[key] != want_all.get(key):
            problems.append(
                f"{name} {key}: output {output[key]!r} differs from golden {want_all.get(key)!r}"
            )
    return problems


def timed_pass(wl, seed: int, index: int, clock) -> Pass:
    start = clock()
    p = wl.run_pass(random.Random(f"{seed}:{index}"), clock)
    p.start, p.end = start, clock()
    return p


def run_passes(wl, seed: int, seconds: float, clock) -> list[Pass]:
    """Passes while another one is expected to fit in `seconds`; at least one."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(timed_pass(wl, seed, len(passes), clock))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(q.end - q.start for q in passes) > seconds:
            return passes


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list[Pass], setups: list[tuple[float, float]], seconds) -> dict:
    """The end-to-end metrics, with every work-clock interval [t0, t1]
    turned into seconds by seconds(t0, t1)."""
    op_s = [[seconds(t0, t1) for t0, t1, _ in p.ops] for p in passes]
    flat_s = [s for per_pass in op_s for s in per_pass]
    op_ok = [ok for p in passes for _, _, ok in p.ops]
    # a failed op misses every latency limit
    latency_ms = [s * 1000.0 if ok else math.inf for s, ok in zip(flat_s, op_ok)]
    return {
        "wall_s": statistics.median(sum(per_pass) for per_pass in op_s),
        "ops_per_s": len(flat_s) / sum(flat_s),
        "op_ms.p50": percentile(latency_ms, 0.5),
        "op_ms.p90": percentile(latency_ms, 0.9),
        "setup_s": statistics.median(seconds(t0, t1) for t0, t1 in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": sum(op_ok) / len(op_ok),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, passes: int, factor: float, overhead_s: float) -> dict:
    """Per-pass values; times in reference seconds via factor."""
    st = {name: t * factor for name, t in tracer.self_times().items()}
    c = tracer.counters

    def self_s(span: str) -> float:
        return st.get(span, 0.0) / passes

    def per(counter: str) -> float:
        return c[counter] / passes

    copies = sum(c["graphs.enumerate_copies.copies." + r] for r in ("h1", "h2", "blocker"))
    return {
        "harness.sample_gnp.self_s": self_s("harness.sample_gnp"),
        "harness.sample_gnp.edges": per("harness.sample_gnp.edges"),
        "harness.run_trial.self_s": self_s("harness.run_trial"),
        "graphs.enumerate_copies.self_s": self_s("graphs.enumerate_copies"),
        "graphs.enumerate_copies.calls": per("graphs.enumerate_copies.calls"),
        "graphs.enumerate_copies.copies.h1": per("graphs.enumerate_copies.copies.h1"),
        "graphs.enumerate_copies.copies.h2": per("graphs.enumerate_copies.copies.h2"),
        "graphs.enumerate_copies.copies.blocker": per("graphs.enumerate_copies.copies.blocker"),
        "graphs.enumerate_embeddings.yielded": per("graphs.enumerate_embeddings.yielded"),
        "graphs.copy_yield_ratio": _ratio(copies, c["graphs.enumerate_embeddings.yielded"]),
        "graphs.graphs_up_to.self_s": self_s("graphs.graphs_up_to"),
        "graphs.canonical_form.calls": per("graphs.canonical_form.calls"),
        "density.m_density.self_s": self_s("density.m_density"),
        "density.m_density.calls": per("density.m_density.calls"),
        "families.verify_coloring.self_s": self_s("families.verify_coloring"),
        "families.verify_coloring.calls": per("families.verify_coloring.calls"),
        "families.verify_coloring.per_colored": _ratio(
            c["families.verify_coloring.calls"], c["colorer.colored"]
        ),
        "families.has_valid_coloring.self_s": self_s("families.has_valid_coloring"),
        "families.has_valid_coloring.calls": per("families.has_valid_coloring.calls"),
        "families.oracle.nodes": per("families.oracle.nodes"),
        "families.oracle.nodes_per_s": _ratio(
            c["families.oracle.nodes"], st.get("families.has_valid_coloring", 0.0)
        ),
        "families.oracle.wasted_node_ratio": _ratio(
            c["families.oracle.wasted_nodes"], c["families.oracle.nodes"]
        ),
        "families.blocker_decomposition.self_s": self_s("families.blocker_decomposition"),
        "families.blocker_decomposition.calls": per("families.blocker_decomposition.calls"),
        "families.family_report.self_s": self_s("families.family_report"),
        "families.family_report.calls": per("families.family_report.calls"),
        "families.color_by_members.self_s": self_s("families.color_by_members"),
        "families.is_blocker.calls": per("families.is_blocker.calls"),
        "families.is_blocker.accept_ratio": _ratio(
            c["families.is_blocker.accepted"], c["families.is_blocker.calls"]
        ),
        "families.enumerate_blockers.self_s": self_s("families.enumerate_blockers"),
        "colorer.asym_edge_color.self_s": self_s("colorer.asym_edge_color"),
        "colorer.deletions": per("colorer.deletions"),
        "colorer.retirements": per("colorer.retirements"),
        "colorer.recolor_flips": per("colorer.recolor_flips"),
        "colorer.colored_ratio": _ratio(c["colorer.colored"], c["colorer.asym_edge_color.calls"]),
        "colorer.check_stuck_state.self_s": self_s("colorer.check_stuck_state"),
        "grow.self_s": self_s("grow"),
        "grow.steps": per("grow.steps"),
        "grow.error_ratio": _ratio(c["grow.raised"], c["grow.calls"]),
        "trace.overhead_s": overhead_s,
    }


def fingerprint_changes(name: str, counts: dict, golden: dict) -> list[str]:
    want = golden.get("fingerprint", {})
    changed = [
        f"fingerprint {name}: {key} changed {want.get(key)} -> {counts[key]}"
        for key in FINGERPRINT
        if want.get(key) != counts[key]
    ]
    return changed or [f"fingerprint {name}: unchanged"]


def roles(wl) -> dict[int, str]:
    out = {}
    for spec in wl.specs.values():
        out[id(spec.h1)] = "h1"
        out[id(spec.h2)] = "h2"
    return out


def run(wl, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    """One benchmark run of workload wl; returns the result object."""
    sampler = Sampler()
    clock = sampler.work_clock
    with sampler.running():
        setups = []
        for _ in range(1 if trace else SETUP_REPS):
            t0 = clock()
            wl.setup()
            setups.append((t0, clock()))

        passes = run_passes(wl, seed, seconds / 2 if trace else seconds, clock)
        if trace:
            tracer = Tracer(roles(wl))
            traced: list[Pass] = []
            with tracer.installed():
                for i in range(len(passes)):
                    traced.append(timed_pass(wl, seed, i, clock))
                    if i == 0:
                        first_counts = {key: tracer.counters[key] for key in FINGERPRINT}

    notes: list[str] = []
    problems: list[str] = []
    for p in passes + (traced if trace else []):
        notes.extend(p.notes)
        problems.extend(golden_problems(wl.name, p.output, golden))
    if trace:
        notes.extend(fingerprint_changes(wl.name, first_counts, golden))
        overhead = sum(sampler.ref_seconds(p.start, p.end) for p in traced) - sum(
            sampler.ref_seconds(p.start, p.end) for p in passes
        )
        factor = sampler.factor(traced[0].start, traced[-1].end)
        metrics = per_layer(tracer, len(passes), factor, overhead / len(passes))
        ops = [ok for p in traced for _, _, ok in p.ops]
    else:
        metrics = end_to_end(passes, setups, sampler.ref_seconds)
        raw = end_to_end(passes, setups, lambda t0, t1: t1 - t0)
        ops = [ok for p in passes for _, _, ok in p.ops]

    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": ops.count(False),
        "metrics": metrics,
        # the untraced metrics in work-clock seconds, without the reference scaling
        "raw_metrics": {} if trace else raw,
        "passes": len(passes),
        "notes": list(dict.fromkeys(problems + notes)),
    }


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, default=MASTER_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import asymcolor

    src = (ROOT / "src").resolve()
    if src not in Path(asymcolor.__file__).resolve().parents:
        print(f"asymcolor was imported from {asymcolor.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = run(
        workloads()[args.workload], args.seed, args.seconds, bool(args.trace),
        load_goldens()[args.workload],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
