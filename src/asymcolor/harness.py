"""Seeded G(n, p) experiments around the conjectured threshold.

Floating point exists in exactly one place here: the edge probability
p = b * n**(-1/m2(h1, h2)) is evaluated as a float, clamped to [0, 1],
and compared against a 64-bit hash. Everything after the sample is the
exact machinery of the other modules.

Randomness is counter-based: edge k of a sample is present iff
sha256(seed, n, k) starts below p * 2**64, so a sample depends only on
(seed, n, p) and not on iteration order or platform. The sampler pays
only for that hash per potential edge: a small per-n table holds the
potential edges in lexicographic order with the ASCII bytes of each
index k, and each digest is compared with the threshold as bytes,
without converting it to an integer. Per-trial seeds are
themselves hashes of (master seed, n, b, trial index), which makes every
cell of a sweep independently reproducible and the aggregation
order-insensitive. Trials could run in parallel; this implementation
runs them sequentially and relies only on commutative counters.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Callable, Literal, Sequence

from .colorer import asym_edge_color, check_stuck_state
from .density import PairSpec
from .families import (
    DEFAULT_ORACLE_BUDGET,
    ColoringSearch,
    blocker_members,
    search_from_copies,
)
from .graphs import Edge, Graph, emit_graph6
from .grow import GrowError, GrowTrace, grow, grow_alt

Mode = Literal["ColorOnly", "ColorPlusOracle", "FullPipeline"]
Outcome = Literal["colored", "stuck", "oracle_valid", "oracle_invalid", "budget_exceeded"]

DEFAULT_A_HAT_BOUND = 6

CSV_HEADER = (
    "n,b_num,b_den,p,trials,colored,stuck,oracle_valid,oracle_invalid,"
    "budget_exceeded,mean_ms"
)

_U64 = 1 << 64


def _hash64(*parts) -> int:
    payload = ":".join(str(x) for x in parts).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@lru_cache(maxsize=1)
def _edge_table(n: int) -> tuple[tuple[Edge, ...], tuple[bytes, ...]]:
    """The potential edges on n vertices in lexicographic order, and the
    ASCII bytes of each one's index k. One entry is enough: a sweep samples
    one n at a time, and a rebuild costs less than one sample, while each
    further entry would keep C(n, 2) edges alive for an n no longer used."""
    edges = tuple(itertools.combinations(range(n), 2))
    return edges, tuple(str(k).encode() for k in range(len(edges)))


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with one hash per potential edge.

    Edge number k (in lexicographic order) is present iff
    sha64(seed, n, k) < p * 2**64. Deterministic across platforms and
    independent of the order edges are visited in.

    The loop does only the hash: edges and index bytes come from the per-n
    table, and a 32-byte digest sorts below the threshold's 8 big-endian
    bytes exactly when its first 8 bytes, read as an integer, are below
    the threshold (on equal first bytes the longer digest sorts above,
    which is "not below"). At p = 1 the threshold 2**64 does not fit in 8
    bytes, and the sample is complete. The table is sorted and unique, so
    the Graph skips graph()'s normalization.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} is outside [0, 1]")
    if n < 0:
        raise ValueError(f"n = {n} < 0")
    potential, keys = _edge_table(n)
    threshold = int(p * _U64)
    if threshold == _U64:
        return Graph(n, potential)
    cut = threshold.to_bytes(8, "big")
    # the digest of "seed:n:k" is the prefix's hash state extended by k
    copy = hashlib.sha256(f"{seed}:{n}:".encode()).copy
    edges = []
    for e, k in zip(potential, keys):
        h = copy()
        h.update(k)
        if h.digest() < cut:
            edges.append(e)
    return Graph(n, tuple(edges))


def edge_probability(pair: PairSpec, n: int, b: Fraction) -> float:
    """b * n**(-1/m2(h1, h2)), clamped to [0, 1]; the one float we own.
    As m2(h1, h2) > 1, b >= n gives p >= n**(1 - 1/m2(h1, h2)) >= 1, so
    it is 1 before b, which may lie past float range, is converted."""
    if b >= n:
        return 1.0
    p = float(b) * float(n) ** (-1.0 / float(pair.m2_pair))
    return min(1.0, max(0.0, p))


def derive_seed(master: int, n: int, b: Fraction, trial: int) -> int:
    """64-bit per-trial seed, stable under re-ordering of the sweep grid."""
    return _hash64(master, n, b.numerator, b.denominator, trial)


@dataclass(frozen=True)
class TrialConfig:
    pair: PairSpec
    n: int
    b: Fraction
    seed: int
    budget: int = DEFAULT_ORACLE_BUDGET
    mode: Mode = "ColorOnly"
    a_hat_bound: int = DEFAULT_A_HAT_BOUND

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", Fraction(self.b))
        if self.n < 1:
            raise ValueError(f"n = {self.n} < 1")
        if self.b <= 0:
            raise ValueError(f"b = {self.b} must be positive")
        if not 0 <= self.seed < _U64:
            raise ValueError("seed must fit in 64 bits")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.a_hat_bound < 0:
            raise ValueError(f"a_hat_bound = {self.a_hat_bound} < 0")


@dataclass(frozen=True)
class GrowSummary:
    """The λ bookkeeping of one growth trace, reduced to what reports need."""

    steps: int
    degenerate_count: int
    min_drop: Fraction | None  # smallest strict slack decrease, degenerate steps only
    initial_slack: Fraction
    final_slack: Fraction
    outcome: str

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "degenerate_count": self.degenerate_count,
            "min_drop": None if self.min_drop is None else str(self.min_drop),
            "initial_slack": str(self.initial_slack),
            "final_slack": str(self.final_slack),
            "outcome": self.outcome,
        }


def summarize_trace(trace: GrowTrace) -> GrowSummary:
    steps = trace.steps
    if not steps:
        # the density guard tripped on the seed copy itself; nothing to report
        return GrowSummary(0, 0, None, Fraction(0), Fraction(0), trace.outcome)
    drops = [s.lambda_before - s.lambda_after for s in steps if s.degenerate]
    return GrowSummary(
        steps=len(steps),
        degenerate_count=len(drops),
        min_drop=min(drops) if drops else None,
        initial_slack=steps[0].lambda_before,
        final_slack=steps[-1].lambda_after,
        outcome=trace.outcome,
    )


@dataclass(frozen=True)
class TrialResult:
    config: TrialConfig
    edge_count: int
    outcome: Outcome
    colorer_status: Literal["colored", "stuck"]
    oracle: ColoringSearch | None
    grow_trace: GrowTrace | None
    grow_error: str | None
    wall_ms: float

    @cached_property
    def grow_summary(self) -> GrowSummary | None:
        return None if self.grow_trace is None else summarize_trace(self.grow_trace)

    def to_dict(self) -> dict:
        c = self.config
        out: dict = {
            "n": c.n,
            "b": str(c.b),
            "seed": c.seed,
            "mode": c.mode,
            "p": edge_probability(c.pair, c.n, c.b),
            "edge_count": self.edge_count,
            "outcome": self.outcome,
            "colorer_status": self.colorer_status,
            "wall_ms": self.wall_ms,
        }
        if self.oracle is not None:
            out["oracle"] = {
                "status": self.oracle.status,
                "nodes_expanded": self.oracle.nodes_expanded,
            }
        if self.grow_summary is not None:
            out["grow_summary"] = self.grow_summary.to_dict()
        if self.grow_trace is not None:
            out["grow_trace"] = [s.to_dict() for s in self.grow_trace.steps]
        if self.grow_error is not None:
            out["grow_error"] = self.grow_error
        return out


def run_trial(config: TrialConfig) -> TrialResult:
    """One seeded trial in the configured mode.

    The colorer always runs, and a coloring it returns has passed the
    independent verifier (a failure raises ColorerInternalError, an
    internal invariant violation, not a result). In the oracle modes a
    stuck trial is adjudicated by the exhaustive searcher, so the outcome
    says whether the graph was genuinely uncolorable or the greedy just
    missed. The searcher reads the sample's h1/h2 copy sets from the
    colorer's outcome, so the sample's copies are enumerated once.
    config.budget bounds this search only; the colorer colours blocker
    members at the default budget.

    In FullPipeline the stuck residual is structurally verified and then
    grown from the audit's blocker decomposition. The audit enumerates the
    residual's copies afresh, as an independent check, and growth reads
    the audit's copy sets, so the residual's copies are enumerated once
    too. Growth failure is recorded, not raised, because the growth loop's
    success argument presumes an empty blocker family and pairs like the
    triangle/triangle one genuinely do not have that.

    The blocker catalog is families.blocker_members at the config's bound.
    """
    t0 = time.perf_counter()
    pair = config.pair
    p = edge_probability(pair, config.n, config.b)
    g = sample_gnp(config.n, p, config.seed)
    colorer = asym_edge_color(g, pair, blocker_members(pair, config.a_hat_bound))
    oracle = None
    trace = None
    grow_error = None

    if colorer.status == "colored":
        outcome: Outcome = "colored"
    else:
        if config.mode == "ColorOnly":
            outcome = "stuck"
        else:
            oracle = search_from_copies(g, colorer.h1_copies, colorer.h2_copies, config.budget)
            outcome = {
                "valid": "oracle_valid",
                "invalid": "oracle_invalid",
                "budget_exceeded": "budget_exceeded",
            }[oracle.status]
        if config.mode == "FullPipeline":
            decomp = check_stuck_state(colorer, pair)
            grower = grow if pair.case == "strict" else grow_alt
            try:
                _, trace = grower(decomp, pair)
            except GrowError as err:
                grow_error = str(err)

    wall = (time.perf_counter() - t0) * 1000.0
    return TrialResult(config, g.edge_count, outcome, colorer.status, oracle, trace, grow_error, wall)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepCell:
    n: int
    b: Fraction
    p: float
    trials: int
    colored: int
    stuck: int
    oracle_valid: int
    oracle_invalid: int
    budget_exceeded: int
    mean_ms: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "b": str(self.b),
            "p": self.p,
            "trials": self.trials,
            "colored": self.colored,
            "stuck": self.stuck,
            "oracle_valid": self.oracle_valid,
            "oracle_invalid": self.oracle_invalid,
            "budget_exceeded": self.budget_exceeded,
            "mean_ms": self.mean_ms,
        }


@dataclass(frozen=True)
class SweepReport:
    pair: PairSpec
    mode: Mode
    master_seed: int
    trials_per_cell: int
    a_hat_bound: int
    blocker_count: int
    cells: tuple[SweepCell, ...]
    results: tuple[TrialResult, ...]  # empty unless keep_results was set

    def to_dict(self) -> dict:
        return {
            "pair": {
                "h1": emit_graph6(self.pair.h1),
                "h2": emit_graph6(self.pair.h2),
                "case": self.pair.case,
                "m2_pair": str(self.pair.m2_pair),
                "epsilon": str(self.pair.epsilon),
            },
            "mode": self.mode,
            "master_seed": self.master_seed,
            "trials_per_cell": self.trials_per_cell,
            "a_hat_bound": self.a_hat_bound,
            "blocker_count": self.blocker_count,
            "cells": [c.to_dict() for c in self.cells],
            "monotonicity_flags": list(monotonicity_flags(self)),
        }


def _aggregate(n: int, b: Fraction, p: float, results: Sequence[TrialResult]) -> SweepCell:
    outcomes = [r.outcome for r in results]
    return SweepCell(
        n=n,
        b=b,
        p=p,
        trials=len(results),
        colored=outcomes.count("colored"),
        stuck=sum(1 for r in results if r.colorer_status == "stuck"),
        oracle_valid=outcomes.count("oracle_valid"),
        oracle_invalid=outcomes.count("oracle_invalid"),
        budget_exceeded=outcomes.count("budget_exceeded"),
        mean_ms=sum(r.wall_ms for r in results) / len(results) if results else 0.0,
    )


def sweep(
    pair: PairSpec,
    ns: Sequence[int],
    bs: Sequence[Fraction],
    trials: int,
    seed: int,
    mode: Mode = "ColorOnly",
    budget: int = DEFAULT_ORACLE_BUDGET,
    a_hat_bound: int = DEFAULT_A_HAT_BOUND,
    on_cell: Callable[[SweepCell], None] | None = None,
    keep_results: bool = False,
) -> SweepReport:
    """Run trials for every (n, b) cell of the grid.

    Per-trial seeds are derived from the master seed, so any subset of
    the grid reproduces the full run's numbers for those cells. on_cell
    fires after each cell for callers that flush partial results.
    keep_results retains every TrialResult (traces included), which the
    invariant-audit tests want and long sweeps do not.
    """
    if trials < 0:
        raise ValueError(f"trials = {trials} < 0")
    if min(ns, default=1) < 1:
        raise ValueError(f"n = {min(ns)} < 1")
    if min(bs, default=1) <= 0:
        raise ValueError(f"b = {min(bs)} must be positive")
    blocker_count = len(blocker_members(pair, a_hat_bound))
    cells = []
    kept = []
    for n in ns:
        for b in bs:
            b = Fraction(b)
            p = edge_probability(pair, n, b)
            results = [
                run_trial(
                    TrialConfig(pair, n, b, derive_seed(seed, n, b, t), budget, mode, a_hat_bound)
                )
                for t in range(trials)
            ]
            cell = _aggregate(n, b, p, results)
            cells.append(cell)
            if keep_results:
                kept.extend(results)
            if on_cell is not None:
                on_cell(cell)
    return SweepReport(
        pair, mode, seed, trials, a_hat_bound, blocker_count, tuple(cells), tuple(kept)
    )


def csv_row(cell: SweepCell, timing: bool = False) -> str:
    ms = f"{cell.mean_ms:.3f}" if timing else "0.0"
    return (
        f"{cell.n},{cell.b.numerator},{cell.b.denominator},{cell.p!r},{cell.trials},"
        f"{cell.colored},{cell.stuck},{cell.oracle_valid},{cell.oracle_invalid},"
        f"{cell.budget_exceeded},{ms}"
    )


def render_csv(report: SweepReport, timing: bool = False) -> str:
    """The report as CSV, byte-stable for a fixed master seed.

    Wall-clock means go to the JSON report; the CSV writes 0.0 unless
    timing is requested, which documents itself as breaking
    byte-reproducibility across runs.
    """
    return "\n".join([CSV_HEADER] + [csv_row(c, timing) for c in report.cells]) + "\n"


def monotonicity_flags(report: SweepReport) -> tuple[str, ...]:
    """Colored fraction should not rise with b at fixed n.

    A significant rise indicates a bug, not mathematics, so the report
    calls it out. The test is a crude two-proportion comparison at three
    standard errors, which is plenty for a tripwire.
    """
    flags = []
    by_n: dict[int, list[SweepCell]] = {}
    for c in report.cells:
        by_n.setdefault(c.n, []).append(c)
    for n in sorted(by_n):
        cells = sorted(by_n[n], key=lambda c: c.b)
        for lo, hi in zip(cells, cells[1:]):
            if lo.trials == 0 or hi.trials == 0:
                continue
            f_lo = lo.colored / lo.trials
            f_hi = hi.colored / hi.trials
            if f_hi <= f_lo:
                continue
            pooled = (lo.colored + hi.colored) / (lo.trials + hi.trials)
            se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / lo.trials + 1.0 / hi.trials))
            if f_hi - f_lo > 3.0 * se:
                flags.append(
                    f"n={n}: colored fraction rises from {f_lo:.3f} at b={lo.b} "
                    f"to {f_hi:.3f} at b={hi.b}"
                )
    return tuple(flags)
