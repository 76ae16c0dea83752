"""The acceptance gate: nine end-to-end criteria over the whole stack.

Run with -s to see one PASS/FAIL line per criterion:

    python3 -m pytest tests/test_acceptance.py -s

Each criterion prints its line whether it passes or fails (the context
manager prints FAIL and re-raises), and the timed ones enforce their
wall-clock budget.
"""

import random
import time
from functools import lru_cache
from contextlib import contextmanager
from fractions import Fraction

import pytest

from asymcolor.colorer import asym_edge_color
from asymcolor.density import (
    asym_balancedness,
    balancedness,
    build_pair_spec,
    d2_asym,
    m2_asym,
    m2_density,
)
from asymcolor.families import (
    blocker_decomposition,
    enumerate_blockers,
    has_valid_coloring,
    verify_coloring,
)
from asymcolor.graphs import (
    canonical_key,
    complete_bipartite,
    complete_graph,
    cube_graph,
    cycle_graph,
    emit_graph6,
    graphs_up_to,
    is_two_connected,
    octahedron_graph,
)
from asymcolor.grow import grow_alt
from asymcolor.harness import edge_probability, render_csv, sample_gnp, sweep
from asymcolor.regular import (
    RegularPairParams,
    certificate_grid,
    enumerate_a_hat,
    gap_lower_poly,
    gap_poly,
    m2_pair_regular,
)
from flower import check_external_density, flower_deltas, random_flower, verify_overlap_density_gain


@contextmanager
def criterion(label, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nacceptance {label}: FAIL")
        raise
    wall = time.perf_counter() - t0
    if budget_s is not None and wall > budget_s:
        print(f"\nacceptance {label}: FAIL ({wall:.1f}s over the {budget_s}s budget)")
        pytest.fail(f"{label} exceeded its time budget: {wall:.1f}s > {budget_s}s")
    print(f"\nacceptance {label}: PASS ({wall:.1f}s)")


def _no_isolated(g):
    return g.edge_count > 0 and min(g.degree_sequence()) >= 1


def graphs_on(n, keep=None):
    """The classes on exactly n vertices: the last order of graphs_up_to."""
    return [g for g in graphs_up_to(n, keep) if g.vertex_count == n]


@pytest.fixture(scope="module")
def profiles():
    """Isolated-free representatives on 2..6 vertices with cached measures.

    Density measures ignore isolated vertices (they maximize over
    subgraphs), so these representatives cover every isomorphism class
    that matters, without padded duplicates.
    """
    out = []
    for n in range(2, 7):
        for g in graphs_on(n):
            if _no_isolated(g):
                out.append((g, m2_density(g)[0], balancedness(g, "strictly_two_balanced")))
    return out


PIPELINE_PAIRS = (
    (complete_graph(4), cycle_graph(4)),
    (complete_graph(5), cycle_graph(4)),
    (complete_graph(3), complete_graph(3)),
)


@lru_cache(maxsize=1)
def pipeline_reports():
    """56 FullPipeline trials per (n, b) cell, 504 per pair.

    Criterion 4 consumes the colorer outcomes, criterion 6 the retained
    grow traces; the cache makes whichever runs first pay the cost
    inside its own timer. The trial budget is deliberately small so that
    the adjudicating oracle gives up quickly on hard stuck instances
    instead of stalling the suite; budget_exceeded is an expected
    outcome.
    """
    reports = []
    for h1, h2 in PIPELINE_PAIRS:
        pair = build_pair_spec(h1, h2)
        reports.append(
            sweep(
                pair,
                [20, 30, 40],
                [Fraction(1, 4), Fraction(1, 2), Fraction(1)],
                trials=56,
                seed=20260816,
                mode="FullPipeline",
                budget=20_000,
                keep_results=True,
            )
        )
    return tuple(reports)


def test_criterion_1_density_golden_table():
    with criterion("criterion 1 (density golden table)", budget_s=1.0):
        assert m2_density(complete_graph(3))[0] == 2
        assert m2_density(complete_graph(4))[0] == Fraction(5, 2)
        assert m2_density(cycle_graph(4))[0] == Fraction(3, 2)
        assert m2_density(complete_bipartite(3, 3))[0] == 2
        assert m2_asym(complete_graph(4), cycle_graph(4))[0] == Fraction(9, 4)
        k2 = complete_graph(2)
        samples = [
            complete_graph(3),
            complete_graph(4),
            complete_graph(5),
            complete_graph(6),
            cycle_graph(4),
            cycle_graph(5),
            cycle_graph(6),
            complete_bipartite(3, 3),
            cube_graph(),
            octahedron_graph(),
        ]
        assert len(samples) == 10
        for h2 in samples:
            assert d2_asym(k2, h2) == m2_density(h2)[0]


def test_criterion_2_pair_density_sandwich(profiles):
    with criterion("criterion 2 (pair density sandwich)", budget_s=300):
        checked = 0
        for h1, m2_1, _ in profiles:
            for h2, m2_2, _ in profiles:
                if m2_1 < m2_2:
                    continue
                mid = m2_asym(h1, h2)[0]
                assert m2_1 >= mid >= m2_2, (emit_graph6(h1), emit_graph6(h2))
                if m2_1 > m2_2:
                    assert m2_1 > mid > m2_2, (emit_graph6(h1), emit_graph6(h2))
                checked += 1
        assert checked > 10_000


def test_criterion_3_two_connectivity(profiles):
    with criterion("criterion 3 (2-connectivity where balance demands it)", budget_s=300):
        balanced_seen = 0
        for n in range(3, 8):
            for g in graphs_on(n):
                if not _no_isolated(g):
                    continue
                if m2_density(g)[0] > 1 and balancedness(g, "strictly_two_balanced"):
                    assert is_two_connected(g), emit_graph6(g)
                    balanced_seen += 1
        assert balanced_seen >= 10
        pairs_checked = 0
        for h1, m2_1, _ in profiles:
            for h2, m2_2, h2_balanced in profiles:
                if not (m2_1 > m2_2 > 1) or not h2_balanced:
                    continue
                if asym_balancedness(h1, h2, strict=True):
                    assert is_two_connected(h1), (emit_graph6(h1), emit_graph6(h2))
                    pairs_checked += 1
        assert pairs_checked >= 100


def test_criterion_4_colorer_soundness():
    with criterion("criterion 4 (colorer soundness over 1512 seeded trials)", budget_s=900):
        pipeline_reports_ = pipeline_reports()
        for report in pipeline_reports_:
            results = report.results
            assert len(results) == 504
            # run_trial re-verifies every colored outcome with the
            # independent checker and raises on disagreement, so reaching
            # this point certifies all of them; replay a deterministic
            # sample from scratch anyway
            blockers = enumerate_blockers(report.pair, report.a_hat_bound).members
            for r in results[::50]:
                if r.outcome != "colored":
                    continue
                cfg = r.config
                g = sample_gnp(cfg.n, edge_probability(cfg.pair, cfg.n, cfg.b), cfg.seed)
                assert g.edge_count == r.edge_count
                replay = asym_edge_color(g, cfg.pair, blockers)
                assert replay.status == "colored"
                assert verify_coloring(replay.coloring, cfg.pair).ok
            colored = sum(1 for r in results if r.outcome == "colored")
            assert colored >= 400  # the grid sits below the threshold scaling
            for cell in report.cells:
                assert cell.colored + cell.stuck == cell.trials


def test_criterion_5_oracle_agreement():
    with criterion("criterion 5 (colorer never contradicts the oracle)", budget_s=600):
        for h1, h2 in PIPELINE_PAIRS:
            pair = build_pair_spec(h1, h2)
            blockers = enumerate_blockers(pair, 6).members
            accepted = 0
            attempt = 0
            while accepted < 200:
                g = sample_gnp(10, 0.28, seed=900_000 + attempt)
                attempt += 1
                if not 1 <= g.edge_count <= 18:
                    continue
                accepted += 1
                out = asym_edge_color(g, pair, blockers)
                search = has_valid_coloring(g, pair)
                assert search.status in ("valid", "invalid")
                if out.status == "colored":
                    assert verify_coloring(out.coloring, pair).ok
                    assert search.status == "valid"
        k3k3 = build_pair_spec(complete_graph(3), complete_graph(3))
        assert has_valid_coloring(complete_graph(6), k3k3).status == "invalid"
        assert has_valid_coloring(complete_graph(5), k3k3).status == "valid"


def test_criterion_6_slack_accounting():
    with criterion("criterion 6 (slack accounting on grow traces)"):
        audited = 0
        for report in pipeline_reports():
            lam0 = 2 - 1 / report.pair.m2_h2
            for r in report.results:
                if r.grow_trace is None:
                    continue
                trace = r.grow_trace
                for s in trace.steps:
                    if s.degenerate:
                        assert s.lambda_after < s.lambda_before
                    else:
                        assert s.lambda_after == s.lambda_before
                if trace.outcome != "special_case":
                    assert trace.steps[0].lambda_before == lam0
                audited += 1
        # a deterministic stuck instance keeps the audit non-vacuous even
        # if every sampled trial colors
        pair = build_pair_spec(complete_graph(3), complete_graph(3))
        _, trace = grow_alt(blocker_decomposition(complete_graph(6), pair, ()), pair)
        assert trace.steps[0].lambda_before == 2 - 1 / pair.m2_h2 == Fraction(3, 2)
        for s in trace.steps:
            if s.degenerate:
                assert s.lambda_after < s.lambda_before
            else:
                assert s.lambda_after == s.lambda_before
        assert audited + len(trace.steps) > 0


def test_criterion_7_overlap_density_suite():
    with criterion("criterion 7 (overlap beats disjoint, 200 flowers per pair)", budget_s=600):
        pair_builders = (
            (complete_graph(4), cycle_graph(4)),
            (complete_graph(3), complete_graph(3)),
            (cycle_graph(5), cycle_graph(6)),
        )
        for h1, h2 in pair_builders:
            pair = build_pair_spec(h1, h2)
            rng = random.Random(1234)
            made = 0
            attempt = 0
            while made < 200:
                assert attempt < 2000, "flower sampler kept failing"
                base = sample_gnp(2 + attempt % 5, 0.6, seed=77_000 + attempt)
                attempt += 1
                if base.edge_count == 0:
                    continue
                anchor = base.edges[0]
                flower = random_flower(base, anchor, pair, rng, overlap=True)
                disjoint = random_flower(base, anchor, pair, rng, overlap=False)
                assert verify_overlap_density_gain(flower, disjoint)
                audit = check_external_density(flower, pair)
                assert audit.exceeds_disjoint and audit.reconciliation_ok
                assert audit.cluster_ok and audit.fallthrough_ok
                d_audit = check_external_density(disjoint, pair)
                assert d_audit.disjoint_ratio == pair.m2_pair
                assert (d_audit.v_plus, d_audit.e_plus) == (
                    d_audit.v_plus_disjoint,
                    d_audit.e_plus_disjoint,
                )
                # the clusters partition the inner edges, their pendant
                # material is pairwise disjoint, and fall-through edges
                # re-use no earlier outer edge
                ordering = audit.ordering
                clustered = [f for c in ordering.clusters for f in c.edges]
                assert sorted(clustered + list(ordering.fallthrough)) == sorted(
                    flower.inner_edges
                )
                assert len(set(clustered)) == len(clustered)
                outer_sets = [
                    frozenset().union(*(flower.outer_edges(f) for f in c.edges))
                    for c in ordering.clusters
                ]
                for i in range(len(outer_sets)):
                    for j in range(i + 1, len(outer_sets)):
                        assert not (outer_sets[i] & outer_sets[j])
                deltas = flower_deltas(flower, ordering.order)
                for f in ordering.fallthrough:
                    assert not deltas[f][0]
                for c in ordering.clusters:
                    d_sum = sum(len(deltas[f][0]) for f in c.edges)
                    v_sum = sum(len(deltas[f][1]) for f in c.edges)
                    assert Fraction(d_sum) < pair.m2_pair * v_sum
                made += 1


def test_criterion_8_regular_pair_certificates():
    with criterion("criterion 8 (regular-pair certificate identities)", budget_s=600):
        assert gap_lower_poly(4, 5, 3) == 2
        for v2 in range(3, 21):
            for l2 in range(2, v2):
                assert gap_poly(RegularPairParams(3, v2, 2, l2)) == v2 * (l2 - 2) - 6
        for v1 in range(3, 21):
            for l1 in range(2, v1):
                assert gap_poly(RegularPairParams(v1, 4, l1, 3)) == 10 * v1 - 8 * (l1 + 2)
        for v1 in range(3, 13):
            for l1 in range(2, v1):
                for v2 in range(3, 13):
                    for l2 in range(2, v2):
                        p = RegularPairParams(v1, v2, l1, l2)
                        margin = p.degree_floor - m2_pair_regular(p)
                        assert (gap_poly(p) > 0) == (margin > 0)
                        if margin > 0:
                            eps = margin / 2
                            assert 2 * (m2_pair_regular(p) + eps) < p.l1 + p.l2 - 1
        cubic6 = [
            g
            for g in graphs_on(6, keep=lambda g: max(g.degree_sequence(), default=0) <= 3)
            if set(g.degree_sequence()) == {3}
        ]
        assert len(cubic6) == 2
        balanced = [g for g in cubic6 if balancedness(g, "strictly_two_balanced")]
        assert len(balanced) == 1
        assert canonical_key(balanced[0]) == canonical_key(complete_bipartite(3, 3))
        certified = 0
        for p, result in certificate_grid(8, 8):
            if result:
                enum = enumerate_a_hat(p, 2 * (p.v1 + p.v2))
                assert enum.complete and enum.members == ()
                certified += 1
        assert certified > 0


def test_criterion_9_sweep_determinism():
    with criterion("criterion 9 (byte-identical sweep reruns)", budget_s=300):
        pair = build_pair_spec(complete_graph(3), complete_graph(3))
        kwargs = dict(
            ns=[12, 16],
            bs=[Fraction(1, 4), Fraction(1, 2), Fraction(1)],
            trials=10,
            seed=4242,
            mode="ColorOnly",
            a_hat_bound=4,
        )
        first = render_csv(sweep(pair, **kwargs))
        second = render_csv(sweep(pair, **kwargs))
        assert first == second
        assert first.count("\n") == 7
