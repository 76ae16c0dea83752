import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcolor.density import (
    DEFAULT_EPSILON,
    asym_balancedness,
    balancedness,
    build_pair_spec,
    d2_asym,
    d2_density,
    d_density,
    density_profile,
    density_slack,
    least_max_gain_set,
    m2_asym,
    m2_density,
    m_density,
    max_gain,
)
from asymcolor.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph,
    graphs_up_to,
    path_graph,
)

F = Fraction


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def pointwise(v: int, e: int, measure: str) -> Fraction:
    if measure == "d":
        return F(e, v) if v else F(0)
    if v >= 3 and e >= 1:
        return F(e - 1, v - 2)
    if v == 2 and e == 1:
        return F(1, 2)
    return F(0)


def all_subgraph_counts(g: Graph):
    """Every subgraph (vertex subset AND edge subset) as a (v, e) count pair.

    The measures only depend on the counts, so enumerating each (k, r) once
    per vertex subset covers all subgraphs.
    """
    for k in range(g.vertex_count + 1):
        for verts in itertools.combinations(range(g.vertex_count), k):
            vset = set(verts)
            inner = sum(1 for e in g.edges if e[0] in vset and e[1] in vset)
            for r in range(inner + 1):
                yield k, r


def exhaustive_max(g: Graph, measure: str) -> Fraction:
    return max(pointwise(v, e, measure) for v, e in all_subgraph_counts(g))


# ---------------------------------------------------------------------------
# pointwise measures


def test_d_examples():
    assert d_density(complete_graph(4)) == F(3, 2)
    assert d_density(graph(0)) == 0
    assert d_density(cycle_graph(5)) == 1


def test_d2_examples():
    assert d2_density(complete_graph(3)) == 2
    assert d2_density(complete_graph(2)) == F(1, 2)
    assert d2_density(cycle_graph(4)) == F(3, 2)
    assert d2_density(graph(3)) == 0
    assert d2_density(graph(5, [(0, 1)])) == 0  # edge plus isolateds: (1-1)/3


def test_m_m2_examples():
    assert m2_density(complete_graph(4))[0] == F(5, 2)
    assert m2_density(complete_graph(5))[0] == 3
    val, wit = m_density(graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    assert val == 1
    assert wit.vertices == (0, 1, 2)  # the triangle beats the whole graph tie
    assert wit.subgraph == complete_graph(3)


def test_m_m2_against_exhaustive_oracle():
    rng = random.Random(41)
    pool = graphs_up_to(5)
    for _ in range(12):
        g = random_graph(rng, 6, rng.uniform(0.2, 0.6))
        pool.append(g)
    for _ in range(5):
        g = random_graph(rng, 7, 0.35)
        if g.edge_count <= 12:
            pool.append(g)
    for g in pool:
        assert m_density(g)[0] == exhaustive_max(g, "d")
        assert m2_density(g)[0] == exhaustive_max(g, "d2")


def test_witnesses_achieve_maxima():
    rng = random.Random(42)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.9))
        prof = density_profile(g)
        assert prof.d <= prof.m and prof.d2 <= prof.m2
        assert d_density(prof.witness_m.subgraph) == prof.m
        assert d2_density(prof.witness_m2.subgraph) == prof.m2
        assert set(prof.witness_m.vertices) <= set(range(g.vertex_count))


def test_subset_limit_guard():
    with pytest.raises(ValueError):
        m_density(graph(21))


def test_max_gain_matches_subset_scan():
    # the caps 201/100 and 113/50 are m2_pair + epsilon of K3/K3 and K4/C4
    caps = [F(0), F(1, 2), F(1), F(3, 2), F(201, 100), F(113, 50), F(5, 2)]
    rng = random.Random(20260816)
    pool = graphs_up_to(6) + [random_graph(rng, n, 0.5) for n in range(1, 13) for _ in range(2)]
    for g in pool:
        subsets = [
            (frozenset(verts), sum(1 for u, v in g.edges if u in verts and v in verts))
            for k in range(g.vertex_count + 1)
            for verts in map(set, itertools.combinations(range(g.vertex_count), k))
        ]
        m, _ = m_density(g)
        for c in caps:
            p, q = c.numerator, c.denominator
            gain = max_gain(g, c)
            assert gain == max(q * e - p * len(verts) for verts, e in subsets), (g.edges, c)
            assert (gain == 0) == (m <= c), (g.edges, c)
            # the least maximiser: inside every maximiser, and one itself
            maximisers = [verts for verts, e in subsets if q * e - p * len(verts) == gain]
            least = frozenset.intersection(*maximisers)
            assert least in maximisers, (g.edges, c)
            assert least_max_gain_set(g, c) == (gain, tuple(sorted(least))), (g.edges, c)
    with pytest.raises(ValueError):
        max_gain(complete_graph(3), F(-1))


# ---------------------------------------------------------------------------
# asymmetric measures


def test_m2_asym_examples():
    assert m2_asym(complete_graph(4), cycle_graph(4))[0] == F(9, 4)
    assert m2_asym(complete_graph(5), cycle_graph(4))[0] == F(30, 11)
    assert d2_asym(complete_graph(2), complete_graph(3)) == 2
    assert d2_asym(complete_graph(2), complete_graph(3)) == m2_density(complete_graph(3))[0]
    assert d2_asym(graph(3), complete_graph(3)) == 0  # empty g1
    assert d2_asym(graph(1, []), complete_graph(3)) == 0  # v < 2
    assert d2_asym(complete_graph(3), graph(4)) == 0  # empty h2


def test_m2_asym_witness_is_maximizer():
    rng = random.Random(43)
    h2s = [complete_graph(3), cycle_graph(4), complete_graph(4)]
    for _ in range(20):
        h1 = random_graph(rng, rng.randint(2, 7), rng.uniform(0.3, 0.9))
        for h2 in h2s:
            val, wit = m2_asym(h1, h2)
            assert d2_asym(wit.subgraph, h2) == val
            # exhaustive check over vertex subsets
            best = F(0)
            inv = 1 / m2_density(h2)[0]
            for k in range(2, h1.vertex_count + 1):
                for verts in itertools.combinations(range(h1.vertex_count), k):
                    vset = set(verts)
                    e = sum(1 for a, b in h1.edges if a in vset and b in vset)
                    best = max(best, F(e) / (k - 2 + inv))
            assert val == best


def test_prop_sandwich_samples():
    cases = [
        (complete_graph(4), cycle_graph(4)),
        (complete_graph(5), cycle_graph(4)),
        (complete_graph(5), complete_graph(4)),
        (complete_bipartite(3, 3), cycle_graph(4)),
        (complete_graph(3), complete_graph(3)),
    ]
    for h1, h2 in cases:
        a, _ = m2_density(h1)
        b, _ = m2_asym(h1, h2)
        c, _ = m2_density(h2)
        assert a >= b >= c
        if a > c:
            assert a > b > c


# ---------------------------------------------------------------------------
# balancedness


def brute_balanced(g: Graph, measure: str, strict: bool) -> bool:
    whole = pointwise(g.vertex_count, g.edge_count, measure)
    for k in range(g.vertex_count + 1):
        for verts in itertools.combinations(range(g.vertex_count), k):
            vset = set(verts)
            inner = [e for e in g.edges if e[0] in vset and e[1] in vset]
            for r in range(len(inner) + 1):
                if k == g.vertex_count and r == len(inner):
                    continue  # that is g itself
                val = pointwise(k, r, measure)
                if val > whole or (strict and val == whole):
                    return False
    return True


def test_balancedness_examples():
    assert balancedness(complete_graph(4), "strictly_two_balanced")
    assert not balancedness(graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), "two_balanced")
    assert balancedness(complete_bipartite(3, 3), "strictly_two_balanced")
    assert balancedness(cycle_graph(6), "strictly_two_balanced")
    assert balancedness(complete_graph(2), "strictly_two_balanced")
    assert balancedness(path_graph(3), "strictly_two_balanced")
    assert balancedness(complete_graph(4), "strictly_balanced")
    assert not balancedness(graph(3, [(0, 1)]), "strictly_balanced")  # isolated vertex


def test_balancedness_against_brute_force():
    for g in graphs_up_to(5):
        for mode, measure, strict in [
            ("balanced", "d", False),
            ("strictly_balanced", "d", True),
            ("two_balanced", "d2", False),
            ("strictly_two_balanced", "d2", True),
        ]:
            assert balancedness(g, mode) == brute_balanced(g, measure, strict), (g, mode)


def test_asym_balancedness():
    assert asym_balancedness(complete_graph(4), cycle_graph(4), strict=True)
    assert asym_balancedness(complete_graph(5), cycle_graph(4), strict=True)
    # a triangle with a pendant edge is not even weakly balanced against C4:
    # the triangle inside beats the whole
    lop = graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert d2_asym(complete_graph(3), cycle_graph(4)) > d2_asym(lop, cycle_graph(4))
    assert not asym_balancedness(lop, cycle_graph(4), strict=False)


# ---------------------------------------------------------------------------
# pair specs


def test_build_pair_spec_strict():
    spec = build_pair_spec(complete_graph(4), cycle_graph(4), F(1, 100))
    assert spec.case == "strict"
    assert spec.m2_pair == F(9, 4)
    assert spec.gamma == F(4, 9) - F(100, 226)
    assert spec.gamma == F(2, 1017)
    assert spec.hypotheses.distinct
    assert spec.hypotheses.h2_strictly_two_balanced
    assert spec.hypotheses.h1_case_balance
    assert spec.hypotheses.balance_ok


def test_build_pair_spec_equal():
    spec = build_pair_spec(complete_graph(3), complete_graph(3), F(1, 100))
    assert spec.case == "equal"
    assert spec.m2_pair == 2
    assert not spec.hypotheses.distinct
    assert spec.hypotheses.balance_ok


def test_build_pair_spec_rejections():
    with pytest.raises(ValueError, match="m2\\(h2\\)"):
        build_pair_spec(complete_graph(3), complete_graph(2))
    with pytest.raises(ValueError, match="order the pair"):
        build_pair_spec(cycle_graph(4), complete_graph(4))
    with pytest.raises(ValueError, match="non-empty"):
        build_pair_spec(graph(3), complete_graph(3))
    with pytest.raises(ValueError, match="epsilon"):
        build_pair_spec(complete_graph(4), cycle_graph(4), F(0))


def test_pair_spec_sandwich_invariant():
    for h1, h2 in [
        (complete_graph(4), cycle_graph(4)),
        (complete_graph(5), cycle_graph(4)),
        (complete_graph(3), complete_graph(3)),
        (complete_bipartite(3, 3), cycle_graph(4)),
    ]:
        spec = build_pair_spec(h1, h2)
        assert spec.m2_h1 >= spec.m2_pair >= spec.m2_h2
        assert spec.gamma > 0
        assert spec.epsilon == DEFAULT_EPSILON


# ---------------------------------------------------------------------------
# the slack functional


def test_density_slack_examples():
    spec = build_pair_spec(complete_graph(4), cycle_graph(4))
    assert density_slack(complete_graph(4), spec) == F(4, 3)
    assert density_slack(graph(1), spec) == 1
    assert density_slack(graph(0), spec) == 0


def test_slack_of_h1_is_two_minus_inverse_m2():
    # for pairs whose h1 attains the asymmetric maximum, the seed value
    # collapses to 2 - 1/m2(h2)
    for h1, h2 in [
        (complete_graph(4), cycle_graph(4)),
        (complete_graph(5), cycle_graph(4)),
        (complete_graph(3), complete_graph(3)),
    ]:
        spec = build_pair_spec(h1, h2)
        assert density_slack(h1, spec) == 2 - 1 / spec.m2_h2


def test_nondegenerate_attachment_preserves_slack():
    # one inner copy of h2 glued at an edge plus a pendant copy of h1 on each
    # other inner edge adds (v2-2) + (e2-1)(v1-2) vertices and (e2-1)e1 edges;
    # for balanced pairs that motion is slack-neutral
    for h1, h2 in [
        (complete_graph(4), cycle_graph(4)),
        (complete_graph(5), cycle_graph(4)),
        (complete_graph(3), complete_graph(3)),
        (complete_bipartite(3, 3), cycle_graph(4)),
    ]:
        spec = build_pair_spec(h1, h2)
        assert spec.hypotheses.balance_ok
        v1, e1 = h1.vertex_count, h1.edge_count
        v2, e2 = h2.vertex_count, h2.edge_count
        dv = (v2 - 2) + (e2 - 1) * (v1 - 2)
        de = (e2 - 1) * e1
        assert F(dv) - F(de) / spec.m2_pair == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 7), st.data())
def test_profile_orderings_property(n, data):
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=n * (n - 1) // 2,
        )
    )
    g = graph(n, list(edges))
    prof = density_profile(g)
    assert prof.m >= prof.d >= 0
    assert prof.m2 >= prof.d2 >= 0
    # m2 dominates m - 1/2 style bounds do not hold in general; but the
    # witness extractions must reproduce the recorded values
    assert d_density(prof.witness_m.subgraph) == prof.m
    assert d2_density(prof.witness_m2.subgraph) == prof.m2
