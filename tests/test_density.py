import gc
import itertools
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcolor.density import (
    DEFAULT_EPSILON,
    _max_flow,
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


def subset_scan_least_max_gain_sets(
    g: Graph, caps: list[Fraction]
) -> list[tuple[int, tuple[int, ...]]]:
    """The maximum gain and least maximiser at each cap, over every vertex subset."""
    subsets = [
        (frozenset(verts), sum(1 for u, v in g.edges if u in verts and v in verts))
        for k in range(g.vertex_count + 1)
        for verts in map(set, itertools.combinations(range(g.vertex_count), k))
    ]
    results = []
    for c in caps:
        p, q = c.numerator, c.denominator
        gain = max(q * e - p * len(verts) for verts, e in subsets)
        maximisers = [verts for verts, e in subsets if q * e - p * len(verts) == gain]
        # the least maximiser: inside every maximiser, and one itself
        least = frozenset.intersection(*maximisers)
        assert least in maximisers, (g.edges, c)
        results.append((gain, tuple(sorted(least))))
    return results


def picard_least_max_gain_set(g: Graph, c: Fraction) -> tuple[int, tuple[int, ...]]:
    """The same pair from Picard's project-selection network on the whole
    graph: an edge node yields q but needs both endpoints, each vertex costs
    p, and max gain = q*|E| - mincut. No peeling, and |E| + |V| + 2 nodes."""
    p, q = c.numerator, c.denominator
    ecount = g.edge_count
    source, sink = 0, 1 + ecount + g.vertex_count
    adj: list[list[list[int]]] = [[] for _ in range(sink + 1)]

    def add(u: int, v: int, cap: int) -> None:
        adj[u].append([v, cap, len(adj[v])])
        adj[v].append([u, 0, len(adj[u]) - 1])

    for i, (u, v) in enumerate(g.edges):
        add(source, 1 + i, q)
        add(1 + i, 1 + ecount + u, q * ecount + 1)
        add(1 + i, 1 + ecount + v, q * ecount + 1)
    for v in range(g.vertex_count):
        add(1 + ecount + v, sink, p)
    flow, level = _max_flow(adj, source, sink)
    reached = tuple(v for v in range(g.vertex_count) if level[1 + ecount + v] >= 0)
    return q * ecount - flow, reached


def core_of(g: Graph, c: Fraction) -> set[int]:
    """The vertices left after deleting those of degree <= c, pass by pass."""
    core = set(range(g.vertex_count))
    while True:
        low = {v for v in core if sum(1 for e in g.edges if v in e and set(e) <= core) <= c}
        if not low:
            return core
        core -= low


def petersen_graph() -> Graph:
    return graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )


def k8_ladder(rungs: int) -> Graph:
    """K8 on 0..7 with 6 and 7 joined to the first rung of a ladder whose
    rails run 8, 10, ... and 9, 11, ...: the rail vertices have degree 3,
    except the two at the far end, which have degree 2."""
    edges = list(complete_graph(8).edges) + [(6, 8), (7, 9)]
    for i in range(rungs):
        a, b = 8 + 2 * i, 9 + 2 * i
        edges.append((a, b))
        if i + 1 < rungs:
            edges += [(a, a + 2), (b, b + 2)]
    return graph(8 + 2 * rungs, edges)


# the caps 201/100 and 113/50 are m2_pair + epsilon of K3/K3 and K4/C4
CAPS = [F(0), F(1, 2), F(1), F(3, 2), F(201, 100), F(113, 50), F(5, 2)]


def test_max_gain_matches_subset_scan():
    rng = random.Random(20260816)
    pool = graphs_up_to(6) + [random_graph(rng, n, 0.5) for n in range(1, 13) for _ in range(2)]
    # K5 with a path hanging off it: the path peels away at every cap >= 1
    dense_tail = graph(9, list(complete_graph(5).edges) + [(4, 5), (5, 6), (6, 7), (7, 8)])
    cases = [(g, CAPS) for g in pool] + [
        (dense_tail, CAPS + [F(2)]),
        # every degree equals the cap, so everything peels at once
        (cycle_graph(5), [F(2)]),
        (complete_graph(4), [F(3)]),
        (petersen_graph(), [F(3), F(5, 2)]),
        # c = 0 peels exactly the isolated vertices
        (graph(6, [(0, 1), (1, 2), (4, 5)]), [F(0)]),
        (graph(4), [F(0)]),
    ]
    for g, caps in cases:
        m, _ = m_density(g)
        for c, expected in zip(caps, subset_scan_least_max_gain_sets(g, caps)):
            gain, least = least_max_gain_set(g, c)
            assert (gain, least) == expected, (g.edges, c)
            assert max_gain(g, c) == gain
            assert (gain == 0) == (m <= c), (g.edges, c)
            assert set(least) <= core_of(g, c), (g.edges, c)
    with pytest.raises(ValueError):
        max_gain(complete_graph(3), F(-1))


def test_max_gain_matches_picard_network():
    rng = random.Random(20261019)
    for n in [8, 15, 20, 30, 40, 50, 60] * 3:
        # edge probabilities around the caps' densities: m(G(n, p)) is near np/2
        g = random_graph(rng, n, rng.uniform(0.5, 6.0) / n)
        for c in CAPS + [F(3), F(7, 3)]:
            gain, least = least_max_gain_set(g, c)
            assert (gain, least) == picard_least_max_gain_set(g, c), (g.edges, c)
            assert set(least) <= core_of(g, c), (g.edges, c)


def test_max_flow_walks_deep_level_graphs_without_recursion():
    # at c = 3/2 every vertex is in the core, the K8 vertices have source
    # arcs of 2*deg - 6 > 0 and only the two far-end ladder vertices, of
    # degree 2, have sink arcs, so every augmenting path runs the length of
    # the ladder: the level graph is over 1,000 deep
    g = k8_ladder(1000)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        result = least_max_gain_set(g, F(3, 2))
    finally:
        sys.setrecursionlimit(limit)
    # K8 gains 2*28 - 3*8 = 32, and adding the whole ladder ties it
    assert result == (32, tuple(range(8)))


def test_peeling_is_linear():
    # at c = 2 the ladder peels rung by rung from its far end, so peeling in
    # passes would take one pass per rung; a worklist takes one overall
    assert least_max_gain_set(k8_ladder(1000), F(2)) == (12, tuple(range(8)))

    def best_time(g: Graph) -> float:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            least_max_gain_set(g, F(2))
            times.append(time.perf_counter() - start)
        return min(times)

    small, large = k8_ladder(500), k8_ladder(4000)
    # the cycle collector's pauses grow with the whole test process's heap
    gc.disable()
    try:
        small_s, large_s = best_time(small), best_time(large)
    finally:
        gc.enable()
    # 8 times the rungs: linear peeling takes about 8 times as long, and
    # peeling in passes about 64 times
    assert large_s < 24 * small_s


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
