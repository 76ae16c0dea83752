"""Exact rational density measures and the pair bookkeeping built on them.

Everything here is exact (Fraction or int). The density test m(g) <= c is
max_gain(g, c) == 0: peel the vertices of degree <= c, then one max-flow
on the core that is left. The measures with a least maximizing
witness (m_density, m2_density, m2_asym) and the balancedness tests
iterate over vertex subsets and take all induced edges, which is sound
because adding an edge at a fixed vertex set never lowers any of the
measures involved. Witnesses are therefore induced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal

from .graphs import Graph, adjacency_masks, adjacency_sets, canonical_key, induced_subgraph

DEFAULT_EPSILON = Fraction(1, 100)

# subset maximization is exponential in vertex count; everything in this
# package that needs these measures lives well below this line
_SUBSET_LIMIT = 20

BalanceMode = Literal["balanced", "strictly_balanced", "two_balanced", "strictly_two_balanced"]
PairCase = Literal["strict", "equal"]


@dataclass(frozen=True)
class Witness:
    """A maximizing induced subgraph: original vertices plus the extraction."""

    vertices: tuple[int, ...]
    subgraph: Graph


@dataclass(frozen=True)
class DensityProfile:
    graph: Graph
    d: Fraction
    m: Fraction
    d2: Fraction
    m2: Fraction
    witness_m: Witness
    witness_m2: Witness


@dataclass(frozen=True)
class PairHypotheses:
    """Which optional hypotheses of the underlying conjecture the pair meets.

    These are recorded, not enforced: a pair failing them still gets a spec
    (the colorer and the growth procedures run fine), but certification logic
    downstream reads these flags.
    """

    distinct: bool
    h2_strictly_two_balanced: bool
    h1_case_balance: bool  # strict case: strictly balanced w.r.t. d2(.,h2); equal case: strictly 2-balanced

    @property
    def balance_ok(self) -> bool:
        return self.h2_strictly_two_balanced and self.h1_case_balance


@dataclass(frozen=True)
class PairSpec:
    h1: Graph
    h2: Graph
    epsilon: Fraction
    m2_h1: Fraction
    m2_h2: Fraction
    m2_pair: Fraction
    gamma: Fraction
    case: PairCase
    hypotheses: PairHypotheses


# d, d2 and the mixed d2_asym measure as functions of (vertex count, edge
# count), the form in which the subset maximizations evaluate them.


def _d(v: int, e: int) -> Fraction:
    return Fraction(e, v) if v else Fraction(0)


def _d2(v: int, e: int) -> Fraction:
    if v >= 3 and e >= 1:
        return Fraction(e - 1, v - 2)
    if v == 2 and e == 1:
        return Fraction(1, 2)
    return Fraction(0)


def _d2_asym_of(h2: Graph) -> Callable[[int, int], Fraction]:
    """J -> e(J) / (v(J) - 2 + 1/m2(h2)), 0 when v(J) < 2; h2 non-empty."""
    m2_h2, _ = m2_density(h2)
    inv = 1 / m2_h2

    def value(v: int, e: int) -> Fraction:
        if v < 2:
            return Fraction(0)
        return Fraction(e) / (v - 2 + inv)

    return value


def d_density(g: Graph) -> Fraction:
    """Edges over vertices; 0 for the graph with no vertices."""
    return _d(g.vertex_count, g.edge_count)


def d2_density(g: Graph) -> Fraction:
    """(e-1)/(v-2) for non-empty graphs on >= 3 vertices, 1/2 for K2, else 0."""
    return _d2(g.vertex_count, g.edge_count)


def _iter_induced(g: Graph):
    """Yield (vertex tuple, induced edge count) for every vertex subset."""
    if g.vertex_count > _SUBSET_LIMIT:
        raise ValueError(
            f"subset maximization limited to {_SUBSET_LIMIT} vertices, got {g.vertex_count}"
        )
    masks = adjacency_masks(g)
    for sub in range(1 << g.vertex_count):
        verts = [v for v in range(g.vertex_count) if (sub >> v) & 1]
        edges = sum((masks[v] & sub).bit_count() for v in verts) // 2
        yield tuple(verts), edges


def _maximize(g: Graph, value: Callable[[int, int], Fraction]) -> tuple[Fraction, Witness]:
    best: Fraction | None = None
    best_verts: tuple[int, ...] = ()
    for verts, edges in _iter_induced(g):
        val = value(len(verts), edges)
        if best is None or val > best or (val == best and (len(verts), verts) < (len(best_verts), best_verts)):
            best = val
            best_verts = verts
    assert best is not None
    sub, _ = induced_subgraph(g, best_verts)
    return best, Witness(best_verts, sub)


def m_density(g: Graph) -> tuple[Fraction, Witness]:
    """max d(J) over subgraphs J, with a least maximizing induced witness."""
    return _maximize(g, _d)


def m2_density(g: Graph) -> tuple[Fraction, Witness]:
    """max d2(J) over subgraphs J, with a least maximizing induced witness."""
    return _maximize(g, _d2)


def d2_asym(g1: Graph, h2: Graph) -> Fraction:
    """e1 / (v1 - 2 + 1/m2(h2)), or 0 when h2 is empty or v1 < 2."""
    if h2.edge_count == 0:
        return Fraction(0)
    return _d2_asym_of(h2)(g1.vertex_count, g1.edge_count)


def m2_asym(h1: Graph, h2: Graph) -> tuple[Fraction, Witness]:
    """max of d2_asym(J, h2) over J contained in h1, with a least witness."""
    if h2.edge_count == 0:
        sub, _ = induced_subgraph(h1, ())
        return Fraction(0), Witness((), sub)
    return _maximize(h1, _d2_asym_of(h2))


# ---------------------------------------------------------------------------
# the density test, by max-flow on the core
#
# With c = p/q, gain(S) = q*e(S) - p*|S| is supermodular, so its maximisers
# are closed under intersection and a least one S* lies inside all the
# others (Picard and Queyranne 1982).
#
# Peeling.  Every u in S* has q*deg_S*(u) > p, for otherwise S* - u would
# gain as much and S* would not be least.  So deleting vertices of
# q*deg <= p, until none is left, keeps S* and the maximum gain; what is
# left is the core.
#
# Goldberg's network (1984) on the core, with m edges and n vertices, has
# source -> v of capacity q*m, v -> sink of q*m + 2p - q*deg(v), and q each
# way along every edge.  The cut with source side {source} + S costs
# q*m*n + 2*(p*|S| - q*e(S)), so max gain = (q*m*n - mincut) / 2, and the
# least maximiser is the vertex set that the final residual network
# reaches from the source.  Pushing the flow along every source -> v -> sink
# up front leaves the source arc x(v) = q*deg(v) - 2p where that is
# positive and the sink arc -x(v) where it is negative, so the network
# solved is that residual one, and max gain = (sum of positive x - flow) / 2.


def _max_flow(adj: list[list[list[int]]], s: int, t: int) -> tuple[int, list[int]]:
    """Dinic's algorithm on arcs [head, residual capacity, reverse index].

    Returns the flow value and the last BFS level: the nodes with level >= 0
    are those the final residual network reaches from s, the source side of
    the minimum cut with the fewest nodes.  Augmenting paths are walked
    with an explicit stack, since the level graph can be as deep as the
    network has nodes.
    """
    total = 0
    while True:
        level = [-1] * len(adj)
        level[s] = 0
        queue = [s]
        for u in queue:
            for v, cap, _ in adj[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return total, level
        iters = [0] * len(adj)
        path: list[list[int]] = []  # the arcs walked from s to u
        u = s
        while True:
            arcs = adj[u]
            i = iters[u]
            while i < len(arcs) and not (arcs[i][1] > 0 and level[arcs[i][0]] == level[u] + 1):
                i += 1
            iters[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = arcs[i][0]
                if u == t:
                    pushed = min(arc[1] for arc in path)
                    for arc in path:
                        arc[1] -= pushed
                        adj[arc[0]][arc[2]][1] += pushed
                    total += pushed
                    path.clear()
                    u = s
            elif path:  # a dead end: step back over the arc into u
                arc = path.pop()
                u = adj[arc[0]][arc[2]][0]
                iters[u] += 1
            else:
                break


def max_gain(g: Graph, c: Fraction) -> int:
    """max over vertex subsets S of q*e(S) - p*|S|, where c = p/q >= 0 in
    lowest terms; 0 at the empty set, so m(g) <= c exactly when this is 0."""
    return least_max_gain_set(g, c)[0]


def least_max_gain_set(g: Graph, c: Fraction) -> tuple[int, tuple[int, ...]]:
    """max_gain(g, c) and the smallest vertex subset attaining it.

    The vertices of q*deg <= p are peeled off with a worklist, in time
    linear in the graph, and Goldberg's network is solved on the core that
    remains; the least maximiser is the set of core vertices on the source
    side of the minimal minimum cut.  It is empty when the maximum gain is
    0, as it is when the core is.
    """
    if c < 0:
        raise ValueError(f"density bound must be non-negative, got {c}")
    p, q = c.numerator, c.denominator
    nbrs = adjacency_sets(g)
    deg = [len(ws) for ws in nbrs]
    peeled = [q * d <= p for d in deg]
    work = [v for v, gone in enumerate(peeled) if gone]
    while work:
        for w in nbrs[work.pop()]:
            if not peeled[w]:
                deg[w] -= 1
                if q * deg[w] <= p:
                    peeled[w] = True
                    work.append(w)
    core = [v for v, gone in enumerate(peeled) if not gone]
    node = {v: i for i, v in enumerate(core, 2)}
    source, sink = 0, 1
    adj: list[list[list[int]]] = [[] for _ in range(len(core) + 2)]

    def add(u: int, v: int, cap: int, back: int = 0) -> None:
        adj[u].append([v, cap, len(adj[v])])
        adj[v].append([u, back, len(adj[u]) - 1])

    excess = 0
    for v in core:
        x = q * deg[v] - 2 * p
        if x > 0:
            excess += x
            add(source, node[v], x)
        elif x < 0:
            add(node[v], sink, -x)
    if not excess:  # no source arcs, as when the core is empty
        return 0, ()
    for u, v in g.edges:
        if not (peeled[u] or peeled[v]):
            add(node[u], node[v], q, q)
    flow, level = _max_flow(adj, source, sink)
    return (excess - flow) // 2, tuple(v for v in core if level[node[v]] >= 0)


def density_profile(g: Graph) -> DensityProfile:
    m, wm = m_density(g)
    m2, wm2 = m2_density(g)
    return DensityProfile(g, d_density(g), m, d2_density(g), m2, wm, wm2)


# ---------------------------------------------------------------------------
# balancedness


def _balanced_against(g: Graph, value: Callable[[int, int], Fraction], strict: bool) -> bool:
    # Proper subgraphs on the full vertex set have fewer edges and all the
    # measures here are strictly edge-monotone wherever they are nonzero, so
    # only proper vertex subsets (taken induced) can violate or tie.
    whole = value(g.vertex_count, g.edge_count)
    for verts, edges in _iter_induced(g):
        if len(verts) == g.vertex_count:
            continue
        val = value(len(verts), edges)
        if val > whole or (strict and val == whole):
            return False
    return True


def balancedness(g: Graph, mode: BalanceMode) -> bool:
    """Whether every proper subgraph sits (strictly) below g in d or d2."""
    measure = _d if mode in ("balanced", "strictly_balanced") else _d2
    return _balanced_against(g, measure, mode.startswith("strictly"))


def asym_balancedness(h1: Graph, h2: Graph, strict: bool) -> bool:
    """Balancedness of h1 measured by d2_asym(., h2)."""
    if h2.edge_count == 0:
        return not strict  # measure identically 0: balanced, never strictly
    return _balanced_against(h1, _d2_asym_of(h2), strict)


# ---------------------------------------------------------------------------
# pairs


def build_pair_spec(h1: Graph, h2: Graph, epsilon: Fraction = DEFAULT_EPSILON) -> PairSpec:
    """Cache every pair-level quantity and record which hypotheses hold.

    Rejects pairs violating the hard preconditions (non-empty, m2 ordering,
    m2(h2) > 1, epsilon > 0) naming the violated hypothesis. The balance
    hypotheses and distinctness are recorded in .hypotheses, not enforced.
    """
    epsilon = Fraction(epsilon)
    if h1.edge_count == 0:
        raise ValueError("h1 must be non-empty (have at least one edge)")
    if h2.edge_count == 0:
        raise ValueError("h2 must be non-empty (have at least one edge)")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    m2_h1, _ = m2_density(h1)
    m2_h2, _ = m2_density(h2)
    if m2_h2 <= 1:
        raise ValueError(f"m2(h2) = {m2_h2} <= 1; the pair needs m2(h2) > 1")
    if m2_h1 < m2_h2:
        raise ValueError(
            f"m2(h1) = {m2_h1} < m2(h2) = {m2_h2}; order the pair so m2(h1) >= m2(h2)"
        )
    m2_pair, _ = m2_asym(h1, h2)
    case: PairCase = "strict" if m2_h1 > m2_h2 else "equal"
    gamma = 1 / m2_pair - 1 / (m2_pair + epsilon)
    assert gamma > 0
    assert m2_h1 >= m2_pair >= m2_h2

    if case == "strict":
        h1_case_balance = asym_balancedness(h1, h2, strict=True)
    else:
        h1_case_balance = balancedness(h1, "strictly_two_balanced")
    hypotheses = PairHypotheses(
        distinct=canonical_key(h1) != canonical_key(h2),
        h2_strictly_two_balanced=balancedness(h2, "strictly_two_balanced"),
        h1_case_balance=h1_case_balance,
    )
    return PairSpec(h1, h2, epsilon, m2_h1, m2_h2, m2_pair, gamma, case, hypotheses)


def density_slack(f: Graph, pair: PairSpec) -> Fraction:
    """v(F) - e(F)/m2_pair: the budget every growth step is audited against."""
    return Fraction(f.vertex_count) - Fraction(f.edge_count) / pair.m2_pair
