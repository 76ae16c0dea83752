import itertools
import random
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest

from asymcolor.colorer import asym_edge_color
from asymcolor.density import build_pair_spec
from asymcolor.families import (
    BLUE,
    RED,
    BlockerDecomposition,
    Coloring,
    ColoringCheck,
    ColoringSearch,
    FamilyReport,
    PatternCopy,
    _capped_blocker,
    _maximal,
    _under_cap,
    blocker_decomposition,
    color_by_members,
    enumerate_blockers,
    family_report,
    has_valid_coloring,
    is_blocker,
    is_pinned,
    pair_copies,
    pin_partner,
    search_from_copies,
    unpinned_edge,
    verify_coloring,
    verify_from_copies,
)
from asymcolor.graphs import (
    Copy,
    CopySet,
    Graph,
    bit_positions,
    canonical_key,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    emit_graph6,
    enumerate_copies,
    graph,
    graphs_up_to,
    is_two_connected,
    octahedron_graph,
)
from asymcolor.grow import _shared_or_seed
from asymcolor.harness import derive_seed, edge_probability, sample_gnp

F = Fraction


def pair_k4c4():
    return build_pair_spec(complete_graph(4), cycle_graph(4))


def pair_k3k3():
    return build_pair_spec(complete_graph(3), complete_graph(3))


def pair_k5c4():
    return build_pair_spec(complete_graph(5), cycle_graph(4))


def pair_k3c4():
    # permissive synthetic-family playground: m2(K3)=2 > m2(C4)=3/2
    return build_pair_spec(complete_graph(3), cycle_graph(4))


def shared_edge_graph() -> Graph:
    """K4 on 0..3 and the 4-cycle 0-1-4-5 sharing the edge (0,1)."""
    edges = list(complete_graph(4).edges) + [(1, 4), (4, 5), (0, 5)]
    return graph(6, edges)


def flower_graph() -> Graph:
    """A 4-cycle with a K4 pendant glued on each cycle edge."""
    cyc = [(0, 1), (1, 2), (2, 3), (0, 3)]
    edges = list(cyc)
    nxt = 4
    for u, v in cyc:
        a, b = nxt, nxt + 1
        nxt += 2
        edges += [(u, a), (u, b), (v, a), (v, b), (a, b)]
    return graph(nxt, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


# ---------------------------------------------------------------------------
# coloring plumbing


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring(complete_graph(3), {(0, 3): RED})
    with pytest.raises(ValueError):
        Coloring(complete_graph(3), {(0, 1): "green"})
    c = Coloring(complete_graph(3), {(0, 1): RED})
    assert c.color_of((1, 0)) == RED
    assert c.color_of((1, 2)) == "uncolored"
    assert not c.is_total()
    assert c.uncolored_edges() == ((0, 2), (1, 2))


def test_verify_coloring_basics():
    pair = pair_k4c4()
    c4 = cycle_graph(4)
    all_red = Coloring(c4, {e: RED for e in c4.edges})
    assert verify_coloring(all_red, pair).ok
    all_blue = Coloring(c4, {e: BLUE for e in c4.edges})
    check = verify_coloring(all_blue, pair)
    assert not check.ok and check.kind == "blue_h2"
    assert check.edges == c4.edges
    partial = Coloring(c4, {(0, 1): RED})
    check = verify_coloring(partial, pair)
    assert not check.ok and check.kind == "uncolored"


def test_verify_coloring_forced_edge_configuration():
    # a K4 missing one edge colored red, a 4-cycle missing the same edge
    # colored blue: either color of the shared edge loses
    pair = pair_k4c4()
    g = shared_edge_graph()
    base = {}
    for e in complete_graph(4).edges:
        if e != (0, 1):
            base[e] = RED
    for e in [(1, 4), (4, 5), (0, 5)]:
        base[e] = BLUE

    blue_choice = Coloring(g, {**base, (0, 1): BLUE})
    check = verify_coloring(blue_choice, pair)
    assert not check.ok and check.kind == "blue_h2"
    assert set(check.edges) == {(0, 1), (1, 4), (4, 5), (0, 5)}

    red_choice = Coloring(g, {**base, (0, 1): RED})
    check = verify_coloring(red_choice, pair)
    assert not check.ok and check.kind == "red_h1"
    assert set(check.edges) == set(complete_graph(4).edges)


def per_edge_verify(coloring: Coloring, h1_copies: CopySet, h2_copies: CopySet) -> ColoringCheck:
    """The reference for verify_from_copies: the same check, reading each
    copy's colours edge by edge."""
    missing = coloring.uncolored_edges()
    if missing:
        return ColoringCheck(False, "uncolored", missing)
    a = coloring.assignment
    for c in h1_copies.copies:
        if all(a[e] == RED for e in c.edges):
            return ColoringCheck(False, "red_h1", tuple(sorted(c.edges)))
    for c in h2_copies.copies:
        if all(a[e] == BLUE for e in c.edges):
            return ColoringCheck(False, "blue_h2", tuple(sorted(c.edges)))
    return ColoringCheck(True)


def test_verify_from_copies_matches_verify_coloring():
    # the check from held copy sets is verify_coloring without the
    # enumeration, and both give the per-edge reference's verdict, kind
    # and witness edges on random colourings, partial ones and the
    # oracle's valid ones
    rng = random.Random(3141)
    kinds = Counter()
    for pair in (pair_k4c4(), pair_k3k3(), pair_k3c4()):
        for n, p in ((6, 0.5), (8, 0.6), (11, 0.4)):
            for _ in range(4):
                g = random_graph(rng, n, p)
                copies = pair_copies(g, pair)
                colorings = [
                    {e: rng.choice((RED, BLUE)) for e in g.edges if rng.random() < share}
                    for share in (1.0, 1.0, 0.9)
                ]
                search = has_valid_coloring(g, pair, 2000)
                if search.status == "valid":
                    colorings.append(search.coloring.assignment)
                for assignment in colorings:
                    coloring = Coloring(g, assignment)
                    check = verify_from_copies(coloring, *copies)
                    assert check == per_edge_verify(coloring, *copies)
                    assert check == verify_coloring(coloring, pair)
                    kinds[check.kind] += 1
    assert set(kinds) == {None, "uncolored", "red_h1", "blue_h2"}
    assert min(kinds.values()) >= 5


# ---------------------------------------------------------------------------
# the searcher


def test_searcher_small_verdicts():
    k3 = pair_k3k3()
    res = has_valid_coloring(complete_graph(5), k3)
    assert res.status == "valid"
    assert verify_coloring(res.coloring, k3).ok

    res6 = has_valid_coloring(complete_graph(6), k3)
    assert res6.status == "invalid"

    res_c4 = has_valid_coloring(cycle_graph(4), pair_k4c4())
    assert res_c4.status == "valid"

    empty = has_valid_coloring(graph(0), k3)
    assert empty.status == "valid" and empty.coloring.is_total()


def test_searcher_deep_search_is_iterative():
    # one branched edge per search level: K_{40,40} has 1600 edges and no
    # triangle, so a search that recursed per edge would exceed Python's
    # default recursion limit
    k3 = pair_k3k3()
    g = complete_bipartite(40, 40)
    res = has_valid_coloring(g, k3)
    assert res.status == "valid"
    assert res.nodes_expanded == 1601
    assert verify_coloring(res.coloring, k3).ok


def test_searcher_deep_search_memory():
    # a frame holds the few ints of the state it was tried from, never
    # per-copy lists: 1,600 frames deep on K_{40,40} stay small
    k3 = pair_k3k3()
    g = complete_bipartite(40, 40)
    h1, h2 = enumerate_copies(g, k3.h1), enumerate_copies(g, k3.h2)
    tracemalloc.start()
    try:
        res = search_from_copies(g, h1, h2, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.nodes_expanded) == ("valid", 1601)
    assert peak < 4 * 2**20, peak


def test_searcher_budget():
    res = has_valid_coloring(complete_graph(6), pair_k3k3(), budget=5)
    assert res.status == "budget_exceeded"
    assert res.nodes_expanded == 6
    assert res.coloring is None


def test_searcher_invalid_monotone_under_supergraphs():
    k3 = pair_k3k3()
    base = complete_graph(6)
    rng = random.Random(3)
    for _ in range(5):
        extra = [(i, 6) for i in range(6) if rng.random() < 0.5]
        g = graph(7, list(base.edges) + extra)
        assert has_valid_coloring(g, k3).status == "invalid"


def test_searcher_coherence_random():
    rng = random.Random(11)
    for pair in (pair_k4c4(), pair_k3k3()):
        for _ in range(30):
            g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.2, 0.7))
            res = has_valid_coloring(g, pair)
            assert res.status in ("valid", "invalid")
            if res.status == "valid":
                assert verify_coloring(res.coloring, pair).ok


# ---------------------------------------------------------------------------
# the searcher against its rescanning reference


def rescanning_search(g: Graph, h1_copies: CopySet, h2_copies: CopySet, budget: int) -> ColoringSearch:
    """The reference for search_from_copies: the same search, with pick
    scoring every uncolored edge through its copies at every node."""
    edges = g.edges
    n_e = len(edges)
    idx = {e: i for i, e in enumerate(edges)}
    # one list of copies: those of h1, which must not go all red, then those
    # of h2, which must not go all blue; on[e] lists the copies through the
    # edge at position e, h1's first, each kind in its set's order
    sets = [tuple(sorted(idx[e] for e in c.edges)) for c in h1_copies.copies + h2_copies.copies]
    shift = len(h1_copies)
    bad = [RED] * shift + [BLUE] * len(h2_copies)
    on: list[list[int]] = [[] for _ in edges]
    for ci, c in enumerate(sets):
        for i in c:
            on[i].append(ci)

    color: list[str | None] = [None] * n_e
    un = [len(c) for c in sets]  # uncolored edges per copy
    mono = [0] * len(sets)  # edges per copy in its bad colour
    nodes = 0

    def assign(e0: int, c0: str, trail: list[int]) -> bool:
        queue = [(e0, c0)]
        while queue:
            e, c = queue.pop()
            if color[e] is not None:
                if color[e] == c:
                    continue
                return False
            color[e] = c
            trail.append(e)
            # update every counter before any conflict return, so undo (which
            # reverses complete updates) stays in sync
            for ci in on[e]:
                un[ci] -= 1
                if c == bad[ci]:
                    mono[ci] += 1
            for ci in on[e]:
                if c != bad[ci]:
                    continue
                k = len(sets[ci])
                if mono[ci] == k:
                    return False
                if un[ci] == 1 and mono[ci] == k - 1:
                    f = next(x for x in sets[ci] if color[x] is None)
                    queue.append((f, BLUE if c == RED else RED))
        return True

    def undo(trail: list[int]):
        for e in reversed(trail):
            c = color[e]
            for ci in on[e]:
                un[ci] += 1
                if c == bad[ci]:
                    mono[ci] -= 1
            color[e] = None

    def pick() -> int | None:
        best, best_score = None, None
        for e in range(n_e):
            if color[e] is not None:
                continue
            score = n_e + 1
            for ci in on[e]:
                if mono[ci] == len(sets[ci]) - un[ci]:  # all assigned are the bad colour
                    score = min(score, un[ci])
            if best_score is None or score < best_score:
                best, best_score = e, score
        return best

    # depth-first search with an explicit stack: one frame per branched edge
    # above the current node, holding the edge, the number of colours tried
    # there and the trail of the assignment in force
    frames: list[tuple[int, int, list[int]]] = []
    while True:
        nodes += 1
        if nodes > budget:
            return ColoringSearch("budget_exceeded", None, nodes)
        e, k = pick(), 0
        if e is None:
            break
        while True:
            while k == 2:  # both colours failed at e: back up one level
                if not frames:
                    return ColoringSearch("invalid", None, nodes)
                e, k, trail = frames.pop()
                undo(trail)
            trail = []
            k += 1
            if assign(e, (RED, BLUE)[k - 1], trail):
                frames.append((e, k, trail))
                break
            undo(trail)

    out = Coloring(g, {edges[i]: color[i] for i in range(n_e) if color[i] is not None})
    # the searcher never leaves an edge both unforced and unbranched
    assert out.is_total()
    return ColoringSearch("valid", out, nodes)



def assert_same_search(g: Graph, h1_copies, h2_copies, budget: int) -> ColoringSearch:
    got = search_from_copies(g, h1_copies, h2_copies, budget)
    want = rescanning_search(g, h1_copies, h2_copies, budget)
    assert (got.status, got.nodes_expanded) == (want.status, want.nodes_expanded)
    assert (got.coloring and got.coloring.assignment) == (want.coloring and want.coloring.assignment)
    return got


def assert_same_on(g: Graph, pair, budget: int) -> ColoringSearch:
    return assert_same_search(g, enumerate_copies(g, pair.h1), enumerate_copies(g, pair.h2), budget)


def test_search_matches_rescanning_reference_on_gnp():
    # (h1, h2) pattern pairs; the search reads only their copies, so C4/K3
    # need not be a valid PairSpec. K4/K3 and C4/K3 put copies of two
    # widths in the same buckets. K5/C5 and K4/K4 have wide copies: several
    # drop to one uncolored edge in one step, and K4/K4 forces edges both
    # ways in one propagation. K2 copies have one edge and start in bucket 1
    k2, k3, k4, k5 = (complete_graph(k) for k in (2, 3, 4, 5))
    c4, c5 = cycle_graph(4), cycle_graph(5)
    patterns = [
        (k3, k3), (k4, c4), (k5, c4), (c4, c4), (k4, k3), (c4, k3),
        (k5, c5), (k4, k4), (k2, k3), (c4, k2),
    ]
    statuses = Counter()
    for pi, (h1, h2) in enumerate(patterns):
        for t in range(8):
            n = 7 + t
            g = sample_gnp(n, 0.35 + 0.07 * t, derive_seed(11, n, F(pi), t))
            res = assert_same_search(g, enumerate_copies(g, h1), enumerate_copies(g, h2), 60)
            statuses[res.status] += 1
    assert set(statuses) == {"valid", "invalid", "budget_exceeded"}, statuses


def test_search_matches_rescanning_reference_on_hard_hosts():
    # a dense strict host (K4/C4, n=16, b=3: 105 edges) and the two K3/K3
    # G(20, p(b=2)) hosts that exhaust the benchmark's oracle budget
    k4c4 = pair_k4c4()
    b = F(3)
    dense = sample_gnp(16, edge_probability(k4c4, 16, b), derive_seed(20260816, 16, b, 0))
    assert dense.edge_count == 105
    assert assert_same_on(dense, k4c4, 300).status == "budget_exceeded"
    k3 = pair_k3k3()
    b = F(2)
    for t in (4, 5):
        g = sample_gnp(20, edge_probability(k3, 20, b), derive_seed(20260816, 20, b, t))
        assert assert_same_on(g, k3, 1000).status == "budget_exceeded"


def test_oracle_fingerprint_on_benchmark_hosts():
    # (status, nodes_expanded) of the oracle at budget 20,000 on the K3/K3
    # G(20, p(b=2)) hosts of the benchmark's oracle workload, t = 0..19, then
    # K_{40,40}: any drift in the search's branching or propagation shows here
    k3 = pair_k3k3()
    b = F(2)
    p = edge_probability(k3, 20, b)
    hosts = [sample_gnp(20, p, derive_seed(20260816, 20, b, t)) for t in range(20)]
    got = []
    for g in hosts + [complete_bipartite(40, 40)]:
        res = has_valid_coloring(g, k3, 20_000)
        got.append(f"{res.status[0]}{res.nodes_expanded}")
    assert " ".join(got) == (
        "v93 v52 v47 v47 b20001 b20001 v45 v45 v572 v40 "
        "i759 v52 i227 v473 v50 i2119 v56 v48 v52 v50 v1601"
    )


def test_search_with_one_copy_set_as_both_targets():
    # every copy appears twice in the search, once per colour
    triangle = complete_graph(3)
    got = []
    for k in (5, 6, 7):
        g = complete_graph(k)
        triangles = enumerate_copies(g, triangle)
        res = assert_same_search(g, triangles, triangles, 1000)
        got.append((res.status, res.nodes_expanded))
    assert got == [("valid", 6), ("invalid", 19), ("invalid", 19)]


def test_search_without_copies():
    k3 = pair_k3k3()
    for g in (complete_bipartite(3, 3), graph(0), graph(5)):
        res = assert_same_on(g, k3, 1000)
        assert res.status == "valid" and res.coloring.is_total()
        assert res.nodes_expanded == g.edge_count + 1


# ---------------------------------------------------------------------------
# the pin relation against its definition


def literal_partners(l_edges, e, h1_copies: CopySet, alive: int) -> list[int]:
    """The reference pin test: the positions, in copy order, of the h1-copies
    R with their bit set in alive and E(L) & E(R) == {e}."""
    return [
        i
        for i, R in enumerate(h1_copies.copies)
        if alive >> i & 1 and l_edges & R.edges == {e}
    ]


def dense_k3_host() -> Graph:
    """G(25, 0.8): over 1,024 triangles, so CopySet.index is built in chunks,
    and more than 8 through most edges, so bit_positions reads those masks
    off their bin() string."""
    g = sample_gnp(25, 0.8, derive_seed(16, 25, F(4, 5), 0))
    triangles = enumerate_copies(g, complete_graph(3))
    assert len(triangles) > 1024
    assert sum(m.bit_count() > 8 for m in triangles.index.values()) > g.edge_count // 2
    return g


@pytest.mark.parametrize("pair_of", [pair_k3k3, pair_k4c4])
def test_pin_relation_matches_its_definition_on_gnp(pair_of):
    # on the dense K3/K3 host every 7th h2-copy is tested, as the
    # reference scans every h1-copy per edge
    pair = pair_of()
    rng = random.Random(16)
    seen = Counter()
    hosts = [(sample_gnp(11, 0.55, derive_seed(16, 11, F(11, 20), t)), 1) for t in range(8)]
    if pair_of is pair_k3k3:
        hosts.append((dense_k3_host(), 7))
    for g, step in hosts:
        h1, h2 = enumerate_copies(g, pair.h1), enumerate_copies(g, pair.h2)
        for e in g.edges:
            through = [i for i, c in enumerate(h1.copies) if e in c.edges]
            assert h1.index.get(e, 0) == sum(1 << i for i in through)
        for alive in (-1, rng.getrandbits(len(h1))):
            for L in h2.copies[::step]:
                for e in sorted(L.edges):
                    partners = pin_partner(L.edges, e, h1, alive)
                    expect = literal_partners(L.edges, e, h1, alive)
                    assert [i for i in range(partners.bit_length()) if partners >> i & 1] == expect
                    seen[min(len(expect), 2)] += 1
                unpinned = next(
                    (e for e in sorted(L.edges) if not literal_partners(L.edges, e, h1, alive)),
                    None,
                )
                assert unpinned_edge(L.edges, h1, alive) == unpinned
                seen["anchored" if unpinned is None else "unpinned"] += 1
    # no partner, one, several; anchored copies and unpinned ones
    assert all(seen[k] for k in (0, 1, 2, "anchored", "unpinned")), seen


def literal_pinned(e, h2_copies: CopySet, h1_copies: CopySet, alive2: int, alive1: int) -> bool:
    """The reference: some L among h2_copies and R among h1_copies, with
    their bits set in alive2 and alive1, have E(L) & E(R) == {e}."""

    def live(copies, alive):
        return [c for i, c in enumerate(copies.copies) if alive >> i & 1 and e in c.edges]

    return any(L.edges & R.edges == {e} for L in live(h2_copies, alive2) for R in live(h1_copies, alive1))


@pytest.mark.parametrize("pair_of", [pair_k4c4, pair_k5c4, pair_k3k3])
def test_is_pinned_matches_its_definition_on_gnp(pair_of):
    # every copy alive, every h1-copy dead, and seeded random masks; the
    # edges on no live h1-copy take is_pinned's early False. K3/K3 adds
    # the dense host, whose masks through an edge are wide and hold more
    # than 8 copies
    pair = pair_of()
    rng = random.Random(26)
    seen = Counter()
    hosts = [
        sample_gnp(10, float(p), derive_seed(26, 10, p, t)) for p in (F(2, 5), F(7, 10)) for t in range(4)
    ]
    if pair_of is pair_k3k3:
        hosts.append(dense_k3_host())
    for g in hosts:
        h1, h2 = pair_copies(g, pair)
        masks = ((-1, -1), (-1, 0), (rng.getrandbits(len(h2)), rng.getrandbits(len(h1))))
        for alive2, alive1 in masks:
            for e in g.edges:
                expect = literal_pinned(e, h2, h1, alive2, alive1)
                assert is_pinned(e, h2, h1, alive2, alive1) == expect
                seen[expect, e in h1.index] += 1
        unpinned = tuple(e for e in g.edges if not literal_pinned(e, h2, h1, -1, -1))
        assert FamilyReport(g, h1, h2).pinned_failures == unpinned
    # pinned edges, unpinned ones on some h1-copy, and edges on none
    assert all(seen[k] for k in ((True, True), (False, True), (False, False))), seen


# ---------------------------------------------------------------------------
# anchored copies and membership reports


def anchored_edge_sets(report: FamilyReport) -> set:
    """The edge sets of the h2-copies that report.is_anchored accepts."""
    return {L.edges for L in report.h2_copies.copies if report.is_anchored(L)}


def test_anchored_copies_flower():
    pair = pair_k4c4()
    rep = family_report(flower_graph(), pair)
    central = frozenset([(0, 1), (1, 2), (2, 3), (0, 3)])
    assert central in anchored_edge_sets(rep)
    assert all(rep.anchored_through(e) is not None for e in central)


def test_anchored_copies_c4_alone_empty():
    c4 = cycle_graph(4)
    rep = family_report(c4, pair_k4c4())
    assert not anchored_edge_sets(rep)
    assert all(rep.anchored_through(e) is None for e in c4.edges)
    assert rep.anchored_failures == c4.edges


def test_anchored_copies_shared_edge_graph():
    pair = pair_k4c4()
    g = shared_edge_graph()
    outer = frozenset([(0, 1), (1, 4), (4, 5), (0, 5)])
    assert outer not in anchored_edge_sets(family_report(g, pair))


def test_family_report_empty_graph_vacuous():
    rep = family_report(graph(0), pair_k4c4())
    assert rep.pinned and rep.anchored


def test_family_report_shared_edge_graph_fails_pinned():
    rep = family_report(shared_edge_graph(), pair_k4c4())
    assert not rep.pinned
    assert (2, 3) in rep.pinned_failures  # a K4 edge away from the shared one
    assert not rep.anchored


def test_family_report_k6_anchored():
    # every 4-cycle in K6 is anchored by the K4 on its ends plus the two
    # leftover vertices, so K6 is anchored for the (K4, C4) pair; K5 is not
    pair = pair_k4c4()
    rep6 = family_report(complete_graph(6), pair)
    assert rep6.anchored and rep6.pinned
    anchored_edges = {e for edges in anchored_edge_sets(rep6) for e in edges}
    assert anchored_edges == set(complete_graph(6).edges)
    rep5 = family_report(complete_graph(5), pair)
    assert not rep5.anchored
    assert not rep5.pinned


def test_anchored_implies_pinned_random():
    rng = random.Random(23)
    for pair in (pair_k4c4(), pair_k3k3()):
        for _ in range(300):
            g = random_graph(rng, rng.randint(4, 10), rng.uniform(0.15, 0.55))
            rep = family_report(g, pair)
            if rep.anchored:
                assert rep.pinned
            for e in g.edges:
                L = rep.anchored_through(e)
                assert L is None or (e in L.edges and rep.is_anchored(L))


def test_pinned_two_connected_min_degree():
    # for regular h1, h2 of degrees l1, l2 every non-empty 2-connected pinned
    # graph has min degree >= l1 + l2 - 1
    from asymcolor.graphs import is_two_connected

    for pair, bound in ((pair_k3k3(), 3), (pair_k4c4(), 4)):
        for g in graphs_up_to(6):
            if g.edge_count == 0 or not is_two_connected(g):
                continue
            if family_report(g, pair).pinned:
                assert min(g.degree_sequence()) >= bound, g


# ---------------------------------------------------------------------------
# blockers


def test_is_blocker_basics():
    pair = pair_k4c4()
    assert not is_blocker(graph(0), pair)  # not 2-connected
    assert not is_blocker(complete_graph(6), pair)  # m = 5/2 over the cap
    assert not is_blocker(shared_edge_graph(), pair)  # fails the anchored test
    assert not is_blocker(complete_graph(4), pair)


@dataclass(frozen=True)
class EagerReport:
    """The eager reference for FamilyReport: every field built up front."""

    anchored_copies: CopySet
    pinned_failures: tuple
    anchored_failures: tuple

    @property
    def pinned(self) -> bool:
        return not self.pinned_failures

    @property
    def anchored(self) -> bool:
        return not self.anchored_failures


def report_from_copies(g, h1_copies, h2_copies):
    """Pinned/anchored verdicts with per-edge failure witnesses, from all
    copies of h1 and of h2 in g."""
    anchored = CopySet(
        h2_copies.pattern,
        tuple(L for L in h2_copies.copies if unpinned_edge(L.edges, h1_copies) is None),
    )
    copies, index = h2_copies.copies, h2_copies.index
    pinned_failures = tuple(
        e
        for e in g.edges
        if not any(pin_partner(copies[i].edges, e, h1_copies) for i in bit_positions(index.get(e, 0)))
    )
    report = EagerReport(
        anchored, pinned_failures, tuple(e for e in g.edges if e not in anchored.index)
    )
    assert report.pinned or not report.anchored  # anchored membership implies pinned
    return report


def assert_anchored_answers(report: FamilyReport, want: EagerReport) -> None:
    """report.anchored_through(e) is the least eager anchored copy through
    e for every edge, and report.is_anchored(L) is eager membership for
    every h2-copy."""
    for e in report.graph.edges:
        assert report.anchored_through(e) == next(iter(want.anchored_copies.through(e)), None)
    anchored = {L.edges for L in want.anchored_copies.copies}
    for L in report.h2_copies.copies:
        assert report.is_anchored(L) == (L.edges in anchored)


def test_family_report_builds_no_copy_set(monkeypatch):
    # every anchored answer is read off h2_copies.index and the per-copy
    # memo, so reading each answer of a report builds no second CopySet
    cases = [(g, pair_k4c4()) for g in (complete_graph(6), flower_graph(), shared_edge_graph())]
    cases += [(complete_graph(6), pair_k3k3()), (octahedron_graph(), pair_k3k3())]
    copies = [(g, *pair_copies(g, pair)) for g, pair in cases]
    built = []
    init = CopySet.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CopySet, "__init__", counting_init)
    anchored = 0
    for g, h1_copies, h2_copies in copies:
        report = FamilyReport(g, h1_copies, h2_copies)
        report.pinned, report.pinned_failures, report.anchored_failures
        anchored += report.anchored
    assert built == []
    assert 0 < anchored < len(cases)


def seeded_stuck_residuals(pair, catalog):
    """The stuck residuals of seeded G(12, p) and G(20, p) samples."""
    residuals = []
    for n, b, trials in ((12, F(3, 2), 6), (12, F(2), 6), (20, F(3, 2), 12)):
        for trial in range(trials):
            g = sample_gnp(n, edge_probability(pair, n, b), derive_seed(7, n, b, trial))
            out = asym_edge_color(g, pair, catalog)
            if out.status == "stuck":
                residuals.append(out.residual)
    return residuals


def test_lazy_family_report_matches_the_eager_reference():
    # every class up to 7 vertices under each pair's cap, K5-K9 and the
    # seeded stuck residuals under K3/K3. pinned and anchored are each read
    # first from a fresh report, so their early exits run alone; the
    # anchored copy through each edge and the anchored test of each h2-copy
    # are read both after anchored, which tested some copies already, and
    # after the failure lists
    c4 = cycle_graph(4)
    k3k3 = pair_k3k3()
    cases = [
        (g, pair)
        for pair in (k3k3, pair_k4c4(), pair_k3c4(), build_pair_spec(c4, c4))
        for g in graphs_up_to(7, keep=lambda g: _under_cap(g, pair))
    ]
    cases += [(complete_graph(k), k3k3) for k in range(5, 10)]
    residuals = seeded_stuck_residuals(k3k3, enumerate_blockers(k3k3, 6).members)
    assert len(residuals) == 19
    cases += [(g, k3k3) for g in residuals]
    seen = Counter()
    for g, pair in cases:
        h1_copies, h2_copies = pair_copies(g, pair)
        want = report_from_copies(g, h1_copies, h2_copies)
        assert FamilyReport(g, h1_copies, h2_copies).pinned == want.pinned
        report = FamilyReport(g, h1_copies, h2_copies)
        assert report.anchored == want.anchored
        assert_anchored_answers(report, want)
        report = FamilyReport(g, h1_copies, h2_copies)
        assert report.pinned_failures == want.pinned_failures
        assert report.anchored_failures == want.anchored_failures
        assert_anchored_answers(report, want)
        seen[want.pinned, want.anchored] += 1
    # every combination anchored implies pinned allows is met
    assert set(seen) == {(False, False), (True, False), (True, True)}, seen


def brute_pinned_triangles(g: Graph) -> bool:
    """Independent pinned check for the (K3, K3) pair: every edge must be the
    exact intersection of two triangles."""
    eset = g.edge_set()
    tris = [
        frozenset([(a, b), (a, c), (b, c)])
        for a, b, c in itertools.combinations(range(g.vertex_count), 3)
        if (a, b) in eset and (a, c) in eset and (b, c) in eset
    ]
    return all(
        any(t1 & t2 == {e} for t1 in tris for t2 in tris) for e in g.edges
    )


def test_enumerate_blockers_k3k3():
    pair = pair_k3k3()
    cat = enumerate_blockers(pair, 6)
    # four members verifiable by quick hand arguments ...
    k5_minus_e = graph(5, [e for e in complete_graph(5).edges if e != (3, 4)])
    known = {
        canonical_key(complete_graph(4)),
        canonical_key(complete_graph(5)),
        canonical_key(k5_minus_e),
        canonical_key(octahedron_graph()),
    }
    found = {canonical_key(g) for g in cat.members}
    assert known <= found
    # ... plus three more 6-vertex graphs the exhaustive search surfaced
    assert len(found) == 7
    # every member re-passes independent predicate implementations
    from asymcolor.graphs import is_two_connected

    cap = pair.m2_pair + pair.epsilon
    for g in cat.members:
        assert is_two_connected(g)
        assert exhaustive_m(g) <= cap
        assert brute_pinned_triangles(g)
    assert all(e.search.status == "valid" for e in cat.entries)
    assert cat.max_vertices == 6


def exhaustive_m(g: Graph) -> Fraction:
    best = F(0)
    for k in range(1, g.vertex_count + 1):
        for verts in itertools.combinations(range(g.vertex_count), k):
            vset = set(verts)
            e = sum(1 for a, b in g.edges if a in vset and b in vset)
            best = max(best, F(e, k))
    return best


def test_enumerate_blockers_k3k3_frozen_catalogs():
    pair = pair_k3k3()
    assert len(enumerate_blockers(pair, 5).members) == 3
    cat = enumerate_blockers(pair, 7)
    assert [emit_graph6(g) for g in cat.members] == [
        "C~", "D^{", "D~{", "E`~w", "E}lw", "ER~w", "EF~w", "F`N^w", "F_N~w"
    ]
    assert all(e.search.status == "valid" for e in cat.entries)


def test_enumerate_blockers_k4c4_empty():
    for bound in (6, 7):
        assert enumerate_blockers(pair_k4c4(), bound).members == ()


def test_enumerate_blockers_below_h2_size():
    assert enumerate_blockers(pair_k4c4(), 3).members == ()


def test_enumerate_blockers_matches_is_blocker():
    # the catalog skips the cap test that generation already passed, so it
    # must still list exactly the graphs the public blocker test accepts
    every = graphs_up_to(6)
    for pair in (pair_k3k3(), pair_k4c4(), build_pair_spec(complete_graph(5), cycle_graph(4))):
        assert enumerate_blockers(pair, 6).members == tuple(g for g in every if is_blocker(g, pair))


def test_capped_blocker_matches_the_family_report():
    # _capped_blocker stops before h2's copies when some edge is on no
    # h1-copy; on every 2-connected class under each pair's cap up to 7
    # vertices it must still give the report's anchored (strict case) or
    # pinned (equal case) verdict. K4/K3 joins the four pairs as a strict
    # pair with members this small
    c4 = cycle_graph(4)
    k4k3 = build_pair_spec(complete_graph(4), complete_graph(3))
    verdicts = Counter()
    for pair in (pair_k3k3(), pair_k4c4(), pair_k3c4(), build_pair_spec(c4, c4), k4k3):
        for g in graphs_up_to(7, keep=lambda g: _under_cap(g, pair)):
            if is_two_connected(g):
                report = family_report(g, pair)
                want = report.anchored if pair.case == "strict" else report.pinned
                assert _capped_blocker(g, pair) == want, (pair.case, emit_graph6(g))
                verdicts[pair.case, want] += 1
    # both cases meet both verdicts
    assert len(verdicts) == 4, verdicts


# ---------------------------------------------------------------------------
# decomposition and member-wise coloring


def two_disjoint_k4() -> Graph:
    return graph(8, list(complete_graph(4).edges) + [(u + 4, v + 4) for u, v in complete_graph(4).edges])


def two_k4_sharing_edge() -> Graph:
    second = [(0, 1), (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
    return graph(6, list(complete_graph(4).edges) + second)


def members_of(d):
    """Every edge of d.graph with the ascending indices in d.members of the
    members that contain it."""
    position = {m.edges: i for i, m in enumerate(d.members)}
    return {e: tuple(position[m.edges] for m in d.members_through(e)) for e in d.graph.edges}


def test_decomposition_vacuous_family():
    pair = pair_k3c4()
    d = blocker_decomposition(complete_graph(4), pair, [])
    assert d.members == ()
    assert all(not ms for ms in members_of(d).values())
    assert not d.covered_once
    assert d.sparse
    empty = blocker_decomposition(graph(3), pair, [])
    assert empty.covered_once  # no edges, vacuously clean


def test_decomposition_disjoint_members():
    pair = pair_k3c4()
    d = blocker_decomposition(two_disjoint_k4(), pair, [complete_graph(4)])
    assert len(d.members) == 2
    assert d.covered_once and d.sparse


def test_decomposition_shared_edge_counts():
    pair = pair_k3c4()
    d = blocker_decomposition(two_k4_sharing_edge(), pair, [complete_graph(4)])
    assert len(d.members) == 2
    assert len(members_of(d)[(0, 1)]) == 2
    assert not d.covered_once
    # every triangle and 4-cycle through the shared edge, or across the two
    # K4s, has edges in both members; h1 copies come first, each kind in
    # copy order (growth's special case 1 reads the first)
    assert not d.sparse
    assert [(pc.kind, sorted(pc.copy.edges)) for pc in d.straddlers()] == [
        ("h1", [(0, 1), (0, 2), (1, 2)]),
        ("h1", [(0, 1), (0, 3), (1, 3)]),
        ("h1", [(0, 1), (0, 4), (1, 4)]),
        ("h1", [(0, 1), (0, 5), (1, 5)]),
        ("h2", [(0, 1), (0, 2), (1, 3), (2, 3)]),
        ("h2", [(0, 1), (0, 3), (1, 2), (2, 3)]),
        ("h2", [(0, 1), (0, 4), (1, 5), (4, 5)]),
        ("h2", [(0, 1), (0, 5), (1, 4), (4, 5)]),
        ("h2", [(0, 2), (0, 4), (1, 2), (1, 4)]),
        ("h2", [(0, 2), (0, 5), (1, 2), (1, 5)]),
        ("h2", [(0, 3), (0, 4), (1, 3), (1, 4)]),
        ("h2", [(0, 3), (0, 5), (1, 3), (1, 5)]),
    ]


def test_decomposition_maximality():
    # with both K4 and K3 in the family, K3 copies inside a K4 are absorbed
    pair = pair_k3c4()
    d = blocker_decomposition(complete_graph(4), pair, [complete_graph(4), complete_graph(3)])
    assert len(d.members) == 1
    assert len(d.members[0].edges) == 6


def reference_members(blocker_copies):
    """The pairwise maximality scan: the blocker copies, one per edge set,
    that lie inside no other, in copy order."""
    pool = {}
    for c in blocker_copies:
        pool.setdefault(c.edges, c)
    maximal = []
    for c in sorted(pool.values(), key=lambda c: (-len(c.edges), c.sort_key())):
        if not any(c.edges < kept.edges for kept in maximal):
            maximal.append(c)
    return tuple(sorted(maximal, key=Copy.sort_key))


def test_maximal_members_match_pairwise_scan():
    # seeded G(12, p) residuals under K3/K3 with the bound-6 catalog, and K7,
    # with the blocker copies handed over in a shuffled order
    pair = pair_k3k3()
    blockers = enumerate_blockers(pair, 6).members
    hosts = [complete_graph(7)]
    for b in (F(3, 2), F(2)):
        for trial in range(6):
            g = sample_gnp(12, edge_probability(pair, 12, b), derive_seed(7, 12, b, trial))
            out = asym_edge_color(g, pair, blockers)
            if out.status == "stuck":
                hosts.append(out.residual)
    assert len(hosts) == 10
    rng = random.Random(5)
    members = 0
    for g in hosts:
        copies = [c for m in blockers for c in enumerate_copies(g, m).copies]
        rng.shuffle(copies)
        through = {}
        for c in copies:
            for e in c.edges:
                through.setdefault(e, []).append(c)
        d = BlockerDecomposition(
            g, lambda e: through.get(e, ()), enumerate_copies(g, pair.h1), enumerate_copies(g, pair.h2)
        )
        assert d.members == reference_members(copies)
        assert members_of(d) == {
            e: tuple(mi for mi, m in enumerate(d.members) if e in m.edges) for e in g.edges
        }
        members += len(d.members)
    assert members > 1000



def test_maximal_matches_pairwise_scan_past_one_index_chunk():
    # a shuffled pool through edge (0, 1) in five sizes, each edge set also
    # copied on other vertices: 10 five-edge copies; 58 quadrilaterals, each
    # around one of 1500 triangles, which leaves 1442 of those kept, past
    # the 1024 copies of one copy_index chunk; 580 three-edge copies, each
    # with an edge of one five-edge copy and one quadrilateral and so inside
    # neither, but inside both if a size's masks were not shifted past the
    # copies kept before it; a pair inside every triangle and 100 pairs
    # inside none; and the single edge (0, 1) itself
    def copy(*edges):
        return Copy(frozenset(edges), frozenset(v for e in edges for v in e))

    pool = []
    for k in range(30_000, 30_010):
        pool.append(copy((0, 1), (0, k), (1, k), (k, k + 1000), (k + 1000, k + 2000)))
        for a in range(2, 60):
            pool.append(copy((0, 1), (k, k + 1000), (a, 10_000 + a)))
    for a in range(2, 1502):
        pool += [copy((0, 1), (0, a), (1, a)), copy((0, 1), (0, a))]
        if a < 60:
            pool.append(copy((0, 1), (0, a), (1, a), (a, 10_000 + a)))
    pool += [copy((0, 1), (1, b)) for b in range(2000, 2100)]
    pool.append(copy((0, 1)))
    pool += [Copy(c.edges, c.vertices | {40_000}) for c in pool]
    random.Random(3).shuffle(pool)
    members = _maximal(pool)
    assert members == reference_members(pool)
    assert Counter(len(c.edges) for c in members) == {5: 10, 4: 58, 3: 2022, 2: 100}

def kept_mask_members(blocker_copies):
    """The global kept-mask scan the decomposition ran before members were
    asked for per edge: the blocker copies, one per edge set, largest
    first, each kept unless the masks of its edges share the bit of a kept
    copy; the kept ones in copy order."""
    pool = {}
    for c in blocker_copies:
        pool.setdefault(c.edges, c)
    maximal = []
    kept = {}
    for c in sorted(pool.values(), key=lambda c: (-len(c.edges), c.sort_key())):
        inside = -1
        for e in c.edges:
            inside &= kept.get(e, 0)
            if not inside:
                break
        if not inside:
            bit = 1 << len(maximal)
            for e in c.edges:
                kept[e] = kept.get(e, 0) | bit
            maximal.append(c)
    return tuple(sorted(maximal, key=Copy.sort_key))


def eager_answers(g, pair, blockers):
    """What the decomposition of g answers, from the global scan: the
    members and members_of, covered_once, the straddling copies, the least
    shared edge with its two least members, and the seed edge, the least on
    no member, when no edge is shared."""
    members = kept_mask_members(c for b in blockers for c in enumerate_copies(g, b).copies)
    index = {e: [] for e in g.edges}
    for i, m in enumerate(members):
        for e in m.edges:
            index[e].append(i)
    members_of = {e: tuple(ms) for e, ms in index.items()}
    straddlers, seen = [], set()
    for kind, copies in zip(("h1", "h2"), pair_copies(g, pair)):
        for c in copies.copies:
            if len({i for e in c.edges for i in members_of[e]}) >= 2 and c.edges not in seen:
                seen.add(c.edges)
                straddlers.append(PatternCopy(kind, c))
    shared = next((e for e in g.edges if len(members_of[e]) >= 2), None)
    return {
        "members": members,
        "members_of": members_of,
        "covered_once": all(len(ms) == 1 for ms in members_of.values()),
        "straddlers": tuple(straddlers),
        "shared": shared,
        "pair": tuple(members[i] for i in members_of[shared][:2]) if shared else None,
        "seed": None if shared else min((e for e in g.edges if not members_of[e]), default=None),
    }


def test_lazy_decomposition_matches_the_global_scan():
    # each answer is read from a fresh decomposition, so it is computed by
    # its own early-stopping scan; every one must equal the global scan's.
    # Hosts: seeded stuck residuals and K5-K9 under K3/K3 with the bound-6
    # catalog, its members themselves, and small hosts under K3/C4 with K4
    # as the only blocker, and K6 with none.
    # Reading every member of a dense host asks every edge, so the full
    # members, members_of and straddling copies are compared up to K8
    k3k3 = pair_k3k3()
    catalog = enumerate_blockers(k3k3, 6).members
    cases = [(complete_graph(k), k3k3, catalog, k <= 8) for k in range(5, 10)]
    cases += [(m, k3k3, catalog, True) for m in catalog]
    cases += [
        (g, pair_k3c4(), [complete_graph(4)], True)
        for g in (two_disjoint_k4(), two_k4_sharing_edge(), shared_edge_graph(), flower_graph())
    ]
    cases.append((complete_graph(6), k3k3, (), True))
    cases += [(g, k3k3, catalog, True) for g in seeded_stuck_residuals(k3k3, catalog)]
    assert len(cases) > 30
    seen = Counter()
    for g, pair, blockers, whole in cases:
        want = eager_answers(g, pair, blockers)

        def fresh():
            return blocker_decomposition(g, pair, blockers)

        assert fresh().covered_once == want["covered_once"]
        assert fresh().sparse == (not want["straddlers"])
        assert next(fresh().straddlers(), None) == next(iter(want["straddlers"]), None)
        d = fresh()
        assert _shared_or_seed(d) == (want["shared"], want["seed"])
        if want["shared"]:
            assert d.members_through(want["shared"])[:2] == want["pair"]
        if whole:
            d = fresh()
            assert d.members == want["members"] and members_of(d) == want["members_of"]
            assert tuple(d.straddlers()) == want["straddlers"]
        seen["covered_once"] += want["covered_once"]
        seen["straddled"] += bool(want["straddlers"])
        seen["shared"] += want["shared"] is not None
        seen["seed"] += want["seed"] is not None
    assert min(seen.values()) >= 2, seen


def test_color_by_members_disjoint_union():
    pair = pair_k3c4()
    res = color_by_members(blocker_decomposition(two_disjoint_k4(), pair, [complete_graph(4)]), pair)
    assert res.ok
    assert verify_coloring(res.coloring, pair).ok


def test_color_by_members_empty_graph():
    res = color_by_members(blocker_decomposition(graph(0), pair_k3c4(), []), pair_k3c4())
    assert res.ok and res.coloring.is_total()


def test_color_by_members_precondition():
    with pytest.raises(ValueError):
        pair = pair_k3c4()
        color_by_members(blocker_decomposition(two_k4_sharing_edge(), pair, [complete_graph(4)]), pair)


def test_color_by_members_surfaces_uncolorable_member():
    # synthetic family containing K6 for the triangle pair: the member itself
    # has no valid coloring and that comes back as a finding, not a crash
    pair = pair_k3k3()
    res = color_by_members(blocker_decomposition(complete_graph(6), pair, [complete_graph(6)]), pair)
    assert not res.ok
    assert res.coloring is None
    assert "no valid coloring" in res.finding
    assert res.failed_member is not None
