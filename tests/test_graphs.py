import gc
import itertools
import random
import sys
from typing import Iterator, Sequence

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcolor import families, graphs
from asymcolor.density import build_pair_spec
from asymcolor.families import enumerate_blockers
from asymcolor.graphs import (
    Edge,
    Graph,
    Graph6Error,
    _orbit_floors,
    _pattern_order,
    adjacency_masks,
    adjacency_sets,
    bit_positions,
    canonical_form,
    canonical_key,
    complete_bipartite,
    complete_graph,
    cube_graph,
    cycle_graph,
    emit_graph6,
    enumerate_copies,
    enumerate_copies_through,
    enumerate_embeddings,
    extract_from_edges,
    graph,
    graph_stream,
    graphs_up_to,
    induced_subgraph,
    is_two_connected,
    octahedron_graph,
    parse_graph6,
    path_graph,
)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges)
    return h


def nx_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Aut(g) from networkx's VF2 matcher, each as the tuple of images."""
    matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(g), to_nx(g))
    return [tuple(m[v] for v in range(g.vertex_count)) for m in matcher.isomorphisms_iter()]


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return graph(n, edges)


# ---------------------------------------------------------------------------
# construction


def test_edges_normalized_and_sorted():
    g = graph(4, [(2, 0), (3, 1), (0, 2), (1, 0)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))


def test_loops_rejected():
    with pytest.raises(ValueError):
        graph(3, [(1, 1)])


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        graph(3, [(0, 3)])


def test_named_graphs():
    assert complete_graph(4).edge_count == 6
    assert cycle_graph(5).degree_sequence() == (2,) * 5
    assert complete_bipartite(3, 3).edge_count == 9
    assert path_graph(4).edge_count == 3
    assert cube_graph().degree_sequence() == (3,) * 8
    assert octahedron_graph().degree_sequence() == (4,) * 6
    assert octahedron_graph().edge_count == 12


def test_induced_subgraph_relabels():
    g = cycle_graph(5)
    sub, verts = induced_subgraph(g, [0, 1, 3])
    assert sub.vertex_count == 3
    assert sub.edges == ((0, 1),)
    assert verts == (0, 1, 3)


def test_extract_from_edges():
    g, verts = extract_from_edges([(7, 3), (3, 9)])
    assert g.vertex_count == 3
    assert g.edges == ((0, 1), (0, 2))  # 3 is the path center and sorts first
    assert verts == (3, 7, 9)


# ---------------------------------------------------------------------------
# copies


def naive_copies(host: Graph, pattern: Graph) -> set[frozenset]:
    """Brute force over all injections; the oracle for enumerate_copies."""
    images = set()
    hosts = range(host.vertex_count)
    eset = host.edge_set()
    for perm in itertools.permutations(hosts, pattern.vertex_count):
        image = set()
        ok = True
        for u, v in pattern.edges:
            e = (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            if e not in eset:
                ok = False
                break
            image.add(e)
        if ok:
            images.add(frozenset(image))
    return images


def test_copy_counts_frozen():
    # small cases worked out by hand
    assert len(enumerate_copies(complete_graph(4), complete_graph(3))) == 4
    assert len(enumerate_copies(cycle_graph(4), complete_graph(3))) == 0
    assert len(enumerate_copies(complete_graph(4), cycle_graph(4))) == 3
    assert len(enumerate_copies(complete_graph(5), complete_graph(4))) == 5
    assert len(enumerate_copies(complete_graph(6), cycle_graph(4))) == 45
    assert len(enumerate_copies(complete_bipartite(3, 3), cycle_graph(4))) == 9


def test_copies_match_naive_oracle():
    rng = random.Random(1729)
    patterns = [complete_graph(3), cycle_graph(4), complete_graph(4), path_graph(3)]
    for _ in range(40):
        host = random_graph(rng, rng.randint(4, 8), rng.uniform(0.2, 0.8))
        for pat in patterns:
            got = {c.edges for c in enumerate_copies(host, pat).copies}
            assert got == naive_copies(host, pat)


def test_copies_sorted_deterministically():
    cs = enumerate_copies(complete_graph(5), complete_graph(3))
    keys = [tuple(sorted(c.edges)) for c in cs.copies]
    assert keys == sorted(keys)


def test_copy_vertices_consistent():
    for c in enumerate_copies(complete_graph(6), cycle_graph(4)).copies:
        assert c.vertices == {v for e in c.edges for v in e}


def test_pattern_without_edges_rejected():
    with pytest.raises(ValueError):
        enumerate_copies(complete_graph(3), graph(2))


@pytest.mark.parametrize(
    "pattern",
    [
        complete_graph(3),
        complete_graph(4),
        complete_graph(5),
        cycle_graph(4),
        cycle_graph(5),
        complete_bipartite(3, 3),
        cube_graph(),
    ],
    ids=["K3", "K4", "K5", "C4", "C5", "K3,3", "Q3"],
)
def test_copies_match_networkx_monomorphisms(pattern):
    # networkx's VF2 matcher is the independent slow path: its subgraph
    # monomorphisms are the embeddings, and their edge images the copies.
    # Each sparse host gets one planted copy, so no pattern is checked only
    # on hosts without copies.
    rng = random.Random(2027 + pattern.edge_count)
    bare = 0  # host edges on no copy
    automorphisms = len(nx_automorphisms(pattern))
    for n, p in ((12, 0.4), (25, 0.15), (40, 0.08)):
        sample = random_graph(rng, n, p)
        plant = rng.sample(range(n), pattern.vertex_count)
        host = graph(n, list(sample.edges) + [(plant[u], plant[v]) for u, v in pattern.edges])
        images = set()
        monomorphisms = 0
        matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(host), to_nx(pattern))
        for m in matcher.subgraph_monomorphisms_iter():
            inv = {pv: hv for hv, pv in m.items()}
            images.add(frozenset(tuple(sorted((inv[u], inv[v]))) for u, v in pattern.edges))
            monomorphisms += 1
        copy_set = enumerate_copies(host, pattern)
        copies = copy_set.copies
        assert [c.edges for c in copies] == sorted(images, key=sorted)
        assert all(c.vertices == {v for e in c.edges for v in e} for c in copies)
        assert sum(1 for _ in enumerate_embeddings(host, pattern)) == monomorphisms
        # no pattern here has an isolated vertex, so each copy is one
        # Aut(pattern)-orbit of monomorphisms
        assert len(copies) * automorphisms == monomorphisms
        # the per-edge index: the copies through each host edge, in copy
        # order, and () for an edge on no copy
        for e in host.edges:
            through = [c.edges for c in copy_set.through(e)]
            assert through == [image for image in sorted(images, key=sorted) if e in image]
            bare += not through
    assert bare > 0


def test_copy_index_matches_a_bit_by_bit_reference():
    # K_30 has 4,060 triangles, three 1024-copy chunks and a partial one;
    # K_18's 816 fit in one chunk
    for k, count in ((30, 4060), (18, 816)):
        triangles = enumerate_copies(complete_graph(k), complete_graph(3))
        assert len(triangles) == count
        want: dict = {}
        for i, c in enumerate(triangles.copies):
            for e in c.edges:
                want[e] = want.get(e, 0) | 1 << i
        assert triangles.index == want
        assert list(triangles.index) == list(want)


def test_bit_positions_matches_a_naive_scan():
    rng = random.Random(16)
    masks = [0] + [1 << i for i in (0, 1, 7, 8, 63, 64, 1000)]
    masks += [rng.getrandbits(w) for w in (1, 8, 65, 1000, 20000) for _ in range(3)]
    masks.append((1 << 20000) | 1)  # wide and sparse
    for m in masks:
        assert list(bit_positions(m)) == [i for i in range(m.bit_length()) if m >> i & 1]
    # masks built from their bits, each with its top bit set: 7, 8 and 9 bits
    # either side of the switch from the lowest-bit walk to the bin() walk,
    # at widths from 10 to 100,000 bits, and a single bit at 100,000
    cases = [
        rng.sample(range(w - 1), k - 1) + [w - 1] for w in (10, 200, 2000, 100_000) for k in (7, 8, 9)
    ]
    cases.append([99_999])
    for bits in cases:
        assert list(bit_positions(sum(1 << i for i in bits))) == sorted(bits)
    for m in (-1, -5, -(1 << 100)):
        with pytest.raises(ValueError):
            list(bit_positions(m))


def test_copy_witness_is_the_first_embedding():
    # an isolated pattern vertex goes to the lowest free host vertex, so the
    # witness vertex sets are pinned by the enumeration order
    copies = enumerate_copies(path_graph(5), graph(3, [(0, 1)])).copies
    assert [sorted(c.edges) for c in copies] == [[(0, 1)], [(1, 2)], [(2, 3)], [(3, 4)]]
    assert [sorted(c.vertices) for c in copies] == [[0, 1, 2], [0, 1, 2], [0, 2, 3], [0, 3, 4]]
    assert next(enumerate_embeddings(path_graph(5), graph(3, [(0, 1)]))) == (0, 1, 2)
    assert list(enumerate_embeddings(graph(2), graph(0))) == [()]
    assert list(enumerate_embeddings(graph(2), graph(3))) == []


def _check_orbit_representatives(monkeypatch, pattern: Graph) -> None:
    # the slow path: every embedding, deduplicated by edge image, each copy
    # witnessed by the vertices of its first embedding; each host gets one
    # planted copy
    rng = random.Random(4099 + 31 * pattern.vertex_count + pattern.edge_count)
    automorphisms = nx_automorphisms(pattern)
    original = graphs.enumerate_embeddings
    built = []  # the maps enumerate_copies asks for

    def recording(*args):
        for vm in original(*args):
            built.append(vm)
            yield vm

    _orbit_floors(pattern)  # the automorphism search, outside the recording
    isolated = 0 in pattern.degree_sequence()
    for n, p in ((9, 0.6), (14, 0.4), (20, 0.25)):
        sample = random_graph(rng, n, p)
        plant = rng.sample(range(n), pattern.vertex_count)
        host = graph(n, list(sample.edges) + [(plant[u], plant[v]) for u, v in pattern.edges])
        first: dict[frozenset, frozenset] = {}
        least = []  # the first map of each Aut-orbit, in stream order
        orbits = set()
        for vm in enumerate_embeddings(host, pattern):
            image = frozenset(tuple(sorted((vm[u], vm[v]))) for u, v in pattern.edges)
            first.setdefault(image, frozenset(vm))
            orbit = frozenset(tuple(vm[w] for w in sigma) for sigma in automorphisms)
            if orbit not in orbits:
                orbits.add(orbit)
                least.append(vm)
        expected = sorted(first.items(), key=lambda item: sorted(item[0]))
        built.clear()
        with monkeypatch.context() as patched:
            patched.setattr(graphs, "enumerate_embeddings", recording)
            copies = enumerate_copies(host, pattern).copies
        assert copies
        assert [(c.edges, c.vertices) for c in copies] == expected
        # exactly the least map of each orbit is built
        assert built == least
        # orbits only share an edge image through isolated pattern vertices
        assert len(least) == len(copies) if not isolated else len(least) >= len(copies)


@pytest.mark.parametrize(
    "pattern",
    [
        complete_graph(3),
        complete_graph(4),
        cycle_graph(4),
        complete_graph(5),
        complete_bipartite(3, 3),
        graph(3, [(0, 1)]),
    ],
    ids=["K3", "K4", "C4", "K5", "K3,3", "K2+K1"],
)
def test_orbit_representatives_match_the_full_embedding_stream(monkeypatch, pattern):
    _check_orbit_representatives(monkeypatch, pattern)


def test_orbit_representatives_of_the_k3k3_blocker_members(monkeypatch):
    members = enumerate_blockers(build_pair_spec(complete_graph(3), complete_graph(3)), 6).members
    assert len(members) >= 3
    for member in members:
        _check_orbit_representatives(monkeypatch, member)


def test_automorphism_search_runs_once_per_pattern(monkeypatch):
    original = graphs.enumerate_embeddings
    searches = []

    def counting(host, pattern, *rest):
        if host == pattern:
            searches.append(pattern)
        return original(host, pattern, *rest)

    monkeypatch.setattr(graphs, "enumerate_embeddings", counting)
    _orbit_floors.cache_clear()
    rng = random.Random(11)
    patterns = [complete_graph(4), cycle_graph(5), graph(3, [(0, 1)])]
    for n in (8, 10, 12):
        host = random_graph(rng, n, 0.5)
        for pattern in patterns:
            enumerate_copies(host, pattern)
            enumerate_copies(host, graph(pattern.vertex_count, pattern.edges))  # an equal Graph
    assert searches == patterns


def test_embeddings_count_automorphisms():
    # the number of embeddings of a pattern into itself equals |Aut|
    assert sum(1 for _ in enumerate_embeddings(cycle_graph(5), cycle_graph(5))) == 10
    assert sum(1 for _ in enumerate_embeddings(complete_graph(4), complete_graph(4))) == 24
    assert sum(1 for _ in enumerate_embeddings(cube_graph(), cube_graph())) == 48


def recursive_embeddings(
    host: Graph, pattern: Graph, floors: Sequence[Sequence[int]] = ()
) -> Iterator[tuple[int, ...]]:
    """The matcher as a recursive generator, one frame per pattern vertex:
    the reference the iterative enumerate_embeddings must reproduce map for
    map, in order."""
    hmask = adjacency_masks(host)
    hdeg = host.degree_sequence()
    pdeg = pattern.degree_sequence()
    padj = adjacency_sets(pattern)
    order = _pattern_order(pattern)
    fit = {d: sum(1 << v for v, hd in enumerate(hdeg) if hd >= d) for d in set(pdeg)}
    floors = floors or [()] * pattern.vertex_count
    steps = [
        (pv, fit[pdeg[pv]], [q for q in padj[pv] if q in order[:depth]], floors[pv])
        for depth, pv in enumerate(order)
    ]
    assignment = [-1] * pattern.vertex_count

    def backtrack(depth: int, free: int) -> Iterator[tuple[int, ...]]:
        if depth == len(steps):
            yield tuple(assignment)
            return
        pv, cand, anchors, above = steps[depth]
        cand &= free
        for q in anchors:
            cand &= hmask[assignment[q]]
        for q in above:
            cand &= -(2 << assignment[q])  # host vertices above q's image
        while cand:
            low = cand & -cand
            assignment[pv] = low.bit_length() - 1
            yield from backtrack(depth + 1, free ^ low)
            cand ^= low

    yield from backtrack(0, (1 << host.vertex_count) - 1)


def test_matcher_reproduces_the_recursive_reference():
    k3k3 = build_pair_spec(complete_graph(3), complete_graph(3))
    members = enumerate_blockers(k3k3, 6).members
    assert len(members) >= 3
    patterns = [
        complete_graph(3),
        cycle_graph(4),
        complete_graph(4),
        complete_graph(5),
        complete_bipartite(3, 3),
        graph(3, [(0, 1)]),
        *members,
    ]
    rng = random.Random(1812)
    maps = 0
    for pattern in patterns:
        for n, p in ((6, 0.7), (12, 0.45), (20, 0.25)):
            sample = random_graph(rng, n, p)
            plant = rng.sample(range(n), pattern.vertex_count)
            host = graph(n, list(sample.edges) + [(plant[u], plant[v]) for u, v in pattern.edges])
            for floors in ((), _orbit_floors(pattern)):
                stream = list(enumerate_embeddings(host, pattern, floors))
                assert stream == list(recursive_embeddings(host, pattern, floors))
                assert stream  # each host holds the planted copy
                maps += len(stream)
    # a pattern with more vertices than the host, and the empty pattern
    assert list(enumerate_embeddings(graph(3, [(0, 1)]), complete_graph(4))) == []
    assert list(enumerate_embeddings(complete_graph(3), graph(0))) == [()]
    assert maps > 10_000


def test_copy_enumeration_needs_no_recursion():
    # a 400-vertex pattern: one generator frame per pattern vertex would
    # exceed a limit of 300 frames
    path = path_graph(400)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        copies = enumerate_copies(path, path)
    finally:
        sys.setrecursionlimit(limit)
    assert len(copies) == 1 and copies.copies[0].edges == path.edge_set()


def test_copies_through_an_edge_match_the_full_enumeration(monkeypatch):
    # the rooted search places one arc per Aut-orbit of arcs on e and
    # extends it; on seeded G(n, p) hosts it finds exactly the copies
    # through e of the full enumeration, witness vertex sets included, with
    # one map per copy. Patterns: the bound-6 blocker members of K3/K3 and of
    # K4/C4 (which has none), K3, C4, K4 and K2,3
    members = [
        m
        for h1, h2 in ((complete_graph(3), complete_graph(3)), (complete_graph(4), cycle_graph(4)))
        for m in enumerate_blockers(build_pair_spec(h1, h2), 6).members
    ]
    assert len(members) == 7
    patterns = [complete_graph(3), cycle_graph(4), complete_graph(4), complete_bipartite(2, 3), *members]
    original = graphs._extend
    maps = []

    def counting(*args):
        for vm in original(*args):
            maps.append(vm)
            yield vm

    rng = random.Random(2018)
    copies = 0
    for n, p in ((6, 0.8), (9, 0.6), (10, 0.75), (12, 0.45), (16, 0.3)):
        host = random_graph(rng, n, p)
        for pattern in patterns:
            full = enumerate_copies(host, pattern)
            graphs._rooted_plans(pattern)  # the automorphism search, outside the count
            for e in host.edges:
                maps.clear()
                with monkeypatch.context() as patched:
                    patched.setattr(graphs, "_extend", counting)
                    through = enumerate_copies_through(host, pattern, e)
                assert through == full.through(e)
                assert len(maps) == len(through)
                copies += len(through)
            missing = next(f for f in itertools.combinations(range(n), 2) if f not in host.edge_set())
            assert enumerate_copies_through(host, pattern, missing) == ()
    assert copies > 20_000
    # with an isolated pattern vertex the edge images still match
    host = random_graph(rng, 8, 0.5)
    pattern = graph(3, [(0, 1)])
    full = enumerate_copies(host, pattern)
    for e in host.edges:
        assert [c.edges for c in enumerate_copies_through(host, pattern, e)] == [c.edges for c in full.through(e)]
    with pytest.raises(ValueError):
        enumerate_copies_through(host, graph(2), host.edges[0])


# ---------------------------------------------------------------------------
# connectivity


def test_two_connected_basics():
    assert is_two_connected(cycle_graph(4))
    assert is_two_connected(complete_graph(3))
    assert not is_two_connected(path_graph(3))
    assert not is_two_connected(complete_graph(2))
    assert not is_two_connected(graph(1))
    # two triangles sharing a vertex
    g = graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert not is_two_connected(g)


def test_connectivity_matches_networkx():
    # networkx is the independent slow path: 2-connected means at least 3
    # vertices, connected, and no articulation point
    def check(g):
        h = to_nx(g)
        expected = g.vertex_count >= 3 and nx.is_connected(h) and not list(nx.articulation_points(h))
        assert is_two_connected(g) == expected, (g.vertex_count, g.edges)

    # every graph on 0-7 vertices, up to isomorphism (OEIS A000088)
    every = graphs_up_to(7)
    sizes = [sum(1 for g in every if g.vertex_count == n) for n in range(8)]
    assert sizes == [1, 1, 2, 4, 11, 34, 156, 1044]
    for g in every:
        check(g)
    rng = random.Random(7)
    for _ in range(60):
        check(random_graph(rng, rng.randint(3, 9), rng.uniform(0.1, 0.7)))
    # larger hosts, sparse enough that many have a cut vertex
    rng = random.Random(20)
    for _ in range(12):
        check(random_graph(rng, rng.randint(20, 30), rng.uniform(0.08, 0.3)))


# ---------------------------------------------------------------------------
# canonical labeling


def permuted(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def test_canonical_invariant_under_permutation():
    rng = random.Random(55)
    bases = [
        cycle_graph(6),
        complete_bipartite(2, 3),
        cube_graph(),
        octahedron_graph(),
        graph(1),
        graph(5, [(0, 1), (2, 3)]),
    ]
    for _ in range(30):
        bases.append(random_graph(rng, rng.randint(2, 9), rng.uniform(0.1, 0.9)))
    for g in bases:
        canon, _ = canonical_form(g)
        for _ in range(50):
            canon2, _ = canonical_form(permuted(g, rng))
            assert canon2 == canon


def test_canonical_mapping_is_isomorphism():
    rng = random.Random(56)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.9))
        canon, mapping = canonical_form(g)
        assert sorted(mapping) == list(range(g.vertex_count))
        relabeled = graph(g.vertex_count, [(mapping[u], mapping[v]) for u, v in g.edges])
        assert relabeled == canon


def test_canonical_separates_nonisomorphic():
    rng = random.Random(57)
    pool = [random_graph(rng, 6, rng.uniform(0.2, 0.8)) for _ in range(80)]
    for a, b in itertools.combinations(pool, 2):
        same = canonical_key(a) == canonical_key(b)
        assert same == nx.is_isomorphic(to_nx(a), to_nx(b))


def test_empty_graph_canonical():
    canon, mapping = canonical_form(graph(0))
    assert canon == graph(0)
    assert mapping == ()


def test_canonical_search_leaves_no_garbage():
    # the search's nested dfs must not keep its state alive in a reference
    # cycle: with the collector off, one search leaves nothing for it
    gc.disable()
    try:
        gc.collect()
        canonical_form(cube_graph())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_automorphism_generators_match_networkx():
    # the canonical search's generators are automorphisms, and the group
    # they generate has networkx's Aut(g) orbits, on every graph up to 6
    # vertices and on seeded random graphs up to 9
    rng = random.Random(58)
    hosts = graphs_up_to(6) + [
        permuted(random_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.8)), rng) for _ in range(80)
    ]
    hosts += [cycle_graph(9), cube_graph(), octahedron_graph(), complete_bipartite(3, 4)]
    for g in hosts:
        n = g.vertex_count
        _, generators = graphs._canonical_search(g)
        edges = g.edge_set()
        for sigma in generators:
            assert sorted(sigma) == list(range(n))
            assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in g.edges} == edges
        roots = graphs._orbit_roots(n, generators)
        got = {frozenset(v for v in range(n) if roots[v] == r) for r in roots}
        automorphisms = nx_automorphisms(g)
        assert got == {frozenset(sigma[v] for sigma in automorphisms) for v in range(n)}, g.edges


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.data())
def test_canonical_congruence_property(n, data):
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=n * (n - 1) // 2,
        )
    )
    g = graph(n, list(edges))
    perm = data.draw(st.permutations(list(range(n))))
    h = graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    assert canonical_key(g) == canonical_key(h)


# ---------------------------------------------------------------------------
# exhaustive generation


def graphs_on(n, keep=None):
    """The classes on exactly n vertices: the last order of graphs_up_to."""
    return [g for g in graphs_up_to(n, keep) if g.vertex_count == n]


def test_nonisomorphic_counts():
    # classic counts of graphs on n unlabeled vertices
    assert [len(graphs_on(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_nonisomorphic_counts_seven():
    assert len(graphs_on(7)) == 1044


def test_generation_is_pairwise_nonisomorphic():
    gs = graphs_on(5)
    keys = {canonical_key(g) for g in gs}
    assert len(keys) == len(gs)
    for a, b in itertools.combinations(gs[:20], 2):
        assert not nx.is_isomorphic(to_nx(a), to_nx(b))


def test_generation_with_density_cap():
    # keep only graphs with e <= v: the pruned search finds exactly the
    # graphs that satisfy it, and keep sees each isomorphism class once:
    # below order n as its canonical form, at order n as built
    for n in range(7):
        seen = []

        def keep(g):
            seen.append(g)
            return g.edge_count <= g.vertex_count

        gs = graphs_on(n, keep=keep)
        below = [g for g in seen if g.vertex_count < n]
        assert all(canonical_form(g)[0] == g for g in below)
        assert len(set(below)) == len(below)
        at_n = [g for g in seen if g.vertex_count == n]
        assert len({canonical_key(g) for g in at_n}) == len(at_n)
        want = [g for g in graphs_on(n) if g.edge_count <= g.vertex_count]
        assert gs == want
        assert {canonical_form(g)[0] for g in at_n if g.edge_count <= g.vertex_count} == set(want)


def test_generation_rejects_a_negative_order():
    with pytest.raises(ValueError):
        graphs_up_to(-1)
    with pytest.raises(ValueError):
        list(graph_stream(-1))


def test_stream_at_orders_zero_and_one(monkeypatch):
    # at n = 0 the empty graph is the whole stream and has no child
    # expanded; at n = 1 it is followed by its one child, K1
    expanded = []
    children = graphs._children

    def recording(g, generators, last):
        expanded.append((g, last))
        return children(g, generators, last)

    monkeypatch.setattr(graphs, "_children", recording)
    assert list(graph_stream(0)) == [graph(0)]
    assert expanded == []
    assert list(graph_stream(1)) == [graph(0), graph(1)]
    assert expanded == [(graph(0), True)]
    assert graphs_up_to(0) == [graph(0)]
    assert graphs_up_to(1) == [graph(0), graph(1)]


def test_stream_with_a_keep_that_rejects_the_empty_graph():
    offered = []

    def keep(g):
        offered.append(g)
        return g.vertex_count > 0

    for n in range(3):
        offered.clear()
        assert list(graph_stream(n, keep)) == []
        assert offered == [graph(0)]
        assert graphs_up_to(n, keep) == []


def every_extension_graphs_up_to(n, keep=None):
    """The reference for graphs_up_to: the same levels, built by
    canonicalising every one of the 2^k one-vertex extensions of each kept
    class on k vertices."""
    if n < 0:
        raise ValueError(f"vertex count {n} < 0")
    start = graph(0)
    level = [start] if keep is None or keep(start) else []
    out = list(level)
    for size in range(1, n + 1):
        seen: dict[tuple[Edge, ...], Graph | None] = {}  # None: dropped by keep
        for g in level:
            for mask in range(1 << g.vertex_count):
                edges = list(g.edges) + [
                    (i, g.vertex_count) for i in range(g.vertex_count) if (mask >> i) & 1
                ]
                canon, _ = canonical_form(graph(size, edges))
                if canon.edges not in seen:
                    seen[canon.edges] = canon if keep is None or keep(canon) else None
        level = sorted(
            (g for g in seen.values() if g is not None), key=lambda g: (g.edge_count, g.edges)
        )
        out.extend(level)
    return out


def test_generation_matches_every_extension_reference():
    k3k3 = build_pair_spec(complete_graph(3), complete_graph(3))
    k4c4 = build_pair_spec(complete_graph(4), cycle_graph(4))
    keeps = {
        "all": (None, 7),
        "e <= v": (lambda g: g.edge_count <= g.vertex_count, 6),
        "max degree <= 3": (lambda g: max(g.degree_sequence(), default=0) <= 3, 6),
        "K3/K3 cap": (lambda g: families._under_cap(g, k3k3), 7),
        "K4/C4 cap": (lambda g: families._under_cap(g, k4c4), 6),
    }
    for name, (keep, top) in keeps.items():
        # a level does not depend on the bound, so one reference run serves
        # every n up to top
        want = every_extension_graphs_up_to(top, keep)
        for n in range(top + 1):
            seen = []

            def recording(g):
                seen.append(g)
                return keep is None or keep(g)

            got = graphs_up_to(n, keep)
            assert got == [g for g in want if g.vertex_count <= n], (name, n)
            assert graphs_up_to(n, recording) == got, (name, n)
            # keep saw each class once: below n as its canonical form, at n
            # as built, and the classes it kept at n are the reference's
            below = [g for g in seen if g.vertex_count < n]
            assert len(set(below)) == len(below), (name, n)
            assert all(canonical_form(g)[0] == g for g in below), (name, n)
            at_n = [g for g in seen if g.vertex_count == n]
            assert len({canonical_key(g) for g in at_n}) == len(at_n), (name, n)
            assert {canonical_form(g)[0] for g in at_n if keep is None or keep(g)} == {
                g for g in want if g.vertex_count == n
            }, (name, n)


def test_stream_runs_a_canonical_search_per_class_below_the_last_order(monkeypatch):
    # canonical augmentation, depth first: each class below the last order
    # costs about one canonical search, a last-order class costs one only
    # when a rival ties its new vertex's invariant, and the catalog adds
    # one per member for its canonical form. keep sees each class once
    k3k3 = build_pair_spec(complete_graph(3), complete_graph(3))
    searches = 0
    search = graphs._canonical_search

    def counted(g):
        nonlocal searches
        searches += 1
        return search(g)

    monkeypatch.setattr(graphs, "_canonical_search", counted)
    assert len(enumerate_blockers(k3k3, 7).members) == 9
    assert searches == 635
    searches = 0
    offered = []

    def keep(g):
        offered.append(g)
        return families._under_cap(g, k3k3)

    got = list(graph_stream(7, keep))
    assert searches == 626
    assert len({canonical_key(g) for g in offered}) == len(offered) == 1249  # the empty graph included
    assert len({canonical_key(g) for g in got}) == len(got) == 1160
    assert got == [g for g in offered if families._under_cap(g, k3k3)]


def test_graphs_up_to_includes_small():
    gs = graphs_up_to(3)
    # 1 (empty) + 1 + 2 + 4
    assert len(gs) == 8


# ---------------------------------------------------------------------------
# graph6


def test_graph6_frozen_examples():
    assert parse_graph6("C~") == complete_graph(4)
    assert emit_graph6(complete_graph(2)) == "A_"
    assert emit_graph6(graph(0)) == "?"
    assert parse_graph6("?") == graph(0)
    assert parse_graph6("D?{") == graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])


def test_graph6_roundtrip_small():
    rng = random.Random(99)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12), rng.uniform(0, 1))
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_matches_networkx():
    rng = random.Random(100)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.2, 0.8))
        assert emit_graph6(g) == nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()


def test_graph6_long_form():
    g = path_graph(70)
    s = emit_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g
    assert nx.from_graph6_bytes(s.encode()).number_of_edges() == 69


def test_graph6_rejects_bad_input():
    with pytest.raises(Graph6Error) as one:
        parse_graph6("")
    assert one.value.position == 0
    with pytest.raises(Graph6Error):
        parse_graph6("C~~~~")  # trailing bytes
    with pytest.raises(Graph6Error):
        parse_graph6("C")  # truncated body
    with pytest.raises(Graph6Error) as two:
        parse_graph6("B" + chr(30))  # outside alphabet
    assert two.value.position == 1
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(63 + 1))  # nonzero padding for K2-bar... n=2 pad bits
