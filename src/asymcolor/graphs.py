"""Small-graph core: exact copies, connectivity, canonical labels, graph6.

Everything downstream (density measures, obstruction families, the stack
colorer, the growth procedures) works over this module's Graph type. Graphs
are immutable, vertices are 0..n-1, and edges are stored as a sorted tuple of
sorted pairs so that iteration order is deterministic everywhere.

An embedding is a vertex map, a tuple of host vertices, found by a
backtracking search over host bitmasks in a fixed order: one loop over a
stack of per-depth candidate masks, whose pattern-side plan is computed
once per pattern, so no pattern size meets the recursion limit. A "copy" of a
pattern inside a host is a subgraph image; copies are deduplicated by edge
image (two embeddings that differ only by a pattern automorphism are the same
copy), and a copy's witness vertex set comes from its first embedding. This
is the semantics all family and colorer code relies on.

Copy enumeration builds one vertex map per Aut(pattern)-orbit, not every
automorphic image: symmetry-breaking conditions from a stabiliser chain of
the pattern's automorphism group (Grochow & Kellis, RECOMB 2007) admit only
each orbit's least map, and the first embedding of a copy is that map.
enumerate_copies_through finds only the copies through one host edge: it
places one pattern arc per arc orbit on the edge and extends the map under
the same kind of conditions, as the update-rooted matching of continuous
subgraph matching does (TurboFlux, Kim et al., SIGMOD 2018).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop edge ({u},{v}) not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: tuple[Edge, ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree_sequence(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"Graph(n={self.vertex_count}, m={len(self.edges)})"


def graph(vertex_count: int, edges: Iterable[Sequence[int]] = ()) -> Graph:
    """Build a Graph, normalizing, deduplicating and sorting the edge list."""
    if vertex_count < 0:
        raise ValueError("vertex_count must be >= 0")
    seen = set()
    for e in edges:
        u, v = e
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u},{v}) out of range for {vertex_count} vertices")
        seen.add(norm_edge(u, v))
    return Graph(vertex_count, tuple(sorted(seen)))


# ---------------------------------------------------------------------------
# named graphs used all over the tests and the CLI examples


def complete_graph(n: int) -> Graph:
    return graph(n, itertools.combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs >= 3 vertices")
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cube_graph() -> Graph:
    """The 3-dimensional hypercube, vertices are the 3-bit strings."""
    return graph(8, [(x, x ^ (1 << k)) for x in range(8) for k in range(3) if x < x ^ (1 << k)])


def octahedron_graph() -> Graph:
    """K_{2,2,2}: the complete graph on 6 vertices minus a perfect matching."""
    return graph(6, [(u, v) for u, v in itertools.combinations(range(6), 2) if v - u != 3])


# ---------------------------------------------------------------------------
# adjacency helpers


def adjacency_masks(g: Graph) -> list[int]:
    """Neighborhoods as bitmasks; bit v of masks[u] set iff uv is an edge."""
    masks = [0] * g.vertex_count
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def adjacency_sets(g: Graph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Extract the induced subgraph on `vertices` as a standalone Graph.

    Returns the extracted graph together with its vertices' original
    labels, new vertex i being original vertex verts[i]. Vertices are
    relabeled in increasing original order.
    """
    verts = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return graph(len(verts), edges), verts


def extract_from_edges(edges: Iterable[Edge]) -> tuple[Graph, tuple[int, ...]]:
    """Relabel an edge set to a compact Graph on the vertices it touches,
    returned with their original labels in increasing order, as
    induced_subgraph does."""
    edges = [norm_edge(*e) for e in edges]
    verts = tuple(sorted({v for e in edges for v in e}))
    index = {v: i for i, v in enumerate(verts)}
    return graph(len(verts), [(index[u], index[v]) for u, v in edges]), verts


# ---------------------------------------------------------------------------
# copies of a pattern inside a host


@dataclass(frozen=True)
class Copy:
    """One subgraph copy: the image edge set plus a witness vertex set."""

    edges: frozenset[Edge]
    vertices: frozenset[int]

    def sort_key(self) -> tuple:
        return tuple(sorted(self.edges))


def bit_positions(mask: int) -> Iterator[int]:
    """The set bits of a mask >= 0, ascending; ValueError on a negative one.

    A mask with at most 8 set bits, such as the copies through one edge of
    a sparse host, is walked lowest bit first: three int operations per
    bit, each linear in the width. A denser one is read off its bin()
    string, in time linear in its width. Timed per mask (Python 3.11), the
    walk was at least 1.3x faster up to 8 bits at every width from 16 to
    10,000 bits, and about level with the string at 16 bits; on the K3/K3
    stuck benchmark 99% of the masks hold at most 8 bits."""
    if mask < 0:
        raise ValueError("bit_positions needs a mask >= 0")
    if mask.bit_count() <= 8:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    digits = bin(mask)[:1:-1]  # least significant digit first
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def copy_index(copies: Sequence[Copy]) -> dict[Edge, int]:
    """Every edge on some copy, mapped to the bitmask of the positions in
    copies of the copies through it. The one builder of per-edge copy
    masks: CopySet.index and the blocker decomposition's maximality test
    both call it.

    Setting a bit copies the whole int, so bits are set in the small ints
    of 1024-copy chunks; past one chunk, each edge's mask is joined once
    from its chunks' 128-byte images, zeros where none."""
    n_chunks = -(-len(copies) // 1024)
    zero = bytes(128)
    parts: dict[Edge, list[bytes]] = {}
    for j in range(n_chunks):
        chunk: dict[Edge, int] = {}
        for i, c in enumerate(copies[1024 * j : 1024 * j + 1024]):
            bit = 1 << i
            for e in c.edges:
                chunk[e] = chunk.get(e, 0) | bit
        if n_chunks == 1:
            return chunk
        for e, m in chunk.items():
            p = parts.get(e)
            if p is None:
                p = parts[e] = [zero] * n_chunks
            p[j] = m.to_bytes(128, "little")
    return {e: int.from_bytes(b"".join(p), "little") for e, p in parts.items()}


@dataclass(frozen=True)
class CopySet:
    """Copies of pattern, in ascending `Copy.sort_key` order.

    index, which copy_index builds, maps every edge on some copy to the
    bitmask of the positions of the copies through it, and through(e)
    decodes that mask into those copies in the order of copies. It is the
    one per-edge copy index: the colorer's alive masks, the oracle and the
    pin relation all read it.
    The index is built on first use: a set nobody queries costs nothing.
    endpoint_masks, per copy the bitmask of its edges' endpoints, is too.
    """

    pattern: Graph
    copies: tuple[Copy, ...]

    def __len__(self) -> int:
        return len(self.copies)

    @cached_property
    def index(self) -> dict[Edge, int]:
        return copy_index(self.copies)

    @cached_property
    def endpoint_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << v for v in {v for e in c.edges for v in e}) for c in self.copies)

    def through(self, e: Edge) -> tuple[Copy, ...]:
        """The copies that contain edge e, () when none does."""
        return tuple(self.copies[i] for i in bit_positions(self.index.get(e, 0)))


@lru_cache(maxsize=256)  # a run meets few patterns: h1, h2 and the blocker members
def _pattern_order(pattern: Graph, root: tuple[int, ...] = ()) -> tuple[int, ...]:
    # The root vertices first, then greedy connected expansion (from a
    # max-degree vertex when there is no root); isolated pattern vertices go
    # last. Keeps the backtracking search well anchored.
    deg = pattern.degree_sequence()
    adj = adjacency_sets(pattern)
    remaining = set(range(pattern.vertex_count)) - set(root)
    order: list[int] = list(root)
    while remaining:
        placed = set(order)
        best = max(
            remaining,
            key=lambda v: (len(adj[v] & placed), deg[v], -v),
        )
        order.append(best)
        remaining.discard(best)
    return tuple(order)


@lru_cache(maxsize=256)  # a run meets few patterns: h1, h2 and the blocker members
def _search_plan(
    pattern: Graph, floors: tuple[tuple[int, ...], ...], root: tuple[int, ...] = ()
) -> tuple:
    """`_pattern_order` from root, the pattern's largest degree, and per
    depth along the order the vertex's degree and the depths of its placed
    neighbours and of its floors."""
    order = _pattern_order(pattern, root)
    depth_of = {pv: depth for depth, pv in enumerate(order)}
    padj = adjacency_sets(pattern)
    return order, max(pattern.degree_sequence(), default=0), tuple(
        (len(padj[pv]), tuple(depth_of[q] for q in padj[pv] if depth_of[q] < depth),
         tuple(depth_of[q] for q in floors[pv]) if floors else ())
        for depth, pv in enumerate(order)
    )


@lru_cache(maxsize=1)  # the rooted search asks about one host edge by edge
def _host_side(host: Graph) -> tuple[list[int], list[int], list[dict[int, Edge]]]:
    """The matcher's view of host: its adjacency masks; at index d, for d up
    to the largest degree, the mask of the vertices of degree at least d;
    and per vertex, its neighbours' edge tuples (the host's own)."""
    degrees = host.degree_sequence()
    at_least = [0] * (max(degrees, default=0) + 1)
    for v, d in enumerate(degrees):
        at_least[d] |= 1 << v
    for d in range(len(at_least) - 2, -1, -1):
        at_least[d] |= at_least[d + 1]
    edge_at: list[dict[int, Edge]] = [{} for _ in range(host.vertex_count)]
    for e in host.edges:
        u, v = e
        edge_at[u][v] = edge_at[v][u] = e
    return adjacency_masks(host), at_least, edge_at


def _extend(side: tuple, plan: tuple, size: int, start: Sequence[int] = ()) -> Iterator[tuple[int, ...]]:
    """The embeddings into the host of side (a `_host_side`), along plan (a
    `_search_plan` of a pattern on size vertices), that map the plan's first
    depths to the host vertices start; see enumerate_embeddings."""
    order, max_degree, steps = plan
    hmask, fit, _ = side
    if max_degree >= len(fit):  # a pattern vertex of larger degree than any host vertex
        return
    if not order:
        yield ()
        return
    # the host vertices each depth may take: only its start vertex for the
    # pre-placed depths, any for the rest
    pins = [1 << v for v in start] + [-1] * (len(order) - len(start))
    last = len(order) - 1
    image = [0] * len(order)  # the host vertex placed at each depth
    untried = [0] * len(order)  # the candidates left at each depth
    assignment = [-1] * size
    used = depth = 0
    cand = fit[steps[0][0]] & pins[0]
    while True:
        if depth == last:
            pv = order[last]
            while cand:
                low = cand & -cand
                assignment[pv] = low.bit_length() - 1
                yield tuple(assignment)
                cand ^= low
        if cand:  # place the least candidate and descend
            low = cand & -cand
            untried[depth] = cand ^ low
            image[depth] = assignment[order[depth]] = low.bit_length() - 1
            used |= low
            depth += 1
            degree, anchors, above = steps[depth]
            cand = fit[degree] & ~used & pins[depth]
            for a in anchors:
                cand &= hmask[image[a]]
            for a in above:
                cand &= -(2 << image[a])  # host vertices above that depth's image
        elif depth:  # back up to the previous depth's next candidate
            depth -= 1
            used ^= 1 << image[depth]
            cand = untried[depth]
        else:
            return


def enumerate_embeddings(
    host: Graph, pattern: Graph, floors: Sequence[Sequence[int]] = ()
) -> Iterator[tuple[int, ...]]:
    """Yield every embedding of pattern into host (subgraph, not induced):
    the injective vertex map, as the tuple of host images of pattern
    vertices 0..k-1, that carries every pattern edge to a host edge.

    Pattern vertices are placed in `_pattern_order`. Each one's candidates
    are one AND of bitmasks: free host vertices, host vertices of large
    enough degree, and the neighbourhoods of the images of its placed
    neighbours. They are tried lowest bit first, so maps come in
    lexicographic order along `_pattern_order`; that order fixes which
    embedding of a copy comes first, and so its witness vertex set.

    floors, when given, lists for each pattern vertex v the vertices placed
    before it whose images v's image must exceed; one more AND each. Only
    the maps that meet them are built.

    The search (`_extend`) is a loop over per-depth candidate masks, not a
    recursion; its pattern side, `_search_plan`, is computed once per
    (pattern, floors), and its host side, `_host_side`, once per run of
    calls on one host.
    """
    plan = _search_plan(pattern, tuple(map(tuple, floors)))
    return _extend(_host_side(host), plan, pattern.vertex_count)


@lru_cache(maxsize=256)  # a run meets few patterns: h1, h2 and the blocker members
def _orbit_floors(pattern: Graph, root: tuple[int, ...] = ()) -> tuple[tuple[int, ...], ...]:
    """Symmetry-breaking floors of pattern, in `enumerate_embeddings` form,
    under the automorphisms of pattern that fix every root vertex.

    Walk `_pattern_order(pattern, root)` down a stabiliser chain of that
    group: at depth k, every u != order[k] in the orbit of order[k] under
    the pointwise stabiliser of order[0..k-1] gets floor order[k], that is
    φ(u) > φ(order[k]). The least map φ of an orbit meets them: for σ in
    that stabiliser with σ(order[k]) = u, φ∘σ agrees with φ before depth k
    and has φ(u) at depth k. No other map of the orbit does: if φ∘σ met
    them too, at the first depth k that σ moves, φ(σ(order[k])) would lie
    both above and below φ(order[k]). The root vertices come first in the
    order and are fixed, so they get no floor. Computed once per (pattern,
    root), on first use.
    """
    group = [s for s in enumerate_embeddings(pattern, pattern) if all(s[v] == v for v in root)]
    floors: list[list[int]] = [[] for _ in range(pattern.vertex_count)]
    for v in _pattern_order(pattern, root):
        for u in {sigma[v] for sigma in group} - {v}:
            floors[u].append(v)
        group = [sigma for sigma in group if sigma[v] == v]
    return tuple(tuple(f) for f in floors)


@lru_cache(maxsize=256)  # a run meets few patterns: h1, h2 and the blocker members
def _rooted_plans(pattern: Graph) -> tuple[tuple[tuple, int], ...]:
    """One `_search_plan` per Aut(pattern)-orbit of arcs (a pattern edge with
    an orientation), from the orbit's least arc (a, b): its order starts a,
    b, and its floors are those of the automorphisms that fix a and b. Each
    comes with the number of common neighbours of a and b, which the ends
    of a host edge must have too."""
    group = list(enumerate_embeddings(pattern, pattern))
    masks = adjacency_masks(pattern)
    plans = []
    seen: set[tuple[int, int]] = set()
    for a, b in sorted([(u, v) for u, v in pattern.edges] + [(v, u) for u, v in pattern.edges]):
        if (a, b) not in seen:
            seen |= {(sigma[a], sigma[b]) for sigma in group}
            plan = _search_plan(pattern, _orbit_floors(pattern, (a, b)), (a, b))
            plans.append((plan, (masks[a] & masks[b]).bit_count()))
    return tuple(plans)


def _collect_copies(
    maps: Iterable[tuple[int, ...]], pattern: Graph, edge_at: list[dict[int, Edge]]
) -> tuple[Copy, ...]:
    """The copies the vertex maps of pattern carry it onto, one per edge
    image (the first map's witness vertex set), in `Copy.sort_key` order;
    edge_at is the host's edge tuples from either end (`_host_side`)."""
    found: dict[frozenset[Edge], Copy] = {}
    for vm in maps:
        image = frozenset([edge_at[vm[u]][vm[v]] for u, v in pattern.edges])
        if image not in found:
            found[image] = Copy(image, frozenset(vm))
    return tuple(sorted(found.values(), key=Copy.sort_key))


def enumerate_copies(host: Graph, pattern: Graph) -> CopySet:
    """All copies of pattern in host, deduplicated by edge image.

    Only one vertex map per Aut(pattern)-orbit is built (`_orbit_floors`):
    the orbit's least in enumeration order. The first embedding of an edge
    image is the least of all maps with that image, so it is the least of
    its own orbit and is built; it stays the copy's witness vertex set.
    When pattern has isolated vertices two orbits can share an edge image,
    so the dedup by edge image still applies.
    Copies are sorted by their edge tuple so iteration is deterministic.
    """
    if pattern.edge_count == 0:
        raise ValueError("pattern must have at least one edge")
    maps = enumerate_embeddings(host, pattern, _orbit_floors(pattern))
    return CopySet(pattern, _collect_copies(maps, pattern, _host_side(host)[2]))


def enumerate_copies_through(host: Graph, pattern: Graph, e: Edge) -> tuple[Copy, ...]:
    """The copies of pattern in host that contain edge e, in `Copy.sort_key`
    order, found without enumerating the others.

    A map whose image holds e = (u, v) carries exactly one arc of pattern
    onto (u, v), and the maps with one image that do so differ by an
    automorphism fixing that arc's ends, so the arc's Aut(pattern)-orbit is
    the image's. Each orbit's least arc is placed on (u, v) in turn (a
    reversed arc is an arc too, so both orientations of e are covered),
    and the matcher extends it under the floors of the automorphisms that
    fix its ends (`_rooted_plans`), which admit one map per copy. Copies
    are deduplicated by edge image. For a pattern without isolated
    vertices they equal enumerate_copies(host, pattern).through(e), witness
    vertex sets included.
    """
    if pattern.edge_count == 0:
        raise ValueError("pattern must have at least one edge")
    u, v = e
    plans = _rooted_plans(pattern)
    side = _host_side(host)
    hmask, _, edge_at = side
    if v not in edge_at[u]:
        return ()
    common = (hmask[u] & hmask[v]).bit_count()
    maps = itertools.chain.from_iterable(
        [_extend(side, plan, pattern.vertex_count, e) for plan, needs in plans if needs <= common]
    )
    return _collect_copies(maps, pattern, edge_at)


# ---------------------------------------------------------------------------
# connectivity


def _connected_within(masks: list[int], alive: int) -> bool:
    """True iff the vertices in bitmask `alive` induce a connected graph."""
    reached = frontier = alive & -alive
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & alive & ~reached
        reached |= frontier
    return reached == alive


def is_two_connected(g: Graph) -> bool:
    """True iff g has >= 3 vertices, is connected, and stays connected with
    any one vertex deleted (it has no cut vertex)."""
    n = g.vertex_count
    if n < 3:
        return False
    masks = adjacency_masks(g)
    full = (1 << n) - 1
    return _connected_within(masks, full) and all(
        _connected_within(masks, full ^ (1 << v)) for v in range(n)
    )


# ---------------------------------------------------------------------------
# canonical labeling
#
# Strategy: iterated neighborhood color refinement to get an isomorphism
# invariant partition, then a depth-first search over class-respecting
# labelings maximizing the upper-triangle adjacency bitstring, with prefix
# pruning and a twin rule (two unplaced vertices with identical closed or open
# neighborhoods are interchangeable, so only one needs exploring).


def _refine_colors(g: Graph) -> list[int]:
    adj = adjacency_sets(g)
    colors = list(g.degree_sequence())
    classes = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted([colors[w] for w in adj[v]]))) for v in range(g.vertex_count)]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [ranking[s] for s in sigs]
        # no class split: the ranks are stable, a further round returns them
        if len(ranking) == classes:
            return colors
        classes = len(ranking)


def _canonical_search(g: Graph) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The canonical order of g (the vertex placed at each canonical
    position) and generators of Aut(g), each a permutation sigma of g's
    vertices as the tuple of images.

    The search prunes only prefixes strictly below the best one, so it
    reaches every leaf whose bits tie the best leaf's, except where the twin
    rule drops a vertex. Each tied leaf is an automorphism (best order ->
    tied order), and so is the swap of two twins. Together they generate
    Aut(g): any order of best bits turns, by twin swaps made at nodes the
    search visits, into a tied leaf the search reaches.
    """
    n = g.vertex_count
    if n == 0:
        return (), []
    masks = adjacency_masks(g)
    colors = _refine_colors(g)
    # vertices must be placed class by class, classes sorted by refined color
    class_of_position: list[int] = sorted(range(n), key=lambda v: colors[v])
    position_class = [colors[class_of_position[i]] for i in range(n)]

    best_bits: list[int] | None = None
    best_order: tuple[int, ...] | None = None
    ties: list[tuple[int, ...]] = []  # the leaves whose bits equal best_bits

    def row_bits(v: int, placed: list[int]) -> int:
        # adjacency of v against already placed vertices, as an int with the
        # earliest placed vertex in the highest bit (lexicographic compare)
        bits = 0
        for u in placed:
            bits = (bits << 1) | ((masks[v] >> u) & 1)
        return bits

    order: list[int] = []
    used = [False] * n

    def candidates(depth: int) -> list[int]:
        want = position_class[depth]
        cands = [v for v in range(n) if not used[v] and colors[v] == want]
        # twin rule: identical neighborhoods (ignoring each other) need only
        # one representative
        kept: list[int] = []
        reps: list[tuple[int, int]] = []
        for v in cands:
            m_open = masks[v]
            m_closed = masks[v] | (1 << v)
            dup = False
            for mo, mc in reps:
                if m_open == mo or m_closed == mc:
                    dup = True
                    break
            if not dup:
                reps.append((m_open, m_closed))
                kept.append(v)
        return kept

    def dfs(depth: int, bits: list[int]) -> None:
        nonlocal best_bits, best_order
        if depth == n:
            if best_bits is None or bits > best_bits:
                best_bits = list(bits)
                best_order = tuple(order)
                ties.clear()
            elif bits == best_bits:
                ties.append(tuple(order))
            return
        scored = []
        for v in candidates(depth):
            scored.append((row_bits(v, order), v))
        scored.sort(reverse=True)
        for rb, v in scored:
            prefix = bits + [rb]
            if best_bits is not None and prefix < best_bits[: len(prefix)]:
                break  # scored is descending, every later prefix loses too
            used[v] = True
            order.append(v)
            dfs(depth + 1, prefix)
            order.pop()
            used[v] = False

    dfs(0, [])
    # dfs reaches itself through its closure cell; emptying the cell frees
    # the search's state now, not at the next cycle collection
    del dfs
    assert best_order is not None
    generators = []
    for tie in ties:
        sigma = [0] * n
        for v, w in zip(best_order, tie):
            sigma[v] = w
        generators.append(tuple(sigma))
    # each vertex swapped with its first earlier twin: these transpositions
    # generate every permutation of each twin class
    for v in range(n):
        for u in range(v):
            if masks[u] == masks[v] or masks[u] | 1 << u == masks[v] | 1 << v:
                sigma = list(range(n))
                sigma[u], sigma[v] = v, u
                generators.append(tuple(sigma))
                break
    return best_order, generators


def canonical_form(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """A canonical representative of g's isomorphism class plus the relabeling.

    Returns (canon, mapping) where mapping[v] is the canonical index of
    original vertex v, and canon == graph(n, [(mapping[u], mapping[v]) ...]).
    Isomorphic inputs produce identical canon graphs.
    """
    order, _ = _canonical_search(g)
    return _relabel(g, order)


def _relabel(g: Graph, order: Sequence[int]) -> tuple[Graph, tuple[int, ...]]:
    """g relabeled so that order[i] becomes vertex i, and the map."""
    mapping = [0] * g.vertex_count
    for pos, v in enumerate(order):
        mapping[v] = pos
    canon = graph(g.vertex_count, [(mapping[u], mapping[v]) for u, v in g.edges])
    return canon, tuple(mapping)


def canonical_key(g: Graph) -> tuple:
    """Total order key on isomorphism classes: (n, canonical edge tuple)."""
    canon, _ = canonical_form(g)
    return (canon.vertex_count, canon.edges)


def _orbit_roots(n: int, generators: Iterable[Sequence[int]]) -> list[int]:
    """root[v] is the least vertex of v's orbit under the group generated."""
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for sigma in generators:
        for v, w in enumerate(sigma):
            a, b = find(v), find(w)
            if a != b:
                root[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


# ---------------------------------------------------------------------------
# exhaustive generation of small graphs up to isomorphism


def _subset_orbit_representatives(
    subsets: Iterable[tuple[int, ...]], generators: Sequence[Sequence[int]]
) -> Iterator[tuple[int, ...]]:
    """The first subset of each orbit under the group generated, among
    subsets, which must be a union of orbits."""
    if not generators:
        yield from subsets
        return
    images = [[1 << w for w in sigma] for sigma in generators]  # bit v -> bit sigma(v)
    seen: set[int] = set()
    for s in subsets:
        m = sum(1 << v for v in s)
        if m in seen:
            continue
        yield s
        seen.add(m)
        stack = [m]
        while stack:
            x = stack.pop()
            for image in images:
                y = 0
                rest = x
                while rest:
                    low = rest & -rest
                    y |= image[low.bit_length() - 1]
                    rest ^= low
                if y not in seen:
                    seen.add(y)
                    stack.append(y)


def _children(
    g: Graph, generators: Sequence[Sequence[int]], last: bool
) -> Iterator[tuple[Graph, list[tuple[int, ...]]]]:
    """The children of the canonical form g whose canonical parent is g,
    each as its canonical form and generators of its automorphism group in
    canonical labels; generators generate Aut(g). When last is set the
    children will not be grown, so each comes as built, in no canonical
    labelling, with no generators.

    A child adds vertex k = g.vertex_count of maximum degree d, joined to
    one d-subset per Aut(g)-orbit of the vertices of degree below d.
    McKay's acceptance test keeps it only when k lies in the Aut-orbit of
    w*: among the vertices of maximum invariant (degree, then neighbour
    degrees in ascending order), the one first in canonical order. A child
    in which some vertex's invariant beats k's is dropped before its
    canonical search, and orbits are computed only when w* is not k. A
    child in which no vertex ties k's invariant has w* = k, so under last
    it is accepted with no canonical search at all.
    """
    k = g.vertex_count
    size = k + 1
    adj: list[list[int]] = [[] for _ in range(k)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    for d in range(max(deg, default=0), size):
        low = [v for v in range(k) if deg[v] < d]
        at_d = [v for v in range(k) if deg[v] == d]  # of degree d in every child
        for nbrs in _subset_orbit_representatives(itertools.combinations(low, d), generators):
            cdeg = deg.copy()
            for v in nbrs:
                cdeg[v] += 1
            cdeg.append(d)
            # the rivals of k, the other vertices of degree d, with their
            # neighbour degrees; k's invariant must be the largest
            top = sorted([cdeg[v] for v in nbrs])
            rivals = [(v, sorted([cdeg[w] for w in adj[v]])) for v in at_d]
            rivals += [(v, sorted([cdeg[w] for w in adj[v]] + [d])) for v in nbrs if cdeg[v] == d]
            if any(inv > top for _, inv in rivals):
                continue
            child = Graph(size, tuple(sorted(g.edges + tuple((v, k) for v in nbrs))))
            tied = {v for v, inv in rivals if inv == top}
            if tied or not last:
                order, child_generators = _canonical_search(child)
                if tied:
                    w = next(v for v in order if v == k or v in tied)
                    if w != k:
                        roots = _orbit_roots(size, child_generators)
                        if roots[w] != roots[k]:
                            continue
            if last:
                yield child, []
            else:
                canon, mapping = _relabel(child, order)
                # sigma in canonical labels: i -> mapping[sigma[order[i]]]
                yield canon, [tuple(mapping[sigma[v]] for v in order) for sigma in child_generators]


def graph_stream(n: int, keep: Callable[[Graph], bool] | None = None) -> Iterator[Graph]:
    """One graph per isomorphism class on 0..n vertices, depth first: each
    class right after its canonical parent. Classes on fewer than n
    vertices come in canonical form; those on n vertices come as built, in
    no canonical labelling. `keep` optionally prunes the search. It is
    evaluated once per class, on the graph the stream would yield, so it
    must be isomorphism-invariant; a class failing it is dropped and never
    extended, so it must be monotone under taking supergraphs on more
    vertices. Density caps e(G) <= c * v(G) + d qualify.

    Isomorph-free enumeration by canonical augmentation (McKay, J.
    Algorithms 1998; the method of nauty's geng). The canonical parent of a
    graph G is G - w*, where w* is the vertex of maximum invariant (degree,
    then sorted neighbour degrees) that comes first in G's canonical order.
    A kept class on k vertices grows by a new vertex of maximum degree d,
    joined to d of its vertices of degree below d, trying one neighbour set
    per orbit of the class's automorphism group; a child is accepted only
    when its new vertex lies in the Aut-orbit of its w*. Each kept class
    then comes from exactly one parent, its G - w* (kept, as keep is
    monotone), and one orbit, so no child is compared with another: every
    accepted child is a new class, and no level of classes is held. A child
    below order n costs one canonical search once it passes a cheap
    invariant filter, and that search (`_canonical_search`) also yields the
    generators of its automorphism group that its own children are pruned
    by. A child on n vertices has no children: it costs a search only when
    a rival ties its new vertex's invariant (`_children` under last).
    """
    if n < 0:
        raise ValueError(f"vertex count {n} < 0")
    start = graph(0)
    if keep is not None and not keep(start):
        return
    yield start
    # stack[i] yields the children on i + 1 vertices of the class last
    # yielded on i vertices
    stack = [_children(start, [], n == 1)] if n else []
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif keep is None or keep(child[0]):
            yield child[0]
            if len(stack) < n:
                stack.append(_children(*child, len(stack) + 1 == n))


def graphs_up_to(n: int, keep: Callable[[Graph], bool] | None = None) -> list[Graph]:
    """The canonical forms of `graph_stream(n, keep)`, by order, each order
    sorted by (edge count, edges). keep sees each class once, on the graph
    the stream yields, which on n vertices is not necessarily in canonical
    form."""
    return sorted(
        (g if g.vertex_count < n else canonical_form(g)[0] for g in graph_stream(n, keep)),
        key=lambda g: (g.vertex_count, g.edge_count, g.edges),
    )


# ---------------------------------------------------------------------------
# graph6


class Graph6Error(ValueError):
    """Malformed graph6 input; position is the offending byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (byte {position})")
        self.position = position


def emit_graph6(g: Graph) -> str:
    n = g.vertex_count
    if n > 258047:
        raise ValueError("graph6 supports at most 258047 vertices")
    if n <= 62:
        header = chr(n + 63)
    else:
        header = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    mask = adjacency_masks(g)
    bits: list[int] = []
    for j in range(1, n):
        for i in range(j):
            bits.append((mask[i] >> j) & 1)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr((bits[k] << 5 | bits[k + 1] << 4 | bits[k + 2] << 3 | bits[k + 3] << 2 | bits[k + 4] << 1 | bits[k + 5]) + 63)
        for k in range(0, len(bits), 6)
    )
    return header + body


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    for pos, ch in enumerate(s):
        if not (63 <= ord(ch) <= 126):
            raise Graph6Error(f"character {ch!r} outside graph6 alphabet", pos)
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("graph6 long-long form (>258047 vertices) not supported", 1)
        if len(s) < 4:
            raise Graph6Error("truncated long-form vertex count", len(s))
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
        body_start = 4
    else:
        n = ord(s[0]) - 63
        body = s[1:]
        body_start = 1
    pair_count = n * (n - 1) // 2
    need = (pair_count + 5) // 6
    if len(body) < need:
        raise Graph6Error(
            f"body too short for {n} vertices: need {need} bytes, got {len(body)}",
            body_start + len(body),
        )
    if len(body) > need:
        raise Graph6Error(f"trailing bytes after {need}-byte body", body_start + need)
    bits: list[int] = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend(((val >> 5) & 1, (val >> 4) & 1, (val >> 3) & 1, (val >> 2) & 1, (val >> 1) & 1, val & 1))
    for k in range(pair_count, len(bits)):
        if bits[k]:
            raise Graph6Error("nonzero padding bits", body_start + k // 6)
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return graph(n, edges)
