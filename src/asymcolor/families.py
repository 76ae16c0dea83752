"""Membership machinery for the obstruction families, plus the coloring
searcher that doubles as the brute-force oracle.

Vocabulary used throughout (each mirrors one family from the underlying
theory, renamed for what it checks):

- a copy R of h1 "pins" edge e for a copy L of h2 when E(L) cap E(R) = {e};
  pin_partner defines this relation, a mask of h1-copy positions read off
  CopySet.index; unpinned_edge finds the least edge of L that nothing
  pins, and is_pinned asks whether e is pinned for some copy of h2
  through it. Both compute pin_partner's mask inline, as the colorer
  calls them tens of thousands of times a run: unpinned_edge reads each
  of L's index masks once, and is_pinned makes no call per h2-copy;
- an "anchored" copy is a copy L of h2 every edge of which is pinned;
- a graph is "pinned" when each of its edges is pinned for some copy of h2,
  and "anchored" when every edge lies on an anchored copy
  (anchored implies pinned); FamilyReport is the one test of both, and
  computes each verdict and failure witness on first read. Its
  is_anchored(L) tests one h2-copy, once per edge set, and
  anchored_through(e) finds the least anchored copy through one edge off
  the h2 copy index; the verdict, the failures, growth and the stuck
  audit all ask these two;
- a "blocker" is a 2-connected graph of max density at most m2_pair + epsilon
  that is anchored (strict case) or pinned (equal case);
- a blocker decomposition splits a host into maximal blocker-subgraphs
  (members), found one edge at a time, and classifies copies of h1/h2 as
  trivial (inside one member) or not; it carries the host's h1 and h2 copy
  sets, and builds the straddling copies and its FamilyReport from them
  on first use, which the stuck audit and growth both read. Its
  covered_once and sparse are the one test of "a clean sparse union of
  blocker members": the colorer's guard, the stuck audit, member coloring
  and growth all read them, and they stop at their first answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Iterable, Iterator, Literal, Sequence

from .density import PairSpec, max_gain
from .graphs import (
    Copy,
    CopySet,
    Edge,
    Graph,
    bit_positions,
    canonical_form,
    copy_index,
    enumerate_copies,
    enumerate_copies_through,
    extract_from_edges,
    graph_stream,
    is_two_connected,
    norm_edge,
)

RED = "red"
BLUE = "blue"

DEFAULT_ORACLE_BUDGET = 2_000_000


@dataclass
class Coloring:
    """A partial or total red/blue edge coloring; missing edges are uncolored."""

    graph: Graph
    assignment: dict[Edge, str] = field(default_factory=dict)

    def __post_init__(self):
        eset = self.graph.edge_set()
        for e, c in self.assignment.items():
            if e not in eset:
                raise ValueError(f"assignment colors {e}, which is not an edge")
            if c not in (RED, BLUE):
                raise ValueError(f"bad color {c!r} for edge {e}")

    def uncolored_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.graph.edges if e not in self.assignment)


@dataclass(frozen=True)
class ColoringCheck:
    ok: bool
    kind: str | None = None  # "uncolored" | "red_h1" | "blue_h2"
    edges: tuple[Edge, ...] = ()


def pair_copies(g: Graph, pair: PairSpec) -> tuple[CopySet, CopySet]:
    """All copies of h1 and of h2 in g. When h2 equals h1 the one
    enumeration serves as both sets."""
    h1_copies = enumerate_copies(g, pair.h1)
    return h1_copies, (h1_copies if pair.h2 == pair.h1 else enumerate_copies(g, pair.h2))


def verify_coloring(coloring: Coloring, pair: PairSpec) -> ColoringCheck:
    """Independent validity check by copy enumeration; see verify_from_copies."""
    return verify_from_copies(coloring, *pair_copies(coloring.graph, pair))


def verify_from_copies(coloring: Coloring, h1_copies: CopySet, h2_copies: CopySet) -> ColoringCheck:
    """Validity check of coloring against all copies of h1 and of h2 in its
    graph.

    Reports, in order: uncolored edges, then an all-red copy of h1, then an
    all-blue copy of h2, each the first in its set's order. Returns the
    first failure only.
    """
    missing = coloring.uncolored_edges()
    if missing:
        return ColoringCheck(False, "uncolored", missing)
    red = {e for e, c in coloring.assignment.items() if c == RED}
    blue = coloring.assignment.keys() - red
    for c in h1_copies.copies:
        if c.edges <= red:
            return ColoringCheck(False, "red_h1", tuple(sorted(c.edges)))
    for c in h2_copies.copies:
        if c.edges <= blue:
            return ColoringCheck(False, "blue_h2", tuple(sorted(c.edges)))
    return ColoringCheck(True)


# ---------------------------------------------------------------------------
# the searcher / oracle

SearchStatus = Literal["valid", "invalid", "budget_exceeded"]


@dataclass(frozen=True)
class ColoringSearch:
    status: SearchStatus
    coloring: Coloring | None
    nodes_expanded: int


def has_valid_coloring(g: Graph, pair: PairSpec, budget: int = DEFAULT_ORACLE_BUDGET) -> ColoringSearch:
    """Backtracking search for a total coloring with no red h1 and no blue h2,
    enumerating the copies of h1 and h2 in g; see search_from_copies."""
    return search_from_copies(g, *pair_copies(g, pair), budget)


def search_from_copies(g: Graph, h1_copies: CopySet, h2_copies: CopySet, budget: int) -> ColoringSearch:
    """Backtracking search for a total coloring of g in which no copy in
    h1_copies is all red and no copy in h2_copies is all blue, given all
    copies of h1 and of h2 in g.

    Propagation: a copy of h1 with all but one edge red forces its last edge
    blue, and dually for h2. Branching: a copy is live while none of its
    colored edges has the copy's good colour (blue for h1, red for h2); an
    edge's score is the least number of uncolored edges over the live copies
    through it, or one more than the edge count if none is live; the search
    branches on the least-index uncolored edge of least score, trying red
    first. Node counts depend on this rule. "invalid" is returned only after
    the search space is exhausted; hitting the node budget is reported as
    its own outcome and must not be read as either verdict.

    A node's state is a few ints: its red and blue edge masks, a live mask
    over copy positions, and per uncolored count k up to the widest copy a
    bucket mask. Killing a copy clears it from live only, so a dead copy may
    stay stale in its bucket and every reader ANDs a bucket with live.
    Colouring an edge moves the live copies through it one bucket down; a
    copy that reaches one uncolored edge ORs that edge into the pending mask
    of the other colour, so an edge forced by several copies waits once, and
    an edge pending in both colours is a conflict. Each frame of the search
    keeps the state its edge was tried from, so backtracking undoes nothing.

    Unit propagation is confluent: the edges it forces, and whether it meets
    a conflict, do not depend on the order pending edges are coloured in. So
    each node's red, blue and live masks and its live copies' buckets, and
    with them the branching, nodes_expanded and the colouring found, are
    those of any other propagation order.
    """
    edges = g.edges
    n_e = len(edges)
    ebit = {e: 1 << i for i, e in enumerate(edges)}
    # copy positions: those of h1, which must not go all red, then those of
    # h2, which must not go all blue. ecopies[i] is the edge mask of the copy
    # at position i; t1[e] and t2[e] are the sets' index masks of the edge at
    # position e, h2's shifted past h1's, and on[e] is their union
    shift = len(h1_copies)
    ecopies: list[int] = []
    for c in h1_copies.copies + h2_copies.copies:
        m = 0
        for e in c.edges:
            m |= ebit[e]
        ecopies.append(m)
    t1 = [h1_copies.index.get(e, 0) for e in edges]
    t2 = [h2_copies.index.get(e, 0) << shift for e in edges]
    on = [a | b for a, b in zip(t1, t2)]
    # moves[c][e]: colouring edge e with c (0 red, 1 blue) steps the first
    # copies towards their bad colour and kills the second, which gain an
    # edge of their good colour
    moves = [list(zip(t1, t2)), list(zip(t2, t1))]
    full = (1 << n_e) - 1

    # at[0] is the live mask; at[k], for k from 1 up to the widest copy (and
    # at least 2), holds the live copies with k uncolored edges. A live copy
    # with no uncolored edge is all in its bad colour, so assign reports a
    # conflict instead. A live copy with one uncolored edge forces that edge
    # the other way
    top = max(3, max((m.bit_count() for m in ecopies), default=0) + 1)
    start = [0] * top
    for ci, m in enumerate(ecopies):
        start[m.bit_count()] |= 1 << ci
    start[0] = (1 << len(ecopies)) - 1
    nodes = 0

    def assign(e0: int, c0: int, red: int, blue: int, at: list[int]):
        # the state after colouring edge e0 with c0 and propagating, or None
        # on a conflict; at is copied, not changed
        at = at.copy()
        live = at[0]
        # the pending red and blue edge masks; an edge pending in both is a
        # conflict, caught here before either colour is tried on it
        pending = [0, 0]
        pending[c0] = 1 << e0
        while pending[0] | pending[1]:
            if pending[0] & pending[1]:
                return None
            c = 0 if pending[0] else 1
            bit = pending[c] & -pending[c]
            pending[c] ^= bit
            if c:
                blue |= bit
            else:
                red |= bit
            step, kill = moves[c][bit.bit_length() - 1]
            live &= ~kill
            step &= live
            if at[1] & step:
                return None
            # every live copy through the edge sits in one bucket from 2 up;
            # the copies moved to at[1] force their last uncolored edge the
            # other way
            k = 2
            while step:
                m = at[k] & step
                if m:
                    step ^= m
                    at[k] ^= m
                    at[k - 1] |= m
                    if k == 2:
                        forced = 0
                        while m:
                            low = m & -m
                            forced |= ecopies[low.bit_length() - 1]
                            m ^= low
                        pending[1 - c] |= forced & ~(red | blue)
                k += 1
        at[0] = live
        return red, blue, at

    def pick(red: int, blue: int, at: list[int]) -> int | None:
        # the edges of least score are the uncolored edges of the live copies
        # with the fewest uncolored edges (at least one): the least of them
        # is the least uncolored edge on a copy of the first non-empty
        # bucket; with no such copy every score ties
        free = full & ~(red | blue)
        live = at[0]
        for k in range(1, top):
            m = at[k] & live
            if m:
                while not on[(free & -free).bit_length() - 1] & m:
                    free &= free - 1
                break
        return (free & -free).bit_length() - 1 if free else None

    # depth-first search with an explicit stack: one frame per branched edge
    # above the current node, holding the edge, the number of colours tried
    # there and the state they were tried from
    state = (0, 0, start)
    frames: list[tuple[int, int, tuple[int, int, list[int]]]] = []
    while True:
        nodes += 1
        if nodes > budget:
            return ColoringSearch("budget_exceeded", None, nodes)
        e, k, tried_from = pick(*state), 0, state
        if e is None:
            break
        while True:
            while k == 2:  # both colours failed at e: back up one level
                if not frames:
                    return ColoringSearch("invalid", None, nodes)
                e, k, tried_from = frames.pop()
            k += 1
            state = assign(e, k - 1, *tried_from)
            if state is not None:
                frames.append((e, k, tried_from))
                break

    red, blue, _ = state
    # the searcher never leaves an edge both unforced and unbranched
    assert red | blue == full
    out = Coloring(g, {e: BLUE if blue >> i & 1 else RED for i, e in enumerate(edges)})
    return ColoringSearch("valid", out, nodes)


# ---------------------------------------------------------------------------
# family membership


def pin_partner(l_edges: frozenset[Edge], e: Edge, h1_copies: CopySet, alive: int = -1) -> int:
    """The mask of the positions of the copies among h1_copies, restricted
    to alive, that pin e for the h2-copy with edge set l_edges: those
    through e and through no other edge of it. Its lowest bit is the first
    such copy; 0 when none does."""
    index = h1_copies.index
    partners = alive & index.get(e, 0)
    for f in l_edges:
        if partners and f != e:
            partners &= ~index.get(f, 0)
    return partners


def unpinned_edge(l_edges: frozenset[Edge], h1_copies: CopySet, alive: int = -1) -> Edge | None:
    """The least edge e of an h2-copy that no copy among h1_copies,
    restricted to alive, pins; None when the copy is anchored. It is
    pin_partner's test with each of the copy's index masks read once."""
    index = h1_copies.index
    masks = [(e, index.get(e, 0)) for e in sorted(l_edges)]
    for e, through in masks:
        partners = alive & through
        for f, other in masks:
            if partners and f != e:
                partners &= ~other
        if not partners:
            return e
    return None


def is_pinned(e: Edge, h2_copies: CopySet, h1_copies: CopySet, alive2: int = -1, alive1: int = -1) -> bool:
    """Some copy among h2_copies, restricted to alive2, through e has a
    copy among h1_copies, restricted to alive1, that pins e for it. False
    at once when no such h1-copy passes through e; otherwise it stops at
    the first h2-copy through e with a pin partner. The partner mask is
    pin_partner's, computed inline."""
    index = h1_copies.index
    cand = alive1 & index.get(e, 0)
    if not cand:
        return False
    copies = h2_copies.copies
    for i in bit_positions(alive2 & h2_copies.index.get(e, 0)):
        partners = cand
        for f in copies[i].edges:
            if partners and f != e:
                partners &= ~index.get(f, 0)
        if partners:
            return True
    return False


@dataclass(frozen=True, eq=False)
class FamilyReport:
    """Pinned/anchored verdicts of graph with per-edge failure witnesses,
    from all copies of h1 and of h2 in graph. Each is computed on first
    read. pinned and anchored test edges in order and stop at the first
    that fails; pinned_failures and anchored_failures test every edge.
    Every anchored answer is read off h2_copies.index through
    anchored_through, and each h2-copy's edge set is tested for being
    anchored at most once (is_anchored), whoever asks."""

    graph: Graph
    h1_copies: CopySet
    h2_copies: CopySet
    _tested: dict[frozenset[Edge], bool] = field(default_factory=dict, init=False, repr=False)

    def is_anchored(self, L: Copy) -> bool:
        """The h2-copy L, a copy in graph, is anchored: some h1-copy pins each
        of its edges."""
        anchored = self._tested.get(L.edges)
        if anchored is None:
            anchored = self._tested[L.edges] = unpinned_edge(L.edges, self.h1_copies) is None
        return anchored

    def anchored_through(self, e: Edge) -> Copy | None:
        """The least anchored h2-copy through e, None when there is none;
        copies through e are tested in order until one is anchored."""
        copies = self.h2_copies.copies
        for i in bit_positions(self.h2_copies.index.get(e, 0)):
            if self.is_anchored(copies[i]):
                return copies[i]
        return None

    @cached_property
    def pinned(self) -> bool:
        return all(is_pinned(e, self.h2_copies, self.h1_copies) for e in self.graph.edges)

    @cached_property
    def pinned_failures(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.graph.edges if not is_pinned(e, self.h2_copies, self.h1_copies))

    @cached_property
    def anchored(self) -> bool:
        if not all(self.anchored_through(e) is not None for e in self.graph.edges):
            return False
        assert self.pinned  # anchored membership implies pinned
        return True

    @cached_property
    def anchored_failures(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.graph.edges if self.anchored_through(e) is None)


def family_report(g: Graph, pair: PairSpec) -> FamilyReport:
    """Pinned/anchored verdicts of g, enumerating its h1 and h2 copies."""
    return FamilyReport(g, *pair_copies(g, pair))


def _under_cap(g: Graph, pair: PairSpec) -> bool:
    """m(g) <= m2_pair + epsilon, the blocker density cap."""
    return max_gain(g, pair.m2_pair + pair.epsilon) == 0


def _capped_blocker(a: Graph, pair: PairSpec) -> bool:
    """is_blocker for a graph already known to be under the density cap.
    Pinned and anchored both need every edge on an h1-copy (is_pinned is
    False through an edge with none), so h2's copies are enumerated only
    when every edge is on one."""
    if not is_two_connected(a):
        return False
    h1_copies = enumerate_copies(a, pair.h1)
    if len(h1_copies.index) < a.edge_count:
        return False
    h2_copies = h1_copies if pair.h2 == pair.h1 else enumerate_copies(a, pair.h2)
    report = FamilyReport(a, h1_copies, h2_copies)
    return report.anchored if pair.case == "strict" else report.pinned


def is_blocker(a: Graph, pair: PairSpec) -> bool:
    """Case-dependent blocker test: 2-connected, m below the density cap,
    anchored (strict case) or pinned (equal case)."""
    return _under_cap(a, pair) and _capped_blocker(a, pair)


@dataclass(frozen=True)
class BlockerEntry:
    graph: Graph
    search: ColoringSearch


@dataclass(frozen=True)
class BlockerCatalog:
    """Blockers up to a vertex bound. Complete only below the bound: the
    underlying finiteness is conjectural, so the bound is part of the result."""

    pair: PairSpec
    max_vertices: int
    entries: tuple[BlockerEntry, ...]

    @property
    def members(self) -> tuple[Graph, ...]:
        return tuple(e.graph for e in self.entries)


def enumerate_blockers(
    pair: PairSpec, max_vertices: int, coloring_budget: int = DEFAULT_ORACLE_BUDGET
) -> BlockerCatalog:
    """All blockers up to max_vertices vertices, up to isomorphism, each with
    its coloring-search verdict, in canonical form, sorted by (order, edge
    count, edges).

    Generation prunes by the density cap (it survives vertex deletion, so no
    blocker is lost), so the graphs it streams need no second cap test. The
    blocker test is isomorphism-invariant, so it runs on each graph as
    streamed; only the members are put in canonical form, and each is
    searched for a colouring in that form.
    """
    stream = graph_stream(max_vertices, keep=lambda g: _under_cap(g, pair))
    members = sorted(
        (canonical_form(g)[0] for g in stream if _capped_blocker(g, pair)),
        key=lambda g: (g.vertex_count, g.edge_count, g.edges),
    )
    entries = tuple(BlockerEntry(g, has_valid_coloring(g, pair, coloring_budget)) for g in members)
    return BlockerCatalog(pair, max_vertices, entries)


@lru_cache(maxsize=32)
def blocker_members(pair: PairSpec, max_vertices: int) -> tuple[Graph, ...]:
    """enumerate_blockers(pair, max_vertices).members, built once per process:
    the harness and CLI name their catalog by its vertex bound."""
    return enumerate_blockers(pair, max_vertices).members


# ---------------------------------------------------------------------------
# host decomposition into blocker members


def _maximal(copies: Iterable[Copy]) -> tuple[Copy, ...]:
    """The copies, one per edge set, that lie inside no other, in
    `Copy.sort_key` order. Sizes are tested from the largest down, and a
    copy is kept unless one kept at a larger size contains it (none of its
    own size can): kept[e] has bit i set when the i-th kept copy contains
    e, so a copy lies inside a kept one exactly when the masks of its edges
    share a bit. Once a size is done, copy_index builds its kept copies'
    masks, which are shifted past the copies kept before and joined in, as
    setting bits one at a time would copy the whole mask each time."""
    by_size: dict[int, dict[frozenset[Edge], Copy]] = {}
    for c in copies:
        by_size.setdefault(len(c.edges), {}).setdefault(c.edges, c)
    maximal: list[Copy] = []
    kept: dict[Edge, int] = {}
    sizes = sorted(by_size, reverse=True)
    for size in sizes:
        fresh = []
        for edges, c in by_size[size].items():
            inside = -1
            for e in edges:
                inside &= kept.get(e, 0)
                if not inside:
                    fresh.append(c)
                    break
        if size != sizes[-1]:  # a smaller size is still to be tested
            for e, m in copy_index(fresh).items():
                kept[e] = kept.get(e, 0) | m << len(maximal)
        maximal += fresh
    return tuple(sorted(maximal, key=Copy.sort_key))


@dataclass(frozen=True, eq=False)
class BlockerDecomposition:
    """The maximal blocker copies of graph (its members), asked for one edge
    at a time, and all copies of h1 and h2 in graph, from which the
    straddling copies and the pinned/anchored report are built on first
    use. covered_once and sparse together are the one test of "graph is a
    clean sparse union of blocker members"; they scan edges and copies in
    order and stop at their first answer. members asks every edge.

    blocker_copies_through(e) gives the blocker copies in graph that
    contain edge e, of any patterns, in any order. A blocker copy that
    contains one through e contains e too, so the members through e are
    the maximal copies among those; members_through(e) picks them and
    keeps the answer, with one Copy per member across edges."""

    graph: Graph
    blocker_copies_through: Callable[[Edge], Iterable[Copy]]
    h1_copies: CopySet
    h2_copies: CopySet
    _through: dict[Edge, tuple[Copy, ...]] = field(default_factory=dict, init=False, repr=False)
    _found: dict[frozenset[Edge], Copy] = field(default_factory=dict, init=False, repr=False)

    def members_through(self, e: Edge) -> tuple[Copy, ...]:
        """The members that contain edge e, in `Copy.sort_key` order."""
        members = self._through.get(e)
        if members is None:
            found = self._found
            members = self._through[e] = tuple(
                found.setdefault(m.edges, m) for m in _maximal(self.blocker_copies_through(e))
            )
        return members

    @cached_property
    def members(self) -> tuple[Copy, ...]:
        """Every member, in `Copy.sort_key` order."""
        for e in self.graph.edges:
            self.members_through(e)
        return tuple(sorted(self._found.values(), key=Copy.sort_key))

    @cached_property
    def report(self) -> FamilyReport:
        return FamilyReport(self.graph, self.h1_copies, self.h2_copies)

    def straddlers(self) -> Iterator[Copy]:
        """The copies that touch two or more members: the h1-copies, then
        the h2-copies, each set in its copy order; one copy per edge set."""
        seen: set[frozenset[Edge]] = set()
        for c in chain(self.h1_copies.copies, self.h2_copies.copies):
            if c.edges not in seen and self._straddles(c):
                seen.add(c.edges)
                yield c

    def _straddles(self, c: Copy) -> bool:
        """c touches two or more members; asks about c's edges, least first,
        only until it meets a second member (members_through gives one Copy
        per member)."""
        touched = None
        for e in sorted(c.edges):
            for m in self.members_through(e):
                if touched is None:
                    touched = m
                elif m is not touched:
                    return True
        return False

    @cached_property
    def covered_once(self) -> bool:
        """Every edge in exactly one member (the decomposition is clean)."""
        return all(len(self.members_through(e)) == 1 for e in self.graph.edges)

    @cached_property
    def sparse(self) -> bool:
        """No copy of h1 or h2 straddles two members."""
        return next(self.straddlers(), None) is None


def blocker_decomposition(
    g: Graph, pair: PairSpec, blockers: Sequence[Graph]
) -> BlockerDecomposition:
    """The blocker decomposition of g, with g's h1/h2 copy sets, each
    enumerated once. The blocker copies through an edge are enumerated when
    its members are first asked for (`enumerate_copies_through`)."""
    return BlockerDecomposition(
        g,
        lambda e: [c for b in blockers for c in enumerate_copies_through(g, b, e)],
        *pair_copies(g, pair),
    )


class UncolorableMemberError(Exception):
    """A blocker member of a clean sparse host has no valid coloring, or its
    coloring search exceeded its budget; member is that member's copy.

    Not an internal bug: an uncolorable member refutes the emptiness
    premise for this pair and epsilon, and is reported as a finding.
    """

    def __init__(self, finding: str, member: Copy):
        super().__init__(finding)
        self.member = member


def color_by_members(decomp: BlockerDecomposition, pair: PairSpec) -> Coloring:
    """Color each maximal blocker member of decomp.graph locally, each at
    the default search budget, and return the union.

    Precondition (checked): the decomposition is clean (every edge in
    exactly one member) with no straddling h1/h2 copies. Local validity
    then composes. The first member whose search does not find a valid
    coloring, as none exists or the budget ran out, raises
    UncolorableMemberError.
    """
    if not (decomp.covered_once and decomp.sparse):
        raise ValueError("host is not a cleanly-covered sparse union of blocker members")
    assignment: dict[Edge, str] = {}
    for mem in decomp.members:
        sub, verts = extract_from_edges(mem.edges)
        res = has_valid_coloring(sub, pair)
        if res.status != "valid":
            raise UncolorableMemberError(
                "blocker member admits no valid coloring; the emptiness premise "
                "fails for this pair and epsilon"
                if res.status == "invalid"
                else "coloring search for a blocker member exceeded its budget",
                mem,
            )
        assert res.coloring is not None
        for (u, v), c in res.coloring.assignment.items():
            assignment[norm_edge(verts[u], verts[v])] = c
    return Coloring(decomp.graph, assignment)
