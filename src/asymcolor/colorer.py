"""The stack colorer: delete edges that nothing pins, hand the sparse core to
the member-wise colorer, then replay the stack re-adding edges blue and
flipping one edge red on each fully-blue tracked copy. The stack is the
deletion phase's part of one log of (action, edge, h2-copy position or -1)
entries; the outcome's trace of TraceEvents is built from the log when
first read, so sweeps, which keep only the status, build none.

"Pins" is families.pin_partner over the live h1-copies: an edge is deleted
when no tracked h2-copy through it has a pin partner there
(families.is_pinned over the tracked and alive masks), a tracked copy
is retired at its families.unpinned_edge, and replay flips the
unpinned_edge of each fully-blue tracked copy red. Replay keeps the set of
blue edges, so a tracked copy is fully blue when its edge set is a subset
of it.

The tracked copy set starts as all h2-copies of the input and only ever
shrinks; h1-copies are always read against the current residual. Because a
copy of a pattern in the residual is exactly a copy in the input whose edges
all survive, the input's h1- and h2-copies are enumerated once up front
(once in all when h2 equals h1) and never re-enumerated: each set keeps an
alive mask over its positions (tracked is a second one over h2's), read
against its CopySet.index. Deleting e is alive &= ~index[e]; on replay a
copy through e is alive again once all its edges are live. The outcome
carries the input's h1 and h2 copy sets, which the stuck oracle searches
instead of enumerating the input again, and the final colouring is checked
against them (families.verify_from_copies): enumerating g again would give
the same sets. The stuck audit (check_stuck_state) still enumerates the
residual's copies afresh: it is the independent check. It enumerates the
blocker copies through one edge at a time, only for the edges its tests
read.

Each edge is tested for a pin once up front. Before the hand-off the alive
and tracked masks only shrink, so an unpinned edge stays unpinned until it
is deleted, and a pinned one is tested again only when an h1-copy or a
tracked h2-copy through it goes. retest intersects the pinned set with
the gone copies' edges, and returns at once when no copy went or nothing
is pinned. When h2 is h1 the tracked copies a deletion drops are among the
h1-copies it kills, as tracked lies within alive2, which equals alive1
until the hand-off; so one retest of the killed copies tests each of
their pinned edges once. The unpinned live edges are kept in a heap, and
each deletion takes its least. When the heap is empty the least tracked
copy with an unpinned edge is retired; least_loose finds it testing each
tracked copy once, and again only after an h1-copy sharing an edge with
it dies.

After each deletion a guard asks whether the residual is a clean sparse
union of blocker members. A live edge rules it out when it lies on no live
h2-copy (every member is pinned, so an edge of a member lies on an h2-copy
inside it), or when the edges of the live h1- and h2-copies through it have
more endpoints than widest, the largest blocker vertex count. This span
rule's proof: in a clean sparse union e lies in one member M; no copy
through e straddles, so its edges, each in some member, all lie in M, which
has at most widest vertices. It counts endpoints of copy edges, since
Copy.vertices also holds the images of isolated pattern vertices, and
stops at the first copy that takes the count past widest. When h2 is h1
the alive masks agree until the hand-off, and the one set is walked once.
With widest below 2 (no catalog) every live edge rules out, as a copy
through it has its 2 endpoints, so the guard answers None for any
non-empty residual without reading a copy. A witness, a live edge that
rules out, is kept while it does; when it is deleted or stops ruling out,
the scan for another goes on from the next edge of the snapshot of live
it was found in, skipping deleted edges. An edge scanned before it can
have come to rule out since, so no witness is answered only after a
whole pass over the current live finds none: the guard decomposes exactly
the residuals no edge rules out. The blocker copies are
enumerated only in the first residual no edge rules out. Every later
residual is a subgraph of that one, so a blocker copy lies in it exactly
when all the copy's edges are live; the guard reads them by that
containment, off each blocker set's index, with no mask to keep.
The guard then builds the residual's BlockerDecomposition from the live
copies and reads covered_once and sparse, its one clean test: an edge on
no live blocker copy has 0 members, so covered_once fails there. Both
pick the members of one edge at a time and stop at the first edge or
copy that fails; the decomposition that passes is handed to the
member-wise colorer. The span rule only answers early what that
decomposition would, so no output changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from itertools import chain
from typing import Iterator, Literal, Sequence

from .density import PairSpec
from .families import (
    BLUE,
    RED,
    BlockerDecomposition,
    Coloring,
    blocker_decomposition,
    color_by_members,
    family_report,
    is_pinned,
    pair_copies,
    unpinned_edge,
    verify_from_copies,
)
from .graphs import CopySet, Edge, Graph, bit_positions, emit_graph6, enumerate_copies, graph


@dataclass(frozen=True)
class TraceEvent:
    step: int
    action: str
    edge: Edge | None = None
    l_copy: tuple[Edge, ...] | None = None
    color: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"step": self.step, "action": self.action}
        if self.edge is not None:
            out["edge"] = list(self.edge)
        if self.l_copy is not None:
            out["l_copy"] = [list(e) for e in self.l_copy]
        if self.color is not None:
            out["color"] = self.color
        return out


LogEntry = tuple[str, Edge | None, int]
_COLORS = {"readd_edge": BLUE, "recolor_red": RED}


def _trace_events(log: Sequence[LogEntry], h2: CopySet, start: int = 0) -> tuple[TraceEvent, ...]:
    """The TraceEvents of log[start:]; an event's step is its entry's index."""
    return tuple(
        TraceEvent(step, action, e, h2.copies[li].sort_key() if li >= 0 else None, _COLORS.get(action))
        for step, (action, e, li) in enumerate(log[start:], start)
    )


@dataclass(frozen=True)
class ColorerOutcome:
    status: Literal["colored", "stuck"]
    coloring: Coloring | None
    residual: Graph | None
    live_anchors: CopySet | None
    log: tuple[LogEntry, ...]
    blockers: tuple[Graph, ...]
    h1_copies: CopySet  # every copy of h1 and of h2 in the input
    h2_copies: CopySet

    @cached_property
    def trace(self) -> tuple[TraceEvent, ...]:
        return _trace_events(self.log, self.h2_copies)


class ColorerInternalError(Exception):
    """An assertion the correctness proof forbids has fired; trace is the log's last 20 events."""

    def __init__(self, message: str, log: Sequence[LogEntry], h2_copies: CopySet):
        self.trace = _trace_events(log, h2_copies, max(0, len(log) - 20))
        super().__init__("\n".join([message] + [str(ev.to_dict()) for ev in self.trace]))


@lru_cache(maxsize=256)  # a run meets few (member, pair) combinations
def _pinned(member: Graph, pair: PairSpec) -> bool:
    return family_report(member, pair).pinned


def asym_edge_color(g: Graph, pair: PairSpec, blockers: Sequence[Graph]) -> ColorerOutcome:
    """Run the full delete/hand-off/replay pipeline on g.

    Every graph in blockers must be pinned for pair, as every blocker is
    (anchored implies pinned); one that is not raises ValueError. The guard
    relies on it: each edge of a blocker copy then lies on an h2-copy inside
    that copy, so a residual with a live edge on no live h2-copy is not
    clean, whatever blocker copies it has. Nor is one with a live edge whose
    h1- and h2-copies have edges with more endpoints than widest, the
    largest blocker vertex count: the edge's member holds every such copy,
    as none straddles. Witness vertices would overcount: they include the
    images of isolated pattern vertices.

    Returns Colored (with a verified coloring) or Stuck (with the residual
    and the still-tracked copies). Internal contract violations raise
    ColorerInternalError with the log's tail attached. color_by_members
    colours the sparse core, searching each member at the default budget,
    and raises families.UncolorableMemberError at a member that it cannot
    colour; that error passes through.
    """
    unpinned_blockers = [emit_graph6(b) for b in blockers if not _pinned(b, pair)]
    if unpinned_blockers:
        raise ValueError(f"blocker members must be pinned for the pair; not pinned: {', '.join(unpinned_blockers)}")
    live: set[Edge] = set(g.edges)
    h1, h2 = pair_copies(g, pair)
    alive1, alive2 = (1 << len(h1)) - 1, (1 << len(h2)) - 1
    tracked = alive2
    # the blockers' copies in the first residual that can be clean, read in
    # later residuals by containment; None until then
    blocker_sets: list[CopySet] | None = None
    widest = max((b.vertex_count for b in blockers), default=0)
    witness: Edge | None = None  # a live edge that rules_out
    scan: Iterator[Edge] = iter(())  # the rest of a snapshot of live
    log: list[LogEntry] = []

    # unpinned is a heap of exactly the unpinned live edges: an edge stays
    # unpinned until deleted, and only retest unpins a pinned one
    pinned = {e for e in live if is_pinned(e, h2, h1, tracked, alive1)}
    unpinned = sorted(live - pinned)

    def retest(copies: CopySet, gone: int) -> None:
        """Test again the pinned edges of the copies at positions gone, which
        have just left alive1 or tracked."""
        if not gone or not pinned:
            return
        for f in pinned.intersection(chain.from_iterable(copies.copies[i].edges for i in bit_positions(gone))):
            if not is_pinned(f, h2, h1, tracked, alive1):
                pinned.discard(f)
                heappush(unpinned, f)

    # the retirement scan: the tracked copies at positions below frontier
    # have been tested. loose holds those that had an unpinned edge; they
    # keep it while tracked, as alive1 only shrinks. The others had none,
    # and can gain one only when an h1-copy through one of their edges
    # dies; killed_since collects the h1-copies killed since the last scan.
    frontier = loose = killed_since = 0

    def least_loose() -> int | None:
        """The least tracked position whose copy has an unpinned edge."""
        nonlocal frontier, loose, killed_since
        suspects = 0
        for i in bit_positions(killed_since):
            for f in h1.copies[i].edges:
                suspects |= h2.index.get(f, 0)
        killed_since = 0
        for li in bit_positions(suspects & tracked & ~loose & ((1 << frontier) - 1)):
            if unpinned_edge(h2.copies[li].edges, h1, alive1) is not None:
                loose |= 1 << li
        held = loose & tracked
        if held:
            return (held & -held).bit_length() - 1
        for li in bit_positions(tracked >> frontier << frontier):
            if unpinned_edge(h2.copies[li].edges, h1, alive1) is not None:
                frontier = li + 1
                return li
        return None

    def rules_out(e: Edge) -> bool:
        """e is on no live h2-copy, or its live h1/h2-copies span > widest."""
        through2 = alive2 & h2.index.get(e, 0)
        if not through2:
            return True
        # when h2 is h1, alive1 is alive2 until the hand-off
        through1 = 0 if h2 is h1 else alive1 & h1.index.get(e, 0)
        span = 0
        for copies, through in ((h2, through2), (h1, through1)):
            for i in bit_positions(through):
                span |= copies.endpoint_masks[i]
                if span.bit_count() > widest:
                    return True
        return False

    def clean_residual() -> BlockerDecomposition | None:
        """The residual's blocker decomposition, from the live copies, when it
        is a clean sparse union of blocker members; None otherwise.

        A witness, a live edge that rules_out, rules the residual out. Its
        span can shrink as copies die, so it is tested again on each call.
        When it fails or is deleted, the scan resumes after it in the
        snapshot of live it was found in; only a fresh whole pass over
        live that finds no witness lets the residual be decomposed.
        The blocker copies are enumerated in the first residual with no
        witness. Later residuals are its subgraphs, so a blocker copy lies in
        one exactly when its edges do; the decomposition reads them by that
        containment. An edge on no blocker copy of the residual has no
        member, which covered_once reads as not clean."""
        nonlocal witness, scan, blocker_sets
        if widest < 2 and live:
            return None  # every live edge rules out: a copy through it spans 2 endpoints
        if witness in live and rules_out(witness):
            return None
        for fresh in (False, True):
            if fresh:
                scan = iter(list(live))
            witness = next((e for e in scan if e in live and rules_out(e)), None)
            if witness is not None:
                return None
        residual = graph(g.vertex_count, live)
        edges = residual.edge_set()
        if blocker_sets is None:
            blocker_sets = [enumerate_copies(residual, b) for b in blockers]
        decomp = BlockerDecomposition(
            residual,
            lambda e: [c for bs in blocker_sets for c in bs.through(e) if c.edges <= edges],
            CopySet(pair.h1, tuple(h1.copies[i] for i in bit_positions(alive1))),
            CopySet(pair.h2, tuple(h2.copies[i] for i in bit_positions(alive2))),
        )
        return decomp if decomp.covered_once and decomp.sparse else None

    # the guard runs whenever live changes; the loop stops at the first
    # residual it finds clean, and that decomposition is handed off
    clean = clean_residual()
    while clean is None:
        measure = len(live) + tracked.bit_count()
        if unpinned:
            e = heappop(unpinned)
            dropped = tracked & h2.index.get(e, 0)
            log.extend(("push_l", e, li) for li in bit_positions(dropped))
            tracked &= ~dropped
            killed = alive1 & h1.index.get(e, 0)
            live.discard(e)
            alive1 &= ~killed
            killed_since |= killed
            alive2 &= ~h2.index.get(e, 0)
            # every tracked copy stays fully alive in the residual
            assert not tracked & ~alive2
            log.append(("delete_edge", e, -1))
            retest(h1, killed)
            # when h2 is h1, dropped is within killed, whose pinned edges
            # were just tested again in this state
            if h2 is not h1:
                retest(h2, dropped)
            clean = clean_residual()
        elif (li := least_loose()) is not None:
            tracked &= ~(1 << li)
            # the edge replay would flip if it ran now; alive1 shrinks later
            log.append(("retire_l", unpinned_edge(h2.copies[li].edges, h1, alive1), li))
            retest(h2, 1 << li)
        else:
            log.append(("stuck", None, -1))
            residual = graph(g.vertex_count, live)
            live_anchors = CopySet(pair.h2, tuple(h2.copies[li] for li in bit_positions(tracked)))
            return ColorerOutcome(
                "stuck", None, residual, live_anchors, tuple(log), tuple(blockers), h1, h2
            )
        assert len(live) + tracked.bit_count() < measure  # the loop must shrink

    # hand the sparse, cleanly-covered residual to the member-wise colorer,
    # with its h1/h2 copies as the live-filtered input copies
    log.append(("handoff", None, -1))
    assignment: dict[Edge, str] = dict(color_by_members(clean, pair).assignment)
    blue = {e for e, c in assignment.items() if c == BLUE}

    # the entries before the handoff, last first, are the stack
    for action, e, li in reversed(log[:-1]):
        if action == "delete_edge":
            live.add(e)
            # a copy through e is alive again once all its edges are
            for i in bit_positions(h1.index.get(e, 0)):
                if h1.copies[i].edges <= live:
                    alive1 |= 1 << i
            assignment[e] = BLUE
            blue.add(e)
            log.append(("readd_edge", e, -1))
        else:  # push_l or retire_l: a tracked copy
            L_edges = h2.copies[li].edges
            if not L_edges <= blue:
                continue
            flip = unpinned_edge(L_edges, h1, alive1)
            if flip is None:
                raise ColorerInternalError(
                    "fully-blue tracked copy with every edge uniquely intersected; "
                    "the replay guarantee is broken",
                    log, h2,
                )
            assignment[flip] = RED
            blue.discard(flip)
            log.append(("recolor_red", flip, li))
            for i in bit_positions(alive1 & h1.index.get(flip, 0)):
                if all(assignment.get(x) == RED for x in h1.copies[i].edges):
                    raise ColorerInternalError(
                        f"recoloring {flip} red completed a red copy", log, h2
                    )

    coloring = Coloring(g, assignment)
    check = verify_from_copies(coloring, h1, h2)
    if not check.ok:
        raise ColorerInternalError(f"final coloring invalid: {check}", log, h2)
    return ColorerOutcome("colored", coloring, None, None, tuple(log), tuple(blockers), h1, h2)


def check_stuck_state(outcome: ColorerOutcome, pair: PairSpec) -> BlockerDecomposition:
    """Independently verify what a Stuck outcome promises: the residual is in
    the anchored family, each live anchor is an h2-copy of the residual
    that is anchored there, and the residual is not a cleanly-covered
    sparse union. The residual's copies are enumerated afresh, not taken
    from the colorer: its h1/h2 copies once each, against which the report
    tests each live anchor (FamilyReport.is_anchored), and its blocker
    copies through one edge at a time (`enumerate_copies_through`), only
    for the edges that covered_once and sparse read. Those stop at the
    first edge whose member count is not 1 and at the first straddling
    copy. The returned blocker decomposition keeps the members found per
    edge, the h1/h2 copy sets and the family report built from them, for
    growth, which asks for more edges only when it needs them."""
    if outcome.status != "stuck":
        raise ValueError("outcome is not stuck")
    residual = outcome.residual

    def error(message: str) -> ColorerInternalError:
        return ColorerInternalError(message, outcome.log, outcome.h2_copies)

    if residual.edge_count == 0:
        raise error("stuck with an empty residual")
    decomp = blocker_decomposition(residual, pair, outcome.blockers)
    report = decomp.report
    if not report.anchored:
        raise error(f"stuck residual is not anchored; failures {report.anchored_failures}")
    residual_edges = residual.edge_set()
    for L in outcome.live_anchors.copies:
        if not (L.edges <= residual_edges and report.is_anchored(L)):
            raise error("a live tracked copy is not anchored")
    if decomp.covered_once and decomp.sparse:
        raise error("stuck residual is already a cleanly-covered sparse union")
    return decomp
