"""The stack colorer: delete edges that nothing pins, hand the sparse core to
the member-wise colorer, then replay the stack re-adding edges blue and
flipping one edge red on each fully-blue tracked copy.

"Pins" is families.pin_partner over the live h1-copies: an edge is deleted
when no tracked h2-copy through it has a pin partner there, a tracked copy
is retired at its families.unpinned_edge, and replay flips the
unpinned_edge of each fully-blue tracked copy red.

The tracked copy set starts as all h2-copies of the input and only ever
shrinks; h1-copies are always read against the current residual. Because a
copy of a pattern in the residual is exactly a copy in the input whose edges
all survive, every copy set is enumerated once up front and never
re-enumerated: each keeps an alive mask over its positions (tracked is a
second one over h2's), read against its CopySet.index. Deleting e is
alive &= ~index[e]; on replay a copy through e is alive again once all its
edges are live. The outcome carries the input's h1 and h2 copy sets, which
the stuck oracle searches instead of enumerating the input again. The stuck
audit (check_stuck_state) still enumerates the residual's copies afresh: it
is the independent check.

After each deletion a guard builds the residual's BlockerDecomposition from
the live copies and reads covered_once and sparse, unless some live edge has
no live blocker copy through it (it lies in no member, so the residual is not
clean); the decomposition that passes is handed to the member-wise colorer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .density import PairSpec
from .families import (
    BLUE,
    RED,
    BlockerDecomposition,
    Coloring,
    MemberColoringResult,
    blocker_decomposition,
    color_by_members,
    decomposition_from_copies,
    pin_partner,
    unpinned_edge,
    verify_coloring,
    DEFAULT_ORACLE_BUDGET,
)
from .graphs import CopySet, Edge, Graph, bit_positions, enumerate_copies, graph


@dataclass(frozen=True)
class StackEntry:
    kind: Literal["edge", "h2copy"]
    edge: Edge | None = None
    copy_edges: frozenset[Edge] | None = None


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


@dataclass(frozen=True)
class ColorerOutcome:
    status: Literal["colored", "stuck"]
    coloring: Coloring | None
    residual: Graph | None
    live_anchors: CopySet | None
    trace: tuple[TraceEvent, ...]
    blockers: tuple[Graph, ...]
    h1_copies: CopySet  # every copy of h1 and of h2 in the input
    h2_copies: CopySet


class ColorerInternalError(Exception):
    """An assertion the correctness proof forbids has fired; carries the trace."""

    def __init__(self, message: str, trace: Sequence[TraceEvent]):
        lines = [message] + [str(ev.to_dict()) for ev in trace[-20:]]
        super().__init__("\n".join(lines))
        self.trace = tuple(trace)


class UncolorableMemberError(Exception):
    """The member-wise colorer failed on the sparse core.

    Not an internal bug: it means some blocker member has no valid coloring,
    refuting the emptiness premise for this pair/epsilon. Carries the result.
    """

    def __init__(self, result: MemberColoringResult):
        super().__init__(result.finding or "member coloring failed")
        self.result = result


def asym_edge_color(
    g: Graph,
    pair: PairSpec,
    blockers: Sequence[Graph],
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> ColorerOutcome:
    """Run the full delete/hand-off/replay pipeline on g.

    Returns Colored (with a verified coloring) or Stuck (with the residual
    and the still-tracked copies). Internal contract violations raise
    ColorerInternalError with the trace attached; an uncolorable sparse-core
    member raises UncolorableMemberError.
    """
    live: set[Edge] = set(g.edges)
    h1, h2 = enumerate_copies(g, pair.h1), enumerate_copies(g, pair.h2)
    blocker_sets = [enumerate_copies(g, b) for b in blockers]
    alive1, alive2 = (1 << len(h1)) - 1, (1 << len(h2)) - 1
    blocker_alive = [(1 << len(bs)) - 1 for bs in blocker_sets]
    tracked = alive2
    stack: list[StackEntry] = []
    trace: list[TraceEvent] = []
    step = 0

    def log(action: str, edge=None, l_copy=None, color=None):
        nonlocal step
        trace.append(TraceEvent(step, action, edge, l_copy, color))
        step += 1

    def pinned_by_tracked(e: Edge) -> bool:
        return any(
            pin_partner(h2.copies[li].edges, e, h1, alive1)
            for li in bit_positions(tracked & h2.index.get(e, 0))
        )

    def clean_residual() -> BlockerDecomposition | None:
        """The residual's blocker decomposition, from the live copies, when it
        is a clean sparse union of blocker members; None otherwise. An edge
        on no live blocker copy lies in no member, so then none is built."""
        live_sets = list(zip(blocker_sets, blocker_alive))
        if not all(any(a & bs.index.get(e, 0) for bs, a in live_sets) for e in live):
            return None
        decomp = decomposition_from_copies(
            graph(g.vertex_count, live),
            (bs.copies[i] for bs, a in live_sets for i in bit_positions(a)),
            CopySet(pair.h1, tuple(h1.copies[i] for i in bit_positions(alive1))),
            CopySet(pair.h2, tuple(h2.copies[i] for i in bit_positions(alive2))),
        )
        return decomp if decomp.covered_once and decomp.sparse else None

    # the guard runs whenever live changes; the loop stops at the first
    # residual it finds clean, and that decomposition is handed off
    clean = clean_residual()
    while clean is None:
        measure = len(live) + tracked.bit_count()
        fired = False
        for e in sorted(live):
            if not pinned_by_tracked(e):
                for li in bit_positions(tracked & h2.index.get(e, 0)):
                    L_edges = h2.copies[li].edges
                    stack.append(StackEntry("h2copy", copy_edges=L_edges))
                    log("push_l", edge=e, l_copy=tuple(sorted(L_edges)))
                tracked &= ~h2.index.get(e, 0)
                stack.append(StackEntry("edge", edge=e))
                live.discard(e)
                alive1 &= ~h1.index.get(e, 0)
                alive2 &= ~h2.index.get(e, 0)
                blocker_alive = [a & ~bs.index.get(e, 0) for bs, a in zip(blocker_sets, blocker_alive)]
                # every tracked copy stays fully alive in the residual
                assert not tracked & ~alive2
                log("delete_edge", edge=e)
                clean = clean_residual()
                fired = True
                break
        if not fired:
            for li in bit_positions(tracked):
                L_edges = h2.copies[li].edges
                bad = unpinned_edge(L_edges, h1, alive1)
                if bad is not None:
                    stack.append(StackEntry("h2copy", copy_edges=L_edges))
                    tracked &= ~(1 << li)
                    log("retire_l", edge=bad, l_copy=tuple(sorted(L_edges)))
                    fired = True
                    break
        if not fired:
            log("stuck")
            residual = graph(g.vertex_count, live)
            live_anchors = CopySet(pair.h2, tuple(h2.copies[li] for li in bit_positions(tracked)))
            return ColorerOutcome(
                "stuck", None, residual, live_anchors, tuple(trace), tuple(blockers), h1, h2
            )
        assert len(live) + tracked.bit_count() < measure  # the loop must shrink

    # hand the sparse, cleanly-covered residual to the member-wise colorer,
    # with its h1/h2 copies as the live-filtered input copies
    log("handoff")
    base = color_by_members(clean, pair, budget)
    if not base.ok:
        raise UncolorableMemberError(base)
    assignment: dict[Edge, str] = dict(base.coloring.assignment)

    while stack:
        entry = stack.pop()
        if entry.kind == "edge":
            e = entry.edge
            live.add(e)
            # a copy through e is alive again once all its edges are
            for i in bit_positions(h1.index.get(e, 0)):
                if h1.copies[i].edges <= live:
                    alive1 |= 1 << i
            assignment[e] = BLUE
            log("readd_edge", edge=e, color=BLUE)
        else:
            L_edges = entry.copy_edges
            if not all(assignment.get(f) == BLUE for f in L_edges):
                continue
            flip = unpinned_edge(L_edges, h1, alive1)
            if flip is None:
                raise ColorerInternalError(
                    "fully-blue tracked copy with every edge uniquely intersected; "
                    "the replay guarantee is broken",
                    trace,
                )
            assignment[flip] = RED
            log("recolor_red", edge=flip, l_copy=tuple(sorted(L_edges)), color=RED)
            for i in bit_positions(alive1 & h1.index.get(flip, 0)):
                if all(assignment.get(x) == RED for x in h1.copies[i].edges):
                    raise ColorerInternalError(
                        f"recoloring {flip} red completed a red copy", trace
                    )

    coloring = Coloring(g, assignment)
    check = verify_coloring(coloring, pair)
    if not check.ok:
        raise ColorerInternalError(f"final coloring invalid: {check}", trace)
    return ColorerOutcome(
        "colored", coloring, None, None, tuple(trace), tuple(blockers), h1, h2
    )


def check_stuck_state(outcome: ColorerOutcome, pair: PairSpec) -> BlockerDecomposition:
    """Independently verify what a Stuck outcome promises: the residual is in
    the anchored family and is not a cleanly-covered sparse union. The
    residual's copies are enumerated afresh, not taken from the colorer,
    once each: the returned blocker decomposition holds its h1/h2 copy sets
    and the family report built from them, for growth."""
    if outcome.status != "stuck":
        raise ValueError("outcome is not stuck")
    residual = outcome.residual
    if residual.edge_count == 0:
        raise ColorerInternalError("stuck with an empty residual", outcome.trace)
    decomp = blocker_decomposition(residual, pair, outcome.blockers)
    report = decomp.report
    if not report.anchored:
        raise ColorerInternalError(
            f"stuck residual is not anchored; failures {report.anchored_failures}",
            outcome.trace,
        )
    anchored_sets = {c.edges for c in report.anchored_copies.copies}
    for L in outcome.live_anchors.copies:
        if L.edges not in anchored_sets:
            raise ColorerInternalError("a live tracked copy is not anchored", outcome.trace)
    if decomp.covered_once and decomp.sparse:
        raise ColorerInternalError(
            "stuck residual is already a cleanly-covered sparse union", outcome.trace
        )
    return decomp
