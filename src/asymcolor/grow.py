"""Growth procedures that turn a stuck residual into a density certificate.

The colorer hands over a residual graph in which every edge is pinned by
copy-pair structure.  The procedures here grow a small witness subgraph F
inside that residual, one copy attachment at a time, while auditing the
slack lambda(F) = v(F) - e(F)/m2_pair.  Non-degenerate attachments keep the
slack constant; degenerate ones (vertex re-use) pay a fixed toll, so the
slack can only fall a bounded number of times before the density guard
fires and a subgraph of maximum edge density is extracted.  Each attachment
decides its own degeneracy as it glues its copies on, and the step record
keeps only that verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log
from typing import Literal, Sequence

from .density import PairSpec, density_slack, least_max_gain_set
from .families import BlockerDecomposition, FamilyReport, family_report, pin_partner
from .graphs import (
    Edge,
    Graph,
    canonical_form,
    extract_from_edges,
    induced_subgraph,
    norm_edge,
)

Variant = Literal["grow", "grow_alt"]


class GrowError(RuntimeError):
    """A growth precondition failed; carries the partial trace for debugging."""

    def __init__(self, message: str, steps: Sequence["GrowStep"] = ()):
        super().__init__(message)
        self.steps = tuple(steps)


# ---------------------------------------------------------------------------
# eligible edges and the two extension moves


def eligible_edge(f: Graph, pair: PairSpec, variant: Variant = "grow") -> Edge | None:
    """The orbit-least edge of f that the growth loop may extend at.

    grow:     an edge lying on no anchored h2-copy of f (f as a standalone
              graph).  None means every edge is so covered.
    grow_alt: an edge e such that no h2-copy L and h1-copy R of f intersect
              in exactly {e}.  None means f itself is flower-closed.

    The choice is pinned down isomorphism-invariantly: map the candidates
    through f's canonical labelling and take the least image.
    """
    report = family_report(f, pair)
    pool = report.anchored_failures if variant == "grow" else report.pinned_failures
    if not pool:
        return None
    _, mapping = canonical_form(f)
    return min(pool, key=lambda e: norm_edge(mapping[e[0]], mapping[e[1]]))


def _extend_anchored(f_edges: set[Edge], f_verts: set[int], e: Edge, report: FamilyReport) -> bool:
    """Attach the least anchored h2-copy of the host through e, then pin each
    new edge with an h1-copy meeting that copy in exactly this edge.  The
    host's copies are those of report.  Mutates f in place; returns whether
    the step is degenerate: whether some attached copy met f outside the
    endpoints of the edge it was attached at."""
    h1_copies = report.h1_copies
    l_copy = report.anchored_through(e)
    if l_copy is None:
        raise GrowError(
            f"no anchored h2-copy of the host passes through {e}; "
            "the residual is not pin-closed"
        )
    degenerate = not (l_copy.vertices & f_verts) <= set(e)
    fresh = sorted(l_copy.edges - f_edges)
    f_edges |= l_copy.edges
    f_verts |= l_copy.vertices
    for e2 in fresh:
        partners = pin_partner(l_copy.edges, e2, h1_copies)
        if not partners:
            raise GrowError(
                f"no h1-copy of the host meets the attached h2-copy in exactly {e2}; "
                "the residual is not pin-closed"
            )
        r_copy = h1_copies.copies[(partners & -partners).bit_length() - 1]
        degenerate |= not (r_copy.vertices & f_verts) <= set(e2)
        f_edges |= r_copy.edges
        f_verts |= r_copy.vertices
    return degenerate


def _extend_alt(f_edges: set[Edge], f_verts: set[int], e: Edge, report: FamilyReport) -> bool:
    """Attach one side of the least (h2-copy, h1-copy) pair of the host,
    whose copies are those of report, meeting in exactly {e}: the h2 side if
    it is not yet inside f, otherwise the h1 side.  Mutates f in place;
    returns whether the step is degenerate: whether the attached copy met f
    outside the endpoints of e."""
    h1_copies = report.h1_copies
    for l_copy in report.h2_copies.through(e):
        partners = pin_partner(l_copy.edges, e, h1_copies)
        if partners:
            r_copy = h1_copies.copies[(partners & -partners).bit_length() - 1]
            break
    else:
        raise GrowError(
            f"no copy pair of the host meets in exactly {e}; "
            "the residual is not pin-closed"
        )
    attach = r_copy if l_copy.edges <= f_edges else l_copy
    degenerate = not (attach.vertices & f_verts) <= set(e)
    f_edges |= attach.edges
    f_verts |= attach.vertices
    return degenerate


# ---------------------------------------------------------------------------
# the growth loop


_DEGENERATE_CLASS = {
    "absorb_h1": "degenerate_type_1",
    "extend_anchored": "degenerate_type_2",
    "extend_alt": "degenerate_alt",
}


@dataclass(frozen=True)
class GrowStep:
    index: int
    kind: str  # special_case_1 | special_case_2 | absorb_h1 | extend_anchored | extend_alt
    degenerate: bool
    lambda_before: Fraction
    lambda_after: Fraction
    added_vertices: int
    added_edges: int

    @property
    def classification(self) -> str:
        """non_degenerate, degenerate_type_1 (whole-copy absorption),
        degenerate_type_2 (anchored extension re-used vertices) or
        degenerate_alt (copy-pair extension re-used vertices). The step's
        kind and its degenerate flag, set where the copies were attached,
        decide."""
        return _DEGENERATE_CLASS[self.kind] if self.degenerate else "non_degenerate"

    def to_dict(self) -> dict:
        return {
            "i": self.index,
            "kind": self.kind,
            "degenerate": self.degenerate,
            "lambda_before": str(self.lambda_before),
            "lambda_after": str(self.lambda_after),
            "v_added": self.added_vertices,
            "e_added": self.added_edges,
        }


@dataclass(frozen=True)
class GrowTrace:
    steps: tuple[GrowStep, ...]
    outcome: str  # hit_iteration_cap | hit_density_guard | special_case
    final: Graph
    host_edges: tuple[Edge, ...]


def _special_return(
    kind: str, union_edges: set[Edge], pair: PairSpec
) -> tuple[Graph, GrowTrace]:
    final, _ = extract_from_edges(union_edges)
    lam = density_slack(final, pair)
    step = GrowStep(
        index=0,
        kind=kind,
        degenerate=False,
        lambda_before=lam,
        lambda_after=lam,
        added_vertices=final.vertex_count,
        added_edges=final.edge_count,
    )
    trace = GrowTrace((step,), "special_case", final, tuple(sorted(union_edges)))
    return final, trace


def _shared_or_seed(decomp: BlockerDecomposition) -> tuple[Edge | None, Edge | None]:
    """The least edge of decomp.graph on two or more members, with None; or,
    when there is none, None with the least edge on no member (None when
    every edge has one). One pass in edge order, which stops at the shared
    edge."""
    seed = None
    for e in decomp.graph.edges:
        count = len(decomp.members_through(e))
        if count >= 2:
            return e, None
        if not count and seed is None:
            seed = e
    return None, seed


def _grow(
    decomp: BlockerDecomposition, pair: PairSpec, variant: Variant
) -> tuple[Graph, GrowTrace]:
    host = decomp.graph
    if host.edge_count == 0:
        raise GrowError("empty host has no seed edge")

    if decomp.covered_once:
        # every edge on exactly one catalog member: return the members a
        # straddling copy touches
        straddler = next(decomp.straddlers(), None)
        if straddler is None:
            raise GrowError(
                "every edge lies on exactly one catalog member but no copy of "
                "h1 or h2 straddles two members; the host is a sparse member "
                "union and should not have been grown"
            )
        union: set[Edge] = set()
        for e in straddler.copy.edges:
            for m in decomp.members_through(e):
                union |= m.edges
        return _special_return("special_case_1", union, pair)

    shared, seed_edge = _shared_or_seed(decomp)
    if shared is not None:
        m1, m2 = decomp.members_through(shared)[:2]
        return _special_return("special_case_2", set(m1.edges | m2.edges), pair)

    h1_copies = decomp.h1_copies
    # grow attaches an anchored h2-copy with its pendant h1-copies, grow_alt
    # one side of a copy pair drawn from all h2-copies
    if variant == "grow":
        extend, extend_kind = _extend_anchored, "extend_anchored"
    else:
        extend, extend_kind = _extend_alt, "extend_alt"

    seed = next(iter(h1_copies.through(seed_edge)), None)
    if seed is None:
        raise GrowError(
            f"seed edge {seed_edge} lies on no h1-copy; the host is not copy-covered"
        )
    f_edges: set[Edge] = set(seed.edges)
    f_verts: set[int] = set(seed.vertices)

    cap = log(host.vertex_count)
    steps: list[GrowStep] = []
    i = 0
    while True:
        lam = Fraction(len(f_verts)) - Fraction(len(f_edges)) / pair.m2_pair
        extracted, verts = extract_from_edges(f_edges)
        if i >= cap:
            break
        # with m2_pair = p/q, the least slack over subgraphs S of F is
        # -max_gain(F, m2_pair) / p, since lambda(S) = (p*|S| - q*e(S)) / p
        gain, least = least_max_gain_set(extracted, pair.m2_pair)
        if Fraction(-gain, pair.m2_pair.numerator) <= -pair.gamma:
            break
        before_v, before_e = len(f_verts), len(f_edges)
        absorbed = None
        if variant == "grow":
            absorbed = next(
                (
                    r
                    for r in h1_copies.copies
                    if not r.edges <= f_edges and len(r.vertices & f_verts) >= 2
                ),
                None,
            )
        if absorbed is not None:
            # an h1-copy meeting F in two or more vertices: absorbing it
            # whole always re-uses vertices
            kind, degenerate = "absorb_h1", True
            f_edges |= absorbed.edges
            f_verts |= absorbed.vertices
        else:
            e = _mapped_eligible(extracted, verts, pair, variant, steps)
            kind, degenerate = extend_kind, extend(f_edges, f_verts, e, decomp.report)
        if len(f_edges) <= before_e:
            raise GrowError("growth step added no edge; attachment bookkeeping is broken", steps)
        lam_after = Fraction(len(f_verts)) - Fraction(len(f_edges)) / pair.m2_pair
        steps.append(
            GrowStep(
                index=i,
                kind=kind,
                degenerate=degenerate,
                lambda_before=lam,
                lambda_after=lam_after,
                added_vertices=len(f_verts) - before_v,
                added_edges=len(f_edges) - before_e,
            )
        )
        i += 1

    if i >= cap:
        final = extracted
        host_edges = tuple(sorted(f_edges))
        outcome = "hit_iteration_cap"
    else:
        # The density guard fired on the flow just run, and its minimum cut
        # holds M0.  Minimisers of lambda are induced subgraphs without
        # isolated vertices (an extra edge lowers lambda, an isolated vertex
        # raises it), so they are the vertex sets maximising the gain
        # q*e(S) - p*|S|.  That gain is supermodular, so its maximisers are
        # closed under intersection and their intersection M0 is itself one
        # (Picard and Queyranne 1982).  Every other maximiser strictly
        # contains M0, so M0 has the fewest vertices and induces the
        # canonically least minimiser (canonical_key orders by vertex count
        # first).
        final, _ = induced_subgraph(extracted, least)
        chosen = {verts[c] for c in least}
        host_edges = tuple(
            sorted(e for e in f_edges if e[0] in chosen and e[1] in chosen)
        )
        outcome = "hit_density_guard"
    return final, GrowTrace(tuple(steps), outcome, final, host_edges)


def _mapped_eligible(
    extracted: Graph,
    verts: tuple[int, ...],
    pair: PairSpec,
    variant: Variant,
    steps: Sequence[GrowStep],
) -> Edge:
    e = eligible_edge(extracted, pair, variant)
    if e is None:
        raise GrowError(
            "no eligible edge: the current subgraph is itself pin-closed, so "
            "growing further is impossible; with the true catalog this graph "
            "would have been a member return",
            steps,
        )
    return norm_edge(verts[e[0]], verts[e[1]])


def grow(decomp: BlockerDecomposition, pair: PairSpec) -> tuple[Graph, GrowTrace]:
    """Grow a witness in decomp.graph, a residual where every edge rides an
    anchored h2-copy, given its blocker decomposition (the strict case).

    F starts as an h1-copy through the least edge on no catalog member.  Each
    step absorbs the least h1-copy that meets F in two or more vertices
    (absorb_h1, always degenerate) or, when there is none, attaches the least
    anchored h2-copy through F's eligible edge with a pendant h1-copy pinning
    each new edge (extend_anchored, degenerate when some attached copy met F
    outside the endpoints of the edge it was attached at).  The loop stops
    after ceil(ln n) steps, n the host's vertex count, or when the density
    guard fires.  Returns the final
    witness and the trace; raises GrowError with the steps so far when an
    attachment is missing."""
    return _grow(decomp, pair, "grow")


def grow_alt(decomp: BlockerDecomposition, pair: PairSpec) -> tuple[Graph, GrowTrace]:
    """Growth variant for the equal-density case: each step extends by one
    side of a copy pair meeting in exactly F's eligible edge instead of a
    whole anchored bundle (extend_alt, degenerate when the attached copy met
    F outside that edge's endpoints).  Same loop, return value and errors as
    grow."""
    return _grow(decomp, pair, "grow_alt")
