"""Emptiness certificates for pairs of regular graphs.

When both graphs of a pair are regular, the pair density collapses to a
closed form in four integers: the two vertex counts and the two degrees.
Any 2-connected blocker candidate must carry minimum degree
l1 + l2 - 1 (each vertex sits on copies of both graphs that overlap in a
single edge), which forces its edge/vertex density to at least
(l1 + l2 - 1) / 2. Whenever that floor strictly beats the closed-form
pair density, the blocker family is empty for every small enough
positive epsilon, and we can write the gap down as an exact rational.

This module does that arithmetic. It certifies parameter tuples through
four routes, one per parameter regime, and rejects tuples that are
either outside the certified range (three excluded shapes) or unable to
satisfy the pair hypotheses in the first place. No concrete graphs are
needed unless the caller wants the closed form cross-checked against
measured densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal

from .density import PairSpec, build_pair_spec
from .families import blocker_members
from .graphs import Graph

Route = Literal["GeneralMonotone", "Case1Cycle", "Case2V1Is3", "Case3V2Le4"]
RejectionKind = Literal["excluded", "hypotheses_unmet"]

# The three pair shapes the certificate range leaves out. Two of them
# overlap; a rejection reports every tag that matches.
EXCLUSION_CLIQUE_CYCLE = "clique_and_cycle"
EXCLUSION_CYCLE_ORDER = "cycle_with_first_no_smaller"
EXCLUSION_TRIANGLE_K33 = "triangle_and_k33"


@dataclass(frozen=True)
class RegularPairParams:
    """Vertex counts and regular degrees of a pair (h1, h2).

    Purely parametric. A parity violation (odd vertex count with odd
    degree, so no such graph exists) clears the matching realizable flag
    but does not reject: the gap arithmetic is well defined either way,
    and certified margins at unrealizable tuples still bound every
    realizable tuple dominating them.
    """

    v1: int
    v2: int
    l1: int
    l2: int

    def __post_init__(self) -> None:
        for tag, v, l in (("h1", self.v1, self.l1), ("h2", self.v2, self.l2)):
            if l < 2:
                raise ValueError(f"{tag}: degree {l} < 2 is out of range (forests)")
            if l > v - 1:
                raise ValueError(f"{tag}: degree {l} is impossible on {v} vertices")

    @property
    def realizable_h1(self) -> bool:
        return self.v1 * self.l1 % 2 == 0

    @property
    def realizable_h2(self) -> bool:
        return self.v2 * self.l2 % 2 == 0

    @property
    def degree_floor(self) -> Fraction:
        """Density forced on 2-connected blockers: (l1 + l2 - 1) / 2."""
        return Fraction(self.l1 + self.l2 - 1, 2)


def m2_pair_regular(p: RegularPairParams) -> Fraction:
    """Closed form for the pair density of two regular graphs.

    Valid when h2 is strictly 2-balanced and h1 is balanced against the
    mixed measure, i.e. when both maxima sit at the whole graphs;
    certify_emptiness cross-checks this when handed concrete graphs.
    """
    tail = Fraction(4 * p.v2 - 8, p.v2 * p.l2 - 2)
    return Fraction(p.v1 * p.l1) / (2 * p.v1 - 4 + tail)


def gap_poly(p: RegularPairParams) -> int:
    """Integer whose sign decides degree_floor > m2_pair_regular."""
    v1, v2, l1, l2 = p.v1, p.v2, p.l1, p.l2
    return v1 * v2 * l2 - 2 * v1 - 2 * v2 * l1 - 2 * v2 * l2 + 2 * v2


def gap_lower_poly(v1: int, v2: int, l2: int) -> int:
    """Lower bound on gap_poly after substituting l1 <= v1 - 1.

    Monotone increasing in each argument once l2 >= 3 (discrete forward
    differences are positive for v1, v2 >= 3), and equal to 2 at
    (4, 5, 3), which anchors the general route.
    """
    return v1 * v2 * (l2 - 2) - 2 * v1 + 4 * v2 - 2 * v2 * l2


def _d2_closed(v: int, l: int) -> Fraction:
    # (e - 1) / (v - 2) with the regular graph taken whole; v >= 3 here
    return Fraction(v * l - 2, 2 * (v - 2))


def excluded_shapes(p: RegularPairParams) -> tuple[str, ...]:
    """Tags of every excluded shape the parameters match.

    The clique/cycle shape and the cycle-with-no-smaller-first shape can
    both match (complete h1 with a cycle h2 of the same order does), so
    the result is a tuple rather than a single verdict.
    """
    hits = []
    if p.l2 == 2 and p.l1 == p.v1 - 1:
        hits.append(EXCLUSION_CLIQUE_CYCLE)
    if p.l2 == 2 and p.v1 >= p.v2:
        hits.append(EXCLUSION_CYCLE_ORDER)
    if (p.v1, p.l1, p.v2, p.l2) == (3, 2, 6, 3):
        hits.append(EXCLUSION_TRIANGLE_K33)
    return tuple(hits)


@dataclass(frozen=True)
class EmptinessCertificate:
    """Witness that the blocker family at these parameters is empty.

    margin is degree_floor minus the pair density, strictly positive on
    every certified route; the family is empty at every epsilon strictly
    below margin, and epsilon_star picks the midpoint.
    """

    params: RegularPairParams
    route: Route
    margin: Fraction
    epsilon_star: Fraction

    def __post_init__(self) -> None:
        assert self.margin > 0
        assert 0 < self.epsilon_star < self.margin

    @property
    def m2_pair(self) -> Fraction:
        return m2_pair_regular(self.params)

    @property
    def degree_density_gap(self) -> bool:
        """2 * (m2 + eps*) < l1 + l2 - 1: the enumeration short-circuit."""
        p = self.params
        return 2 * (self.m2_pair + self.epsilon_star) < p.l1 + p.l2 - 1

    def to_dict(self) -> dict:
        p = self.params
        return {
            "certified": True,
            "v1": p.v1,
            "l1": p.l1,
            "v2": p.v2,
            "l2": p.l2,
            "realizable_h1": p.realizable_h1,
            "realizable_h2": p.realizable_h2,
            "route": self.route,
            "f": gap_poly(p),
            "m2_pair": str(self.m2_pair),
            "margin": str(self.margin),
            "epsilon_star": str(self.epsilon_star),
        }


@dataclass(frozen=True)
class EmptinessRejection:
    """Why no certificate was issued.

    kind "excluded" means the parameters match one of the shapes the
    certificate range leaves out (all matching tags are listed); kind
    "hypotheses_unmet" means the pair hypotheses cannot hold at these
    parameters, certified range or not.
    """

    params: RegularPairParams
    kind: RejectionKind
    reason: str
    exclusions: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return False

    def to_dict(self) -> dict:
        p = self.params
        return {
            "certified": False,
            "v1": p.v1,
            "l1": p.l1,
            "v2": p.v2,
            "l2": p.l2,
            "kind": self.kind,
            "reason": self.reason,
            "exclusions": list(self.exclusions),
        }


def _concrete_mismatch(
    p: RegularPairParams, h1: Graph | None, h2: Graph | None
) -> EmptinessRejection | None:
    """Validate concrete graphs against the parameters and the pair
    hypotheses. Shape mismatches are caller errors (ValueError); failed
    hypotheses come back as rejections."""
    if h1 is None or h2 is None:
        raise ValueError("supply both graphs or neither")
    for tag, g, v, l in (("h1", h1, p.v1, p.l1), ("h2", h2, p.v2, p.l2)):
        if g.vertex_count != v or any(d != l for d in g.degree_sequence()):
            raise ValueError(f"{tag} is not {l}-regular on {v} vertices")
    try:
        spec = build_pair_spec(h1, h2)
    except ValueError as err:
        return EmptinessRejection(p, "hypotheses_unmet", str(err))
    hyp = spec.hypotheses
    if not hyp.distinct:
        return EmptinessRejection(p, "hypotheses_unmet", "h1 and h2 are isomorphic")
    if not hyp.h2_strictly_two_balanced:
        return EmptinessRejection(p, "hypotheses_unmet", "h2 is not strictly 2-balanced")
    if not hyp.h1_case_balance:
        return EmptinessRejection(p, "hypotheses_unmet", "h1 fails its balance hypothesis")
    closed = m2_pair_regular(p)
    if spec.m2_pair != closed:
        return EmptinessRejection(
            p,
            "hypotheses_unmet",
            f"closed form {closed} disagrees with the measured pair density {spec.m2_pair}",
        )
    return None


def certify_emptiness(
    p: RegularPairParams, h1: Graph | None = None, h2: Graph | None = None
) -> EmptinessCertificate | EmptinessRejection:
    """Certificate that the blocker family is empty at these parameters,
    or a rejection saying exactly why none is issued.

    Route selection:
      Case1Cycle      l2 = 2, so h2 is a cycle; needs v2 > v1 and
                      l1 <= v1 - 2, both guaranteed once the excluded
                      shapes are ruled out, and then the gap polynomial
                      is at least 2 * (v2 - v1) >= 2.
      Case2V1Is3      v1 = 3 forces l1 = 2; everything except l2 = 3
                      with v2 >= 7 has already been rejected by the
                      density-order check or the excluded shapes, and
                      the gap polynomial is v2 - 6 >= 1.
      Case3V2Le4      v2 <= 4 with l2 >= 3 forces (v2, l2) = (4, 3).
                      The one rejection left is v1 = 4 with complete h1,
                      which would make the pair a single graph twice.
      GeneralMonotone everything else has v1 >= 4, v2 >= 5, l2 >= 3,
                      where gap_lower_poly is monotone and anchored at
                      gap_lower_poly(4, 5, 3) = 2.

    Concrete graphs are optional; when given they are validated for
    regularity, the pair hypotheses, and agreement between the closed
    form and the measured pair density.
    """
    shapes = excluded_shapes(p)
    if shapes:
        return EmptinessRejection(
            p, "excluded", "outside the certified range: " + ", ".join(shapes), shapes
        )

    d2_first, d2_second = _d2_closed(p.v1, p.l1), _d2_closed(p.v2, p.l2)
    if d2_first < d2_second:
        return EmptinessRejection(
            p,
            "hypotheses_unmet",
            f"density order fails: d2(h1) = {d2_first} < {d2_second} = d2(h2); "
            "the denser graph must come first",
        )

    if h1 is not None or h2 is not None:
        problem = _concrete_mismatch(p, h1, h2)
        if problem is not None:
            return problem

    if p.l2 == 2:
        route: Route = "Case1Cycle"
        assert p.v2 > p.v1 and p.l1 <= p.v1 - 2  # otherwise an excluded shape
    elif p.v1 == 3:
        route = "Case2V1Is3"
        # anything else died at the density-order check or the k33 shape
        assert p.l2 == 3 and p.v2 >= 7
    elif p.v2 <= 4:
        route = "Case3V2Le4"
        assert (p.v2, p.l2) == (4, 3)
        if p.l1 == p.v1 - 1 and p.v1 == 4:
            return EmptinessRejection(
                p,
                "hypotheses_unmet",
                "both graphs are forced to be the complete graph on 4 vertices; "
                "the pair must be two distinct graphs",
            )
    else:
        route = "GeneralMonotone"
        assert p.v1 >= 4 and p.v2 >= 5 and p.l2 >= 3

    f_value = gap_poly(p)
    assert f_value > 0, (route, f_value)
    margin = p.degree_floor - m2_pair_regular(p)
    assert margin > 0  # same sign as gap_poly, see the equivalence test
    return EmptinessCertificate(p, route, margin, margin / 2)


def certificate_grid(
    v1_max: int, v2_max: int
) -> Iterator[tuple[RegularPairParams, EmptinessCertificate | EmptinessRejection]]:
    """Certify every admissible parameter tuple with v1 <= v1_max and
    v2 <= v2_max, in lexicographic (v1, l1, v2, l2) order."""
    for v1 in range(3, v1_max + 1):
        for l1 in range(2, v1):
            for v2 in range(3, v2_max + 1):
                for l2 in range(2, v2):
                    p = RegularPairParams(v1, v2, l1, l2)
                    yield p, certify_emptiness(p)


@dataclass(frozen=True)
class AHatEnumeration:
    """Blocker-family members up to a vertex bound, with a completeness
    verdict.

    complete=True means the members tuple is the whole family at every
    vertex count, not just up to the bound: the degree floor pushes any
    would-be member above the density cap, so nothing was searched and
    nothing can exist. complete=False means only the bound was searched.
    """

    params: RegularPairParams
    vertex_bound: int
    members: tuple[Graph, ...]
    complete: bool
    reason: str


def enumerate_a_hat(
    p: RegularPairParams, max_vertices: int, pair: PairSpec | None = None, confirm_to: int = 0
) -> AHatEnumeration:
    """The blocker family at these parameters, up to max_vertices.

    Certified parameters answer analytically (reason degree_density_gap)
    since 2 * (m2 + epsilon_star) < l1 + l2 - 1 contradicts membership
    at any size. A positive confirm_to additionally brute-enumerates up
    to that bound at epsilon_star as a cross-check, which must come back
    empty; the concrete pair is required for that. Uncertified
    parameters fall back to the bounded brute search.
    """
    cert = certify_emptiness(p)
    if isinstance(cert, EmptinessCertificate):
        assert cert.degree_density_gap
        if pair is not None and confirm_to > 0:
            star = build_pair_spec(pair.h1, pair.h2, cert.epsilon_star)
            assert star.m2_pair == cert.m2_pair
            found = blocker_members(star, min(confirm_to, max_vertices))
            if found:
                raise RuntimeError(
                    f"certified-empty family has {len(found)} members "
                    f"within {confirm_to} vertices"
                )
        return AHatEnumeration(p, max_vertices, (), True, "degree_density_gap")
    if pair is None:
        raise ValueError(
            f"not certified ({cert.reason}); a concrete pair is required to search"
        )
    members = blocker_members(pair, max_vertices)
    return AHatEnumeration(p, max_vertices, members, False, "bounded_search")
