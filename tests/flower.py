"""Flower attachments and their external-density audit, for the tests.

A flower is a copy of h2 glued to a base graph along one edge, with a
pendant h1 copy pinning each new edge. The edge-ordering pass groups
pendant edges whose copies share material and certifies the per-cluster
overcount inequality that the external-density bound rests on. The
pipeline never builds a flower: this module checks the overlap-versus-
disjoint density lemma on synthetic ones, which random_flower samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from asymcolor.density import PairSpec
from asymcolor.graphs import Copy, Edge, Graph, canonical_key, extract_from_edges, norm_edge


class FlowerError(ValueError):
    pass


@dataclass(frozen=True)
class FlowerAttachment:
    """A copy of h2 glued to a base graph along one edge, with a pendant
    h1-copy pinning each remaining edge of that copy.

    The base occupies labels 0..base.vertex_count-1; attachment labels come
    after.  pendant_copies is keyed by the inner edge each pendant pins,
    sorted.  classification is "disjoint" when the pendants are pairwise
    vertex- and edge-disjoint outside their pins and avoid the inner copy's
    vertices, else "overlapping".
    """

    base: Graph
    anchor_edge: Edge
    h1: Graph
    h2: Graph
    inner_copy: Copy
    pendant_copies: tuple[tuple[Edge, Copy], ...]
    classification: str

    @property
    def inner_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.inner_copy.edges - {self.anchor_edge}))

    def outer_vertices(self, f: Edge) -> frozenset[int]:
        return dict(self.pendant_copies)[f].vertices - set(f)

    def outer_edges(self, f: Edge) -> frozenset[Edge]:
        return dict(self.pendant_copies)[f].edges - {f}

    def all_vertices(self) -> frozenset[int]:
        verts = set(range(self.base.vertex_count)) | set(self.inner_copy.vertices)
        for _, cp in self.pendant_copies:
            verts |= cp.vertices
        return frozenset(verts)

    def all_edges(self) -> frozenset[Edge]:
        edges = set(self.base.edges) | set(self.inner_copy.edges)
        for _, cp in self.pendant_copies:
            edges |= cp.edges
        return frozenset(edges)

    def excess(self) -> tuple[int, int]:
        """The vertices and edges the attachment adds to its base."""
        return (
            len(self.all_vertices()) - self.base.vertex_count,
            len(self.all_edges()) - self.base.edge_count,
        )


def _disjoint_excess(h1: Graph, h2: Graph) -> tuple[int, int]:
    """The vertices and edges a disjoint attachment adds, in closed form:
    the inner copy's v2 - 2 new vertices, and v1 - 2 new vertices and e1
    edges for each of its e2 - 1 pendants."""
    v1, e1 = h1.vertex_count, h1.edge_count
    v2, e2 = h2.vertex_count, h2.edge_count
    return (v2 - 2) + (e2 - 1) * (v1 - 2), e1 * (e2 - 1)


def _is_copy_of(cp: Copy, pattern: Graph) -> bool:
    if len(cp.vertices) != pattern.vertex_count or len(cp.edges) != pattern.edge_count:
        return False
    sub, _ = extract_from_edges(cp.edges)
    return canonical_key(sub) == canonical_key(pattern)


def _classify_flower(
    inner: Copy, pendants: Sequence[tuple[Edge, Copy]]
) -> str:
    inner_verts = inner.vertices
    seen_u: set[int] = set()
    seen_d: set[Edge] = set()
    for f, cp in pendants:
        u = cp.vertices - set(f)
        d = cp.edges - {f}
        if u & inner_verts or u & seen_u or d & seen_d:
            return "overlapping"
        seen_u |= u
        seen_d |= d
    return "disjoint"


def make_flower(
    base: Graph,
    anchor_edge: Edge,
    pair: PairSpec,
    inner_copy: Copy,
    pendant_copies: Sequence[tuple[Edge, Copy]],
) -> FlowerAttachment:
    """Validate the attachment constraints and classify. Raises FlowerError
    naming the violated clause."""
    anchor = norm_edge(*anchor_edge)
    base_edges = base.edge_set()
    base_verts = set(range(base.vertex_count))
    if anchor not in base_edges:
        raise FlowerError("anchor edge is not an edge of the base")
    if not _is_copy_of(inner_copy, pair.h2):
        raise FlowerError("inner copy is not a copy of h2")
    if anchor not in inner_copy.edges:
        raise FlowerError("inner copy does not contain the anchor edge")
    if inner_copy.edges & base_edges != {anchor}:
        raise FlowerError("inner copy shares a non-anchor edge with the base")
    if inner_copy.vertices & base_verts != set(anchor):
        raise FlowerError("inner copy meets the base outside the anchor endpoints")
    pendants = tuple(sorted(pendant_copies, key=lambda fc: fc[0]))
    expected = set(inner_copy.edges) - {anchor}
    if {f for f, _ in pendants} != expected:
        raise FlowerError("pendants must pin exactly the non-anchor inner edges")
    glued = base_edges | inner_copy.edges
    for f, cp in pendants:
        if not _is_copy_of(cp, pair.h1):
            raise FlowerError(f"pendant at {f} is not a copy of h1")
        if f not in cp.edges:
            raise FlowerError(f"pendant at {f} does not contain its pin edge")
        if cp.edges & glued != {f}:
            raise FlowerError(f"pendant at {f} shares a second edge with the glued core")
        if cp.vertices & (base_verts - set(anchor)):
            raise FlowerError(f"pendant at {f} touches the base outside the anchor")
    return FlowerAttachment(
        base=base,
        anchor_edge=anchor,
        h1=pair.h1,
        h2=pair.h2,
        inner_copy=inner_copy,
        pendant_copies=pendants,
        classification=_classify_flower(inner_copy, pendants),
    )


# ---------------------------------------------------------------------------
# edge ordering and the overcount audit


@dataclass(frozen=True)
class EdgeCluster:
    edges: tuple[Edge, ...]
    vertices: frozenset[int]


@dataclass(frozen=True)
class OrderEdgesResult:
    order: tuple[Edge, ...]
    clusters: tuple[EdgeCluster, ...]
    fallthrough: tuple[Edge, ...]


def order_edges(flower: FlowerAttachment) -> OrderEdgesResult:
    """Stack the inner edges so that pendant material shared between copies
    is concentrated in clusters: seed a cluster at an edge whose pendant
    shares an outer edge with another pendant, then absorb every edge whose
    endpoints are swallowed or whose pendant shares outer edges with the
    cluster.  Edges left when no two pendants share an outer edge fall
    through unclustered."""
    d = {f: flower.outer_edges(f) for f in flower.inner_edges}
    u = {f: flower.outer_vertices(f) for f in flower.inner_edges}
    inner_verts = set(flower.inner_copy.vertices)
    remaining = set(flower.inner_edges)
    stack: list[Edge] = []
    clusters: list[EdgeCluster] = []
    while remaining:
        seed = next(
            (
                f
                for f in sorted(remaining)
                if any(d[f] & d[f2] for f2 in remaining if f2 != f)
            ),
            None,
        )
        if seed is None:
            fall = tuple(sorted(remaining))
            stack.extend(fall)
            result = OrderEdgesResult(tuple(stack), tuple(clusters), fall)
            break
        cluster = [seed]
        remaining.discard(seed)
        stack.append(seed)
        verts = set(seed) | (u[seed] & inner_verts)
        shared_d = set(d[seed])
        while True:
            nxt = next(
                (
                    uw
                    for uw in sorted(remaining)
                    if (uw[0] in verts and uw[1] in verts) or d[uw] & shared_d
                ),
                None,
            )
            if nxt is None:
                break
            cluster.append(nxt)
            remaining.discard(nxt)
            stack.append(nxt)
            shared_d |= d[nxt]
            verts = set()
            for f in cluster:
                verts |= set(f) | (u[f] & inner_verts)
        clusters.append(EdgeCluster(tuple(cluster), frozenset(verts)))
    else:
        result = OrderEdgesResult(tuple(stack), tuple(clusters), ())
    for c in result.clusters:
        assert len(c.edges) >= 2, "a cluster must absorb its witnessing partner"
    assert len(result.clusters) <= flower.h2.edge_count // 2
    return result


def flower_deltas(
    flower: FlowerAttachment, order: Sequence[Edge]
) -> dict[Edge, tuple[frozenset[Edge], frozenset[int]]]:
    """Per inner edge, the outer edges and vertices already accounted for by
    earlier pendants (the inner copy's vertices count as pre-seen).  Summing
    these against the disjoint-case totals reconciles exactly, whatever the
    order."""
    seen_d: set[Edge] = set()
    seen_u: set[int] = set(flower.inner_copy.vertices)
    out: dict[Edge, tuple[frozenset[Edge], frozenset[int]]] = {}
    for f in order:
        d = flower.outer_edges(f)
        u = flower.outer_vertices(f)
        out[f] = (frozenset(d & seen_d), frozenset(u & seen_u))
        seen_d |= d
        seen_u |= u
    return out


@dataclass(frozen=True)
class DensityAudit:
    v_plus: int
    e_plus: int
    v_plus_disjoint: int
    e_plus_disjoint: int
    ratio: Fraction
    disjoint_ratio: Fraction
    exceeds_disjoint: bool
    delta_v_total: int
    delta_e_total: int
    reconciliation_ok: bool
    cluster_ok: bool
    fallthrough_ok: bool
    ordering: OrderEdgesResult


def check_external_density(flower: FlowerAttachment, pair: PairSpec) -> DensityAudit:
    """Audit the vertex/edge excess of the attachment against the disjoint
    shape: reconcile the totals through the overcounts, check the per-cluster
    overcount inequality, and compare external densities."""
    v_plus, e_plus = flower.excess()
    v_star, e_star = _disjoint_excess(pair.h1, pair.h2)
    ordering = order_edges(flower)
    deltas = flower_deltas(flower, ordering.order)
    dv = sum(len(x[1]) for x in deltas.values())
    de = sum(len(x[0]) for x in deltas.values())
    cluster_ok = all(
        Fraction(sum(len(deltas[f][0]) for f in c.edges))
        < pair.m2_pair * sum(len(deltas[f][1]) for f in c.edges)
        for c in ordering.clusters
    )
    fallthrough_ok = all(not deltas[f][0] for f in ordering.fallthrough)
    return DensityAudit(
        v_plus=v_plus,
        e_plus=e_plus,
        v_plus_disjoint=v_star,
        e_plus_disjoint=e_star,
        ratio=Fraction(e_plus, v_plus),
        disjoint_ratio=Fraction(e_star, v_star),
        exceeds_disjoint=Fraction(e_plus, v_plus) > Fraction(e_star, v_star),
        delta_v_total=dv,
        delta_e_total=de,
        reconciliation_ok=(e_plus == e_star - de and v_plus == v_star - dv),
        cluster_ok=cluster_ok,
        fallthrough_ok=fallthrough_ok,
        ordering=ordering,
    )


def verify_overlap_density_gain(
    flower: FlowerAttachment, disjoint: FlowerAttachment
) -> bool:
    """Strict external-density comparison of an overlapping attachment
    against a disjoint one over the same base, anchor and patterns."""
    if flower.classification != "overlapping":
        raise FlowerError("first attachment must be overlapping")
    if disjoint.classification != "disjoint":
        raise FlowerError("second attachment must be disjoint")
    if flower.base != disjoint.base or flower.anchor_edge != disjoint.anchor_edge:
        raise FlowerError("attachments must share base and anchor")
    if canonical_key(flower.h1) != canonical_key(disjoint.h1) or canonical_key(
        flower.h2
    ) != canonical_key(disjoint.h2):
        raise FlowerError("attachments must use the same patterns")
    dv, de = disjoint.excess()
    v_star, e_star = _disjoint_excess(flower.h1, flower.h2)
    assert dv == v_star, "disjoint vertex excess off closed form"
    assert de == e_star, "disjoint edge excess off closed form"
    v_plus, e_plus = flower.excess()
    return Fraction(e_plus, v_plus) > Fraction(de, dv)


# ---------------------------------------------------------------------------
# sampling


def random_flower(base, anchor_edge, pair, rng, overlap=False):
    """Sample an attachment of the pair's h2 to base at anchor_edge, drawing
    from rng; overlap=True keeps resampling until pendants share material
    (an instance outside the disjoint family). Raises FlowerError after 400
    failed samples."""
    anchor = norm_edge(*anchor_edge)
    h1, h2 = pair.h1, pair.h2
    base_verts = set(range(base.vertex_count))
    for _ in range(400):
        next_label = base.vertex_count
        h2_edges = list(h2.edges)
        a2, b2 = h2_edges[rng.randrange(len(h2_edges))]
        if rng.random() < 0.5:
            a2, b2 = b2, a2
        vmap = {a2: anchor[0], b2: anchor[1]}
        for v in range(h2.vertex_count):
            if v not in vmap:
                vmap[v] = next_label
                next_label += 1
        inner = Copy(
            frozenset(norm_edge(vmap[u], vmap[v]) for u, v in h2.edges),
            frozenset(vmap.values()),
        )
        blocked_edges = base.edge_set() | inner.edges
        pendants: list[tuple[Edge, Copy]] = []
        outer_pool = set(inner.vertices)
        ok = True
        for f in sorted(inner.edges - {anchor}):
            placed = None
            for _ in range(60):
                h1_edges = list(h1.edges)
                a1, b1 = h1_edges[rng.randrange(len(h1_edges))]
                if rng.random() < 0.5:
                    a1, b1 = b1, a1
                pmap = {a1: f[0], b1: f[1]}
                used = {f[0], f[1]}
                trial_next = next_label
                for v in range(h1.vertex_count):
                    if v in pmap:
                        continue
                    pool = sorted(outer_pool - used)
                    if overlap and pool and rng.random() < 0.5:
                        pmap[v] = pool[rng.randrange(len(pool))]
                    else:
                        pmap[v] = trial_next
                        trial_next += 1
                    used.add(pmap[v])
                edges = frozenset(norm_edge(pmap[u], pmap[v]) for u, v in h1.edges)
                if (edges - {f}) & blocked_edges:
                    continue
                if frozenset(pmap.values()) & (base_verts - set(anchor)):
                    continue
                placed = Copy(edges, frozenset(pmap.values()))
                next_label = trial_next
                break
            if placed is None:
                ok = False
                break
            pendants.append((f, placed))
            outer_pool |= placed.vertices - set(f)
        if not ok:
            continue
        cls = _classify_flower(inner, pendants)
        if overlap and cls != "overlapping":
            continue
        if not overlap and cls != "disjoint":
            continue
        return make_flower(base, anchor, pair, inner, pendants)
    raise FlowerError("could not sample an attachment with the requested shape")
