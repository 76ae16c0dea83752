import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcolor.density import build_pair_spec, density_slack, least_max_gain_set, max_gain
from asymcolor.families import blocker_decomposition, unpinned_edge
from asymcolor.graphs import (
    Copy,
    CopySet,
    canonical_form,
    canonical_key,
    complete_graph,
    cycle_graph,
    extract_from_edges,
    graph,
    induced_subgraph,
    norm_edge,
)
from asymcolor.grow import (
    GrowError,
    GrowStep,
    _extend_alt,
    _extend_anchored,
    eligible_edge,
    grow,
    grow_alt,
)
from flower import (
    FlowerError,
    check_external_density,
    flower_deltas,
    make_flower,
    order_edges,
    random_flower,
    verify_overlap_density_gain,
)


def pair_k4c4():
    return build_pair_spec(complete_graph(4), cycle_graph(4))


def pair_k3k3():
    return build_pair_spec(complete_graph(3), complete_graph(3))


def pair_c5c6():
    return build_pair_spec(cycle_graph(5), cycle_graph(6))


def gnp(n, p, seed):
    rng = random.Random(seed)
    return graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def rook4():
    """Four row-cliques and four column-cliques on a 4x4 grid of cells.

    Every edge lies on a two-row/two-column 4-cycle whose edges each meet
    exactly one clique, which is what the anchored-extension loop needs."""
    edges = []
    for r in range(4):
        cells = [4 * r + c for c in range(4)]
        edges += [(a, b) for i, a in enumerate(cells) for b in cells[i + 1 :]]
    for c in range(4):
        cells = [4 * r + c for r in range(4)]
        edges += [(a, b) for i, a in enumerate(cells) for b in cells[i + 1 :]]
    return graph(16, edges)


def slack_oracle(g, pair):
    best = Fraction(0)
    for r in range(1, g.vertex_count + 1):
        for sub in combinations(range(g.vertex_count), r):
            inside = set(sub)
            e_in = sum(1 for u, v in g.edges if u in inside and v in inside)
            best = min(best, Fraction(r) - Fraction(e_in) / pair.m2_pair)
    return best


# ---------------------------------------------------------------------------
# minimum slack and the minimising subgraph, as the growth loop reads them
# off one flow


def flow_slack(g, pair):
    """The least slack over subgraphs of g by the density guard's formula:
    with m2_pair = p/q it is -max_gain(g, m2_pair) / p."""
    return Fraction(-max_gain(g, pair.m2_pair), pair.m2_pair.numerator)


def flow_witness(g, pair):
    """The density witness the growth loop exits with: the least maximising
    vertex set of the flow and the subgraph of g it induces."""
    _, verts = least_max_gain_set(g, pair.m2_pair)
    return induced_subgraph(g, verts)[0], verts


def test_min_slack_frozen_values():
    assert flow_slack(graph(0), pair_k3k3()) == 0
    assert flow_slack(complete_graph(3), pair_k4c4()) == 0
    assert flow_slack(cycle_graph(4), pair_k4c4()) == 0
    assert flow_slack(complete_graph(6), pair_k3k3()) == Fraction(-3, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_min_slack_matches_exhaustive(seed):
    rng = random.Random(seed)
    g = gnp(rng.randrange(2, 8), rng.choice([0.3, 0.5, 0.8]), seed)
    pair = pair_k4c4() if seed % 2 else pair_k3k3()
    assert flow_slack(g, pair) == slack_oracle(g, pair)


def test_minimising_subgraph_empty_when_slack_zero():
    out, _ = flow_witness(complete_graph(3), pair_k4c4())
    assert out.vertex_count == 0 and out.edge_count == 0


def test_minimising_subgraph_extracts_densest_block():
    # K6 with a triangle hung off one vertex; only the K6 goes negative
    edges = list(complete_graph(6).edges) + [(0, 6), (6, 7), (0, 7)]
    host = graph(8, edges)
    out, _ = flow_witness(host, pair_k3k3())
    assert canonical_key(out) == canonical_key(complete_graph(6))
    assert density_slack(out, pair_k3k3()) == Fraction(-3, 2)


def planted_core(n, seed):
    """A near-complete graph on vertices 0-5 inside a sparse one on n vertices."""
    rng = random.Random(seed)
    return graph(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < (0.95 if v < 6 else 0.35)],
    )


def test_minimising_subgraph_matches_exhaustive():
    for seed in range(24):
        if seed < 12:
            g = gnp(6, 0.55, seed=100 + seed)
        else:  # 7-9 vertices, where the witness is often a proper subset
            g = planted_core(7 + seed % 3, seed=100 + seed)
        pair = pair_k3k3() if seed % 2 else pair_k4c4()
        best = slack_oracle(g, pair)
        keys, minimisers = [], []
        for r in range(g.vertex_count + 1):
            for sub in combinations(range(g.vertex_count), r):
                inside = set(sub)
                e_in = [e for e in g.edges if e[0] in inside and e[1] in inside]
                lam = Fraction(r) - Fraction(len(e_in)) / pair.m2_pair
                if lam == best:
                    minimisers.append(frozenset(sub))
                    if e_in:
                        keys.append(canonical_key(extract_from_edges(e_in)[0]))
                    else:
                        keys.append(canonical_key(graph(len(inside))))
        # isolated vertices never help, so the oracle's empty-edge entries
        # only matter when the empty graph itself is the minimiser
        out, verts = flow_witness(g, pair)
        assert canonical_key(out) == min(keys)
        assert density_slack(out, pair) == best
        # the witness sits on the vertex set every minimiser contains
        assert verts == tuple(sorted(frozenset.intersection(*minimisers)))


# ---------------------------------------------------------------------------
# eligible edges


def test_eligible_edge_open_and_closed():
    assert eligible_edge(complete_graph(4), pair_k4c4(), "grow") is not None
    assert eligible_edge(cycle_graph(4), pair_k4c4(), "grow") is not None
    # K6 is pin-closed for triangles under both notions
    assert eligible_edge(complete_graph(6), pair_k3k3(), "grow") is None
    assert eligible_edge(complete_graph(6), pair_k3k3(), "grow_alt") is None
    # inside K4 every edge is the exact intersection of two triangles
    assert eligible_edge(complete_graph(4), pair_k3k3(), "grow_alt") is None


def test_eligible_edge_skips_pinned_edge():
    two_triangles = graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    e = eligible_edge(two_triangles, pair_k3k3(), "grow_alt")
    assert e in {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_eligible_edge_isomorphism_invariant():
    for seed in range(20):
        rng = random.Random(seed)
        g = gnp(6, 0.5, seed)
        perm = list(range(6))
        rng.shuffle(perm)
        h = graph(6, [(perm[u], perm[v]) for u, v in g.edges])
        for variant in ("grow", "grow_alt"):
            a = eligible_edge(g, pair_k3k3(), variant)
            b = eligible_edge(h, pair_k3k3(), variant)
            if a is None:
                assert b is None
                continue
            _, ma = canonical_form(g)
            _, mb = canonical_form(h)
            assert norm_edge(ma[a[0]], ma[a[1]]) == norm_edge(mb[b[0]], mb[b[1]])


# ---------------------------------------------------------------------------
# single extension steps


def test_extend_anchored_one_step_on_rook():
    host, pair = rook4(), pair_k4c4()
    d = blocker_decomposition(host, pair, ())
    row0 = complete_graph(4)  # cells 0-3 are the first row clique
    f_edges, f_verts = set(row0.edges), set(range(4))
    assert not _extend_anchored(f_edges, f_verts, (0, 1), d.report)
    assert len(f_edges) == 24 and len(f_verts) == 12
    assert row0.edge_set() <= f_edges <= host.edge_set()


def test_extend_alt_one_step_on_k6():
    pair = pair_k3k3()
    d = blocker_decomposition(complete_graph(6), pair, ())
    f_edges, f_verts = {(0, 1), (0, 2), (1, 2)}, {0, 1, 2}
    assert not _extend_alt(f_edges, f_verts, (0, 1), d.report)
    assert f_edges == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}
    # the triangle through (0, 2) and 3 closes K4 on vertices already in F
    assert _extend_alt(f_edges, f_verts, (0, 2), d.report)
    assert f_edges == complete_graph(4).edge_set() and f_verts == {0, 1, 2, 3}


# The extension moves as they were when each step carried its overlaps with
# F and the step's classification re-ran the overlap test on them: the
# reference for the degeneracy verdict the moves now return themselves.


def reference_extend_anchored(f_edges, f_verts, e, h1_copies, anchored):
    l_copy = next(iter(anchored.through(e)), None)
    if l_copy is None:
        raise GrowError(
            f"no anchored h2-copy of the host passes through {e}; "
            "the residual is not pin-closed"
        )
    l_overlap = tuple(sorted(l_copy.vertices & f_verts))
    fresh = sorted(l_copy.edges - f_edges)
    f_edges |= l_copy.edges
    f_verts |= l_copy.vertices
    pendant_overlaps = []
    for e2 in fresh:
        r_copy = next((r for r in h1_copies.through(e2) if l_copy.edges & r.edges == {e2}), None)
        if r_copy is None:
            raise GrowError(
                f"no h1-copy of the host meets the attached h2-copy in exactly {e2}; "
                "the residual is not pin-closed"
            )
        pendant_overlaps.append((e2, tuple(sorted(r_copy.vertices & f_verts))))
        f_edges |= r_copy.edges
        f_verts |= r_copy.vertices
    return l_overlap, tuple(pendant_overlaps)


def reference_extend_alt(f_edges, f_verts, e, h1_copies, h2_copies):
    r_copies = h1_copies.through(e)
    chosen_pair = next(
        (
            (l_copy, r_copy)
            for l_copy in h2_copies.through(e)
            for r_copy in r_copies
            if l_copy.edges & r_copy.edges == {e}
        ),
        None,
    )
    if chosen_pair is None:
        raise GrowError(
            f"no copy pair of the host meets in exactly {e}; "
            "the residual is not pin-closed"
        )
    l_copy, r_copy = chosen_pair
    if not l_copy.edges <= f_edges:
        branch, attach = "l", l_copy
    else:
        branch, attach = "r", r_copy
    overlap = tuple(sorted(attach.vertices & f_verts))
    f_edges |= attach.edges
    f_verts |= attach.vertices
    return branch, overlap


def reference_classify(kind, anchor_edge, copy_overlap, pendant_overlaps=()):
    if kind == "extend_anchored":
        if set(copy_overlap) != set(anchor_edge):
            return "degenerate_type_2"
        for e2, overlap in pendant_overlaps:
            if set(overlap) != set(e2):
                return "degenerate_type_2"
        return "non_degenerate"
    if set(copy_overlap) != set(anchor_edge):
        return "degenerate_alt"
    return "non_degenerate"


def pair_k5c4():
    return build_pair_spec(complete_graph(5), cycle_graph(4))


def attach_to_copy(move, f_edges, f_verts, e, *copies):
    """Run one move on a copy of F: (F after, returned value or None, error
    message or None)."""
    edges, verts = set(f_edges), set(f_verts)
    try:
        return (edges, verts), move(edges, verts, e, *copies), None
    except GrowError as exc:
        return (edges, verts), None, str(exc)


def test_extend_verdicts_match_overlap_reference():
    # From each of the first few h1-copies of seeded G(n, p) hosts, attach at
    # every edge of F with both moves, then continue from the first
    # successful attachment, a few rounds deep.  The new and the reference
    # moves must leave the same F, raise the same GrowError, and agree on
    # degeneracy; the steps a verdict builds must classify the same way.
    compared = degenerate = pendant_only = errors = 0
    for pair_fn, n, p in ((pair_k4c4, 9, 0.7), (pair_k5c4, 9, 0.8), (pair_k3k3, 9, 0.5)):
        pair = pair_fn()
        for seed in range(10):
            d = blocker_decomposition(gnp(n, p, seed), pair, ())
            # the reference reads an eager set of the anchored h2-copies
            anchored = CopySet(
                d.h2_copies.pattern,
                tuple(L for L in d.h2_copies.copies if unpinned_edge(L.edges, d.h1_copies) is None),
            )
            moves = (
                ("extend_anchored", _extend_anchored, reference_extend_anchored, anchored),
                ("extend_alt", _extend_alt, reference_extend_alt, d.h2_copies),
            )
            for kind, move, reference, attachable in moves:
                for start in d.h1_copies.copies[:6]:
                    f = (set(start.edges), set(start.vertices))
                    for _ in range(4):
                        grown = None
                        for e in sorted(f[0]):
                            after, verdict, error = attach_to_copy(move, *f, e, d.report)
                            ref_after, ref_out, ref_error = attach_to_copy(
                                reference, *f, e, d.h1_copies, attachable
                            )
                            assert after == ref_after and error == ref_error
                            compared += 1
                            if error is not None:
                                errors += 1
                                continue
                            if kind == "extend_anchored":
                                expected = reference_classify(kind, e, *ref_out)
                                pendant_only += verdict and set(ref_out[0]) == set(e)
                            else:
                                expected = reference_classify(kind, e, ref_out[1])
                            step = GrowStep(0, kind, verdict, Fraction(0), Fraction(0), 0, 1)
                            assert step.classification == expected
                            degenerate += verdict
                            grown = grown or after
                        if grown is None:
                            break
                        f = grown
    # both verdicts, both outcomes, and a step whose h2-copy met F only at
    # its anchor while one of its pendants re-used a vertex
    assert compared > 10_000 and 0 < degenerate < compared - errors
    assert errors > 0 and pendant_only > 0


# ---------------------------------------------------------------------------
# the growth loop, frozen end to end


def test_grow_rook_hits_iteration_cap():
    pair = pair_k4c4()
    final, trace = grow(blocker_decomposition(rook4(), pair, ()), pair)
    assert trace.outcome == "hit_iteration_cap"
    assert [s.kind for s in trace.steps] == ["extend_anchored", "absorb_h1", "absorb_h1"]
    assert [s.degenerate for s in trace.steps] == [False, True, True]
    assert trace.steps[0].lambda_before == 2 - 1 / pair.m2_h2 == Fraction(4, 3)
    assert [s.lambda_after for s in trace.steps] == [
        Fraction(4, 3),
        Fraction(2, 3),
        Fraction(0),
    ]
    assert (trace.steps[0].added_vertices, trace.steps[0].added_edges) == (8, 18)
    for s in trace.steps[1:]:
        assert (s.added_vertices, s.added_edges) == (2, 6)
    assert final.vertex_count == 16 and final.edge_count == 36
    assert set(trace.host_edges) <= rook4().edge_set()
    assert [s.classification for s in trace.steps] == [
        "non_degenerate",
        "degenerate_type_1",
        "degenerate_type_1",
    ]


def test_grow_padded_rook_hits_density_guard():
    # same clique grid, but enough spare vertices to lift the iteration cap
    pair = pair_k4c4()
    host = graph(60, rook4().edges)
    final, trace = grow(blocker_decomposition(host, pair, ()), pair)
    assert trace.outcome == "hit_density_guard"
    assert [s.kind for s in trace.steps] == [
        "extend_anchored",
        "absorb_h1",
        "absorb_h1",
        "absorb_h1",
    ]
    assert trace.steps[-1].lambda_after == Fraction(-8, 3)
    assert (trace.steps[-1].added_vertices, trace.steps[-1].added_edges) == (0, 6)
    assert final.vertex_count == 16 and final.edge_count == 42
    assert density_slack(final, pair) == Fraction(-8, 3)
    assert flow_slack(final, pair) == Fraction(-8, 3)
    assert set(trace.host_edges) <= host.edge_set() and len(trace.host_edges) == 42


def test_grow_alt_k6_frozen_trace():
    pair = pair_k3k3()
    final, trace = grow_alt(blocker_decomposition(complete_graph(6), pair, ()), pair)
    assert trace.outcome == "hit_iteration_cap"
    assert [s.kind for s in trace.steps] == ["extend_alt", "extend_alt"]
    assert trace.host_edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert [s.degenerate for s in trace.steps] == [False, True]
    assert trace.steps[0].lambda_before == 2 - 1 / pair.m2_h2 == Fraction(3, 2)
    assert [s.lambda_after for s in trace.steps] == [Fraction(3, 2), Fraction(1)]
    assert [(s.added_vertices, s.added_edges) for s in trace.steps] == [(1, 2), (0, 1)]
    assert canonical_key(final) == canonical_key(complete_graph(4))
    assert [s.classification for s in trace.steps] == [
        "non_degenerate",
        "degenerate_alt",
    ]


def test_grow_alt_raises_when_subgraph_closes():
    # on K8 with no catalog the loop reaches K4, which is pin-closed, while
    # the iteration cap still allows another step
    pair = pair_k3k3()
    with pytest.raises(GrowError, match="eligible"):
        grow_alt(blocker_decomposition(complete_graph(8), pair, ()), pair)


def test_grow_special_case_two_members_share_an_edge():
    pair = pair_k3k3()
    final, trace = grow(blocker_decomposition(complete_graph(6), pair, [complete_graph(4)]), pair)
    assert trace.outcome == "special_case"
    assert trace.steps[0].kind == "special_case_2"
    expected = graph(5, [e for e in complete_graph(5).edges if e != (3, 4)])
    assert canonical_key(final) == canonical_key(expected)
    assert trace.steps[0].lambda_after == Fraction(1, 2)


def triple_k4():
    edges = []
    for cell in ({0, 1, 3, 4}, {1, 2, 5, 6}, {0, 2, 7, 8}):
        cells = sorted(cell)
        edges += [(a, b) for i, a in enumerate(cells) for b in cells[i + 1 :]]
    return graph(9, edges)


def test_grow_special_case_straddling_triangle():
    # three edge-disjoint K4 members whose shared corners carry a triangle:
    # every edge is covered once, and the straddler pulls in all three members
    host = triple_k4()
    pair = pair_k3k3()
    decomp = blocker_decomposition(host, pair, [complete_graph(4)])
    final, trace = grow(decomp, pair)
    assert trace.outcome == "special_case"
    assert trace.steps[0].kind == "special_case_1"
    assert final.edge_count == 18
    assert canonical_key(final) == canonical_key(host)
    alt_final, alt_trace = grow_alt(decomp, pair)
    assert alt_trace.steps[0].kind == "special_case_1"
    assert canonical_key(alt_final) == canonical_key(final)


def test_grow_empty_host_raises():
    pair = pair_k3k3()
    with pytest.raises(GrowError, match="seed"):
        grow(blocker_decomposition(graph(4), pair, ()), pair)


def test_grow_trace_serializes():
    pair = pair_k3k3()
    _, trace = grow_alt(blocker_decomposition(complete_graph(6), pair, ()), pair)
    for step in trace.steps:
        row = json.loads(json.dumps(step.to_dict()))
        assert set(row) == {
            "i",
            "kind",
            "degenerate",
            "lambda_before",
            "lambda_after",
            "v_added",
            "e_added",
        }
    assert [r["i"] for r in (s.to_dict() for s in trace.steps)] == [0, 1]


# ---------------------------------------------------------------------------
# flower attachments


def figure_flower():
    """Hand-built 5-cycle/6-cycle attachment with three kinds of sharing:
    two pendant pairs share an outer edge, two pendants share outer vertices,
    and one pendant loops back to an anchor endpoint."""
    pair = pair_c5c6()
    base = graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
    inner = Copy(
        frozenset({(0, 1), (0, 8), (8, 9), (9, 10), (10, 11), (1, 11)}),
        frozenset({0, 1, 8, 9, 10, 11}),
    )
    pendants = [
        ((1, 11), Copy(frozenset({(1, 11), (11, 12), (12, 13), (13, 14), (1, 14)}),
                       frozenset({1, 11, 12, 13, 14}))),
        ((10, 11), Copy(frozenset({(10, 11), (11, 12), (12, 15), (15, 16), (10, 16)}),
                        frozenset({10, 11, 12, 15, 16}))),
        ((9, 10), Copy(frozenset({(9, 10), (10, 17), (17, 18), (0, 18), (0, 9)}),
                       frozenset({0, 9, 10, 17, 18}))),
        ((8, 9), Copy(frozenset({(8, 9), (9, 17), (17, 19), (18, 19), (8, 18)}),
                      frozenset({8, 9, 17, 18, 19}))),
        ((0, 8), Copy(frozenset({(0, 8), (8, 18), (18, 20), (20, 21), (0, 21)}),
                      frozenset({0, 8, 18, 20, 21}))),
    ]
    return make_flower(base, (0, 1), pair, inner, pendants), pair


def test_figure_flower_shape():
    flower, pair = figure_flower()
    assert pair.m2_pair == Fraction(25, 19)
    assert flower.classification == "overlapping"
    assert len(flower.all_vertices()) == 22
    assert len(flower.all_edges()) == 30


def test_make_flower_rejects_base_contact():
    flower, pair = figure_flower()
    pendants = list(flower.pendant_copies)
    # reroute the first pendant through a base leaf
    pendants[1] = (
        (1, 11),
        Copy(frozenset({(1, 11), (11, 12), (5, 12), (5, 14), (1, 14)}),
             frozenset({1, 5, 11, 12, 14})),
    )
    with pytest.raises(FlowerError, match="base"):
        make_flower(flower.base, (0, 1), pair, flower.inner_copy, pendants)


def test_order_edges_figure_clusters():
    flower, _ = figure_flower()
    out = order_edges(flower)
    assert out.order == ((0, 8), (8, 9), (1, 11), (10, 11), (9, 10))
    assert [c.edges for c in out.clusters] == [((0, 8), (8, 9)), ((1, 11), (10, 11))]
    assert out.fallthrough == ((9, 10),)
    assert out.clusters[0].vertices == frozenset({0, 8, 9})
    assert out.clusters[1].vertices == frozenset({1, 10, 11})


def test_flower_deltas_figure():
    flower, _ = figure_flower()
    out = order_edges(flower)
    deltas = flower_deltas(flower, out.order)
    assert deltas[(0, 8)] == (frozenset(), frozenset())
    assert deltas[(8, 9)] == (frozenset({(8, 18)}), frozenset({18}))
    assert deltas[(1, 11)] == (frozenset(), frozenset())
    assert deltas[(10, 11)] == (frozenset({(11, 12)}), frozenset({12}))
    assert deltas[(9, 10)] == (frozenset(), frozenset({0, 17, 18}))


def test_check_external_density_figure():
    flower, pair = figure_flower()
    audit = check_external_density(flower, pair)
    assert (audit.v_plus, audit.e_plus) == (14, 23)
    assert (audit.v_plus_disjoint, audit.e_plus_disjoint) == (19, 25)
    assert audit.disjoint_ratio == Fraction(25, 19) == pair.m2_pair
    assert audit.ratio == Fraction(23, 14)
    assert audit.exceeds_disjoint
    assert (audit.delta_v_total, audit.delta_e_total) == (5, 2)
    assert audit.reconciliation_ok
    assert audit.cluster_ok
    assert audit.fallthrough_ok


def test_deltas_reconcile_under_any_order():
    flower, pair = figure_flower()
    rng = random.Random(7)
    order = list(flower.inner_edges)
    for _ in range(6):
        rng.shuffle(order)
        deltas = flower_deltas(flower, order)
        dv = sum(len(x[1]) for x in deltas.values())
        de = sum(len(x[0]) for x in deltas.values())
        audit = check_external_density(flower, pair)
        assert audit.e_plus == audit.e_plus_disjoint - de
        assert audit.v_plus == audit.v_plus_disjoint - dv


def test_overlap_density_gain_figure_instance():
    flower, pair = figure_flower()
    rng = random.Random(11)
    disjoint = random_flower(flower.base, (0, 1), pair, rng, overlap=False)
    assert disjoint.classification == "disjoint"
    assert verify_overlap_density_gain(flower, disjoint)
    with pytest.raises(FlowerError, match="overlapping"):
        verify_overlap_density_gain(disjoint, disjoint)
    with pytest.raises(FlowerError, match="disjoint"):
        verify_overlap_density_gain(flower, flower)


@pytest.mark.parametrize("pair_fn", [pair_k4c4, pair_k3k3, pair_c5c6])
def test_random_flowers_audit_clean(pair_fn):
    pair = pair_fn()
    base = graph(2, [(0, 1)])
    rng = random.Random(hash((pair.h1.vertex_count, pair.h2.vertex_count)) & 0xFFFF)
    for _ in range(15):
        flower = random_flower(base, (0, 1), pair, rng, overlap=True)
        assert flower.classification == "overlapping"
        audit = check_external_density(flower, pair)
        assert audit.reconciliation_ok
        assert audit.cluster_ok
        assert audit.fallthrough_ok
        assert audit.exceeds_disjoint
    for _ in range(5):
        disjoint = random_flower(base, (0, 1), pair, rng, overlap=False)
        audit = check_external_density(disjoint, pair)
        assert (audit.v_plus, audit.e_plus) == (
            audit.v_plus_disjoint,
            audit.e_plus_disjoint,
        )
        assert audit.ratio == audit.disjoint_ratio


def test_disjoint_ratio_matches_pair_density():
    # the disjoint shape's excess ratio is exactly the pair density for
    # these strictly balanced pairs
    for pair_fn in (pair_k4c4, pair_k3k3, pair_c5c6):
        pair = pair_fn()
        rng = random.Random(3)
        disjoint = random_flower(graph(2, [(0, 1)]), (0, 1), pair, rng, overlap=False)
        audit = check_external_density(disjoint, pair)
        assert audit.disjoint_ratio == pair.m2_pair
