"""Certificates for regular pairs: frozen margins on concrete parameter
tuples, the sign equivalence between the gap polynomial and the density
gap, the monotone ladder behind the general route, and the analytic
emptiness short-circuit checked against brute enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcolor.density import balancedness, build_pair_spec, m2_asym
from asymcolor.graphs import (
    canonical_key,
    complete_bipartite,
    complete_graph,
    cube_graph,
    cycle_graph,
    graph,
    graphs_up_to,
)
from asymcolor.regular import (
    EXCLUSION_CLIQUE_CYCLE,
    EXCLUSION_CYCLE_ORDER,
    EXCLUSION_TRIANGLE_K33,
    EmptinessCertificate,
    EmptinessRejection,
    RegularPairParams,
    certificate_grid,
    certify_emptiness,
    enumerate_a_hat,
    excluded_shapes,
    gap_lower_poly,
    gap_poly,
    m2_pair_regular,
)


def params(v1, l1, v2, l2):
    """Construct in the (v1, l1, v2, l2) order the CLI and CSV use."""
    return RegularPairParams(v1=v1, v2=v2, l1=l1, l2=l2)


def all_params(v_max):
    out = []
    for v1 in range(3, v_max + 1):
        for l1 in range(2, v1):
            for v2 in range(3, v_max + 1):
                for l2 in range(2, v2):
                    out.append(params(v1, l1, v2, l2))
    return out


def prism():
    return graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def graphs_on(n, keep=None):
    """The classes on exactly n vertices: the last order of graphs_up_to."""
    return [g for g in graphs_up_to(n, keep) if g.vertex_count == n]


# ---------------------------------------------------------------------------
# parameters and the closed form


def test_params_validation_and_derived_fields():
    p = params(5, 3, 6, 2)
    assert p.e1 == Fraction(15, 2)
    assert p.e2 == 6
    assert not p.realizable_h1  # 3-regular on 5 vertices does not exist
    assert p.realizable_h2
    assert p.degree_floor == 2
    with pytest.raises(ValueError, match="degree 1"):
        params(4, 1, 4, 3)
    with pytest.raises(ValueError, match="impossible"):
        params(4, 3, 4, 4)


def test_closed_form_frozen_values():
    assert m2_pair_regular(params(4, 3, 4, 2)) == Fraction(9, 4)
    assert m2_pair_regular(params(6, 3, 6, 3)) == 2
    assert m2_pair_regular(params(3, 2, 5, 2)) == Fraction(12, 7)
    assert m2_pair_regular(params(5, 2, 6, 2)) == Fraction(25, 19)
    assert m2_pair_regular(params(5, 4, 4, 3)) == Fraction(50, 17)


def test_closed_form_matches_measured_density():
    cases = [
        (params(4, 3, 4, 2), complete_graph(4), cycle_graph(4)),
        (params(6, 3, 6, 3), complete_bipartite(3, 3), complete_bipartite(3, 3)),
        (params(5, 4, 4, 3), complete_graph(5), complete_graph(4)),
        (params(4, 3, 8, 3), complete_graph(4), cube_graph()),
        (params(3, 2, 8, 3), complete_graph(3), cube_graph()),
    ]
    for p, h1, h2 in cases:
        assert m2_pair_regular(p) == m2_asym(h1, h2)[0]
    for v2 in range(4, 8):
        p = params(3, 2, v2, 2)
        assert m2_pair_regular(p) == m2_asym(complete_graph(3), cycle_graph(v2))[0]


def test_gap_polynomials_frozen():
    assert gap_lower_poly(4, 5, 3) == 2
    for v2 in range(4, 10):
        for l2 in range(2, v2):
            assert gap_poly(params(3, 2, v2, l2)) == v2 * (l2 - 2) - 6
    for v1 in range(4, 10):
        for l1 in range(2, v1):
            assert gap_poly(params(v1, l1, 4, 3)) == 10 * v1 - 8 * (l1 + 2)


def test_gap_sign_decides_density_gap():
    # the equivalence the certificate rests on, checked by exact arithmetic
    for p in all_params(12):
        assert (p.degree_floor > m2_pair_regular(p)) == (gap_poly(p) > 0)


def test_gap_lower_poly_monotone_differences():
    for v1 in range(3, 13):
        for v2 in range(3, 13):
            for l2 in range(3, 13):
                here = gap_lower_poly(v1, v2, l2)
                assert gap_lower_poly(v1 + 1, v2, l2) > here
                assert gap_lower_poly(v1, v2 + 1, l2) > here
                assert gap_lower_poly(v1, v2, l2 + 1) > here


def test_gap_poly_dominates_lower_poly():
    for p in all_params(12):
        assert gap_poly(p) >= gap_lower_poly(p.v1, p.v2, p.l2)


# ---------------------------------------------------------------------------
# certificates


FROZEN_CERTIFICATES = [
    # (v1, l1, v2, l2, route, margin, m2_pair)
    (5, 4, 4, 3, "Case3V2Le4", Fraction(1, 17), Fraction(50, 17)),
    (4, 3, 8, 3, "GeneralMonotone", Fraction(1, 7), Fraction(33, 14)),
    (3, 2, 8, 3, "Case2V1Is3", Fraction(1, 17), Fraction(33, 17)),
    (6, 3, 8, 3, "GeneralMonotone", Fraction(13, 25), Fraction(99, 50)),
    (5, 3, 6, 2, "Case1Cycle", Fraction(1, 38), Fraction(75, 38)),
    (4, 2, 5, 2, "Case1Cycle", Fraction(1, 22), Fraction(16, 11)),
    (5, 2, 6, 2, "Case1Cycle", Fraction(7, 38), Fraction(25, 19)),
]


def test_certificates_frozen():
    for v1, l1, v2, l2, route, margin, m2 in FROZEN_CERTIFICATES:
        cert = certify_emptiness(params(v1, l1, v2, l2))
        assert isinstance(cert, EmptinessCertificate), (v1, l1, v2, l2, cert)
        assert cert.route == route
        assert cert.margin == margin
        assert cert.epsilon_star == margin / 2
        assert cert.m2_pair == m2
        assert cert.degree_density_gap
        assert gap_poly(cert.params) > 0


def test_certify_with_concrete_graphs_matches_parametric():
    concrete = [
        (params(5, 4, 4, 3), complete_graph(5), complete_graph(4)),
        (params(4, 3, 8, 3), complete_graph(4), cube_graph()),
        (params(3, 2, 8, 3), complete_graph(3), cube_graph()),
        (params(6, 3, 8, 3), complete_bipartite(3, 3), cube_graph()),
        (params(4, 2, 5, 2), cycle_graph(4), cycle_graph(5)),
        (params(5, 2, 6, 2), cycle_graph(5), cycle_graph(6)),
    ]
    for p, h1, h2 in concrete:
        assert certify_emptiness(p, h1, h2) == certify_emptiness(p)


def test_certify_concrete_graph_shape_errors():
    p = params(5, 4, 4, 3)
    with pytest.raises(ValueError, match="h2 is not 3-regular"):
        certify_emptiness(p, complete_graph(5), cycle_graph(4))
    with pytest.raises(ValueError, match="h1 is not 4-regular"):
        certify_emptiness(p, complete_graph(4), complete_graph(4))
    with pytest.raises(ValueError, match="both"):
        certify_emptiness(p, complete_graph(5), None)


def test_rejection_triangle_k33():
    result = certify_emptiness(params(3, 2, 6, 3))
    assert isinstance(result, EmptinessRejection)
    assert not result
    assert result.kind == "excluded"
    assert result.exclusions == (EXCLUSION_TRIANGLE_K33,)


def test_rejection_reports_every_matching_shape():
    # complete h1 with a cycle h2 of the same order matches two shapes
    for p in (params(4, 3, 4, 2), params(3, 2, 3, 2)):
        result = certify_emptiness(p)
        assert result.kind == "excluded"
        assert result.exclusions == (EXCLUSION_CLIQUE_CYCLE, EXCLUSION_CYCLE_ORDER)
    only_order = certify_emptiness(params(6, 2, 4, 2))
    assert only_order.exclusions == (EXCLUSION_CYCLE_ORDER,)


def test_rejection_density_order():
    result = certify_emptiness(params(10, 4, 4, 3))
    assert isinstance(result, EmptinessRejection)
    assert result.kind == "hypotheses_unmet"
    assert result.exclusions == ()
    assert "density order" in result.reason


def test_rejection_forced_identical_pair():
    result = certify_emptiness(params(4, 3, 4, 3))
    assert result.kind == "hypotheses_unmet"
    assert "distinct" in result.reason


def test_rejection_concrete_isomorphic_pair():
    k33 = complete_bipartite(3, 3)
    result = certify_emptiness(params(6, 3, 6, 3), k33, k33)
    assert isinstance(result, EmptinessRejection)
    assert result.kind == "hypotheses_unmet"
    assert "isomorphic" in result.reason
    # the same parameters certify parametrically and on distinct graphs
    assert isinstance(certify_emptiness(params(6, 3, 6, 3)), EmptinessCertificate)


def test_rejection_concrete_balance_failure():
    # the prism is 3-regular on 6 vertices but not strictly 2-balanced
    result = certify_emptiness(params(6, 3, 6, 3), complete_bipartite(3, 3), prism())
    assert isinstance(result, EmptinessRejection)
    assert result.kind == "hypotheses_unmet"
    assert "2-balanced" in result.reason


def test_to_dict_round_trip_shapes():
    cert = certify_emptiness(params(5, 3, 6, 2))
    d = cert.to_dict()
    assert d["certified"] is True
    assert d["route"] == "Case1Cycle"
    assert d["margin"] == "1/38"
    assert d["epsilon_star"] == "1/76"
    assert d["realizable_h1"] is False
    assert d["f"] == 2
    r = certify_emptiness(params(3, 2, 6, 3)).to_dict()
    assert r["certified"] is False
    assert r["exclusions"] == [EXCLUSION_TRIANGLE_K33]


def test_grid_routes_and_verdict_consistency():
    routes = set()
    certified = 0
    for p, result in certificate_grid(8, 8):
        shapes = excluded_shapes(p)
        if isinstance(result, EmptinessCertificate):
            certified += 1
            routes.add(result.route)
            assert not shapes
            assert gap_poly(p) > 0
            assert result.margin == p.degree_floor - m2_pair_regular(p)
            assert result.degree_density_gap
        else:
            assert (result.kind == "excluded") == bool(shapes)
            assert result.exclusions == shapes
    assert certified > 0
    assert routes == {"GeneralMonotone", "Case1Cycle", "Case2V1Is3", "Case3V2Le4"}


@st.composite
def param_tuples(draw):
    v1 = draw(st.integers(min_value=3, max_value=10))
    l1 = draw(st.integers(min_value=2, max_value=v1 - 1))
    v2 = draw(st.integers(min_value=3, max_value=10))
    l2 = draw(st.integers(min_value=2, max_value=v2 - 1))
    return params(v1, l1, v2, l2)


@settings(max_examples=120)
@given(param_tuples())
def test_certify_route_matches_parameter_regime(p):
    result = certify_emptiness(p)
    if isinstance(result, EmptinessRejection):
        assert result.kind in ("excluded", "hypotheses_unmet")
        return
    if p.l2 == 2:
        assert result.route == "Case1Cycle"
    elif p.v1 == 3:
        assert result.route == "Case2V1Is3"
    elif p.v2 <= 4:
        assert result.route == "Case3V2Le4"
    else:
        assert result.route == "GeneralMonotone"
    assert 0 < result.epsilon_star < result.margin


# ---------------------------------------------------------------------------
# structural floor and the emptiness short-circuit


def test_three_regular_graphs_on_six_vertices():
    cubic = [
        g
        for g in graphs_on(6, keep=lambda g: all(d <= 3 for d in g.degree_sequence()))
        if g.degree_sequence() == (3,) * 6
    ]
    assert len(cubic) == 2
    assert {canonical_key(g) for g in cubic} == {
        canonical_key(complete_bipartite(3, 3)),
        canonical_key(prism()),
    }
    assert balancedness(complete_bipartite(3, 3), "strictly_two_balanced")
    assert not balancedness(prism(), "strictly_two_balanced")


def test_min_degree_bound_check_constructed_member():
    # the rook graph: four row-cliques and four column-cliques on a 4x4
    # grid, a pinned host for the complete-graph/4-cycle pair
    edges = []
    for r in range(4):
        cells = [4 * r + c for c in range(4)]
        edges += [(a, b) for i, a in enumerate(cells) for b in cells[i + 1 :]]
    for c in range(4):
        cells = [4 * r + c for r in range(4)]
        edges += [(a, b) for i, a in enumerate(cells) for b in cells[i + 1 :]]
    rook = graph(16, edges)
    p = params(4, 3, 4, 2)
    # it clears the floor a blocker member must: min degree >= l1 + l2 - 1,
    # and so edge/vertex density >= degree_floor, half of that
    assert p.l1 + p.l2 - 1 == 4
    assert min(rook.degree_sequence()) == 6 >= p.l1 + p.l2 - 1
    assert Fraction(rook.edge_count, rook.vertex_count) == 3 >= p.degree_floor == 2


def test_enumerate_a_hat_certified_pairs():
    k5k4 = enumerate_a_hat(
        params(5, 4, 4, 3),
        18,
        pair=build_pair_spec(complete_graph(5), complete_graph(4)),
        confirm_to=6,
    )
    assert k5k4.complete
    assert k5k4.reason == "degree_density_gap"
    assert k5k4.members == ()
    assert k5k4.vertex_bound == 18

    k4q3 = enumerate_a_hat(
        params(4, 3, 8, 3),
        24,
        pair=build_pair_spec(complete_graph(4), cube_graph()),
        confirm_to=6,
    )
    assert k4q3.complete and k4q3.members == ()

    # no pair needed when nothing is brute-checked
    assert enumerate_a_hat(params(5, 2, 6, 2), 22).complete


def test_enumerate_a_hat_uncertified_falls_back_to_search():
    pair = build_pair_spec(complete_graph(3), complete_graph(3))
    result = enumerate_a_hat(params(3, 2, 3, 2), 5, pair=pair)
    assert not result.complete
    assert result.reason == "bounded_search"
    keys = {canonical_key(g) for g in result.members}
    assert canonical_key(complete_graph(4)) in keys
    with pytest.raises(ValueError, match="not certified"):
        enumerate_a_hat(params(3, 2, 3, 2), 5)
