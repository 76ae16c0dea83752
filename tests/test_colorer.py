import dataclasses
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from asymcolor import colorer, graphs
from asymcolor.colorer import ColorerInternalError, asym_edge_color, check_stuck_state
from asymcolor.density import build_pair_spec
from asymcolor.families import (
    BLUE,
    RED,
    BlockerDecomposition,
    UncolorableMemberError,
    blocker_decomposition,
    blocker_members,
    color_by_members,
    enumerate_blockers,
    has_valid_coloring,
    pair_copies,
    unpinned_edge,
    verify_coloring,
)
from asymcolor.graphs import (
    CopySet,
    complete_graph,
    cycle_graph,
    graph,
)
from asymcolor.harness import TrialConfig, derive_seed, edge_probability, run_trial, sample_gnp, sweep


def pair_k4c4():
    return build_pair_spec(complete_graph(4), cycle_graph(4))


def pair_k3c4():
    return build_pair_spec(complete_graph(3), cycle_graph(4))


def pair_k3k3():
    return build_pair_spec(complete_graph(3), complete_graph(3))


@pytest.fixture(scope="module")
def k3k3_setup():
    pair = pair_k3k3()
    cat = enumerate_blockers(pair, 6)
    return pair, cat.members


def gnp(n, p, seed):
    rng = random.Random(seed)
    return graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


# --- literal small-case behavior -------------------------------------------


def test_c4_literal_trace():
    # C4 with (K4, C4): no K4 copies anywhere, so nothing is ever pinned.
    # The one tracked C4 is pushed with its least edge, then all four edges
    # are deleted in order; replay returns them blue and the fully-blue copy
    # forces a single red flip on its least edge.
    g = cycle_graph(4)
    out = asym_edge_color(g, pair_k4c4(), ())
    assert out.status == "colored"
    actions = [ev.action for ev in out.trace]
    assert actions == (
        ["push_l"]
        + ["delete_edge"] * 4
        + ["handoff"]
        + ["readd_edge"] * 4
        + ["recolor_red"]
    )
    c4_edges = ((0, 1), (0, 3), (1, 2), (2, 3))
    assert out.trace[0].edge == (0, 1)
    assert out.trace[0].l_copy == c4_edges
    deletes = [ev.edge for ev in out.trace if ev.action == "delete_edge"]
    assert deletes == list(c4_edges)
    readds = [ev.edge for ev in out.trace if ev.action == "readd_edge"]
    assert readds == list(reversed(c4_edges))
    flip = out.trace[-1]
    assert flip.edge == (0, 1) and flip.color == RED and flip.l_copy == c4_edges
    a = out.coloring.assignment
    assert a[(0, 1)] == RED
    assert all(a[e] == BLUE for e in c4_edges[1:])


def test_no_h2_copies_everything_blue():
    # K3 has no C4, so the tracked list starts empty: plain edge deletion,
    # plain blue replay, no recolor.
    g = complete_graph(3)
    out = asym_edge_color(g, pair_k3c4(), ())
    assert out.status == "colored"
    assert all(c == BLUE for c in out.coloring.assignment.values())
    assert not any(ev.action in ("push_l", "retire_l", "recolor_red") for ev in out.trace)


def test_empty_graph():
    g = graph(5, [])
    out = asym_edge_color(g, pair_k4c4(), ())
    assert out.status == "colored"
    assert out.coloring.assignment == {}


def test_k5_is_one_member_no_loop(k3k3_setup):
    # K5 is itself a catalog member covering every edge exactly once, so the
    # loop never runs: direct hand-off, no stack, no replay events.
    pair, blockers = k3k3_setup
    out = asym_edge_color(complete_graph(5), pair, blockers)
    assert out.status == "colored"
    assert [ev.action for ev in out.trace] == ["handoff"]
    assert verify_coloring(out.coloring, pair).ok


def test_k6_sticks_immediately(k3k3_setup):
    # Every K6 edge is pinned by two triangles sharing it, and every triangle
    # is anchored, so neither branch fires on the very first pass.
    pair, blockers = k3k3_setup
    g = complete_graph(6)
    out = asym_edge_color(g, pair, blockers)
    assert out.status == "stuck"
    assert [ev.action for ev in out.trace] == ["stuck"]
    assert out.residual.edges == g.edges
    assert len(out.live_anchors) == 20
    decomp = check_stuck_state(out, pair)
    assert decomp.report.anchored
    assert not (decomp.covered_once and decomp.sparse)


def test_k6_sticks_without_catalog(k3k3_setup):
    # With an empty catalog the guard is just "edges remain"; the stuck
    # analysis still holds because nothing covers the residual.
    pair, _ = k3k3_setup
    out = asym_edge_color(complete_graph(6), pair, ())
    assert out.status == "stuck"
    assert not check_stuck_state(out, pair).covered_once


def test_unpinned_blocker_member_is_rejected(k3k3_setup):
    # the guard rules a residual out by an edge on no live h2-copy, which is
    # exact only when every member is pinned; C4 has no triangle at all
    pair, blockers = k3k3_setup
    with pytest.raises(ValueError, match=r"not pinned: Cl$"):
        asym_edge_color(complete_graph(5), pair, blockers + (cycle_graph(4),))


def test_catalog_members_are_pinned():
    for h1, h2 in ((complete_graph(3), complete_graph(3)), (complete_graph(4), cycle_graph(4)),
                   (complete_graph(5), cycle_graph(4))):
        pair = build_pair_spec(h1, h2)
        asym_edge_color(graph(0), pair, enumerate_blockers(pair, 7).members)  # accepted


def test_check_stuck_rejects_colored_outcome():
    out = asym_edge_color(cycle_graph(4), pair_k4c4(), ())
    with pytest.raises(ValueError):
        check_stuck_state(out, pair_k4c4())


def test_uncolorable_member_surfaces(k3k3_setup):
    # Feeding K6 itself as a fake catalog member makes the decomposition
    # clean, and the member-wise colorer must then report the refutation
    # instead of crashing.
    pair, _ = k3k3_setup
    with pytest.raises(UncolorableMemberError) as exc:
        asym_edge_color(complete_graph(6), pair, (complete_graph(6),))
    assert "no valid coloring" in str(exc.value)


# --- trace hygiene ----------------------------------------------------------


def test_trace_serializes_to_jsonl(k3k3_setup):
    pair, blockers = k3k3_setup
    out = asym_edge_color(gnp(9, 0.5, 71), pair, blockers)
    allowed = {"step", "action", "edge", "l_copy", "color"}
    for ev in out.trace:
        d = ev.to_dict()
        assert set(d) <= allowed
        json.loads(json.dumps(d))
    assert [ev.step for ev in out.trace] == list(range(len(out.trace)))


def test_sweeps_build_no_trace_until_it_is_read(k3k3_setup, monkeypatch):
    # the colorer keeps a log of plain tuples; its TraceEvents are built
    # only when an outcome's trace is read, once
    built = []
    original = colorer.TraceEvent

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(colorer, "TraceEvent", counting)
    pair, _ = k3k3_setup
    for mode in ("ColorOnly", "FullPipeline"):
        report = sweep(pair, [8], [Fraction(1), Fraction(3)], trials=3, seed=5, mode=mode, a_hat_bound=5)
        assert sum(c.colored for c in report.cells) and sum(c.stuck for c in report.cells)
        assert built == []
    out = asym_edge_color(cycle_graph(4), pair_k4c4(), ())
    assert built == []
    trace = out.trace
    assert len(built) == len(trace) == 11 and out.trace is trace


def test_error_tail_keeps_the_last_20_events_with_their_steps():
    h2 = graphs.enumerate_copies(cycle_graph(4), cycle_graph(4))
    log = [("push_l", (0, 1), 0)] + [("delete_edge", (i, i + 1), -1) for i in range(29)]
    err = ColorerInternalError("boom", log, h2)
    assert [ev.step for ev in err.trace] == list(range(10, 30))
    assert err.trace[-1] == colorer.TraceEvent(29, "delete_edge", (28, 29))
    assert str(err).splitlines()[1:] == [str(ev.to_dict()) for ev in err.trace]


def test_check_stuck_rejects_an_empty_residual():
    h2 = graphs.enumerate_copies(graph(4), cycle_graph(4))
    out = colorer.ColorerOutcome("stuck", None, graph(4), h2, (("stuck", None, -1),), (), h2, h2)
    with pytest.raises(ColorerInternalError, match="empty residual") as exc:
        check_stuck_state(out, pair_k4c4())
    assert exc.value.trace == (colorer.TraceEvent(0, "stuck"),)
    assert "'action': 'stuck'" in str(exc.value)


def test_check_stuck_rejects_forged_live_anchors():
    # a live anchor must be an h2-copy of the residual that is anchored
    # there. Forge two stuck outcomes from a real one: one tracks a C4 of
    # the residual with an unpinned edge, one a C4 of the input with an
    # edge the colorer deleted
    pair = pair_k4c4()
    out = asym_edge_color(sample_gnp(12, 0.6, 2), pair, ())
    assert out.status == "stuck"
    check_stuck_state(out, pair)
    residual_edges = out.residual.edge_set()
    h1, h2 = pair_copies(out.residual, pair)
    loose = next(L for L in h2.copies if unpinned_edge(L.edges, h1) is not None)
    outside = next(L for L in out.h2_copies.copies if not L.edges <= residual_edges)
    for forged in (loose, outside):
        bad = dataclasses.replace(out, live_anchors=CopySet(pair.h2, (forged,)))
        with pytest.raises(ColorerInternalError, match="a live tracked copy is not anchored"):
            check_stuck_state(bad, pair)


def test_deterministic_trace(k3k3_setup):
    pair, blockers = k3k3_setup
    g = gnp(12, 0.4, 1234)
    a = asym_edge_color(g, pair, blockers)
    b = asym_edge_color(g, pair, blockers)
    assert a.trace == b.trace
    assert a.status == b.status
    if a.status == "colored":
        assert a.coloring.assignment == b.coloring.assignment


# --- soundness on random hosts ---------------------------------------------


def test_soundness_k4c4_random():
    pair = pair_k4c4()
    for seed in range(40):
        g = gnp(14, 0.25, 900 + seed)
        out = asym_edge_color(g, pair, ())
        if out.status == "colored":
            assert verify_coloring(out.coloring, pair).ok
        else:
            check_stuck_state(out, pair)


def test_soundness_k3k3_random(k3k3_setup):
    pair, blockers = k3k3_setup
    for seed in range(30):
        g = gnp(10, 0.4, 4000 + seed)
        out = asym_edge_color(g, pair, blockers)
        if out.status == "colored":
            assert verify_coloring(out.coloring, pair).ok
        else:
            check_stuck_state(out, pair)


def test_handoff_decomposition_matches_a_fresh_one(k3k3_setup, monkeypatch):
    # The guard decomposes each residual it gets past the span rule from the
    # colorer's copies, reading the blocker copies of an earlier residual by
    # containment. Every decomposition it builds must answer as one computed
    # from scratch on the same residual, and the one it hands to
    # color_by_members must equal that one part for part.
    handed, built = [], []

    def spy(decomp, pair):
        handed.append(decomp)
        return color_by_members(decomp, pair)

    def spy_decomposition(*args):
        decomp = BlockerDecomposition(*args)
        built.append(decomp)
        return decomp

    monkeypatch.setattr(colorer, "color_by_members", spy)
    monkeypatch.setattr(colorer, "BlockerDecomposition", spy_decomposition)
    k3k3, blockers = k3k3_setup
    cases = [(k3k3, blockers, gnp(12, 0.4, 7000 + s)) for s in range(30)]
    cases += [(pair_k4c4(), (), gnp(12, 0.3, 8000 + s)) for s in range(30)]
    # the 4-wheel is pinned for K3/C4, but no spoke lies on an anchored C4,
    # so a copy of it can lose an edge after the guard has enumerated it
    wheel = graph(5, [(0, 1), (1, 3), (3, 2), (2, 0)] + [(i, 4) for i in range(4)])
    cases += [(pair_k3c4(), (wheel,), gnp(8, 0.5, 9000 + s)) for s in range(30)]
    colored = with_members = guarded = uncovered = 0
    for pair, catalog, g in cases:
        handed.clear()
        built.clear()
        out = asym_edge_color(g, pair, catalog)
        for decomp in built:
            fresh = blocker_decomposition(decomp.graph, pair, catalog)
            assert decomp.covered_once == fresh.covered_once
            assert decomp.sparse == fresh.sparse
            if decomp.covered_once:
                assert decomp.members == fresh.members
            # an edge on no live blocker copy: the residual is not clean
            uncovered += any(not decomp.members_through(e) for e in decomp.graph.edges)
        guarded += len(built)
        if out.status != "colored":
            continue
        deleted = {ev.edge for ev in out.trace if ev.action == "delete_edge"}
        residual = graph(g.vertex_count, set(g.edges) - deleted)
        (decomp,) = handed
        assert decomp is built[-1]
        fresh = blocker_decomposition(residual, pair, catalog)
        # a decomposition holds a lookup of blocker copies, so each part is
        # compared on its own
        assert decomp.graph == fresh.graph
        assert decomp.members == fresh.members
        assert all(decomp.members_through(e) == fresh.members_through(e) for e in residual.edges)
        assert decomp.h1_copies == fresh.h1_copies and decomp.h2_copies == fresh.h2_copies
        assert tuple(decomp.straddlers()) == tuple(fresh.straddlers())
        colored += 1
        with_members += bool(decomp.members)
    assert colored == 75 and with_members == 22
    # the guard's witness scan resumes where it stopped; it must still
    # decompose exactly the residuals no edge rules out
    assert guarded == 111 and uncovered == 31


def test_each_deletion_tests_an_edge_for_a_pin_once(k3k3_setup, monkeypatch):
    # when h2 is h1 the copies a deletion drops from tracked are among those
    # it kills, so the pinned edges of both are tested again once. Every
    # deletion or retirement that tests edges again shrinks the masks
    # is_pinned is asked against, so an (edge, masks) question asked twice
    # is an edge tested twice between two consecutive log entries
    asked = []
    original = colorer.is_pinned

    def spy(e, h2_copies, h1_copies, alive2, alive1):
        asked.append((e, alive2, alive1))
        return original(e, h2_copies, h1_copies, alive2, alive1)

    monkeypatch.setattr(colorer, "is_pinned", spy)
    pair, blockers = k3k3_setup
    p = edge_probability(pair, 20, Fraction(3, 2))
    hosts = [gnp(12, 0.4, 7000 + s) for s in range(30)]
    hosts += [sample_gnp(20, p, derive_seed(20261021, 20, Fraction(3, 2), t)) for t in range(10)]
    retested = 0
    for g in hosts:
        asked.clear()
        asym_edge_color(g, pair, blockers)
        assert len(set(asked)) == len(asked)
        retested += len(asked) - g.edge_count
    assert retested > 0


def count_enumerations(monkeypatch):
    """Wrap every package binding of enumerate_copies; returns the list of
    (host, pattern) calls it records."""
    original = graphs.enumerate_copies
    calls = []

    def counting(g, pattern):
        calls.append((g, pattern))
        return original(g, pattern)

    for name, module in sorted(sys.modules.items()):
        if name.startswith("asymcolor.") and getattr(module, "enumerate_copies", None) is original:
            monkeypatch.setattr(module, "enumerate_copies", counting)
    return calls


def test_colored_run_enumerates_each_pattern_once(k3k3_setup, monkeypatch):
    # a colored run enumerates its host's h1 and h2 copies once in all,
    # counted per distinct pattern (K3/K3 has one), and checks its final
    # colouring against those sets
    calls = count_enumerations(monkeypatch)
    k3k3, blockers = k3k3_setup
    colored = 0
    for pair, catalog in ((k3k3, blockers), (pair_k4c4(), ())):
        for n in (12, 20):
            p = edge_probability(pair, n, Fraction(1))
            for t in range(3):
                g = sample_gnp(n, p, derive_seed(20261019, n, Fraction(1), t))
                calls.clear()
                out = asym_edge_color(g, pair, catalog)
                assert out.status == "colored"
                enumerated = Counter(pattern for host, pattern in calls if host is g)
                assert enumerated == Counter({pair.h1, pair.h2})
                colored += 1
    assert colored == 12


def test_dense_inputs_enumerate_no_blocker_copy(k3k3_setup, monkeypatch):
    # the span rule rules a dense residual out before the guard enumerates
    # any blocker copy, so the colorer sticks at once having enumerated
    # only h1 and h2
    calls = count_enumerations(monkeypatch)
    pair, blockers = k3k3_setup
    catalog = set(blockers)
    for k in range(7, 11):
        calls.clear()
        out = asym_edge_color(complete_graph(k), pair, blockers)
        assert out.status == "stuck" and len(out.trace) == 1
        assert not [pattern for _, pattern in calls if pattern in catalog]
    blocker_members(pair, 6)  # the default-bound catalog run_trial reads, built before the count
    for t in range(3):
        config = TrialConfig(pair, 30, Fraction(4), derive_seed(20260816, 30, Fraction(4), t))
        calls.clear()
        assert run_trial(config).outcome == "stuck"
        assert not [pattern for _, pattern in calls if pattern in catalog]


def test_span_rule_without_catalog_reads_no_endpoints():
    # with no catalog the widest blocker has 0 vertices, and every copy
    # through an edge spans its 2 endpoints, so the guard rules out every
    # non-empty residual without building either set's endpoint_masks
    ruled, b = 0, Fraction(2)
    for pair in (pair_k4c4(), build_pair_spec(complete_graph(5), cycle_graph(4))):
        for t in range(4):
            g = sample_gnp(16, edge_probability(pair, 16, b), derive_seed(20261019, 16, b, t))
            out = asym_edge_color(g, pair, ())
            assert "endpoint_masks" not in vars(out.h1_copies)
            assert "endpoint_masks" not in vars(out.h2_copies)
            ruled += len(out.h2_copies) > 0
    assert ruled


def test_span_rule_rules_out_no_clean_residual(k3k3_setup):
    # the span rule's lemma, against the full decomposition: when the edges
    # of the h1- and h2-copies through some edge have more endpoints than
    # the widest blocker has vertices, the host is not a clean sparse union.
    # Hosts: G(8, p(b)) samples and the colorer's residuals of them, K5-K9,
    # the catalog members and the disjoint union of the last two, each also
    # after a few seeded edge deletions. A clean host whose span reaches
    # widest shows the bound is tight.
    k3k3, k3k3_catalog = k3k3_setup
    cases = []
    for pair, catalog in ((k3k3, k3k3_catalog), (pair_k4c4(), enumerate_blockers(pair_k4c4(), 6).members)):
        hosts = [complete_graph(k) for k in range(5, 10)] + list(catalog)
        if len(catalog) >= 2:
            m1, m2 = catalog[-2:]
            shifted = [(u + m1.vertex_count, v + m1.vertex_count) for u, v in m2.edges]
            hosts.append(graph(m1.vertex_count + m2.vertex_count, list(m1.edges) + shifted))
        for b in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4)):
            for t in range(2):
                g = sample_gnp(8, edge_probability(pair, 8, b), derive_seed(20261019, 8, b, t))
                out = asym_edge_color(g, pair, catalog)
                deleted = {ev.edge for ev in out.trace if ev.action == "delete_edge"}
                hosts += [g, graph(8, set(g.edges) - deleted)]
        for i, h in enumerate(list(hosts)):
            edges = sorted(h.edges)
            hosts.append(graph(h.vertex_count, set(edges) - set(random.Random(i).sample(edges, min(3, len(edges))))))
        cases += [(pair, catalog, h) for h in set(hosts)]
    clean = tight = ruled_out = 0
    for pair, catalog, h in cases:
        widest = max((b.vertex_count for b in catalog), default=0)
        copy_sets = (graphs.enumerate_copies(h, pair.h1), graphs.enumerate_copies(h, pair.h2))
        for cs in copy_sets:
            assert list(cs.endpoint_masks) == [
                sum(1 << v for v in {v for e in c.edges for v in e}) for c in cs.copies
            ]
        span = max(
            (len({v for cs in copy_sets for c in cs.through(e) for f in c.edges for v in f}) for e in h.edges),
            default=0,
        )
        decomp = blocker_decomposition(h, pair, catalog)
        if span > widest:
            assert not (decomp.covered_once and decomp.sparse)
            ruled_out += 1
        elif decomp.covered_once and decomp.sparse and h.edge_count:
            clean += 1
            tight += span == widest
    assert clean and tight and ruled_out


def test_flower_host_colored():
    # central C4, one K4 glued on each central edge
    edges = list(cycle_graph(4).edges)
    nxt = 4
    for u, v in list(edges):
        a, b = nxt, nxt + 1
        nxt += 2
        edges += [(u, a), (u, b), (v, a), (v, b), (a, b)]
    g = graph(nxt, edges)
    pair = pair_k4c4()
    out = asym_edge_color(g, pair, ())
    if out.status == "colored":
        assert verify_coloring(out.coloring, pair).ok
    else:
        check_stuck_state(out, pair)


# --- completeness against the search oracle ---------------------------------


def check_against_oracle(pair, blockers, hosts):
    stuck_but_valid = 0
    for g in hosts:
        search = has_valid_coloring(g, pair)
        assert search.status in ("valid", "invalid")
        out = asym_edge_color(g, pair, blockers)
        if search.status == "invalid":
            assert out.status == "stuck", f"colored an uncolorable host {g.edges}"
        elif out.status == "stuck":
            stuck_but_valid += 1
            check_stuck_state(out, pair)
    return stuck_but_valid


def test_oracle_agreement_k3k3(k3k3_setup):
    pair, blockers = k3k3_setup
    hosts = []
    seed = 0
    while len(hosts) < 50:
        g = gnp(8, 0.5, 10_000 + seed)
        seed += 1
        if g.edge_count <= 18:
            hosts.append(g)
    free = check_against_oracle(pair, blockers, hosts)
    # stuck-but-valid is permitted (one-sided guarantee); keep it visible
    assert free >= 0


def test_oracle_agreement_k4c4():
    pair = pair_k4c4()
    hosts = []
    seed = 0
    while len(hosts) < 50:
        g = gnp(9, 0.4, 20_000 + seed)
        seed += 1
        if g.edge_count <= 18:
            hosts.append(g)
    check_against_oracle(pair, (), hosts)


def test_stuck_residual_feeds_forward(k3k3_setup):
    # the residual keeps the full vertex namespace so downstream consumers
    # can relate it to the input
    pair, blockers = k3k3_setup
    out = asym_edge_color(complete_graph(6), pair, blockers)
    assert out.residual.vertex_count == 6
    assert graph(6, out.residual.edges).edges == out.residual.edges
