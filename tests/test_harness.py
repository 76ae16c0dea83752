import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcolor import families, graphs, harness
from asymcolor.colorer import check_stuck_state
from asymcolor.density import build_pair_spec
from asymcolor.families import blocker_decomposition, blocker_members
from asymcolor.graphs import complete_graph, cycle_graph, emit_graph6
from asymcolor.grow import grow, grow_alt
from asymcolor.harness import (
    CSV_HEADER,
    SweepCell,
    SweepReport,
    TrialConfig,
    derive_seed,
    edge_probability,
    monotonicity_flags,
    render_csv,
    run_trial,
    sample_gnp,
    summarize_trace,
    sweep,
)


def pair_k4c4():
    return build_pair_spec(complete_graph(4), cycle_graph(4))


def pair_k3k3():
    return build_pair_spec(complete_graph(3), complete_graph(3))


# --- sampler ----------------------------------------------------------------


def test_sample_gnp_extremes():
    assert sample_gnp(7, 0.0, 5).edges == ()
    full = sample_gnp(7, 1.0, 5)
    assert full.edges == complete_graph(7).edges
    with pytest.raises(ValueError, match="outside"):
        sample_gnp(5, -0.1, 0)
    with pytest.raises(ValueError, match="outside"):
        sample_gnp(5, 1.5, 0)
    with pytest.raises(ValueError, match="n = -1"):
        sample_gnp(-1, 0.5, 0)


def test_sample_gnp_reproducible_and_seed_sensitive():
    a = sample_gnp(25, 0.3, 12345)
    b = sample_gnp(25, 0.3, 12345)
    assert a.edges == b.edges
    c = sample_gnp(25, 0.3, 12346)
    assert a.edges != c.edges


def test_sample_gnp_matches_per_edge_hash_definition():
    # edge k of the sample is present iff _hash64(seed, n, k) < p * 2**64,
    # whatever hash state, edge table or byte comparison sample_gnp uses;
    # the p values include the extremes of the threshold, 0 and 2**64
    for n in (0, 1, 2, 9, 16, 23, 40):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for p in (0.0, 5e-324, 2**-64, 0.3, 0.5, 0.88, 1 - 2**-53, 1.0):
            threshold = int(p * 2**64)
            for seed in (0, 7, 20260816, 2**64 - 1):
                g = sample_gnp(n, p, seed)
                want = tuple(
                    e for k, e in enumerate(pairs) if harness._hash64(seed, n, k) < threshold
                )
                assert g.vertex_count == n and g.edges == want, (n, p, seed)
                # the sampler builds its Graph directly, not through graph()
                assert graphs.graph(n, g.edges) == g


def test_sample_gnp_grid_samples_digest():
    # the 162 samples of the benchmark grid (3 pairs x n 20-40 x b 1/4-1 x
    # 6 trials, master seed 20260816), hashed as their edge tuples, so a
    # change to which edges a sample holds fails here and not only in the
    # benchmark's CSV hashes
    digest = hashlib.sha256()
    for h1, h2 in ((complete_graph(4), cycle_graph(4)), (complete_graph(5), cycle_graph(4)),
                   (complete_graph(3), complete_graph(3))):
        pair = build_pair_spec(h1, h2)
        for n in (20, 30, 40):
            for b in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                p = edge_probability(pair, n, b)
                for t in range(6):
                    g = sample_gnp(n, p, derive_seed(20260816, n, b, t))
                    digest.update(repr(g.edges).encode() + b"\n")
    assert digest.hexdigest() == "9494816e870273311b6333c6152c8646b093a60440d7f1cde8589c1aff7377b5"


def test_sample_gnp_edge_count_near_mean():
    # C(30, 2) = 435 fair coins: mean 217.5, sigma ~ 10.43; stay within 5 sigma
    g = sample_gnp(30, 0.5, 99)
    assert abs(g.edge_count - 217.5) <= 5 * (435 * 0.25) ** 0.5


@settings(max_examples=60)
@given(
    p1=st.floats(min_value=0.0, max_value=1.0),
    p2=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_sample_gnp_monotone_in_p(p1, p2, seed):
    # raising p only adds edges for a fixed seed: thresholds nest
    lo, hi = sorted((p1, p2))
    assert set(sample_gnp(12, lo, seed).edges) <= set(sample_gnp(12, hi, seed).edges)


def test_edge_probability_formula_and_clamp():
    pair = pair_k3k3()  # m2 of the pair is 2
    b = Fraction(1, 2)
    assert edge_probability(pair, 16, b) == pytest.approx(0.5 * 16 ** -0.5)
    assert edge_probability(pair, 2, Fraction(4)) == 1.0
    assert 0.0 < edge_probability(pair_k4c4(), 50, Fraction(1, 8)) < 1.0


def test_derive_seed_is_stable_and_64_bit():
    s = derive_seed(7, 20, Fraction(1, 4), 3)
    assert s == derive_seed(7, 20, Fraction(2, 8), 3)  # fractions normalize
    assert 0 <= s < 2**64
    others = {derive_seed(7, 20, Fraction(1, 4), t) for t in range(50)}
    assert len(others) == 50


# --- single trials ----------------------------------------------------------


def test_trial_config_validation():
    pair = pair_k4c4()
    cfg = TrialConfig(pair, 10, 1, seed=0)
    assert cfg.b == Fraction(1)  # ints are accepted and normalized
    with pytest.raises(ValueError, match="n ="):
        TrialConfig(pair, 0, Fraction(1, 2), seed=0)
    with pytest.raises(ValueError, match="positive"):
        TrialConfig(pair, 10, Fraction(0), seed=0)
    with pytest.raises(ValueError, match="64"):
        TrialConfig(pair, 10, Fraction(1, 2), seed=2**64)
    with pytest.raises(ValueError, match="budget"):
        TrialConfig(pair, 10, Fraction(1, 2), seed=0, budget=0)
    with pytest.raises(ValueError, match="a_hat_bound"):
        TrialConfig(pair, 10, Fraction(1, 2), seed=0, a_hat_bound=-1)


def test_run_trial_colored_below_threshold():
    # (K4, C4) at n=20, b=1/4 sits far below the threshold scaling
    pair = pair_k4c4()
    results = [
        run_trial(
            TrialConfig(pair, 20, Fraction(1, 4), seed=s, mode="ColorPlusOracle", a_hat_bound=0)
        )
        for s in range(12)
    ]
    assert [r.outcome for r in results] == ["colored"] * 12
    for r in results:
        assert r.colorer_status == "colored"
        assert r.oracle is None and r.grow_summary is None and r.grow_error is None
        assert r.wall_ms > 0
        assert r.edge_count == sample_gnp(20, edge_probability(pair, 20, Fraction(1, 4)), r.config.seed).edge_count


def test_run_trial_empty_sample_is_trivially_colored():
    pair = pair_k4c4()
    r = run_trial(TrialConfig(pair, 16, Fraction(1, 10**6), seed=3, a_hat_bound=0))
    assert r.edge_count == 0
    assert r.outcome == "colored"


def test_run_trial_k6_color_only():
    # b = 3 forces p to clamp at 1, so the sample is K6, which no coloring fixes
    pair = pair_k3k3()
    r = run_trial(TrialConfig(pair, 6, Fraction(3), seed=1, mode="ColorOnly"))
    assert r.edge_count == 15
    assert r.colorer_status == "stuck"
    assert r.outcome == "stuck"
    assert r.oracle is None


def test_run_trial_k6_oracle_refutes():
    pair = pair_k3k3()
    r = run_trial(TrialConfig(pair, 6, Fraction(3), seed=1, mode="ColorPlusOracle"))
    assert r.outcome == "oracle_invalid"
    assert r.oracle is not None and r.oracle.status == "invalid"


def test_run_trial_k6_budget_exhaustion():
    # the stuck path never spends colorer budget, so a tiny budget throttles
    # only the adjudicating oracle
    pair = pair_k3k3()
    r = run_trial(TrialConfig(pair, 6, Fraction(3), seed=1, budget=5, mode="ColorPlusOracle"))
    assert r.outcome == "budget_exceeded"
    assert r.oracle.status == "budget_exceeded"
    assert r.oracle.nodes_expanded <= 5 + 1  # the tripping node is counted


def test_run_trial_k6_full_pipeline():
    pair = pair_k3k3()
    r = run_trial(TrialConfig(pair, 6, Fraction(3), seed=1, mode="FullPipeline"))
    assert r.outcome == "oracle_invalid"
    # growth on the residual either yields a trace or a recorded failure,
    # never a crash; here two catalog members share an edge of the residual,
    # so the special-case branch fires
    assert (r.grow_summary is None) != (r.grow_error is None)
    assert r.grow_summary is not None and r.grow_trace is not None
    assert r.grow_summary.outcome == "special_case"
    assert r.grow_summary.steps == len(r.grow_trace.steps) == 1
    assert r.grow_trace.steps[0].kind == "special_case_2"
    assert r.grow_summary.final_slack == Fraction(-1, 2)
    row = r.to_dict()
    assert row["outcome"] == "oracle_invalid"
    json.dumps(row)


def test_trial_result_serializes():
    pair = pair_k3k3()
    r = run_trial(TrialConfig(pair, 8, Fraction(1, 4), seed=2, mode="ColorPlusOracle"))
    row = json.loads(json.dumps(r.to_dict()))
    assert row["n"] == 8 and row["b"] == "1/4"
    assert row["outcome"] in {"colored", "stuck", "oracle_valid", "oracle_invalid", "budget_exceeded"}


# --- grow summaries ---------------------------------------------------------


def test_summarize_trace_frozen_k6_alt():
    pair = pair_k3k3()
    _, trace = grow_alt(blocker_decomposition(complete_graph(6), pair, ()), pair)
    s = summarize_trace(trace)
    assert s.steps == 2
    assert s.degenerate_count == 1
    assert s.min_drop == Fraction(1, 2)
    assert s.initial_slack == Fraction(3, 2)
    assert s.final_slack == Fraction(1)
    assert s.outcome == "hit_iteration_cap"
    assert s.to_dict()["min_drop"] == "1/2"


def test_summarize_trace_special_case():
    pair = pair_k3k3()
    _, trace = grow(blocker_decomposition(complete_graph(6), pair, [complete_graph(4)]), pair)
    s = summarize_trace(trace)
    assert s.steps == 1 and s.degenerate_count == 0 and s.min_drop is None
    assert s.outcome == "special_case"


def test_full_pipeline_trials_match_golden():
    # TrialResult.to_dict() without wall_ms, plus the grown witness and its
    # host edges, for three FullPipeline K3/K3 cells (grow_alt): special-case
    # returns from the bound-6 catalog, the growth loop next to bound-5
    # members, and the loop and its errors with an empty bound-3 catalog.
    # The K3/K3 data was captured when growth still decomposed the residual
    # itself, so it pins growth from the audited decomposition to that
    # output. The K4/C4 cell pins the strict grower: its bound-6 catalog is
    # empty, and 13 of its 20 trials stick and grow by absorb_h1 steps.
    golden = Path(__file__).parent / "data" / "growth_golden.jsonl"
    expected = [json.loads(line) for line in golden.read_text().splitlines()]
    got = []
    for pair, label, bound, n, b in (
        (pair_k3k3(), "", 6, 16, "3/2"),
        (pair_k3k3(), "", 5, 20, "1"),
        (pair_k3k3(), "", 3, 16, "3/2"),
        (pair_k4c4(), "h1=K4 h2=C4 ", 6, 12, "2"),
    ):
        report = sweep(
            pair, [n], [Fraction(b)], trials=20, seed=20260816, mode="FullPipeline",
            budget=20_000, a_hat_bound=bound, keep_results=True,
        )
        for i, r in enumerate(report.results):
            row = r.to_dict()
            del row["wall_ms"]
            if r.grow_trace is not None:
                row["grow_final"] = emit_graph6(r.grow_trace.final)
                row["grow_host_edges"] = r.grow_trace.host_edges
            cell = f"{label}bound={bound} n={n} b={b}"
            got.append(json.loads(json.dumps({"cell": cell, "trial": i, "result": row})))
    assert got == expected


def test_full_pipeline_enumerates_each_stuck_residual_once(monkeypatch):
    # The colorer enumerates the sample's h1 and h2 copies, and the stuck
    # oracle searches those sets. The audit's blocker decomposition
    # enumerates the residual's h1 and h2 copies afresh and builds the
    # pinned/anchored report from them once; the audit
    # and growth (grow reads the anchored copies in the strict case) both
    # read them from there. The package modules import these functions by
    # name, so every binding is wrapped.
    pair = pair_k3k3()
    k4c4 = pair_k4c4()
    assert pair.h1 is not pair.h2 and k4c4.case == "strict"
    originals = {
        "enumerate_copies": graphs.enumerate_copies,
        "FamilyReport": families.FamilyReport,
    }
    calls = {name: [] for name in originals}  # holding the graphs keeps their ids apart

    def counting(name):
        def wrapper(g, *rest):
            calls[name].append((g, *rest))
            return originals[name](g, *rest)

        return wrapper

    for name, original in originals.items():
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name.startswith("asymcolor.") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name))
    audited = []

    def audit(outcome, pair):
        decomp = check_stuck_state(outcome, pair)
        audited.append((samples[-1], decomp, pair))
        return decomp

    monkeypatch.setattr(harness, "check_stuck_state", audit)
    original_sample = harness.sample_gnp
    samples = []

    def sample(*args):
        samples.append(original_sample(*args))
        return samples[-1]

    monkeypatch.setattr(harness, "sample_gnp", sample)
    looped = strict_grown = 0
    # the bound-6 K3/K3 catalog gives residuals with members (special-case
    # returns), the empty bound-0 one gives the growth loop; K4/C4 at b=2 sticks on
    # 5 of 8 trials at n=12 and 8 of 8 at n=16, all grown by grow
    cells = [(pair, bound, 16, Fraction(3, 2)) for bound in (6, 0)]
    cells += [(k4c4, 0, n, Fraction(2)) for n in (12, 16)]
    for cell_pair, bound, n, b in cells:
        for t in range(8):
            config = TrialConfig(
                cell_pair, n=n, b=b, seed=derive_seed(20260816, n, b, t),
                budget=20_000, mode="FullPipeline", a_hat_bound=bound,
            )
            trace = run_trial(config).grow_trace
            looped += trace is not None and trace.outcome != "special_case"
            strict_grown += trace is not None and cell_pair is k4c4
    assert len(audited) >= 8 and looped >= 1 and strict_grown >= 8
    assert any(d.members for _, d, _ in audited)
    for sample_graph, decomp, audited_pair in audited:
        # one enumeration per distinct pattern, so one for K3/K3, where h2
        # equals h1 (though not the same object) and its copies serve both
        patterns = {audited_pair.h1, audited_pair.h2}
        assert len(patterns) == (1 if audited_pair is pair else 2)
        for pattern in patterns:
            # the sample by the colorer alone (the stuck oracle reuses its
            # copies), the residual by the audit alone
            for host in (sample_graph, decomp.graph):
                assert sum(h is host and p == pattern for h, p in calls["enumerate_copies"]) == 1
        assert sum(g is decomp.graph for g, *_ in calls["FamilyReport"]) == 1


# --- sweeps -----------------------------------------------------------------


def test_sweep_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials"):
        sweep(pair_k3k3(), [8], [Fraction(1)], trials=-3, seed=1, a_hat_bound=3)


@pytest.mark.parametrize(
    "n, b", [(-5, Fraction(1)), (0, Fraction(1)), (8, Fraction(0)), (8, Fraction(-1, 2))]
)
def test_sweep_rejects_bad_n_and_b(n, b):
    # checked before the catalog is built, even for an empty sweep, as
    # TrialConfig checks them
    for trials in (0, 1):
        with pytest.raises(ValueError, match="n = |b = "):
            sweep(pair_k3k3(), [8, n], [Fraction(1, 2), b], trials=trials, seed=1, a_hat_bound=3)


def test_sweep_counters_partition_trials():
    pair = pair_k3k3()
    bs = [Fraction(1, 4), Fraction(1, 2)]
    report = sweep(pair, [10], bs, trials=4, seed=11, mode="ColorPlusOracle", a_hat_bound=4)
    assert report.blocker_count == 1  # just the 4-clique at this bound
    assert len(report.cells) == 2
    for cell in report.cells:
        assert cell.trials == 4
        assert cell.colored + cell.stuck == cell.trials
        assert cell.stuck == cell.oracle_valid + cell.oracle_invalid + cell.budget_exceeded
        assert cell.p == edge_probability(pair, cell.n, cell.b)


def test_sweep_is_byte_deterministic():
    pair = pair_k3k3()
    kwargs = dict(ns=[8, 10], bs=[Fraction(1, 4)], trials=3, seed=7, a_hat_bound=4)
    one = render_csv(sweep(pair, **kwargs))
    two = render_csv(sweep(pair, **kwargs))
    assert one == two
    assert one.startswith(CSV_HEADER + "\n")
    assert one.count("\n") == 3  # header plus one row per cell


def test_trials_and_sweeps_build_each_catalog_once(monkeypatch):
    # sweep and run_trial name the catalog by its bound, and the process
    # builds it on the first request
    pair = pair_k3k3()
    built = []
    original = families.enumerate_blockers

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(families, "enumerate_blockers", counting)
    blocker_members.cache_clear()
    for seed in (1, 2):
        report = sweep(pair, [8], [Fraction(1, 2)], trials=2, seed=seed, a_hat_bound=5)
        assert report.blocker_count == 3
    run_trial(TrialConfig(pair, 9, Fraction(1, 2), seed=3, a_hat_bound=5))
    assert built == [(pair, 5)]


def test_bound_0_catalog_is_empty():
    assert blocker_members(pair_k3k3(), 0) == ()
    assert blocker_members(pair_k4c4(), 0) == ()


def test_sweep_single_trial_matches_run_trial():
    pair = pair_k3k3()
    b = Fraction(1, 2)
    report = sweep(pair, [9], [b], trials=1, seed=42, mode="ColorPlusOracle", a_hat_bound=4)
    solo = run_trial(
        TrialConfig(pair, 9, b, derive_seed(42, 9, b, 0), mode="ColorPlusOracle", a_hat_bound=4)
    )
    cell = report.cells[0]
    counts = {
        "colored": cell.colored,
        "stuck": cell.oracle_valid + cell.oracle_invalid + cell.budget_exceeded,
        "oracle_valid": cell.oracle_valid,
        "oracle_invalid": cell.oracle_invalid,
        "budget_exceeded": cell.budget_exceeded,
    }
    assert counts[solo.outcome] == 1
    assert sum((cell.colored, cell.oracle_valid, cell.oracle_invalid, cell.budget_exceeded)) == 1


def test_sweep_empty_grid_and_callbacks():
    pair = pair_k3k3()
    seen = []
    report = sweep(pair, [8], [], trials=2, seed=0, a_hat_bound=4, on_cell=seen.append)
    assert report.cells == () and seen == []
    assert render_csv(report) == CSV_HEADER + "\n"
    report = sweep(
        pair, [8], [Fraction(1, 4)], trials=2, seed=0, a_hat_bound=4,
        on_cell=seen.append, keep_results=True,
    )
    assert [c.n for c in seen] == [8]
    assert len(report.results) == 2
    assert all(r.config.a_hat_bound == 4 for r in report.results)


def test_render_csv_timing_column():
    pair = pair_k3k3()
    report = sweep(pair, [8], [Fraction(1, 4)], trials=2, seed=5, a_hat_bound=4)
    plain = render_csv(report)
    timed = render_csv(report, timing=True)
    assert plain != timed
    assert plain.splitlines()[1].endswith(",0.0")
    assert report.cells[0].mean_ms > 0  # the JSON report keeps real timings


def test_sweep_report_to_dict_round_trips():
    pair = pair_k3k3()
    report = sweep(pair, [8], [Fraction(1, 4)], trials=2, seed=5, a_hat_bound=4)
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["pair"]["m2_pair"] == "2"
    assert blob["master_seed"] == 5
    assert blob["cells"][0]["trials"] == 2
    assert blob["monotonicity_flags"] == []


def _cell(n, b, colored, trials):
    return SweepCell(n, b, 0.5, trials, colored, trials - colored, 0, 0, 0, 0.0)


def test_monotonicity_flags_fire_on_significant_rise():
    pair = pair_k3k3()
    cells = (
        _cell(10, Fraction(1, 4), 0, 10),
        _cell(10, Fraction(1, 2), 10, 10),
        _cell(12, Fraction(1, 4), 10, 10),
        _cell(12, Fraction(1, 2), 3, 10),
    )
    report = SweepReport(pair, "ColorOnly", 0, 10, 4, 1, cells, ())
    flags = monotonicity_flags(report)
    assert len(flags) == 1
    assert flags[0].startswith("n=10")
    # a one-trial wobble is not significant
    small = (_cell(9, Fraction(1, 4), 1, 3), _cell(9, Fraction(1, 2), 2, 3))
    assert monotonicity_flags(SweepReport(pair, "ColorOnly", 0, 3, 4, 1, small, ())) == ()
