import csv
import io
import json

import pytest

from asymcolor import cli, colorer
from asymcolor.graphs import (
    canonical_key,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    emit_graph6,
    octahedron_graph,
)


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- graph arguments --------------------------------------------------------


def test_parse_graph_arg_names_and_graph6():
    assert canonical_key(cli.parse_graph_arg("K5")) == canonical_key(complete_graph(5))
    assert canonical_key(cli.parse_graph_arg("c6")) == canonical_key(cycle_graph(6))
    assert canonical_key(cli.parse_graph_arg("K3,3")) == canonical_key(complete_bipartite(3, 3))
    assert canonical_key(cli.parse_graph_arg("octahedron")) == canonical_key(octahedron_graph())
    # "C~" is not a named shape, so it parses as graph6 (it is K4)
    assert canonical_key(cli.parse_graph_arg("C~")) == canonical_key(complete_graph(4))
    round_trip = cli.parse_graph_arg(emit_graph6(cycle_graph(7)))
    assert canonical_key(round_trip) == canonical_key(cycle_graph(7))
    with pytest.raises(ValueError):
        cli.parse_graph_arg("ZZZ")


# --- query commands ---------------------------------------------------------


def test_density_pair_json(capsys):
    rc, out, _ = run_cli(capsys, "density", "--h1", "K4", "--h2", "C4")
    assert rc == 0
    blob = json.loads(out)
    assert blob["h1"]["m2"] == "5/2"
    assert blob["h2"]["m2"] == "3/2"
    assert blob["pair"]["m2_pair"] == "9/4"
    assert blob["pair"]["case"] == "strict"
    assert blob["pair"]["hypotheses"]["distinct"] is True


def test_density_flat_csv(capsys):
    rc, out, _ = run_cli(capsys, "density", "--h1", "K3", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert lines[1].startswith('h1,"{""graph6""')


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--h1", "K4", "--h2", "C4"],
        ["oracle", "--h1", "K3", "--h2", "K3", "--graph", "K5"],
        ["color", "--h1", "K3", "--h2", "K3", "--graph", "K6"],
        ["grow", "--h1", "K3", "--h2", "K3", "--graph", "K6"],
        ["trial", "--h1", "K3", "--h2", "K3", "--n", "12", "--b", "1"],
        ["regular-cert", "--v1", "5", "--l1", "4", "--v2", "4", "--l2", "3", "--enumerate", "6"],
        # the rejection's reason holds a comma
        ["regular-cert", "--v1", "4", "--l1", "3", "--v2", "4", "--l2", "2"],
    ],
    ids=["density", "oracle", "color", "grow", "trial", "regular-cert-certified", "regular-cert-rejected"],
)
def test_key_value_csv_round_trips(capsys, argv):
    rc, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"] and all(len(row) == 2 for row in rows)
    written = io.StringIO()
    csv.writer(written, lineterminator="\n").writerows(rows)
    assert written.getvalue() == out
    # each value reads back as the JSON rendering gives it
    rc, text, _ = run_cli(capsys, *argv)
    blob = json.loads(text)
    assert [k for k, _ in rows[1:]] == list(blob)
    for k, v in rows[1:]:
        want = blob[k]
        if isinstance(want, (dict, list)):
            assert json.loads(v) == want, k
        elif k != "wall_ms":
            assert v == str(want), k


def test_families_csv_lists_the_4_clique(capsys):
    rc, out, _ = run_cli(
        capsys, "families", "--h1", "K3", "--h2", "K3", "--max-vertices", "4", "--format", "csv"
    )
    assert rc == 0
    assert out.splitlines() == ["graph6,vertices,edges", "C~,4,6"]


def test_families_json_gives_each_member_its_coloring_verdict(capsys):
    rc, out, _ = run_cli(capsys, "families", "--h1", "K3", "--h2", "K3", "--max-vertices", "6")
    assert rc == 0
    blob = json.loads(out)
    assert blob["count"] == len(blob["members"]) == 7
    for m in blob["members"]:
        assert m["status"] == "valid"
        assert m["nodes_expanded"] >= 1


def test_oracle_valid_and_invalid(capsys):
    rc, out, _ = run_cli(capsys, "oracle", "--h1", "K3", "--h2", "K3", "--graph", "K5")
    assert rc == 0
    blob = json.loads(out)
    assert blob["status"] == "valid"
    assert set(blob["coloring"].values()) <= {"red", "blue"}
    assert "0-1" in blob["coloring"]
    rc, out, _ = run_cli(capsys, "oracle", "--h1", "K3", "--h2", "K3", "--graph", "K6")
    assert rc == 0
    assert json.loads(out)["status"] == "invalid"


def test_oracle_on_a_deep_search_exits_zero(capsys):
    rc, out, _ = run_cli(capsys, "oracle", "--h1", "K3", "--h2", "K3", "--graph", "K40,40")
    assert rc == 0
    blob = json.loads(out)
    assert blob["status"] == "valid"
    assert len(blob["coloring"]) == 1600


def test_color_stuck_on_k6(capsys):
    rc, out, _ = run_cli(
        capsys, "color", "--h1", "K3", "--h2", "K3", "--graph", "K6", "--a-hat-bound", "5"
    )
    assert rc == 0
    blob = json.loads(out)
    assert blob["status"] == "stuck"
    assert blob["residual"] == emit_graph6(complete_graph(6))
    assert blob["live_anchors"] == 20


def test_color_stuck_on_k10(capsys):
    # a dense residual: 45 edges, 57,582 copies of the bound-6 catalog's
    # blockers and 45,402 maximal members; the colorer's span rule sticks
    # at once, so only the stuck audit enumerates those copies
    rc, out, _ = run_cli(capsys, "color", "--h1", "K3", "--h2", "K3", "--graph", "K10")
    assert rc == 0
    blob = json.loads(out)
    assert blob["status"] == "stuck" and blob["trace_events"] == 1
    assert blob["residual_edges"] == 45
    assert not blob["covered_once"]


def test_color_writes_artifacts(capsys, tmp_path):
    rc, out, _ = run_cli(
        capsys,
        "color", "--h1", "K4", "--h2", "C4", "--graph", "C4",
        "--a-hat-bound", "0", "--out", str(tmp_path),
    )
    assert rc == 0
    blob = json.loads(out)
    assert blob["status"] == "colored" and blob["verified"] is True
    trace_lines = (tmp_path / "color_trace.jsonl").read_text().splitlines()
    assert len(trace_lines) == blob["trace_events"]
    assert json.loads(trace_lines[0])["action"] == "push_l"
    assert json.loads((tmp_path / "color.json").read_text())["status"] == "colored"


def test_color_builds_trace_events_only_for_out(capsys, tmp_path, monkeypatch):
    # the colorer keeps a log of plain tuples; `color` counts its entries,
    # and builds TraceEvents only to write color_trace.jsonl under --out
    built = []
    original = colorer.TraceEvent

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(colorer, "TraceEvent", counting)
    for argv, status, events in (
        (["--h1", "K4", "--h2", "C4", "--graph", "C4", "--a-hat-bound", "0"], "colored", 11),
        (["--h1", "K3", "--h2", "K3", "--graph", "K6", "--a-hat-bound", "5"], "stuck", 1),
    ):
        built.clear()
        rc, out, _ = run_cli(capsys, "color", *argv)
        blob = json.loads(out)
        assert rc == 0 and blob["status"] == status and blob["trace_events"] == events
        assert built == []
        rc, out, _ = run_cli(capsys, "color", *argv, "--out", str(tmp_path))
        assert rc == 0 and json.loads(out) == blob
        assert len(built) == events
        assert len((tmp_path / "color_trace.jsonl").read_text().splitlines()) == events


def test_grow_command_artifacts(capsys, tmp_path):
    rc, out, _ = run_cli(
        capsys,
        "grow", "--h1", "K3", "--h2", "K3", "--graph", "K6",
        "--a-hat-bound", "0", "--out", str(tmp_path),
    )
    assert rc == 0
    blob = json.loads(out)
    assert blob["variant"] == "alt"  # K3/K3 is an equal pair
    assert blob["outcome"] == "hit_iteration_cap"
    assert blob["final_graph6"] == emit_graph6(complete_graph(4))
    steps = [json.loads(line) for line in (tmp_path / "grow_trace.jsonl").read_text().splitlines()]
    assert [s["kind"] for s in steps] == ["extend_alt", "extend_alt"]


def test_regular_cert_point_with_enumeration(capsys):
    rc, out, _ = run_cli(
        capsys,
        "regular-cert", "--v1", "5", "--l1", "4", "--v2", "4", "--l2", "3",
        "--h1", "K5", "--h2", "K4", "--enumerate", "12", "--confirm", "5",
    )
    assert rc == 0
    blob = json.loads(out)
    assert blob["certified"] is True
    assert blob["route"] == "Case3V2Le4"
    assert blob["margin"] == "1/17"
    assert blob["a_hat"] == {
        "vertex_bound": 12,
        "complete": True,
        "reason": "degree_density_gap",
        "members": [],
    }


def test_regular_cert_rejection(capsys):
    rc, out, _ = run_cli(capsys, "regular-cert", "--v1", "3", "--l1", "2", "--v2", "6", "--l2", "3")
    assert rc == 0
    blob = json.loads(out)
    assert blob["certified"] is False
    assert blob["kind"] == "excluded"
    assert blob["exclusions"] == ["triangle_and_k33"]


def test_regular_cert_grid_csv(capsys):
    rc, out, _ = run_cli(capsys, "regular-cert", "--grid", "4", "4", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "v1,l1,v2,l2,f,margin,route"
    assert len(lines) == 1 + 9  # 3 shapes per side on this grid
    # the K4/K4 point sits exactly on the boundary: gap and margin both zero
    assert "4,3,4,3,0,0,hypotheses_unmet" in lines


# --- trials and sweeps ------------------------------------------------------


def test_trial_full_pipeline(capsys, tmp_path):
    rc, out, _ = run_cli(
        capsys,
        "trial", "--h1", "K3", "--h2", "K3", "--n", "6", "--b", "3",
        "--mode", "full", "--a-hat-bound", "5", "--out", str(tmp_path),
    )
    assert rc == 0
    blob = json.loads(out)
    assert blob["outcome"] == "oracle_invalid"
    assert blob["edge_count"] == 15
    assert blob["grow_summary"]["outcome"] == "special_case"
    assert (tmp_path / "trial.json").exists()
    assert (tmp_path / "grow_trace.jsonl").exists()


def test_flags_a_subcommand_ignores_are_rejected(capsys):
    # --seed only on trial/sweep, --out only where artifacts are written,
    # --budget only where a coloring search's verdict is used or printed
    # (color colours blocker members at the default budget), and --mode
    # takes only the short names
    for argv in (
        ["density", "--h1", "K4", "--seed", "1"],
        ["oracle", "--h1", "K3", "--h2", "K3", "--graph", "K4", "--out", "x"],
        ["families", "--h1", "K3", "--h2", "K3", "--out", "x"],
        ["regular-cert", "--grid", "4", "4", "--seed", "1"],
        ["color", "--h1", "K3", "--h2", "K3", "--graph", "K4", "--seed", "1"],
        ["grow", "--h1", "K3", "--h2", "K3", "--graph", "K4", "--seed", "1"],
        ["grow", "--h1", "K3", "--h2", "K3", "--graph", "K4", "--variant", "alt"],
        ["grow", "--h1", "K3", "--h2", "K3", "--graph", "K4", "--budget", "5"],
        ["color", "--h1", "K3", "--h2", "K3", "--graph", "K5", "--budget", "5"],
        ["regular-cert", "--grid", "4", "4", "--budget", "5"],
        ["trial", "--h1", "K4", "--h2", "C4", "--n", "12", "--b", "1/4", "--mode", "ColorOnly"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    # --grid prints the certificate table and reads no single-pair flag
    rc, _, err = run_cli(
        capsys, "regular-cert", "--grid", "2", "2", "--enumerate", "3", "--v1", "9", "--h1", "K5"
    )
    assert rc == 2
    assert "--v1" in err and "--h1" in err and "--enumerate" in err
    # --epsilon is a pair parameter, so density reads it only with --h2
    rc, out, err = run_cli(capsys, "density", "--h1", "K4", "--epsilon", "1/10")
    assert rc == 2
    assert out == "" and "--epsilon needs --h2" in err


def test_sweep_csv_stdout_matches_flushed_file(capsys, tmp_path):
    argv = [
        "sweep", "--h1", "K3", "--h2", "K3", "--n", "8", "--b", "1/4,1/2",
        "--trials", "2", "--seed", "7", "--a-hat-bound", "4",
        "--mode", "oracle", "--format", "csv", "--out", str(tmp_path),
    ]
    rc, out1, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert out1.startswith(cli.CSV_HEADER + "\n")
    assert (tmp_path / "sweep.csv").read_text() == out1
    blob = json.loads((tmp_path / "sweep.json").read_text())
    assert blob["master_seed"] == 7 and len(blob["cells"]) == 2
    rc, out2, _ = run_cli(capsys, *argv)
    assert out2 == out1  # byte-identical rerun


def test_sweep_budget_bounds_only_the_oracle(capsys):
    # every trial here is coloured, and the colorer colours the blocker
    # members of its core at the default budget: a budget below a member's
    # search once ended this sweep in a false counterexample (exit 3)
    argv = ["sweep", "--h1", "K3", "--h2", "K3", "--n", "20,30", "--b", "1/4,1/2,1",
            "--trials", "5", "--mode", "color", "--format", "csv"]
    rc, want, _ = run_cli(capsys, *argv)
    assert rc == 0 and want.count("\n") == 7
    for budget in ("1", "10"):
        assert run_cli(capsys, *argv, "--budget", budget) == (0, want, "")


def test_sweep_empty_b_grid(capsys):
    rc, out, _ = run_cli(
        capsys,
        "sweep", "--h1", "K3", "--h2", "K3", "--n", "8", "--b", "",
        "--trials", "2", "--a-hat-bound", "4", "--format", "csv",
    )
    assert rc == 0
    assert out == cli.CSV_HEADER + "\n"


@pytest.mark.parametrize(
    "n, b, repeated",
    [("20,20", "1", "--n: 20 is repeated"), ("20", "1,2/2", "--b: 1 is repeated"),
     ("20", "1/4,1/2,2/4", "--b: 1/2 is repeated")],
    ids=["n", "b", "b-normalized"],
)
def test_sweep_rejects_a_repeated_grid_value(capsys, n, b, repeated):
    # a repeated n or b would re-run the same trials and print the same row
    # twice; b values repeat after normalization
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--h1", "K3", "--h2", "K3", "--n", n, "--b", b, "--trials", "1"])
    assert exc.value.code == 2
    assert f"argument {repeated}" in capsys.readouterr().err


# --- exit codes -------------------------------------------------------------


def test_exit_2_on_bad_input(capsys):
    rc, _, err = run_cli(capsys, "density", "--h1", "ZZZ")
    assert rc == 2 and "error:" in err
    rc, _, err = run_cli(capsys, "trial", "--h1", "K3", "--h2", "K3", "--n", "0", "--b", "1")
    assert rc == 2
    for n in ("-5", "0"):
        rc, _, err = run_cli(
            capsys, "sweep", "--h1", "K3", "--h2", "K3", "--n", n, "--b", "1", "--trials", "1"
        )
        assert rc == 2 and "n = " in err
    rc, _, err = run_cli(capsys, "regular-cert", "--v1", "4", "--l1", "3")
    assert rc == 2 and "--v2" in err
    rc, _, err = run_cli(
        capsys, "grow", "--h1", "K3", "--h2", "K3", "--graph", "P4", "--a-hat-bound", "0"
    )
    assert rc == 2 and "cannot grow" in err
    for argv in (
        ["trial", "--h1", "K3", "--h2", "K3", "--n", "10", "--b", "1/0"],
        ["sweep", "--h1", "K3", "--h2", "K3", "--n", "10", "--b", "1/0"],
        ["density", "--h1", "K3", "--h2", "K3", "--epsilon", "1/0"],
    ):
        # argparse rejects the value itself, before any subcommand runs
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        assert "zero denominator in '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize("b, edges", [("1e400", 45), ("1e-400", 0)])
def test_exit_0_on_a_b_past_float_range(capsys, b, edges):
    # p is 1 once b >= n, before b is made a float; a b that rounds to 0.0
    # as a float gives the empty host
    rc, out, _ = run_cli(capsys, "trial", "--h1", "K3", "--h2", "K3", "--n", "10", "--b", b)
    assert rc == 0
    blob = json.loads(out)
    assert blob["edge_count"] == edges and blob["p"] == (1.0 if edges else 0.0)
    rc, out, _ = run_cli(
        capsys, "sweep", "--h1", "K3", "--h2", "K3", "--n", "10", "--b", b, "--trials", "1"
    )
    assert rc == 0
    assert json.loads(out)["cells"][0]["p"] == blob["p"]


@pytest.mark.parametrize(
    "argv",
    [
        ["families", "--h1", "K3", "--h2", "K3", "--max-vertices", "-1"],
        ["color", "--h1", "K3", "--h2", "K3", "--graph", "K4", "--a-hat-bound", "-1"],
        ["grow", "--h1", "K3", "--h2", "K3", "--graph", "K4", "--a-hat-bound", "-1"],
        ["trial", "--h1", "K3", "--h2", "K3", "--n", "8", "--b", "1", "--a-hat-bound", "-2"],
        ["sweep", "--h1", "K3", "--h2", "K3", "--n", "8", "--a-hat-bound", "-1"],
        ["sweep", "--h1", "K3", "--h2", "K3", "--n", "8", "--trials", "-3"],
        ["oracle", "--h1", "K3", "--h2", "K3", "--graph", "K4", "--budget", "0"],
        ["trial", "--h1", "K3", "--h2", "K3", "--n", "8", "--b", "1", "--budget", "0"],
        ["regular-cert", "--grid", "4", "4", "--enumerate", "-1"],
        ["regular-cert", "--v1", "5", "--l1", "4", "--v2", "4", "--l2", "3", "--confirm", "-2"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
)
def test_exit_2_on_an_out_of_range_count(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: must be >=" in capsys.readouterr().err


def test_regular_cert_rejects_a_negative_grid_and_a_lone_confirm(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["regular-cert", "--grid", "-1", "-1"])
    assert exc.value.code == 2
    assert "argument --grid: must be >=" in capsys.readouterr().err
    # --confirm only acts on an --enumerate run
    for argv in (
        ["regular-cert", "--v1", "5", "--l1", "4", "--v2", "4", "--l2", "3", "--confirm", "5"],
        ["regular-cert", "--grid", "4", "4", "--confirm", "0"],
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == "" and "--confirm needs --enumerate" in err


def test_exit_3_on_invariant_violation(capsys, monkeypatch):
    def boom(g):
        raise AssertionError("broken invariant")

    monkeypatch.setattr(cli, "m2_density", boom)
    rc, _, err = run_cli(capsys, "density", "--h1", "K4")
    assert rc == 3
    assert "invariant violation" in err


@pytest.mark.parametrize(
    "limit",
    [RecursionError("maximum recursion depth exceeded"), MemoryError()],
    ids=lambda e: type(e).__name__,
)
def test_exit_2_on_a_resource_limit(capsys, monkeypatch, limit):
    # RecursionError is a RuntimeError, but a Python resource limit is not
    # an invariant violation
    def boom(args):
        raise limit

    monkeypatch.setattr(cli, "cmd_density", boom)
    rc, _, err = run_cli(capsys, "density", "--h1", "K4")
    assert rc == 2
    assert err.startswith("error: resource limit (") and type(limit).__name__ in err


def test_exit_3_names_an_uncolorable_member(capsys, monkeypatch):
    # with K6 as the only blocker member, the colorer's guard reaches a
    # clean sparse residual of one K6 copy, which color_by_members cannot
    # colour for K3/K3 (R(3,3) = 6); exit 3 names that member's graph6
    monkeypatch.setattr(cli, "blocker_members", lambda pair, bound: (complete_graph(6),))
    rc, _, err = run_cli(capsys, "color", "--h1", "K3", "--h2", "K3", "--graph", "K6")
    assert rc == 3
    assert err == (
        "counterexample: blocker member admits no valid coloring; the emptiness "
        "premise fails for this pair and epsilon: member E~~w\n"
    )
