"""Command line front end.

A thin argparse layer over the library. Exit codes: 0 on success, 2 when
the configuration is rejected (bad flags, malformed graphs, parameters out
of range, a host that cannot be grown) or a run hits a resource limit
(RecursionError, MemoryError), 3 when an internal invariant or a certified
claim is violated; code-3 failures name the offending object on stderr.

Graphs on the command line are either small named shapes (K5, C4, P6,
K3,3, Q3, octahedron) or graph6 strings. The named forms win ties, which
is safe because a bare letter-plus-digits token is never valid graph6:
digits fall outside the body alphabet.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .colorer import ColorerInternalError, asym_edge_color, check_stuck_state
from .density import build_pair_spec, d2_density, d_density, m2_asym, m2_density, m_density
from .families import (
    DEFAULT_ORACLE_BUDGET,
    UncolorableMemberError,
    blocker_decomposition,
    blocker_members,
    enumerate_blockers,
    has_valid_coloring,
)
from .graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cube_graph,
    cycle_graph,
    emit_graph6,
    extract_from_edges,
    octahedron_graph,
    parse_graph6,
    path_graph,
)
from .grow import GrowError, grow, grow_alt
from .harness import (
    CSV_HEADER,
    DEFAULT_A_HAT_BOUND,
    TrialConfig,
    csv_row,
    render_csv,
    run_trial,
    sweep,
)
from .regular import (
    RegularPairParams,
    certificate_grid,
    certify_emptiness,
    enumerate_a_hat,
    gap_poly,
    m2_pair_regular,
)

DEFAULT_B_GRID = "1/8,1/4,1/2,1,2,4"

_NAMED = {
    "Q3": cube_graph,
    "CUBE": cube_graph,
    "OCTAHEDRON": octahedron_graph,
    "K222": octahedron_graph,
}

_MODES = {
    "color": "ColorOnly",
    "oracle": "ColorPlusOracle",
    "full": "FullPipeline",
}


def parse_graph_arg(text: str) -> Graph:
    s = text.strip()
    upper = s.upper()
    if upper in _NAMED:
        return _NAMED[upper]()
    m = re.fullmatch(r"K(\d+),(\d+)", upper)
    if m:
        return complete_bipartite(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"([KCP])(\d+)", upper)
    if m:
        n = int(m.group(2))
        return {"K": complete_graph, "C": cycle_graph, "P": path_graph}[m.group(1)](n)
    return parse_graph6(s)


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _distinct(values: list) -> list:
    """values, rejected if one repeats: a repeated grid value re-runs the
    same trials and prints the same row twice. Fractions compare
    normalized, so 1 and 2/2 repeat."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise argparse.ArgumentTypeError(f"{value} is repeated")
    return values


def _int_list(text: str) -> list[int]:
    return _distinct([int(x) for x in text.split(",") if x.strip()])


def _fraction_list(text: str) -> list[Fraction]:
    return _distinct([_fraction(x) for x in text.split(",") if x.strip()])


def _pair_from(args):
    h1 = parse_graph_arg(args.h1)
    h2 = parse_graph_arg(args.h2)
    if args.epsilon is None:
        return build_pair_spec(h1, h2)
    return build_pair_spec(h1, h2, args.epsilon)


def _edge_key(e) -> str:
    return f"{e[0]}-{e[1]}"


def _emit(payload, fmt: str) -> None:
    """JSON to stdout, or the flat key,value CSV rendering of the same dict."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    rows = csv.writer(sys.stdout, lineterminator="\n")
    rows.writerow(("key", "value"))
    for k, v in payload.items():
        if isinstance(v, (dict, list)):
            v = json.dumps(v, separators=(",", ":"))
        rows.writerow((k, str(v)))  # None prints as None, not as an empty field


def _write_artifact(out: Path | None, name: str, text: str) -> None:
    if out is None:
        return
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)


def _jsonl(rows) -> str:
    return "".join(json.dumps(r) + "\n" for r in rows)


def _profile_dict(g: Graph) -> dict:
    m2, m2_witness = m2_density(g)
    return {
        "graph6": emit_graph6(g),
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "d": str(d_density(g)),
        "m": str(m_density(g)[0]),
        "d2": str(d2_density(g)),
        "m2": str(m2),
        "m2_witness_vertices": list(m2_witness),
    }


# --- subcommands ------------------------------------------------------------


def cmd_density(args) -> int:
    if args.h2 is None and args.epsilon is not None:
        raise ValueError("--epsilon needs --h2")
    payload: dict = {"h1": _profile_dict(parse_graph_arg(args.h1))}
    if args.h2 is not None:
        pair = _pair_from(args)
        _, witness = m2_asym(pair.h1, pair.h2)
        payload["h2"] = _profile_dict(pair.h2)
        payload["pair"] = {
            "m2_pair": str(pair.m2_pair),
            "gamma": str(pair.gamma),
            "epsilon": str(pair.epsilon),
            "case": pair.case,
            "witness_vertices": list(witness),
            "hypotheses": {
                "distinct": pair.hypotheses.distinct,
                "h2_strictly_two_balanced": pair.hypotheses.h2_strictly_two_balanced,
                "h1_case_balance": pair.hypotheses.h1_case_balance,
            },
        }
    _emit(payload, args.format)
    return 0


def cmd_families(args) -> int:
    pair = _pair_from(args)
    catalog = enumerate_blockers(pair, args.max_vertices, args.budget)
    members = [
        {"graph6": emit_graph6(e.graph), "vertices": e.graph.vertex_count, "edges": e.graph.edge_count,
         "status": e.search.status, "nodes_expanded": e.search.nodes_expanded}
        for e in catalog.entries
    ]
    if args.format == "csv":
        print("graph6,vertices,edges")
        for m in members:
            print(f"{m['graph6']},{m['vertices']},{m['edges']}")
        return 0
    _emit(
        {
            "h1": emit_graph6(pair.h1),
            "h2": emit_graph6(pair.h2),
            "epsilon": str(pair.epsilon),
            "max_vertices": args.max_vertices,
            "count": len(members),
            "members": members,
        },
        args.format,
    )
    return 0


def cmd_oracle(args) -> int:
    pair = _pair_from(args)
    g = parse_graph_arg(args.graph)
    search = has_valid_coloring(g, pair, args.budget)
    payload = {
        "graph6": emit_graph6(g),
        "status": search.status,
        "nodes_expanded": search.nodes_expanded,
    }
    if search.coloring is not None:
        payload["coloring"] = {
            _edge_key(e): c for e, c in sorted(search.coloring.assignment.items())
        }
    _emit(payload, args.format)
    return 0


def cmd_color(args) -> int:
    pair = _pair_from(args)
    g = parse_graph_arg(args.graph)
    blockers = blocker_members(pair, args.a_hat_bound)
    outcome = asym_edge_color(g, pair, blockers)
    payload: dict = {
        "graph6": emit_graph6(g),
        "status": outcome.status,
        "trace_events": len(outcome.log),  # one event per log entry
        "blockers": len(blockers),
    }
    if outcome.status == "colored":
        # asym_edge_color has checked this coloring against every h1- and
        # h2-copy of g (families.verify_from_copies)
        payload["verified"] = True
        payload["coloring"] = {
            _edge_key(e): c for e, c in sorted(outcome.coloring.assignment.items())
        }
    else:
        decomp = check_stuck_state(outcome, pair)
        payload["residual"] = emit_graph6(decomp.graph)
        payload["residual_edges"] = decomp.graph.edge_count
        payload["live_anchors"] = len(outcome.live_anchors)
        payload["covered_once"] = decomp.covered_once
        payload["sparse"] = decomp.sparse
    if args.out is not None:  # the trace's TraceEvents are built only to be written
        _write_artifact(args.out, "color_trace.jsonl", _jsonl(ev.to_dict() for ev in outcome.trace))
        _write_artifact(args.out, "color.json", json.dumps(payload, indent=2) + "\n")
    _emit(payload, args.format)
    return 0


def cmd_grow(args) -> int:
    pair = _pair_from(args)
    host = parse_graph_arg(args.graph)
    blockers = blocker_members(pair, args.a_hat_bound)
    variant, grower = ("anchored", grow) if pair.case == "strict" else ("alt", grow_alt)
    final, trace = grower(blocker_decomposition(host, pair, blockers), pair)
    payload = {
        "variant": variant,
        "outcome": trace.outcome,
        "steps": [s.to_dict() for s in trace.steps],
        "final_graph6": emit_graph6(final),
        "final_vertices": final.vertex_count,
        "final_edges": final.edge_count,
        "host_edges_used": len(trace.host_edges),
    }
    _write_artifact(args.out, "grow_trace.jsonl", _jsonl(s.to_dict() for s in trace.steps))
    _write_artifact(args.out, "grow.json", json.dumps(payload, indent=2) + "\n")
    _emit(payload, args.format)
    return 0


def cmd_trial(args) -> int:
    pair = _pair_from(args)
    config = TrialConfig(
        pair, args.n, args.b, args.seed, args.budget, _MODES[args.mode], args.a_hat_bound
    )
    result = run_trial(config)
    payload = result.to_dict()
    _write_artifact(args.out, "trial.json", json.dumps(payload, indent=2) + "\n")
    if result.grow_trace is not None:
        _write_artifact(
            args.out, "grow_trace.jsonl", _jsonl(s.to_dict() for s in result.grow_trace.steps)
        )
    _emit(payload, args.format)
    return 0


def cmd_sweep(args) -> int:
    pair = _pair_from(args)
    sink = None
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        sink = (args.out / "sweep.csv").open("w")
        sink.write(CSV_HEADER + "\n")
        sink.flush()

    def flush_cell(cell):
        if sink is not None:
            sink.write(csv_row(cell, args.csv_timing) + "\n")
            sink.flush()

    try:
        report = sweep(
            pair,
            args.n,
            args.b,
            trials=args.trials,
            seed=args.seed,
            mode=_MODES[args.mode],
            budget=args.budget,
            a_hat_bound=args.a_hat_bound,
            on_cell=flush_cell,
        )
    finally:
        if sink is not None:
            sink.close()
    _write_artifact(args.out, "sweep.json", json.dumps(report.to_dict(), indent=2) + "\n")
    if args.format == "csv":
        sys.stdout.write(render_csv(report, args.csv_timing))
    else:
        _emit(report.to_dict(), "json")
    return 0


def cmd_regular_cert(args) -> int:
    if args.confirm is not None and args.enumerate is None:
        raise ValueError("--confirm needs --enumerate")
    if args.grid is not None:
        ignored = [
            f"--{k}"
            for k in ("v1", "l1", "v2", "l2", "h1", "h2", "enumerate")
            if getattr(args, k) is not None
        ]
        if ignored:
            raise ValueError(f"--grid does not combine with {', '.join(ignored)}")
        v1_max, v2_max = args.grid
        rows = []
        for p, result in certificate_grid(v1_max, v2_max):
            rows.append(
                {
                    "v1": p.v1,
                    "l1": p.l1,
                    "v2": p.v2,
                    "l2": p.l2,
                    "f": gap_poly(p),
                    "margin": str(p.degree_floor - m2_pair_regular(p)),
                    "route": result.route if result else result.kind,
                }
            )
        if args.format == "csv":
            print("v1,l1,v2,l2,f,margin,route")
            for r in rows:
                print(f"{r['v1']},{r['l1']},{r['v2']},{r['l2']},{r['f']},{r['margin']},{r['route']}")
        else:
            print(json.dumps(rows, indent=2))
        return 0

    missing = [k for k in ("v1", "l1", "v2", "l2") if getattr(args, k) is None]
    if missing:
        raise ValueError(f"--{missing[0]} is required without --grid")
    params = RegularPairParams(args.v1, args.v2, args.l1, args.l2)
    h1 = parse_graph_arg(args.h1) if args.h1 else None
    h2 = parse_graph_arg(args.h2) if args.h2 else None
    result = certify_emptiness(params, h1, h2)
    payload = result.to_dict()
    if args.enumerate is not None:
        pair = build_pair_spec(h1, h2) if h1 is not None and h2 is not None else None
        enum = enumerate_a_hat(params, args.enumerate, pair=pair, confirm_to=args.confirm or 0)
        payload["a_hat"] = {
            "vertex_bound": enum.vertex_bound,
            "complete": enum.complete,
            "reason": enum.reason,
            "members": [emit_graph6(m) for m in enum.members],
        }
    _emit(payload, args.format)
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")

    out_arg = argparse.ArgumentParser(add_help=False)
    out_arg.add_argument("--out", type=Path, default=None, help="directory for artifacts")

    seed_arg = argparse.ArgumentParser(add_help=False)
    seed_arg.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    pair_args = argparse.ArgumentParser(add_help=False)
    pair_args.add_argument("--h1", required=True, help="denser target: K5, C4, K3,3, Q3, or graph6")
    pair_args.add_argument("--h2", required=True, help="sparser target, same forms")
    pair_args.add_argument("--epsilon", type=_fraction, default=None, help="slack, default 1/100")

    budget_arg = argparse.ArgumentParser(add_help=False)
    budget_arg.add_argument("--budget", type=_positive, default=DEFAULT_ORACLE_BUDGET)

    graph_arg = argparse.ArgumentParser(add_help=False)
    graph_arg.add_argument("--graph", required=True)

    a_hat_arg = argparse.ArgumentParser(add_help=False)
    a_hat_arg.add_argument("--a-hat-bound", type=_count, default=DEFAULT_A_HAT_BOUND)

    top = argparse.ArgumentParser(prog="asymcolor")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", parents=[common], help="exact density measures")
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", default=None)
    p.add_argument("--epsilon", type=_fraction, default=None)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser(
        "families", parents=[common, pair_args, budget_arg], help="enumerate the blocker catalog"
    )
    p.add_argument("--max-vertices", type=_count, default=DEFAULT_A_HAT_BOUND)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser(
        "oracle", parents=[common, pair_args, budget_arg, graph_arg], help="exhaustive colorability check"
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "color",
        parents=[common, out_arg, pair_args, graph_arg, a_hat_arg],
        help="run the stack colorer",
    )
    p.set_defaults(func=cmd_color)

    p = sub.add_parser(
        "grow",
        parents=[common, out_arg, pair_args, graph_arg, a_hat_arg],
        help="grow a witness from a host",
    )
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser(
        "trial",
        parents=[common, out_arg, seed_arg, pair_args, budget_arg, a_hat_arg],
        help="one seeded G(n,p) trial",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=_fraction, required=True)
    p.add_argument("--mode", choices=tuple(_MODES), default="oracle")
    p.set_defaults(func=cmd_trial)

    p = sub.add_parser(
        "sweep",
        parents=[common, out_arg, seed_arg, pair_args, budget_arg, a_hat_arg],
        help="trial grid over n and b",
    )
    p.add_argument("--n", type=_int_list, required=True, help="comma list, e.g. 12,16,20")
    p.add_argument("--b", type=_fraction_list, default=_fraction_list(DEFAULT_B_GRID))
    p.add_argument("--trials", type=_count, default=20)
    p.add_argument("--mode", choices=tuple(_MODES), default="color")
    p.add_argument("--csv-timing", action="store_true", help="real mean_ms in the CSV (breaks byte reproducibility)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "regular-cert",
        parents=[common],
        help="emptiness certificates for regular pairs",
    )
    p.add_argument("--v1", type=int, default=None)
    p.add_argument("--l1", type=int, default=None)
    p.add_argument("--v2", type=int, default=None)
    p.add_argument("--l2", type=int, default=None)
    p.add_argument("--h1", default=None, help="optional concrete graph to validate")
    p.add_argument("--h2", default=None)
    p.add_argument("--grid", type=_count, nargs=2, metavar=("V1MAX", "V2MAX"), default=None)
    p.add_argument("--enumerate", type=_count, default=None, metavar="BOUND")
    p.add_argument("--confirm", type=_count, default=None, metavar="BOUND", help="with --enumerate")
    p.set_defaults(func=cmd_regular_cert)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GrowError as err:
        print(f"error: cannot grow this host: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as err:
        print(f"error: resource limit ({err!r})", file=sys.stderr)
        return 2
    except UncolorableMemberError as err:
        member, _ = extract_from_edges(err.member.edges)
        print(f"counterexample: {err}: member {emit_graph6(member)}", file=sys.stderr)
        return 3
    except (AssertionError, RuntimeError, ColorerInternalError) as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
