"""The stack colorer against traces captured before its deletion phase was
rewritten around a heap of unpinned edges and on-demand blocker copies.

Each line of data/colorer_traces.jsonl names one seeded host and holds the
sha256 of everything asym_edge_color returns about it: status, trace,
coloring, residual and live anchors. The hosts are G(n, p(b)) samples for
n in {12, 16, 20} and b in {1, 3/2, 2} under K3/K3 (bound-6 catalog),
K4/C4 and K5/C4 (no catalog), plus K6..K9 under K3/K3, then n = 40, b = 1
under each pair. The K5/C4 ones hold 1,069-1,547 C4 copies, past
CopySet.index's 1,024-copy chunk, and never pin an edge. Running this file
as a script rewrites the data file from the colorer it imports.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from asymcolor.colorer import asym_edge_color
from asymcolor.density import build_pair_spec
from asymcolor.families import enumerate_blockers
from asymcolor.graphs import complete_graph, cycle_graph
from asymcolor.harness import derive_seed, edge_probability, sample_gnp

DATA = Path(__file__).parent / "data" / "colorer_traces.jsonl"
MASTER_SEED = 20261019
TRIALS = 4


def outcome_digest(out) -> str:
    record = {
        "status": out.status,
        "trace": [ev.to_dict() for ev in out.trace],
        "coloring": None
        if out.coloring is None
        else sorted([list(e), c] for e, c in out.coloring.assignment.items()),
        "residual": None
        if out.residual is None
        else [out.residual.vertex_count, [list(e) for e in out.residual.edges]],
        "live_anchors": None
        if out.live_anchors is None
        else [
            [[list(e) for e in c.sort_key()], sorted(c.vertices)]
            for c in out.live_anchors.copies
        ],
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def traced_hosts():
    """(label, pair, blockers, host) for every pinned host, in file order."""
    k3k3 = build_pair_spec(complete_graph(3), complete_graph(3))
    k4c4 = build_pair_spec(complete_graph(4), cycle_graph(4))
    k5c4 = build_pair_spec(complete_graph(5), cycle_graph(4))
    catalog = enumerate_blockers(k3k3, 6).members
    pairs = (("K3/K3", k3k3, catalog), ("K4/C4", k4c4, ()), ("K5/C4", k5c4, ()))
    for name, pair, blockers in pairs:
        for n in (12, 16, 20):
            for b in (Fraction(1), Fraction(3, 2), Fraction(2)):
                p = edge_probability(pair, n, b)
                for t in range(TRIALS):
                    g = sample_gnp(n, p, derive_seed(MASTER_SEED, n, b, t))
                    yield f"{name} n={n} b={b} t={t}", pair, blockers, g
    for k in range(6, 10):
        yield f"K3/K3 K{k}", k3k3, catalog, complete_graph(k)
    for name, pair, blockers in pairs:
        p = edge_probability(pair, 40, Fraction(1))
        for t in range(TRIALS):
            g = sample_gnp(40, p, derive_seed(MASTER_SEED, 40, Fraction(1), t))
            yield f"{name} n=40 b=1 t={t}", pair, blockers, g


def trace_lines():
    for label, pair, blockers, g in traced_hosts():
        out = asym_edge_color(g, pair, blockers)
        yield {"host": label, "status": out.status, "sha256": outcome_digest(out)}


def test_colorer_matches_captured_traces():
    expected = [json.loads(line) for line in DATA.read_text().splitlines()]
    assert list(trace_lines()) == expected


if __name__ == "__main__":
    DATA.write_text("".join(json.dumps(line) + "\n" for line in trace_lines()))
    print(f"wrote {DATA}", file=sys.stderr)
