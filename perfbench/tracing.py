"""Spans and work counters recorded around asymcolor's public functions.

The tracer replaces each target function at every module attribute that
binds it (``asymcolor.colorer.enumerate_copies`` as well as
``asymcolor.graphs.enumerate_copies``), because the modules import each
other's functions by name. It records one span per call (name, start,
end, parent) in flat arrays, counts what the returned values say about
the work done, and puts every attribute back on exit.

Self time of a span is its duration minus the durations of its direct
child spans. Functions that are only counted (``canonical_form``,
``enumerate_embeddings``) open no span, so their time stays in the
caller's self time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name). grow and grow_alt share the span "grow".
SPANNED = (
    ("harness", "sample_gnp", "harness.sample_gnp"),
    ("harness", "run_trial", "harness.run_trial"),
    ("graphs", "enumerate_copies", "graphs.enumerate_copies"),
    ("graphs", "graphs_up_to", "graphs.graphs_up_to"),
    ("density", "m_density", "density.m_density"),
    ("families", "verify_coloring", "families.verify_coloring"),
    ("families", "has_valid_coloring", "families.has_valid_coloring"),
    ("families", "blocker_decomposition", "families.blocker_decomposition"),
    ("families", "family_report", "families.family_report"),
    ("families", "color_by_members", "families.color_by_members"),
    ("families", "is_blocker", "families.is_blocker"),
    ("families", "enumerate_blockers", "families.enumerate_blockers"),
    ("colorer", "asym_edge_color", "colorer.asym_edge_color"),
    ("colorer", "check_stuck_state", "colorer.check_stuck_state"),
    ("grow", "grow", "grow"),
    ("grow", "grow_alt", "grow"),
)

COUNTED = (
    ("graphs", "canonical_form", "graphs.canonical_form"),
)

# generator functions: the wrapper counts the items they yield
YIELD_COUNTED = (
    ("graphs", "enumerate_embeddings", "graphs.enumerate_embeddings"),
)

COLORER_ACTIONS = {
    "delete_edge": "colorer.deletions",
    "retire_l": "colorer.retirements",
    "recolor_red": "colorer.recolor_flips",
}


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("asymcolor.")]


class Tracer:
    """Collects spans and counters while installed.

    roles maps id(pattern) to "h1" or "h2"; any other pattern handed to
    enumerate_copies is counted as a blocker pattern.
    """

    def __init__(self, roles: dict[int, str]):
        self.roles = roles
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self.counters: Counter[str] = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _spanned(self, fn, name: str):
        name_id = self._name_id(name)
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        counters = self.counters
        stack = self._stack
        clock = time.perf_counter
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            counters[name + ".calls"] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[name + ".raised"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yield_counted(self, fn, name: str):
        counters = self.counters
        key = name + ".yielded"

        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counters[key] += n

        return wrapper

    # -- counters read from return values ----------------------------------

    def _after_harness_sample_gnp(self, args, kwargs, g):
        self.counters["harness.sample_gnp.edges"] += g.edge_count

    def _after_graphs_enumerate_copies(self, args, kwargs, copy_set):
        pattern = args[1] if len(args) > 1 else kwargs["pattern"]
        role = self.roles.get(id(pattern), "blocker")
        self.counters["graphs.enumerate_copies.copies." + role] += len(copy_set)

    def _after_families_has_valid_coloring(self, args, kwargs, search):
        self.counters["families.oracle.nodes"] += search.nodes_expanded
        if search.status == "budget_exceeded":
            self.counters["families.oracle.wasted_nodes"] += search.nodes_expanded

    def _after_families_is_blocker(self, args, kwargs, accepted):
        self.counters["families.is_blocker.accepted"] += bool(accepted)

    def _after_colorer_asym_edge_color(self, args, kwargs, outcome):
        self.counters["colorer.colored"] += outcome.status == "colored"
        for event in outcome.trace:
            key = COLORER_ACTIONS.get(event.action)
            if key is not None:
                self.counters[key] += 1

    def _after_grow(self, args, kwargs, result):
        self.counters["grow.steps"] += len(result[1].steps)

    # -- installation --------------------------------------------------------

    def _patch_everywhere(self, module_name: str, attr: str, make) -> None:
        original = getattr(sys.modules["asymcolor." + module_name], attr)
        wrapper = make(original)
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, wrapper)

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore them all after."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        try:
            for module_name, attr, name in SPANNED:
                self._patch_everywhere(module_name, attr, lambda fn, n=name: self._spanned(fn, n))
            for module_name, attr, name in COUNTED:
                self._patch_everywhere(module_name, attr, lambda fn, n=name: self._counted(fn, n))
            for module_name, attr, name in YIELD_COUNTED:
                self._patch_everywhere(
                    module_name, attr, lambda fn, n=name: self._yield_counted(fn, n)
                )
            yield self
        finally:
            for module, name, original in reversed(self._patched):
                setattr(module, name, original)
            self._patched.clear()

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        count = len(self.span_start)
        child = array("d", bytes(8 * count))
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        totals = dict.fromkeys(self.names, 0.0)
        for i in range(count):
            own = self.span_end[i] - self.span_start[i] - child[i]
            totals[self.names[self.span_name[i]]] += own
        return totals


def package_bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded asymcolor module, for checking that
    an installation left nothing behind."""
    return {(m.__name__, k): v for m in _package_modules() for k, v in vars(m).items()}
