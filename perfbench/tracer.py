"""Per-layer tracing from outside the program.

`Tracer.install` replaces each public function of the cfcgraph layer modules,
in every module namespace that binds it (so `cli.read_edge_list` and
`graph.read_edge_list` both go through the wrapper), with a wrapper that
records a span: name, layer, start, end, parent span and item id.  Spans stay
in memory; `write` stores them at the end of the run.  `uninstall` restores
the original bindings, so untraced passes run the program unchanged.

A layer is a module of the package.  A span's self time is its duration
minus the durations of its child spans; a layer's self time is the sum over
its spans.  Private helpers are not wrapped, so their time counts to the
public function that called them.
"""
from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
import types
from typing import Dict, List, Optional

PACKAGE = "cfcgraph"
LAYERS = ("graph", "decomposition", "coloring", "solver", "families", "theorems", "cli")

# Called once per vertex pair or per search step: a wrapper there would cost
# more than the work it times.  Their time counts to the caller's span.
UNWRAPPED = frozenset({
    "graph.canonical_edge",
    "coloring.conflict_free_path_from_map",
    "coloring.find_conflict_free_path",
    "coloring.enumerate_simple_paths",
    "coloring.is_conflict_free_path",
})

# Calls that each run one structural (lowpoint DFS) pass of the graph.
STRUCTURAL = frozenset({
    "decomposition.find_cut_edges",
    "decomposition.block_decomposition",
    "decomposition.cut_edge_profile",
})
SEARCHES = frozenset({"solver.exact_cfc", "solver.exists_two_coloring"})

NAME, LAYER, START, END, PARENT, ITEM = range(6)


def tail_percentile(values: List[float]) -> tuple:
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, by the nearest-rank rule; (0, 0.0) below 11 samples."""
    v = sorted(values)
    n = len(v)
    for p in range(99, 0, -1):
        idx = -(-p * n // 100) - 1
        if n - idx - 1 >= 10:
            return p, v[idx]
    return 0, 0.0


def percentile(values: List[float], p: int) -> float:
    """The p-th percentile by the nearest-rank rule; 0.0 for p = 0."""
    if p == 0:
        return 0.0
    v = sorted(values)
    return v[-(-p * len(v) // 100) - 1]


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.item: Optional[str] = None
        self.counts: Dict[str, float] = {}
        self._first = 0
        self._saved: List[tuple] = []

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        if self._saved:
            return
        wrappers: Dict[int, object] = {}
        for mod in (sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS):
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
                    continue
                owner = obj.__module__.rsplit(".", 1)[-1]
                if not obj.__module__.startswith(PACKAGE + ".") or owner not in LAYERS:
                    continue
                name = f"{owner}.{obj.__name__}"
                if name in UNWRAPPED:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, name, owner)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, clock(), 0.0, stack[-1] if stack else -1, self.item])
            stack.append(idx)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                spans[idx][END] = clock()
                stack.pop()
                if hook is not None:
                    hook(args, result, error)

        return wrapper

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # Counters read from the values the layers return.

    def _after_graph_read_edge_list(self, args, result, error):
        if error is None:
            self._count("graph.parse_bytes", os.path.getsize(args[0]))

    def _after_coloring_verify_conflict_free_connected(self, args, result, error):
        if error is not None:
            return
        if result.is_conflict_free_connected:
            self._count("coloring.pairs_verified", len(result.witness_paths))
        else:
            n = args[0].graph.vertex_count
            u, v = result.failing_pair
            self._count("coloring.pairs_verified", u * n - u * (u + 1) // 2 + (v - u))

    def _search_stats(self, result, error):
        if error is not None:
            if type(error).__name__ == "BudgetExhaustedError":
                self._count("solver.budget_exhausted")
                self._count("solver.verification_steps", error.steps)
            return
        self._count("solver.colorings_examined", result.stats.colorings_examined)
        self._count("solver.verification_steps", result.stats.verification_steps)

    def _after_solver_exact_cfc(self, args, result, error):
        self._search_stats(result, error)

    def _after_solver_exists_two_coloring(self, args, result, error):
        self._search_stats(result, error)

    def _after_theorems_check_theorem(self, args, result, error):
        if error is None and result.mode is not None:
            self._count(f"theorems.mode_{result.mode}")

    # ------------------------------------------------------------ analysis

    def begin_pass(self) -> None:
        """Start a new pass: `summarize` covers spans and counts from here."""
        self._first = len(self.spans)
        self.counts.clear()

    def summarize(self, wall_s: float, items: int) -> Dict[str, float]:
        """Per-layer figures of the spans recorded since `begin_pass`."""
        every = self.spans
        spans = every[self._first:]
        child: Dict[int, float] = {}
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] = child.get(s[PARENT], 0.0) + s[END] - s[START]

        def outermost(names) -> List[list]:
            out = []
            for s in spans:
                if s[NAME] not in names:
                    continue
                p = s[PARENT]
                while p >= 0 and every[p][NAME] not in names:
                    p = every[p][PARENT]
                if p < 0:
                    out.append(s)
            return out

        def total(names) -> float:
            return sum(s[END] - s[START] for s in outermost(names))

        m: Dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                s[END] - s[START] - child.get(i, 0.0)
                for i, s in enumerate(spans, self._first)
                if s[LAYER] == layer
            )
        c = self.counts.get
        m["graph.parse_s"] = total({"graph.read_edge_list"})
        m["graph.parse_mb_per_s"] = (
            c("graph.parse_bytes", 0) / 1e6 / m["graph.parse_s"] if m["graph.parse_s"] else 0.0
        )
        m["graph.degree_sum_s"] = total({"graph.min_nonadjacent_degree_sum"})
        m["decomposition.profile_s"] = total({"decomposition.cut_edge_profile"})
        m["decomposition.passes_per_item"] = len(outermost(STRUCTURAL)) / items
        m["coloring.verify_s"] = total({"coloring.verify_conflict_free_connected"})
        m["coloring.construct_s"] = total({"coloring.construct_two_coloring"})
        pairs = c("coloring.pairs_verified", 0)
        m["coloring.pairs_verified"] = pairs
        m["coloring.verify_us_per_pair"] = m["coloring.verify_s"] / pairs * 1e6 if pairs else 0.0
        m["coloring.verify_share"] = m["coloring.verify_s"] / wall_s if wall_s else 0.0
        m["solver.search_s"] = total(SEARCHES)
        colorings = c("solver.colorings_examined", 0)
        steps = c("solver.verification_steps", 0)
        m["solver.colorings_examined"] = colorings
        m["solver.verification_steps"] = steps
        search = m["solver.search_s"]
        m["solver.colorings_per_s"] = colorings / search if search else 0.0
        m["solver.steps_per_coloring"] = steps / colorings if colorings else 0.0
        m["solver.budget_exhausted"] = c("solver.budget_exhausted", 0)
        m["families.gen_s"] = total({s[NAME] for s in spans if s[LAYER] == "families"})
        trials = [(s[END] - s[START]) * 1e3 for s in spans if s[NAME] == "theorems.check_theorem"]
        m["theorems.trial_p50_ms"] = statistics.median(trials) if trials else 0.0
        m["theorems.trial_tail_ms"] = tail_percentile(trials)[1]
        m["theorems.mode_constructive"] = c("theorems.mode_constructive", 0)
        m["theorems.mode_oracle"] = c("theorems.mode_oracle", 0)
        m["trace.wall_s"] = wall_s
        m["trace.attributed_s"] = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        m["trace.unattributed_s"] = wall_s - m["trace.attributed_s"]
        return m

    def write(self, path: str, origin: float) -> None:
        """Store the spans as JSON lines, times in seconds from `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "layer": s[LAYER], "parent": s[PARENT],
                    "item": s[ITEM], "start": s[START] - origin, "end": s[END] - origin,
                }) + "\n")
