"""Exact conflict-free connection number by bounded exhaustive search.

Colorings are enumerated as base-t odometers over canonical edge order with
the first edge's color fixed to 1 (color-swap symmetry), so the reported
witness is the lexicographically smallest successful coloring.  The budget
counts (coloring, pair) verification steps, not wall time.

The search starts at t = 3 when the cut-edge profile fails Lemma 2.2's
necessary shape (``CutEdgeProfile.lemma_2_2_shape``); ``cfc_bracket`` takes
its bounds from the same profile.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .coloring import (
    EdgeColoring,
    conflict_free_path_from_map,
    enumerate_simple_paths,
    two_coloring_hypothesis_holds,
)
from .decomposition import cut_edge_profile
from .errors import (
    BudgetExhaustedError,
    CompleteGraphError,
    NoColoringWithinMaxError,
    NotConnectedError,
    TrivialGraphError,
)
from .graph import Graph, canonical_edge, is_complete, is_connected

_PATH_CAP_PER_PAIR = 4096


@dataclass
class SearchStats:
    colorings_examined: int = 0
    verification_steps: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class CfcResult:
    value: int
    optimal_coloring: EdgeColoring
    stats: SearchStats


@dataclass
class TwoColoringSearch:
    exists: bool
    witness: Optional[EdgeColoring]
    stats: SearchStats


class _BudgetSignal(Exception):
    pass


@dataclass
class _Budget:
    limit: Optional[int]
    stats: SearchStats = field(default_factory=SearchStats)

    def spend(self) -> None:
        self.stats.verification_steps += 1
        if self.limit is not None and self.stats.verification_steps > self.limit:
            raise _BudgetSignal()


def _nonadjacent_pairs(g: Graph) -> List[Tuple[int, int]]:
    # Adjacent pairs are always conflict-free connected via their single edge.
    return [
        (u, v)
        for u in range(g.vertex_count)
        for v in range(u + 1, g.vertex_count)
        if not g.has_edge(u, v)
    ]


def _pair_path_masks(g: Graph) -> List[Tuple[int, int, Optional[List[Tuple[int, int]]]]]:
    """Per nonadjacent pair: all simple paths as (edge bitmask, length).

    A pair whose path count exceeds the cap gets None and is checked by
    depth-first search per coloring instead.
    """
    edge_index = {e: i for i, e in enumerate(g.edges)}
    out = []
    for u, v in _nonadjacent_pairs(g):
        masks: List[Tuple[int, int]] = []
        capped = False
        for p in enumerate_simple_paths(g, u, v):
            mask = 0
            for a, b in zip(p, p[1:]):
                mask |= 1 << edge_index[canonical_edge(a, b)]
            masks.append((mask, len(p) - 1))
            if len(masks) > _PATH_CAP_PER_PAIR:
                capped = True
                break
        masks.sort(key=lambda t: t[1])
        out.append((u, v, None if capped else masks))
    return out


def _colors_from_mask(m: int, emask: int) -> Tuple[int, ...]:
    return tuple(2 if (emask >> i) & 1 else 1 for i in range(m))


def _two_color_sweep(g: Graph, budget: _Budget) -> Optional[Tuple[int, ...]]:
    """Sweep all 2-colorings with the first edge fixed to color 1.

    Pair checks reduce to popcounts over precomputed path masks; the last
    failing pair is cached at the front of the pair order, which rejects most
    colorings in a single check.
    """
    m = g.edge_count
    pairs = _pair_path_masks(g)
    order = list(range(len(pairs)))
    edges = g.edges

    emask = 0  # bit i set <=> edge i has color 2; bit 0 stays 0
    while True:
        budget.stats.colorings_examined += 1
        failed_at = -1
        for pos, idx in enumerate(order):
            u, v, masks = pairs[idx]
            budget.spend()
            ok = False
            if masks is None:
                cmap = dict(zip(edges, _colors_from_mask(m, emask)))
                ok = conflict_free_path_from_map(g, cmap, u, v) is not None
            else:
                for pmask, plen in masks:
                    pc = (emask & pmask).bit_count()
                    if pc == 1 or plen - pc == 1:
                        ok = True
                        break
            if not ok:
                failed_at = pos
                break
        if failed_at == -1:
            return _colors_from_mask(m, emask)
        if failed_at != 0:
            order.insert(0, order.pop(failed_at))
        # Odometer increment in lexicographic order (last edge least significant).
        i = m - 1
        while i >= 1 and (emask >> i) & 1:
            emask &= ~(1 << i)
            i -= 1
        if i == 0:
            return None
        emask |= 1 << i


def _general_sweep(g: Graph, t: int, budget: _Budget) -> Optional[Tuple[int, ...]]:
    """Base-t odometer sweep with fail-fast depth-first pair verification."""
    m = g.edge_count
    edges = g.edges
    order = _nonadjacent_pairs(g)
    colors = [1] * m
    while True:
        budget.stats.colorings_examined += 1
        cmap = dict(zip(edges, colors))
        failed_at = -1
        for pos, (u, v) in enumerate(order):
            budget.spend()
            if conflict_free_path_from_map(g, cmap, u, v) is None:
                failed_at = pos
                break
        if failed_at == -1:
            return tuple(colors)
        if failed_at != 0:
            order.insert(0, order.pop(failed_at))
        i = m - 1
        while i >= 1 and colors[i] == t:
            colors[i] = 1
            i -= 1
        if i == 0:
            return None
        colors[i] += 1


def exact_cfc(
    g: Graph, max_colors: Optional[int] = None, budget: Optional[int] = None
) -> CfcResult:
    """Smallest number of colors making g conflict-free connected, with a
    witness coloring.  Intended for desk-scale graphs (roughly m <= 20)."""
    if g.vertex_count < 2:
        raise TrivialGraphError("cfc needs at least two vertices")
    if not is_connected(g):
        raise NotConnectedError("cfc is defined for connected graphs")
    if max_colors is None:
        max_colors = g.edge_count
    started = time.monotonic()
    tracker = _Budget(limit=budget)

    def finish(value: int, colors: Tuple[int, ...]) -> CfcResult:
        tracker.stats.elapsed_seconds = time.monotonic() - started
        return CfcResult(
            value=value,
            optimal_coloring=EdgeColoring(graph=g, colors=colors),
            stats=tracker.stats,
        )

    if is_complete(g):
        if max_colors < 1:
            raise NoColoringWithinMaxError("no coloring with zero colors")
        return finish(1, (1,) * g.edge_count)

    lower = 2 if cut_edge_profile(g).lemma_2_2_shape else 3
    for t in range(lower, max_colors + 1):
        try:
            if t == 2:
                colors = _two_color_sweep(g, tracker)
            else:
                colors = _general_sweep(g, t, tracker)
        except _BudgetSignal:
            raise BudgetExhaustedError(t, g.edge_count, tracker.stats.verification_steps)
        if colors is not None:
            return finish(t, colors)
    raise NoColoringWithinMaxError(
        f"no conflict-free connection coloring with at most {max_colors} colors"
    )


def exists_two_coloring(g: Graph, budget: Optional[int] = None) -> TwoColoringSearch:
    """Exhaustive 2-colorability check modulo fixing the first edge's color.

    Always runs the sweep; analytic lower bounds live in cfc_bracket so a
    False here is an explicit refutation certificate.
    """
    if not is_connected(g):
        raise NotConnectedError("requires a connected graph")
    if is_complete(g):
        raise CompleteGraphError("two-coloring search expects a non-complete graph")
    started = time.monotonic()
    tracker = _Budget(limit=budget)
    try:
        colors = _two_color_sweep(g, tracker)
    except _BudgetSignal:
        raise BudgetExhaustedError(2, g.edge_count, tracker.stats.verification_steps)
    tracker.stats.elapsed_seconds = time.monotonic() - started
    witness = EdgeColoring(graph=g, colors=colors) if colors is not None else None
    return TwoColoringSearch(exists=colors is not None, witness=witness, stats=tracker.stats)


def cfc_bracket(g: Graph) -> Tuple[int, int]:
    """Cheap lower/upper bounds on cfc without search."""
    if not is_connected(g):
        raise NotConnectedError("bracket is defined for connected graphs")
    if is_complete(g):
        return (1, 1)
    profile = cut_edge_profile(g)
    lower = 2 if profile.lemma_2_2_shape else 3
    if two_coloring_hypothesis_holds(profile):
        upper = 2
    else:
        upper = g.edge_count
    return (lower, upper)
