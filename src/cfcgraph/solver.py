"""Exact conflict-free connection number by bounded exhaustive search.

Colorings are enumerated as base-t odometers over canonical edge order with
the first edge's color fixed to 1 (color-swap symmetry), so the reported
witness is the lexicographically smallest successful coloring.  One sweep
serves every t: each color class is an edge bitmask, and a pair check is one
popcount per class and path; a pair with more than ``_PATH_CAP_PER_PAIR``
simple paths is checked by the exact verifier's per-edge rule instead.  The
budget counts (coloring, pair) verification steps, not wall time.

``exact_cfc`` starts its search at the lower bound of ``cfc_bracket``, which
is 3 when the cut-edge profile fails Lemma 2.2's necessary shape
(``CutEdgeProfile.lemma_2_2_shape``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .coloring import (
    EdgeColoring,
    _serve_pairs,
    enumerate_simple_paths,
    two_coloring_hypothesis_holds,
)
from .decomposition import block_decomposition
from .errors import (
    BudgetExhaustedError,
    CompleteGraphError,
    NoColoringWithinMaxError,
    NotConnectedError,
    TrivialGraphError,
)
from .graph import Graph, canonical_edge, is_complete, is_connected, nonadjacent_pairs

_PATH_CAP_PER_PAIR = 4096


@dataclass
class SearchStats:
    colorings_examined: int = 0
    verification_steps: int = 0


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


def _pair_path_masks(g: Graph) -> List[Tuple[int, int, Optional[List[Tuple[int, int]]]]]:
    """Per nonadjacent pair: all simple paths as (edge bitmask, length).

    Edge i of the canonical order is bit m-1-i, so the last edge is the
    least significant.  A pair whose path count exceeds the cap gets None and
    is checked per coloring by the exact verifier instead.
    """
    m = g.edge_count
    edge_bit = {e: 1 << (m - 1 - i) for i, e in enumerate(g.edges)}
    out = []
    # Adjacent pairs are always conflict-free connected via their single edge.
    for u, v in nonadjacent_pairs(g):
        masks: List[Tuple[int, int]] = []
        capped = False
        for p in enumerate_simple_paths(g, u, v):
            mask = 0
            for a, b in zip(p, p[1:]):
                mask |= edge_bit[canonical_edge(a, b)]
            masks.append((mask, len(p) - 1))
            if len(masks) > _PATH_CAP_PER_PAIR:
                capped = True
                break
        masks.sort(key=lambda t: t[1])
        out.append((u, v, None if capped else masks))
    return out


def _colors(m: int, classes: List[int]) -> Tuple[int, ...]:
    """Per-edge colors from the masks of colors 2..t (color 1 is the rest)."""
    colors = [1] * m
    for c, cm in enumerate(classes, start=2):
        for i in range(m):
            if cm >> (m - 1 - i) & 1:
                colors[i] = c
    return tuple(colors)


def _sweep(
    g: Graph, t: int, pairs, stats: SearchStats, budget: Optional[int]
) -> Optional[Tuple[int, ...]]:
    """Sweep all t-colorings with the first edge fixed to color 1, checking
    the pairs of ``_pair_path_masks``.  Each pair check is one verification
    step, added to ``stats``; the step past ``budget`` raises
    BudgetExhaustedError.

    Color c >= 2 is the edge bitmask ``classes[c - 2]``; color 1 on a path
    is its length minus the other colors' counts.  The last failing pair
    moves to the front, which rejects most colorings in a single check.
    """
    m = g.edge_count
    order = list(pairs)
    classes = [0] * (t - 1)
    lower_classes = tuple(range(t - 3, -1, -1))
    first_edge = 1 << (m - 1)
    steps = stats.verification_steps
    limit = math.inf if budget is None else budget
    while True:
        stats.colorings_examined += 1
        pos = 0
        for pair in order:
            steps += 1
            if steps > limit:
                raise BudgetExhaustedError(t, m, steps)
            u, v, masks = pair
            if masks is None:
                served = not _serve_pairs(g, _colors(m, classes), [(u, v)])[1]
            else:
                served = False
                for pmask, ones in masks:
                    for cm in classes:
                        k = (cm & pmask).bit_count()
                        if k == 1:
                            break
                        ones -= k
                    else:  # no color c >= 2 occurs once; try color 1
                        if ones != 1:
                            continue
                    served = True
                    break
            if not served:
                if pos:
                    del order[pos]
                    order.insert(0, pair)
                break
            pos += 1
        else:
            stats.verification_steps = steps
            return _colors(m, classes)
        # Odometer increment: the trailing edges at color t wrap to color 1
        # and the edge before them moves up one color.
        top = classes[-1]
        bit = (top + 1) & ~top
        if bit == first_edge:
            stats.verification_steps = steps
            return None
        classes[-1] = top & (top + 1)
        for c in lower_classes:
            if classes[c] & bit:
                classes[c] ^= bit
                classes[c + 1] |= bit
                break
        else:
            classes[0] |= bit


def exact_cfc(
    g: Graph, max_colors: Optional[int] = None, budget: Optional[int] = None
) -> CfcResult:
    """Smallest number of colors making g conflict-free connected, with a
    witness coloring.  Intended for desk-scale graphs (roughly m <= 20)."""
    if g.vertex_count < 2:
        raise TrivialGraphError("cfc needs at least two vertices")
    if max_colors is None:
        max_colors = g.edge_count
    stats = SearchStats()
    lower = cfc_bracket(g)[0]
    if lower == 1:
        if max_colors < 1:
            raise NoColoringWithinMaxError("no coloring with zero colors")
        return CfcResult(1, EdgeColoring(graph=g, colors=(1,) * g.edge_count), stats)
    pairs = _pair_path_masks(g)
    for t in range(lower, max_colors + 1):
        colors = _sweep(g, t, pairs, stats, budget)
        if colors is not None:
            return CfcResult(t, EdgeColoring(graph=g, colors=colors), stats)
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
    stats = SearchStats()
    colors = _sweep(g, 2, _pair_path_masks(g), stats, budget)
    witness = EdgeColoring(graph=g, colors=colors) if colors is not None else None
    return TwoColoringSearch(exists=colors is not None, witness=witness, stats=stats)


def cfc_bracket(g: Graph) -> Tuple[int, int]:
    """Cheap lower/upper bounds on cfc without search."""
    if is_complete(g):
        return (1, 1)
    profile = block_decomposition(g).profile
    lower = 2 if profile.lemma_2_2_shape else 3
    if two_coloring_hypothesis_holds(profile):
        upper = 2
    else:
        upper = g.edge_count
    return (lower, upper)
