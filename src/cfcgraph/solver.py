"""Exact conflict-free connection number by bounded exhaustive search.

Colorings are enumerated as base-t odometers over canonical edge order with
the first edge's color fixed to 1 (color-swap symmetry), so the reported
witness is the lexicographically smallest successful coloring.  One sweep
serves every t: each color class is an edge bitmask, and a pair check is one
popcount per class and path.  A pair's simple paths are generated lazily, as
edge bitmasks, by its own depth-first search: the sweep tries the paths it
has already pulled and pulls more only when none of them serves the pair.
Whether a pair is served does not depend on the order its paths are tried,
so the witness and the step counts do not either.  A pair whose path count
exceeds ``_PATH_CAP_PER_PAIR`` is checked by the exact verifier's per-edge
rule from the step that pulls the path past the cap.

The sweep backjumps.  A pair fails only after all its simple paths are
pulled, so the edges on them are the OR of its masks, and b, the least
significant of them, is that OR's lowest bit (``_jump``; a pair past the cap
asks the verifier for it).  Every coloring that agrees with a failing one
from b up fails at the same pair, so the sweep moves every edge below b to
color t and increments from there.  Only failing colorings are skipped, so
the witness and the value are those of the plain sweep, capped pairs
included (b depends only on the graph and the pair).
``colorings_examined`` is the odometer rank of the last coloring decided,
checked or skipped: the witness's rank plus one, or t ** (m - 1) for a sweep
that finds none.  ``verification_steps`` counts only the pair checks made,
and the budget counts those steps, not wall time.  A budget of B steps never
reaches a pair past position B, so only the first B + 1 pairs get a record.

``cfc_bracket`` is the only bound on ``exact_cfc``: the search starts at its
lower bound, and a search that runs out of budget reports its upper bound.
The lower bound is h(G) (``bridge_forest_bound``), at least 2: two vertices
of one component T of C(G), the subgraph of the cut edges, are joined in G
only by T's own path, so cfc(G) is at least cfc(T), which is at least T's
maximum degree and the path formula of T's longest path; both are read off
the block decomposition, which alone builds C(G).  h(G) <= 2 exactly
within Lemma 2.2's necessary shape (``BlockDecomposition.lemma_2_2_shape``): a
vertex on three cut edges gives h >= 3 and a path of four ceil(log2 5) = 3,
so the lemma bounds nothing that h does not.  No t below cfc has a coloring,
so starting higher skips only sweeps that find nothing: the value and the
witness stay those of a search from t = 2, and only the counters fall.
``two_coloring_certificate`` decides cfc = 2 by the construction, else by
Lemma 2.2's shape, else by ``two_coloring_sweep``, which alone reads
``ORACLE_EDGE_CAP`` and answers None past it or past the budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count, islice
from typing import Iterator, List, Optional, Tuple

from .coloring import (
    EdgeColoring,
    _serve_pairs,
    cfc_path_formula,
    construct_two_coloring,
    verify_conflict_free_connected,
)
from .decomposition import BlockDecomposition, block_decomposition
from .errors import (
    BudgetExhaustedError,
    CompleteGraphError,
    NotConnectedError,
    ParamOutOfRangeError,
    TrivialGraphError,
)
from .graph import Graph, is_complete, is_connected, nonadjacent_pairs

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


def _simple_paths(
    incident: List[List[Tuple[int, int]]],
    source: int,
    target: int,
    masks: List[Tuple[int, int]],
) -> Iterator[Tuple[int, int]]:
    """Depth-first simple source-target paths, neighbors in ascending order,
    each as (edge bitmask, length); the mask is carried down the search.
    Each path is appended to ``masks`` before it is yielded; the search stops
    right after appending the path past the cap, without yielding it.

    ``incident[x]`` lists x's (neighbor, edge bit) in ascending neighbor order.
    """
    on_path = [False] * len(incident)
    on_path[source] = True
    path = [source]
    prefix = [0]
    stack = [iter(incident[source])]
    while stack:
        for w, bit in stack[-1]:
            if on_path[w]:
                continue
            if w == target:
                entry = (prefix[-1] | bit, len(stack))
                masks.append(entry)
                if len(masks) > _PATH_CAP_PER_PAIR:
                    return
                yield entry
                continue
            on_path[w] = True
            path.append(w)
            prefix.append(prefix[-1] | bit)
            stack.append(iter(incident[w]))
            break
        else:
            stack.pop()
            prefix.pop()
            on_path[path.pop()] = False


def _pairs(g: Graph, budget: Optional[int] = None) -> List[list]:
    """Per nonadjacent pair: ``[u, v, masks, pull, jump]``, the paths pulled
    so far, the generator that pulls more, and the pair's ``_jump`` once it
    has failed; no path is generated until the sweep reads it.  The sweep
    drops ``pull`` once it is spent, and ``masks`` too when the pair has more
    paths than the cap.

    With a ``budget`` of B only the first B + 1 pairs get one: the record at
    B makes the sweep raise there rather than succeed, and it checks none past.

    Edge i of the canonical order is bit m-1-i, so the last edge is the
    least significant.
    """
    m = g.edge_count
    incident: List[List[Tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    # The canonical edges are sorted, so each list is in ascending order.
    for i, (a, b) in enumerate(g.edges):
        bit = 1 << (m - 1 - i)
        incident[a].append((b, bit))
        incident[b].append((a, bit))
    out = []
    # Adjacent pairs are always conflict-free connected via their single edge.
    for u, v in islice(nonadjacent_pairs(g), None if budget is None else budget + 1):
        masks: List[Tuple[int, int]] = []
        out.append([u, v, masks, _simple_paths(incident, u, v, masks), None])
    return out


def _jump(g: Graph, pair: list) -> int:
    """The backjump target of a failed pair of ``_pairs``: the least
    significant bit among the edges on its simple paths.

    The pair has pulled all its paths, so that is the lowest bit of their
    OR.  A pair past the cap has no masks; under the coloring that gives
    each edge its own color, the last edge color 1, the verifier tries the
    edges least significant first and stops at the first one on a u-v path.
    """
    u, v, masks = pair[:3]
    if masks is not None:
        union = 0
        for pmask, _ in masks:
            union |= pmask
        return union & -union
    served, _ = _serve_pairs(g, range(g.edge_count, 0, -1), [(u, v)])
    return 1 << (served[u, v][0] - 1)


def _colors(m: int, classes: List[int]) -> Tuple[int, ...]:
    """Per-edge colors from the masks of colors 2..t (color 1 is the rest)."""
    colors = [1] * m
    for c, cm in enumerate(classes, start=2):
        for i in range(m):
            if cm >> (m - 1 - i) & 1:
                colors[i] = c
    return tuple(colors)


def _sweep(
    g: Graph, t: int, upper: int, pairs, stats: SearchStats, budget: Optional[int]
) -> Optional[Tuple[int, ...]]:
    """Sweep the t-colorings with the first edge fixed to color 1 in odometer
    order, checking the pairs of ``_pairs``.  Each pair check is one
    verification step, added to ``stats``, however many paths it reads or
    pulls; the step past ``budget`` raises BudgetExhaustedError with the
    bracket [t, ``upper``].

    Color c >= 2 is the edge bitmask ``classes[c - 2]``; color 1 on a path
    is its length minus the other colors' counts.  The last failing pair
    moves to the front, which rejects most colorings in a single check.

    A failing pair fails under every coloring that agrees with this one on
    the pair's paths, hence on every edge from its ``_jump``, the least
    significant bit on them, up.  The sweep skips those colorings, so the
    first success is the same, and ``colorings_examined`` counts by odometer
    rank: the rank of the success plus one, or every rank, t ** (m - 1),
    when none succeeds.
    """
    m = g.edge_count
    order = list(pairs)
    classes = [0] * (t - 1)
    lower_classes = tuple(range(t - 3, -1, -1))
    first_edge = 1 << (m - 1)
    steps = stats.verification_steps
    limit = math.inf if budget is None else budget
    while True:
        pos = 0
        for pair in order:
            steps += 1
            if steps > limit:
                raise BudgetExhaustedError(t, upper, steps)
            u, v, masks, pull, _ = pair
            served = False
            if masks is not None:
                # The pulled masks first; more paths only if none serves.
                for pmask, ones in masks if pull is None else chain(masks, pull):
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
                else:
                    if pull is not None:  # every path pulled, or the cap reached
                        pair[3] = None
                        if len(masks) > _PATH_CAP_PER_PAIR:
                            masks = pair[2] = None
            if masks is None:
                served = not _serve_pairs(g, _colors(m, classes), [(u, v)])[1]
            if not served:
                if pos:
                    del order[pos]
                    order.insert(0, pair)
                break
            pos += 1
        else:
            stats.verification_steps = steps
            colors = _colors(m, classes)
            rank = 0
            for c in colors:
                rank = rank * t + c - 1
            stats.colorings_examined += rank + 1
            return colors
        # Backjump: the edges below the failing pair's jump bit go to color
        # t, so the increment below passes every coloring that differs from
        # this one only there.
        if pair[4] is None:
            pair[4] = _jump(g, pair)
        skip = pair[4] - 1
        for c in lower_classes:
            classes[c] &= ~skip
        classes[-1] |= skip
        # Odometer increment: the trailing edges at color t wrap to color 1
        # and the edge before them moves up one color.
        top = classes[-1]
        bit = (top + 1) & ~top
        if bit == first_edge:
            stats.verification_steps = steps
            stats.colorings_examined += t ** (m - 1)
            return None
        classes[-1] = top & (top + 1)
        for c in lower_classes:
            if classes[c] & bit:
                classes[c] ^= bit
                classes[c + 1] |= bit
                break
        else:
            classes[0] |= bit


def _check_budget(budget: Optional[int]) -> None:
    """A budget is a number of verification steps; None means unlimited."""
    if budget is not None and budget < 0:
        raise ParamOutOfRangeError(f"budget must be >= 0, got {budget}")


def exact_cfc(g: Graph, budget: Optional[int] = None) -> CfcResult:
    """Smallest number of colors making g conflict-free connected, with a
    witness coloring.  Intended for desk-scale graphs (roughly m <= 20).

    The sweep tries t upward from the lower bound of ``cfc_bracket``.  It
    needs no cap: at t = m the coloring that gives every edge its own color
    is conflict-free.  When ``budget`` runs out, BudgetExhaustedError carries
    the bracket [t, upper bound of ``cfc_bracket``].
    """
    if g.vertex_count < 2:
        raise TrivialGraphError("cfc needs at least two vertices")
    _check_budget(budget)
    stats = SearchStats()
    lower, upper = cfc_bracket(g)
    if lower == 1:
        return CfcResult(1, EdgeColoring(graph=g, colors=(1,) * g.edge_count), stats)
    pairs = _pairs(g, budget)
    for t in count(lower):
        colors = _sweep(g, t, upper, pairs, stats, budget)
        if colors is not None:
            return CfcResult(t, EdgeColoring(graph=g, colors=colors), stats)


def exists_two_coloring(g: Graph, budget: Optional[int] = None) -> TwoColoringSearch:
    """Exhaustive 2-colorability check modulo fixing the first edge's color.

    Always runs the sweep; analytic lower bounds live in cfc_bracket so a
    False here is an explicit refutation certificate.
    """
    _check_budget(budget)
    if not is_connected(g):
        raise NotConnectedError("requires a connected graph")
    if is_complete(g):
        raise CompleteGraphError("two-coloring search expects a non-complete graph")
    stats = SearchStats()
    colors = _sweep(g, 2, g.edge_count, _pairs(g, budget), stats, budget)
    witness = EdgeColoring(graph=g, colors=colors) if colors is not None else None
    return TwoColoringSearch(exists=colors is not None, witness=witness, stats=stats)


ORACLE_EDGE_CAP = 20  # the most edges two_coloring_sweep sweeps


def two_coloring_sweep(g: Graph, budget: Optional[int] = None) -> Tuple[Optional[bool], str]:
    """``(answer, certificate)`` by the sweep alone: "sweep" with ``exists_two_coloring``'s
    answer, or None with "skipped" past ``ORACLE_EDGE_CAP``, "budget-exhausted" past ``budget``."""
    if g.edge_count > ORACLE_EDGE_CAP:
        return None, "skipped"
    try:
        return exists_two_coloring(g, budget=budget).exists, "sweep"
    except BudgetExhaustedError:
        return None, "budget-exhausted"


def two_coloring_certificate(
    g: Graph, d: BlockDecomposition, budget: Optional[int] = None
) -> Tuple[Optional[bool], str]:
    """``(answer, certificate)``: does the connected non-complete ``g``, with
    block decomposition ``d``, have a conflict-free 2-coloring?  "constructive":
    the construction's coloring, verified; "shape": False, C(g) fails Lemma
    2.2's shape; otherwise ``two_coloring_sweep``'s answer and certificate."""
    if d.construction_applies:
        coloring = construct_two_coloring(g, d)
        return verify_conflict_free_connected(coloring).is_conflict_free_connected, "constructive"
    if not d.lemma_2_2_shape:
        return False, "shape"
    return two_coloring_sweep(g, budget)


def bridge_forest_bound(d: BlockDecomposition) -> int:
    """h(G), a lower bound on cfc(G) read off C(G) alone: over the components
    T of C(G), the largest of T's maximum degree and ``cfc_path_formula`` of
    T's longest path; 0 when G has no cut edge.

    The edges at a vertex of T pairwise form 2-edge paths, so they need
    distinct colors.  The formula is monotone, so the longest path of C(G)
    gives the largest formula of any component.
    """
    if not d.cut_edges:
        return 0
    return max(d.max_degree, cfc_path_formula(d.longest_cut_path))


def cfc_bracket(g: Graph) -> Tuple[int, int]:
    """Cheap lower/upper bounds on cfc without search.  The lower bound is
    ``bridge_forest_bound``, at least 2, which is 3 or more exactly outside
    Lemma 2.2's shape; the upper bound is 2 when the construction applies,
    else m."""
    if is_complete(g):
        return 1, 1
    d = block_decomposition(g)
    lower = max(2, bridge_forest_bound(d))
    upper = 2 if d.construction_applies else g.edge_count
    return lower, upper
