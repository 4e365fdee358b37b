"""Executable hypothesis/conclusion predicates for the degree-condition
results, a seeded randomized counterexample hunt, and sharpness certification
for the extremal families.

All threshold comparisons use exact integer/rational arithmetic, e.g.
"delta >= (n-4)/5" is tested as 5*delta >= n-4.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .coloring import (
    construct_two_coloring,
    two_coloring_hypothesis_holds,
    verify_conflict_free_connected,
)
from .decomposition import (
    BlockDecomposition,
    CutEdgeProfile,
    block_decomposition,
    count_cut_edges,
    cut_edge_profile,
)
from .errors import (
    NotConnectedError,
    OracleInfeasibleError,
    ParamOutOfRangeError,
    UnknownTheoremError,
)
from .families import FAMILIES, gen_random_connected
from .graph import (
    Graph,
    degree_view,
    is_complete,
    is_connected,
    min_nonadjacent_degree_sum,
)
from .solver import exists_two_coloring

ORACLE_EDGE_CAP = 20


@dataclass(frozen=True)
class TheoremCheck:
    """Evaluation of one theorem on one graph."""

    theorem: str
    hypothesis_holds: bool
    clauses: Dict[str, bool]
    conclusion_holds: Optional[bool]  # None when the hypothesis fails
    mode: Optional[str] = None
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def is_counterexample(self) -> bool:
        return self.hypothesis_holds and self.conclusion_holds is False


@dataclass
class TheoremReport:
    """Aggregate of a randomized verification run."""

    theorem: str
    trials: int
    seed: int
    hypothesis_pass_count: int
    conclusion_fail_count: int
    clause_breakdown: Dict[str, int]
    counterexample: Optional[Graph] = None
    counterexample_trial: Optional[int] = None

    def to_payload(self) -> Dict[str, object]:
        return {
            "theorem": self.theorem,
            "trials": self.trials,
            "seed": self.seed,
            "hypothesis_pass_count": self.hypothesis_pass_count,
            "conclusion_fail_count": self.conclusion_fail_count,
            "clause_breakdown": dict(sorted(self.clause_breakdown.items())),
            "counterexample_trial": self.counterexample_trial,
        }


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise NotConnectedError("theorem predicates need a connected graph")


def _structure(g: Graph) -> Tuple[Optional[BlockDecomposition], CutEdgeProfile]:
    """A check's one structural pass: g's block decomposition and its C(G).
    The one-vertex graph has no blocks, only an empty C(G)."""
    if g.vertex_count < 2:
        return None, cut_edge_profile(g)
    d = block_decomposition(g)
    return d, d.profile


def check_thm_3_1(g: Graph, k: int) -> TheoremCheck:
    """delta >= (n-k+1)/k on order n >= k^2 forces at most k-2 cut edges."""
    _require_connected(g)
    if k < 3:
        raise UnknownTheoremError("the cut-edge bound needs k >= 3")
    n = g.vertex_count
    delta = degree_view(g).min_degree
    clauses = {
        "order_at_least_k_squared": n >= k * k,
        "min_degree_bound": k * delta >= n - k + 1,
    }
    hyp = all(clauses.values())
    cut_edges = count_cut_edges(g)
    return TheoremCheck(
        theorem="3.1",
        hypothesis_holds=hyp,
        clauses=clauses,
        conclusion_holds=cut_edges <= k - 2 if hyp else None,
        details={"k": k, "cut_edges": cut_edges},
    )


def thm_3_4_order_thresholds(k: int) -> Dict[str, int]:
    """The two candidate order thresholds (the displayed one and the one the
    derivation actually ends with), as ceilings of exact rationals."""
    base = (k // 2) * k * (k - 2)
    displayed = Fraction(base + k * k - 5 * k + 3, k - 4)
    derived = Fraction(base + k * k - 5 * k + 2, k - 4)
    return {
        "displayed": max(k * k + k, math.ceil(displayed)),
        "derived": max(k * k + k, math.ceil(derived)),
    }


def check_thm_3_4(g: Graph, k: int) -> TheoremCheck:
    """Degree-sum >= (2n-2k+1)/k over nonadjacent pairs forces at most k-2
    cut edges, above an order threshold."""
    _require_connected(g)
    if k < 5:
        raise UnknownTheoremError("the degree-sum cut-edge bound needs k >= 5")
    n = g.vertex_count
    thresholds = thm_3_4_order_thresholds(k)
    s = min_nonadjacent_degree_sum(g)
    clauses = {
        "order_threshold": n >= thresholds["displayed"],
        # Vacuously true for complete graphs.
        "degree_sum_bound": s is None or k * s >= 2 * n - 2 * k + 1,
    }
    hyp = all(clauses.values())
    cut_edges = count_cut_edges(g)
    details = {
        "k": k,
        "cut_edges": cut_edges,
        "order_thresholds": thresholds,
        "between_thresholds": thresholds["derived"] <= n < thresholds["displayed"],
    }
    return TheoremCheck(
        theorem="3.4",
        hypothesis_holds=hyp,
        clauses=clauses,
        conclusion_holds=cut_edges <= k - 2 if hyp else None,
        details=details,
    )


def _cfc_two_check(
    theorem: str,
    g: Graph,
    d: Optional[BlockDecomposition],
    clauses: Dict[str, bool],
    budget: Optional[int],
    details: Optional[Dict[str, object]] = None,
) -> TheoremCheck:
    """Check a sufficient condition for cfc = 2 given by ``clauses``, plus
    non-completeness (cfc = 1 exactly on complete graphs).  When it holds,
    certify cfc(g) == 2, constructively from g's block decomposition ``d``
    when the two-coloring hypothesis holds (any size), otherwise by
    exhaustive search on small graphs."""
    clauses["non_complete"] = not is_complete(g)
    hyp = all(clauses.values())
    mode = None
    concl = None
    if hyp and two_coloring_hypothesis_holds(d.profile):
        mode = "constructive"
        concl = verify_conflict_free_connected(
            construct_two_coloring(g, d)
        ).is_conflict_free_connected
    elif hyp:
        if g.edge_count > ORACLE_EDGE_CAP:
            raise OracleInfeasibleError(
                f"graph with {g.edge_count} edges exceeds the oracle cap and the "
                "constructive route's hypothesis fails"
            )
        # Lemma 2.2's shape is necessary for cfc = 2.
        mode = "oracle"
        concl = d.profile.lemma_2_2_shape and exists_two_coloring(g, budget=budget).exists
    return TheoremCheck(
        theorem=theorem,
        hypothesis_holds=hyp,
        clauses=clauses,
        conclusion_holds=concl,
        mode=mode,
        details=details or {},
    )


_THM_4_RANGES = {
    "4.1": (25, None),
    "4.2": (9, 24),
    "4.3": (4, 8),
    "4.4": (16, None),
    "4.5": (33, None),
}


def check_thm_4_x(g: Graph, which: str, budget: Optional[int] = None) -> TheoremCheck:
    """The sufficient conditions for cfc = 2, each with its stated order
    range taken literally."""
    _require_connected(g)
    if which not in _THM_4_RANGES:
        raise UnknownTheoremError(f"{which!r} is not one of the theorems 4.x")
    n = g.vertex_count
    lo, hi = _THM_4_RANGES[which]
    delta = degree_view(g).min_degree
    d, profile = _structure(g)
    clauses = {"order_range": n >= lo and (hi is None or n <= hi)}
    if which in ("4.1", "4.2", "4.3", "4.5"):
        clauses["linear_forest"] = profile.is_linear_forest
    if which == "4.1":
        clauses["min_degree_bound"] = 5 * delta >= n - 4
    elif which == "4.2":
        clauses["min_degree_bound"] = delta >= 3 and 5 * delta >= n - 4
    elif which == "4.3":
        clauses["min_degree_bound"] = delta >= 2
    elif which == "4.4":
        clauses["min_degree_bound"] = 4 * delta >= n - 3
    else:
        s = min_nonadjacent_degree_sum(g)
        clauses["degree_sum_bound"] = s is None or 5 * s >= 2 * n - 9
    details = {"min_degree": delta, "component_orders": list(profile.component_orders)}
    return _cfc_two_check(which, g, d, clauses, budget, details)


def _check_lemma_2_2(g: Graph, budget: Optional[int]) -> TheoremCheck:
    """cfc = 2 forces the bridge subgraph to be a linear forest with every
    component of at most three edges."""
    _require_connected(g)
    feasible = g.edge_count <= ORACLE_EDGE_CAP
    cfc_two = False
    if feasible and g.vertex_count >= 2 and not is_complete(g):
        # By the sweep alone: a search that assumed the lemma's shape could never refute it.
        cfc_two = exists_two_coloring(g, budget=budget).exists
    clauses = {"oracle_feasible": feasible, "cfc_equals_two": cfc_two}
    hyp = feasible and cfc_two
    concl = None
    if hyp:
        concl = cut_edge_profile(g).lemma_2_2_shape
    return TheoremCheck(
        theorem="2.2", hypothesis_holds=hyp, clauses=clauses, conclusion_holds=concl,
        mode="oracle" if feasible else None,
    )


def _check_lemma_2_3(g: Graph, budget: Optional[int]) -> TheoremCheck:
    """All bridge components of order 2 (and at least one bridge) forces
    cfc = 2 on a non-complete graph."""
    _require_connected(g)
    d, profile = _structure(g)
    clauses = {
        "has_cut_edges": bool(profile.cut_edges),
        "all_components_order_2": all(o == 2 for o in profile.component_orders),
    }
    return _cfc_two_check("2.3", g, d, clauses, budget)


def _check_lemma_2_4(g: Graph, budget: Optional[int]) -> TheoremCheck:
    """2-edge-connected non-complete forces cfc = 2."""
    _require_connected(g)
    d, _ = _structure(g)
    clauses = {"two_edge_connected": d is not None and not d.cut_edges}
    return _cfc_two_check("2.4", g, d, clauses, budget)


# The theorem ids.  The harness samples orders in [n_min, n_max] and edge
# probabilities in [p_min, p_max]; None marks the cut-edge bounds, which
# sample orders base..base+5 with p in [0.5, 0.9] (_K_BOUNDS).
_HARNESS_RANGES = {
    "2.2": (4, 7, 0.3, 0.9),
    "2.3": (5, 9, 0.25, 0.55),
    "2.4": (4, 9, 0.4, 0.9),
    "3.1": None,
    "3.4": None,
    "4.1": (25, 30, 0.5, 0.9),
    "4.2": (9, 16, 0.4, 0.9),
    "4.3": (4, 8, 0.4, 0.9),
    "4.4": (16, 20, 0.5, 0.9),
    "4.5": (33, 36, 0.5, 0.9),
}
THEOREM_IDS = tuple(_HARNESS_RANGES)
# The cut-edge bounds: default k, and base order k^2 (3.1) or k^2 + k (3.4),
# the least order their order clause admits.
_K_BOUNDS = {"3.1": (3, lambda k: k * k), "3.4": (5, lambda k: k * k + k)}
THEOREMS_WITH_K = tuple(_K_BOUNDS)


def _require_theorem_id(theorem: str) -> None:
    if theorem not in _HARNESS_RANGES:
        raise UnknownTheoremError(f"unknown theorem id {theorem!r}")


def check_theorem(
    g: Graph, theorem: str, k: Optional[int] = None, budget: Optional[int] = None
) -> TheoremCheck:
    """Dispatch a single-graph theorem check by id; 3.1 and 3.4 take ``k``,
    with their default when it is None."""
    _require_theorem_id(theorem)
    if theorem in _THM_4_RANGES:
        return check_thm_4_x(g, theorem, budget=budget)
    if theorem in _K_BOUNDS:
        k = _K_BOUNDS[theorem][0] if k is None else k
        return check_thm_3_1(g, k) if theorem == "3.1" else check_thm_3_4(g, k)
    lemmas = {"2.2": _check_lemma_2_2, "2.3": _check_lemma_2_3, "2.4": _check_lemma_2_4}
    return lemmas[theorem](g, budget)


@dataclass(frozen=True)
class HarnessConfig:
    n_min: int
    n_max: int
    p_min: float = 0.3
    p_max: float = 0.9
    k: Optional[int] = None
    budget: Optional[int] = None


def harness_config(
    theorem: str,
    k: Optional[int] = None,
    n_min: Optional[int] = None,
    n_max: Optional[int] = None,
    budget: Optional[int] = None,
) -> HarnessConfig:
    """The harness sampling for ``theorem``: its default ranges, or for 3.1
    and 3.4 orders from the base order of ``k`` up; ``n_min``/``n_max``
    override the order range."""
    _require_theorem_id(theorem)
    ranges = _HARNESS_RANGES[theorem]
    if ranges is None:
        default_k, base_order = _K_BOUNDS[theorem]
        k = default_k if k is None else k
        base = base_order(k)
        ranges = (base, base + 5, 0.5, 0.9)
    lo, hi, p_min, p_max = ranges
    lo, hi = (lo if n_min is None else n_min), (hi if n_max is None else n_max)
    return HarnessConfig(lo, hi, p_min, p_max, k=k, budget=budget)


def _trial_seed(seed: int, trial: int) -> int:
    # Splittable derivation: independent of trial execution order.
    return (seed * 1_000_003 + trial) & 0xFFFFFFFF


def run_harness(
    theorem: str, trials: int, seed: int, config: HarnessConfig
) -> TheoremReport:
    """Sample random connected graphs, filter on the theorem's hypothesis,
    and assert its conclusion.  Reproducible from (theorem, seed, trials)."""
    hypothesis_pass = 0
    conclusion_fail = 0
    clause_breakdown: Dict[str, int] = {}
    counterexample = None
    counterexample_trial = None
    for trial in range(trials):
        rng = random.Random(_trial_seed(seed, trial))
        n = rng.randint(config.n_min, config.n_max)
        p = rng.uniform(config.p_min, config.p_max)
        g = gen_random_connected(n, p, seed=rng.randrange(2**31))
        check = check_theorem(g, theorem, k=config.k, budget=config.budget)
        for name, ok in check.clauses.items():
            clause_breakdown[name] = clause_breakdown.get(name, 0) + int(ok)
        if check.hypothesis_holds:
            hypothesis_pass += 1
            if check.conclusion_holds is False:
                conclusion_fail += 1
                if counterexample is None:
                    counterexample = g
                    counterexample_trial = trial
    return TheoremReport(
        theorem=theorem,
        trials=trials,
        seed=seed,
        hypothesis_pass_count=hypothesis_pass,
        conclusion_fail_count=conclusion_fail,
        clause_breakdown=clause_breakdown,
        counterexample=counterexample,
        counterexample_trial=counterexample_trial,
    )


def _remark5_margin(g: Graph, n: int, delta: int) -> bool:
    """4.3: delta = 1 on a path of order n >= 5, whose cfc is ceil(log2 n) >= 3."""
    if n < 5:
        raise ParamOutOfRangeError("the sharp path example needs order >= 5")
    return delta == 1


def _remark7_margin(g: Graph, n: int, delta: int) -> bool:
    """4.5: the degree-sum bound met, the order below 33."""
    s = min_nonadjacent_degree_sum(g)
    return s is not None and 5 * s >= 2 * n - 9 and n <= 32


# Sharpness family -> (registry family, its one parameter or None, margin
# predicate on (g, n, delta)): each misses the bound of the theorem it shows
# best possible by the margin the predicate asserts.
SHARPNESS = {
    # 4.1: one unit short of 5*delta >= n-4.
    "S": ("S", "t", lambda g, n, delta: 5 * delta == n - 5),
    # 4.2: one short of delta >= 3.
    "remark4-H": ("remark4-H", "t", lambda g, n, delta: delta == 2),
    # 4.2: one unit short of 5*delta >= n-4.
    "remark4-G": ("remark4-G", "n", lambda g, n, delta: 5 * delta == n - 5),
    "remark5": ("path", "t", _remark5_margin),
    # 4.4: one unit short of 4*delta >= n-3.
    "remark6-H": ("remark6-H", "n", lambda g, n, delta: 4 * delta == n - 4),
    # 4.4: the bound met, the order one below 16.
    "remark6-G": ("remark6-G", None, lambda g, n, delta: 4 * delta >= n - 3 and n == 15),
    "remark7": ("remark7-G", "n", _remark7_margin),
}


def check_sharpness(family: str, budget: Optional[int] = None, **params) -> Dict[str, object]:
    """Certify that a sharpness family misses its theorem's bound by exactly
    the advertised margin and has cfc >= 3.  ``params`` is the family's one
    parameter (``t`` or ``n``), or empty for a family without one.

    The lower bound cfc >= 3 comes from the necessary shape condition when
    the family violates it, otherwise from an exhaustive 2-coloring sweep
    (skipped with a note when the instance is beyond desk scale).
    """
    if family not in SHARPNESS:
        raise UnknownTheoremError(f"unknown sharpness family {family!r}")
    generator, param, margin = SHARPNESS[family]
    if list(params) != ([param] if param else []):
        takes = f"parameter {param}" if param else "no parameter"
        given = ", ".join(sorted(params)) or "none"
        raise ParamOutOfRangeError(f"sharpness family {family!r} takes {takes}, given {given}")
    g = FAMILIES[generator](*params.values())
    n = g.vertex_count
    delta = degree_view(g).min_degree
    margin_ok = margin(g, n, delta)

    if not cut_edge_profile(g).lemma_2_2_shape:
        refutation = "shape"
        cfc_at_least_3 = True
    elif g.edge_count <= ORACLE_EDGE_CAP:
        refutation = "sweep"
        cfc_at_least_3 = not exists_two_coloring(g, budget=budget).exists
    else:
        refutation = "skipped"
        cfc_at_least_3 = None
    return {
        "family": family,
        "params": dict(sorted(params.items())),
        "n": n,
        "m": g.edge_count,
        "min_degree": delta,
        "margin_ok": margin_ok,
        "refutation": refutation,
        "cfc_at_least_3": cfc_at_least_3,
        "holds": bool(margin_ok and (cfc_at_least_3 is not False)),
    }
