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
    UnknownTheoremError,
)
from .families import gen_path, gen_random_connected
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


def _cfc_is_two(
    g: Graph, d: BlockDecomposition, budget: Optional[int] = None
) -> Dict[str, object]:
    """Certify cfc(g) == 2, constructively from g's block decomposition ``d``
    when the two-coloring hypothesis holds (any size), otherwise by
    exhaustive search on small graphs."""
    complete = is_complete(g)
    if not complete and two_coloring_hypothesis_holds(d.profile):
        coloring = construct_two_coloring(g, d)
        verdict = verify_conflict_free_connected(coloring)
        return {"mode": "constructive", "holds": verdict.is_conflict_free_connected}
    if g.edge_count <= ORACLE_EDGE_CAP:
        # cfc = 1 exactly on complete graphs; Lemma 2.2's shape is necessary for cfc = 2.
        holds = not complete and d.profile.lemma_2_2_shape
        return {"mode": "oracle", "holds": holds and exists_two_coloring(g, budget=budget).exists}
    raise OracleInfeasibleError(
        f"graph with {g.edge_count} edges exceeds the oracle cap and the "
        "constructive route's hypothesis fails"
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
        raise UnknownTheoremError(f"unknown theorem id {which!r}")
    n = g.vertex_count
    lo, hi = _THM_4_RANGES[which]
    delta = degree_view(g).min_degree
    d, profile = _structure(g)
    clauses = {
        "order_range": n >= lo and (hi is None or n <= hi),
        "non_complete": not is_complete(g),
    }
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
    hyp = all(clauses.values())
    mode = None
    concl = None
    if hyp:
        outcome = _cfc_is_two(g, d, budget=budget)
        mode = outcome["mode"]
        concl = outcome["holds"]
    return TheoremCheck(
        theorem=which,
        hypothesis_holds=hyp,
        clauses=clauses,
        conclusion_holds=concl,
        mode=mode,
        details={"min_degree": delta, "component_orders": list(profile.component_orders)},
    )


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
    cfc = 2."""
    _require_connected(g)
    d, profile = _structure(g)
    clauses = {
        "has_cut_edges": bool(profile.cut_edges),
        "all_components_order_2": all(o == 2 for o in profile.component_orders),
    }
    hyp = all(clauses.values())
    mode = None
    concl = None
    if hyp:
        outcome = _cfc_is_two(g, d, budget=budget)
        mode = outcome["mode"]
        concl = outcome["holds"]
    return TheoremCheck(
        theorem="2.3", hypothesis_holds=hyp, clauses=clauses, conclusion_holds=concl, mode=mode
    )


def _check_lemma_2_4(g: Graph, budget: Optional[int]) -> TheoremCheck:
    """2-edge-connected non-complete forces cfc = 2."""
    _require_connected(g)
    d, _ = _structure(g)
    clauses = {
        "two_edge_connected": d is not None and not d.cut_edges,
        "non_complete": not is_complete(g),
    }
    hyp = all(clauses.values())
    mode = None
    concl = None
    if hyp:
        outcome = _cfc_is_two(g, d, budget=budget)
        mode = outcome["mode"]
        concl = outcome["holds"]
    return TheoremCheck(
        theorem="2.4", hypothesis_holds=hyp, clauses=clauses, conclusion_holds=concl, mode=mode
    )


def check_theorem(
    g: Graph, theorem: str, k: Optional[int] = None, budget: Optional[int] = None
) -> TheoremCheck:
    """Dispatch a single-graph theorem check by id."""
    if theorem == "3.1":
        return check_thm_3_1(g, k if k is not None else 3)
    if theorem == "3.4":
        return check_thm_3_4(g, k if k is not None else 5)
    if theorem in _THM_4_RANGES:
        return check_thm_4_x(g, theorem, budget=budget)
    if theorem == "2.2":
        return _check_lemma_2_2(g, budget)
    if theorem == "2.3":
        return _check_lemma_2_3(g, budget)
    if theorem == "2.4":
        return _check_lemma_2_4(g, budget)
    raise UnknownTheoremError(f"unknown theorem id {theorem!r}")


@dataclass(frozen=True)
class HarnessConfig:
    n_min: int
    n_max: int
    p_min: float = 0.3
    p_max: float = 0.9
    k: Optional[int] = None
    budget: Optional[int] = None


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


def check_sharpness(family: str, budget: Optional[int] = None, **params) -> Dict[str, object]:
    """Certify that a sharpness family misses its theorem's bound by exactly
    the advertised margin and has cfc >= 3.

    The lower bound cfc >= 3 comes from the necessary shape condition when
    the family violates it, otherwise from an exhaustive 2-coloring sweep
    (skipped with a note when the instance is beyond desk scale).
    """
    from . import families as fam

    if family == "S":
        t = params["t"]
        g = fam.gen_S(t)
        n = g.vertex_count
        delta = degree_view(g).min_degree
        margin_ok = 5 * delta == n - 5  # one unit short of 5*delta >= n-4
    elif family == "remark4-H":
        g = fam.gen_remark4_H(params["t"])
        delta = degree_view(g).min_degree
        margin_ok = delta == 2  # one short of the delta >= 3 requirement
        n = g.vertex_count
    elif family == "remark4-G":
        g = fam.gen_remark4_G(params["n"])
        n = g.vertex_count
        delta = degree_view(g).min_degree
        margin_ok = 5 * delta == n - 5
    elif family == "remark5":
        t = params["t"]
        if t < 5:
            raise UnknownTheoremError("the sharp path example needs order >= 5")
        g = gen_path(t)
        n = g.vertex_count
        delta = degree_view(g).min_degree
        margin_ok = delta == 1
    elif family == "remark6-H":
        g = fam.gen_remark6_H(params["n"])
        n = g.vertex_count
        delta = degree_view(g).min_degree
        margin_ok = 4 * delta == n - 4
    elif family == "remark6-G":
        g = fam.gen_remark6_G()
        n = g.vertex_count
        delta = degree_view(g).min_degree
        margin_ok = 4 * delta >= n - 3 and n == 15  # bound met, order below 16
    elif family == "remark7":
        g = fam.gen_remark7_G(params["n"])
        n = g.vertex_count
        delta = degree_view(g).min_degree
        s = min_nonadjacent_degree_sum(g)
        margin_ok = s is not None and 5 * s >= 2 * n - 9 and n <= 32
    else:
        raise UnknownTheoremError(f"unknown sharpness family {family!r}")

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
