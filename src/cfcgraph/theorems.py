"""Executable hypothesis/conclusion predicates for the degree-condition
results, a seeded randomized counterexample hunt, and sharpness certification
for the extremal families.

All threshold comparisons use exact integer/rational arithmetic, e.g.
"delta >= (n-4)/5" is tested as 5*delta >= n-4.  Each bound is written once,
in its theorem's row, which the sharpness checks read too.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from .decomposition import BlockDecomposition, block_decomposition
from .errors import ParamOutOfRangeError, UnknownTheoremError
from .families import FAMILIES, _check_size, family_params, gen_random_connected
from .graph import Graph, is_complete, min_degree, min_nonadjacent_degree_sum
from .solver import _check_budget, two_coloring_certificate, two_coloring_sweep


@dataclass(frozen=True)
class TheoremCheck:
    """Evaluation of one theorem on one graph."""

    theorem: str
    hypothesis_holds: bool
    clauses: Dict[str, bool]
    conclusion_holds: Optional[bool]  # None: the hypothesis fails, or no certificate decides it
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
    inconclusive_count: int = 0

    def to_payload(self) -> Dict[str, object]:
        """The report as JSON-ready fields; ``inconclusive_count`` only when
        some trial was inconclusive."""
        payload = {
            "theorem": self.theorem,
            "trials": self.trials,
            "seed": self.seed,
            "hypothesis_pass_count": self.hypothesis_pass_count,
            "conclusion_fail_count": self.conclusion_fail_count,
            "clause_breakdown": dict(sorted(self.clause_breakdown.items())),
            "counterexample_trial": self.counterexample_trial,
        }
        if self.inconclusive_count:
            payload["inconclusive_count"] = self.inconclusive_count
        return payload


def thm_3_4_order_thresholds(k: int) -> Dict[str, int]:
    """The two candidate order thresholds (the displayed one and the one the
    derivation actually ends with), as ceilings of exact rationals over k - 4;
    a k below the 3.4 row's least raises ParamOutOfRangeError."""
    _row_k("3.4", k)
    base = (k // 2) * k * (k - 2)
    displayed = Fraction(base + k * k - 5 * k + 3, k - 4)
    derived = Fraction(base + k * k - 5 * k + 2, k - 4)
    return {
        "displayed": max(k * k + k, math.ceil(displayed)),
        "derived": max(k * k + k, math.ceil(derived)),
    }


def _degree_sum_bound(g: Graph, k: int) -> bool:
    """Every nonadjacent pair has degree sum >= (2n-2k+1)/k; vacuously true
    for complete graphs."""
    s = min_nonadjacent_degree_sum(g)
    return s is None or k * s >= 2 * g.vertex_count - 2 * k + 1


def _thm_3_1_clauses(g: Graph, d: BlockDecomposition, k: int):
    """delta >= (n-k+1)/k on order n >= k^2."""
    n = g.vertex_count
    clauses = {
        "order_at_least_k_squared": n >= k * k,
        "min_degree_bound": k * min_degree(g) >= n - k + 1,
    }
    return clauses, {"k": k, "cut_edges": len(d.cut_edges)}


def _thm_3_4_clauses(g: Graph, d: BlockDecomposition, k: int):
    """Degree sum >= (2n-2k+1)/k over nonadjacent pairs, above an order
    threshold."""
    n = g.vertex_count
    thresholds = thm_3_4_order_thresholds(k)
    clauses = {
        "order_threshold": n >= thresholds["displayed"],
        "degree_sum_bound": _degree_sum_bound(g, k),
    }
    details = {
        "k": k,
        "cut_edges": len(d.cut_edges),
        "order_thresholds": thresholds,
        "between_thresholds": thresholds["derived"] <= n < thresholds["displayed"],
    }
    return clauses, details


def _cut_edge_bound(g, d, k, budget):
    """Conclusion of 3.1 and 3.4: at most k-2 cut edges."""
    return len(d.cut_edges) <= k - 2, None


def _cfc_two_check(g, d, k, budget):
    """Conclusion cfc = 2 of a sufficient condition, decided by
    ``two_coloring_certificate`` from g's block decomposition ``d``: mode
    "constructive" for the construction, "oracle" for a shape refutation or
    a sweep; both None when no certificate decides it."""
    concl, certificate = two_coloring_certificate(g, d, budget)
    mode = "constructive" if certificate == "constructive" else "oracle"
    return concl, None if concl is None else mode


def _no_two_coloring(g, d, k, budget):
    """Lemma 2.2's contrapositive: outside the shape there is no conflict-free
    2-coloring, decided by ``two_coloring_sweep`` alone (a certificate that
    used the shape would assume the lemma); both None when undecided."""
    two_colorable, _ = two_coloring_sweep(g, budget)
    return (None, None) if two_colorable is None else (not two_colorable, "oracle")


class _KRule(NamedTuple):
    least: int  # the least k, also the default
    bound: str  # names the result when k is too small
    base_order: Callable[[int], int]  # the least order the harness samples for k


@dataclass(frozen=True)
class _Theorem:
    """One result of the paper, and the only source of its check's rules.
    ``clauses(g, d, k)``, d g's block decomposition, gives the hypothesis as
    ``(clauses, details)`` without a search.  ``conclusion(g, d, k, budget)``,
    the only search, runs only when every clause holds and returns
    ``(conclusion, mode)``, both None when undecided.  The harness samples
    orders in [n_min, n_max] and edge probabilities in [p_min, p_max]
    (``ranges``), or for a row with a k rule orders base..base+5, base
    ``k.base_order(k)``, with p in [0.5, 0.9]."""

    clauses: Callable[..., Tuple[Dict[str, bool], Dict[str, object]]]
    conclusion: Callable[..., Tuple[Optional[bool], Optional[str]]]
    ranges: Optional[Tuple[int, int, float, float]] = None
    k: Optional[_KRule] = None
    degree: Optional[Callable[[Graph, int, int], bool]] = None  # 4.x: on (g, n, delta)


def _thm_4(lo: int, hi: Optional[int], linear_forest: bool, name: str, holds, ranges) -> _Theorem:
    """A sufficient condition 4.x for cfc = 2: its stated order range [lo, hi]
    taken literally, C(G) a linear forest when ``linear_forest``, the degree
    clause ``name``, ``holds(g, n, delta)``, and non-completeness (cfc = 1
    exactly on complete graphs)."""

    def clauses(g: Graph, d: BlockDecomposition, k: Optional[int]):
        n = g.vertex_count
        delta = min_degree(g)
        result = {"order_range": n >= lo and (hi is None or n <= hi)}
        if linear_forest:
            result["linear_forest"] = d.is_linear_forest
        result[name] = holds(g, n, delta)
        result["non_complete"] = not is_complete(g)
        return result, {"min_degree": delta, "component_orders": list(d.component_orders)}

    return _Theorem(clauses, _cfc_two_check, ranges, degree=holds)


_THEOREMS = {
    # Lemma 2.2 as its contrapositive: C(G) outside the shape forces cfc != 2.
    "2.2": _Theorem(lambda g, d, k: ({"outside_shape": not d.lemma_2_2_shape}, {}),
                    _no_two_coloring, (4, 7, 0.3, 0.9)),
    # At least one bridge, and every bridge component of order 2.
    "2.3": _Theorem(lambda g, d, k: ({
        "has_cut_edges": bool(d.cut_edges),
        "all_components_order_2": all(o == 2 for o in d.component_orders),
        "non_complete": not is_complete(g),
    }, {}), _cfc_two_check, (5, 9, 0.25, 0.55)),
    # 2-edge-connected; the one-vertex graph has no block, so it is not.
    "2.4": _Theorem(lambda g, d, k: ({
        "two_edge_connected": bool(d.block_count) and not d.cut_edges,
        "non_complete": not is_complete(g),
    }, {}), _cfc_two_check, (4, 9, 0.4, 0.9)),
    # Base order k^2, the least order 3.1's order clause admits.
    "3.1": _Theorem(_thm_3_1_clauses, _cut_edge_bound,
                    k=_KRule(3, "cut-edge bound", lambda k: k * k)),
    # Base order: the displayed threshold, the least order 3.4's order clause admits.
    "3.4": _Theorem(_thm_3_4_clauses, _cut_edge_bound,
                    k=_KRule(5, "degree-sum cut-edge bound",
                             lambda k: thm_3_4_order_thresholds(k)["displayed"])),
    "4.1": _thm_4(25, None, True, "min_degree_bound", lambda g, n, delta: 5 * delta >= n - 4,
                  (25, 30, 0.5, 0.9)),
    "4.2": _thm_4(9, 24, True, "min_degree_bound",
                  lambda g, n, delta: delta >= 3 and 5 * delta >= n - 4, (9, 16, 0.4, 0.9)),
    "4.3": _thm_4(4, 8, True, "min_degree_bound", lambda g, n, delta: delta >= 2,
                  (4, 8, 0.4, 0.9)),
    "4.4": _thm_4(16, None, False, "min_degree_bound", lambda g, n, delta: 4 * delta >= n - 3,
                  (16, 20, 0.5, 0.9)),
    "4.5": _thm_4(33, None, True, "degree_sum_bound", lambda g, n, delta: _degree_sum_bound(g, 5),
                  (33, 36, 0.5, 0.9)),
}
THEOREM_IDS = tuple(_THEOREMS)


def _row_k(theorem: str, k: Optional[int]) -> Tuple[_Theorem, Optional[int]]:
    """The row of ``theorem`` and its k.  A row with a k rule takes its
    least k when k is None, and refuses a smaller one; any other row
    refuses every k but None.  An unknown theorem raises
    UnknownTheoremError, a refused k ParamOutOfRangeError."""
    if theorem not in _THEOREMS:
        raise UnknownTheoremError(f"unknown theorem id {theorem!r}")
    row = _THEOREMS[theorem]
    if row.k is None:
        if k is not None:
            raise ParamOutOfRangeError(f"theorem {theorem} takes no k")
    elif k is None:
        k = row.k.least
    elif k < row.k.least:
        raise ParamOutOfRangeError(f"the {row.k.bound} needs k >= {row.k.least}")
    return row, k


def check_theorem(
    g: Graph, theorem: str, k: Optional[int] = None, budget: Optional[int] = None
) -> TheoremCheck:
    """Evaluate one theorem's row on ``g`` from one block decomposition: its
    hypothesis clauses, then, when they all hold, its conclusion.  3.1 and
    3.4 take ``k``, their least k when it is None; the other theorems refuse
    one.  The conclusion is None when the hypothesis fails, or when it holds
    and its search is undecided: skipped past the sweep cap, or out of
    ``budget``.  Every TheoremCheck is built here."""
    row, k = _row_k(theorem, k)
    d = block_decomposition(g)
    clauses, details = row.clauses(g, d, k)
    hyp = all(clauses.values())
    concl, mode = row.conclusion(g, d, k, budget) if hyp else (None, None)
    return TheoremCheck(theorem, hyp, clauses, concl, mode, details)


def _trial_seed(seed: int, trial: int) -> int:
    # Splittable derivation: independent of trial execution order.
    return (seed * 1_000_003 + trial) & 0xFFFFFFFF


def run_harness(
    theorem: str,
    trials: int,
    seed: int,
    k: Optional[int] = None,
    n_min: Optional[int] = None,
    n_max: Optional[int] = None,
    budget: Optional[int] = None,
) -> TheoremReport:
    """Sample random connected graphs from the theorem's row, filter on its
    hypothesis, and assert its conclusion.  Reproducible from the arguments.
    Before the first sample it resolves k as ``check_theorem`` does, takes
    the row's order and edge-probability ranges, lets ``n_min``/``n_max``
    override the order range, and rejects an empty order range, one that
    starts below 2, one whose top order the generators' size cap
    (``families._check_size``) refuses, a negative ``budget`` (None means
    unlimited) and negative ``trials``.  A trial is inconclusive when its
    hypothesis holds and its conclusion is None (the search was skipped or
    exhausted ``budget``): it is counted in ``inconclusive_count`` and in no
    other count."""
    row, k = _row_k(theorem, k)
    if row.k is None:
        lo, hi, p_min, p_max = row.ranges
    else:
        lo = row.k.base_order(k)
        hi, p_min, p_max = lo + 5, 0.5, 0.9
    lo, hi = (lo if n_min is None else n_min), (hi if n_max is None else n_max)
    if lo > hi:
        raise ParamOutOfRangeError(f"empty order range: n_min {lo} > n_max {hi}")
    if lo < 2:
        raise ParamOutOfRangeError(f"order range must start at 2 or more, got n_min {lo}")
    _check_size(hi, hi * (hi - 1) // 2)
    _check_budget(budget)
    if trials < 0:
        raise ParamOutOfRangeError(f"trials must be >= 0, got {trials}")
    hypothesis_pass = 0
    conclusion_fail = 0
    inconclusive = 0
    clause_breakdown: Dict[str, int] = {}
    counterexample = None
    counterexample_trial = None
    for trial in range(trials):
        rng = random.Random(_trial_seed(seed, trial))
        n = rng.randint(lo, hi)
        p = rng.uniform(p_min, p_max)
        g = gen_random_connected(n, p, seed=rng.randrange(2**31))
        check = check_theorem(g, theorem, k=k, budget=budget)
        if check.hypothesis_holds and check.conclusion_holds is None:
            inconclusive += 1
            continue
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
        inconclusive_count=inconclusive,
    )


# Sharpness family -> (registry family, theorem id, the bound missed):
# "degree" when the theorem's degree clause fails at the family's minimum
# degree delta and holds at delta + 1, "order" when order_range is the only
# one of the theorem's clauses the family fails.
SHARPNESS = {
    "S": ("S", "4.1", "degree"),
    "remark4-H": ("remark4-H", "4.2", "degree"),
    "remark4-G": ("remark4-G", "4.2", "degree"),
    "remark5": ("path", "4.3", "degree"),
    "remark6-H": ("remark6-H", "4.4", "degree"),
    "remark6-G": ("remark6-G", "4.4", "order"),
    "remark7": ("remark7-G", "4.5", "order"),
}


def check_sharpness(family: str, *params: int, budget: Optional[int] = None) -> Dict[str, object]:
    """Certify that a sharpness family misses its theorem's bound by one
    unit (``margin_ok``) and has cfc >= 3.  ``params`` are the registry
    family's, keyed by ``family_params``' names in the payload.
    ``refutation`` names the certificate of ``two_coloring_certificate``;
    ``holds`` is None when the margin is met but no certificate decides
    cfc >= 3: "skipped", or "budget-exhausted" when the sweep runs past
    ``budget``.  A negative ``budget`` is out of range; None means unlimited.
    """
    if family not in SHARPNESS:
        raise UnknownTheoremError(f"unknown sharpness family {family!r}")
    _check_budget(budget)
    generator, theorem_id, bound = SHARPNESS[family]
    names = family_params(generator, params, family)
    g = FAMILIES[generator](*params)
    n = g.vertex_count
    if family == "remark5" and n < 5:
        # Remark 5's path: delta = 1 and cfc = ceil(log2 n) >= 3 from n = 5.
        raise ParamOutOfRangeError("the sharp path example needs order >= 5")
    d = block_decomposition(g)
    delta = min_degree(g)
    theorem = _THEOREMS[theorem_id]
    if bound == "degree":
        margin_ok = not theorem.degree(g, n, delta) and theorem.degree(g, n, delta + 1)
    else:
        failed = [name for name, ok in theorem.clauses(g, d, None)[0].items() if not ok]
        margin_ok = failed == ["order_range"]
    two_colorable, refutation = two_coloring_certificate(g, d, budget)
    cfc_at_least_3 = None if two_colorable is None else not two_colorable
    return {
        "family": family,
        "params": dict(zip(names, params)),
        "n": n,
        "m": g.edge_count,
        "min_degree": delta,
        "margin_ok": margin_ok,
        "refutation": refutation,
        "cfc_at_least_3": cfc_at_least_3,
        "holds": cfc_at_least_3 if margin_ok else False,
    }
