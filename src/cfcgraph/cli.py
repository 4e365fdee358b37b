"""Command-line front end: analyze, color2, cfc, gen, verify.

Exit codes: 0 success / claim holds, 2 parse or usage error, 3 hypothesis
violated, 4 budget exhausted, 5 counterexample found.  All JSON output is
deterministic for fixed flags (sorted keys, no timestamps).
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from . import families
from .coloring import (
    EdgeColoring,
    construct_two_coloring,
    format_coloring,
    verify_conflict_free_connected,
)
from .decomposition import block_decomposition, count_cut_edges
from .errors import (
    BudgetExhaustedError,
    CfcError,
    CompleteGraphError,
    EdgeListParseError,
    HypothesisViolatedError,
    ParamOutOfRangeError,
)
from .graph import Graph, degree_view, format_edge_list, is_complete, is_connected, read_edge_list
from .solver import exact_cfc
from .theorems import HarnessConfig, check_sharpness, run_harness

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4
EXIT_COUNTEREXAMPLE = 5


def _emit(payload: Dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for key in sorted(payload):
            out.write(f"{key}: {payload[key]}\n")


def _graph_dot(g: Graph, coloring: Optional[EdgeColoring] = None) -> str:
    lines = ["graph g {"]
    cmap = coloring.as_dict() if coloring is not None else {}
    for e in g.edges:
        attr = f' [label="{cmap[e]}"]' if e in cmap else ""
        lines.append(f"  {e[0]} -- {e[1]}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_analyze(args) -> int:
    g = read_edge_list(args.input)
    if g.vertex_count == 0:
        raise EdgeListParseError("graph must have at least one vertex", 1)
    if args.format == "dot":
        _write_output(_graph_dot(g), args.out)
        return EXIT_OK
    connected = is_connected(g)
    payload: Dict = {
        "command": "analyze",
        "n": g.vertex_count,
        "m": g.edge_count,
        "min_degree": degree_view(g).min_degree,
        "connected": connected,
        "complete": is_complete(g),
    }
    if connected and g.vertex_count >= 2:
        decomp = block_decomposition(g)
        profile = decomp.profile
        payload.update(
            {
                "cut_edge_count": len(profile.cut_edges),
                "cut_edges": [list(e) for e in sorted(profile.cut_edges)],
                "is_linear_forest": profile.is_linear_forest,
                "component_orders": list(profile.component_orders),
                "max_component_edges": profile.max_component_edges,
                "block_count": len(decomp.blocks),
                "nontrivial_block_count": sum(
                    1 for b in decomp.blocks if not b.is_trivial
                ),
                "cut_vertices": sorted(decomp.cut_vertices),
            }
        )
    _emit(payload, args.format, sys.stdout)
    return EXIT_OK


def cmd_color2(args) -> int:
    g = read_edge_list(args.input)
    coloring = construct_two_coloring(g)
    verdict = verify_conflict_free_connected(coloring)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(format_coloring(coloring))
    if args.format == "dot":
        sys.stdout.write(_graph_dot(g, coloring))
        return EXIT_OK
    payload = {
        "command": "color2",
        "verified": verdict.is_conflict_free_connected,
        "palette_size": coloring.palette_size,
        "coloring": [
            [e[0], e[1], c] for e, c in zip(g.edges, coloring.colors)
        ],
    }
    _emit(payload, args.format, sys.stdout)
    return EXIT_OK if verdict.is_conflict_free_connected else EXIT_COUNTEREXAMPLE


def cmd_cfc(args) -> int:
    g = read_edge_list(args.input)
    try:
        result = exact_cfc(g, max_colors=args.max_colors, budget=args.budget)
    except BudgetExhaustedError as exc:
        payload = {
            "command": "cfc",
            "status": "budget-exhausted",
            "bracket": [exc.lower, exc.upper],
            "verification_steps": exc.steps,
        }
        _emit(payload, args.format, sys.stdout)
        return EXIT_BUDGET
    payload = {
        "command": "cfc",
        "value": result.value,
        "coloring": [
            [e[0], e[1], c]
            for e, c in zip(g.edges, result.optimal_coloring.colors)
        ],
        "colorings_examined": result.stats.colorings_examined,
        "verification_steps": result.stats.verification_steps,
    }
    _emit(payload, args.format, sys.stdout)
    return EXIT_OK


_GEN_FAMILIES = {
    "H": (2, lambda p: families.gen_H(p[0], p[1])),
    "R": (1, lambda p: families.gen_R(p[0])),
    "S": (1, lambda p: families.gen_S(p[0])),
    "D": (1, lambda p: families.gen_D(p[0])),
    "remark4-H": (1, lambda p: families.gen_remark4_H(p[0])),
    "remark4-G": (1, lambda p: families.gen_remark4_G(p[0])),
    "remark6-H": (1, lambda p: families.gen_remark6_H(p[0])),
    "remark6-G": (0, lambda p: families.gen_remark6_G()),
    "remark7-G": (1, lambda p: families.gen_remark7_G(p[0])),
    "path": (1, lambda p: families.gen_path(p[0])),
    "cycle": (1, lambda p: families.gen_cycle(p[0])),
    "complete": (1, lambda p: families.gen_complete(p[0])),
    "random": (3, lambda p: families.gen_random_connected(p[0], p[1] / 100.0, p[2])),
}


def cmd_gen(args) -> int:
    family = args.family
    if family not in _GEN_FAMILIES:
        raise ParamOutOfRangeError(f"unknown family {family!r}")
    arity, make = _GEN_FAMILIES[family]
    if len(args.params) != arity:
        raise ParamOutOfRangeError(
            f"family {family!r} takes {arity} integer parameter(s)"
            + (" (random: n, edge probability in percent, seed)" if family == "random" else "")
        )
    g = make(args.params)
    if args.format == "dot":
        _write_output(_graph_dot(g), args.out)
        return EXIT_OK
    comments = [
        f"family {family} params {' '.join(str(x) for x in args.params)}",
        f"n={g.vertex_count} m={g.edge_count} delta={degree_view(g).min_degree} "
        f"cut_edges={count_cut_edges(g) if is_connected(g) else 'n/a'}",
    ]
    _write_output(format_edge_list(g, comments), args.out)
    return EXIT_OK


_HARNESS_DEFAULT_RANGES = {
    "2.2": (4, 7, 0.3, 0.9),
    "2.3": (5, 9, 0.25, 0.55),
    "2.4": (4, 9, 0.4, 0.9),
    "3.1": None,  # derived from k
    "3.4": None,
    "4.1": (25, 30, 0.5, 0.9),
    "4.2": (9, 16, 0.4, 0.9),
    "4.3": (4, 8, 0.4, 0.9),
    "4.4": (16, 20, 0.5, 0.9),
    "4.5": (33, 36, 0.5, 0.9),
}


def cmd_verify(args) -> int:
    theorem = args.theorem
    if theorem.startswith("sharpness:"):
        family = theorem.split(":", 1)[1]
        params = {}
        if args.t is not None:
            params["t"] = args.t
        if args.n is not None:
            params["n"] = args.n
        result = check_sharpness(family, budget=args.budget, **params)
        payload = {"command": "verify", **result}
        _emit(payload, args.format, sys.stdout)
        return EXIT_OK if result["holds"] else EXIT_COUNTEREXAMPLE

    if theorem not in _HARNESS_DEFAULT_RANGES:
        raise ParamOutOfRangeError(f"unknown theorem id {theorem!r}")
    defaults = _HARNESS_DEFAULT_RANGES[theorem]
    if defaults is None:
        k = args.k if args.k is not None else (3 if theorem == "3.1" else 5)
        base = k * k if theorem == "3.1" else k * k + k
        n_min, n_max, p_min, p_max = base, base + 5, 0.5, 0.9
    else:
        n_min, n_max, p_min, p_max = defaults
        k = args.k
    if args.n_min is not None:
        n_min = args.n_min
    if args.n_max is not None:
        n_max = args.n_max
    config = HarnessConfig(
        n_min=n_min, n_max=n_max, p_min=p_min, p_max=p_max, k=k, budget=args.budget
    )
    report = run_harness(theorem, trials=args.trials, seed=args.seed, config=config)
    payload = {"command": "verify", **report.to_payload()}
    if report.counterexample is not None and args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(
                format_edge_list(
                    report.counterexample,
                    [f"counterexample to theorem {theorem} at trial {report.counterexample_trial}"],
                )
            )
        payload["counterexample_path"] = args.out
    _emit(payload, args.format, sys.stdout)
    return EXIT_COUNTEREXAMPLE if report.conclusion_fail_count else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfcgraph",
        description="Conflict-free connection coloring toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text", "dot"), default="json")
        p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("analyze", help="structural report for an edge-list file")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("color2", help="construct and verify the explicit 2-coloring")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=cmd_color2)

    p = sub.add_parser("cfc", help="exact conflict-free connection number")
    p.add_argument("input")
    p.add_argument("--max-colors", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_cfc)

    p = sub.add_parser("gen", help="generate a named family as an edge list")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="randomized theorem verification / sharpness checks")
    p.add_argument("theorem")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EdgeListParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HypothesisViolatedError, CompleteGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CfcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
