"""Command-line front end: analyze, color2, cfc, gen, verify.

Exit codes: 0 success / claim holds, 2 parse or usage error, 3 hypothesis
violated, 4 budget exhausted, 5 counterexample found.  All JSON output is
deterministic for fixed flags (sorted keys, no timestamps).
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Dict, List, Optional

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
from .families import FAMILIES
from .graph import Graph, degree_view, format_edge_list, is_complete, is_connected, read_edge_list
from .solver import exact_cfc
from .theorems import THEOREMS_WITH_K, check_sharpness, harness_config, run_harness

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4
EXIT_COUNTEREXAMPLE = 5


def _render(payload: Dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "".join(f"{key}: {payload[key]}\n" for key in sorted(payload))


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
    _write_output(_render(payload, args.format), args.out)
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
    sys.stdout.write(_render(payload, args.format))
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
        _write_output(_render(payload, args.format), args.out)
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
    _write_output(_render(payload, args.format), args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    family = args.family
    if family not in FAMILIES:
        raise ParamOutOfRangeError(f"unknown family {family!r}")
    make = FAMILIES[family]
    names = list(inspect.signature(make).parameters)
    if len(args.params) != len(names):
        raise ParamOutOfRangeError(
            f"family {family!r} takes {len(names)} integer parameter(s)"
            + (f": {' '.join(names)}" if names else "")
        )
    g = make(*args.params)
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


# Flags of `verify` that only one kind of check reads; giving one to the
# other kind is a usage error rather than a silently ignored value.
_HARNESS_FLAGS = ("trials", "seed", "k", "n_min", "n_max", "out")
_SHARPNESS_FLAGS = ("t", "n")


def cmd_verify(args) -> int:
    theorem = args.theorem
    sharpness = theorem.startswith("sharpness:")
    unused = [
        "--" + name.replace("_", "-")
        for name in (_HARNESS_FLAGS if sharpness else _SHARPNESS_FLAGS)
        if getattr(args, name) is not None
    ]
    if not sharpness and args.k is not None and theorem not in THEOREMS_WITH_K:
        unused.append("--k")
    if unused:
        raise ParamOutOfRangeError(f"verify {theorem} does not take {', '.join(unused)}")
    if sharpness:
        params = {name: v for name, v in (("t", args.t), ("n", args.n)) if v is not None}
        result = check_sharpness(theorem.split(":", 1)[1], budget=args.budget, **params)
        sys.stdout.write(_render({"command": "verify", **result}, args.format))
        return EXIT_OK if result["holds"] else EXIT_COUNTEREXAMPLE

    config = harness_config(
        theorem, k=args.k, n_min=args.n_min, n_max=args.n_max, budget=args.budget
    )
    report = run_harness(
        theorem,
        trials=200 if args.trials is None else args.trials,
        seed=0 if args.seed is None else args.seed,
        config=config,
    )
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
    sys.stdout.write(_render(payload, args.format))
    return EXIT_COUNTEREXAMPLE if report.conclusion_fail_count else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfcgraph",
        description="Conflict-free connection coloring toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, formats=("json", "text", "dot")):
        p.add_argument("--format", choices=formats, default=formats[0])
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
    add_common(p, ("json", "text"))
    p.set_defaults(func=cmd_cfc)

    p = sub.add_parser("gen", help="generate a named family as an edge list")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    add_common(p, ("text", "dot"))
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="randomized theorem verification / sharpness checks")
    p.add_argument("theorem")
    p.add_argument("--trials", type=int, default=None, help="harness trials (default 200)")
    p.add_argument("--seed", type=int, default=None, help="harness seed (default 0)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    add_common(p, ("json", "text"))
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
