"""Command-line front end: analyze, color2, check, cfc, gen, verify, sharpness.

Exit codes: 0 success / claim holds, 2 parse or usage error, 3 hypothesis
violated, 4 inconclusive (budget exhausted, or a sharpness claim or a harness
trial whose cfc = 2 no certificate decides), 5 counterexample found /
verification failed.
All JSON output is deterministic for fixed flags (sorted keys, no
timestamps); the writer fills each row of ints, such as an edge and its
colour, into one ``%d`` template.  ``main`` may be called any number of
times in one process: the argument parser is built on the first call and
reused, and it holds nothing derived from any input.  ``main`` parses a
command line with the named command's parser alone and falls back to the
full parser for anything else, so that errors keep its messages.  Each call
runs with the cyclic garbage collector paused and gives the caller's
collector state back on every exit: a command makes no reference cycles, so
reference counting frees all it drops, while the collector would only
re-walk a large graph as it is built.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from itertools import chain
from typing import Dict, List, Optional

from .coloring import (
    EdgeColoring,
    construct_two_coloring,
    format_coloring,
    parse_coloring,
    verify_conflict_free_connected,
)
from .decomposition import block_decomposition
from .errors import (
    BudgetExhaustedError,
    CfcError,
    CompleteGraphError,
    EdgeListParseError,
    HypothesisViolatedError,
    NotConnectedError,
)
from .families import FAMILIES, family_params
from .graph import Graph, format_edge_list, is_complete, min_degree, read_edge_list, read_text
from .solver import exact_cfc
from .theorems import check_sharpness, run_harness

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4
EXIT_COUNTEREXAMPLE = 5


_encode_str = json.encoder.encode_basestring_ascii
_ROW_TYPES = frozenset((list, tuple))
_INT_ONLY = {int}


def _json(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it
    at the nesting level whose line start is ``pad`` (a newline and the
    indent).  ints, strs, bools, None, lists, tuples and dicts with str keys
    are written here; anything else, such as a float or a dict with a key
    that is not a str, goes through json.dumps.  A list or tuple of rows,
    lists or tuples of one nonzero width holding only ints (no bools), is
    filled into one ``%d`` template per row."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _encode_str(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        if _ROW_TYPES.issuperset(map(type, value)) and len(set(map(len, value))) == 1:
            cells = tuple(chain.from_iterable(value))
            if set(map(type, cells)) == _INT_ONLY:
                cell = inner + "  "
                row = "[" + cell + ("," + cell).join(["%d"] * len(value[0])) + inner + "]"
                return "[" + inner + ("," + inner).join([row] * len(value)) % cells + pad + "]"
        return "[" + inner + ("," + inner).join(
            [int.__repr__(x) if type(x) is int else _json(x, inner) for x in value]
        ) + pad + "]"
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [_encode_str(key) + ": " + _json(value[key], inner) for key in sorted(value)]
        ) + pad + "}"
    # No JSON string holds a raw newline, so this indents only line starts.
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", pad)


def _render(payload: Dict, fmt: str) -> str:
    if fmt == "json":
        return _json(payload, "\n") + "\n"
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
    # The one structural pass is also the connectivity check.
    try:
        decomp = block_decomposition(g)
    except NotConnectedError:
        decomp = None
    payload: Dict = {
        "command": "analyze",
        "n": g.vertex_count,
        "m": g.edge_count,
        "min_degree": min_degree(g),
        "connected": decomp is not None,
        "complete": is_complete(g),
    }
    # The one-vertex graph has no blocks and reports no structure.
    if decomp is not None and decomp.block_count:
        payload.update(
            {
                "cut_edge_count": len(decomp.cut_edges),
                "cut_edges": [list(e) for e in sorted(decomp.cut_edges)],
                "is_linear_forest": decomp.is_linear_forest,
                "component_orders": list(decomp.component_orders),
                "max_component_edges": decomp.max_component_edges,
                "block_count": decomp.block_count,
                # A block is trivial iff it is a single cut edge.
                "nontrivial_block_count": decomp.block_count - len(decomp.cut_edges),
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
    else:
        payload = {
            "command": "color2",
            "verified": verdict.is_conflict_free_connected,
            "palette_size": coloring.palette_size,
            "coloring": [
                [e[0], e[1], c] for e, c in zip(g.edges, coloring.colors)
            ],
        }
        sys.stdout.write(_render(payload, args.format))
    # The exit status is the verdict's, whatever the format.
    return EXIT_OK if verdict.is_conflict_free_connected else EXIT_COUNTEREXAMPLE


def cmd_check(args) -> int:
    g = read_edge_list(args.input)
    coloring = parse_coloring(read_text(args.coloring), g)
    verdict = verify_conflict_free_connected(coloring)
    payload = {
        "command": "check",
        "verified": verdict.is_conflict_free_connected,
        "palette_size": coloring.palette_size,
        "failing_pair": verdict.failing_pair,
    }
    sys.stdout.write(_render(payload, "json"))
    return EXIT_OK if verdict.is_conflict_free_connected else EXIT_COUNTEREXAMPLE


def cmd_cfc(args) -> int:
    g = read_edge_list(args.input)
    try:
        result = exact_cfc(g, budget=args.budget)
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
    family_params(family, args.params)
    g = FAMILIES[family](*args.params)
    if args.format == "dot":
        _write_output(_graph_dot(g), args.out)
        return EXIT_OK
    comments = [
        f"family {family} params {' '.join(str(x) for x in args.params)}",
        f"n={g.vertex_count} m={g.edge_count} delta={min_degree(g)} "
        f"cut_edges={len(block_decomposition(g).cut_edges)}",
    ]
    _write_output(format_edge_list(g, comments), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    theorem = args.theorem
    report = run_harness(
        theorem, args.trials, args.seed,
        k=args.k, n_min=args.n_min, n_max=args.n_max, budget=args.budget,
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
    if report.conclusion_fail_count:
        return EXIT_COUNTEREXAMPLE
    return EXIT_BUDGET if report.inconclusive_count else EXIT_OK


def cmd_sharpness(args) -> int:
    result = check_sharpness(args.family, *args.params, budget=args.budget)
    sys.stdout.write(_render({"command": "sharpness", **result}, args.format))
    if result["holds"] is None:
        return EXIT_BUDGET
    return EXIT_OK if result["holds"] else EXIT_COUNTEREXAMPLE


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared afterwards.

    Building it costs more than parsing a command line, so it is not redone
    per ``main`` call.  It names each command only by ``subcommand``;
    ``main`` looks the command function up when it runs it.
    """
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

    p = sub.add_parser("color2", help="construct and verify the explicit 2-coloring")
    p.add_argument("input")
    add_common(p)

    p = sub.add_parser("check", help="verify a coloring file against an edge-list file")
    p.add_argument("input")
    p.add_argument("coloring")

    p = sub.add_parser("cfc", help="exact conflict-free connection number")
    p.add_argument("input")
    p.add_argument("--budget", type=int, default=None)
    add_common(p, ("json", "text"))

    p = sub.add_parser("gen", help="generate a named family as an edge list")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    add_common(p, ("text", "dot"))

    # Flags only in full, so that `--t` is a usage error, not `--trials`.
    p = sub.add_parser("verify", help="randomized theorem verification", allow_abbrev=False)
    p.add_argument("theorem")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    add_common(p, ("json", "text"))

    p = sub.add_parser("sharpness", help="certify an extremal family's sharpness claim")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, parsed where it can be by the
    named command's parser alone.  The full parser would only hand that
    parser the same arguments after matching them itself; anything else (no
    command, ``-h``, ``--``, an unknown name, or arguments the command does
    not take) goes through the full parser, for its messages."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # "--" is left to the full parser: its handling of one has changed
    # between Python versions.
    if argv and "--" not in argv:
        (commands,) = [
            a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        command = commands.get(argv[0])
        if command is not None:
            args, extras = command.parse_known_args(
                argv[1:], argparse.Namespace(subcommand=argv[0])
            )
            if not extras:
                return args
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _parse(argv)
        # Resolved per call rather than stored in the shared parser, so a
        # rebound module-level command function is the one that runs.
        command = globals()["cmd_" + args.subcommand]
        return command(args)
    # An unreadable or unwritable path (OSError) is a usage error, as a
    # malformed file is.
    except (CfcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (HypothesisViolatedError, CompleteGraphError)):
            return EXIT_HYPOTHESIS
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
