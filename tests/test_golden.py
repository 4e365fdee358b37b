"""Byte-for-byte CLI output against recorded references.

``golden/cases.json`` holds, per invocation, the argv, exit code, stdout and
stderr; ``golden/inputs`` holds the edge lists it read.  The first 18 cases
(``analyze``, ``color2``, ``cfc``, ``gen``, and ``verify`` of 4.5, 2.2 and
``sharpness:S``) were recorded before the decomposition layer became a single
structural pass.  The ``verify`` cases of 2.3, 2.4, 3.1, 3.4 (also with
``--k 6``), 4.1, 4.2, 4.3 and 4.4 were recorded before the theorem checks were
folded into one table.  The ``gen`` cases of every other family (``R 3``,
``R 4``, ``S 3``, ``D 5``, ``remark4-H 5``, ``remark4-G 15``, ``remark6-H 12``,
``remark6-G``, ``remark7-G 11``, ``path 5``, ``cycle 5``, ``complete 4`` and
``random 8 60 5``) were recorded before the extremal generators shared one
clique-gluing builder.  ``verify 3.4 --trials 5`` was re-recorded when the
3.4 harness came to sample from the displayed order threshold at k = 5 (33,
not k^2 + k = 30): all five trials now pass ``order_threshold``.  The
``verification_steps`` of the four ``cfc`` cases were re-recorded when the
sweep came to jump past the colorings a failing pair already refutes (H-3-3
166 -> 36, remark4-H-5 832 -> 100, path-9 7647 -> 1494, glued-blocks-3
234 -> 107); every other byte of those cases is unchanged.  Path-9's
counters were re-recorded again when ``cfc_bracket``'s lower bound rose to
h(G), the bridge-forest bound: the search starts at t = 4, not 3, so the
3 ** 7 colorings of the failed t = 3 sweep are no longer examined
(``colorings_examined`` 6815 -> 4628, ``verification_steps`` 1494 -> 135);
its value and coloring are unchanged.  ``verify 2.2 --trials 5`` was
re-recorded when Lemma 2.2 came to be checked as its contrapositive: its
hypothesis is the one clause ``outside_shape`` (C(G) fails the lemma's
shape), which one of the five trials passes (``hypothesis_pass_count``
4 -> 1), in place of ``oracle_feasible`` and ``cfc_equals_two``; no trial
fails the conclusion on either reading.  ``verify-sharpness-S`` was
re-recorded as ``sharpness S 3`` when the sharpness checks moved from
``verify sharpness:S --t 3`` to their own subcommand: only its
``"command"`` changed, ``"verify"`` -> ``"sharpness"``.  ``color2-H-3-3``
and ``color2-glued-blocks-3`` were re-recorded when ``construct_two_coloring``
came to colour the least edge of each nontrivial block, whether or not those
edges form a matching: only the colours of their ``coloring`` rows changed
(H-3-3's colour-2 block edges 3-4, 5-6, 7-8 -> 0-3, 1-5, 2-7; glued-blocks-3's
5-8 -> 5-6), and both still verify.  A mismatch means
the CLI's output changed.
Regenerate the references only for an intended output change, never to make
a refactor pass.
"""
import json
from pathlib import Path

import pytest

from cfcgraph.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["exit"],
        case["stdout"],
        case["stderr"],
    )
