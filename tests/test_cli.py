import argparse
import dataclasses
import gc
import inspect
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cfcgraph import cli, theorems
from cfcgraph.cli import build_parser, main
from cfcgraph.coloring import CfcVerdict
from cfcgraph.errors import BudgetExhaustedError, EdgeListParseError, HypothesisViolatedError
from cfcgraph.families import FAMILIES, family_params
from cfcgraph.graph import MAX_VERTEX_COUNT, parse_edge_list
from cfcgraph.theorems import SHARPNESS, THEOREM_IDS
from stdlib_equivalence import payload, render_agrees


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "cfcgraph.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.edges"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    return str(path)


def test_analyze_json(c5_file, capsys):
    assert main(["analyze", c5_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5
    assert payload["m"] == 5
    assert payload["connected"] is True
    assert payload["cut_edge_count"] == 0
    assert payload["is_linear_forest"] is True


def test_analyze_text_format(c5_file, capsys):
    assert main(["analyze", "--format", "text", c5_file]) == 0
    out = capsys.readouterr().out
    assert "n: 5" in out
    assert "connected: True" in out


@pytest.mark.parametrize(
    "text,connected", [("5 3\n0 1\n1 2\n3 4\n", False), ("1 0\n", True)]
)
def test_analyze_without_blocks_reports_no_bridge_keys(text, connected, tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["command", "complete", "connected", "m", "min_degree", "n"]
    assert payload["connected"] is connected


def test_analyze_builds_no_edge_tuple_and_no_block(tmp_path, monkeypatch, capsys):
    """``analyze`` on a plain edge list reads the block count, cut vertices
    and cut edges off the DFS: it builds neither the graph's edge tuples nor
    the decomposition's blocks."""
    path = tmp_path / "g.edges"
    # Two triangles joined by the bridge 2-3.
    path.write_text("6 7\n0 1\n1 2\n0 2\n2 3\n3 4\n4 5\n3 5\n")
    made = {}

    def keep(name, build):
        def wrapper(*args):
            made[name] = build(*args)
            return made[name]
        return wrapper

    monkeypatch.setattr(cli, "read_edge_list", keep("g", cli.read_edge_list))
    monkeypatch.setattr(cli, "block_decomposition", keep("d", cli.block_decomposition))
    assert main(["analyze", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["block_count"] == 3 and payload["nontrivial_block_count"] == 2
    assert payload["cut_edges"] == [[2, 3]] and payload["cut_vertices"] == [2, 3]
    assert "edges" not in vars(made["g"])
    assert "blocks" not in vars(made["d"])


def test_analyze_dot_format(c5_file, capsys):
    assert main(["analyze", "--format", "dot", c5_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph g {")
    assert "0 -- 1;" in out


def test_analyze_parse_error_is_usage(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("3 2\n0 1\n1 banana\n")
    assert main(["analyze", str(bad)]) == 2


def test_analyze_repeated_edge_is_usage(tmp_path, capsys):
    bad = tmp_path / "repeated.edges"
    bad.write_text("3 3\n0 1\n1 2\n1 0\n")
    assert main(["analyze", str(bad)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_analyze_missing_file_is_usage(capsys):
    assert main(["analyze", "/nonexistent/path.edges"]) == 2


# Each case names a command line; "{c5}", "{dir}" and "{latin1}" stand for a
# readable edge list, a directory and a file that is not UTF-8 text.
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{dir}"],
        ["analyze", "{c5}", "--out", "{dir}"],
        ["cfc", "{c5}", "--out", "{dir}"],
        ["color2", "{c5}", "--out", "{dir}"],
        ["check", "{c5}", "{dir}"],
        ["analyze", "{latin1}"],
        ["color2", "{latin1}"],
        ["cfc", "{latin1}"],
        ["check", "{latin1}", "{c5}"],
        ["check", "{c5}", "{latin1}"],
    ],
    ids=lambda argv: "_".join(a.strip("{}-") for a in argv),
)
def test_unreadable_paths_and_non_utf8_files_are_usage(argv, c5_file, tmp_path, capsys):
    latin1 = tmp_path / "latin1.edges"
    latin1.write_bytes("# caf\u00e9\n2 1\n0 1\n".encode("latin-1"))
    names = {"{c5}": c5_file, "{dir}": str(tmp_path), "{latin1}": str(latin1)}
    assert main([names.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,bad",
    [
        (["analyze", "{bad}"], "3 2\n0 1\n1 2 # caf\u00e9\n"),
        (["check", "{ok}", "{bad}"], "coloring 2\n0 1 1\n1 2 2 # caf\u00e9\n"),
    ],
    ids=["edge-list", "coloring"],
)
def test_non_utf8_input_names_its_file_and_line(argv, bad, tmp_path, capsys):
    ok, bad_path = tmp_path / "ok.edges", tmp_path / "bad.txt"
    ok.write_text("3 2\n0 1\n1 2\n")
    bad_path.write_bytes(bad.encode("latin-1"))
    names = {"{ok}": str(ok), "{bad}": str(bad_path)}
    assert main([names.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 3: {bad_path} is not UTF-8 text (byte 0xe9)\n"


def test_color2_success(c5_file, tmp_path, capsys):
    out_path = tmp_path / "coloring.txt"
    assert main(["color2", "--out", str(out_path), c5_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["palette_size"] == 2
    assert out_path.read_text().startswith("coloring 2")


def test_color2_complete_graph_is_hypothesis_error(k4_file, capsys):
    assert main(["color2", k4_file]) == 3


def test_color2_hypothesis_violation(tmp_path, capsys):
    path = tmp_path / "p6.edges"
    path.write_text("6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n")
    assert main(["color2", str(path)]) == 3


@pytest.mark.parametrize("fmt", ["json", "text", "dot"])
def test_color2_exit_status_follows_the_verdict_in_every_format(fmt, c5_file, monkeypatch, capsys):
    rejected = CfcVerdict(
        is_conflict_free_connected=False, witness_paths=None, failing_pair=(0, 2)
    )
    monkeypatch.setattr(cli, "verify_conflict_free_connected", lambda coloring: rejected)
    assert main(["color2", "--format", fmt, c5_file]) == 5
    assert capsys.readouterr().out


def test_cfc_value(c5_file, capsys):
    assert main(["cfc", c5_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 2
    assert len(payload["coloring"]) == 5
    assert payload["colorings_examined"] >= 1


def test_cfc_budget_exhaustion(tmp_path, capsys):
    path = tmp_path / "g.edges"
    # two triangles joined by a 3-edge bridge path
    path.write_text(
        "8 9\n0 1\n0 2\n1 2\n2 3\n3 4\n4 5\n5 6\n5 7\n6 7\n"
    )
    assert main(["cfc", "--budget", "3", str(path)]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "budget-exhausted"
    assert payload["bracket"][0] >= 2
    # H(3, 3) meets the construction's hypothesis, so cfc_bracket's upper
    # bound is 2, not m = 11.
    path = Path(__file__).resolve().parent / "golden" / "inputs" / "H-3-3.edges"
    assert main(["cfc", "--budget", "1", str(path)]) == 4
    assert json.loads(capsys.readouterr().out)["bracket"] == [2, 2]
    # On path 10, C(G) is the whole path, so the lower bound is h(G) =
    # ceil(log2 10) = 4, not Lemma 2.2's 3.
    path = tmp_path / "path-10.edges"
    path.write_text("10 9\n" + "".join(f"{v} {v + 1}\n" for v in range(9)))
    assert main(["cfc", "--budget", "1", str(path)]) == 4
    assert json.loads(capsys.readouterr().out)["bracket"] == [4, 9]


def test_cfc_takes_no_color_cap(c5_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cfc", "--max-colors", "2", c5_file])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-colors" in capsys.readouterr().err


def test_cfc_negative_budget_is_usage(c5_file, capsys):
    assert main(["cfc", "--budget", "-1", c5_file]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: budget must be >= 0, got -1\n")
    # A zero budget is a budget: the first step exhausts it.
    assert main(["cfc", "--budget", "0", c5_file]) == 4
    assert json.loads(capsys.readouterr().out)["verification_steps"] == 1


def test_gen_writes_parseable_edge_list(tmp_path, capsys):
    out_path = tmp_path / "h.edges"
    assert main(["gen", "H", "3", "4", "--out", str(out_path)]) == 0
    g = parse_edge_list(out_path.read_text())
    assert g.vertex_count == 12
    assert g.edge_count == 3 * 6 + 2


def test_gen_then_analyze_round_trip(tmp_path, capsys):
    out_path = tmp_path / "s3.edges"
    assert main(["gen", "S", "3", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 15
    assert payload["component_orders"] == [3, 3]


def test_gen_bad_family_and_arity(capsys):
    assert main(["gen", "nope", "3"]) == 2
    assert main(["gen", "H", "3"]) == 2
    assert main(["gen", "H", "2", "3"]) == 2


def test_gen_random_percent_probability(tmp_path):
    out_a = tmp_path / "a.edges"
    out_b = tmp_path / "b.edges"
    assert main(["gen", "random", "8", "60", "5", "--out", str(out_a)]) == 0
    assert main(["gen", "random", "8", "60", "5", "--out", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()


def test_verify_sharpness_ok(capsys):
    assert main(["sharpness", "remark4-H", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["command"], payload["params"]) == ("sharpness", {"t": 5})
    assert payload["holds"] is True
    assert payload["refutation"] == "shape"


def test_verify_sharpness_without_a_certificate_is_inconclusive(capsys):
    # S(4) has 34 edges and Lemma 2.2's shape: past the sweep cap nothing
    # decides cfc >= 3, so the claim is neither held nor refuted.
    assert main(["sharpness", "S", "4"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert (payload["margin_ok"], payload["refutation"]) == (True, "skipped")
    assert payload["cfc_at_least_3"] is None
    assert payload["holds"] is None


def test_verify_sharpness_out_of_budget_is_inconclusive(capsys):
    # S(3) needs a sweep to refute cfc = 2; one step does not finish it.
    assert main(["sharpness", "S", "3", "--budget", "1"]) == 4
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert (payload["margin_ok"], payload["refutation"]) == (True, "budget-exhausted")
    assert (payload["cfc_at_least_3"], payload["holds"]) == (None, None)
    assert captured.err == ""
    assert main(["sharpness", "S", "3", "--budget", "100000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["refutation"], payload["holds"]) == ("sweep", True)


def test_verify_harness_ok(capsys):
    assert main(["verify", "2.4", "--trials", "30", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["conclusion_fail_count"] == 0
    assert payload["trials"] == 30


def test_verify_counts_budget_exhausted_trials_as_inconclusive(capsys):
    # Four of the forty 2.2 trials fall outside Lemma 2.2's shape, so four
    # sweeps run; at this budget one of them runs out.
    assert main(["verify", "2.2", "--trials", "40", "--budget", "20"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["inconclusive_count"] == 1
    assert payload["hypothesis_pass_count"] == 3
    assert payload["clause_breakdown"] == {"outside_shape": 3}
    assert main(["verify", "2.2", "--trials", "40", "--budget", "1"]) == 4
    assert json.loads(capsys.readouterr().out)["inconclusive_count"] == 4
    # With every trial decided the key is absent.
    assert main(["verify", "2.2", "--trials", "40", "--budget", "100"]) == 0
    assert "inconclusive_count" not in json.loads(capsys.readouterr().out)


def test_verify_counterexample_outranks_inconclusive(monkeypatch, capsys):
    real_check = theorems.check_theorem
    calls = []

    def fail_then_leave_undecided(g, theorem, **kwargs):
        calls.append(g)
        check = real_check(g, theorem, **kwargs)
        if len(calls) == 1:
            return dataclasses.replace(check, hypothesis_holds=True, conclusion_holds=False)
        return dataclasses.replace(check, hypothesis_holds=True, conclusion_holds=None, mode=None)

    monkeypatch.setattr(theorems, "check_theorem", fail_then_leave_undecided)
    assert main(["verify", "2.4", "--trials", "3"]) == 5
    payload = json.loads(capsys.readouterr().out)
    assert (payload["conclusion_fail_count"], payload["inconclusive_count"]) == (1, 2)


def test_verify_unknown_theorem(capsys):
    assert main(["verify", "9.9"]) == 2


def test_verify_out_writes_the_first_counterexample(tmp_path, monkeypatch, capsys):
    real_check = theorems.check_theorem
    graphs = []

    def fail_at_trial_3(g, theorem, **kwargs):
        check = real_check(g, theorem, **kwargs)
        graphs.append(g)
        if len(graphs) == 4:
            return dataclasses.replace(check, hypothesis_holds=True, conclusion_holds=False)
        return check

    monkeypatch.setattr(theorems, "check_theorem", fail_at_trial_3)
    out = tmp_path / "counterexample.edges"
    assert main(["verify", "2.4", "--trials", "6", "--seed", "1", "--out", str(out)]) == 5
    payload = json.loads(capsys.readouterr().out)
    assert len(graphs) == 6
    assert payload["conclusion_fail_count"] == 1
    assert payload["counterexample_trial"] == 3
    assert payload["counterexample_path"] == str(out)
    text = out.read_text()
    assert text.splitlines()[0] == "# counterexample to theorem 2.4 at trial 3"
    assert parse_edge_list(text) == graphs[3]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sharpness", "remark5", "4"], "the sharp path example needs order >= 5"),
        (["sharpness", "nope"], "unknown sharpness family 'nope'"),
        (["verify", "4.3", "--n-min", "10", "--n-max", "5"], "empty order range: n_min 10 > n_max 5"),
        (["verify", "4.3", "--n-min", "10"], "empty order range: n_min 10 > n_max 8"),
        (["verify", "4.3", "--trials", "-3"], "trials must be >= 0, got -3"),
        (["verify", "2.2", "--trials", "3", "--budget", "-1"], "budget must be >= 0, got -1"),
        (["sharpness", "S", "3", "--budget", "-1"], "budget must be >= 0, got -1"),
        (["verify", "3.4", "--k", "4"], "the degree-sum cut-edge bound needs k >= 5"),
        (["verify", "3.1", "--k", "2", "--trials", "0"], "the cut-edge bound needs k >= 3"),
        (["verify", "2.4", "--k", "3", "--trials", "2"], "theorem 2.4 takes no k"),
    ],
)
def test_verify_error_exits_name_their_cause(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_order_range_below_two_is_usage_at_every_seed(capsys):
    # Rejected before the first sample, so the seed cannot decide whether a
    # trial draws an order below 2.
    for seed in range(4):
        argv = ["verify", "2.4", "--trials", "3", "--n-min", "1", "--n-max", "9", "--seed", str(seed)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: order range must start at 2 or more, got n_min 1\n")


def test_verify_order_range_past_the_size_cap_is_usage_at_every_seed(capsys):
    # n_max is checked against the generators' size cap before the first
    # sample, so no trial below the cap runs and the seed does not matter.
    for seed in range(4):
        argv = ["verify", "4.1", "--n-min", "1440", "--n-max", "1460", "--seed", str(seed)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: order 1460 or edge count 1065070 is above 1048576\n"
        )


def test_analyze_of_a_graph_without_vertices_is_usage(tmp_path, capsys):
    path = tmp_path / "empty.edges"
    path.write_text("0 0\n")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 1: graph must have at least one vertex\n"


def _set_collector(collecting):
    if collecting:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def collector_state():
    """Restores the collector's state after a test that switches it."""
    collecting = gc.isenabled()
    yield
    _set_collector(collecting)


def _raise(exc):
    raise exc


# How the stand-in for `cmd_analyze` ends, and what `main` then does.
PAUSE_EXITS = {
    "exit-0": (lambda: 0, 0),
    "exit-5": (lambda: 5, 5),
    "parse-error-2": (lambda: _raise(EdgeListParseError("bad", 1)), 2),
    "hypothesis-3": (lambda: _raise(HypothesisViolatedError("no")), 3),
    "budget-4": (lambda: _raise(BudgetExhaustedError(2, 3, 9)), 4),
    "file-not-found-2": (lambda: _raise(FileNotFoundError("gone")), 2),
    "keyboard-interrupt": (lambda: _raise(KeyboardInterrupt()), KeyboardInterrupt),
}


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("ending", list(PAUSE_EXITS))
def test_main_pauses_the_collector_and_restores_the_callers_state(
    ending, collecting, collector_state, monkeypatch, capsys
):
    body, expected = PAUSE_EXITS[ending]
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        return body()

    monkeypatch.setattr(cli, "cmd_analyze", command)
    _set_collector(collecting)
    if expected is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(["analyze", "g.edges"])
    else:
        assert main(["analyze", "g.edges"]) == expected
    assert seen == [False]
    assert gc.isenabled() is collecting


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_an_argparse_exit_restores_the_callers_collector_state(collecting, collector_state, capsys):
    _set_collector(collecting)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "g.edges", "--no-such-flag"])
    assert exc.value.code == 2
    assert gc.isenabled() is collecting


def test_commands_leave_no_cyclic_garbage(tmp_path, collector_state, capsys):
    """Every command on the golden inputs frees all it drops by reference
    counting alone, which is what lets `main` pause the collector."""
    inputs = sorted((Path(__file__).parent / "golden" / "inputs").glob("*.edges"))
    argvs = []
    for path in inputs:
        coloring = str(tmp_path / f"{path.stem}.coloring")
        argvs += [
            ["analyze", str(path)],
            ["analyze", str(path), "--format", "text"],
            ["color2", str(path), "--out", coloring],
            ["check", str(path), coloring],
            ["cfc", str(path), "--budget", "400000"],
        ]
    argvs += [["gen", "H", "3", "3"], ["gen", "random", "8", "60", "5", "--format", "dot"]]
    argvs += [["verify", theorem, "--trials", "3"] for theorem in THEOREM_IDS]
    argvs += [["sharpness", "S", "3"], ["sharpness", "remark4-H", "5"]]
    main(["gen", "path", "3"])  # builds the shared parser
    capsys.readouterr()
    gc.collect()
    gc.disable()
    found = {}
    for argv in argvs:
        main(argv)
        capsys.readouterr()
        found[" ".join(argv)] = gc.collect()
    assert {argv: count for argv, count in found.items() if count} == {}


def test_console_entry_point_runs():
    code, out, err = run_cli("gen", "path", "5")
    assert code == 0
    assert out.splitlines()[-1] == "3 4"


def test_repeated_runs_are_byte_identical(c5_file):
    first = run_cli("analyze", c5_file)
    second = run_cli("analyze", c5_file)
    assert first == second
    v1 = run_cli("verify", "2.2", "--trials", "15", "--seed", "3")
    v2 = run_cli("verify", "2.2", "--trials", "15", "--seed", "3")
    assert v1 == v2


@pytest.mark.parametrize(
    "family,params",
    [("S", []), ("S", ["3", "7"]), ("remark6-G", ["9"]), ("remark5", []), ("remark5", ["6", "1"])],
)
def test_wrong_arity_is_the_registry_message_from_gen_and_sharpness(family, params, capsys):
    # remark5 is the registry's path; the message names the family as typed.
    registry = SHARPNESS[family][0]
    gen = _outcome(["gen", registry, *params], capsys)
    sharpness = _outcome(["sharpness", family, *params], capsys)
    assert gen[:2] == sharpness[:2] == (2, "")
    assert sharpness[2] == gen[2].replace(repr(registry), repr(family))
    assert repr(family) in sharpness[2] and "integer parameter(s)" in sharpness[2]


@pytest.mark.parametrize(
    "argv,rejected",
    [
        pytest.param(
            ["verify", "2.4", "--t", "5", "--trials", "2"], "--t 5", id="argv0-does not take --t"
        ),
        pytest.param(
            ["verify", "2.4", "--n", "5", "--trials", "2"], "--n 5", id="argv1-does not take --n"
        ),
        pytest.param(
            ["sharpness", "remark4-H", "5", "--out", "x.edges"],
            "--out x.edges",
            id="argv3-does not take --out",
        ),
        pytest.param(
            ["sharpness", "S", "3", "--trials", "5", "--seed", "1", "--k", "2"],
            "--trials 5 --seed 1 --k 2",
            id="argv4-does not take --trials, --seed, --k",
        ),
        pytest.param(
            ["sharpness", "S", "3", "--n-min", "4", "--n-max", "6"],
            "--n-min 4 --n-max 6",
            id="argv5---n-min, --n-max",
        ),
    ],
)
def test_verify_rejects_flags_the_check_does_not_read(argv, rejected, tmp_path, monkeypatch, capsys):
    # Each subcommand has only the flags it reads, written in full, so
    # argparse refuses any other (`--t` is not taken for `--trials`).
    monkeypatch.chdir(tmp_path)
    code, out, err = _outcome(argv, capsys)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {rejected}\n" in err
    assert list(tmp_path.iterdir()) == []


def test_verify_harness_defaults_are_explicit_values(capsys):
    assert main(["verify", "2.2", "--trials", "4"]) == 0
    implicit = capsys.readouterr().out
    assert main(["verify", "2.2", "--trials", "4", "--seed", "0"]) == 0
    assert capsys.readouterr().out == implicit
    assert json.loads(implicit)["seed"] == 0
    assert main(["verify", "3.1", "--n-min", "9", "--n-max", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 200


def test_gen_offers_text_and_dot_only(capsys):
    assert main(["gen", "path", "3"]) == 0
    default = capsys.readouterr().out
    assert main(["gen", "path", "3", "--format", "text"]) == 0
    assert capsys.readouterr().out == default
    with pytest.raises(SystemExit) as exc:
        main(["gen", "path", "3", "--format", "json"])
    assert exc.value.code == 2


def test_verify_lemma_2_3_skips_k2(capsys):
    assert main(["verify", "2.3", "--n-min", "2", "--n-max", "2", "--trials", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["conclusion_fail_count"] == 0
    assert payload["clause_breakdown"]["non_complete"] == 0


@pytest.mark.parametrize("command", [["analyze"], ["cfc", "--budget", "1000"]])
def test_payload_honours_out(command, c5_file, tmp_path, capsys):
    assert main([*command, c5_file]) == 0
    expected = capsys.readouterr().out
    out_path = tmp_path / "payload.json"
    assert main([*command, c5_file, "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == expected


@pytest.mark.parametrize("argv", [["cfc", "g.edges"], ["verify", "2.4"]])
def test_dot_format_only_where_rendered(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "dot"])
    assert exc.value.code == 2


GEN_PARAMS = {
    "H": ["3", "3"],
    "R": ["3"],
    "S": ["3"],
    "D": ["5"],
    "remark4-H": ["5"],
    "remark4-G": ["15"],
    "remark6-H": ["12"],
    "remark6-G": [],
    "remark7-G": ["11"],
    "path": ["5"],
    "cycle": ["5"],
    "complete": ["4"],
    "random": ["8", "60", "5"],
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_gen_every_family(family, capsys):
    assert main(["gen", family, *GEN_PARAMS[family]]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert g.vertex_count >= 4
    assert main(["gen", family, *GEN_PARAMS[family], "3"]) == 2
    names = list(inspect.signature(FAMILIES[family]).parameters)
    err = capsys.readouterr().err
    assert f"takes {len(names)} integer parameter(s)" in err
    assert " ".join(names) in err
    assert family_params(family, [0] * len(names)) == tuple(names)


def _readme_paragraph(start: str) -> str:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return " ".join(text[text.index(start):].split("\n\n", 1)[0].split())


def test_readme_lists_match_the_registries():
    gen = re.findall(r"`([^`]+)`", _readme_paragraph("Families for `gen`:"))[1:]
    assert [item.split()[0] for item in gen] == list(FAMILIES)
    for item in gen:
        name, *params = item.split()
        assert params == list(inspect.signature(FAMILIES[name]).parameters), item

    verify = _readme_paragraph("`verify` accepts the theorem ids")
    ids = re.search(r"theorem ids `([^`]+)`", verify).group(1).split()
    assert ids == list(THEOREM_IDS)
    sharpness = _readme_paragraph("`sharpness` accepts the families")
    sharp = re.findall(r"`([^`]+)`", sharpness[sharpness.index("("):sharpness.index(")")])
    assert [item.split()[0] for item in sharp] == list(SHARPNESS)
    for item in sharp:
        name, *params = item.split()
        registry = FAMILIES[SHARPNESS[name][0]]
        assert params == list(inspect.signature(registry).parameters), item


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    # Each line of the README's "CLI usage" block, in order, in one directory.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme[readme.index("## CLI usage"):].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert lines and all(argv[0] == "cfcgraph" for argv in lines)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert _outcome(argv[1:], capsys)[0] == 0, " ".join(argv)


def test_readme_names_every_cli_flag():
    # Each --option of each subcommand appears in the README as a whole flag:
    # `--n` is not satisfied by `--n-min`.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            for flag in action.option_strings:
                if flag.startswith("--") and flag != "--help":
                    pattern = rf"(?<![\w-]){re.escape(flag)}(?![\w-])"
                    assert re.search(pattern, readme), f"{name} {flag}"


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one in-process `main` call, an
    argparse exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_reuses_one_parser(c5_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    sequence = [
        ["analyze", c5_file],
        ["color2", c5_file, "--out", "c5.coloring"],
        ["check", c5_file, "c5.coloring"],
        ["cfc", c5_file, "--format", "text"],
        ["gen", "S", "3"],
        ["verify", "2.2", "--trials", "3", "--seed", "1"],
        ["cfc", c5_file, "--format", "dot"],  # argparse usage error
        ["verify", "2.4", "--t", "5"],  # a flag verify does not have
        ["analyze", "--format", "text", c5_file],
        ["gen", "path", "4", "--format", "dot"],
        ["sharpness", "remark4-H", "5"],
    ]
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0]

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    build_parser()
    one_tree = len(built)
    build_parser.cache_clear()
    built.clear()
    assert [_outcome(argv, capsys) for argv in sequence] == fresh
    assert len(built) == one_tree


@pytest.fixture
def c5_colorings(tmp_path):
    good = tmp_path / "good.coloring"
    good.write_text("coloring 2\n0 1 1\n1 2 1\n2 3 1\n3 4 1\n0 4 2\n")
    bad = tmp_path / "one-color.coloring"
    bad.write_text("coloring 1\n0 1 1\n1 2 1\n2 3 1\n3 4 1\n0 4 1\n")
    return str(good), str(bad)


def test_check_accepts_a_conflict_free_coloring(c5_file, c5_colorings, capsys):
    assert main(["check", c5_file, c5_colorings[0]]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "check",
        "failing_pair": None,
        "palette_size": 2,
        "verified": True,
    }


def test_check_names_the_failing_pair(c5_file, c5_colorings, capsys):
    assert main(["check", c5_file, c5_colorings[1]]) == 5
    assert json.loads(capsys.readouterr().out) == {
        "command": "check",
        "failing_pair": [0, 2],
        "palette_size": 1,
        "verified": False,
    }


@pytest.mark.parametrize(
    "text,message",
    [
        ("coloring 2\n0 1 1\n1 2 x\n", "line 3: fields must be integers"),
        ("colouring 2\n0 1 1\n", "line 1: expected header 'coloring t', t a whole number"),
        ("coloring 2\n0 1 1\n1 2 2\n", "line 1: color map must cover exactly the graph's edges"),
        ("# C5\ncoloring 2\n0 1 1\n1 2 1\n2 3 1\n3 4 2\n0 3 1\n",
         "line 7: edge 0 3 is not in the graph"),
        ("coloring 2\n0 1 1\n1 2 0\n", "line 3: color 0 is below 1"),
        ("coloring 2\n0 1 1\n1 2 -1\n", "line 3: color -1 is below 1"),
        # Fields are ASCII digits, a minus sign allowed; int() reads these.
        ("coloring 2\n0 1 1\n1 2 +2\n", "line 3: fields must be integers"),
        ("coloring 2\n0 1_0 1\n", "line 2: fields must be integers"),
        ("coloring 2\n0 \u0661 1\n", "line 2: fields must be integers"),
        ("coloring \u0662\n0 1 1\n", "line 1: expected header 'coloring t', t a whole number"),
        ("coloring " + "9" * 5000 + "\n", "line 1: expected header 'coloring t', t a whole number"),
    ],
)
def test_check_bad_coloring_file_is_usage(text, message, c5_file, tmp_path, capsys):
    path = tmp_path / "bad.coloring"
    path.write_text(text, encoding="utf-8")
    assert main(["check", c5_file, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_check_on_a_disconnected_graph_is_usage(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    graph.write_text("4 2\n0 1\n2 3\n")
    coloring = tmp_path / "g.coloring"
    coloring.write_text("coloring 2\n0 1 1\n2 3 2\n")
    assert main(["check", str(graph), str(coloring)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: verification requires a connected graph\n"


def test_hostile_header_fails_at_the_header_in_bounded_memory(tmp_path):
    resource = pytest.importorskip("resource")
    limit = 1 << 30

    def run_limited(text):
        path = tmp_path / "g.edges"
        path.write_text(text)
        return subprocess.run(
            [sys.executable, "-m", "cfcgraph.cli", "analyze", "--format", "text", str(path)],
            capture_output=True,
            text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )

    proc = run_limited("100000000 1\n0 1\n")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: line 1: vertex_count must be at most {MAX_VERTEX_COUNT}, got 100000000\n"
    )
    proc = run_limited(f"{MAX_VERTEX_COUNT} 1\n0 1\n")
    assert proc.returncode == 0, proc.stderr
    assert f"n: {MAX_VERTEX_COUNT}\n" in proc.stdout
    assert "connected: False\n" in proc.stdout


def test_gen_refuses_an_oversized_family_in_bounded_memory(tmp_path):
    # Each of these would have more vertices or edges than the parser
    # reads; it is refused before its edge list is built, under a 1 GiB
    # address-space limit, and no file is written.
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    out = tmp_path / "big.edges"
    for params in (
        ["path", str(MAX_VERTEX_COUNT + 1)],
        ["cycle", str(MAX_VERTEX_COUNT + 1)],
        ["complete", "6000"],
        ["H", "100000000", "3"],
        ["H", "3", "100000000"],
        ["R", "100000000"],
        ["D", "100000000"],
        ["remark4-H", "100000000"],
        ["random", "100000", "50", "0"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "cfcgraph.cli", "gen", *params, "--out", str(out)],
            capture_output=True,
            text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (proc.returncode, proc.stdout) == (2, ""), params
        assert re.fullmatch(rf"error: order \d+ or edge count \d+ is above {MAX_VERTEX_COUNT}\n", proc.stderr)
        assert not out.exists()


def test_cfc_budget_bounds_the_pair_records(tmp_path):
    # With --budget 10 the sweep holds at most 11 pair records, not one per
    # nonadjacent pair, so path 20000 (about 2 * 10**8 pairs) stops at its
    # bracket under a 1 GiB address-space limit.
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    path = tmp_path / "path.edges"
    path.write_text("20000 19999\n" + "".join(f"{v} {v + 1}\n" for v in range(19999)))
    proc = subprocess.run(
        [sys.executable, "-m", "cfcgraph.cli", "cfc", "--budget", "10", str(path)],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 4, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["status"], payload["bracket"]) == ("budget-exhausted", [15, 19999])


def test_color2_and_check_bound_the_unserved_pairs(tmp_path):
    # The verifier keeps one bitset row of unserved partners per vertex, not
    # a record per pair, so cycle 6000 (about 1.8 * 10**7 nonadjacent pairs)
    # is colored and checked under a 1 GiB address-space limit.
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    n = 6000
    edges = tmp_path / "cycle.edges"
    edges.write_text(f"{n} {n}\n" + "".join(f"{v} {(v + 1) % n}\n" for v in range(n)))
    coloring = tmp_path / "cycle.coloring"
    for argv in (["color2", str(edges), "--out", str(coloring)], ["check", str(edges), str(coloring)]):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cfcgraph.cli", *argv],
            capture_output=True,
            text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 0, proc.stderr
        assert time.perf_counter() - start < 10.0, argv
        assert json.loads(proc.stdout)["verified"] is True


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_render_matches_json_dumps(rng):
    p = payload(rng)
    assert render_agrees(p), p


def test_render_matches_json_dumps_on_mixed_keys():
    payload = {"a": {2: [True, None], 1: -0.0}, "f": {1.5: "x", -2.5: []}, "b": ({}, [], ())}
    assert cli._render(payload, "json") == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with pytest.raises(TypeError):
        cli._render({"a": {1: 0, "1": 0}}, "json")
