import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cfcgraph.cli import main
from cfcgraph.families import FAMILIES
from cfcgraph.graph import parse_edge_list
from cfcgraph.theorems import SHARPNESS, THEOREM_IDS


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
    assert main(["verify", "sharpness:remark4-H", "--t", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True
    assert payload["refutation"] == "shape"


def test_verify_harness_ok(capsys):
    assert main(["verify", "2.4", "--trials", "30", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["conclusion_fail_count"] == 0
    assert payload["trials"] == 30


def test_verify_unknown_theorem(capsys):
    assert main(["verify", "9.9"]) == 2


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
    "argv,named",
    [
        (["sharpness:S"], "takes parameter t, given none"),
        (["sharpness:remark6-G", "--t", "9"], "takes no parameter, given t"),
        (["sharpness:S", "--t", "3", "--n", "7"], "takes parameter t, given n, t"),
    ],
)
def test_verify_sharpness_parameter_mismatch_is_usage(argv, named, capsys):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize(
    "argv,named",
    [
        (["2.4", "--t", "5", "--trials", "2"], "does not take --t"),
        (["2.4", "--n", "5", "--trials", "2"], "does not take --n"),
        (["2.4", "--k", "3", "--trials", "2"], "does not take --k"),
        (["sharpness:remark4-H", "--t", "5", "--out", "x.edges"], "does not take --out"),
        (
            ["sharpness:S", "--t", "3", "--trials", "5", "--seed", "1", "--k", "2"],
            "does not take --trials, --seed, --k",
        ),
        (["sharpness:S", "--t", "3", "--n-min", "4", "--n-max", "6"], "--n-min, --n-max"),
    ],
)
def test_verify_rejects_flags_the_check_does_not_read(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err
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
    sharp = re.findall(r"`([^`]+)`", verify[verify.index("(families"):])
    assert [item.split()[0] for item in sharp] == list(SHARPNESS)
    for item in sharp:
        name, *param = item.split()
        _, expected, _ = SHARPNESS[name]
        assert param == ([expected] if expected else []), item
