import json
import subprocess
import sys

import pytest

from cfcgraph.cli import main
from cfcgraph.graph import parse_edge_list


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
