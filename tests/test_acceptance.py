"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (bypassing pytest capture) so the
run log doubles as an acceptance report.
"""
import random
import subprocess
import sys
import time

import pytest

import cfcgraph as cfc
from cfcgraph import families as fam
from cfcgraph.theorems import run_harness

from conftest import bridge_oracle


@pytest.fixture
def report(request):
    """Emit one PASS/FAIL line outside pytest's output capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _report(name, ok):
        with capman.global_and_fixture_disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {name}", flush=True)
        assert ok, name

    return _report


def test_acceptance_01_path_values(report):
    start = time.perf_counter()
    values = [cfc.exact_cfc(fam.gen_path(e + 1)).value for e in range(1, 7)]
    expected = [cfc.cfc_path_formula(e) for e in range(1, 7)]
    ok = values == expected == [1, 2, 2, 3, 3, 3] and time.perf_counter() - start < 60
    report("01 path family matches the log formula", ok)


def test_acceptance_02_constructive_soundness(report):
    failures = 0
    for seed in range(200):
        g = fam.gen_random_glued_blocks(seed)
        coloring = cfc.construct_two_coloring(g)
        if not cfc.verify_conflict_free_connected(coloring).is_conflict_free_connected:
            failures += 1
    report("02 constructed 2-colorings verify on 200 glued-block graphs", failures == 0)


def test_acceptance_03_bridgeless_noncomplete_cfc_two(report):
    checked = 0
    failures = 0
    seed = 0
    while checked < 100:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(4, 9)
        g = fam.gen_random_bridgeless(n, rng.uniform(0.4, 0.9), seed=seed)
        if cfc.is_complete(g):
            continue
        checked += 1
        if cfc.exact_cfc(g).value != 2:
            failures += 1
    report("03 100 bridgeless non-complete graphs all have cfc 2", failures == 0)


def test_acceptance_04_small_refutation(report):
    start = time.perf_counter()
    g = fam.gen_remark4_H(5)
    search = cfc.exists_two_coloring(g)
    result = cfc.exact_cfc(g)
    verdict = cfc.verify_conflict_free_connected(result.optimal_coloring)
    ok = (
        (g.vertex_count, g.edge_count) == (9, 10)
        and not search.exists
        and search.stats.colorings_examined <= 2**9
        and result.value == 3
        and verdict.is_conflict_free_connected
        and time.perf_counter() - start < 60
    )
    report("04 order-9 sharpness graph refuted and solved exactly", ok)


def test_acceptance_05_refutation_at_scale(report):
    start = time.perf_counter()
    g = fam.gen_S(3)
    search = cfc.exists_two_coloring(g)
    elapsed = time.perf_counter() - start
    ok = (
        (g.vertex_count, g.edge_count) == (15, 19)
        and not search.exists
        and search.stats.colorings_examined <= 2**18
        and elapsed < 600
    )
    report(f"05 order-15 sweep refutation in {elapsed:.1f}s", ok)


def test_acceptance_06_extremal_metrics(report):
    ok = True
    for k in range(3, 7):
        for t in range(3, 7):
            g = fam.gen_H(k, t)
            n = g.vertex_count
            ok &= n == k * t
            ok &= k * cfc.min_degree(g) == n - k
            ok &= len(cfc.block_decomposition(g).cut_edges) == k - 1
    for k in range(3, 7):
        g = fam.gen_R(k)
        n = g.vertex_count
        ok &= n == k * k - 1
        ok &= k * cfc.min_degree(g) == n - k + 1
        ok &= len(cfc.block_decomposition(g).cut_edges) == k - 1
    for t in range(3, 7):
        g = fam.gen_S(t)
        n = g.vertex_count
        ok &= n == 5 * t
        ok &= 5 * cfc.min_degree(g) == n - 5
        ok &= cfc.block_decomposition(g).component_orders == (3, 3)
    for k in (5, 6):
        g = fam.gen_D(k)
        ok &= g.vertex_count == k * k + k - 1
        ok &= len(cfc.block_decomposition(g).cut_edges) == k - 1
        ok &= cfc.min_nonadjacent_degree_sum(g) >= 2 * k
    report("06 extremal family closed forms hold exactly", ok)


def test_acceptance_07_cut_edge_harness(report):
    result = run_harness("3.1", trials=500, seed=2024, k=3)
    ok = result.conclusion_fail_count == 0 and result.hypothesis_pass_count > 0
    report(
        f"07 500-trial cut-edge harness clean "
        f"({result.hypothesis_pass_count} hypothesis hits)",
        ok,
    )


def test_acceptance_08_necessary_condition_sweep(report):
    cfc_two_count = 0
    violations = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        g = fam.gen_random_connected(n, rng.uniform(0.3, 0.9), seed=seed)
        if g.edge_count > 12:
            continue
        if cfc.exact_cfc(g).value != 2:
            continue
        cfc_two_count += 1
        d = cfc.block_decomposition(g)
        if not (d.is_linear_forest and d.max_component_edges <= 3):
            violations += 1
    ok = violations == 0 and cfc_two_count > 0
    report(
        f"08 bridge-shape necessary condition on {cfc_two_count} cfc-2 graphs",
        ok,
    )


def test_acceptance_09_bridge_oracle_equivalence(report):
    mismatches = 0
    for seed in range(500):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        g = fam.gen_random_connected(n, rng.uniform(0.25, 0.9), seed=seed)
        if cfc.block_decomposition(g).cut_edges != bridge_oracle(g):
            mismatches += 1
    report("09 bridge finder matches remove-and-test oracle on 500 graphs", mismatches == 0)


def test_acceptance_10_cli_determinism(tmp_path, report):
    edges = tmp_path / "in.edges"
    edges.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    invocations = [
        ["analyze", str(edges)],
        ["color2", str(edges)],
        ["cfc", str(edges)],
        ["gen", "H", "3", "3"],
        ["verify", "2.2", "--trials", "20", "--seed", "9"],
    ]
    ok = True
    for argv in invocations:
        cmd = [sys.executable, "-m", "cfcgraph.cli", *argv]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        ok &= first.returncode == 0 and first.stdout == second.stdout
    report("10 every CLI subcommand is byte-identical across runs", ok)
