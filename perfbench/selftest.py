"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, in about half a minute:
  * BENCHMARK.json keeps the shape the benchmark's runner relies on, and
    README.md documents every per-layer metric;
  * a tiny run of each workload, untraced and traced, prints every metric
    named in BENCHMARK.json with its unit, and no item fails;
  * deliberately wrong outputs (a wrong `cfc` value, a 2-coloring that does
    not verify, an exhausted budget) are counted as failed;
  * the runner refuses to run, without printing a result, where there is no
    cfcgraph source.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench-work", f"selftest-{os.getpid()}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    # README.md says which end-to-end metric each per-layer metric should move.
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as fh:
        documented = {line.split("`")[1] for line in fh if line.startswith("| `")}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in documented]
    assert not missing, f"per-layer metrics missing from README.md: {missing}"


def check_tiny_runs(spec):
    for name in workloads.WORKLOADS:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                             "--trace", trace, "--tiny")
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, sorted(result)
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in wanted}, (name, trace, got)
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok   tiny {name} --trace {trace}: {len(got)} metrics")


def _corrupting_cli(cli, corrupt):
    """A stand-in for the cli module whose main() rewrites the JSON payload."""

    class Corrupt:
        @staticmethod
        def main(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            payload = json.loads(buf.getvalue())
            code = corrupt(payload, code)
            sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
            return code

    return Corrupt


def check_wrong_outputs():
    import cfcgraph.cli as cli

    def tiny_set(name, k=0):
        item_sets = workloads.ItemSets(name, 5, os.path.join(SCRATCH, name), tiny=True)
        return item_sets.build(k)[0]

    cases = {
        "cfc-exact": ("a wrong cfc value", lambda p, c: (p.update(value=p["value"] + 1), c)[1]),
        "color2-corpus": (
            "a coloring that does not verify",
            lambda p, c: (p.update(coloring=[[u, v, 1] for u, v, _ in p["coloring"]],
                                   palette_size=1), c)[1],
        ),
    }
    for name, (what, corrupt) in cases.items():
        items = tiny_set(name)
        good = worker.Loop(cli)
        good.one_pass(items, False)
        assert good.failed == 0, good.failures
        bad = worker.Loop(_corrupting_cli(cli, corrupt))
        bad.one_pass(items, False)
        assert bad.wrong == bad.attempted == len(items), (name, bad.wrong, len(items))
        if name == "cfc-exact":
            # Caught by the paper's value on path 5 and star 5 (cfc 3 and 5),
            # and by the search for a smaller coloring on the random graphs.
            problems = " | ".join(f["problem"] for f in bad.failures)
            assert "the paper gives" in problems and "coloring exists" in problems, problems
        print(f"ok   {what} counts as failed: {bad.failed} of {bad.attempted} in {name}")

    items = tiny_set("cfc-exact")
    exhausted = worker.Loop(_corrupting_cli(cli, lambda p, c: 4))
    exhausted.one_pass(items, False)
    assert exhausted.stopped == exhausted.failed == exhausted.attempted > 0
    print(f"ok   an exhausted budget counts as failed: {exhausted.failed} of "
          f"{exhausted.attempted}")

    class Stuck:
        @staticmethod
        def main(argv):
            while True:
                pass

    limit, worker.ITEM_TIME_LIMIT_S = worker.ITEM_TIME_LIMIT_S, 0.2
    try:
        stuck = worker.Loop(Stuck)
        latencies, _, _ = stuck.one_pass(items[:2], False)
    finally:
        worker.ITEM_TIME_LIMIT_S = limit
    assert stuck.stopped == stuck.failed == stuck.attempted == 2, stuck.failures
    assert all(0.2 <= t < 1.0 for t in latencies), latencies
    print("ok   an item past the time limit is stopped and counted as failed")

    # Each pass runs a set of its own.  (Small generated graphs, such as a
    # 4-cycle, can come up again by chance; these workloads' inputs do not.)
    for name in ("thm-hunt", "analyze-large"):
        first = {_input(i) for i in tiny_set(name, 0)}
        second = {_input(i) for i in tiny_set(name, 1)}
        assert not first & second, name
    print("ok   item sets of different passes share no input")

    # thm-hunt's 4.1 and 4.5 items come from the screened pool only.
    pool = workloads.load_thm_pool()
    for k in range(3):
        for item in tiny_set("thm-hunt", k):
            theorem, seed = item.argv[1], int(item.argv[-1])
            if theorem in pool:
                assert seed in pool[theorem]["kept"], (theorem, seed)
    for theorem, entry in pool.items():
        assert not {d["seed"] for d in entry["dropped"]} & set(entry["kept"]), theorem
    print("ok   thm-hunt draws 4.1 and 4.5 seeds from the screened pool")


def _input(item):
    """An item's argv, with the edge list's content in place of its path."""
    if item.kind == "verify":
        return tuple(item.argv)
    with open(item.argv[1], encoding="ascii") as fh:
        edges = "".join(line for line in fh if not line.startswith("#"))
    return (item.argv[0], edges, *item.argv[2:])


def check_oracle():
    path = [(i, i + 1) for i in range(8)]
    assert oracle.cfc_lower_bound(9, path) == 4
    assert oracle.failing_pair(9, path, [1, 2, 1, 3, 1, 2, 1, 4]) is None
    assert oracle.failing_pair(9, path, [1, 2, 1, 2, 1, 2, 1, 2]) is not None
    assert oracle.has_coloring(9, path, 4) and not oracle.has_coloring(9, path, 3)
    star = [(0, v) for v in range(1, 5)]
    assert oracle.cfc_lower_bound(5, star) == 3
    assert oracle.has_coloring(5, star, 4) and not oracle.has_coloring(5, star, 3)
    c4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
    assert oracle.cfc_lower_bound(4, c4) == 2
    assert oracle.has_coloring(4, c4, 2) and not oracle.has_coloring(4, c4, 1)
    print("ok   oracle agrees with known values")


def check_refuses_without_source():
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", "cfc-exact", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines()), proc.stdout
    print(f"ok   without cfcgraph source the runner exits {proc.returncode}, no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        check_spec(spec)
        print("ok   BENCHMARK.json shape")
        check_oracle()
        check_wrong_outputs()
        check_refuses_without_source()
        check_tiny_runs(spec)
    except AssertionError as exc:
        print(f"FAIL {exc!r}")
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
