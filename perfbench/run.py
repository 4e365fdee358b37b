"""cfcgraph benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads: color2-corpus, thm-hunt,
cfc-exact, analyze-large (see BENCHMARK.json for why each was chosen).

The run starts fresh single-threaded processes: two to ten that only set up
(import cfcgraph, generate the first item set from the seed, write its
edge-list files) and one that sets up the same way and then runs the
workload, each pass on a fresh item set.  `setup_s` is the median of their
set-up times and `peak_rss_mb` is the peak resident memory of the process
that ran the workload.  Times are scaled to a reference CPU speed measured
between items (see worker.py).  With `--trace 1` the run alternates
untraced and traced passes and reports the per-layer metrics instead.

Before the last line, the run prints the environment, every metric with its
unit, and the stdout digest; the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A full report goes to
`.perfbench-results/` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("color2-corpus", "thm-hunt", "cfc-exact", "analyze-large")
# Set-up-only processes: at least the minimum, more while they take less
# than the budget in total, up to the maximum.
SETUP_PROCESSES = (2, 10)
SETUP_BUDGET_S = 6.0
# A run must end within 180 s; this leaves room for set-up and reporting.
RUN_DEADLINE_S = 170.0


def fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(args, items_per_pass: int, passes: int) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(os.path.join(ROOT, "src", "cfcgraph")),
        "workload": args.workload,
        "seed": args.seed,
        "items_per_pass": items_per_pass,
        "passes": passes,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def child(role: str, args, inputs: str, deadline: float, spans: str = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), role, "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed), "--inputs", inputs,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans:
        cmd += ["--spans", spans]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the workload process started")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    ap = argparse.ArgumentParser(description="cfcgraph benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small items per workload, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cfcgraph", "cli.py")):
        return fail(f"no cfcgraph source under {os.path.join(ROOT, 'src')}", 2)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}", 2)

    results = os.path.join(ROOT, ".perfbench-results")
    work = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(results, exist_ok=True)
    inputs = os.path.join(work, "inputs")
    spans = os.path.join(results, f"{tag}-spans.jsonl") if args.trace else None
    try:
        setups = []
        began = time.monotonic()
        while len(setups) < SETUP_PROCESSES[1] and (
            len(setups) < SETUP_PROCESSES[0] or time.monotonic() - began < SETUP_BUDGET_S
        ):
            setups.append(child("setup", args, inputs, deadline))
        run = child("run", args, inputs, deadline, spans)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    setups.append(run)
    raw_setups = [p["raw_setup_s"] for p in setups]
    setups = [p["setup_s"] for p in setups]
    attempted, failed = run["attempted"], run["failed"]
    values = {
        "wall_s": run["wall_s"],
        "item_p50_ms": run["item_p50_ms"],
        "item_tail_ms": run["item_tail_ms"],
        "ok_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    values.update(run.get("per_layer", {}))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment(args, run["items"], run["passes"])
    report = {
        "environment": env,
        "metrics": metrics,
        "failed_ratio": failed / attempted,
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        **{k: run[k] for k in ("passes", "pass_walls_s", "raw", "raw_pass_walls_s",
                               "wall_s", "item_tail_percentile",
                               "items", "attempted", "wrong", "stopped", "failures",
                               "stdout_sha256", "stdout_bytes", "input_bytes")},
    }
    if args.trace:
        report["traced_passes"] = run["traced_passes"]
        report["per_layer_all"] = run["per_layer"]
        report["spans_file"] = os.path.relpath(spans, ROOT)
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6f} {m['unit']}")
    print(f"{'failed_ratio':32s} {failed / attempted:>16.6f} ratio "
          f"({failed} of {attempted}; {run['stopped']} stopped by budget or time limit)")
    print(f"item_tail_ms is p{run['item_tail_percentile']} over {run['passes']} untraced "
          f"passes of {run['items']} items, each pass on a fresh item set")
    print("raw (not speed-normalized) " + " ".join(
        f"{k} {run['raw'][k]:.6f}" for k in ("wall_s", "item_p50_ms", "item_tail_ms")))
    print(f"stdout_sha256 {run['stdout_sha256']} ({run['stdout_bytes']} bytes in pass 0)")
    for f in run["failures"][:5]:
        print(f"FAILED {f['item']}: {f['problem']}")
    print(json.dumps({"correct": run["wrong"] == 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
