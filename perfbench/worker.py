"""One fresh process of a benchmark run.

    python3 perfbench/worker.py setup|run --root ROOT --workload W --seed N
        --inputs DIR [--seconds S --trace 0|1 --spans FILE] [--tiny]

`setup` imports cfcgraph, generates the workload's first item set and
writes it, then reports how long that took.  `run` does the same and then
runs the workload as a closed loop: one item at a time, each a call of
`cfcgraph.cli.main(argv)` in this process, in passes over fresh item sets
until the time is up.  The last line of stdout is a JSON report.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import tracer
import workloads


# An item still running after this long is stopped and counts as failed, so
# that one pathological input cannot stall the run.
ITEM_TIME_LIMIT_S = 10.0
TIMED_OUT = "timed out"


# The CPU speed a process gets on a shared host moves by 10-30% over seconds.
# A fixed unit of pure-Python work, timed between items, tracks it.  After
# every CALIBRATE_EVERY_S of item time the loop times as many units as take
# about CALIBRATION_SHARE of that time; a pass's speed is the mean duration
# of a unit, weighted by the item time each sample follows.  Latencies are
# scaled by CALIBRATION_REF_S over that duration.  CALIBRATION_REF_S is
# about a unit's median duration on 2 shared CPUs with Python 3.11.7, so the
# reported times are in seconds at that speed.  Raw times are kept in the
# full report.
CALIBRATION_LOOPS = 2000
CALIBRATION_REF_S = 0.00075
CALIBRATE_EVERY_S = 0.02
CALIBRATION_SHARE = 0.05


def _calibrate(units: int) -> float:
    """Seconds per unit of the reference work, over `units` units."""
    start = time.perf_counter()
    counts, total = {}, 0
    for i in range(CALIBRATION_LOOPS * units):
        counts[i & 255] = counts.get(i & 255, 0) + i
        total += len(str(i))
    return (time.perf_counter() - start) / units


# analyze-large works on graphs of several thousand vertices, whose adjacency
# lists, tuples and output strings take megabytes.  A neighbour on the host
# that competes for caches and memory slows it more than it slows the small
# unit above, so that workload is calibrated by a unit that builds and walks
# adjacency lists of about that size.  MEMORY_UNIT_REF_S is this unit's
# duration at the reference speed: CALIBRATION_REF_S times the median ratio
# of the two units, 4.4-4.9 when timed in turn on 2 shared CPUs with Python
# 3.11.7.
MEMORY_UNIT_VERTICES = 3000
MEMORY_UNIT_REF_S = 0.0034


def _calibrate_memory(units: int) -> float:
    """Seconds per unit of memory-bound reference work, over `units` units."""
    n = MEMORY_UNIT_VERTICES
    start = time.perf_counter()
    for _ in range(units):
        adj = [[] for _ in range(n)]
        for i in range(2 * n):
            adj[i * 7919 % n].append((i, i * 104729 % n))
        seen = set()
        for row in adj:
            for edge in row:
                seen.add(edge)
    return (time.perf_counter() - start) / units


class Speed:
    """Calibration samples of one pass, each weighted by the item time
    before it."""

    def __init__(self, unit=_calibrate, ref_s=CALIBRATION_REF_S):
        self.unit, self.ref_s = unit, ref_s
        self.samples = []
        self.since = 0.0

    def after_item(self, seconds: float, force: bool = False) -> None:
        self.since += seconds
        if self.since >= CALIBRATE_EVERY_S or (force and not self.samples):
            units = max(1, round(self.since * CALIBRATION_SHARE / self.ref_s))
            self.samples.append((max(self.since, 1e-9), self.unit(units)))
            self.since = 0.0

    def factor(self) -> float:
        """Multiplier from raw seconds to seconds at the reference speed."""
        weight = sum(w for w, _ in self.samples)
        return self.ref_s * weight / sum(w * unit for w, unit in self.samples)


class ItemTimeout(BaseException):
    """Raised inside the running item when its time limit expires."""


def _alarm(signum, frame):
    raise ItemTimeout()


def _invoke(cli, argv):
    """Run one CLI invocation; returns (seconds, exit code, stdout, stderr).

    `cli.main` is looked up on each call, so an installed wrapper is used."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, ITEM_TIME_LIMIT_S)
            try:
                code = cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except ItemTimeout:
            code = TIMED_OUT
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Loop:
    """The closed loop over fresh item sets, with their output checks."""

    def __init__(self, cli, tr=None, unit=(_calibrate, CALIBRATION_REF_S)):
        self.cli = cli
        self.unit = unit
        self.tracer = tr
        self.attempted = 0
        self.wrong = 0
        self.stopped = 0  # exhausted a `cfc` budget or hit the time limit
        signal.signal(signal.SIGALRM, _alarm)
        self.failures = []

    def one_pass(self, items, traced: bool):
        """Run the items once each; returns (raw latencies, latencies at
        the reference speed, stdouts).

        Outputs are checked after the pass, so that the checks' own work and
        garbage do not fall inside the timed invocations."""
        runs = []
        gc.collect()
        speed = Speed(*self.unit)
        if traced:
            self.tracer.begin_pass()
            self.tracer.install()
        try:
            for item in items:
                if traced:
                    self.tracer.item = item.name
                runs.append(_invoke(self.cli, item.argv))
                speed.after_item(runs[-1][0])
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.item = None
        for item, (_, code, out, err) in zip(items, runs):
            self._judge(item, code, out, err)
        speed.after_item(0.0, force=True)
        raw = [r[0] for r in runs]
        factor = speed.factor()
        return raw, [t * factor for t in raw], [r[2] for r in runs]

    def _judge(self, item, code, out, err):
        self.attempted += 1
        if code == TIMED_OUT:
            problem = f"stopped at the {ITEM_TIME_LIMIT_S:g} s time limit"
        else:
            problem = workloads.check(item, code, out)
        if problem is None:
            return
        if code == TIMED_OUT or (item.kind == "cfc" and code == 4):
            self.stopped += 1
        else:
            self.wrong += 1
        if len(self.failures) < 20:
            self.failures.append({"item": item.name, "argv": item.argv, "exit": code,
                                  "problem": problem, "stderr": err[-2000:]})

    @property
    def failed(self):
        return self.wrong + self.stopped


def measure(loop: Loop, item_sets, first, seconds: float, trace: bool):
    """Passes over fresh item sets until `seconds` would be exceeded.

    Pass k runs item set k, built from the seed and k between passes, so no
    item is timed twice.  With `trace`, untraced and traced passes alternate,
    and the run makes at least one of each.  Returns the latencies at the
    reference speed of each untraced and of each traced pass, the raw
    latencies of each untraced pass, the per-layer figures of each traced
    pass, and the stdout digest and byte count of pass 0, which is untraced.
    """
    start = time.perf_counter()
    samples = ([], [])  # [traced] -> one latency list per pass
    raw_samples = []  # untraced passes, raw latencies
    layers, stdout = [], None
    items, k = first, 0
    began, durations = start, []
    while True:
        use_trace = trace and len(samples[1]) < len(samples[0])
        raw, latencies, outputs = loop.one_pass(items, use_trace)
        samples[use_trace].append(latencies)
        if use_trace:
            layers.append(loop.tracer.summarize(sum(raw), len(raw)))
        else:
            raw_samples.append(raw)
        if stdout is None:
            stdout = (workloads.digest(outputs), sum(len(o.encode("utf-8")) for o in outputs))
        del outputs
        item_sets.clear(k)
        # The next set costs about what the median one did, its generation
        # included; an item stopped at the time limit does not end the run.
        now = time.perf_counter()
        durations.append(now - began)
        if (layers or not trace) and now - start + statistics.median(durations) > seconds:
            break
        began = now
        k += 1
        items, _ = item_sets.build(k)
    return samples[0], samples[1], raw_samples, layers, stdout


def pass_stats(passes):
    """Wall time as the median over passes; median and tail latency over the
    items of all passes, the tail at the highest whole percentile that has
    at least ten of one pass's items above it."""
    per_item = [t for p in passes for t in p]
    p, _ = tracer.tail_percentile(passes[0])
    return {"wall_s": statistics.median(sum(p) for p in passes),
            "item_p50_ms": statistics.median(per_item) * 1e3,
            "item_tail_ms": tracer.percentile(per_item, p) * 1e3,
            "item_tail_percentile": p, "items": len(passes[0])}


def main(argv=None) -> int:
    before = _calibrate(10)
    started = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "run"))
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import cfcgraph.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"cfcgraph imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tr = tracer.Tracer() if args.trace else None
    if tr is not None:
        tr.item = "setup"
        tr.begin_pass()
        tr.install()
    try:
        item_sets = workloads.ItemSets(args.workload, args.seed, args.inputs, tiny=args.tiny)
        first, written = item_sets.build(0)
    finally:
        if tr is not None:
            tr.uninstall()
    setup_s = time.perf_counter() - started
    unit = (before + _calibrate(10)) / 2
    report = {"setup_s": setup_s * CALIBRATION_REF_S / unit,
              "raw_setup_s": setup_s, "input_bytes": written}
    if tr is not None:
        setup_gen_s = tr.summarize(1.0, 1)["families.gen_s"]
    if args.role == "setup":
        print(json.dumps(report))
        return 0

    if args.workload == "analyze-large":
        loop = Loop(cli, tr, (_calibrate_memory, MEMORY_UNIT_REF_S))
    else:
        loop = Loop(cli, tr)
    plain, traced, raw, layers, (digest, stdout_bytes) = measure(
        loop, item_sets, first, args.seconds, bool(args.trace))
    del first
    stats = pass_stats(plain)
    report.update(stats)
    report.update({
        "passes": len(plain),
        "pass_walls_s": [sum(p) for p in plain],
        "raw": pass_stats(raw),
        "raw_pass_walls_s": [sum(p) for p in raw],
        "attempted": loop.attempted,
        "wrong": loop.wrong,
        "stopped": loop.stopped,
        "failed": loop.failed,
        "failures": loop.failures,
        "stdout_sha256": digest,
        "stdout_bytes": stdout_bytes,
    })
    if layers:
        layer = {k: statistics.median(t[k] for t in layers) for k in layers[0]}
        layer["trace.overhead_s"] = pass_stats(traced)["wall_s"] - stats["wall_s"]
        layer["cli.stdout_bytes"] = stdout_bytes
        layer["families.setup_gen_s"] = setup_gen_s
        report["traced_passes"] = len(layers)
        report["per_layer"] = layer
        if args.spans:
            tr.write(args.spans, started)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
