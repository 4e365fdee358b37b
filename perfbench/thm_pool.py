"""The harness seeds that `thm-hunt` draws its 4.1 and 4.5 items from.

    python3 perfbench/thm_pool.py [--count N] [--keep-below S]

Run from the root of a source checkout.  For each of theorems 4.1 and 4.5,
the script draws `--count` candidate harness seeds from a fixed generator,
runs `cfcgraph verify <theorem> --trials 2 --seed <s>` on each, in this
process and one at a time, and writes `thm_pool.json` next to itself: the
seeds whose item ended within `--keep-below` seconds with zero
counterexamples (`kept`), and every other seed with its time and reason
(`dropped`).

Why a pool: about one 4.1 or 4.5 item in 700 makes the path-search
verifier (`coloring.verify_conflict_free_connected`) enumerate simple paths
for minutes.  A run of fixed length cannot time such an item, and a
workload on which items fail cannot serve as a benchmark.  The dropped
seeds stay listed in `thm_pool.json`, with their times, so that they can be
timed again once the verifier is polynomial.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import time

import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_FILE = workloads.THM_POOL_FILE
THEOREMS = ("4.1", "4.5")
TRIALS = {theorem: trials for theorem, _, trials in workloads.THM_PLAN}


def argv_of(theorem: str, seed: int):
    return ["verify", theorem, "--trials", str(TRIALS[theorem]), "--seed", str(seed)]


def candidates(theorem: str, count: int):
    rng = random.Random(f"thm-hunt-pool/{theorem}")
    seen, out = set(), []
    while len(out) < count:
        s = rng.randrange(2**31)
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def screen(cli, theorem: str, seeds, keep_below: float):
    kept, dropped, slowest = [], [], 0.0
    for i, s in enumerate(seeds):
        seconds, code, out, err = worker._invoke(cli, argv_of(theorem, s))
        problem = None
        if code == worker.TIMED_OUT:
            problem = f"stopped at the {worker.ITEM_TIME_LIMIT_S:g} s item limit"
        elif seconds >= keep_below:
            problem = f"took {seconds:.2f} s"
        else:
            try:
                fails = json.loads(out).get("conclusion_fail_count")
            except ValueError:
                fails = None
            if code != 0 or fails != 0:
                problem = f"exit {code}, {fails} counterexamples"
        if problem is None:
            kept.append(s)
            slowest = max(slowest, seconds)
        else:
            dropped.append({"seed": s, "seconds": round(seconds, 3), "problem": problem})
            print(f"{theorem} seed {s}: {problem}", file=sys.stderr, flush=True)
        if (i + 1) % 250 == 0:
            print(f"{theorem}: {i + 1} of {len(seeds)} screened", file=sys.stderr, flush=True)
    return kept, dropped, slowest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--count", type=int, default=2000)
    ap.add_argument("--keep-below", type=float, default=2.0)
    ap.add_argument("--theorem", choices=THEOREMS, action="append")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import cfcgraph.cli as cli

    signal.signal(signal.SIGALRM, worker._alarm)
    pool = workloads.load_thm_pool() if os.path.exists(POOL_FILE) else {}
    for theorem in args.theorem or THEOREMS:
        started = time.perf_counter()
        kept, dropped, slowest = screen(cli, theorem, candidates(theorem, args.count), args.keep_below)
        pool[theorem] = {
            "trials": TRIALS[theorem],
            "candidates": args.count,
            "keep_below_s": args.keep_below,
            "item_limit_s": worker.ITEM_TIME_LIMIT_S,
            "screen_s": round(time.perf_counter() - started, 1),
            "slowest_kept_s": round(slowest, 3),
            "dropped": dropped,
            "kept": kept,
        }
        print(f"{theorem}: kept {len(kept)}, dropped {len(dropped)}", file=sys.stderr)
    with open(POOL_FILE, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
