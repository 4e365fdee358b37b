"""The benchmark's workloads: inputs made from the workload seed, the CLI
invocation for each item, and the check of each item's output.

A run makes passes; pass k runs item set k, which is generated from the
workload seed and k alone and which no other pass runs.  No graph is timed
twice in one process, so a cache that lives across CLI calls cannot show up
as speed.  One item is one `cfcgraph` CLI invocation.  The program receives
only the edge-list files written here.  Every check uses facts that are known
without the code under test: the value the paper fixes for a family, the
cut-edge count a construction gives, or a brute-force computation from
`oracle`.

The composition of a set is fixed per workload (graph sizes, families,
theorems) and the seeds pick the graphs within it, so that every set has the
same cost profile.  Costs of the exhaustive searches and of the
path-enumerating verifier are heavy-tailed in graph size, and a draw that
let sizes vary from set to set would make the run-to-run spread larger than
any useful regression bound.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import oracle

Edge = Tuple[int, int]

WORKLOADS = ("color2-corpus", "thm-hunt", "cfc-exact", "analyze-large")

# Step budget of each `cfc` item, more than ten times the most the items
# below need under random relabelling (path 10: 17,000-31,000 steps).
CFC_BUDGET = 400_000

# color2-corpus: `gen_random_glued_blocks` graphs with the default
# max_vertices.  A set holds one graph for each of COLOR2_ITEMS evenly spaced
# quantiles of the generator's edge-count distribution, estimated from
# generator seeds 0 .. COLOR2_REFERENCE - 1 and cut at COLOR2_MAX_EDGES.
# Above the cut are 8.7% of the generator's graphs and 86% of its color2
# time (measured over seeds 0-999): 0.1 s to over 20 s per graph, and four
# in a thousand exceed the item time limit.  Too few of them fit in one run
# to estimate their cost steadily.
COLOR2_ITEMS = 100
COLOR2_REFERENCE = 4000
COLOR2_MAX_EDGES = 40
# The oracle re-checks the coloring of items up to this size.
COLOR2_ORACLE_MAX_EDGES = 24

# thm-hunt: (theorem id, items per set, trials per item).
THM_PLAN = (("4.5", 8, 2), ("4.1", 8, 2), ("4.3", 16, 5), ("2.2", 16, 5))
# The 4.1 and 4.5 items take their harness seeds from the pool in this file,
# which `thm_pool.py` writes and explains; 4.3 and 2.2 items draw any seed.
THM_POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "thm_pool.json")

# cfc-exact: instances whose cfc is known, as (family, params, value), and
# random connected graphs as (order, edges over a spanning tree, count).
# The paper fixes the values of paths (ceil(log2 n)), remark4-H (3) and of
# H k 3 for k <= 4 (2, by the explicit 2-coloring); a star needs one color
# per edge.  Every set relabels each instance at random, which changes the
# search order but not the value.  Path 11, remark4-H 6 and 7 and
# remark7-G 11 are left out: over random relabellings their searches take
# 50,000-112,000 steps (path 11) and from about 1,000 to 60,000-280,000
# steps (the others), 1 to 3 s at the top, so one pass's time would rest on
# a few draws from those ranges.
CFC_KNOWN = tuple(
    [("path", (n,), (n - 1).bit_length()) for n in range(5, 11)]
    + [("remark4-H", (5,), 3), ("H", (3, 3), 2), ("H", (3, 4), 2), ("H", (4, 3), 2)]
    + [("star", (k,), k) for k in (5, 6)]
)
CFC_RANDOM_PLAN = tuple((n, extra, 30) for n in (6, 7) for extra in (1, 2))

# analyze-large: (kind, order); the seed relabels the graph and draws the
# chords.  The path and the twenty H k 3 graphs are the slowest items, so
# the tail percentile (ten items above it) falls in the middle of the H k 3
# sizes, on a long bridge run, and the median among the thirty bridgeless
# graphs.  Neither falls at the edge of a group of similar items, where a
# few slow or fast items would move it far.
ANALYZE_PLAN = tuple(
    [("path", 8_000)]
    + [("H3", 3 * k) for k in range(1200, 2200, 50)]
    + [("cycle", 5_000 + 100 * i) for i in range(20)]
    + [("sparse", 5_000 + 100 * i) for i in range(10)]
)

# Tiny plans for the self-test: every layer still runs, in about a second.
TINY = {
    "color2-corpus": {"items": 6, "max_edges": 16},
    "thm-hunt": (("4.5", 1, 2), ("4.1", 1, 2), ("4.3", 2, 2), ("2.2", 2, 2)),
    "cfc-exact": {"known": (("path", (5,), 3), ("star", (5,), 5)),
                  "random": ((6, 1, 2), (7, 2, 2))},
    "analyze-large": (("path", 300), ("H3", 300), ("cycle", 300), ("sparse", 300)),
}


@dataclass
class Item:
    """One CLI invocation and what its output must satisfy."""

    name: str
    argv: List[str]
    kind: str
    expect: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------- inputs


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def _edges_of(g) -> List[Edge]:
    return [tuple(e) for e in g.edges]


def _relabel(n: int, edges: Sequence[Edge], rng: random.Random) -> List[Edge]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(oracle.canon(perm[u], perm[v]) for u, v in edges)


def _random_connected(n: int, extra: int, rng: random.Random) -> List[Edge]:
    """A random spanning tree plus `extra` distinct random chords."""
    edges = {oracle.canon(v, rng.randrange(v)) for v in range(1, n)}
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(chords, extra))
    return sorted(edges)


def _sparse_bridgeless(n: int, rng: random.Random) -> List[Edge]:
    """A Hamiltonian cycle in random order plus n/5 random chords: no bridges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {oracle.canon(order[i], order[i - 1]) for i in range(n)}
    while len(edges) < n + n // 5:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(oracle.canon(u, v))
    return sorted(edges)


def _edge_count_targets(families, items: int, max_edges: int) -> List[int]:
    """Edge counts at `items` evenly spaced quantiles of the generator's
    distribution, below the cut."""
    counts = sorted(
        m for m in (families.gen_random_glued_blocks(s).edge_count
                    for s in range(COLOR2_REFERENCE))
        if m <= max_edges
    )
    return [counts[(2 * i + 1) * len(counts) // (2 * items)] for i in range(items)]


def load_thm_pool() -> Dict[str, Dict]:
    with open(THM_POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _pool_orders(pool: Dict[str, Dict], seed: int) -> Dict[str, List[int]]:
    """Per theorem, the pool's seeds in an order drawn from the workload
    seed.  Set k takes the next seeds in that order, so the sets of one run
    share no seed until the pool is used up."""
    trials = {theorem: n for theorem, _, n in THM_PLAN}
    orders = {}
    for theorem, entry in pool.items():
        if entry["trials"] != trials[theorem]:
            raise ValueError(f"thm_pool.json screened {theorem} at another trial count")
        order = list(entry["kept"])
        random.Random(f"thm-hunt/{seed}/pool/{theorem}").shuffle(order)
        orders[theorem] = order
    return orders


def write_edge_list(path: str, n: int, edges: Sequence[Edge], comment: str) -> int:
    text = f"# {comment}\n{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    data = text.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


class ItemSets:
    """Makes the item sets of one workload and seed: `build(k)` writes set k
    to `directory` and returns its items and the bytes written."""

    def __init__(self, workload: str, seed: int, directory: str, tiny: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        from cfcgraph import families

        self.workload, self.seed, self.directory, self.tiny = workload, seed, directory, tiny
        self.families = families
        self.targets = None
        self.pool = None
        if workload == "thm-hunt":
            self.pool = _pool_orders(load_thm_pool(), seed)
        if workload == "color2-corpus":
            plan = TINY[workload] if tiny else {"items": COLOR2_ITEMS, "max_edges": COLOR2_MAX_EDGES}
            self.targets = _edge_count_targets(families, plan["items"], plan["max_edges"])
        os.makedirs(directory, exist_ok=True)

    def clear(self, k: int) -> None:
        """Delete the files of set k."""
        prefix = f"{k}-"
        for name in os.listdir(self.directory):
            if name.startswith(prefix):
                os.remove(os.path.join(self.directory, name))

    def build(self, k: int) -> Tuple[List[Item], int]:
        rng = _rng(self.workload, self.seed, k)
        self.k = k
        items: List[Item] = []
        written = 0

        def add_graph(name, n, edges, kind, argv_tail, keep_edges=True, **expect):
            nonlocal written
            path = os.path.join(self.directory, f"{k}-{len(items):04d}-{name}.edges")
            written += write_edge_list(path, n, edges, f"{self.workload} seed {self.seed} {name}")
            expect.update(n=n, m=len(edges))
            if keep_edges:
                expect["edges"] = edges
            items.append(Item(name, [kind, path] + argv_tail, kind, expect))

        getattr(self, "_" + self.workload.replace("-", "_"))(rng, add_graph, items)
        return items, written

    def _color2_corpus(self, rng, add_graph, items):
        # Draw generator seeds until every target edge count has its graph.
        wanted: Dict[int, int] = {}
        for m in self.targets:
            wanted[m] = wanted.get(m, 0) + 1
        for _ in range(1_000_000):
            if not wanted:
                break
            s = rng.randrange(2**31)
            g = self.families.gen_random_glued_blocks(s)
            if wanted.get(g.edge_count):
                wanted[g.edge_count] -= 1
                if not wanted[g.edge_count]:
                    del wanted[g.edge_count]
                add_graph(f"glued-{s}", g.vertex_count, _edges_of(g), "color2", [])
        if wanted:
            raise RuntimeError(f"color2-corpus: no graph drawn for edge counts {sorted(wanted)}")
        rng.shuffle(items)

    def _thm_hunt(self, rng, add_graph, items):
        for theorem, count, trials in TINY[self.workload] if self.tiny else THM_PLAN:
            order = self.pool.get(theorem)
            for i in range(count):
                if order is None:
                    s = rng.randrange(2**31)
                else:
                    s = order[(self.k * count + i) % len(order)]
                argv = ["verify", theorem, "--trials", str(trials), "--seed", str(s)]
                items.append(Item(f"verify-{theorem}-{s}", argv, "verify",
                                  {"theorem": theorem, "trials": trials}))
        rng.shuffle(items)

    def _cfc_exact(self, rng, add_graph, items):
        f = self.families
        budget = ["--budget", str(CFC_BUDGET)]
        gens = {"path": f.gen_path, "remark4-H": f.gen_remark4_H, "H": f.gen_H}
        known = TINY[self.workload]["known"] if self.tiny else CFC_KNOWN
        for family, params, value in known:
            if family == "star":
                n, edges = params[0] + 1, [(0, v) for v in range(1, params[0] + 1)]
            else:
                g = gens[family](*params)
                n, edges = g.vertex_count, _edges_of(g)
            name = f"{family}-{'-'.join(map(str, params))}"
            add_graph(name, n, _relabel(n, edges, rng), "cfc", budget, value=value)
        for n, extra, count in TINY[self.workload]["random"] if self.tiny else CFC_RANDOM_PLAN:
            for _ in range(count):
                add_graph(f"random-{n}-{extra}", n, _random_connected(n, extra, rng),
                          "cfc", budget, value=None)

    def _analyze_large(self, rng, add_graph, items):
        f = self.families
        for kind, n in TINY[self.workload] if self.tiny else ANALYZE_PLAN:
            if kind == "path":
                edges, cut = _relabel(n, _edges_of(f.gen_path(n)), rng), n - 1
            elif kind == "H3":
                k = n // 3
                edges, cut = _relabel(n, _edges_of(f.gen_H(k, 3)), rng), k - 1
            elif kind == "cycle":
                edges, cut = _relabel(n, _edges_of(f.gen_cycle(n)), rng), 0
            else:
                edges, cut = _sparse_bridgeless(n, rng), 0
            add_graph(f"{kind}-{n}", n, edges, "analyze", [], keep_edges=False, cut_edges=cut)


# ---------------------------------------------------------------- checks


def _coloring_matches(
    payload: Dict, edges: Sequence[Edge]
) -> Optional[Tuple[List[Edge], List[int]]]:
    """The payload's coloring as colors aligned with `edges`, or None if it
    does not color exactly those edges with positive integers."""
    triples = payload.get("coloring")
    if not isinstance(triples, list) or len(triples) != len(edges):
        return None
    got = {oracle.canon(u, v): c for u, v, c in triples}
    if set(got) != set(edges) or any(not isinstance(c, int) or c < 1 for c in got.values()):
        return None
    return list(edges), [got[e] for e in edges]


def check(item: Item, code: int, stdout: str) -> Optional[str]:
    """None if the output is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    ex = item.expect
    if item.kind == "color2":
        if payload.get("verified") is not True:
            return "verified is not true"
        matched = _coloring_matches(payload, ex["edges"])
        if matched is None:
            return "coloring does not cover the input edges"
        edges, colors = matched
        if len(set(colors)) > 2 or payload.get("palette_size") != len(set(colors)):
            return "not a 2-coloring"
        if len(edges) <= COLOR2_ORACLE_MAX_EDGES:
            bad = oracle.failing_pair(ex["n"], edges, colors)
            if bad is not None:
                return f"pair {bad} has no conflict-free path"
        return None
    if item.kind == "cfc":
        value = payload.get("value")
        if not isinstance(value, int):
            return f"no value (status {payload.get('status')!r})"
        if ex["value"] is not None and value != ex["value"]:
            return f"cfc {value}, the paper gives {ex['value']}"
        matched = _coloring_matches(payload, ex["edges"])
        if matched is None:
            return "witness does not cover the input edges"
        edges, colors = matched
        if len(set(colors)) > value:
            return "witness uses more colors than the value"
        bad = oracle.failing_pair(ex["n"], edges, colors)
        if bad is not None:
            return f"witness leaves pair {bad} without a conflict-free path"
        lower = oracle.cfc_lower_bound(ex["n"], edges)
        if value < lower:
            return f"cfc {value} is below the structural bound {lower}"
        if value > lower and oracle.has_coloring(ex["n"], edges, value - 1):
            return f"cfc {value}, but a conflict-free {value - 1}-coloring exists"
        return None
    if item.kind == "verify":
        if payload.get("theorem") != ex["theorem"] or payload.get("trials") != ex["trials"]:
            return "payload names another run"
        if payload.get("conclusion_fail_count") != 0:
            return f"{payload.get('conclusion_fail_count')} counterexamples"
        return None
    if item.kind == "analyze":
        if payload.get("n") != ex["n"] or payload.get("m") != ex["m"]:
            return "wrong order or size"
        if payload.get("connected") is not True:
            return "reported disconnected"
        cuts = payload.get("cut_edge_count")
        if cuts != ex["cut_edges"] or len(payload.get("cut_edges", ())) != cuts:
            return f"cut_edge_count {cuts}, the construction has {ex['cut_edges']}"
        return None
    return f"unknown item kind {item.kind!r}"


def digest(outputs: Sequence[str]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(out.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()
