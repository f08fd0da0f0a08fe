"""Seeded inputs, request lists and answer checks of the benchmark workloads.

Every input is made here from the seed and written to files; boxtopo only
ever sees those files through its command line.  The benchmark computes
its own reference answers (chromatic numbers, Kneser values), never with
boxtopo.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("bounds", "verify-sweep", "file-pipeline")

# bounds: G(n, p) cells, stratified on the edge count
BOUNDS_N = (6, 7, 8)
BOUNDS_P = (0.5, 0.65, 0.8)
BOUNDS_PER_CELL = 11
# Random graphs have chromatic number at most BOUNDS_MAX_CHI.  With 5 or
# more, a request takes 0.2-13 s (dense SNF on a box complex that collapses
# poorly) and its cost changes up to threefold under a relabeling, so a
# seed-dependent handful of them moved wall_s across seeds by more than its
# bound.  The fixed KG(6,2) rung keeps that regime in every run.  Edge
# counts are capped where such a graph still exists; n = 8 stays below the
# 25 edges at which a request takes 9-400 s.
BOUNDS_MAX_CHI = 4
BOUNDS_MAX_EDGES = {6: 13, 7: 18, 8: 24}
KNESER_RUNGS = ((5, 2), (6, 2))

VERIFY_MAX_N = 6
VERIFY_OUTCOMES = 734

# file-pipeline: every graph on 5 vertices with 4 to 7 edges, up to
# isomorphism (above 7 edges sd(B(G)) alone takes 36 s or more)
PIPELINE_N = 5
PIPELINE_GRAPHS = (
    ((0, 1), (0, 2), (0, 3), (0, 4)),
    ((0, 1), (0, 2), (0, 3), (1, 2)),
    ((0, 1), (0, 2), (0, 3), (1, 4)),
    ((0, 1), (0, 2), (1, 2), (3, 4)),
    ((0, 1), (0, 2), (1, 3), (2, 3)),
    ((0, 1), (0, 2), (1, 3), (2, 4)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (3, 4)),
    ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4)),
    ((0, 1), (0, 2), (1, 3), (2, 4), (3, 4)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)),
    ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)),
)


@dataclass
class Plan:
    """A workload's fixed request list for one seed.

    ``check`` takes the output bytes of every request, in order, and returns
    one problem description per request ("" when the answer is right).
    """

    requests: list[list[str]]
    outputs: list[Path]
    check: Callable[[list[bytes]], list[str]]
    input_digest: str


# ---------------------------------------------------------------------------
# reference computations
# ---------------------------------------------------------------------------

def chromatic_number(n: int, edges) -> int:
    """Exact chromatic number by backtracking (small graphs only)."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    colour = [-1] * n

    def fits(i: int, k: int) -> bool:
        if i == n:
            return True
        used = {colour[w] for w in adj[i] if colour[w] >= 0}
        # a new colour is only tried once (colours are interchangeable)
        top = max(colour[:i], default=-1) + 1
        for c in range(min(k, top + 1)):
            if c not in used:
                colour[i] = c
                if fits(i + 1, k):
                    return True
        colour[i] = -1
        return False

    for k in range(1 if n else 0, n + 1):
        if fits(0, k):
            return k
    return n


def binomial_quantile(trials: int, p: float, q: float) -> int:
    """Smallest k with P[Binomial(trials, p) <= k] >= q."""
    acc = 0.0
    for k in range(trials + 1):
        acc += math.comb(trials, k) * p**k * (1 - p) ** (trials - k)
        if acc >= q:
            return k
    return trials


def kneser_edges(n: int, k: int) -> tuple[int, list[tuple[int, int]]]:
    subsets = list(itertools.combinations(range(n), k))
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(subsets)), 2)
        if not set(subsets[i]) & set(subsets[j])
    ]
    return len(subsets), edges


def _draw(rng: random.Random, n: int, m: int, accept) -> list[tuple[int, int]]:
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(100_000):
        edges = sorted(rng.sample(pairs, m))
        if accept(edges):
            return edges
    raise RuntimeError(f"no graph with n={n}, m={m} met the acceptance rule")


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    """A uniformly random relabeling: a uniform graph of the same isomorphism class."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

def _graph_text(n: int, edges) -> str:
    return json.dumps({"n": n, "edges": [list(e) for e in edges]}, sort_keys=True) + "\n"


def _digest(work: Path, files: list[Path], requests: list[list[str]]) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(f.relative_to(work).as_posix().encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    for argv in requests:
        h.update(" ".join(a.replace(str(work), "<work>") for a in argv).encode() + b"\n")
    return h.hexdigest()


def _json(data: bytes):
    try:
        return json.loads(data)
    except (ValueError, UnicodeDecodeError):
        return None


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def bounds_graphs(seed: int) -> list[tuple[str, int, list, int, int | None]]:
    """(name, n, edges, exact chi, expected bound or None) for every request.

    The random graphs are drawn once from a fixed stream that does not
    depend on the seed: slot i of a cell has the ((i + 1/2)/11) quantile of
    Binomial(C(n,2), p) edges, and its graph is uniform among those with
    chromatic number at most BOUNDS_MAX_CHI.  The seed relabels each one
    at random, so every seed sends different files that cost the same
    work up to the labeling.  The Kneser rungs are fixed.
    """
    rng = random.Random(seed)
    ref = random.Random("bounds-reference")
    out = []
    for n, k in KNESER_RUNGS:
        nv, edges = kneser_edges(n, k)
        value = n - 2 * k + 2
        out.append((f"kg{n}_{k}", nv, edges, value, value))
    for n in BOUNDS_N:
        trials = n * (n - 1) // 2
        for p in BOUNDS_P:
            for i in range(BOUNDS_PER_CELL):
                q = (i + 0.5) / BOUNDS_PER_CELL
                m = min(binomial_quantile(trials, p, q), BOUNDS_MAX_EDGES[n])
                edges = _draw(ref, n, m, lambda e, n=n: chromatic_number(n, e) <= BOUNDS_MAX_CHI)
                chi = chromatic_number(n, edges)
                out.append((f"g{n}_{int(p * 100)}_{i}", n, relabel(rng, n, edges), chi, None))
    return out


def _plan_bounds(seed: int, work: Path) -> Plan:
    requests, outputs, files, expect = [], [], [], []
    for name, n, edges, chi, value in bounds_graphs(seed):
        f = work / f"{name}.json"
        f.write_text(_graph_text(n, edges))
        out = work / f"{name}.bounds.json"
        files.append(f)
        outputs.append(out)
        requests.append(["bounds", str(f), "--exact", "-o", str(out)])
        expect.append((chi, value))

    def check(datas: list[bytes]) -> list[str]:
        problems = []
        for data, (chi, value) in zip(datas, expect):
            obj = _json(data)
            if not isinstance(obj, dict):
                problems.append("output is not a JSON object")
                continue
            try:
                lov, sar, exact = obj["lovasz"]["value"], obj["sarkaria"]["value"], obj["exact_chi"]
            except (KeyError, TypeError):
                problems.append("output lacks lovasz/sarkaria values or exact_chi")
                continue
            if exact != chi:
                problems.append(f"exact_chi {exact} != {chi}")
            elif lov > chi or sar > chi:
                problems.append(f"bound above chi: lovasz {lov}, sarkaria {sar}, chi {chi}")
            elif value is not None and (lov != value or sar != value):
                problems.append(f"Kneser rung: lovasz {lov}, sarkaria {sar}, expected {value}")
            else:
                problems.append("")
        return problems

    return Plan(requests, outputs, check, _digest(work, files, requests))


# ---------------------------------------------------------------------------
# verify-sweep
# ---------------------------------------------------------------------------

def _plan_verify(seed: int, work: Path) -> Plan:
    out = work / "verify.json"
    requests = [["verify", "all", "--max-n", str(VERIFY_MAX_N), "-o", str(out)]]

    def check(datas: list[bytes]) -> list[str]:
        obj = _json(datas[0])
        if not isinstance(obj, list):
            return ["output is not a JSON list"]
        passed = sum(1 for o in obj if isinstance(o, dict) and o.get("passed") is True)
        if len(obj) != VERIFY_OUTCOMES or passed != VERIFY_OUTCOMES:
            return [f"{passed} of {len(obj)} outcomes passed, expected {VERIFY_OUTCOMES} of {VERIFY_OUTCOMES}"]
        return [""]

    return Plan(requests, [out], check, _digest(work, [], requests))


# ---------------------------------------------------------------------------
# file-pipeline
# ---------------------------------------------------------------------------

PIPELINE_STEPS = (
    # (output suffix, argv template); {g} is the graph file, {x} the prefix
    ("hom", ["complex", "hom", "{g}"]),
    ("box", ["complex", "box", "{g}"]),
    ("sd", ["complex", "sd", "{x}.box.json"]),
    ("susp", ["complex", "susp", "{x}.hom.json"]),
    ("hom.h", ["homology", "{x}.hom.json"]),
    ("box.h", ["homology", "{x}.box.json"]),
    ("sd.h", ["homology", "{x}.sd.json"]),
    ("susp.h", ["homology", "{x}.susp.json"]),
)


def pipeline_graphs(seed: int) -> list[tuple[int, list]]:
    """Each PIPELINE_GRAPHS class once, under a seeded random relabeling."""
    rng = random.Random(seed)
    return [(PIPELINE_N, relabel(rng, PIPELINE_N, edges)) for edges in PIPELINE_GRAPHS]


def shifted_dims(dims: list) -> list:
    """The profile of a suspension: every degree up by one (trivial stays trivial)."""
    if not dims:
        return []
    return [{"k": 0, "betti": 0, "torsion": []}] + [
        {**d, "k": d["k"] + 1} for d in dims
    ]


def _plan_pipeline(seed: int, work: Path) -> Plan:
    requests, outputs, files = [], [], []
    for i, (n, edges) in enumerate(pipeline_graphs(seed)):
        g = work / f"p{i}.json"
        g.write_text(_graph_text(n, edges))
        files.append(g)
        x = str(work / f"p{i}")
        for suffix, template in PIPELINE_STEPS:
            out = Path(f"{x}.{suffix}.json")
            argv = [a.format(g=g, x=x) for a in template] + ["-o", str(out)]
            requests.append(argv)
            outputs.append(out)
    steps = len(PIPELINE_STEPS)

    def check(datas: list[bytes]) -> list[str]:
        problems = []
        for start in range(0, len(datas), steps):
            group = [_json(d) for d in datas[start:start + steps]]
            writes, reads = group[:4], group[4:]
            for w in writes:
                ok = isinstance(w, dict) and isinstance(w.get("facets"), list) and w["facets"]
                problems.append("" if ok else "complex output has no facets")
            dims = [r.get("dims") if isinstance(r, dict) else None for r in reads]
            ref = dims[0]
            expected = [ref, ref, ref, shifted_dims(ref) if isinstance(ref, list) else None]
            names = ("Hom(K2,G)", "B(G)", "sd B(G)", "susp Hom(K2,G)")
            for name, got, want in zip(names, dims, expected):
                if not isinstance(got, list):
                    problems.append(f"homology of {name} is not a profile")
                elif got != want:
                    problems.append(f"homology of {name} is {got}, expected {want}")
                else:
                    problems.append("")
        return problems

    return Plan(requests, outputs, check, _digest(work, files, requests))


def make_plan(workload: str, seed: int, work: Path) -> Plan:
    """Generate the workload's inputs for ``seed`` under ``work`` and its request list."""
    makers = {"bounds": _plan_bounds, "verify-sweep": _plan_verify, "file-pipeline": _plan_pipeline}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    return makers[workload](seed, work)
