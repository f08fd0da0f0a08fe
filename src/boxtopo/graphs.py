"""Finite simple graphs: generators, coloring, and the complex-to-graph map.

Vertices are always 0..n-1.  Connectivity is not required anywhere; all
constructions are well-defined without it.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

from .simplicial import Z2Complex, check_face_budget

Edge = tuple[int, int]


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj")

    n: int
    edges: frozenset[Edge]
    adj: tuple[frozenset[int], ...]

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        check_face_budget(n, f"a graph on {n:,} vertices")
        canon: set[Edge] = set()
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            canon.add((min(u, v), max(u, v)))
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in canon:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(canon))
        object.__setattr__(self, "adj", tuple(frozenset(a) for a in adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def descriptor(self) -> str:
        return f"n{self.n}:" + ",".join(f"{u}-{v}" for u, v in sorted(self.edges))


def common_neighbors(G: Graph, A: Iterable[int]) -> frozenset[int]:
    """Vertices adjacent to every member of A; all of V(G) when A is empty."""
    A = set(A)
    if not A.issubset(range(G.n)):
        raise ValueError("vertex out of range")
    out: set[int] | frozenset[int] = set(range(G.n))
    for a in A:
        out &= G.adj[a]
    return frozenset(out)


# ---------------------------------------------------------------------------
# Exact chromatic number
# ---------------------------------------------------------------------------

def greedy_clique_lower_bound(G: Graph) -> int:
    """Size of a greedily grown clique; a valid lower bound for chi."""
    best = 1 if G.n else 0
    for start in range(G.n):
        clique = {start}
        candidates = set(G.adj[start])
        while candidates:
            v = max(candidates, key=lambda x: (len(G.adj[x] & candidates), -x))
            clique.add(v)
            candidates &= G.adj[v]
        best = max(best, len(clique))
    return best


def _k_colorable(G: Graph, k: int) -> bool:
    """Backtracking k-colorability with DSATUR vertex selection."""
    if k >= G.n:
        return True
    colors = [-1] * G.n
    neighbor_colors: list[set[int]] = [set() for _ in range(G.n)]

    def pick() -> int:
        best, key = -1, (-1, -1)
        for v in range(G.n):
            if colors[v] == -1:
                cand = (len(neighbor_colors[v]), len(G.adj[v]))
                if cand > key:
                    best, key = v, cand
        return best

    # one frame per colored vertex: [vertex, colors used before it, next
    # color to try, uncolored neighbors its color was added to]; an explicit
    # stack, so long graphs need no recursion
    stack: list[list] = []
    used = 0
    while len(stack) < G.n:
        v = pick()
        if len(neighbor_colors[v]) < k:
            stack.append([v, used, 0, []])
        # give the top vertex its next color, backtracking while none is left
        while True:
            if not stack:
                return False
            frame = stack[-1]
            v, before, c, touched = frame
            if colors[v] != -1:
                for w in touched:
                    neighbor_colors[w].discard(colors[v])
                touched.clear()
                colors[v] = -1
            # trying at most one brand-new color kills color-permutation symmetry
            limit = min(before + 1, k)
            while c < limit and c in neighbor_colors[v]:
                c += 1
            if c < limit:
                break
            stack.pop()
        colors[v] = c
        frame[2] = c + 1
        for w in G.adj[v]:
            if colors[w] == -1 and c not in neighbor_colors[w]:
                neighbor_colors[w].add(c)
                touched.append(w)
        used = max(before, c + 1)
    return True


COLORING_GUARD = 20


def chromatic_number(G: Graph, *, force: bool = False) -> int:
    """Exact chromatic number: the least k, counting up from a greedy
    clique's size, for which the backtracking search _k_colorable succeeds.

    The search picks vertices as DSATUR does (most colors among the
    neighbours, then highest degree, then the smallest number) and tries
    the smallest free color first.  So for any k at least DSATUR's color
    count its first descent is DSATUR's coloring and it never backtracks:
    the loop stops there at the latest, and a separate DSATUR pass would
    bound nothing.  Guarded at `COLORING_GUARD` vertices (override with
    force=True).
    """
    if G.n < 1:
        raise ValueError("chromatic number needs at least one vertex")
    if G.n > COLORING_GUARD and not force:
        raise ValueError(
            f"graph on {G.n} vertices exceeds the exact-coloring guard "
            f"({COLORING_GUARD}); pass force=True (`bounds --force`) to override"
        )
    k = greedy_clique_lower_bound(G)
    while not _k_colorable(G, k):
        k += 1
    return k


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    check_face_budget(math.comb(n, 2), f"the vertex pairs of K{n}")
    return Graph(n, itertools.combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle graph needs n >= 3")
    # the edges are listed lazily, after Graph has checked n
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def kneser_vertex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """The k-subsets of {1..n} in colexicographic order (the fixed vertex order)."""
    subsets = [tuple(sorted(s)) for s in itertools.combinations(range(1, n + 1), k)]
    return sorted(subsets, key=lambda s: tuple(reversed(s)))


def kneser_graph(n: int, k: int) -> Graph:
    """Vertices are k-subsets of {1..n} (colex order); edges join disjoint pairs."""
    if not n >= 2 * k >= 2:
        raise ValueError("kneser graph needs n >= 2k >= 2")
    check_face_budget(math.comb(math.comb(n, k), 2), f"the vertex pairs of KG({n}, {k})")
    subsets = kneser_vertex_subsets(n, k)
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(subsets)), 2)
        if not set(subsets[i]) & set(subsets[j])
    ]
    return Graph(len(subsets), edges)


def add_cone_vertex(G: Graph) -> Graph:
    """Add one vertex adjacent to everything; raises chi by exactly one."""
    w = G.n
    return Graph(G.n + 1, list(G.edges) + [(v, w) for v in range(G.n)])


def cone_k(G: Graph, k: int) -> Graph:
    if k < 0:
        raise ValueError("k must be nonnegative")
    check_face_budget(math.comb(G.n + k, 2), f"the vertex pairs of a graph on {G.n + k} vertices")
    for _ in range(k):
        G = add_cone_vertex(G)
    return G


def graph_from_z2_complex(Z: Z2Complex) -> Graph:
    """The graph whose edges join each vertex to its pair and the pair's neighbors.

    x-y is an edge iff nu(x)=y, or {x,nu(y)} is a face, or {y,nu(x)} is a
    face.  Requires dense labels 0..n-1 (subdivision output already is).
    """
    K = Z.complex
    verts = K.vertices
    if verts != tuple(range(len(verts))):
        raise ValueError("complex vertices must be 0..n-1; relabel first")
    nu = Z.action.as_dict()
    n = len(verts)
    edges = []
    for x, y in itertools.combinations(range(n), 2):
        if (
            nu[x] == y
            or tuple(sorted({x, nu[y]})) in K.faces
            or tuple(sorted({y, nu[x]})) in K.faces
        ):
            edges.append((x, y))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Desk-scale corpora
# ---------------------------------------------------------------------------

def all_labeled_graphs(n: int):
    """Yield all 2^C(n,2) labeled graphs on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def _canonical_edge_set(G: Graph) -> frozenset[Edge]:
    """Canonical edge set: each degree class is relabeled onto a fixed
    block of labels (blocks ordered by degree) and the least sorted edge
    tuple over the within-block assignments is taken.

    That tuple lists row 0 (the neighbors of label 0 above 0), then row 1
    above 1, and so on; of two rows, the one holding the smallest label in
    their symmetric difference comes first.  So the least tuple is the
    labeling whose rows, as bitmasks with label b at bit n - 1 - b, are
    lexicographically greatest, and it is found by individualization and
    refinement (McKay, "Practical graph isomorphism", 1981) instead of
    trying every assignment.  The unlabeled vertices are kept as an
    ordered partition into cells, each cell a run of consecutive labels;
    at first the cells are the degree classes.  Label k goes to each
    vertex v, in turn, of the first cell, and every cell after v is split
    into v's neighbors, then the rest.  Row k is then the greatest that
    any labeling respecting the cells can give v.  Rows 0..k are the same
    for every labeling that respects the split cells, because a cell's
    vertices all have the same adjacency to every labeled vertex.  Only
    the splits whose row k ties with the greatest are kept.

    No optimal labeling is pruned.  By induction it respects the cells of
    some kept partition, and it gives label k to some v of the first cell.
    Its row k is optimal, so it equals the greatest row k of that split,
    and a row k that great puts v's neighbors first in every cell: the
    optimal labeling respects the split too.  Partial labelings that leave
    the same ordered partition have the same completions above k, so each
    partition is kept once.
    """
    n = G.n
    adj = [sum(1 << w for w in G.adj[v]) for v in range(n)]
    by_degree: dict[int, int] = {}
    for v in range(n):
        d = len(G.adj[v])
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    partitions = {tuple(by_degree[d] for d in sorted(by_degree))}
    edges: list[Edge] = []
    for k in range(n):
        best, kept = -1, set()
        for first, *later in partitions:
            pick = first
            while pick:
                low = pick & -pick
                pick ^= low
                nbrs = adj[low.bit_length() - 1]
                row, top, split = 0, n - k - 1, []
                for cell in (first ^ low, *later):
                    inside = cell & nbrs
                    # v's neighbors take the cell's first labels
                    c = inside.bit_count()
                    row |= ((1 << c) - 1) << (top - c)
                    top -= cell.bit_count()
                    if inside:
                        split.append(inside)
                    if inside != cell:
                        split.append(cell ^ inside)
                if row > best:
                    best, kept = row, {tuple(split)}
                elif row == best:
                    kept.add(tuple(split))
        partitions = kept
        edges.extend((k, n - 1 - b) for b in range(best.bit_length()) if best >> b & 1)
    return frozenset(edges)


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on exactly n vertices, one per isomorphism class."""
    if n <= 1:
        return [Graph(n, [])]
    return [G for G in connected_graph_corpus(n) if G.n == n]


def connected_graph_corpus(max_n: int) -> list[Graph]:
    """Connected graphs on 1..max_n vertices up to isomorphism.

    One recursion: each class on n - 1 vertices gains vertex n - 1,
    joined to every nonempty subset of the others.  Deleting a leaf of a
    spanning tree leaves a connected graph, so every class on n vertices
    arises this way; each is kept the first time its canonical form is
    seen.
    """
    out = [Graph(1, [])] if max_n >= 1 else []
    seen: set[frozenset[Edge]] = set()
    for n in range(2, max_n + 1):
        for H in [H for H in out if H.n == n - 1]:
            for mask in range(1, 1 << (n - 1)):
                join = [(v, n - 1) for v in range(n - 1) if mask >> v & 1]
                key = _canonical_edge_set(Graph(n, [*H.edges, *join]))
                if key not in seen:
                    seen.add(key)
                    out.append(Graph(n, key))
    return out


# ---------------------------------------------------------------------------
# I/O: JSON {"n": int, "edges": [[u, v], ...]} and plain edge lists
# ---------------------------------------------------------------------------

def graph_to_obj(G: Graph) -> dict:
    return {"n": G.n, "edges": [list(e) for e in sorted(G.edges)]}


def graph_from_obj(obj: dict) -> Graph:
    """Parse the graph JSON format; a malformed shape raises ValueError."""
    n, edges = (obj.get("n"), obj.get("edges")) if isinstance(obj, dict) else (None, None)
    # type(x) is int: JSON true/false parse to bool, a subclass of int
    if type(n) is not int or not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)
        for e in edges
    ):
        raise ValueError('graph JSON must be {"n": int, "edges": [[u, v], ...]}')
    return Graph(n, [tuple(e) for e in edges])


def graph_from_edge_list(text: str) -> Graph:
    """Plain-text reader: first line n, then one "u v" pair per line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        u, v = ln.split()
        edges.append((int(u), int(v)))
    return Graph(n, edges)
