"""Graph primitives, generators, and exact coloring."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxtopo import graphs, simplicial
from boxtopo.graphs import (
    Graph,
    _canonical_edge_set,
    add_cone_vertex,
    all_labeled_graphs,
    chromatic_number,
    common_neighbors,
    complete_graph,
    cone_k,
    connected_graph_corpus,
    connected_graphs,
    cycle_graph,
    graph_from_edge_list,
    graph_from_obj,
    graph_from_z2_complex,
    graph_to_obj,
    kneser_graph,
    kneser_vertex_subsets,
)
from boxtopo.simplicial import antipodal_cycle_z2, subdivide_involution, two_points_z2


def has_edge(G: Graph, u: int, v: int) -> bool:
    return v in G.adj[u]


def degree_sequence(G: Graph) -> tuple[int, ...]:
    return tuple(sorted(len(a) for a in G.adj))


def is_connected(G: Graph) -> bool:
    """Oracle: depth-first search from vertex 0 reaches every vertex."""
    seen = {0} if G.n else set()
    stack = list(seen)
    while stack:
        for w in G.adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == G.n


def brute_force_chromatic(G: Graph) -> int:
    """Oracle: fewest colors of a proper coloring, by full enumeration of
    the colorings in which each vertex takes a color already used or the
    next new one (every coloring once up to renaming its colors)."""
    if G.n == 0:
        raise ValueError
    colorings = [()]
    for _ in range(G.n):
        colorings = [c + (x,) for c in colorings for x in range(max(c, default=-1) + 2)]
    return min(len(set(c)) for c in colorings if all(c[u] != c[v] for u, v in G.edges))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    # duplicates collapse
    assert len(Graph(3, [(0, 1), (1, 0)]).edges) == 1


def test_common_neighbors_k3():
    assert common_neighbors(complete_graph(3), {0}) == {1, 2}


def test_common_neighbors_c5():
    assert common_neighbors(cycle_graph(5), {0, 2}) == {1}


def test_common_neighbors_empty_set_is_everything():
    G = cycle_graph(5)
    assert common_neighbors(G, set()) == frozenset(range(5))


def test_common_neighbors_range_check():
    with pytest.raises(ValueError):
        common_neighbors(complete_graph(3), {5})


def test_common_neighbors_monotone():
    G = kneser_graph(5, 2)
    subsets = [set(s) for r in range(3) for s in itertools.combinations(range(6), r)]
    for A in subsets:
        for B in subsets:
            if A <= B and B <= set(range(G.n)):
                assert common_neighbors(G, B) <= common_neighbors(G, A)


def test_chromatic_number_small():
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(kneser_graph(5, 2)) == 3


def test_chromatic_number_matches_brute_force():
    for G in connected_graph_corpus(6):
        assert chromatic_number(G) == brute_force_chromatic(G)


def test_chromatic_number_bracketed_by_its_bounds():
    from boxtopo.graphs import greedy_clique_lower_bound

    for G in connected_graph_corpus(5):
        chi = chromatic_number(G)
        assert greedy_clique_lower_bound(G) <= chi


def test_chromatic_number_brute_force_seven_vertices():
    assert chromatic_number(cycle_graph(7)) == brute_force_chromatic(cycle_graph(7))
    G = Graph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3), (2, 5)])
    assert chromatic_number(G) == brute_force_chromatic(G)


def test_chromatic_guard():
    # the search budget counts steps, not vertices: a long path colors at once
    assert chromatic_number(Graph(25, [(i, i + 1) for i in range(24)])) == 2


def test_search_budget_bounds_the_coloring_of_m5(monkeypatch):
    # M5 = M(M(C5)) by the Mycielski construction: a shadow n + v joined to
    # the neighbours of v, and an apex 2n joined to the shadows
    G = cycle_graph(5)
    for _ in range(2):
        n = G.n
        shadows = [(u, n + v) for a, b in G.edges for u, v in ((a, b), (b, a))]
        G = Graph(2 * n + 1, [*G.edges, *shadows, *((n + v, 2 * n) for v in range(n))])
    assert G.n == 23
    # k = 2 (the clique bound) to 5 share one budget: 942 vertices colored,
    # each after a scan of all 23
    monkeypatch.setattr(simplicial, "SEARCH_BUDGET", 21_666)
    assert chromatic_number(G) == 5
    monkeypatch.setattr(simplicial, "SEARCH_BUDGET", 21_665)
    with pytest.raises(ValueError) as exc:
        chromatic_number(G)
    assert str(exc.value) == (
        "the coloring search on 23 vertices would pass the search budget (21,665 steps)"
    )


def test_cone_vertex():
    K2 = add_cone_vertex(complete_graph(1))
    assert K2 == complete_graph(2)
    W5 = add_cone_vertex(cycle_graph(5))
    assert W5.n == 6 and all(has_edge(W5, v, 5) for v in range(5))
    assert chromatic_number(cone_k(cycle_graph(5), 2)) == 5


def test_cone_raises_chi_by_one_on_corpus():
    for G in connected_graph_corpus(5):
        assert chromatic_number(add_cone_vertex(G)) == chromatic_number(G) + 1


def test_kneser_graph_petersen():
    G = kneser_graph(5, 2)
    assert G.n == 10 and len(G.edges) == 15
    assert degree_sequence(G) == (3,) * 10


def test_kneser_small_cases():
    assert kneser_graph(2, 1) == complete_graph(2)
    assert complete_graph(3) == cycle_graph(3)
    with pytest.raises(ValueError):
        kneser_graph(3, 2)


def test_kneser_vertex_order_is_colex():
    assert kneser_vertex_subsets(4, 2) == [
        (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)
    ]


def test_graph_from_z2_two_points():
    assert graph_from_z2_complex(two_points_z2()) == complete_graph(2)


def test_graph_from_z2_four_cycle():
    assert graph_from_z2_complex(antipodal_cycle_z2(4)) == complete_graph(4)


@pytest.mark.parametrize("Z", [antipodal_cycle_z2(4), antipodal_cycle_z2(6)])
def test_graph_from_z2_is_nu_symmetric(Z):
    for W in (Z, subdivide_involution(Z)):
        G = graph_from_z2_complex(W)
        nu = W.action.as_dict()
        relabeled = {(min(nu[u], nu[v]), max(nu[u], nu[v])) for u, v in G.edges}
        assert relabeled == set(G.edges)


def test_graph_from_z2_needs_dense_labels():
    from boxtopo.simplicial import Involution, Z2Complex, from_facets

    Z = Z2Complex(from_facets([[3], [5]]), Involution({3: 5, 5: 3}))
    with pytest.raises(ValueError):
        graph_from_z2_complex(Z)


def test_connected_graph_counts():
    by_n = {n: connected_graphs(n) for n in range(1, 8)}
    # OEIS A001349: connected graphs on n unlabeled vertices
    assert [len(by_n[n]) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    assert len(connected_graph_corpus(5)) == 31
    for n, corpus in by_n.items():
        assert all(is_connected(G) for G in corpus)
        assert len({_canonical_edge_set(G) for G in corpus}) == len(corpus)
    # reference: canonical forms of the connected labeled graphs
    for n in range(6):
        scanned = {
            _canonical_edge_set(G) for G in all_labeled_graphs(n) if is_connected(G)
        }
        assert {G.edges for G in connected_graphs(n)} == scanned


def test_corpus_is_one_recursion_in_connected_graphs_order(monkeypatch):
    for max_n in (0, 1, 6):
        by_n = [G for n in range(1, max_n + 1) for G in connected_graphs(n)]
        assert connected_graph_corpus(max_n) == by_n
    calls = []
    canonical = graphs._canonical_edge_set

    def counted(G):
        calls.append(G.n)
        return canonical(G)

    monkeypatch.setattr(graphs, "_canonical_edge_set", counted)
    connected_graphs(6)
    alone = len(calls)
    calls.clear()
    connected_graph_corpus(6)
    # each smaller class is extended once, not once per larger n
    assert len(calls) == alone == 759


def brute_force_canonical_edge_set(G: Graph) -> frozenset:
    """Oracle: the least sorted edge tuple over every degree-block relabeling."""
    by_degree: dict[int, list[int]] = {}
    for v in range(G.n):
        by_degree.setdefault(len(G.adj[v]), []).append(v)
    classes = [by_degree[d] for d in sorted(by_degree)]
    blocks = []
    offset = 0
    for c in classes:
        blocks.append(range(offset, offset + len(c)))
        offset += len(c)
    best = None
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        perm: dict[int, int] = {}
        for cls, img in zip(classes, parts):
            perm.update(zip(cls, img))
        relabeled = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in G.edges)
        )
        if best is None or relabeled < best:
            best = relabeled
    return frozenset(best or ())


def test_refined_keys_match_the_brute_force_keys_on_every_corpus_candidate(monkeypatch):
    candidates = []
    canonical = graphs._canonical_edge_set

    def recorded(G):
        candidates.append(G)
        return canonical(G)

    monkeypatch.setattr(graphs, "_canonical_edge_set", recorded)
    connected_graphs(6)
    assert len(candidates) == 759
    for G in candidates:
        assert canonical(G) == brute_force_canonical_edge_set(G), sorted(G.edges)


@st.composite
def graphs_on_up_to_eight_vertices(draw):
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=60, deadline=None)
@given(graphs_on_up_to_eight_vertices())
@example(Graph(8, []))
@example(Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]))
@example(Graph(7, [(0, 1), (2, 3), (4, 5)]))
def test_refined_keys_match_the_brute_force_keys(G):
    assert _canonical_edge_set(G) == brute_force_canonical_edge_set(G)


@settings(max_examples=60, deadline=None)
@given(graphs_on_up_to_eight_vertices().filter(lambda G: G.n))
@example(Graph(8, []))
@example(complete_graph(8))
@example(Graph(1, []))
def test_chromatic_number_matches_brute_force_on_random_graphs(G):
    assert chromatic_number(G) == brute_force_chromatic(G)


def test_graph_json_roundtrip():
    G = kneser_graph(5, 2)
    assert graph_from_obj(graph_to_obj(G)) == G


def test_edge_list_reader():
    G = graph_from_edge_list("3\n0 1\n1 2\n")
    assert G == Graph(3, [(0, 1), (1, 2)])


@st.composite
def graphs_on_up_to_ten_vertices(draw):
    n = draw(st.integers(0, 10))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=80, deadline=None)
@given(graphs_on_up_to_ten_vertices(), st.randoms(use_true_random=False))
def test_graph_survives_json_and_edge_list_round_trips(G, rng):
    assert graph_from_obj(json.loads(json.dumps(graph_to_obj(G)))) == G
    lines = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in G.edges]
    rng.shuffle(lines)
    assert graph_from_edge_list("\n".join([str(G.n), *lines]) + "\n") == G


def test_generators_refuse_pair_loops_over_the_budget(monkeypatch):
    with pytest.raises(ValueError, match="face budget"):
        kneser_graph(40, 20)  # C(40, 20) vertices, never enumerated
    monkeypatch.setattr(simplicial, "FACE_BUDGET", 45)  # the pairs of 10 vertices
    assert kneser_graph(5, 2).n == complete_graph(10).n == cone_k(complete_graph(8), 2).n == 10
    for build in (
        lambda: kneser_graph(11, 1),
        lambda: complete_graph(11),
        lambda: cone_k(complete_graph(8), 3),
    ):
        with pytest.raises(ValueError, match="face budget"):
            build()
