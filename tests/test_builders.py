"""Box-type complexes against the raw definitions.

The oracle here enumerates faces directly from the definition (all
disjoint pairs, all conditions checked literally); the builders must
agree with it on every small graph.
"""

from __future__ import annotations

import itertools

import pytest

from boxtopo import builders, simplicial
from boxtopo.bounds import Builds
from boxtopo.builders import (
    box_complex,
    box0_complex,
    cones_over_shores_complex,
    hom_k2_order_complex,
    hom_pairs,
    neighborhood_complex,
    shore_subcomplex,
)
from boxtopo.graphs import (
    Graph,
    add_cone_vertex,
    common_neighbors,
    complete_graph,
    connected_graph_corpus,
    cycle_graph,
    kneser_graph,
)
from boxtopo.homology import reduced_homology
from boxtopo.simplicial import euler_characteristic, from_facets

CORPUS = connected_graph_corpus(4) + [cycle_graph(5), complete_graph(5)]


def is_complete_bipartite_between(G: Graph, A, B) -> bool:
    """True iff every cross pair a-b is an edge; vacuously true on empty sides."""
    A, B = set(A), set(B)
    if A & B:
        raise ValueError("shores must be disjoint")
    return all(b in G.adj[a] for a in A for b in B)


def direct_box_faces(G: Graph, with_cn_conditions: bool) -> set[tuple[int, ...]]:
    """Oracle: every disjoint pair (A, B), each condition checked literally."""
    faces = set()
    verts = range(G.n)
    for ra in range(G.n + 1):
        for A in itertools.combinations(verts, ra):
            rest = [v for v in verts if v not in A]
            for rb in range(len(rest) + 1):
                for B in itertools.combinations(rest, rb):
                    if not A and not B:
                        continue
                    if not is_complete_bipartite_between(G, A, B):
                        continue
                    if with_cn_conditions and (
                        not common_neighbors(G, A) or not common_neighbors(G, B)
                    ):
                        continue
                    faces.add(tuple(sorted([2 * a for a in A] + [2 * b + 1 for b in B])))
    return faces


def test_complete_bipartite_between():
    assert is_complete_bipartite_between(complete_graph(4), {0, 1}, {2, 3})
    assert not is_complete_bipartite_between(cycle_graph(5), {0}, {2})
    assert is_complete_bipartite_between(cycle_graph(5), set(), {0, 1, 2})
    with pytest.raises(ValueError):
        is_complete_bipartite_between(complete_graph(4), {0, 1}, {1, 2})


def test_neighborhood_complex_k2():
    assert neighborhood_complex(complete_graph(2)).faces == {(0,), (1,)}


def test_neighborhood_complex_k3():
    assert neighborhood_complex(complete_graph(3)) == from_facets([[0, 1], [1, 2], [0, 2]])


def test_neighborhood_complex_c5():
    N = neighborhood_complex(cycle_graph(5))
    assert N == from_facets([[i, (i + 2) % 5] for i in range(5)])


def test_box_complex_k1_empty():
    assert box_complex(complete_graph(1)).complex.is_empty()


def test_box_complex_k2_two_disjoint_edges():
    K = box_complex(complete_graph(2)).complex
    assert K.f_vector() == (4, 2)
    assert set(K.k_faces(1)) == {(0, 3), (1, 2)}


def test_box_complex_k3():
    K = box_complex(complete_graph(3)).complex
    assert K.f_vector() == (6, 12, 6)
    assert euler_characteristic(K) == 0
    prof = reduced_homology(K)
    assert prof.betti(0) == 0 and prof.betti(1) == 1 and not prof.torsion(1)


@pytest.mark.parametrize("G", CORPUS, ids=lambda G: G.descriptor())
def test_box_complex_matches_direct_enumeration(G):
    assert box_complex(G).complex.faces == direct_box_faces(G, with_cn_conditions=True)


def set_box_facets(G: Graph, N) -> list[tuple[int, ...]]:
    """Oracle: the set-based builder, one (CN(CN(S)), CN(S)) pair per face S of N."""
    pairs = set()
    for S in N.faces:
        B = common_neighbors(G, S)
        A = common_neighbors(G, B)
        pairs.add((tuple(sorted(A)), tuple(sorted(B))))
    return [builders._encode_pair(A, B) for A, B in pairs]


def test_box_facets_on_bitmasks_match_the_set_based_builder():
    six = connected_graph_corpus(6)
    inputs = six + [add_cone_vertex(G) for G in six]
    inputs += [kneser_graph(5, 2), Graph(1, []), Graph(5, [])]
    for G in inputs:
        N = neighborhood_complex(G)
        # the same facets in the same order (no output depends on the order)
        assert builders._box_facets(G, N) == set_box_facets(G, N), G.descriptor()


@pytest.mark.parametrize("G", CORPUS, ids=lambda G: G.descriptor())
def test_box0_complex_matches_direct_enumeration(G):
    assert box0_complex(G).complex.faces == direct_box_faces(G, with_cn_conditions=False)


def test_box0_k1_is_two_points():
    assert box0_complex(complete_graph(1)).complex.faces == {(0,), (1,)}


def test_box0_k2_is_four_cycle():
    K = box0_complex(complete_graph(2)).complex
    assert K.f_vector() == (4, 4)
    assert set(K.k_faces(1)) == {(0, 2), (1, 3), (0, 3), (1, 2)}


@pytest.mark.parametrize("G", CORPUS, ids=lambda G: G.descriptor())
def test_box0_shores_are_full_simplices(G):
    K = box0_complex(G).complex
    assert tuple(2 * v for v in range(G.n)) in K.faces
    assert tuple(2 * v + 1 for v in range(G.n)) in K.faces


@pytest.mark.parametrize("G", CORPUS, ids=lambda G: G.descriptor())
def test_box_faces_inside_box0(G):
    assert box_complex(G).complex.faces <= box0_complex(G).complex.faces


def test_cones_over_shores_k1():
    K = cones_over_shores_complex(complete_graph(1)).complex
    assert K.f_vector() == (2,)  # just the two apexes


def test_cones_over_shores_k2_is_hexagon():
    # the apexes cone the shore vertices only (no shore edge exists in B(K2)),
    # which closes the two cross edges into a single six-cycle
    K = cones_over_shores_complex(complete_graph(2)).complex
    assert K.f_vector() == (6, 6)
    prof = reduced_homology(K)
    assert prof.betti(0) == 0 and prof.betti(1) == 1


def test_cones_over_shores_builds_the_neighborhood_complex_once(monkeypatch):
    calls = []

    def counted(G):
        calls.append(G)
        return neighborhood_complex(G)

    monkeypatch.setattr(builders, "neighborhood_complex", counted)
    cones_over_shores_complex(cycle_graph(5))
    assert len(calls) == 1


@pytest.mark.parametrize("G", CORPUS, ids=lambda G: G.descriptor())
def test_cones_over_shores_action_swaps_the_apexes(G):
    act = cones_over_shores_complex(G).action
    x, y = 2 * G.n, 2 * G.n + 1
    assert act(x) == y and act(y) == x


@pytest.mark.parametrize("G", CORPUS, ids=lambda G: G.descriptor())
def test_cones_over_shores_euler_matches_box0(G):
    bc = cones_over_shores_complex(G).complex
    b0 = box0_complex(G).complex
    assert euler_characteristic(bc) == euler_characteristic(b0)
    assert reduced_homology(bc) == reduced_homology(b0)


def test_hom_pairs_k2():
    assert hom_pairs(complete_graph(2)) == [((0,), (1,)), ((1,), (0,))]
    K = hom_k2_order_complex(complete_graph(2)).complex
    assert K.faces == {(0,), (1,)}


def test_hom_k3_matches_box_homology():
    Z = hom_k2_order_complex(complete_graph(3))
    assert len(hom_pairs(complete_graph(3))) == 12
    prof = reduced_homology(Z.complex)
    assert prof.betti(1) == 1 and prof.betti(0) == 0
    assert prof == reduced_homology(box_complex(complete_graph(3)).complex)


@pytest.mark.parametrize("G", [complete_graph(2), cycle_graph(5), complete_graph(4)])
def test_hom_pairs_budget_counts_vertices_and_edges(G, monkeypatch):
    # Hom(K2, G) is refused before its poset is listed once its vertices and
    # the comparable pairs among them alone pass the budget
    f = hom_k2_order_complex(G).complex.f_vector() + (0, 0)
    monkeypatch.setattr(simplicial, "FACE_BUDGET", f[0] + f[1])
    assert len(hom_pairs(G)) == f[0]
    monkeypatch.setattr(simplicial, "FACE_BUDGET", f[0] + f[1] - 1)
    with pytest.raises(ValueError, match="face budget"):
        hom_pairs(G)


@pytest.mark.parametrize("G", connected_graph_corpus(4), ids=lambda G: G.descriptor())
def test_hom_matches_box_homology_on_corpus(G):
    assert reduced_homology(hom_k2_order_complex(G).complex) == reduced_homology(
        box_complex(G).complex
    )


def test_shore_subcomplex_is_neighborhood_complex():
    for G in (complete_graph(3), cycle_graph(5)):
        Z = box_complex(G)
        N = neighborhood_complex(G)
        assert shore_subcomplex(Z, 0) == N
        assert shore_subcomplex(Z, 1) == N


def test_shores_are_disjoint():
    Z = box_complex(cycle_graph(5))
    v0 = {v for v in Z.complex.vertices if v % 2 == 0}
    v1 = {v for v in Z.complex.vertices if v % 2 == 1}
    assert not v0 & v1 and v0 | v1 == set(Z.complex.vertices)


def test_shore_subcomplex_rejects_coned_complex():
    Z = cones_over_shores_complex(complete_graph(2))
    with pytest.raises(ValueError):
        shore_subcomplex(Z, 0)


def test_shore_subcomplex_rejects_box0():
    Z = box0_complex(complete_graph(2))
    with pytest.raises(ValueError):
        shore_subcomplex(Z, 0)


def test_shore_subcomplex_with_a_scope_still_rejects_forgeries():
    # the scope already holds B(G) for the graph that B0(G)'s cross edges recover
    for G in (complete_graph(2), cycle_graph(5)):
        builds = Builds()
        assert shore_subcomplex(builds.box(G), 1, builds=builds) == neighborhood_complex(G)
        for forged in (box0_complex(G), cones_over_shores_complex(G)):
            with pytest.raises(ValueError):
                shore_subcomplex(forged, 0, builds=builds)


def test_shore_subcomplex_rejects_hom_complex():
    Z = hom_k2_order_complex(complete_graph(3))
    with pytest.raises(ValueError):
        shore_subcomplex(Z, 0)


def test_shore_subcomplex_rejects_bad_shore():
    with pytest.raises(ValueError):
        shore_subcomplex(box_complex(complete_graph(2)), 2)


@pytest.mark.parametrize("G", CORPUS, ids=lambda G: G.descriptor())
def test_box_euler_characteristic_even_with_edges(G):
    if G.edges:
        assert euler_characteristic(box_complex(G).complex) % 2 == 0
