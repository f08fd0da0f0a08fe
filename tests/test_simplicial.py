"""Core simplicial constructions against hand-checked small cases."""

from __future__ import annotations

import ast
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtopo import simplicial
from boxtopo.builders import (
    _encode_pair,
    box0_complex,
    box_complex,
    cones_over_shores_complex,
    hom_k2_order_complex,
    hom_pairs,
    neighborhood_complex,
)
from boxtopo.graphs import (
    Graph,
    add_cone_vertex,
    complete_graph,
    connected_graph_corpus,
    cycle_graph,
    kneser_graph,
)
from boxtopo.homology import collapse_reduce, reduced_homology
from boxtopo.simplicial import (
    Face,
    Involution,
    SimplicialComplex,
    Z2Complex,
    antipodal_cycle_z2,
    barycentric_subdivision,
    complex_from_obj,
    complex_to_obj,
    euler_characteristic,
    from_facets,
    isomorphic,
    nerve,
    octahedron_z2,
    order_complex,
    sd_vertex_faces,
    star,
    strong_core,
    subdivide_involution,
    suspension,
    two_points_z2,
    z2_suspension,
)

TRIANGLE_BOUNDARY = from_facets([[0, 1], [1, 2], [0, 2]])
SOLID_TRIANGLE = from_facets([[0, 1, 2]])
TETRA_BOUNDARY = from_facets(list(itertools.combinations(range(4), 3)))


def cone(K: SimplicialComplex, apex: int) -> SimplicialComplex:
    """Join with a single fresh apex; the result is contractible."""
    if apex in K.vertices:
        raise ValueError(f"apex {apex} already a vertex")
    faces = set(K.faces)
    faces.add((apex,))
    for f in K.faces:
        faces.add(tuple(sorted(f + (apex,))))
    return SimplicialComplex(faces)
FOUR_CYCLE = from_facets([[0, 1], [1, 2], [2, 3], [0, 3]])


def test_from_facets_two_edges():
    K = from_facets([{1, 2}, {2, 3}])
    assert K.faces == {(1,), (2,), (3,), (1, 2), (2, 3)}


def test_from_facets_empty():
    K = from_facets([])
    assert K.dim == -1 and len(K.faces) == 0 and K.is_empty()


def test_from_facets_tetrahedron_boundary():
    # 4 vertices + 6 edges + 4 triangles
    assert len(TETRA_BOUNDARY.faces) == 14
    assert TETRA_BOUNDARY.f_vector() == (4, 6, 4)


def test_from_facets_rejects_empty_facet():
    with pytest.raises(ValueError):
        from_facets([[]])


def test_from_facets_budget_counts_the_closure(monkeypatch):
    monkeypatch.setattr(simplicial, "FACE_BUDGET", 7)
    assert len(from_facets([[0, 1, 2]])) == len(from_facets([[0, 1], [1, 2], [2, 3]])) == 7
    monkeypatch.setattr(simplicial, "FACE_BUDGET", 6)
    # one facet's closure is refused before it is expanded, a union once it passes
    with pytest.raises(ValueError, match="closure of one facet"):
        from_facets([[0, 1, 2]])
    with pytest.raises(ValueError, match="closure of the facets"):
        from_facets([[0, 1], [1, 2], [2, 3]])


def test_constructor_rejects_open_face_set():
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 1)])


def test_closure_idempotence():
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
    sd_box = barycentric_subdivision(box_complex(G).complex)
    hom = hom_k2_order_complex(G).complex
    for K in (TRIANGLE_BOUNDARY, SOLID_TRIANGLE, TETRA_BOUNDARY, FOUR_CYCLE, sd_box, hom):
        facets = K.facets()
        assert from_facets(facets) == K
        assert not any(set(f) < set(g) for f in facets for g in facets)


def test_euler_characteristic():
    assert euler_characteristic(from_facets([[7]])) == 1
    assert euler_characteristic(TRIANGLE_BOUNDARY) == 0
    assert euler_characteristic(TETRA_BOUNDARY) == 2
    assert euler_characteristic(from_facets([])) == 0


def test_sd_of_edge_is_path():
    sd = barycentric_subdivision(from_facets([[1, 2]]))
    assert sd.f_vector() == (3, 2)
    assert isomorphic(sd, from_facets([[0, 1], [1, 2]]))


def test_sd_of_solid_triangle_counts():
    # oracle: chains in the 7-element face poset, enumerated directly
    faces = sorted(SOLID_TRIANGLE.faces, key=lambda f: (len(f), f))
    chains = [
        c
        for r in range(1, 4)
        for c in itertools.combinations(faces, r)
        if all(set(a) < set(b) for a, b in itertools.combinations(c, 2))
    ]
    by_len = [sum(1 for c in chains if len(c) == r) for r in (1, 2, 3)]
    assert by_len == [7, 12, 6]
    sd = barycentric_subdivision(SOLID_TRIANGLE)
    assert sd.f_vector() == (7, 12, 6)


def pairwise_order_complex(sets) -> SimplicialComplex:
    """Reference: the order complex with every pair of members compared."""
    members = [frozenset(x) for x in sets]
    above = [[j for j, t in enumerate(members) if x < t] for x in members]
    chains = []

    def extend(chain):
        chains.append(chain)
        for j in above[chain[-1]]:
            extend(chain + (j,))

    for i in range(len(members)):
        extend((i,))
    return SimplicialComplex(chains)


def order_families() -> list:
    families = [[()], [(), (0,), (1,), (0, 1)], [(v,) for v in range(50)]]
    # members of differing sizes, so a cover is not always one vertex larger
    families.append([(0,), (0, 1, 2), (0, 1, 2, 3), (1,), (1, 3), (0, 1, 2, 3, 4, 5), (5, 6)])
    for G in connected_graph_corpus(5):
        families.append(sd_vertex_faces(box_complex(G).complex))
        families.append([_encode_pair(A, B) for A, B in hom_pairs(G)])
    return families


def test_order_complex_matches_the_pairwise_reference():
    for family in order_families():
        assert order_complex(family) == pairwise_order_complex(family)


def test_order_complex_facets_are_the_maximal_chains():
    # the walk lists each maximal chain of the reference once, and closes them
    for family in order_families():
        maximal = pairwise_order_complex(family).facets()
        assert sorted(tuple(sorted(c)) for c in simplicial._maximal_chains(family)) == maximal
        assert order_complex(family).facets() == maximal


def test_order_complex_budget_counts_members_pairs_and_chains(monkeypatch):
    family = sd_vertex_faces(SOLID_TRIANGLE)  # 7 members, 12 pairs, 6 triangles
    monkeypatch.setattr(simplicial, "FACE_BUDGET", 25)
    assert len(order_complex(family)) == 25
    # members and comparable pairs are refused before any chain is built,
    # and the 6 maximal chains fit where their 25-face closure does not
    for budget, counted in ((24, "closure"), (18, "comparable pairs"), (6, "comparable pairs")):
        monkeypatch.setattr(simplicial, "FACE_BUDGET", budget)
        with pytest.raises(ValueError, match=counted):
            order_complex(family)


@pytest.mark.parametrize(
    "K", [TRIANGLE_BOUNDARY, SOLID_TRIANGLE, TETRA_BOUNDARY, FOUR_CYCLE]
)
def test_sd_preserves_euler_characteristic(K):
    assert euler_characteristic(barycentric_subdivision(K)) == euler_characteristic(K)


def test_sd_vertex_faces_is_the_label_dictionary():
    order = sd_vertex_faces(FOUR_CYCLE)
    assert order[:4] == [(0,), (1,), (2,), (3,)]
    assert set(order[4:]) == {(0, 1), (0, 3), (1, 2), (2, 3)}


def test_subdivide_involution_on_two_points():
    Z = subdivide_involution(two_points_z2())
    assert Z.complex.faces == {(0,), (1,)}
    assert Z.action.as_dict() == {0: 1, 1: 0}


def test_subdivide_involution_four_cycle_gives_eight_cycle():
    Z = subdivide_involution(antipodal_cycle_z2(4))
    # labels 0..3 are the vertices, 4..7 the edges in sorted order
    assert sorted(Z.complex.k_faces(1)) == [
        (0, 4), (0, 5), (1, 4), (1, 6), (2, 6), (2, 7), (3, 5), (3, 7)
    ]
    assert Z.action.as_dict() == {0: 2, 1: 3, 2: 0, 3: 1, 4: 7, 5: 6, 6: 5, 7: 4}
    assert isomorphic(Z.complex, from_facets([[i, (i + 1) % 8] for i in range(8)]))


@pytest.mark.parametrize("G", connected_graph_corpus(5), ids=lambda G: G.descriptor())
def test_subdivide_involution_subdivides_the_box_complex(G):
    Z = box_complex(G)
    assert subdivide_involution(Z).complex == barycentric_subdivision(Z.complex)


NAMED_Z2 = [two_points_z2(), antipodal_cycle_z2(4), antipodal_cycle_z2(6), octahedron_z2()]


def assert_passes_the_public_constructor(Z: Z2Complex) -> None:
    # the public constructors check every face and the action on every face
    assert Z == Z2Complex(SimplicialComplex(Z.complex.faces), Z.action)


@pytest.mark.parametrize("G", connected_graph_corpus(5), ids=lambda G: G.descriptor())
def test_order_complexes_and_suspensions_of_the_corpus_pass_the_public_constructor(G):
    for Z in (subdivide_involution(box_complex(G)), z2_suspension(box_complex(G)), hom_k2_order_complex(G)):
        assert_passes_the_public_constructor(Z)


@pytest.mark.parametrize("Z", NAMED_Z2)
def test_subdivisions_and_suspensions_of_named_complexes_pass_the_public_constructor(Z):
    for out in (subdivide_involution(Z), z2_suspension(Z)):
        assert_passes_the_public_constructor(out)


@pytest.mark.parametrize("Z", NAMED_Z2)
def test_subdivide_involution_stays_free(Z):
    # Z2Complex construction would raise if the result were not free
    out = subdivide_involution(Z)
    act = out.action
    for f in out.complex.faces:
        assert act.on_face(f) != f
        assert act.on_face(f) in out.complex.faces


def test_suspension_of_empty_is_two_points():
    assert suspension(from_facets([])).faces == {(0,), (1,)}


def test_suspension_of_two_points_is_four_cycle():
    S0 = from_facets([[0], [1]])
    assert isomorphic(suspension(S0), FOUR_CYCLE)


def test_suspension_euler():
    four_points = from_facets([[0], [1], [2], [3]])
    K = suspension(four_points)
    assert K.f_vector() == (6, 8)
    assert euler_characteristic(K) == -2
    for base in (TRIANGLE_BOUNDARY, SOLID_TRIANGLE, four_points, from_facets([])):
        assert euler_characteristic(suspension(base)) == 2 - euler_characteristic(base)


def test_suspension_never_joins_both_apexes():
    K = suspension(TRIANGLE_BOUNDARY)
    x, y = [v for v in K.vertices if v not in TRIANGLE_BOUNDARY.vertices]
    assert all(not ({x, y} <= set(f)) for f in K.faces)


def test_z2_suspension_swaps_apexes():
    Z = z2_suspension(two_points_z2())
    assert isomorphic(Z.complex, FOUR_CYCLE)
    act = Z.action.as_dict()
    assert act[2] == 3 and act[3] == 2  # fresh apexes swap


def test_star_of_vertex_in_solid_triangle():
    assert star(SOLID_TRIANGLE, [0]) == SOLID_TRIANGLE


def test_star_of_path_endpoint():
    path = from_facets([[1, 2], [2, 3]])
    assert star(path, [1]) == from_facets([[1, 2]])


def test_star_of_tetra_edge():
    S = star(TETRA_BOUNDARY, [0, 1])
    assert S == from_facets([[0, 1, 2], [0, 1, 3]])


def test_star_requires_membership():
    with pytest.raises(ValueError):
        star(TRIANGLE_BOUNDARY, [0, 1, 2])


def test_nerve_disjoint_sets():
    K = nerve([(0, {1, 2}), (1, {3, 4})])
    assert K.faces == {(0,), (1,)}


def test_nerve_pairwise_but_no_triple():
    K = nerve([(0, {1, 2}), (1, {2, 3}), (2, {3, 1})])
    assert K == from_facets([[0, 1], [1, 2], [0, 2]])


def test_nerve_of_open_vertex_stars_recovers_four_cycle():
    # open star of v = the faces containing v; their nerve is the complex itself
    family = [
        (v, frozenset(f for f in FOUR_CYCLE.faces if v in f))
        for v in FOUR_CYCLE.vertices
    ]
    assert nerve(family) == FOUR_CYCLE


def test_nerve_rejects_empty_member():
    with pytest.raises(ValueError):
        nerve([(0, set())])


def test_cone_over_two_points():
    K = cone(from_facets([[0], [1]]), 9)
    assert isomorphic(K, from_facets([[0, 1], [1, 2]]))


def test_cone_over_empty_is_point():
    assert cone(from_facets([]), 0).faces == {(0,)}


def test_cone_is_contractible_by_euler():
    assert euler_characteristic(cone(TRIANGLE_BOUNDARY, 5)) == 1


def test_cone_rejects_used_apex():
    with pytest.raises(ValueError):
        cone(TRIANGLE_BOUNDARY, 1)


def test_isomorphic_four_cycles():
    other = from_facets([[5, 7], [7, 6], [6, 8], [8, 5]])
    assert isomorphic(FOUR_CYCLE, other)


def test_isomorphic_cycle_vs_path():
    path4 = from_facets([[0, 1], [1, 2], [2, 3]])
    assert not isomorphic(FOUR_CYCLE, path4)


def test_isomorphic_relabeled_subdivisions():
    sd = barycentric_subdivision(SOLID_TRIANGLE)
    perm = {v: (3 * v + 1) % 7 for v in sd.vertices}  # a bijection on 0..6
    assert isomorphic(sd, sd.relabel(perm))


def test_isomorphic_guard(monkeypatch):
    # the search budget counts the faces checked, not the vertices: two
    # labelings of the 14-cycle take 44 checks of its 28 faces
    C = from_facets([[i, (i + 1) % 14] for i in range(14)])
    D = C.relabel({v: 3 * v % 14 for v in C.vertices})
    monkeypatch.setattr(simplicial, "SEARCH_BUDGET", 1232)
    assert isomorphic(C, D)
    monkeypatch.setattr(simplicial, "SEARCH_BUDGET", 1231)
    with pytest.raises(ValueError) as exc:
        isomorphic(C, D)
    assert str(exc.value) == (
        "an isomorphism search on 14 vertices would pass the search budget (1,231 steps)"
    )


def test_isomorphism_of_a_long_cycle_needs_no_recursion():
    # one search frame per vertex: a recursive search passes Python's
    # default recursion limit of 1000 here
    C = from_facets([[i, (i + 1) % 1001] for i in range(1001)])
    assert isomorphic(C, C)


def test_involution_must_be_order_two():
    with pytest.raises(ValueError):
        Involution({0: 1, 1: 2, 2: 0})


def test_z2_complex_rejects_fixed_face():
    K = from_facets([[0, 1]])
    with pytest.raises(ValueError):
        Z2Complex(K, Involution({0: 1, 1: 0}))  # swaps the edge onto itself


def test_z2_complex_rejects_non_simplicial_action():
    K = from_facets([[0, 1], [2], [3]])
    with pytest.raises(ValueError):
        Z2Complex(K, Involution({0: 2, 2: 0, 1: 3, 3: 1}))  # image of (0,1) missing


def test_octahedron_z2_is_valid_and_spherical():
    Z = octahedron_z2()
    assert Z.complex.f_vector() == (6, 12, 8)
    assert euler_characteristic(Z.complex) == 2


REJECTIONS = ("action undefined", "action sends", "action is not simplicial", "action is not free")


def rejection(make) -> str | None:
    """Which of REJECTIONS the constructor raises; None when it accepts."""
    try:
        make()
    except ValueError as err:
        return next(r for r in REJECTIONS if str(err).startswith(r))
    return None


def random_involution(rng: random.Random, labels: list[int]) -> dict[int, int]:
    """Swapped pairs, fixed points and unmapped labels, at random."""
    labels = labels[:]
    rng.shuffle(labels)
    mapping: dict[int, int] = {}
    while labels:
        v = labels.pop()
        if labels and rng.random() < 0.8:
            w = labels.pop()
            mapping[v], mapping[w] = w, v
        elif rng.random() < 0.7:
            mapping[v] = v
    return mapping


def test_generator_validation_agrees_with_face_validation():
    rng = random.Random(2012)
    seen = set()
    for _ in range(4000):
        n = rng.randint(1, 8)
        # two labels past the facets' range, so some images leave the complex
        mapping = random_involution(rng, list(range(n + 2)))
        facets = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(0, 5))]
        vertices = {v for f in facets for v in f}
        if vertices <= mapping.keys():
            closure = rng.random()
            if closure < 0.4:
                facets += [[mapping[v] for v in f] for f in facets]  # closed under the map
            elif closure < 0.8:
                # only the vertices are closed, so the images of faces often are not faces
                facets += [[mapping[v]] for v in vertices]
        K, action = from_facets(facets), Involution(mapping)
        by_face = rejection(lambda: Z2Complex(K, action))
        by_generator = rejection(lambda: Z2Complex._generated(K, action, facets))
        # a complex may break two rules; each way of checking names the first it meets
        assert (by_face is None) == (by_generator is None), (facets, mapping)
        seen.update((by_face, by_generator))
    assert seen == {None, *REJECTIONS}


def test_generator_validation_agrees_on_the_corpus_files_and_the_named_complexes():
    # what `complex sd` and `complex susp` read: the files `complex box`,
    # `box0` and `hom` write for the n <= 5 corpus, and the named complexes,
    # each with its own action, that action conjugated by a transposition,
    # and the vertices paired up in order
    zs = [*NAMED_Z2]
    for G in connected_graph_corpus(5):
        zs += [box_complex(G), box0_complex(G), hom_k2_order_complex(G)]
    verdicts = set()
    for Z in zs:
        obj = complex_to_obj(Z.complex, Z.action)
        K, action = complex_from_obj(obj)
        d, vs = action.as_dict(), list(K.vertices)
        maps = [d]
        for b in vs[1:3]:
            t = {vs[0]: b, b: vs[0]}
            maps.append({t.get(v, v): t.get(w, w) for v, w in d.items()})
        if len(vs) % 2 == 0:
            maps.append({v: vs[i ^ 1] for i, v in enumerate(vs)})
        facets = {simplicial._canon_face(f) for f in obj["facets"]}
        for m in maps:
            a = Involution(m)
            by_face = rejection(lambda: Z2Complex(K, a))
            by_generator = rejection(lambda: Z2Complex._generated(K, a, facets))
            assert (by_face is None) == (by_generator is None), (obj["facets"], m)
            verdicts.add(by_face is None)
    assert verdicts == {True, False}


@st.composite
def free_z2_complexes(draw):
    """Orbit i is the vertex pair {2i, 2i + 1}; a face takes at most one
    vertex per orbit, so no face is setwise fixed by the swap."""
    orbits = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True))
    face = st.lists(st.sampled_from(orbits), min_size=1, unique=True).flatmap(
        lambda chosen: st.tuples(*(st.sampled_from((2 * i, 2 * i + 1)) for i in chosen))
    )
    facets = draw(st.lists(face, min_size=1, max_size=8))
    K = from_facets(facets + [tuple(v ^ 1 for v in f) for f in facets])
    return Z2Complex(K, Involution({v: v ^ 1 for v in K.vertices}))


@settings(max_examples=60, deadline=None)
@given(free_z2_complexes())
def test_z2_complex_survives_a_json_round_trip(Z):
    text = json.dumps(complex_to_obj(Z.complex, Z.action))
    K, action = complex_from_obj(json.loads(text))
    assert Z2Complex(K, action) == Z
    assert json.dumps(complex_to_obj(K, action)) == text


@settings(max_examples=60, deadline=None)
@given(free_z2_complexes())
def test_subdivisions_and_suspensions_of_random_free_complexes_pass_the_public_constructor(Z):
    for out in (subdivide_involution(Z), z2_suspension(Z)):
        assert_passes_the_public_constructor(out)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner)
    | st.lists(st.integers() | st.booleans())
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner)
    | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_dumps_canonical_is_the_stdlib_layout(x):
    assert simplicial.dumps_canonical(x) == json.dumps(x, indent=2, sort_keys=True) + "\n"


def test_dumps_canonical_on_empty_containers_escapes_and_bools():
    for x in ({}, [], (), {"a": {}, "b": []}, ["\n\"\\", "é☃\U0001f600"], [True, 1, False, 0, None]):
        assert simplicial.dumps_canonical(x) == json.dumps(x, indent=2, sort_keys=True) + "\n"


def dominated_vertices(facets) -> list[int]:
    """Oracle: the vertices whose facets all hold one more common vertex."""
    out = []
    for v in sorted({v for f in facets for v in f}):
        holding = [set(f) for f in facets if v in f]
        if set.intersection(*holding) - {v}:
            out.append(v)
    return out


facet_lists = st.lists(st.sets(st.integers(0, 8), min_size=1, max_size=5), max_size=10)


@settings(max_examples=100, deadline=None)
@given(facet_lists)
def test_strong_core_leaves_no_dominated_vertex_and_keeps_homology(facets):
    core = strong_core(facets)
    assert dominated_vertices(core) == []
    assert strong_core(core) == core
    K, L = from_facets(facets), from_facets(core)
    assert L.facets() == core
    assert set(L.vertices) <= set(K.vertices)
    assert reduced_homology(L, collapse=False) == reduced_homology(K, collapse=False)


def test_strong_core_deletes_dominated_vertices():
    # a path strong-collapses to a point; a cone over a circle to nothing but its apex
    assert strong_core([[0, 1], [1, 2], [2, 3]]) == [(3,)]
    assert strong_core([[0, 1, 9], [1, 2, 9], [0, 2, 9]]) == [(9,)]
    assert strong_core([[0, 1], [1, 2], [0, 2]]) == [(0, 1), (0, 2), (1, 2)]
    assert strong_core([[0, 1, 2], [0, 1], [3]]) == [(2,), (3,)]
    assert strong_core([]) == []
    with pytest.raises(ValueError):
        strong_core([[0], []])


def pairwise_strong_core(facets) -> list[Face]:
    """Reference: keep the facets no other contains, every pair compared,
    and delete the smallest dominated vertex, until none is dominated."""
    core = {frozenset(f) for f in facets}
    while True:
        core = {f for f in core if not any(f < g for g in core)}
        dominated = dominated_vertices(core)
        if not dominated:
            return sorted(tuple(sorted(f)) for f in core)
        core = {f - {dominated[0]} for f in core}


def test_strong_core_matches_the_pairwise_reference():
    rng = random.Random(2012)
    for _ in range(2000):
        n = rng.randint(1, 9)
        facets = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(0, 10))]
        # sub-facets and facets of one size, so that each filter has work to do
        facets += [f[: rng.randint(1, len(f))] for f in facets if rng.random() < 0.3]
        facets += [rng.sample(range(n), min(n, 3)) for _ in range(rng.randint(0, 6))]
        assert strong_core(facets) == pairwise_strong_core(facets), facets


@pytest.mark.parametrize(
    "G",
    [complete_graph(4), complete_graph(6), cycle_graph(5), cycle_graph(6), kneser_graph(5, 2)],
    ids=lambda G: G.descriptor()[:12],
)
def test_strong_core_keeps_the_box_complex_of_a_vertex_transitive_graph(G):
    # no vertex of these box complexes is dominated
    facets = box_complex(G).complex.facets()
    assert dominated_vertices(facets) == []
    assert strong_core(facets) == facets


def corpus_complexes() -> list[SimplicialComplex]:
    out = []
    for G in connected_graph_corpus(5):
        out.append(neighborhood_complex(G))
        for build in (box_complex, box0_complex, cones_over_shores_complex):
            out.append(build(G).complex)
        out.append(box_complex(add_cone_vertex(G)).complex)
    return out


def assert_validated_equal(K: SimplicialComplex) -> None:
    """K equals what the public, validating constructor makes of its faces,
    and its vertices and dimension are those of its faces."""
    assert K == SimplicialComplex(K.faces)
    assert K.vertices == tuple(sorted({v for f in K.faces for v in f}))
    assert K.dim == max(map(len, K.faces), default=0) - 1


def test_library_closures_would_pass_the_skipped_checks():
    for K in corpus_complexes():
        assert_validated_equal(K)
        assert_validated_equal(from_facets(K.facets()))
        assert_validated_equal(collapse_reduce(K))


@settings(max_examples=100, deadline=None)
@given(facet_lists)
def test_library_closures_of_random_facets_would_pass_the_skipped_checks(facets):
    K = from_facets(facets)
    assert_validated_equal(K)
    assert_validated_equal(collapse_reduce(K))
    assert_validated_equal(from_facets(strong_core(facets)))


def test_only_the_closure_and_the_collapse_skip_validation():
    # the faces that skip the constructor's checks come from these two alone
    callers = set()

    class Scan(ast.NodeVisitor):
        def __init__(self, path):
            self.path, self.scope = path, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr == "_closed" or (
                isinstance(f, ast.Name) and f.id == "_closed"
            ):
                callers.add((self.path.name, self.scope[-1]))
            self.generic_visit(node)

    src = Path(simplicial.__file__).parent
    for path in sorted(src.glob("*.py")):
        Scan(path).visit(ast.parse(path.read_text()))
    assert callers == {("simplicial.py", "from_facets"), ("homology.py", "collapse_reduce")}
