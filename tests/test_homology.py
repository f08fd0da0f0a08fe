"""Homology engine: boundary matrices, Smith normal form, collapses.

Cross-checks run against independent oracles: fraction-free rank over
the rationals for Betti numbers and a GF(2) elimination for the
torsion-sensitive projective-plane case.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtopo import bounds, homology
from boxtopo.bounds import lovasz_bound
from boxtopo.builders import (
    box_complex,
    box0_complex,
    cones_over_shores_complex,
    hom_k2_order_complex,
    neighborhood_complex,
)
from boxtopo.graphs import (
    add_cone_vertex,
    complete_graph,
    connected_graph_corpus,
    cycle_graph,
    kneser_graph,
)
from boxtopo.homology import (
    HomologyProfile,
    boundary_matrices,
    collapse_reduce,
    homological_connectivity,
    profile_to_obj,
    reduced_homology,
    smith_normal_form,
    sparse_smith_normal_form,
)
from boxtopo.simplicial import (
    SimplicialComplex,
    barycentric_subdivision,
    euler_characteristic,
    from_facets,
    nerve,
    star,
    suspension,
)

from oracles import bareiss_rank

RP2 = from_facets(
    [
        [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
        [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
    ]
)
TRIANGLE_BOUNDARY = from_facets([[0, 1], [1, 2], [0, 2]])
TETRA_BOUNDARY = from_facets(list(itertools.combinations(range(4), 3)))


def gf2_rank(M: list[list[int]]) -> int:
    """Oracle: rank over GF(2) by plain elimination."""
    rows = [sum((x & 1) << j for j, x in enumerate(r)) for r in M]
    rank = 0
    for j in range(len(M[0]) if M else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i] >> j & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> j & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def test_boundary_matrix_single_edge():
    cc = boundary_matrices(from_facets([[1, 2]]))
    assert cc.boundary(1) == [[-1], [1]]


def test_boundary_matrix_triangle_boundary():
    cc = boundary_matrices(TRIANGLE_BOUNDARY)
    D1 = cc.boundary(1)
    assert len(D1) == 3 and len(D1[0]) == 3
    for j in range(3):
        col = [D1[i][j] for i in range(3)]
        assert sorted(col) == [-1, 0, 1]


def test_boundary_matrices_compose_to_zero():
    cc = boundary_matrices(TETRA_BOUNDARY)
    D1, D2 = cc.boundary(1), cc.boundary(2)
    assert len(D2) == 6 and len(D2[0]) == 4
    assert all(x == 0 for row in matmul(D1, D2) for x in row)


def test_boundary_matrices_reject_empty():
    with pytest.raises(ValueError):
        boundary_matrices(from_facets([]))


def test_snf_diag_2_3():
    assert smith_normal_form([[2, 0], [0, 3]]).factors == (1, 6)


def test_snf_zero_matrix():
    res = smith_normal_form([[0, 0], [0, 0]])
    assert res.rank == 0 and res.factors == ()


def test_snf_known_torsion():
    res = smith_normal_form([[2, 4], [6, 10]])
    assert res.factors == (2, 2)


def test_snf_divisibility_chain():
    random.seed(7)
    for _ in range(25):
        m, n = random.randint(1, 5), random.randint(1, 5)
        M = [[random.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        fac = smith_normal_form(M).factors
        assert all(fac[i + 1] % fac[i] == 0 for i in range(len(fac) - 1))
        assert smith_normal_form(M).rank == bareiss_rank(M)


def test_snf_invariant_under_permutations():
    random.seed(11)
    M = [[random.randint(-6, 6) for _ in range(4)] for _ in range(5)]
    base = smith_normal_form(M).factors
    for _ in range(5):
        rows = list(range(5))
        cols = list(range(4))
        random.shuffle(rows)
        random.shuffle(cols)
        P = [[M[i][j] for j in cols] for i in rows]
        assert smith_normal_form(P).factors == base


def test_reduced_homology_two_points():
    prof = reduced_homology(from_facets([[0], [1]]))
    assert prof.betti(0) == 1 and prof.top_dim == 0


def test_reduced_homology_circle():
    prof = reduced_homology(TRIANGLE_BOUNDARY)
    assert prof.betti(0) == 0 and prof.betti(1) == 1


def test_reduced_homology_point_and_empty():
    assert reduced_homology(from_facets([[0]])).is_trivial()
    assert reduced_homology(from_facets([])).is_trivial()


def test_reduced_homology_rp2():
    prof = reduced_homology(RP2)
    assert prof.betti(0) == 0 and prof.betti(1) == 0 and prof.betti(2) == 0
    assert prof.torsion(1) == (2,)
    # cross-check: over GF(2) the degree-1 homology does not vanish
    cc = boundary_matrices(RP2)
    D1, D2 = cc.boundary(1), cc.boundary(2)
    betti1_gf2 = 15 - gf2_rank(D1) - gf2_rank(D2)
    assert betti1_gf2 == 1 != prof.betti(1)


def test_collapse_solid_triangle_to_point():
    K = collapse_reduce(from_facets([[0, 1, 2]]))
    assert len(K.faces) == 1 and K.dim == 0


def test_collapse_leaves_circle_alone():
    assert collapse_reduce(TRIANGLE_BOUNDARY) == TRIANGLE_BOUNDARY


def corpus_complexes() -> list[SimplicialComplex]:
    complexes = [
        RP2,
        TETRA_BOUNDARY,
        barycentric_subdivision(TRIANGLE_BOUNDARY),
        hom_k2_order_complex(complete_graph(4)).complex,
    ]
    for G in connected_graph_corpus(5):
        complexes.append(neighborhood_complex(G))
        complexes.append(box_complex(G).complex)
        complexes.append(box0_complex(G).complex)
        complexes.append(box_complex(add_cone_vertex(G)).complex)
        complexes.append(cones_over_shores_complex(G).complex)
    # the collapse leaves these whole, so the coreduction alone is tested
    complexes += [
        from_facets(itertools.combinations(range(6), 5)),
        barycentric_subdivision(box0_complex(complete_graph(4)).complex),
        suspension(hom_k2_order_complex(complete_graph(4)).complex),
    ]
    return complexes


def test_collapse_preserves_homology_on_corpus():
    # collapse, then coreduction, against the unreduced reference; in RP2
    # coreduction must leave the Z/2 to the Smith normal form
    for K in corpus_complexes():
        assert reduced_homology(K, collapse=True) == reduced_homology(K, collapse=False)


def test_only_the_cells_coreduction_leaves_reach_the_smith_normal_form(monkeypatch):
    # Hom(K2, K5) ~ S^3: collapse removes none of its 4200 faces, and
    # coreduction leaves the one 3-cell that carries H~3
    K = hom_k2_order_complex(complete_graph(5)).complex
    assert len(collapse_reduce(K)) == len(K) == 4200
    seen = []
    sparse = homology.sparse_smith_normal_form

    def record(columns):
        seen.append([dict(c) for c in columns])
        return sparse(columns)

    monkeypatch.setattr(homology, "sparse_smith_normal_form", record)
    assert reduced_homology(K) == reduced_homology(K, collapse=False)
    reduced, unreduced = seen[:K.dim], seen[K.dim:]
    assert [len(cols) for cols in reduced] == [0, 0, 1]
    assert reduced[2] == [{}]
    assert sum(map(len, unreduced)) == len(K) - len(K.k_faces(0))


def test_bound_path_on_collapsed_complex_matches_reference():
    # the bounds read connectivity and evidence off collapse_reduce(K), for
    # K = N(G) (Lovász) and B(G) (Sarkaria); B0(G) is collapsed by verify
    for G in connected_graph_corpus(5) + [kneser_graph(5, 2)]:
        for K in (neighborhood_complex(G), box_complex(G).complex, box0_complex(G).complex):
            L = collapse_reduce(K)
            assert homological_connectivity(L) == homological_connectivity(K)
            assert reduced_homology(L) == reduced_homology(K, collapse=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=5), min_size=1, max_size=14))
def test_collapse_preserves_homology_on_random_complexes(facets):
    # collapse, then coreduction, against the unreduced reference
    K = from_facets(facets)
    assert reduced_homology(K) == reduced_homology(K, collapse=False)


def test_snf_betti_matches_rational_rank_on_corpus():
    for G in connected_graph_corpus(4):
        for K in (box_complex(G).complex, box0_complex(G).complex):
            if K.is_empty():
                continue
            cc = boundary_matrices(K)
            for k in range(1, K.dim + 1):
                M = cc.boundary(k)
                assert smith_normal_form(M).rank == bareiss_rank(M)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_snf_invariant_under_unimodular_operations(data):
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    entries = st.integers(-6, 6)
    M = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    base = smith_normal_form(M)
    assert base.rank == bareiss_rank(M)
    # (on rows?, kind: 0 add a multiple, 1 swap, 2 negate, i, j, multiple)
    ops = st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, 4), st.integers(0, 4),
                    st.integers(-3, 3))
    A = [row[:] for row in M]
    for on_rows, kind, i, j, c in data.draw(st.lists(ops, max_size=10)):
        if not on_rows:
            A = [list(col) for col in zip(*A)]
        i, j = i % len(A), j % len(A)
        if kind == 0 and i != j:
            A[i] = [x + c * y for x, y in zip(A[i], A[j])]
        elif kind == 1:
            A[i], A[j] = A[j], A[i]
        elif kind == 2:
            A[i] = [-x for x in A[i]]
        if not on_rows:
            A = [list(col) for col in zip(*A)]
    assert smith_normal_form(A).factors == base.factors


def columns_of(M: list[list[int]]) -> list[dict[int, int]]:
    return [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(len(M[0]) if M else 0)]


def test_sparse_columns_match_the_dense_boundary():
    cc = boundary_matrices(RP2)
    for k in (1, 2):
        D = cc.boundary(k)
        assert [dict(c) for c in cc.columns[k - 1]] == columns_of(D)
    assert cc.matrices == (cc.boundary(1), cc.boundary(2))


def test_boundary_check_rejects_a_wrong_sign():
    # signs are positions: swapping two faces of a triangle flips both signs
    cc = boundary_matrices(TETRA_BOUNDARY)
    live = [True] * len(cc.faces)
    homology._check_faces(cc, live)
    c = len(cc.bases[0]) + len(cc.bases[1])  # the first triangle
    F = cc.faces[c]
    cc.faces[c] = (F[1], F[0]) + F[2:]
    with pytest.raises(RuntimeError, match="boundary of boundary nonzero"):
        homology._check_faces(cc, live)
    # a cell left out of the check is not checked
    live[c] = False
    homology._check_faces(cc, live)


def corrupted_boundary_matrices(K: SimplicialComplex):
    """boundary_matrices(K) with the first two faces of its last cell
    swapped, which flips their signs."""
    cc = boundary_matrices(K)
    F = cc.faces[-1]
    cc.faces[-1] = (F[1], F[0]) + F[2:]
    return cc


@pytest.mark.parametrize("collapse", [True, False])
def test_a_wrong_boundary_on_a_cell_the_collapse_keeps_is_rejected(monkeypatch, collapse):
    # the collapse leaves a sphere whole, so the corrupted cell reaches the check
    monkeypatch.setattr(homology, "boundary_matrices", corrupted_boundary_matrices)
    for K in (TETRA_BOUNDARY, hom_k2_order_complex(complete_graph(4)).complex):
        assert len(collapse_reduce(K)) == len(K)
        with pytest.raises(RuntimeError, match="boundary of boundary nonzero"):
            reduced_homology(K, collapse=collapse)


def test_one_homology_call_numbers_its_complex_once(monkeypatch):
    # B(cone C5): the collapse removes most faces; Hom(K2, K5): it removes none
    calls = []

    def counting(name, f):
        def wrapped(*args):
            calls.append(name)
            return f(*args)
        return wrapped

    cone = box_complex(add_cone_vertex(cycle_graph(5))).complex
    hom = hom_k2_order_complex(complete_graph(5)).complex
    assert len(collapse_reduce(cone)) < len(cone) / 2
    assert len(collapse_reduce(hom)) == len(hom)
    for name in ("boundary_matrices", "collapse_reduce"):
        monkeypatch.setattr(homology, name, counting(name, getattr(homology, name)))
    closed = SimplicialComplex.__dict__["_closed"].__func__
    monkeypatch.setattr(SimplicialComplex, "_closed", classmethod(counting("_closed", closed)))
    for K in (cone, hom):
        del calls[:]
        reduced_homology(K)
        assert calls == ["boundary_matrices"]


def test_sparse_snf_matches_dense_per_degree():
    complexes = [RP2, TETRA_BOUNDARY, hom_k2_order_complex(complete_graph(4)).complex]
    complexes += [box_complex(complete_graph(n)).complex for n in range(2, 7)]
    for G in connected_graph_corpus(5):
        complexes += [box_complex(G).complex, box0_complex(G).complex]
    for K in filter(None, complexes):
        cc = boundary_matrices(K)
        for k in range(1, cc.dim + 1):
            sparse = sparse_smith_normal_form(cc.columns[k - 1])
            dense = smith_normal_form(cc.boundary(k))
            assert sparse.rank == dense.rank == bareiss_rank(cc.boundary(k))
            assert sparse.torsion == dense.torsion


def test_sparse_snf_sends_the_non_unit_block_to_the_dense_snf(monkeypatch):
    blocks = []
    dense = homology.smith_normal_form

    def record(M):
        blocks.append(M)
        return dense(M)

    monkeypatch.setattr(homology, "smith_normal_form", record)
    # one unit pivot, then a 2 x 2 block with no unit entry
    M = [[1, 2, 0], [3, 2, 4], [0, 6, 2]]
    assert sparse_smith_normal_form(columns_of(M)).factors == dense(M).factors == (1, 2, 16)
    assert blocks[-1] and all(abs(x) != 1 for row in blocks[-1] for x in row)
    # RP^2: the torsion Z/2 is found in the leftover block of D_2
    cc = boundary_matrices(RP2)
    snf = sparse_smith_normal_form(cc.columns[1])
    assert snf.factors == (1,) * 9 + (2,)
    assert blocks[-1]
    # a unimodular matrix leaves a 0 x 0 block, which is still passed on
    assert sparse_smith_normal_form(columns_of([[1, 1], [0, 1]])).factors == (1, 1)
    assert blocks[-1] == []
    # so does every boundary of B(K5): all its pivots are +1 or -1
    del blocks[:]
    reduced_homology(box_complex(complete_graph(5)).complex, collapse=False)
    assert blocks == [[]] * 4
    assert sparse_smith_normal_form([]).factors == ()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_snf_matches_the_dense_oracles(data):
    m, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    entries = st.one_of(st.just(0), st.integers(-2, 2))
    M = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    sparse = sparse_smith_normal_form(columns_of(M))
    assert sparse.rank == bareiss_rank(M)
    assert sparse.torsion == smith_normal_form(M).torsion


def vertex_scan_collapse(K: SimplicialComplex) -> SimplicialComplex:
    """Reference: collapse_reduce as it was before cofaces were tracked,
    finding each free face's coface by trying every vertex."""
    faces = set(K.faces)
    verts = K.vertices
    count = {f: 0 for f in faces}
    for f in faces:
        if len(f) > 1:
            for i in range(len(f)):
                count[f[:i] + f[i + 1:]] += 1

    def unique_coface(f):
        fs = set(f)
        cofaces = (tuple(sorted(f + (v,))) for v in verts if v not in fs)
        return next(g for g in cofaces if g in faces)

    # seeded in the order the cells are numbered, as collapse_reduce seeds
    queue = deque(f for f in sorted(faces, key=lambda f: (len(f), f)) if count[f] == 1)
    while queue:
        f = queue.popleft()
        if f not in faces or count[f] != 1:
            continue
        tau = unique_coface(f)
        faces.discard(f)
        faces.discard(tau)
        for g in (f, tau):
            if len(g) > 1:
                for i in range(len(g)):
                    sub = g[:i] + g[i + 1:]
                    if sub in faces:
                        count[sub] -= 1
                        if count[sub] == 1:
                            queue.append(sub)
    return SimplicialComplex(faces)


def test_collapse_matches_the_vertex_scan_reference():
    complexes = [
        box0_complex(kneser_graph(5, 2)).complex,
        hom_k2_order_complex(complete_graph(5)).complex,
    ]
    for G in connected_graph_corpus(5):
        complexes += [
            build(G).complex
            for build in (box_complex, box0_complex, cones_over_shores_complex, hom_k2_order_complex)
        ]
        complexes += [neighborhood_complex(G), box_complex(add_cone_vertex(G)).complex]
    removed = 0
    for K in complexes:
        L = collapse_reduce(K)
        assert L.faces == vertex_scan_collapse(K).faces
        removed += len(K) - len(L)
    assert removed > 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=5), min_size=1, max_size=10))
def test_collapse_matches_the_vertex_scan_reference_on_random_complexes(facets):
    K = from_facets(facets)
    assert collapse_reduce(K).faces == vertex_scan_collapse(K).faces


def reference_coreduce(cc):
    """Reference: homology._coreduce as it was before it shared its pairing
    loop with collapse_reduce, pairing vertex 0 with the empty face in
    that same loop."""
    off = [0]
    for basis in cc.bases:
        off.append(off[-1] + len(basis))
    cofaces: list[list[int]] = [[] for _ in range(off[-1])]
    down = [0] * off[1]
    down_sum = [0] * off[1]
    for k, D in enumerate(cc.columns, 1):
        lo = off[k - 1]
        for c, col in enumerate(D, off[k]):
            b = [lo + i for i in col]
            down.append(len(b))
            down_sum.append(sum(b))
            for s in b:
                cofaces[s].append(c)

    queue: deque[int] = deque()
    gone = [0]  # the first vertex, paired with the empty face
    while gone:
        for g in gone:
            down[g] = -1
            for t in cofaces[g]:
                c = down[t]
                if c > 0:
                    down[t] = c - 1
                    down_sum[t] -= g
                    if c == 2:
                        queue.append(t)
        gone = []
        while queue and not gone:
            a = queue.popleft()
            if down[a] == 1:
                gone = [a, down_sum[a]]

    counts = [sum(1 for c in down[off[k]:off[k + 1]] if c >= 0) for k in range(len(cc.bases))]
    columns = []
    for k, D in enumerate(cc.columns, 1):
        lo = off[k - 1]
        columns.append([
            {i: a for i, a in col.items() if down[lo + i] >= 0}
            for col, c in zip(D, down[off[k]:off[k + 1]])
            if c >= 0
        ])
    return counts, columns


def assert_coreduction_matches_the_reference(K: SimplicialComplex) -> None:
    # with and without a prior collapse; columns compare key order too
    if K.is_empty():
        return  # reduced_homology does not coreduce it
    for L in (K, collapse_reduce(K)):
        cc = boundary_matrices(L)
        counts, columns = homology._coreduce(cc, [True] * len(cc.faces))
        ref_counts, ref_columns = reference_coreduce(cc)
        assert counts == ref_counts
        assert [[list(c.items()) for c in D] for D in columns] == [
            [list(c.items()) for c in D] for D in ref_columns
        ]


def test_coreduction_matches_the_reference_on_corpus():
    # the corpus holds RP2; Hom(K2, K5) is closed, so collapse leaves it whole
    for K in corpus_complexes() + [hom_k2_order_complex(complete_graph(5)).complex]:
        assert_coreduction_matches_the_reference(K)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=5), min_size=1, max_size=14))
def test_coreduction_matches_the_reference_on_random_complexes(facets):
    assert_coreduction_matches_the_reference(from_facets(facets))


def test_lovasz_reports_match_those_from_the_reference_collapse(monkeypatch):
    graphs = connected_graph_corpus(6) + [kneser_graph(5, 2)]
    reports = [lovasz_bound(G) for G in graphs]
    monkeypatch.setattr(bounds, "collapse_reduce", vertex_scan_collapse)
    assert reports == [lovasz_bound(G) for G in graphs]


def test_homological_connectivity():
    assert homological_connectivity(from_facets([])) == -2
    assert homological_connectivity(from_facets([[0], [1]])) == -1
    assert homological_connectivity(TRIANGLE_BOUNDARY) == 0
    assert homological_connectivity(TETRA_BOUNDARY) == 1
    # acyclic complexes report their dimension (nothing above can fail)
    assert homological_connectivity(from_facets([[0, 1, 2]])) == 2


def test_reduced_euler_relation():
    for G in connected_graph_corpus(4):
        for K in (neighborhood_complex(G), box0_complex(G).complex):
            if K.is_empty():
                continue
            prof = reduced_homology(K)
            alt = sum((-1) ** k * prof.betti(k) for k in range(K.dim + 1))
            assert alt == euler_characteristic(K) - 1


def test_profile_shift():
    prof = HomologyProfile.from_pairs([(1, ()), (0, (2,))])
    shifted = prof.shifted()
    assert shifted.betti(1) == 1 and shifted.torsion(2) == (2,)
    assert shifted.betti(0) == 0


def test_nerve_theorem_at_desk_scale():
    # closed vertex stars of a subdivision have cone intersections, so the
    # nerve has the homology of the complex itself
    for base in (
        from_facets([[0, 1], [1, 2], [2, 3], [0, 3]]),
        from_facets([[0, 1, 2]]),
        from_facets([[0], [1]]),
        TETRA_BOUNDARY,
    ):
        K = barycentric_subdivision(base)
        family = [(v, star(K, (v,)).vertices) for v in K.vertices]
        assert reduced_homology(nerve(family)) == reduced_homology(K)
