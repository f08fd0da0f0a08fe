"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Each criterion states its tolerance (exact equality plus, where given,
a wall-clock budget) directly in the assertions.
"""

from __future__ import annotations

import itertools
import time

import pytest

from boxtopo.bounds import (
    lovasz_bound,
    neighborhood_realizability_search,
    sarkaria_bound,
    suspension_shift,
    verify_construction_roundtrip,
    verify_even_euler,
    verify_nerve_identity,
)
from boxtopo.builders import (
    box_complex,
    box0_complex,
    hom_k2_order_complex,
    neighborhood_complex,
)
from boxtopo.graphs import (
    chromatic_number,
    complete_graph,
    cone_k,
    connected_graph_corpus,
    cycle_graph,
    kneser_graph,
)
from boxtopo.homology import (
    boundary_matrices,
    reduced_homology,
    smith_normal_form,
)
from boxtopo.simplicial import euler_characteristic, from_facets

from oracles import bareiss_rank


def report(num: int, name: str, passed: bool, elapsed: float | None = None):
    status = "PASS" if passed else "FAIL"
    timing = f"  [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"{status} criterion {num}: {name}{timing}")
    assert passed, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def corpus():
    graphs = connected_graph_corpus(5)
    assert len(graphs) == 31
    return graphs


@pytest.fixture(scope="module")
def corpus_complexes(corpus):
    out = []
    for G in corpus:
        out.append((G, box_complex(G).complex, box0_complex(G).complex))
    return out


def test_criterion_1_suspension_relation(corpus_complexes):
    t0 = time.time()
    ok = True
    for G, B, B0 in corpus_complexes:
        expected = suspension_shift(reduced_homology(B), of_empty=B.is_empty())
        ok &= reduced_homology(B0) == expected
        ok &= euler_characteristic(B0) == 2 - euler_characteristic(B)
    elapsed = time.time() - t0
    report(1, "suspension relation on 31 connected graphs <= 5 vertices", ok and elapsed < 60, elapsed)


def test_criterion_2_shore_retract(corpus_complexes):
    t0 = time.time()
    ok = all(
        reduced_homology(neighborhood_complex(G)) == reduced_homology(B)
        for G, B, _ in corpus_complexes
    )
    elapsed = time.time() - t0
    report(2, "shore retract: H(N(G)) = H(B(G)) on the corpus", ok and elapsed < 60, elapsed)


def test_criterion_3_euler_parity(corpus):
    ok = True
    for G in corpus:
        if not G.edges:
            continue
        out = verify_even_euler(G)
        ok &= out.passed
        ok &= euler_characteristic(box_complex(G).complex) % 2 == 0
    report(3, "even Euler characteristic, numeric + orbit pairing", ok)


def test_criterion_4_four_cycle_brute_force():
    t0 = time.time()
    target = from_facets([[0, 1], [1, 2], [2, 3], [0, 3]])
    found = neighborhood_realizability_search(target, 4)
    elapsed = time.time() - t0
    report(4, "4-cycle complex is no N(G) among all 64 graphs on 4 vertices", found is None and elapsed < 5, elapsed)


def test_criterion_5_construction_roundtrip():
    from boxtopo.simplicial import antipodal_cycle_z2, two_points_z2

    t0 = time.time()
    ok = True
    for Z in (two_points_z2(), antipodal_cycle_z2(4), antipodal_cycle_z2(6)):
        ok &= verify_construction_roundtrip(Z).passed
    elapsed = time.time() - t0
    report(5, "construction round-trip (S0, 4-cycle, 6-cycle)", ok and elapsed < 120, elapsed)


def test_criterion_6_nerve_identity():
    from boxtopo.simplicial import antipodal_cycle_z2, two_points_z2

    ok = True
    for Z in (two_points_z2(), antipodal_cycle_z2(4), antipodal_cycle_z2(6)):
        ok &= verify_nerve_identity(Z).passed
    report(6, "nerve of vertex stars equals N(G_K) exactly, no subdivision", ok)


def test_criterion_7_bounds_on_known_graphs():
    t0 = time.time()
    ok = True
    for G in (cycle_graph(5), kneser_graph(5, 2)):
        ok &= lovasz_bound(G).value == 3
        ok &= sarkaria_bound(G).value == 3
        ok &= chromatic_number(G) == 3
    for n in range(1, 6):
        ok &= lovasz_bound(complete_graph(n)).value == n
    elapsed = time.time() - t0
    report(7, "lovasz = sarkaria = chi = 3 on C5 and KG(5,2); lovasz(K_n) = n", ok and elapsed < 120, elapsed)


def test_criterion_8_badness_amplifier():
    ok = True
    for G in (cycle_graph(5), complete_graph(3)):
        chi = chromatic_number(G)
        base = reduced_homology(box_complex(G).complex)
        for k in (1, 2, 3):
            Gk = cone_k(G, k)
            ok &= chromatic_number(Gk) == chi + k
            expected = base
            for _ in range(k):
                expected = expected.shifted()
            ok &= reduced_homology(box_complex(Gk).complex) == expected
    report(8, "cone vertices shift chi and the box homology in lockstep, k <= 3", ok)


def test_criterion_9_hom_comparison():
    ok = all(
        reduced_homology(hom_k2_order_complex(G).complex)
        == reduced_homology(box_complex(G).complex)
        for G in connected_graph_corpus(4)
    )
    report(9, "Hom(K2,G) order complex matches box homology, all graphs <= 4", ok)


def test_criterion_10_engine_self_checks(corpus_complexes):
    ok = True
    matrices_checked = 0
    for G, B, B0 in corpus_complexes:
        for K in (B, B0, neighborhood_complex(G)):
            if K.is_empty():
                continue
            cc = boundary_matrices(K)  # reduced_homology checks dd = 0 on its cells
            for k in range(1, K.dim + 1):
                M = cc.boundary(k)
                ok &= smith_normal_form(M).rank == bareiss_rank(M)
                matrices_checked += 1
            ok &= reduced_homology(K, collapse=True) == reduced_homology(K, collapse=False)
    ok &= matrices_checked > 0
    rp2 = from_facets(
        [
            [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
            [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
        ]
    )
    prof = reduced_homology(rp2)
    ok &= prof.torsion(1) == (2,) and all(prof.betti(k) == 0 for k in range(3))
    report(10, "dd=0, SNF vs rational rank, collapse pipeline equality, RP2 torsion", ok)
