"""Bound values and theorem-verification outcomes on known graphs."""

from __future__ import annotations

import pytest

from boxtopo import bounds, builders, cli, homology
from boxtopo.bounds import (
    BoundReport,
    Builds,
    lovasz_bound,
    neighborhood_realizability_search,
    sarkaria_bound,
    suspension_shift,
    verify_cone_graph,
    verify_construction_roundtrip,
    verify_even_euler,
    verify_hom_equivalence,
    verify_nerve_identity,
    verify_shore_identity,
    verify_shore_retract,
    verify_suspension_relation,
)
from boxtopo.builders import box0_complex, box_complex
from boxtopo.graphs import (
    Graph,
    add_cone_vertex,
    chromatic_number,
    complete_graph,
    cone_k,
    connected_graph_corpus,
    cycle_graph,
    kneser_graph,
)
from boxtopo.homology import (
    S0_PROFILE,
    collapse_reduce,
    homological_connectivity,
    reduced_homology,
)
from boxtopo.simplicial import (
    antipodal_cycle_z2,
    dumps_canonical,
    from_facets,
    octahedron_z2,
    strong_core,
    two_points_z2,
)

CORPUS = connected_graph_corpus(5)


def test_lovasz_k2():
    rep = lovasz_bound(complete_graph(2))
    assert rep.value == 2 and not rep.caveat


def test_lovasz_c5():
    rep = lovasz_bound(cycle_graph(5))
    assert rep.value == 3 == chromatic_number(cycle_graph(5))


def test_lovasz_petersen():
    rep = lovasz_bound(kneser_graph(5, 2))
    assert rep.value == 3
    # every edge of N(Petersen) lies in exactly one triangle; collapsing
    # leaves 20 edges on 10 vertices, a wedge of 11 circles
    assert rep.evidence.betti(0) == 0
    assert rep.evidence.betti(1) == 11
    assert rep.evidence.betti(2) == 0


def test_lovasz_degenerate_no_edges():
    rep = lovasz_bound(complete_graph(1))
    assert rep.value == 1 and rep.note is not None


def test_bounds_reject_the_null_graph():
    for bound in (lovasz_bound, sarkaria_bound):
        with pytest.raises(ValueError, match="at least one vertex"):
            bound(Graph(0, []))


def test_sarkaria_k2():
    assert sarkaria_bound(complete_graph(2)).value == 2


def test_sarkaria_k3():
    rep = sarkaria_bound(complete_graph(3))
    assert rep.value == 3
    assert rep.evidence.betti(2) == 1  # a 2-sphere profile


def test_sarkaria_c5():
    assert sarkaria_bound(cycle_graph(5)).value == 3


# The Grötzsch graph M4, the Mycielski graph of C5: the cycle 0..4, a
# shadow 5 + i joined to the neighbours of i, and an apex 10 on the shadows
GROETZSCH = Graph(11, [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (1, 5), (4, 5), (0, 6), (2, 6), (1, 7), (3, 7), (2, 8), (4, 8), (0, 9), (3, 9),
    (5, 10), (6, 10), (7, 10), (8, 10), (9, 10),
])


def test_bounds_sound_on_corpus():
    # sound by the Z2 lemma (bounds' module docstring), with no caveat
    for G in CORPUS + [GROETZSCH]:
        chi = chromatic_number(G)
        lov = lovasz_bound(G)
        sar = sarkaria_bound(G)
        assert not lov.caveat and not sar.caveat
        assert lov.value <= chi
        assert sar.value <= chi
        if G is GROETZSCH:  # Lovász is tight on M4
            assert lov.value == 4 == chi
        # B0(G) ~ susp B(G): the homological surrogates coincide, also
        # for the empty B(G) (-2 + 3 == -1 + 2)
        assert sar.value == lov.value


def reference_bound(G: Graph, bound: str, build, offset: int) -> BoundReport:
    """Reference: the bounds as they were computed before the smaller
    models, conn(build(G)) + offset on B(G) (Lovász) or B0(G) (Sarkaria)."""
    K = build(G).complex
    L = collapse_reduce(K)
    conn = homological_connectivity(L)
    return BoundReport(
        graph=G.descriptor(),
        bound=bound,
        value=conn + offset,
        # the caveat is False by the Z2 lemma (bounds' module docstring)
        evidence=reduced_homology(L),
        note="degenerate input: box complex is empty (no edges)" if K.is_empty() else None,
    )


def assert_bounds_match_the_reference(graphs) -> int:
    """Byte equality of both reports with the B/B0 reference; returns the
    number of graphs with conn(B(G)) > 0."""
    positive = 0
    for G in graphs:
        lov = reference_bound(G, "lovasz", box_complex, 3)
        sar = reference_bound(G, "sarkaria", box0_complex, 2)
        for rep, ref in ((lovasz_bound(G), lov), (sarkaria_bound(G), sar)):
            assert dumps_canonical(rep.to_obj()) == dumps_canonical(ref.to_obj()), G
        positive += lov.value > 3
    return positive


def test_bounds_match_the_box_complex_reference():
    graphs = connected_graph_corpus(6) + [Graph(1, []), Graph(3, []), Graph(4, [(0, 1), (2, 3)])]
    graphs += [complete_graph(n) for n in range(1, 9)]
    graphs += [kneser_graph(n, 2) for n in range(4, 7)]
    # K4..K8 at least have conn > 0
    assert assert_bounds_match_the_reference(graphs) >= 5


def test_suspension_relation_examples():
    assert verify_suspension_relation(complete_graph(1)).passed
    assert verify_suspension_relation(complete_graph(2)).passed


def test_suspension_shift_helper():
    assert suspension_shift(reduced_homology(from_facets([])), of_empty=True) == S0_PROFILE


def test_shore_retract_examples():
    assert verify_shore_retract(complete_graph(3)).passed
    assert verify_shore_retract(cycle_graph(5)).passed


def test_shore_identity_examples():
    for G in (complete_graph(3), cycle_graph(5), complete_graph(2)):
        assert verify_shore_identity(G).passed


def test_even_euler_examples():
    assert verify_even_euler(complete_graph(2)).passed
    assert verify_even_euler(complete_graph(3)).passed
    assert verify_even_euler(kneser_graph(5, 2)).passed
    with pytest.raises(ValueError):
        verify_even_euler(complete_graph(1))


def test_roundtrip_examples():
    assert verify_construction_roundtrip(two_points_z2()).passed
    assert verify_construction_roundtrip(antipodal_cycle_z2(4)).passed
    assert verify_construction_roundtrip(antipodal_cycle_z2(6)).passed


def test_nerve_identity_examples():
    assert verify_nerve_identity(two_points_z2()).passed
    assert verify_nerve_identity(antipodal_cycle_z2(4)).passed
    assert verify_nerve_identity(octahedron_z2()).passed


def test_cone_graph_examples():
    assert verify_cone_graph(complete_graph(2)).passed
    assert verify_cone_graph(cycle_graph(5)).passed


def test_hom_equivalence_examples():
    for G in (complete_graph(2), complete_graph(3), cycle_graph(5)):
        assert verify_hom_equivalence(G).passed


def test_failure_outcomes_carry_both_tables():
    out = verify_suspension_relation(complete_graph(2))
    assert "expected" in out.details and "observed" in out.details


def test_realizability_search_finds_k2():
    found = neighborhood_realizability_search(from_facets([[0], [1]]), 2)
    assert found == complete_graph(2)


def test_realizability_search_four_cycle_has_no_preimage():
    target = from_facets([[0, 1], [1, 2], [2, 3], [0, 3]])
    assert neighborhood_realizability_search(target, 4) is None


def test_realizability_search_finds_k3():
    target = from_facets([[0, 1], [1, 2], [0, 2]])
    assert neighborhood_realizability_search(target, 3) == complete_graph(3)


def test_realizability_search_guard():
    with pytest.raises(ValueError):
        neighborhood_realizability_search(from_facets([[0]]), 7)


def test_badness_amplifier_on_small_graphs():
    for G in (complete_graph(3), cycle_graph(5)):
        lov = lovasz_bound(G).value
        chi = chromatic_number(G)
        for k in (1, 2, 3):
            Gk = cone_k(G, k)
            assert lovasz_bound(Gk).value == lov + k
            assert chromatic_number(Gk) == chi + k


def verify_pairs(max_n: int) -> list:
    """The (check name, input) pairs that `verify all --max-n max_n` runs."""
    corpus = connected_graph_corpus(max_n)
    return [
        (check, x)
        for check, cap, inputs in cli.ALL_SUITES.values()
        for x in inputs([G for G in corpus if G.n <= min(max_n, cap)])
    ]


def test_verify_builds_each_box_complex_once_per_graph_and_input(tmp_path, monkeypatch):
    pairs = verify_pairs(5)
    # each graph input, the cone graph of each cone input, and the graph
    # each roundtrip input constructs, is one build of the box facets in
    # that input's scope; the graph each nerve input constructs adds one
    # N(G), and no box facets
    facets = (
        len({x for _, x in pairs if isinstance(x, Graph)})
        + sum(check == "verify_cone_graph" for check, _ in pairs)
        + sum(check == "verify_construction_roundtrip" for check, _ in pairs)
    )
    budget = {
        "_box_facets": facets,
        "neighborhood_complex": facets + sum(check == "verify_nerve_identity" for check, _ in pairs),
    }
    built: dict = {name: [] for name in budget}

    def counting(name):
        build = getattr(builders, name)

        def counted(G, *args):
            built[name].append(G)
            return build(G, *args)

        return counted

    for name in budget:
        monkeypatch.setattr(builders, name, counting(name))
    # one usable CPU: the checks run in this process, where the wrappers
    # count them (forked workers call the same per-input function)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert cli.main(["verify", "all", "--max-n", "5", "-o", str(tmp_path / "v.json")]) == 0
    for name, most in budget.items():
        assert 0 < len(built[name]) <= most, (name, len(built[name]), most)


def test_every_check_gives_the_same_outcome_with_a_shared_scope():
    # one scope across all inputs: entries keyed on one labeled graph must
    # never answer for another
    shared = Builds()
    for check, x in verify_pairs(5):
        fn = getattr(bounds, check)
        assert fn(x, builds=shared) == fn(x), (check, x)


def test_box_homology_from_the_strong_core_matches_the_full_box_complex(monkeypatch):
    graphs = CORPUS + [add_cone_vertex(G) for G in CORPUS]
    expected = [reduced_homology(box_complex(G).complex, collapse=False) for G in graphs]
    built = []
    # B(G), B0(G) and the cones-over-shores complex all close their facets here
    monkeypatch.setattr(builders, "_shore_swapped", built.append)
    assert [Builds().box_homology(G) for G in graphs] == expected
    # the homology is read off the strong core alone: no B(G) is built for it
    assert built == []


def test_sarkaria_collapses_nothing_larger_than_the_strong_core_closure(monkeypatch):
    sizes: list[int] = []
    numbering = homology.boundary_matrices

    def recording(K):
        sizes.append(len(K))
        return numbering(K)

    # every collapse, in collapse_reduce or reduced_homology, numbers its complex here
    monkeypatch.setattr(homology, "boundary_matrices", recording)
    box_faces = core_faces = 0
    for G in CORPUS + [kneser_graph(5, 2), complete_graph(6)]:
        core = len(from_facets(strong_core(Builds().box_facets(G))))
        sizes.clear()
        sarkaria_bound(G)
        # an empty B(G) (no edge) is never numbered
        assert (sizes or not G.edges) and max(sizes, default=0) <= core, G
        box_faces += len(box_complex(G).complex)
        core_faces += core
    # the core removes faces on the corpus, so the bound is below B(G)'s size
    assert core_faces < box_faces
