"""Topological chromatic lower bounds and theorem-verification checks.

The bounds use homological connectivity, a surrogate for homotopy
connectivity.  Every report carries a caveat flag; it is cleared only
when the surrogate provably matches: connectivity <= 0 (where the two
notions coincide) or a simple-connectivity proof (which upgrades
homology vanishing through the checked range).

Each bound is computed on a smaller complex proven equivalent to the
one it names: Lovász's conn(B(G)) on the neighborhood complex N(G) ~
B(G), Sarkaria's conn(B0(G)) through B0(G) ~ susp B(G) on the strong
core of B(G)'s facets (Barmak–Minian).  B0(G) is never built for a
bound; verify_shore_retract and verify_suspension_relation check those
equivalences independently.

The verify_* checks test falsifiable homological consequences of
homotopy equivalences: equal Betti/torsion tables and matching Euler
characteristics.  A pass means "consistent with", not "proves".
"""

from __future__ import annotations

from dataclasses import dataclass

from .builders import (
    Builds,
    box_complex,
    neighborhood_complex,
    shore_subcomplex,
)
from .graphs import (
    COLORING_GUARD,
    Graph,
    add_cone_vertex,
    all_labeled_graphs,
    chromatic_number,
    graph_from_z2_complex,
)
from .homology import (
    HomologyProfile,
    S0_PROFILE,
    collapse_reduce,
    homological_connectivity,
    pi1_trivial_heuristic,
    profile_to_obj,
    reduced_homology,
)
from .simplicial import (
    SimplicialComplex,
    Z2Complex,
    euler_characteristic,
    from_facets,
    isomorphic,
    nerve,
    star,
    strong_core,
    subdivide_involution,
)


@dataclass(frozen=True)
class BoundReport:
    """A named chromatic lower bound with its homological evidence."""

    graph: str
    bound: str  # "lovasz" | "sarkaria"
    value: int
    caveat: bool
    evidence: HomologyProfile
    exact_chi: int | None = None
    note: str | None = None

    def to_obj(self) -> dict:
        obj = {
            "graph": self.graph,
            "bound": self.bound,
            "value": self.value,
            "caveat": self.caveat,
            "evidence": profile_to_obj(self.evidence),
        }
        if self.exact_chi is not None:
            obj["exact_chi"] = self.exact_chi
        if self.note is not None:
            obj["note"] = self.note
        return obj


@dataclass(frozen=True)
class VerificationOutcome:
    """One check on one input; failures always carry both tables."""

    check: str
    input: str
    passed: bool
    details: dict

    def to_obj(self) -> dict:
        return {
            "check": self.check,
            "input": self.input,
            "passed": self.passed,
            "details": self.details,
        }


def _check_nonnull(G: Graph) -> None:
    if G.n == 0:
        raise ValueError("chromatic bounds need a graph with at least one vertex")


def lovasz_bound(G: Graph) -> BoundReport:
    """conn(B(G)) + 3; a lower bound for the chromatic number.

    Computed on the neighborhood complex N(G) ~ B(G): its faces are the
    vertex sets with a common neighbor, far fewer than the ~3^n of B(G).
    N(G) is never acyclic (B(G) carries a free Z2 action, Smith theory),
    so conn(collapse(N(G))) == conn(B(G)).
    """
    _check_nonnull(G)
    N = neighborhood_complex(G)
    L = collapse_reduce(N)
    conn = homological_connectivity(L)
    return BoundReport(
        graph=G.descriptor(),
        bound="lovasz",
        value=conn + 3,
        caveat=conn > 0 and not pi1_trivial_heuristic(L),
        evidence=reduced_homology(L),
        # N(G) is empty exactly when B(G) is: when G has no edge
        note="degenerate input: box complex is empty (no edges)" if N.is_empty() else None,
    )


def sarkaria_bound(G: Graph) -> BoundReport:
    """conn(B0(G)) + 2; a lower bound for the chromatic number.

    Computed through B0(G) ~ susp B(G): conn(B0(G)) is conn(B(G)) + 1
    (-1 for the empty B(G) of an edgeless G, whose suspension is S^0)
    and the evidence is the suspension shift of H~(B(G)), read off the
    closure of the strong core of B(G)'s facets (Barmak–Minian: same
    homotopy type, far fewer faces).  B(G) is built, so the face budget
    refuses the graphs whose B(G) passes it; it is that closure when no
    vertex is dominated (K3..K10, KG(5..7, 2)).  The caveat is cleared
    by proof: conn > 0 means B(G) is connected, and the suspension of a
    connected complex is simply connected (van Kampen).  B0(G) of a
    graph with a vertex is never empty, so it carries no note.
    """
    _check_nonnull(G)
    core = strong_core(facets := Builds().box_facets(G))
    K = box_complex(G).complex  # built for the face budget
    if core != sorted(facets):  # a vertex was dominated
        del K  # never held beside the core's closure
        K = from_facets(core)
    L = collapse_reduce(K)
    # the free Z2 action makes B(G) never acyclic (Smith), so conn(L) == conn(B(G))
    conn = homological_connectivity(L) + 1
    return BoundReport(
        graph=G.descriptor(),
        bound="sarkaria",
        value=conn + 2,
        caveat=False,
        evidence=suspension_shift(reduced_homology(L), of_empty=not G.edges),
    )


def suspension_shift(profile: HomologyProfile, *, of_empty: bool) -> HomologyProfile:
    """Expected profile of a suspension: degree shift, or S^0 for empty input."""
    if of_empty:
        return S0_PROFILE
    return profile.shifted()


def verify_suspension_relation(G: Graph, *, builds: Builds | None = None) -> VerificationOutcome:
    """Homology of the CN-free box complex must be the suspension shift of
    the box complex's, and the Euler characteristics must mirror (2 - chi)."""
    builds = builds or Builds()
    B = builds.box(G)
    B0 = builds.box0(G)
    prof_b = builds.box_homology(G)
    prof_b0 = reduced_homology(B0.complex)
    expected = suspension_shift(prof_b, of_empty=B.complex.is_empty())
    chi_b = euler_characteristic(B.complex)
    chi_b0 = euler_characteristic(B0.complex)
    passed = prof_b0 == expected and chi_b0 == 2 - chi_b
    return VerificationOutcome(
        check="suspension-relation",
        input=G.descriptor(),
        passed=passed,
        details={
            "expected": {"profile": profile_to_obj(expected), "chi": 2 - chi_b},
            "observed": {"profile": profile_to_obj(prof_b0), "chi": chi_b0},
        },
    )


def verify_shore_retract(G: Graph, *, builds: Builds | None = None) -> VerificationOutcome:
    """The neighborhood complex and the box complex must have equal homology."""
    builds = builds or Builds()
    prof_n = reduced_homology(builds.neighborhood(G))
    prof_b = builds.box_homology(G)
    return VerificationOutcome(
        check="shore-retract",
        input=G.descriptor(),
        passed=prof_n == prof_b,
        details={
            "expected": {"profile": profile_to_obj(prof_n)},
            "observed": {"profile": profile_to_obj(prof_b)},
        },
    )


def verify_even_euler(G: Graph, *, builds: Builds | None = None) -> VerificationOutcome:
    """chi of the box complex is even, checked numerically and by pairing
    the faces into orbits of size two under the shore swap."""
    if not G.edges:
        raise ValueError("even-Euler check needs at least one edge")
    Z = (builds or Builds()).box(G)
    K = Z.complex
    chi = euler_characteristic(K)
    act = Z.action
    orbits_ok = all((g := act.on_face(f)) != f and g in K.faces for f in K.faces)
    f_vector = K.f_vector()
    per_dim_even = all(c % 2 == 0 for c in f_vector)
    passed = chi % 2 == 0 and orbits_ok and per_dim_even
    return VerificationOutcome(
        check="even-euler",
        input=G.descriptor(),
        passed=passed,
        details={
            "expected": {"chi mod 2": 0, "free orbit pairing": True},
            "observed": {
                "chi": chi,
                "free orbit pairing": orbits_ok,
                "per-dimension face counts": list(f_vector),
            },
        },
    )


def verify_construction_roundtrip(
    Z: Z2Complex, *, builds: Builds | None = None
) -> VerificationOutcome:
    """Subdivide, build the pair-and-neighbors graph, and compare homology:
    both the neighborhood and box complexes of the graph must match Z."""
    builds = builds or Builds()
    target = reduced_homology(Z.complex)
    sd = subdivide_involution(Z)
    G = graph_from_z2_complex(sd)
    prof_n = reduced_homology(builds.neighborhood(G))
    prof_b = builds.box_homology(G)
    passed = prof_n == target and prof_b == target
    return VerificationOutcome(
        check="construction-roundtrip",
        input=f"Z2 complex |V|={len(Z.complex.vertices)} f={Z.complex.f_vector()}",
        passed=passed,
        details={
            "expected": {"profile": profile_to_obj(target)},
            "observed": {
                "neighborhood profile": profile_to_obj(prof_n),
                "box profile": profile_to_obj(prof_b),
                "graph": G.descriptor(),
            },
        },
    )


def verify_nerve_identity(Z: Z2Complex, *, builds: Builds | None = None) -> VerificationOutcome:
    """Without subdivision: the neighborhood complex of the constructed
    graph equals the nerve of the vertex stars, face set for face set."""
    K = Z.complex
    G = graph_from_z2_complex(Z)
    N = (builds or Builds()).neighborhood(G)
    family = [(v, star(K, (v,)).vertices) for v in K.vertices]
    nerve_K = nerve(family)
    passed = N == nerve_K
    return VerificationOutcome(
        check="nerve-identity",
        input=f"Z2 complex |V|={len(K.vertices)} f={K.f_vector()}",
        passed=passed,
        details={
            "expected": {"faces": sorted(map(list, nerve_K.faces))},
            "observed": {"faces": sorted(map(list, N.faces))},
        },
    )


def verify_cone_graph(G: Graph, *, builds: Builds | None = None) -> VerificationOutcome:
    """Adding a dominating vertex suspends the box complex homology and
    raises the chromatic number by one (the chi check obeys the guard)."""
    builds = builds or Builds()
    Gp = add_cone_vertex(G)
    prof_b = builds.box_homology(G)
    prof_bp = builds.box_homology(Gp)
    # B(G) is empty exactly when G has no edge
    expected = suspension_shift(prof_b, of_empty=not G.edges)
    homology_ok = prof_bp == expected
    details: dict = {
        "expected": {"profile": profile_to_obj(expected)},
        "observed": {"profile": profile_to_obj(prof_bp)},
    }
    chi_ok = True
    if Gp.n <= COLORING_GUARD:
        chi_g = chromatic_number(G)
        chi_gp = chromatic_number(Gp)
        chi_ok = chi_gp == chi_g + 1
        details["expected"]["chi"] = chi_g + 1
        details["observed"]["chi"] = chi_gp
    else:
        details["observed"]["chi"] = "skipped (size guard)"
    return VerificationOutcome(
        check="cone-graph",
        input=G.descriptor(),
        passed=homology_ok and chi_ok,
        details=details,
    )


def verify_hom_equivalence(G: Graph, *, builds: Builds | None = None) -> VerificationOutcome:
    """The Hom(K2, -) order complex and the box complex have equal homology."""
    builds = builds or Builds()
    prof_hom = reduced_homology(builds.hom(G).complex)
    prof_b = builds.box_homology(G)
    return VerificationOutcome(
        check="hom-equivalence",
        input=G.descriptor(),
        passed=prof_hom == prof_b,
        details={
            "expected": {"profile": profile_to_obj(prof_b)},
            "observed": {"profile": profile_to_obj(prof_hom)},
        },
    )


def verify_shore_identity(G: Graph, *, builds: Builds | None = None) -> VerificationOutcome:
    """Each shore of the box complex is the neighborhood complex on the nose."""
    builds = builds or Builds()
    Z = builds.box(G)
    N = builds.neighborhood(G)
    s0 = shore_subcomplex(Z, 0, builds=builds)
    s1 = shore_subcomplex(Z, 1, builds=builds)
    passed = s0 == N and s1 == N
    return VerificationOutcome(
        check="shore-identity",
        input=G.descriptor(),
        passed=passed,
        details={
            "expected": {"faces": sorted(map(list, N.faces))},
            "observed": {
                "shore 0 faces": sorted(map(list, s0.faces)),
                "shore 1 faces": sorted(map(list, s1.faces)),
            },
        },
    )


SEARCH_GUARD = 6


def neighborhood_realizability_search(K: SimplicialComplex, n: int) -> Graph | None:
    """Exhaustive search for a graph on n labeled vertices whose
    neighborhood complex is isomorphic to K; None when there is none."""
    if n > SEARCH_GUARD:
        raise ValueError(f"search over 2^C({n},2) graphs exceeds the guard ({SEARCH_GUARD})")
    for G in all_labeled_graphs(n):
        # isomorphic compares vertex counts and f-vectors first
        if isomorphic(neighborhood_complex(G), K):
            return G
    return None
