"""Graph-to-complex constructions: neighborhood, box, and Hom complexes.

Box-type complexes live on two shores: graph vertex v becomes label 2v
on shore 0 and 2v+1 on shore 1, so the shore swap is label XOR 1.  The
cone apexes, when present, are the two smallest labels unused by the
shores (2n and 2n+1), so XOR 1 swaps them too.

Every complex is composed in one place, a Builds scope, from N(G) and
the maximal box pairs read off it: B(G) closes those facets, B0(G) adds
the two full shore simplices, and Hom(K2, G) takes its pairs from the
faces of N(G).  Each public builder makes a fresh scope.  Each verify_*
check, and shore_subcomplex, takes one as a keyword-only ``builds`` or
makes its own; checks that share a scope build each complex once.
"""

from __future__ import annotations

import itertools

from .graphs import Graph, common_neighbors
from .homology import HomologyProfile, reduced_homology
from .simplicial import (
    Face,
    Involution,
    SimplicialComplex,
    Z2Complex,
    _maximal_chains,
    check_face_budget,
    from_facets,
    strong_core,
)


def _encode_pair(A, B) -> Face:
    return tuple(sorted([2 * a for a in A] + [2 * b + 1 for b in B]))


def neighborhood_complex(G: Graph) -> SimplicialComplex:
    """Faces are the vertex sets with a common neighbor.

    S has a common neighbor iff S lies inside some neighbor set N(v), so
    the complex is the closure of the neighbor-set simplices.
    """
    return from_facets([G.adj[v] for v in range(G.n) if G.adj[v]])


def _box_facets(G: Graph, N: SimplicialComplex) -> list[Face]:
    """Maximal box faces, shore-encoded, from G and its neighborhood complex N.

    Every maximal pair is (CN(CN(S)), CN(S)) for some face S of N, and
    every such pair is maximal.  Vertex sets are bitmasks, so CN is an
    AND of neighbor masks; CN(S) fixes the pair, so each distinct CN(S)
    is completed and encoded once.  The pairs go into one set in the
    order the faces of N first give them, the facet order; no homology
    depends on it, as boundary_matrices numbers the cells in sorted order.
    """
    adj = [sum(1 << w for w in G.adj[v]) for v in range(G.n)]
    cn_masks: dict[int, None] = {}  # each CN(S), in first-seen order
    for S in N.faces:
        b = -1
        for v in S:
            b &= adj[v]
        cn_masks[b] = None

    def members(mask: int) -> Face:
        return tuple(v for v in range(G.n) if mask >> v & 1)

    pairs: set[tuple[Face, Face]] = set()
    for b in cn_masks:
        a = -1
        for v in members(b):
            a &= adj[v]
        pairs.add((members(a), members(b)))
    return [_encode_pair(A, B) for A, B in pairs]


def _shore_swapped(facets: list[Face]) -> Z2Complex:
    """The closure of shore-encoded facets with the shore swap (label XOR 1), checked on them."""
    K = from_facets(facets)
    return Z2Complex._generated(K, Involution({v: v ^ 1 for v in K.vertices}), facets)


class Builds:
    """N(G), its box facets and what is composed of them, once per scope.

    Keyed on the labeled graph (n, edges): shore faces depend on the
    labels, so isomorphic graphs do not share entries.  The builders,
    from_facets and reduced_homology are looked up by their module-level
    names at call time, so wrappers patched onto this module see every
    real build.  box_homology reads H~(B(G)) off the strong core of the
    facets, which has B(G)'s homotopy type and far fewer faces.
    """

    def __init__(self) -> None:
        self._memo: dict = {}

    def _get(self, kind: str, G: Graph, make):
        key = (kind, G.n, G.edges)
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def neighborhood(self, G: Graph) -> SimplicialComplex:
        return self._get("nbhd", G, lambda: neighborhood_complex(G))

    def box_facets(self, G: Graph) -> list[Face]:
        return self._get("facets", G, lambda: _box_facets(G, self.neighborhood(G)))

    def box(self, G: Graph) -> Z2Complex:
        return self._get("box", G, lambda: _shore_swapped(self.box_facets(G)))

    def box0(self, G: Graph) -> Z2Complex:
        shores = [_encode_pair(range(G.n), ()), _encode_pair((), range(G.n))]
        return self._get("box0", G, lambda: _shore_swapped(self.box_facets(G) + shores))

    def box_homology(self, G: Graph) -> HomologyProfile:
        return self._get("box homology", G, lambda: reduced_homology(
            from_facets(strong_core(self.box_facets(G)))
        ))

    def hom(self, G: Graph) -> Z2Complex:
        """Hom(K2, G), closed from the maximal chains of its pair poset,
        with the side swap checked on those chains."""
        def make() -> Z2Complex:
            elements = _hom_pairs(G, self.neighborhood(G))
            index = {p: i for i, p in enumerate(elements)}
            # componentwise inclusion of pairs is inclusion of their shore encodings
            chains = _maximal_chains([_encode_pair(A, B) for A, B in elements])
            mapping = {index[(a, b)]: index[(b, a)] for a, b in elements}
            return Z2Complex._generated(from_facets(chains), Involution(mapping), chains)

        return self._get("hom", G, make)


def box_complex(G: Graph) -> Z2Complex:
    """Faces A unioned-across-shores B with G[A,B] complete bipartite and
    both common-neighbor sets nonempty (CN of the empty side is V(G)).

    Empty when G has no edge.  The shore swap is a free involution,
    checked on construction on the facets the complex is closed from.
    """
    return Builds().box(G)


def box0_complex(G: Graph) -> Z2Complex:
    """The box complex without the common-neighbor conditions.

    Equivalently the box complex plus the two full shore simplices: a
    cross pair with both sides nonempty already satisfies the CN
    conditions, and one-sided faces are vacuously complete bipartite.
    """
    return Builds().box0(G)


def cones_over_shores_complex(G: Graph) -> Z2Complex:
    """The box complex with each shore coned off by a fresh apex.

    Apex x cones exactly the shore-0 faces (sets with nonempty CN) and
    apex y the shore-1 faces; the shore swap exchanges the apexes.
    """
    x, y = 2 * G.n, 2 * G.n + 1
    builds = Builds()
    facets = builds.box_facets(G) + [(x,), (y,)]
    for S in builds.neighborhood(G).facets():
        facets.append(_encode_pair(S, ()) + (x,))
        facets.append(_encode_pair((), S) + (y,))
    return _shore_swapped(facets)


def _hom_pairs(G: Graph, N: SimplicialComplex) -> list[tuple[Face, Face]]:
    """hom_pairs from G and its neighborhood complex N."""
    pairs: set[tuple[Face, Face]] = set()
    faces = 0
    for A in N.faces:
        cn = sorted(common_neighbors(G, A))
        # the (A, B) are vertices of Hom(K2, G), each with an edge to the
        # (2^|A| - 1)(2^|B| - 1) - 1 pairs below it; summed over B: 3^c - 2^c
        faces += ((1 << len(A)) - 1) * (3 ** len(cn) - 2 ** len(cn))
        check_face_budget(faces, "Hom(K2, G)")
        for r in range(1, len(cn) + 1):
            for B in itertools.combinations(cn, r):
                pairs.add((tuple(sorted(A)), B))
    return sorted(pairs)


def hom_pairs(G: Graph) -> list[tuple[Face, Face]]:
    """The poset elements (A, B): disjoint nonempty sets spanning a
    complete bipartite subgraph, in canonical order."""
    return _hom_pairs(G, Builds().neighborhood(G))


def hom_k2_order_complex(G: Graph) -> Z2Complex:
    """Order complex of the complete-bipartite-pair poset.

    Elements are ordered by componentwise inclusion; faces are chains.
    The involution swaps the two sides of every pair.
    """
    return Builds().hom(G)


def shore_subcomplex(Z: Z2Complex, shore: int, *, builds=None) -> SimplicialComplex:
    """One shore of a box complex, relabeled back to graph vertices.

    Provenance is verified by reconstruction: the cross edges of a box
    complex recover the graph, and the input must be exactly the box
    complex of that graph.  Cone apexes, missing CN conditions, and
    other forgeries all fail the rebuild.  The result equals the
    neighborhood complex of the recovered graph.  The rebuild is the
    box() of ``builds``, or of a fresh scope when none is given.
    """
    if shore not in (0, 1):
        raise ValueError("shore must be 0 or 1")
    if Z.complex.is_empty():
        return SimplicialComplex([])
    act = Z.action.as_dict()
    for v in Z.complex.vertices:
        if act.get(v) != v ^ 1:
            raise ValueError(
                "not a box complex: action is not the shore swap (label XOR 1)"
            )
    n = max(Z.complex.vertices) // 2 + 1
    cross = [
        (u // 2, v // 2)
        for u, v in Z.complex.k_faces(1)
        if u % 2 != v % 2
    ]
    G = Graph(n, cross)
    if (builds or Builds()).box(G) != Z:
        raise ValueError("not the box complex of any graph")
    kept = [f for f in Z.complex.faces if all(v % 2 == shore for v in f)]
    return SimplicialComplex([tuple(v // 2 for v in f) for f in kept])


def shore_vertex_records(Z: Z2Complex, n: int) -> list[dict]:
    """Serialization records for box-type complexes: one per vertex label."""
    apexes = {2 * n: "apex-x", 2 * n + 1: "apex-y"}
    return [
        {"label": label, "shore": apexes[label]}
        if label in apexes
        else {"label": label, "shore": label % 2, "v": label // 2}
        for label in Z.complex.vertices
    ]
