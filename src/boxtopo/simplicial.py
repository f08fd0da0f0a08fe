"""Simplicial complexes with optional free involutions.

Faces are stored explicitly as sorted integer tuples inside a frozenset;
facet-only compression is deliberately avoided so face membership stays
O(1).  Every type here is immutable after construction and every
operation is a pure function, so values can be shared freely.

Conventions for the empty complex: chi = 0, dim = -1, and
suspension(empty) is a two-point sphere.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, Hashable

Face = tuple[int, ...]


def _canon_face(face: Iterable[int]) -> Face:
    return tuple(sorted(set(face)))


class SimplicialComplex:
    """A finite abstract simplicial complex on integer-labeled vertices.

    The constructor expects a downward-closed face set and rejects
    anything else; use :func:`from_facets` to build from generators.
    It canonicalizes every face and checks the closure of whatever it is
    given.  Two face sets skip those checks, through the private
    :meth:`_closed`: the closure :func:`from_facets` has just built from
    canonicalized facets, and the survivors of
    ``homology.collapse_reduce``, a subset of a complex's faces that the
    removal of free pairs keeps downward closed.
    """

    __slots__ = ("faces", "vertices", "dim")

    faces: frozenset[Face]
    vertices: tuple[int, ...]
    dim: int

    def __init__(self, faces: Iterable[Iterable[int]]):
        face_set = frozenset(_canon_face(f) for f in faces)
        if () in face_set:
            raise ValueError("the empty face is never stored")
        for f in face_set:
            if len(f) > 1:
                for sub in itertools.combinations(f, len(f) - 1):
                    if sub not in face_set:
                        raise ValueError(f"face set not downward closed: {sub} missing under {f}")
        self._store(face_set)

    @classmethod
    def _closed(cls, faces: Iterable[Face]) -> "SimplicialComplex":
        """A complex on faces the library has already canonicalized and closed.

        The set is filled one face at a time, as the public constructor
        fills it, so its iteration order (which collapse_reduce numbers
        faces by) is the same as through the public constructor.
        """
        K = object.__new__(cls)
        K._store(frozenset(iter(faces)))
        return K

    def _store(self, face_set: frozenset[Face]) -> None:
        object.__setattr__(self, "faces", face_set)
        # in a closed face set the vertices are the one-vertex faces
        object.__setattr__(self, "vertices", tuple(sorted(f[0] for f in face_set if len(f) == 1)))
        object.__setattr__(self, "dim", max(map(len, face_set), default=0) - 1)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.faces == other.faces

    def __hash__(self):
        return hash(self.faces)

    def __contains__(self, face: Iterable[int]) -> bool:
        return _canon_face(face) in self.faces

    def __len__(self) -> int:
        return len(self.faces)

    def __repr__(self):
        return f"SimplicialComplex(|V|={len(self.vertices)}, f={self.f_vector()})"

    def is_empty(self) -> bool:
        return not self.faces

    def k_faces(self, k: int) -> list[Face]:
        """Sorted list of k-dimensional faces (k+1 vertices each)."""
        return sorted(f for f in self.faces if len(f) == k + 1)

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for f in self.faces:
            counts[len(f) - 1] += 1
        return tuple(counts)

    def facets(self) -> list[Face]:
        """Maximal faces, sorted.

        In a downward-closed face set a face is maximal exactly when it is
        no codimension-one face of another.
        """
        covered = {f[:i] + f[i + 1:] for f in self.faces if len(f) > 1 for i in range(len(f))}
        return sorted(self.faces - covered)

    def relabel(self, mapping: dict[int, int]) -> "SimplicialComplex":
        if len(set(mapping[v] for v in self.vertices)) != len(self.vertices):
            raise ValueError("relabeling is not injective on the vertex set")
        return SimplicialComplex(tuple(mapping[v] for v in f) for f in self.faces)


class Involution:
    """An order-two vertex map; freeness is a Z2Complex-level property."""

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[int, int]):
        for v, w in mapping.items():
            if mapping.get(w) != v:
                raise ValueError(f"not an involution: {v} -> {w} -> {mapping.get(w)}")
        object.__setattr__(self, "_map", dict(mapping))

    def __setattr__(self, name, value):
        raise AttributeError("Involution is immutable")

    def as_dict(self) -> dict[int, int]:
        return dict(self._map)

    def __call__(self, v: int) -> int:
        return self._map[v]

    def on_face(self, face: Iterable[int]) -> Face:
        m = self._map
        return tuple(sorted(m[v] for v in face))

    def __eq__(self, other):
        return isinstance(other, Involution) and self._map == other._map

    def __hash__(self):
        return hash(tuple(sorted(self._map.items())))

    def __repr__(self):
        return f"Involution({self._map!r})"


class Z2Complex:
    """A simplicial complex with a free simplicial involution.

    Validation always runs: the action (order two by construction of
    :class:`Involution`) must map the vertices into the complex and
    faces to faces, and no face may be setwise fixed (a setwise-fixed
    simplex fixes its barycenter, so this is the exact simplicial
    freeness condition).  The public constructor checks every face.
    """

    __slots__ = ("complex", "action")

    complex: SimplicialComplex
    action: Involution

    def __init__(self, complex: SimplicialComplex, action: Involution):
        # with every face checked, a fixed orbit {v, d(v)} shows as a face equal to its image
        self._validate(complex, action, complex.faces, tuple.__eq__)

    @classmethod
    def _generated(cls, complex: SimplicialComplex, action: Involution, generators) -> "Z2Complex":
        """A Z2Complex on the closure of `generators`, checked on them alone:
        each face lies in a generator, whose image is a face of the closed
        complex, and a face fixed setwise holds an orbit {v, d(v)}, as does
        every generator holding it, so this equals checking every face."""
        Z = object.__new__(cls)
        Z._validate(complex, action, generators, lambda g, img: not set(g).isdisjoint(img))
        return Z

    def _validate(self, complex: SimplicialComplex, action: Involution, faces, meets) -> None:
        d = action.as_dict()
        vertex_set = set(complex.vertices)
        for v in complex.vertices:
            if v not in d:
                raise ValueError(f"action undefined on vertex {v}")
            if d[v] not in vertex_set:
                raise ValueError(f"action sends {v} outside the complex")
        for f in faces:
            img = tuple(sorted(map(d.__getitem__, f)))
            if img not in complex.faces:
                raise ValueError(f"action is not simplicial: image of {tuple(f)} is not a face")
            if meets(f, img):
                raise ValueError(f"action is not free: face {tuple(f)} meets its image {img}")
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "action", action)

    def __setattr__(self, name, value):
        raise AttributeError("Z2Complex is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Z2Complex)
            and self.complex == other.complex
            and self._restricted_map() == other._restricted_map()
        )

    def __hash__(self):
        return hash((self.complex, tuple(sorted(self._restricted_map().items()))))

    def _restricted_map(self) -> dict[int, int]:
        d = self.action.as_dict()
        return {v: d[v] for v in self.complex.vertices}

    def __repr__(self):
        return f"Z2Complex({self.complex!r})"


# The most faces a complex may have, counted while the closure, the order
# complex and the Hom(K2, G) poset are built.  B(K_n) has 3^n - 3 faces and
# B(K10), B(K11) peak at 130 MB, 538 MB on an 8 GB machine: B(K12) (531,438
# faces) is admitted, B(K13) (1,594,320) is refused with exit 2.
FACE_BUDGET = 1_000_000


def check_face_budget(count: int, what: str) -> None:
    """Raise a one-line ValueError when `count`, a floor on what `what` builds, passes it."""
    if count > FACE_BUDGET:
        raise ValueError(f"{what} would pass the face budget ({FACE_BUDGET:,} faces)")


def from_facets(facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Downward closure of the given generating faces.

    An empty facet is an input error; an empty facet *list* gives the
    empty complex.
    """
    faces: set[Face] = set()
    for facet in facets:
        t = _canon_face(facet)
        if not t:
            raise ValueError("a facet must be a nonempty vertex set")
        check_face_budget((1 << len(t)) - 1, "the closure of one facet")
        for k in range(1, len(t) + 1):
            faces.update(itertools.combinations(t, k))
        check_face_budget(len(faces), "the closure of the facets")
    # combinations of a sorted tuple are sorted and every sub-face was added
    return SimplicialComplex._closed(faces)


def strong_core(facets: Iterable[Iterable[int]]) -> list[Face]:
    """The facets left once no vertex is dominated (Barmak–Minian).

    Vertex v is dominated when every facet holding v also holds another
    vertex w; the link of v is then a cone with apex w, and deleting v is
    a strong collapse, which keeps the homotopy type.  While a dominated
    vertex exists, the smallest one is deleted and the facets that held
    it are cut back to the maximal ones.  The result is the maximal
    faces of the closure, sorted; an empty input gives an empty list.
    """
    canon = {_canon_face(f) for f in facets}
    if () in canon:
        raise ValueError("a facet must be a nonempty vertex set")
    labels = sorted({v for f in canon for v in f})
    bit = {v: 1 << i for i, v in enumerate(labels)}
    masks = _maximal({sum(map(bit.__getitem__, f)) for f in canon})
    alive = list(bit.values())
    while True:
        for b in alive:
            common = -1
            for m in masks:
                if m & b:
                    common &= m
            if common != b:  # every facet holding b also holds another vertex
                break
        else:
            break
        masks = _maximal({m & ~b for m in masks})
        alive.remove(b)
    return sorted(tuple(v for v in labels if m & bit[v]) for m in masks)


def _maximal(masks: set[int]) -> list[int]:
    """The masks no other contains; only masks with more vertices are compared."""
    kept: list[int] = []
    for _, group in itertools.groupby(sorted(masks, key=int.bit_count, reverse=True), int.bit_count):
        larger = tuple(kept)
        kept.extend(m for m in group if not any(m & g == m for g in larger))
    return kept


def euler_characteristic(K: SimplicialComplex) -> int:
    """Alternating sum of face counts; 0 for the empty complex."""
    return sum((-1) ** (len(f) - 1) for f in K.faces)


def sd_vertex_faces(K: SimplicialComplex) -> list[Face]:
    """The faces of K in the canonical order used to label sd(K).

    Vertex i of the subdivision corresponds to position i in this list
    (faces sorted by cardinality, then lexicographically); this is the
    reversible dictionary between sd labels and original faces.
    """
    return sorted(K.faces, key=lambda f: (len(f), f))


def order_complex(sets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Chains of a family of distinct vertex sets under strict inclusion.

    Vertex i of the result stands for the i-th set of the family.  Every
    member, comparable pair and chain is a face, counted as it is found.
    """
    members = [frozenset(s) for s in sets]
    containing: dict[int, list[int]] = {}
    for j, t in enumerate(members):
        for v in t:
            containing.setdefault(v, []).append(j)
    above, faces = [], len(members)
    for s in members:
        # a superset of s contains the rarest vertex of s
        near = containing[min(s, key=lambda v: len(containing[v]))] if s else range(len(members))
        above.append([j for j in near if s < members[j]])
        faces += len(above[-1])
        check_face_budget(faces, "the members and comparable pairs of an order complex")
    # each chain is built exactly once, upwards from its smallest member
    chains: list[Face] = []

    def extend(chain: Face):
        chains.append(chain)
        check_face_budget(len(chains), "the chains of an order complex")
        for j in above[chain[-1]]:
            extend(chain + (j,))

    for i in range(len(members)):
        extend((i,))
    return SimplicialComplex(chains)


def barycentric_subdivision(K: SimplicialComplex) -> SimplicialComplex:
    """Chains of faces of K under strict inclusion, on dense fresh labels.

    Labels follow :func:`sd_vertex_faces`; downstream constructions
    consume only the relabeled complex.
    """
    return order_complex(sd_vertex_faces(K))


def subdivide_involution(Z: Z2Complex) -> Z2Complex:
    """Barycentric subdivision with the induced action on face-vertices."""
    order = sd_vertex_faces(Z.complex)
    index = {f: i for i, f in enumerate(order)}
    act = Z.action
    mapping = {index[f]: index[act.on_face(f)] for f in order}
    return Z2Complex(order_complex(order), Involution(mapping))


def fresh_labels(K: SimplicialComplex, count: int) -> tuple[int, ...]:
    """The `count` smallest nonnegative integers unused by K."""
    used = set(K.vertices)
    out = []
    v = 0
    while len(out) < count:
        if v not in used:
            out.append(v)
        v += 1
    return tuple(out)


def suspension(K: SimplicialComplex) -> SimplicialComplex:
    """Join with two fresh apexes (never a face containing both).

    suspension(empty) is a two-point sphere, and
    chi(suspension(K)) = 2 - chi(K) always.
    """
    x, y = fresh_labels(K, 2)
    faces: set[Face] = set(K.faces)
    faces.add((x,))
    faces.add((y,))
    for f in K.faces:
        faces.add(tuple(sorted(f + (x,))))
        faces.add(tuple(sorted(f + (y,))))
    return SimplicialComplex(faces)


def z2_suspension(Z: Z2Complex) -> Z2Complex:
    """Suspension whose action swaps the apexes over the given action."""
    x, y = fresh_labels(Z.complex, 2)
    susp = suspension(Z.complex)
    mapping = Z._restricted_map()
    mapping[x] = y
    mapping[y] = x
    return Z2Complex(susp, Involution(mapping))


def star(K: SimplicialComplex, sigma: Iterable[int]) -> SimplicialComplex:
    """The subcomplex of faces tau with tau ∪ sigma still a face."""
    s = _canon_face(sigma)
    if s not in K.faces:
        raise ValueError(f"{s} is not a face")
    ss = set(s)
    return SimplicialComplex(
        f for f in K.faces if tuple(sorted(ss.union(f))) in K.faces
    )


def nerve(family: Iterable[tuple[int, Iterable[Hashable]]]) -> SimplicialComplex:
    """Nerve of a labeled set family: faces are subfamilies sharing an element.

    Members may contain any hashable elements (vertex labels, faces, ...).
    """
    labeled = [(label, frozenset(members)) for label, members in family]
    if any(not members for _, members in labeled):
        raise ValueError("every family member must be nonempty")
    universe = frozenset().union(*(m for _, m in labeled)) if labeled else frozenset()
    facets = []
    for e in universe:
        facets.append([label for label, members in labeled if e in members])
    return from_facets(facets)


def _vertex_signature(K: SimplicialComplex) -> dict[int, tuple]:
    sig: dict[int, list[int]] = {v: [] for v in K.vertices}
    for f in K.faces:
        for v in f:
            sig[v].append(len(f))
    return {v: tuple(sorted(s)) for v, s in sig.items()}


ISOMORPHISM_GUARD = 12


def isomorphic(K1: SimplicialComplex, K2: SimplicialComplex) -> bool:
    """Exact isomorphism test by pruned backtracking over vertex bijections.

    Exponential by design; refuses inputs above `ISOMORPHISM_GUARD` vertices.
    """
    if len(K1.vertices) != len(K2.vertices) or K1.f_vector() != K2.f_vector():
        return False
    if len(K1.vertices) > ISOMORPHISM_GUARD:
        raise ValueError(
            f"isomorphism search on {len(K1.vertices)} vertices exceeds the "
            f"guard ({ISOMORPHISM_GUARD})"
        )
    sig1 = _vertex_signature(K1)
    sig2 = _vertex_signature(K2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False

    v1 = sorted(K1.vertices, key=lambda v: (sig1[v], v))
    candidates = {v: [w for w in K2.vertices if sig2[w] == sig1[v]] for v in v1}
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def faces_within(K: SimplicialComplex, dom: set[int]) -> set[Face]:
        return {f for f in K.faces if dom.issuperset(f)}

    def consistent(v: int) -> bool:
        dom = set(assignment)
        for f in K1.faces:
            if v in f and dom.issuperset(f):
                img = tuple(sorted(assignment[u] for u in f))
                if img not in K2.faces:
                    return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(v1):
            return faces_within(K2, used) == {
                tuple(sorted(assignment[u] for u in f)) for f in K1.faces
            }
        v = v1[i]
        for w in candidates[v]:
            if w in used:
                continue
            assignment[v] = w
            used.add(w)
            if consistent(v) and backtrack(i + 1):
                return True
            del assignment[v]
            used.discard(w)
        return False

    return backtrack(0)


# ---------------------------------------------------------------------------
# Canonical free Z2 test complexes
# ---------------------------------------------------------------------------

def two_points_z2() -> Z2Complex:
    """Two swapped points: the 0-sphere with its antipodal action."""
    return Z2Complex(from_facets([[0], [1]]), Involution({0: 1, 1: 0}))


def antipodal_cycle_z2(n: int) -> Z2Complex:
    """The n-cycle (n even, >= 4) with the half-turn vertex rotation."""
    if n < 4 or n % 2:
        raise ValueError("antipodal cycle needs even n >= 4")
    K = from_facets([[i, (i + 1) % n] for i in range(n)])
    return Z2Complex(K, Involution({i: (i + n // 2) % n for i in range(n)}))


def octahedron_z2() -> Z2Complex:
    """Boundary of the octahedron with the antipodal map i -> i+3 (mod 6)."""
    facets = [
        (a, b, c)
        for a in (0, 3)
        for b in (1, 4)
        for c in (2, 5)
    ]
    K = from_facets(facets)
    return Z2Complex(K, Involution({i: (i + 3) % 6 for i in range(6)}))


# ---------------------------------------------------------------------------
# JSON format: {"vertices": [...], "facets": [[...], ...],
#               "involution": {"map": {"v": nu(v), ...}}  (optional)}
# Closure is applied on load, so facets need not be maximal.
# ---------------------------------------------------------------------------

def complex_to_obj(
    K: SimplicialComplex,
    action: Involution | None = None,
    shore_vertices: list[dict] | None = None,
) -> dict:
    obj: dict = {
        "vertices": list(K.vertices),
        "facets": [list(f) for f in K.facets()],
    }
    if action is not None:
        act = action.as_dict()
        obj["involution"] = {"map": {str(v): act[v] for v in K.vertices}}
    if shore_vertices is not None:
        obj["shore_vertices"] = shore_vertices
    return obj


def _is_int_list(x) -> bool:
    # type(v) is int: JSON true/false parse to bool, a subclass of int
    return isinstance(x, list) and all(type(v) is int for v in x)


def complex_from_obj(obj: dict) -> tuple[SimplicialComplex, Involution | None]:
    """Parse the complex JSON format; a malformed shape raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("complex JSON must be an object")
    facets = obj.get("facets", [])
    if not isinstance(facets, list) or not all(_is_int_list(f) for f in facets):
        raise ValueError('"facets" must be a list of integer lists')
    K = from_facets(facets)
    declared = obj.get("vertices")
    if declared is not None and not _is_int_list(declared):
        raise ValueError('"vertices" must be an integer list')
    if declared is not None and sorted(declared) != list(K.vertices):
        raise ValueError("declared vertices disagree with the facets")
    action = None
    if "involution" in obj:
        inv = obj["involution"]
        raw = inv.get("map") if isinstance(inv, dict) else None
        if not isinstance(raw, dict) or not _is_int_list(list(raw.values())):
            raise ValueError('"involution" must be {"map": {"v": w, ...}} with integer images')
        action = Involution({int(v): w for v, w in raw.items()})
    return K, action


def dumps_canonical(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
