"""Integer simplicial homology via Smith normal form.

All linear algebra is exact, in Python ints, so elimination entry growth
is handled by arbitrary precision arithmetic.  boundary_matrices numbers
a complex's cells once and lists each cell's faces by number, and
reduced_homology reads only those numbers, in three steps that each keep
the reduced homology: elementary collapses (they keep the homotopy
type), coreduction on what is left (one vertex, then every cell with one
live face together with that face), and elimination of the cells left.
Both reductions delete pairs with one kernel, _pair_off, which reads a
cell's partner off the sum of its live neighbours' numbers: no face is
hashed and nothing sorted.  Only the cells left get sparse boundary
columns; their unit pivots are eliminated sparsely, and only the block
left without a unit entry goes to the dense Smith normal form.

The reduced convention is used throughout: a point has trivial homology
in every degree, m components give betti_0 = m - 1, and the empty
complex reports an all-zero profile.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, combinations, compress
from math import gcd
from typing import Iterable, Mapping, Sequence

from .simplicial import Face, SimplicialComplex

Matrix = list[list[int]]
Column = dict[int, int]


# ---------------------------------------------------------------------------
# Chain complexes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainComplex:
    """The one numbering of a complex's cells, with each cell's faces.

    bases[k] lists the k-faces, sorted; cells are numbered dimension by
    dimension in basis order.  faces[c] lists the numbers of cell c's
    codimension-one faces: the one that omits position i of c sits at
    index i, with sign (-1)^i in the boundary of c.  The columns of D_k
    and its dense form (boundary, matrices) are built on demand for
    oracles and tests.
    """

    bases: tuple[tuple[Face, ...], ...]
    faces: list[tuple[int, ...]]

    @property
    def dim(self) -> int:
        return len(self.bases) - 1

    @property
    def columns(self) -> list[list[Column]]:
        """columns[k-1] is D_k; column j maps row indices in bases[k-1] to signs."""
        return _restrict(self, [True] * len(self.faces))[1]

    def boundary(self, k: int) -> Matrix:
        """D_k as a dense mutable row-major matrix."""
        if not 1 <= k <= self.dim:
            raise ValueError(f"no boundary matrix D_{k}")
        M = [[0] * len(self.bases[k]) for _ in self.bases[k - 1]]
        for j, col in enumerate(self.columns[k - 1]):
            for i, sign in col.items():
                M[i][j] = sign
        return M

    @property
    def matrices(self) -> tuple[Matrix, ...]:
        """D_1..D_dim as dense row-major matrices."""
        return tuple(self.boundary(k) for k in range(1, self.dim + 1))


def boundary_matrices(K: SimplicialComplex) -> ChainComplex:
    """Number the cells of K once and list each cell's faces by number."""
    if K.is_empty():
        raise ValueError("the empty complex has no chain complex")
    by_dim: list[list[Face]] = [[] for _ in range(K.dim + 1)]
    for f in K.faces:
        by_dim[len(f) - 1].append(f)
    bases = tuple(tuple(sorted(fs)) for fs in by_dim)
    cells = list(chain.from_iterable(bases))
    number = dict(zip(cells, range(len(cells)))).__getitem__
    # combinations omits the last position first
    faces = [()] * len(bases[0]) + [
        tuple(map(number, combinations(f, len(f) - 1)))[::-1] for f in cells[len(bases[0]):]
    ]
    return ChainComplex(bases, faces)


def _restrict(cc: ChainComplex, keep: list[bool]) -> tuple[list[int], list[list[Column]]]:
    """Cell counts per dimension and boundary columns of the cells kept;
    the columns of D_k index rows by position in bases[k-1]."""
    faces = cc.faces
    off = [0, *accumulate(map(len, cc.bases))]
    counts = [keep[off[k]:off[k + 1]].count(True) for k in range(len(cc.bases))]
    columns = [
        [
            {s - off[k - 1]: -1 if i & 1 else 1 for i, s in enumerate(faces[c]) if keep[s]}
            for c in compress(range(off[k], off[k + 1]), keep[off[k]:off[k + 1]])
        ]
        for k in range(1, len(cc.bases))
    ]
    return counts, columns


def _check_faces(cc: ChainComplex, live: list[bool]) -> None:
    """Check the face identity d_(j-1) d_i = d_i d_j (i < j) on the live cells.

    d_i c is faces[c][i].  Under the signs (-1)^i the identity makes the
    boundary of every boundary vanish: the terms d_(j-1) d_i and d_i d_j
    of the boundary of the boundary of c carry opposite signs.
    """
    faces = cc.faces
    for c in compress(range(len(faces)), live):
        if len(F := faces[c]) > 2:
            sub = [faces[s] for s in F]
            cols = list(zip(*sub))  # cols[j - 1][i] is d_(j-1) d_i c
            for j in range(1, len(F)):
                if cols[j - 1][:j] != sub[j][:j]:
                    raise RuntimeError(f"boundary of boundary nonzero at {[*chain(*cc.bases)][c]}")


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnfResult:
    """Nonzero diagonal of the Smith normal form, in divisibility order."""

    factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(f for f in self.factors if f > 1)


def smith_normal_form(M: Matrix) -> SnfResult:
    """Smith normal form of a dense matrix by unimodular row/column operations.

    It finishes the block sparse_smith_normal_form leaves and is the dense
    oracle of the tests.

    Pivoting is deterministic: smallest nonzero absolute value in the
    remaining block, ties broken by row-major position.  The pivot's
    column is cleared with floor-division remainders, then its row; a
    nonzero remainder is smaller than the pivot and is picked next.  The
    divisibility chain is established on the diagonal afterwards
    (diag(a,b) ~ diag(gcd, lcm)).
    """
    A = [list(row) for row in M]
    m = len(A)
    n = len(A[0]) if A else 0
    diag: list[int] = []
    t = 0
    while t < min(m, n):
        pivot = _smallest_entry(A, t)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]
        At = A[t]
        p = At[t]
        clean = True
        for i in range(t + 1, m):
            Ai = A[i]
            if Ai[t]:
                q = Ai[t] // p
                if q:
                    for j in range(t, n):
                        Ai[j] -= q * At[j]
                clean = clean and not Ai[t]
        if clean:
            # column t is zero below and above the pivot, so clearing an
            # entry of row t by a column operation changes only that entry
            for j in range(t + 1, n):
                if At[j]:
                    At[j] %= p
                    clean = clean and not At[j]
        if clean:
            diag.append(abs(p))
            t += 1

    # establish the divisibility chain on the diagonal
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                a, b = diag[i], diag[j]
                if b % a:
                    g = gcd(a, b)
                    diag[i], diag[j] = g, a * b // g
                    changed = True
    return SnfResult(tuple(sorted(diag)))


def _smallest_entry(A: Matrix, t: int) -> tuple[int, int] | None:
    """Position of the first smallest nonzero |entry| in A[t:][t:], row-major.

    No entry is smaller than 1, so the first entry of absolute value 1 ends
    the scan without changing the choice.
    """
    best = pivot = None
    for i in range(t, len(A)):
        Ai = A[i]
        for j in range(t, len(Ai)):
            a = Ai[j]
            if a and (best is None or abs(a) < best):
                if abs(a) == 1:
                    return i, j
                best = abs(a)
                pivot = (i, j)
    return pivot


def sparse_smith_normal_form(columns: Sequence[Mapping[int, int]]) -> SnfResult:
    """Smith normal form of a sparse integer matrix given by its columns.

    columns[j] maps a row index to the entry in column j.  Pivots of
    absolute value 1 are eliminated first: the pivot row is one with the
    fewest entries among the rows that hold a unit (ties to the smaller
    row index), the pivot column its unit column with the fewest entries
    (ties likewise).  Row operations clear the pivot column; the pivot row
    is then cleared by column operations that change nothing else, so each
    unit pivot adds a factor 1 and drops out.  The block left without a
    unit entry goes to smith_normal_form, even when it is empty.
    """
    rows: dict[int, Column] = {}
    col_rows: dict[int, set[int]] = {}
    for j, col in enumerate(columns):
        for i, a in col.items():
            if a:
                rows.setdefault(i, {})[j] = a
                col_rows.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in rows.items()]
    heapify(heap)
    units = 0
    while heap:
        n, i = heappop(heap)
        row = rows.get(i)
        if row is None or len(row) != n:
            continue  # a stale entry: the row is gone or was pushed again
        unit_cols = [(len(col_rows[j]), j) for j, a in row.items() if a == 1 or a == -1]
        if not unit_cols:
            continue  # pushed again if a later elimination changes the row
        j = min(unit_cols)[1]
        p = row[j]
        del rows[i]
        for c in row:
            col_rows[c].discard(i)
        for r in list(col_rows[j]):
            other = rows[r]
            q = other[j] * p  # other[j] / p, as p = +-1
            for c, a in row.items():
                v = other.get(c, 0) - q * a
                if v:
                    if c not in other:
                        col_rows[c].add(r)
                    other[c] = v
                else:
                    del other[c]
                    col_rows[c].discard(r)
            heappush(heap, (len(other), r))
        units += 1

    left = sorted(i for i, row in rows.items() if row)
    cols = sorted({j for i in left for j in rows[i]})
    where = {j: t for t, j in enumerate(cols)}
    block = [[0] * len(cols) for _ in left]
    for s, i in enumerate(left):
        for j, a in rows[i].items():
            block[s][where[j]] = a
    return SnfResult((1,) * units + smith_normal_form(block).factors)


# ---------------------------------------------------------------------------
# Homology profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyProfile:
    """Reduced homology per dimension: (betti_k, invariant torsion factors)."""

    entries: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, tuple[int, ...]]]) -> "HomologyProfile":
        out = list(pairs)
        while out and out[-1] == (0, ()):
            out.pop()
        return cls(tuple(out))

    def betti(self, k: int) -> int:
        return self.entries[k][0] if 0 <= k < len(self.entries) else 0

    def torsion(self, k: int) -> tuple[int, ...]:
        return self.entries[k][1] if 0 <= k < len(self.entries) else ()

    @property
    def top_dim(self) -> int:
        return len(self.entries) - 1

    def is_trivial(self) -> bool:
        return not self.entries

    def shifted(self) -> "HomologyProfile":
        """The suspension shift for a nonempty underlying complex."""
        return HomologyProfile.from_pairs(((0, ()),) + self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "trivial"
        parts = []
        for k, (b, tor) in enumerate(self.entries):
            t = "" if not tor else " + " + " + ".join(f"Z/{f}" for f in tor)
            parts.append(f"H~{k} = Z^{b}{t}")
        return ", ".join(parts)


ZERO_PROFILE = HomologyProfile(())

S0_PROFILE = HomologyProfile(((1, ()),))


def profile_to_obj(p: HomologyProfile) -> dict:
    return {
        "dims": [
            {"k": k, "betti": b, "torsion": list(tor)}
            for k, (b, tor) in enumerate(p.entries)
        ]
    }


# ---------------------------------------------------------------------------
# Elementary collapses and coreduction
# ---------------------------------------------------------------------------

def _pair_off(
    count: list[int], total: list[int], others: Sequence[Sequence[int]], queue: deque[int]
) -> None:
    """Delete cells in pairs, first in, first out, until the queue is empty.

    Cells are numbers.  count[c] is how many live neighbours c has (-1
    once c is deleted) and total[c] the sum of their numbers, so a cell
    with count 1 is paired with the cell total[c]: no search, sort or
    lookup.  others[c] lists the cells that have c among their
    neighbours; deleting g lowers the count of each live one by 1 and its
    total by g, and a cell whose count drops to 1 is queued.  A popped
    cell whose count is no longer 1 is skipped.
    """
    while queue:
        i = queue.popleft()
        if count[i] != 1:
            continue
        t = total[i]  # the one live neighbour
        count[i] = count[t] = -1
        for g in (i, t):
            for s in others[g]:
                c = count[s]
                if c > 0:  # a live cell in others[g] has g among its neighbours
                    count[s] = c - 1
                    total[s] -= g
                    if c == 2:
                        queue.append(s)


def _collapse(cc: ChainComplex) -> list[bool]:
    """Which cells are left once free pairs are removed until none remain.

    A face is free when it has exactly one codimension-one coface (then
    its only coface, and maximal); removing the two keeps the homotopy
    type.  _pair_off runs on coface counts with each cell's faces as its
    neighbours, seeded with the free faces in number order, which decides
    which pairs go; no output depends on it.
    """
    faces = cc.faces
    count = [0] * len(faces)
    cosum = [0] * len(faces)
    for c, F in enumerate(faces):
        for s in F:
            count[s] += 1
            cosum[s] += c
    _pair_off(count, cosum, faces, deque(c for c, n in enumerate(count) if n == 1))
    return [n >= 0 for n in count]


def collapse_reduce(K: SimplicialComplex) -> SimplicialComplex:
    """K with free pairs removed until none remain; same homotopy type.

    The collapse of reduced_homology, on the numbering of
    boundary_matrices(K); exact reference tests compare its faces.
    """
    if K.is_empty():
        return K
    cc = boundary_matrices(K)
    # a free pair leaves the rest downward closed, so the survivors skip validation
    return SimplicialComplex._closed(compress(chain.from_iterable(cc.bases), _collapse(cc)))


def _coreduce(cc: ChainComplex, live: list[bool]) -> tuple[list[int], list[list[Column]]]:
    """Cell counts and boundary columns of the live cells coreduction leaves.

    The live cells form a nonempty subcomplex.  Its first vertex is
    deleted with the empty face of the augmented complex, so what is left
    is the relative complex, with the reduced homology of the live cells
    and no augmentation.  Then _pair_off runs on face counts with each
    live cell's cofaces as its neighbours (Mrozek–Batko): it deletes a
    cell a with one live face b, and b.  The entry of b in the boundary
    of a is +-1, so the deletion is an elementary reduction; b has no
    live face left (the boundary of the boundary of a is zero), so the
    boundaries of the cells left are restrictions.  Deleting such a pair
    changes no coface count, so no free face appears after a collapse.
    """
    faces = cc.faces
    down = [-1] * len(faces)
    down_sum = [0] * len(faces)
    cofaces: list = [()] * len(faces)  # a dead cell has no live coface
    for c in compress(range(len(faces)), live):
        F = faces[c]
        cofaces[c] = []  # before any coface of c, which has a larger number
        down[c] = len(F)
        down_sum[c] = sum(F)
        for s in F:
            cofaces[s].append(c)
    v = live.index(True)  # the first live vertex, paired with the empty face
    down[v] = -1
    for t in cofaces[v]:
        down[t] = 1
        down_sum[t] -= v  # leaves its other vertex
    _pair_off(down, down_sum, cofaces, deque(cofaces[v]))
    return _restrict(cc, [d >= 0 for d in down])


# ---------------------------------------------------------------------------
# Reduced homology
# ---------------------------------------------------------------------------

def reduced_homology(K: SimplicialComplex, *, collapse: bool = True) -> HomologyProfile:
    """Reduced integer homology from Smith normal forms of the boundaries.

    boundary_matrices numbers the cells of K once, and every step reads
    those numbers: the collapse removes free pairs (a face with one
    coface, and that coface), the face identity is checked on every cell
    it leaves, and _coreduce deletes one vertex and then coreduction
    pairs (a cell with one live face, and that face).  Only the cells
    left reach sparse_smith_normal_form, with no augmentation.  The
    reference path of the tests, collapse=False, checks every cell and
    eliminates the full boundaries with the augmentation (rank 1).
    """
    if K.is_empty():
        return ZERO_PROFILE
    cc = boundary_matrices(K)
    live = _collapse(cc) if collapse else [True] * len(cc.faces)
    _check_faces(cc, live)
    counts, columns = _coreduce(cc, live) if collapse else _restrict(cc, live)
    while columns and not counts[-1]:  # no cell left on top, so nothing to eliminate
        counts.pop()
        columns.pop()
    snfs = [sparse_smith_normal_form(D) for D in columns] + [SnfResult(())]
    # ranks[k] = rank D_k, with D_0 the augmentation, which _coreduce removes
    ranks = [0 if collapse else 1] + [snf.rank for snf in snfs]
    return HomologyProfile.from_pairs(
        (n - ranks[k] - ranks[k + 1], snfs[k].torsion) for k, n in enumerate(counts)
    )


def homological_connectivity(K: SimplicialComplex) -> int:
    """Largest k with vanishing reduced homology through degree k.

    -2 for the empty complex, -1 for a nonempty disconnected one.  When
    every degree up to dim vanishes (an acyclic complex) the result is
    dim; there is nothing above to test.
    """
    if K.is_empty():
        return -2
    prof = reduced_homology(K)
    k = -1
    for i in range(K.dim + 1):
        if prof.betti(i) == 0 and not prof.torsion(i):
            k = i
        else:
            break
    return k
