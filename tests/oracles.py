"""Oracles the tests check the library against, kept out of the library."""

from __future__ import annotations


def bareiss_rank(M: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free Gaussian elimination.

    Independent of the Smith normal form path, so it cross-checks Betti
    numbers.
    """
    A = [list(row) for row in M]
    m = len(A)
    n = len(A[0]) if A else 0
    prev = 1
    rank = 0
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, m) if A[r][col]), None)
        if piv is None:
            continue
        if piv != row:
            A[row], A[piv] = A[piv], A[row]
        p = A[row][col]
        for r in range(row + 1, m):
            Ar = A[r]
            factor = Ar[col]
            for c in range(col + 1, n):
                Ar[c] = (Ar[c] * p - factor * A[row][c]) // prev
            Ar[col] = 0
        prev = p
        rank += 1
        row += 1
        if row == m:
            break
    return rank
