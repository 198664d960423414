"""Exact rational reference for the threshold oracle, and the oracle_grid cells.

The renewal-reward closed form gives the steady-state residency o_s of the
threshold policy under the two-level workload: with r = 1 - x_s,
q = 1 - x_d and k = t + 1, the expected number of accesses until k remote
accesses in a row at remote probability p is
E(p) = (1 - p^k) / ((1 - p) p^k), a sojourn at the designated site lasts
E_d = E(r) accesses, and the time away from it is E_o = E(q) q / x_s.
Then o_s = E_d / (E_d + E_o).

Everything here is evaluated in ``fractions.Fraction`` from the exact value
of the float inputs, so it carries no rounding at all. ``lumped_chain_os``
solves the same lumped chain by rational Gaussian elimination; the
benchmark checks the two against each other on ``CHECK_CELLS`` before it
trusts the closed form.
"""

from __future__ import annotations

import random
from fractions import Fraction

GRID_N = (2, 3, 5, 9)
GRID_XS = tuple(round(0.05 * k, 2) for k in range(1, 20))
GRID_T = tuple(range(40))

# Slowly mixing cells where the float chain solver is least accurate, plus
# a few small ones.
CHECK_CELLS = ((2, 0.45, 39), (2, 0.55, 38), (5, 0.28, 30), (2, 0.05, 0), (3, 0.5, 2), (9, 0.95, 5), (5, 0.1, 3))


def grid_cells(seed: int) -> list:
    """All (n, x_s, t) cells of the grid, in an order drawn from ``seed``."""
    cells = [(n, x_s, t) for n in GRID_N for x_s in GRID_XS for t in GRID_T]
    random.Random(seed).shuffle(cells)
    return cells


def closed_form_os(n: int, x_s: float, t: int) -> Fraction:
    x = Fraction(x_s)
    x_d = (1 - x) / (n - 1)
    k = t + 1

    def expected_run(p: Fraction) -> Fraction:
        pk = p**k
        return (1 - pk) / ((1 - p) * pk)

    q = 1 - x_d
    e_d = expected_run(1 - x)
    e_o = expected_run(q) * q / x
    return e_d / (e_d + e_o)


def lumped_chain_os(n: int, x_s: float, t: int) -> Fraction:
    """Stationary designated-owner mass of the lumped chain, solved exactly.

    States 0..t are (designated owner, counter c), states t+1..2t+1 are
    (other owner, counter c), with the transitions of the threshold policy.
    """
    x = Fraction(x_s)
    x_d = (1 - x) / (n - 1)
    w = t + 1
    m = 2 * w
    P = [[Fraction(0)] * m for _ in range(m)]
    for c in range(w):
        P[c][0] += x
        P[w + c][w] += x_d
        if c < t:
            P[c][c + 1] += (n - 1) * x_d
            P[w + c][w + c + 1] += x + (n - 2) * x_d
        else:
            P[c][w] += (n - 1) * x_d
            P[w + c][0] += x
            P[w + c][w] += (n - 2) * x_d
    # pi (P - I) = 0 with sum(pi) = 1: transpose, replace the last equation.
    A = [[P[j][i] - (1 if i == j else 0) for j in range(m)] for i in range(m)]
    A[-1] = [Fraction(1)] * m
    b = [Fraction(0)] * (m - 1) + [Fraction(1)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if A[r][col] != 0)
        A[col], A[pivot] = A[pivot], A[col]
        b[col], b[pivot] = b[pivot], b[col]
        prow = A[col]
        for r in range(col + 1, m):
            if A[r][col]:
                f = A[r][col] / prow[col]
                row = A[r]
                for j in range(col, m):
                    if prow[j]:
                        row[j] -= f * prow[j]
                b[r] -= f * b[col]
    pi = [Fraction(0)] * m
    for i in range(m - 1, -1, -1):
        s = b[i] - sum(A[i][j] * pi[j] for j in range(i + 1, m) if A[i][j])
        pi[i] = s / A[i][i]
    return sum(pi[:w])
