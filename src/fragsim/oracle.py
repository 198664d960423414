"""Analytical steady state of the threshold policy under a two-level workload.

One fragment moves between ``n`` sites: a designated site attracts each
access with probability ``x_s`` and every other site with
``x_d = (1 - x_s) / (n - 1)``. Because the non-designated sites are
exchangeable, the embedded Markov chain over (owner site, counter value)
lumps to ``2 * (t + 1)`` states: owner designated or not, counter
0..t. :func:`threshold_stationary` solves that lumped chain;
:func:`brute_force_stationary` solves the full ``n * (t + 1)``-state
chain without the lumping argument and exists purely as a cross-check.
Both go through the one solver, :func:`_direct_stationary`, a dense float
linear solve, so the brute force is independent in its state space but not
in its arithmetic; the exact rational and closed-form tests are the
checks that are independent in their arithmetic.

The fraction of accesses served at the designated site in steady state is
the total stationary mass of the designated-owner states (state counters
are sampled at access arrival, which is exactly when the simulator counts
residency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LUMPED_MAX_T = 2_000  # the dense solve peaks at about 410 MB RSS at this t


@dataclass(frozen=True)
class ChainParams:
    """Two-level workload chain: ``n`` sites, hot mass ``x_s``, threshold ``t``."""

    n: int
    x_s: float
    t: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least two sites, got n={self.n}")
        if not (0.0 <= self.x_s <= 1.0):
            raise ValueError(f"x_s must lie in [0, 1], got {self.x_s}")
        if self.t < 0:
            raise ValueError(f"threshold must be non-negative, got {self.t}")

    @property
    def x_d(self) -> float:
        return (1.0 - self.x_s) / (self.n - 1)


@dataclass(frozen=True, eq=False)
class StationaryResult:
    o_s: float
    pi: np.ndarray  # stationary distribution, shape (2, t + 1) or (n, t + 1)


def threshold_stationary(params: ChainParams) -> StationaryResult:
    """Solve the lumped (owner-designated?, counter) chain.

    State (d, c): fragment at the designated site, c consecutive remote
    accesses so far. A designated access resets c; a remote access bumps
    it, and past ``t`` the fragment leaves (to the lumped other-state).
    State (o, c): fragment at some non-designated site. Accesses from the
    owner (probability ``x_d``) reset c; the other ``n - 2`` remote
    non-designated sites and the designated site bump it, and past ``t``
    the fragment migrates to that last requester: designated with
    probability proportional to ``x_s``, another non-designated site
    otherwise. The matrix is dense, so ``t`` is capped at ``LUMPED_MAX_T``.
    The stationary vector comes from :func:`_direct_stationary`.
    """
    if params.t > LUMPED_MAX_T:
        raise ValueError(f"the lumped chain is limited to t <= {LUMPED_MAX_T}, got t={params.t}")
    P = _lumped_matrix(params)
    _check_stochastic(P)
    pi = _direct_stationary(P)
    width = params.t + 1
    pi = pi.reshape(2, width)
    # the normalised mass can round a hair above 1; o_s is a probability
    return StationaryResult(o_s=min(float(pi[0].sum()), 1.0), pi=pi)


def brute_force_stationary(params: ChainParams) -> StationaryResult:
    """Solve the full (owner site, counter) chain, no lumping.

    Deliberately independent of :func:`threshold_stationary` in its state
    space: states are enumerated per concrete site. The stationary vector
    comes from the same solver, :func:`_direct_stationary`. Guarded to
    small ``n`` and ``t`` because the point is verification, not scale.
    """
    if params.t > 4 or params.n > 6:
        raise ValueError(f"brute force is limited to t <= 4 and n <= 6, got t={params.t}, n={params.n}")
    n, t = params.n, params.t
    x_s, x_d = params.x_s, params.x_d
    width = t + 1
    size = n * width
    P = np.zeros((size, size))
    prob = [x_s] + [x_d] * (n - 1)  # site 0 is the designated one

    def idx(site: int, c: int) -> int:
        return site * width + c

    for site in range(n):
        for c in range(width):
            row = idx(site, c)
            for requester in range(n):
                p = prob[requester]
                if p == 0.0:
                    continue
                if requester == site:
                    P[row, idx(site, 0)] += p
                elif c + 1 <= t:
                    P[row, idx(site, c + 1)] += p
                else:
                    P[row, idx(requester, 0)] += p
    _check_stochastic(P)
    pi = _direct_stationary(P).reshape(n, width)
    return StationaryResult(o_s=min(float(pi[0].sum()), 1.0), pi=pi)


def _lumped_matrix(params: ChainParams) -> np.ndarray:
    n, t = params.n, params.t
    x_s, x_d = params.x_s, params.x_d
    width = t + 1
    P = np.zeros((2 * width, 2 * width))

    def d(c: int) -> int:
        return c

    def o(c: int) -> int:
        return width + c

    for c in range(width):
        # owner at the designated site
        P[d(c), d(0)] += x_s
        if c + 1 <= t:
            P[d(c), d(c + 1)] += (n - 1) * x_d
        else:
            P[d(c), o(0)] += (n - 1) * x_d
        # owner at a non-designated site
        P[o(c), o(0)] += x_d
        if c + 1 <= t:
            P[o(c), o(c + 1)] += x_s + (n - 2) * x_d
        else:
            P[o(c), d(0)] += x_s
            P[o(c), o(0)] += (n - 2) * x_d
    return P


def _check_stochastic(P: np.ndarray) -> None:
    sums = P.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > 1e-12)[0]
    if bad.size:
        raise RuntimeError(f"transition row {bad[0]} sums to {sums[bad[0]]!r}")
    if np.any(P < 0):
        raise RuntimeError("transition matrix has negative entries")


def _direct_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary vector of ``P`` from one linear solve; ``P`` is left as it is.

    The balance equations (P^T - I) pi = 0 determine pi up to scale when the
    chain has one recurrent class, so the balance equation of state 0 is
    replaced by sum(pi) = 1 and the system becomes nonsingular.
    """
    m = P.shape[0]
    lhs = P.T - np.eye(m)
    lhs[0] = 1.0
    rhs = np.zeros(m)
    rhs[0] = 1.0
    return _normalize(np.linalg.solve(lhs, rhs))


def _normalize(pi: np.ndarray) -> np.ndarray:
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()
