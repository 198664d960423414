"""Steady-state model tests.

Four independent routes keep the lumped chain honest: the brute-force
full-state chain (different state space, same solver), an exact
Gauss-Jordan solve in ``Fraction`` for one small case, the renewal
closed form evaluated in ``Fraction`` from the exact float inputs, and
the frozen values below, which were produced by a standalone prototype
before this module existed and double-checked against long direct
simulations of the policy itself.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragsim.oracle import (
    LUMPED_MAX_T,
    ChainParams,
    _check_stochastic,
    _direct_stationary,
    _lumped_matrix,
    brute_force_stationary,
    threshold_stationary,
)

# (n, x_s, t) -> o_s, frozen from an independent implementation
FROZEN = {
    (5, 0.28, 1): 0.2950627615062767,
    (5, 0.28, 3): 0.33016983845077985,
    (5, 0.28, 5): 0.3720016779128558,
    (5, 0.28, 10): 0.5016228130646648,
    (5, 0.28, 20): 0.7737084894357088,
    (5, 0.28, 30): 0.9253521907583704,
    (5, 0.12, 30): 0.006535988367716144,
}


def closed_form_os(n, x_s, t):
    """Renewal closed form of o_s, exact in rationals.

    With k = t + 1, E(p) = (1 - p^k) / ((1 - p) p^k) is the expected number
    of accesses until k remote accesses in a row at remote probability p.
    A sojourn at the designated site lasts E_d = E(1 - x_s) accesses, the
    time away from it E_o = E(1 - x_d) (1 - x_d) / x_s.
    """
    x = Fraction(x_s)
    q = 1 - (1 - x) / (n - 1)
    k = t + 1

    def expected_run(p):
        return (1 - p**k) / ((1 - p) * p**k)

    e_d = expected_run(1 - x)
    e_o = expected_run(q) * q / x
    return e_d / (e_d + e_o)


def exact_stationary(P):
    """Stationary distribution of the stochastic matrix ``P``, exact in ``Fraction``.

    Solves ``pi P = pi`` with ``sum(pi) == 1``, which replaces the last
    balance equation, by Gauss-Jordan elimination.
    """
    k = len(P)
    rows = [[Fraction(P[i][j]) - (i == j) for i in range(k)] + [Fraction(0)] for j in range(k - 1)]
    rows.append([Fraction(1)] * (k + 1))
    for c in range(k):
        pivot = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(k):
            factor = rows[r][c]
            if r != c and factor != 0:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return [row[-1] for row in rows]


class TestChainParams:
    def test_x_d(self):
        p = ChainParams(5, 0.28, 3)
        assert p.x_d == pytest.approx(0.18)

    def test_validation(self):
        with pytest.raises(ValueError, match="need at least two sites, got n=1"):
            ChainParams(1, 0.5, 0)
        with pytest.raises(ValueError, match=r"x_s must lie in \[0, 1\], got 1.2"):
            ChainParams(5, 1.2, 0)
        with pytest.raises(ValueError):
            ChainParams(5, 0.5, -1)


class TestKnownPoints:
    def test_frozen_values(self):
        for (n, x_s, t), expected in FROZEN.items():
            got = threshold_stationary(ChainParams(n, x_s, t)).o_s
            assert got == pytest.approx(expected, abs=1e-9), (n, x_s, t)

    def test_t_zero_is_the_access_probability(self):
        # with t = 0 the fragment sits wherever the last access came from
        for n in (2, 3, 5, 8):
            for x_s in (0.0, 0.1, 0.28, 0.5, 0.9, 1.0):
                result = threshold_stationary(ChainParams(n, x_s, 0))
                assert result.o_s == pytest.approx(x_s, abs=1e-10)

    def test_uniform_workload_is_threshold_invariant(self):
        for n in (2, 3, 5, 8):
            for t in range(0, 13):
                result = threshold_stationary(ChainParams(n, 1.0 / n, t))
                assert result.o_s == pytest.approx(1.0 / n, abs=1e-10)

    def test_all_mass_on_designated(self):
        for t in (0, 2, 7):
            assert threshold_stationary(ChainParams(3, 1.0, t)).o_s == pytest.approx(1.0)

    def test_stationary_distribution_shape_and_mass(self):
        result = threshold_stationary(ChainParams(5, 0.28, 3))
        assert result.pi.shape == (2, 4)
        assert result.pi.sum() == pytest.approx(1.0)
        assert np.all(result.pi >= 0)

    @pytest.mark.parametrize("n, x_s, t", [(2, 0.7, 36), (7, 0.5674677931506273, 60)])
    def test_rounding_does_not_push_os_above_one(self, n, x_s, t):
        # the designated mass of cells like these can round to 1.0000000000000002
        assert threshold_stationary(ChainParams(n, x_s, t)).o_s <= 1.0

    @given(n=st.integers(2, 9), x_s=st.floats(0.0, 1.0), t=st.integers(0, 60))
    @settings(max_examples=200)
    def test_os_is_a_probability(self, n, x_s, t):
        assert 0.0 <= threshold_stationary(ChainParams(n, x_s, t)).o_s <= 1.0


class TestMonotonicity:
    def test_os_increases_with_t_when_hot_site_dominates(self):
        for x_s in (0.24, 0.28, 0.4):
            values = [threshold_stationary(ChainParams(5, x_s, t)).o_s for t in range(0, 51)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_os_decreases_with_t_when_hot_site_is_cold(self):
        for x_s in (0.12, 0.16):
            values = [threshold_stationary(ChainParams(5, x_s, t)).o_s for t in range(0, 51)]
            assert all(b < a for a, b in zip(values, values[1:]))


class TestAgainstBruteForce:
    def test_lumped_equals_full_chain_on_a_grid(self):
        for n in range(2, 7):
            for t in range(0, 5):
                for x_s in np.linspace(0.0, 1.0, 11):
                    params = ChainParams(n, float(x_s), t)
                    lumped = threshold_stationary(params).o_s
                    full = brute_force_stationary(params).o_s
                    assert lumped == pytest.approx(full, abs=1e-9), (n, t, x_s)

    def test_brute_force_guards(self):
        with pytest.raises(ValueError, match="brute force is limited to t <= 4 and n <= 6, got t=5, n=5"):
            brute_force_stationary(ChainParams(5, 0.3, 5))
        with pytest.raises(ValueError, match="brute force is limited to t <= 4 and n <= 6, got t=2, n=7"):
            brute_force_stationary(ChainParams(7, 0.3, 2))

    def test_lumped_chain_guard(self):
        # the lumped matrix is dense: refuse before allocating (t + 1)**2 floats
        with pytest.raises(ValueError, match="the lumped chain is limited to t <= 2000, got t=2001"):
            threshold_stationary(ChainParams(3, 0.2, LUMPED_MAX_T + 1))
        with pytest.raises(ValueError, match="the lumped chain is limited to t <= 2000, got t=100000"):
            threshold_stationary(ChainParams(3, 0.2, 100_000))

    def test_brute_force_os_is_at_most_one(self):
        # unclipped, the designated mass of this cell rounds to 1.0000000000000002
        assert brute_force_stationary(ChainParams(3, 0.999757088148279, 4)).o_s <= 1.0

    def test_non_designated_states_spread_evenly(self):
        # lumpability in the other direction: the full chain puts equal
        # mass on every non-designated site
        result = brute_force_stationary(ChainParams(5, 0.28, 3))
        per_site = result.pi.sum(axis=1)
        assert np.allclose(per_site[1:], per_site[1])


class TestExactRationalSolve:
    def test_n2_t1_against_sympy(self):
        # same chain, solved exactly over the rationals
        x_s = Fraction(7, 10)
        x_d = 1 - x_s
        # states: (d,0) (d,1) (o,0) (o,1)
        P = [
            [x_s, x_d, 0, 0],
            [x_s, 0, x_d, 0],
            [0, 0, x_d, x_s],
            [x_s, 0, x_d, 0],
        ]
        pi = exact_stationary(P)
        exact = pi[0] + pi[1]
        got = threshold_stationary(ChainParams(2, 0.7, 1)).o_s
        assert got == pytest.approx(float(exact), abs=1e-12)
        assert float(exact) == pytest.approx(0.8063291139240232, abs=1e-12)
        # the closed form gives the same rational, and a slightly different
        # value from the float 0.7, which is not exactly 7/10
        form = closed_form_os(2, Fraction(7, 10), 1)
        assert form == exact
        assert float(closed_form_os(2, 0.7, 1)) == 0.8063291139240506

    @pytest.mark.parametrize(
        "n, x_s, t",
        [(5, 0.28, 60), (5, 0.28, 100), (5, 0.28, 200), (5, 0.12, 100), (3, 0.2, 100), (2, 0.4, 28)],
    )
    def test_slowly_mixing_cells_against_the_closed_form(self, n, x_s, t):
        got = threshold_stationary(ChainParams(n, x_s, t)).o_s
        assert got == pytest.approx(float(closed_form_os(n, x_s, t)), abs=1e-9)


class TestSolverInternals:
    def test_row_check_rejects_bad_matrix(self):
        P = np.array([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(RuntimeError, match="transition row 0 sums to"):
            _check_stochastic(P)
        with pytest.raises(RuntimeError, match="transition matrix has negative entries"):
            _check_stochastic(np.array([[1.5, -0.5], [0.0, 1.0]]))

    def test_direct_solve_handles_slow_mixing(self):
        # t = 40 at x_s = 0.28 mixes glacially
        params = ChainParams(5, 0.28, 40)
        result = threshold_stationary(params)
        assert result.pi.sum() == pytest.approx(1.0)
        assert 0.95 < result.o_s < 1.0

    @given(
        n=st.integers(2, 8),
        x_s=st.floats(0.0, 1.0),
        t=st.integers(0, 12),
    )
    @settings(max_examples=60)
    def test_stationary_vector_is_a_fixed_point(self, n, x_s, t):
        P = _lumped_matrix(ChainParams(n, x_s, t))
        before = P.copy()
        pi = _direct_stationary(P)
        assert np.array_equal(P, before)
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi >= 0)
        assert np.allclose(pi @ P, pi, atol=1e-8)
