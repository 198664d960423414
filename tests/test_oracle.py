"""Steady-state model tests.

Three independent routes keep the lumped chain honest: the brute-force
full-state chain (different state space, different solver path), an exact
rational solve via sympy for one small case, and the frozen values below,
which were produced by a standalone prototype before this module existed
and double-checked against long direct simulations of the policy itself.
"""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fragsim.oracle import (
    ChainParams,
    NonStochasticRowError,
    ParamsTooLargeError,
    _check_stochastic,
    _direct_stationary,
    _lumped_matrix,
    _stationary,
    brute_force_stationary,
    threshold_stationary,
)
from fragsim.workload import InvalidProbabilityError

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


class TestChainParams:
    def test_x_d(self):
        p = ChainParams(5, 0.28, 3)
        assert p.x_d == pytest.approx(0.18)

    def test_validation(self):
        with pytest.raises(InvalidProbabilityError):
            ChainParams(1, 0.5, 0)
        with pytest.raises(InvalidProbabilityError):
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
        with pytest.raises(ParamsTooLargeError):
            brute_force_stationary(ChainParams(5, 0.3, 5))
        with pytest.raises(ParamsTooLargeError):
            brute_force_stationary(ChainParams(7, 0.3, 2))

    def test_non_designated_states_spread_evenly(self):
        # lumpability in the other direction: the full chain puts equal
        # mass on every non-designated site
        result = brute_force_stationary(ChainParams(5, 0.28, 3))
        per_site = result.pi.sum(axis=1)
        assert np.allclose(per_site[1:], per_site[1])


class TestExactRationalSolve:
    def test_n2_t1_against_sympy(self):
        # same chain, solved exactly over the rationals
        x_s = sympy.Rational(7, 10)
        x_d = 1 - x_s
        # states: (d,0) (d,1) (o,0) (o,1)
        P = sympy.Matrix(
            [
                [x_s, x_d, 0, 0],
                [x_s, 0, x_d, 0],
                [0, 0, x_d, x_s],
                [x_s, 0, x_d, 0],
            ]
        )
        pi = sympy.symbols("a b c d", nonnegative=True)
        eqs = list(sympy.Matrix([pi]) * P - sympy.Matrix([pi])) + [sum(pi) - 1]
        sol = sympy.solve(eqs, pi, dict=True)[0]
        exact = sol[pi[0]] + sol[pi[1]]
        got = threshold_stationary(ChainParams(2, 0.7, 1)).o_s
        assert got == pytest.approx(float(exact), abs=1e-12)
        assert float(exact) == pytest.approx(0.8063291139240232, abs=1e-12)


class TestSolverInternals:
    def test_row_check_rejects_bad_matrix(self):
        P = np.array([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(NonStochasticRowError):
            _check_stochastic(P)
        with pytest.raises(NonStochasticRowError):
            _check_stochastic(np.array([[1.5, -0.5], [0.0, 1.0]]))

    def test_power_iteration_and_direct_solve_agree(self):
        P = _lumped_matrix(ChainParams(5, 0.28, 3))
        assert np.allclose(_stationary(P), _direct_stationary(P), atol=1e-9)

    def test_direct_solve_handles_slow_mixing(self):
        # t = 40 at x_s = 0.28 mixes glacially; the bail-out must kick in
        # and still produce a proper distribution
        params = ChainParams(5, 0.28, 40)
        result = threshold_stationary(params)
        assert result.pi.sum() == pytest.approx(1.0)
        assert 0.95 < result.o_s < 1.0

    @given(
        n=st.integers(2, 8),
        x_s=st.floats(0.0, 1.0),
        t=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_stationary_vector_is_a_fixed_point(self, n, x_s, t):
        P = _lumped_matrix(ChainParams(n, x_s, t))
        pi = _stationary(P)
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi >= 0)
        assert np.allclose(pi @ P, pi, atol=1e-8)
