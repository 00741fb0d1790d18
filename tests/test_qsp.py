import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqsp import (
    ConvergenceError,
    InputError,
    Polynomial,
    QspPhases,
    chebyshev_polynomial,
    find_phases,
    qsp,
    realized_value,
)
from conftest import random_parity_target


class TestQspUnitary:
    @given(
        st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=9),
        st.floats(-1.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_sequence_is_unitary(self, phis, x):
        u = qsp._batched_sequence(QspPhases(tuple(phis)).phases, np.array([x]))[0]
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12

    def test_zero_phases_give_chebyshev(self):
        # trivial sequence: U = W^d, whose corner is T_d(x)
        for d in (1, 3, 6, 20):
            phases = QspPhases((0.0,) * (d + 1))
            for x in np.linspace(-1, 1, 50):
                got = realized_value(phases, float(x))
                want = math.cos(d * math.acos(float(x)))
                assert abs(got - want) <= 1e-12

    def test_signal_outside_interval_rejected(self):
        with pytest.raises(InputError, match="outside"):
            realized_value(QspPhases((0.0, 0.0)), 1.5)

    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(4)
        for d in (0, 1, 5, 12):
            phases = QspPhases(tuple(rng.uniform(-math.pi, math.pi, d + 1)))
            xs = np.concatenate((rng.uniform(-1.0, 1.0, 40), [-1.0, 0.0, 1.0]))
            got = realized_value(phases, xs)
            assert got.shape == xs.shape
            assert got.tolist() == [realized_value(phases, float(x)) for x in xs]

    def test_array_with_one_outside_entry_rejected(self):
        with pytest.raises(InputError, match="outside"):
            realized_value(QspPhases((0.0, 0.0)), np.array([0.2, -1.0, 1.5, 0.3]))

    def test_degree_counts_signal_slots(self):
        assert QspPhases((0.1, 0.2, 0.3)).degree == 2


class TestQspPhasesContainer:
    def test_fold_identifies_2pi_shifts(self):
        a = QspPhases((0.3, -0.2))
        b = QspPhases((0.3 + 2 * math.pi, -0.2 - 4 * math.pi))
        assert a.phases == pytest.approx(b.phases, abs=1e-12)
        for x in (-0.7, 0.0, 0.4):
            assert realized_value(a, x) == pytest.approx(realized_value(b, x), abs=1e-12)

    def test_unknown_convention_rejected(self):
        for convention in ("zx_00", "wx_00"):
            with pytest.raises(InputError, match="convention"):
                QspPhases((0.0,), convention=convention)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            QspPhases(())

    def test_dict_round_trip(self):
        a = QspPhases((0.5, 1.5, -0.5), convention="wx_pp")
        b = QspPhases.from_dict(a.to_dict())
        assert b == a


class TestFindPhases:
    def test_identity_is_exact(self):
        phases = find_phases(Polynomial([0, 1]))
        assert phases.to_dict()["convention"] == "wx_pp"
        for x in np.linspace(-1, 1, 25):
            assert abs(realized_value(phases, float(x)) - x) <= 1e-10

    def test_t6_within_tolerance(self):
        t6 = chebyshev_polynomial(6)
        phases = find_phases(t6, tol=1e-5)
        xs = np.cos(np.linspace(0.05, math.pi - 0.05, 37))
        worst = max(abs(realized_value(phases, float(x)) - t6(float(x))) for x in xs)
        assert worst <= 1e-4

    def test_scaled_even_target(self):
        target = 0.9 * chebyshev_polynomial(4)
        phases = find_phases(target)
        for x in (-0.8, -0.3, 0.0, 0.5, 0.95):
            assert abs(realized_value(phases, x) - target(x)) <= 1e-4

    def test_overscaled_target_rejected(self):
        with pytest.raises(InputError, match="rescale"):
            find_phases(Polynomial([0, 1.2]))

    def test_indefinite_parity_rejected(self):
        with pytest.raises(InputError, match="parity"):
            find_phases(Polynomial([0, 0.5, 0.4]))

    def test_complex_target_rejected(self):
        with pytest.raises(InputError, match="real"):
            find_phases(Polynomial([0, 0.5 + 0.2j]))

    def test_degree_cap(self):
        with pytest.raises(InputError, match="degree cap"):
            find_phases(chebyshev_polynomial(42))

    def test_one_deterministic_solve_bit_for_bit(self, monkeypatch):
        solve, calls = qsp.least_squares, []

        def counted(target):
            calls.append(target)
            return solve(target)

        monkeypatch.setattr(qsp, "least_squares", counted)
        target = 0.9 * chebyshev_polynomial(24)
        first = find_phases(target)
        find_phases(0.6 * chebyshev_polynomial(24) - 0.3 * chebyshev_polynomial(2))
        again = find_phases(target)
        assert first == again
        assert len(calls) == 3

    @pytest.mark.parametrize("target", [
        pytest.param(0.9 * chebyshev_polynomial(36), id="0.9T36"),
        pytest.param(0.99 * chebyshev_polynomial(40), id="0.99T40"),
        pytest.param(Polynomial([0, 1]), id="x"),
        pytest.param(chebyshev_polynomial(6), id="T6"),
    ])
    def test_accurate_on_chebyshev_targets(self, target):
        assert _dense_error(target) <= 1e-10

    @pytest.mark.parametrize("norm", [1.0, 1.0 - 2e-6, 0.9])
    def test_accurate_on_random_targets(self, norm):
        rng = np.random.default_rng(9)
        worst = 0.0
        for d in range(1, 41):
            worst = max(worst, _dense_error(norm * random_parity_target(rng, d)))
        assert worst <= 1e-10

    def test_tolerance_below_round_off_is_a_typed_failure(self):
        with pytest.raises(ConvergenceError) as info:
            find_phases(0.9 * chebyshev_polynomial(6), tol=1e-18)
        assert 0.0 < info.value.best_residual < 1e-12


def _dense_error(target: Polynomial) -> float:
    """Largest |Re<+|U|+> - target| over 401 even points of [-1, 1]."""
    xs = np.linspace(-1.0, 1.0, 401)
    u = qsp._batched_sequence(find_phases(target, tol=1e-10).phases, xs)
    return float(np.max(np.abs(0.5 * u.sum(axis=(1, 2)).real - target(xs).real)))


class TestChebyshevBlockValue:
    """A Chebyshev series at a spectral value: the zero-phase block carries T_d."""

    def test_linear(self):
        assert Polynomial.from_cheb((0.0, 1.0))(0.4) == pytest.approx(0.4)
        assert realized_value(QspPhases((0.0, 0.0)), 0.4) == pytest.approx(0.4)

    def test_quadratic(self):
        # T_2(0.5) = -0.5
        assert Polynomial.from_cheb((0.0, 0.0, 1.0))(0.5) == pytest.approx(-0.5)
        assert realized_value(QspPhases((0.0,) * 3), 0.5) == pytest.approx(-0.5)

    def test_affine_combination_vanishes(self):
        series = Polynomial.from_cheb((0.5, 0.5))  # (1 + x) / 2
        assert series(-1.0) == pytest.approx(0.0, abs=1e-12)
