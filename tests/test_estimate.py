import math

import numpy as np
import pytest

from pqsp import (
    ConvergenceError,
    CostModel,
    DensityMatrix,
    EstimationReport,
    InputError,
    NotNonNegativeError,
    Polynomial,
    ShotSampler,
    chebyshev_polynomial,
    estimate_chebyshev,
    estimate_direct,
    importance_sample,
    monomial_poly_trace,
    partition_function,
    predict_cost,
    renyi_integer,
    renyi_noninteger,
    von_neumann,
)

S6_EXACT = math.log(0.75 ** 6 + 0.25 ** 6) / (1 - 6)  # 0.3449443265153814
VN_EXACT = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
PARTITION_BETA1 = math.exp(-0.75) + math.exp(-0.25)


class TestPredictCost:
    def test_direct_route_frozen(self):
        assert predict_cost(CostModel(epsilon=0.1, K=1.0), "theorem3") == 100

    def test_one_norm_route_frozen(self):
        n = predict_cost(CostModel(epsilon=0.05, one_norm=math.e), "theorem8")
        assert n == 2956

    def test_partition_route_frozen(self):
        n = predict_cost(CostModel(epsilon=1e-3, beta=1.0), "theorem9")
        assert n == math.ceil(math.exp(2.0) / 1e-6)

    def test_renyi_route(self):
        n = predict_cost(CostModel(epsilon=0.05, s_alpha=0.5, alpha=2.0), "theorem7")
        assert n == 400  # 1 / (0.25 * 4 * 0.0025)

    def test_hybrid_route_monotone_in_k(self):
        base = dict(epsilon=0.05, norm_low=2.0, norm_high=10.0, d=20)
        costs = [
            predict_cost(CostModel(k=k, **base), "theorem5") for k in (2, 3, 4)
        ]
        assert costs == sorted(costs)  # (1+sqrt 2)^{4k} dominates k^2

    def test_missing_field_rejected(self):
        with pytest.raises(InputError, match="norm_high"):
            predict_cost(CostModel(epsilon=0.05, norm_low=1.0, d=10, k=2), "theorem5")

    def test_unknown_route(self):
        with pytest.raises(InputError, match="route"):
            predict_cost(CostModel(epsilon=0.1), "theorem99")

    def test_bad_epsilon(self):
        with pytest.raises(InputError, match="epsilon"):
            predict_cost(CostModel(epsilon=0.0, K=1.0), "theorem3")

    def test_floor_of_one(self):
        assert predict_cost(CostModel(epsilon=100.0, K=0.01), "theorem3") == 1


class TestImportanceSample:
    def test_constant_terms_pool_exactly(self):
        est = importance_sample(
            [0.5, 0.5],
            [lambda n, s: np.ones(n), lambda n, s: np.ones(n)],
            200,
            seed=1,
        )
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_signed_combination_unbiased(self):
        def const(v):
            return lambda n, s: np.full(n, v)

        vals = []
        for rep in range(200):
            est = importance_sample(
                [0.8, -0.4], [const(1.0), const(0.25)], 500, sampler=ShotSampler(rep)
            )
            vals.append(est.value)
        mean = float(np.mean(vals))
        sem = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert abs(mean - 0.7) <= 5 * max(sem, 1e-6)

    def test_zero_coefficients_rejected(self):
        with pytest.raises(InputError, match="all-zero"):
            importance_sample([0.0], [lambda n, s: np.ones(n)], 10)

    def test_estimator_count_mismatch(self):
        with pytest.raises(InputError, match="estimator"):
            importance_sample([1.0, 2.0], [lambda n, s: np.ones(n)], 10)

    def test_bad_shape_rejected(self):
        with pytest.raises(InputError, match="expected"):
            importance_sample([1.0], [lambda n, s: np.ones(n + 1)], 16, seed=0)

    def test_nonpositive_shots_rejected(self):
        with pytest.raises(InputError, match="positive"):
            importance_sample([1.0], [lambda n, s: np.ones(n)], 0)


class TestEstimateDirect:
    def test_pure_power(self, rho_34):
        rep = estimate_direct(Polynomial([0, 0, 0, 0, 1]), rho_34, 2)
        assert rep.value == pytest.approx(0.3203125, abs=1e-12)
        assert rep.query_depth == 1
        assert rep.width == 2
        assert rep.breakdown["K"] == pytest.approx(1.0, abs=1e-9)

    def test_value_matches_spectral(self, rho_34):
        # (x^2)(x^2+1)^2 / 4: low part empty, non-negative high part
        p = Polynomial([0, 0, 0.25, 0, 0.5, 0, 0.25])
        rep = estimate_direct(p, rho_34, 2)
        want = sum(float(np.real(p(lam))) for lam in (0.75, 0.25))
        assert rep.value == pytest.approx(want, abs=1e-10)
        assert rep.breakdown["w_low"] == 0.0

    def test_split_branches_sum(self, rho_34):
        # k = 3 leaves the high part the bare constant 1.2
        p = Polynomial([0, -0.4, 0, 1.2])  # 1.2 x^3 - 0.4 x
        rep = estimate_direct(p, rho_34, 3)
        assert rep.value == pytest.approx(0.125, abs=1e-10)
        assert rep.breakdown["w_low"] + rep.breakdown["w_high"] == pytest.approx(
            rep.value, abs=1e-12
        )

    def test_negative_high_part_redirects(self, rho_34):
        p = Polynomial([0, 0, -0.25, 0, 0.5])  # high part x^2 - 0.5 at k=2
        with pytest.raises(NotNonNegativeError, match="estimate_chebyshev"):
            estimate_direct(p, rho_34, 2)

    def test_odd_high_part_redirects(self, rho_34):
        with pytest.raises(NotNonNegativeError, match="odd"):
            estimate_direct(Polynomial([0, 0, 0, 1]), rho_34, 2)

    def test_norm_cap(self, rho_34):
        with pytest.raises(InputError, match="rescale"):
            estimate_direct(Polynomial([0, 0, 2]), rho_34, 1)

    def test_bad_thread_count(self, rho_34):
        with pytest.raises(InputError, match="thread count"):
            estimate_direct(Polynomial([0, 0, 1]), rho_34, 0)

    def test_sampled_needs_integer_shots(self, rho_34):
        with pytest.raises(InputError, match="integer shot"):
            estimate_direct(Polynomial([0, 0, 0, 0, 1]), rho_34, 2, mode="sampled")

    def test_sampled_within_error_bars(self, rho_34):
        p = Polynomial([0.25 / 2.25, -1 / 2.25, 1 / 2.25])
        exact = estimate_direct(p, rho_34, 2).value
        rep = estimate_direct(p, rho_34, 2, shots=40000, mode="sampled", seed=3)
        assert rep.shots_used == 40000
        assert abs(rep.value - exact) <= 5 * rep.std_error

    def test_sampled_deterministic_by_seed(self, rho_34):
        p = Polynomial([0, 0, 0, 0, 1])
        a = estimate_direct(p, rho_34, 2, shots=5000, mode="sampled", seed=12)
        b = estimate_direct(p, rho_34, 2, shots=5000, mode="sampled", seed=12)
        assert a.value == b.value and a.std_error == b.std_error


class TestEstimateChebyshev:
    def test_t6_exact_value(self, rho_34):
        rep = estimate_chebyshev(chebyshev_polynomial(6), rho_34, 2)
        t6 = chebyshev_polynomial(6)
        want = float(np.real(t6(0.75) + t6(0.25)))
        assert want == pytest.approx(-0.421875, abs=1e-12)
        assert rep.value == pytest.approx(want, abs=1e-10)
        even = rep.breakdown["even"]
        assert even["w_low"] == pytest.approx(-2.0, abs=1e-10)
        assert even["w_high"] == pytest.approx(1.578125, abs=1e-10)

    def test_low_degree_runs_sequentially(self, rho_34):
        rep = estimate_chebyshev(Polynomial([0, 1]), rho_34, 1)
        assert rep.value == pytest.approx(1.0, abs=1e-10)
        assert rep.breakdown["odd"]["sequential"] is True
        assert rep.query_depth == 1

    def test_indefinite_target_splits_by_parity(self, rho_34):
        p = Polynomial([0, 0.5, 0.5])
        rep = estimate_chebyshev(p, rho_34, 3)
        want = 0.5 * (1.0 + 0.625)
        assert rep.value == pytest.approx(want, abs=1e-10)
        assert set(rep.breakdown) >= {"even", "odd"}

    def test_indefinite_depth_formulas_reported(self, rho_34):
        p = Polynomial([0, 0, 0, 0, 0.5, 0.5])
        rep = estimate_chebyshev(p, rho_34, 2)
        want = 0.5 * (0.75 ** 4 + 0.25 ** 4) + 0.5 * (0.75 ** 5 + 0.25 ** 5)
        assert rep.value == pytest.approx(want, abs=1e-10)
        assert rep.query_depth == rep.breakdown["proof_depth"] == 2
        assert rep.breakdown["statement_depth"] == 1
        assert rep.breakdown["depth_formula_discrepancy"] is True
        assert rep.width == 2

    def test_definite_parity_depth_formula(self, rho_34):
        # even target, k matched to 2: depth (d - k)/(2k) + k - 1
        rep = estimate_chebyshev(chebyshev_polynomial(8), rho_34, 2)
        assert rep.query_depth == (8 - 2) // 4 + 1
        assert rep.value == pytest.approx(
            float(np.real(chebyshev_polynomial(8)(0.75) + chebyshev_polynomial(8)(0.25))),
            abs=1e-10,
        )

    def test_sampled_t6(self, rho_34):
        rep = estimate_chebyshev(
            chebyshev_polynomial(6), rho_34, 2, shots=200000, mode="sampled", seed=5
        )
        assert abs(rep.value - (-0.421875)) <= 5 * rep.std_error
        assert rep.shots_used == 200000

    def test_norm_cap(self, rho_34):
        with pytest.raises(InputError, match="rescale"):
            estimate_chebyshev(Polynomial([0, 0, 2]), rho_34, 2)


class TestRenyiInteger:
    def test_order_six(self, rho_34):
        rep = renyi_integer(rho_34, 6, 2)
        assert rep.value == pytest.approx(S6_EXACT, abs=1e-12)
        assert rep.query_depth == 2
        assert rep.width == 2
        assert rep.breakdown["params"] == {"alpha": 6.0}

    def test_pure_state_second_order(self):
        rep = renyi_integer(DensityMatrix.pure(2), 2, 1)
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_odd_order_adds_bare_register(self, rho_34):
        rep = renyi_integer(rho_34, 7, 2)
        assert rep.query_depth == 2
        assert rep.width == 3
        want = math.log(0.75 ** 7 + 0.25 ** 7) / (1 - 7)
        assert rep.value == pytest.approx(want, abs=1e-12)

    def test_alpha_at_most_k_goes_sequential(self, rho_34):
        rep = renyi_integer(rho_34, 2, 3)
        assert "sequential" in rep.breakdown["notice"]
        assert rep.query_depth == 1
        assert rep.value == pytest.approx(-math.log(0.625), abs=1e-10)

    def test_invalid_alpha(self, rho_34):
        with pytest.raises(InputError, match="alpha"):
            renyi_integer(rho_34, 1, 2)
        with pytest.raises(InputError, match="alpha"):
            renyi_integer(rho_34, 2.5, 2)

    def test_sampled_auto_budget(self, rho_34):
        rep = renyi_integer(rho_34, 6, 2, mode="sampled", seed=8)
        assert rep.shots_used > 1000  # pilot plus main run
        assert "auto_shots" in rep.breakdown
        assert abs(rep.value - S6_EXACT) <= 5 * rep.std_error

    def test_error_propagation_is_first_order(self, rho_34):
        rep = renyi_integer(rho_34, 6, 2, mode="sampled", shots=20000, seed=9)
        s = rep.breakdown["s_alpha"]
        sigma = rep.std_error * s * 5  # invert the reported propagation
        jump = abs(math.log(s + sigma) - math.log(s)) / 5
        assert jump == pytest.approx(rep.std_error, rel=0.05)


class TestMonomialPolyTrace:
    def test_constant_plus_linear(self, rho_34):
        rep = monomial_poly_trace(Polynomial([1.0, 1.0]), rho_34, 1)
        assert rep.value == pytest.approx(3.0, abs=1e-12)
        assert rep.breakdown["constant_term"] == pytest.approx(2.0)

    def test_quadratic(self, rho_34):
        rep = monomial_poly_trace(Polynomial([0, 0, 1.0]), rho_34, 1)
        assert rep.value == pytest.approx(0.625, abs=1e-12)

    def test_exponential_series(self, rho_34):
        coeffs = [(-1.0) ** n / math.factorial(n) for n in range(9)]
        rep = monomial_poly_trace(Polynomial(coeffs), rho_34, 2)
        assert rep.value == pytest.approx(PARTITION_BETA1, abs=2e-5)

    def test_large_one_norm_warns(self, rho_34):
        with pytest.warns(UserWarning, match="1-norm"):
            monomial_poly_trace(Polynomial([0, 2e6]), rho_34, 1)

    def test_complex_coefficients_rejected(self, rho_34):
        with pytest.raises(InputError, match="real"):
            monomial_poly_trace(Polynomial([0, 1j]), rho_34, 1)

    def test_sampled_within_error_bars(self, rho_34):
        rep = monomial_poly_trace(
            Polynomial([0.2, 0.5, 0.3]), rho_34, 2, shots=50000, mode="sampled", seed=2
        )
        want = 0.2 * 2 + 0.5 * 1.0 + 0.3 * 0.625
        assert abs(rep.value - want) <= 5 * rep.std_error


class TestPartitionFunction:
    def test_zero_temperature_is_dimension(self, rho_34):
        rep = partition_function(rho_34, 0.0, 1)
        assert rep.value == pytest.approx(2.0, abs=1e-12)
        assert rep.breakdown["series_degree"] == 0

    def test_beta_one(self, rho_34):
        rep = partition_function(rho_34, 1.0, 2)
        assert rep.value == pytest.approx(PARTITION_BETA1, abs=1e-3)
        assert rep.breakdown["remainder_bound"] <= 1e-3 / (2 * 2)
        assert rep.breakdown["one_norm"] <= rep.breakdown["one_norm_certificate"]
        assert rep.breakdown["params"] == {"beta": 1.0}

    def test_negative_beta_rejected(self, rho_34):
        with pytest.raises(InputError, match="non-negative"):
            partition_function(rho_34, -1.0, 1)

    def test_huge_beta_fails_certification(self, rho_34):
        with pytest.raises(ConvergenceError, match="400"):
            partition_function(rho_34, 500.0, 2)


class TestRenyiNonInteger:
    def test_half_order(self, rho_34):
        want = math.log(math.sqrt(0.75) + math.sqrt(0.25)) / 0.5
        rep = renyi_noninteger(rho_34, 0.5, 2, epsilon=0.05)
        assert abs(rep.value - want) <= 0.05
        assert rep.breakdown["approximant_error"] <= rep.breakdown["eps_prime"]
        assert rep.breakdown["params"] == pytest.approx(
            {"alpha": 0.5, "delta": 0.25, "s_alpha": rep.breakdown["s_alpha"]}, abs=1e-12
        )

    def test_pure_state_vanishes(self):
        rep = renyi_noninteger(DensityMatrix.pure(2), 2.5, 2, epsilon=0.05)
        assert abs(rep.value) <= 0.05

    def test_integer_alpha_redirects(self, rho_34):
        with pytest.raises(InputError, match="renyi_integer"):
            renyi_noninteger(rho_34, 3.0, 2)

    def test_bad_delta(self, rho_34):
        with pytest.raises(InputError, match="delta"):
            renyi_noninteger(rho_34, 0.5, 2, delta=1.0)

    def test_rank_route(self, rho_34):
        rep = renyi_noninteger(rho_34, 0.5, 2, rank=2)
        assert rep.breakdown["delta_route"] == "rank"
        assert rep.breakdown["params"] == pytest.approx(
            {"alpha": 0.5, "delta": 0.5, "rank": 2, "s_alpha": rep.breakdown["s_alpha"]},
            abs=1e-12,
        )


class TestVonNeumann:
    def test_diagonal_state(self, rho_34):
        rep = von_neumann(rho_34, 2, epsilon=0.05)
        assert abs(rep.value - VN_EXACT) <= 0.05
        assert rep.breakdown["approximant_error"] <= rep.breakdown["eps_prime"]
        assert rep.breakdown["params"] == pytest.approx({"delta": 0.25}, abs=1e-12)

    def test_maximally_mixed(self):
        rep = von_neumann(DensityMatrix.maximally_mixed(2), 2, epsilon=0.05)
        assert abs(rep.value - math.log(2.0)) <= 0.05

    def test_pure_state(self):
        rep = von_neumann(DensityMatrix.pure(2), 2, epsilon=0.05)
        assert abs(rep.value) <= 0.05

    def test_bad_thread_count(self, rho_34):
        with pytest.raises(InputError, match="thread count"):
            von_neumann(rho_34, 0)


class TestReportPlumbing:
    def test_round_trip(self, rho_34):
        rep = estimate_chebyshev(chebyshev_polynomial(6), rho_34, 2)
        again = EstimationReport.from_dict(rep.to_dict())
        assert again.value == rep.value
        assert again.query_depth == rep.query_depth

    def test_breakdown_is_jsonable(self, rho_34):
        import json

        rep = renyi_integer(rho_34, 6, 2)
        text = json.dumps(rep.to_dict())
        assert "s_alpha" in text


class TestSamplingStatistics:
    def test_stderr_ratio_tracks_shot_growth(self, rho_34):
        t6 = chebyshev_polynomial(6)

        def avg_stderr(shots):
            errs = [
                estimate_chebyshev(
                    t6, rho_34, 2, shots=shots, mode="sampled", seed=3000 + rep
                ).std_error
                for rep in range(12)
            ]
            return float(np.mean(errs))

        ratio = avg_stderr(10 ** 3) / avg_stderr(10 ** 5)
        assert 7.0 <= ratio <= 14.0

    def test_sampled_chebyshev_unbiased(self, rho_34):
        t6 = chebyshev_polynomial(6)
        vals = [
            estimate_chebyshev(
                t6, rho_34, 2, shots=10 ** 4, mode="sampled", seed=4000 + rep
            ).value
            for rep in range(300)
        ]
        mean = float(np.mean(vals))
        sem = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert abs(mean - (-0.421875)) <= 5 * sem
