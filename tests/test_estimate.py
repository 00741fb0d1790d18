import json
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from conftest import dense_sup_norm, random_parity_target
from pqsp import estimate, poly, sim
from pqsp import (
    ConvergenceError,
    CostModel,
    DensityMatrix,
    Estimate,
    InputError,
    NotNonNegativeError,
    Polynomial,
    ShotSampler,
    chebyshev_polynomial,
    estimate_chebyshev,
    estimate_direct,
    importance_sample,
    joint_readout,
    layout_table,
    monomial_poly_trace,
    parallel_qsp_run,
    partition_function,
    predict_cost,
    renyi_integer,
    renyi_noninteger,
    split_constituents,
    sup_norm,
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
    """importance_sample(coeffs, table, index, rho, shots, sampler): one draw over all runs."""

    ONE = [Polynomial.one()]

    @staticmethod
    def sample(coeffs, layouts, rho, shots, sampler=None):
        return importance_sample(coeffs, *layout_table(layouts), rho, shots, sampler)

    def test_constant_terms_pool_exactly(self, rho_34):
        # a bare register reads tr(rho) = 1 on every shot
        est = self.sample([0.5, 0.5], [self.ONE, self.ONE], rho_34, 200, ShotSampler(1))
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)
        assert est.shots_used == 200

    def test_signed_combination_unbiased(self, rho_34):
        # 0.8 tr(rho) - 0.4 tr(rho^2) = 0.8 - 0.4 * 0.625
        layouts = [self.ONE, self.ONE * 2]
        vals = [
            self.sample([0.8, -0.4], layouts, rho_34, 500, ShotSampler(rep)).value
            for rep in range(200)
        ]
        mean = float(np.mean(vals))
        sem = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert abs(mean - 0.55) <= 5 * max(sem, 1e-6)

    def test_zero_coefficients_rejected(self, rho_34):
        with pytest.raises(InputError, match="all-zero"):
            self.sample([0.0], [self.ONE], rho_34, 10)

    def test_estimator_count_mismatch(self, rho_34):
        with pytest.raises(InputError, match="one q, z and coefficient per run"):
            self.sample([1.0, 2.0], [self.ONE], rho_34, 10)

    def test_bad_shape_rejected(self, rho_34):
        with pytest.raises(InputError, match="layout 1 needs at least one factor"):
            self.sample([1.0, 2.0], [self.ONE, []], rho_34, 16, ShotSampler(0))

    def test_nonpositive_shots_rejected(self, rho_34):
        with pytest.raises(InputError, match="budget 0 is below the stage count 1"):
            self.sample([1.0], [self.ONE], rho_34, 0)


@pytest.mark.parametrize(
    "shots, accepted",
    [(np.int64(1000), True), (True, False), (1000.0, False), (2.5, False)],
    ids=["numpy-int", "bool", "float", "fraction"],
)
def test_one_shot_count_rule(rho_34, shots, accepted):
    runs = [
        lambda: estimate_direct(
            Polynomial([0, 0, 0, 0, 1]), rho_34, 2, shots=shots, mode="sampled", seed=1
        ),
        lambda: parallel_qsp_run(
            [Polynomial([0, 1])], rho_34, shots=shots, sampler=ShotSampler(1)
        ),
    ]
    for run in runs:
        if accepted:
            assert run().shots_used == 1000
        else:
            with pytest.raises(InputError, match="integer shot count"):
                run()


class TestEstimateDirect:
    def test_double_real_roots_take_direct_route(self, rho_34):
        p = 0.9 * chebyshev_polynomial(6)
        rep = estimate_direct(p, rho_34, 2)
        assert rep.value == pytest.approx(estimate_chebyshev(p, rho_34, 2).value, abs=1e-12)

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

    def test_rejected_high_part_runs_no_simulation(self, rho_34, monkeypatch):
        # high part 0.5 - 0.2x^2 at k=2 is positive on [-1, 1], so only the
        # factorization rejects it; the low branch must not run first
        calls = []
        run_low = estimate.spectral_hadamard_test
        monkeypatch.setattr(
            estimate,
            "spectral_hadamard_test",
            lambda *a, **kw: calls.append(a) or run_low(*a, **kw),
        )
        p = Polynomial([0.1, 0.1, 0.5, 0, -0.2])
        with pytest.raises(NotNonNegativeError, match="leading coefficient"):
            estimate_direct(p, rho_34, 2)
        assert calls == []

    @pytest.mark.parametrize("coeffs", [
        [0, 0, 0, 0, 0.3], [0.3, 0, 0, 0, 0.3], [0.3, 0, 0, 0, 0.2, 0, 0.1],
    ])
    def test_round_off_constant_in_high_part(self, rho_34, coeffs):
        # the split leaves the high part's constant at +-2.8e-17, not 0; read
        # as a root pair near 0 it stalled root polishing
        p = Polynomial(coeffs)
        want = sum(float(np.real(p(lam))) for lam in (0.75, 0.25))
        assert estimate_direct(p, rho_34, 2).value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("coeffs, k, width", [
        ([0.1, 0.2, 0.3], 5, 1),  # k beyond the degree: the low stage alone
        ([0.0], 3, 0),
    ])
    def test_width_counts_the_stages_that_run(self, rho_34, coeffs, k, width):
        assert estimate_direct(Polynomial(coeffs), rho_34, k).width == width

    def test_threads_beyond_high_degree_pad_with_constants(self, rho_34):
        # k = 4 leaves the high part 0.5 + 0.25x^2: one half-root, four threads
        rep = estimate_direct(Polynomial([0, 0, 0, 0, 0.5, 0, 0.25]), rho_34, 4)
        assert rep.value == pytest.approx(0.2047119140625, abs=1e-12)
        assert rep.breakdown["factor_degrees"] == [1, 0, 0, 0]

    def test_norm_cap(self, rho_34):
        with pytest.raises(InputError, match="rescale"):
            estimate_direct(Polynomial([0, 0, 2]), rho_34, 1)

    def test_bad_thread_count(self, rho_34):
        with pytest.raises(InputError, match="thread count"):
            estimate_direct(Polynomial([0, 0, 1]), rho_34, 0)

    def test_sampled_needs_integer_shots(self, rho_34):
        with pytest.raises(InputError, match="integer shot"):
            estimate_direct(Polynomial([0, 0, 0, 0, 1]), rho_34, 2, mode="sampled")

    @pytest.mark.parametrize("shots", [1, 0, -3])
    def test_budget_below_stage_count_rejected(self, rho_34, shots):
        # a low and a high stage
        p = Polynomial([0.1, -0.2, 0.3, 0, 0.2])
        with pytest.raises(InputError, match=f"budget {shots} is below the stage count 2"):
            estimate_direct(p, rho_34, 2, shots=shots, mode="sampled")
        assert estimate_direct(p, rho_34, 2, shots=2, mode="sampled").shots_used == 2

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


class TestTargetCheck:
    """A Chebyshev 1-norm at most 1 certifies the target; above it, the exact norm decides."""

    @pytest.fixture
    def normed(self, monkeypatch):
        seen = []
        kernel = poly._colleague_norms

        def counting(series):
            seen.extend(tuple(c) for c in series)
            return kernel(series)

        monkeypatch.setattr(poly, "_colleague_norms", counting)
        return seen

    @staticmethod
    def exact_verdict(cheb) -> bool:
        return sup_norm(Polynomial.from_cheb(cheb)) <= 1.0 + 1e-9

    @pytest.mark.parametrize("edge", [1.0, 1.0 + 1e-9])
    def test_verdict_at_the_edges_matches_the_exact_norm(self, edge):
        # non-negative coefficients: the sup norm is the 1-norm, reached at x = 1;
        # at 1 + 1e-9, sum() reads this one's 1-norm up to 2 ulps below Clenshaw's
        # value at x = 1, so a certificate with no slack would flip verdicts
        base = np.array([0.002738500170148095, 0.8574042765875693, 0.033585575305464355,
                         0.7296554464299441, 0.17565562060255901, 0.8631789223498866,
                         0.5414612202490917, 0.2997118905373848])
        verdicts = set()
        for steps in range(-6, 7):
            target = edge
            for _ in range(abs(steps)):
                target = math.nextafter(target, math.copysign(math.inf, steps))
            cheb = base * (target / base.sum())
            accepted = self.exact_verdict(cheb)
            verdicts.add(accepted)
            if accepted:
                estimate._check_target(Polynomial.from_cheb(cheb))
            else:
                with pytest.raises(InputError, match="sup norm at most 1; rescale it"):
                    estimate._check_target(Polynomial.from_cheb(cheb))
        assert verdicts == ({True} if edge == 1.0 else {True, False})

    def test_one_norm_above_one_takes_the_exact_norm(self, normed):
        p = Polynomial.from_cheb([0, 0.6, 0, -0.6])  # 1-norm 1.2, sup norm 0.924
        estimate._check_target(p)
        assert normed == [p.cheb]
        assert sup_norm(p) == pytest.approx(1.6 / math.sqrt(3), rel=1e-12)

    def test_sup_norm_above_one_rejected(self, rho_34):
        p = Polynomial.from_cheb([0.1, 0.6, 0, -0.6])  # sup norm 1.024 at x = 1/sqrt(3)
        with pytest.raises(InputError, match="sup norm at most 1; rescale it"):
            estimate._check_target(p)
        with pytest.raises(InputError, match="sup norm at most 1; rescale it"):
            estimate_direct(Polynomial([0, 0, 1.5]), rho_34, 1)

    def test_certified_target_is_never_normed(self, rho_34, normed):
        p = Polynomial([0.1, -0.2, 0.3, 0, 0.2])  # Chebyshev 1-norm 0.8
        assert sum(map(abs, p.cheb)) < 1.0
        rep = estimate_direct(p, rho_34, 2)
        assert rep.value == pytest.approx(sum(p(lam).real for lam in (0.75, 0.25)), abs=1e-10)
        assert normed and p.cheb not in normed


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

    def test_budget_below_stage_count_rejected(self, rho_34):
        # k = 3: the even part has a low and a high stage, the odd part -0.2x
        # runs sequentially as one stage
        p = Polynomial([0.1, -0.2, 0.3, 0, 0.2])
        with pytest.raises(InputError, match="budget 2 is below the stage count 3"):
            estimate_chebyshev(p, rho_34, 3, shots=2, mode="sampled")
        assert estimate_chebyshev(p, rho_34, 3, shots=3, mode="sampled").shots_used == 3

    def test_low_branch_builds_no_maximally_mixed_state(self, rho_34, monkeypatch):
        def refuse(*args):
            raise AssertionError("the low branch reads tr(p(rho))/D from the spectrum")

        monkeypatch.setattr(DensityMatrix, "maximally_mixed", refuse)
        monkeypatch.setattr(DensityMatrix, "spectral_operator", refuse)
        p = Polynomial([0.1, -0.2, 0.3, 0, 0.2])
        rep = estimate_chebyshev(p, rho_34, 3)
        want = sum(float(np.real(p(lam))) for lam in (0.75, 0.25))
        assert rep.breakdown["even"]["w_low"] != 0.0
        assert rep.value == pytest.approx(want, abs=1e-12)


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

    @pytest.mark.parametrize("dim", [4, 8, 16, 32])
    def test_one_route_table(self, dim):
        # alpha <= k reads the swap test on alpha bare registers, so every
        # order's depth falls with k and its width stays at most k + 1
        rho = DensityMatrix.random_seeded(dim, 5)
        w = rho.eigenvalues()
        for alpha in range(2, 9):
            want = math.log(float(np.sum(w ** alpha))) / (1 - alpha)
            depths = []
            for k in range(1, 9):
                rep = renyi_integer(rho, alpha, k)
                assert rep.value == pytest.approx(want, abs=1e-12)
                assert rep.width == len(estimate._monomial_factors(alpha, k)) <= k + 1
                assert "notice" not in rep.breakdown
                depths.append(rep.query_depth)
            assert depths == sorted(depths, reverse=True), (alpha, depths)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bare_registers_are_the_swap_test(self, dim, n):
        rho = DensityMatrix.random_seeded(dim, 17)
        bare = estimate._monomial_factors(n, n)
        want = sim.generalized_swap_expectation([rho] * n).value
        assert parallel_qsp_run(bare, rho).value == pytest.approx(want, abs=1e-12)
        if dim ** n <= 1024:
            got = parallel_qsp_run(bare, rho, mode="circuit").value
            assert got == pytest.approx(want, abs=1e-12)

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

    def test_bare_swap_auto_shots_follow_epsilon(self, rho_34):
        # alpha <= k sizes its budget from the pilot as alpha > k does; a flat
        # 1000 shots left std_error at 3.9 epsilon for epsilon = 0.01
        reps = [
            renyi_integer(rho_34, 2, 2, epsilon=eps, mode="sampled", seed=8)
            for eps in (0.1, 0.03, 0.01)
        ]
        shots = [rep.breakdown["auto_shots"] for rep in reps]
        assert shots[0] < shots[1] < shots[2]
        assert reps[-1].shots_used == 1000 + shots[-1]
        assert reps[-1].std_error < 2 * 0.01

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

    def test_sampled_spends_whole_budget(self, rho_34):
        # k_odd = 1 leaves the odd approximant no low stage; its share goes
        # to the high stage instead of going unspent
        rep = von_neumann(rho_34, 2, mode="sampled", shots=20000, seed=7)
        assert rep.shots_used == 20000


class TestSpectralCertificate:
    """The approximant is certified on [delta, 1] only, so the entropy reports
    record the spectral mass below delta and flag it; the values do not move."""

    def test_user_delta_misses_are_flagged(self):
        # von_neumann(delta=0.1) misses epsilon on 19 of these 20 states, each
        # with 0.077-0.209 of its mass below delta
        misses = 0
        for seed in range(20):
            rho = DensityMatrix.random_seeded(8, seed)
            w = rho.eigenvalues()
            w = w[w > 1e-12]
            rep = von_neumann(rho, 2, epsilon=0.05, delta=0.1)
            mass = rep.breakdown["mass_below_delta"]
            assert mass == pytest.approx(float(w[w < 0.1].sum()), abs=1e-15)
            assert 0.07 <= mass <= 0.21
            assert "below delta" in rep.breakdown["notice"]
            misses += abs(rep.value - float(-np.sum(w * np.log(w)))) > 0.05
        assert misses == 19

    def test_renyi_records_the_mass_too(self, rho_34):
        rep = renyi_noninteger(rho_34, 1.5, 2, delta=0.5)
        assert rep.breakdown["mass_below_delta"] == pytest.approx(0.25, abs=1e-15)
        assert "notice" in rep.breakdown
        ranked = renyi_noninteger(rho_34, 0.5, 2, rank=2)
        assert ranked.breakdown["mass_below_delta"] == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_auto_delta_reads_zero(self, seed):
        rho = DensityMatrix.random_seeded(4, seed)
        for rep in (von_neumann(rho, 2), renyi_noninteger(rho, 1.5, 2)):
            assert rep.breakdown["mass_below_delta"] == 0.0
            assert "notice" not in rep.breakdown
        pure = von_neumann(DensityMatrix.pure(4), 2)
        assert pure.breakdown["mass_below_delta"] == 0.0 and "notice" not in pure.breakdown


class TestEntropyApproximants:
    """Approximants are fitted, checked and traced in the Chebyshev basis, so
    high-degree fits keep their precision: the von Neumann fit on
    random_seeded(4, 7) has degree 79 and monomial coefficients up to 1e26."""

    @staticmethod
    def _fit_vn_4_7():
        rho = DensityMatrix.random_seeded(4, 7)
        delta, _ = estimate._resolve_delta(rho, "auto", None)
        poly, degree, _ = estimate._fit_odd_approximant(
            lambda x: -x * np.log(np.abs(x)), delta, 0.05 / (2 * rho.dim)
        )
        return poly, degree

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("dim", [4, 8])
    @pytest.mark.parametrize("alpha", [None, 1.5, 2.5], ids=["von-neumann", "renyi-1.5", "renyi-2.5"])
    def test_within_epsilon_on_random_states(self, alpha, dim, k):
        rho = DensityMatrix.random_seeded(dim, 7)
        w = rho.eigenvalues()
        w = w[w > 1e-12]
        if alpha is None:
            rep, exact = von_neumann(rho, k), float(-np.sum(w * np.log(w)))
        else:
            rep, exact = renyi_noninteger(rho, alpha, k), math.log(np.sum(w ** alpha)) / (1 - alpha)
        assert abs(rep.value - exact) <= 0.05
        assert rep.breakdown["approximant_error"] <= rep.breakdown["eps_prime"]

    def test_degree_79_norm_matches_dense_reference(self):
        poly, degree = self._fit_vn_4_7()
        assert degree == 79
        assert sup_norm(poly) == pytest.approx(dense_sup_norm(poly.cheb), rel=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_degree_79_split_reassembles(self, k):
        poly, _ = self._fit_vn_4_7()
        low, high = split_constituents(poly, k)
        xs = np.linspace(-1.0, 1.0, 201)
        gap = np.max(np.abs(low(xs) + xs ** k * high(xs) - poly(xs)))
        assert gap <= 1e-11 * max(1.0, sup_norm(high))


class TestLargerStates:
    """Exact trace estimators against sum_i p(lambda_i) beyond the D = 2-8 above.

    p = 0.1 - 0.2x + x^k (0.3 + 0.2x^2) has a non-negative high constituent
    for the direct route's split at k, and every estimator takes it.
    """

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("dim", [16, 32, 64])
    @pytest.mark.parametrize(
        "estimator", [estimate_direct, estimate_chebyshev, monomial_poly_trace],
        ids=lambda f: f.__name__,
    )
    def test_exact_matches_spectral_sum(self, estimator, dim, k):
        coeffs = [0.1, -0.2] + [0.0] * (k - 2) + [0.3, 0.0, 0.2]
        rho = DensityMatrix.random_seeded(dim, dim + k)
        lam = np.linalg.eigvalsh(rho.matrix)
        want = float(np.sum(np.polynomial.polynomial.polyval(lam, coeffs)))
        rep = estimator(Polynomial(coeffs), rho, k)
        assert rep.shots_used == 0 and rep.std_error == 0.0
        assert abs(rep.value - want) <= 1e-12


class TestSeededPins:
    """Sampled reports on diag(0.75, 0.25); they guard the shot split and the
    sampler's child streams.  renyi_auto was recorded before the reports
    were assembled from Estimate stages.  monomial and partition_auto were
    re-recorded when importance sampling began drawing all of a stage's
    terms in one multinomial draw (exact values 1.04375 and 1.25119; the
    draws sit 0.98 and 0.44 standard errors away).  The multi-stage cases
    direct, chebyshev and chebyshev_pooled were re-recorded when the budget
    split moved from even to pilot-measured spread (exact values 0.25156,
    0.31641 and 0.2125; the draws sit 0.31, 0.37 and 0.27 standard errors
    away); the single-stage cases did not move."""

    CASES = {
        "direct": (
            lambda rho: estimate_direct(
                Polynomial([0.1, -0.2, 0.3, 0, 0.2]), rho, 2,
                shots=20000, mode="sampled", seed=7,
            ),
            (0.2536908940007803, 0.006840039085120241, 20000),
        ),
        "chebyshev": (
            lambda rho: estimate_chebyshev(
                Polynomial([0.1, 0.2, -0.3, 0, 0.25, 0.1]), rho, 2,
                shots=20000, mode="sampled", seed=7,
            ),
            # three stages: the even part's low and high, and the odd part's high
            # (k_odd = 1 leaves it no low stage)
            (0.27249534133599573, 0.11873808666575092, 20000),
        ),
        "chebyshev_pooled": (
            lambda rho: estimate_chebyshev(
                Polynomial([0.1, 0.2, -0.3]), rho, 3, shots=20000, mode="sampled", seed=7,
            ),
            # both parts run sequentially, one stage each
            (0.21105389786908751, 0.0053211305799442405, 20000),
        ),
        "monomial": (
            lambda rho: monomial_poly_trace(
                Polynomial([0.2, 0.5, 0.3, -0.1]), rho, 2,
                shots=20000, mode="sampled", seed=7,
            ),
            (1.03936, 0.004479055996203983, 20000),
        ),
        "renyi_auto": (
            lambda rho: renyi_integer(rho, 6, 2, mode="sampled", seed=8),
            (0.38364386978202547, 0.024636545238418087, 1463),
        ),
        "partition_auto": (
            lambda rho: partition_function(rho, 1.0, 2, epsilon=0.01, mode="sampled", seed=7),
            (1.2487067286799325, 0.005622804811552754, 73891),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pinned(self, rho_34, name):
        run, (value, std_error, shots_used) = self.CASES[name]
        rep = run(rho_34)
        assert rep.value == pytest.approx(value, rel=1e-12)
        assert rep.std_error == pytest.approx(std_error, rel=1e-12)
        assert rep.shots_used == shots_used


class TestStageExecutor:
    """estimate._run_stages' split, read back from stub stages.

    A stub reads per-shot spread sd: its Estimate's std_error is
    sd / sqrt(n), and it keeps no source, so the executor reads it again for
    its main shots."""

    @staticmethod
    def _stages(spreads, scales=None):
        scales = scales or [1.0] * len(spreads)

        def read(n, sampler, sd):
            return Estimate(0.0, 0.0 if n == "exact" else sd / math.sqrt(n), n)

        return [
            estimate._Stage(partial(read, sd=sd), scale, (i,))
            for i, (sd, scale) in enumerate(zip(spreads, scales))
        ]

    @classmethod
    def _run(cls, spreads, shots, mode, scales=None, breakdown=None):
        """Each stage's shots, read back through shots_used."""
        stages = cls._stages(spreads, scales)
        ests = estimate._run_stages(stages, shots, mode, 0, breakdown)
        return [est.shots_used for est in ests]

    def test_split_matches_reference(self):
        # the reference is the split's defining properties: a pilot of
        # ceil(sqrt(budget)) per stage when every stage can also get one main
        # shot, else an even split; main shots within one of 1 + their quota of
        # the rest in proportion to |scale| * spread; all of the budget spent
        rng = np.random.default_rng(17)
        for trial in range(400):
            stages = int(rng.integers(1, 5))
            spreads = [0.0 if rng.random() < 0.2 else float(rng.random()) for _ in range(stages)]
            scales = [float(rng.choice([-1, 1]) * rng.uniform(0.1, 10)) for _ in range(stages)]
            shots = int(rng.integers(1, 30) if trial % 4 == 0 else rng.integers(1, 10 ** 6 + 1))
            if shots < stages:
                with pytest.raises(InputError, match=f"budget {shots} is below the stage count"):
                    self._run(spreads, shots, "sampled", scales)
                continue
            record = {}
            used = self._run(spreads, shots, "sampled", scales, record)
            assert sum(used) == shots
            assert self._run(spreads, shots, "exact", scales) == ["exact"] * stages
            pilot = math.ceil(math.sqrt(shots))
            if stages == 1:
                assert used == [shots] and record == {}
                continue
            split = record["stage_shots"]
            if stages * (pilot + 1) > shots:
                assert [s["pilot"] for s in split] == [0] * stages
                assert max(used) - min(used) <= 1 and used == sorted(used, reverse=True)
                continue
            weights = [abs(c) * sd for c, sd in zip(scales, spreads)]
            weights = weights if any(weights) else [1.0] * stages
            spare = shots - stages * (pilot + 1)
            for s, n, w in zip(split, used, weights):
                assert s["pilot"] == pilot and n == pilot + s["main"] and s["main"] >= 1
                assert abs(s["main"] - 1 - spare * w / sum(weights)) < 1 + 1e-9

    @pytest.mark.parametrize("shots", [None, 2.5, True, "auto"])
    def test_non_integer_budget_rejected(self, shots):
        with pytest.raises(InputError, match="needs an integer shot count"):
            self._run([0.1, 0.2], shots, "sampled")
        assert self._run([0.1, 0.2], shots, "exact") == ["exact", "exact"]

    def test_budget_below_stage_count_rejected(self):
        with pytest.raises(InputError, match="budget 2 is below the stage count 3"):
            self._run([0.1, 0.2, 0.3], 2, "sampled")

    def test_each_stage_reads_its_own_stream(self):
        seen = []

        def read(n, sampler):
            seen.append((sampler.seed, sampler.path))
            return Estimate(0.0, 0.0, n)

        streams = [(), (0,), (3,), (1, 2)]
        stages = [estimate._Stage(read, 1.0, s) for s in streams]
        estimate._run_stages(stages, 8, "sampled", 5)
        assert seen == [(5, s) for s in streams]
        # with a pilot, a stage that keeps no source reads again on its stream
        seen.clear()
        estimate._run_stages(stages, 10 ** 4, "sampled", 5)
        assert seen == [(5, s) for s in streams] * 2


class _ScriptedSampler(ShotSampler):
    """A ShotSampler whose first draw on a scripted stream returns scripted counts.

    SCRIPT maps a stream path to a function of the shot count; every other
    draw is the real sampler's."""

    SCRIPT: dict = {}

    def child(self, index):
        return type(self)(self.seed, self.path + (int(index),))

    def _scripted(self, shots):
        script = self.SCRIPT.get(self.path)
        if script is None or getattr(self, "drawn", False):
            return None
        self.drawn = True
        return script(shots)

    def bernoulli_count(self, p, shots):
        counts = self._scripted(shots)
        return super().bernoulli_count(p, shots) if counts is None else counts

    def multinomial(self, shots, pvals):
        counts = self._scripted(shots)
        return super().multinomial(shots, pvals) if counts is None else np.array(counts)


class TestPilotSplit:
    """The split follows what the pilot measured, never the simulator's exact values.

    estimate_direct on diag(0.75, 0.25) with p = 0.1 - 0.2x + 0.3x^2 + 0.2x^4
    at k = 2 has a Hadamard stage (stream 0, scale D * ||p_low||) and a
    parallel-run stage (stream 1, scale K^2)."""

    P = Polynomial([0.1, -0.2, 0.3, 0, 0.2])
    BUDGET = 20000
    PILOT = 142  # ceil(sqrt(20000))

    def _scripted(self, rho, monkeypatch, low, high):
        monkeypatch.setattr(estimate, "ShotSampler", _ScriptedSampler)
        monkeypatch.setattr(_ScriptedSampler, "SCRIPT", {(0,): low, (1,): high})
        rep = estimate_direct(self.P, rho, 2, shots=self.BUDGET, mode="sampled", seed=1)
        return rep, rep.breakdown["stage_shots"]

    def test_split_follows_scripted_pilot_counts(self, rho_34, monkeypatch):
        unscripted = estimate_direct(self.P, rho_34, 2, shots=self.BUDGET, mode="sampled", seed=1)
        half = lambda n: n // 2  # the widest Bernoulli spread
        flat = lambda n: n  # every shot reads 0: no spread
        half_cells = lambda n: [n // 2, n - n // 2, 0]  # +1 and -1 in equal parts
        flat_cells = lambda n: [n, 0, 0]
        wide_low, low_share = self._scripted(rho_34, monkeypatch, half, flat_cells)
        wide_high, high_share = self._scripted(rho_34, monkeypatch, flat, half_cells)
        # the same exact values, opposite splits
        assert low_share[0]["main"] > 5 * low_share[1]["main"]
        assert high_share[1]["main"] > 5 * high_share[0]["main"]
        # the recorded spreads are the scripted pilots', not the exact ones
        scale_low = 2 * sup_norm(split_constituents(self.P, 2)[0])
        k_sq = wide_low.breakdown["K"] ** 2
        assert low_share[0]["spread"] == pytest.approx(scale_low * 1.0, rel=1e-12)
        assert high_share[1]["spread"] == pytest.approx(k_sq * 1.0, rel=1e-2)
        for rep, split in ((wide_low, low_share), (wide_high, high_share)):
            assert rep.shots_used == self.BUDGET
            assert sum(s["pilot"] + s["main"] for s in split) == self.BUDGET
        assert unscripted.breakdown["stage_shots"] not in (low_share, high_share)

    def test_zero_spread_pilot_keeps_a_floor(self, rho_34, monkeypatch):
        # a scripted pilot with no spread on a stage whose shots do spread
        _, split = self._scripted(rho_34, monkeypatch, lambda n: n // 2, lambda n: [n, 0, 0])
        floor = split[1]["spread"]
        assert floor > 0.0 and split[1]["main"] >= 1
        spare = self.BUDGET - 2 * (self.PILOT + 1)
        share = spare * floor / (floor + split[0]["spread"])
        assert abs(split[1]["main"] - 1 - share) < 1 + 1e-9

    def test_constant_stage_is_never_starved(self, rho_34):
        # the low part 0.3 reads 0 on every Hadamard shot: its spread is zero
        # in truth, so it keeps one outcome's worth, 1/sqrt(pilot) times D * 0.3
        p = Polynomial([0.3, 0, 0.2, 0, 0.1])
        rep = estimate_direct(p, rho_34, 2, shots=self.BUDGET, mode="sampled", seed=3)
        low, high = rep.breakdown["stage_shots"]
        assert low["spread"] == pytest.approx(0.6 / math.sqrt(self.PILOT), rel=1e-12)
        assert low["main"] >= 1 and high["main"] >= 1
        assert rep.breakdown["w_low"] == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize(
        "shots, pilot",
        [(3, 0), (11, 0), (12, 0), (15, 4), (16, 4), (17, 0), (400, 20), (20000, 142)],
    )
    def test_spends_the_budget_and_reproduces(self, rho_34, shots, pilot):
        # three stages: a budget below 3 (ceil(sqrt(shots)) + 1) splits evenly
        p = Polynomial([0.1, -0.2, 0.3, 0, 0.2])
        runs = [
            estimate_chebyshev(p, rho_34, 3, shots=shots, mode="sampled", seed=11)
            for _ in range(2)
        ]
        assert runs[0].shots_used == shots
        split = runs[0].breakdown["stage_shots"]
        assert [s["pilot"] for s in split] == [pilot] * 3
        assert sum(s["pilot"] + s["main"] for s in split) == shots
        assert all(s["main"] >= 1 for s in split)
        assert json.dumps(runs[0].to_dict()) == json.dumps(runs[1].to_dict())

    def test_single_stage_reports_no_split(self, rho_34):
        rep = monomial_poly_trace(
            Polynomial([0.2, 0.5, 0.3]), rho_34, 2, shots=500, mode="sampled", seed=2
        )
        assert "stage_shots" not in rep.breakdown and rep.shots_used == 500


def _degree_24_target() -> Polynomial:
    rng = np.random.default_rng(24)
    return 0.5 * (random_parity_target(rng, 24) + random_parity_target(rng, 23))


class TestSplitStatistics:
    """Over 300 seeds at 20,000 shots, the pilot split is unbiased, its
    reported std_error matches the spread of its values, and that spread is
    well below the even split's.  The even split's spreads were measured on
    the same 300 seeds before the split changed."""

    CASES = {
        # D = 16, a low Hadamard stage and a high parallel-run stage
        "direct": (
            lambda: (Polynomial([0.1, -0.2, 0.3, 0, 0.2]), DensityMatrix.random_seeded(16, 3), 2),
            estimate_direct,
            0.048253,
        ),
        # degree 24 at k = 2: the even part's low and high stages and the odd part's
        "chebyshev": (
            lambda: (_degree_24_target(), DensityMatrix.random_seeded(8, 3), 2),
            estimate_chebyshev,
            19.36,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_spread_matches_std_error_and_beats_even_split(self, name):
        make, run, even_sd = self.CASES[name]
        p, rho, k = make()
        exact = run(p, rho, k).value
        reps = [run(p, rho, k, shots=20000, mode="sampled", seed=s) for s in range(300)]
        values = np.array([r.value for r in reps])
        sd = float(np.std(values, ddof=1))
        assert abs(values.mean() - exact) <= 4 * sd / math.sqrt(len(values))
        assert abs(sd / np.mean([r.std_error for r in reps]) - 1.0) <= 0.15
        assert sd <= 0.85 * even_sd


class TestBatchedStages:
    """Each sampled stage is one array pass and one draw, however many terms.

    Wall-clock is too noisy to guard in tier-1, so these count calls.
    """

    @staticmethod
    def _count_degree40(monkeypatch) -> tuple[dict, int, int]:
        counts = {"samplers": 0, "runs": 0}
        init = ShotSampler.__init__

        def counting_init(self, *args, **kwargs):
            counts["samplers"] += 1
            init(self, *args, **kwargs)

        runs = estimate.parallel_qsp_runs

        def counting_runs(*args, **kwargs):
            counts["runs"] += 1
            return runs(*args, **kwargs)

        monkeypatch.setattr(ShotSampler, "__init__", counting_init)
        monkeypatch.setattr(estimate, "parallel_qsp_runs", counting_runs)
        rng = np.random.default_rng(40)
        p = 0.5 * (random_parity_target(rng, 40) + random_parity_target(rng, 39))
        rho = DensityMatrix.random_seeded(4, 3)
        rep = estimate_chebyshev(p, rho, 3, shots=10 ** 5, mode="sampled", seed=1)
        parts = [rep.breakdown[name] for name in ("even", "odd")]
        return counts, len(parts), sum(part["term_count"] for part in parts)

    def test_one_run_batch_and_draw_per_stage(self, monkeypatch):
        counts, parts, terms = self._count_degree40(monkeypatch)
        assert terms > 10 * parts
        assert counts["samplers"] <= 2 * parts + 1
        assert counts["runs"] <= parts

    def test_guard_fails_a_per_term_loop(self, monkeypatch):
        def per_term(coeffs, table, index, rho, total_shots, sampler=None):
            c = np.asarray(coeffs)
            split = sampler.multinomial(total_shots, np.abs(c) / np.abs(c).sum())
            total = Estimate(0.0, 0.0)
            for j, n_j in enumerate(split):
                if n_j:
                    q, z = estimate.parallel_qsp_runs(table, index[j : j + 1], rho)
                    total += c[j] * joint_readout(q, z, int(n_j), sampler.child(j))
            return total

        monkeypatch.setattr(estimate, "importance_sample", per_term)
        counts, parts, _ = self._count_degree40(monkeypatch)
        assert counts["samplers"] > 2 * parts + 1
        assert counts["runs"] > parts

    def test_exact_stage_is_one_table_call_and_draws_nothing(self, monkeypatch):
        counts = {"clenshaw": 0, "philox": 0}
        clenshaw, philox = sim._clenshaw, np.random.Philox

        def counting_clenshaw(c, x):
            counts["clenshaw"] += 1
            return clenshaw(c, x)

        def counting_philox(*args, **kwargs):
            counts["philox"] += 1
            return philox(*args, **kwargs)

        rng = np.random.default_rng(38)
        p = 0.5 * (random_parity_target(rng, 38) + random_parity_target(rng, 37))
        rho = DensityMatrix.random_seeded(32, 4)
        monkeypatch.setattr(sim, "_clenshaw", counting_clenshaw)
        monkeypatch.setattr(np.random, "Philox", counting_philox)
        rep = estimate_chebyshev(p, rho, 4, seed=1)
        parts = [rep.breakdown[name] for name in ("even", "odd")]
        assert all(part["term_count"] > 10 for part in parts)
        assert counts == {"clenshaw": len(parts), "philox": 0}

    def test_sampled_memory_does_not_grow_with_shots(self, rho_34):
        p = Polynomial([0.1, 0.2, -0.3, 0, 0.25, 0.1])
        estimate_chebyshev(p, rho_34, 2, shots=1000, mode="sampled", seed=1)
        tracemalloc.start()
        try:
            rep = estimate_chebyshev(p, rho_34, 2, shots=10 ** 7, mode="sampled", seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.shots_used == 10 ** 7
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_trace_estimators_never_decompose(self, monkeypatch, mode):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        rho = DensityMatrix.random_seeded(8, 5)
        kwargs = {"mode": mode, "seed": 2, "shots": 10 ** 4} if mode == "sampled" else {}
        p = Polynomial([0.1, -0.2, 0.3, 0, 0.2])
        for run in (estimate_direct, estimate_chebyshev, monomial_poly_trace):
            assert np.isfinite(run(p, rho, 2, **kwargs).value)
        assert calls == []


class TestReportPlumbing:
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
