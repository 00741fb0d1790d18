import itertools
import json
import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
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
    PostSelectionError,
    ShotSampler,
    chebyshev_parallel_terms,
    chebyshev_polynomial,
    estimate_chebyshev,
    estimate_direct,
    find_phases,
    joint_readout,
    layout_table,
    monomial_poly_trace,
    parallel_qsp_run,
    parallel_qsp_runs,
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
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(InputError, match="epsilon"):
                predict_cost(CostModel(epsilon=eps, K=1.0), "theorem3")

    def test_floor_of_one(self):
        assert predict_cost(CostModel(epsilon=100.0, K=0.01), "theorem3") == 1

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(epsilon=math.inf), "epsilon must be finite, got inf"),
            (dict(K=math.nan), "K must be finite and >= 0, got nan"),
            (dict(K=-2.0), "K must be finite and >= 0, got -2.0"),
            (dict(norm_low=math.inf), "norm_low must be finite and >= 0, got inf"),
            (dict(norm_high=-1.0), "norm_high must be finite and >= 0, got -1.0"),
            (dict(one_norm=math.nan), "one_norm must be finite and >= 0, got nan"),
            (dict(d=0), "d must be an integer >= 1, got 0"),
            (dict(d=2.5), "d must be an integer >= 1, got 2.5"),
            (dict(k=0), "k must be an integer >= 1, got 0"),
            (dict(k=-1), "k must be an integer >= 1, got -1"),
            (dict(k=True), "k must be an integer >= 1, got True"),
            (dict(alpha=math.inf), "alpha must be finite, got inf"),
            (dict(alpha=math.nan), "alpha must be finite, got nan"),
            (dict(s_alpha=0.0), "s_alpha must be finite and > 0, got 0.0"),
            (dict(s_alpha=math.inf), "s_alpha must be finite and > 0, got inf"),
            (dict(beta=-0.5), "beta must be finite and >= 0, got -0.5"),
            (dict(beta=math.nan), "beta must be finite and >= 0, got nan"),
            # the first bad field in field order is the one named
            (dict(K=-1.0, beta=-1.0), "K must be finite"),
        ],
    )
    def test_every_field_checked_when_built(self, fields, message):
        with pytest.raises(InputError, match=re.escape(message)):
            CostModel(**{"epsilon": 0.1, **fields})

    def test_boundary_values_accepted(self):
        model = CostModel(0.1, K=0.0, norm_low=0.0, norm_high=0.0, one_norm=0.0, d=1, k=1,
                          alpha=-2.0, s_alpha=1e-300, beta=0.0)
        assert predict_cost(model, "theorem3") == 1
        assert CostModel(0.1, d=np.int64(3), k=np.int64(2)).k == 2

    def test_alpha_poles_rejected(self):
        # theorem 10 divides by (alpha - 1)^2 and theorem 7 by alpha^2
        with pytest.raises(InputError, match="theorem10 needs alpha != 1"):
            predict_cost(CostModel(0.1, d=10, k=2, alpha=1.0, s_alpha=0.5), "theorem10")
        with pytest.raises(InputError, match="theorem7 needs alpha != 0"):
            predict_cost(CostModel(0.1, alpha=0.0, s_alpha=0.5), "theorem7")
        assert predict_cost(CostModel(0.1, d=10, k=2, alpha=2.0, s_alpha=0.5), "theorem10") > 1


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize(
    "run",
    [
        lambda rho, **kw: renyi_integer(rho, 3, 2, **kw),
        lambda rho, **kw: partition_function(rho, 1.0, 2, **kw),
        lambda rho, **kw: estimate_direct(Polynomial([0.1, -0.2, 0.3, 0, 0.2]), rho, 2, **kw),
    ],
    ids=["renyi_integer", "partition_function", "estimate_direct"],
)
def test_nan_epsilon_is_a_typed_error(rho_34, run, mode):
    kwargs = {"shots": 2000, "seed": 1} if mode == "sampled" else {}
    with pytest.raises(InputError, match="epsilon must be positive, got nan"):
        run(rho_34, epsilon=math.nan, mode=mode, **kwargs)


class TestImportanceSample:
    """An importance stage's runs, evaluated in one parallel_qsp_runs pass and
    drawn by one joint_readout."""

    ONE = [Polynomial.one()]

    @staticmethod
    def sample(coeffs, layouts, rho, shots, sampler=None):
        runs = parallel_qsp_runs(*layout_table(layouts), rho)
        return joint_readout(*runs, shots, sampler, coeffs=coeffs)

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
        run_low = estimate._hadamard_law
        monkeypatch.setattr(
            estimate,
            "_hadamard_law",
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

    @pytest.mark.parametrize("run", [estimate_direct, estimate_chebyshev])
    def test_complex_target_rejected(self, rho_34, run):
        with pytest.raises(InputError, match="^target polynomial must have real coefficients$"):
            run(Polynomial([0, 0, 0.5j]), rho_34, 2)

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

    @pytest.mark.parametrize("mode, shots", [("exact", None), ("sampled", 1000)])
    def test_zero_target_reads_zero_and_draws_nothing(self, rho_34, mode, shots):
        rep = estimate_chebyshev(Polynomial([0]), rho_34, 2, mode=mode, shots=shots, seed=3)
        assert (rep.value, rep.std_error, rep.shots_used) == (0.0, 0.0, 0)
        assert (rep.query_depth, rep.width) == (0, 0)

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
        for alpha in (1, 2.5, math.nan, math.inf, -math.inf, None, "3", 2 + 0j):
            with pytest.raises(InputError, match="alpha must be an integer >= 2"):
                renyi_integer(rho_34, alpha, 2)
        # an integral float or a numpy integer is an integer order
        assert renyi_integer(rho_34, 2.0, 2).to_dict() == renyi_integer(rho_34, 2, 2).to_dict()
        assert renyi_integer(rho_34, np.int64(3), 2).value == renyi_integer(rho_34, 3, 2).value

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


class TestSwapLayoutCache:
    """Each (exponents, k) swap-test layout is built and checked once, and
    every state reads the same entry."""

    @staticmethod
    def _leaves(obj):
        if isinstance(obj, (tuple, list)):
            return [leaf for item in obj for leaf in TestSwapLayoutCache._leaves(item)]
        return [obj]

    def test_one_stateless_entry_serves_every_state(self):
        estimate._swap_layout.cache_clear()
        states = [DensityMatrix.random_seeded(d, s) for d, s in ((16, 1), (16, 2), (64, 3))]
        reports = [renyi_integer(rho, 5, 2) for rho in states]
        info = estimate._swap_layout.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        table, layout, depth, width = estimate._swap_layout((5,), 2)
        leaves = self._leaves(estimate._swap_layout((5,), 2))
        assert not any(isinstance(leaf, DensityMatrix) for leaf in leaves)
        assert all(isinstance(leaf, (Polynomial, np.ndarray, int)) for leaf in leaves)
        assert not any(a.flags.writeable for a in layout)
        assert (depth, width) == (1, 3)
        for rho, rep in zip(states, reports):
            want = math.log(float(np.sum(rho.eigenvalues() ** 5))) / (1 - 5)
            assert rep.value == pytest.approx(want, rel=1e-12)
        assert len({rep.value for rep in reports}) == 3

    def test_partition_series_and_monomial_trace_share_an_entry(self):
        estimate._swap_layout.cache_clear()
        rho, other = DensityMatrix.random_seeded(8, 1), DensityMatrix.random_seeded(4, 2)
        degree = partition_function(rho, 1.0, 3).breakdown["series_degree"]
        rep = monomial_poly_trace(Polynomial([0.5] + [0.5 / degree] * degree), other, 3)
        assert rep.breakdown["active_exponents"] == list(range(1, degree + 1))
        info = estimate._swap_layout.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_bad_layout_is_never_cached(self):
        estimate._swap_layout.cache_clear()
        with pytest.raises(InputError, match="thread count"):
            renyi_integer(DensityMatrix.random_seeded(4, 1), 3, 0)
        assert estimate._swap_layout.cache_info().currsize == 0


class TestTermLayoutCache:
    """Each (k, ctilde keys) term layout is built and checked once, and
    every state and every tail of that shape reads the same entry."""

    def test_one_stateless_entry_serves_every_tail_and_state(self):
        rng = np.random.default_rng(7)
        targets = [0.9 * random_parity_target(rng, 16) for _ in range(3)]
        states = [DensityMatrix.random_seeded(d, s) for d, s in ((4, 1), (16, 2), (64, 3))]
        reports = [estimate_chebyshev(p, rho, 2) for p, rho in zip(targets, states)]
        info = estimate._term_layout.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        part = reports[0].breakdown["even"]
        ctilde = chebyshev_parallel_terms(split_constituents(targets[0], 2)[1], 2, 16).ctilde
        table, layout, depth = estimate._term_layout(2, tuple(sorted(ctilde)))
        assert estimate._term_layout.cache_info().hits == 3
        assert all(isinstance(f, Polynomial) for f in table)
        assert not any(a.flags.writeable for a in layout)
        assert depth == part["parallel_depth"]
        for p, rho, rep in zip(targets, states, reports):
            want = float(np.sum(np.real(p(rho.eigenvalues()))))
            assert rep.value == pytest.approx(want, abs=1e-10)


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
        # a NaN or infinite beta fails before the degree loop, not in it
        for beta in (math.nan, math.inf):
            with pytest.raises(InputError, match=f"must be finite, got {beta}"):
                partition_function(rho_34, beta, 1)

    def test_huge_beta_fails_certification(self, rho_34):
        with pytest.raises(ConvergenceError, match="400"):
            partition_function(rho_34, 500.0, 2)

    @pytest.mark.parametrize("beta", [45.0, 50.0, 100.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_large_beta_ends_typed(self, beta, k):
        # beta^n or n! leaves float range in the series from beta = 50 on;
        # the coefficients do not, and the run fails on post-selection as at 45
        with pytest.warns(UserWarning, match="1-norm"), pytest.raises(PostSelectionError):
            partition_function(DensityMatrix.random_seeded(4, 3), beta, k)

    @pytest.mark.parametrize("beta", [50.0, 100.0])
    def test_series_coefficients_stay_in_float_range(self, monkeypatch, beta):
        seen = []

        class Caught(Exception):
            pass

        def catch(k, coeffs, rho, epsilon):
            seen.append(coeffs)
            raise Caught

        monkeypatch.setattr(estimate, "_monomial_plan", catch)
        with pytest.raises(Caught):
            partition_function(DensityMatrix.random_seeded(4, 3), beta, 1)
        for n, c in enumerate(seen[0]):
            exact = float(Fraction(-beta) ** n / math.factorial(n))
            if n < 171 and n * math.log10(beta) < 308:  # the direct form keeps its bits
                assert c == (-beta) ** n / math.factorial(n)
            assert c == pytest.approx(exact, rel=1e-12, abs=0.0)


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

    def test_bad_alpha_or_epsilon_fails_before_fitting(self, rho_34):
        for alpha in (math.nan, math.inf, -0.5):
            with pytest.raises(InputError, match="alpha"):
                renyi_noninteger(rho_34, alpha, 2)
        for run in (partial(renyi_noninteger, rho_34, 0.5, 2), partial(von_neumann, rho_34, 2)):
            for epsilon in (0.0, -0.05, math.nan):
                with pytest.raises(InputError, match="epsilon"):
                    run(epsilon=epsilon)
        assert estimate._approximant.cache_info().misses == 0

    def test_bad_delta(self, rho_34):
        with pytest.raises(InputError, match="delta"):
            renyi_noninteger(rho_34, 0.5, 2, delta=1.0)
        # both key the approximant memo, so neither falls back to another route
        for run in (partial(renyi_noninteger, rho_34, 0.5, 2), partial(von_neumann, rho_34, 2)):
            for bad in ("bogus", True, None, "0.1"):
                with pytest.raises(InputError, match="delta"):
                    run(delta=bad)
            for bad in (2.5, True, "2", 0):
                with pytest.raises(InputError, match="rank"):
                    run(rank=bad)
                with pytest.raises(InputError, match="rank"):
                    run(delta=0.1, rank=bad)
        assert renyi_noninteger(rho_34, 0.5, 2, rank=np.int64(2)).breakdown["delta_route"] == "rank"

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

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_zero_approximant_reads_zero(self, mode):
        # -x ln x < 1e-11 on [delta, 1], so the fit trims to the zero
        # polynomial; it certifies as it stands, and its plan draws no shots
        rho = DensityMatrix.random_seeded(4, 3)
        rep = von_neumann(rho, 2, delta=1 - 1e-12, mode=mode, seed=1)
        assert (rep.value, rep.std_error, rep.shots_used) == (0.0, 0.0, 0)
        assert rep.breakdown["shrink"] == 1.0 and rep.breakdown["approximant_degree"] == 1
        assert rep.breakdown["mass_below_delta"] > 0.99 and "notice" in rep.breakdown
        # a degree-1 fit that does not trim keeps its bits
        kept = von_neumann(rho, 2, delta=1 - 1e-10, mode=mode, seed=1)
        assert kept.breakdown["approximant_degree"] == 1
        assert kept.breakdown["approximant_error"] == 5.0000004137643556e-11
        if mode == "exact":
            assert kept.value == 5.000000413639355e-11


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
        poly, degree, _ = estimate._approximant(
            "von_neumann", delta, 0.05 / (2 * rho.dim), estimate.MAX_APPROXIMANT_DEGREE
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


class TestApproximantMemo:
    """renyi_noninteger and von_neumann fit each (target, delta, eps', cap)
    once; a replay, whatever its k, reports exactly what a fresh fit does."""

    @staticmethod
    def _outcome(run, k):
        try:
            return repr(run(k))
        except ConvergenceError as exc:
            return f"{type(exc).__name__}: {exc} (best_residual={exc.best_residual!r})"

    @pytest.mark.parametrize("dim", [4, 8, 16])
    @pytest.mark.parametrize("alpha", [None, 1.5, 2.5], ids=["von-neumann", "renyi-1.5", "renyi-2.5"])
    def test_warm_reports_are_bit_identical(self, alpha, dim):
        rho = DensityMatrix.random_seeded(dim, 3)
        run = partial(von_neumann, rho) if alpha is None else partial(renyi_noninteger, rho, alpha)
        ks = (1, 2, 3, 4)
        cold = []
        for k in ks:
            estimate._approximant.cache_clear()
            cold.append(self._outcome(run, k))
        # the memo now holds the k = 4 fit, which every k replays
        warm = [self._outcome(run, k) for k in ks]
        assert warm == cold
        info = estimate._approximant.cache_info()
        assert (info.hits, info.misses, info.currsize) == (len(ks), 1, 1)

    def test_failure_replays_as_a_new_error(self, monkeypatch, rho_34):
        monkeypatch.setattr(estimate, "MAX_APPROXIMANT_DEGREE", 5)
        errors = []
        for k in (2, 2, 3):
            with pytest.raises(ConvergenceError, match="degree <= 5") as info:
                von_neumann(rho_34, k)
            errors.append(info.value)
        assert len({id(e) for e in errors}) == 3
        assert len({str(e) for e in errors}) == 1
        assert len({e.best_residual for e in errors}) == 1 and errors[0].best_residual > 0
        assert estimate._approximant.cache_info().hits == 2

    def test_degree_cap_is_part_of_the_key(self, monkeypatch, rho_34):
        degree = von_neumann(rho_34, 2).breakdown["approximant_degree"]
        assert degree > 3
        monkeypatch.setattr(estimate, "MAX_APPROXIMANT_DEGREE", degree - 2)
        with pytest.raises(ConvergenceError, match=f"degree <= {degree - 2}"):
            von_neumann(rho_34, 2)
        monkeypatch.undo()
        assert von_neumann(rho_34, 3).breakdown["approximant_degree"] == degree
        info = estimate._approximant.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    def test_user_delta_fits_once_across_states(self):
        states = [DensityMatrix.random_seeded(8, seed) for seed in range(3)]
        reps = [von_neumann(rho, 2, delta=0.1) for rho in states]
        assert len({rep.breakdown["approximant_degree"] for rep in reps}) == 1
        info = estimate._approximant.cache_info()
        assert (info.hits, info.misses) == (2, 1)


def _reference_fit(f, delta, eps_prime, max_degree):
    """The approximant scan as numpy.polynomial writes it: a chebvander
    matrix, the same lstsq, a Polynomial per degree, checked in complex
    arithmetic.  _fit_odd_approximant must match it bit for bit."""
    best_res, best = math.inf, None
    for d in range(1, max_degree + 1, 2):
        n_nodes = 4 * (d + 1)
        theta = (np.arange(n_nodes) + 0.5) * math.pi / n_nodes
        nodes = (1.0 + delta) / 2.0 + (1.0 - delta) / 2.0 * np.cos(theta)
        vander = np.polynomial.chebyshev.chebvander(nodes, d)[:, 1::2]
        coef, *_ = np.linalg.lstsq(vander, f(nodes), rcond=None)
        full = np.zeros(d + 1)
        full[1::2] = coef
        poly = Polynomial.from_cheb(full)
        grid = np.linspace(delta, 1.0, max(10 * d, 50))
        err = float(np.max(np.abs(np.real(poly(grid)) - f(grid))))
        if err <= eps_prime:
            return poly, d, err
        if err < best_res:
            best_res, best = err, d
    return None, best, best_res


class _FitCalled(Exception):
    pass


class TestFitKernel:
    """The degree search keeps every bit of the reference scan: coefficients,
    accepted degree and certified error, or a failure's best degree and
    error, on the (target, delta, eps', cap) the estimators hand it: spectrum
    and user deltas, D = 2-64, degrees just above a gallop probe (9, 17, 33,
    65, 67) and between the last probe, 127, and the cap, and scans failing
    at the cap."""

    CASES = {
        "vn-2-1": ("vn", 2, 1, "auto"),
        "vn-3-5": ("vn", 3, 5, "auto"),
        "vn-4-3": ("vn", 4, 3, "auto"),
        "vn-8-0": ("vn", 8, 0, "auto"),
        "vn-8-3": ("vn", 8, 3, "auto"),
        "vn-16-0-fails": ("vn", 16, 0, "auto"),
        "vn-2-0-delta-0.1": ("vn", 2, 0, 0.1),
        "vn-8-0-delta-0.1": ("vn", 8, 0, 0.1),
        "vn-16-0-delta-0.1": ("vn", 16, 0, 0.1),
        "vn-32-0-delta-0.05": ("vn", 32, 0, 0.05),
        "vn-64-0-delta-0.5": ("vn", 64, 0, 0.5),
        "renyi-0.5-2-0": (0.5, 2, 0, "auto"),
        "renyi-0.5-3-1": (0.5, 3, 1, "auto"),
        "renyi-0.5-4-1": (0.5, 4, 1, "auto"),
        "renyi-0.5-4-2": (0.5, 4, 2, "auto"),
        "renyi-0.5-4-0-delta-0.5": (0.5, 4, 0, 0.5),
        "renyi-1.5-8-0": (1.5, 8, 0, "auto"),
        "renyi-1.5-16-0": (1.5, 16, 0, "auto"),
        "renyi-1.5-32-0-fails": (1.5, 32, 0, "auto"),
        "renyi-1.5-16-1-delta-0.05": (1.5, 16, 1, 0.05),
        "renyi-1.5-32-0-delta-0.05": (1.5, 32, 0, 0.05),
        "renyi-2.5-2-0": (2.5, 2, 0, "auto"),
        "renyi-2.5-3-1": (2.5, 3, 1, "auto"),
        "renyi-2.5-32-0": (2.5, 32, 0, "auto"),
        "renyi-2.5-64-0": (2.5, 64, 0, "auto"),
        "renyi-2.5-8-2-delta-0.05": (2.5, 8, 2, 0.05),
    }
    # accepted degrees just above a gallop probe (7, 15, 31, 63) or above the last, 127
    EDGE_DEGREES = {
        "renyi-2.5-3-1": 9, "vn-2-0-delta-0.1": 17, "vn-3-5": 33, "vn-16-0-delta-0.1": 33,
        "renyi-1.5-32-0-delta-0.05": 65, "vn-32-0-delta-0.05": 67, "vn-8-3": 139, "vn-8-0": 147,
        "renyi-2.5-64-0": 163, "renyi-0.5-3-1": 171, "renyi-0.5-4-2": 191,
    }

    @staticmethod
    def _fit_args(monkeypatch, target, dim, seed, delta):
        """The arguments the estimator hands the fit, caught before it runs."""
        seen = []

        def catch(*args):
            seen.append(args)
            raise _FitCalled

        with monkeypatch.context() as patch:
            patch.setattr(estimate, "_fit_odd_approximant", catch)
            rho = DensityMatrix.random_seeded(dim, seed)
            with pytest.raises(_FitCalled):
                if target == "vn":
                    von_neumann(rho, 2, delta=delta)
                else:
                    renyi_noninteger(rho, target, 2, delta=delta)
        return seen[0]

    @staticmethod
    def _outcome(fit):
        poly, degree, err = fit
        return (None if poly is None else poly.cheb), degree, err

    @staticmethod
    def _fitted_degrees(monkeypatch, fit, args):
        """The degree of each lstsq solve that fit makes on args, in order."""
        lstsq, degrees = np.linalg.lstsq, []

        def counted(a, b, rcond):
            degrees.append(2 * a.shape[1] - 1)  # the odd rows T_1, T_3, ..., T_d
            return lstsq(a, b, rcond=rcond)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "lstsq", counted)
            outcome = fit(*args)
        return outcome, degrees

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_reference_scan(self, monkeypatch, case):
        args = self._fit_args(monkeypatch, *self.CASES[case])
        assert args[3] == estimate.MAX_APPROXIMANT_DEGREE
        got = self._outcome(estimate._fit_odd_approximant(*args))
        assert got == self._outcome(_reference_fit(*args))
        assert (got[0] is None) == case.endswith("-fails")
        if got[0] is None:
            assert got[1] == 199 and got[2] > args[2]
        assert got[1] == self.EDGE_DEGREES.get(case, got[1])

    @pytest.mark.parametrize("cap", [5, 6, 64, 65])
    @pytest.mark.parametrize(
        "case", ["renyi-2.5-2-0", "vn-2-1", "vn-4-3", "renyi-1.5-32-0-delta-0.05", "vn-32-0-delta-0.05"]
    )
    def test_matches_the_reference_scan_under_a_lower_cap(self, monkeypatch, case, cap):
        monkeypatch.setattr(estimate, "MAX_APPROXIMANT_DEGREE", cap)
        args = self._fit_args(monkeypatch, *self.CASES[case])
        assert args[3] == cap
        got = self._outcome(estimate._fit_odd_approximant(*args))
        assert got == self._outcome(_reference_fit(*args))
        if got[0] is None:
            assert got[1] <= cap

    @pytest.mark.parametrize("case", ["vn-2-1", "vn-8-0", "vn-32-0-delta-0.05", "renyi-2.5-64-0"])
    def test_a_success_fits_fewer_degrees_than_the_scan(self, monkeypatch, case):
        args = self._fit_args(monkeypatch, *self.CASES[case])
        (poly, degree, _), fitted = self._fitted_degrees(
            monkeypatch, estimate._fit_odd_approximant, args
        )
        _, scanned = self._fitted_degrees(monkeypatch, _reference_fit, args)
        assert poly is not None and scanned == list(range(1, degree + 1, 2))
        assert len(set(fitted)) == len(fitted) < len(scanned)
        assert degree in fitted and max(fitted) < 2 * degree + 1

    @pytest.mark.parametrize("cap", [5, 6, 64, 65, estimate.MAX_APPROXIMANT_DEGREE])
    def test_a_failure_fits_each_odd_degree_once(self, monkeypatch, cap):
        args = self._fit_args(monkeypatch, *self.CASES["vn-16-0-fails"])[:3] + (cap,)
        (poly, _, _), fitted = self._fitted_degrees(monkeypatch, estimate._fit_odd_approximant, args)
        assert poly is None
        assert sorted(fitted) == list(range(1, cap + 1, 2))

    @pytest.mark.parametrize(
        "target, dim, k, best",
        [
            ("vn", 16, 2, "(best 2.507e-03 at degree 199)"),
            ("vn", 32, 2, "(best 2.533e-03 at degree 199)"),
            (1.5, 32, 3, "(best 8.158e-05 at degree 199)"),
        ],
        ids=["vn-16-7", "vn-32-7", "renyi-1.5-32-7-k3"],
    )
    def test_known_failures_keep_their_message_and_residual(self, monkeypatch, target, dim, k, best):
        args = self._fit_args(monkeypatch, target, dim, 7, "auto")
        rho = DensityMatrix.random_seeded(dim, 7)
        with pytest.raises(ConvergenceError) as info:
            if target == "vn":
                von_neumann(rho, k)
            else:
                renyi_noninteger(rho, target, k)
        assert str(info.value) == (
            f"no odd approximant of degree <= 200 reaches error {args[2]:.3e} {best}"
        )
        assert info.value.best_residual == _reference_fit(*args)[2]

    def test_non_finite_coefficient_raises_as_the_reference(self, monkeypatch):
        lstsq = np.linalg.lstsq

        def poisoned(a, b, rcond):
            coef, *rest = lstsq(a, b, rcond=rcond)
            coef[-1] = np.nan
            return coef, *rest

        monkeypatch.setattr(np.linalg, "lstsq", poisoned)
        messages = []
        for fit in (estimate._fit_odd_approximant, _reference_fit):
            with pytest.raises(InputError) as info:
                fit(estimate._von_neumann_target, 0.25, 1e-3, 9)
            messages.append(str(info.value))
        assert messages == ["coefficient 1 is not finite: (nan+0j)"] * 2


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


class TestNormVerdicts:
    """Norm checks read poly's certified grid bound [M, M sec(pi d / 2N)]
    and take the exact norm only when 1 + 1e-9 lies within 1e-12 of it."""

    # target sup norm -> the check's verdict
    SCALES = {
        (1 + 1e-9) * (1 + 1e-12): "rejected",
        (1 + 1e-9) * (1 - 1e-12): "accepted",
        1 - 1e-12: "accepted",
        0.9: "accepted",
    }
    MESSAGES = {
        "estimate_chebyshev": "target polynomial must have sup norm at most 1; rescale it",
        "estimate_direct": "target polynomial must have sup norm at most 1; rescale it",
        "find_phases": "rescale the target: sup norm 1 exceeds 1",
        "parallel_qsp_run": "apply rescale_factors: layout 0, factor 0 has sup norm above 1",
    }

    @staticmethod
    def scaled(degree: int, norm: float) -> Polynomial:
        """An even series with Chebyshev 1-norm above 1, scaled by its
        eigensolved norm to the given sup norm."""
        rng = np.random.default_rng(degree)
        c = np.zeros(degree + 1)
        c[::2] = rng.normal(size=degree // 2 + 1) / (1.0 + np.arange(0, degree + 1, 2))
        c *= norm / poly._colleague_norms([tuple(map(complex, c))])[0]
        assert np.abs(c).sum() > 1.0
        return Polynomial.from_cheb(c)

    @staticmethod
    def verdict(call) -> str:
        try:
            call()
        except NotNonNegativeError:  # past the norm check
            pass
        except InputError as err:
            return str(err)
        except ConvergenceError:
            pass
        return "accepted"

    @pytest.mark.parametrize("degree", [6, 40])
    @pytest.mark.parametrize("norm", sorted(SCALES))
    def test_same_verdict_and_message(self, degree, norm, rho_34):
        calls = {
            "estimate_chebyshev": lambda p: estimate_chebyshev(p, rho_34, 2),
            "estimate_direct": lambda p: estimate_direct(p, rho_34, 2),
            "find_phases": find_phases,
            "parallel_qsp_run": lambda p: parallel_qsp_run([p], rho_34),
        }
        for name, call in calls.items():
            got = self.verdict(partial(call, self.scaled(degree, norm)))
            want = self.SCALES[norm]
            assert got == (self.MESSAGES[name] if want == "rejected" else want), name

    @pytest.mark.parametrize("degree", [6, 40])
    def test_exact_norm_only_near_the_limit(self, degree):
        # the grid decides 0.9; the other three need the exact norm, which is
        # kept on the target; no bound ever is
        for norm in self.SCALES:
            p = self.scaled(degree, norm)
            self.verdict(partial(estimate._check_target, p))
            assert hasattr(p, "_norm") == (norm != 0.9), norm
            if norm != 0.9:
                assert sup_norm(p) == pytest.approx(norm, rel=1e-14)

    def test_no_eigensolve_at_d64(self, monkeypatch):
        # a degree-593 target at D = 64: the verdict reads the grid, the
        # norms of the plan are polished, and no series reaches eigvals
        rng = np.random.default_rng(593)
        c = rng.normal(size=594) / (1.0 + np.arange(594))
        c *= 0.9 / dense_sup_norm(c)
        p = Polynomial.from_cheb(c)
        assert np.abs(c).sum() > 1.0
        rho = DensityMatrix.random_seeded(64, 7)
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
        rep = estimate_chebyshev(p, rho, 3)
        assert calls == []
        want = float(np.sum(np.polynomial.chebyshev.chebval(np.linalg.eigvalsh(rho.matrix), c)))
        assert rep.shots_used == 0 and abs(rep.value - want) <= 1e-9


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
    away); the single-stage cases did not move.  chebyshev, monomial and
    partition_auto were re-recorded when an importance draw over two or more
    runs began splitting its shots by run from a pilot's measured spread:
    their standard errors fell from 0.1187, 0.004479 and 0.005623 to 0.08278,
    0.002498 and 0.002258, and the draws sit 0.84, 1.73 and 1.05 standard
    errors from the exact values.  direct, chebyshev and chebyshev_pooled
    were re-recorded when a sampled plan began drawing all its stages' runs
    in one draw, stratified by run: (0.25369, 0.006840), (0.24673, 0.08278)
    and (0.21105, 0.005321) became (0.25310, 0.006864), (0.17998, 0.08376)
    and (0.20916, 0.005319), 0.22, 1.63 and 0.63 standard errors from the
    exact values; the single-stage cases did not move."""

    CASES = {
        "direct": (
            lambda rho: estimate_direct(
                Polynomial([0.1, -0.2, 0.3, 0, 0.2]), rho, 2,
                shots=20000, mode="sampled", seed=7,
            ),
            (0.25309981094256007, 0.006863861780651543, 20000),
        ),
        "chebyshev": (
            lambda rho: estimate_chebyshev(
                Polynomial([0.1, 0.2, -0.3, 0, 0.25, 0.1]), rho, 2,
                shots=20000, mode="sampled", seed=7,
            ),
            # three stages: the even part's low and high, and the odd part's high
            # (k_odd = 1 leaves it no low stage)
            (0.1799818115464002, 0.08375644096152793, 20000),
        ),
        "chebyshev_pooled": (
            lambda rho: estimate_chebyshev(
                Polynomial([0.1, 0.2, -0.3]), rho, 3, shots=20000, mode="sampled", seed=7,
            ),
            # both parts run sequentially, one stage each
            (0.20915803464225552, 0.005318833421350938, 20000),
        ),
        "monomial": (
            lambda rho: monomial_poly_trace(
                Polynomial([0.2, 0.5, 0.3, -0.1]), rho, 2,
                shots=20000, mode="sampled", seed=7,
            ),
            (1.0480560173862483, 0.002498070320169919, 20000),
        ),
        "renyi_auto": (
            lambda rho: renyi_integer(rho, 6, 2, mode="sampled", seed=8),
            (0.38364386978202547, 0.024636545238418087, 1463),
        ),
        "partition_auto": (
            lambda rho: partition_function(rho, 1.0, 2, epsilon=0.01, mode="sampled", seed=7),
            (1.248824795661077, 0.0022580248722944194, 73891),
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
    """estimate._execute's one draw, read back from stub stages.

    A stub stage's runs always succeed and read z_j on average, with
    coefficients c_j; the draw weights run j by c_j times its stage's scale."""

    @staticmethod
    def _plan(laws, scales=None, stream=(), reads=None):
        scales = scales or [1.0] * len(laws)

        def read(z, c):
            if reads is not None:
                reads.append(len(z))
            return joint_readout(np.ones(len(z)), z, coeffs=c)

        stages = [
            estimate._Stage(partial(read, z=z, c=c), scale) for (z, c), scale in zip(laws, scales)
        ]
        return estimate._Plan(
            stages, 0, 1, {}, partial(sum, start=Estimate(0.0, 0.0)), lambda: 1, stream=stream
        )

    @classmethod
    def _run(cls, laws, shots, mode, scales=None):
        return estimate._execute(cls._plan(laws, scales), shots, mode, 0)

    def test_split_matches_reference(self):
        # the reference is the draw's defining properties: a pilot of
        # ceil(sqrt(budget)) per stage when every run can also get a pilot
        # and a main shot, split over all runs by |c_j * scale|, and at least
        # one main shot per run; else each stage its share of the budget by
        # the 1-norm of its weights; all of the budget spent either way
        rng = np.random.default_rng(17)
        for trial in range(300):
            stages = int(rng.integers(1, 5))
            sizes = rng.integers(1, 5, stages).tolist()
            laws = [(rng.uniform(-1, 1, m), rng.choice([-1, 1], m) * rng.uniform(0.1, 2, m))
                    for m in sizes]
            scales = [float(rng.uniform(0.1, 10)) for _ in range(stages)]
            shots = int(rng.integers(1, 30) if trial % 4 == 0 else rng.integers(1, 10 ** 6 + 1))
            if shots < stages:
                with pytest.raises(InputError, match=f"budget {shots} is below the stage count"):
                    self._run(laws, shots, "sampled", scales)
                continue
            rep = self._run(laws, shots, "sampled", scales)
            split = rep.breakdown["stage_shots"]
            assert rep.shots_used == shots == sum(s["pilot"] + s["main"] for s in split)
            assert [s["runs"] for s in split] == sizes
            exact = self._run(laws, shots, "exact", scales)
            want = sum(s * float(np.dot(c, z)) for (z, c), s in zip(laws, scales))
            assert exact.value == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert exact.shots_used == 0 and "stage_shots" not in exact.breakdown
            weights = np.abs(np.concatenate([s * c for (_, c), s in zip(laws, scales)]))
            ends = np.cumsum(sizes).tolist()
            per_stage = lambda counts: [int(counts[e - m:e].sum()) for e, m in zip(ends, sizes)]
            pilot = stages * math.ceil(math.sqrt(shots))
            if not 2 <= sum(sizes) <= min(pilot, shots - pilot):
                norms = [float(weights[e - m:e].sum()) for e, m in zip(ends, sizes)]
                assert [s["pilot"] for s in split] == [0] * stages
                assert [s["main"] for s in split] == sim._neyman_split(shots, norms).tolist()
                continue
            firsts = sim._neyman_split(pilot, weights / weights.sum())
            assert [s["pilot"] for s in split] == per_stage(firsts)
            assert all(s["main"] >= s["runs"] for s in split)

    @pytest.mark.parametrize("shots", [None, 2.5, True, "auto"])
    def test_non_integer_budget_rejected(self, shots):
        laws = [([0.1], [1.0]), ([0.2, -0.3], [0.5, 0.5])]
        with pytest.raises(InputError, match="needs an integer shot count"):
            self._run(laws, shots, "sampled")
        assert self._run(laws, shots, "exact").shots_used == 0

    def test_budget_below_stage_count_rejected(self):
        with pytest.raises(InputError, match="budget 2 is below the stage count 3"):
            self._run([([0.1], [1.0])] * 3, 2, "sampled")

    def test_plan_draws_on_its_first_stage_stream(self, monkeypatch):
        # each stage is read once, exactly, and the one draw of every stage's
        # runs is made on the plan's child of the seed's sampler, with or
        # without room for a pilot
        draws, draw = [], estimate.joint_readout

        def recording(q, z, shots, sampler, **kwargs):
            draws.append((len(z), shots, sampler.seed, sampler.path))
            return draw(q, z, shots, sampler, **kwargs)

        monkeypatch.setattr(estimate, "joint_readout", recording)
        laws = [([0.1, 0.2], [1.0, -0.5])] + [([0.3], [1.0])] * 3
        for shots in (8, 10 ** 4):
            draws.clear()
            reads = []
            estimate._execute(self._plan(laws, stream=(3,), reads=reads), shots, "sampled", 5)
            assert reads == [2, 1, 1, 1]
            assert draws == [(5, shots, 5, (3,))]
        # each builder names the stream its first stage was drawn on when every
        # stage carried one: a Hadamard stage of part i (2i), else its
        # factorized or term run (2i + 1), renyi_integer's swap test (1,), and
        # the root for the monomial estimator
        rho = DensityMatrix.diagonal([0.75, 0.25])
        cases = [
            (estimate._direct_plan(2, Polynomial([0.1, 0, 0.3, 0, 0.2]), rho, 0.1), (0,)),
            (estimate._direct_plan(2, Polynomial([0, 0, 0.3, 0, 0.2]), rho, 0.1), (1,)),
            (estimate._chebyshev_plan(2, Polynomial([0.1, 0.2, -0.3, 0, 0.25]), rho, 0.1), (0,)),
            (estimate._chebyshev_plan(2, Polynomial([0, 0.2, 0, 0.3]), rho, 0.1), (1,)),
            (estimate._chebyshev_plan(2, Polynomial([0, 0, 0, 0, 0.5]), rho, 0.1), (1,)),
            (estimate._renyi_integer_plan(2, rho, 3, 0.1), (1,)),
            (estimate._monomial_plan(2, [0.2, 0.5], rho, 0.1), ()),
        ]
        assert [plan.stream for plan, _ in cases] == [stream for _, stream in cases]


class _ScriptedSampler(ShotSampler):
    """A ShotSampler whose first row-wise draw, a stratified draw's pilot,
    returns SCRIPT(pilot shots per run); every other draw is the real one."""

    SCRIPT = None

    def child(self, index):
        return type(self)(self.seed, self.path + (int(index),))

    def multinomial_rows(self, shots, pvals):
        if getattr(self, "drawn", False):
            return super().multinomial_rows(shots, pvals)
        self.drawn = True
        return np.array(self.SCRIPT(np.asarray(shots)))


class TestPilotSplit:
    """The split follows what the pilot measured, never the simulator's exact values.

    estimate_direct on diag(0.75, 0.25) with p = 0.1 - 0.2x + 0.3x^2 + 0.2x^4
    at k = 2 has a Hadamard stage (scale D * ||p_low||) and a parallel-run
    stage (scale K^2), one run each, so the pilot's counts per run are each
    stage's."""

    P = Polynomial([0.1, -0.2, 0.3, 0, 0.2])
    BUDGET = 20000
    PILOT = 142  # ceil(sqrt(20000))

    @staticmethod
    def _cells(n, wide):
        # +1 and -1 in equal parts (the widest spread), or +1 alone (none)
        return [n // 2, n - n // 2, 0] if wide else [n, 0, 0]

    def _scripted(self, rho, monkeypatch, low_wide, high_wide):
        script = lambda n: [self._cells(n[0], low_wide), self._cells(n[1], high_wide)]
        monkeypatch.setattr(estimate, "ShotSampler", _ScriptedSampler)
        monkeypatch.setattr(_ScriptedSampler, "SCRIPT", staticmethod(script))
        rep = estimate_direct(self.P, rho, 2, shots=self.BUDGET, mode="sampled", seed=1)
        return rep, rep.breakdown["stage_shots"], script

    def _reference(self, rep, script, floor=True):
        """Each stage's (pilot, main) from the scripted pilot counts alone."""
        scales = np.array([2 * sup_norm(split_constituents(self.P, 2)[0]), rep.breakdown["K"] ** 2])
        share = scales / scales.sum()
        firsts = sim._neyman_split(2 * self.PILOT, share)
        n_plus, n_minus, _ = np.array(script(firsts), dtype=float).T
        mean = (n_plus - n_minus) / firsts
        var = (n_plus + n_minus - (n_plus - n_minus) * mean) / np.maximum(firsts - 1, 1)
        spread = np.sqrt(np.maximum(var, 1.0 / firsts) if floor else var)
        mains = sim._neyman_split(self.BUDGET - firsts.sum(), share * spread)
        return list(zip(firsts.tolist(), mains.tolist()))

    def test_split_follows_scripted_pilot_counts(self, rho_34, monkeypatch):
        unscripted = estimate_direct(self.P, rho_34, 2, shots=self.BUDGET, mode="sampled", seed=1)
        wide_low, low_share, low_script = self._scripted(rho_34, monkeypatch, True, False)
        wide_high, high_share, high_script = self._scripted(rho_34, monkeypatch, False, True)
        # the same exact values, opposite splits, each the scripted pilot's
        assert low_share[0]["main"] > 5 * low_share[1]["main"]
        assert high_share[1]["main"] > 5 * high_share[0]["main"]
        for rep, split, script in ((wide_low, low_share, low_script),
                                   (wide_high, high_share, high_script)):
            assert [(s["pilot"], s["main"]) for s in split] == self._reference(rep, script)
            assert rep.shots_used == self.BUDGET
            assert sum(s["pilot"] + s["main"] for s in split) == self.BUDGET
        assert unscripted.breakdown["stage_shots"] not in (low_share, high_share)

    def test_zero_spread_pilot_keeps_a_floor(self, rho_34, monkeypatch):
        # a scripted pilot with no spread on a stage whose shots do spread
        rep, split, script = self._scripted(rho_34, monkeypatch, True, False)
        assert [(s["pilot"], s["main"]) for s in split] == self._reference(rep, script)
        # without the floor of 1/sqrt(its pilot shots) it would get one main shot
        assert self._reference(rep, script, floor=False)[1][1] == 1 < split[1]["main"]

    def test_constant_stage_is_never_starved(self, rho_34):
        # the low part 0.3 reads +1 on every Hadamard shot: its spread is zero
        # in truth, so it keeps one outcome's worth, 1/sqrt(its pilot shots),
        # and its main shots read the constant exactly
        p = Polynomial([0.3, 0, 0.2, 0, 0.1])
        rep = estimate_direct(p, rho_34, 2, shots=self.BUDGET, mode="sampled", seed=3)
        low, high = rep.breakdown["stage_shots"]
        assert low["pilot"] >= 1 and low["main"] >= 1 and high["main"] >= 1
        scales = np.array([0.6, rep.breakdown["K"] ** 2])
        assert [low["pilot"], high["pilot"]] == sim._neyman_split(
            2 * self.PILOT, scales / scales.sum()
        ).tolist()
        assert rep.breakdown["w_low"] == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize(
        "shots, pilot",
        [(3, 0), (11, 0), (12, 0), (15, 4), (16, 4), (17, 0), (400, 20), (20000, 142)],
    )
    def test_spends_the_budget_and_reproduces(self, rho_34, shots, pilot):
        # three one-run Hadamard stages: a budget without room for a pilot of
        # ceil(sqrt(shots)) per stage and a main shot per run gives each stage
        # its share by scale, in one multinomial each
        polys = [Polynomial([0.1, -0.2]), Polynomial([0, 0, 0.3]), Polynomial([0.2, 0, 0, 0.2])]
        stages = [estimate._hadamard_stage(p, rho_34) for p in polys]
        runs = [
            estimate._execute(
                estimate._Plan(stages, 0, 1, {}, partial(sum, start=Estimate(0.0, 0.0)),
                               lambda: 1, stream=(0,)),
                shots, "sampled", 11,
            )
            for _ in range(2)
        ]
        assert runs[0].shots_used == shots
        split = runs[0].breakdown["stage_shots"]
        assert sum(s["pilot"] for s in split) == 3 * pilot
        assert [s["pilot"] >= 1 for s in split] == [pilot > 0] * 3
        assert sum(s["pilot"] + s["main"] for s in split) == shots
        assert all(s["main"] >= 1 for s in split)
        assert json.dumps(runs[0].to_dict()) == json.dumps(runs[1].to_dict())
        # the three-stage Chebyshev plan of 14 runs spends and reproduces too
        p = Polynomial([0.1, -0.2, 0.3, 0, 0.2])
        reps = [estimate_chebyshev(p, rho_34, 3, shots=shots, mode="sampled", seed=11)
                for _ in range(2)]
        assert reps[0].shots_used == shots
        assert json.dumps(reps[0].to_dict()) == json.dumps(reps[1].to_dict())

    def test_single_stage_reports_no_split(self, rho_34):
        # one stage takes the whole budget; its record is the stage's draw
        rep = monomial_poly_trace(
            Polynomial([0.2, 0.5, 0.3]), rho_34, 2, shots=500, mode="sampled", seed=2
        )
        (stage,) = rep.breakdown["stage_shots"]
        assert stage["pilot"] + stage["main"] == rep.shots_used == 500

    def test_importance_draws_are_recorded(self, rho_34):
        # every sampled report records each stage's runs, pilot and main shots
        mono = Polynomial([0.2, 0.5, 0.3, -0.1])
        rep = monomial_poly_trace(mono, rho_34, 2, shots=500, mode="sampled", seed=2)
        assert rep.breakdown["stage_shots"] == [{"runs": 3, "pilot": 23, "main": 477}]
        assert "stage_shots" not in monomial_poly_trace(mono, rho_34, 2).breakdown
        part = partition_function(rho_34, 1.0, 2, epsilon=0.01, mode="sampled", seed=7)
        assert part.breakdown["stage_shots"] == [{"runs": 6, "pilot": 272, "main": 73619}]
        # a Chebyshev plan's stages: even low, even high, odd high
        p = Polynomial([0.1, 0.2, -0.3, 0, 0.25, 0.1])
        rep = estimate_chebyshev(p, rho_34, 2, shots=20000, mode="sampled", seed=7)
        stages = rep.breakdown["stage_shots"]
        assert [s["runs"] for s in stages] == [
            1, rep.breakdown["even"]["term_count"], rep.breakdown["odd"]["term_count"]
        ]
        assert sum(s["pilot"] for s in stages) == 3 * self.PILOT
        assert "stage_shots" not in estimate_chebyshev(p, rho_34, 2).breakdown


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


def _degree_10_target() -> Polynomial:
    rng = np.random.default_rng(10)
    return 0.5 * (random_parity_target(rng, 10) + random_parity_target(rng, 9))


class TestCalibrationBeyondSmallStates:
    """Sampled estimators on random D = 8, 16 and 32 states over 200 seeds:
    the mean sits within 5 SEM of the exact value, the mean std_error within
    15% of the measured spread, and at least 93% of seeds within 2 std_error
    of it.  Every draw here is stratified by run (each stage's record shows a
    pilot), including estimate_direct's, whose low Hadamard stage is a run
    that always succeeds beside the high parallel run.  Over 2000 seeds, the
    chebyshev case at D = 16 reads a mean std_error 0.986 times the spread
    and 95.1% of seeds inside 2 std_error, so the 200-seed bounds test the
    draw, not chance."""

    RUNS = {
        "monomial": lambda rho, **kw: monomial_poly_trace(
            Polynomial([0.2, 0.5, 0.3, -0.1, 0.2, -0.15]), rho, 2, **kw
        ),
        "partition": lambda rho, **kw: partition_function(rho, 1.0, 2, epsilon=0.01, **kw),
        "chebyshev": lambda rho, **kw: estimate_chebyshev(_degree_10_target(), rho, 3, **kw),
        "direct": lambda rho, **kw: estimate_direct(
            Polynomial([0.1, -0.2, 0.3, 0, 0.2]), rho, 2, **kw
        ),
    }

    @pytest.mark.parametrize("dim", [8, 16, 32])
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_calibrated(self, name, dim):
        run, rho = self.RUNS[name], DensityMatrix.random_seeded(dim, dim)
        exact = run(rho).value
        shots = {} if name == "partition" else {"shots": 20000}
        reps = [run(rho, mode="sampled", seed=s, **shots) for s in range(200)]
        assert all(s["pilot"] > 0 for r in reps for s in r.breakdown["stage_shots"])
        if name == "direct":  # the Hadamard stage and the parallel run, one run each
            assert [s["runs"] for s in reps[0].breakdown["stage_shots"]] == [1, 1]
        values = np.array([r.value for r in reps])
        errors = np.array([r.std_error for r in reps])
        spread = float(np.std(values, ddof=1))
        assert abs(values.mean() - exact) <= 5 * spread / math.sqrt(len(values))
        assert errors.mean() == pytest.approx(spread, rel=0.15)
        assert np.mean(np.abs(values - exact) <= 2 * errors) >= 0.93


class TestBatchedStages:
    """Each stage is one array pass, however many terms, and a sampled plan
    is one draw, however many stages: one pilot and one main row-wise
    multinomial over all its runs.

    Wall-clock is too noisy to guard in tier-1, so these count calls.
    """

    @staticmethod
    def _count_degree40(monkeypatch) -> tuple[dict, int, int]:
        counts = {"samplers": 0, "runs": 0, "multinomial_rows": 0}
        init = ShotSampler.__init__

        def counting_init(self, *args, **kwargs):
            counts["samplers"] += 1
            init(self, *args, **kwargs)

        def counting(name):
            method = getattr(ShotSampler, name)

            def counted(self, *args, **kwargs):
                counts[name] += 1
                return method(self, *args, **kwargs)

            return counted

        runs = estimate._layout_runs

        def counting_runs(*args, **kwargs):
            counts["runs"] += 1
            return runs(*args, **kwargs)

        monkeypatch.setattr(ShotSampler, "__init__", counting_init)
        monkeypatch.setattr(ShotSampler, "multinomial_rows", counting("multinomial_rows"))
        monkeypatch.setattr(estimate, "_layout_runs", counting_runs)
        rng = np.random.default_rng(40)
        p = 0.5 * (random_parity_target(rng, 40) + random_parity_target(rng, 39))
        rho = DensityMatrix.random_seeded(4, 3)
        rep = estimate_chebyshev(p, rho, 3, shots=10 ** 5, mode="sampled", seed=1)
        parts = [rep.breakdown[name] for name in ("even", "odd")]
        assert len(rep.breakdown["stage_shots"]) > 2
        return counts, len(parts), sum(part["term_count"] for part in parts)

    def test_one_run_batch_and_draw_per_stage(self, monkeypatch):
        counts, parts, terms = self._count_degree40(monkeypatch)
        assert terms > 10 * parts
        # the seed's sampler and the plan's child stream
        assert counts["samplers"] <= 2
        assert counts["runs"] <= parts
        assert counts["multinomial_rows"] == 2

    def test_guard_fails_a_per_term_loop(self, monkeypatch):
        def per_term(coeffs, layout, rho):
            def read():
                q, z = zip(*(
                    estimate._layout_runs(sim._Layout(layout.series, *rows), rho)
                    for rows in zip(layout.index[:, None], layout.threads[:, None])
                ))
                return joint_readout(np.concatenate(q), np.concatenate(z), coeffs=coeffs)

            return estimate._Stage(read)

        draw = sim._draw

        def per_stage(cells, c, bounds, norms, n, sampler):
            shares = sim._neyman_split(n, norms).tolist()
            return [
                part for (a, b), norm, m in zip(bounds, norms, shares)
                for part in draw(cells[a:b], c[a:b], [(0, b - a)], [norm], m, sampler)
            ]

        monkeypatch.setattr(estimate, "_term_stage", per_term)
        monkeypatch.setattr(sim, "_draw", per_stage)
        counts, parts, _ = self._count_degree40(monkeypatch)
        assert counts["runs"] > parts
        assert counts["multinomial_rows"] > 2

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
        # booleans round-trip as JSON booleans, numpy's included
        seq = json.loads(json.dumps(estimate_chebyshev(Polynomial([0, 1]), rho_34, 1).to_dict()))
        assert seq["breakdown"]["odd"]["sequential"] is True
        rep = estimate_chebyshev(Polynomial([0, 0, 0, 0, 0.5, 0.5]), rho_34, 2)
        record = json.loads(json.dumps(rep.to_dict()))
        assert record == rep.to_dict()
        assert record["breakdown"]["depth_formula_discrepancy"] is True
        flags = replace(rep, breakdown={"flag": np.bool_(True), "flags": np.array([False])})
        assert json.loads(json.dumps(flags.to_dict()))["breakdown"] == {
            "flag": True, "flags": [False],
        }


def _seven_estimators(rho) -> dict:
    """Each estimator bound to valid inputs on rho, called as f(k, **keywords)."""
    return {
        "estimate_direct": partial(estimate_direct, Polynomial([0.5, 0, 0.5]), rho),
        "estimate_chebyshev": partial(estimate_chebyshev, chebyshev_polynomial(6), rho),
        "monomial_poly_trace": partial(monomial_poly_trace, Polynomial([0.2, 0.5, 0.3]), rho),
        "partition_function": partial(partition_function, rho, 1.0),
        "renyi_integer": partial(renyi_integer, rho, 3),
        "renyi_noninteger": partial(renyi_noninteger, rho, 1.5),
        "von_neumann": partial(von_neumann, rho),
    }


class TestExecutorChecks:
    """The checks every estimator shares: mode, thread count and seed."""

    @pytest.mark.parametrize("name", sorted(_seven_estimators(None)))
    @pytest.mark.parametrize("mode", ["Exact", "sample", None])
    def test_misspelt_mode_fails_before_any_read(self, rho_34, monkeypatch, name, mode):
        def no_read(*args, **kwargs):
            raise AssertionError("a stage was read")

        # every read-out, exact or sampled, goes through _read, the stage
        # reads directly and the executor's draw through joint_readout
        for module, reader in itertools.product((sim, estimate), ("joint_readout", "_read")):
            monkeypatch.setattr(module, reader, no_read)
        with pytest.raises(InputError, match="mode must be 'exact' or 'sampled'"):
            _seven_estimators(rho_34)[name](2, shots=100, mode=mode)

    @pytest.mark.parametrize("name", sorted(_seven_estimators(None)))
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan], ids=repr)
    def test_bad_epsilon_fails_before_any_read(self, rho_34, monkeypatch, name, mode, epsilon):
        def no_read(*args, **kwargs):
            raise AssertionError("a stage was read")

        for module, reader in itertools.product((sim, estimate), ("joint_readout", "_read")):
            monkeypatch.setattr(module, reader, no_read)
        with pytest.raises(InputError, match=f"epsilon must be positive, got {epsilon}"):
            _seven_estimators(rho_34)[name](2, epsilon=epsilon, shots=100, mode=mode, seed=1)

    @pytest.mark.parametrize("name", sorted(_seven_estimators(None)))
    @pytest.mark.parametrize("k", [0, 2.5, True, "2", math.nan], ids=repr)
    def test_bad_thread_count(self, rho_34, name, k):
        with pytest.raises(InputError, match="thread count"):
            _seven_estimators(rho_34)[name](k)

    @pytest.mark.parametrize("name", sorted(_seven_estimators(None)))
    def test_numpy_thread_count(self, rho_34, name):
        est = _seven_estimators(rho_34)[name]
        assert est(np.int64(2)).to_dict() == est(2).to_dict()
        sampled = dict(mode="sampled", shots=400, seed=3)
        assert est(np.int64(2), **sampled).to_dict() == est(2, **sampled).to_dict()

    @pytest.mark.parametrize("seed", [1.5, "x", -1, True, np.float64(2.0)], ids=repr)
    def test_bad_seed_is_named_in_either_mode(self, rho_34, seed):
        p = Polynomial([0.5, 0, 0.5])
        with pytest.raises(InputError, match="seed"):
            estimate_direct(p, rho_34, 2, shots=100, mode="sampled", seed=seed)
        # exact mode builds the root sampler too, so it rejects the seed as well
        with pytest.raises(InputError, match="seed"):
            estimate_direct(p, rho_34, 2, seed=seed)


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


def test_one_shot_stages_report_their_variance_bounds():
    # two stages of one shot each: each stage's standard error is its
    # weight (D ||P_low|| = 1.2 and K^2 = 0.5), not 0
    rep = estimate_direct(
        Polynomial([0.1, 0.2, 0.3, 0, 0.2]), DensityMatrix.random_seeded(4, 1), 2,
        shots=2, mode="sampled", seed=1,
    )
    assert [(s["pilot"], s["main"]) for s in rep.breakdown["stage_shots"]] == [(0, 1), (0, 1)]
    assert rep.value == pytest.approx(1.7, abs=1e-12)
    assert rep.std_error == pytest.approx(math.hypot(1.2, 0.5), rel=1e-12)
    exact = estimate_direct(
        Polynomial([0.1, 0.2, 0.3, 0, 0.2]), DensityMatrix.random_seeded(4, 1), 2
    )
    assert abs(rep.value - exact.value) < rep.std_error
