"""Iterative-allocation simulator: sequences, costs, analytic bounds."""

import math

import pytest

from parsearch.allocation import (
    CostModel,
    SolverProfile,
    ia_total_cost,
    min_width_cost,
    ratio_bounds,
    sweep,
)
from parsearch.common import ConfigError


def unit_cost(w_plus, b, max_width=1 << 20):
    """Iterative allocation under the continuous model with unit times: the
    total cost is the sum of the widths ceil(b^i) run up to W+."""
    return ia_total_cost(SolverProfile(w_plus), b, CostModel("continuous"), max_width)


class TestGeometricSequence:
    def test_doubling(self):
        assert unit_cost(8, 2.0) == (1 + 2 + 4 + 8, 4)

    def test_base_one_and_a_half(self):
        assert unit_cost(4, 1.5) == (1 + 2 + 3 + 4, 4)

    def test_single_iteration(self):
        assert unit_cost(1, 3.0) == (1, 1)

    def test_rejects_bad_base(self):
        with pytest.raises(ConfigError):
            unit_cost(4, 1.0)
        with pytest.raises(ConfigError):
            unit_cost(4, math.nan)

    def test_rejects_infinite_base_and_overflowing_width(self):
        with pytest.raises(ConfigError):
            unit_cost(4, math.inf)
        with pytest.raises(ConfigError, match="overflows"):
            # (1e200)**2 is not a float
            unit_cost(10**201, 1e200, max_width=10**500)


class TestRatioBounds:
    def test_doubling_values_exact(self):
        worst, avg = ratio_bounds(2.0)
        assert worst == 4.0
        assert avg == 8.0 / 3.0

    def test_large_finite_base_does_not_overflow(self):
        # b * b is inf above about 1.3e154; the bounds themselves stay finite.
        for b in (1e200, 1e308):
            worst, avg = ratio_bounds(b)
            assert worst == b
            assert avg == 2.0

    def test_rejects_base_at_most_one(self):
        with pytest.raises(ConfigError):
            ratio_bounds(1.0)
        with pytest.raises(ConfigError):
            ratio_bounds(math.nan)

    def test_worst_bound_minimized_by_doubling(self):
        best_b = min(
            (1.01 + i * 0.01 for i in range(300)),
            key=lambda b: ratio_bounds(b)[0],
        )
        assert abs(best_b - 2.0) < 0.02


class TestIterativeAllocation:
    def test_min_width_one_is_free_of_overhead(self):
        profile = SolverProfile(1, makespan=1.0, fail_time=1.0)
        for model in (CostModel("discrete"), CostModel("continuous")):
            total, iters = ia_total_cost(profile, 2.0, model)
            assert iters == 1
            assert total == min_width_cost(profile, model)

    def test_discrete_cost_proportional_to_width(self):
        # with E <= 1 every run fits one billing unit: cost(v) = v
        model = CostModel("discrete")
        for v in (1, 3, 8, 100):
            profile = SolverProfile(v, makespan=1.0, fail_time=1.0)
            assert min_width_cost(profile, model) == v

    def test_continuous_cost_is_exact_sum(self):
        # widths 1,2,4: two failures of 0.4h plus success of 2h on 4 HAUs
        profile = SolverProfile(3, makespan=2.0, fail_time=0.4)
        total, iters = ia_total_cost(profile, 2.0, CostModel("continuous"))
        assert iters == 3
        assert abs(total - (0.4 * 1 + 0.4 * 2 + 2.0 * 4)) <= 1e-12

    def test_discrete_cost_with_and_without_spare_reuse(self):
        # Widths 1, 2, 4. With reuse both failures fit the first hour of
        # their HAUs (1 + 1); the success extends those two HAUs by two
        # hours each (2 * 2) and pays two fresh HAUs for two hours (2 * 2).
        # Without reuse every run pays its own whole hours: 1 + 2 + 2 * 4.
        profile = SolverProfile(3, makespan=2.0, fail_time=0.4)
        for reuse, want in ((True, 10.0), (False, 11.0)):
            model = CostModel("discrete", spare_reuse=reuse)
            assert ia_total_cost(profile, 2.0, model) == (want, 3), reuse

    def test_doubling_never_pays_more_than_four_times(self):
        model = CostModel("discrete")
        worst = 0.0
        for w_plus in range(1, 1025):
            profile = SolverProfile(w_plus, makespan=1.0, fail_time=1.0)
            total, _ = ia_total_cost(profile, 2.0, model, max_width=4096)
            worst = max(worst, total / min_width_cost(profile, model))
        assert worst <= 4.0

    def test_mean_ratio_with_spare_reuse(self):
        # E < 1 lets iterations share billing units; the average-case bound
        # 8/3 holds in that regime (it does not at E = 1 exactly).
        model = CostModel("discrete", spare_reuse=True)
        ratios = []
        for w_plus in range(1, 1025):
            profile = SolverProfile(w_plus, makespan=1.0, fail_time=0.5)
            total, _ = ia_total_cost(profile, 2.0, model, max_width=4096)
            ratios.append(total / min_width_cost(profile, model))
        mean = sum(ratios) / len(ratios)
        assert mean <= 8.0 / 3.0 + 0.05
        assert max(ratios) <= 4.0

    def test_reuse_never_costs_more(self):
        for e in (0.25, 0.5, 0.9, 1.0):
            for w_plus in (1, 5, 17, 100, 513):
                profile = SolverProfile(w_plus, makespan=1.0, fail_time=e)
                with_reuse, _ = ia_total_cost(
                    profile, 2.0, CostModel("discrete", spare_reuse=True)
                )
                without, _ = ia_total_cost(
                    profile, 2.0, CostModel("discrete", spare_reuse=False)
                )
                assert with_reuse <= without + 1e-9

    def test_rejects_nan_base(self):
        with pytest.raises(ConfigError):
            ia_total_cost(SolverProfile(4), math.nan)

    def test_rejects_infinite_base_and_overflowing_width(self):
        with pytest.raises(ConfigError):
            ia_total_cost(SolverProfile(4), math.inf)
        with pytest.raises(ConfigError):
            ratio_bounds(math.inf)
        with pytest.raises(ConfigError, match="overflows"):
            ia_total_cost(SolverProfile(10**250), 1e200, max_width=10**300)
        with pytest.raises(ConfigError, match="sweep cap"):
            sweep(1e308, 2)

    def test_rejects_a_finite_duration_whose_cost_overflows(self):
        # Each cost term is finite on its own; their sum is not.
        for model, kwargs in (
            (CostModel("discrete"), {"fail_time": 1e308}),
            (CostModel("discrete", spare_reuse=False), {"fail_time": 1e308}),
            (CostModel("continuous"), {"makespan": 1e308}),
        ):
            with pytest.raises(ConfigError, match="duration 1e"):
                sweep(2.0, 4, model, **kwargs)
        total, _ = ia_total_cost(SolverProfile(1, makespan=1e308))
        assert total == 1e308

    def test_profile_rejects_bad_makespan_and_fail_time(self):
        for makespan in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="makespan"):
                SolverProfile(4, makespan=makespan)
        for fail_time in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="fail_time"):
                SolverProfile(4, fail_time=fail_time)
        assert SolverProfile(4, fail_time=0.0).duration(1) == 0.0

    def test_exhausts_max_width(self):
        profile = SolverProfile(1000, makespan=1.0, fail_time=1.0)
        with pytest.raises(RuntimeError):
            ia_total_cost(profile, 2.0, CostModel("discrete"), max_width=64)

    def test_sweep_rows(self):
        rows = sweep(2.0, 32)
        assert len(rows) == 32
        assert all(r.ratio <= 4.0 + 1e-9 for r in rows)
        assert rows[0].ratio == 1.0


class TestEmpiricalBridge:
    def test_min_width_from_capped_engine_runs(self):
        from parsearch.allocation import empirical_min_width
        from parsearch.domains import TilePuzzle, random_scramble

        p = TilePuzzle(random_scramble(3, 14, 2))
        width = empirical_min_width(p, per_worker_node_limit=300, max_workers=64)
        assert width >= 1
        # the returned width solves under the cap (sanity re-run)
        from parsearch.engine import EngineConfig, hdastar

        sol = hdastar(p, EngineConfig(workers=width, node_limit=300))
        assert sol.solved
