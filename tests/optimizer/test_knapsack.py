"""Tests for the knapsack solvers, incl. the FPTAS (1-eps) guarantee."""

import os
import random
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.exceptions import OptimizationError
from repro.optimizer.knapsack import (
    INT32_COST_LIMIT,
    _result,
    band_lows,
    knapsack_exact,
    knapsack_fptas,
    knapsack_greedy,
)

#: Seeds the oracle tests' draws; CI reruns them at a fresh random seed.
SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260808"))


@dataclass(frozen=True)
class Item:
    benefit: float
    cost: int


def brute_force(items, capacity):
    """Exhaustive optimum for tiny instances."""
    best = 0.0
    n = len(items)
    for mask in range(1 << n):
        cost = benefit = 0
        for i in range(n):
            if mask >> i & 1:
                cost += items[i].cost
                benefit += items[i].benefit
        if cost <= capacity:
            best = max(best, benefit)
    return best


def scaled_priced(items, capacity, eps, max_states):
    """The FPTAS's input as its DP sees it: the free items, the priced
    ``(index, item)`` pairs, their scaled benefits and the effective
    epsilon (``None`` for the last two when nothing is priced)."""
    free = [i for i, item in enumerate(items)
            if item.cost == 0 and item.benefit > 0]
    priced = [
        (i, item) for i, item in enumerate(items)
        if item.cost > 0 and item.benefit > 0 and item.cost <= capacity
    ]
    if not priced:
        return free, priced, None, None

    max_benefit = max(item.benefit for _, item in priced)
    n = len(priced)
    scale = eps * max_benefit / n
    if scale <= 0.0:  # subnormal benefits: degrade to unit weights
        scale = max_benefit if max_benefit > 0 else 1.0
    total_scaled = sum(
        int(item.benefit // scale) for _, item in priced
    )
    effective_eps = eps
    if total_scaled > max_states:
        scale *= total_scaled / max_states
        effective_eps = eps * total_scaled / max_states
    scaled = [max(1, int(item.benefit // scale)) for _, item in priced]
    return free, priced, scaled, effective_eps


def full_width_fptas(items, capacity, eps=0.1, max_states=60_000):
    """``knapsack_fptas`` as it was before its rows were narrowed: every
    item sweeps all ``n_states``, neither cut to the states reachable
    before it nor to the band of states that can still end at or above
    the greedy floor.  Kept as the oracle for the band-limited loop."""
    free, priced, scaled, effective_eps = scaled_priced(
        items, capacity, eps, max_states
    )
    if not priced:
        return _result(items, free, effective_eps=0.0, states=0)
    n = len(priced)
    n_states = sum(scaled) + 1

    INF = np.iinfo(np.int64).max // 4
    dp = np.full(n_states, INF, dtype=np.int64)
    dp[0] = 0
    improved: list[np.ndarray] = []
    for (_, item), sb in zip(priced, scaled):
        candidate = dp[:-sb] + item.cost
        better_tail = candidate < dp[sb:]
        dp[sb:] = np.where(better_tail, candidate, dp[sb:])
        better = np.zeros(n_states, dtype=bool)
        better[sb:] = better_tail
        improved.append(better)

    feasible = np.nonzero(dp <= capacity)[0]
    best_state = int(feasible[-1]) if len(feasible) else 0

    chosen: list[int] = []
    state = best_state
    limit = n  # only items with index < limit may explain the state
    while state > 0:
        for idx in range(limit - 1, -1, -1):
            if improved[idx][state]:
                chosen.append(priced[idx][0])
                state -= scaled[idx]
                limit = idx
                break
        else:
            raise AssertionError("knapsack reconstruction failed")

    return _result(
        items, free + chosen, effective_eps=effective_eps,
        states=n_states,
    )


ITEMS = st.lists(
    st.tuples(
        st.floats(0.0, 100.0, allow_nan=False),
        st.integers(0, 50),
    ).map(lambda t: Item(*t)),
    min_size=0,
    max_size=10,
)


class TestFptas:
    def test_empty(self):
        result = knapsack_fptas([], 100)
        assert result.indices == []
        assert result.benefit == 0

    def test_zero_capacity_takes_free_items(self):
        items = [Item(5.0, 0), Item(3.0, 10)]
        result = knapsack_fptas(items, 0)
        assert result.indices == [0]

    def test_all_fit(self):
        items = [Item(1.0, 1), Item(2.0, 2), Item(3.0, 3)]
        result = knapsack_fptas(items, 10)
        assert sorted(result.indices) == [0, 1, 2]

    def test_classic_instance(self):
        # Optimal picks items 1+2 (benefit 9) over the greedy-ratio pick.
        items = [Item(6.0, 5), Item(5.0, 4), Item(4.0, 3)]
        result = knapsack_fptas(items, 7, eps=0.05)
        assert result.benefit == pytest.approx(9.0)

    def test_invalid_inputs(self):
        with pytest.raises(OptimizationError):
            knapsack_fptas([Item(1.0, -1)], 10)
        with pytest.raises(OptimizationError):
            knapsack_fptas([Item(-1.0, 1)], 10)
        with pytest.raises(OptimizationError):
            knapsack_fptas([], -1)
        with pytest.raises(OptimizationError):
            knapsack_fptas([], 1, eps=0)

    def test_no_duplicate_selection(self):
        items = [Item(10.0, 3)] * 4
        result = knapsack_fptas(items, 6, eps=0.05)
        assert len(result.indices) == len(set(result.indices)) == 2

    def test_result_select(self):
        items = [Item(6.0, 5), Item(5.0, 4)]
        result = knapsack_fptas(items, 5)
        chosen = result.select(items)
        assert all(isinstance(i, Item) for i in chosen)

    @settings(max_examples=60, deadline=None)
    @given(items=ITEMS, capacity=st.integers(0, 120))
    def test_guarantee_vs_brute_force(self, items, capacity):
        eps = 0.1
        result = knapsack_fptas(items, capacity, eps=eps)
        optimum = brute_force(items, capacity)
        assert result.cost <= capacity
        assert result.benefit >= (1 - eps) * optimum - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(items=ITEMS, capacity=st.integers(0, 120))
    def test_selection_is_consistent(self, items, capacity):
        result = knapsack_fptas(items, capacity)
        assert result.cost == sum(items[i].cost for i in result.indices)
        assert result.benefit == pytest.approx(
            sum(items[i].benefit for i in result.indices)
        )

    @pytest.mark.diff_seed
    @seed(SEED)
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        items=st.lists(
            st.tuples(
                st.floats(0.0, 1e6, allow_nan=False), st.integers(0, 200)
            ).map(lambda t: Item(*t)),
            max_size=25,
        ),
        capacity=st.integers(0, 1500),
        eps=st.sampled_from([0.01, 0.1, 0.5, 2.0]),
        max_states=st.sampled_from([3, 40, 60_000]),  # 3 and 40 bind
        # 2**22 puts summed costs on both sides of INT32_COST_LIMIT:
        # the oracle checks the int32 and the int64 DP.
        multiplier=st.sampled_from([1, 2**22]),
    )
    def test_reachable_prefix_dp_equals_the_full_width_dp(
        self, items, capacity, eps, max_states, multiplier
    ):
        items = [Item(item.benefit, item.cost * multiplier)
                 for item in items]
        capacity *= multiplier
        result = knapsack_fptas(items, capacity, eps, max_states)
        assert result == full_width_fptas(items, capacity, eps, max_states)
        optimum = knapsack_exact(items, capacity).benefit
        assert result.benefit >= (1 - result.effective_eps) * optimum - 1e-6

    @pytest.mark.diff_seed
    @seed(SEED)
    @settings(max_examples=8, deadline=None, database=None)
    @given(
        draw=st.integers(0, 2**32),
        n=st.integers(100, 450),
        fraction=st.floats(0.3, 0.7),
        eps=st.sampled_from([0.05, 0.1, 0.25]),
    )
    def test_band_dp_equals_the_full_width_dp_where_the_band_binds(
        self, draw, n, fraction, eps
    ):
        """Instances shaped like FIN's (449 items, half the summed cost
        as capacity): the greedy floor is high, so most of every row
        lies below the band."""
        rng = random.Random(draw)
        items = [
            Item(rng.uniform(0.0, 1e4) * rng.random() ** 2,
                 rng.randint(1, 10**5))
            for _ in range(n)
        ]
        capacity = int(fraction * sum(item.cost for item in items))
        _, priced, scaled, _ = scaled_priced(items, capacity, eps, 60_000)
        reaches = list(accumulate(scaled[:-1], initial=1))
        lows = band_lows(scaled, [item.cost for _, item in priced],
                         capacity)
        banded = sum(reach - low for reach, low in zip(reaches, lows))
        assert banded < sum(reaches) / 2
        result = knapsack_fptas(items, capacity, eps)
        assert result == full_width_fptas(items, capacity, eps)

    @pytest.mark.parametrize("total", [INT32_COST_LIMIT - 1,
                                       INT32_COST_LIMIT])
    @pytest.mark.parametrize("fits", [1, 2, 3])
    def test_summed_cost_at_the_dtype_boundary(self, total, fits):
        # Three items summing to ``total``: the int32 DP just below the
        # limit, the int64 DP at it; ``fits`` of them fit the capacity.
        costs = [total // 3, total // 3, total - 2 * (total // 3)]
        items = [Item(b, c) for b, c in zip([5.0, 3.0, 4.0], costs)]
        capacity = sum(sorted(costs)[:fits])
        result = knapsack_fptas(items, capacity)
        assert result == full_width_fptas(items, capacity)
        assert result.benefit == pytest.approx(brute_force(items, capacity))

    def test_summed_cost_past_int32_under_a_small_capacity(self):
        # The capacity fits int32 but ten items' costs sum past 2**31,
        # so the DP runs in int64.  (An int32 DP keyed on the capacity
        # would also be right here: min(dp, candidate) caps every state
        # at INF and every priced cost is at most the capacity.)
        items = [Item(float(i + 1), 2**28 - i) for i in range(10)]
        capacity = 2**28  # any one item fits, no two do
        assert capacity < INT32_COST_LIMIT
        assert sum(item.cost for item in items) > 2**31
        result = knapsack_fptas(items, capacity)
        assert result == full_width_fptas(items, capacity)
        assert result.cost <= capacity
        assert result.benefit == pytest.approx(brute_force(items, capacity))

    def test_max_states_cap_reports_effective_eps(self):
        items = [Item(float(i + 1), i + 1) for i in range(40)]
        result = knapsack_fptas(items, 100, eps=0.01, max_states=50)
        assert result.effective_eps > 0.01
        assert result.cost <= 100


@pytest.mark.parametrize(
    "solver", [knapsack_fptas, knapsack_exact, knapsack_greedy],
    ids=["fptas", "exact", "greedy"],
)
@pytest.mark.parametrize("benefit", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_non_finite_benefit_is_rejected_by_index(solver, benefit):
    items = [Item(1.0, 1), Item(benefit, 1)]
    with pytest.raises(OptimizationError, match="item 1 has non-finite"):
        solver(items, 10)


class TestExact:
    def test_matches_brute_force(self):
        items = [Item(6.0, 5), Item(5.0, 4), Item(4.0, 3), Item(2.0, 2)]
        for capacity in range(0, 15):
            result = knapsack_exact(items, capacity)
            assert result.benefit == pytest.approx(
                brute_force(items, capacity)
            )
            assert result.cost <= capacity

    @settings(max_examples=40, deadline=None)
    @given(items=ITEMS, capacity=st.integers(0, 120))
    def test_exact_is_optimal(self, items, capacity):
        result = knapsack_exact(items, capacity)
        assert result.benefit == pytest.approx(brute_force(items, capacity))

    def test_rejects_huge_state_space(self):
        items = [Item(1.0, 10**9 + i) for i in range(200)]
        with pytest.raises(OptimizationError):
            knapsack_exact(items, 10**12, max_capacity_states=10)


class TestGreedy:
    def test_half_approximation(self):
        items = [Item(6.0, 5), Item(5.0, 4), Item(4.0, 3)]
        for capacity in range(0, 13):
            result = knapsack_greedy(items, capacity)
            optimum = brute_force(items, capacity)
            assert result.benefit >= optimum / 2 - 1e-9
            assert result.cost <= capacity

    def test_single_item_fallback(self):
        # Ratio-greedy would pick many small items; the single large
        # item is better.
        items = [Item(10.0, 10)] + [Item(1.2, 1)] * 5
        result = knapsack_greedy(items, 10)
        assert result.benefit == pytest.approx(10.0)

    @settings(max_examples=40, deadline=None)
    @given(items=ITEMS, capacity=st.integers(0, 120))
    def test_feasible(self, items, capacity):
        result = knapsack_greedy(items, capacity)
        assert result.cost <= capacity


class TestCrossSolver:
    @settings(max_examples=40, deadline=None)
    @given(items=ITEMS, capacity=st.integers(0, 120))
    def test_fptas_at_least_greedy_quality_bound(self, items, capacity):
        fptas = knapsack_fptas(items, capacity, eps=0.05)
        exact = knapsack_exact(items, capacity)
        assert fptas.benefit <= exact.benefit + 1e-9
        assert fptas.benefit >= 0.95 * exact.benefit - 1e-9
