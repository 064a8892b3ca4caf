"""0/1 knapsack solvers for relationship selection (Section 4.2.2).

The paper reduces relationship selection to 0/1 knapsack (Proposition 1)
and adopts an FPTAS.  Three solvers are provided:

* :func:`knapsack_fptas` - benefit-scaling dynamic program over
  ``min-cost-to-reach-benefit`` states.  With scale factor
  ``K = eps * max_benefit / n`` the selected set's benefit is within
  ``(1 - eps)`` of optimal.  The DP rows are numpy-vectorized over a
  *band* of states, and exact reconstruction uses per-item improvement
  bitmaps: walking backwards, the *latest* item that improved a state
  is the one the optimal chain used, and its predecessor state must
  have been improved by an earlier item - so the chain is recovered
  without storing the full DP table.

  The band.  A ratio-greedy pass under the capacity (or the best
  single item, whichever is larger) gives ``floor``, the scaled
  benefit of one feasible set, so the best state is at least
  ``floor``.  A state ``s`` after item ``i`` can still end at or above
  ``floor`` only if ``s >= floor - (scaled sum of the items after
  i)``; item ``i`` updates only those target states, from sources
  ``max(0, that - sb_i)`` up to the states reachable before it.  The
  result is exact - the same as the DP over every state:

  - the band's lower edge only rises from row to row, and row ``i``'s
    sources start at row ``i - 1``'s lower edge.  So every state a row
    reads or writes lies inside every earlier band, and its ``dp``
    value and improvement bit are the full DP's.  States below a band
    go stale, and no later row reads them;
  - the best state is at least ``floor``, inside every band, so the
    final feasibility scan finds the same state;
  - the walk back starts there, and each step back by ``sb_i`` lands
    at or above row ``i - 1``'s lower edge, so every bit it reads is
    stored and equal to the full DP's.

  On FIN at the microbenchmark's half budget the band sums to about a
  tenth of the full rows' widths.  The bitmaps are packed eight states
  a byte into consecutive slices of one pooled array, sized up front
  from the band widths, and every item's candidate and improvement
  rows are computed into two reused buffers (``out=``).
  A ``max_states`` cap bounds memory on large skewed instances; when the
  cap binds, ``K`` grows and the guarantee degrades gracefully (the
  effective epsilon is reported on the result).

  The DP runs in ``int32`` when the priced items' summed cost is below
  ``INT32_COST_LIMIT`` (``np.iinfo(np.int32).max // 4``) and in
  ``int64`` otherwise.  Keyed on the summed cost, the bound needs no
  argument about the DP's updates: every finite state is at most that
  sum, below ``INF``, and ``INF + cost`` stays below ``2**31``.  Both
  dtypes select the same items.

* :func:`knapsack_exact` - textbook cost-dimension DP, exponential-free
  but only practical for small integer capacities; used by the tests as
  ground truth.

* :func:`knapsack_greedy` - benefit/cost-ratio greedy (with the classic
  max-single-item fix giving a 1/2 approximation); used in the ablation
  benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Protocol, Sequence

import numpy as np

from repro.exceptions import OptimizationError

#: Below this summed cost of the priced items the FPTAS runs in int32.
INT32_COST_LIMIT = np.iinfo(np.int32).max // 4


class KnapsackItem(Protocol):
    """Anything with a float ``benefit`` and an int ``cost``."""

    benefit: float
    cost: int


@dataclass
class KnapsackResult:
    """Selected indices plus solver telemetry."""

    indices: list[int]
    benefit: float
    cost: int
    effective_eps: float = 0.0
    states: int = 0

    def select(self, items: Sequence) -> list:
        return [items[i] for i in self.indices]


def _validated(items: Sequence[KnapsackItem], capacity: int) -> None:
    if capacity < 0:
        raise OptimizationError("knapsack capacity must be >= 0")
    for i, item in enumerate(items):
        if not math.isfinite(item.benefit):
            raise OptimizationError(
                f"item {i} has non-finite benefit {item.benefit!r}"
            )
        if item.cost < 0:
            raise OptimizationError(f"item {i} has negative cost")
        if item.benefit < 0:
            raise OptimizationError(f"item {i} has negative benefit")


def knapsack_fptas(
    items: Sequence[KnapsackItem],
    capacity: int,
    eps: float = 0.1,
    max_states: int = 60_000,
) -> KnapsackResult:
    """FPTAS for 0/1 knapsack; returns a (1-eps)-optimal selection."""
    _validated(items, capacity)
    if eps <= 0:
        raise OptimizationError("eps must be > 0")

    free = [i for i, item in enumerate(items)
            if item.cost == 0 and item.benefit > 0]
    priced = [
        (i, item) for i, item in enumerate(items)
        if item.cost > 0 and item.benefit > 0 and item.cost <= capacity
    ]
    if not priced:
        return _result(items, free, effective_eps=0.0, states=0)

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
        # Cap memory: coarsen the scale; the guarantee loosens to the
        # reported effective epsilon.
        scale *= total_scaled / max_states
        effective_eps = eps * total_scaled / max_states

    scaled = [max(1, int(item.benefit // scale)) for _, item in priced]
    costs = [item.cost for _, item in priced]
    n_states = sum(scaled) + 1

    total_cost = sum(costs)
    dtype = np.int32 if total_cost < INT32_COST_LIMIT else np.int64
    INF = np.iinfo(dtype).max // 4
    dp = np.full(n_states, INF, dtype=dtype)
    dp[0] = 0
    # Item i reads the band's sources ``lows[i]`` up to ``reaches[i]``
    # (1 + the scaled benefits of the items ahead of it) and writes
    # them shifted by its scaled benefit.  Each improvement row is
    # computed into one reused bool buffer and kept packed, eight
    # states a byte, in one pooled array, row i from byte
    # ``offsets[i]`` on.
    reaches = list(accumulate(scaled[:-1], initial=1))
    lows = band_lows(scaled, costs, capacity)
    offsets = list(accumulate(
        ((reach - low + 7) // 8 for reach, low in zip(reaches, lows)),
        initial=0,
    ))
    improved = np.empty(offsets[-1], dtype=np.uint8)
    candidates = np.empty(n_states, dtype=dtype)
    better = np.empty(n_states, dtype=bool)
    for cost, sb, low, reach, start, end in zip(
        costs, scaled, lows, reaches, offsets, offsets[1:]
    ):
        # dp[s] = min(dp[s], dp[s - sb] + cost), done in place on the
        # shifted view (INF + cost stays < 2*INF, no overflow).
        width = reach - low
        candidate = np.add(dp[low:reach], cost, out=candidates[:width])
        target = dp[low + sb:reach + sb]
        row = np.less(candidate, target, out=better[:width])
        np.minimum(target, candidate, out=target)
        # Bit s - sb - low of row i: this item improved state s.
        improved[start:end] = np.packbits(row, bitorder="little")

    # Every finite state is at most total_cost, which fits the dtype;
    # a larger capacity is compared as that sum.
    feasible = np.nonzero(dp <= min(capacity, total_cost))[0]
    best_state = int(feasible[-1]) if len(feasible) else 0

    chosen: list[int] = []
    state = best_state
    limit = n  # only items with index < limit may explain the state
    while state > 0:
        found = False
        for idx in range(limit - 1, -1, -1):
            before = state - scaled[idx]
            if lows[idx] <= before < reaches[idx]:
                bit = before - lows[idx]
                if improved[offsets[idx] + (bit >> 3)] >> (bit & 7) & 1:
                    chosen.append(priced[idx][0])
                    state = before
                    limit = idx
                    found = True
                    break
        if not found:  # pragma: no cover - dp[0]=0 guarantees progress
            raise OptimizationError("knapsack reconstruction failed")

    return _result(
        items, free + chosen, effective_eps=effective_eps,
        states=n_states,
    )


def band_lows(
    scaled: Sequence[int], costs: Sequence[int], capacity: int
) -> list[int]:
    """Per item, the first source state its DP row reads.

    ``floor`` is the larger of the best single item's scaled benefit
    and a ratio-greedy pass's under ``capacity`` (every item's cost is
    at most ``capacity``), so some state at or above it is feasible.
    Item ``i``'s targets start at ``floor`` less the scaled benefits of
    the items from ``i + 1`` on, so its sources start ``scaled[i]``
    lower: ``floor`` less the scaled benefits from ``i`` on."""
    ranked = sorted(range(len(scaled)), key=lambda i: -scaled[i] / costs[i])
    remaining, greedy = capacity, 0
    for i in ranked:
        if costs[i] <= remaining:
            remaining -= costs[i]
            greedy += scaled[i]
    floor = max(greedy, max(scaled))
    tails = list(accumulate(reversed(scaled)))[::-1]
    return [max(0, floor - tail) for tail in tails]


def knapsack_exact(
    items: Sequence[KnapsackItem],
    capacity: int,
    max_capacity_states: int = 2_000_000,
) -> KnapsackResult:
    """Exact cost-dimension DP.  Raises when the state space is too big."""
    _validated(items, capacity)
    free = [i for i, item in enumerate(items)
            if item.cost == 0 and item.benefit > 0]
    priced = [
        (i, item) for i, item in enumerate(items)
        if item.cost > 0 and item.benefit > 0 and item.cost <= capacity
    ]
    if not priced:
        return _result(items, free, states=0)

    gcd = 0
    for _, item in priced:
        gcd = math.gcd(gcd, item.cost)
    gcd = math.gcd(gcd, capacity) or 1
    cap = capacity // gcd
    if (cap + 1) * len(priced) > max_capacity_states * 64:
        raise OptimizationError(
            "exact knapsack state space too large; use knapsack_fptas"
        )

    dp = np.zeros(cap + 1, dtype=np.float64)
    improved: list[np.ndarray] = []
    for _, item in priced:
        cost = item.cost // gcd
        shifted = np.full(cap + 1, -np.inf)
        shifted[cost:] = dp[: cap + 1 - cost]
        candidate = shifted + item.benefit
        better = candidate > dp
        dp = np.where(better, candidate, dp)
        improved.append(better)

    state = int(np.argmax(dp))
    chosen: list[int] = []
    limit = len(priced)
    while state > 0:
        found = False
        for idx in range(limit - 1, -1, -1):
            if improved[idx][state]:
                chosen.append(priced[idx][0])
                state -= priced[idx][1].cost // gcd
                limit = idx
                found = True
                break
        if not found:
            break  # remaining capacity unused by any item
    return _result(items, free + chosen, states=cap + 1)


def knapsack_greedy(
    items: Sequence[KnapsackItem], capacity: int
) -> KnapsackResult:
    """Benefit/cost greedy with the best-single-item fallback."""
    _validated(items, capacity)
    free = [i for i, item in enumerate(items)
            if item.cost == 0 and item.benefit > 0]
    priced = [
        (i, item) for i, item in enumerate(items)
        if item.cost > 0 and item.benefit > 0 and item.cost <= capacity
    ]
    ranked = sorted(
        priced, key=lambda pair: (-pair[1].benefit / pair[1].cost, pair[0])
    )
    chosen: list[int] = []
    remaining = capacity
    greedy_benefit = 0.0
    for index, item in ranked:
        if item.cost <= remaining:
            chosen.append(index)
            remaining -= item.cost
            greedy_benefit += item.benefit
    if priced:
        best_index, best_item = max(
            priced, key=lambda pair: pair[1].benefit
        )
        if best_item.benefit > greedy_benefit:
            chosen = [best_index]
    return _result(items, free + chosen, states=0)


def _result(
    items: Sequence[KnapsackItem],
    indices: list[int],
    effective_eps: float = 0.0,
    states: int = 0,
) -> KnapsackResult:
    ordered = sorted(set(indices))
    return KnapsackResult(
        indices=ordered,
        benefit=sum(items[i].benefit for i in ordered),
        cost=sum(items[i].cost for i in ordered),
        effective_eps=effective_eps,
        states=states,
    )
