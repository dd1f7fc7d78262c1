"""Partition-form cores: demand construction, LP feasibility, certificates.

A coalition's demand is its equilibrium utility under an expectation
about how outsiders arrange themselves: rational (outsiders maximize
their own total), merging (one outside block), cautious (worst case over
outside arrangements), singleton (outsiders stay alone).  The core for a
model is the feasible set of

    sum_{i in S} x_i >= demand(S)  for every proper nonempty S,
    sum_i x_i = v(grand coalition),

checked with one LP that maximizes the minimum constraint slack.  The
same LP read the other way gives the least core (epsilon* = -max min
slack).  When the core is empty a balanced collection of weights whose
weighted demands exceed the grand-coalition value is extracted as an
emptiness certificate and validated before it is returned
(Bondareva-Shapley: the core is empty iff such a collection exists).

Both LPs have at most K + 1 <= 11 variables and are solved by one small
dense dual simplex in numpy, started from the K singleton rows, whose
multipliers are nonnegative for both LPs, so no phase 1 is needed.  The
witness is the optimal vertex it stops at, and the certificate is the
optimal multipliers of min sum y s.t. y(S) >= d_S, the dual of the
max-margin balanced collection.  Rows are ordered by coalition mask and
every tie goes to the lowest mask, so the answers do not depend on the
order of the demand dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from ._exact_lp import exact_lp_max
from .equilibrium import UtilityTable, ne_utilities, utility_table
from .errors import InvalidArgument, NumericalFailure
from .model import Coalition, Partition, Scenario
# enumerate_partitions is unused here; perfbench's restore test asserts the binding
from .model import enumerate_partitions  # noqa: F401

CORE_MAX_USERS = 10

#: |max-min-slack| below which the exact-arithmetic cross-check runs (K <= 5).
_DEGENERACY_BAND = 1e-7
_EXACT_GRID = 10**12


class ExpectationModel(str, Enum):
    RATIONAL = "rational"
    MERGING = "merging"
    CAUTIOUS = "cautious"
    SINGLETON = "singleton"


@dataclass(frozen=True)
class BalancedCertificate:
    """Balanced weights proving core emptiness.

    ``weights[mask]`` is the weight on that coalition; for every player
    the weights of the coalitions containing them sum to one, and the
    weighted demand total exceeds the grand-coalition value by
    ``margin`` > 0.
    """

    weights: dict[int, float]
    margin: float


@dataclass(frozen=True)
class CoreResult:
    verdict: str  # "nonempty" | "empty"
    allocation: np.ndarray | None
    certificate: BalancedCertificate | None
    slack: float | None

    @property
    def nonempty(self) -> bool:
        return self.verdict == "nonempty"


@dataclass(frozen=True)
class LeastCoreResult:
    epsilon_star: float
    allocation: np.ndarray


# ---------------------------------------------------------------------------
# demands


def _arrangement_values(scenario: Scenario, rgs: tuple[int, ...],
                        table: UtilityTable | None) -> dict[int, float]:
    """Block utilities of the partition with restricted growth string ``rgs``."""
    if table is not None:
        return table.entries[rgs]
    return ne_utilities(scenario, Partition.from_rgs(rgs))


def _fixed_arrangement(k: int, mask: int, model: ExpectationModel) -> tuple[int, ...]:
    """RGS of S = ``mask`` facing one merged outside block, or outsiders alone.

    Merging labels a user 0 when it sits on user 1's side and 1 otherwise.
    Singleton numbers blocks by first appearance, S being one block.
    """
    inside = [mask >> u & 1 for u in range(k)]
    if model is ExpectationModel.MERGING:
        return tuple(int(side != inside[0]) for side in inside)
    labels, s_label, fresh = [], None, 0
    for member in inside:
        if member and s_label is not None:
            labels.append(s_label)
        else:
            if member:
                s_label = fresh
            labels.append(fresh)
            fresh += 1
    return tuple(labels)


def _table_demands(table: UtilityTable, model: ExpectationModel) -> dict[int, float]:
    """Rational or cautious demands of every proper coalition, in one table pass.

    Each partition holding S as a block is one arrangement of S's
    outsiders, whose total is the partition total minus S's own value.
    Cautious keeps the smallest own value.  Rational keeps the smallest
    own value among arrangements whose outsider total is within
    1e-12 (relative) of the largest.
    """
    grand = (1 << table.k) - 1
    rows = [(sum(values.values()), values) for values in table.entries.values()]
    floor = dict.fromkeys(range(1, grand), -math.inf)
    if model is ExpectationModel.RATIONAL:
        best = floor.copy()
        for total, values in rows:
            for mask, own in values.items():
                if mask != grand and total - own > best[mask]:
                    best[mask] = total - own
        floor = {mask: b - 1e-12 * max(1.0, abs(b)) for mask, b in best.items()}
    demand = dict.fromkeys(range(1, grand), math.inf)
    for total, values in rows:
        for mask, own in values.items():
            if mask != grand and own < demand[mask] and total - own >= floor[mask]:
                demand[mask] = own
    return demand


def coalition_demand(
    scenario: Scenario,
    coalition: Coalition,
    model: ExpectationModel,
    *,
    table: UtilityTable | None = None,
) -> float:
    """Equilibrium utility a deviating coalition expects, per the model.

    Rational keeps the outside arrangements maximizing the outsiders'
    total utility and among ties returns the smallest value for the
    deviator (conservative, deterministic).  Cautious takes the worst
    case over arrangements.  Both are read from the utility table, which
    is built when none is given, and equal ``demand_vector``'s value for
    the mask.  Merging and singleton fix one arrangement each.
    """
    k = scenario.k
    grand = (1 << k) - 1
    if coalition.mask == grand or not 0 < coalition.mask < grand:
        raise InvalidArgument("demands are defined for proper nonempty coalitions")
    model = ExpectationModel(model)
    if model in (ExpectationModel.RATIONAL, ExpectationModel.CAUTIOUS):
        return demand_vector(scenario, model, table=table)[coalition.mask]

    rgs = _fixed_arrangement(k, coalition.mask, model)
    return _arrangement_values(scenario, rgs, table)[coalition.mask]


def demand_vector(
    scenario: Scenario,
    model: ExpectationModel,
    *,
    table: UtilityTable | None = None,
) -> dict[int, float]:
    """Demand of every proper nonempty coalition, keyed by mask (ascending)."""
    model = ExpectationModel(model)
    if model in (ExpectationModel.RATIONAL, ExpectationModel.CAUTIOUS):
        if table is None:
            table = utility_table(scenario)
        return _table_demands(table, model)
    grand = (1 << scenario.k) - 1
    return {
        mask: coalition_demand(scenario, Coalition(mask), model, table=table)
        for mask in range(1, grand)
    }


def grand_value(scenario: Scenario, *, table: UtilityTable | None = None) -> float:
    """Utility of the grand coalition (its interference-free maximum rate)."""
    grand = (1 << scenario.k) - 1
    return _arrangement_values(scenario, (0,) * scenario.k, table)[grand]


# ---------------------------------------------------------------------------
# the core LP


def _incidence(masks: list[int], k: int) -> np.ndarray:
    """0/1 integer matrix: entry (r, i) is 1 when user i+1 is in ``masks[r]``."""
    return (np.array(masks)[:, None] >> np.arange(k)) & 1


#: Smallest basis-representation entry a ratio test pivots on.  Bases of
#: the core LPs are 0/+-1 matrices of order <= 11, so a nonzero entry is
#: at least 1/|det| (above 1e-4) and rounding noise is near 1e-15.
_PIVOT_TOL = 1e-9


def _dual_simplex(c: np.ndarray, g: np.ndarray, d: np.ndarray, basis: list[int],
                  a_eq: np.ndarray, b_eq: np.ndarray):
    """min c.z s.t. g z >= d and a_eq z = b_eq, z free, by a dense dual simplex.

    ``basis`` lists rows of ``g`` that, with every equality row, form a
    dual feasible start (nonnegative multipliers).  Each pivot enters the
    most violated row and removes the basic row whose multiplier reaches
    zero first; both choices break ties to the lowest row index.  In
    exact arithmetic a basis can recur only within a run of degenerate
    (zero-step) pivots, so the first recurrence switches to Bland's rule
    (lowest violated row enters), which cannot cycle: termination needs
    no iteration cap.  Bases seen before the switch are forgotten, since
    Bland's rule may pass through them again.  A recurrence under Bland's
    rule, a singular basis or a ratio test with no candidate raises
    :class:`NumericalFailure`.

    Returns (z, basis, y): the optimal vertex, its basic inequality rows
    and their multipliers, so that c = a_eq^T mu + g[basis]^T y.
    """
    n_eq = len(b_eq)
    basis = list(basis)
    tol = 1e-12 * max(1.0, float(np.abs(d).max(initial=0.0)),
                      float(np.abs(b_eq).max(initial=0.0)))
    a_b = np.vstack([a_eq, g[basis]])
    rhs = np.concatenate([b_eq, d[basis]])
    seen: set[tuple[int, ...]] = set()
    bland = False
    while True:
        key = tuple(sorted(basis))
        if key in seen:
            if bland:
                raise NumericalFailure("core LP cycled under Bland's rule")
            bland = True
            seen.clear()
        seen.add(key)
        try:
            inv = np.linalg.inv(a_b)
        except np.linalg.LinAlgError:
            raise NumericalFailure("core LP basis is singular") from None
        z = inv @ rhs
        y = (c @ inv)[n_eq:]
        residual = g @ z - d
        violated = np.flatnonzero(residual < -tol)
        if not len(violated):
            return z, basis, y
        enter = int(violated[0] if bland else np.argmin(residual))
        w = (g[enter] @ inv)[n_eq:]
        candidates = np.flatnonzero(w > _PIVOT_TOL)
        if not len(candidates):
            raise NumericalFailure("core LP ratio test found no leaving row")
        ratios = np.maximum(y[candidates], 0.0) / w[candidates]
        ties = candidates[ratios <= ratios.min() + 1e-12]
        leave = min(ties, key=basis.__getitem__)
        basis[leave] = enter
        a_b[n_eq + leave] = g[enter]
        rhs[n_eq + leave] = d[enter]


def _singleton_rows(k: int) -> list[int]:
    """Rows of the singleton coalitions when rows run over masks 1..2^k - 2."""
    return [(1 << i) - 1 for i in range(k)]


def _solve_slack_lp(demands: dict[int, float], v_k: float, k: int):
    """max t s.t. sum_{i in S} x_i - t >= d_S, sum x = v_k.

    Returns (x, t) at the dual simplex's optimal vertex.  The allocation
    maximizes the minimum constraint slack, so a feasible core yields a
    strictly interior witness when one exists.  The singleton basis is
    dual feasible: every singleton row carries multiplier 1/k.
    """
    masks = sorted(demands)
    g = np.full((len(masks), k + 1), -1.0)
    g[:, :k] = _incidence(masks, k)
    d = np.array([demands[mask] for mask in masks])
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    c = np.zeros(k + 1)
    c[k] = -1.0
    z, _, _ = _dual_simplex(c, g, d, _singleton_rows(k), a_eq, np.array([float(v_k)]))
    return z[:k], float(z[k])


def _solve_balanced_lp(demands: dict[int, float], k: int):
    """max sum lambda_S d_S over balanced weights; returns (weights, value).

    Solved as its dual, min sum y s.t. y(S) >= d_S, from the singleton
    basis (multipliers 1): the optimal multipliers are the weights.
    Balancedness keeps every weight in [0, 1].
    """
    masks = sorted(demands)
    g = _incidence(masks, k).astype(np.float64)
    d = np.array([demands[mask] for mask in masks])
    _, basis, y = _dual_simplex(np.ones(k), g, d, _singleton_rows(k),
                                np.empty((0, k)), np.empty(0))
    weights = {masks[row]: float(w) for row, w in sorted(zip(basis, y)) if w > 1e-15}
    return weights, sum(w * demands[mask] for mask, w in weights.items())


#: perfbench traces the LP layer under this name.
linprog = _dual_simplex


def _exact_nonempty(demands: dict[int, float], v_k: float, k: int, tol_lp: float) -> bool:
    """Exact-arithmetic verdict on demands rounded to a 1e-12 grid."""
    def grid(x: float) -> Fraction:
        return Fraction(round(x * _EXACT_GRID), _EXACT_GRID)

    masks = sorted(demands)
    a_ub = []
    b_ub = []
    for mask in masks:
        row = [Fraction(-1) if mask >> i & 1 else Fraction(0) for i in range(k)]
        row.append(Fraction(1))
        a_ub.append(row)
        b_ub.append(-grid(demands[mask]))
    a_eq = [[Fraction(1)] * k + [Fraction(0)]]
    c = [Fraction(0)] * k + [Fraction(1)]
    status, value, _ = exact_lp_max(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=[grid(v_k)])
    if status != "optimal":
        raise NumericalFailure(f"exact cross-check LP returned {status}")
    return value >= -grid(tol_lp)


def validate_certificate(cert: BalancedCertificate, demands: dict[int, float],
                         v_k: float, k: int, tol: float = 1e-9) -> None:
    """Raise unless the weights are balanced and genuinely violating."""
    for i in range(k):
        cover = sum(w for m, w in cert.weights.items() if m >> i & 1)
        if abs(cover - 1.0) > tol:
            raise NumericalFailure(f"certificate not balanced at player {i + 1}: {cover}")
    if any(w < -tol or w > 1.0 + tol for w in cert.weights.values()):
        raise NumericalFailure("certificate weights outside [0, 1]")
    margin = sum(w * demands[m] for m, w in cert.weights.items()) - v_k
    if not margin > tol:
        raise NumericalFailure(f"certificate margin {margin} not positive")
    if abs(margin - cert.margin) > 1e-6 * max(1.0, abs(margin)):
        raise NumericalFailure("certificate margin inconsistent with weights")


def _require_demands(demands: dict[int, float], k: int) -> None:
    if k < 2:
        raise InvalidArgument("core checks need at least 2 users")
    if set(demands) != set(range(1, (1 << k) - 1)):
        raise InvalidArgument("demands must cover every proper nonempty coalition")


def check_core_from_demands(demands: dict[int, float], v_k: float, k: int,
                            *, tol_lp: float = 1e-9) -> CoreResult:
    """Core feasibility from precomputed demands (order-independent)."""
    _require_demands(demands, k)
    x, t = _solve_slack_lp(demands, v_k, k)
    nonempty = t >= -tol_lp
    if k <= 5 and abs(t) < _DEGENERACY_BAND:
        nonempty = _exact_nonempty(demands, v_k, k, tol_lp)
    if nonempty:
        worst = min(sum(x[i] for i in range(k) if m >> i & 1) - d for m, d in demands.items())
        if worst < -tol_lp or abs(x.sum() - v_k) > tol_lp * max(1.0, abs(v_k)):
            raise NumericalFailure("witness fails post-validation")
        return CoreResult("nonempty", x, None, float(t))
    weights, value = _solve_balanced_lp(demands, k)
    cert = BalancedCertificate(weights, float(value - v_k))
    validate_certificate(cert, demands, v_k, k, tol=max(tol_lp, 1e-9))
    return CoreResult("empty", None, cert, float(t))


def check_core(
    scenario: Scenario,
    model: ExpectationModel,
    *,
    tol_lp: float = 1e-9,
    table: UtilityTable | None = None,
) -> CoreResult:
    """Decide stability of full cooperation under an expectation model.

    Nonempty verdicts come with a witness allocation of the
    grand-coalition utility that meets every demand (maximizing the
    minimum slack); empty verdicts come with a validated balanced
    certificate.  Exactly one of the two is present.
    """
    if scenario.k > CORE_MAX_USERS:
        raise InvalidArgument(f"core checks are capped at {CORE_MAX_USERS} users")
    demands = demand_vector(scenario, model, table=table)
    v_k = grand_value(scenario, table=table)
    return check_core_from_demands(demands, v_k, scenario.k, tol_lp=tol_lp)


def least_core_from_demands(demands: dict[int, float], v_k: float, k: int) -> LeastCoreResult:
    _require_demands(demands, k)
    x, t = _solve_slack_lp(demands, v_k, k)
    return LeastCoreResult(float(-t), x)


def least_core(
    scenario: Scenario,
    model: ExpectationModel,
    *,
    table: UtilityTable | None = None,
) -> LeastCoreResult:
    """Smallest uniform demand relaxation that admits an allocation.

    Solves min epsilon subject to sum_{i in S} x_i >= demand(S) - epsilon
    for every proper coalition and sum x = v(grand); epsilon* <= 0 means
    the unrelaxed core is nonempty.  The allocation returned attains the
    optimum.
    """
    if scenario.k > CORE_MAX_USERS:
        raise InvalidArgument(f"core checks are capped at {CORE_MAX_USERS} users")
    demands = demand_vector(scenario, model, table=table)
    v_k = grand_value(scenario, table=table)
    return least_core_from_demands(demands, v_k, scenario.k)


def balancedness_certificate(
    scenario: Scenario,
    model: ExpectationModel,
    *,
    tol_lp: float = 1e-9,
    table: UtilityTable | None = None,
) -> BalancedCertificate | None:
    """The emptiness certificate, or None when the core is nonempty."""
    result = check_core(scenario, model, tol_lp=tol_lp, table=table)
    return result.certificate


# ---------------------------------------------------------------------------
# 3-user core region


def region_from_demands(demands: dict[int, float], v_k: float,
                        *, tol: float = 1e-9) -> list[tuple[float, float, float]]:
    """Vertices of the 3-user core polygon on the plane x1+x2+x3 = v_k.

    Intersects the six proper-coalition half-planes with the efficiency
    plane, working in (x1, x2).  Vertices come back counterclockwise;
    an empty list means an empty core, a single entry a degenerate
    (point) core.
    """
    d1, d2, d3 = demands[0b001], demands[0b010], demands[0b100]
    d12, d13, d23 = demands[0b011], demands[0b101], demands[0b110]
    # (a, b, c, sense) encodes a*x1 + b*x2 <sense> c with sense +1 for >=
    lines = [
        (1.0, 0.0, d1, +1),
        (0.0, 1.0, d2, +1),
        (1.0, 1.0, v_k - d3, -1),
        (1.0, 1.0, d12, +1),
        (0.0, 1.0, v_k - d13, -1),
        (1.0, 0.0, v_k - d23, -1),
    ]

    def feasible(x1: float, x2: float) -> bool:
        for a, b, c, sense in lines:
            val = a * x1 + b * x2
            if sense > 0 and val < c - tol:
                return False
            if sense < 0 and val > c + tol:
                return False
        return True

    points: list[tuple[float, float]] = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a1, b1, c1, _ = lines[i]
            a2, b2, c2, _ = lines[j]
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-12:
                continue
            x1 = (c1 * b2 - c2 * b1) / det
            x2 = (a1 * c2 - a2 * c1) / det
            if feasible(x1, x2):
                points.append((x1, x2))
    # dedupe
    unique: list[tuple[float, float]] = []
    for p in points:
        if all(abs(p[0] - q[0]) > 1e-9 or abs(p[1] - q[1]) > 1e-9 for q in unique):
            unique.append(p)
    if not unique:
        return []
    if len(unique) > 2:
        cx = sum(p[0] for p in unique) / len(unique)
        cy = sum(p[1] for p in unique) / len(unique)
        unique.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    return [(x1, x2, v_k - x1 - x2) for x1, x2 in unique]


def core_region_3user(
    scenario: Scenario,
    model: ExpectationModel,
    *,
    table: UtilityTable | None = None,
) -> list[tuple[float, float, float]]:
    """Core polygon of a 3-user game (empty list when the core is empty)."""
    if scenario.k != 3:
        raise InvalidArgument("the core region is defined for exactly 3 users")
    demands = demand_vector(scenario, model, table=table)
    v_k = grand_value(scenario, table=table)
    return region_from_demands(demands, v_k)
