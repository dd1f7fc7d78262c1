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
dense dual simplex in numpy.  The slack LP starts from the K singleton
rows, whose multipliers are nonnegative, so no phase 1 is needed; a
sequence of demand vectors of one K (an SNR sweep) starts it from the
previous optimal basis instead, which is dual feasible too.  The
certificate LP, min sum y s.t. y(S) >= d_S, the dual of the max-margin
balanced collection, starts from the slack LP's optimal basis, whose
multipliers rescale to a balanced collection.  The witness is the slack
LP's optimal vertex, and the certificate the certificate LP's optimal
multipliers.  Rows are ordered by coalition mask, the basis is kept in
row order and every tie goes to the lowest mask, so the answers depend
only on the demands, one vector by mask - 1 from the table to the LP
(:func:`demand_vector` is its dict view), and a degenerate game's
certificate is one of its max-margin collections.

Every verdict follows one rule for every K: the core is nonempty when
the optimal slack t >= -LP_TOL, and the evidence (the witness, or the
certificate) is validated against the demands before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# _exact_lp is unused here; perfbench's tracer looks it up in sys.modules
from . import _exact_lp  # noqa: F401
from ._kernels import mask_table
from .equilibrium import (UtilityTable, _closed_form_applies, _every_partition,
                          _require_mask_bits, _table_of, require_uniform_timeshare)
from .errors import InvalidArgument, NumericalFailure
from .model import Coalition, Scenario
# enumerate_partitions is unused here; perfbench's restore test asserts the binding
from .model import enumerate_partitions  # noqa: F401

CORE_MAX_USERS = 10

#: The one LP tolerance: the verdict (t >= -LP_TOL, or epsilon* <= LP_TOL
#: for the least core), the witness and certificate checks, and the
#: 3-user region's half-planes.
LP_TOL = 1e-9


class ExpectationModel(str, Enum):
    RATIONAL = "rational"
    MERGING = "merging"
    CAUTIOUS = "cautious"
    SINGLETON = "singleton"


def _expectation_model(model) -> ExpectationModel:
    """``model`` as an :class:`ExpectationModel`; InvalidArgument when it names none."""
    try:
        return ExpectationModel(model)
    except ValueError:
        names = ", ".join(m.value for m in ExpectationModel)
        raise InvalidArgument(f"unknown expectation model {model!r}; "
                              f"expected one of {names}") from None


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


def _fixed_arrangements(k: int, masks, model: ExpectationModel) -> np.ndarray:
    """RGS rows (int8, one per mask) of S = ``masks[i]`` facing one merged outside
    block, or outsiders alone.

    Merging labels a user 0 when it sits on user 1's side and 1 otherwise.
    Singleton numbers blocks by first appearance, S being one block: each
    outsider and S's first member open a new label, and every member of S
    takes its first member's.  The mask cap is checked before any row is
    built.
    """
    _require_mask_bits(k)
    inside = (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(k)) & 1
    if model is ExpectationModel.MERGING:
        return (inside ^ inside[:, :1]).astype(np.int8)
    first = np.argmax(inside, axis=1)[:, None]
    opens = (inside == 0) | (np.arange(k) == first)
    labels = np.cumsum(opens, axis=1) - 1
    s_label = np.take_along_axis(labels, first, axis=1)
    return np.where(inside == 1, s_label, labels).astype(np.int8)


_FIXED_MODELS = (ExpectationModel.MERGING, ExpectationModel.SINGLETON)


def _read_entries(k: int, counts, masks, model: ExpectationModel):
    """The block entries a model reads, of blocks ``masks`` in rows of ``counts``
    blocks: every one (a slice), or under merging and singleton the ascending
    indices of those in S's row of two blocks or of k - |S| + 1 blocks."""
    if model not in _FIXED_MODELS:
        return slice(None)
    if model is ExpectationModel.MERGING:
        first = (np.cumsum(counts) - counts).take(np.flatnonzero(counts == 2))
        return np.stack((first, first + 1), axis=1).reshape(-1)
    # |S| plus its row's block count is k + 1
    size = mask_table(np.add, np.ones(k, dtype=np.intp), 0).take(masks)
    size += np.repeat(counts, counts)
    return np.flatnonzero(size == k + 1)


def _table_demands(table: UtilityTable, model: ExpectationModel) -> np.ndarray:
    """Every coalition's demand, indexed by mask, from one group-by over the table's blocks.

    A row holding S as a block is one arrangement of S's outsiders, whose
    total is the row total minus S's own value.  Merging and singleton
    read S's one fixed arrangement (:func:`_read_entries`).  Cautious
    keeps the smallest own value.  Rational keeps the smallest own value
    among arrangements whose outsider total is within 1e-12 (relative) of
    the largest.  A mask with no such row demands +inf.  Where the
    closed form applies, every model's own rows (:func:`_model_rows`)
    hold one arrangement per mask; for rational and cautious it is the
    merged one, which :func:`_model_rows` proves is the one both keep.
    The group-bys key on the table's intp ``mask_index`` and
    ``entry_rows``, built once per table.
    """
    k = table.k
    demand = np.full(1 << k, np.inf)
    if model in _FIXED_MODELS:
        read = _read_entries(k, table.counts, table.masks, model)
        demand[table.masks[read]] = table.values[read]
        return demand
    masks, own = table.mask_index, table.values
    if model is ExpectationModel.RATIONAL:
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in Python floats
            outsiders = table.totals.take(table.entry_rows)
            outsiders -= own
            best = np.full(1 << k, -np.inf)
            np.fmax.at(best, masks, outsiders)
            floor = best - 1e-12 * np.maximum(1.0, np.abs(best))
            near = np.flatnonzero(outsiders >= floor.take(masks))
        masks, own = masks.take(near), own.take(near)
    # scanned backwards, so of equal values (0.0 and -0.0) the first in table order wins
    np.fmin.at(demand, masks[::-1], own[::-1])
    return demand


def _require_table_of(scenario: Scenario, table: UtilityTable) -> None:
    if not table.built_for(scenario):
        raise InvalidArgument(f"the table was built for another game than this one "
                              f"(table K={table.k}, game K={scenario.k})")


def _read_demands(scenario: Scenario, table: UtilityTable, model: ExpectationModel,
                  masks) -> np.ndarray:
    """Demands of coalitions ``masks`` read from ``table``; raises InvalidArgument
    unless the table is ``scenario``'s and holds a row the model reads for each."""
    _require_table_of(scenario, table)
    masks = np.asarray(masks)
    demand = _table_demands(table, model)[masks]
    unread = masks[demand == np.inf]  # no row, or rows whose utilities are +inf
    if unread.size:
        held = np.zeros(1 << table.k, dtype=bool)
        held[table.masks[_read_entries(table.k, table.counts, table.masks, model)]] = True
        if not held[unread].all():
            raise InvalidArgument(f"the table holds no row the {model.value} model reads "
                                  f"for coalition mask {unread[~held[unread]][0]}")
    return demand


def _model_rows(scenario: Scenario, model: ExpectationModel, *, grand: bool) -> np.ndarray:
    """RGS rows of the table a model's demands read.

    Merging and singleton read their distinct fixed arrangements, each
    where its first mask puts it, then the grand row when ``grand``.
    Merging puts S and N - S in one row, and of the two the mask without
    user K is the smaller, so its rows are those of masks 1 .. 2^(K-1) - 1
    in order: 2^(K-1) - 1 rows.  Singleton gives every one-member S the
    all-singleton row, so its rows are those of mask 1 and then of every
    mask with at least two members, ascending: 2^K - K - 1 rows.
    Rational and cautious read every partition, except where the
    one-antenna closed form applies
    (:func:`equilibrium._closed_form_applies`): there they read the
    merging rows, because their demands are the merging demands.

    Proof.  With one receive antenna a block B of power P_B hearing power
    I gets log(1 + P_B/(N0 + I)).  P_B = (sum of gains^2)(sum of budgets)
    under pooled budgets and (sum of |h| sqrt(cap))^2 under antenna caps,
    so it is superadditive and monotone: the outside blocks of any
    arrangement of N - S, and any union of them, have at most the power
    P_out of the merged outsiders.  Fix S.

    - Single-user decoding: S hears the outsiders' total Q <= P_out, so
      its value is smallest when they merge (cautious).  With c = N0 + P_S
      the outsiders earn sum_j log((c + Q)/(c + Q - P_j)), which is at
      most log((c + Q)/c) since prod(1 - x_j) >= 1 - sum x_j (Weierstrass),
      and log((c + Q)/c) grows with Q; the merged outsiders attain it at
      Q = P_out.
    - Fixed-order cancellation: the values of a row telescope to
      log(1 + total power/N0), so the outsiders earn
      log((N0 + P_S + Q)/N0) - u_S(A), where A is the power decoded after
      S.  Both terms grow with Q and with A.  The merged block decodes at
      its latest member's slot, so it decodes after S whenever some
      outsider's slot is later than S's, and then A = P_out; otherwise no
      arrangement decodes a block after S and A = 0 in all of them.

    So the merged arrangement maximizes the outsiders' total and, among
    all arrangements, minimizes S's own value: rational and cautious
    both demand S's value in its merging row.  That is the exact answer;
    on the full table rounding could in principle move a rational or
    cautious demand by an ulp, and the tests check on seeded games that
    it does not.  Time share averages orders and M > 1 solves
    covariances, so neither is covered and both keep every partition.
    """
    require_uniform_timeshare(scenario)
    if model in (ExpectationModel.RATIONAL, ExpectationModel.CAUTIOUS):
        if not _closed_form_applies(scenario):
            return _every_partition(scenario)
        model = ExpectationModel.MERGING
    k = scenario.k
    _require_mask_bits(k)
    if model is ExpectationModel.MERGING:
        masks = np.arange(1, 1 << (k - 1))
    else:
        masks = np.arange(1, (1 << k) - 1)
        masks = masks[((masks & (masks - 1)) != 0) | (masks == 1)]
    rows = _fixed_arrangements(k, masks, model)
    if grand:
        rows = np.vstack((rows, np.zeros((1, k), dtype=np.int8)))
    return rows


def _model_table(scenario: Scenario, model: ExpectationModel, *, grand: bool) -> UtilityTable:
    """The table of :func:`_model_rows`."""
    return _table_of(scenario, _model_rows(scenario, model, grand=grand))


def _read_index(k: int, counts, masks, model: ExpectationModel) -> np.ndarray:
    """Entry indices of each proper mask's demand (ascending mask), then of v(N),
    among blocks ``masks`` in rows of ``counts`` blocks.

    Raises unless the rows hold exactly one entry the model reads per
    proper mask and a grand row, as a model's own rows do where the closed
    form applies (:func:`_model_rows`).  From one entry
    :func:`_table_demands` returns its value, so the values at these
    indices are the demands and v(N), bitwise.
    """
    full = (1 << k) - 1
    read = np.arange(len(masks))[_read_entries(k, counts, masks, model)]
    held = np.bincount(masks[read], minlength=full + 1)[1:full]
    grand = np.flatnonzero(masks == full)
    if (held != 1).any() or not grand.size:
        raise AssertionError(f"the {model.value} rows do not hold one read entry per "
                             f"coalition and a grand row")
    entry = np.empty(full + 1, dtype=np.intp)
    entry[masks[read]] = read
    return np.append(entry[1:full], grand[0])


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
    case over arrangements.  Both are read from the given table, or else
    from the model's rows (:func:`_model_rows`), and equal
    ``demand_vector``'s value for the mask.  Merging and singleton fix
    one arrangement each, read from the given table or from a table of
    that one row, which a weighted time-share receiver fits when its
    weights fit that row.
    """
    k = scenario.k
    grand = (1 << k) - 1
    if coalition.mask == grand or not 0 < coalition.mask < grand:
        raise InvalidArgument("demands are defined for proper nonempty coalitions")
    model = _expectation_model(model)
    if model in (ExpectationModel.RATIONAL, ExpectationModel.CAUTIOUS):
        return float(_demands(scenario, model, table)[coalition.mask - 1])
    if table is None:
        table = _table_of(scenario, _fixed_arrangements(k, [coalition.mask], model))
    return float(_read_demands(scenario, table, model, [coalition.mask])[0])


def demand_vector(
    scenario: Scenario,
    model: ExpectationModel,
    *,
    table: UtilityTable | None = None,
) -> dict[int, float]:
    """Demand of every proper nonempty coalition, keyed by mask (ascending), read
    from ``table``, which must be ``scenario``'s, or else the model's own
    (:func:`_model_table`)."""
    return dict(enumerate(_demands(scenario, _expectation_model(model), table).tolist(), 1))


def _demands(scenario: Scenario, model: ExpectationModel,
             table: UtilityTable | None) -> np.ndarray:
    """:func:`demand_vector` as one float64 vector, indexed by mask - 1."""
    require_uniform_timeshare(scenario)
    if table is None:
        table = _model_table(scenario, model, grand=False)
    return _read_demands(scenario, table, model, np.arange(1, (1 << scenario.k) - 1))


def grand_value(scenario: Scenario, *, table: UtilityTable | None = None) -> float:
    """Utility of the grand coalition (its interference-free maximum rate), read from
    ``table``, which must be ``scenario``'s, or else a table of the grand partition's row."""
    if table is None:
        table = _table_of(scenario, np.zeros((1, scenario.k), dtype=np.int8))
    _require_table_of(scenario, table)
    return _grand_of(table)


def _grand_of(table: UtilityTable) -> float:
    """v(N) from the table's grand row; raises InvalidArgument when it has none."""
    held = table.values[table.masks == (1 << table.k) - 1]
    if not held.size:
        raise InvalidArgument("the table holds no grand-coalition row")
    return float(held[0])


def _demands_and_grand(scenario: Scenario, model: ExpectationModel,
                       table: UtilityTable | None) -> tuple[np.ndarray, float]:
    """Demands (by mask - 1) and v(N) from one table, checked once: ``table``, or else
    the model's own with the grand partition's row.  Every core computation
    from a scenario comes here, so the core cap is checked here."""
    if scenario.k > CORE_MAX_USERS:
        raise InvalidArgument(f"core checks are capped at {CORE_MAX_USERS} users")
    model = _expectation_model(model)
    if table is None:
        table = _model_table(scenario, model, grand=True)
    return _demands(scenario, model, table), _grand_of(table)


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
                  a_eq: np.ndarray, b_eq: np.ndarray,
                  inverses: dict[tuple[int, ...], tuple] | None = None):
    """min c.z s.t. g z >= d and a_eq z = b_eq, z free, by a dense dual simplex.

    ``basis`` lists rows of ``g`` that, with every equality row, form a
    dual feasible start (nonnegative multipliers).  The basis is kept in
    ascending row order, so the basis matrix, and with it z and y, depend
    only on the set of basic rows: runs from different starts that end on
    one basis return bitwise-equal results.  Each pivot enters the most
    violated row and removes the basic row whose multiplier reaches zero
    first; both choices break ties to the lowest row index.  In exact
    arithmetic a basis can recur only within a run of degenerate
    (zero-step) pivots, so the first recurrence switches to Bland's rule
    (lowest violated row enters), which cannot cycle: termination needs
    no iteration cap.  Bases seen before the switch are forgotten, since
    Bland's rule may pass through them again.  A recurrence under Bland's
    rule, a singular basis or a ratio test with no candidate raises
    :class:`NumericalFailure`.

    Each basis is solved for once.  ``inverses`` maps a basis tuple to
    what depends on that basis and on ``(c, g, a_eq)`` alone: the inverse
    of the basis matrix ``vstack((a_eq, g[basis]))``, the inequality
    multipliers ``y = (c @ inv)[n_eq:]`` and ``y.tolist()`` for the ratio
    test.  None of them depends on ``d`` or ``b_eq``, so callers that
    solve one ``(c, g, a_eq)`` for many right-hand sides pass one dict to
    all those solves; the basis matrix is built only when its basis is
    met for the first time, and a start basis that is already optimal
    costs no inversion.  A pivot then pays only for what depends on the
    demands: the right-hand side, z = inv @ rhs, the residual g z - d and
    the ratio test.  The same matrix inverts to the same bits, so the
    dict changes no result, and z and y are returned as fresh arrays, so
    no caller can alias a stored one.  At these sizes a rank-one update
    of the inverse would save little; the count of distinct bases is what
    matters.

    Returns (z, basis, y): the optimal vertex, its basic inequality rows
    (ascending) and their multipliers, so that c = a_eq^T mu + g[basis]^T y.
    """
    n_eq = len(b_eq)
    basis = sorted(basis)
    tol = 1e-12 * max(1.0, float(np.abs(d).max(initial=0.0)),
                      max(map(abs, b_eq.tolist()), default=0.0))
    if inverses is None:
        inverses = {}
    rhs = np.empty(n_eq + len(basis))
    rhs[:n_eq] = b_eq
    basic_rhs = rhs[n_eq:]
    residual = np.empty(len(g))
    seen: set[tuple[int, ...]] = set()
    bland = False
    while True:
        key = tuple(basis)
        if key in seen:
            if bland:
                raise NumericalFailure("core LP cycled under Bland's rule")
            bland = True
            seen.clear()
        seen.add(key)
        stored = inverses.get(key)
        if stored is None:
            try:
                inv = np.linalg.inv(np.concatenate((a_eq, g.take(basis, axis=0))))
            except np.linalg.LinAlgError:
                raise NumericalFailure("core LP basis is singular") from None
            y = (c @ inv)[n_eq:]
            stored = inverses[key] = (inv, y, y.tolist())
        inv, y, y_list = stored
        d.take(basis, out=basic_rhs)
        z = inv @ rhs
        np.matmul(g, z, out=residual)
        residual -= d
        enter = int(residual.argmin())
        if not residual[enter] < -tol:
            return z, basis, y.copy()
        if bland:
            enter = int(np.flatnonzero(residual < -tol)[0])
        # ratio test over at most K + 1 floats: lowest row of the smallest ratios
        w = (g[enter] @ inv)[n_eq:].tolist()
        ratios = [(max(y_s, 0.0) / w_s, s) for s, (y_s, w_s) in enumerate(zip(y_list, w))
                  if w_s > _PIVOT_TOL]
        if not ratios:
            raise NumericalFailure("core LP ratio test found no leaving row")
        band = min(r for r, _ in ratios) + 1e-12
        basis[next(s for r, s in ratios if r <= band)] = enter
        basis.sort()


def _singleton_rows(k: int) -> list[int]:
    """Rows of the singleton coalitions when rows run over masks 1..2^k - 2."""
    return [(1 << i) - 1 for i in range(k)]


class _CoreLp:
    """The two core LPs of one K, for demand vectors given one after another.

    Rows run over the proper coalitions in ascending mask order, so a
    demand vector is ``d[mask - 1]``.  The constraint rows and costs
    depend on K only and are built once.  The slack LP starts from the
    optimal basis of its previous solve (the singleton basis at first):
    whether a basis is dual feasible depends on the costs and the rows,
    never on the demands or v(N), so that basis is a valid dual simplex
    start for the next demands, and Bland's rule still guarantees
    termination.  :meth:`check` starts the certificate LP from the slack
    LP's optimal basis of the same demands, which is dual feasible for it
    too (see :meth:`check`); :meth:`balanced` alone starts from its own
    previous optimal basis.

    Each LP keeps, per basis it has met, the basis inverse and its
    multipliers (:func:`_dual_simplex`), so a warm start whose basis is
    still optimal costs two matrix-vector products and no inversion.  The
    two LPs' constant inputs (rows, costs, the certificate LP's empty
    equality block) are built here, once, after K >= 2 is checked.  The
    dicts live as long as the instance: one core verdict, least core or
    dict-taking call, or one K of one :func:`analysis.snr_boundary` call.
    Nothing is kept between calls.
    """

    def __init__(self, k: int):
        if k < 2:
            raise InvalidArgument("core checks need at least 2 users")
        self.k = k
        self.incidence = _incidence(range(1, (1 << k) - 1), k)
        # slack LP over z = (x, t): max t s.t. x(S) - t >= d_S, sum x = v_k
        self.g = np.full((len(self.incidence), k + 1), -1.0)
        self.g[:, :k] = self.incidence
        self.a_eq = np.zeros((1, k + 1))
        self.a_eq[0, :k] = 1.0
        self.c = np.zeros(k + 1)
        self.c[k] = -1.0
        # certificate LP over y: min sum y s.t. y(S) >= d_S
        self.cover = self.incidence.astype(np.float64)
        self.ones, self.no_eq, self.no_rhs = np.ones(k), np.empty((0, k)), np.empty(0)
        self.slack_basis = self.balanced_basis = _singleton_rows(k)
        self.slack_inverses: dict[tuple[int, ...], tuple] = {}
        self.balanced_inverses: dict[tuple[int, ...], tuple] = {}

    def slack(self, d: np.ndarray, v_k: float):
        """max t s.t. sum_{i in S} x_i - t >= d_S, sum x = v_k.

        Returns (x, t) at the dual simplex's optimal vertex.  The
        allocation maximizes the minimum constraint slack, so a feasible
        core yields a strictly interior witness when one exists.  The
        singleton basis is dual feasible: every singleton row carries
        multiplier 1/k.  Non-finite demands or v(N) raise NumericalFailure.
        """
        _require_finite(d, v_k)
        z, self.slack_basis, _ = _dual_simplex(self.c, self.g, d, self.slack_basis,
                                               self.a_eq, np.array([float(v_k)]),
                                               self.slack_inverses)
        return z[:self.k], float(z[self.k])

    def balanced(self, d: np.ndarray):
        """max sum lambda_S d_S over balanced weights; returns (weights, value).

        Solved as its dual, min sum y s.t. y(S) >= d_S, from the
        singleton basis at first (multipliers 1): the optimal multipliers
        are the weights.  Balancedness keeps every weight in [0, 1].  The
        value adds the weighted demands left to right in float64.
        """
        _, self.balanced_basis, y = _dual_simplex(
            self.ones, self.cover, d, self.balanced_basis, self.no_eq, self.no_rhs,
            self.balanced_inverses)
        weights: dict[int, float] = {}
        value = 0.0
        for row, w, d_s in zip(self.balanced_basis, y.tolist(),
                               d.take(self.balanced_basis).tolist()):
            if w > 1e-15:
                weights[row + 1] = w
                value += w * d_s
        return weights, value

    def check(self, d: np.ndarray, v_k: float) -> CoreResult:
        """Core verdict for demands ``d`` (by mask - 1) and v(N), with validated evidence.

        An empty verdict starts the certificate LP, min sum y s.t.
        y(S) >= d_S, from the slack LP's optimal basis B.  That start is
        dual feasible.  The slack optimum's multipliers y_B >= 0 meet the
        t column, sum y_B = 1, and every x column, sum_{S in B, S
        contains i} y_S = mu' for each user i.  Summing over i gives mu'
        = sum y_S |S| / K >= 1/K > 0.  So the incidence rows A_B are
        nonsingular (a singular A_B would force mu' = 0), and lambda =
        y_B / mu' >= 0 solves A_B^T lambda = 1.  No fallback is needed.
        """
        x, t = self.slack(d, v_k)
        if t >= -LP_TOL:
            worst = (self.cover @ x - d).min()
            # written so that a NaN fails both checks
            if not (worst >= -LP_TOL and abs(x.sum() - v_k) <= LP_TOL * max(1.0, abs(v_k))):
                raise NumericalFailure("witness fails post-validation")
            return CoreResult("nonempty", x, None, float(t))
        self.balanced_basis = self.slack_basis
        weights, value = self.balanced(d)
        cert = BalancedCertificate(weights, float(value - v_k))
        validate_certificate(cert, {mask: float(d[mask - 1]) for mask in weights}, v_k, self.k)
        return CoreResult("empty", None, cert, float(t))


#: perfbench traces the LP layer under this name.
linprog = _dual_simplex


def validate_certificate(cert: BalancedCertificate, demands: dict[int, float],
                         v_k: float, k: int) -> None:
    """Raise unless the weights are balanced and genuinely violating.

    ``demands`` maps each mask the certificate weights (at least) to its demand.
    """
    for m in cert.weights:
        if not 0 < m < (1 << k) - 1:
            raise NumericalFailure(f"certificate weights mask {m}, not a proper coalition")
    for i in range(k):
        cover = sum(w for m, w in cert.weights.items() if m >> i & 1)
        if abs(cover - 1.0) > LP_TOL:
            raise NumericalFailure(f"certificate not balanced at player {i + 1}: {cover}")
    if any(w < -LP_TOL or w > 1.0 + LP_TOL for w in cert.weights.values()):
        raise NumericalFailure("certificate weights outside [0, 1]")
    margin = sum(w * demands[m] for m, w in cert.weights.items()) - v_k
    if not margin > LP_TOL:
        raise NumericalFailure(f"certificate margin {margin} not positive")
    if abs(margin - cert.margin) > 1e-6 * max(1.0, abs(margin)):
        raise NumericalFailure("certificate margin inconsistent with weights")


def _demand_array(demands: dict[int, float], k: int) -> np.ndarray:
    """Demands of every proper nonempty coalition, by mask - 1."""
    if set(demands) != set(range(1, (1 << k) - 1)):
        raise InvalidArgument("demands must cover every proper nonempty coalition")
    return np.array([demands[mask] for mask in range(1, (1 << k) - 1)])


def _require_finite(d: np.ndarray, v_k: float) -> None:
    if math.isfinite(v_k) and np.isfinite(d).all():
        return
    if not math.isfinite(v_k):
        raise NumericalFailure(f"grand-coalition value {v_k} is not finite")
    bad = np.flatnonzero(~np.isfinite(d))
    if bad.size:
        raise NumericalFailure(f"demand of coalition mask {bad[0] + 1} is not finite")


def check_core_from_demands(demands: dict[int, float], v_k: float, k: int) -> CoreResult:
    """Core feasibility from precomputed demands (order-independent)."""
    return _CoreLp(k).check(_demand_array(demands, k), v_k)


def check_core(
    scenario: Scenario,
    model: ExpectationModel,
    *,
    table: UtilityTable | None = None,
) -> CoreResult:
    """Decide stability of full cooperation under an expectation model.

    Nonempty verdicts come with a witness allocation of the
    grand-coalition utility that meets every demand (maximizing the
    minimum slack); empty verdicts come with a validated balanced
    certificate.  Exactly one of the two is present.
    """
    d, v_k = _demands_and_grand(scenario, model, table)
    return _CoreLp(scenario.k).check(d, v_k)


def least_core_from_demands(demands: dict[int, float], v_k: float, k: int) -> LeastCoreResult:
    x, t = _CoreLp(k).slack(_demand_array(demands, k), v_k)
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
    d, v_k = _demands_and_grand(scenario, model, table)
    x, t = _CoreLp(scenario.k).slack(d, v_k)
    return LeastCoreResult(float(-t), x)


def balancedness_certificate(
    scenario: Scenario,
    model: ExpectationModel,
    *,
    table: UtilityTable | None = None,
) -> BalancedCertificate | None:
    """The emptiness certificate, or None when the core is nonempty."""
    return check_core(scenario, model, table=table).certificate


# ---------------------------------------------------------------------------
# 3-user core region


def region_from_demands(demands: dict[int, float],
                        v_k: float) -> list[tuple[float, float, float]]:
    """Vertices of the 3-user core polygon on the plane x1+x2+x3 = v_k (:func:`_region`)."""
    return _region(_demand_array(demands, 3), v_k)


def _region(d: np.ndarray, v_k: float) -> list[tuple[float, float, float]]:
    """Vertices of the 3-user core polygon for demands ``d`` (by mask - 1) and v(N).

    Intersects the six proper-coalition half-planes with the efficiency
    plane, working in (x1, x2).  Vertices come back counterclockwise;
    an empty list means an empty core, a single entry a degenerate
    (point) core.  Non-finite demands or v(N) raise :class:`NumericalFailure`.
    """
    _require_finite(d, v_k)
    d1, d2, d12, d3, d13, d23 = d.tolist()
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
            if sense > 0 and val < c - LP_TOL:
                return False
            if sense < 0 and val > c + LP_TOL:
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
    d, v_k = _demands_and_grand(scenario, model, table)
    return _region(d, v_k)
