"""Symmetric pure-equilibrium search and minimum spot-check probability solvers.

Every solver takes one payoff table per (mechanism, environment) plus an
effort cost, and no table entry depends on the cost, so one table serves a
whole cost sweep: ``compute_threshold_sweep`` solves it in one pass, with the
flag computed once and ``p_pareto`` at every cost from one interval search
(``solve_p_pareto_sweep``), and ``compute_thresholds`` is that pass at one
cost.  A deviant is an effort plus one report per observed value,
and both rewards are sums of per-observation terms, so the table holds those
terms (O(S k^2) numbers, not an S x S matrix) plus each symmetric profile's own
unchecked reward and each strategy's audit reward.  Every entry is an exact
expectation, so an equilibrium is certified when no deviation gains more than
``TOL``.

``PayoffTable.gain_lines`` is the one definition of a deviation gain: a dense
row of lines in p over every deviant.  Combined utilities p * E[y] + (1 - p) *
E[z] - cost are affine in the spot-check probability and a deviant picks its
report per observation, so each effort's best gain is convex and piecewise
linear in p.  That gain is built once per table, for every base at once, from its
kinks, merged over observations, and a running sum of slope times step
(``PayoffTable.kinked_gains``), and every certification reads it through
``PayoffTable.certify``: at given points, at the probes that confirm each base's
interval of certified p, and at every grid point for a base whose probes miss.  A
gain within a stated rounding slack of ``TOL`` is decided by the base's dense row
instead, so every decision equals the dense row's.  ``p_pareto`` is solved from
those intervals, truthful's first and then only the intervals of the bases whose
utility could beat truthful's there, and reported at the grid point a dense scan
would find.  A sweep searches every cost's intervals together, each (cost, base)
column with its own cost in the same expressions, so each answer is the one
that cost gives alone; ``p_el`` still scans one dense row over the grid per cost
before bisecting.

A threshold grid is 1/n for an integer n from 1 to 1 / ``MIN_GRID``: ``GRID`` states
the rule once, as ``signals.COST`` does the cost's, and ``_grid_points`` checks it before
it builds the points.  Every certification, and every comparison of utilities a solver
makes, is at the one tolerance ``TOL``, and the closed forms use it as their rounding slack.
Each function reads it when called, so a test that needs exact ties patches it to 0.

Thresholds solved here:

* ``p_ds``   -- dominant-strategy truthfulness under the peer-insensitive game,
* ``p_el``   -- elimination of the report-the-shared-draw equilibrium,
* ``p_ex``   -- truthful utility overtaking that equilibrium while it exists,
* ``p_pareto`` -- truthful equilibrium weakly best among all certified
  symmetric pure equilibria (a lower bound for the unrestricted notion, which
  also quantifies over asymmetric and mixed profiles).

``check_worthwhile_effort`` reads the audit gap that ``p_ds`` divides the cost by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .errors import InvalidDistribution, PeerSpotError, ShapeMismatch
from ._expectations import audit_rewards, strategy_rewards
from .mechanisms import MechanismSpec, unchecked_rewards
from .signals import COST, Environment
from .strategies import EFFORT_COST, NO_EFFORT, TRUTHFUL, Strategy, enumerate_pure_strategies, low_identity_index
from .strategies import FULL_EFFORT, pure_strategy_arrays, strategy_arrays

TOL = 1e-9  # a profile is certified when no deviation gains more; read at each call
DEFAULT_GRID = 1e-3
# The finest threshold grid.  The p_el scan walks 1 / grid + 1 points in Python and p_pareto
# allocates as many per row: one compute_thresholds on the bundled e1 output-agreement table
# took 0.1 s at grid 1e-3, 1.0 s at 1e-5 and 13 s at 1e-6.  A base whose interval probes miss
# is read at every point, in one array of (1 / grid + 1) x 2 x K floats, K <= k (k - 1) + 2:
# at 1e-5 and k=5 at most 35 MB.  On the seed-3 k=5 output-agreement table (K = 7) one such
# read measured 11 MB, a 22 MB tracemalloc peak and 14 ms.
MIN_GRID = 1e-5
REFINE = 1e-6  # width of the bracket at which the p_el bisection stops
DS_REFINE = 1e-9  # width of the bracket at which the p_ds bisection stops; gate C1 compares at 1e-8
PARETO_BLOCK = 64  # (cost, base) rivals per block compared point by point in the Pareto threshold search
# Elements a Pareto sweep holds at a time: a block of costs holds at most this many (cost,
# base or grid point) entries, and an interval search reads the pieces of at most this many
# (base, piece) columns at a time, 2 K per base.
SWEEP_BLOCK = 2**16
# Relative bound on the rounding gap between an effort's best deviation gain read from
# ``PayoffTable.kinked_gains`` at p and the largest matching entry of the dense gain row.
# The row rounds at most 2k + 12 times, each time by at most 2**-53 of a term no larger
# than ``PayoffTable.magnitude`` plus the cost.  The kinked gain is its value at 0 plus
# summed slope times step over K = k (k - 1) kinks, then one piece's line to p: at most
# 6K + 3k + 20 roundings, each by at most 2**-53 of twice such a term (no partial sum of
# values or slopes exceeds twice ``magnitude``), and its rounded kinks move it by at most
# 6 * 2**-53 of one.  So the two differ by under 6e-14 of that at k <= 6 (1.3e-16
# measured at k <= 5), and the slack allows over 15 times that.
VERIFY_SLACK = 1e-12


@dataclass(frozen=True)
class NotAttained:
    """Sentinel for thresholds without a value in [0, 1]."""

    status: str

    def __repr__(self):
        return self.status


NOT_ACHIEVABLE = NotAttained("not_achievable")
NOT_FOUND = NotAttained("not_found")
NOT_APPLICABLE = NotAttained("not_applicable")


def _is_grid(x) -> bool:
    """Whether x is 1/n for an integer n from 1 to 1 / MIN_GRID, allowing for rounding
    (1 / 1e-5 is 99999.99999999999); NaN is not."""
    n = round(1.0 / x) if MIN_GRID / 2 <= x <= 1.0 else 0
    return 1 <= n <= round(1.0 / MIN_GRID) and abs(n * x - 1.0) <= 1e-9


# The threshold-grid rule, as ``signals.COST`` is the cost rule: its test, and what an error says.
GRID = (_is_grid, f"1/n for an integer n from 1 to {round(1.0 / MIN_GRID)}")


def _check(rule, name: str, value) -> None:
    """Raise InvalidDistribution unless ``value`` passes ``rule`` (``COST`` or ``GRID``)."""
    if not rule[0](value):
        raise InvalidDistribution(f"{name} must be {rule[1]}, got {value}")


def _check_p(p) -> np.ndarray:
    """``p`` as a float array, refused with a PeerSpotError unless every entry lies in [0, 1]."""
    p = np.asarray(p, dtype=float)
    inside = (p >= 0.0) & (p <= 1.0)  # NaN fails both
    if not inside.all():
        raise PeerSpotError(f"audit probability p must lie in [0, 1], got {float(p[~inside][0])!r}")
    return p


def _grid_points(grid) -> np.ndarray:
    """The audit probabilities 0, 1/n, ..., 1 of the grid 1/n, checked before any is built."""
    _check(GRID, "grid", grid)
    return np.linspace(0.0, 1.0, int(round(1.0 / grid)) + 1)


def threshold_float(x) -> float:
    """Numeric view of a threshold or of its row cell; unattained ones compare as +inf."""
    return float(x) if isinstance(x, (int, float)) else math.inf


@dataclass(frozen=True)
class EquilibriumRecord:
    strategy: Strategy
    utility: float
    max_deviation_gain: float
    certified: bool


@dataclass
class ThresholdReport:
    p_ds: object
    p_el: object
    p_ex: object
    p_pareto: object
    grid: float
    pareto_bound_condition: bool

    def to_json_dict(self) -> dict:
        """The fields in order, an unattained threshold as its status."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: x.status if isinstance(x, NotAttained) else x for name, x in values.items()}


@dataclass
class PayoffTable:
    """Per-observation unchecked and audit rewards of every pure strategy over k labels,
    with what follows from them: each symmetric profile's own unchecked reward, each
    strategy's audit reward, and the indices of the truthful and the best no-effort
    strategy (none of them depends on cost).

    Strategy ``s`` is row ``s`` of ``strategies.pure_strategy_arrays(k)``, read as
    ``efforts`` and ``maps``.  ``unchecked_terms[g, e, o, r]`` is the ``V`` of
    ``_expectations`` against base g and ``audit_terms[e, o, r]`` its ``A``
    (``_expectations.audit_rewards``): a deviant with effort e and map m earns
    ``sum_o V[g, e, o, m(o)]`` unchecked and ``sum_o A[e, o, m(o)]`` audited.  The
    table reads k and S from the shape of the terms and holds V once.
    """

    unchecked_terms: np.ndarray  # (S, 2, k, k): [base, deviant effort, observation, report]
    audit_terms: np.ndarray  # (2, k, k): [effort, observation, report]
    efforts: np.ndarray = field(init=False)  # (S,) position in ``Effort`` order (full effort is 0)
    maps: np.ndarray = field(init=False)  # (S, k) report maps
    own: np.ndarray = field(init=False)  # (S,) unchecked reward of each symmetric profile
    spot: np.ndarray = field(init=False)  # (S,) expected audit reward per strategy
    full_effort: np.ndarray = field(init=False)  # (S,) 1.0 where the strategy invests effort
    magnitude: np.ndarray = field(init=False)  # (S,) bound on the terms of any gain against a base
    truthful = TRUTHFUL  # index of the truthful strategy, the same in every table
    best_no_effort: int = field(init=False)

    def __post_init__(self):
        # Over the label budget no strategy arrays exist, so neither does a table.
        k = self.unchecked_terms.shape[-1]
        self.efforts, self.maps = pure_strategy_arrays(k)
        if self.unchecked_terms.shape != (len(self.efforts), 2, k, k) or self.audit_terms.shape != (2, k, k):
            raise ShapeMismatch(f"a payoff table over {k} labels holds terms for all {len(self.efforts)} pure strategies")
        self.full_effort = EFFORT_COST[self.efforts]
        v = self.unchecked_terms
        self.own = strategy_rewards(v, self.efforts, self.maps, np.arange(len(v)))
        self.spot = strategy_rewards(self.audit_terms, self.efforts, self.maps)
        largest_sum = lambda terms: np.abs(terms).max(axis=-1).sum(axis=-1).max(axis=-1)
        self.magnitude = 1.0 + np.abs(self.own) + np.abs(self.spot) + largest_sum(v) + largest_sum(self.audit_terms)
        self.best_no_effort = _best_no_effort_index(self.efforts, self.spot, k)

    @cached_property
    def strategies(self) -> list:
        """Every pure strategy as a ``Strategy``, in table order; built on first use."""
        return enumerate_pure_strategies(self.maps.shape[1])

    def index_of(self, strategy: Strategy) -> int:
        efforts, maps = strategy_arrays([strategy], self.maps.shape[1])
        return int(np.flatnonzero((self.efforts == efforts[0]) & (self.maps == maps[0]).all(axis=1))[0])

    def _bases(self, bases) -> np.ndarray:
        """``bases`` as an index array, refused with ShapeMismatch unless each is an integer in [0, S)."""
        bases = np.asarray(bases)
        if bases.size and (bases.dtype.kind not in "iu" or bases.min() < 0 or bases.max() >= len(self.own)):
            raise ShapeMismatch(f"bases must be strategy indices from 0 to {len(self.own) - 1}, got {bases}")
        return bases.astype(int, copy=False)

    def utilities(self, p, cost: float, bases=None) -> np.ndarray:
        """Utility of each symmetric profile in ``bases`` (all by default) at audit probability p,
        refusing p, the cost and the bases as ``certify`` does."""
        _check_p(p)
        _check(COST, "effort_cost", cost)
        return self._utility(p, cost, slice(None) if bases is None else self._bases(bases))

    def _utility(self, p, cost: float, bases) -> np.ndarray:
        """``utilities`` unchecked, for p, a cost and bases (an index or a slice) the caller has checked."""
        return p * self.spot[bases] + (1.0 - p) * self.own[bases] - cost * self.full_effort[bases]

    def gain_lines(self, cost: float, bases) -> tuple:
        """Deviation gains against the symmetric bases ``bases`` as lines in the audit
        probability: (g0, g1), one row per base and one column per deviant strategy.
        The gain at p is ``(1 - p) * g0 + p * g1`` (``_gain_at``); this is the one
        definition of a deviation gain, and every certification agrees with it.  A cost
        outside ``signals.COST`` is refused, and so are bases that are not strategy indices."""
        _check(COST, "effort_cost", cost)
        return self._gain_lines(cost, self._bases(bases))

    def _gain_lines(self, cost, bases: np.ndarray) -> tuple:
        """``gain_lines`` unchecked, at one cost or one per base."""
        spot, full, own = self.spot, self.full_effort, self.own
        z = strategy_rewards(self.unchecked_terms[bases], self.efforts, self.maps)
        effort = np.asarray(cost)[..., None] * (full[None, :] - full[bases][:, None])
        g0 = (z - own[bases][:, None]) - effort
        g1 = (spot[None, :] - spot[bases][:, None]) - effort
        return g0, g1

    def kinked_gains(self, bases) -> tuple:
        """Each effort's best deviation gain against each base in ``bases``, without effort
        costs, as a piecewise-linear function of p: (kinks, gains, slopes), each of shape
        (2, K, B) with K at most k (k - 1) + 2, the most any base needs; a base that needs
        fewer repeats its point p = 1.

        ``kinks[e]`` holds, per base, sorted points of [0, 1] from 0 to 1 that include every
        kink of the gain of the best deviant with effort e; ``gains`` is that gain at each
        point and ``slopes`` its slope from there to the next.  That deviant's value is a
        sum over observations of upper envelopes of k lines (``_report_kinks``), so its
        kinks are theirs merged in order, and its value at each kink is its value at 0 plus
        a running sum of slope times step: O(k^2 log k) per base and effort, for every base
        once per table (``_pieces``), and kept for every later cost.
        """
        return tuple(self._pieces[..., self._bases(bases)])

    @cached_property
    def _pieces(self) -> np.ndarray:
        """Every base's ``kinked_gains`` stacked, shape (3, 2, K, S), from one ``_report_kinks`` call."""
        count = len(self.own)
        # V and A - V laid out [report, effort, observation, base]: each report's line in p.
        level = np.ascontiguousarray(np.moveaxis(self.unchecked_terms, (0, 3), (3, 0)))
        bends, start, slope, turns = _report_kinks(level, np.moveaxis(self.audit_terms, 2, 0)[..., None] - level)
        # Every observation's kinks per (effort, base) in order, each with its slope change.
        bends, turns = (np.moveaxis(x, 1, 0).reshape(2, -1, count) for x in (bends, turns))
        # Kinks at 1 turn nothing, so only as many as the most any base has below 1 are kept.
        order = bends.argsort(axis=1)[:, : (bends < 1.0).sum(axis=1).max()]
        bends, turns = np.take_along_axis(bends, order, axis=1), np.take_along_axis(turns, order, axis=1)
        zero = np.zeros((2, 1, count))
        at = np.concatenate([zero, bends, zero + 1.0], axis=1)
        rate = slope.sum(axis=1)[:, None] + np.cumsum(np.concatenate([zero, turns, zero], axis=1), axis=1)
        steps = rate[:, :-1] * np.diff(at, axis=1)
        values = np.cumsum(np.concatenate([start.sum(axis=1)[:, None], steps], axis=1), axis=1)
        return np.stack([at, values - self._utility(at, 0.0, slice(None)), rate - (self.spot - self.own)])

    def certify(self, p, cost: float, bases) -> tuple:
        """(largest deviation gain, certified) against each base in ``bases`` at audit
        probability ``p``: one value, one per base, or one per base after leading probe axes,
        giving results of shape ``np.broadcast_shapes(p.shape, bases.shape)``.  A p outside
        [0, 1], a cost outside ``signals.COST`` or a base that is not a strategy index is refused first.

        Each effort's gain is convex (``kinked_gains``), so at p it is the largest of its
        pieces' lines.  A gain within the rounding slack ``VERIFY_SLACK * (magnitude + cost)``
        of ``TOL`` is replaced by the largest entry of its dense ``gain_lines`` row, so the
        decision is the dense row's ``max <= TOL`` at every p.
        """
        p = np.atleast_1d(_check_p(p))
        _check(COST, "effort_cost", cost)
        return self._certify(p, cost, self._bases(bases))

    def _certify(self, p: np.ndarray, cost, bases: np.ndarray) -> tuple:
        """``certify`` unchecked, for p of at least one dimension and at one cost or one per
        base: every expression is the same on each (cost, base) column."""
        kinks, gains, slopes = self._pieces[..., bases]
        costs = cost * (EFFORT_COST[:, None] - self.full_effort[bases])[:, None]
        lines = gains + slopes * (p[..., None, None, :] - kinks) - costs
        # Both efforts' pieces on one axis, reduced in one pass; sizes, not -1, so no base gives no gain.
        *probes, efforts, pieces, count = lines.shape
        gain = np.maximum.reduce(lines.reshape(*probes, efforts * pieces, count), axis=-2)
        unsure = np.nonzero(np.abs(gain - TOL) <= VERIFY_SLACK * (self.magnitude[bases] + cost))
        if unsure[0].size:
            at = np.broadcast_to(p, gain.shape)[unsure][:, None]
            cost = np.broadcast_to(cost, bases.shape)[unsure[-1]]
            gain[unsure] = _gain_at(at, *self._gain_lines(cost, bases[unsure[-1]])).max(axis=1)
        return gain, gain <= TOL


def _report_kinks(level: np.ndarray, rise: np.ndarray) -> tuple:
    """The upper envelope over reports (axis 0) of the lines ``level + p * rise`` on [0, 1],
    as (kinks, start, slope, turns): its value and slope at p = 0, shaped as the other
    axes, and where it bends with the slope change there, padded with 1 and 0, shape
    (k - 1,) + the other axes.  The walk starts at the best line at p = 0 (the steepest of
    ties) and each time moves to the steeper line that meets the current one first."""
    k, shape = len(level), level.shape[1:]
    level, rise = level.reshape(k, -1), rise.reshape(k, -1)
    cols = np.arange(level.shape[1])
    start = level.max(axis=0)
    line = np.where(level == start, rise, -np.inf).argmax(axis=0)
    slope = first_slope = rise[line, cols]
    kinks, turns = [], []
    for _ in range(k - 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            meet = np.where(rise > slope, (level[line, cols] - level) / (rise - slope), np.inf)
        first = meet.min(axis=0)
        bends = first < 1.0
        line = np.where(bends, np.where(meet == first, rise, -np.inf).argmax(axis=0), line)
        kinks.append(np.where(bends, np.maximum(first, 0.0), 1.0))
        bent = rise[line, cols]
        turns.append(bent - slope)
        slope = bent
    kinks, turns = np.reshape(kinks, (k - 1,) + shape), np.reshape(turns, (k - 1,) + shape)
    return kinks, start.reshape(shape), first_slope.reshape(shape), turns


def _gain_at(p, g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """Deviation gains at audit probability ``p`` from ``PayoffTable.gain_lines``."""
    return (1.0 - p) * g0 + p * g1


def compute_payoff_table(mechanism: MechanismSpec, env: Environment) -> PayoffTable:
    """Exact payoff table over the full pure-strategy space (costs applied by the solvers)."""
    bases = pure_strategy_arrays(len(env.q_space))
    return PayoffTable(unchecked_rewards(mechanism, env, bases), audit_rewards(env))


def _best_no_effort_index(efforts, spot, k: int) -> int:
    """Best no-effort strategy by audit reward ``spot``: scanning in canonical order from the
    identity map, a strategy replaces the best only when it beats it by more than TOL."""
    best = low_identity_index(k)
    for i in np.flatnonzero(np.asarray(spot) > spot[best] + TOL):
        if efforts[i] == NO_EFFORT and spot[i] > spot[best] + TOL:
            best = int(i)
    return best


def is_symmetric_equilibrium(table: PayoffTable, strategy: Strategy, p: float, cost: float) -> EquilibriumRecord:
    """Certify a symmetric profile: no pure deviation improves by more than ``TOL``."""
    base_index = table.index_of(strategy)
    (max_gain,), (certified,) = table.certify(p, cost, [base_index])
    (utility,) = table.utilities(p, cost, [base_index])
    return EquilibriumRecord(strategy, float(utility), float(max_gain), certified=bool(certified))


def enumerate_symmetric_pure_equilibria(table: PayoffTable, p: float, cost: float) -> list:
    """All symmetric pure equilibria certified at ``TOL``, sorted by utility descending."""
    max_gains, certified = table.certify(p, cost, np.arange(len(table.own)))
    utilities = table.utilities(p, cost)
    records = [
        EquilibriumRecord(table.strategies[b], float(utilities[b]), float(max_gains[b]), certified=True)
        for b in np.flatnonzero(certified)
    ]
    records.sort(key=lambda r: -r.utility)
    return records


# ---------------------------------------------------------------------------
# Threshold solvers
# ---------------------------------------------------------------------------


def _audit_favours_truth(table: PayoffTable) -> bool:
    """Whether truth's audit value beats the best no-effort strategy's by more than
    ``TOL`` and no full-effort map's beats truth's by more than TOL, as an unbiased
    trusted channel gives.  Without it no audit probability makes truthful effort
    dominant at any cost: a map that beats truth at audit is preferred to it at
    every p > 0.  A trusted channel that is not aligned with the quality allows that."""
    truth = table.spot[table.truthful]
    best_full = table.spot[table.efforts == FULL_EFFORT].max()
    return bool(truth - table.spot[table.best_no_effort] > TOL and best_full <= truth + TOL)


def solve_p_ds(table: PayoffTable, cost: float):
    """Closed-form minimum audit probability making truthful effort dominant
    under a constant unchecked reward: cost / (audit value of truth - audit
    value of the best no-effort strategy), or NOT_ACHIEVABLE, as the bisection
    finds, where the audit does not favour truth (``_audit_favours_truth``) or
    the value is above 1.  Only the table's audit rewards enter, so any
    mechanism's table for the environment gives the same value."""
    _check(COST, "effort_cost", cost)
    if not _audit_favours_truth(table):
        return NOT_ACHIEVABLE
    p = cost / (float(table.spot[table.truthful]) - float(table.spot[table.best_no_effort]))
    if p > 1.0 + TOL:
        return NOT_ACHIEVABLE
    return min(p, 1.0)


def check_worthwhile_effort(table: PayoffTable, cost: float) -> bool:
    """True iff the audited value of a truthful high signal, less ``cost``, beats the best
    no-effort audit value; both audit values are read from the payoff table ``table``."""
    _check(COST, "effort_cost", cost)
    truthful = float(table.spot[table.truthful])
    return truthful - cost > float(table.spot[table.best_no_effort])


def solve_p_ds_bisection(env: Environment, cost: float):
    """Independent route to p_ds: bisect the truthful-vs-best-other dominance gap.

    The unchecked reward is constant, so the gap at probability p is
    p * spot(truth) - cost minus the best competing p * spot(s) - cost(s).
    It computes its own audit rewards and reads no payoff table.
    """
    _check(COST, "effort_cost", cost)
    efforts, maps = pure_strategy_arrays(len(env.q_space))
    spots = strategy_rewards(audit_rewards(env), efforts, maps)
    costs = cost * EFFORT_COST[efforts]

    def gap(p: float) -> float:
        utilities = p * spots - costs
        truthful = utilities[TRUTHFUL]
        utilities[TRUTHFUL] = -np.inf
        return truthful - utilities.max()

    if gap(1.0) < 0.0:
        return NOT_ACHIEVABLE
    lo, hi = 0.0, 1.0
    if gap(lo) >= 0.0:
        return 0.0
    while hi - lo > DS_REFINE:
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def solve_p_el(table: PayoffTable, cost: float, grid: float = DEFAULT_GRID):
    """Smallest audit probability eliminating the report-the-shared-draw equilibrium.

    The best response is recomputed at every probed probability; the
    deviation-gain envelope is a maximum of affine functions of p, hence
    convex, so the first sign change found on the grid brackets the unique
    boundary and bisection refines it to ``REFINE``.
    """
    _check(COST, "effort_cost", cost)
    points = _grid_points(grid)
    (g0,), (g1,) = table.gain_lines(cost, [table.best_no_effort])

    def max_gain(p: float) -> float:
        return float(_gain_at(p, g0, g1).max())

    if max_gain(0.0) > TOL:
        return NOT_APPLICABLE
    if max_gain(1.0) <= TOL:
        return NOT_FOUND
    lo = 0.0
    hi = 1.0
    for p in points:
        if max_gain(float(p)) > TOL:
            hi = float(p)
            break
        lo = float(p)
    while hi - lo > REFINE:
        mid = 0.5 * (lo + hi)
        if max_gain(mid) > TOL:
            hi = mid
        else:
            lo = mid
    return hi


def solve_p_ex(table: PayoffTable, cost: float):
    """Audit probability at which the truthful profile's utility overtakes the
    report-the-shared-draw profile's, solved from the affine indifference."""
    _check(COST, "effort_cost", cost)
    t, g = table.truthful, table.best_no_effort
    z_tt = table.own[t]
    z_gg = table.own[g]
    gap0 = (z_tt - cost) - z_gg
    slope = (table.spot[t] - table.spot[g]) - (z_tt - z_gg)
    if gap0 >= -TOL:
        return 0.0
    if slope <= TOL:
        return NOT_APPLICABLE
    p = float(-gap0 / slope)
    if p > 1.0 + TOL:
        return NOT_APPLICABLE
    return min(p, 1.0)


def solve_p_pareto(table: PayoffTable, cost: float, grid: float = DEFAULT_GRID):
    """Smallest grid probability at which the truthful profile is a certified
    equilibrium and weakly best among all certified symmetric pure equilibria,
    or NOT_FOUND: ``solve_p_pareto_sweep`` at the one cost."""
    (p,) = solve_p_pareto_sweep(table, [cost], grid)
    return p


def solve_p_pareto_sweep(table: PayoffTable, costs, grid: float = DEFAULT_GRID) -> list:
    """``solve_p_pareto`` at each effort cost of ``costs``, in order, every cost checked by
    ``signals.COST`` before the grid is read.

    ``_certified_intervals`` finds truthful's interval of certified grid points at
    every cost in one search; each is the span searched at its cost.  A point of a
    span fails when another base certified there has a utility above the truthful
    utility plus ``TOL``; the answer is the first point that none rules out
    (``_ruled_out``).  Only the (cost, base) pairs whose lead over the truthful
    utility plus TOL (``_lead``) is above minus its rounding slack (``_lead_slack``)
    at an end of that cost's span get a second interval search, all in one call.  A
    lead is affine in p, so one at or below minus the slack at both ends stays below
    it, up to a few roundings far inside the slack, at every grid point between, and
    rules none out.  Certification at ``TOL`` is the dense gain row's decision and
    utilities at a grid point are compared with the dense scan's expressions, each
    (cost, base) column with its own cost, so the answer at each cost is the grid
    point that scan returns.  Costs are solved ``SWEEP_BLOCK`` elements at a time.
    """
    costs = list(costs)
    for cost in costs:
        _check(COST, "effort_cost", cost)
    points = _grid_points(grid)
    costs, step = np.array(costs, dtype=float), max(1, SWEEP_BLOCK // (len(table.own) + len(points)))
    return [p for i in range(0, len(costs), step) for p in _pareto_block(table, costs[i : i + step], points)]


def _pareto_block(table: PayoffTable, costs: np.ndarray, points: np.ndarray) -> list:
    """``solve_p_pareto_sweep`` at the checked ``costs`` on the grid ``points``."""
    t = table.truthful
    t_lo, t_hi = _certified_intervals(table, costs, points, np.full(len(costs), t))
    live = np.flatnonzero(t_lo <= t_hi)  # the costs at which truthful is certified somewhere
    first, last, cost = t_lo[live], t_hi[live], costs[live]
    ends, every = points[np.stack([first, last])][..., None], slice(None)
    near = (_lead(table, cost[:, None], ends, every) > -_lead_slack(table, cost[:, None], every)).any(axis=0)
    near[:, t] = False
    owner, candidates = np.nonzero(near)  # (span, base) pairs, by span and then by base
    span = last - first + 1
    ruled = np.zeros(span.sum(), dtype=bool)  # every span's points, laid end to end
    if candidates.size:
        lo, hi = _certified_intervals(table, cost[owner], points, candidates)
        meets = (lo <= hi) & (lo <= last[owner]) & (hi >= first[owner])
        owner = owner[meets]
        windows = np.maximum(lo[meets], first[owner]), np.minimum(hi[meets], last[owner])
        shifts = (np.cumsum(span) - span - first)[owner]
        ruled = _ruled_out(table, cost[owner], points, candidates[meets], windows, shifts, len(ruled))
    answers = [NOT_FOUND] * len(costs)
    for i, at, segment in zip(live, first, np.split(ruled, np.cumsum(span)[:-1])):
        free = segment.argmin()  # the first point no base rules out, unless every one is
        if not segment[free]:
            answers[i] = float(points[at + free])
    return answers


def _lead(table: PayoffTable, cost, p, bases) -> np.ndarray:
    """Each base's utility at p less the truthful utility plus ``TOL``, at one cost or one per
    column: > 0 exactly where the dense scan finds the base beats truthful."""
    return table._utility(p, cost, bases) - (table._utility(p, cost, table.truthful) + TOL)


def _lead_slack(table: PayoffTable, cost, bases) -> np.ndarray:
    """Bound on the rounding in each base's ``_lead``, from the terms of both utilities."""
    return VERIFY_SLACK * (table.magnitude[bases] + table.magnitude[table.truthful] + 2.0 * cost)


def _ruled_out(table: PayoffTable, costs, points, rivals, windows: tuple, shifts, size: int):
    """Which of ``size`` points, spans of grid points laid end to end, some base in ``rivals``
    rules out: rival i, at effort cost ``costs[i]``, rules out grid index j at position
    ``j + shifts[i]`` where it is certified (its window, from ``windows`` = (first, last) per
    rival) and its utility beats the truthful one plus ``TOL`` by the dense scan's comparison.

    A base's lead over the truthful utility plus TOL is affine in p.  Where it clears the
    rounding slack ``VERIFY_SLACK * (magnitude[b] + magnitude[t] + 2 * cost)`` at both window
    ends, the base rules out its whole window, and where it misses by more at both, nothing.
    Otherwise the lead crosses zero once: the part of the window past the crossing by more
    than the slack is ruled out whole, and the grid points within the slack of it are
    compared one by one (all of them, for a lead too flat to place the crossing),
    ``PARETO_BLOCK`` rivals at a time.
    """
    slack = _lead_slack(table, costs, rivals)
    a, b = windows
    at_a, at_b = _lead(table, costs, points[a], rivals), _lead(table, costs, points[b], rivals)
    whole = (at_a > slack) & (at_b > slack)
    crossing = np.flatnonzero(~whole & ~((at_a < -slack) & (at_b < -slack)))
    a_c, b_c, at_a, at_b = a[crossing], b[crossing], at_a[crossing], at_b[crossing]
    with np.errstate(divide="ignore", invalid="ignore"):
        middle = a_c + (b_c - a_c) * (at_a / (at_a - at_b))
        half = 2.0 * slack[crossing] * (b_c - a_c) / np.abs(at_b - at_a) + 1.0  # NaN, inf when flat
    zone_lo = np.fmax(np.ceil(middle - half), a_c).astype(int)
    zone_hi = np.fmin(np.floor(middle + half), b_c).astype(int)
    rising = at_b > at_a

    # Whole windows and the parts past a crossing, as intervals.
    starts = np.concatenate([a[whole] + shifts[whole], np.where(rising, zone_hi + 1, a_c) + shifts[crossing]])
    stops = np.concatenate([b[whole] + shifts[whole], np.where(rising, b_c, zone_lo - 1) + shifts[crossing]])
    keep = starts <= stops
    counts = np.bincount(starts[keep], minlength=size + 1) - np.bincount(stops[keep] + 1, minlength=size + 1)
    ruled = np.cumsum(counts[:-1]) > 0

    # Grid points near a crossing, one by one.
    for start in range(0, len(crossing), PARETO_BLOCK):
        block = slice(start, start + PARETO_BLOCK)
        rows = crossing[block]
        width = np.maximum(zone_hi[block] - zone_lo[block] + 1, 0)
        offset = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        index = np.repeat(zone_lo[block], width) + offset
        lead = _lead(table, np.repeat(costs[rows], width), points[index], np.repeat(rivals[rows], width))
        ruled[(index + np.repeat(shifts[rows], width))[lead > 0]] = True
    return ruled


def _certified_intervals(table: PayoffTable, cost, points: np.ndarray, cols: np.ndarray):
    """Grid-index interval [lo, hi] on which each base in ``cols`` is a certified
    symmetric equilibrium, at one effort cost or one per column; lo > hi when it is
    certified at no grid point.

    Each effort's best deviation gain is convex and piecewise linear in p
    (``PayoffTable.kinked_gains``), so it stays within ``TOL`` on one interval,
    found between the kinks where it crosses; the base is certified where both
    efforts' intervals meet.  A kink counts as within TOL up to the rounding
    slack of ``PayoffTable.certify``, so a zero plateau read a few ulps high
    still gives its interval.  The ends are rounded onto the grid and confirmed
    by ``PayoffTable.certify`` at each end and one point outside it, so every
    decision is the dense row's.  A base where rounding misplaced an end gets
    its interval from one ``certify`` read at every grid point: its first and
    last certified points.
    """
    cols = np.asarray(cols)
    cost = np.broadcast_to(np.asarray(cost, dtype=float), cols.shape)
    step = max(1, SWEEP_BLOCK // (2 * table._pieces.shape[2]))
    blocks = range(0, max(len(cols), 1), step)  # no columns make one empty block
    lo, hi = zip(*(_interval_block(table, cost[i : i + step], points, cols[i : i + step]) for i in blocks))
    return np.concatenate(lo), np.concatenate(hi)


def _interval_block(table: PayoffTable, cost: np.ndarray, points: np.ndarray, cols: np.ndarray):
    """``_certified_intervals`` over one block of columns, each with its cost."""
    n = len(points) - 1
    kinks, gains, slopes = table._pieces[..., cols]
    excess = gains - (TOL + cost * (EFFORT_COST[:, None] - table.full_effort[cols]))[:, None]  # <= 0 within TOL
    slack = VERIFY_SLACK * (table.magnitude[cols] + cost)
    within = excess <= slack
    over = np.where(within, np.minimum(excess, 0.0), excess)  # an end lies at or past a kink within
    last = kinks.shape[1] - 1
    first_in, last_in = within.argmax(axis=1), last - within[:, ::-1].argmax(axis=1)
    # Each end lies on the segment from the last kink outside to the first kink inside,
    # or is 0 or 1 itself (i == j); rows are (left, right), then effort, then base.
    i = np.array((np.maximum(first_in - 1, 0), last_in))
    j = np.array((first_in, np.minimum(last_in + 1, last)))
    effort, base = np.arange(2)[:, None], np.arange(len(cols))
    p_i, p_j, y_i, y_j = kinks[effort, i, base], kinks[effort, j, base], over[effort, i, base], over[effort, j, base]
    with np.errstate(divide="ignore", invalid="ignore"):
        ends = np.where(i == j, p_i, p_i - y_i * (p_j - p_i) / (y_j - y_i))
    left, right = ends[0].max(axis=0), ends[1].min(axis=0)
    none = ~within.any(axis=1).all(axis=0)
    if none.any():  # look near the kink where the gain is least
        left = np.where(none, kinks[effort, over.argmin(axis=1), base].max(axis=0), left)
    lo = np.ceil(left * n).astype(int)
    hi = np.where(none, lo - 1, np.floor(right * n).astype(int))

    probes = np.array((lo - 1, lo, hi, hi + 1))
    expected = (lo <= probes) & (probes <= hi)
    certified = table._certify(points[np.clip(probes, 0, n)], cost, cols)[1]
    misplaced = (certified != expected) & (probes >= 0) & (probes <= n)
    for j in np.flatnonzero(misplaced.any(axis=0)):
        dense = np.flatnonzero(table._certify(points[:, None], cost[[j]], cols[[j]])[1])
        lo[j], hi[j] = (dense[0], dense[-1]) if dense.size else (1, 0)
    return lo, hi


def check_pareto_bound_condition(table: PayoffTable) -> bool:
    """Sufficient condition for the dominance comparison: at zero cost and zero
    audit probability, the report-the-shared-draw profile is an equilibrium and
    weakly Pareto dominates the truthful profile, both up to ``TOL``, and the
    audit favours truth (``_audit_favours_truth``), the unbiased trusted
    evaluations the comparison assumes; without that no p_ds exists to compare."""
    t, g = table.truthful, table.best_no_effort
    (_,), (equilibrium,) = table.certify(0.0, 0.0, [g])
    return bool(equilibrium and table.own[g] + TOL >= table.own[t] and _audit_favours_truth(table))


def compute_thresholds(table: PayoffTable, cost: float, grid: float = DEFAULT_GRID) -> ThresholdReport:
    """All four thresholds plus the sufficient-condition flag at one effort cost:
    ``compute_threshold_sweep`` at that cost."""
    (report,) = compute_threshold_sweep(table, [cost], grid)
    return report


def compute_threshold_sweep(table: PayoffTable, costs, grid: float = DEFAULT_GRID) -> list:
    """One ``ThresholdReport`` per effort cost of ``costs``, in order: all four thresholds
    plus the sufficient-condition flag, certified at ``TOL``.  Every cost is checked by
    ``signals.COST`` before the grid is checked by ``GRID`` and its points are built.

    No table entry depends on the cost, so the flag is computed once and ``p_pareto``
    at every cost in one ``solve_p_pareto_sweep``; ``p_ds``, ``p_el`` and ``p_ex`` are
    solved per cost."""
    costs = list(costs)
    p_pareto = solve_p_pareto_sweep(table, costs, grid)
    if not costs:  # no report reads the flag, whose certify would build every base's pieces
        return []
    flag = check_pareto_bound_condition(table)
    return [
        ThresholdReport(
            p_ds=solve_p_ds(table, cost),
            p_el=solve_p_el(table, cost, grid=grid),
            p_ex=solve_p_ex(table, cost),
            p_pareto=pareto,
            grid=grid,
            pareto_bound_condition=flag,
        )
        for cost, pareto in zip(costs, p_pareto)
    ]


def construct_dominated_environment(mechanism: MechanismSpec, candidates: list, cost: float):
    """Compose an environment whose no-effort coordination equilibrium strictly
    beats the truthful profile at effort cost ``cost`` and zero audit probability.

    Candidates must elicit truth at zero cost and zero audit probability.  The
    composed environment reuses one candidate's high channel as the shared
    low channel of another whose truthful payoff is no larger, so gathering
    the costly signal buys nothing the shared draw does not already provide.
    Returns NOT_FOUND when no elicitable ordered pair qualifies.  Certifies at ``TOL``.
    """
    _check(COST, "effort_cost", cost)
    elicitable = []
    for env in candidates:
        table = compute_payoff_table(mechanism, env)
        (_,), (certified,) = table.certify(0.0, 0.0, [TRUTHFUL])
        if certified:
            elicitable.append((env, table.utilities(0.0, 0.0, TRUTHFUL)))
    for donor, donor_payoff in elicitable:
        for host, host_payoff in elicitable:
            if donor_payoff < host_payoff - TOL:
                continue
            if len(donor.q_space) != len(host.q_space):
                continue
            composed = replace(
                host,
                low_channel=donor.high_channel,
                env_id=f"{host.env_id}-low-from-{donor.env_id}",
            )
            table = compute_payoff_table(mechanism, composed)
            g = table.best_no_effort
            (_,), (certified,) = table.certify(0.0, cost, [g])
            utilities = table.utilities(0.0, cost)
            if certified and utilities[g] > utilities[TRUTHFUL] + TOL:
                return composed
    return NOT_FOUND
