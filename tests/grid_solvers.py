"""Grid solvers that evaluate the threshold conditions with their own expressions.

Each reads the dense (deviant, base) unchecked matrix, which the package no
longer builds: ``unchecked`` gathers it from the table's per-observation
terms, summing over observations in the order the package does, so its
diagonal is the table's ``own`` and its columns are the package's gain rows
bit for bit.

``solve_p_pareto`` here is the package's former solver.  It builds the
(points, S, S) deviation-gain array and the (points, S) utility array and
takes the first grid point where the truthful profile is certified and no
certified base beats it.  ``peerspot.equilibrium.solve_p_pareto`` derives the
same grid point from per-base equilibrium intervals, and must return exactly
what this one returns.

It allocates three arrays of 1001·S² floats: about 70 MB at k=3 (S=54) and
6 GB at k=4 (S=512).  At k=4 use ``scan_p_pareto``, which visits the same
grid points one at a time.

``scan_p_el`` is the package's former ``p_el`` solver.  It writes each
deviation gain against the coordination base as the deviant's combined
utility minus the base's, where ``peerspot.equilibrium.solve_p_el`` reads the
lines of ``PayoffTable.gain_lines``.  The two round exact ties differently at
a tolerance of 0, so compare them at ``equilibrium.TOL``, never with it patched to 0.

The package certifies at the one constant ``equilibrium.TOL``, which an exact-tie test
patches to 0.  The references here take the tolerance as an explicit ``tol`` instead
(``TOL`` by default), so such a test passes them the value it patched in.

``best_effort_values`` is the package's former separable best response: the
best deviant per effort at given points, read without kinks, against which the
pieces of ``PayoffTable.kinked_gains`` are checked.
"""

from __future__ import annotations

import numpy as np

from peerspot._expectations import strategy_rewards
from peerspot.equilibrium import (
    DEFAULT_GRID,
    NOT_APPLICABLE,
    NOT_FOUND,
    REFINE,
    TOL,
    PayoffTable,
    _gain_at,
)


def gather_unchecked(values: np.ndarray, efforts: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """z[d, g] = sum_o values[g, efforts[d], o, maps[d, o]], shape (deviants, bases)."""
    return strategy_rewards(values, efforts, maps, np.arange(len(values))[:, None]).T


def unchecked(table: PayoffTable) -> np.ndarray:
    """The table's dense unchecked matrix, [deviant, base]."""
    return gather_unchecked(table.unchecked_terms, table.efforts, table.maps)


def dense_gains(table: PayoffTable, base_index: int, p: float, cost: float) -> np.ndarray:
    """Deviation gains against one symmetric base at audit probability p, one entry per
    deviant strategy: the base's dense ``gain_lines`` row."""
    (g0,), (g1,) = table.gain_lines(cost, [base_index])
    return _gain_at(p, g0, g1)


def best_effort_values(table: PayoffTable, p, bases) -> np.ndarray:
    """What the best deviant with each effort earns against each base in ``bases`` at audit
    probability ``p`` (one value, or one per base), before effort costs: shape
    (2, len(bases)).  A deviant picks its report per observation, so the best one with
    effort e earns ``sum_o max_r (V + p (A - V))``, read at p without kinks."""
    level = table.unchecked_terms[np.asarray(bases)]  # [base, effort, observation, report]
    at = np.reshape(np.asarray(p, dtype=float), (-1, 1, 1, 1))
    return (level + at * (table.audit_terms - level)).max(axis=-1).sum(axis=-1).T


def solve_p_pareto(table: PayoffTable, cost: float, grid: float = DEFAULT_GRID, tol: float = TOL):
    """Smallest grid probability at which the truthful profile is a certified
    equilibrium and weakly best among all certified symmetric pure equilibria,
    or NOT_FOUND."""
    spot, z, full = table.spot, unchecked(table), table.full_effort
    diag = np.diag(z)
    t = table.truthful

    gains0 = (z - diag[None, :]) - cost * (full[:, None] - full[None, :])
    gains1 = (spot[:, None] - spot[None, :]) - cost * (full[:, None] - full[None, :])
    points = np.linspace(0.0, 1.0, int(round(1.0 / grid)) + 1)
    gains = (1.0 - points)[:, None, None] * gains0[None] + points[:, None, None] * gains1[None]
    is_eq = gains.max(axis=1) <= tol  # (P, S)
    utilities = (
        points[:, None] * spot[None, :]
        + (1.0 - points)[:, None] * diag[None, :]
        - cost * full[None, :]
    )
    dominated = utilities[:, t : t + 1] + tol >= utilities
    feasible = is_eq[:, t] & np.all(~is_eq | dominated, axis=1)
    if not feasible.any():
        return NOT_FOUND
    return float(points[int(np.argmax(feasible))])


def scan_p_pareto(table: PayoffTable, cost: float, grid: float = DEFAULT_GRID, tol: float = TOL):
    """``solve_p_pareto`` one grid point at a time, stopping at the first feasible one.

    Every value it compares is computed by the same expression as in the dense
    solver, so it returns the same grid point, in O(S²) memory: the oracle for
    k=4 tables.
    """
    spot, z, full = table.spot, unchecked(table), table.full_effort
    diag = np.diag(z)
    t = table.truthful

    gains0 = (z - diag[None, :]) - cost * (full[:, None] - full[None, :])
    gains1 = (spot[:, None] - spot[None, :]) - cost * (full[:, None] - full[None, :])
    for p in np.linspace(0.0, 1.0, int(round(1.0 / grid)) + 1):
        is_eq = ((1.0 - p) * gains0 + p * gains1).max(axis=0) <= tol
        utilities = p * spot + (1.0 - p) * diag - cost * full
        if is_eq[t] and np.all(~is_eq | (utilities[t] + tol >= utilities)):
            return float(p)
    return NOT_FOUND


def scan_p_el(table: PayoffTable, cost: float, grid: float = DEFAULT_GRID, tol: float = TOL):
    """Smallest audit probability eliminating the report-the-shared-draw equilibrium:
    the first grid point where some deviation gains more than ``tol``, then bisection."""
    # Each gain is the deviant's combined utility minus the base's; terms without p are read once.
    b = table.best_no_effort
    z = unchecked(table)
    spot, z_col = table.spot, np.ascontiguousarray(z[:, b])
    cost_full = cost * table.full_effort
    spot_b, z_bb, cost_b = spot[b], z[b, b], cost * table.full_effort[b]

    def max_gain(p: float) -> float:
        conform = p * spot_b + (1.0 - p) * z_bb - cost_b
        return float((p * spot + (1.0 - p) * z_col - cost_full - conform).max())

    if max_gain(0.0) > tol:
        return NOT_APPLICABLE
    if max_gain(1.0) <= tol:
        return NOT_FOUND
    points = np.linspace(0.0, 1.0, int(round(1.0 / grid)) + 1)
    lo = 0.0
    hi = 1.0
    for p in points:
        if max_gain(float(p)) > tol:
            hi = float(p)
            break
        lo = float(p)
    while hi - lo > REFINE:
        mid = 0.5 * (lo + hi)
        if max_gain(mid) > tol:
            hi = mid
        else:
            lo = mid
    return hi
