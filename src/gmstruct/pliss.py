"""Hyperbolic time detection and expansion-time statistics.

A time n is a sigma-hyperbolic time for an orbit with log contraction
factors a_1, a_2, ... when every backward window satisfies
a_{n-k+1} + ... + a_n <= k log sigma.  Writing b_j = a_j - log sigma and
B_n for the prefix sums of b (B_0 = 0), this is equivalent to B_n being a
record minimum: B_n <= B_m for all 0 <= m < n, which a running-minimum
scan detects in linear time.

The disk scan and the inducing construction step their orbits with
``dynamics.CocycleScan``, which returns the expansion ||Df|E^cu|| of each
step, so a_n = -log expansion.  Hyperbolic times only carve the partition,
so only the construction applies :func:`hyperbolic_flags`.

The expansion time of an orbit is the first index N from which every
running average of the a_j stays below -c.  On a finite horizon the tail
of the condition is unobservable, so results whose certifying suffix is
shorter than a guard window are reported as censored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CocycleScan, ModelSystem

GUARD_FRAC = 0.1        # shortest certifying suffix of an uncensored E, per horizon
GRID_RATIO = 1.25       # ratio of the geometric n-grids every curve is measured on
DISK_CENTER = 0.25      # center of the base arc scanned by default
DISK_RADIUS = 0.45      # radius of the base arc scanned by default


@dataclass
class Curve:
    """A measured curve: values[i] at n = n_values[i].

    ``error`` is the censored mass of a survival curve, or the Monte Carlo
    error of an ensemble statistic.
    """

    n_values: np.ndarray
    values: np.ndarray
    error: float = 0.0


def _censored(value, horizon: int):
    """Whether E = value leaves a certifying suffix shorter than GUARD_FRAC * horizon."""
    return value > horizon - max(1, int(math.ceil(GUARD_FRAC * horizon))) + 1


# ---------------------------------------------------------------------------
# disk-wide scans


@dataclass
class DiskScan:
    """Pointwise expansion times over a grid on a base arc."""

    expansion_time: np.ndarray  # pointwise E (== horizon for censored points)
    censored: np.ndarray        # bool mask


def disk_grid_points(center: float, radius: float, grid: int) -> np.ndarray:
    """Cell-center sample of the base arc of given radius around center."""
    h = 2.0 * radius / grid
    return (center - radius + h * (np.arange(grid) + 0.5)) % 1.0


def hyperbolic_flags(bsum, bmin, a, log_sigma: float):
    """Add a_n - log sigma to the prefix sums ``bsum`` in place; flags the record minima.

    Returns B_n <= min_{m<n} B_m and keeps ``bmin`` the running minimum (both start at 0).
    """
    bsum += a - log_sigma
    flags = bsum <= bmin
    np.minimum(bmin, bsum, out=bmin)
    return flags


def disk_scan(sys: ModelSystem, points, horizon: int, c: float) -> DiskScan:
    """Vectorized orbit scan computing the expansion time E of every point.

    Runs the tangent cocycle along every orbit simultaneously; memory stays
    O(grid) by streaming over time instead of materializing the series.
    """
    scan = CocycleScan(points)
    m = len(scan.t)
    la = sys.constant_log_expansion     # a_j = -la everywhere: one prefix sum serves all
    ssum = np.zeros(m) if la is None else 0.0   # prefix sum of a_j
    last_fail = np.zeros(m, dtype=np.int64)
    for n in range(1, horizon + 1):
        # every orbit steps even so: bench/run.py counts grid x horizon tangent pushes
        e, _ = scan.advance(sys)
        if la is None:
            # e is the scan's buffer, so its log may overwrite it
            ssum -= np.log(e, out=e)
            np.copyto(last_fail, n, where=(ssum >= -c * n))
        elif (ssum := ssum - la) >= -c * n:
            last_fail.fill(n)
    evalue = last_fail + 1
    censored = _censored(evalue, horizon)
    evalue = np.where(censored, horizon, evalue)
    return DiskScan(expansion_time=evalue, censored=censored)


def geometric_grid(horizon: int) -> np.ndarray:
    """n-grid ceil(GRID_RATIO^k) up to horizon, deduplicated, for log-log fits."""
    out = []
    x = 1.0
    while True:
        n = int(math.ceil(x))
        if n > horizon:
            break
        if not out or n != out[-1]:
            out.append(n)
        x *= GRID_RATIO
    return np.array(out, dtype=np.int64)


def expansion_tail(sys: ModelSystem, disk_grid: int, c: float, horizon: int,
                   center: float = DISK_CENTER, radius: float = DISK_RADIUS) -> Curve:
    """Survival curve Leb_D{ E > n } on a geometric n-grid.

    Censored grid points count toward the survival at every n <= horizon.
    """
    scan = disk_scan(sys, disk_grid_points(center, radius, disk_grid), horizon, c)
    return survival_curve(scan.expansion_time, scan.censored, geometric_grid(horizon))


def survival_curve(values, censored, ngrid) -> Curve:
    """Survival Leb{ value > n } for n in ``ngrid``, each value an equal-mass grid point.

    Censored points survive at every n; their share is the curve's error.
    """
    m = len(values)
    vals = np.where(censored, np.iinfo(np.int64).max, values)
    survival = np.array([np.count_nonzero(vals > n) for n in ngrid], dtype=float) / m
    return Curve(n_values=ngrid, values=survival,
                 error=float(np.count_nonzero(censored)) / m)
