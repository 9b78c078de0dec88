"""Hyperbolic time detection and expansion-time statistics.

A time n is a sigma-hyperbolic time for an orbit with log contraction
factors a_1, a_2, ... when every backward window satisfies
a_{n-k+1} + ... + a_n <= k log sigma.  Writing b_j = a_j - log sigma and
B_n for the prefix sums of b (B_0 = 0), this is equivalent to B_n being a
record minimum: B_n <= B_m for all 0 <= m < n, which a running-minimum
scan detects in linear time.

Along many orbits at once :class:`PlissScan` streams this scan with the
tangent cocycle; the disk scan and the inducing construction step their
orbits through it.

The expansion time of an orbit is the first index N from which every
running average of the a_j stays below -c.  On a finite horizon the tail
of the condition is unobservable, so results whose certifying suffix is
shorter than a guard window are reported as censored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSystem, dither

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
    """Pointwise expansion/hyperbolicity data over a grid on a base arc."""

    points: np.ndarray          # base coordinates of the grid
    expansion_time: np.ndarray  # pointwise E (== horizon for censored points)
    censored: np.ndarray        # bool mask
    hyp_count: np.ndarray       # number of hyperbolic times in [1, horizon]
    hyp_count_at: dict          # n -> counts in [1, n] for requested checkpoints
    max_expansion_log: float    # sup of -a_j over the whole scan
    horizon: int


def disk_grid_points(center: float, radius: float, grid: int) -> np.ndarray:
    """Cell-center sample of the base arc of given radius around center."""
    h = 2.0 * radius / grid
    return (center - radius + h * (np.arange(grid) + 0.5)) % 1.0


class PlissScan:
    """Streaming Pliss scan: tangent cocycle and record minima along many orbits.

    ``t`` holds the current base points, ``s1``/``s2`` their cu slopes
    (horizontal at the start), ``bsum`` the prefix sums B_n and ``bmin`` the
    running minimum of B_m over m < n.  With ``rng`` every step is dithered.
    The scan owns its work arrays, so a step allocates only g'(t) and the
    select's mask: ``spare`` receives g(t) and trades places with ``t``.
    """

    def __init__(self, points, sigma: float, rng=None):
        self.t = np.array(points, dtype=float)
        m = len(self.t)
        self.s1 = np.zeros(m)
        self.s2 = np.zeros(m)
        self.bsum = np.zeros(m)
        self.bmin = np.zeros(m)
        self.log_sigma = math.log(sigma)
        self.rng = rng
        # g(t), a_n, two scratch rows and a coupled push's new slopes, in one
        # block: as six separate arrays, once freed, they left the peak RSS
        # of a later stage about 2 MB higher (glibc keeps that heap)
        self.spare, self._a, self._w1, self._w2, self._n1, self._n2 = np.empty((6, m))
        self._hyp = np.empty(m, dtype=bool)

    def advance(self, sys: ModelSystem):
        """Step every orbit once; returns (a_n, n is sigma-hyperbolic, g'(t_{n-1})) per orbit.

        a_n and the flags live in the scan's buffers: the next call
        overwrites them, so copy what must outlive it.  ``spare`` holds the
        previous ``t`` until then.
        """
        w1, w2 = self._w1, self._w2
        g, gp = sys.base_step(self.t, out=(self.spare, w1))
        s1, s2, expansion = sys.push_tangent(self.t, self.s1, self.s2, gp,
                                             out=(self._n1, self._n2, self._a, w1, w2))
        a = np.log(expansion, out=self._a)
        np.negative(a, out=a)
        self.bsum += np.subtract(a, self.log_sigma, out=w1)
        hyp = np.less_equal(self.bsum, self.bmin, out=self._hyp)
        np.minimum(self.bmin, self.bsum, out=self.bmin)
        if s1 is not self.s1:
            # a coupled push wrote the new slopes into the spare pair
            self._n1, self._n2, self.s1, self.s2 = self.s1, self.s2, s1, s2
        self.t, self.spare = g, self.t
        if self.rng is not None:
            dither(self.t, self.rng, out=self.t, work=w1)
        return a, hyp, gp


def disk_scan(sys: ModelSystem, points, horizon: int, sigma: float, c: float,
              checkpoints=()) -> DiskScan:
    """Vectorized orbit scan computing E and hyperbolic-time counts per point.

    Runs the tangent cocycle along every orbit simultaneously; memory stays
    O(grid) by streaming over time instead of materializing the series.
    """
    scan = PlissScan(points, sigma)
    m = len(scan.t)
    ssum = np.zeros(m)            # prefix sum of a_j
    last_fail = np.zeros(m, dtype=np.int64)
    hyp_count = np.zeros(m, dtype=np.int64)
    hyp_count_at = {}
    max_neg_a = 0.0
    checkpoints = set(int(k) for k in checkpoints)
    for n in range(1, horizon + 1):
        a, hyp, _ = scan.advance(sys)
        max_neg_a = max(max_neg_a, -float(np.min(a)))
        ssum += a
        hyp_count += hyp
        np.copyto(last_fail, n, where=(ssum >= -c * n))
        if n in checkpoints:
            hyp_count_at[n] = hyp_count.copy()
    evalue = last_fail + 1
    censored = _censored(evalue, horizon)
    evalue = np.where(censored, horizon, evalue)
    return DiskScan(points=np.array(points, dtype=float), expansion_time=evalue,
                    censored=censored, hyp_count=hyp_count, hyp_count_at=hyp_count_at,
                    max_expansion_log=max_neg_a, horizon=horizon)


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


def expansion_tail(sys: ModelSystem, disk_grid: int, c: float, horizon: int, sigma: float,
                   center: float = DISK_CENTER, radius: float = DISK_RADIUS) -> Curve:
    """Survival curve Leb_D{ E > n } on a geometric n-grid.

    Censored grid points count toward the survival at every n <= horizon.
    """
    scan = disk_scan(sys, disk_grid_points(center, radius, disk_grid), horizon, sigma, c)
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
