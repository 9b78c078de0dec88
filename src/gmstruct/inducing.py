"""Inductive construction of the Gibbs-Markov inducing structure.

The reference unstable disk D is a horizontal base arc of radius delta1
around a base point p; the partitioned disk is the sub-arc of radius
delta0.  Because stable leaves are exact vertical fibers in the
skew-product models, the stable-holonomy projection is the base
coordinate map, so "the image u-crosses the cylinder C^i" is exactly
"the base projection of the image covers the radius-i arc around p".

The construction is pointwise: the radius-delta0 arc is sampled on a
uniform grid (cell width = the resolution parameter) and every grid
point carries its own orbit, tangent slope, log-derivative and return
time R; the Pliss prefix sums, the hyperbolic-time record and the wait
values live on the active points only, and a carve drops its points from
them.  A point is carved into an element
{R = n} when, at a step n > R0, it sits in A^eps_{n-1}, had a recent
sigma-hyperbolic time (within N0 steps, so a hyperbolic pre-ball
certifies that its component fully u-crosses), and its image lands
within delta0 of p.  Points landing in the surrounding ring annulus get
wait values from the ring index of their image and count down.  Mass is
accounted in exact integer grid-point counts, so per-step conservation
is exact.

True element intervals are recovered by Newton root-finding on the base
coordinate (solving for image offset = +-delta0), which is possible
whenever the element is wide enough for double precision.
``verify_structure`` draws one sample of such elements, solves their edges
once, and checks (P1) and (P3)/(P4) on the same intervals; ``markov.skipped``
counts the carved samples left out.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import CocycleScan, ModelSystem, circle_offset, dither_rng
from .pliss import disk_grid_points, geometric_grid, hyperbolic_flags, survival_curve
from .stats import least_squares

SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# parameters


#: radius of the reference disk D (and of hyperbolic pre-ball images)
DELTA1 = 0.45
#: guaranteed image-disk radius at hyperbolic times
DELTA2 = DELTA1 / 4.0
#: stable-leaf length of the cylinders
DELTA_S = DELTA1 / 4.0
#: longest wait between the certifying hyperbolic time and a carve
N0 = 64
#: backward-contraction constant of eq. (P3): a fixed bound, not calibrated
C0 = 2.0
#: stable/cu angle constant; exactly 1 for vertical fibers
C1 = 1.0
#: sup ||Df^-1|E^cu||; <= 1 when the base map never contracts
K0 = 1.0
#: most grid points a construction (or, through config, the tails scan) may
#: sample: each carries about a dozen 8-byte arrays (orbit, scan buffers,
#: Pliss sums, log-derivatives, waits, R, ...), so 2^25 points hold about 3 GB
MAX_GRID = 2 ** 25
#: narrowest predicted element width that verification resolves and checks
WIDTH_FLOOR = 1e-11
#: Newton edge refinement: iteration cap and the residual that stops it
NEWTON_ITERS, NEWTON_TOL = 60, 1e-12
#: P1 edge-image tolerance, widened by the worst Newton residual
EDGE_TOL = 1e-9


@dataclass
class ConstructionParams:
    """Constants of the inductive construction.

    ``delta0`` is the radius of the partitioned arc, ``epsilon`` the A^eps
    margin and ``resolution`` the sampling cell width of the pointwise grid;
    the remaining constants are the module-level DELTA1 ... K0.  The fields
    are not checked here: the rule table in ``config.py`` checks them.
    It owns what the fields imply: ``cell_width``, and through ``k_max`` and
    ``ring_index`` the wait assignment's ring annuli, I_k spanning distances
    delta0 (1 + sigma^{k/2}) to delta0 (1 + sigma^{(k-1)/2}) from p.
    """

    delta0: float
    sigma: float
    c: float
    n_max: int
    epsilon: float = None
    R0: int = 20
    resolution: float = 2.0 ** -20

    def __post_init__(self):
        if self.epsilon is None:
            self.epsilon = 0.5 * self.epsilon_max()

    def epsilon_max(self):
        """Largest admissible A^eps margin keeping carves off waiting points."""
        return (C1 / C0) * self.delta0 * (self.sigma ** -0.5 - 1.0)

    @property
    def grid_size(self):
        return int(math.ceil(2.0 * self.delta0 / self.resolution))

    @property
    def cell_width(self):
        return 2.0 * self.delta0 / self.grid_size

    @functools.cached_property
    def k_max(self):
        """Last ring index: the rings narrower than the resolution merge into it."""
        d0, s = self.delta0, self.sigma
        k_max = 1
        while d0 * (s ** (k_max / 2.0) - s ** ((k_max + 1) / 2.0)) >= self.resolution:
            k_max += 1
        return k_max

    def ring_index(self, d):
        """Index s with d in I_s, for delta0 < d < 2 delta0; clipped to [1, k_max].

        Rings below the resolution were merged into ring k_max.
        """
        d = np.asarray(d, dtype=float)
        ratio = np.maximum(d / self.delta0 - 1.0, 1e-300)
        k = np.floor(2.0 * np.log(ratio) / math.log(self.sigma)).astype(np.int64) + 1
        return np.clip(k, 1, self.k_max)


# ---------------------------------------------------------------------------
# base point


def choose_base_point(seed: int = 0) -> float:
    """Base coordinate of the disk center p, uniform on the circle.

    Every backward orbit is 1-dense, so p needs no density search; stable
    fibers are vertical, so p is fixed by its base coordinate alone.  It is
    the 1001st draw of ``default_rng(seed)``; the artifact checksums pin
    this position in the stream.
    """
    return float(np.random.default_rng(seed).random(1001)[-1])


# ---------------------------------------------------------------------------
# construction state machine


@dataclass
class ConstructionState:
    """Pointwise state of the inductive partition at time n.

    ``points``, ``scan``, ``log_deriv`` and ``R`` span the grid; the other
    arrays are aligned with ``ia``, the ascending grid indices of the
    active (not yet carved) points.
    """

    n: int
    p_base: float
    points: np.ndarray       # grid points in the radius-delta0 arc (fixed)
    scan: CocycleScan        # g^n of each point and cu slopes (read on active points only)
    log_deriv: np.ndarray    # log (g^n)' along the orbit (frozen at carve time)
    R: np.ndarray            # return time; 0 = not carved
    ia: np.ndarray           # grid indices of the active points
    bsum: np.ndarray         # Pliss prefix sums B_n
    bmin: np.ndarray         # min of B_m over m < n
    last_hyp: np.ndarray     # last sigma-hyperbolic time; the N0 gate reads it
    log_deriv_hyp: np.ndarray  # log_deriv at last_hyp
    wait: np.ndarray         # wait function t_n
    violations: int = 0
    trace: list = field(default_factory=list)


def init_state(params: ConstructionParams, p_base: float, seed: int = 0) -> ConstructionState:
    pts = disk_grid_points(p_base, params.delta0, params.grid_size)
    m = len(pts)
    z = np.zeros(m)
    # sub-resolution dither models each grid point as a real point drawn
    # from its cell: pure binary base maps otherwise exhaust the mantissa
    # and collapse every orbit onto the fixed point after ~52 steps
    scan = CocycleScan(pts, rng=dither_rng(seed))
    return ConstructionState(
        n=0, p_base=p_base, points=pts, scan=scan, log_deriv=z.copy(),
        R=np.zeros(m, dtype=np.int64), ia=np.arange(m), bsum=z.copy(), bmin=z.copy(),
        last_hyp=np.zeros(m, dtype=np.int64), log_deriv_hyp=z.copy(),
        wait=np.zeros(m, dtype=np.int64))


def _stable_burn_in(sys: ModelSystem) -> int:
    """Steps until every fiber is within DELTA_S/4 of the attractor."""
    return max(1, int(math.ceil(math.log(8.0 / DELTA_S)
                                / math.log(1.0 / sys.lambda_s))))


def step_partition(state: ConstructionState, sys: ModelSystem,
                   params: ConstructionParams) -> ConstructionState:
    """Advance the construction from time n-1 to n (mutates state).

    Orbit and hyperbolic-time bookkeeping always advances; carving only
    happens for n > R0 (first-step convention: A_n = Delta_0, B_n = empty).
    The scan steps every grid point; the rest touches active points only.
    """
    n = state.n + 1
    scan = state.scan
    ia = state.ia
    # carved orbits step on with the rest, so the dither stream covers the
    # whole grid, but nothing reads them again; log_deriv stays frozen on
    # them, as the log (g^R)' the structure keeps
    e, gp = scan.advance(sys)
    la = np.log(e[ia])                  # uncoupled, e is g'(t) itself: la is log g'
    hyp = hyperbolic_flags(state.bsum, state.bmin, -la, math.log(params.sigma))
    state.last_hyp[hyp] = n
    # ld takes la's buffer, so no extra active-size array outlives the flags
    ld = np.add(state.log_deriv[ia], la if e is gp else np.log(gp[ia], out=la), out=la)
    state.log_deriv[ia] = ld
    state.log_deriv_hyp[hyp] = ld[hyp]
    state.n = n

    a_prev = state.wait == 0             # waits are >= 0: the rest is B
    rec = {"n": n, "delta_prev": len(ia),
           "A_prev": int(np.count_nonzero(a_prev)),
           "B_prev": len(ia) - int(np.count_nonzero(a_prev)),
           "A_prev_hyp": int(np.count_nonzero(a_prev & hyp)),
           "carved": 0, "ringed_from_A": 0, "B_to_A": 0, "violations": 0}

    if n > params.R0 and n >= _stable_burn_in(sys):
        d = np.abs(circle_offset(scan.t[ia], state.p_base))
        # A^eps_{n-1}: A itself plus active neighbors within epsilon along
        # the image curve; the curve length between adjacent cells is
        # cell * (g^n)' (circle offsets would alias across curve wraps).
        # Only grid-adjacent active pairs (k, k+1 of ia) can join.
        # Removing the neighbor rule left R and the whole trace identical
        # on both shipped configs; it stays as part of the definition
        k = np.flatnonzero(np.diff(ia) == 1)
        near = params.cell_width * np.exp(0.5 * (ld[k + 1] + ld[k])) < params.epsilon
        aeps = a_prev.copy()
        aeps[k + 1] |= a_prev[k] & near
        aeps[k] |= a_prev[k + 1] & near
        # recent hyperbolic time => a pre-ball certifies the u-crossing,
        # provided the pre-ball fits inside D and the image ball of radius
        # delta1 contains the outer cylinder arc
        fits = state.log_deriv_hyp >= math.log(DELTA1 / (DELTA1 - params.delta0))
        gate = aeps & (n - state.last_hyp <= N0) & fits \
            & (d + 2.0 * math.sqrt(params.delta0) <= DELTA1)
        carve = gate & (d < params.delta0)
        ring = gate & ~carve & (d >= params.delta0) & (d < 2.0 * params.delta0)
        bad = int(np.count_nonzero((carve | ring) & ~a_prev))
        state.violations += bad
        rec["violations"] = bad
        # three-case wait update on the active points
        wait = np.where(a_prev, 0, state.wait - 1)
        wait[ring] = params.ring_index(d[ring])
        rec["carved"] = int(np.count_nonzero(carve))
        rec["ringed_from_A"] = int(np.count_nonzero(a_prev & ~carve & (wait > 0)))
        rec["B_to_A"] = int(np.count_nonzero(~a_prev & ~carve & (wait == 0)))
        # carve {R = n}: the carved points leave the active arrays
        state.R[ia[carve]] = n
        keep = np.flatnonzero(~carve)
        state.ia, state.bsum, state.bmin = ia[keep], state.bsum[keep], state.bmin[keep]
        state.last_hyp, state.log_deriv_hyp = state.last_hyp[keep], state.log_deriv_hyp[keep]
        state.wait = wait[keep]
    state.trace.append(rec)
    return state


# ---------------------------------------------------------------------------
# finished structure


@dataclass
class GibbsMarkovStructure:
    params: ConstructionParams
    p_base: float
    points: np.ndarray
    R: np.ndarray              # per grid point; 0 = leftover
    log_deriv_carve: np.ndarray  # log (g^R)' on carved points
    violations: int
    trace: list
    # grid-index runs of equal R > 0 (first and last index); a run is not an
    # element, which at fine resolutions is far narrower than a cell
    elem_lo: np.ndarray = field(init=False)
    elem_hi: np.ndarray = field(init=False)

    def __post_init__(self):
        brk = np.flatnonzero(self.R[1:] != self.R[:-1]) + 1
        starts = np.concatenate([[0], brk])
        ends = np.concatenate([brk - 1, [len(self.R) - 1]])
        carved = self.R[starts] > 0
        self.elem_lo, self.elem_hi = starts[carved], ends[carved]

    @property
    def grid_size(self):
        return len(self.R)

    @property
    def nonconvergent(self):
        """More than half the arc was left unpartitioned."""
        return self.leftover_mass() > 0.5

    def leftover_mass(self):
        return float(np.count_nonzero(self.R == 0)) / self.grid_size

    def gcd_R(self):
        vals = np.unique(self.R[self.R > 0])
        return int(np.gcd.reduce(vals)) if len(vals) else 0


def run_construction(sys: ModelSystem, params: ConstructionParams,
                     p_base: float = None, seed: int = 0) -> GibbsMarkovStructure:
    """Iterate the step machine to n_max and package the result."""
    if p_base is None:
        p_base = choose_base_point(seed)
    state = init_state(params, p_base, seed=seed)
    for _ in range(params.n_max):
        step_partition(state, sys, params)
    return GibbsMarkovStructure(
        params=params, p_base=p_base, points=state.points, R=state.R,
        log_deriv_carve=state.log_deriv, violations=state.violations, trace=state.trace)


# ---------------------------------------------------------------------------
# element interval recovery (Newton on the base coordinate)


def _sorted_prefix(steps):
    """(order, live) for stepping entries with per-entry step counts.

    ``order`` sorts the entries by step count, largest first, and ``live[n-1]``
    is the length of the sorted prefix whose count is still >= n, so step n
    maps only ``[:live[n-1]]``.  ``np.argsort(order)`` unsorts.
    """
    order = np.argsort(steps)[::-1]
    counts = np.asarray(steps)[order]
    n_max = int(counts[0]) if len(counts) else 0
    return order, np.searchsorted(-counts, -np.arange(1, n_max + 1), side="right")


def _evolve_with_deriv(sys, t, steps):
    """g^{n}(t) and (g^{n})'(t) with per-entry step counts, stepped by ``CocycleScan``
    on the uncoupled system: g and g' do not read the coupling, and its push
    returns g' and allocates no slopes."""
    order, live = _sorted_prefix(steps)
    scan = CocycleScan(np.asarray(t, dtype=float)[order])
    der = np.ones_like(scan.t)
    base = replace(sys, coupling=0.0)
    for m in live:
        der[:m] *= scan.advance(base, live=m)[1]
    unsort = np.argsort(order)
    return scan.t[unsort], der[unsort]


def _newton_edges(sys, t0, steps, center, targets, max_move):
    """Solve circle_offset(g^steps(t), center) = target near t0 (vectorized)."""
    t = np.array(t0, dtype=float)
    lo, hi = t0 - max_move, t0 + max_move
    best_t = t.copy()
    best_err = np.full_like(t, np.inf)
    for _ in range(NEWTON_ITERS):
        val, der = _evolve_with_deriv(sys, t, steps)
        err = circle_offset(val, center) - targets
        better = np.abs(err) < best_err
        np.copyto(best_t, t, where=better)
        np.copyto(best_err, np.abs(err), where=better)
        if np.max(best_err, initial=0.0) < NEWTON_TOL:
            break
        t_next = np.clip(t - err / der, lo, hi)
        if np.array_equal(t_next, t, equal_nan=True):
            break       # each later iteration repeats this one; better is strict
        t = t_next
    return best_t, best_err


def element_edges(structure: GibbsMarkovStructure, sys: ModelSystem, idx):
    """Refined (lo, hi) base intervals of the elements holding the given points.

    ``idx`` holds grid-point indices (carved samples); each is solved for
    the interval its g^R maps onto the radius-delta0 arc around p, the -delta0
    and the +delta0 edges in one Newton batch.  The third value is the
    batch's worst residual.
    """
    idx = np.asarray(idx, dtype=np.int64)
    d0 = structure.params.delta0
    steps = structure.R[idx]
    # both edges are seeded from the carved sample itself, which sits
    # inside the true element up to dither drift (~2^-50 in base
    # coordinate).  The search clamp only spans the pullback of the
    # target offset -- never a whole grid cell, which would let the
    # solve escape into a neighboring injectivity branch of g^R once
    # elements are narrower than a cell.
    t_seed = structure.points[idx]
    move = 1e-12 + 8.0 * d0 * np.exp(-structure.log_deriv_carve[idx])
    edges, err = _newton_edges(sys, np.tile(t_seed, 2), np.tile(steps, 2), structure.p_base,
                               np.repeat([-d0, d0], len(idx)), np.tile(move, 2))
    lo, hi = np.split(edges, 2)
    return lo, hi, float(np.max(err, initial=0.0))


def _verifiable_elements(structure, max_elements, seed):
    """Carved-sample representatives of distinct true elements (point indices).

    At fine resolutions a contiguous carved run spans many true elements,
    each narrower than a grid cell, so every carved sample certifies its
    own element.  At coarse resolutions many samples share one wide element
    and the runs are thinned to about one sample per predicted width.
    """
    lo, hi, cell = structure.elem_lo, structure.elem_hi, structure.params.cell_width
    w_all = 2.0 * structure.params.delta0 * np.exp(-structure.log_deriv_carve)
    # range(lo, hi + 1, max(1, round(w / cell))) per run, cut at the run's length
    stride = np.rint(np.clip(w_all[lo] / cell, 1.0, hi - lo + 1)).astype(np.int64)
    counts = (hi - lo) // stride + 1
    first = np.repeat(np.cumsum(counts) - counts, counts)
    reps = np.repeat(lo, counts) + (np.arange(len(first)) - first) * np.repeat(stride, counts)
    reps = reps[w_all[reps] >= WIDTH_FLOOR]
    if max_elements is not None and len(reps) > max_elements:
        rng = np.random.default_rng(seed)
        reps = np.sort(rng.choice(reps, size=max_elements, replace=False))
    return reps


# ---------------------------------------------------------------------------
# verification


def verify_structure(structure: GibbsMarkovStructure, sys: ModelSystem, seed: int = 0,
                     max_elements: int = 400, pairs_per_element: int = 8) -> dict:
    """The ``verify.json`` document: (P1), (P3) and (P4) on one element sample.

    One ``_verifiable_elements`` sample, refined by one ``element_edges``
    solve, feeds both ``verify_markov`` and ``verify_pairs``.
    """
    idx = _verifiable_elements(structure, max_elements, seed)
    lo, hi, err = element_edges(structure, sys, idx)
    steps = structure.R[idx]
    return {"markov": verify_markov(structure, sys, lo, hi, steps, err),
            **verify_pairs(structure, sys, lo, hi, steps, pairs_per_element, seed),
            "construction_violations": structure.violations}


def verify_markov(structure: GibbsMarkovStructure, sys: ModelSystem,
                  lo, hi, steps, err: float) -> dict:
    """Check (P1): disjoint elements whose f^R images cover the delta0 arc.

    Element i is [lo[i], hi[i]] with return time steps[i].  ``err``, the
    worst residual of the edge solve (0 for exact intervals), widens the edge
    tolerance.  ``skipped`` counts the structure's carved samples not checked.
    """
    report = {"checked": len(lo),
              "skipped": int(np.count_nonzero(structure.R > 0)) - len(lo),
              "covering_violations": 0, "overlap_violations": 0,
              "max_edge_err": err, "duplicates": 0}
    d0 = structure.params.delta0
    p = structure.p_base
    # covering: the endpoint images must hit the arc boundary, and the map
    # must be monotone across the element (checked at interior samples)
    ends, _ = _evolve_with_deriv(sys, np.concatenate([lo, hi, lo + 0.5 * (hi - lo)]),
                                 np.tile(steps, 3))
    olo, ohi, omid = np.split(circle_offset(ends, p), 3)
    tol = EDGE_TOL + err
    bad = (np.abs(olo + d0) > tol) | (np.abs(ohi - d0) > tol)
    bad |= (omid <= -d0) | (omid >= d0)
    report["covering_violations"] = int(np.count_nonzero(bad))
    # pairwise disjointness; two representatives may resolve to the same
    # true element, which shows up as near-identical intervals, not overlap
    order = np.argsort(lo)
    slo, shi = lo[order], hi[order]
    dup = (np.abs(np.diff(slo)) <= tol) & (np.abs(np.diff(shi)) <= tol)
    overlap = (slo[1:] < shi[:-1] - 1e-15) & ~dup
    report["overlap_violations"] = int(np.count_nonzero(overlap))
    report["duplicates"] = int(np.count_nonzero(dup))
    return report


def verify_pairs(structure: GibbsMarkovStructure, sys: ModelSystem,
                 lo, hi, steps, pairs_per_element: int, seed: int) -> dict:
    """Check (P3) and (P4) on pairs (y, z) drawn inside each [lo[i], hi[i]].

    (P3): dist(f^{R-k}y, f^{R-k}z) <= C sigma^{k/2} dist(f^Ry, f^Rz).  C_fit
    is the smallest constant making every sampled pair pass, so the
    violation count against C_fit is zero by construction; the ratio
    distribution is reported instead.

    (P4): |log det ratio of D(f^R)^u| <= C dist(f^Ry, f^Rz)^eta.  eta comes
    from least squares on the log-log cloud; C is then lifted to the
    envelope value making the bound an inequality for every sampled pair,
    so max_residual_factor <= 1 by construction and the least-squares
    residuals are reported separately.
    """
    sigma = structure.params.sigma
    back = {"C_fit": 0.0, "violations": 0, "pairs": 0,
            "ratio_p50": 0.0, "ratio_p90": 0.0}
    dist = {"C2_fit": 0.0, "eta_fit": 1.0, "max_residual_factor": 0.0,
            "r_squared": 1.0, "pairs": 0, "exact_zero": False, "ls_intercept": None}
    out = {"backward_contraction": back, "distortion": dist}
    if len(lo) == 0:
        return out
    rng = np.random.default_rng(seed)
    k = pairs_per_element
    u1 = rng.random((len(lo), k))
    u2 = rng.random((len(lo), k))
    w = (hi - lo)[:, None]
    y = lo[:, None] + u1 * w
    z = lo[:, None] + u2 * w
    # keep pairs separated so distances stay resolvable
    tiny = np.abs(u1 - u2) < 0.05
    z = np.where(tiny, lo[:, None] + ((u1 + 0.5) % 1.0) * w, z).ravel()
    y = y.ravel()
    steps = np.repeat(steps, k)
    # y and z are the rows of one scan, sorted by R so that step n pushes
    # only the pairs with n <= R; the fits below run in the original order
    order, live = _sorted_prefix(steps)
    scan = CocycleScan(np.stack([y, z])[:, order])
    logratio = np.zeros(len(y))
    # running max of d_n sigma^{n/2} for n < R gives the binding k at once
    run_max = np.abs(circle_offset(y[order], z[order]))   # n = 0 term
    for n, m in enumerate(live, 1):
        le = np.log(scan.advance(sys, live=m)[0])
        # (sum + log e_y) - log e_z, not sum + (log e_y - log e_z): it rounds
        # like the pinned reports
        logratio[:m] = logratio[:m] + le[0] - le[1]
        d = np.abs(circle_offset(scan.t[0, :m], scan.t[1, :m]))
        np.maximum(run_max[:m], d * sigma ** (n / 2.0), out=run_max[:m])
    # each pair stops at f^R, so d is dist(f^Ry, f^Rz)
    unsort = np.argsort(order)
    d = np.abs(circle_offset(scan.t[0], scan.t[1]))[unsort]
    run_max, logratio = run_max[unsort], logratio[unsort]

    ratios = run_max / (sigma ** (steps / 2.0) * d)
    back["C_fit"] = float(np.max(ratios))
    back["pairs"] = len(ratios)
    back["ratio_p50"] = float(np.percentile(ratios, 50))
    back["ratio_p90"] = float(np.percentile(ratios, 90))

    r = np.abs(logratio)
    dist["pairs"] = len(r)
    if np.max(r) < 1e-14:
        dist["exact_zero"] = True
        return out
    keep = (r > 1e-14) & (d > 1e-14)
    lx = np.log(d[keep])
    ly = np.log(r[keep])
    eta, intercept, resid, r_squared = least_squares(lx, ly)
    env = intercept + float(np.max(resid))
    dist["eta_fit"] = eta
    dist["C2_fit"] = math.exp(env)
    dist["ls_intercept"] = intercept
    dist["r_squared"] = r_squared
    # residual factor relative to the envelope line (<= 1 by construction)
    dist["max_residual_factor"] = float(np.max(np.exp(ly - (eta * lx + env))))
    return out


# ---------------------------------------------------------------------------
# tails and flow constants


def return_tail(structure: GibbsMarkovStructure):
    """Survival Leb{R > n} (leftover counts as R = infinity)."""
    ngrid = np.concatenate([[0], geometric_grid(structure.params.n_max)])
    return survival_curve(structure.R, structure.R == 0, ngrid)


def measure_flow_constants(structure: GibbsMarkovStructure) -> dict:
    """The (m2)-(m4) constants measured from the per-step trace, each one a
    reduction over the trace's columns (row i is step n = i + 1)."""
    trace = structure.trace
    n, a, b, a_hyp, carved, ringed, b_to_a = (
        np.fromiter((rec[k] for rec in trace), np.int64, len(trace))
        for k in ("n", "A_prev", "B_prev", "A_prev_hyp", "carved", "ringed_from_A", "B_to_A"))
    # a step with waiting mass but no B -> A flow: the maturing outer ring
    # of some waiting component fell below grid resolution; the ratio would
    # measure an empty intersection, not the ring-to-component mass comparison
    unmeasured = (b > 0) & (b_to_a == 0)
    fed = (b > 0) & ~unmeasured
    has_a = a > 0
    # carve-gap window: largest wait between a step with A cap H_n nonempty
    # and the next carve anywhere (Prop-4.3 style window, measured)
    hyp = np.flatnonzero(a_hyp > 0)
    carve_steps = n[carved > 0]
    nxt = np.searchsorted(carve_steps, n[hyp])
    reached = nxt < len(carve_steps)
    window = int(np.max(carve_steps[nxt[reached]] - n[hyp[reached]], initial=0))
    # c1: carved mass over steps n .. n + window per A cap H_n mass; a window
    # past n_max is censored
    inside = hyp[n[hyp] + window <= structure.params.n_max]
    cum = np.concatenate([[0], np.cumsum(carved)])
    c1 = (cum[inside + window + 1] - cum[inside]) / a_hyp[inside]
    return {"a0": float(np.min(b_to_a[fed] / b[fed])) if fed.any() else None,
            "b0": float(np.max(ringed[has_a] / a[has_a], initial=0.0)),
            "c0": float(np.max(carved[has_a] / a[has_a], initial=0.0)),
            "a0_zero_steps": int(np.count_nonzero(unmeasured)),
            "c1": float(np.min(c1)) if len(c1) else 0.0, "window_N": window,
            "c1_censored_steps": len(hyp) - len(inside),
            "a0_ring_prediction": 1.0 - math.sqrt(structure.params.sigma)}


# ---------------------------------------------------------------------------
# serialization


def write_structure_json(structure: GibbsMarkovStructure, path):
    """Write the structure's scalars: leftover mass, gcd of R, violations,
    the non-convergence flag, the base point and the construction constants.

    The elements themselves are not listed: a grid-cell run is not an
    element, and a standalone ``verify`` re-runs the construction.
    """
    p = structure.params
    doc = {
        "schema": SCHEMA_VERSION,
        "leftover_mass": structure.leftover_mass(),
        "gcd_R": structure.gcd_R(),
        "violations": structure.violations,
        "nonconvergent": structure.nonconvergent,
        "p_base": structure.p_base,
        "params": {"delta0": p.delta0, "delta1": DELTA1, "delta2": DELTA2,
                   "delta_s": DELTA_S, "epsilon": p.epsilon, "N0": N0,
                   "R0": p.R0, "sigma": p.sigma, "c": p.c, "n_max": p.n_max,
                   "resolution": p.resolution},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
