"""Reference definitions on one orbit or one series, which the tests check the
streaming pipeline (``CocycleScan``, ``hyperbolic_flags``, ``disk_scan``,
``cu_directions``) against, the per-point prefix sums (``disk_scan_per_point``)
that the one-sum scan of a constant expansion is checked against, the
hyperbolic-time counts over a disk
(``hyperbolic_counts``) that the Pliss density-floor tests read, and the
per-run loop (``verifiable_elements``) that the vectorized element sample
is checked against, the per-record loop (``flow_constants``) that the
trace reductions of ``measure_flow_constants`` are checked against, and the
exact first-return partition of the intermittent base map
(``first_return_partition``, ``first_return_tail``), a Gibbs-Markov
structure on which the (P1), (P3) and (P4) checks have a known answer."""

import math
from dataclasses import dataclass

import numpy as np

from gmstruct.dynamics import CocycleScan, ModelSystem, cu_directions
from gmstruct.errors import GmstructError
from gmstruct.inducing import WIDTH_FLOOR
from gmstruct.pliss import _censored, hyperbolic_flags


class EmptySubset(GmstructError):
    """A subset selection matched no grid points."""


def backward_base_orbit(sys: ModelSystem, t, n, rng=None, branches=None):
    """Backward base orbit [t_{-n}, ..., t_{-1}, t] choosing inverse branches.

    Branches are drawn uniformly at random unless given explicitly.  On the
    attractor every backward itinerary corresponds to one solenoid sheet.
    """
    if branches is None:
        if rng is None:
            rng = np.random.default_rng(0)
        branches = rng.integers(0, 2, size=n)
    out = np.empty(n + 1)
    out[-1] = t % 1.0
    cur = out[-1]
    for j in range(n):
        cur = float(sys.base_inverse(cur, int(branches[j])))
        out[-2 - j] = cur
    return out


def cu_direction(sys: ModelSystem, x: float, settle: int = 100, history=None, tol=1e-10):
    """Unit vector spanning E^cu at base x: ``cu_directions`` for one point.

    ``history`` is a backward base orbit ending at x (as produced by
    :func:`backward_base_orbit`), sampled at random if absent and needed.
    """
    if history is None:
        history = backward_base_orbit(sys, x, settle) if sys.coupling else [x]
    return cu_directions(sys, np.asarray(history, dtype=float)[-settle - 1:, None], settle, tol)[0]


def log_contraction_series(sys: ModelSystem, x0: float, n: int,
                           slopes0=(0.0, 0.0)) -> np.ndarray:
    """Log contraction factors a_j = log ||Df^{-1} | E^cu|| along the orbit of base x0.

    Entry j-1 holds a_j = -log ||Df e_cu|| at f^{j-1}(x0), for j = 1..n.
    The tangent slopes start at ``slopes0`` (horizontal by default) and are
    pushed forward with the orbit; by domination they converge to the true
    unstable direction at rate lambda_s / g'.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # a length-1 orbit runs the array loops of the batched scans, so it
    # rounds like them (numpy's scalar power may differ in the last ulp)
    t = np.array([x0])
    s1, s2 = (np.array([s], dtype=float) for s in slopes0)
    vals = np.empty(n)
    for j in range(n):
        g, gp = sys.base_step(t)
        s1, s2, expansion = sys.push_tangent(t, s1, s2, gp)
        vals[j] = -np.log(expansion)[0]
        t = g
    return vals


def pliss_times(series, sigma: float) -> np.ndarray:
    """All sigma-hyperbolic times of the series, sorted and 1-based, by running-minimum scan."""
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    vals = np.asarray(series, dtype=float)
    if len(vals) < 1:
        raise ValueError("series must have length >= 1")
    b = vals - math.log(sigma)
    prefix = np.concatenate([[0.0], np.cumsum(b)])
    running_min = np.minimum.accumulate(prefix)
    # n >= 1 is hyperbolic iff B_n <= min over 0 <= m < n
    hyp = prefix[1:] <= running_min[:-1]
    return np.flatnonzero(hyp) + 1


def expansion_time(series, c: float, horizon: int) -> tuple[int, bool]:
    """(E, censored): E is the first N with all running averages on [N, horizon] below -c.

    The certifying suffix must be at least ``pliss.GUARD_FRAC * horizon`` long,
    otherwise E is censored to the horizon (a lucky suffix at the very end of
    the observation window says nothing about the true expansion time).
    """
    if c <= 0.0:
        raise ValueError("c must be > 0")
    vals = np.asarray(series, dtype=float)
    if horizon > len(vals):
        raise ValueError("horizon exceeds series length")
    n = np.arange(1, horizon + 1)
    avg = np.cumsum(vals[:horizon]) / n
    failing = np.flatnonzero(avg >= -c)
    last_fail = int(failing[-1]) + 1 if len(failing) else 0
    censored = _censored(last_fail + 1, horizon)
    return (horizon if censored else last_fail + 1), censored


def disk_scan_per_point(sys: ModelSystem, points, horizon: int, c: float):
    """(E, censored) of ``pliss.disk_scan``, with one prefix sum of a_j per point on every model."""
    scan = CocycleScan(points)
    m = len(scan.t)
    ssum = np.zeros(m)
    last_fail = np.zeros(m, dtype=np.int64)
    for n in range(1, horizon + 1):
        e, _ = scan.advance(sys)
        ssum -= np.log(e, out=e)
        np.copyto(last_fail, n, where=(ssum >= -c * n))
    evalue = last_fail + 1
    censored = _censored(evalue, horizon)
    return np.where(censored, horizon, evalue), censored


def theta_pliss(c: float, sigma: float, expansion_bound: float) -> float:
    """Pliss density floor (c - c2) / (A - c2) with c2 = -log sigma.

    ``expansion_bound`` is an upper bound A on the one-step expansion logs
    -a_j.  Valid whenever 0 < c2 < c <= A.
    """
    c2 = -math.log(sigma)
    if not 0.0 < c2 < c:
        raise ValueError("need 0 < -log(sigma) < c")
    if expansion_bound <= c:
        raise ValueError("expansion bound must exceed c")
    return (c - c2) / (expansion_bound - c2)


def contraction_slack(series, sigma: float, times=None):
    """Worst relative slack of exp(sum a_j) <= sigma^k over detected times.

    For each hyperbolic time n the binding window ends at the running
    minimum of the adjusted prefix sums, so the maximum over k of
    exp(S_n - S_{n-k} - k log sigma) equals exp(B_n - min_{m<n} B_m).
    Returns max over detected times of that quantity minus one.
    """
    vals = np.asarray(series, dtype=float)
    b = vals - math.log(sigma)
    prefix = np.concatenate([[0.0], np.cumsum(b)])
    running_min = np.minimum.accumulate(prefix)
    if times is None:
        times = np.flatnonzero(prefix[1:] <= running_min[:-1]) + 1
    if len(times) == 0:
        return 0.0
    slack = np.exp(prefix[times] - running_min[times - 1]) - 1.0
    return float(np.max(slack))


@dataclass
class HyperbolicCounts:
    """Hyperbolic-time counts of many orbits, as :func:`hyperbolic_counts` returns them."""

    hyp_count: np.ndarray       # number of hyperbolic times in [1, horizon]
    hyp_count_at: dict          # n -> counts in [1, n] for requested checkpoints
    max_expansion_log: float    # sup of -a_j over the whole scan
    horizon: int


def hyperbolic_counts(sys: ModelSystem, points, horizon: int, sigma: float,
                      checkpoints=()) -> HyperbolicCounts:
    """Count the sigma-hyperbolic times of the orbits of ``points`` up to ``horizon``.

    Streams the orbits through ``CocycleScan`` and ``hyperbolic_flags``, as
    the construction does, on every point at every step.
    """
    scan = CocycleScan(points)
    m = len(scan.t)
    bsum, bmin = np.zeros(m), np.zeros(m)
    log_sigma = math.log(sigma)
    hyp_count = np.zeros(m, dtype=np.int64)
    hyp_count_at = {}
    max_neg_a = 0.0
    checkpoints = set(int(k) for k in checkpoints)
    for n in range(1, horizon + 1):
        a = -np.log(scan.advance(sys)[0])
        max_neg_a = max(max_neg_a, -float(np.min(a)))
        hyp_count += hyperbolic_flags(bsum, bmin, a, log_sigma)
        if n in checkpoints:
            hyp_count_at[n] = hyp_count.copy()
    return HyperbolicCounts(hyp_count=hyp_count, hyp_count_at=hyp_count_at,
                            max_expansion_log=max_neg_a, horizon=horizon)


def summed_density_check(scan, subset_mask, n: int) -> float:
    """Average over the subset of the hyperbolic-time density up to n.

    Computes (1/n) sum_j Leb_D(A cap H_j) / Leb_D(A), which equals the mean
    over A of the pointwise density of hyperbolic times in [1, n], from the
    counts of a :func:`hyperbolic_counts`.  The caller is responsible for A
    avoiding { E > n }.
    """
    mask = np.asarray(subset_mask, dtype=bool)
    if not mask.any():
        raise EmptySubset("subset mask selects no grid points")
    counts = scan.hyp_count_at.get(n)
    if counts is None:
        if n != scan.horizon:
            raise ValueError(f"scan has no checkpoint at n={n}")
        counts = scan.hyp_count
    return float(np.mean(counts[mask])) / n


def mass_counts(state):
    """Active (delta_n), unwaiting (A_n) and waiting (B_n) point counts of a construction state."""
    return {"delta_n": len(state.ia),
            "A_n": int(np.count_nonzero(state.wait == 0)),
            "B_n": int(np.count_nonzero(state.wait > 0))}


def carved_runs(R):
    """(first, last) grid indices of each run of equal R > 0, from each point's neighbors."""
    R = list(R)
    firsts = [i for i, r in enumerate(R) if r > 0 and (i == 0 or R[i - 1] != r)]
    lasts = [i for i, r in enumerate(R) if r > 0 and (i == len(R) - 1 or R[i + 1] != r)]
    return np.array(firsts, dtype=np.int64), np.array(lasts, dtype=np.int64)


def verifiable_elements(structure, max_elements, seed):
    """``inducing._verifiable_elements`` as a loop: range(lo, hi + 1, stride) per carved run."""
    cell = structure.params.cell_width
    w_all = 2.0 * structure.params.delta0 * np.exp(-structure.log_deriv_carve)
    reps = []
    for lo, hi in zip(*carved_runs(structure.R)):
        stride = max(1, int(round(w_all[lo] / cell)))
        reps.extend(range(int(lo), int(hi) + 1, stride))
    reps = np.array(reps, dtype=np.int64)
    reps = reps[w_all[reps] >= WIDTH_FLOOR]
    if max_elements is not None and len(reps) > max_elements:
        rng = np.random.default_rng(seed)
        reps = np.sort(rng.choice(reps, size=max_elements, replace=False))
    return reps


def _left_preimages(sys: ModelSystem, n: int) -> np.ndarray:
    """x_0 = 1/2, x_1, ..., x_n of the intermittent base map g: x_k is the
    preimage of x_(k-1) under g's left branch, through ``base_inverse``."""
    x = [0.5]
    for _ in range(n):
        x.append(float(sys.base_inverse(x[-1], 0)))
    return np.array(x)


def first_return_partition(sys: ModelSystem, K: int):
    """(lo, hi, R) of the first K elements of the first return of g to Y = [1/2, 1).

    Element n = 0 .. K-1 is [(1 + x_n)/2, (1 + x_(n-1))/2), with x_(-1) = 1:
    one right-branch step maps it onto [x_n, x_(n-1)) and n left-branch
    steps map that onto [x_0, x_(-1)) = Y.  So R = n + 1 on it, and g^R maps
    it onto the arc of radius 1/4 around 3/4 (Liverani-Saussol-Vaienti 1999).
    """
    x = np.concatenate([[1.0], _left_preimages(sys, K - 1)])     # x[n + 1] = x_n
    return (1.0 + x[1:]) / 2.0, (1.0 + x[:-1]) / 2.0, np.arange(1, K + 1)


def first_return_tail(sys: ModelSystem, n_max: int) -> np.ndarray:
    """Leb(R > n | Y) = x_(n-1) of the first return to Y = [1/2, 1), for n = 0 .. n_max:
    the elements with R > n fill [1/2, (1 + x_(n-1))/2)."""
    return np.concatenate([[1.0], _left_preimages(sys, n_max - 1)])


def flow_constants(trace, n_max):
    """``inducing.measure_flow_constants`` as the per-record loop, with running
    extremes and a re-summed window per step (all but ``a0_ring_prediction``)."""
    a0, a0_zero_steps, b0, c0 = None, 0, 0.0, 0.0
    carved_at = np.zeros(n_max + 1, dtype=np.int64)
    denoms = {}
    for rec in trace:
        if rec["B_prev"] > 0:
            if rec["B_to_A"] == 0:
                a0_zero_steps += 1
            else:
                ratio = rec["B_to_A"] / rec["B_prev"]
                a0 = ratio if a0 is None else min(a0, ratio)
        if rec["A_prev"] > 0:
            b0 = max(b0, rec["ringed_from_A"] / rec["A_prev"])
            c0 = max(c0, rec["carved"] / rec["A_prev"])
        carved_at[rec["n"]] = rec["carved"]
        if rec["A_prev_hyp"] > 0:
            denoms[rec["n"]] = rec["A_prev_hyp"]
    # the next carve at or after each step, by a reverse scan
    next_carve = np.full(n_max + 2, -1, dtype=np.int64)
    nxt = -1
    for n in range(n_max, 0, -1):
        if carved_at[n] > 0:
            nxt = n
        next_carve[n] = nxt
    gaps = [next_carve[n] - n for n in denoms if next_carve[n] >= 0]
    window = int(max(gaps)) if gaps else 0
    c1, censored = None, 0
    for n, den in denoms.items():
        if n + window > n_max:
            censored += 1
            continue
        ratio = int(np.sum(carved_at[n:n + window + 1])) / den
        c1 = ratio if c1 is None else min(c1, ratio)
    return {"a0": a0, "b0": b0, "c0": c0, "a0_zero_steps": a0_zero_steps,
            "c1": c1 if c1 is not None else 0.0, "window_N": window,
            "c1_censored_steps": censored}
