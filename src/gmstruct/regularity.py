"""Regularity of the invariant splitting and the stable holonomy.

Checks the remaining structural properties of the models: uniform
contraction on stable leaves, Hölder continuity of the E^cu bundle over
the attractor, geometric decay of the log-Jacobian product tails, and
absolute continuity of the stable holonomy between unstable curves with
its infinite-product Jacobian.

Stable leaves of the skew-product models are exact vertical fibers, so
the holonomy between two unstable curves is "same base coordinate" and
all the correspondences below are base-preserving by construction.

Unstable curves are represented through their backward base itinerary:
the curve grown by iterating a horizontal circle forward n times is,
over a base point tau, the point whose fiber accumulates the coupling
terms along the chosen chain of base preimages.  Evaluating the sum to
depth K is the same as growing the graph for K steps, with error
O(lambda_s^K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import DITHER, CocycleScan, ModelSystem, cu_directions
from .errors import DegenerateSample
from .stats import least_squares

GROWTH_DEPTH = 100          # forward growth steps defining an unstable curve
DISTANCE_FLOOR = 1e-10      # pairs closer than this are numerical noise
N_TRUNC = 80                # last index of the holonomy Jacobian product
HOLDER_SETTLE = 200         # cone-iteration steps settling each E^cu sample
AC_ARC = (0.05, 0.95)       # base interval of the absolute-continuity test
AC_REFINE_TOL = 1e-6        # grid doubling stops when the worst cell moves less


# ---------------------------------------------------------------------------
# unstable curves


@dataclass
class UnstableCurve:
    """Unstable graph over the base circle, indexed by a branch itinerary.

    ``branches[k]`` selects the (k+1)-st base preimage; the fiber over tau
    is sum_{k>=1} lambda_s^{k-1} (A/4) (cos, sin)(2 pi tau_{-k}) along that
    chain, which is the depth-len(branches) graph transform of a horizontal
    circle.
    """

    sys: ModelSystem
    branches: np.ndarray

    def evaluate(self, tau):
        """Graph slope (s1, s2) = d(u, v)/d tau of the fiber (u, v) over tau."""
        sys = self.sys
        if sys.coupling == 0.0:
            # the horizontal circle is invariant: every term below is +0.0
            zero = np.zeros(np.shape(tau))
            return zero, zero
        tk = np.asarray(tau, dtype=float)
        amp = sys.coupling / 4.0
        s1, s2 = np.zeros_like(tk), np.zeros_like(tk)
        w = np.ones_like(tk)                # d tau_{-k} / d tau
        lam = 1.0
        # one pass down the preimage chain: tk is tau_{-k} at level k
        for b in self.branches:
            tk = sys.base_inverse(tk, int(b))
            w = w / sys.base_deriv(tk)
            s1 += lam * amp * (-2.0 * math.pi) * np.sin(2.0 * math.pi * tk) * w
            s2 += lam * amp * (2.0 * math.pi) * np.cos(2.0 * math.pi * tk) * w
            lam *= sys.lambda_s
        return s1, s2


def grow_unstable_curve(sys: ModelSystem, seed: int = 0,
                        depth: int = GROWTH_DEPTH) -> UnstableCurve:
    """An unstable curve from a random backward branch itinerary."""
    rng = np.random.default_rng(seed)
    return UnstableCurve(sys=sys, branches=rng.integers(0, 2, depth))


# ---------------------------------------------------------------------------
# (P2): contraction on stable leaves


def stable_contraction_check(sys: ModelSystem, fiber_pairs: int = 1000,
                             n: int = 40, seed: int = 0) -> dict:
    """Fit dist(f^k y, f^k x) <= C beta^k over pairs on shared fibers.

    The fiber derivative of the skew-products is lambda_s * Id (coupling
    enters through the base only), so beta_fit recovers lambda_s.
    """
    rng = np.random.default_rng(seed)
    t = rng.random(fiber_pairs)
    r = sys.lambda_s + sys.coupling / 2.0
    u1, v1, u2, v2 = (rng.uniform(-r, r, fiber_pairs) for _ in range(4))
    # the two points of each pair are the rows of u and v over one base orbit
    u, v = np.stack([u1, u2]), np.stack([v1, v2])
    logs = [np.log(np.hypot(u1 - u2, v1 - v2))]
    for _ in range(n):
        t, u, v = sys.step_arrays(t, u, v)
        d = np.hypot(u[0] - u[1], v[0] - v[1])
        if np.min(d) < 1e-15:
            break   # differences at the double-precision floor
        logs.append(np.log(d))
    mean_log = np.array([np.mean(row) for row in logs])
    slope, intercept, _, _ = least_squares(np.arange(len(logs)), mean_log)
    return {"beta_fit": math.exp(slope), "C_fit": math.exp(intercept)}


# ---------------------------------------------------------------------------
# Hölder continuity of E^cu over the attractor


def holder_exponent_cu(sys: ModelSystem, sample_pairs: int = 10 ** 4,
                       seed: int = 0) -> dict:
    """Regression of log angle(E^cu(x), E^cu(y)) against log dist(x, y).

    Points are taken from a long attractor orbit so every point carries
    its own backward history for the splitting; pairs combine random
    draws (order-one distances) with sorted-neighbor strides (small
    distances), spanning several decades.
    """
    rng = np.random.default_rng(seed)
    n_pts = max(2 * sample_pairs // 3, 200)
    burn = 200
    t = float(rng.random())
    u = v = 0.0
    base_hist = np.empty(burn + n_pts + HOLDER_SETTLE)
    fibers = np.empty((burn + n_pts + HOLDER_SETTLE, 2))
    # sub-ulp dither keeps binary base maps off the fixed point once the mantissa
    # is exhausted; one call leaves the draws and generator state of a ``dither`` per step
    jitter = rng.random(len(base_hist)) * DITHER
    for i in range(len(base_hist)):
        base_hist[i] = t
        fibers[i] = (u, v)
        t, u, v = (float(w) for w in sys.step_arrays(t, u, v))
        t = (t + jitter[i]) % 1.0
    # row k holds every point's history position k (oldest first) as a view
    dirs = cu_directions(sys, sliding_window_view(base_hist[burn:], n_pts), HOLDER_SETTLE)
    pts = np.column_stack([base_hist[burn + HOLDER_SETTLE:], fibers[burn + HOLDER_SETTLE:]])

    def pair_stats(i, j):
        d = pts[i] - pts[j]
        d[:, 0] = (d[:, 0] + 0.5) % 1.0 - 0.5        # base is circular
        dist = np.sqrt(np.sum(d ** 2, axis=1))
        dots = np.abs(np.sum(dirs[i] * dirs[j], axis=1))
        ang = np.arccos(np.clip(dots, -1.0, 1.0))
        return dist, ang

    # random far pairs plus geometric-stride neighbor pairs in base order
    i1 = rng.integers(0, n_pts, sample_pairs // 2)
    j1 = rng.integers(0, n_pts, sample_pairs // 2)
    order = np.argsort(pts[:, 0])
    strides = [1, 2, 4, 8, 16, 32, 64]
    i2 = np.concatenate([order[:-s] for s in strides])
    j2 = np.concatenate([order[s:] for s in strides])
    dist, ang = (np.concatenate(a) for a in
                 zip(pair_stats(i1, j1), pair_stats(i2, j2)))
    keep = (dist > DISTANCE_FLOOR) & (dist < 0.5)
    dist, ang = dist[keep], ang[keep]
    if np.all(ang < 1e-14):
        return {"alpha_fit": None, "C_fit": 0.0, "r_squared": 1.0,
                "decades": 0.0, "pairs": int(len(dist))}
    keep = ang > 1e-14
    dist, ang = dist[keep], ang[keep]
    decades = math.log10(float(np.max(dist)) / float(np.min(dist)))
    if decades < 2.0:
        raise DegenerateSample(f"pair distances span only {decades:.2f} decades")
    slope, intercept, resid, r_squared = least_squares(np.log(dist), np.log(ang))
    # a regression slope above 1 certifies Hölder continuity with exponent 1
    return {"alpha_fit": min(slope, 1.0), "slope_fit": slope,
            "C_fit": math.exp(intercept),
            "r_squared": r_squared, "decades": float(decades),
            "max_residual": float(np.max(np.abs(resid))),
            "pairs": int(len(dist))}


# ---------------------------------------------------------------------------
# holonomy Jacobian and absolute continuity


def _log_jacobian_terms(sys: ModelSystem, tau, slopes, slopes_prime, n_terms: int):
    """Yield the per-step log det Df^u differences along the shared base orbit.

    f^i(x) and f^i(phi(x)) share the base coordinate for every i, and the
    unstable derivative depends only on (base, tangent slope), so the
    terms are log expansion(tau_i, s_i) - log expansion(tau_i, s'_i) with
    the slopes (s1, s2) of the two curves over tau pushed forward.
    """
    # row 0 carries gamma's slopes, row 1 gamma_prime's; None (horizontal) uncoupled
    pairs = [np.stack(p) for p in zip(slopes, slopes_prime)] if sys.coupling else None
    scan = CocycleScan(np.broadcast_to(tau, (2,) + tau.shape), slopes=pairs)
    for _ in range(n_terms):
        e = np.log(scan.advance(sys)[0])
        yield e[0] - e[1]


def holonomy_jacobian(gamma: UnstableCurve, gamma_prime: UnstableCurve, x,
                      N_trunc: int = N_TRUNC) -> dict:
    """J(x) = prod_{i=0}^{N_trunc} det Df^u(f^i x) / det Df^u(f^i phi(x)).

    phi maps the point of ``gamma`` over a base coordinate to the point of
    ``gamma_prime`` over the same one, and ``x`` is that base coordinate.
    ``tail_log[N]`` is |log prod_{i=N}^{N_trunc}|, which decays
    geometrically at the stable-contraction rate.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s1, s2 = gamma.evaluate(x)
    p1, p2 = gamma_prime.evaluate(x)
    terms = np.array(list(_log_jacobian_terms(gamma.sys, x, (s1, s2), (p1, p2), N_trunc + 1)))
    totals = np.cumsum(terms[::-1], axis=0)[::-1]   # totals[N] = sum_{i>=N}
    return {"J": float(np.exp(np.sum(terms[:, 0]))), "tail_log": np.abs(totals[:, 0])}


def holonomy_jacobian_grid(sys: ModelSystem, tau, slopes, slopes_prime) -> np.ndarray:
    """Vectorized J (product to N_TRUNC) over a base grid from the two curves' slopes."""
    # summed as they come, row by row like np.sum(axis=0): no (N_TRUNC + 1, grid) array
    return np.exp(sum(_log_jacobian_terms(sys, tau, slopes, slopes_prime, N_TRUNC + 1)))


def absolute_continuity_test(gamma: UnstableCurve, gamma_prime: UnstableCurve,
                             cells: int = 64, grid: int = 2 ** 12) -> dict:
    """Compare arclength of phi(A) with int_A J dLeb_gamma per cell.

    Both integrals use composite Simpson on a uniform base grid over
    AC_ARC = [lo, hi] split into ``cells`` subintervals; the grid doubles
    until the worst cell estimate moves less than ``AC_REFINE_TOL``.

    For these skew products the product in ``holonomy_jacobian_grid``
    telescopes to ``speed_dst / speed_src`` (times a tail of order
    ``lambda_s ** N_TRUNC``): the test confirms the product formula equals
    the arclength Jacobian (error 0.0 uncoupled, 2.03e-16 on the pinned
    coupled pair) and cannot detect a holonomy that is not absolutely continuous.
    """
    lo, hi = AC_ARC
    prev = None
    while True:
        m = -(-grid // (2 * cells)) * 2 * cells    # grid rounded up to whole cell pairs
        tau = np.linspace(lo, hi, m + 1)
        s1, s2 = gamma.evaluate(tau)
        p1, p2 = gamma_prime.evaluate(tau)
        jac = holonomy_jacobian_grid(gamma.sys, tau, (s1, s2), (p1, p2))
        # arclength elements |gamma'(tau)| of the two graph parametrizations
        speed_src = np.sqrt(1.0 + s1 ** 2 + s2 ** 2)
        speed_dst = np.sqrt(1.0 + p1 ** 2 + p2 ** 2)
        per = m // cells
        h = (hi - lo) / m
        rel = np.empty(cells)
        for c in range(cells):
            sl = slice(c * per, c * per + per + 1)
            length_img = _simpson(speed_dst[sl], h)
            integral = _simpson((jac * speed_src)[sl], h)
            rel[c] = abs(length_img - integral) / max(abs(length_img), 1e-300)
        worst = float(np.max(rel))
        if prev is not None and abs(worst - prev) < AC_REFINE_TOL:
            return {"max_rel_err": worst, "grid": m, "cells": cells}
        prev = worst
        grid = 2 * m


def _simpson(y, h):
    return h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2]))


# ---------------------------------------------------------------------------
# report


def regularity_report(sys: ModelSystem, fiber_pairs: int = 1000,
                      holder_pairs: int = 10 ** 4, cells: int = 64,
                      seed: int = 0) -> dict:
    """All regularity checks in one document (regularity.json payload)."""
    contraction = stable_contraction_check(sys, fiber_pairs, seed=seed)
    holder = holder_exponent_cu(sys, holder_pairs, seed=seed)
    gamma = grow_unstable_curve(sys, seed=seed + 1)
    gamma_prime = grow_unstable_curve(sys, seed=seed + 2)
    jac = holonomy_jacobian(gamma, gamma_prime, 0.5)
    ac = absolute_continuity_test(gamma, gamma_prime, cells=cells)
    tail_log = jac["tail_log"]
    stride = max(1, len(tail_log) // 20)
    table = [{"N": n, "tail_log": float(tail_log[n])}
             for n in range(0, len(tail_log), stride)]
    return {
        "beta_fit": contraction["beta_fit"],
        "C_fit": contraction["C_fit"],
        "alpha_fit": holder["alpha_fit"],
        "holder_r_squared": holder.get("r_squared"),
        "holonomy_J_example": jac["J"],
        "holonomy_max_rel_err": ac["max_rel_err"],
        "tail_table": table,
    }
