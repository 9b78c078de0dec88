"""Limit-law experiments.

Correlation decay, the central limit theorem, and large deviations for
Hölder observables of the solenoid models, plus the power-law fitting
used to compare measured decay rates against the return-time tail
exponent.

All ensemble computations run as vectorized parallel orbits with the
sub-resolution dither (binary base maps would otherwise collapse onto
the fixed point once the mantissa is exhausted), seeded through a single
counter-based generator so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSystem, dither, dither_rng
from .errors import DegenerateVariance, InsufficientData
from .pliss import Curve, geometric_grid

WALKERS = 64                  # walkers of the correlation and Green-Kubo orbits
BURN = 1000                   # steps every ensemble advances before it is sampled
GREEN_KUBO_ORBIT = 10 ** 5    # pooled Green-Kubo orbit length
GREEN_KUBO_N_MAX = 200        # largest lag the Green-Kubo sum reaches
LD_MIN_ENSEMBLE = 10 ** 4     # fewest starts of a large-deviation ensemble
#: largest ``stats.orbit_len``: the correlation series is WALKERS * steps <=
#: 1.28 orbit_len doubles (orbit_len >= 100 n_max bounds steps = 2 n_max) and
#: each lag's product as many again, so 2^27 holds about 2.7 GB
MAX_ORBIT_LEN = 2 ** 27
#: largest ``stats.ensemble``: the large-deviation sums hold a row per n-grid
#: point (<= 67 rows for 10 n_max <= MAX_ORBIT_LEN / 10) and the walk a dozen
#: arrays, about 80 doubles a walker, so 2^22 walkers hold about 2.7 GB
MAX_ENSEMBLE = 2 ** 22


# ---------------------------------------------------------------------------
# observables


@dataclass(frozen=True)
class Observable:
    """Hölder observable, normalized to sup norm <= 1.

    kinds: ``trig`` (cos(2 pi k t)) and ``fiber_norm`` (|(u, v)|).
    """

    kind: str
    k: int = 1

    def __call__(self, t, u, v):
        if self.kind == "trig":
            return np.cos(2.0 * math.pi * self.k * np.asarray(t))
        if self.kind == "fiber_norm":
            return np.hypot(u, v)
        raise ValueError(f"unknown observable kind {self.kind!r}")


def trig_base(k: int = 1) -> Observable:
    return Observable(kind="trig", k=k)


def fiber_norm() -> Observable:
    return Observable(kind="fiber_norm")


def observable(token: str) -> Observable | None:
    """The observable named by a ``stats.observables`` token (trigK or fiber_norm), else None."""
    if token == "fiber_norm":
        return fiber_norm()
    if token.startswith("trig") and token[4:].isdecimal():
        return trig_base(int(token[4:]))
    return None


# ---------------------------------------------------------------------------
# orbits


def _walk(sys, walkers, steps, seed, phi):
    """Yield phi of the ensemble state (t, u, v) at steps 0 .. steps-1 after a burn-in.

    The walkers start from uniform t and the zero fiber (u = v = None unless
    phi reads it) and take BURN + steps dithered steps in all: the step
    that leaves each yielded state runs when the next value is asked for,
    so a consumer must exhaust the generator.
    """
    rng = dither_rng(seed)
    t = rng.random(walkers)
    u = v = None
    if phi.kind == "fiber_norm":
        u, v = np.zeros(walkers), np.zeros(walkers)
    for j in range(BURN + steps):
        if j >= BURN:
            yield phi(t, u, v)
        t, u, v = sys.step_arrays(t, u, v)
        t = dither(t, rng)


def _birkhoff_sums(sys, phi, walkers, ns, seed):
    """S_n = sum_{j<n} phi(f^j x) over a burned-in ensemble, one row per entry n of ``ns``."""
    ns = np.asarray(ns)
    s = np.zeros(walkers)
    out = np.zeros((len(ns), walkers))
    for n, x in enumerate(_walk(sys, walkers, int(max(ns, default=0)), seed, phi), 1):
        s += x
        out[ns == n] = s
    return out


def _ensemble_series(sys, phi, steps, seed):
    """Per-step values of phi, as one (steps, WALKERS) array."""
    out = np.empty((steps, WALKERS))
    for j, x in enumerate(_walk(sys, WALKERS, steps, seed, phi)):
        out[j] = x
    return out


# ---------------------------------------------------------------------------
# correlation decay


def correlation(sys: ModelSystem, phi: Observable, n_max: int, orbit_len: int,
                seed: int = 0) -> Curve:
    """C_n = |avg phi(f^{n+j}x) phi(f^j x) - (avg phi)^2| on pooled orbits.

    ``orbit_len`` is the total pooled length, split over independent
    burned-in walkers (each walker must still cover n_max lags).
    """
    steps = max(orbit_len // WALKERS, 2 * n_max)
    a = _ensemble_series(sys, phi, steps, seed)
    mean = float(np.mean(a))
    n_values = np.concatenate([[0], geometric_grid(n_max)])
    vals = np.empty(len(n_values))
    for i, n in enumerate(n_values):
        vals[i] = abs(float(np.mean(a[n:] * a[:steps - n])) - mean * mean)
    mc = 1.0 / math.sqrt(WALKERS * steps)
    return Curve(n_values=n_values, values=vals, error=mc)


# ---------------------------------------------------------------------------
# central limit theorem


def green_kubo_sigma2(sys: ModelSystem, phi: Observable, seed: int = 0) -> dict:
    """sigma^2 = c_0 + 2 sum_{k>=1} c_k, truncated at the MC noise floor."""
    steps = max(GREEN_KUBO_ORBIT // WALKERS, 2 * GREEN_KUBO_N_MAX)
    a = _ensemble_series(sys, phi, steps, seed)
    mean_a = float(np.mean(a))
    ac = a - mean_a
    mc = 1.0 / math.sqrt(WALKERS * steps)
    sigma2 = float(np.mean(ac * ac))
    for lag in range(1, GREEN_KUBO_N_MAX + 1):
        ck = float(np.mean(ac[lag:] * ac[:steps - lag]))
        if abs(2.0 * ck) < mc:
            break
        sigma2 += 2.0 * ck
    return {"sigma2": sigma2, "truncation_lag": lag, "mc_error": mc,
            "mean": mean_a}


# cephes ndtr, erf and erfc as scipy.special ships them: the same
# coefficients, Horner order and branch thresholds, and libm's exp through
# math.exp, so _ndtr equals scipy.special.ndtr bit for bit
_SQRTH = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _horner(x, coef, monic=False):
    """cephes polevl, or p1evl (an implicit leading 1) with ``monic``."""
    y = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        y = y * x + c
    return y


def _ndtr(a):
    """The standard normal CDF: cephes ndtr, with its erf(x) and erfc(|x|) inlined."""
    x = np.asarray(a, dtype=float) * _SQRTH
    z = np.abs(x)
    y = np.zeros_like(x)                   # erfc underflow (-z^2 < -MAXLOG) is 0
    small = z < 1.0
    w = x[small]
    erf = w * _horner(w * w, _ERF_T) / _horner(w * w, _ERF_U, monic=True)
    # ndtr takes erf below |x| = 1/sqrt 2 and erfc(|x|) = 1 - erf(|x|) up to 1
    y[small] = np.where(z[small] < _SQRTH, 0.5 + 0.5 * erf, 0.5 * (1.0 - np.abs(erf)))
    tail = ~small & ~(-z * z < -_MAXLOG)
    for part, p, q in ((tail & (z < 8.0), _ERFC_P, _ERFC_Q),
                       (tail & ~(z < 8.0), _ERFC_R, _ERFC_S)):
        zp = z[part]
        e = np.array([math.exp(v) for v in (-zp * zp).tolist()])
        y[part] = 0.5 * (e * _horner(zp, p) / _horner(zp, q, monic=True))
    return np.where(~(z < _SQRTH) & (x > 0), 1.0 - y, y)


def ks_statistic(z, sd: float) -> float:
    """Two-sided Kolmogorov-Smirnov distance of the sample z to Normal(0, sd^2).

    Equal bit for bit to ``scipy.stats.kstest(z, "norm", args=(0, sd)).statistic``
    through the cephes port ``_ndtr`` (``math.erfc`` rounds differently).
    """
    cdf = _ndtr(np.sort(z) / sd)
    n = len(cdf)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


def clt_test(sys: ModelSystem, phi: Observable, n: int, ensemble: int,
             seed: int = 0) -> dict:
    """KS distance of normalized Birkhoff sums to Normal(0, sigma2)."""
    gk = green_kubo_sigma2(sys, phi, seed=seed + 1)
    sigma2, mc = gk["sigma2"], gk["mc_error"]
    if sigma2 < 10.0 * mc:
        raise DegenerateVariance(
            f"sigma2 = {sigma2:.3e} below noise floor {mc:.3e} (near-coboundary)")
    (s,) = _birkhoff_sums(sys, phi, ensemble, [n], seed)
    # center with the pooled ensemble mean (n * ensemble samples): the
    # short Green-Kubo orbit mean has MC error that sqrt(n) would amplify
    mean = float(np.mean(s)) / n
    z = (s - n * mean) / math.sqrt(n)
    return {"ks_distance": ks_statistic(z, math.sqrt(sigma2)), "sigma2": sigma2,
            "ensemble_var": float(np.var(z)),
            "truncation_lag": gk["truncation_lag"], "n": n, "ensemble": ensemble}


# ---------------------------------------------------------------------------
# large deviations


def large_deviations(sys: ModelSystem, phi: Observable, eps: float,
                     n_grid, ensemble: int, seed: int = 0) -> Curve:
    """D_n = fraction of ensemble starts with |n-average - mu(phi)| > eps.

    mu(phi) is the Green-Kubo orbit mean.
    """
    n_grid = np.asarray(sorted(int(n) for n in n_grid), dtype=np.int64)
    mean = green_kubo_sigma2(sys, phi, seed=seed + 1)["mean"]
    sums = _birkhoff_sums(sys, phi, ensemble, n_grid, seed)
    vals = np.array([float(np.mean(np.abs(s / n - mean) > eps))
                     for s, n in zip(sums, n_grid)])
    return Curve(n_values=n_grid, values=vals, error=1.0 / math.sqrt(ensemble))


# ---------------------------------------------------------------------------
# power-law fitting


def least_squares(x, y):
    """Least-squares line y ~ slope x + intercept: (slope, intercept, residuals, r^2).

    r^2 = 1 - SS_res / SS_tot, unclipped; a constant y lies on its line (r^2 = 1). Its mean
    of n points is off by at most n eps max|y|, so y counts as constant up to SS_tot = n (n eps
    max|y|)^2, not just at 0.  Every fitted exponent of the package comes from here.
    """
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = np.sum(resid ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    noise = len(y) * (len(y) * np.finfo(float).eps * np.max(np.abs(y))) ** 2
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > noise else 1.0
    return slope, intercept, resid, r_squared


@dataclass
class RateFit:
    exponent: float
    intercept: float
    r_squared: float
    window: tuple
    points: int = 0


def fit_power_law(curve: Curve, window=None) -> RateFit:
    """Least squares on (log n, log value); decay exponent is positive.

    The default window [10, n_max/10] drops the transient decade and the
    noise-floor decade.
    """
    n = np.asarray(curve.n_values, dtype=float)
    vals = np.asarray(curve.values, dtype=float)
    if window is None:
        window = (10, max(int(np.max(n)) // 10, 11))
    lo, hi = window
    keep = (n >= lo) & (n <= hi) & (vals > 0.0)
    if np.count_nonzero(keep) < 8:
        raise InsufficientData(
            f"only {np.count_nonzero(keep)} positive points in window {window}")
    slope, intercept, _, r_squared = least_squares(np.log(n[keep]), np.log(vals[keep]))
    return RateFit(exponent=-slope, intercept=intercept,
                   r_squared=min(max(r_squared, 0.0), 1.0), window=(lo, hi),
                   points=int(np.count_nonzero(keep)))


# ---------------------------------------------------------------------------
# artifact emitters (17 significant digits)


def fmt17(x):
    """x with 17 significant digits, enough to read back the same double."""
    return format(float(x), ".17g")


def write_curve_csv(path, curve: Curve, value_col: str, error_col: str = None):
    """Columns n and ``value_col``; with ``error_col``, the curve's error on every row."""
    error = [fmt17(curve.error)] if error_col else []
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", value_col] + ([error_col] if error_col else []))
        for n, val in zip(curve.n_values, curve.values):
            w.writerow([int(n), fmt17(val)] + error)


def read_curve_csv(path, value_col: str) -> Curve:
    """The n and ``value_col`` columns of a curve CSV written by write_curve_csv."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return Curve(n_values=np.array([int(r["n"]) for r in rows]),
                 values=np.array([float(r[value_col]) for r in rows]))


def write_clt_json(path, result: dict):
    with open(path, "w") as fh:
        json.dump({"ks_distance": result["ks_distance"],
                   "sigma2": result["sigma2"],
                   "ensemble": result["ensemble"], "n": result["n"]}, fh, indent=1)


def write_fits_json(path, fits: dict):
    """fits.json: array of RateFit records keyed by curve identifier."""
    records = [{"curve": name, "exponent": fit.exponent, "intercept": fit.intercept,
                "r_squared": fit.r_squared, "window": list(fit.window), "points": fit.points}
               for name, fit in fits.items()]
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
