"""Tests for the limit laws and power-law fitting."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from gmstruct.dynamics import ModelSystem, intermittent_solenoid, uniform_solenoid
from gmstruct.errors import DegenerateVariance, InsufficientData
from gmstruct.pliss import Curve
from gmstruct.stats import (
    BURN,
    GREEN_KUBO_N_MAX,
    GREEN_KUBO_ORBIT,
    LD_MIN_ENSEMBLE,
    WALKERS,
    Observable,
    clt_test,
    correlation,
    fiber_norm,
    fit_power_law,
    _ndtr,
    ks_statistic,
    large_deviations,
    least_squares,
    trig_base,
    write_clt_json,
    write_curve_csv,
    write_fits_json,
)

UNIFORM = uniform_solenoid(lambda_s=0.25, coupling=0.0)
COUPLED = uniform_solenoid(lambda_s=0.25, coupling=1.0)


# ---------------------------------------------------------------------------
# observables


def test_observables_bounded():
    rng = np.random.default_rng(0)
    t = rng.random(500)
    # fibers live in the unit disk
    rad = np.sqrt(rng.random(500))
    ang = 2.0 * math.pi * rng.random(500)
    u = rad * np.cos(ang)
    v = rad * np.sin(ang)
    for phi in (trig_base(1), trig_base(3), fiber_norm()):
        assert np.max(np.abs(phi(t, u, v))) <= 1.0 + 1e-12


def test_observable_unknown_kind():
    with pytest.raises(ValueError):
        Observable(kind="nope")(0.1, 0.0, 0.0)


# ---------------------------------------------------------------------------
# correlation


def test_correlation_constant_observable():
    c = correlation(UNIFORM, trig_base(0), 50, 10 ** 4 * 100 // 100)
    assert np.max(c.values) <= 1e-14


def test_correlation_uniform_trig_orthogonality():
    c = correlation(UNIFORM, trig_base(1), 100, 10 ** 5, seed=4)
    assert c.values[0] == pytest.approx(0.5, abs=0.01)
    assert np.max(c.values[1:]) <= 1e-3 + 2.0 * c.error


# ---------------------------------------------------------------------------
# CLT


def test_clt_uniform_small():
    out = clt_test(UNIFORM, trig_base(1), 2000, 2000, seed=0)
    assert out["ks_distance"] <= 0.05
    assert out["sigma2"] > 0.1
    # variance consistency: Green-Kubo vs ensemble variance within 15%
    assert abs(out["sigma2"] - out["ensemble_var"]) <= 0.15 * out["sigma2"]


def test_ks_statistic_matches_scipy_kstest():
    from scipy import stats as sps
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 3000))
        sd = float(rng.uniform(0.2, 3.0))
        z = rng.normal(rng.uniform(-0.3, 0.3), sd * rng.uniform(0.8, 1.2), n)
        assert ks_statistic(z, sd) == sps.kstest(z, "norm", args=(0.0, sd)).statistic


def test_ndtr_port_matches_scipy_bitwise():
    from scipy.special import ndtr
    rng = np.random.default_rng(11)
    # x = a / sqrt 2 switches from erf to erfc at |x| = 1/sqrt 2 and 1, from
    # the P/Q to the R/S erfc fit at 8, and underflows past x^2 = MAXLOG
    switches = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 7.09782712893383996843e2)]
    near = [c * sign + np.arange(-2000, 2001) * np.spacing(c)
            for c in switches for sign in (1.0, -1.0)]
    a = np.concatenate([rng.uniform(-40.0, 40.0, 50_000), rng.normal(0.0, 2.0, 50_000),
                        *near, [0.0, -0.0, 40.0, -40.0, math.inf, -math.inf, math.nan]])
    assert len(a) >= 10 ** 5
    assert np.array_equal(_ndtr(a).view(np.uint64), ndtr(a).view(np.uint64))


def test_clt_constant_degenerate():
    with pytest.raises(DegenerateVariance):
        clt_test(UNIFORM, trig_base(0), 1000, 1000)


# ---------------------------------------------------------------------------
# large deviations


def test_ld_impossible_deviation():
    curve = large_deviations(UNIFORM, trig_base(1), 2.5, [10, 100], 10 ** 4)
    assert np.all(curve.values == 0.0)


def test_ld_uniform_decay():
    curve = large_deviations(UNIFORM, trig_base(1), 0.1,
                             [10, 30, 100, 300, 1000], 10 ** 4, seed=3)
    assert np.all(np.diff(curve.values) <= 0.0)
    assert curve.values[-1] <= 1e-3


# ---------------------------------------------------------------------------
# ensemble work


def test_ensembles_take_burn_plus_steps(monkeypatch):
    # every ensemble orbit takes BURN + steps steps: the per-call terms of
    # bench/run.py's expected_work, so a walker that slips a step fails here
    points = []
    step = ModelSystem.step_arrays

    def counting(self, t, u, v):
        points.append(np.size(t))
        return step(self, t, u, v)

    monkeypatch.setattr(ModelSystem, "step_arrays", counting)
    green_kubo = WALKERS * (BURN + max(GREEN_KUBO_ORBIT // WALKERS, 2 * GREEN_KUBO_N_MAX))
    correlation(UNIFORM, trig_base(1), 50, 10 ** 4)
    assert sum(points) == WALKERS * (BURN + max(10 ** 4 // WALKERS, 2 * 50))
    points.clear()
    clt_test(UNIFORM, trig_base(1), 1000, 1000)
    assert sum(points) == green_kubo + 1000 * (BURN + 1000)
    points.clear()
    # a repeated n is kept: the grid is sorted, not deduplicated, and every
    # row is filled
    curve = large_deviations(UNIFORM, trig_base(1), 0.1, [30, 10, 30], LD_MIN_ENSEMBLE)
    assert sum(points) == green_kubo + LD_MIN_ENSEMBLE * (BURN + 30)
    assert list(curve.n_values) == [10, 30, 30]
    assert curve.values[1] == curve.values[2] > 0.0


# ---------------------------------------------------------------------------
# all three limit laws, pinned on a coupled system


def _digest(values):
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()[:16]


# sha256 prefixes of the correlation and large-deviation curves and the exact
# CLT report on a coupled system while every walker still carried its fiber,
# taken under numpy 2.4.6, Python 3.11.7 on x86-64 (another numpy or libm may
# round differently and fail this test).  trig1 reads only the base, so a
# base-only ensemble must reproduce it; fiber_norm reads the fiber
LIMITS_COUPLED = intermittent_solenoid(alpha=0.5, lambda_s=0.5, coupling=1.0)
LIMITS_PINNED = {
    "trig1": (trig_base(1), "4ea8f2d5c35f4fd9", "340e119d16acc3f9", {
        "ks_distance": 0.08138898977011988, "sigma2": 3.9433425203730823,
        "ensemble_var": 5.777740444269257, "truncation_lag": 96}),
    "fiber_norm": (fiber_norm(), "bbd2d1eee1da63f7", "d81a11c7cd0a3323", {
        "ks_distance": 0.1316341440516785, "sigma2": 0.08054712074152305,
        "ensemble_var": 0.23836826408683096, "truncation_lag": 12}),
}


@pytest.mark.parametrize("name", sorted(LIMITS_PINNED))
def test_limit_laws_coupled_pinned(name):
    phi, corr_digest, ld_digest, clt = LIMITS_PINNED[name]
    corr = correlation(LIMITS_COUPLED, phi, 50, 5000, seed=0)
    assert _digest(corr.values) == corr_digest
    out = clt_test(LIMITS_COUPLED, phi, 1000, 1000, seed=0)
    assert out == dict(clt, n=1000, ensemble=1000)
    ld = large_deviations(LIMITS_COUPLED, phi, 0.05, [10, 30, 100, 300], 10 ** 4, seed=0)
    assert _digest(ld.values) == ld_digest


# ---------------------------------------------------------------------------
# power-law fitting


class _Curve:
    def __init__(self, n, values):
        self.n_values = np.asarray(n)
        self.values = np.asarray(values, dtype=float)


def test_least_squares_constant_y():
    # SS_tot = 0 for -2.5, but the mean of the others rounds, leaving SS_tot a
    # few ulps: a guard at exactly 0 read r^2 = -0.40, -3.14 and -5.0 from that
    for value, n in [(-2.5, 10), (math.log(1e-3), 100), (0.1, 7), (0.3, 10)]:
        y = np.full(n, value)
        slope, intercept, resid, r_squared = least_squares(np.arange(float(n)), y)
        assert r_squared == 1.0
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(value, abs=1e-12)
        assert np.max(np.abs(resid)) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_least_squares_is_the_hand_written_line(seed):
    # np.polyfit, its residuals and r^2 as each fit wrote them out by hand,
    # under either of the two guards the copies used, bit for bit
    rng = np.random.default_rng(seed)
    x = np.log(rng.uniform(1e-6, 1.0, 500))
    y = rng.uniform(-2.0, 2.0) * x + rng.standard_normal() + rng.standard_normal(500)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    denom = float(np.sum((y - y.mean()) ** 2))
    got = least_squares(x, y)
    assert got[:2] == (slope, intercept)
    assert np.array_equal(got[2], resid)
    assert got[3] == 1.0 - float(np.sum(resid ** 2)) / denom
    assert got[3] == 1.0 - np.sum(resid ** 2) / max(np.sum((y - y.mean()) ** 2), 1e-300)


def test_fit_exact_square():
    n = np.arange(1, 301)
    fit = fit_power_law(_Curve(n, n ** -2.0))
    assert fit.exponent == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_constant():
    n = np.arange(1, 301)
    fit = fit_power_law(_Curve(n, np.ones(300)))
    assert fit.exponent == pytest.approx(0.0, abs=1e-9)


def test_fit_noisy():
    rng = np.random.default_rng(11)
    n = np.arange(1, 1001)
    vals = n ** -2.0 * (1.0 + 0.1 * rng.standard_normal(1000))
    fit = fit_power_law(_Curve(n, np.abs(vals)))
    assert 1.8 <= fit.exponent <= 2.2
    assert fit.r_squared >= 0.95


def test_fit_scale_covariance():
    n = np.arange(1, 301)
    base = fit_power_law(_Curve(n, n ** -1.5))
    scaled = fit_power_law(_Curve(n, 7.0 * n ** -1.5))
    assert abs(base.exponent - scaled.exponent) <= 1e-12
    assert scaled.intercept == pytest.approx(base.intercept + math.log(7.0))


def test_fit_insufficient_data():
    with pytest.raises(InsufficientData):
        fit_power_law(_Curve(np.arange(1, 6), np.arange(1, 6) ** -2.0))


def test_fit_custom_window():
    n = np.arange(1, 1001)
    vals = np.where(n < 50, 1.0, n ** -2.0)   # transient then power law
    fit = fit_power_law(_Curve(n, vals), window=(50, 1000))
    assert fit.exponent == pytest.approx(2.0, abs=1e-9)
    assert fit.window == (50, 1000)


# ---------------------------------------------------------------------------
# emitters


def test_csv_emitters(tmp_path):
    curve = Curve(n_values=np.array([0, 1, 2]),
                  values=np.array([0.5, 0.25, 1.0 / 3.0]),
                  error=1e-3)
    path = tmp_path / "correlation.csv"
    write_curve_csv(path, curve, "value", "mc_error")
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "value", "mc_error"]
    assert float(rows[3][1]) == 1.0 / 3.0   # 17 significant digits roundtrip

    ld = Curve(n_values=np.array([10, 20]), values=np.array([0.1, 0.05]),
               error=1e-2)
    write_curve_csv(tmp_path / "ld.csv", ld, "value")
    with (tmp_path / "ld.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "value"]

    tail = Curve(n_values=np.array([1, 2]), values=np.array([0.5, 0.25]),
                 error=0.1)
    write_curve_csv(tmp_path / "tail_E.csv", tail, "survival", "censored_mass")
    with (tmp_path / "tail_E.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "survival", "censored_mass"]
    write_curve_csv(tmp_path / "tail_R.csv", tail, "survival")
    with (tmp_path / "tail_R.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "survival"]


def test_json_emitters(tmp_path):
    write_clt_json(tmp_path / "clt.json",
                   {"ks_distance": 0.01, "sigma2": 0.5, "ensemble": 1000,
                    "n": 1000, "extra": "dropped"})
    doc = json.loads((tmp_path / "clt.json").read_text())
    assert set(doc) == {"ks_distance", "sigma2", "ensemble", "n"}

    fit = fit_power_law(_Curve(np.arange(1, 301), np.arange(1, 301) ** -2.0))
    write_fits_json(tmp_path / "fits.json", {"tail_R": fit})
    arr = json.loads((tmp_path / "fits.json").read_text())
    assert arr[0]["curve"] == "tail_R"
    assert arr[0]["exponent"] == pytest.approx(2.0)
