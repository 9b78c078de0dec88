"""Tests for stable contraction, bundle regularity, and holonomy."""

import hashlib
import math

import numpy as np
import pytest

from gmstruct.dynamics import intermittent_solenoid, uniform_solenoid
from gmstruct.regularity import (
    absolute_continuity_test,
    grow_unstable_curve,
    holder_exponent_cu,
    holonomy_jacobian,
    regularity_report,
    stable_contraction_check,
)

UNCOUPLED = uniform_solenoid(lambda_s=0.25, coupling=0.0)
COUPLED = uniform_solenoid(lambda_s=0.25, coupling=1.0)


# ---------------------------------------------------------------------------
# stable contraction (P2)


def test_stable_contraction_uncoupled_exact():
    out = stable_contraction_check(UNCOUPLED, fiber_pairs=200, n=20)
    assert out["beta_fit"] == pytest.approx(0.25, abs=1e-12)


def test_stable_contraction_coupled():
    out = stable_contraction_check(COUPLED, fiber_pairs=1000)
    assert out["beta_fit"] <= 0.25 + 1e-6
    assert abs(out["beta_fit"] - 0.25) < 0.02


def test_stable_contraction_coupled_pinned():
    # exact fit of the two-copy fiber loop, taken under numpy 2.4.6, Python
    # 3.11.7 on x86-64 (another numpy or libm may round differently and
    # fail this test)
    out = stable_contraction_check(COUPLED)
    assert out == {"beta_fit": 0.2500000173493386, "C_fit": 0.6727310464167146}


def test_stable_identical_points_stay_identical():
    # x = y on a fiber: the orbit difference is identically zero
    t = np.array([0.3])
    u1 = v1 = np.array([0.1])
    u2 = v2 = np.array([0.1])
    ta, tb = t.copy(), t.copy()
    for _ in range(30):
        ta, u1, v1 = COUPLED.step_arrays(ta, u1, v1)
        tb, u2, v2 = COUPLED.step_arrays(tb, u2, v2)
        assert np.hypot(u1 - u2, v1 - v2)[0] == 0.0


# ---------------------------------------------------------------------------
# Hölder continuity of E^cu


def test_holder_uncoupled_not_applicable():
    out = holder_exponent_cu(UNCOUPLED, sample_pairs=500)
    assert out["alpha_fit"] is None


def test_holder_coupled_regression():
    out = holder_exponent_cu(COUPLED, sample_pairs=4000)
    assert out["alpha_fit"] is not None
    assert 0.0 < out["alpha_fit"] <= 1.0
    assert out["slope_fit"] > 0.5
    assert out["r_squared"] >= 0.8
    assert out["decades"] >= 3.0


def test_holder_coupled_pinned():
    # exact values of the per-point cu_direction loop, which the array solve
    # must reproduce, taken under numpy 2.4.6, Python 3.11.7 on x86-64
    # (another numpy or libm may round differently and fail this test)
    out = holder_exponent_cu(COUPLED, sample_pairs=4000)
    assert out["alpha_fit"] == 1.0
    assert out["slope_fit"] == 1.3107695912102326
    assert out["C_fit"] == 2.6681736815399484
    assert out["r_squared"] == 0.9438971103781939
    assert out["decades"] == 4.156340811368361
    assert out["pairs"] == 14710


# ---------------------------------------------------------------------------
# holonomy Jacobian


@pytest.fixture(scope="module")
def curves():
    g1 = grow_unstable_curve(COUPLED, seed=1)
    g2 = grow_unstable_curve(COUPLED, seed=2)
    g3 = grow_unstable_curve(COUPLED, seed=3)
    return g1, g2, g3


def test_jacobian_identity_pair(curves):
    g1, _, _ = curves
    for x in (0.1, 0.37, 0.9):
        assert holonomy_jacobian(g1, g1, x)["J"] == 1.0


@pytest.mark.parametrize("x, j, tail_digest", [
    (0.5, 0.999923323997265, "9e0bfb609d32d943"),
    (0.37, 1.0129696351189916, "63a2b26aa3be5c57"),
])
def test_holonomy_jacobian_coupled_pinned(curves, x, j, tail_digest):
    # exact J and sha256 prefix of the tail table when each curve's slope was
    # pushed by its own push_tangent call, taken under numpy 2.4.6, Python
    # 3.11.7 on x86-64 (another numpy or libm may round differently and
    # fail this test)
    g1, g2, _ = curves
    out = holonomy_jacobian(g1, g2, x)
    assert out["J"] == j
    assert hashlib.sha256(out["tail_log"].tobytes()).hexdigest()[:16] == tail_digest
    assert len(out["tail_log"]) == 81


def test_jacobian_uncoupled_is_one():
    # det Df^u depends only on the base, which phi preserves
    assert holonomy_jacobian(grow_unstable_curve(UNCOUPLED, seed=1),
                             grow_unstable_curve(UNCOUPLED, seed=2), 0.5)["J"] == 1.0


def test_jacobian_truncation_converged(curves):
    g1, g2, _ = curves
    j60 = holonomy_jacobian(g1, g2, 0.5, N_trunc=60)["J"]
    j120 = holonomy_jacobian(g1, g2, 0.5, N_trunc=120)["J"]
    assert abs(j60 - j120) <= 1e-8


def test_tail_geometric_decay(curves):
    g1, g2, _ = curves
    tail_log = holonomy_jacobian(g1, g2, 0.5, N_trunc=80)["tail_log"]
    beta = stable_contraction_check(COUPLED, fiber_pairs=200)["beta_fit"]
    live = tail_log > 1e-12          # above the rounding floor
    vals = tail_log[live]
    assert np.all(np.diff(vals[1:]) <= 1e-15)     # non-increasing past burn-in
    ratios = vals[2:] / vals[1:-1]
    assert np.all(ratios <= beta + 0.05)


def test_jacobian_chain_rule_over_squared_map(curves):
    # accumulate expansion ratios two steps at a time: identical product
    g1, g2, _ = curves
    n = 40
    j_f = holonomy_jacobian(g1, g2, 0.37, N_trunc=n - 1)["J"]
    tau = np.array([0.37])
    s1, s2 = g1.evaluate(tau)
    p1, p2 = g2.evaluate(tau)
    t = tau.copy()
    log_j = 0.0
    for _ in range(n // 2):
        s1a, s2a, e1 = COUPLED.push_tangent(t, s1, s2, COUPLED.base_deriv(t))
        p1a, p2a, f1 = COUPLED.push_tangent(t, p1, p2, COUPLED.base_deriv(t))
        t1 = COUPLED.base_map(t)
        s1, s2, e2 = COUPLED.push_tangent(t1, s1a, s2a, COUPLED.base_deriv(t1))
        p1, p2, f2 = COUPLED.push_tangent(t1, p1a, p2a, COUPLED.base_deriv(t1))
        t = COUPLED.base_map(t1)
        log_j += math.log(e1[0] * e2[0]) - math.log(f1[0] * f2[0])
    assert math.exp(log_j) == pytest.approx(j_f, abs=1e-10)


def test_jacobian_composition(curves):
    g1, g2, g3 = curves
    j12 = holonomy_jacobian(g1, g2, 0.42, N_trunc=120)["J"]
    j23 = holonomy_jacobian(g2, g3, 0.42, N_trunc=120)["J"]
    j13 = holonomy_jacobian(g1, g3, 0.42, N_trunc=120)["J"]
    # phi preserves the base coordinate, so the middle factor is evaluated
    # at the same base point
    assert j13 == pytest.approx(j12 * j23, abs=1e-8)


# ---------------------------------------------------------------------------
# absolute continuity (P5)(b)


def test_absolute_continuity_identity_pair(curves):
    g1, _, _ = curves
    out = absolute_continuity_test(g1, g1, cells=16, grid=2 ** 10)
    assert out["max_rel_err"] <= 1e-12


def test_absolute_continuity_uncoupled():
    out = absolute_continuity_test(grow_unstable_curve(UNCOUPLED, seed=1),
                                   grow_unstable_curve(UNCOUPLED, seed=2),
                                   cells=16, grid=2 ** 10)
    assert out["max_rel_err"] <= 1e-12


def test_absolute_continuity_coupled(curves):
    g1, g2, _ = curves
    out = absolute_continuity_test(g1, g2, cells=64, grid=2 ** 12)
    assert out["max_rel_err"] <= 1e-3


def test_absolute_continuity_coupled_pinned(curves):
    # exact report of the test when each curve was evaluated twice per grid
    # (once for the Jacobian, once for the speed), taken under numpy 2.4.6,
    # Python 3.11.7 on x86-64 (another numpy or libm may round differently
    # and fail this test)
    g1, g2, _ = curves
    out = absolute_continuity_test(g1, g2, cells=64, grid=2 ** 12)
    assert out == {"max_rel_err": 2.034114750978935e-16, "grid": 8192, "cells": 64}


# ---------------------------------------------------------------------------
# unstable curves


def test_curve_uncoupled_is_horizontal():
    g = grow_unstable_curve(UNCOUPLED, seed=5)
    s1, s2 = g.evaluate(np.linspace(0.1, 0.9, 7))
    assert np.all(s1 == 0.0) and np.all(s2 == 0.0)


def _evaluate_full_chain(curve, tau):
    # every chain level of UnstableCurve.evaluate, with no uncoupled shortcut,
    # and the fiber sums (u, v) that evaluate does not form
    sys = curve.sys
    tau = np.asarray(tau, dtype=float)
    amp = sys.coupling / 4.0
    u, v, s1, s2 = (np.zeros_like(tau) for _ in range(4))
    w = np.ones_like(tau)
    lam = 1.0
    cur = tau
    for b in curve.branches:
        cur = sys.base_inverse(cur, int(b))
        w = w / sys.base_deriv(cur)
        u += lam * amp * np.cos(2.0 * math.pi * cur)
        v += lam * amp * np.sin(2.0 * math.pi * cur)
        s1 += lam * amp * (-2.0 * math.pi) * np.sin(2.0 * math.pi * cur) * w
        s2 += lam * amp * (2.0 * math.pi) * np.cos(2.0 * math.pi * cur) * w
        lam *= sys.lambda_s
    return u, v, s1, s2


@pytest.mark.parametrize("sys", [
    UNCOUPLED, intermittent_solenoid(alpha=0.5, coupling=0.0),
    uniform_solenoid(coupling=0.5),
    intermittent_solenoid(alpha=0.5, lambda_s=0.5, coupling=1.0),
], ids=["uniform", "intermittent", "uniform-coupled", "intermittent-coupled"])
def test_curve_matches_full_chain(sys):
    tau = np.concatenate([np.linspace(0.0, 1.0, 257), [0.5 - 2.0 ** -40, 1.0 - 2.0 ** -53]])
    curve = grow_unstable_curve(sys, seed=5)
    for got, want in zip(curve.evaluate(tau), _evaluate_full_chain(curve, tau)[2:], strict=True):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # a scalar base point keeps its 0-d shape
    assert all(np.shape(x) == () for x in curve.evaluate(0.3))


def test_curve_forward_invariance():
    # f(gamma(tau)) lies on the curve whose itinerary is extended by the
    # branch containing tau
    g = grow_unstable_curve(COUPLED, seed=7, depth=120)
    tau = np.array([0.3, 0.7])
    u, v, _, _ = _evaluate_full_chain(g, tau)
    t1, u1, v1 = COUPLED.step_arrays(tau, u, v)
    from gmstruct.regularity import UnstableCurve
    for j, b in enumerate((0, 1)):        # 0.3 is in branch 0, 0.7 in branch 1
        ext = UnstableCurve(sys=COUPLED,
                            branches=np.concatenate([[b], g.branches]))
        ue, ve, _, _ = _evaluate_full_chain(ext, np.array([t1[j]]))
        assert ue[0] == pytest.approx(u1[j], abs=1e-13)
        assert ve[0] == pytest.approx(v1[j], abs=1e-13)


def test_speed_lower_bound(curves):
    g1, _, _ = curves
    tau = np.linspace(0.05, 0.95, 101)
    s1, s2 = g1.evaluate(tau)
    assert np.all(np.sqrt(1.0 + s1 ** 2 + s2 ** 2) >= 1.0)


# ---------------------------------------------------------------------------
# report


def test_regularity_report_shape():
    rep = regularity_report(COUPLED, fiber_pairs=300, holder_pairs=3000,
                            cells=16)
    assert abs(rep["beta_fit"] - 0.25) < 0.02
    assert rep["alpha_fit"] is not None and rep["alpha_fit"] > 0.0
    assert rep["holonomy_max_rel_err"] <= 1e-3
    assert len(rep["tail_table"]) >= 10
    assert rep["tail_table"][0]["tail_log"] >= rep["tail_table"][5]["tail_log"]
