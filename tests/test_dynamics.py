"""Tests for the model systems, splitting, and the log-contraction cocycle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmstruct.dynamics import (
    DITHER,
    TWO_PI,
    CocycleScan,
    Family,
    cu_directions,
    dither,
    frac,
    intermittent_solenoid,
    uniform_solenoid,
)
from gmstruct.errors import NotSettled
from oracles import backward_base_orbit, cu_direction, log_contraction_series


def test_step_uniform_arithmetic():
    sys = uniform_solenoid(lambda_s=0.25, coupling=0.0)
    t, u, v = sys.step_arrays(np.array([0.3]), np.array([0.7]), np.array([0.0]))
    assert t[0] == pytest.approx(0.6, abs=1e-15)
    assert u[0] == pytest.approx(0.175, abs=1e-15)
    assert v[0] == pytest.approx(0.0, abs=1e-15)


def test_intermittent_base_formula():
    sys = intermittent_solenoid(alpha=0.5)
    assert float(sys.base_map(0.25)) == pytest.approx(0.25 * (1 + 0.5 ** 0.5), rel=1e-12)


def test_intermittent_neutral_fixed_point():
    sys = intermittent_solenoid(alpha=0.5)
    assert float(sys.base_map(0.0)) == 0.0
    assert float(sys.base_deriv(0.0)) == 1.0


def test_fiber_stays_in_disk():
    sys = uniform_solenoid(lambda_s=0.25, coupling=1.0)
    rng = np.random.default_rng(1)
    t = rng.random(500)
    u = rng.uniform(-0.7, 0.7, 500)
    v = rng.uniform(-0.7, 0.7, 500)
    for _ in range(20):
        t, u, v = sys.step_arrays(t, u, v)
    assert np.all(np.hypot(u, v) <= sys.lambda_s + sys.coupling / 2.0 + 1e-12)


def test_base_inverse_roundtrip():
    for sys in (uniform_solenoid(), intermittent_solenoid(alpha=0.5)):
        t = np.linspace(0.01, 0.99, 37)
        for branch in (0, 1):
            s = sys.base_inverse(t, branch)
            assert np.max(np.abs(sys.base_map(s) - t)) < 1e-12


def test_cu_direction_uncoupled_exact():
    sys = uniform_solenoid(coupling=0.0)
    v = cu_direction(sys, 0.37, settle=1)
    assert np.array_equal(v, np.array([1.0, 0.0, 0.0]))


def test_cu_direction_against_long_settle_oracle():
    # settle=100 must agree with the settle=200 reference on a shared history
    sys = uniform_solenoid(lambda_s=0.25, coupling=1.0)
    rng = np.random.default_rng(7)
    hist = backward_base_orbit(sys, 0.1, 200, rng=rng)
    ref = cu_direction(sys, 0.1, settle=200, history=hist)
    v = cu_direction(sys, 0.1, settle=100, history=hist)
    assert np.linalg.norm(v - ref) < 1e-8


def test_cu_direction_short_history_raises():
    sys = uniform_solenoid(coupling=1.0, lambda_s=0.25)
    with pytest.raises(NotSettled):
        cu_direction(sys, 0.1, settle=100,
                     history=backward_base_orbit(sys, 0.1, 50))


# ---------------------------------------------------------------------------
# the array form of the cu-direction solve


def _cu_direction_scalar_reference(sys, hist, settle):
    """Per-point power iteration with 1-D norms; returns (direction, settle gap)."""
    def run(ts):
        s1 = s2 = 0.0
        for t in ts:
            s1, s2, _ = sys.push_tangent(t, s1, s2, sys.base_deriv(t))
        return s1, s2

    full = run(hist[-settle - 1:-1])
    short = run(hist[-settle:-1])
    v_full = np.array([1.0, full[0], full[1]])
    v_short = np.array([1.0, short[0], short[1]])
    v_full /= np.linalg.norm(v_full)
    v_short /= np.linalg.norm(v_short)
    return v_full, np.linalg.norm(v_full - v_short)


def _histories(sys, n, settle, seed):
    """(settle + 1, n) backward base histories, oldest first, one column a point."""
    rng = np.random.default_rng(seed)
    rows = np.empty((settle + 1, n))
    rows[-1] = rng.random(n)
    for k in range(settle, 0, -1):
        rows[k - 1] = sys.base_inverse(rows[k], rng.integers(0, 2, n))
    return rows


@pytest.mark.parametrize("sys", [uniform_solenoid(lambda_s=0.25, coupling=1.0),
                                 intermittent_solenoid(alpha=0.5, lambda_s=0.1, coupling=0.5)],
                         ids=["uniform", "intermittent"])
@pytest.mark.parametrize("settle", [40, 200])
def test_cu_directions_bitwise_equal_to_scalar_loop(sys, settle):
    rows = _histories(sys, 300, settle, seed=settle)
    dirs = cu_directions(sys, rows, settle)
    assert dirs.shape == (300, 3)
    ref, gaps = zip(*(_cu_direction_scalar_reference(sys, rows[:, j], settle)
                      for j in range(300)))
    assert max(gaps) <= 1e-10
    ref = np.array(ref)
    _assert_bitwise(dirs, ref)
    # the one-point form is the same kernel
    _assert_bitwise(cu_direction(sys, rows[-1, 7], settle=settle, history=rows[:, 7]),
                    ref[7])


def test_cu_direction_transverse_to_fiber_plane():
    # angle between e_cu and the stable (fiber) plane bounded below
    sys = uniform_solenoid(lambda_s=0.25, coupling=1.0)
    dirs = cu_directions(sys, _histories(sys, 1000, 80, seed=3), 80)
    assert np.min(np.arcsin(np.abs(dirs[:, 0]))) > 0.1


def test_cu_directions_uncoupled_exact():
    sys = uniform_solenoid(coupling=0.0)
    dirs = cu_directions(sys, _histories(sys, 50, 10, seed=1), 10)
    assert np.array_equal(dirs, np.tile([1.0, 0.0, 0.0], (50, 1)))


def test_cu_directions_short_history_raises():
    sys = uniform_solenoid(lambda_s=0.25, coupling=1.0)
    rows = _histories(sys, 20, 50, seed=2)
    with pytest.raises(NotSettled):
        cu_directions(sys, rows, 51)
    assert cu_directions(sys, rows, 50).shape == (20, 3)


def test_cu_directions_one_unsettled_column_fails_the_batch():
    # a history that stays at the neutral fixed point contracts the slope gap
    # only by lambda_s per step, against lambda_s / g' elsewhere
    sys = intermittent_solenoid(alpha=0.5, lambda_s=0.5, coupling=0.5)
    settle = 20
    rows = _histories(sys, 200, settle, seed=3)
    slow = backward_base_orbit(sys, 1e-3, settle, branches=np.zeros(settle, dtype=int))
    # just above the largest gap of the other columns, which dropping one
    # more step from the short run would exceed
    tol = 2.0 * max(_cu_direction_scalar_reference(sys, rows[:, j], settle)[1]
                    for j in range(200))
    assert _cu_direction_scalar_reference(sys, slow, settle)[1] > 1000.0 * tol
    assert cu_directions(sys, rows, settle, tol=tol).shape == (200, 3)
    with pytest.raises(NotSettled):
        cu_direction(sys, slow[-1], settle=settle, history=slow, tol=tol)
    with pytest.raises(NotSettled):
        cu_directions(sys, np.column_stack([rows[:, :120], slow, rows[:, 120:]]), settle,
                      tol=tol)


def test_log_series_uniform_constant():
    sys = uniform_solenoid(coupling=0.0)
    series = log_contraction_series(sys, 0.3, 50)
    assert np.allclose(series, -math.log(2.0), atol=1e-14)


def test_constant_log_expansion_only_on_the_uncoupled_uniform_family():
    assert uniform_solenoid().constant_log_expansion == math.log(2.0)
    for sys in (uniform_solenoid(coupling=0.5), intermittent_solenoid(alpha=0.5),
                intermittent_solenoid(alpha=0.5, coupling=0.3)):
        assert sys.constant_log_expansion is None


@pytest.mark.parametrize("n", [1, 7, 8, 16, 17, 2048])
def test_constant_log_expansion_is_the_array_log_of_the_scan(n):
    # the per-point path takes numpy's array log of the scan's expansion;
    # the constant matches it bit for bit in the SIMD body and in the tail
    sys = uniform_solenoid()
    want = np.full(n, sys.constant_log_expansion).view(np.uint64)
    assert np.array_equal(np.log(np.full(n, 2.0)).view(np.uint64), want)
    e = CocycleScan(np.random.default_rng(n).random(n)).advance(sys)[0]
    assert np.array_equal(np.log(e).view(np.uint64), want)


def test_log_series_intermittent_nonpositive_and_nue():
    sys = intermittent_solenoid(alpha=0.5)
    series = log_contraction_series(sys, 0.123, 10 ** 4)
    assert np.all(series <= 1e-14)
    assert np.mean(series) < -0.1


def test_log_series_neutral_orbit_limit():
    # orbits passing near t = 0 have a_j close to 0 there
    sys = intermittent_solenoid(alpha=0.5)
    series = log_contraction_series(sys, 1e-10, 5)
    assert series[0] > -1e-4


def test_cocycle_additivity():
    sys = intermittent_solenoid(alpha=0.5, lambda_s=0.25, coupling=0.5)
    n1, n2 = 37, 63
    full = log_contraction_series(sys, 0.271, n1 + n2)
    first = log_contraction_series(sys, 0.271, n1)
    # reproduce the state after n1 steps exactly
    t = np.float64(0.271)
    s1 = s2 = np.float64(0.0)
    for _ in range(n1):
        s1n, s2n, _ = sys.push_tangent(t, s1, s2, sys.base_deriv(t))
        t = sys.base_map(t)
        s1, s2 = s1n, s2n
    second = log_contraction_series(sys, float(t), n2, slopes0=(float(s1), float(s2)))
    glued = np.concatenate([first, second])
    assert np.array_equal(full, glued)


def test_orbit_helpers():
    sys = uniform_solenoid()
    back = backward_base_orbit(sys, 0.4, 3, branches=[0, 1, 0])
    assert np.max(np.abs([float(sys.base_map(back[i])) - back[i + 1] for i in range(3)])) < 1e-12


# ---------------------------------------------------------------------------
# kernel fast paths against the general formulas


def _assert_bitwise(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


def _assert_same_values(a, b):
    """Bitwise equal except that +0.0 and -0.0 count as the same value.

    The uncoupled shortcuts skip adding ``0 * cos(...)``, which can only
    change the sign of a zero slope or fiber coordinate.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _assert_bitwise(np.where(a == 0.0, 0.0, a), np.where(b == 0.0, 0.0, b))


def _base_map_reference(sys, t):
    if sys.family is Family.UNIFORM:
        return np.mod(2.0 * t, 1.0)
    a = sys.base_param
    left = t * (1.0 + (2.0 * t) ** a)
    return np.mod(np.where(t < 0.5, left, 2.0 * t - 1.0), 1.0)


def _push_tangent_reference(sys, t, s1, s2):
    gp = sys.base_deriv(t)
    c = sys.coupling * math.pi / 2.0
    n1 = (-c * np.sin(TWO_PI * t) + sys.lambda_s * s1) / gp
    n2 = (c * np.cos(TWO_PI * t) + sys.lambda_s * s2) / gp
    expansion = gp * np.sqrt((1.0 + n1 * n1 + n2 * n2) / (1.0 + s1 * s1 + s2 * s2))
    return n1, n2, expansion


def _step_arrays_reference(sys, t, u, v):
    c = sys.coupling / 4.0
    return (_base_map_reference(sys, t), sys.lambda_s * u + c * np.cos(TWO_PI * t),
            sys.lambda_s * v + c * np.sin(TWO_PI * t))


def _assert_kernel_matches(sys, t, s1, s2):
    n1, n2, expansion = sys.push_tangent(t, s1, s2, sys.base_deriv(t))
    r1, r2, r_expansion = _push_tangent_reference(sys, t, s1, s2)
    _assert_same_values(n1, r1)
    _assert_same_values(n2, r2)
    _assert_bitwise(expansion, r_expansion)
    tn, un, vn = sys.step_arrays(t, s1, s2)
    rt, ru, rv = _step_arrays_reference(sys, t, s1, s2)
    _assert_bitwise(tn, rt)
    _assert_same_values(un, ru)
    _assert_same_values(vn, rv)


def test_push_tangent_none_is_the_horizontal_vector():
    # uncoupled only: a coupled scan allocates zero slopes before its first push
    t = np.concatenate([[0.0, 0.25, 0.5, 0.75], np.random.default_rng(8).random(4096)])
    zero = np.zeros_like(t)
    for sys in (uniform_solenoid(), intermittent_solenoid(alpha=0.5)):
        gp = sys.base_deriv(t)
        n1, n2, expansion = sys.push_tangent(t, None, None, gp)
        assert n1 is None and n2 is None and expansion is gp
        # zero arrays take the general formula to the same vector, +0 slopes
        for got, want in zip(sys.push_tangent(t, zero, zero, gp), (zero, zero, gp)):
            _assert_bitwise(got, want)


FRAC_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1.0 - 2.0 ** -53, -2.0 ** -53,
              -1e-300, -5e-324, 5e-324, 1e-300, 1e300, -1e300, 2.0 ** 52 + 0.5,
              -(2.0 ** 52) - 0.5, 2.0 ** 53 + 2.0, math.inf, -math.inf, math.nan,
              1.9999999999999998, -1.9999999999999998]


def test_frac_matches_mod_on_edge_values():
    x = np.array(FRAC_EDGES)
    _assert_bitwise(frac(x), np.mod(x, 1.0))
    rng = np.random.default_rng(5)
    y = rng.uniform(-2.0, 2.0, 2 ** 14)
    _assert_bitwise(frac(y), np.mod(y, 1.0))


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_frac_matches_mod_property(x):
    _assert_bitwise(frac(np.float64(x)), np.mod(np.float64(x), 1.0))


def test_dither_draws_one_uniform_per_entry():
    t = np.random.default_rng(6).random(1000) * 0.999 + 1e-3
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    _assert_bitwise(dither(t, rng), frac(t + ref.random(len(t)) * DITHER))
    # a scalar takes one draw, the same as the scalar rng.random()
    for x in (0.0, 0.3, 1.0 - 2.0 ** -53):
        _assert_bitwise(dither(x, rng), (x + ref.random() * DITHER) % 1.0)
    assert rng.random() == ref.random()


KERNEL_SYSTEMS = [
    uniform_solenoid(lambda_s=0.25, coupling=0.0),
    uniform_solenoid(lambda_s=0.25, coupling=1.0),
    intermittent_solenoid(alpha=0.5, lambda_s=0.1, coupling=0.0),
    intermittent_solenoid(alpha=0.5, lambda_s=0.1, coupling=0.3),
]


@pytest.mark.parametrize("sys", KERNEL_SYSTEMS,
                         ids=["uniform", "uniform-coupled", "intermittent",
                              "intermittent-coupled"])
@pytest.mark.parametrize("slopes", ["zero", "nonzero"])
def test_kernel_matches_general_formula(sys, slopes):
    rng = np.random.default_rng(11)
    t = np.concatenate([rng.random(4096), [0.0, 0.25, 0.5, 1.0 - 2.0 ** -53]])
    if slopes == "zero":
        s1 = np.zeros_like(t)
        s2 = np.zeros_like(t)
    else:       # generic cone slopes, off the uncoupled zero-slope shortcut
        s1 = rng.uniform(-0.5, 0.5, len(t))
        s2 = rng.uniform(-0.5, 0.5, len(t))
    _assert_kernel_matches(sys, t, s1, s2)


@pytest.mark.parametrize("sys", KERNEL_SYSTEMS,
                         ids=["uniform", "uniform-coupled", "intermittent",
                              "intermittent-coupled"])
def test_step_arrays_without_fiber_is_the_base_map(sys):
    t = np.random.default_rng(13).random(4096)
    tn, un, vn = sys.step_arrays(t, None, None)
    assert un is None and vn is None
    _assert_bitwise(tn, sys.base_map(t))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20),
       st.sampled_from(KERNEL_SYSTEMS), st.floats(-1.0, 1.0), st.booleans())
def test_kernel_matches_general_formula_property(ts, sys, slope, zero):
    t = np.array(ts)
    s1 = np.zeros_like(t) if zero else np.full_like(t, slope)
    s2 = np.zeros_like(t) if zero else -s1
    _assert_kernel_matches(sys, t, s1, s2)


@pytest.mark.parametrize("sys", [uniform_solenoid(), intermittent_solenoid(alpha=0.3),
                                 intermittent_solenoid(alpha=0.5)],
                         ids=["uniform", "intermittent-0.3", "intermittent-0.5"])
def test_base_step_matches_map_and_deriv(sys):
    # spread points, plus the t < 0 and t >= 1 that Newton iterates can reach
    rng = np.random.default_rng(12)
    t = np.concatenate([rng.random(4096), rng.uniform(-1.0, 0.0, 64), rng.uniform(1.0, 2.0, 64),
                        [0.0, -0.0, 0.5, 1.0, -2.0 ** -60, 1.0 - 2.0 ** -53, math.nan]])
    with np.errstate(invalid="ignore"):
        g, gp = sys.base_step(t)
        _assert_bitwise(g, sys.base_map(t))
        _assert_bitwise(gp, sys.base_deriv(t))
    if sys.family is Family.INTERMITTENT:
        assert np.isnan(g[t < 0]).all()     # the branch power has no real value there
    for x in (0.3, 0.7):
        _assert_bitwise(sys.base_step(x), (sys.base_map(x), sys.base_deriv(x)))


def _base_step_two_branch(sys, t):
    # the intermittent kernel as it was written with one select per branch
    a = sys.base_param
    p = (2.0 * t) ** a
    left = t < 0.5
    return (frac(np.where(left, t * (1.0 + p), 2.0 * t - 1.0)),
            np.where(left, 1.0 + (1.0 + a) * p, 2.0))


BRANCH_EDGES = [0.0, -0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                0.5 - 2.0 ** -40, 0.5 + 2.0 ** -40, 1.0 - 2.0 ** -53, 1.0, 1.5, 7.25,
                2.0 ** 52 + 0.5, 1e300, math.inf, -2.0 ** -60, -0.25, -1.0, -math.inf,
                math.nan, 5e-324, 2.0 ** -1074 * 3, 0.25]


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
def test_intermittent_kernel_matches_two_branch_formula(alpha):
    # bit for bit, signs of zero included, and NaN at the same entries
    sys = intermittent_solenoid(alpha=alpha)
    rng = np.random.default_rng(15)
    t = np.concatenate([rng.random(2 ** 14), rng.uniform(-1.0, 0.0, 64),
                        rng.uniform(1.0, 3.0, 64), BRANCH_EDGES])
    with np.errstate(invalid="ignore", over="ignore"):
        want_g, want_gp = _base_step_two_branch(sys, t)
        g, gp = sys.base_step(t)
        _assert_bitwise(g, want_g)
        _assert_bitwise(gp, want_gp)
        _assert_bitwise(sys.base_map(t), want_g)
        _assert_bitwise(sys.base_deriv(t), want_gp)
        for x in BRANCH_EDGES:
            _assert_bitwise(sys.base_step(x), _base_step_two_branch(sys, np.asarray(x)))
            _assert_bitwise(sys.base_map(x), _base_step_two_branch(sys, np.asarray(x))[0])


@pytest.mark.parametrize("sys", [uniform_solenoid(), intermittent_solenoid(alpha=0.3),
                                 intermittent_solenoid(alpha=0.5)],
                         ids=["uniform", "intermittent-0.3", "intermittent-0.5"])
def test_base_step_writes_into_its_buffers(sys):
    # out = (g, work, gp) receives g and g' bit for bit like the call without
    # it, in contiguous arrays and in the (2, n) row prefixes a scan passes
    rng = np.random.default_rng(24)
    t = np.concatenate([rng.random(4096), BRANCH_EDGES])
    with np.errstate(invalid="ignore", over="ignore"):
        want = sys.base_step(t)
        for bufs in (np.empty((3,) + t.shape), np.empty((3, 2, len(t) + 5))[:, :, :len(t)]):
            out = tuple(bufs)
            g, gp = sys.base_step(np.broadcast_to(t, bufs.shape[1:]), out=out)
            assert g is out[0] and gp is out[2]
            for got, w in zip((g, gp), want):
                _assert_bitwise(got, np.broadcast_to(w, got.shape))


@pytest.mark.parametrize("sys,given_slopes", [
    (uniform_solenoid(), False),
    (intermittent_solenoid(alpha=0.5), False),
    (intermittent_solenoid(alpha=0.5, coupling=0.5), False),
    (intermittent_solenoid(alpha=0.5, coupling=0.5), True),
], ids=["uniform", "intermittent", "intermittent-coupled", "intermittent-coupled-slopes"])
def test_scan_live_prefix_steps_like_a_fresh_scan(sys, given_slopes):
    # k steps with live = m move the first m columns of a (2, n) batch, points
    # and slopes, bit for bit like a fresh scan over those columns, and leave
    # the columns from m on as they were; uncoupled, g' lands in the scan's
    # expansion buffer through that prefix view
    rng = np.random.default_rng(23)
    n, m, k = 40, 17, 30
    pts = rng.random((2, n))
    slopes = rng.uniform(-0.5, 0.5, (2, 2, n)) if given_slopes else None
    scan = CocycleScan(pts, slopes=slopes)
    fresh = CocycleScan(pts[:, :m], slopes=None if slopes is None else slopes[:, :, :m])
    for _ in range(k):
        e, gp = scan.advance(sys, live=m)
        want_e, want_gp = fresh.advance(sys)
        assert e.shape == gp.shape == (2, m)
        _assert_bitwise(e, want_e)
        _assert_bitwise(gp, want_gp)
    _assert_bitwise(scan.t[:, :m], fresh.t)
    _assert_bitwise(scan.t[:, m:], pts[:, m:])
    if sys.coupling == 0.0:
        assert scan.s1 is None and fresh.s1 is None
        return
    start = np.zeros((2, 2, n)) if slopes is None else slopes
    for got, want, first in zip((scan.s1, scan.s2), (fresh.s1, fresh.s2), start):
        _assert_bitwise(got[:, :m], want)
        _assert_bitwise(got[:, m:], first[:, m:])
