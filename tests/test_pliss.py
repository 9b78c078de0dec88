"""Tests for hyperbolic time detection and expansion-time statistics."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmstruct.dynamics import CocycleScan, intermittent_solenoid, uniform_solenoid
from gmstruct.pliss import (
    DISK_CENTER,
    DISK_RADIUS,
    disk_grid_points,
    disk_scan,
    expansion_tail,
    geometric_grid,
    hyperbolic_flags,
)
from oracles import (
    EmptySubset,
    contraction_slack,
    disk_scan_per_point,
    expansion_time,
    hyperbolic_counts,
    log_contraction_series,
    pliss_times,
    summed_density_check,
    theta_pliss,
)


def brute_force_pliss(values, sigma):
    """Direct evaluation of the definition over every (n, k) window."""
    values = np.asarray(values, dtype=float)
    prefix = np.concatenate([[0.0], np.cumsum(values)])
    log_sigma = math.log(sigma)
    out = []
    for n in range(1, len(values) + 1):
        k = np.arange(1, n + 1)
        if np.all(prefix[n] - prefix[n - k] <= k * log_sigma):
            out.append(n)
    return np.array(out, dtype=np.int64)


def brute_force_expansion_time(values, c, horizon, guard_frac=0.1):
    """Smallest N with every running average on [N, horizon] below -c."""
    values = np.asarray(values, dtype=float)
    avg = np.cumsum(values[:horizon]) / np.arange(1, horizon + 1)
    guard = max(1, int(math.ceil(guard_frac * horizon)))
    for big_n in range(1, horizon + 2):
        if all(avg[n - 1] < -c for n in range(big_n, horizon + 1)):
            if big_n > horizon - guard + 1:
                return None
            return big_n
    return None


def test_constant_contracting_all_times():
    series = np.full(40, math.log(0.5))
    times = pliss_times(series, 0.6)
    assert np.array_equal(times, np.arange(1, 41))


def test_frozen_two_term_example():
    series = np.array([math.log(2.0), math.log(0.25)])
    assert len(pliss_times(series, 0.5)) == 0


def test_scan_matches_brute_force_small_corpus():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 300))
        vals = rng.uniform(-1.0, 1.0, n)
        sigma = float(rng.uniform(0.2, 0.95))
        assert np.array_equal(pliss_times(vals, sigma),
                              brute_force_pliss(vals, sigma))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=120),
       st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_monotone_in_sigma(vals, s_a, s_b):
    s1, s2 = sorted((s_a, s_b))
    t1 = set(pliss_times(np.array(vals), s1).tolist())
    t2 = set(pliss_times(np.array(vals), s2).tolist())
    assert t1 <= t2


@pytest.mark.parametrize("sys,sigma", [
    (uniform_solenoid(coupling=0.0), 0.5),     # B_n == 0: every time ties
    (uniform_solenoid(lambda_s=0.25, coupling=1.0), 0.5),
    (intermittent_solenoid(alpha=0.5), 0.6),   # about 60% of the times
    (intermittent_solenoid(alpha=0.5, lambda_s=0.1, coupling=0.5), 0.6),
], ids=["uniform", "uniform-coupled", "intermittent", "intermittent-coupled"])
def test_streaming_scan_matches_series_reference(sys, sigma):
    # per-step a_n of the array scan and its hyperbolic flags, bit for bit
    # against the one-orbit series and the prefix-sum Pliss detection
    pts = np.random.default_rng(8).random(16)
    n = 1000
    scan = CocycleScan(pts)
    bsum, bmin = np.zeros(16), np.zeros(16)
    a = np.empty((n, 16))
    hyp = np.empty((n, 16), dtype=bool)
    for k in range(n):
        a[k] = -np.log(scan.advance(sys)[0])
        hyp[k] = hyperbolic_flags(bsum, bmin, a[k], math.log(sigma))
    for j, t0 in enumerate(pts):
        series = log_contraction_series(sys, t0, n)
        assert np.array_equal(a[:, j].view(np.uint64), series.view(np.uint64))
        assert np.array_equal(np.flatnonzero(hyp[:, j]) + 1, pliss_times(series, sigma))


def test_hyperbolic_flags_on_active_subset_match_full_update():
    # the construction updates the Pliss sums of its active points only: on
    # every orbit still active, flags and sums equal the full update's
    rng = np.random.default_rng(19)
    m, log_sigma = 64, math.log(0.8)
    full_sum, full_min, sub_sum, sub_min = np.zeros((4, m))
    active = np.ones(m, dtype=bool)
    for _ in range(1000):
        a = rng.uniform(-1.0, 1.0, m)
        ia = np.flatnonzero(active)
        want = hyperbolic_flags(full_sum, full_min, a, log_sigma)[ia]
        bsum, bmin = sub_sum[ia], sub_min[ia]
        got = hyperbolic_flags(bsum, bmin, a[ia], log_sigma)
        sub_sum[ia], sub_min[ia] = bsum, bmin
        assert np.array_equal(got, want)
        for sub, full in ((sub_sum, full_sum), (sub_min, full_min)):
            assert np.array_equal(sub[ia].view(np.uint64), full[ia].view(np.uint64))
        active &= rng.random(m) >= 0.003
    assert 0 < np.count_nonzero(active) < m


def _digest(value):
    return hashlib.sha256(np.asarray(value).tobytes()).hexdigest()[:16]


# sha256 prefixes of a small disk scan's outputs (expansion_time, censored)
# and of the hyperbolic-time counts on the same grid (hyp_count,
# hyp_count_at[100], max_expansion_log), taken under numpy 2.4.6 on x86-64;
# a faster orbit kernel must reproduce every bit of them
DISK_SCAN_DIGESTS = {
    "uniform": (uniform_solenoid(), 0.5, (
        "3ff6c238a98ca6a7", "e5a00aa9991ac8a5", "893fb36e8a181c4f",
        "ed55c64eab5c10ee", "54d8a917cdcca9ef")),
    "intermittent-0.5": (intermittent_solenoid(alpha=0.5), 0.1, (
        "cd8dcd5e9dbaa249", "e5a00aa9991ac8a5", "4f8b6fae80179789",
        "9287dbe8e3cf74e9", "1d04e7c85fb55083")),
    "intermittent-0.3-coupled": (intermittent_solenoid(alpha=0.3, coupling=0.3), 0.4, (
        "631bf33fdee3084a", "e5a00aa9991ac8a5", "340d63d4b8b8150a",
        "b915ca430193b4ee", "8e0fa906c4af17ae")),
}


@pytest.mark.parametrize("case", sorted(DISK_SCAN_DIGESTS))
def test_disk_scan_outputs_pinned(case):
    sys, c, want = DISK_SCAN_DIGESTS[case]
    pts = disk_grid_points(0.25, 0.45, 2048)
    scan = disk_scan(sys, pts, 500, c)
    counts = hyperbolic_counts(sys, pts, 500, math.exp(-c / 2.0), checkpoints=(100,))
    got = (scan.expansion_time, scan.censored, counts.hyp_count, counts.hyp_count_at[100],
           np.float64(counts.max_expansion_log))
    assert tuple(_digest(v) for v in got) == want


@pytest.mark.parametrize("horizon", [1, 37, 500])
@pytest.mark.parametrize("c", [0.1, 0.5, math.log(2.0), 0.8, 2.0])
def test_constant_expansion_scan_matches_per_point_sums(c, horizon):
    # the uniform scan keeps one prefix sum for every point: E and the mask
    # equal the per-point sums' bit for bit; c = log 2 puts ssum >= -c n on
    # its rounding edge, and c > log 2 fails every point at every step
    sys = uniform_solenoid()
    assert sys.constant_log_expansion is not None
    pts = disk_grid_points(DISK_CENTER, DISK_RADIUS, 2048)
    scan = disk_scan(sys, pts, horizon, c)
    want_e, want_censored = disk_scan_per_point(sys, pts, horizon, c)
    assert scan.expansion_time.dtype == want_e.dtype
    assert np.array_equal(scan.expansion_time, want_e)
    assert np.array_equal(scan.censored, want_censored)


@pytest.mark.parametrize("sys", [uniform_solenoid(), intermittent_solenoid(alpha=0.5),
                                 intermittent_solenoid(alpha=0.5, coupling=0.5)],
                         ids=["uniform", "intermittent", "intermittent-coupled"])
def test_advance_works_in_its_own_buffers(sys):
    # an uncoupled step writes g'(t) into the scan's expansion buffer and
    # allocates nothing grid-sized; a coupled one allocates g'(t), not the
    # ~6 grid-sized temporaries of an allocating kernel (numpy reports to
    # tracemalloc)
    m = 2 ** 15
    scan = CocycleScan(disk_grid_points(0.25, 0.45, m), rng=np.random.default_rng(0))
    for _ in range(3):
        scan.advance(sys)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            scan.advance(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < (2 if sys.coupling else 0.5) * m * 8


def test_contraction_slack_on_model_orbits():
    for sys in (uniform_solenoid(), intermittent_solenoid(alpha=0.5)):
        rng = np.random.default_rng(5)
        for t0 in rng.random(5):
            series = log_contraction_series(sys, t0, 2000)
            assert contraction_slack(series, 0.8) <= 1e-12


def test_expansion_time_frozen_examples():
    const = np.full(20, -math.log(2.0))
    value, censored = expansion_time(const, 0.5, 20)
    assert value == 1 and not censored

    vals = np.full(20, -math.log(2.0))
    vals[0] = math.log(2.0)
    value, censored = expansion_time(vals, 0.3, 20)
    assert value == 4 and not censored

    grow = np.full(20, math.log(2.0))
    _, censored = expansion_time(grow, 0.3, 20)
    assert censored


def test_expansion_time_guard_window_censoring():
    # condition only starts holding inside the final 10%: censored
    vals = np.full(100, 1.0)
    vals[95:] = -200.0
    _, censored = expansion_time(vals, 0.5, 100)
    assert censored


def test_expansion_time_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 200))
        vals = rng.uniform(-1.0, 1.0, n)
        c = float(rng.uniform(0.05, 0.8))
        value, censored = expansion_time(vals, c, n)
        want = brute_force_expansion_time(vals, c, n)
        if want is None:
            assert censored
        else:
            assert not censored and value == want


def test_theta_pliss_values():
    # c2 = c/2 and expansion bound 1: theta = (c/2)/(1 - c/2)
    c = 0.1
    sigma = math.exp(-c / 2.0)
    assert theta_pliss(c, sigma, 1.0) == pytest.approx(0.05 / 0.95)
    with pytest.raises(ValueError):
        theta_pliss(0.1, math.exp(-0.2), 1.0)   # c2 >= c
    with pytest.raises(ValueError):
        theta_pliss(0.5, math.exp(-0.25), 0.3)  # bound below c


def test_density_floor_on_intermittent_sample():
    # small version of the Pliss floor property; full grid in acceptance
    sys = intermittent_solenoid(alpha=0.5)
    c = 0.1
    sigma = math.exp(-c / 2.0)
    horizon = 4000
    pts = disk_grid_points(0.25, 0.45, 512)
    scan = disk_scan(sys, pts, horizon, c)
    counts = hyperbolic_counts(sys, pts, horizon, sigma)
    theta = theta_pliss(c, sigma, counts.max_expansion_log)
    ok = ~scan.censored
    density = counts.hyp_count[ok] / horizon
    assert np.all(density >= theta)


def test_geometric_grid_shape():
    g = geometric_grid(100)
    assert g[0] == 1 and g[-1] <= 100
    assert np.all(np.diff(g) > 0)


def test_expansion_tail_uniform_is_zero():
    curve = expansion_tail(uniform_solenoid(), 1000, 0.5, 50)
    assert np.all(curve.values == 0.0)
    assert curve.error == 0.0


def test_expansion_tail_monotone_intermittent():
    curve = expansion_tail(intermittent_solenoid(alpha=0.5), 2048, 0.1, 2000)
    assert np.all(np.diff(curve.values) <= 1e-15)
    assert curve.values[-1] >= curve.error - 1e-15
    assert curve.values[0] > 0.0


def _density_scan(sys, sigma, n, grid):
    return hyperbolic_counts(sys, disk_grid_points(DISK_CENTER, DISK_RADIUS, grid), n, sigma,
                             checkpoints=(n,))


def test_summed_density_uniform_is_one():
    sys = uniform_solenoid()
    mask = np.zeros(1024, dtype=bool)
    mask[:100] = True
    val = summed_density_check(_density_scan(sys, 0.8, 50, 1024), mask, 50)
    assert val == 1.0


def test_summed_density_empty_subset():
    scan = _density_scan(uniform_solenoid(), 0.8, 50, 1024)
    with pytest.raises(EmptySubset):
        summed_density_check(scan, np.zeros(1024, dtype=bool), 50)


def test_summed_density_single_step():
    # n = 1 with the subset restricted to points hyperbolic at time 1
    sys = intermittent_solenoid(alpha=0.5)
    pts = disk_grid_points(0.25, 0.45, 1024)
    scan = hyperbolic_counts(sys, pts, 1, 0.8, checkpoints=(1,))
    mask = scan.hyp_count_at[1] == 1
    assert summed_density_check(scan, mask, 1) == 1.0
