"""Acceptance gate: the eleven end-to-end criteria at their stated tolerances.

Each criterion is a separate test (or small group) so a single failure is
attributable.  Heavy shared computations (constructions, disk scans, tail
curves) are module-scoped fixtures.  Everything is seeded and deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from gmstruct.cli import main as cli_main
from gmstruct.dynamics import (
    CocycleScan,
    intermittent_solenoid,
    uniform_solenoid,
)
from gmstruct.inducing import (
    ConstructionParams,
    measure_flow_constants,
    return_tail,
    run_construction,
    verify_structure,
)
from gmstruct.pliss import (
    disk_grid_points,
    disk_scan,
    expansion_tail,
)
from gmstruct.regularity import (
    absolute_continuity_test,
    grow_unstable_curve,
    holonomy_jacobian,
    stable_contraction_check,
)
from gmstruct.stats import (
    clt_test,
    correlation,
    fit_power_law,
    large_deviations,
    trig_base,
)
from oracles import (
    contraction_slack,
    expansion_time,
    hyperbolic_counts,
    pliss_times,
    summed_density_check,
    theta_pliss,
)

UNIFORM = uniform_solenoid(lambda_s=0.25, coupling=0.0)
COUPLED = uniform_solenoid(lambda_s=0.25, coupling=1.0)
INTERMITTENT_05 = intermittent_solenoid(alpha=0.5)
INTERMITTENT_03 = intermittent_solenoid(alpha=0.3)

# reference disks sit away from the neutral fixed point of the intermittent
# base map; verification geometry degenerates when the arc straddles it
P_UNIFORM = 0.37
P_INTERMITTENT = 0.3


# ---------------------------------------------------------------------------
# criterion 1: Pliss detection equals the O(n^2) window-sum evaluation


def test_criterion_1_pliss_oracle():
    rng = np.random.default_rng(1)
    max_len = 2000
    # mask of the windows m < t that the definition quantifies over
    tt = np.arange(1, max_len + 1)[:, None]
    mm = np.arange(max_len)[None, :]
    valid = tt - mm >= 1
    start = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(1, max_len + 1))
        vals = rng.uniform(-1.0, 1.0, n)
        sigma = float(rng.uniform(0.3, 0.9))
        # O(n^2) evaluation of every window sum: t is hyperbolic iff
        # sum_{j=m+1}^{t} (a_j - log sigma) <= 0 for every m < t, i.e.
        # P_t <= P_m for the adjusted prefix sums
        prefix = np.concatenate([[0.0], np.cumsum(vals - math.log(sigma))])
        window_ok = prefix[1:, None] <= prefix[None, :-1]
        brute = np.flatnonzero(
            np.all(window_ok | ~valid[:n, :n], axis=1)) + 1
        fast = pliss_times(vals, sigma)
        assert np.array_equal(fast, brute)
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# criterion 2: contraction bound at every detected hyperbolic time


@pytest.mark.parametrize("sys_,sigma", [(UNIFORM, 0.51),
                                        (INTERMITTENT_05, math.exp(-0.05))])
def test_criterion_2_hyperbolic_time_contraction(sys_, sigma):
    rng = np.random.default_rng(2)
    scan = CocycleScan(rng.random(100))
    series = np.array([-np.log(scan.advance(sys_)[0]) for _ in range(10 ** 4)])
    for i in range(series.shape[1]):
        col = series[:, i]
        times = pliss_times(col, sigma)
        assert contraction_slack(col, sigma, times=times) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 3: expansion-time oracle (independent suffix-scan evaluation)


def _oracle_expansion(vals, c, horizon, guard_frac=0.1):
    avg = np.cumsum(vals[:horizon]) / np.arange(1, horizon + 1)
    ok = avg < -c
    suffix_all_ok = np.minimum.accumulate(ok[::-1])[::-1]
    idx = np.flatnonzero(suffix_all_ok)
    value = int(idx[0]) + 1 if len(idx) else horizon + 1
    guard = max(1, int(math.ceil(guard_frac * horizon)))
    if value > horizon - guard + 1:
        return horizon, True
    return value, False


def test_criterion_3_expansion_time_oracle():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(50, 500))
        # mean drift drawn around zero so all censoring regimes occur
        vals = rng.uniform(-1.0, 1.0, n) + rng.uniform(-0.5, 0.3)
        c = float(rng.uniform(0.05, 0.5))
        got = expansion_time(vals, c, n)
        value, censored = _oracle_expansion(vals, c, n)
        assert got == (value, censored)


# ---------------------------------------------------------------------------
# criterion 4: Pliss density floor on the intermittent model


@pytest.fixture(scope="module")
def density_scan():
    # E and the censoring mask from the tails scan, the hyperbolic-time
    # counts from the Pliss sums along the same orbits
    start = time.monotonic()
    pts = disk_grid_points(0.25, 0.45, 2 ** 14)
    scan = disk_scan(INTERMITTENT_05, pts, 10 ** 4, 0.1)
    counts = hyperbolic_counts(INTERMITTENT_05, pts, 10 ** 4, math.exp(-0.05),
                               checkpoints=(10 ** 4,))
    return scan, counts, time.monotonic() - start


def test_criterion_4_density_floor(density_scan):
    scan, counts, elapsed = density_scan
    assert elapsed < 120.0
    theta = theta_pliss(0.1, math.exp(-0.05), counts.max_expansion_log)
    live = ~scan.censored
    assert live.any()
    density = counts.hyp_count[live] / counts.horizon
    assert np.min(density) >= theta - 1e-12
    rng = np.random.default_rng(4)
    for _ in range(5):
        mask = live & (rng.random(len(live)) < 0.5)
        summed = summed_density_check(counts, mask, counts.horizon)
        assert summed >= theta - 1e-12


# ---------------------------------------------------------------------------
# criterion 5: construction soundness on the uniform baseline


@pytest.fixture(scope="module")
def uniform_structure():
    params = ConstructionParams(delta0=0.02, sigma=0.51, c=0.5, n_max=200,
                                R0=20, resolution=2.0 ** -20)
    start = time.monotonic()
    st = run_construction(UNIFORM, params, p_base=P_UNIFORM, seed=0)
    return st, time.monotonic() - start


def test_criterion_5_soundness(uniform_structure):
    st, elapsed = uniform_structure
    assert elapsed < 60.0
    assert st.grid_size == 41944
    assert st.violations == 0
    carved = st.R > 0
    assert np.min(st.R[carved]) > st.params.R0
    assert np.min(st.R[carved]) <= st.params.R0 + 10
    # per-step mass conservation: active count drops by exactly the carve,
    # and the A/B exchange balances
    for prev, cur in zip(st.trace, st.trace[1:]):
        assert cur["delta_prev"] == prev["delta_prev"] - prev["carved"]
        assert abs(cur["A_prev"] - (prev["A_prev"] - prev["carved"]
                                    - prev["ringed_from_A"] + prev["B_to_A"])) == 0
        assert abs(cur["B_prev"] - (prev["B_prev"] - prev["B_to_A"]
                                    + prev["ringed_from_A"])) == 0
    total_carved = sum(rec["carved"] for rec in st.trace)
    assert total_carved == int(np.count_nonzero(carved))
    assert abs(st.leftover_mass() - (1.0 - total_carved / st.grid_size)) < 1e-12


def test_criterion_5_leftover_mass(uniform_structure):
    # the ring-renewal rate bounds survival >= ~1.7e-3 for any sigma > 1/2,
    # so this stated tolerance is not attainable by the construction as
    # specified; the faithful measurement is asserted regardless
    st, _ = uniform_structure
    assert st.leftover_mass() < 1e-3


# ---------------------------------------------------------------------------
# criterion 6: (P1)/(P3)/(P4) verification on both models


@pytest.fixture(scope="module")
def intermittent_structure():
    params = ConstructionParams(delta0=0.02, sigma=0.8, c=0.1, n_max=400,
                                R0=20, resolution=2.0 ** -20)
    return run_construction(INTERMITTENT_05, params, p_base=P_INTERMITTENT,
                            seed=0)


@pytest.mark.parametrize("which", ["uniform", "intermittent"])
def test_criterion_6_verification(which, uniform_structure,
                                  intermittent_structure):
    if which == "uniform":
        st, sys_ = uniform_structure[0], UNIFORM
    else:
        st, sys_ = intermittent_structure, INTERMITTENT_05
    doc = verify_structure(st, sys_, seed=0, pairs_per_element=8)
    markov = doc["markov"]
    assert markov["covering_violations"] == 0
    assert markov["overlap_violations"] == 0

    back = doc["backward_contraction"]
    assert np.isfinite(back["C_fit"]) and back["C_fit"] > 0.0
    double = verify_structure(st, sys_, seed=0, pairs_per_element=16)["backward_contraction"]
    assert abs(double["C_fit"] - back["C_fit"]) <= 0.1 * back["C_fit"]

    dist = doc["distortion"]
    assert dist["max_residual_factor"] <= 2.0


# ---------------------------------------------------------------------------
# criterion 7: tail-exponent transfer E -> R on the intermittent model


@pytest.fixture(scope="module")
def tail_transfer():
    start = time.monotonic()
    delta0 = 0.02
    params = ConstructionParams(delta0=delta0, sigma=math.exp(-0.05), c=0.1,
                                n_max=2000, R0=20,
                                resolution=2.0 * delta0 / 2 ** 16)
    st = run_construction(INTERMITTENT_05, params, p_base=P_INTERMITTENT,
                          seed=0)
    tail_r = return_tail(st)
    tail_e = expansion_tail(INTERMITTENT_05, 2 ** 16, 0.1, 2000,
                            center=P_INTERMITTENT, radius=delta0)
    fit_r = fit_power_law(tail_r, window=(20, 1000))
    fit_e = fit_power_law(tail_e, window=(20, 1000))
    return fit_e, fit_r, time.monotonic() - start


def test_criterion_7_tail_transfer(tail_transfer):
    fit_e, fit_r, elapsed = tail_transfer
    assert elapsed < 30 * 60
    assert fit_e.r_squared >= 0.9
    assert fit_r.r_squared >= 0.85
    assert fit_r.exponent >= fit_e.exponent - 0.3


# ---------------------------------------------------------------------------
# criterion 8: flow estimates (m2)-(m4) across a delta0 sweep


@pytest.fixture(scope="module")
def flow_sweeps(intermittent_structure):
    inter = {}
    for d0 in (0.04, 0.02, 0.01):
        if d0 == 0.02:
            st = intermittent_structure
        else:
            params = ConstructionParams(delta0=d0, sigma=0.8, c=0.1,
                                        n_max=400, R0=20,
                                        resolution=2.0 ** -20)
            st = run_construction(INTERMITTENT_05, params,
                                  p_base=P_INTERMITTENT, seed=0)
        inter[d0] = measure_flow_constants(st)
    uni = {}
    for d0 in (0.04, 0.02, 0.01):
        params = ConstructionParams(delta0=d0, sigma=0.51, c=0.5, n_max=200,
                                    R0=20, resolution=2.0 ** -20)
        st = run_construction(UNIFORM, params, p_base=P_UNIFORM, seed=0)
        uni[d0] = measure_flow_constants(st)
    return inter, uni


def test_criterion_8_a0_ring_prediction(flow_sweeps, intermittent_structure):
    # the e^{C2} slack of Lemma-4.1's comparison is only meaningful on a
    # model with nonzero distortion, so a0 is checked on the intermittent
    # sweep with C2 fitted from its own structure
    inter, _ = flow_sweeps
    c2 = verify_structure(intermittent_structure, INTERMITTENT_05,
                          seed=0)["distortion"]["C2_fit"]
    slack = math.exp(min(c2, 500.0))
    for d0, fc in inter.items():
        assert fc["a0"] > 0.0, d0
        ratio = max(fc["a0"] / fc["a0_ring_prediction"],
                    fc["a0_ring_prediction"] / fc["a0"])
        assert ratio <= slack, d0


def test_criterion_8_b0_c0_trend(flow_sweeps):
    # the delta0 -> 0 trend of Lemma 4.2 is checked on the uniform family,
    # where the counting-measure ratios are free of intermittent-expansion
    # noise; the intermittent sweep at these delta0 does not separate the
    # trend from carve-count variance
    _, uni = flow_sweeps
    b0s = [uni[d0]["b0"] for d0 in (0.04, 0.02, 0.01)]
    c0s = [uni[d0]["c0"] for d0 in (0.04, 0.02, 0.01)]
    assert b0s[0] > b0s[1] > b0s[2] > 0.0
    assert c0s[0] > c0s[1] > c0s[2] > 0.0


def test_criterion_8_c1_positive(flow_sweeps):
    inter, uni = flow_sweeps
    for sweep in (inter, uni):
        for d0, fc in sweep.items():
            assert fc["c1"] > 0.0, d0


# ---------------------------------------------------------------------------
# criterion 9: regularity of the stable family and holonomies


def test_criterion_9_regularity():
    contraction = stable_contraction_check(COUPLED, fiber_pairs=1000)
    beta = contraction["beta_fit"]
    assert abs(beta - 0.25) <= 0.02

    g1, g2 = grow_unstable_curve(COUPLED, seed=1), grow_unstable_curve(COUPLED, seed=2)
    tail_log = holonomy_jacobian(g1, g2, 0.5, N_trunc=80)["tail_log"]
    live = tail_log > 1e-12
    vals = tail_log[live]
    ratios = vals[2:] / vals[1:-1]
    assert np.all(ratios <= beta + 0.05)

    ac = absolute_continuity_test(g1, g2, cells=64, grid=2 ** 12)
    assert ac["max_rel_err"] <= 1e-3

    flat = grow_unstable_curve(UNIFORM, seed=1), grow_unstable_curve(UNIFORM, seed=2)
    for x in (0.1, 0.5, 0.9):
        assert abs(holonomy_jacobian(*flat, x)["J"] - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 10: limit laws


@pytest.fixture(scope="module")
def limits_clock():
    return {"start": time.monotonic()}


def test_criterion_10_uniform_correlation(limits_clock):
    corr = correlation(UNIFORM, trig_base(1), 100, 10 ** 5, seed=4)
    assert np.max(corr.values[1:]) <= 1e-3 + 2.0 * corr.error


def test_criterion_10_clt(limits_clock):
    out = clt_test(UNIFORM, trig_base(1), 10 ** 4, 10 ** 4, seed=0)
    assert out["ks_distance"] <= 0.05
    out = clt_test(INTERMITTENT_03, trig_base(1), 10 ** 4, 10 ** 4, seed=0)
    assert out["ks_distance"] <= 0.08


def test_criterion_10_polynomial_rates(limits_clock, tail_transfer):
    _, fit_r, _ = tail_transfer
    floor = fit_r.exponent - 1.0 - 0.5

    corr = correlation(INTERMITTENT_05, trig_base(1), 500, 5 * 10 ** 6, seed=0)
    corr_fit = fit_power_law(corr, window=(10, 200))
    assert corr_fit.r_squared >= 0.8
    assert corr_fit.exponent >= floor

    grid = [int(n) for n in np.unique(np.geomspace(5, 2000, 25).astype(int))]
    ld = large_deviations(INTERMITTENT_05, trig_base(1), 0.2, grid, 10 ** 4,
                          seed=0)
    ld_fit = fit_power_law(ld, window=(20, 1000))
    assert ld_fit.r_squared >= 0.8
    assert ld_fit.exponent >= floor

    assert time.monotonic() - limits_clock["start"] < 45 * 60


# ---------------------------------------------------------------------------
# criterion 11: end-to-end reproducibility through the CLI


def test_criterion_11_reproducibility(tmp_path):
    cfg = "configs/uniform_baseline.cfg"
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main(["all", "--config", cfg, "--out", str(out),
                         "--seed", "7", "--workers", "4"])
        assert code == 0
        outs.append(json.loads((out / "manifest.json").read_text()))
    assert outs[0]["checksums"] == outs[1]["checksums"]
    assert len(outs[0]["checksums"]) >= 12
