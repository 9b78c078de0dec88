"""Tests for the inductive construction of the inducing structure."""

import hashlib
import json
import math

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmstruct import config, inducing
from gmstruct.dynamics import ModelSystem, circle_offset, intermittent_solenoid, uniform_solenoid
from gmstruct.inducing import (
    ConstructionParams,
    GibbsMarkovStructure,
    _evolve_with_deriv,
    _newton_edges,
    _verifiable_elements,
    choose_base_point,
    element_edges,
    init_state,
    measure_flow_constants,
    return_tail,
    run_construction,
    step_partition,
    verify_markov,
    verify_pairs,
    verify_structure,
    write_structure_json,
)
from oracles import (
    carved_runs,
    first_return_partition,
    first_return_tail,
    flow_constants,
    mass_counts,
    verifiable_elements,
)

UNIFORM = uniform_solenoid(lambda_s=0.25, coupling=0.0)
INTERMITTENT = intermittent_solenoid(alpha=0.5)


def _edges(st, sys, idx):
    """``element_edges`` of a construction's carved samples idx, onto its delta0 arc around p."""
    return element_edges(sys, st.points[idx], st.R[idx], st.log_deriv_carve[idx],
                         st.p_base, st.params.delta0)


@pytest.fixture(scope="module")
def uniform_structure():
    # coarse version of the full-resolution construction in acceptance
    params = ConstructionParams(delta0=0.02, sigma=0.51, c=0.5, n_max=200,
                                resolution=2.0 ** -14)
    return run_construction(UNIFORM, params, p_base=0.37), params


@pytest.fixture(scope="module")
def intermittent_structure():
    params = ConstructionParams(delta0=0.02, sigma=0.8, c=0.1, n_max=400,
                                resolution=2.0 ** -14)
    return run_construction(INTERMITTENT, params, seed=1), params


# ---------------------------------------------------------------------------
# parameters and rings


def _ring_boundaries(params):
    # boundaries[k] = delta0 (1 + sigma^{k/2}), k = 0..k_max: the outer edge of I_{k+1}
    return params.delta0 * (1.0 + params.sigma ** (np.arange(params.k_max + 1) / 2.0))


def test_ring_table_frozen_example():
    # delta0 = 0.05, sigma = 0.25: boundaries delta0 (1 + sigma^{k/2})
    params = ConstructionParams(delta0=0.05, sigma=0.25, c=0.5, n_max=10,
                                resolution=1e-4)
    boundaries = _ring_boundaries(params)
    assert boundaries[0] == pytest.approx(0.10)
    assert boundaries[1] == pytest.approx(0.075)
    assert boundaries[2] == pytest.approx(0.0625)
    assert params.ring_index(0.08) == 1      # I_1 = (0.075, 0.100)
    assert params.ring_index(0.07) == 2      # I_2 = (0.0625, 0.075)
    widths = -np.diff(boundaries)            # widths[k - 1] is the width of I_k
    assert widths[0] == pytest.approx(0.025)
    assert widths[1] == pytest.approx(0.0125)  # geometric, ratio sqrt(sigma)


def test_ring_truncation_at_resolution():
    params = ConstructionParams(delta0=0.05, sigma=0.25, c=0.5, n_max=10,
                                resolution=1e-2)
    boundaries = _ring_boundaries(params)
    assert boundaries[params.k_max - 1] - boundaries[params.k_max] >= params.resolution
    d0, s = params.delta0, params.sigma
    assert d0 * (s ** ((params.k_max + 1) / 2.0)
                 - s ** ((params.k_max + 2) / 2.0)) < params.resolution
    # distances below the last boundary clip into the last ring
    assert params.ring_index(d0 * 1.0000001) == params.k_max


def test_grid_size_matches_resolution():
    params = ConstructionParams(delta0=0.02, sigma=0.51, c=0.5, n_max=10,
                                resolution=2.0 ** -20)
    assert params.grid_size == math.ceil(0.04 * 2 ** 20)


# ---------------------------------------------------------------------------
# base point


def test_choose_base_point_trivial_density():
    # every orbit is 1-dense: p is the 1001st draw of the seed's stream
    assert choose_base_point(0) == 0.013007673374885287
    assert choose_base_point(7) == 0.8690497571674405


# ---------------------------------------------------------------------------
# step machine invariants


def _digest(value):
    data = json.dumps(value).encode() if isinstance(value, list) else value.tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


UNIFORM_SMALL = dict(delta0=0.02, sigma=0.51, c=0.5, n_max=200, resolution=2.0 ** -17)
INTERMITTENT_SMALL = dict(UNIFORM_SMALL, sigma=0.8, c=0.1, n_max=400)
NEIGHBOR_UNIFORM = dict(UNIFORM_SMALL, R0=2, epsilon=0.0039, resolution=2.0 ** -14)
NEIGHBOR_INTERMITTENT = dict(INTERMITTENT_SMALL, n_max=300, R0=2, epsilon=0.001,
                             resolution=2.0 ** -16)
# sha256 prefixes of a small construction's outputs (R, log_deriv_carve,
# trace) and its violation count; a faster step machine must
# reproduce every bit of them.  Only the two neighbor-rule
# cases (short R0, wide A^eps margin) have the A^eps rule join points; the
# uniform one needs the join to the left, the intermittent one (next to the
# neutral fixed point) the join to the right
CONSTRUCTION_DIGESTS = {
    "uniform": (uniform_solenoid(lambda_s=0.25), UNIFORM_SMALL, None, (
        "7351ce8022457a20", "046204622971d04d", "6c3efcb837d4071a", 0)),
    "intermittent-0.3": (intermittent_solenoid(alpha=0.3), INTERMITTENT_SMALL, None, (
        "9f16bf4e4c155e1e", "fe349f4b31ae108b", "217c3b13b0c4fcf8", 0)),
    "intermittent-0.5": (INTERMITTENT, INTERMITTENT_SMALL, None, (
        "2ff1866704bae722", "5d7a65af7d44aee3", "6f4f0984b648d7b8", 0)),
    "uniform-coupled": (uniform_solenoid(coupling=0.5), UNIFORM_SMALL, None, (
        "7351ce8022457a20", "046204622971d04d", "44e3a29030251221", 0)),
    "neighbor-rule-uniform": (uniform_solenoid(lambda_s=0.1), NEIGHBOR_UNIFORM, 0.3, (
        "65da5bddde83f7cb", "792dfc8c6f9177a2", "98f22d8532810fde", 1)),
    "neighbor-rule-intermittent": (INTERMITTENT, NEIGHBOR_INTERMITTENT, 0.021, (
        "ea5dfe9a716400eb", "eb29b11ecdaecc54", "8d83e27ee79dad82", 1)),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTION_DIGESTS))
def test_construction_outputs_pinned(case):
    sys_, params, p_base, want = CONSTRUCTION_DIGESTS[case]
    s = run_construction(sys_, ConstructionParams(**params), p_base=p_base, seed=0)
    got = tuple(_digest(v) for v in (s.R, s.log_deriv_carve, s.trace))
    assert got + (s.violations,) == want


@pytest.mark.parametrize("case", ["uniform", "intermittent-0.5", "uniform-coupled",
                                  "neighbor-rule-intermittent"])
def test_carved_orbits_are_never_read(case):
    # a carved orbit steps on with the rest, so the dither stream covers the
    # grid, but no output reads it: scrambling the carved points and slopes
    # after every step leaves the untouched run's pinned digests
    sys_, params, p_base, want = CONSTRUCTION_DIGESTS[case]
    params = ConstructionParams(**params)
    state = init_state(params, choose_base_point(0) if p_base is None else p_base, seed=0)
    rng = np.random.default_rng(5)
    for _ in range(params.n_max):
        step_partition(state, sys_, params)
        carved = state.R > 0
        for a in (state.scan.t, state.scan.s1, state.scan.s2):
            if a is not None:
                a[carved] = rng.random(np.count_nonzero(carved))
    assert (state.scan.s1 is not None) == (sys_.coupling != 0.0)    # slopes scrambled too
    got = tuple(_digest(v) for v in (state.R, state.log_deriv, state.trace))
    assert got + (state.violations,) == want


@pytest.mark.parametrize("case", sorted(CONSTRUCTION_DIGESTS))
def test_active_arrays_track_the_uncarved_points(case):
    # the bookkeeping lives on the active points, in grid order; a carve
    # drops exactly its points from every active array
    sys_, params, p_base, _ = CONSTRUCTION_DIGESTS[case]
    params = ConstructionParams(**params)
    state = init_state(params, choose_base_point(0) if p_base is None else p_base, seed=0)
    for _ in range(params.n_max):
        before = len(state.ia)
        step_partition(state, sys_, params)
        ia = state.ia
        assert np.all(np.diff(ia) > 0)
        assert np.all(state.R[ia] == 0)
        assert np.count_nonzero(state.R == 0) == len(ia)
        for a in (state.bsum, state.bmin, state.last_hyp, state.log_deriv_hyp, state.wait):
            assert len(a) == len(ia)
        assert before == len(ia) + state.trace[-1]["carved"]


# the shipped configs' full-resolution (2^-20) constructions, pinned as in
# CONSTRUCTION_DIGESTS: sha256 prefixes of R, log_deriv_carve and the trace,
# and the violation count
SHIPPED_DIGESTS = {
    "uniform_baseline": ("de1b416176b5b6b1", "32b0c555fe669d5c", "eea5fb17ff08f7f8", 0),
    "intermittent_alpha05": ("b41cd3f933d6d40e", "7129734d6726dfce", "56e538e191d2bd42", 0),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
def test_shipped_constructions_pinned(name):
    cfg = config.load_config(f"configs/{name}.cfg")
    s = run_construction(cfg.system(), cfg.construction_params(), seed=cfg.seed)
    got = tuple(_digest(v) for v in (s.R, s.log_deriv_carve, s.trace))
    assert got + (s.violations,) == SHIPPED_DIGESTS[name]


def test_first_steps_no_carving():
    params = ConstructionParams(delta0=0.02, sigma=0.51, c=0.5, n_max=30,
                                resolution=2.0 ** -12)
    state = init_state(params, 0.37, seed=0)
    for _ in range(params.R0):
        step_partition(state, UNIFORM, params)
    # before R0 nothing is carved and nothing waits: A_n is everything
    assert np.all(state.R == 0)
    assert np.all(state.wait == 0)
    counts = mass_counts(state)
    assert counts["A_n"] == params.grid_size and counts["B_n"] == 0


def test_step_mass_conservation_and_wait_decrement():
    params = ConstructionParams(delta0=0.02, sigma=0.51, c=0.5, n_max=60,
                                resolution=2.0 ** -12)
    state = init_state(params, 0.37, seed=0)
    for _ in range(60):
        waiting = state.wait > 0
        waited, prev_wait = state.ia[waiting], state.wait[waiting]
        step_partition(state, UNIFORM, params)
        # waiting points either count down by one or were just carved
        wait = np.full(params.grid_size, -1)
        wait[state.ia] = state.wait
        assert np.all((wait[waited] == prev_wait - 1) | (state.R[waited] > 0))
        counts = mass_counts(state)
        carved = int(np.count_nonzero(state.R > 0))
        assert counts["delta_n"] + carved == params.grid_size


def test_wait_values_bounded_by_ring_table(uniform_structure):
    st, params = uniform_structure
    # re-run a short construction tracking t against k_max
    state = init_state(params, st.p_base, seed=0)
    for _ in range(50):
        step_partition(state, UNIFORM, params)
        assert np.max(state.wait) <= params.k_max


# ---------------------------------------------------------------------------
# full construction


def test_uniform_construction_basics(uniform_structure):
    st, params = uniform_structure
    assert st.violations == 0
    assert not st.nonconvergent
    assert st.leftover_mass() < 5e-3
    elem_lo, elem_hi = carved_runs(st.R)
    rvals = st.R[elem_lo]
    assert int(rvals.min()) == params.R0 + 1      # first admissible step carves
    assert int(rvals.max()) <= params.n_max
    assert st.gcd_R() == 1
    # element runs are disjoint and sorted
    assert np.all(elem_lo[1:] > elem_hi[:-1])


def test_intermittent_construction_basics(intermittent_structure):
    st, params = intermittent_structure
    assert st.violations == 0
    assert st.leftover_mass() < 0.05
    assert st.gcd_R() == 1


def test_elements_partition_carved_points(uniform_structure):
    st, _ = uniform_structure
    elem_lo, elem_hi = carved_runs(st.R)
    assert int(np.sum(elem_hi - elem_lo + 1)) == int(np.count_nonzero(st.R > 0))


# ---------------------------------------------------------------------------
# verification of (P1), (P3), (P4)


def test_markov_property_uniform(uniform_structure):
    st, _ = uniform_structure
    rep = verify_structure(st, UNIFORM, seed=3, max_elements=200)["markov"]
    assert rep["checked"] > 50
    assert rep["covering_violations"] == 0
    assert rep["overlap_violations"] == 0


def test_markov_property_intermittent(intermittent_structure):
    st, _ = intermittent_structure
    rep = verify_structure(st, INTERMITTENT, seed=3, max_elements=200)["markov"]
    assert rep["checked"] > 50
    assert rep["covering_violations"] == 0
    assert rep["overlap_violations"] == 0


def test_markov_detects_synthetic_overlap():
    # two genuinely overlapping, non-duplicate intervals
    rep = verify_markov(UNIFORM, np.array([0.352, 0.355]), np.array([0.360, 0.363]),
                        np.array([25, 25]), 0.37, 0.02)
    assert rep["overlap_violations"] >= 1


def test_markov_detects_broken_covering(uniform_structure):
    st, _ = uniform_structure
    idx = np.flatnonzero(st.R == int(st.R[carved_runs(st.R)[0]].min()))[:1]
    lo, hi, _ = _edges(st, UNIFORM, idx)
    # chop the element in half: its image no longer reaches +delta0
    rep = verify_markov(UNIFORM, lo, lo + 0.5 * (hi - lo), st.R[idx], st.p_base,
                        st.params.delta0, 0.0)
    assert rep["covering_violations"] == 1


def test_backward_contraction_uniform_exact(uniform_structure):
    # each backward step contracts by 2 > sigma^{-1/2}, so C = 1 exactly
    st, _ = uniform_structure
    rep = verify_structure(st, UNIFORM, seed=3, max_elements=100)["backward_contraction"]
    assert rep["pairs"] > 100
    assert rep["C_fit"] == pytest.approx(1.0, abs=1e-9)
    again = verify_structure(st, UNIFORM, seed=3, max_elements=100,
                             pairs_per_element=16)["backward_contraction"]
    assert abs(again["C_fit"] - rep["C_fit"]) <= 0.1 * rep["C_fit"]


def test_backward_contraction_intermittent(intermittent_structure):
    st, _ = intermittent_structure
    rep = verify_structure(st, INTERMITTENT, seed=3, max_elements=100)["backward_contraction"]
    assert rep["pairs"] > 100
    assert rep["C_fit"] < 10.0
    again = verify_structure(st, INTERMITTENT, seed=3, max_elements=100,
                             pairs_per_element=16)["backward_contraction"]
    assert abs(again["C_fit"] - rep["C_fit"]) <= 0.1 * max(rep["C_fit"], again["C_fit"])


def test_distortion_uniform_exactly_zero(uniform_structure):
    # constant derivative: log det ratios vanish identically
    st, _ = uniform_structure
    rep = verify_structure(st, UNIFORM, seed=3, max_elements=100)["distortion"]
    assert rep["exact_zero"]
    assert rep["C2_fit"] == 0.0


def test_distortion_intermittent_holder(intermittent_structure):
    st, _ = intermittent_structure
    rep = verify_structure(st, INTERMITTENT, seed=3, max_elements=100)["distortion"]
    assert not rep["exact_zero"]
    assert 0.3 < rep["eta_fit"] <= 1.1
    assert rep["C2_fit"] > 0.0
    assert rep["max_residual_factor"] <= 1.0 + 1e-9


def test_verify_pairs_intermittent_pinned(intermittent_structure):
    # exact (P3) and (P4) reports of the two separate pair loops that
    # verify_pairs replaced, taken under numpy 2.4.6, Python 3.11.7 on
    # x86-64 (another numpy or libm may round differently and fail this test)
    st, _ = intermittent_structure
    rep = verify_structure(st, INTERMITTENT, seed=3, max_elements=100)
    assert rep["backward_contraction"] == {
        "C_fit": 1.0, "violations": 0, "pairs": 800,
        "ratio_p50": 1.0, "ratio_p90": 1.0}
    assert rep["distortion"] == {
        "C2_fit": 1.3631813351879225, "eta_fit": 0.8825882890942276,
        "max_residual_factor": 1.0000000000000004,
        "r_squared": 0.23655618932649414, "pairs": 800, "exact_zero": False,
        "ls_intercept": -1.6521455188710494}


# exact (P3) and (P4) reports of the masked pair loop on one small coupled
# construction per family (resolution 2^-14, n_max 200, p_base 0.37), taken
# under numpy 2.4.6, Python 3.11.7 on x86-64 (another numpy or libm may
# round differently and fail this test)
PAIRS_COUPLED = {
    "uniform": (uniform_solenoid(coupling=1.0), dict(sigma=0.51, c=0.5), {
        "backward_contraction": {
            "C_fit": 1.0000000000000002, "violations": 0, "pairs": 800,
            "ratio_p50": 1.0, "ratio_p90": 1.0},
        "distortion": {
            "C2_fit": 0.08418832329470706, "eta_fit": 1.019864044501605,
            "max_residual_factor": 1.0, "r_squared": 0.8366005759188653, "pairs": 800,
            "exact_zero": False, "ls_intercept": -2.987954371931574}}),
    "intermittent": (intermittent_solenoid(alpha=0.5, lambda_s=0.5, coupling=1.0),
                     dict(sigma=0.8, c=0.1), {
        "backward_contraction": {
            "C_fit": 1.0, "violations": 0, "pairs": 800,
            "ratio_p50": 1.0, "ratio_p90": 1.0},
        "distortion": {
            "C2_fit": 3.0813181026025713, "eta_fit": 1.0149456800386791,
            "max_residual_factor": 1.0, "r_squared": 0.40009205897779454, "pairs": 800,
            "exact_zero": False, "ls_intercept": -0.28187567862742197}}),
}


@pytest.mark.parametrize("case", sorted(PAIRS_COUPLED))
def test_verify_pairs_coupled_pinned(case):
    sys_, params, want = PAIRS_COUPLED[case]
    st = run_construction(sys_, ConstructionParams(delta0=0.02, n_max=200,
                                                   resolution=2.0 ** -14, **params),
                          p_base=0.37)
    rep = verify_structure(st, sys_, seed=3, max_elements=100)
    assert {k: rep[k] for k in want} == want


# ---------------------------------------------------------------------------
# a known answer: the first return of the intermittent base map to Y = [1/2, 1)

#: (alpha, K): K is capped so that every element is wider than 1e-6
FIRST_RETURN = [(0.3, 50), (0.5, 100), (0.7, 100)]
#: the shipped intermittent sigma, exp(-c/2) at c = 0.1
SIGMA_SHIPPED = math.exp(-0.1 / 2.0)


@pytest.mark.parametrize("alpha,K", FIRST_RETURN)
def test_first_return_partition_passes_p1_p3_p4(alpha, K):
    sys_ = intermittent_solenoid(alpha=alpha)
    lo, hi, R = first_return_partition(sys_, K)
    assert np.min(hi - lo) > 1e-6
    rep = verify_markov(sys_, lo, hi, R, 0.75, 0.25)
    assert (rep["checked"], rep["covering_violations"], rep["overlap_violations"],
            rep["duplicates"]) == (K, 0, 0, 0)
    pairs = verify_pairs(sys_, lo, hi, R, SIGMA_SHIPPED, 8, 0)
    # within R <= K steps, the expansion of the last k steps of g^R, which
    # grows polynomially in k, stays ahead of sigma^{-k/2} = e^{0.025 k}
    assert pairs["backward_contraction"]["C_fit"] <= inducing.C0
    # the first-return map has Lipschitz distortion: eta = 1, with slack for the fit
    assert 0.8 <= pairs["distortion"]["eta_fit"] <= 1.1


@pytest.mark.parametrize("alpha,K", FIRST_RETURN)
def test_first_return_shifted_edges_fail_covering(alpha, K):
    sys_ = intermittent_solenoid(alpha=alpha)
    lo, hi, R = first_return_partition(sys_, K)
    shift = 0.25 * (hi - lo)
    rep = verify_markov(sys_, lo + shift, hi + shift, R, 0.75, 0.25)
    assert rep["covering_violations"] == K


def test_first_return_fails_p3_at_a_fast_sigma():
    # sigma^{1/2} = 0.71 per backward step contracts faster than orbits near
    # the neutral fixed point do, so no constant C0 bounds the ratios
    sys_ = intermittent_solenoid(alpha=0.5)
    lo, hi, R = first_return_partition(sys_, 100)
    pairs = verify_pairs(sys_, lo, hi, R, 0.5, 8, 0)
    assert pairs["backward_contraction"]["C_fit"] > inducing.C0


@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_first_return_tail_exponent(alpha):
    # Leb(R > n | Y) = x_(n-1) ~ n^(-1/alpha): pins base_inverse's left branch
    tail = first_return_tail(intermittent_solenoid(alpha=alpha), 800)
    assert len(tail) == 801 and tail[0] == 1.0 and tail[1] == 0.5
    for n1, n2 in ((100, 400), (400, 800)):
        slope = -math.log(tail[n2] / tail[n1]) / math.log(n2 / n1)
        assert abs(slope - 1.0 / alpha) <= 0.1


def _evolve_masked(sys, t, steps):
    # every entry stepped max(steps) times, frozen by a mask once past its count
    val = np.array(t, dtype=float)
    der = np.ones_like(val)
    for n in range(1, int(np.max(steps)) + 1 if len(steps) else 0):
        m = n <= steps
        g, gp = sys.base_step(val)
        der = np.where(m, der * gp, der)
        val = np.where(m, g, val)
    return val, der


@pytest.mark.parametrize("sys", [
    UNIFORM, INTERMITTENT, intermittent_solenoid(alpha=0.3),
    uniform_solenoid(coupling=0.5), intermittent_solenoid(alpha=0.5, lambda_s=0.5, coupling=1.0),
], ids=["uniform", "intermittent-0.5", "intermittent-0.3", "uniform-coupled",
        "intermittent-coupled"])
def test_evolve_with_deriv_matches_masked_loop(sys):
    rng = np.random.default_rng(16)
    t = rng.random(300)
    steps = rng.integers(0, 40, 300)
    steps[:5] = 0
    steps[5:40] = 17                # repeats
    steps[40:45] = 40               # the maximum, several times
    for n in (0, 1, 37, 300):
        val, der = _evolve_with_deriv(sys, t[:n], steps[:n])
        want_val, want_der = _evolve_masked(sys, t[:n], steps[:n])
        assert np.array_equal(val.view(np.uint64), want_val.view(np.uint64))
        assert np.array_equal(der.view(np.uint64), want_der.view(np.uint64))


def test_evolve_with_deriv_pushes_no_slopes(monkeypatch):
    # the replay steps the uncoupled system, so a coupled one allocates and
    # pushes no slope arrays: every push gets the horizontal vector (None)
    pushed = []
    push = ModelSystem.push_tangent

    def spy(self, t, s1, s2, gp, out=None):
        pushed.append(s1 is not None)
        return push(self, t, s1, s2, gp, out=out)

    monkeypatch.setattr(ModelSystem, "push_tangent", spy)
    rng = np.random.default_rng(17)
    steps = rng.integers(1, 30, 50)
    _evolve_with_deriv(uniform_solenoid(coupling=0.5), rng.random(50), steps)
    assert len(pushed) == steps.max() and not any(pushed)


def test_verify_structure_solves_edges_in_one_batch(uniform_structure, monkeypatch):
    # the -delta0 and +delta0 edges of every sampled element share one Newton batch
    calls = []

    def spy(*args):
        calls.append(len(args[1]))
        return _newton_edges(*args)

    monkeypatch.setattr(inducing, "_newton_edges", spy)
    st, _ = uniform_structure
    rep = verify_structure(st, UNIFORM, seed=3, max_elements=100)
    assert calls == [2 * rep["markov"]["checked"]]


def _newton_all_iterations(sys, t0, steps, center, targets, max_move):
    # _newton_edges without its stop on an unmoved batch
    t = np.array(t0, dtype=float)
    lo, hi = t0 - max_move, t0 + max_move
    best_t = t.copy()
    best_err = np.full_like(t, np.inf)
    for _ in range(inducing.NEWTON_ITERS):
        val, der = _evolve_with_deriv(sys, t, steps)
        err = circle_offset(val, center) - targets
        better = np.abs(err) < best_err
        np.copyto(best_t, t, where=better)
        np.copyto(best_err, np.abs(err), where=better)
        if np.max(best_err, initial=0.0) < inducing.NEWTON_TOL:
            break
        t = np.clip(t - err / der, lo, hi)
    return best_t, best_err


@pytest.mark.parametrize("fixture,sys", [("uniform_structure", UNIFORM),
                                         ("intermittent_structure", INTERMITTENT)],
                         ids=["uniform", "intermittent"])
def test_newton_stops_when_no_entry_moves(fixture, sys, request, monkeypatch):
    # the early stop returns the full loop's edges and residuals bit for bit;
    # on the uniform structure every edge settles within two iterations
    st, _ = request.getfixturevalue(fixture)
    solves, evolves = [], []
    newton, evolve = inducing._newton_edges, inducing._evolve_with_deriv

    def spy_newton(*args):
        solves.append((args, newton(*args)))
        return solves[-1][1]

    def spy_evolve(*args):
        evolves.append(len(args[1]))
        return evolve(*args)

    monkeypatch.setattr(inducing, "_newton_edges", spy_newton)
    monkeypatch.setattr(inducing, "_evolve_with_deriv", spy_evolve)
    _edges(st, sys, _verifiable_elements(st, 100, 3))
    (args, got), = solves
    for a, b in zip(got, _newton_all_iterations(*args)):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    if sys is UNIFORM:
        assert 1 <= len(evolves) <= 3


# ---------------------------------------------------------------------------
# tails and flow constants


def test_return_tail_shape(uniform_structure):
    st, _ = uniform_structure
    tail = return_tail(st)
    assert tail.values[0] == 1.0
    assert np.all(np.diff(tail.values) <= 1e-15)
    assert tail.values[-1] >= st.leftover_mass() - 1e-15
    assert tail.error == st.leftover_mass()


def test_flow_constants_positive(uniform_structure):
    st, _ = uniform_structure
    flow = measure_flow_constants(st)
    # a0 can be exactly 0 at coarse sampling (a step whose few waiting
    # points all have t >= 2); positivity is asserted at full resolution
    assert 0.0 <= flow["a0"] <= 1.0
    assert 0.0 <= flow["b0"] < 1.0
    assert 0.0 < flow["c0"] < 1.0
    assert 0.0 < flow["c1"] <= 1.0
    assert flow["window_N"] >= 1
    # ring widths predict B -> A feed-back of about 1 - sqrt(sigma)
    assert flow["a0_ring_prediction"] == pytest.approx(1.0 - math.sqrt(0.51))



FLOW_KEYS = ("a0", "b0", "c0", "a0_zero_steps", "c1", "window_N", "c1_censored_steps")
# measure_flow_constants on every CONSTRUCTION_DIGESTS fixture, as the
# per-record loop (oracles.flow_constants) measured them
FLOW_CONSTANTS = {
    "intermittent-0.3": (0.017857142857142856, 0.25, 1.0, 79, 0.07177322074788903, 20, 11),
    "intermittent-0.5": (0.022222222222222223, 0.2222222222222222, 0.125, 87,
                         0.11305872042068361, 20, 20),
    "neighbor-rule-intermittent": (0.01694915254237288, 0.19031273836765827,
                                   0.2498093058733791, 82, 0.125, 26, 26),
    "neighbor-rule-uniform": (0.09090909090909091, 0.2, 0.2222222222222222, 26,
                              0.14285714285714285, 24, 24),
    "uniform": (0.05263157894736842, 0.07575757575757576, 0.082389289392379, 2,
                0.03909975205035285, 20, 20),
    "uniform-coupled": (0.05263157894736842, 0.07575757575757576, 0.082389289392379, 2,
                        0.03909975205035285, 20, 20),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTION_DIGESTS))
def test_flow_constants_pinned(case):
    sys_, params, p_base, _ = CONSTRUCTION_DIGESTS[case]
    s = run_construction(sys_, ConstructionParams(**params), p_base=p_base, seed=0)
    flow = measure_flow_constants(s)
    assert tuple(flow[k] for k in FLOW_KEYS) == FLOW_CONSTANTS[case]
    assert {k: flow[k] for k in FLOW_KEYS} == flow_constants(s.trace, s.params.n_max)


@pytest.mark.parametrize("n_max, density", [(0, 0.5), (30, 0.03), (40, 0.1), (50, 0.4),
                                             (60, 0.8)])
def test_flow_constants_match_the_loop_on_random_traces(n_max, density):
    # sparse records show what the constructions rarely do: an empty trace,
    # no waiting mass (a0 None), no carve after a hyperbolic step
    rng = np.random.default_rng(n_max)
    cols = ("A_prev", "B_prev", "A_prev_hyp", "carved", "ringed_from_A", "B_to_A")
    draws = rng.integers(0, 4, (n_max, len(cols))) * (rng.random((n_max, len(cols))) < density)
    trace = [dict(zip(cols, map(int, row)), n=n) for n, row in enumerate(draws, 1)]
    st = SimpleNamespace(trace=trace, params=SimpleNamespace(n_max=n_max, sigma=0.5))
    flow = measure_flow_constants(st)
    want = flow_constants(trace, n_max)
    assert {k: flow[k] for k in FLOW_KEYS} == want
    assert json.dumps(flow) == json.dumps(dict(want, a0_ring_prediction=1.0 - math.sqrt(0.5)))

def test_empty_construction(uniform_structure, intermittent_structure):
    # n_max below R0: nothing can be carved
    params = ConstructionParams(delta0=0.02, sigma=0.51, c=0.5, n_max=10,
                                resolution=2.0 ** -10)
    st = run_construction(UNIFORM, params, p_base=0.37)
    assert len(carved_runs(st.R)[0]) == 0
    assert st.leftover_mass() == 1.0
    assert st.nonconvergent
    # no step had waiting mass, so a0 was not measured
    assert measure_flow_constants(st)["a0"] is None
    rep = verify_structure(st, UNIFORM)
    assert rep["markov"]["checked"] == 0
    assert rep["backward_contraction"]["pairs"] == 0
    # the document has one schema whether or not any element was checked,
    # and whether or not the (P4) fit ran
    st_full, _ = uniform_structure
    full = verify_structure(st_full, UNIFORM, max_elements=10)
    assert full["markov"]["checked"] == 10
    assert full["distortion"]["exact_zero"]
    st_fit, _ = intermittent_structure
    fit = verify_structure(st_fit, INTERMITTENT, max_elements=10)
    assert not fit["distortion"]["exact_zero"]

    def schema(doc):
        return {k: list(v) if isinstance(v, dict) else None for k, v in doc.items()}

    for doc in (full, fit):
        assert list(rep) == list(doc) and schema(rep) == schema(doc)


# ---------------------------------------------------------------------------
# serialization


def test_structure_json_keeps_the_scalars(tmp_path, uniform_structure):
    st, params = uniform_structure
    path = tmp_path / "structure.json"
    write_structure_json(st, path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["schema", "leftover_mass", "gcd_R", "violations",
                         "nonconvergent", "p_base", "params"]
    assert doc["schema"] == 2
    assert doc["leftover_mass"] == st.leftover_mass()
    assert doc["gcd_R"] == 1
    assert doc["p_base"] == 0.37
    assert doc["params"]["delta0"] == params.delta0
    assert path.read_bytes() == json.dumps(doc, indent=1).encode()
    # a construction that carved nothing still has its scalars written
    empty = run_construction(UNIFORM, ConstructionParams(delta0=0.02, sigma=0.51, c=0.5,
                                                         n_max=10, resolution=2.0 ** -10))
    write_structure_json(empty, path)
    doc = json.loads(path.read_text())
    assert doc["nonconvergent"] and doc["leftover_mass"] == 1.0 and doc["gcd_R"] == 0


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 20)), min_size=1, max_size=10),
       quarters=st.integers(1, 40),
       log_deriv=st.lists(st.sampled_from([0.0, 0.0, -4.0, 40.0]) | st.floats(-4.0, 40.0),
                          min_size=1, max_size=30),
       max_elements=st.none() | st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
@example(runs=[(1, 9), (2, 9), (0, 3), (3, 9)], quarters=6, log_deriv=[0.0],
         max_elements=None, seed=0)
def test_verifiable_elements_match_the_loop(runs, quarters, log_deriv, max_elements, seed):
    # with log_deriv 0 a run's stride is round(quarters / 4) on a unit cell:
    # ties at 0.5, 1.5, 2.5, ... round half to even; log_deriv 40 falls
    # under WIDTH_FLOOR and -4 gives strides past the run's length; the
    # log_deriv list repeats along the grid
    R = np.repeat([r for r, _ in runs], [k for _, k in runs]).astype(np.int64)
    structure = GibbsMarkovStructure(
        params=SimpleNamespace(delta0=quarters / 8.0, cell_width=1.0), p_base=0.0,
        points=None, R=R, log_deriv_carve=np.resize(log_deriv, len(R)),
        violations=0, trace=[])
    got = _verifiable_elements(structure, max_elements, seed)
    want = verifiable_elements(structure, max_elements, seed)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_element_edges_match_expected_width(uniform_structure):
    st, params = uniform_structure
    idx = np.flatnonzero(st.R == int(st.R[carved_runs(st.R)[0]].min()))[:5]
    lo, hi, err = _edges(st, UNIFORM, idx)
    r = st.R[idx].astype(float)
    expect = 2.0 * params.delta0 / 2.0 ** r
    assert np.allclose(hi - lo, expect, rtol=1e-9)
    assert err < 1e-9
    # the seeds sit inside their recovered intervals
    seeds = st.points[idx]
    assert np.all((seeds >= lo) & (seeds <= hi))
