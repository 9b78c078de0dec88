"""Tests for the dotted-key configuration format and validation."""

import math
import re

import pytest

from gmstruct.config import config_from_raw, load_config, parse_dotted
from gmstruct.errors import ConfigError

MINIMAL = {
    "system.family": "uniform",
    "pliss.c": "0.5",
    "pliss.sigma": "0.51",
    "inducing.delta0": "0.02",
    "inducing.n_max": "200",
}


def _raw(**overrides):
    d = dict(MINIMAL)
    for key, val in overrides.items():
        if val is None:
            d.pop(key, None)
        else:
            d[key] = val
    return d


# ---------------------------------------------------------------------------
# parser


def test_parse_dotted_basics():
    text = """
    # a comment
    system.family = uniform   # trailing comment
    pliss.c = 0.5

    seed = 7
    """
    raw = parse_dotted(text)
    assert raw == {"system.family": "uniform", "pliss.c": "0.5", "seed": "7"}


def test_parse_dotted_malformed_line():
    with pytest.raises(ConfigError):
        parse_dotted("system.family uniform")


def test_parse_dotted_duplicate_key():
    with pytest.raises(ConfigError, match="pliss.c"):
        parse_dotted("pliss.c = 0.5\npliss.c = 0.6")


# ---------------------------------------------------------------------------
# validation

def test_minimal_config_resolves():
    cfg = config_from_raw(MINIMAL)
    assert cfg.family == "uniform"
    assert cfg.sigma == 0.51
    assert cfg.resolution == 2.0 ** -20
    assert cfg.epsilon > 0.0
    assert "inducing.resolution" in cfg.resolved_rules
    assert "inducing.epsilon" in cfg.resolved_rules
    assert "pliss.sigma" not in cfg.resolved_rules   # given explicitly
    # auto epsilon is half the admissible bound
    assert cfg.epsilon == 0.5 * cfg.construction_params().epsilon_max()


def test_sigma_auto_rule():
    cfg = config_from_raw(_raw(**{"pliss.sigma": "auto", "pliss.c": "0.1",
                                  "system.family": "intermittent",
                                  "system.alpha": "0.5"}))
    assert cfg.sigma == pytest.approx(math.exp(-0.05))
    assert "exp(-c/2)" in cfg.resolved_rules["pliss.sigma"]


def test_sigma_out_of_range_names_key():
    with pytest.raises(ConfigError, match="pliss.sigma"):
        config_from_raw(_raw(**{"pliss.sigma": "1.2"}))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="pliss.gamma"):
        config_from_raw(_raw(**{"pliss.gamma": "1"}))


def test_required_key_missing():
    with pytest.raises(ConfigError, match="inducing.delta0"):
        config_from_raw(_raw(**{"inducing.delta0": None}))


def test_alpha_required_for_intermittent():
    with pytest.raises(ConfigError, match="system.alpha"):
        config_from_raw(_raw(**{"system.family": "intermittent"}))


def test_alpha_rejected_for_uniform():
    with pytest.raises(ConfigError, match="system.alpha"):
        config_from_raw(_raw(**{"system.alpha": "0.5"}))


def test_module_invariants_rechecked():
    # resolution >= delta0 violates the construction-grid invariant
    with pytest.raises(ConfigError, match="inducing.resolution"):
        config_from_raw(_raw(**{"inducing.resolution": "0.1"}))


def test_orbit_len_contract():
    with pytest.raises(ConfigError, match="stats.orbit_len"):
        config_from_raw(_raw(**{"stats.n_max": "1000",
                                "stats.orbit_len": "50000"}))


def test_coupling_bound_matches_model():
    # the model keeps the fiber in the unit disk only if lambda_s + A/2 <= 1
    with pytest.raises(ConfigError, match="system.coupling"):
        config_from_raw(_raw(**{"system.lambda_s": "0.4", "system.coupling": "1.5"}))
    cfg = config_from_raw(_raw(**{"system.lambda_s": "0.25", "system.coupling": "1.5"}))
    assert cfg.system().coupling == 1.5


@pytest.mark.parametrize("overrides, key", [
    ({"system.family": "intermittent", "system.alpha": "1.5"}, "system.alpha"),
    ({"system.family": "intermittent", "system.alpha": "nan"}, "system.alpha"),
    ({"system.coupling": "-0.1"}, "system.coupling"),
    ({"system.coupling": "nan"}, "system.coupling"),
    ({"system.lambda_s": "0.6"}, "system.lambda_s"),
    # 2^-20 resolution gives 41,944 grid points; 1e-12 would give 4e10
    ({"inducing.resolution": "1e-12"}, "inducing.resolution"),
    ({"inducing.epsilon": "-1"}, "inducing.epsilon"),
    ({"inducing.epsilon": "0"}, "inducing.epsilon"),
    # sigma = auto is exp(-c/2), which rounds to 1 for these c
    ({"pliss.c": "1e-300", "pliss.sigma": "auto"}, "pliss.c"),
    ({"pliss.c": "1e-17", "pliss.sigma": "auto"}, "pliss.c"),
    # and underflows to 0 for these
    ({"pliss.c": "2000", "pliss.sigma": "auto"}, "pliss.c"),
    # cos(2 pi 0 t) = 1 is a constant: the CLT would end in DegenerateVariance
    ({"stats.observables": "trig0"}, "stats.observables"),
    # the tails scan gets the construction's cap: 1e11 points would not fit in memory
    ({"pliss.grid": "100000000000"}, "pliss.grid"),
    ({"system.lambda_s": "1.5"}, "system.lambda_s"),
    # lambda_s + A/2 > 1 would let the fiber escape the disk; lambda_s fails first
    ({"system.lambda_s": "0.9", "system.coupling": "1.0"}, "system.lambda_s"),
    # 2 sqrt(0.2) > delta1: the outer cylinder does not fit inside the disk
    ({"inducing.delta0": "0.2"}, "inducing.delta0"),
    ({"pliss.sigma": "1.5"}, "pliss.sigma"),
    # checked before the auto epsilon, which would divide by zero or go complex
    ({"pliss.sigma": "0"}, "pliss.sigma"),
    ({"pliss.sigma": "-0.5"}, "pliss.sigma"),
    ({"inducing.epsilon": "1.0"}, "inducing.epsilon"),
    # below epsilon_max = 0.01236 but above delta0 / 2
    ({"inducing.epsilon": "0.012", "pliss.sigma": "0.2"}, "inducing.epsilon"),
    # an auto epsilon above delta0 / 2 names the key that fixed it:
    # sigma if the file sets it, else c (sigma = auto = exp(-c/2))
    ({"pliss.sigma": "0.11"}, "pliss.sigma"),
    ({"pliss.c": "5", "pliss.sigma": "auto"}, "pliss.c"),
    ({"stats.n_max": "100", "stats.orbit_len": "100"}, "stats.orbit_len"),
    # the CLT test runs 10 * stats.n_max = 100 steps
    ({"stats.n_max": "10"}, "stats.n_max"),
    ({"stats.ensemble": "100"}, "stats.ensemble"),
    ({"stats.ensemble": "999"}, "stats.ensemble"),
    # tens of GB of large-deviation sums and hundreds of TB of correlation
    # series: both are refused before any stage allocates them
    ({"stats.ensemble": "10000000000"}, "stats.ensemble"),
    ({"stats.orbit_len": "100000000000000"}, "stats.orbit_len"),
    ({"stats.eps": "-0.1"}, "stats.eps"),
], ids=["alpha-range", "alpha-nan", "coupling-sign", "coupling-nan", "lambda_s",
        "resolution-grid-cap", "epsilon-negative", "epsilon-zero", "c-tiny", "c-below-ulp",
        "c-huge", "trig-zero", "pliss-grid-cap", "lambda_s-above-one", "coupling-escapes-disk",
        "delta0-cylinder", "sigma-above-one", "sigma-zero", "sigma-negative",
        "epsilon-above-bound", "epsilon-above-half-delta0", "auto-epsilon-by-sigma",
        "auto-epsilon-by-c", "orbit-len", "clt-length", "ensemble-100", "ensemble-999",
        "ensemble-cap", "orbit-len-cap", "eps-negative"])
def test_model_errors_name_the_key(overrides, key):
    # config.py's rule table is the only parameter check
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
        config_from_raw(_raw(**overrides))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [
    "system.alpha", "system.lambda_s", "system.coupling", "pliss.c", "pliss.sigma",
    "inducing.delta0", "inducing.resolution", "inducing.epsilon", "stats.eps"])
def test_non_finite_numbers_name_the_key(key, value):
    overrides = {key: value}
    if key == "system.alpha":
        overrides["system.family"] = "intermittent"
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
        config_from_raw(_raw(**overrides))


def test_stats_n_max_covers_clt_length():
    # the limits stage runs the CLT test for 10 * stats.n_max >= 1000 steps
    with pytest.raises(ConfigError, match="stats.n_max"):
        config_from_raw(_raw(**{"stats.n_max": "99"}))
    assert config_from_raw(_raw(**{"stats.n_max": "100"})).stats_n_max == 100


def test_bad_observable_token():
    with pytest.raises(ConfigError, match="stats.observables"):
        config_from_raw(_raw(**{"stats.observables": "sin"}))


def test_observables_takes_one_token():
    # the limits stage runs one observable; a list would lose all but its first
    for value in ("trig1,fiber_norm", "trig1,"):
        with pytest.raises(ConfigError, match="stats.observables"):
            config_from_raw(_raw(**{"stats.observables": value}))
    cfg = config_from_raw(_raw(**{"stats.observables": "fiber_norm"}))
    assert cfg.observable == "fiber_norm"
    assert cfg.echo()["stats.observables"] == "fiber_norm"


def test_seed_range():
    with pytest.raises(ConfigError, match="seed"):
        config_from_raw(_raw(seed="-1"))
    cfg = config_from_raw(_raw(seed=str(2 ** 64 - 1)))
    assert cfg.seed == 2 ** 64 - 1


def test_echo_round_trips_resolved_values():
    cfg = config_from_raw(MINIMAL)
    echo = cfg.echo()
    again = config_from_raw({k: str(v) for k, v in echo.items()})
    assert again.sigma == cfg.sigma
    assert again.epsilon == cfg.epsilon
    assert again.resolution == cfg.resolution


_EPS_RULE = ("auto -> epsilon_max/2 = (C1/C0) delta0 (sigma^-1/2 - 1)/2 = {}"
             " (C1 = 1; C0 = 2 is a fixed bound, not calibrated)")
_RES_RULE = "auto -> 2^-20 = 9.5367431640625e-07"


@pytest.mark.parametrize("name, echo, rules", [
    ("configs/uniform_baseline.cfg",
     [("system.family", "uniform"), ("system.lambda_s", 0.25),
      ("system.coupling", 0.0), ("pliss.c", 0.5), ("pliss.sigma", 0.51),
      ("pliss.horizon", 10000), ("pliss.grid", 16384), ("inducing.delta0", 0.02),
      ("inducing.R0", 20), ("inducing.n_max", 200),
      ("inducing.resolution", 9.5367431640625e-07),
      ("inducing.epsilon", 0.0020014004201400495),
      ("stats.observables", "trig1"), ("stats.n_max", 100),
      ("stats.orbit_len", 100000), ("stats.ensemble", 10000), ("stats.eps", 0.1),
      ("seed", 0), ("output_dir", "out/uniform_baseline")],
     {"inducing.resolution": _RES_RULE,
      "inducing.epsilon": _EPS_RULE.format("0.0020014004201400495")}),
    ("configs/intermittent_alpha05.cfg",
     [("system.family", "intermittent"), ("system.lambda_s", 0.1),
      ("system.coupling", 0.0), ("pliss.c", 0.1), ("pliss.sigma", 0.951229424500714),
      ("pliss.horizon", 10000), ("pliss.grid", 16384), ("inducing.delta0", 0.02),
      ("inducing.R0", 20), ("inducing.n_max", 2000),
      ("inducing.resolution", 9.5367431640625e-07),
      ("inducing.epsilon", 0.0001265756026221443),
      ("stats.observables", "trig1"), ("stats.n_max", 100),
      ("stats.orbit_len", 100000), ("stats.ensemble", 10000), ("stats.eps", 0.1),
      ("seed", 0), ("output_dir", "out/intermittent_alpha05"), ("system.alpha", 0.5)],
     {"pliss.sigma": "auto -> exp(-c/2) = 0.951229424500714",
      "inducing.resolution": _RES_RULE,
      "inducing.epsilon": _EPS_RULE.format("0.0001265756026221443")}),
], ids=["uniform", "intermittent"])
def test_shipped_config_surface_pinned(name, echo, rules):
    # the manifest writes echo() and resolved_rules as they are: pin the key
    # order, the values and their types (repr tells 0 from 0.0)
    cfg = load_config(name)
    assert repr(list(cfg.echo().items())) == repr(echo)
    assert list(cfg.resolved_rules.items()) == list(rules.items())


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="--config"):
        load_config(tmp_path / "nope.cfg")


def test_load_baseline_files():
    for name in ("configs/uniform_baseline.cfg", "configs/intermittent_alpha05.cfg"):
        cfg = load_config(name)
        assert cfg.system() is not None
        assert cfg.warnings == []


def test_system_and_params_builders():
    cfg = config_from_raw(_raw(**{"system.family": "intermittent",
                                  "system.alpha": "0.3",
                                  "system.lambda_s": "0.1"}))
    sys_ = cfg.system()
    assert sys_.base_param == 0.3
    params = cfg.construction_params()
    assert params.delta0 == 0.02 and params.n_max == 200
