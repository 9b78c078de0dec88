"""Experiment configuration: flat dotted-key text files and validation.

Format: one ``key = value`` pair per line, ``#`` starts a comment, keys are
dotted (``system.alpha``).  Fields accepting ``auto`` are resolved at load
time by documented rules and the resolution is recorded so the manifest
can echo it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dynamics import ModelSystem, intermittent_solenoid, uniform_solenoid
from .errors import ConfigError
from .inducing import DELTA1, K0, MAX_GRID, N0, ConstructionParams
from .stats import MAX_ENSEMBLE, MAX_ORBIT_LEN, observable

#: every recognised key: (ExperimentConfig field, type[, default as text]).
#: A key without a default is required; a key accepts ``auto`` exactly when
#: ``auto`` is its default.  ``system.alpha`` (required iff the family is
#: intermittent) comes last because the manifest echo lists it last.
_KEYS = {
    "system.family": ("family", str),
    "system.lambda_s": ("lambda_s", float, "0.25"),
    "system.coupling": ("coupling", float, "0.0"),
    "pliss.c": ("c", float),
    "pliss.sigma": ("sigma", float, "auto"),
    "pliss.horizon": ("horizon", int, "10000"),
    "pliss.grid": ("grid", int, "16384"),
    "inducing.delta0": ("delta0", float),
    "inducing.R0": ("R0", int, "20"),
    "inducing.n_max": ("n_max", int),
    "inducing.resolution": ("resolution", float, "auto"),
    "inducing.epsilon": ("epsilon", float, "auto"),
    "stats.observables": ("observable", str, "trig1"),
    "stats.n_max": ("stats_n_max", int, "100"),
    "stats.orbit_len": ("orbit_len", int, "100000"),
    "stats.ensemble": ("ensemble", int, "10000"),
    "stats.eps": ("eps", float, "0.1"),
    "seed": ("seed", int, "0"),
    "output_dir": ("output_dir", str, "out"),
    "system.alpha": ("alpha", float, None),
}


def parse_dotted(text: str) -> dict:
    """Raw key -> string-value mapping from dotted-key text."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in out:
            raise ConfigError(key, "duplicate key")
        out[key] = value
    return out


def _parse(key: str, text: str, kind: type):
    if kind is str:
        return text
    try:
        value = kind(text)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(key, f"not {noun}: {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(key, f"must be finite, not {text!r}")
    return value


@dataclass
class ExperimentConfig:
    """Fully resolved experiment parameters (every ``auto`` substituted)."""

    family: str
    alpha: float | None
    lambda_s: float
    coupling: float
    c: float
    sigma: float
    horizon: int
    grid: int
    delta0: float
    R0: int
    n_max: int
    resolution: float
    epsilon: float
    observable: str
    stats_n_max: int
    orbit_len: int
    ensemble: int
    eps: float
    seed: int
    output_dir: str
    resolved_rules: dict = field(default_factory=dict)
    #: the soft rules this config breaks (never fatal), for the manifest
    warnings: list = field(default_factory=list, init=False)

    def system(self) -> ModelSystem:
        if self.family == "uniform":
            return uniform_solenoid(lambda_s=self.lambda_s, coupling=self.coupling)
        return intermittent_solenoid(alpha=self.alpha, lambda_s=self.lambda_s,
                                     coupling=self.coupling)

    def construction_params(self) -> ConstructionParams:
        return ConstructionParams(delta0=self.delta0, sigma=self.sigma, c=self.c,
                                  n_max=self.n_max, R0=self.R0,
                                  resolution=self.resolution, epsilon=self.epsilon)

    def echo(self) -> dict:
        """Dotted-key view of every resolved value, for the manifest."""
        values = {key: getattr(self, spec[0]) for key, spec in _KEYS.items()}
        return {key: value for key, value in values.items() if value is not None}


def _rules(cfg: ExperimentConfig):
    """Every rule a config must keep, as (key, holds, message) rows in check order.

    This table is the package's only parameter check: a ModelSystem or
    ConstructionParams built in code is not checked.  It is a generator, so
    a row is evaluated only once every row above it holds (the epsilon rows
    read the auto epsilon, which exists only for a sigma in (0, 1)).
    """
    rules = cfg.resolved_rules
    family, alpha, obs = cfg.family, cfg.alpha, cfg.observable
    yield ("system.family", family in ("uniform", "intermittent"),
           "must be 'uniform' or 'intermittent'")
    yield ("system.alpha", (alpha is None) == (family != "intermittent"),
           f"{'required' if alpha is None else 'only meaningful'} for the intermittent family")
    yield "system.lambda_s", 0.0 < cfg.lambda_s < 0.5, "must lie in (0, 1/2)"
    yield "pliss.c", cfg.c > 0.0, "must be > 0"
    yield ("pliss.c", "pliss.sigma" not in rules or 0.0 < cfg.sigma < 1.0,
           "out of range for pliss.sigma = auto: exp(-c/2) rounds to 1 or underflows to 0")
    yield "pliss.horizon", cfg.horizon >= 1, "must be >= 1"
    yield "pliss.grid", 1000 <= cfg.grid <= MAX_GRID, f"must lie in [1000, {MAX_GRID}]"
    yield "inducing.R0", cfg.R0 >= 1, "must be >= 1"
    yield "inducing.n_max", cfg.n_max > cfg.R0, "must exceed inducing.R0"
    yield "stats.observables", "," not in obs, f"takes one observable, not the list {obs!r}"
    yield ("stats.n_max", cfg.stats_n_max >= 100,
           "must be >= 100 (the CLT test runs 10 * stats.n_max >= 1000 steps)")
    yield ("stats.orbit_len", cfg.orbit_len >= 100 * cfg.stats_n_max,
           "must be >= 100 * stats.n_max")
    yield "stats.orbit_len", cfg.orbit_len <= MAX_ORBIT_LEN, f"must be <= {MAX_ORBIT_LEN}"
    yield "stats.ensemble", cfg.ensemble >= 1000, "must be >= 1000"
    yield "stats.ensemble", cfg.ensemble <= MAX_ENSEMBLE, f"must be <= {MAX_ENSEMBLE}"
    yield "stats.eps", cfg.eps > 0.0, "must be > 0"
    yield "seed", 0 <= cfg.seed < 2 ** 64, "must be an unsigned 64-bit integer"
    phi = observable(obs)
    yield ("stats.observables", phi is not None,
           f"unknown observable {obs!r} (use trigK or fiber_norm)")
    # cos(0) = 1 is a constant: its variance is zero and the CLT has nothing to test
    yield ("stats.observables", phi.kind != "trig" or phi.k >= 1,
           f"{obs!r} is constant; trigK needs K >= 1")
    yield "system.coupling", cfg.coupling >= 0.0, "must be >= 0"
    yield ("system.alpha", alpha is None or 0.0 < alpha < 1.0,
           "intermittency exponent must lie in (0, 1)")
    yield ("system.coupling", cfg.lambda_s + cfg.coupling / 2.0 <= 1.0,
           "lambda_s + coupling/2 must be <= 1 to keep the fiber invariant")
    yield "pliss.sigma", 0.0 < cfg.sigma < 1.0, "must lie in (0, 1)"
    yield "inducing.delta0", cfg.delta0 > 0.0, "must be > 0"
    yield ("inducing.delta0", 2.0 * math.sqrt(cfg.delta0) < DELTA1,
           "outer cylinder 2*sqrt(delta0) must fit inside delta1")
    # an auto epsilon is fixed by sigma (auto: by c): blame the key the file set
    eps_key = next(k for k in ("inducing.epsilon", "pliss.sigma", "pliss.c") if k not in rules)
    eps = "epsilon" if eps_key == "inducing.epsilon" else "epsilon = auto = epsilon_max/2"
    yield eps_key, cfg.epsilon > 0.0, f"{eps} must be > 0"
    yield (eps_key, cfg.epsilon < cfg.construction_params().epsilon_max(),
           f"{eps} exceeds the admissible bound epsilon_max")
    yield eps_key, cfg.epsilon <= cfg.delta0 / 2.0, f"{eps} must be << delta0 (<= delta0/2)"
    yield ("inducing.resolution", 0.0 < cfg.resolution < cfg.delta0,
           "must be positive and below inducing.delta0")
    yield ("inducing.resolution", 2.0 * cfg.delta0 / cfg.resolution <= MAX_GRID,
           f"gives more than {MAX_GRID} grid points")


def config_from_raw(raw: dict) -> ExperimentConfig:
    """Validate a raw key/value mapping into an ExperimentConfig."""
    for key in raw:
        if key not in _KEYS:
            raise ConfigError(key, "unknown key")
    v = {}
    for key, (name, kind, *default) in _KEYS.items():
        if key not in raw and not default:
            raise ConfigError(key, "required key missing")
        text = raw[key] if key in raw else default[0]
        auto = text is None or (text == "auto" and default == ["auto"])
        v[name] = None if auto else _parse(key, text, kind)

    rules = {}
    if v["sigma"] is None:
        v["sigma"] = math.exp(-v["c"] / 2.0)     # half the NUE rate c
        rules["pliss.sigma"] = f"auto -> exp(-c/2) = {v['sigma']!r}"
    if v["resolution"] is None:
        v["resolution"] = 2.0 ** -20
        rules["inducing.resolution"] = f"auto -> 2^-20 = {v['resolution']!r}"
    cfg = ExperimentConfig(**v, resolved_rules=rules)
    if cfg.epsilon is None and 0.0 < cfg.sigma < 1.0:   # else the pliss.sigma row fails
        cfg.epsilon = cfg.construction_params().epsilon
        rules["inducing.epsilon"] = (
            f"auto -> epsilon_max/2 = (C1/C0) delta0 (sigma^-1/2 - 1)/2"
            f" = {cfg.epsilon!r} (C1 = 1; C0 = 2 is a fixed bound, not calibrated)")
    for key, holds, message in _rules(cfg):
        if not holds:
            raise ConfigError(key, message)
    # soft rule: the worst-case window bound; recorded, never fatal
    if not 5.0 * cfg.delta0 * K0 ** N0 < DELTA1 / 4.0:
        cfg.warnings.append("inducing.delta0: 5*delta0*K0^N0 >= delta1/4"
                            " (worst-case window bound fails)")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("--config", f"cannot read {path}: {exc}") from None
    return config_from_raw(parse_dotted(text))
