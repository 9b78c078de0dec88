"""Experiment configuration: flat dotted-key text files and validation.

Format: one ``key = value`` pair per line, ``#`` starts a comment, keys are
dotted (``system.alpha``).  Fields accepting ``auto`` are resolved at load
time by documented rules and the resolution is recorded so the manifest
can echo it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .dynamics import ModelSystem, intermittent_solenoid, uniform_solenoid
from .errors import ConfigError
from .inducing import ConstructionParams
from .pliss import default_sigma

_OBS_TOKEN = re.compile(r"^(trig(\d+)|fiber_norm)$")

#: every recognised key with (required, default-as-string)
_KEYS = {
    "system.family": (True, None),
    "system.alpha": (False, None),          # required iff family=intermittent
    "system.lambda_s": (False, "0.25"),
    "system.coupling": (False, "0.0"),
    "pliss.c": (True, None),
    "pliss.sigma": (False, "auto"),
    "pliss.horizon": (False, "10000"),
    "pliss.grid": (False, "16384"),
    "inducing.delta0": (True, None),
    "inducing.R0": (False, "20"),
    "inducing.n_max": (True, None),
    "inducing.resolution": (False, "auto"),
    "inducing.epsilon": (False, "auto"),
    "stats.observables": (False, "trig1"),
    "stats.n_max": (False, "100"),
    "stats.orbit_len": (False, "100000"),
    "stats.ensemble": (False, "10000"),
    "stats.eps": (False, "0.1"),
    "seed": (False, "0"),
    "output_dir": (False, "out"),
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


def _float(raw: dict, key: str) -> float:
    try:
        return float(raw[key])
    except ValueError:
        raise ConfigError(key, f"not a number: {raw[key]!r}") from None


def _int(raw: dict, key: str) -> int:
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(key, f"not an integer: {raw[key]!r}") from None


def _system(family, alpha, lambda_s, coupling) -> ModelSystem:
    if family == "uniform":
        return uniform_solenoid(lambda_s=lambda_s, coupling=coupling)
    return intermittent_solenoid(alpha=alpha, lambda_s=lambda_s, coupling=coupling)


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

    def system(self) -> ModelSystem:
        return _system(self.family, self.alpha, self.lambda_s, self.coupling)

    def construction_params(self) -> ConstructionParams:
        return ConstructionParams(delta0=self.delta0, sigma=self.sigma, c=self.c,
                                  n_max=self.n_max, R0=self.R0,
                                  resolution=self.resolution, epsilon=self.epsilon)

    def echo(self) -> dict:
        """Dotted-key view of every resolved value, for the manifest."""
        doc = {
            "system.family": self.family,
            "system.lambda_s": self.lambda_s,
            "system.coupling": self.coupling,
            "pliss.c": self.c,
            "pliss.sigma": self.sigma,
            "pliss.horizon": self.horizon,
            "pliss.grid": self.grid,
            "inducing.delta0": self.delta0,
            "inducing.R0": self.R0,
            "inducing.n_max": self.n_max,
            "inducing.resolution": self.resolution,
            "inducing.epsilon": self.epsilon,
            "stats.observables": self.observable,
            "stats.n_max": self.stats_n_max,
            "stats.orbit_len": self.orbit_len,
            "stats.ensemble": self.ensemble,
            "stats.eps": self.eps,
            "seed": self.seed,
            "output_dir": self.output_dir,
        }
        if self.alpha is not None:
            doc["system.alpha"] = self.alpha
        return doc


def config_from_raw(raw: dict) -> ExperimentConfig:
    """Validate a raw key/value mapping into an ExperimentConfig."""
    for key in raw:
        if key not in _KEYS:
            raise ConfigError(key, "unknown key")
    merged = {k: default for k, (_, default) in _KEYS.items() if default is not None}
    merged.update(raw)
    for key, (required, _) in _KEYS.items():
        if required and key not in merged:
            raise ConfigError(key, "required key missing")

    rules = {}

    family = merged["system.family"]
    if family not in ("uniform", "intermittent"):
        raise ConfigError("system.family", "must be 'uniform' or 'intermittent'")
    alpha = None
    if family == "intermittent":
        if "system.alpha" not in merged:
            raise ConfigError("system.alpha", "required for the intermittent family")
        alpha = _float(merged, "system.alpha")
    elif "system.alpha" in raw:
        raise ConfigError("system.alpha", "only meaningful for the intermittent family")

    lambda_s = _float(merged, "system.lambda_s")
    if not 0.0 < lambda_s < 0.5:
        raise ConfigError("system.lambda_s", "must lie in (0, 1/2)")
    coupling = _float(merged, "system.coupling")
    try:
        _system(family, alpha, lambda_s, coupling)
    except ValueError as exc:
        msg = str(exc)
        key = ("system.alpha" if "exponent" in msg else
               "system.coupling" if "coupling" in msg else "system.lambda_s")
        raise ConfigError(key, msg) from None

    c = _float(merged, "pliss.c")
    if c <= 0.0:
        raise ConfigError("pliss.c", "must be > 0")
    if merged["pliss.sigma"] == "auto":
        sigma = default_sigma(c)
        rules["pliss.sigma"] = f"auto -> exp(-c/2) = {sigma!r}"
    else:
        sigma = _float(merged, "pliss.sigma")
    if not 0.0 < sigma < 1.0:
        raise ConfigError("pliss.sigma", "must lie in (0, 1)")
    horizon = _int(merged, "pliss.horizon")
    if horizon < 1:
        raise ConfigError("pliss.horizon", "must be >= 1")
    grid = _int(merged, "pliss.grid")
    if grid < 1000:
        raise ConfigError("pliss.grid", "must be >= 1000")

    delta0 = _float(merged, "inducing.delta0")
    if delta0 <= 0.0:
        raise ConfigError("inducing.delta0", "must be > 0")
    R0 = _int(merged, "inducing.R0")
    if R0 < 1:
        raise ConfigError("inducing.R0", "must be >= 1")
    n_max = _int(merged, "inducing.n_max")
    if n_max <= R0:
        raise ConfigError("inducing.n_max", "must exceed inducing.R0")
    if merged["inducing.resolution"] == "auto":
        resolution = 2.0 ** -20
        rules["inducing.resolution"] = f"auto -> 2^-20 = {resolution!r}"
    else:
        resolution = _float(merged, "inducing.resolution")
    epsilon_raw = merged["inducing.epsilon"]
    epsilon = None if epsilon_raw == "auto" else _float(merged, "inducing.epsilon")
    try:
        params = ConstructionParams(delta0=delta0, sigma=sigma, c=c, n_max=n_max,
                                    R0=R0, resolution=resolution, epsilon=epsilon)
        params.validate()
    except ValueError as exc:
        msg = str(exc)
        key = "inducing.delta0"
        for frag, k in (("sigma", "pliss.sigma"), ("c must", "pliss.c"),
                        ("resolution", "inducing.resolution"),
                        ("epsilon", "inducing.epsilon")):
            if frag in msg:
                key = k
                break
        raise ConfigError(key, msg) from None
    if epsilon_raw == "auto":
        rules["inducing.epsilon"] = (
            f"auto -> epsilon_max/2 = (C1/C0) delta0 (sigma^-1/2 - 1)/2"
            f" = {params.epsilon!r} (C1 = 1; C0 = 2 is a fixed bound, not calibrated)")
    epsilon = params.epsilon

    observable = merged["stats.observables"]
    if "," in observable:
        raise ConfigError("stats.observables",
                          f"takes one observable, not the list {observable!r}")
    if not _OBS_TOKEN.match(observable):
        raise ConfigError("stats.observables",
                          f"unknown observable {observable!r} (use trigK or fiber_norm)")
    stats_n_max = _int(merged, "stats.n_max")
    if stats_n_max < 100:
        raise ConfigError("stats.n_max",
                          "must be >= 100 (the CLT test runs 10 * stats.n_max >= 1000 steps)")
    orbit_len = _int(merged, "stats.orbit_len")
    if orbit_len < 100 * stats_n_max:
        raise ConfigError("stats.orbit_len", "must be >= 100 * stats.n_max")
    ensemble = _int(merged, "stats.ensemble")
    if ensemble < 1000:
        raise ConfigError("stats.ensemble", "must be >= 1000")
    eps = _float(merged, "stats.eps")
    if eps <= 0.0:
        raise ConfigError("stats.eps", "must be > 0")

    seed = _int(merged, "seed")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed", "must be an unsigned 64-bit integer")

    return ExperimentConfig(
        family=family, alpha=alpha, lambda_s=lambda_s, coupling=coupling,
        c=c, sigma=sigma, horizon=horizon, grid=grid,
        delta0=delta0, R0=R0, n_max=n_max, resolution=resolution, epsilon=epsilon,
        observable=observable, stats_n_max=stats_n_max, orbit_len=orbit_len,
        ensemble=ensemble, eps=eps, seed=seed, output_dir=merged["output_dir"],
        resolved_rules=rules)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("--config", f"cannot read {path}: {exc}") from None
    return config_from_raw(parse_dotted(text))
