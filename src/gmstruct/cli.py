"""Experiment runner: stages tails -> induce -> verify -> regularity -> limits -> report.

Each stage reads the resolved :class:`~gmstruct.config.ExperimentConfig`,
writes its artifacts into the output directory, and records its wall time
and the process's peak RSS so far in ``manifest.json``.  The manifest is
written even when a stage fails, with the failing stage named.  Standalone
``verify`` re-runs the (deterministic) construction rather than loading
``structure.json``, so a config + seed is always the single source of truth.

Exit codes: 0 success; 2 configuration error; 3 numerical failure under
``--strict``; 4 acceptance-threshold failure under ``report --check``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys as _sys
import time
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import (ConfigError, GmstructError, InsufficientData, MissingStage,
                     NonConvergent)
from .inducing import (
    measure_flow_constants,
    return_tail,
    run_construction,
    verify_structure,
    write_structure_json,
)
from .pliss import expansion_tail, geometric_grid
from .regularity import regularity_report
from .stats import (
    LD_MIN_ENSEMBLE,
    clt_test,
    correlation,
    fit_power_law,
    fmt17,
    large_deviations,
    observable,
    read_curve_csv,
    write_clt_json,
    write_curve_csv,
    write_fits_json,
)

TOOL_VERSION = "0.1.0"
STAGE_ORDER = ("tails", "induce", "verify", "regularity", "limits", "report")


# ---------------------------------------------------------------------------
# stages


def stage_tails(cfg: ExperimentConfig, out: Path, ctx: dict):
    sys_ = cfg.system()
    curve = expansion_tail(sys_, cfg.grid, cfg.c, cfg.horizon)
    write_curve_csv(out / "tail_E.csv", curve, "survival", "censored_mass")


def stage_induce(cfg: ExperimentConfig, out: Path, ctx: dict):
    sys_ = cfg.system()
    structure = run_construction(sys_, cfg.construction_params(), seed=cfg.seed)
    ctx["structure"] = structure
    write_structure_json(structure, out / "structure.json")
    write_curve_csv(out / "tail_R.csv", return_tail(structure), "survival")
    flow = measure_flow_constants(structure)
    flow["gcd_R"] = structure.gcd_R()
    flow["leftover_mass"] = structure.leftover_mass()
    with open(out / "flow.json", "w") as fh:
        json.dump(flow, fh, indent=1)
    if structure.nonconvergent:
        raise NonConvergent("induce: construction left more than half the arc "
                            "unpartitioned")


def stage_verify(cfg: ExperimentConfig, out: Path, ctx: dict):
    sys_ = cfg.system()
    # verify is the structure's last reader: popping it frees it for later stages
    structure = ctx.pop("structure", None)
    if structure is None:
        structure = run_construction(sys_, cfg.construction_params(), seed=cfg.seed)
    doc = verify_structure(structure, sys_, seed=cfg.seed)
    with open(out / "verify.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    bad = (doc["markov"]["covering_violations"] + doc["markov"]["overlap_violations"]
           + structure.violations)
    if bad:
        raise GmstructError(f"verify: {bad} structure violations detected")


def stage_regularity(cfg: ExperimentConfig, out: Path, ctx: dict):
    rep = regularity_report(cfg.system(), seed=cfg.seed)
    with open(out / "regularity.json", "w") as fh:
        json.dump(rep, fh, indent=1)


def stage_limits(cfg: ExperimentConfig, out: Path, ctx: dict):
    sys_ = cfg.system()
    phi = observable(cfg.observable)
    corr = correlation(sys_, phi, cfg.stats_n_max, cfg.orbit_len, seed=cfg.seed)
    write_curve_csv(out / "correlation.csv", corr, "value", "mc_error")
    n = 10 * cfg.stats_n_max
    write_clt_json(out / "clt.json", clt_test(sys_, phi, n, cfg.ensemble, seed=cfg.seed))
    n_grid = [int(k) for k in geometric_grid(n) if k >= 5]
    ld = large_deviations(sys_, phi, cfg.eps, n_grid, max(cfg.ensemble, LD_MIN_ENSEMBLE),
                          seed=cfg.seed)
    write_curve_csv(out / "ld.csv", ld, "value")


# ---------------------------------------------------------------------------
# report


#: fitted curves: (name, stage that writes <name>.csv, value column, report key)
_CURVES = (("tail_E", "tails", "survival", "tau_E"),
           ("tail_R", "induce", "survival", "tau_R"),
           ("correlation", "limits", "value", "correlation_exponent"),
           ("ld", "limits", "value", "ld_exponent"))


def build_report(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    """(report document, fits by curve name) from whatever stage artifacts exist.

    Absent stages are listed as 'pending' in the document.
    """
    doc = {"pending": [], "fits": {}, "checks": {}}
    present = {name: out / name for name in
               ("tail_E.csv", "tail_R.csv", "structure.json", "flow.json",
                "verify.json", "regularity.json", "correlation.csv",
                "clt.json", "ld.csv")}
    missing = [n for n, p in present.items() if not p.exists()]
    if len(missing) == len(present):
        raise MissingStage(f"no stage outputs in {out}: missing {missing}")

    fits = {}
    for name, stage, column, key in _CURVES:
        path = present[f"{name}.csv"]
        if not path.exists():
            doc["pending"].append(stage)
            continue
        try:
            fits[name] = fit_power_law(read_curve_csv(path, column))
        except InsufficientData:
            continue
        doc[key] = fits[name].exponent
        if name == "tail_R" and "tail_E" in fits:
            tau_e, tau_r = fits["tail_E"].exponent, fits["tail_R"].exponent
            doc["tau_comparison"] = (
                f"tau_R vs tau_E: {tau_r:.4f} vs {tau_e:.4f} "
                f"(transfer requires tau_R >= tau_E - 0.3)")
            doc["checks"]["tail_transfer"] = bool(tau_r >= tau_e - 0.3)

    if present["flow.json"].exists():
        flow = json.loads(present["flow.json"].read_text())
        doc["flow_constants"] = flow
        doc["checks"]["leftover_small"] = bool(flow["leftover_mass"] < 1e-3)
        doc["checks"]["a0_positive"] = flow["a0"] is not None and flow["a0"] > 0.0
        doc["checks"]["c1_positive"] = bool(flow["c1"] > 0.0)

    if present["verify.json"].exists():
        ver = json.loads(present["verify.json"].read_text())
        doc["verification"] = {
            "P1_markov_violations": ver["markov"]["covering_violations"]
            + ver["markov"]["overlap_violations"],
            "P3_C_fit": ver["backward_contraction"]["C_fit"],
            "P4_eta_fit": ver["distortion"]["eta_fit"],
            "P4_max_residual_factor": ver["distortion"]["max_residual_factor"],
            "construction_violations": ver["construction_violations"],
        }
        doc["checks"]["P1_zero_violations"] = bool(
            doc["verification"]["P1_markov_violations"] == 0
            and ver["construction_violations"] == 0)
        doc["checks"]["P3_finite_C"] = bool(np.isfinite(ver["backward_contraction"]["C_fit"]))
        doc["checks"]["P4_residual_factor_le_2"] = bool(
            ver["distortion"]["max_residual_factor"] <= 2.0)
    else:
        doc["pending"].append("verify")

    if present["regularity.json"].exists():
        reg = json.loads(present["regularity.json"].read_text())
        doc["regularity"] = {k: reg[k] for k in
                             ("beta_fit", "alpha_fit", "holder_r_squared",
                              "holonomy_J_example", "holonomy_max_rel_err")}
        doc["checks"]["P2_beta_near_lambda_s"] = bool(
            abs(reg["beta_fit"] - cfg.lambda_s) <= 0.02)
        doc["checks"]["P5_holonomy_abs_cont"] = bool(
            reg["holonomy_max_rel_err"] <= 1e-3)
    else:
        doc["pending"].append("regularity")

    if present["clt.json"].exists():
        clt = json.loads(present["clt.json"].read_text())
        doc["ks_distance"] = clt["ks_distance"]
        doc["sigma2"] = clt["sigma2"]
        bound = 0.08 if cfg.family == "intermittent" else 0.05
        doc["checks"]["clt_ks"] = bool(clt["ks_distance"] <= bound)
    if "tail_R" in fits and "correlation" in fits:
        doc["correlation_vs_tau"] = (
            f"correlation exponent {fits['correlation'].exponent:.4f} vs "
            f"tau_R - 1 = {fits['tail_R'].exponent - 1.0:.4f}")

    doc["pending"] = sorted(set(doc["pending"]))
    doc["fits"] = {name: {"exponent": f.exponent, "intercept": f.intercept,
                          "r_squared": f.r_squared, "window": list(f.window)}
                   for name, f in fits.items()}
    doc["all_checks_pass"] = all(doc["checks"].values()) if doc["checks"] else False
    return doc, fits


def _report_text(doc: dict) -> str:
    lines = ["gibbs-markov structure experiment report", "=" * 41]
    if "tau_comparison" in doc:
        lines.append(doc["tau_comparison"])
    for key in ("tau_E", "tau_R", "correlation_exponent", "ld_exponent",
                "ks_distance", "sigma2"):
        if key in doc:
            lines.append(f"{key:24s} {fmt17(doc[key])}")
    if "correlation_vs_tau" in doc:
        lines.append(doc["correlation_vs_tau"])
    if "verification" in doc:
        for k, v in doc["verification"].items():
            lines.append(f"{k:24s} {v}")
    if "regularity" in doc:
        for k, v in doc["regularity"].items():
            lines.append(f"{k:24s} {v}")
    lines.append("checks:")
    for name, ok in sorted(doc["checks"].items()):
        lines.append(f"  [{'pass' if ok else 'FAIL'}] {name}")
    if doc["pending"]:
        lines.append("pending stages: " + ", ".join(doc["pending"]))
    return "\n".join(lines) + "\n"


def stage_report(cfg: ExperimentConfig, out: Path, ctx: dict):
    doc, fits = build_report(cfg, out)
    with open(out / "report.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    (out / "report.txt").write_text(_report_text(doc))
    write_fits_json(out / "fits.json", fits)
    ctx["report"] = doc


STAGES = {"tails": stage_tails, "induce": stage_induce, "verify": stage_verify,
          "regularity": stage_regularity, "limits": stage_limits,
          "report": stage_report}


# ---------------------------------------------------------------------------
# driver


def _checksums(out: Path) -> dict:
    sums = {}
    for p in sorted(out.iterdir()):
        if p.is_file() and p.name != "manifest.json":
            sums[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return sums


def _stage_entry(status: str, start: float, **error) -> dict:
    # ru_maxrss is the process's high-water mark, in KiB on Linux
    return {"status": status, **error, "wall_time_s": time.monotonic() - start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _write_manifest(out: Path, cfg: ExperimentConfig, stages: dict, failed: str | None,
                    workers: int):
    doc = {
        "tool_version": TOOL_VERSION,
        "config": cfg.echo(),
        "auto_resolutions": cfg.resolved_rules,
        "config_warnings": cfg.warnings,
        "workers": workers,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "platform": platform.platform(), "cpu_count": os.cpu_count()},
        "stages": stages,
        "failed_stage": failed,
        "checksums": _checksums(out),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gmstruct",
        description="Gibbs-Markov inducing structures for solenoid models")
    parser.add_argument("subcommand",
                        choices=STAGE_ORDER + ("all",))
    parser.add_argument("--config", required=True, help="dotted-key config file")
    parser.add_argument("--out", default=None, help="output directory "
                        "(default: output_dir from the config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (unsigned 64-bit)")
    parser.add_argument("--workers", type=int, default=1,
                        help="recorded in the manifest; the stages run serially")
    parser.add_argument("--strict", action="store_true",
                        help="escalate numerical failures to exit code 3")
    parser.add_argument("--check", action="store_true",
                        help="with report: exit 4 unless all checks pass")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2 ** 64:
                raise ConfigError("--seed", "must be an unsigned 64-bit integer")
            cfg.seed = args.seed
        out = Path(args.out if args.out is not None else cfg.output_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("--out", f"cannot create {out}: {exc}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2

    to_run = STAGE_ORDER if args.subcommand == "all" else (args.subcommand,)
    ctx = {}
    stage_log = {}
    failed = None
    code = 0
    for name in to_run:
        start = time.monotonic()
        try:
            STAGES[name](cfg, out, ctx)
            stage_log[name] = _stage_entry("ok", start)
        except MissingStage as exc:
            stage_log[name] = _stage_entry("failed", start, error=str(exc))
            print(f"{name}: {exc}", file=_sys.stderr)
            failed = name
            code = 4 if args.check else 3
            break
        except GmstructError as exc:
            stage_log[name] = _stage_entry("numerical-failure", start, error=str(exc))
            print(f"{name}: numerical failure: {exc}", file=_sys.stderr)
            if args.strict:
                failed = name
                code = 3
                break
        except Exception as exc:
            stage_log[name] = _stage_entry("error", start, error=str(exc))
            _write_manifest(out, cfg, stage_log, name, args.workers)
            raise
    _write_manifest(out, cfg, stage_log, failed, args.workers)
    if code == 0 and args.check:
        rep = ctx.get("report")
        if rep is None or not rep["all_checks_pass"]:
            bad = [] if rep is None else [k for k, v in rep["checks"].items() if not v]
            print(f"acceptance checks failed: {bad}", file=_sys.stderr)
            return 4
    return code


if __name__ == "__main__":
    raise SystemExit(main())
