"""Benchmark of the gmstruct pipeline, end to end and per layer.

Run from the repository root::

    python3 bench/run.py --workload uniform_all --seed 0 --seconds 10 --trace 0

Each run is a closed loop with one client: one ``gmstruct all`` process at a
time (``PYTHONPATH=src``, ``--workers`` = number of CPUs), repeated until
``--seconds`` have passed, after a few fresh-interpreter set-up probes.  The
workload config is written by this script; ``--seed`` becomes its ``seed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` also runs the
pipeline once in-process under ``bench/tracer.py`` and reports the per-layer
metrics; the traced artifacts must match the untraced ones byte for byte and
the counted work must match the work the config implies.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
pipeline stage; a stage whose manifest status is not ``ok`` has failed, and
a process that exits abnormally or fails output validation fails all six.
Lines before it carry the provenance, the artifact checksums and per-run
details.  Outputs go to ``.bench_work/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
STAGES = ("tails", "induce", "verify", "regularity", "limits", "report")
STAGE_ARTIFACTS = {
    "tails": ("tail_E.csv",),
    "induce": ("structure.json", "tail_R.csv", "flow.json"),
    "verify": ("verify.json",),
    "regularity": ("regularity.json",),
    "limits": ("correlation.csv", "clt.json", "ld.csv", "fits.json"),
    "report": ("report.json", "report.txt"),
}
SETUP_PROBES = 3
RUN_DEADLINE_S = 170.0   # every run, set-up and children included, ends before this

UNIFORM = {
    "system.family": "uniform",
    "system.lambda_s": "0.25",
    "system.coupling": "0.0",
    "pliss.c": "0.5",
    "pliss.sigma": "0.51",
    "pliss.horizon": "10000",
    "pliss.grid": "16384",
    "inducing.delta0": "0.02",
    "inducing.R0": "20",
    "inducing.n_max": "200",
    "inducing.resolution": "auto",
    "inducing.epsilon": "auto",
    "stats.observables": "trig1",
    "stats.n_max": "100",
    "stats.orbit_len": "100000",
    "stats.ensemble": "10000",
    "stats.eps": "0.1",
}
INTERMITTENT = dict(UNIFORM, **{
    "system.family": "intermittent",
    "system.alpha": "0.5",
    "system.lambda_s": "0.1",
    "pliss.c": "0.1",
    "pliss.sigma": "auto",
    "inducing.n_max": "2000",
})
# The workloads load different layers: the Pliss scan and the uncoupled
# kernel (uniform), the construction and Newton verification
# (intermittent), and the coupled tangent path with the scan mostly
# bypassed (coupled).  The first two are the shipped configs.
WORKLOADS = {
    "uniform_all": UNIFORM,
    "intermittent_all": INTERMITTENT,
    "coupled_regularity": dict(UNIFORM, **{"system.coupling": "0.5",
                                           "pliss.horizon": "1000"}),
}

SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import gmstruct.cli
import scipy.stats
t1 = time.perf_counter()
from gmstruct.config import load_config
load_config(sys.argv[1])
t2 = time.perf_counter()
import platform, numpy, scipy
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                  "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""

# stats-layer defaults the ensemble work count depends on
STATS_WALKERS = 64
STATS_BURN = 1000
GREEN_KUBO_ORBIT = 10 ** 5
GREEN_KUBO_N_MAX = 200
GREEN_KUBO_CALLS = 2       # clt_test and large_deviations each call it
LD_MIN_ENSEMBLE = 10 ** 4


class RunError(Exception):
    """The run cannot produce a result (missing program, time exhausted)."""


# ---------------------------------------------------------------------------
# child processes


def run_child(argv, root: Path, log: Path, deadline: float):
    """Run one child to completion; returns (exit code, wall s, rusage)."""
    budget = deadline - time.perf_counter()
    if budget <= 0:
        raise RunError(f"no time left to start {argv[1:3]}")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(budget, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def setup_probes(root: Path, cfg: Path, work: Path, deadline: float):
    """Fresh interpreters importing the CLI and loading the config."""
    probes = []
    for i in range(SETUP_PROBES):
        log = work / f"setup{i}.log"
        code, wall, _ = run_child([sys.executable, "-c", SETUP_PROBE, str(cfg)],
                                  root, log, deadline)
        if code != 0:
            raise RunError(f"set-up probe exited {code}: {log.read_text()[-500:]}")
        probe = json.loads(log.read_text().strip().splitlines()[-1])
        probe["wall_s"] = wall
        probes.append(probe)
    return probes


def run_pipeline(prefix, root: Path, cfg: Path, out: Path, deadline: float) -> dict:
    """One ``all`` pipeline started by ``prefix``; validated, timed and measured."""
    argv = prefix + ["all", "--config", str(cfg), "--out", str(out),
                     "--workers", str(len(os.sched_getaffinity(0)))]
    code, wall, usage = run_child(argv, root, out.with_suffix(".log"), deadline)
    res = validate(out, code)
    res.update(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
               peak_rss_mb=usage.ru_maxrss / 1024.0, out=str(out.relative_to(root)))
    return res


# ---------------------------------------------------------------------------
# output validation


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def validate(out: Path, code: int) -> dict:
    """Check one pipeline's outputs; failed counts stages not ``ok``."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return {"problems": problems + [f"manifest: {exc}"], "stages_failed": len(STAGES),
                "checksums": {}, "stage_s": dict.fromkeys(STAGES, 0.0),
                "report_checks_failed": None}
    stages = manifest.get("stages") or {}
    sums = manifest.get("checksums") or {}
    missing = [s for s in STAGES if s not in stages]
    if missing:
        problems.append(f"manifest lacks stages {missing}")
    for stage, names in STAGE_ARTIFACTS.items():
        for name in names:
            path = out / name
            if not path.is_file():
                problems.append(f"{stage}: {name} missing")
            elif sums.get(name) != sha256(path):
                problems.append(f"{stage}: {name} does not match its manifest checksum")
    failed = sum(1 for s in STAGES if (stages.get(s) or {}).get("status") != "ok")
    try:
        checks = json.loads((out / "report.json").read_text())["checks"]
        report_failed = sum(1 for ok in checks.values() if not ok)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"report.json: {exc!r}")
        report_failed = None
    return {"problems": problems,
            "stages_failed": len(STAGES) if problems else failed,
            "status": {s: (stages.get(s) or {}).get("status") for s in STAGES},
            "stage_s": {s: (stages.get(s) or {}).get("wall_time_s", 0.0) for s in STAGES},
            "checksums": dict(sorted(sums.items())),
            "report_checks_failed": report_failed}


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_reference(work_root: Path, workload: str, seed: int, digest: str,
                    sums: dict) -> list:
    """Compare checksums with an earlier run of the same workload, seed and source."""
    ref = work_root / "checksums" / f"{workload}-seed{seed}-{digest[:16]}.json"
    if ref.exists():
        old = json.loads(ref.read_text())
        if old != sums:
            return [f"checksums differ from an earlier run of seed {seed}: "
                    f"{sorted(k for k in set(old) | set(sums) if old.get(k) != sums.get(k))}"]
        return []
    ref.parent.mkdir(parents=True, exist_ok=True)
    ref.write_text(json.dumps(sums, indent=1))
    return []


# ---------------------------------------------------------------------------
# work the config implies


def geometric_last(horizon: int, ratio: float = 1.25) -> int:
    last, x = 1, 1.0
    while math.ceil(x) <= horizon:
        last = math.ceil(x)
        x *= ratio
    return last


def expected_work(cfg: dict) -> dict:
    """Point-steps and call counts that the config fixes for the traced layers."""
    n_max = int(cfg["inducing.n_max"])
    res = 2.0 ** -20 if cfg["inducing.resolution"] == "auto" else float(cfg["inducing.resolution"])
    grid_size = int(math.ceil(2.0 * float(cfg["inducing.delta0"]) / res))
    sn = int(cfg["stats.n_max"])
    ens = int(cfg["stats.ensemble"])
    corr_steps = max(int(cfg["stats.orbit_len"]) // STATS_WALKERS, 2 * sn)
    gk_steps = max(GREEN_KUBO_ORBIT // STATS_WALKERS, 2 * GREEN_KUBO_N_MAX)
    ensemble = (STATS_WALKERS * (STATS_BURN + corr_steps)
                + GREEN_KUBO_CALLS * STATS_WALKERS * (STATS_BURN + gk_steps)
                + ens * (STATS_BURN + 10 * sn)
                + max(ens, LD_MIN_ENSEMBLE) * (STATS_BURN + geometric_last(10 * sn)))
    return {
        "pliss.disk_scan.point_steps": int(cfg["pliss.grid"]) * int(cfg["pliss.horizon"]),
        "inducing.step_partition.calls": n_max,
        "inducing.point_steps": grid_size * n_max,
        "stats.ensemble_point_steps": ensemble,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from a trace


def layer_metrics(trace: dict, traced: dict, untraced: list, probes: list,
                  out: Path) -> dict:
    """Per-layer metrics: spans and counters of the traced run, stage times
    and CPU time of the untraced runs, set-up split from the probes."""
    calls = trace["calls"]

    def total(name):
        return calls.get(name, {}).get("total_s", 0.0)

    def count(name):
        return calls.get(name, {}).get("calls", 0)

    def owned(prefix, kernel):
        return sum(r["points"] for r in trace["owner_points"]
                   if r["owner"].startswith(prefix) and r["kernel"] == kernel)

    counters = trace["counters"]
    m = {}
    for stage in STAGES:
        m[f"cli.{stage}_s"] = (statistics.median(r["stage_s"][stage] for r in untraced), "s")
    m["cli.cpu_s"] = (statistics.median(r["cpu_s"] for r in untraced), "s")
    m["cli.artifact_bytes"] = (sum(p.stat().st_size for p in out.iterdir()
                                   if p.name != "manifest.json"), "bytes")
    m["cli.report_checks_failed"] = (untraced[-1]["report_checks_failed"], "count")
    m["config.load_s"] = (statistics.median(p["load_s"] for p in probes), "s")
    m["cli.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")

    kernel_calls = kernel_points = 0
    for op in ("base_map", "base_deriv", "push_tangent", "step_arrays", "base_inverse"):
        rec = calls.get(f"dynamics.{op}", {"calls": 0, "points": 0, "self_s": 0.0})
        m[f"dynamics.{op}.calls"] = (rec["calls"], "count")
        m[f"dynamics.{op}.points"] = (rec["points"], "count")
        m[f"dynamics.{op}.self_s"] = (rec["self_s"], "s")
        kernel_calls += rec["calls"]
        kernel_points += rec["points"]
    cu = calls.get("dynamics.cu_direction", {"calls": 0, "self_s": 0.0})
    m["dynamics.cu_direction.calls"] = (cu["calls"], "count")
    m["dynamics.cu_direction.self_s"] = (cu["self_s"], "s")
    m["dynamics.points_per_call"] = (kernel_points / max(kernel_calls, 1), "count")

    scan_steps = owned("pliss.disk_scan", "dynamics.push_tangent")
    m["pliss.disk_scan.s"] = (total("pliss.disk_scan"), "s")
    m["pliss.disk_scan.point_steps"] = (scan_steps, "count")
    m["pliss.disk_scan.point_steps_per_s"] = (scan_steps / max(total("pliss.disk_scan"), 1e-9), "1/s")
    m["pliss.censored_frac"] = (counters.get("pliss.censored_points", 0)
                                / max(counters.get("pliss.scanned_points", 0), 1), "ratio")

    steps = owned("inducing.step_partition", "dynamics.push_tangent")
    active = counters.get("inducing.active_point_steps", 0)
    for name in ("run_construction", "choose_base_point"):
        m[f"inducing.{name}.s"] = (total(f"inducing.{name}"), "s")
    m["inducing.step_partition.calls"] = (count("inducing.step_partition"), "count")
    m["inducing.step_partition.self_s"] = (
        calls.get("inducing.step_partition", {}).get("self_s", 0.0), "s")
    m["inducing.point_steps"] = (steps, "count")
    m["inducing.active_point_steps"] = (active, "count")
    m["inducing.active_ratio"] = (active / max(steps, 1), "ratio")
    for name in ("measure_flow_constants", "write_structure_json", "verify_markov",
                 "verify_backward_contraction", "verify_distortion", "element_edges"):
        m[f"inducing.{name}.s"] = (total(f"inducing.{name}"), "s")
    m["inducing.structure_bytes"] = ((out / "structure.json").stat().st_size, "bytes")
    for key in ("newton.solves", "newton.unconverged", "verify.checked", "verify.duplicates"):
        m[f"inducing.{key}"] = (counters.get(f"inducing.{key}", 0), "count")

    for name in ("stable_contraction_check", "holder_exponent_cu", "holonomy_jacobian",
                 "absolute_continuity_test"):
        m[f"regularity.{name}.s"] = (total(f"regularity.{name}"), "s")
    m["regularity.ac.refinements"] = (count("regularity.holonomy_jacobian_grid"), "count")

    ens = owned("stats.", "dynamics.step_arrays")
    busy = sum(total(f"stats.{n}") for n in ("correlation", "clt_test", "large_deviations"))
    for name in ("correlation", "clt_test", "large_deviations", "fit_power_law"):
        m[f"stats.{name}.s"] = (total(f"stats.{name}"), "s")
    m["stats.green_kubo_sigma2.calls"] = (count("stats.green_kubo_sigma2"), "count")
    m["stats.green_kubo_sigma2.s"] = (total("stats.green_kubo_sigma2"), "s")
    m["stats.ensemble_point_steps"] = (ens, "count")
    m["stats.point_steps_per_s"] = (ens / max(busy, 1e-9), "1/s")

    m["trace.overhead_s"] = (traced["wall_s"] - statistics.median(r["wall_s"] for r in untraced),
                             "s")
    return m


# ---------------------------------------------------------------------------
# provenance


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def provenance(root: Path, seed: int, probe: dict, digest: str) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else []:
        level = _read(str(idx / "level")).strip()
        kind = _read(str(idx / "type")).strip()
        size = _read(str(idx / "size")).strip()
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[:1].lower()}"] = size
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=False)
        commit = res.stdout.strip() or commit
    return {"python": probe["python"], "numpy": probe["numpy"], "scipy": probe["scipy"],
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "caches": caches,
            "git_commit": commit, "source_sha256": digest, "seed": seed}


# ---------------------------------------------------------------------------
# one run


def write_config(path: Path, workload: str, keys: dict, seed: int, out: str):
    lines = [f"# benchmark workload {workload}"]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    lines += [f"seed = {seed}", f"output_dir = {out}"]
    path.write_text("\n".join(lines) + "\n")


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        deadline: float, keys: dict = None):
    """One benchmark run; returns the result object and its details.

    ``keys`` overrides the workload's config keys (used by the self-test).
    """
    keys = WORKLOADS[workload] if keys is None else keys
    if not (root / "src" / "gmstruct" / "cli.py").is_file():
        raise RunError(f"no gmstruct sources under {root / 'src'}")
    work_root = root / ".bench_work"
    shutil.rmtree(work_root / workload, ignore_errors=True)   # keep one run's outputs
    work = work_root / workload / f"seed{seed}"
    work.mkdir(parents=True)
    cfg = work / "run.cfg"
    write_config(cfg, workload, keys, seed, str(work / "out"))
    digest = source_digest(root)

    probes = setup_probes(root, cfg, work, deadline)
    untraced = []
    problems = []
    begin = time.perf_counter()
    while True:
        res = run_pipeline([sys.executable, "-m", "gmstruct.cli"], root, cfg,
                           work / f"run{len(untraced)}", deadline)
        problems += res["problems"]
        untraced.append(res)
        now = time.perf_counter()
        # leave room for one more pipeline, and for the traced one
        reserve = (3.0 if trace else 1.5) * max(r["wall_s"] for r in untraced)
        if now - begin >= seconds or now + reserve > deadline:
            break
    sums = untraced[0]["checksums"]
    problems += [f"run{i}: checksums differ from run0" for i, r in enumerate(untraced)
                 if r["checksums"] != sums]
    problems += check_reference(work_root, workload, seed, digest, sums)
    runs = list(untraced)

    if trace:
        out = work / "traced"
        trace_file = work / "trace.json"
        traced = run_pipeline([sys.executable, str(HERE / "tracer.py"), "--trace-out",
                               str(trace_file), "--"], root, cfg, out, deadline)
        runs.append(traced)
        problems += [f"traced: {p}" for p in traced["problems"]]
        if traced["checksums"] != sums:
            problems.append("traced artifacts differ from untraced artifacts")
        doc = json.loads(trace_file.read_text()) if trace_file.exists() else None
        if doc is None:
            raise RunError(f"traced run wrote no trace: {(work / 'traced.log').read_text()[-500:]}")
        if doc["leftover_wrappers"]:
            problems.append(f"wrappers left installed: {doc['leftover_wrappers']}")
        metrics = layer_metrics(doc, traced, untraced, probes, out)
        for key, want in expected_work(keys).items():
            if metrics[key][0] != want:
                problems.append(f"work cross-check {key}: counted {metrics[key][0]}, "
                                f"config implies {want}")
    else:
        metrics = {
            "all_wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in untraced), "MB"),
            "setup_s": (statistics.median(p["wall_s"] for p in probes), "s"),
        }

    prov = provenance(root, seed, probes[0], digest)
    if trace:
        prov["tracing_overhead"] = {
            "traced_wall_s": traced["wall_s"],
            "traced_in_process_wall_s": doc["wall_s"],
            "untraced_median_wall_s": statistics.median(r["wall_s"] for r in untraced),
            "overhead_s": metrics["trace.overhead_s"][0],
            "spans_total": doc["spans_total"], "spans_recorded": doc["spans_recorded"],
            "trace_file": str(trace_file.relative_to(root)),
        }
    result = {
        "correct": not problems,
        "attempted": len(STAGES) * len(runs),
        "failed": sum(r["stages_failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": workload, "seed": seed, "provenance": prov, "problems": problems,
        "checksums": sums,
        "runs": [{k: r.get(k) for k in ("out", "wall_s", "cpu_s", "peak_rss_mb", "status",
                                        "stage_s", "stages_failed", "report_checks_failed")}
                 for r in runs],
    }
    (work / "result.json").write_text(json.dumps({"details": details, "result": result},
                                                 indent=1))
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="config seed (shipped: 0)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="repeat the pipeline until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit integer")
    deadline = time.perf_counter() + RUN_DEADLINE_S
    try:
        result, details = run(Path.cwd(), args.workload, args.seed, args.seconds,
                              bool(args.trace), deadline)
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": details["provenance"]}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "checksums": details["checksums"]}))
    print(json.dumps({"runs": details["runs"], "problems": details["problems"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
