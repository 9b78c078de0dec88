"""End-to-end tests of the experiment runner."""

import gc
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gmstruct
from gmstruct import cli
from gmstruct.cli import STAGE_ORDER, build_report, main
from gmstruct.config import load_config
from gmstruct.dynamics import uniform_solenoid
from gmstruct.inducing import ConstructionParams, measure_flow_constants, run_construction

QUICK = """
system.family = uniform
system.lambda_s = 0.25
system.coupling = 0.0
pliss.c = 0.5
pliss.sigma = 0.51
pliss.horizon = 2000
pliss.grid = 1000
inducing.delta0 = 0.02
inducing.R0 = 20
inducing.n_max = 200
inducing.resolution = 6.103515625e-05   # 2^-14
stats.n_max = 100
stats.orbit_len = 10000
stats.ensemble = 1000
stats.eps = 0.1
seed = 0
"""


@pytest.fixture
def quick_cfg(tmp_path):
    path = tmp_path / "quick.cfg"
    path.write_text(QUICK)
    return str(path)


def _run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# config errors -> exit 2


def test_exit_2_on_bad_sigma(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(QUICK.replace("pliss.sigma = 0.51", "pliss.sigma = 1.2"))
    assert _run("tails", "--config", str(path), "--out", str(tmp_path / "o")) == 2
    assert "pliss.sigma" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ("system.lambda_s = 0.25\nsystem.coupling = 0.0",
     "system.lambda_s = 0.4\nsystem.coupling = 1.5", "system.coupling"),
    ("stats.n_max = 100", "stats.n_max = 50", "stats.n_max"),
    ("inducing.resolution = 6.103515625e-05", "inducing.resolution = nan",
     "inducing.resolution"),
    ("stats.n_max = 100", "stats.n_max = 100\nstats.observables = trig0", "stats.observables"),
], ids=["coupling", "stats-n_max", "resolution-nan", "trig-zero"])
def test_exit_2_before_a_stage_would_crash(tmp_path, capsys, old, new, key):
    path = tmp_path / "bad.cfg"
    assert old in QUICK
    path.write_text(QUICK.replace(old, new))
    out = tmp_path / "o"
    assert _run("all", "--config", str(path), "--out", str(out)) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_exit_2_on_observable_list(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(QUICK + "stats.observables = trig1,fiber_norm\n")
    out = tmp_path / "o"
    assert _run("limits", "--config", str(path), "--out", str(out)) == 2
    assert "stats.observables" in capsys.readouterr().err
    assert not out.exists()


def test_exit_2_on_missing_config(tmp_path):
    assert _run("tails", "--config", str(tmp_path / "nope.cfg"),
                "--out", str(tmp_path / "o")) == 2


def test_exit_2_on_undecodable_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(QUICK.encode() + b"stats.eps = 0.1\xff\n")
    out = tmp_path / "o"
    assert _run("tails", "--config", str(path), "--out", str(out)) == 2
    assert "--config" in capsys.readouterr().err
    assert not out.exists()


def test_exit_2_on_out_that_is_a_file(quick_cfg, tmp_path, capsys):
    out = tmp_path / "o"
    out.write_text("not a directory")
    assert _run("tails", "--config", quick_cfg, "--out", str(out)) == 2
    assert "--out" in capsys.readouterr().err
    assert out.read_text() == "not a directory"


def test_exit_2_on_bad_seed_flag(quick_cfg, tmp_path):
    assert _run("tails", "--config", quick_cfg, "--out", str(tmp_path / "o"),
                "--seed", "-3") == 2


# ---------------------------------------------------------------------------
# single stages


def test_tails_stage_artifacts(quick_cfg, tmp_path):
    out = tmp_path / "o"
    assert _run("tails", "--config", quick_cfg, "--out", str(out)) == 0
    assert (out / "tail_E.csv").exists()
    man = json.loads((out / "manifest.json").read_text())
    assert man["stages"]["tails"]["status"] == "ok"
    assert "tail_E.csv" in man["checksums"]
    assert man["config"]["pliss.sigma"] == 0.51
    # auto fields echoed with the rule that produced them
    assert "inducing.epsilon" in man["auto_resolutions"]
    assert man["config_warnings"] == []


def test_manifest_records_environment_outside_checksums(quick_cfg, tmp_path):
    # the environment block names the interpreter and machine; the manifest
    # is not checksummed, so two runs' artifacts still compare equal
    mans = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert _run("tails", "--config", quick_cfg, "--out", str(out)) == 0
        mans.append(json.loads((out / "manifest.json").read_text()))
    env = mans[0]["environment"]
    assert env == {"python": platform.python_version(), "numpy": np.__version__,
                   "platform": platform.platform(), "cpu_count": os.cpu_count()}
    assert "manifest.json" not in mans[0]["checksums"]
    assert mans[0]["checksums"] == mans[1]["checksums"]


def test_manifest_records_config_warnings(tmp_path):
    # a soft rule breaks from delta0 = 0.0225 (K0 = 1) on, but the run goes on
    path = tmp_path / "wide.cfg"
    path.write_text(QUICK.replace("inducing.delta0 = 0.02", "inducing.delta0 = 0.04"))
    out = tmp_path / "o"
    assert _run("tails", "--config", str(path), "--out", str(out)) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config_warnings"] == ["inducing.delta0: 5*delta0*K0^N0 >= delta1/4"
                                      " (worst-case window bound fails)"]


def test_report_partial_directory(quick_cfg, tmp_path):
    out = tmp_path / "o"
    assert _run("tails", "--config", quick_cfg, "--out", str(out)) == 0
    assert _run("report", "--config", quick_cfg, "--out", str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    assert "induce" in rep["pending"] and "limits" in rep["pending"]


def test_report_empty_directory(quick_cfg, tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    code = _run("report", "--config", quick_cfg, "--out", str(out))
    assert code == 3
    man = json.loads((out / "manifest.json").read_text())
    assert man["failed_stage"] == "report"
    assert man["stages"]["report"]["status"] == "failed"
    assert man["stages"]["report"]["peak_rss_mb"] > 0.0


def test_unexpected_stage_error_still_writes_manifest(quick_cfg, tmp_path, monkeypatch):
    def broken(cfg, out, ctx):
        raise RuntimeError("disk on fire")

    monkeypatch.setitem(cli.STAGES, "regularity", broken)
    out = tmp_path / "o"
    with pytest.raises(RuntimeError, match="disk on fire"):
        _run("regularity", "--config", quick_cfg, "--out", str(out))
    man = json.loads((out / "manifest.json").read_text())
    assert man["failed_stage"] == "regularity"
    assert man["stages"]["regularity"]["status"] == "error"
    assert man["stages"]["regularity"]["error"] == "disk on fire"
    assert man["stages"]["regularity"]["wall_time_s"] >= 0.0
    assert man["stages"]["regularity"]["peak_rss_mb"] > 0.0


# ---------------------------------------------------------------------------
# full pipeline


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("full")
    cfg = tmp / "quick.cfg"
    cfg.write_text(QUICK)
    out = tmp / "o"
    code = main(["all", "--config", str(cfg), "--out", str(out)])
    return code, out


def test_all_succeeds(full_run):
    code, out = full_run
    assert code == 0
    for name in ("tail_E.csv", "tail_R.csv", "structure.json", "flow.json",
                 "verify.json", "regularity.json", "correlation.csv",
                 "clt.json", "ld.csv", "fits.json", "report.json",
                 "report.txt", "manifest.json"):
        assert (out / name).exists(), name


def test_report_contents(full_run):
    _, out = full_run
    rep = json.loads((out / "report.json").read_text())
    assert rep["pending"] == []
    assert rep["verification"]["P1_markov_violations"] == 0
    assert rep["checks"]["P2_beta_near_lambda_s"]
    assert rep["ks_distance"] <= 0.08
    text = (out / "report.txt").read_text()
    assert "checks:" in text


def test_structure_json_agrees_with_flow_json(full_run):
    _, out = full_run
    doc = json.loads((out / "structure.json").read_text())
    flow = json.loads((out / "flow.json").read_text())
    assert list(doc) == ["schema", "leftover_mass", "gcd_R", "violations",
                         "nonconvergent", "p_base", "params"]
    assert doc["schema"] == 2
    assert (doc["leftover_mass"], doc["gcd_R"]) == (flow["leftover_mass"], flow["gcd_R"])


def test_manifest_wall_times(full_run):
    _, out = full_run
    man = json.loads((out / "manifest.json").read_text())
    assert man["failed_stage"] is None
    for stage in ("tails", "induce", "verify", "regularity", "limits", "report"):
        assert man["stages"][stage]["wall_time_s"] >= 0.0


def test_manifest_stage_peak_rss(full_run):
    # each stage records the process's high-water mark, so it never falls
    _, out = full_run
    man = json.loads((out / "manifest.json").read_text())
    rss = [man["stages"][stage]["peak_rss_mb"] for stage in STAGE_ORDER]
    assert rss[0] > 0.0
    assert rss == sorted(rss)


def test_reproducibility_checksums(full_run, quick_cfg, tmp_path):
    # a second ``all``, and the six stages run one command each into one
    # directory (standalone verify rebuilds the construction), give the
    # same artifacts as the first ``all``
    _, out1 = full_run
    out2 = tmp_path / "again"
    assert _run("all", "--config", quick_cfg, "--out", str(out2)) == 0
    out3 = tmp_path / "staged"
    for stage in STAGE_ORDER:
        assert _run(stage, "--config", quick_cfg, "--out", str(out3)) == 0
    man1 = json.loads((out1 / "manifest.json").read_text())
    for out in (out2, out3):
        man2 = json.loads((out / "manifest.json").read_text())
        assert man1["checksums"] == man2["checksums"]


def test_seed_override_changes_stats(full_run, quick_cfg, tmp_path):
    _, out1 = full_run
    out2 = tmp_path / "seeded"
    assert _run("limits", "--config", quick_cfg, "--out", str(out2),
                "--seed", "42") == 0
    man1 = json.loads((out1 / "manifest.json").read_text())
    man2 = json.loads((out2 / "manifest.json").read_text())
    assert man1["checksums"]["clt.json"] != man2["checksums"]["clt.json"]


def test_limits_does_not_import_scipy_stats(quick_cfg, tmp_path):
    # the CLT's KS distance comes from the package's own ndtr: importing
    # scipy.special would add about 0.3 s to every run, scipy.stats about 1 s
    script = ("import sys\nfrom gmstruct.cli import main\n"
              f"code = main(['all', '--config', {quick_cfg!r}, "
              f"'--out', {str(tmp_path / 'o')!r}])\n"
              "print(code, any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))\n")
    src = str(Path(gmstruct.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, check=True)
    assert res.stdout.split() == ["0", "False"]


def test_build_report_closes_its_files(full_run, quick_cfg):
    _, out = full_run
    cfg = load_config(quick_cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_report(cfg, out)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


# sha256 of every artifact of the QUICK ``all`` run, pinned before the kernel
# fast paths (``frac``, the uncoupled shortcuts) went in: kernel changes must
# keep the artifacts byte-identical.  Pinned under numpy 2.4.6 on x86-64;
# another numpy or libm may round sin/log/pow differently.
PINNED_CHECKSUMS = {
    "clt.json":
        "1497095af5b5769fbdccb14dd6427609265b1aaf620cff183240fe33b77ca0bc",
    "correlation.csv":
        "55e9b21b6adef4922829b84e6d82f517d4f22e1fead5eecd1aa0ea43e0dd6a8f",
    "fits.json":
        "e35294645c894d2e052b12b15ac675c3bdead68f44ce892c2c16e024fd8bcb5d",
    "flow.json":
        "6d049475073236710430f85d01c6a90ba912d7122516ebba063380f51e30c807",
    "ld.csv":
        "ad84156caa80bab9e76d46cb9b2cabdc6c24dc6d65456194346722a9b7dcb4b0",
    "regularity.json":
        "07435551510cf8769418af5e0b1cc16dcebdccf3f9a5f1165838c543c098842a",
    "report.json":
        "bdef6c142a12e416bfe6a37fa54aeaa92c899f914f9ca1b380d4e6f5daa5b1fa",
    "report.txt":
        "fc3fc4eaf3e9b7f1a2d0fd9a1960aa939c9d1b79ae5f48b526d2fcc539505b7d",
    "structure.json":
        "bcc56ad8ed81d0be0d827f583cc9af9bb48a1ce75a2a24ec5a00a12ed4ebe64e",
    "tail_E.csv":
        "079b4315b7ba5ba24a480051db38b7706e345fb050ae07d5576c90430f6d8487",
    "tail_R.csv":
        "30d80893cf91e94328f1a9354bc9591f4432ee58b65a25b87d84c97c252c4cae",
    "verify.json":
        "1e9cd1661aab252b5c65cf67ffb26c78ffac68ca4a1c6d20538e7e87ec582383",
}


def test_checksums_match_pinned(full_run):
    _, out = full_run
    man = json.loads((out / "manifest.json").read_text())
    assert man["checksums"] == PINNED_CHECKSUMS


def test_verify_markov_block_pinned(full_run):
    # exact (P1) block of the QUICK run: (P3)/(P4) read the same element
    # sample and edge solve, and must not move it
    _, out = full_run
    doc = json.loads((out / "verify.json").read_text())
    assert json.dumps(doc["markov"]) == json.dumps({
        "checked": 165, "skipped": 478, "covering_violations": 0,
        "overlap_violations": 0, "max_edge_err": 1.3462775911438074e-08,
        "duplicates": 0})


def test_report_fails_a0_when_no_step_measured_it(tmp_path, quick_cfg):
    # n_max below R0: no step has waiting mass, so flow.json carries a0 null
    params = ConstructionParams(delta0=0.02, sigma=0.51, c=0.5, n_max=10,
                                resolution=2.0 ** -10)
    st = run_construction(uniform_solenoid(lambda_s=0.25), params, p_base=0.37)
    flow = dict(measure_flow_constants(st), leftover_mass=st.leftover_mass())
    assert flow["a0"] is None
    (tmp_path / "flow.json").write_text(json.dumps(flow))
    doc, _ = build_report(load_config(quick_cfg), tmp_path)
    assert doc["checks"]["a0_positive"] is False
    assert doc["checks"]["c1_positive"] is False


def test_report_check_exit_4(full_run, quick_cfg):
    # the quick uniform run cannot reach leftover < 1e-3 (renewal-rate bound),
    # so the threshold gate must fail
    _, out = full_run
    code = _run("report", "--config", quick_cfg, "--out", str(out), "--check")
    rep = json.loads((out / "report.json").read_text())
    if rep["all_checks_pass"]:
        assert code == 0
    else:
        assert code == 4


# ---------------------------------------------------------------------------
# numerical failure handling


def test_strict_escalates_nonconvergent(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(QUICK.replace("inducing.n_max = 200", "inducing.n_max = 25"))
    out = tmp_path / "o"
    assert _run("induce", "--config", str(cfg), "--out", str(out), "--strict") == 3
    man = json.loads((out / "manifest.json").read_text())
    assert man["failed_stage"] == "induce"
    assert man["stages"]["induce"]["status"] == "numerical-failure"
    assert man["stages"]["induce"]["peak_rss_mb"] > 0.0
    # partial artifacts still written
    assert (out / "structure.json").exists()


def test_nonstrict_continues(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(QUICK.replace("inducing.n_max = 200", "inducing.n_max = 25"))
    out = tmp_path / "o"
    assert _run("induce", "--config", str(cfg), "--out", str(out)) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["failed_stage"] is None
