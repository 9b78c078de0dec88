"""Self-test of the benchmark on a tiny generated config.

Run from the repository root (it is not part of the tier-1 suite)::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracer  # noqa: E402

TINY = dict(run.UNIFORM, **{
    "pliss.grid": "1000",
    "pliss.horizon": "200",
    "inducing.n_max": "80",
    "inducing.resolution": "0.00006103515625",   # 2^-14: 656 construction points
    "stats.orbit_len": "10000",
    "stats.ensemble": "1000",
})


def _run(seed, trace):
    return run.run(ROOT, "selftest", seed, 0.0, trace, time.perf_counter() + 170.0, TINY)


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced():
    return _run(0, True)


def _names(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_untraced_run_emits_every_end_to_end_metric(spec):
    result, details = _run(1, False)
    assert result["correct"], details["problems"]
    assert result["attempted"] == 6
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names(spec["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric_and_passes_cross_checks(spec, traced):
    result, details = traced
    # problems include the work cross-checks and the traced-vs-untraced checksums
    assert result["correct"], details["problems"]
    assert result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names(spec["per_layer"])
    want = run.expected_work(TINY)
    for key, value in want.items():
        assert result["metrics"][key]["value"] == value


def test_traced_artifacts_match_untraced(traced):
    work = ROOT / ".bench_work" / "selftest" / "seed0"
    sums = {}
    for name in ("run0", "traced"):
        out = work / name
        sums[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    assert sums["run0"] and sums["run0"] == sums["traced"]


def _bound_names():
    from gmstruct import cli, dynamics
    mods = {m: sys.modules[f"gmstruct.{m}"] for m in tracer.MODULES}
    snap = {(m, k): v for m, mod in mods.items() for k, v in vars(mod).items()}
    snap.update({("STAGES", k): v for k, v in cli.STAGES.items()})
    snap.update({("ModelSystem", k): v for k, v in vars(dynamics.ModelSystem).items()})
    return snap


def test_every_wrapper_is_removed_after_a_traced_run(tmp_path):
    from gmstruct import cli
    cfg = tmp_path / "run.cfg"
    run.write_config(cfg, "selftest", TINY, 0, str(tmp_path / "out"))
    before = _bound_names()
    with tracer.Tracer() as t:
        assert "pliss.disk_scan" in tracer.leftover_wrappers()
        assert cli.main(["all", "--config", str(cfg)]) == 0
    assert tracer.leftover_wrappers() == []
    after = _bound_names()
    assert [k for k in before if after.get(k) is not before[k]] == []
    assert t.calls["pliss.disk_scan"][0] == 1
    assert t.calls["inducing.step_partition"][0] == int(TINY["inducing.n_max"])


def test_run_without_sources_fails_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "uniform_all", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
