"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Takes about two minutes, most of it the two cold CLI chains.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run_bench.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace, kind):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC[kind]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float)), metric["name"]
    assert len(result["metrics"]) == len(SPEC[kind])


def test_without_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("closure_ensemble", 0, root=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_tracer_restores_every_wrapped_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import LAYERS, Tracer

    modules = [importlib.import_module("dfgnoise")] + [
        importlib.import_module(f"dfgnoise.{layer}") for layer in LAYERS]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    tracer.install()
    try:
        pipelines = importlib.import_module("dfgnoise.pipelines")
        # names bound with ``from ... import`` are wrapped where they are looked up
        assert "dfgnoise.pipelines.fit_efficiency_shared" in tracer.patched_names
        assert "dfgnoise.spectra.lsq_minimize" in tracer.patched_names
        assert getattr(pipelines.fit_efficiency_shared, "bench_traced", False)
    finally:
        tracer.uninstall()
    for old, module in zip(before, modules):
        now = vars(module)
        assert old.keys() == now.keys()
        changed = [name for name in old if now[name] is not old[name]]
        assert not changed, f"{module.__name__}: {changed}"
