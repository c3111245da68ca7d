"""The benchmark's own tests: tiny runs of every workload, the output schema,
the tracer, and output checks that catch corrupted outputs."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import speed
import tracer
import worker
import workloads
from run import END_TO_END

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _tiny(name: str, tmp_path: Path):
    workload = workloads.build(name, 0, "tiny", str(tmp_path))
    _, codes = worker.run_pass(workload)
    return workload, codes


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_passes_its_checks(name, tmp_path):
    workload, codes = _tiny(name, tmp_path)
    report = worker.check_pass(workload, codes)
    assert report["errors"] == []
    assert report["failed_ops"] == report["failed_units"] == 0
    assert report["units"] == workload.units > 0


def test_seed_makes_the_inputs(tmp_path):
    def inputs(name, seed):
        return workloads.build(name, seed, "full", str(tmp_path / f"{name}{seed}")).inputs

    for name in ("resonance_search", "long_train"):
        assert inputs(name, 7) == inputs(name, 7) != inputs(name, 8)
    assert inputs("long_train", 0)["system"]["a_perp"] == workloads.LONG_TRAIN_A_PERP
    assert inputs("resonance_search", 0)["system"]["a_perp"] == workloads.RESONANCE_A_PERP
    assert [s["tau_pi_over_pi"] for s in inputs("resonance_search", 0)["searches"]] == [
        0.1, 0.2, 0.4] * 3
    for name in ("exact_sweep", "analytic_landscape"):
        assert inputs(name, 0) == inputs(name, 5)


def _corrupt_csv(path: str, column: str, pick, change) -> None:
    lines = Path(path).read_text().splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[start].rstrip("\n").split(",")
    k = columns.index(column)
    for i in range(start + 1, len(lines)):
        fields = lines[i].rstrip("\n").split(",")
        if pick(dict(zip(columns, fields))):
            fields[k] = repr(change(float(fields[k])))
            lines[i] = ",".join(fields) + "\n"
            break
    else:
        raise AssertionError("no row to corrupt")
    Path(path).write_text("".join(lines))


def _corrupt(name: str, path: str) -> None:
    if name == "resonance_search":
        doc = json.loads(Path(path).read_text())
        doc["tau_res"] += 0.02 * math.pi
        Path(path).write_text(json.dumps(doc))
    elif name == "exact_sweep":
        _corrupt_csv(path, "P_s", lambda r: r["engine"] == "exact", lambda v: v + 1e-3)
    elif name == "long_train":
        _corrupt_csv(path, "abs_P_s", lambda r: float(r["tau_pi"]) == 0, lambda v: 0.9)
    else:
        _corrupt_csv(path, "P_s", lambda r: True, lambda v: v + 1e-10)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_corrupted_output_fails_the_checks(name, tmp_path):
    workload, codes = _tiny(name, tmp_path)
    _corrupt(name, workload.calls[0].out)
    report = worker.check_pass(workload, codes)
    assert report["failed_units"] >= 1
    assert report["failed_ops"] >= 1
    assert report["errors"]


def test_failed_cli_call_counts_every_unit(tmp_path):
    workload = workloads.build("exact_sweep", 0, "tiny", str(tmp_path))
    report = worker.check_pass(workload, [3])
    assert report["failed_ops"] == 1
    assert report["failed_units"] == workload.units


def _traced(name, tmp_path):
    workload = workloads.build(name, 0, "tiny", str(tmp_path))
    t = tracer.Tracer()
    t.install()
    try:
        wall_s, codes = worker.run_pass(workload)
    finally:
        t.uninstall()
    assert codes == [0] * len(codes)
    return tracer.layer_metrics(t, wall_s, 0.0)


def test_tracer_sees_calls_through_by_name_imports(tmp_path):
    import hyperpol.cli
    import hyperpol.engine
    import hyperpol.sweep

    originals = (hyperpol.engine.propagate, hyperpol.sweep.evaluate_exact,
                 hyperpol.cli.evaluate_exact, hyperpol.engine.hermitian_expm)
    metrics = _traced("long_train", tmp_path)
    assert (hyperpol.engine.propagate, hyperpol.sweep.evaluate_exact,
            hyperpol.cli.evaluate_exact, hyperpol.engine.hermitian_expm) == originals
    assert metrics["engine.evaluate_exact.calls"] == 2
    assert metrics["engine.propagate.calls"] == 2
    assert metrics["linalg.hermitian_expm.calls"] == metrics["engine.segment_propagator.calls"]
    # per repetition: four DD blocks of 3 n_p + 2 segments and four waits; n_p=8, n_r=64
    assert metrics["engine.propagate.segments"] == 2 * (4 * (3 * 8 + 2) + 4) * 64
    assert 0 < metrics["engine.propagate.cache_hit_ratio"] < 1
    assert metrics["sweep.ResultTable.write.bytes"] > 0
    assert metrics["cli.main.calls"] == 1
    assert all(metrics[f"{m}.{a}.self_s"] >= 0 for m, a, _ in tracer.TARGETS)


def test_analytic_landscape_never_touches_the_engine(tmp_path):
    metrics = _traced("analytic_landscape", tmp_path)
    assert metrics["analytic.summarize.calls"] == 25
    assert metrics["sweep.apply_point.calls"] == 25
    assert all(v == 0 for k, v in metrics.items() if k.startswith("engine."))


def test_speed_sampler_takes_its_own_time_off_the_block():
    with speed.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3  # before, during and after the block
    assert 0.4 < sampler.work_s < 0.5
    assert sampler.speed() > 0
    assert sampler.calibrated_s() == sampler.work_s * sampler.speed()


def test_benchmark_json_matches_the_emitted_metrics():
    # resonance_search is run by hand only: see NOTES.md
    assert [w["name"] for w in SPEC["workloads"]] == [
        w for w in workloads.WORKLOADS if w != "resonance_search"]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracer.PER_LAYER)


def _run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "long_train", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_with_its_unit(trace):
    proc = _run_bench(BENCH_DIR.parent, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
