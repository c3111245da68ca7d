import contextlib
import errno
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperpol
from hyperpol import analytic, cli, sweep
from hyperpol.cli import main
from hyperpol.engine import cycle_kraus, mixed_state, simulate
from hyperpol.params import config_from_dict

BASE_CONFIG = {
    "system": {"omega": 1.0, "a_perp": 0.05},
    "sequence": {
        "n_p": 1,
        "tau": "2 pi/omega",
        "t_s": "3/2 pi/omega",
        "t_w": "3/2 pi/omega",
        "t_c": "0 pi/omega",
        "n_r": 1,
    },
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def test_cli_import_leaves_scipy_integrate_unloaded():
    # only the quadrature oracle needs scipy.integrate, and it costs more than the
    # rest of the import; sweeps run serially, so no process pool is imported either
    src = str(Path(hyperpol.__file__).resolve().parents[1])
    unwanted = ("scipy.integrate", "concurrent.futures")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, hyperpol.cli; print([m for m in {unwanted!r} if m in sys.modules])"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import hyperpol
from hyperpol.cli import main

calls = {calls!r}
codes = [main(argv) for argv in calls]
print(codes)
"""


def test_every_command_runs_with_scipy_blocked(tmp_path, config_path):
    # numpy is the only runtime dependency: scipy is for the test oracles
    sweep_spec = tmp_path / "sweep.json"
    sweep_spec.write_text(json.dumps({
        "target": "rate", "engine": "both", "base": BASE_CONFIG,
        "axes": [{"name": "t_s", "start": 0.0, "stop": "2 pi/omega", "count": 3}]}))
    robustness = tmp_path / "rob.json"
    robustness.write_text(json.dumps({
        "system": {"omega": 1.0, "a_perp": 0.05},
        "rows": [{"method": "I", "sign": 1, "n_p": 1, "n_r": 1}],
        "tau_pi_values": ["0 pi/omega", "0.2 pi/omega"]}))
    calls = [
        ["simulate", "--config", config_path, "--cycles", "5", "--out", str(tmp_path / "s.csv")],
        ["steady", "--config", config_path, "--out", str(tmp_path / "steady.json")],
        ["magic-table", "--max-np", "2", "--out", str(tmp_path / "table")],
        ["sweep", "--config", str(sweep_spec), "--out", str(tmp_path / "sweep.csv")],
        ["find-tau-res", "--config", config_path, "--tau-pi", "0.2 pi/omega",
         "--halfwidth", "0.02 pi/omega", "--grid-step", "0.01 pi/omega",
         "--out", str(tmp_path / "res.json")],
        ["robustness", "--config", str(robustness), "--out", str(tmp_path / "rob.csv")],
    ]
    src = str(Path(hyperpol.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY.format(calls=calls)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([0] * 6)


def test_simulate_writes_series(config_path, tmp_path):
    out = tmp_path / "series.csv"
    assert main(["simulate", "--config", config_path, "--cycles", "150",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "cycle,polarization"
    assert len(lines) == 152
    final = float(lines[-1].split(",")[1])
    assert final > 0.95


def test_series_csv_round_trip(config_path, tmp_path):
    out = tmp_path / "series.csv"
    assert main(["simulate", "--config", config_path, "--cycles", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    sys_p, seq_p = config_from_dict(BASE_CONFIG)
    assert lines[0] == "# " + json.dumps({"sequence": seq_p.to_dict(), "system": sys_p.to_dict()},
                                         sort_keys=True)
    assert lines[1] == "cycle,polarization"
    assert lines[2] == "1,0"  # the mixed start
    series = simulate(cycle_kraus(sys_p, seq_p), mixed_state(), 3)
    assert [float(line.split(",")[1]) for line in lines[2:]] == series.values.tolist()


def test_a_failed_series_write_leaves_no_file(config_path, tmp_path, capsys, monkeypatch):
    out = tmp_path / "series.csv"
    text, calls, existed = sweep._csv_text, itertools.count(), []

    def failing(rows):  # the column line goes through, the rows fail
        if next(calls):
            existed.append(out.exists())
            raise OSError(errno.ENOSPC, "No space left on device")
        return text(rows)

    monkeypatch.setattr(sweep, "_csv_text", failing)
    assert main(["simulate", "--config", config_path, "--cycles", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"
    assert existed == [True]  # the series was going to the file when the write failed
    assert not out.exists()


def test_steady_reports_both_engines(config_path, tmp_path, capsys):
    out = tmp_path / "steady.json"
    assert main(["steady", "--config", config_path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["exact"]["p_s"] == pytest.approx(1.0, abs=0.01)
    assert doc["analytic"]["p_s"] == pytest.approx(1.0)
    assert abs(doc["exact"]["lambda"] - doc["analytic"]["lambda"]) < 0.01
    # analytic-only mode skips the exact block but keeps the summary
    assert main(["steady", "--config", config_path, "--engine", "analytic"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert "exact" not in printed and "analytic" in printed


def test_steady_without_coupling_exits_zero_with_null_rate(tmp_path, capsys):
    # below threshold is a result, not an error: only find-tau-res exits 3
    path = tmp_path / "uncoupled.json"
    path.write_text(json.dumps({**BASE_CONFIG, "system": {"omega": 1.0, "a_perp": 0.0}}))
    assert main(["steady", "--config", str(path), "--engine", "exact"]) == 0
    assert json.loads(capsys.readouterr().out)["exact"]["gamma"] is None


def test_steady_exit_code_on_missing_config(tmp_path):
    assert main(["steady", "--config", str(tmp_path / "nope.json")]) == 2


def test_exit_code_on_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["steady", "--config", str(bad)]) == 2


def test_exit_code_on_invalid_sequence(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["sequence"]["tau"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["steady", "--config", str(path)]) == 2


@pytest.mark.parametrize("engine", ["both", "analytic"])
def test_steady_names_an_infinite_cycle_duration(tmp_path, capsys, engine):
    # every time is finite, but 4 n_p tau overflows
    path = tmp_path / "long.json"
    path.write_text(json.dumps({**BASE_CONFIG, "sequence": {"n_p": 1, "tau": 1e308}}))
    assert main(["steady", "--config", str(path), "--engine", engine]) == 2
    assert capsys.readouterr().err == (
        "error: invalid sequence: cycle duration n_r (2 t_s + t_w + 4 n_p tau + t_c "
        "+ 4 tau_pi) not finite: inf\n")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_exit_code_when_the_engine_overflows(tmp_path, capsys):
    # finite and valid, but omega * tau overflows the segment phases
    doc = {"system": {"omega": 1e300, "a_perp": 1e300}, "sequence": {"n_p": 1, "tau": 1e10}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--cycles", "2",
                 "--out", str(tmp_path / "series.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_steady_names_an_overflowing_segment_phase(tmp_path, capsys):
    # omega * tau is finite, omega * t_w is not
    doc = {"system": {"omega": 1e300, "a_perp": 0.05},
           "sequence": {"n_p": 1, "tau": 1.0, "t_w": 1e10}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["steady", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: segment phase H*t overflows "
        "(omega=1e+300, a_perp=0.05, a_z=0.0, t=10000000000.0)\n")


def test_steady_on_an_overflowing_product_prints_one_error_line(tmp_path, capsys):
    # n_p = 1e20 squares the cell's propagator into inf and NaN; the unitarity
    # check reports it, and no numpy RuntimeWarning reaches stderr
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["sequence"].update(n_p=1e20, pulse_model={"kind": "finite", "tau_pi": "0.2 pi/omega"})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["steady", "--config", str(path)]) == 2
    assert capsys.readouterr().err == ("error: cycle propagator is not unitary "
                                       "(defect nan, n_p=1e+20, n_r=1)\n")


README_CONFIG = {
    "system": {"omega": 1.0, "a_perp": 0.05, "a_z": 0.0},
    "sequence": {"n_p": 1, "tau": "2 pi/omega", "t_s": "3/2 pi/omega", "t_w": "3/2 pi/omega",
                 "t_c": "3/2 pi/omega", "n_r": 4,
                 "pulse_model": {"kind": "finite", "tau_pi": "0.2 pi/omega"}},
}
INVALID_CYCLE = ("error: invalid sequence: cycle duration n_r (2 t_s + t_w + 4 n_p tau + t_c "
                 "+ 4 tau_pi) not finite: inf\n")


def huge_count_config(tmp_path, count: str) -> str:
    doc = json.loads(json.dumps(README_CONFIG))
    doc["sequence"][count] = 1e308  # 4 n_p and 8 n_r do not convert to a float
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("count", ["n_r", "n_p"])
@pytest.mark.parametrize("argv", [["steady"], ["simulate", "--cycles", "2"],
                                  ["find-tau-res", "--tau-pi", "0.2 pi/omega"]],
                         ids=["steady", "simulate", "find-tau-res"])
def test_a_count_near_the_float_limit_exits_2(tmp_path, capsys, argv, count):
    out = tmp_path / "out.csv"
    assert main(argv + ["--config", huge_count_config(tmp_path, count), "--out", str(out)]) == 2
    assert capsys.readouterr().err == INVALID_CYCLE
    assert not out.exists()


@pytest.mark.parametrize("sequence", [{"n_p": 1, "tau": 1.0, "n_r": 3e307},
                                      {"n_p": 1e308, "tau": 1e-300}], ids=["n_r", "n_p"])
def test_a_runnable_cycle_near_the_float_limit_exits_0_or_2(tmp_path, capsys, sequence):
    # 8 n_r or 2 n_p overflows a float but the cycle does not: the check passes, the
    # analytic engine answers, and the exact engine's power is refused, not raised
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"system": README_CONFIG["system"], "sequence": sequence}))
    assert main(["steady", "--engine", "analytic", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["steady", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["steady"], ["simulate", "--cycles", "2"]],
                         ids=["steady", "simulate"])
def test_a_cycle_that_is_not_unitary_is_refused_with_one_message(tmp_path, capsys, argv):
    # 3e307 repetitions of a unitary cycle round its power away from unitarity; both
    # commands name the defect and the counts alike, a 308-digit n_r as its float
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"system": {"omega": 1.0, "a_perp": 0.05},
                                "sequence": {"n_p": 1, "tau": 1.0, "n_r": 3e307}}))
    out = tmp_path / "out.csv"
    assert main(argv + ["--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: cycle propagator is not unitary "
                                       "(defect 1.000e+00, n_p=1, n_r=3e+307)\n")
    assert not out.exists()


def test_a_singular_dirichlet_limit_past_the_float_range_exits_2(tmp_path, capsys):
    # omega T = 32 pi, so the Dirichlet factor takes its limit n_r cos(n_r k pi) / cos(k pi)
    # with k = 16; the cycle, 1e308, is finite, but n_r k pi is not
    path = tmp_path / "limit.json"
    path.write_text(json.dumps({"system": {"omega": 32 * math.pi, "a_perp": 0.05},
                                "sequence": {"n_p": 1, "tau": 0.0, "t_w": 1.0, "n_r": 1e308}}))
    assert main(["steady", "--engine", "analytic", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: math domain error\n"


@pytest.mark.parametrize("count", ["n_r", "n_p"])
def test_sweep_to_a_count_near_the_float_limit_writes_failed_rows(tmp_path, count):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"target": "rate", "engine": "both", "base": README_CONFIG,
                                "axes": [{"name": count, "start": 1, "stop": 1e308,
                                          "count": 2}]}))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(spec), "--out", str(out)]) == 0
    rows = [line.split(",", 3) for line in out.read_text().splitlines()[2:]]
    assert [row[:3] for row in rows] == [["1", "", "exact"], ["1", "", "analytic"],
                                         ["1e+308", "", "exact"], ["1e+308", "", "analytic"]]
    assert [row[3].endswith(",ok") for row in rows] == [True, True, False, False]
    for row in rows[2:]:
        assert row[3] == ("nan,nan,nan,failed: invalid sequence: cycle duration n_r "
                          "(2 t_s + t_w + 4 n_p tau + t_c + 4 tau_pi) not finite: inf")


@pytest.mark.parametrize("count", ["n_r", "n_p"])
def test_robustness_row_with_a_count_near_the_float_limit_is_invalid(tmp_path, count):
    row = {"method": "II", "sign": 1, "n_p": 1, "n_r": 4}
    config = {"system": README_CONFIG["system"], "rows": [row, {**row, count: 1e308}],
              "tau_pi_values": [0, "0.05 pi/omega"]}
    path = tmp_path / "rob.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "rob.csv"
    assert main(["robustness", "--config", str(path), "--out", str(out)]) == 0
    statuses = [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[2:]]
    assert statuses == ["ok", "ok", "invalid", "invalid"]


PI_PULSE_LONGER_THAN_TAU = {"pulse_model": {"kind": "finite", "tau_pi": "3 pi/omega"}}


@pytest.mark.parametrize("argv,section,change", [
    (["steady"], "sequence", PI_PULSE_LONGER_THAN_TAU),
    (["steady", "--engine", "analytic"], "sequence", PI_PULSE_LONGER_THAN_TAU),
    (["simulate", "--cycles", "2"], "sequence", PI_PULSE_LONGER_THAN_TAU),
    (["steady"], "sequence", {"pulse_model": {"kind": "gaussian", "tau_pi": "0.2 pi/omega"}}),
    (["steady"], "sequence", {"n_p": 1.5}),
    (["simulate", "--cycles", "2"], "sequence", {"n_r": 1.5}),
    (["steady"], "sequence", {"pulse_model": {"kind": "finite", "tau_pi": 0}}),
    (["steady"], "sequence", {"pulse_model": {"kind": "finite"}}),
    # a JSON boolean is not a number, not even 0 or 1
    (["steady"], "sequence", {"n_p": True}),
    (["steady"], "sequence", {"tau": True}),
    (["steady"], "system", {"omega": True}),
], ids=["steady-tau-pi", "analytic-tau-pi", "simulate-tau-pi", "unknown-kind",
        "fractional-n_p", "fractional-n_r", "finite-zero-tau-pi", "finite-without-tau-pi",
        "boolean-n_p", "boolean-tau", "boolean-omega"])
def test_exit_code_on_invalid_sequence_input(tmp_path, capsys, argv, section, change):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc[section].update(change)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "out.csv")] if argv[0] == "simulate" else []
    assert main(argv + ["--config", str(path)] + out) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


ROBUSTNESS_CONFIG = {
    "system": {"omega": 1.0, "a_perp": 0.05},
    "rows": [{"method": "I", "sign": 1, "n_p": 1}],  # no n_r
    "tau_pi_values": [0.0],
}
SWEEP_SPEC = {"base": BASE_CONFIG, "axes": [{"name": "t_s", "start": 0, "count": 3}]}  # no stop
VALID_ROW = {"method": "I", "sign": 1, "n_p": 1, "n_r": 1}


@pytest.mark.parametrize("command,doc,message", [
    ("steady", {"system": BASE_CONFIG["system"],
                "sequence": {**BASE_CONFIG["sequence"], "pulse_model": {"kind": "finite"}}},
     "bad configuration in {path}: missing key 'tau_pi'"),
    ("steady", [BASE_CONFIG], "bad configuration in {path}: expected a JSON object"),
    ("sweep", SWEEP_SPEC, "bad sweep spec: missing key 'stop'"),
    ("sweep", [SWEEP_SPEC], "bad sweep spec: expected a JSON object"),
    ("robustness", ROBUSTNESS_CONFIG, "bad robustness config: missing key 'n_r'"),
    ("robustness", [ROBUSTNESS_CONFIG], "bad robustness config: expected a JSON object"),
    # a nested value that must be a JSON object but is not: the message names its key
    ("steady", {**BASE_CONFIG, "system": 5},
     "bad configuration in {path}: system must be a JSON object, got 5"),
    ("steady", {**BASE_CONFIG, "sequence": [1]},
     "bad configuration in {path}: sequence must be a JSON object, got [1]"),
    ("steady", {**BASE_CONFIG, "sequence": {**BASE_CONFIG["sequence"], "pulse_model": "finite"}},
     "bad configuration in {path}: pulse_model must be a JSON object, got 'finite'"),
    ("sweep", {**SWEEP_SPEC, "base": 5}, "bad sweep spec: base must be a JSON object, got 5"),
    ("sweep", {**SWEEP_SPEC, "axes": ["t_s"]},
     "bad sweep spec: axes[0] must be a JSON object, got 't_s'"),
    ("robustness", {**ROBUSTNESS_CONFIG, "system": None},
     "bad robustness config: system must be a JSON object, got None"),
    ("robustness", {**ROBUSTNESS_CONFIG, "rows": [["I", 1, 1, 8]]},
     "bad robustness config: rows[0] must be a JSON object, got ['I', 1, 1, 8]"),
    # a value that must be a JSON array but is not: the message names its key
    ("sweep", {**SWEEP_SPEC, "axes": 5}, "bad sweep spec: axes must be a JSON array, got 5"),
    ("sweep", {**SWEEP_SPEC, "axes": "t_s"},
     "bad sweep spec: axes must be a JSON array, got 't_s'"),
    ("robustness", {**ROBUSTNESS_CONFIG, "rows": 5},
     "bad robustness config: rows must be a JSON array, got 5"),
    ("robustness", {**ROBUSTNESS_CONFIG, "rows": "I"},
     "bad robustness config: rows must be a JSON array, got 'I'"),
    ("robustness", {**ROBUSTNESS_CONFIG, "rows": [VALID_ROW], "tau_pi_values": 0.5},
     "bad robustness config: tau_pi_values must be a JSON array, got 0.5"),
    ("robustness", {**ROBUSTNESS_CONFIG, "rows": [VALID_ROW], "tau_pi_values": "0.2 pi/omega"},
     "bad robustness config: tau_pi_values must be a JSON array, got '0.2 pi/omega'"),
], ids=["steady-missing-key", "steady-array", "sweep-missing-key", "sweep-array",
        "robustness-missing-key", "robustness-array", "system-not-object", "sequence-not-object",
        "pulse-model-not-object", "base-not-object", "axis-not-object",
        "robustness-system-not-object", "row-not-object", "axes-number", "axes-string",
        "rows-number", "rows-string", "tau-pi-values-number", "tau-pi-values-string"])
def test_malformed_document_exit_code_names_the_problem(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = [] if command == "steady" else ["--out", str(tmp_path / "out.csv")]
    assert main([command, "--config", str(path)] + out) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("engine", ["exact", "analytic"])
@pytest.mark.parametrize("section,key,value", [("sequence", "tau", math.inf),
                                               ("system", "a_perp", math.nan)])
def test_exit_code_on_non_finite_input(tmp_path, capsys, engine, section, key, value):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc[section][key] = value  # written as the JSON extensions Infinity / NaN
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["steady", "--config", str(path), "--engine", engine]) == 2
    assert key in capsys.readouterr().err


def test_simulate_rejects_zero_cycles(config_path, tmp_path, capsys):
    assert main(["simulate", "--config", config_path, "--cycles", "0",
                 "--out", str(tmp_path / "series.csv")]) == 2
    assert "--cycles" in capsys.readouterr().err


# 2^45 doubles are 256 TiB, above a 47-bit user address space: the allocation fails at
# once whatever the overcommit setting, and nothing near this size is ever requested
UNALLOCATABLE = 2 ** 45


def test_simulate_too_many_cycles_exits_2(config_path, tmp_path, capsys):
    out = tmp_path / "series.csv"
    assert main(["simulate", "--config", config_path, "--cycles", str(UNALLOCATABLE),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_sweep_too_many_points_exits_2(tmp_path, capsys):
    spec = {"axes": [{"name": "t_s", "start": 0, "stop": 1, "count": UNALLOCATABLE}],
            "base": BASE_CONFIG}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def landscape_spec(tmp_path, t_s_count: int, t_w_count: int = 51) -> str:
    """The path of an analytic (t_s, t_w) rate grid of t_s_count x t_w_count points."""
    counts = {"t_s": t_s_count, "t_w": t_w_count}
    spec = {"target": "rate", "engine": "analytic", "base": BASE_CONFIG,
            "axes": [{"name": name, "start": 0, "stop": "2 pi/omega", "count": count}
                     for name, count in counts.items()]}
    path = tmp_path / f"landscape{t_s_count}x{t_w_count}.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_sweep_memory_stays_flat_as_the_grid_grows(tmp_path):
    # rows go to the file as they are produced: a 201 x 51 sweep peaks where a 51 x 51 one does
    out = str(tmp_path / "o.csv")
    specs = {count: landscape_spec(tmp_path, count) for count in (51, 201)}
    assert main(["sweep", "--config", specs[51], "--out", out]) == 0  # fills free lists once

    def traced_peak(count: int) -> int:
        tracemalloc.start()
        try:
            assert main(["sweep", "--config", specs[count], "--out", out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(51), traced_peak(201)
    assert abs(large - small) <= 100_000 and large < 500_000


def fail_summarize_at(monkeypatch, point: int, out: str) -> list[bool]:
    """Make the point-th analytic.summarize call raise MemoryError; the list
    returned then holds whether out existed at that moment."""
    summarize, calls, existed = analytic.summarize, itertools.count(1), []

    def failing(*args):
        if next(calls) == point:
            existed.append(os.path.exists(out))
            raise MemoryError("cannot allocate the point's closed forms")
        return summarize(*args)

    monkeypatch.setattr(analytic, "summarize", failing)
    return existed


def test_sweep_failing_after_the_first_row_leaves_no_file(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "o.csv")
    existed = fail_summarize_at(monkeypatch, 100, out)
    assert main(["sweep", "--config", landscape_spec(tmp_path, 51), "--out", out]) == 2
    assert capsys.readouterr().err == "error: cannot allocate the point's closed forms\n"
    assert existed == [True]  # the rows were going to the file when the point failed
    assert not os.path.exists(out)


def test_sweep_failing_into_devnull_leaves_the_device(tmp_path, capsys, monkeypatch):
    existed = fail_summarize_at(monkeypatch, 100, os.devnull)
    assert main(["sweep", "--config", landscape_spec(tmp_path, 51), "--out", os.devnull]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert existed == [True] and stat.S_ISCHR(os.stat(os.devnull).st_mode)


def writing_command(tmp_path, command: str) -> list[str]:
    """A small run of each command that writes --out, without the --out."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BASE_CONFIG))
    robustness = tmp_path / "robustness.json"
    robustness.write_text(json.dumps({"system": {"omega": 1.0, "a_perp": 0.05},
                                      "rows": [{"method": "I", "sign": 1, "n_p": 1, "n_r": 1}],
                                      "tau_pi_values": [0]}))
    return {
        "steady": ["steady", "--config", str(config)],
        "simulate": ["simulate", "--config", str(config), "--cycles", "3"],
        "magic-table": ["magic-table", "--max-np", "1"],
        "sweep": ["sweep", "--config", landscape_spec(tmp_path, 2, 2)],
        "find-tau-res": ["find-tau-res", "--config", str(config), "--tau-pi", "0",
                         "--halfwidth", "0.01 pi/omega", "--grid-step", "0.01 pi/omega"],
        "robustness": ["robustness", "--config", str(robustness)],
    }[command]


@pytest.mark.parametrize("where", ["in a missing directory", "a directory"])
@pytest.mark.parametrize("command", ["steady", "simulate", "magic-table", "sweep", "find-tau-res",
                                     "robustness"])
def test_an_unwritable_out_exits_2_with_one_error_line(tmp_path, capsys, command, where):
    argv = writing_command(tmp_path, command)
    # the file the command writes first; magic-table's --out is a basename
    target = tmp_path / ("missing" if where == "in a missing directory" else "") / "out.json"
    if where == "a directory":
        target.mkdir()
    out = str(target.with_suffix("")) if command == "magic-table" else str(target)
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    assert main(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    reason = os.strerror(errno.ENOENT if where == "in a missing directory" else errno.EISDIR)
    assert err.splitlines() == [f"error: cannot write {target}: {reason}"]
    assert "Traceback" not in err
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before


def test_magic_table_outputs(tmp_path):
    base = tmp_path / "table"
    assert main(["magic-table", "--max-np", "4", "--out", str(base)]) == 0
    doc = json.loads((tmp_path / "table.json").read_text())
    assert len(doc["rows"]) == 2 * 2 * 4
    assert doc["rows"][0]["tau"] == "2 pi/omega"
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0].startswith("method,sign,n_p,tau")
    assert len(lines) == 1 + 16


@pytest.mark.parametrize("max_np", ["0", "-1", "-8"])
def test_magic_table_rejects_max_np_below_one(tmp_path, capsys, max_np):
    base = tmp_path / "table"
    assert main(["magic-table", "--max-np", max_np, "--out", str(base)]) == 2
    assert capsys.readouterr().err.startswith("error: --max-np")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", ["0", "1", "2", "4"])
def test_sweep_cli_deterministic(tmp_path, config_path, jobs):
    # --jobs is accepted and ignored: every value writes the bytes of the run without it
    spec = {
        "target": "stable_polarization",
        "engine": "both",
        "axes": [{"name": "t_s", "start": 0.0, "stop": "2 pi/omega", "count": 4}],
        "base": BASE_CONFIG,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(spec_path), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(spec_path), "--out", str(out2),
                 "--jobs", jobs]) == 0
    assert out1.read_text() == out2.read_text()


def exit_codes(calls: list) -> list:
    """main's exit code for each argv in turn, or the code of the SystemExit argparse raises."""
    codes = []
    for argv in calls:
        try:
            codes.append(main(argv))
        except SystemExit as stop:
            codes.append(stop.code)
    return codes


def test_one_parser_serves_every_call_of_a_process(tmp_path, config_path, monkeypatch, capsys):
    # main builds its parser on the first call and keeps it; a call that argparse
    # rejects leaves it as it was for the next
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "target": "rate", "engine": "both", "base": BASE_CONFIG,
        "axes": [{"name": "t_s", "start": 0.0, "stop": "2 pi/omega", "count": 3}]}))

    def calls(where: Path) -> list:
        where.mkdir()
        return [["sweep", "--config", str(spec), "--out", str(where / "sweep.csv")],
                ["steady", "--config", config_path, "--engine", "quantum"],
                ["steady", "--config", config_path, "--out", str(where / "steady.json")]]

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    shared = exit_codes(calls(tmp_path / "shared"))
    assert len(builds) == 1
    fresh = []
    for argv in calls(tmp_path / "fresh"):
        cli._parser.cache_clear()
        fresh += exit_codes([argv])
    assert shared == fresh == [0, 2, 0]
    for name in ("sweep.csv", "steady.json"):
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert "invalid choice: 'quantum'" in capsys.readouterr().err


def test_sweep_cli_rejects_bad_axis(tmp_path):
    spec = {
        "target": "stable_polarization",
        "axes": [{"name": "bogus", "start": 0, "stop": 1, "count": 3}],
        "base": BASE_CONFIG,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", "--config", str(spec_path), "--out",
                 str(tmp_path / "o.csv")]) == 2


def test_sweep_cli_refuses_an_axis_named_twice(tmp_path, capsys):
    axis = {"name": "t_s", "start": 0, "stop": "2 pi/omega", "count": 2}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"axes": [axis, axis], "base": BASE_CONFIG}))
    assert main(["sweep", "--config", str(spec_path), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == "error: bad sweep spec: axis t_s appears twice\n"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("start,stop,message", [
    # stop - start overflows: linspace wrote nan, -inf, -1e+308
    (1e308, -1e308, "axis tau spans more than a float holds: stop - start = -inf"),
    (math.nan, 1, "axis tau needs a finite start and stop, got nan and 1.0"),
    (1, math.inf, "axis tau needs a finite start and stop, got 1.0 and inf"),
])
def test_sweep_cli_refuses_an_axis_without_a_finite_span(tmp_path, capsys, start, stop, message):
    axis = {"name": "tau", "start": start, "stop": stop, "count": 3}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"engine": "analytic", "axes": [axis], "base": BASE_CONFIG}))
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: bad sweep spec: {message}\n"
    assert not out.exists()


ALPHA_OVERFLOW = ("transfer strength alpha overflows "
                  "(a_perp=1e+308, dirichlet=1.0, f_value=4.0)")


@pytest.mark.parametrize("engine,message", [
    # the hyperfine phases a_perp t are finite but hold no digits modulo 2 pi
    ("exact", "segment phase H*t holds no digits modulo 2 pi "
              "(omega=1.0, a_perp=1e+308, a_z=0.0, t=3.141592653589793)"),
    ("analytic", ALPHA_OVERFLOW)], ids=["exact", "analytic"])
def test_steady_names_an_overflowing_alpha(tmp_path, capsys, engine, message):
    # 2 a_perp is already inf: the analytic summary that rides along names alpha,
    # where lambda_analytic would have read cos(inf) as "math domain error"; the
    # exact engine, which runs first, refuses the segment phases before it
    path = tmp_path / "strong.json"
    path.write_text(json.dumps({**BASE_CONFIG, "system": {"omega": 1.0, "a_perp": 1e308}}))
    assert main(["steady", "--config", str(path), "--engine", engine]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sweep_row_names_an_overflowing_alpha(tmp_path):
    axis = {"name": "a_perp", "start": 0.05, "stop": 1e308, "count": 2}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"engine": "analytic", "axes": [axis], "base": BASE_CONFIG}))
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[2].endswith(",ok")
    assert lines[3] == f'1e+308,,analytic,nan,nan,nan,"failed: {ALPHA_OVERFLOW}"'


@pytest.mark.parametrize("count", [2.7, "3.5", float("nan")])
def test_sweep_cli_rejects_fractional_count(tmp_path, capsys, count):
    spec = {
        "target": "stable_polarization",
        "axes": [{"name": "t_s", "start": 0, "stop": 1, "count": count}],
        "base": BASE_CONFIG,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: bad sweep spec: axis t_s count must be an integer")
    assert not out.exists()


def test_sweep_cli_accepts_integral_float_count(tmp_path):
    spec = {
        "target": "stable_polarization",
        "engine": "analytic",
        "axes": [{"name": "t_s", "start": 0, "stop": 1, "count": 3.0}],
        "base": BASE_CONFIG,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert json.loads(lines[0][2:])["axes"][0]["count"] == 3
    assert len(lines) == 2 + 3


def test_find_tau_res_cli(tmp_path):
    config = {
        "system": {"omega": 1.0, "a_perp": 0.01},
        "sequence": {"n_p": 1, "tau": "3/2 pi/omega", "n_r": 8},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "res.json"
    assert main(["find-tau-res", "--config", str(path), "--tau-pi", "0.2 pi/omega",
                 "--halfwidth", "0.05 pi/omega", "--grid-step", "0.01 pi/omega",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["tau_res"] == pytest.approx(1.3 * math.pi, abs=0.01 * math.pi)
    assert doc["tau_shifted"] == pytest.approx(1.3 * math.pi)


def test_find_tau_res_cli_rejects_bad_grid_step(tmp_path, capsys):
    config = {
        "system": {"omega": 1.0, "a_perp": 0.01},
        "sequence": {"n_p": 1, "tau": "3/2 pi/omega", "n_r": 8},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["find-tau-res", "--config", str(path), "--tau-pi", "0.2 pi/omega",
                 "--grid-step", "0"]) == 2
    assert "grid_step" in capsys.readouterr().err
    # a step count that overflows to inf is refused, not a traceback
    assert main(["find-tau-res", "--config", str(path), "--tau-pi", "0.2 pi/omega",
                 "--halfwidth", "1e300", "--grid-step", "1e-300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "grid_step" in err


def test_find_tau_res_cli_refuses_a_grid_past_the_limit_at_once(tmp_path, capsys):
    # a 1e-7 pi/omega step over the default 0.1 pi/omega halfwidth is 2 000 001 points
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CONFIG))
    out = tmp_path / "res.json"
    start = time.perf_counter()
    assert main(["find-tau-res", "--config", str(path), "--tau-pi", "0.2 pi/omega",
                 "--grid-step", "1e-7 pi/omega", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2000001 points" in err
    assert not out.exists()


def test_find_tau_res_cli_rejects_negative_tau_pi(tmp_path, capsys):
    config = {
        "system": {"omega": 1.0, "a_perp": 0.01},
        "sequence": {"n_p": 1, "tau": "3/2 pi/omega", "n_r": 8},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "res.json"
    assert main(["find-tau-res", "--config", str(path), "--tau-pi", "-0.2 pi/omega",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tau_pi" in err
    assert not out.exists()


def test_find_tau_res_cli_flat_landscape_exit_code(tmp_path):
    config = {
        "system": {"omega": 1.0, "a_perp": 0.0},
        "sequence": {"n_p": 1, "tau": "2 pi/omega", "n_r": 1},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["find-tau-res", "--config", str(path), "--tau-pi", "0",
                 "--halfwidth", "0.02 pi/omega", "--grid-step", "0.01 pi/omega"]) == 3


def test_robustness_cli(tmp_path):
    config = {
        "system": {"omega": 1.0, "a_perp": 0.05},
        "rows": [
            {"method": "I", "sign": 1, "n_p": 1, "n_r": 1},
            {"method": "II", "sign": 1, "n_p": 1, "n_r": 1},
        ],
        "tau_pi_values": ["0 pi/omega", "0.2 pi/omega"],
    }
    path = tmp_path / "rob.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "rob.csv"
    assert main(["robustness", "--config", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "method,sign,n_p,n_r,tau_pi,abs_P_s,gamma,status"
    assert len(lines) == 2 + 4


def test_robustness_cli_rejects_non_finite_tau_pi(tmp_path, capsys):
    config = {
        "system": {"omega": 1.0, "a_perp": 0.05},
        "rows": [{"method": "I", "sign": 1, "n_p": 1, "n_r": 1}],
        "tau_pi_values": [0.0, math.nan],
    }
    path = tmp_path / "rob.json"
    path.write_text(json.dumps(config))
    assert main(["robustness", "--config", str(path), "--out", str(tmp_path / "rob.csv")]) == 2
    assert "tau_pi" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("n_r", 1.5), ("n_r", 0), ("n_r", -3), ("n_p", 2.9), ("sign", 1.7),
])
def test_robustness_cli_rejects_bad_counts(tmp_path, capsys, key, value):
    row = {"method": "I", "sign": 1, "n_p": 1, "n_r": 1}
    row[key] = value
    config = {
        "system": {"omega": 1.0, "a_perp": 0.05},
        "rows": [row],
        "tau_pi_values": [0.0, "0.2 pi/omega"],
    }
    path = tmp_path / "rob.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "rob.csv"
    assert main(["robustness", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


# values a hand-written config may hold: numbers of every size and sign,
# time strings good and bad, and the wrong JSON types
_ANY_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 4),
    st.sampled_from([10 ** 400, "2 pi/omega", "1/2 pi/omega", "-1 pi/omega", "3/0",
                     "1e400", "1e400 pi/omega", "3/0 pi/omega", "pi", "", None, True, [], {}]),
)
# most draws are plausible, so that many configs get past the parser
_TIME = st.one_of(st.floats(0.0, 20.0), st.sampled_from(["2 pi/omega", "3/2 pi/omega"]),
                  _ANY_VALUE)
# counts are mostly small, so that many configs are valid; the engine raises its cell and
# its repetition to n_p and n_r by squaring, so a large count renders no more segments.
# 3e307 and 1e308 are counts whose 4 n_p or 8 n_r no longer converts to a float
_COUNT = st.one_of(st.integers(1, 4), st.integers(-1, 4),
                   st.sampled_from([1.5, 2.0, "3", "x", None, 10 ** 400, math.inf, math.nan,
                                    1e308, 3e307]))
_PULSE_MODEL = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["ideal", "finite", "gaussian", 3])},
                          optional={"tau_pi": _TIME}),
    _ANY_VALUE,
)
_SEQUENCE = st.fixed_dictionaries(
    {"n_p": _COUNT, "tau": _TIME},
    optional={"t_s": _TIME, "t_w": _TIME, "t_c": _TIME, "n_r": _COUNT,
              "pulse_model": _PULSE_MODEL},
)
_RATE = st.one_of(st.floats(0.01, 10.0), st.floats(0.01, 10.0), _ANY_VALUE)
_SYSTEM = st.fixed_dictionaries({"omega": _RATE, "a_perp": _RATE}, optional={"a_z": _RATE})
_CONFIG = st.one_of(
    st.fixed_dictionaries({"system": _SYSTEM, "sequence": _SEQUENCE}),
    st.fixed_dictionaries({"system": _SYSTEM, "sequence": _SEQUENCE}),
    st.fixed_dictionaries({"system": _SYSTEM, "sequence": _ANY_VALUE}),
    _ANY_VALUE,
)


@settings(max_examples=300)
@given(_CONFIG)
def test_config_fuzz_succeeds_or_exits_2(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "config.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(path), "--cycles", "2",
                     "--out", str(tmp / "series.csv")])
    if code == 0:
        sys_p, seq_p = config_from_dict(doc)
        assert seq_p.violations() == []
        assert len((tmp / "series.csv").read_text().splitlines()) == 2 + 2
    else:
        assert code == 2
        assert err.getvalue().startswith("error: ")
