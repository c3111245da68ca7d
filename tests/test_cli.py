import json
import math

import pytest

from hyperpol.cli import main

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


def test_simulate_writes_series(config_path, tmp_path):
    out = tmp_path / "series.csv"
    assert main(["simulate", "--config", config_path, "--cycles", "150",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "cycle,polarization"
    assert len(lines) == 152
    final = float(lines[-1].split(",")[1])
    assert final > 0.95


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


def test_magic_table_outputs(tmp_path):
    base = tmp_path / "table"
    assert main(["magic-table", "--max-np", "4", "--out", str(base)]) == 0
    doc = json.loads((tmp_path / "table.json").read_text())
    assert len(doc["rows"]) == 2 * 2 * 4
    assert doc["rows"][0]["tau"] == "2 pi/omega"
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0].startswith("method,sign,n_p,tau")
    assert len(lines) == 1 + 16


def test_sweep_cli_deterministic(tmp_path, config_path):
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
                 "--jobs", "2"]) == 0
    assert out1.read_text() == out2.read_text()


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
