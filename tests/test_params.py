import math

import pytest

from hyperpol.params import (
    PulseModel,
    SequenceParams,
    SystemParams,
    config_from_dict,
    resolve_time,
    sequence_from_dict,
)


def test_system_params_validation():
    SystemParams(omega=1.0, a_perp=0.0)
    with pytest.raises(ValueError):
        SystemParams(omega=0.0, a_perp=0.1)
    with pytest.raises(ValueError):
        SystemParams(omega=1.0, a_perp=-0.1)


def test_pulse_model():
    ideal = PulseModel.ideal()
    assert ideal.kind == "ideal"
    finite = PulseModel.finite(0.4 * math.pi)
    assert finite.rabi == pytest.approx(math.pi / (0.4 * math.pi))
    with pytest.raises(ValueError):
        PulseModel.finite(0.0)
    with pytest.raises(ValueError):
        PulseModel("square", 1.0)
    with pytest.raises(ValueError):
        ideal.rabi


def test_validate_ok_for_zero_times():
    seq = SequenceParams(n_p=1, tau=0.0, t_s=0.0, t_w=0.0, t_c=0.0, n_r=1)
    assert seq.violations() == []


def test_validate_reports_negative_tau():
    seq = SequenceParams(n_p=1, tau=-1.0)
    problems = seq.violations()
    assert any("tau negative" in p for p in problems)


def test_validate_reports_bad_counts():
    seq = SequenceParams(n_p=0, tau=1.0, n_r=0)
    problems = seq.violations()
    assert len(problems) == 2


def test_validate_requires_positive_tau_pi():
    # the pulse model owns tau_pi: a nonpositive or non-finite one never reaches a sequence
    for tau_pi in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tau_pi"):
            PulseModel.finite(tau_pi)


def test_validate_requires_pi_pulse_inside_its_cell():
    fits = SequenceParams(n_p=1, tau=1.0, pulse_model=PulseModel.finite(1.0))
    assert fits.violations() == []
    seq = SequenceParams(n_p=1, tau=1.0, pulse_model=PulseModel.finite(1.5))
    assert any("tau_pi" in p for p in seq.violations())


def test_resolve_time_accepts_numbers_and_strings():
    assert resolve_time(1.25, omega=2.0) == 1.25
    assert resolve_time("3/2 pi/omega", omega=2.0) == pytest.approx(0.75 * math.pi)
    assert resolve_time("1.5 pi/omega", omega=1.0) == pytest.approx(1.5 * math.pi)
    assert resolve_time("0 pi/omega", omega=1.0) == 0.0
    with pytest.raises(ValueError):
        resolve_time("3/2 tau", omega=1.0)
    for bad in ("3/0 pi/omega", "1e400 pi/omega", "1e400"):
        with pytest.raises(ValueError, match="cannot parse time"):
            resolve_time(bad, omega=1.0)


def test_config_round_trip():
    doc = {
        "system": {"omega": 1.0, "a_perp": 0.05, "a_z": 0.01},
        "sequence": {
            "n_p": 2,
            "tau": "4/3 pi/omega",
            "t_s": "11/6 pi/omega",
            "t_w": "11/6 pi/omega",
            "t_c": "11/6 pi/omega",
            "n_r": 4,
            "pulse_model": {"kind": "finite", "tau_pi": "0.2 pi/omega"},
        },
    }
    sys_p, seq_p = config_from_dict(doc)
    assert sys_p.a_z == 0.01
    assert seq_p.tau == pytest.approx(4 * math.pi / 3)
    assert seq_p.pulse_model.tau_pi == pytest.approx(0.2 * math.pi)
    # defaults
    seq2 = sequence_from_dict({"n_p": 1, "tau": 1.0}, omega=1.0)
    assert seq2.n_r == 1 and seq2.t_s == 0.0
    assert seq2.pulse_model.kind == "ideal"


def test_to_dict_round_trips_through_from_dict():
    sys_p = SystemParams(omega=2.0, a_perp=0.1, a_z=-0.05)
    seq_p = SequenceParams(n_p=3, tau=1.0, t_s=0.5, t_w=0.25, t_c=0.0, n_r=2,
                           pulse_model=PulseModel.finite(0.1))
    doc = {"system": sys_p.to_dict(), "sequence": seq_p.to_dict()}
    sys2, seq2 = config_from_dict(doc)
    assert sys2 == sys_p
    assert seq2 == seq_p
