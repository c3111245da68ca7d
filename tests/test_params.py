import copy
import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpol.params import (
    SequenceParams,
    SystemParams,
    config_from_dict,
    cycle_durations,
    resolve_time,
    sequence_from_dict,
)

from oracles import violations_by_rule


def test_system_params_validation():
    SystemParams(omega=1.0, a_perp=0.0)
    with pytest.raises(ValueError):
        SystemParams(omega=0.0, a_perp=0.1)
    with pytest.raises(ValueError):
        SystemParams(omega=1.0, a_perp=-0.1)


def sequence_with_pulse(pulse_model: dict) -> SequenceParams:
    return sequence_from_dict({"n_p": 1, "tau": 1.0, "pulse_model": pulse_model}, omega=1.0)


def test_pulse_model():
    # the pulse is one number: tau_pi = 0 means zero-width pulses
    assert SequenceParams(n_p=1, tau=1.0).tau_pi == 0.0
    assert SequenceParams(n_p=1, tau=1.0, tau_pi=0.4).violations() == []
    # the JSON object: an unknown kind is refused, finite needs a finite tau_pi > 0 ...
    for bad in ({"kind": "square", "tau_pi": 1.0}, {"kind": "finite", "tau_pi": 0},
                {"kind": "finite", "tau_pi": -1.0}, {"kind": "finite", "tau_pi": math.inf},
                {"kind": "finite", "tau_pi": math.nan}):
        with pytest.raises(ValueError, match="kind|tau_pi"):
            sequence_with_pulse(bad)
    with pytest.raises(KeyError, match="tau_pi"):
        sequence_with_pulse({"kind": "finite"})
    # ... and ideal ignores any tau_pi it carries
    assert sequence_with_pulse({"kind": "ideal", "tau_pi": 0.5}).tau_pi == 0.0
    assert sequence_with_pulse({"kind": "finite", "tau_pi": "0.4 pi/omega"}).tau_pi == (
        pytest.approx(0.4 * math.pi))


def test_validate_ok_for_zero_times():
    seq = SequenceParams(n_p=1, tau=0.0, t_s=0.0, t_w=0.0, t_c=0.0, n_r=1)
    assert seq.violations() == []


def test_validate_reports_negative_tau():
    seq = SequenceParams(n_p=1, tau=-1.0)
    # zero-width pulses have no duration to compare tau with: one message only
    assert seq.violations() == ["tau negative: -1.0"]


def test_validate_reports_bad_counts():
    seq = SequenceParams(n_p=0, tau=1.0, n_r=0)
    problems = seq.violations()
    assert len(problems) == 2


def test_validate_requires_positive_tau_pi():
    # tau_pi is checked with the other times: finite and nonnegative, 0 being zero-width
    assert SequenceParams(n_p=1, tau=1.0, tau_pi=0.0).violations() == []
    assert SequenceParams(n_p=1, tau=1.0, tau_pi=-1.0).violations() == ["tau_pi negative: -1.0"]
    for tau_pi in (math.inf, math.nan):
        problems = SequenceParams(n_p=1, tau=1.0, tau_pi=tau_pi).violations()
        assert f"tau_pi not finite: {tau_pi}" in problems


def test_validate_refuses_an_infinite_cycle():
    # every time is finite, but 4 n_p tau, or n_r repetitions of the cycle, overflow
    message = ("cycle duration n_r (2 t_s + t_w + 4 n_p tau + t_c + 4 tau_pi) "
               "not finite: inf")
    assert SequenceParams(n_p=1, tau=1e308).violations() == [message]
    assert SequenceParams(n_p=1, tau=1e300, n_r=10 ** 10).violations() == [message]
    # a time that is not finite itself is named once, not again as a duration
    assert SequenceParams(n_p=1, tau=math.inf).violations() == ["tau not finite: inf"]


def test_validate_requires_pi_pulse_inside_its_cell():
    fits = SequenceParams(n_p=1, tau=1.0, tau_pi=1.0)
    assert fits.violations() == []
    seq = SequenceParams(n_p=1, tau=1.0, tau_pi=1.5)
    assert any("tau_pi" in p for p in seq.violations())


def test_a_checked_sequence_keeps_its_fields_copies_and_pickles():
    # the check leaves nothing on the instance: vars() holds the fields alone
    bad = SequenceParams(n_p=0, tau=1.0)
    fields = {"n_p": 0, "tau": 1.0, "t_s": 0.0, "t_w": 0.0, "t_c": 0.0, "n_r": 1, "tau_pi": 0.0}
    assert vars(bad) == fields
    assert bad.violations() == ["n_p must be >= 1, got 0"]
    assert vars(bad) == fields and SequenceParams(**vars(bad)) == bad
    assert repr(bad) == repr(SequenceParams(**fields)) and hash(bad) == hash(SequenceParams(**fields))
    for twin in (copy.deepcopy(bad), pickle.loads(pickle.dumps(bad)), replace(bad, tau=2.0)):
        assert vars(twin) == {**fields, "tau": twin.tau}
        assert twin.violations() == ["n_p must be >= 1, got 0"]
    assert replace(bad, n_p=1).violations() == []


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
    assert seq_p.tau_pi == pytest.approx(0.2 * math.pi)
    # defaults
    seq2 = sequence_from_dict({"n_p": 1, "tau": 1.0}, omega=1.0)
    assert seq2.n_r == 1 and seq2.t_s == 0.0
    assert seq2.tau_pi == 0.0


def test_to_dict_round_trips_through_from_dict():
    sys_p = SystemParams(omega=2.0, a_perp=0.1, a_z=-0.05)
    seq_p = SequenceParams(n_p=3, tau=1.0, t_s=0.5, t_w=0.25, t_c=0.0, n_r=2,
                           tau_pi=0.1)
    doc = {"system": sys_p.to_dict(), "sequence": seq_p.to_dict()}
    sys2, seq2 = config_from_dict(doc)
    assert sys2 == sys_p
    assert seq2 == seq_p


@pytest.mark.parametrize("tau_pi,pulse_model", [
    (0.0, {"kind": "ideal"}),
    (0.25, {"kind": "finite", "tau_pi": 0.25}),
])
def test_pulse_model_json_object_round_trips(tau_pi, pulse_model):
    seq_p = SequenceParams(n_p=2, tau=1.0, t_s=0.5, n_r=3, tau_pi=tau_pi)
    doc = seq_p.to_dict()
    assert doc["pulse_model"] == pulse_model
    assert sequence_from_dict(doc, omega=1.0) == seq_p


TIMES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, 0.5, 1.0, 2.0, 1e308]),
    st.floats())
COUNTS = st.one_of(st.sampled_from([0, 1, 10 ** 10, -1]), st.integers(-3, 64))


@settings(max_examples=400)
@given(COUNTS, TIMES, TIMES, TIMES, TIMES, COUNTS, TIMES)
def test_violations_match_the_rules_one_by_one(n_p, tau, t_s, t_w, t_c, n_r, tau_pi):
    seq = SequenceParams(n_p=n_p, tau=tau, t_s=t_s, t_w=t_w, t_c=t_c, n_r=n_r, tau_pi=tau_pi)
    expected = violations_by_rule(seq)
    assert seq.violations() == expected
    assert seq.violations() == expected  # checked again, the same messages


HUGE_COUNTS = st.sampled_from([1, 2, 2 ** 53 + 1, int(3e307), int(1e308), 2 ** 1023])
EDGE_TIMES = st.sampled_from([0.0, -0.0, 1e-300, 1e308, math.inf, math.nan])


@settings(max_examples=400)
@given(HUGE_COUNTS, EDGE_TIMES, EDGE_TIMES, EDGE_TIMES, EDGE_TIMES, HUGE_COUNTS, EDGE_TIMES)
def test_a_runnable_sequence_has_a_finite_cycle_whatever_its_counts(n_p, tau, t_s, t_w, t_c,
                                                                    n_r, tau_pi):
    # counts up to the float limit: 4 n_p and 8 n_r may not convert to a float, and the
    # check must refuse such a cycle with a message rather than raise
    seq = SequenceParams(n_p=n_p, tau=tau, t_s=t_s, t_w=t_w, t_c=t_c, n_r=n_r, tau_pi=tau_pi)
    problems = seq.violations()
    assert problems == violations_by_rule(seq)
    if not problems:
        nominal, actual = cycle_durations(seq)
        assert type(nominal) is float and type(actual) is float
        assert math.isfinite(nominal) and math.isfinite(actual) and actual >= nominal


@pytest.mark.parametrize("fields", [
    {"tau": 1.0, "tau_pi": 1.5},  # the pulse does not fit its cell
    {"tau": 1.5, "tau_pi": 1.5},
    {"tau": -0.0, "tau_pi": -0.0, "t_s": -0.0},
    {"tau": 1e308, "n_r": 10 ** 10},
    {"tau": 1e300, "n_p": 10 ** 10},
    {"tau": math.nan, "tau_pi": 0.5},
    {"tau": 1.0, "tau_pi": math.nan},
    {"tau": math.inf, "t_w": -1.0, "n_p": 0, "n_r": 0},
    {"tau": 1.0, "t_c": 1e308, "t_w": 1e308},
])
def test_violations_match_the_rules_on_edges(fields):
    seq = SequenceParams(**{"n_p": 1, **fields})
    assert seq.violations() == violations_by_rule(seq)
