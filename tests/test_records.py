"""The result records keep their fields, dicts and immutability, whatever their base type."""

import math

import pytest

import hyperpol
from hyperpol import SequenceParams, SystemParams, evaluate_exact, phases, summarize
from hyperpol.analytic import AnalyticSummary, PhaseBundle
from hyperpol.engine import ExactResult

# the README single-run config
SYS = SystemParams(omega=1.0, a_perp=0.05)
SEQ = SequenceParams(n_p=1, tau=2 * math.pi, t_s=1.5 * math.pi, t_w=1.5 * math.pi,
                     t_c=1.5 * math.pi, n_r=4, tau_pi=0.2 * math.pi)

RECORDS = {
    "phases": (PhaseBundle, lambda: phases(SYS, SEQ),
               ("phi0", "phi1", "phi_big", "phi", "theta"), None),
    "summarize": (AnalyticSummary, lambda: summarize(SYS, SEQ),
                  ("f_value", "dirichlet", "alpha", "p_s", "lam", "gamma"),
                  {"f_value": 4.0, "dirichlet": -4.0, "alpha": 1.6, "p_s": 1.0,
                   "lambda": 0.48540023884935557, "gamma": 0.004108365981621212}),
    "evaluate_exact": (ExactResult, lambda: evaluate_exact(SYS, SEQ),
                       ("p_s", "lambda_est", "gamma", "n_s", "t_cycle"),
                       # the fixed-point oracle's n_s is 41.84738618376821 (tests/oracles.py)
                       {"p_s": 0.7777156596574776, "lambda": 0.9881224738388781,
                        "gamma": 0.0001284872646985614, "n_s": 41.84738618377021,
                        "t_cycle": 185.98228509251575}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_in_order(name):
    kind, make, fields, _ = RECORDS[name]
    record = make()
    assert type(record) is kind
    assert kind._fields == fields
    assert tuple(getattr(record, f) for f in fields) == tuple(record)


@pytest.mark.parametrize("name", [name for name, entry in RECORDS.items() if entry[3]])
def test_record_dicts_keep_their_keys_and_bytes(name):
    _, make, _, expected = RECORDS[name]
    doc = make().to_dict()
    assert list(doc) == list(expected)
    assert {k: repr(v) for k, v in doc.items()} == {k: repr(v) for k, v in expected.items()}


def test_phase_bundle_values():
    assert phases(SYS, SEQ) == PhaseBundle(
        phi0=10.995574287564276, phi1=21.991148575128552, phi_big=43.982297150257104,
        phi=1.5707963267948966, theta=1.5707963267948966)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    _, make, fields, _ = RECORDS[name]
    record = make()
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0


def test_public_names_are_unchanged():
    assert hyperpol.__all__ == [
        "AnalyticSummary", "KrausPair", "MagicRow", "PhaseBundle", "PolarizationSeries",
        "Segment", "SequenceParams", "SystemParams", "Timeline", "alpha", "cycle_kraus",
        "evaluate_exact", "filter_f", "finite_pulse_tau", "full_table", "gamma_analytic",
        "gamma_opt_approx", "kraus", "kraus_approx", "lambda_analytic", "magic_params",
        "measured_rate", "phases", "polarization_series_analytic", "propagate",
        "render_unit", "resonant_tau", "simulate", "stable_polarization", "steady_state",
        "summarize", "window_and_sidebands"]
