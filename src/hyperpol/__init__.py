"""Sequential nuclear-spin hyperpolarization: exact simulator and analytics."""

from .params import PulseModel, SequenceParams, SystemParams
from .timeline import Segment, Timeline, render_unit
from .engine import (
    KrausPair,
    PolarizationSeries,
    cycle_kraus,
    evaluate_exact,
    kraus,
    measured_rate,
    propagate,
    simulate,
    steady_state,
)
from .analytic import (
    AnalyticSummary,
    PhaseBundle,
    alpha,
    filter_f,
    gamma_analytic,
    gamma_opt_approx,
    kraus_approx,
    lambda_analytic,
    phases,
    polarization_series_analytic,
    stable_polarization,
    summarize,
    window_and_sidebands,
)
from .catalog import MagicRow, finite_pulse_tau, full_table, magic_params, resonant_tau

__all__ = [
    "AnalyticSummary",
    "KrausPair",
    "MagicRow",
    "PhaseBundle",
    "PolarizationSeries",
    "PulseModel",
    "Segment",
    "SequenceParams",
    "SystemParams",
    "Timeline",
    "alpha",
    "cycle_kraus",
    "evaluate_exact",
    "filter_f",
    "finite_pulse_tau",
    "full_table",
    "gamma_analytic",
    "gamma_opt_approx",
    "kraus",
    "kraus_approx",
    "lambda_analytic",
    "magic_params",
    "measured_rate",
    "phases",
    "polarization_series_analytic",
    "propagate",
    "render_unit",
    "resonant_tau",
    "simulate",
    "stable_polarization",
    "steady_state",
    "summarize",
    "window_and_sidebands",
]

__version__ = "0.1.0"
