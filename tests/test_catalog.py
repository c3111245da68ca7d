import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from hyperpol import analytic, catalog
from hyperpol.catalog import (
    MagicRow,
    finite_pulse_tau,
    full_table,
    magic_params,
    nearest_integer,
    resonant_tau,
)
from hyperpol.params import SystemParams

GOLDEN = json.loads((Path(__file__).parent / "data" / "table1.json").read_text())


def test_resonant_tau_values():
    assert resonant_tau(1) == [Fraction(2)]
    assert resonant_tau(2) == [Fraction(4, 3), Fraction(8, 3)]
    for n_p in (3, 5, 8):
        assert resonant_tau(n_p) == [Fraction(1)]
    with pytest.raises(ValueError):
        resonant_tau(0)


def test_nearest_integer_ties_to_even():
    assert nearest_integer(Fraction(13, 12)) == 1
    assert nearest_integer(Fraction(29, 12)) == 2
    assert nearest_integer(Fraction(3, 2)) == 2
    assert nearest_integer(Fraction(5, 2)) == 2
    assert nearest_integer(Fraction(-1, 2)) == 0


def test_published_table_reproduced_bit_exactly():
    for entry in GOLDEN["rows"]:
        row = magic_params(entry["method"], entry["sign"], entry["n_p"])
        assert row.tau == Fraction(entry["tau"]), entry
        assert row.t_s == Fraction(entry["t_s"]), entry
        assert row.t_w == Fraction(entry["t_w"]), entry
        assert row.t_c == Fraction(entry["t_c"]), entry
        assert row.gamma_window == Fraction(entry["gamma_window"]), entry
        assert row.sideband_fractions[0] == Fraction(entry["sideband_fraction"]), entry
        assert row.sideband_fractions[1] == -Fraction(entry["sideband_fraction"]), entry


def test_method_two_has_zero_waits():
    for sign in (+1, -1):
        for n_p in range(1, 12):
            row = magic_params("II", sign, n_p)
            assert row.t_s == row.t_w == row.t_c == 0


def test_closed_form_families_as_rationals():
    for n_p in range(3, 12):
        assert magic_params("I", +1, n_p).gamma_window == Fraction(2, 2 * n_p + 1)
        assert magic_params("I", -1, n_p).gamma_window == Fraction(2, 2 * n_p + 3)
        assert magic_params("II", +1, n_p).tau == 1 + Fraction(1, 2 * n_p)
        assert magic_params("II", -1, n_p).tau == 1 - Fraction(1, 2 * n_p)
        assert magic_params("II", +1, n_p).gamma_window == Fraction(2, 2 * n_p + 1)
        assert magic_params("II", -1, n_p).gamma_window == Fraction(2, 2 * n_p - 1)


def test_second_resonance_variant():
    # the n_p = 2 Method I waits at the second resonance, tau = 8/3 in place of 4/3
    t_s, t_w, t_c = catalog._method_one_waits(+1, 2, Fraction(8, 3))
    row = MagicRow(method="I", sign=+1, n_p=2, tau=Fraction(8, 3), t_s=t_s, t_w=t_w, t_c=t_c)
    # the variant still satisfies the control-angle condition exactly
    sys_p = SystemParams(omega=1.0, a_perp=0.05)
    seq = row.to_sequence_params(sys_p, n_r=2)
    assert analytic.phases(sys_p, seq).phi == pytest.approx(math.pi / 2, abs=1e-12)


@pytest.mark.parametrize("omega", [1.0, 2.5])
@pytest.mark.parametrize("n_r", [1, 2])
def test_rows_hit_the_control_angle_exactly(omega, n_r):
    sys_p = SystemParams(omega=omega, a_perp=0.05)
    for row in full_table((1, 2, 3, 4, 8)):
        seq = row.to_sequence_params(sys_p, n_r=n_r)
        phi = analytic.phases(sys_p, seq).phi
        target = math.pi / 2 if row.sign > 0 else 3 * math.pi / 2
        assert phi == pytest.approx(target, abs=1e-12), row


def test_wait_perturbations_never_increase_alpha():
    from dataclasses import replace

    sys_p = SystemParams(omega=1.0, a_perp=0.05)
    n_r = 2
    grid = [0.01 * math.pi * k for k in range(1, 200)]
    for row in full_table((1, 2, 3, 4, 6, 8)):
        seq = row.to_sequence_params(sys_p, n_r=n_r)
        base = abs(analytic.alpha(sys_p, seq))
        for name in ("t_s", "t_w", "t_c"):
            value = getattr(seq, name)
            # shifting by full nuclear periods changes nothing
            for delta in (2 * math.pi, -2 * math.pi):
                shifted = abs(analytic.alpha(sys_p, replace(seq, **{name: value + delta})))
                assert shifted == pytest.approx(base, abs=1e-9)
            for delta in grid:
                shifted = abs(analytic.alpha(sys_p, replace(seq, **{name: value + delta})))
                assert shifted <= base + 1e-9


def test_to_sequence_params_drops_t_c_for_single_repetition():
    row = magic_params("I", +1, 1)
    sys_p = SystemParams(omega=1.0, a_perp=0.05)
    assert row.to_sequence_params(sys_p, n_r=1).t_c == 0.0
    assert row.to_sequence_params(sys_p, n_r=2).t_c == pytest.approx(1.5 * math.pi)


def test_row_serialization():
    d = magic_params("I", +1, 2).to_dict()
    assert d["tau"] == "4/3 pi/omega"
    assert d["t_s"] == "11/6 pi/omega"
    assert d["gamma_window"] == "2/9"


def test_total_rep_duration():
    assert magic_params("I", +1, 1).total_rep() == 14
    assert magic_params("I", -1, 1).total_rep() == 10
    assert magic_params("II", +1, 1).total_rep() == 6


def test_finite_pulse_tau():
    assert finite_pulse_tau(2 * math.pi, 0.0, 1) == 2 * math.pi
    assert finite_pulse_tau(2 * math.pi, 0.4 * math.pi, 1) == pytest.approx(1.6 * math.pi)
    assert finite_pulse_tau(4 * math.pi / 3, 0.2 * math.pi, 2) == pytest.approx(
        (4 / 3 - 0.1) * math.pi)
    with pytest.raises(ValueError):
        finite_pulse_tau(0.3, 0.4, 1)
    with pytest.raises(ValueError):
        finite_pulse_tau(1.0, -0.1, 1)


def test_magic_params_rejects_bad_input():
    with pytest.raises(ValueError):
        magic_params("III", +1, 1)
    with pytest.raises(ValueError):
        magic_params("I", 0, 1)
    with pytest.raises(ValueError):
        magic_params("I", +1, 0)
