"""Closed-form quasi-frequency lattice: phases, remainders, counting."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sloshspec import cli
from sloshspec.asymptotics import (
    QuasiFrequencyModel,
    Regime,
    quasi_frequency,
    remainder_exponent,
    weyl_count_estimate,
)
from sloshspec.geometry.domain import build_curvilinear_example, build_triangle_domain
from sloshspec.highord_sl import ode_asymptotic_prediction
from sloshspec.model_solutions.peters import SectorParams

from _tables import EX1_TABLE, EX2_TABLE

ANGLES = st.floats(min_value=0.05, max_value=math.pi - 0.05)


def nn_model(alpha=2 * math.pi / 5, beta=math.pi / 6, length=2.0):
    return QuasiFrequencyModel(Regime.NEUMANN_NEUMANN, alpha, beta, length)


def test_regime_string_round_trip():
    for regime in Regime:
        assert Regime.from_string(regime.value) is regime
    with pytest.raises(ValueError, match="unknown regime"):
        Regime.from_string("robin")


def test_phase_closed_forms():
    a, b = 2 * math.pi / 5, math.pi / 6
    quarter = math.pi**2 / 8
    assert nn_model(a, b).phase == -quarter * (1 / a + 1 / b)
    dd = QuasiFrequencyModel(Regime.DIRICHLET_DIRICHLET, a, b, 2.0)
    assert dd.phase == quarter * (1 / a + 1 / b)
    mixed = QuasiFrequencyModel(Regime.MIXED_DIRICHLET_A_NEUMANN_B, a, b, 2.0)
    assert mixed.phase == pytest.approx(quarter * (1 / a - 1 / b), abs=1e-15)
    hn = QuasiFrequencyModel(Regime.HALFPI_NEUMANN, math.pi / 2, b, 2.0)
    assert hn.phase == pytest.approx(-math.pi / 4 - math.pi**2 / (8 * b), abs=1e-15)
    hd = QuasiFrequencyModel(Regime.HALFPI_DIRICHLET, math.pi / 2, b, 2.0)
    assert hd.phase == pytest.approx(math.pi / 4 + math.pi**2 / (8 * b), abs=1e-15)


def test_triangle_lattice_is_arithmetic_with_offset():
    # For alpha = 2pi/5, beta = pi/6 the Neumann phase collapses to
    # -17 pi / 16, so sigma_k * L / pi = k - 1.5625 exactly.
    model = nn_model()
    assert model.phase == pytest.approx(-17 * math.pi / 16, abs=1e-14)
    for k in range(1, 30):
        assert quasi_frequency(model, k) * 2.0 / math.pi == pytest.approx(
            k - 1.5625, abs=1e-13
        )
    assert quasi_frequency(model, 4) == pytest.approx(39 * math.pi / 32, abs=1e-13)


def test_reference_sigma_columns():
    model_n = nn_model()
    model_d = QuasiFrequencyModel(
        Regime.DIRICHLET_DIRICHLET, 2 * math.pi / 5, math.pi / 6, 2.0
    )
    for k, _, sigma_n, _, sigma_d in EX1_TABLE:
        assert quasi_frequency(model_n, k) == pytest.approx(sigma_n, abs=5e-4)
        assert quasi_frequency(model_d, k) == pytest.approx(sigma_d, abs=5e-4)


def test_mixed_regime_reference_sigma_columns():
    # The wavy-surface containers meet their walls at pi/4 and 3pi/4;
    # flipping the surface swaps which angle carries the Dirichlet wall
    # and negates the phase.
    length = 1.2160067234249798
    plus = QuasiFrequencyModel(
        Regime.MIXED_DIRICHLET_A_NEUMANN_B, math.pi / 4, math.pi * 3 / 4, length
    )
    minus = QuasiFrequencyModel(
        Regime.MIXED_DIRICHLET_A_NEUMANN_B, math.pi * 3 / 4, math.pi / 4, length
    )
    assert plus.phase == pytest.approx(math.pi / 3, abs=1e-13)
    assert minus.phase == pytest.approx(-math.pi / 3, abs=1e-13)
    for k, _, sigma_plus, _, sigma_minus in EX2_TABLE:
        assert quasi_frequency(plus, k) == pytest.approx(sigma_plus, abs=5e-4)
        assert quasi_frequency(minus, k) == pytest.approx(sigma_minus, abs=5e-4)


def test_half_pi_regimes_require_vertical_wall():
    with pytest.raises(ValueError, match="alpha = pi/2"):
        QuasiFrequencyModel(Regime.HALFPI_NEUMANN, math.pi / 3, math.pi / 4, 1.0)
    model = QuasiFrequencyModel(Regime.HALFPI_NEUMANN, math.pi / 2, math.pi / 4, 1.0)
    assert model.phase == pytest.approx(-math.pi / 4 - math.pi / 2, abs=1e-14)


def test_remainder_exponents():
    assert remainder_exponent(nn_model()) == pytest.approx(
        1 - math.pi / (2 * (2 * math.pi / 5)), abs=1e-14
    )
    dd = QuasiFrequencyModel(Regime.DIRICHLET_DIRICHLET, 2 * math.pi / 5, math.pi / 6, 2.0)
    assert remainder_exponent(dd) == pytest.approx(1 - math.pi / (2 * math.pi / 5), abs=1e-14)
    mixed = QuasiFrequencyModel(
        Regime.MIXED_DIRICHLET_A_NEUMANN_B, math.pi / 3, math.pi / 3, 1.0
    )
    assert remainder_exponent(mixed) == pytest.approx(1 - math.pi / (2 * math.pi / 3), abs=1e-14)
    vertical = QuasiFrequencyModel(Regime.NEUMANN_NEUMANN, math.pi / 2, math.pi / 2, 1.0)
    assert remainder_exponent(vertical) == "exponential"
    hn = QuasiFrequencyModel(Regime.HALFPI_NEUMANN, math.pi / 2, math.pi / 2, 1.0)
    assert remainder_exponent(hn) == "exponential"
    hn_tilted = QuasiFrequencyModel(Regime.HALFPI_NEUMANN, math.pi / 2, math.pi / 3, 1.0)
    assert remainder_exponent(hn_tilted) == pytest.approx(-0.5, abs=1e-14)
    hd = QuasiFrequencyModel(Regime.HALFPI_DIRICHLET, math.pi / 2, math.pi / 3, 1.0)
    assert remainder_exponent(hd) == pytest.approx(-2.0, abs=1e-14)


@pytest.mark.parametrize(
    "regime, shift",
    [(Regime.NEUMANN_NEUMANN, 1.0), (Regime.DIRICHLET_DIRICHLET, 0.0), (Regime.MIXED_DIRICHLET_A_NEUMANN_B, 0.5)],
    ids=["nn", "dd", "mixed"],
)
def test_rectangle_lattice_is_its_exact_spectrum(regime, shift):
    # On [0, pi] x [-1, 0] the exact eigenvalues are n tanh(n) with
    # n = k - shift, which meet the lattice n exponentially fast.
    model = QuasiFrequencyModel(regime, math.pi / 2, math.pi / 2, math.pi)
    for k in range(1, 30):
        assert quasi_frequency(model, k) == pytest.approx(k - shift, abs=1e-13)
    assert remainder_exponent(model) == "exponential"


@pytest.mark.parametrize(
    "regime, alpha, beta, exponent",
    [
        (Regime.NEUMANN_NEUMANN, math.pi / 2, math.pi / 3, -0.5),
        (Regime.HALFPI_NEUMANN, math.pi / 2, math.pi / 3, -0.5),
        (Regime.DIRICHLET_DIRICHLET, math.pi / 2, math.pi / 3, -2.0),
        (Regime.HALFPI_DIRICHLET, math.pi / 2, math.pi / 3, -2.0),
        # the vertical wall is the Neumann one: corner A's Dirichlet term is left
        (Regime.MIXED_DIRICHLET_A_NEUMANN_B, math.pi / 3, math.pi / 2, -2.0),
    ],
    ids=["nn", "halfpi-neumann", "dd", "halfpi-dirichlet", "mixed"],
)
def test_vertical_corner_adds_no_algebraic_remainder(regime, alpha, beta, exponent):
    assert remainder_exponent(QuasiFrequencyModel(regime, alpha, beta, 1.0)) == pytest.approx(exponent, abs=1e-14)


WALLS = {
    Regime.NEUMANN_NEUMANN: ("neumann", "neumann"),
    Regime.DIRICHLET_DIRICHLET: ("dirichlet", "dirichlet"),
    Regime.MIXED_DIRICHLET_A_NEUMANN_B: ("dirichlet", "neumann"),
    Regime.HALFPI_NEUMANN: ("neumann", "neumann"),
    Regime.HALFPI_DIRICHLET: ("dirichlet", "dirichlet"),
}


@pytest.mark.parametrize("regime", list(Regime), ids=lambda regime: regime.value)
def test_phase_is_the_sum_of_the_corner_phase_shifts(regime):
    # sigma L = chi_A + chi_B + (k - 1) pi, the relation gluing the corner
    # solutions along the surface relies on
    wall_a, wall_b = WALLS[regime]
    rng = np.random.default_rng(20170)
    for alpha, beta in rng.uniform(0.01, math.pi / 2, size=(2000, 2)):
        if regime in (Regime.HALFPI_NEUMANN, Regime.HALFPI_DIRICHLET):
            alpha = math.pi / 2
        chi = SectorParams(alpha, wall_a).chi + SectorParams(beta, wall_b).chi
        assert QuasiFrequencyModel(regime, alpha, beta, 1.0).phase == pytest.approx(chi - math.pi / 2, abs=1e-13)


@pytest.mark.parametrize("q", range(2, 9))
def test_ode_prediction_is_the_neumann_lattice_of_its_triangle(q):
    angle = math.pi / (2 * q)
    model = QuasiFrequencyModel(Regime.NEUMANN_NEUMANN, angle, angle, 1.7)
    for k in range(q + 1, q + 30):
        assert ode_asymptotic_prediction(q, 1.7, k) == pytest.approx(quasi_frequency(model, k), rel=1e-14)


def test_from_walls_builds_the_worked_examples_models():
    for sign in ("+", "-"):
        domain = build_curvilinear_example(sign)
        a, b = domain.corner_A, domain.corner_B
        built = QuasiFrequencyModel.from_walls(
            a.angle, a.condition_adjacent_wall, b.angle, b.condition_adjacent_wall, domain.surface_length
        )
        # the Dirichlet wall meets the surface at corner B
        assert built == QuasiFrequencyModel(Regime.MIXED_DIRICHLET_A_NEUMANN_B, b.angle, a.angle, domain.surface_length)
    for wall, regime in (("neumann", Regime.NEUMANN_NEUMANN), ("dirichlet", Regime.DIRICHLET_DIRICHLET)):
        domain = build_triangle_domain(2 * math.pi / 5, math.pi / 6, 2.0, wall_conditions=(wall, wall))
        built = QuasiFrequencyModel.from_walls(2 * math.pi / 5, wall, math.pi / 6, wall, domain.surface_length)
        assert built == QuasiFrequencyModel(regime, 2 * math.pi / 5, math.pi / 6, 2.0)
    with pytest.raises(ValueError, match="wall conditions"):
        QuasiFrequencyModel.from_walls(1.0, "neumann", 1.0, "robin", 1.0)


@pytest.mark.parametrize(
    "regime, digest",
    [
        ("nn", "e06fc51511805e701073b9881176dc125b6fda7410de628f26862af9180dd108"),
        ("dd", "d7dad7f9a3c55b593a13b73e4e272648bb40706ab5cd7d21cfbd89f912a72a43"),
        ("mixed", "89e6d3588b9cddc854b5803983a76f85fca1c496d9ce45266436d4b14e3bb70e"),
    ],
)
def test_asymptotics_csv_matches_recorded_digest(capsys, regime, digest):
    argv = ["asymptotics", "--regime", regime, "--alpha", repr(2 * math.pi / 5), "--beta", repr(math.pi / 6)]
    assert cli.main(argv + ["--length", "2", "--kmax", "20"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_conjectural_flag_tracks_obtuse_corners():
    assert not nn_model(math.pi / 3, math.pi / 6).conjectural
    assert nn_model(2 * math.pi / 5, math.pi / 6).conjectural is False
    assert nn_model(math.pi / 2 + 0.1, math.pi / 6).conjectural is True


def test_quasi_frequency_validates_k():
    model = nn_model()
    with pytest.raises(ValueError, match="positive integer"):
        quasi_frequency(model, 0)
    with pytest.raises(ValueError, match="positive integer"):
        quasi_frequency(model, 2.5)


def test_model_validation():
    with pytest.raises(ValueError, match="between 0 and pi"):
        QuasiFrequencyModel(Regime.NEUMANN_NEUMANN, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="surface_length"):
        QuasiFrequencyModel(Regime.NEUMANN_NEUMANN, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        weyl_count_estimate(1.0, -1.0)


@given(alpha=ANGLES, beta=ANGLES, length=st.floats(min_value=0.1, max_value=10.0))
def test_lattice_spacing_is_pi_over_length(alpha, beta, length):
    model = QuasiFrequencyModel(Regime.NEUMANN_NEUMANN, alpha, beta, length)
    values = [quasi_frequency(model, k) for k in range(1, 8)]
    gaps = [b - a for a, b in zip(values, values[1:])]
    for gap in gaps:
        assert gap == pytest.approx(math.pi / length, rel=1e-12)


@given(alpha=ANGLES, beta=ANGLES)
def test_dirichlet_lattice_sits_above_neumann(alpha, beta):
    nn = QuasiFrequencyModel(Regime.NEUMANN_NEUMANN, alpha, beta, 1.0)
    dd = QuasiFrequencyModel(Regime.DIRICHLET_DIRICHLET, alpha, beta, 1.0)
    assert dd.phase == pytest.approx(-nn.phase, rel=1e-12)
    for k in range(1, 6):
        assert quasi_frequency(dd, k) > quasi_frequency(nn, k)


@given(alpha=ANGLES, beta=ANGLES)
def test_mixed_phase_antisymmetric_under_corner_swap(alpha, beta):
    ab = QuasiFrequencyModel(Regime.MIXED_DIRICHLET_A_NEUMANN_B, alpha, beta, 1.0)
    ba = QuasiFrequencyModel(Regime.MIXED_DIRICHLET_A_NEUMANN_B, beta, alpha, 1.0)
    assert ab.phase == pytest.approx(-ba.phase, abs=1e-12)


def test_weyl_estimate_is_linear_in_lambda():
    assert weyl_count_estimate(math.pi, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert weyl_count_estimate(5.0, 2.0) == pytest.approx(10.0 / math.pi, abs=1e-15)
