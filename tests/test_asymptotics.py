"""Closed-form quasi-frequency lattice: phases, remainders, counting."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sloshspec import cli, harness
from sloshspec.asymptotics import (
    QuasiFrequencyModel,
    quasi_frequency,
    remainder_exponent,
    weyl_count_estimate,
)
from sloshspec.geometry.domain import CornerSpec, build_curvilinear_example
from sloshspec.highord_sl import ode_asymptotic_prediction

from _tables import EX1_TABLE, EX2_TABLE

ANGLES = st.floats(min_value=0.05, max_value=math.pi - 0.05)
NN = ("neumann", "neumann")
DD = ("dirichlet", "dirichlet")
MIXED = ("dirichlet", "neumann")


def model(alpha, beta, length, walls):
    """The model of corners (alpha, walls[0]) at A and (beta, walls[1]) at B."""
    return QuasiFrequencyModel(CornerSpec(alpha, walls[0]), CornerSpec(beta, walls[1]), length)


def nn_model(alpha=2 * math.pi / 5, beta=math.pi / 6, length=2.0):
    return model(alpha, beta, length, NN)


def test_phase_closed_forms():
    a, b = 2 * math.pi / 5, math.pi / 6
    quarter = math.pi**2 / 8
    assert nn_model(a, b).phase == -quarter * (1 / a + 1 / b)
    dd = model(a, b, 2.0, DD)
    assert dd.phase == quarter * (1 / a + 1 / b)
    mixed = model(a, b, 2.0, MIXED)
    assert mixed.phase == pytest.approx(quarter * (1 / a - 1 / b), abs=1e-15)
    hn = nn_model(math.pi / 2, b)
    assert hn.phase == pytest.approx(-math.pi / 4 - math.pi**2 / (8 * b), abs=1e-15)
    hd = model(math.pi / 2, b, 2.0, DD)
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
    model_d = model(2 * math.pi / 5, math.pi / 6, 2.0, DD)
    for k, _, sigma_n, _, sigma_d in EX1_TABLE:
        assert quasi_frequency(model_n, k) == pytest.approx(sigma_n, abs=5e-4)
        assert quasi_frequency(model_d, k) == pytest.approx(sigma_d, abs=5e-4)


def test_mixed_regime_reference_sigma_columns():
    # The wavy-surface containers meet their walls at pi/4 and 3pi/4;
    # flipping the surface swaps which angle carries the Dirichlet wall
    # and negates the phase.
    length = 1.2160067234249798
    plus = model(math.pi / 4, math.pi * 3 / 4, length, MIXED)
    minus = model(math.pi * 3 / 4, math.pi / 4, length, MIXED)
    assert plus.phase == pytest.approx(math.pi / 3, abs=1e-13)
    assert minus.phase == pytest.approx(-math.pi / 3, abs=1e-13)
    for k, _, sigma_plus, _, sigma_minus in EX2_TABLE:
        assert quasi_frequency(plus, k) == pytest.approx(sigma_plus, abs=5e-4)
        assert quasi_frequency(minus, k) == pytest.approx(sigma_minus, abs=5e-4)


def test_half_pi_regimes_require_vertical_wall(capsys):
    # the half-pi regimes are nn and dd with a vertical wall at A; the CLI holds them to it
    argv = ["asymptotics", "--regime", "halfpi-neumann", "--beta", repr(math.pi / 4), "--kmax", "1"]
    assert cli.main(argv + ["--alpha", repr(math.pi / 3)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["field"] == "alpha" and "alpha = pi/2" in doc["error"]["message"]
    assert cli.main(argv + ["--alpha", repr(math.pi / 2)]) == 0
    sigma = float(capsys.readouterr().out.split("\n")[1].split(",")[1])
    assert sigma == quasi_frequency(nn_model(math.pi / 2, math.pi / 4, 1.0), 1)
    assert nn_model(math.pi / 2, math.pi / 4, 1.0).phase == pytest.approx(-math.pi / 4 - math.pi / 2, abs=1e-14)


def _corner_angles():
    """pi/k for k = 2..12, then a seeded grid in (0, pi)."""
    grid = np.random.default_rng(31).uniform(0.0, math.pi, size=400)
    return [math.pi / k for k in range(2, 13)] + [float(a) for a in grid if 0.0 < a < math.pi]


def test_corner_formulas_keep_the_bits_of_their_written_out_expressions():
    # mu, chi and closed_form moved onto CornerSpec, and remainder_exponent
    # reads them there; each must still round exactly as the explicit
    # expression does
    angles = _corner_angles()
    for angle in angles:
        for wall, sign in (("neumann", -1.0), ("dirichlet", 1.0)):
            corner = CornerSpec(angle, wall)
            assert corner.mu.hex() == (math.pi / (2 * angle)).hex()
            assert corner.chi.hex() == ((math.pi / 4) * (1 + sign * (math.pi / (2 * angle)))).hex()
            assert corner.closed_form == (abs(angle - math.pi / 2) < 1e-12)
    pairs = [(a, b) for a in angles[:11] for b in angles[:11]] + list(zip(angles[11:], reversed(angles[11:])))
    for walls in (NN, DD, MIXED, MIXED[::-1]):
        for alpha, beta in pairs:
            exponents = [
                1.0 - math.pi / (2.0 * angle if wall == "neumann" else angle)
                for angle, wall in zip((alpha, beta), walls)
                if abs(angle - math.pi / 2) > 1e-12
            ]
            expected = max(exponents) if exponents else "exponential"
            got = remainder_exponent(model(alpha, beta, 1.0, walls))
            assert got == expected and type(got) is type(expected), (alpha, beta, walls)


def test_remainder_exponents():
    assert remainder_exponent(nn_model()) == pytest.approx(
        1 - math.pi / (2 * (2 * math.pi / 5)), abs=1e-14
    )
    dd = model(2 * math.pi / 5, math.pi / 6, 2.0, DD)
    assert remainder_exponent(dd) == pytest.approx(1 - math.pi / (2 * math.pi / 5), abs=1e-14)
    mixed = model(math.pi / 3, math.pi / 3, 1.0, MIXED)
    assert remainder_exponent(mixed) == pytest.approx(1 - math.pi / (2 * math.pi / 3), abs=1e-14)
    vertical = nn_model(math.pi / 2, math.pi / 2, 1.0)
    assert remainder_exponent(vertical) == "exponential"
    tilted = nn_model(math.pi / 2, math.pi / 3, 1.0)
    assert remainder_exponent(tilted) == pytest.approx(-0.5, abs=1e-14)
    hd = model(math.pi / 2, math.pi / 3, 1.0, DD)
    assert remainder_exponent(hd) == pytest.approx(-2.0, abs=1e-14)


@pytest.mark.parametrize("walls, shift", [(NN, 1.0), (DD, 0.0), (MIXED, 0.5)], ids=["nn", "dd", "mixed"])
def test_rectangle_lattice_is_its_exact_spectrum(walls, shift):
    # On [0, pi] x [-1, 0] the exact eigenvalues are n tanh(n) with
    # n = k - shift, which meet the lattice n exponentially fast.
    rectangle = model(math.pi / 2, math.pi / 2, math.pi, walls)
    for k in range(1, 30):
        assert quasi_frequency(rectangle, k) == pytest.approx(k - shift, abs=1e-13)
    assert remainder_exponent(rectangle) == "exponential"


@pytest.mark.parametrize(
    "regime, alpha, beta, exponent",
    [
        ("nn", math.pi / 2, math.pi / 3, -0.5),
        ("halfpi-neumann", math.pi / 2, math.pi / 3, -0.5),
        ("dd", math.pi / 2, math.pi / 3, -2.0),
        ("halfpi-dirichlet", math.pi / 2, math.pi / 3, -2.0),
        # the vertical wall is the Neumann one: corner A's Dirichlet term is left
        ("mixed", math.pi / 3, math.pi / 2, -2.0),
    ],
    ids=["nn", "halfpi-neumann", "dd", "halfpi-dirichlet", "mixed"],
)
def test_vertical_corner_adds_no_algebraic_remainder(regime, alpha, beta, exponent):
    walls = cli._REGIMES[regime]
    assert remainder_exponent(model(alpha, beta, 1.0, walls)) == pytest.approx(exponent, abs=1e-14)


@pytest.mark.parametrize("regime", tuple(cli._REGIMES))
def test_phase_is_the_sum_of_the_corner_phase_shifts(regime):
    # sigma L = chi_A + chi_B + (k - 1) pi, the relation gluing the corner
    # solutions along the surface relies on
    walls = cli._REGIMES[regime]
    rng = np.random.default_rng(20170)
    for alpha, beta in rng.uniform(0.01, math.pi / 2, size=(2000, 2)):
        if regime.startswith("halfpi"):
            alpha = math.pi / 2
        chi = CornerSpec(alpha, walls[0]).chi + CornerSpec(beta, walls[1]).chi
        assert model(alpha, beta, 1.0, walls).phase == pytest.approx(chi - math.pi / 2, abs=1e-13)


@pytest.mark.parametrize("q", range(2, 9))
def test_ode_prediction_is_the_neumann_lattice_of_its_triangle(q):
    angle = math.pi / (2 * q)
    triangle = nn_model(angle, angle, 1.7)
    for k in range(q + 1, q + 30):
        assert ode_asymptotic_prediction(q, 1.7, k) == pytest.approx(quasi_frequency(triangle, k), rel=1e-14)


def test_corner_order_moves_no_bit():
    # the CLI's mixed regime puts the Dirichlet corner first, a domain may
    # put it second; phase and lattice are the same bits either way
    rng = np.random.default_rng(28)
    for a, b, length in rng.uniform((0.01, 0.01, 0.1), (math.pi - 0.01, math.pi - 0.01, 10.0), size=(500, 3)):
        neumann_first = model(a, b, length, ("neumann", "dirichlet"))
        dirichlet_first = model(b, a, length, MIXED)
        assert neumann_first.phase == dirichlet_first.phase
        for k in range(1, 21):
            assert quasi_frequency(neumann_first, k) == quasi_frequency(dirichlet_first, k)
        assert remainder_exponent(neumann_first) == remainder_exponent(dirichlet_first)
        assert neumann_first.conjectural == dirichlet_first.conjectural


@pytest.mark.parametrize("sign", ("+", "-"))
def test_example_2_lattice_is_the_mixed_regime(capsys, sign):
    domain = build_curvilinear_example(sign)
    a, b = domain.corner_A, domain.corner_B
    # the Dirichlet wall meets the surface at corner B, so it is --alpha
    assert (b.condition, a.condition) == MIXED
    argv = ["asymptotics", "--regime", "mixed", "--alpha", repr(b.angle), "--beta", repr(a.angle)]
    argv += ["--length", repr(domain.surface_length), "--kmax", "10", "--format", "json"]
    assert cli.main(argv) == 0
    sigmas = [row["sigma"] for row in json.loads(capsys.readouterr().out)]
    assert harness._lattice(domain)(range(1, 11)) == sigmas


def asymptotics_digest(capsys, regime, fmt):
    alpha = math.pi / 2 if regime.startswith("halfpi") else 2 * math.pi / 5
    argv = ["asymptotics", "--regime", regime, "--alpha", repr(alpha), "--beta", repr(math.pi / 6)]
    assert cli.main(argv + ["--length", "2", "--kmax", "20", "--format", fmt]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize(
    "regime, digest",
    [
        ("nn", "e06fc51511805e701073b9881176dc125b6fda7410de628f26862af9180dd108"),
        ("dd", "d7dad7f9a3c55b593a13b73e4e272648bb40706ab5cd7d21cfbd89f912a72a43"),
        ("mixed", "89e6d3588b9cddc854b5803983a76f85fca1c496d9ce45266436d4b14e3bb70e"),
        ("halfpi-neumann", "66e270f83c125b9e5cd3d2507a912adb876325e30ec920a8e4e7b4166a40a017"),
        ("halfpi-dirichlet", "7722018ac84d705c80251b551faaa6589692f9db71adf8e5b176bd38021a4e6e"),
    ],
)
def test_asymptotics_csv_matches_recorded_digest(capsys, regime, digest):
    assert asymptotics_digest(capsys, regime, "csv") == digest


@pytest.mark.parametrize(
    "regime, digest",
    [
        ("nn", "9a1249c57fe663051df6e1f433f35b52b3f4f46310eb68a00b6d2602a7e06297"),
        ("dd", "dfc0ac79f956e160ad96e93ec34558efc33d97ef50ad6112b5e2f90effabd85e"),
        ("mixed", "98dc8b3aa2312d73dd2d525ca8f0ba981a97e35471c487595dfba84e6482e076"),
        ("halfpi-neumann", "78bb6fb3e01bf1d41ece5c1c108f1f4cc599f91112ebbeb9933c969f1810546d"),
        ("halfpi-dirichlet", "c205f62f0c71069dad77e3c0d49911351262ca2f24d5207cd034aa7574b0ca3b"),
    ],
)
def test_asymptotics_json_matches_recorded_digest(capsys, regime, digest):
    assert asymptotics_digest(capsys, regime, "json") == digest


def test_non_finite_quasi_frequency_raises(capsys):
    # L = 1e-310 is positive and finite, but sigma_k * L / L overflows
    tiny = nn_model(1.0, 1.0, 1e-310)
    with pytest.raises(OverflowError, match="not finite"):
        quasi_frequency(tiny, 1)
    assert cli.main(["asymptotics", "--alpha", "1", "--beta", "1", "--length", "1e-310"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "numerical"


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
    with pytest.raises(ValueError, match=r"in \(0, pi\)"):
        nn_model(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="surface_length"):
        nn_model(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        weyl_count_estimate(1.0, -1.0)


@given(alpha=ANGLES, beta=ANGLES, length=st.floats(min_value=0.1, max_value=10.0))
def test_lattice_spacing_is_pi_over_length(alpha, beta, length):
    values = [quasi_frequency(nn_model(alpha, beta, length), k) for k in range(1, 8)]
    gaps = [b - a for a, b in zip(values, values[1:])]
    for gap in gaps:
        assert gap == pytest.approx(math.pi / length, rel=1e-12)


@given(alpha=ANGLES, beta=ANGLES)
def test_dirichlet_lattice_sits_above_neumann(alpha, beta):
    nn = nn_model(alpha, beta, 1.0)
    dd = model(alpha, beta, 1.0, DD)
    assert dd.phase == pytest.approx(-nn.phase, rel=1e-12)
    for k in range(1, 6):
        assert quasi_frequency(dd, k) > quasi_frequency(nn, k)


@given(alpha=ANGLES, beta=ANGLES)
def test_mixed_phase_antisymmetric_under_corner_swap(alpha, beta):
    ab = model(alpha, beta, 1.0, MIXED)
    ba = model(beta, alpha, 1.0, MIXED)
    assert ab.phase == pytest.approx(-ba.phase, abs=1e-12)


def test_weyl_estimate_is_linear_in_lambda():
    assert weyl_count_estimate(math.pi, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert weyl_count_estimate(5.0, 2.0) == pytest.approx(10.0 / math.pi, abs=1e-15)
