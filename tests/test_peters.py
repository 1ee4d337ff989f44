"""Sector solutions with a Robin surface condition and their far fields."""

import cmath
import math

import numpy as np
import pytest

from sloshspec.model_solutions import peters
from sloshspec.model_solutions.peters import (
    XMAX_LIMIT,
    FarFieldFit,
    PetersEvaluator,
    SectorParams,
    eval_peters,
    far_field_fit,
)


def wrap_angle(value):
    return (value + math.pi) % (2 * math.pi) - math.pi


def test_params_closed_forms_and_validation():
    params = SectorParams(math.pi / 3, "neumann")
    assert params.mu == pytest.approx(1.5, abs=1e-15)
    assert params.chi == pytest.approx(math.pi / 4 * (1 - 1.5), abs=1e-15)
    dirichlet = SectorParams(math.pi / 5, "dirichlet")
    assert dirichlet.chi == pytest.approx(math.pi / 4 * (1 + 2.5), abs=1e-15)
    with pytest.raises(ValueError):
        SectorParams(0.0)
    with pytest.raises(ValueError):
        SectorParams(math.pi / 2 + 0.1)
    with pytest.raises(ValueError):
        SectorParams(math.pi / 3, "robin")


def test_vertical_wall_collapses_to_the_plane_wave():
    x = np.linspace(0.5, 10.0, 40)
    neumann = eval_peters(SectorParams(math.pi / 2, "neumann"), x)
    assert np.max(np.abs(neumann - np.exp(-1j * x))) < 1e-12
    dirichlet = eval_peters(SectorParams(math.pi / 2, "dirichlet"), x)
    assert np.max(np.abs(dirichlet - 1j * np.exp(-1j * x))) < 1e-12
    interior = complex(eval_peters(SectorParams(math.pi / 2, "neumann"), 0.5 - 0.3j))
    assert interior == pytest.approx(cmath.exp(-1j * (0.5 - 0.3j)), abs=1e-12)


@pytest.mark.parametrize("condition", ["neumann", "dirichlet"])
def test_solution_satisfies_the_surface_condition(condition):
    params = SectorParams(math.pi / 3, condition)
    evaluator = PetersEvaluator(params)
    x = np.array([1.0, 5.0, 20.0], dtype=complex)
    f = evaluator.evaluate(x)
    fp = evaluator.evaluate(x, order=1)
    # d/dy Re f = Re(i f') for analytic f, so the surface condition reads
    # Re(i f' - f) = 0 on the positive real axis.
    residual = np.abs((1j * fp - f).real)
    assert np.max(residual / np.abs(f)) < 1e-8


@pytest.mark.parametrize("condition", ["neumann", "dirichlet"])
def test_solution_satisfies_the_wall_condition(condition):
    alpha = math.pi / 3
    params = SectorParams(alpha, condition)
    evaluator = PetersEvaluator(params)
    z = np.array([1.0, 5.0]) * cmath.exp(-1j * alpha)
    f = evaluator.evaluate(z)
    if condition == "dirichlet":
        assert np.max(np.abs(f.real)) < 1e-8 * np.max(np.abs(f))
    else:
        fp = evaluator.evaluate(z, order=1)
        normal = (-math.sin(alpha)) * fp + (-math.cos(alpha)) * 1j * fp
        assert np.max(np.abs(normal.real)) < 1e-8 * np.max(np.abs(fp))


def test_solution_is_harmonic_inside_the_sector():
    params = SectorParams(math.pi / 3, "neumann")
    evaluator = PetersEvaluator(params)
    z = 2.0 * cmath.exp(-0.4j)
    h = 1e-3
    stencil = evaluator.evaluate(np.array([z + h, z - h, z + 1j * h, z - 1j * h, z]))
    laplacian = (stencil[:4].sum() - 4 * stencil[4]) / h**2
    assert abs(laplacian) < 1e-5


def test_evaluator_rejects_points_outside_its_design():
    params = SectorParams(math.pi / 3, "neumann")
    evaluator = PetersEvaluator(params, xmax=40.0)
    with pytest.raises(ValueError, match="design size"):
        evaluator.evaluate(80.0 + 0j)
    with pytest.raises(ValueError, match="arg z"):
        evaluator.evaluate(1.0 + 1.0j)
    assert abs(complex(eval_peters(params, 60.0))) > 0  # rebuckets instead


def test_sizes_past_the_rounding_limit_are_rejected():
    # the chord amplifies rounding by e^(0.15 |z|): 1e-8 at |z| = 117
    assert 117.0 < XMAX_LIMIT < 118.0
    params = SectorParams(math.pi / 3, "neumann")
    with pytest.raises(ValueError, match="exceeds"):
        PetersEvaluator(params, xmax=120.0)
    assert PetersEvaluator(SectorParams(math.pi / 2), xmax=400.0).evaluate(400.0) != 0
    # the doubling bucket stops at the limit instead of reaching 160
    assert abs(complex(eval_peters(params, 117.0))) > 0
    with pytest.raises(ValueError, match="design size"):
        eval_peters(params, 118.0)


@pytest.mark.parametrize("denominator", [3, 4, 5])
@pytest.mark.parametrize("condition", ["neumann", "dirichlet"])
def test_far_field_phase_matches_the_closed_form(peters_fits, condition, denominator):
    params, fit = peters_fits[(condition, denominator)]
    assert abs(wrap_angle(fit.phase - params.chi)) < 1e-3
    assert 1.9 < fit.amplitude < 2.1


@pytest.mark.parametrize("denominator,expected", [(3, -1.5), (5, -2.5)])
def test_neumann_remainder_decays_like_minus_mu(peters_fits, denominator, expected):
    params, fit = peters_fits[("neumann", denominator)]
    assert params.mu == pytest.approx(-expected, abs=1e-12)
    assert fit.decay_exponent == pytest.approx(expected, abs=0.3)
    assert fit.offset == 0


@pytest.mark.parametrize("denominator", [3, 5])
def test_dirichlet_remainder_decays_like_minus_two_mu_minus_one(peters_fits, denominator):
    # The Dirichlet remainder decays like x^(-2 mu).  With the plane wave
    # 2 e^{i chi} e^{-ix} and the constant -2i sqrt(mu) subtracted, the
    # pointwise log-log slope of the remainder at x = 25..40 tends to
    # -2 mu (-3.05 at mu = 3/2, -5.2 at mu = 5/2).  The -(2 mu + 1) once
    # pinned here was a bias of a fit that let the constant absorb the
    # tail of the remainder; the name is kept so the test id stays.
    params, fit = peters_fits[("dirichlet", denominator)]
    assert fit.decay_exponent == pytest.approx(-2 * params.mu, abs=0.3)
    assert abs(fit.offset) > 1.0


@pytest.mark.parametrize("denominator", [4.5, 3.3])
@pytest.mark.parametrize("condition", ["neumann", "dirichlet"])
def test_decay_exponent_off_the_criterion_angles(condition, denominator):
    # Regression for a fit whose constant soaked up the remainder's tail:
    # it reported -5.44 and -4.26 for the Dirichlet cases here.
    params = SectorParams(math.pi / denominator, condition)
    x = np.linspace(40.0 / 200, 40.0, 200)
    fit = far_field_fit(params, x, eval_peters(params, x))
    target = -params.mu if condition == "neumann" else -2 * params.mu
    assert fit.decay_exponent == pytest.approx(target, abs=0.3)


@pytest.mark.parametrize("condition", ["neumann", "dirichlet"])
def test_integer_mu_remainder_is_exponential(peters_fits, condition):
    # At alpha = pi/4 the power-law coefficient vanishes (mu = 2) and the
    # remainder collapses exponentially; the log-log slope saturates far
    # below any algebraic rate.
    _, fit = peters_fits[(condition, 4)]
    assert fit.decay_exponent < -10.0


def test_far_field_fit_validation():
    params = SectorParams(math.pi / 3, "neumann")
    x = np.linspace(1.0, 10.0, 8)
    with pytest.raises(ValueError, match="at least 16"):
        far_field_fit(params, x, np.exp(-1j * x))
    x = np.linspace(1.0, 10.0, 32)
    with pytest.raises(ValueError, match="increasing"):
        far_field_fit(params, x[::-1], np.exp(-1j * x))
    # a pure plane wave leaves no remainder above rounding level; the CLI
    # reports this ArithmeticError as a numerical failure (exit 1)
    with pytest.raises(FloatingPointError, match="usable"):
        far_field_fit(params, x, np.exp(-1j * x))


def test_wave_coefficient_round_trip():
    fit = FarFieldFit(amplitude=2.0, phase=0.5, decay_exponent=-1.5, offset=0j)
    assert fit.wave_coefficient == pytest.approx(2.0 * cmath.exp(0.5j), abs=1e-15)


def test_evaluation_is_deterministic():
    params = SectorParams(math.pi / 5, "neumann")
    x = np.linspace(0.5, 30.0, 64)
    assert np.array_equal(eval_peters(params, x), eval_peters(params, x))


# Values frozen from the level-by-level tanh-sinh sums that preceded the
# nested driver; the two agree to a few units in 1e-13.
FROZEN_PETERS = {
    (3, "neumann", 1.0): 0.5909213171088443 - 1.5866961909846737j,
    (3, "neumann", 5.0 - 2.0j): 0.14760204957716525 + 0.276464604656791j,
    (3, "neumann", 20.0): 0.05591743608267912 - 1.9911935317336689j,
    (5, "dirichlet", 0.5): 0.13636825785686363 - 0.020466469664660952j,
    (5, "dirichlet", 3.0 - 1.0j): 0.6650394369999096 - 3.178591627357377j,
    (5, "dirichlet", 35.0): 1.3420885545037724 - 4.645112694078461j,
}


@pytest.mark.parametrize("denominator,condition,z", list(FROZEN_PETERS))
def test_evaluation_matches_frozen_values(denominator, condition, z):
    value = complex(eval_peters(SectorParams(math.pi / denominator, condition), z))
    assert abs(value - FROZEN_PETERS[(denominator, condition, z)]) < 1e-12


@pytest.fixture
def g_calls(monkeypatch):
    """Alphas of the g_alpha_continued calls made, starting from an empty piece cache."""
    calls = []
    original = peters.g_alpha_continued

    def counting(alpha, *args):
        calls.append(alpha)
        return original(alpha, *args)

    monkeypatch.setattr(peters, "g_alpha_continued", counting)
    peters._contour_piece.cache_clear()
    yield calls
    peters._contour_piece.cache_clear()


def test_mixed_directions_and_evicted_chords_evaluate_bit_identically(g_calls):
    params = SectorParams(math.pi / 3, "dirichlet")
    radii = np.array([0.5, 7.0, 30.0])
    directions = -params.alpha * np.linspace(0.0, 1.0, 66)
    points = radii[None, :] * np.exp(1j * directions)[:, None]
    checked = [0, 33, 64, 65]
    evaluator = PetersEvaluator(params)
    expected = [evaluator.evaluate(points[i]).tobytes() for i in checked]
    peters._contour_piece.cache_clear()
    values = evaluator.evaluate(points.ravel()).reshape(points.shape)
    assert [values[i].tobytes() for i in checked] == expected
    # chords are built from the wall direction up, so the 64-piece cache
    # has dropped the two directions nearest the wall; they are rebuilt
    g_calls.clear()
    assert [evaluator.evaluate(points[i]).tobytes() for i in checked[-2:]] == expected[-2:]
    assert len(g_calls) == 2


def test_piece_cache_stays_bounded_and_drops_the_least_recently_used(g_calls):
    alpha = math.pi / 4
    evaluator = PetersEvaluator(SectorParams(alpha, "neumann"))
    points = 5.0 * np.exp(-1j * alpha * np.linspace(0.0, 1.0, 70))
    first = evaluator.evaluate(points[:1]).tobytes()
    for z in points[1:]:
        evaluator.evaluate(z)
        assert peters._contour_piece.cache_info().currsize <= 64
    assert len(g_calls) == 2 + 70
    g_calls.clear()
    assert evaluator.evaluate(points[-1:]).size == 1
    assert g_calls == []
    # every direction used the two rays, so they outlived the first chord
    assert evaluator.evaluate(points[:1]).tobytes() == first
    assert g_calls == [alpha]


def test_repeated_eval_peters_calls_reuse_the_cached_contour(g_calls):
    alpha = 2 * math.pi / 7
    x = np.linspace(0.5, 30.0, 40)
    first = eval_peters(SectorParams(alpha, "neumann"), x)
    assert len(g_calls) == 2 + 1
    g_calls.clear()
    assert eval_peters(SectorParams(alpha, "neumann"), x).tobytes() == first.tobytes()
    eval_peters(SectorParams(alpha, "dirichlet"), x)
    assert g_calls == []


def _sector_values(evaluator, alpha):
    radii = np.array([0.5, 7.0, 30.0])
    return [
        evaluator.evaluate(radii * cmath.exp(-1j * alpha * frac), order=order).tobytes()
        for frac in (0.0, 0.5, 1.0)
        for order in (0, 1, 2)
    ]


@pytest.mark.parametrize("first", ["neumann", "dirichlet"])
def test_both_wall_conditions_share_one_g_per_contour_piece(g_calls, first):
    alpha = math.pi / 3
    cold = {}
    for condition in ("neumann", "dirichlet"):
        peters._contour_piece.cache_clear()
        cold[condition] = _sector_values(PetersEvaluator(SectorParams(alpha, condition)), alpha)
    peters._contour_piece.cache_clear()
    g_calls.clear()
    second = "dirichlet" if first == "neumann" else "neumann"
    for condition in (first, second):
        assert _sector_values(PetersEvaluator(SectorParams(alpha, condition)), alpha) == cold[condition]
    # the two ray legs and one chord per evaluation direction, once each
    assert len(g_calls) == 2 + 3
    # once 64 pieces of another sector have pushed every piece out,
    # rebuilding the first one repeats the computation bit for bit
    other = math.pi / 5
    PetersEvaluator(SectorParams(other, "neumann")).evaluate(np.exp(-1j * other * np.linspace(0.0, 1.0, 62)))
    assert peters._contour_piece.cache_info().currsize == 64
    g_calls.clear()
    assert _sector_values(PetersEvaluator(SectorParams(alpha, second)), alpha) == cold[second]
    assert g_calls == [alpha] * 5
