"""Sector auxiliary integrals: closed forms, continuation, dual routes."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from sloshspec.model_solutions import contour, peters
from sloshspec.model_solutions.contour import (
    _BASE_STEP,
    _KH_MAX,
    _MAX_LEVEL,
    QuadratureError,
    _tanh_sinh,
    _tanh_sinh_nodes,
    continuation_factor,
    eval_I_alpha,
    eval_J,
    eval_ReJ,
    eval_g_alpha,
    exp_neg_I_continued,
    g_alpha_continued,
    half_plane_I,
)

from _tables import CONTOUR_IM_J

MU_VALUES = (0.75, 1.0, 1.5, 2.0, 3.0)


@pytest.mark.parametrize("mu", MU_VALUES)
def test_re_j_has_the_closed_form(mu):
    closed = math.pi**2 * (1.0 - mu) / 4.0
    assert eval_ReJ(mu) == closed
    assert abs(eval_J(mu).real - closed) < 1e-8


@pytest.mark.parametrize("mu", MU_VALUES)
def test_im_j_matches_frozen_values(mu):
    assert eval_J(mu).imag == pytest.approx(CONTOUR_IM_J[mu], abs=1e-9)
    # The quadrature also matches pi log(2 sqrt(mu)) at every tested mu,
    # the closed form equivalent to |g(-i)| = 1/sqrt(mu).
    assert eval_J(mu).imag == pytest.approx(
        math.pi * math.log(2.0 * math.sqrt(mu)), abs=1e-10
    )


def test_im_j_at_mu_one_is_pi_log_two():
    assert eval_J(1.0).imag == pytest.approx(math.pi * math.log(2.0), abs=1e-10)


def test_j_against_multiprecision_quadrature():
    # Independent route: direct multi-precision integration of the same
    # contour integrand, split at the former endpoint singularity.
    mu = 1.5
    with mpmath.workdps(25):
        ea = mpmath.expj(mpmath.pi / (2 * mu))

        def integrand(t):
            return mpmath.log(1 + t ** (-2 * mu)) * ea / (t**2 - ea**2)

        reference = mpmath.quad(integrand, [0, 1, mpmath.inf])
        reference = complex(reference)
    ours = eval_J(mu)
    assert ours.real == pytest.approx(reference.real, abs=1e-10)
    assert ours.imag == pytest.approx(reference.imag, abs=1e-10)


def test_sector_integral_conjugation_symmetry():
    alpha = math.pi / 3
    for zeta in (0.6 + 0.2j, 1.4 - 0.5j, 3.0 + 1.0j):
        a = eval_I_alpha(alpha, zeta)
        b = eval_I_alpha(alpha, np.conj(zeta))
        assert b == pytest.approx(np.conj(a), abs=1e-11)


def test_stepping_relation_against_half_plane_route():
    alpha = math.pi / 4
    zeta = 0.7 * cmath.exp(0.2j)
    stepped = cmath.exp(-eval_I_alpha(alpha, zeta)) * complex(
        continuation_factor(alpha, zeta)
    )
    rotated = zeta * cmath.exp(2j * alpha)
    direct = cmath.exp(-half_plane_I(alpha, rotated, 0.7))
    assert abs(stepped - direct) < 1e-9
    continued = exp_neg_I_continued(alpha, abs(rotated), cmath.phase(rotated))
    assert abs(complex(continued[0]) - direct) < 1e-9


def test_continuation_handles_multiple_steps():
    # Walking an angle all the way around in 2 alpha steps must agree with
    # the half-plane representation wherever both apply.
    alpha = math.pi / 3
    radius = 0.9
    for angle in (-2.0, 1.8, 2.6):
        continued = complex(exp_neg_I_continued(alpha, radius, angle)[0])
        ray = max(min(angle, alpha - 0.05), -(alpha - 0.05))
        if abs(angle - ray) < math.pi / 2 - 1e-3:
            direct = cmath.exp(
                -half_plane_I(alpha, radius * cmath.exp(1j * angle), ray)
            )
            assert abs(continued - direct) < 1e-9


def test_sector_integral_vanishes_far_out():
    value = eval_I_alpha(math.pi / 4, 1e6 * cmath.exp(0.1j))
    assert abs(value) < 1e-4


def test_g_dual_routes_agree():
    alpha = math.pi / 4
    for radius, angle in ((0.5, -0.9), (0.5, 0.3), (2.0, 1.2)):
        zeta = radius * cmath.exp(1j * angle)
        assert zeta.real > 0
        direct = complex(eval_g_alpha(alpha, zeta))
        continued = complex(g_alpha_continued(alpha, radius, angle)[0])
        assert abs(direct - continued) < 1e-8


def test_g_tends_to_one_at_infinity():
    assert abs(complex(eval_g_alpha(math.pi / 4, 1e4)) - 1.0) < 1e-3


@pytest.mark.parametrize("alpha", [math.pi / 4, math.pi / 3])
def test_g_modulus_at_minus_i_fixed_by_im_j(alpha):
    # The point -i itself is a branch point of the stepping factors, so
    # approach it radially; |g| is linear in (r - 1) with opposite slopes,
    # and the two-sided midpoint converges an order faster.
    mu = math.pi / (2 * alpha)
    expected = 2.0 * math.exp(-eval_J(mu).imag / math.pi)
    inner = abs(complex(g_alpha_continued(alpha, 1.0 - 1e-4, -math.pi / 2)[0]))
    outer = abs(complex(g_alpha_continued(alpha, 1.0 + 1e-4, -math.pi / 2)[0]))
    assert inner == pytest.approx(expected, abs=1e-4)
    assert outer == pytest.approx(expected, abs=1e-4)
    midpoint = 0.5 * (inner + outer)
    assert midpoint == pytest.approx(expected, abs=1e-7)
    assert midpoint == pytest.approx(1.0 / math.sqrt(mu), abs=1e-7)


def test_domain_validation():
    alpha = math.pi / 4
    with pytest.raises(ValueError, match="singular ray"):
        eval_I_alpha(alpha, cmath.exp(1j * alpha))
    with pytest.raises(ValueError):
        eval_I_alpha(alpha, 0.0)
    with pytest.raises(ValueError):
        eval_I_alpha(0.0, 1.0)
    with pytest.raises(ValueError, match="ray"):
        half_plane_I(alpha, 1.0, alpha + 0.1)
    with pytest.raises(ValueError, match="half-plane"):
        half_plane_I(alpha, cmath.exp(2.0j), 0.0)
    with pytest.raises(ValueError, match="Re"):
        eval_g_alpha(alpha, -1.0 + 0.1j)
    with pytest.raises(ValueError):
        eval_J(0.5)
    with pytest.raises(ValueError):
        continuation_factor(alpha, cmath.exp(1j * (math.pi / 2 - alpha)))


def test_quadrature_error_on_impossible_tolerance(monkeypatch):
    monkeypatch.setattr(contour, "_TOL", 0.0)
    with pytest.raises(QuadratureError, match="did not stabilize"):
        eval_I_alpha(math.pi / 4, 0.7 + 0.1j)


# Values frozen from the level-by-level tanh-sinh sums that preceded the
# nested driver; the two agree to rounding.
FROZEN_I = {
    (math.pi / 3, 0.6 + 0.2j): 1.3207552990984714 - 0.3022040652399071j,
    (math.pi / 3, 1.4 - 0.5j): 0.6657866173716842 + 0.20067446596037944j,
    (math.pi / 3, 3.0 + 1.0j): 0.3352095565789233 - 0.10449242617258413j,
    (math.pi / 4, 0.7 + 0.1j): 1.603794057324353 - 0.17034524652986174j,
    (math.pi / 4, 2.0 - 0.3j): 0.6592101838112243 + 0.0908874132623928j,
}
FROZEN_G = {
    (math.pi / 4, 0.5 + 0.2j): 0.3449781659388662 + 0.0873362445414846j,
    (math.pi / 4, 1.0 - 0.8j): 0.5689655172413802 - 0.172413793103448j,
    (math.pi / 4, 2.0 + 1.2j): 0.7126436781609202 + 0.11494252873563195j,
    (math.pi / 3, 0.3 + 0.0j): 0.4746413960121585 + 0j,
    (math.pi / 3, 4.0 - 1.0j): 0.8893117524667475 - 0.022473533900484524j,
}
FROZEN_J = {
    0.75: 0.6168502750680823 + 1.7256961476115973j,
    1.0: -9.61835346860891e-17 + 2.1775860903035955j,
    1.5: -1.2337005501361653 + 2.8144891927633937j,
    2.0: -2.4674011002723315 + 3.266379135455394j,
    3.0: -4.934802200544668 + 3.903282237915197j,
}


@pytest.mark.parametrize("alpha,zeta", list(FROZEN_I))
def test_sector_integral_matches_frozen_values(alpha, zeta):
    assert abs(eval_I_alpha(alpha, zeta) - FROZEN_I[(alpha, zeta)]) < 1e-12


@pytest.mark.parametrize("alpha,zeta", list(FROZEN_G))
def test_g_matches_frozen_values(alpha, zeta):
    assert abs(eval_g_alpha(alpha, zeta) - FROZEN_G[(alpha, zeta)]) < 1e-12


@pytest.mark.parametrize("mu", list(FROZEN_J))
def test_j_matches_frozen_values(mu):
    assert abs(eval_J(mu) - FROZEN_J[mu]) < 1e-12


def test_nested_levels_evaluate_each_abscissa_once():
    seen = []

    def integrand(t):
        seen.append(t)
        return np.log(t)

    with pytest.raises(QuadratureError, match="test integral did not stabilize"):
        _tanh_sinh(integrand, 0.0, "test integral")
    # Together the levels hand over the finest grid, each node once (near
    # t = 1 distinct nodes round to the same abscissa, so compare sorted).
    h = _BASE_STEP / 2**_MAX_LEVEL
    n = int(_KH_MAX / h)
    t = 0.5 * (1.0 + np.tanh((math.pi / 2) * np.sinh(np.arange(-n, n + 1) * h)))
    finest = np.sort(t[(t > 0.0) & (t < 1.0)])
    assert len(seen) == _MAX_LEVEL + 1
    assert np.array_equal(np.sort(np.concatenate(seen)), finest)
    seen.clear()
    # int_0^1 log t dt = -1, endpoint singularity included
    assert _tanh_sinh(integrand, 1e-13, "test integral") == pytest.approx(-1.0, abs=1e-13)


def test_settled_points_drop_out_of_finer_levels():
    calls = []

    def integrand(t, live=...):
        calls.append(live)
        return np.stack([t, np.log(t)], axis=1)[:, live]

    total = _tanh_sinh(integrand, 1e-13, "test integral")
    # t settles after level 1, log t after level 2, as each does alone
    assert calls[:2] == [..., ...] and len(calls) == 3
    assert np.array_equal(calls[2], [1])
    alone = [_tanh_sinh(lambda t: t, 1e-13, "t"), _tanh_sinh(np.log, 1e-13, "log t")]
    assert total == pytest.approx(alone, abs=1e-15)


def test_batch_refines_each_point_as_far_as_it_would_alone(monkeypatch):
    """Nodes of the pi/4 chord piece for direction -pi/8, where a single
    node needs one tanh-sinh level more than the others."""
    pairs = []
    original = contour._tanh_sinh

    def counting(integrand, *args):
        def counted(t, *live):
            values = integrand(t, *live)
            pairs.append(values.size)
            return values

        return original(counted, *args)

    monkeypatch.setattr(contour, "_tanh_sinh", counting)
    alpha = math.pi / 4
    zeta = peters._contour_piece.__wrapped__(alpha, 40.0, ("chord", -math.pi / 8))[0]
    radius, angle = np.abs(zeta), np.unwrap(np.angle(zeta))
    pairs.clear()
    batch = exp_neg_I_continued(alpha, radius, angle)
    batch_pairs = sum(pairs)
    pairs.clear()
    alone = np.array([exp_neg_I_continued(alpha, r, a)[0] for r, a in zip(radius, angle)])
    assert batch_pairs == sum(pairs)
    assert np.max(np.abs(batch - alone)) < 1e-14


def mp_sector_integral(alpha, zeta, ray):
    """I_alpha(zeta) by mpmath along the ray at angle `ray`, with the
    principal power (s e^{i ray})^(-2 mu) = s^(-2 mu) e^(-2 i mu ray)."""
    mu = mpmath.pi / (2 * mpmath.mpf(alpha))
    e = mpmath.expj(ray)
    turn = mpmath.expj(-2 * mu * ray)
    z = mpmath.mpc(zeta)

    def integrand(s):
        return mpmath.log(1 + s ** (-2 * mu) * turn) * z * e / (s**2 * e**2 + z**2)

    return mpmath.quad(integrand, [0, 1, mpmath.inf]) / mpmath.pi


@pytest.mark.parametrize("side", [1, -1])
def test_sector_integral_next_to_the_sector_edge_matches_mpmath(side):
    # Within 1e-6 of the edge 2 mu |ray| approaches pi, where the split of
    # the (0, 1] leg's log(1 + X) into log X + log(1 + 1/X) is tightest;
    # exp_neg_I_continued clips these points' ray to alpha - 1e-6.
    alpha = math.pi / 3
    angle = side * (alpha - 5e-7)
    ray = side * (alpha - 1e-6)
    for radius in (0.4, 3.0):
        zeta = radius * cmath.exp(1j * angle)
        with mpmath.workdps(30):
            own_ray = complex(mp_sector_integral(alpha, zeta, angle))
            clipped = complex(mpmath.exp(-mp_sector_integral(alpha, zeta, ray)))
        assert abs(eval_I_alpha(alpha, zeta) - own_ray) < 1e-12
        assert abs(complex(exp_neg_I_continued(alpha, radius, angle)[0]) - clipped) < 1e-12


def test_sector_integral_where_the_leading_log_is_huge_matches_mpmath():
    # At mu = 6 the (0, 1] leg's |X| = t^(-2 mu) passes e^300 on the
    # abscissae t < e^-25, which the driver samples from its first level,
    # and that stretch carries far more than the tolerance.
    alpha = math.pi / 12
    mu = math.pi / (2 * alpha)
    t_huge = math.exp(-300 / (2 * mu))
    assert np.min(_tanh_sinh_nodes(0)[0]) < t_huge
    zeta = 0.4 * cmath.exp(0.3j * alpha)
    with mpmath.workdps(30):
        tail = mpmath.quad(lambda s: mpmath.log(1 + s ** (-2 * mu)), [0, t_huge])
        assert tail / math.pi * abs(1 / zeta) > 1e-9
        direct = complex(mp_sector_integral(alpha, zeta, 0.3 * alpha))
        # angle 1.0 steps twice by 2 alpha down to the base angle
        angle, radius = 1.0, 0.4
        base = angle - 4 * alpha
        stepped = mpmath.exp(-mp_sector_integral(alpha, radius * cmath.exp(1j * base), base))
        for j in (1, 2):
            ue = radius * mpmath.expj(angle - 2 * alpha * j + alpha)
            stepped *= (ue + 1j) / (ue - 1j)
        stepped = complex(stepped)
    assert abs(eval_I_alpha(alpha, zeta) - direct) < 1e-12
    assert abs(complex(exp_neg_I_continued(alpha, radius, angle)[0]) - stepped) < 1e-12


def complex_log_ray_integrand(alpha, zeta, ray):
    """_i_ray's integrand with one complex np.log per (node, point) pair,
    and the magnitudes of the two legs' kernel factors."""
    mu = math.pi / (2 * alpha)
    e, z2, turn = np.exp(1j * ray), zeta**2, np.exp(-2j * mu * ray)

    def integrand(t):
        tc = t[:, None]
        logt = np.log(tc)
        lead2 = np.log(1.0 + np.exp(2 * mu * logt) * turn)
        lead = -2 * mu * (logt + 1j * ray) + lead2.conj()
        k1, k2 = zeta * e / (tc**2 * e**2 + z2), zeta * e / (e**2 + z2 * tc**2)
        return lead * k1 + lead2 * k2, np.abs(k1) + np.abs(k2)

    return integrand


@pytest.mark.parametrize("alpha", np.linspace(math.pi / 8 + 0.01, math.pi / 2 - 0.05, 7))
def test_ray_integrand_takes_the_complex_logarithm_from_real_parts(monkeypatch, alpha):
    """Either way log(1 + x e^(i phi)) is off by rounding of order 1e-16,
    absolute, which each leg's kernel factor multiplies: next to a pole,
    or at |zeta| t near 1 for large |zeta|, that factor reaches 1e3."""
    captured = []
    monkeypatch.setattr(contour, "_tanh_sinh", lambda integrand, *args: captured.append(integrand))
    edge = alpha - 1e-6
    ray = np.repeat(np.linspace(-edge, edge, 9), 5)
    # radii 1e-3 .. 1e3, on the ray and up to 80 degrees off it on either side
    zeta = np.geomspace(1e-3, 1e3, ray.size) * np.exp(1j * (ray + np.tile(np.linspace(-1.4, 1.4, 5), 9)))
    contour._i_ray(alpha, zeta, ray)
    reference = complex_log_ray_integrand(alpha, zeta, ray)
    for level in range(contour._MAX_LEVEL + 1):
        t = contour._tanh_sinh_nodes(level)[0]
        value = captured[0](t)
        expected, kernels = reference(t)
        assert np.all(np.abs(value - expected) <= 1e-15 * (1 + np.abs(value) + kernels))
