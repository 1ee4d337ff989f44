"""Auxiliary functions for the sector solutions, evaluated by quadrature.

The central object is

    I_alpha(zeta) = (1/pi) * int_0^{zeta inf} log(1 + v^(-2 mu)) zeta/(v^2 + zeta^2) dv,

with mu = pi/(2 alpha), integrated along the ray through zeta and defined
for |arg zeta| < alpha.  Everything else derives from it:

* exp(-I) continues across the ray arg zeta = alpha by the exact relation
  exp(-I(zeta e^{2 i alpha})) = exp(-I(zeta)) * (zeta e^{i alpha} + i)/(zeta e^{i alpha} - i),
  which steps the evaluation sector by sector around the plane;
* g_alpha(zeta) = exp(-I_alpha(zeta e^{-i alpha})) * (zeta + i)/zeta, with an
  independent right-half-plane integral representation used for
  cross-checking;
* J(mu), whose real part has the closed form pi^2 (1 - mu)/4 and whose
  imaginary part fixes |g_alpha(-i)|.

Quadrature is tanh-sinh on (0, 1) after splitting each half-line at 1 and
inverting the tail, refined by halving the step until the result is stable
to the absolute tolerance `_TOL`, point by point: a point that has
settled drops out of the finer levels.  The levels are nested: each one adds
only the new nodes halfway between the previous ones and reuses the
previous sum, so no node is evaluated twice.  The double-exponential nodes
absorb the logarithmic endpoint singularities without special casing.
The two legs share one logarithm per node: the (0, 1] leg's log(1 + X),
X = (t e^{i ray})^(-2 mu), is exactly log X plus the conjugate of the
inverted leg's log(1 + t^(2 mu) e^(-2 i mu ray)), and that one is taken
from its real and imaginary parts, a real logarithm and an arctan2, with
no complex logarithm (see `_i_ray`).

Composite Gauss-Legendre panels (`_panel_nodes`) discretize the smooth
contours built on these functions.
"""

import cmath
import math
from functools import lru_cache

import numpy as np

_KH_MAX = 4.0
_BASE_STEP = 0.25
_MAX_LEVEL = 6
_EDGE_MARGIN = 1e-8
# absolute tolerance at which tanh-sinh stops refining a point; the
# right-half-plane g representation, a cross-check route, stops at _G_TOL
_TOL = 1e-12
_G_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Raised when a quadrature fails to reach the requested tolerance."""


def _tanh_sinh_nodes(level):
    """Nodes and weights for int_0^1 f(t) dt that first appear at `level`.

    Level 0 holds every node of step _BASE_STEP; each later level halves
    the step and holds only its odd multiples, the nodes new to it.
    """
    h = _BASE_STEP / 2**level
    n = int(_KH_MAX / h)
    k = np.arange(-n, n + 1) if level == 0 else np.arange(1 - n, n, 2)
    u = (math.pi / 2) * np.sinh(k * h)
    t = 0.5 * (1.0 + np.tanh(u))
    w = h * (math.pi / 4) * np.cosh(k * h) / np.cosh(u) ** 2
    keep = (t > 0.0) & (t < 1.0) & (w > 1e-280)
    return t[keep], w[keep]


def _tanh_sinh(integrand, tol, what, finish=lambda total: total):
    """finish(int_0^1 integrand(t) dt) by nested tanh-sinh levels.

    `integrand(t)` maps a 1d array of abscissae to values whose leading
    axis runs over them and whose other axis, if any, runs over points.
    Halving the step halves the weights of the nodes already summed, so
    each level is half the previous sum plus the new nodes.  Each point
    stops refining once `finish` of its two consecutive levels agrees to
    `tol`, at the level it would stop at integrated alone, so one hard
    point does not refine the others; once some have stopped, later
    levels call `integrand(t, live)` for the indices `live` of the points
    still refining.
    """
    acc = total = None
    live = ...
    for level in range(_MAX_LEVEL + 1):
        t, w = _tanh_sinh_nodes(level)
        part = np.tensordot(w, integrand(t) if live is ... else integrand(t, live), axes=1)
        if acc is None:
            acc, total = np.array(part), np.array(finish(part))
            continue
        acc[live] = 0.5 * acc[live] + part
        new = finish(acc[live])
        settled = np.abs(new - total[live]) < tol
        total[live] = new
        if np.all(settled):
            return total[()]
        if np.any(settled):
            live = np.flatnonzero(~settled) if live is ... else live[~settled]
    raise QuadratureError(f"{what} did not stabilize to {tol:g}")


@lru_cache(maxsize=8)
def _gauss(n):
    return np.polynomial.legendre.leggauss(n)


def _panel_nodes(breaks, n):
    """Gauss-Legendre nodes/weights on consecutive intervals of `breaks`."""
    x, w = _gauss(n)
    a = breaks[:-1]
    b = breaks[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel()
    return nodes, weights


def _log_mu_ratio(mu, u):
    """log((1 - e^{-2 mu u})/(1 - e^{-2 u})), smooth through u = 0.

    This is the integrand factor of the right-half-plane g representation
    written in u = log t.  The ratio tends to mu at u = 0 and the three
    branches below cover tiny, moderate, and strongly negative u without
    overflow; u is real.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    tiny = np.abs(u) < 1e-12
    low = u <= -0.1
    mid = ~(tiny | low)
    out[tiny] = math.log(mu)
    um = u[mid]
    out[mid] = np.log(np.expm1(-2 * mu * um) / np.expm1(-2 * um))
    ul = u[low]
    out[low] = (2 - 2 * mu) * ul + np.log1p(-np.exp(2 * mu * ul)) - np.log1p(
        -np.exp(2 * ul)
    )
    return out


def _i_ray(alpha, zeta, ray):
    """I_alpha at points zeta integrated along per-point ray angles.

    Valid whenever |arg zeta - ray| < pi/2 and |ray| < alpha; the caller is
    responsible for choosing legal rays.  Vectorized over zeta.

    The (0, 1] leg's log(1 + X), X = (t e^{i ray})^(-2 mu), is taken as
    log X + log(1 + 1/X) = -2 mu (log t + i ray) + conj(lead2), where
    lead2 = log(1 + t^(2 mu) e^(-2 i mu ray)) is the inverted leg's term.
    The split holds on the principal branch because |arg X| = 2 mu |ray|
    < pi and |1/X| = t^(2 mu) < 1, and huge |X| near t = 0 never has to
    be formed.  lead2 itself comes from real parts: with x = t^(2 mu) and
    phi = -2 mu ray, 1 + x e^(i phi) = re + i im, re = 1 + x cos phi >= 1 - x
    > 0, so its principal logarithm is log(re^2 + im^2)/2 + i arctan2(im, re)
    and no complex logarithm is taken.
    """
    mu = math.pi / (2 * alpha)
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    ray = np.broadcast_to(np.asarray(ray, dtype=float), zeta.shape)
    e = np.exp(1j * ray)
    ze, e2, z2 = zeta * e, e**2, zeta**2
    turn = np.exp(-2j * mu * ray)

    def integrand(t, live=...):
        ray_, ze_, e2_, z2_, turn_ = (a[live] for a in (ray, ze, e2, z2, turn))
        tc = t[:, None]
        logt = np.log(tc)
        # leg along [1, inf), inverted with s = 1/t
        x = np.exp(2 * mu * logt)
        re = 1.0 + x * turn_.real
        im = x * turn_.imag
        lead2 = np.empty(im.shape, dtype=complex)
        lead2.real = 0.5 * np.log(re * re + im * im)
        lead2.imag = np.arctan2(im, re)
        del re, im
        # leg along (0, 1]: -2 mu (log t + i ray) + conj(lead2), part by part
        lead = np.empty_like(lead2)
        lead.real = lead2.real - 2 * mu * logt
        lead.imag = -2 * mu * ray_ - lead2.imag
        # one leg's product at a time: fewer (nodes x points) arrays are
        # live at once, so each level faults fewer fresh pages in
        lead = lead * (ze_ / (tc**2 * e2_ + z2_))
        lead2 = lead2 * (ze_ / (e2_ + z2_ * tc**2))
        lead += lead2
        return lead

    return _tanh_sinh(integrand, _TOL, "ray integral", lambda total: total / math.pi)


def eval_I_alpha(alpha, zeta):
    """The auxiliary sector integral at points with |arg zeta| < alpha.

    Integrates along the ray through each point, which keeps the kernel
    poles at maximal distance.  Points within 1e-8 radians of the sector
    edges are rejected; continuation beyond the sector belongs to the
    exp(-I) stepping relation, not to this integral.
    """
    if not 0 < alpha < math.pi:
        raise ValueError("alpha must lie in (0, pi)")
    arr = np.atleast_1d(np.asarray(zeta, dtype=complex))
    if not np.all(np.isfinite(arr)) or np.any(arr == 0):
        raise ValueError("zeta must be finite and nonzero")
    ang = np.angle(arr)
    if np.any(alpha - np.abs(ang) < _EDGE_MARGIN):
        raise ValueError("zeta lies on or within 1e-8 of the singular ray")
    out = _i_ray(alpha, arr, ang)
    if np.asarray(zeta).ndim == 0:
        return complex(out[0])
    return out


def half_plane_I(alpha, zeta, ray):
    """Analytic continuation of I_alpha via a fixed off-point ray.

    With the ray pinned at |ray| < alpha, the representation stays valid
    for arg zeta anywhere in (ray - pi/2, ray + pi/2), reaching beyond the
    primary sector.  Used as the independent route when testing the
    stepping relation.
    """
    if abs(ray) >= alpha:
        raise ValueError("ray must satisfy |ray| < alpha")
    arr = np.atleast_1d(np.asarray(zeta, dtype=complex))
    gap = np.abs(np.angle(arr * np.exp(-1j * ray)))
    if np.any(gap >= math.pi / 2 - 1e-10):
        raise ValueError("zeta outside the half-plane covered by this ray")
    out = _i_ray(alpha, arr, np.full(arr.shape, float(ray)))
    if np.asarray(zeta).ndim == 0:
        return complex(out[0])
    return out


def continuation_factor(alpha, u):
    """The stepping factor (u e^{i alpha} + i)/(u e^{i alpha} - i)."""
    ue = np.asarray(u, dtype=complex) * cmath.exp(1j * alpha)
    if np.any(np.abs(ue - 1j) < 1e-8) or np.any(np.abs(ue + 1j) < 1e-8):
        raise ValueError("continuation step lands on a branch point")
    return (ue + 1j) / (ue - 1j)


def exp_neg_I_continued(alpha, radius, angle):
    """exp(-I_alpha) at polar points (radius, angle), any angle.

    Angles are taken literally (no re-wrapping), so the two sides of a
    branch cut can be addressed by passing angles differing by 2 pi.  The
    argument is reduced into the primary sector in steps of 2 alpha; each
    step multiplies by the exact factor of `continuation_factor`, under
    which exp(-I) is single-valued.
    """
    radius = np.atleast_1d(np.asarray(radius, dtype=float))
    angle = np.broadcast_to(np.asarray(angle, dtype=float), radius.shape).copy()
    n = np.floor((angle + alpha) / (2 * alpha)).astype(int)
    base_angle = angle - 2 * alpha * n
    ray = np.clip(base_angle, -(alpha - 1e-6), alpha - 1e-6)
    base_pts = radius * np.exp(1j * base_angle)
    k = np.exp(-_i_ray(alpha, base_pts, ray))
    for j in range(1, int(n.max(initial=0)) + 1):
        mask = n >= j
        u = radius[mask] * np.exp(1j * (angle[mask] - 2 * alpha * j))
        k[mask] *= continuation_factor(alpha, u)
    for j in range(0, -int(n.min(initial=0))):
        mask = n <= -(j + 1)
        u = radius[mask] * np.exp(1j * (angle[mask] + 2 * alpha * j))
        k[mask] /= continuation_factor(alpha, u)
    return k


def g_alpha_continued(alpha, radius, angle):
    """g_alpha at polar points via the stepping continuation of exp(-I)."""
    zeta = np.atleast_1d(radius * np.exp(1j * np.asarray(angle, dtype=float)))
    k = exp_neg_I_continued(alpha, radius, np.asarray(angle, dtype=float) - alpha)
    return k * (zeta + 1j) / zeta


def eval_g_alpha(alpha, zeta):
    """Right-half-plane representation of g_alpha.

    Evaluates exp(-(1/pi) int_0^inf log((1 - t^{-2 mu})/(1 - t^{-2}))
    zeta/(t^2 + zeta^2) dt).  The integrand's ratio is smooth through
    t = 1 (limit mu) and is computed there via expm1; the integral is
    split at 1 with the tail inverted.  Only Re zeta > 0 is accepted;
    elsewhere use the continuation route.
    """
    if not 0 < alpha < math.pi:
        raise ValueError("alpha must lie in (0, pi)")
    mu = math.pi / (2 * alpha)
    arr = np.atleast_1d(np.asarray(zeta, dtype=complex))
    if np.any(arr.real <= 0):
        raise ValueError("eval_g_alpha requires Re(zeta) > 0")
    z2 = arr**2

    def integrand(t, live=...):
        # u = log of the physical abscissa; the tail leg substitutes
        # t -> 1/t so its u is positive, the head leg's is negative.
        u = np.log(t)
        tc = t[:, None]
        head = _log_mu_ratio(mu, u)[:, None] * (arr[live] / (tc**2 + z2[live]))
        tail = _log_mu_ratio(mu, -u)[:, None] * (arr[live] / (1.0 + z2[live] * tc**2))
        return head + tail

    total = _tanh_sinh(integrand, _G_TOL, "g integral", lambda acc: np.exp(-acc / math.pi))
    if np.asarray(zeta).ndim == 0:
        return complex(total[0])
    return total


def eval_J(mu):
    """The corner-constant integral J(mu), computed by quadrature.

    J(mu) = int_0^inf log(1 + t^{-2 mu}) e^{i pi/(2 mu)}/(t^2 - e^{i pi/mu}) dt.
    Its imaginary part fixes the modulus of g_alpha(-i); its real part has
    the closed form pi^2 (1 - mu)/4 returned by eval_ReJ.
    """
    if not mu > 0.5:
        raise ValueError("mu must exceed 1/2")
    a = math.pi / (2 * mu)
    ea = cmath.exp(1j * a)

    def integrand(t):
        logt = np.log(t)
        # log(1 + t^(-2 mu)) split as in _i_ray, with ray = 0
        lead2 = np.log1p(np.exp(2 * mu * logt))
        lead = -2 * mu * logt + lead2
        return lead * (ea / (t**2 - ea**2)) + lead2 * (ea / (1.0 - t**2 * ea**2))

    return complex(_tanh_sinh(integrand, _TOL, "J integral"))


def eval_ReJ(mu):
    """Closed form pi^2 (1 - mu)/4 for Re J(mu), mu > 1/2."""
    if not mu > 0.5:
        raise ValueError("mu must exceed 1/2")
    return math.pi**2 * (1.0 - mu) / 4.0
