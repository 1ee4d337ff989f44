"""Sector solutions of the sloshing problem with a Robin surface condition.

For an infinite wedge of half-angle alpha below the horizontal, the model
solution is a function f analytic in the sector -alpha <= arg z <= 0 whose
real part satisfies the surface condition d(Re f)/dy = Re f on the positive
real axis together with a Neumann or Dirichlet condition on the sloped wall.
It is given by a keyhole-contour integral

    f(z) = (mu^(1/2)/(i pi)) * int_P g_alpha(zeta)/(zeta + i) [zeta^(-mu)] e^(z zeta) dzeta,

with mu = pi/(2 alpha) and the bracket present only in the Dirichlet case.
The contour P runs in from infinity along one side of the ray at angle
pi + alpha/2, around the circle |zeta| = 2, and back out along the other
side; g_alpha on the path comes from `contour.g_alpha_continued`.

Far from the corner, f approaches a decaying-free plane wave
A e^{-i(z - chi)} whose phase chi = pi/4 (1 -/+ pi/(2 alpha)) carries the
spectral information; the amplitude A has no closed form and is only ever
fitted.

The straight segment of the circle crossing the right half-plane replaces
the arc there: on the arc, |e^(z zeta)| reaches e^(2|z|), and the resulting
cancellation at |z| = 40 would cost half the double-precision mantissa.
The chord is placed at Re(zeta e^(i arg z)) = _CHORD_ABSCISSA, capping
amplification at e^(_CHORD_ABSCISSA |z|) while keeping the pole at -i and
the branch arc of g_alpha on its far side.

The discretization is fixed: the circle has radius _CIRCLE_RADIUS, the rays
extend with geometrically growing panels up to _TRUNCATION_RADIUS, and the
arc and chord node density is _NODES_PER_UNIT, scaled with the largest |z|
to be evaluated.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

# exp_neg_I_continued stays bound here: perfbench's self-test expects its
# tracer to find the name in this module
from .contour import _panel_nodes, exp_neg_I_continued, g_alpha_continued  # noqa: F401

_CHORD_ABSCISSA = 0.15
_CIRCLE_RADIUS = 2.0
_TRUNCATION_RADIUS = 1e12
_NODES_PER_UNIT = 48.0


@dataclass(frozen=True)
class SectorParams:
    """Wedge half-angle and wall condition for a sector solution."""

    alpha: float
    condition: str = "neumann"

    def __post_init__(self):
        if not 0 < self.alpha <= math.pi / 2 + 1e-12:
            raise ValueError("alpha must lie in (0, pi/2]")
        if self.condition not in ("neumann", "dirichlet"):
            raise ValueError("condition must be 'neumann' or 'dirichlet'")

    @property
    def mu(self):
        return math.pi / (2 * self.alpha)

    @property
    def chi(self):
        """Far-field phase shift of the outgoing plane wave."""
        if self.condition == "neumann":
            return (math.pi / 4) * (1 - self.mu)
        return (math.pi / 4) * (1 + self.mu)


class PetersEvaluator:
    """Evaluates one sector solution at points of the closed sector.

    The contour pieces that do not depend on the evaluation point (the two
    ray legs) are discretized once, including the analytic continuation of
    g_alpha along them; the circle-plus-chord piece depends on arg z and is
    cached per direction.  `xmax` is the largest |z| the discretization is
    tuned for; larger arguments are rejected rather than silently
    under-resolved.
    """

    def __init__(self, params, xmax=40.0):
        self.params = params
        self.xmax = float(xmax)
        self.closed_form = abs(params.alpha - math.pi / 2) < 1e-12
        if self.closed_form:
            return
        # the cut between the two rays bisects the sector between the walls
        self._theta_cut = math.pi + params.alpha / 2
        self._gtol = 1e-12
        self._chord_cache = {}
        self._build_rays()

    # -- path construction -------------------------------------------------

    def _build_rays(self):
        first = min(0.5, 10.0 / self.xmax)
        breaks = [_CIRCLE_RADIUS]
        while breaks[-1] < _TRUNCATION_RADIUS:
            step = max(first, 0.7 * (breaks[-1] - _CIRCLE_RADIUS))
            breaks.append(min(breaks[-1] + step, _TRUNCATION_RADIUS))
        breaks = np.asarray(breaks)
        r, w = _panel_nodes(breaks, 12)
        theta_in = self._theta_cut - 2 * math.pi
        theta_out = self._theta_cut
        self._ray_r = r
        # in-leg traversed from infinity toward the circle, out-leg back out
        self._ray_w_in = -w * cmath.exp(1j * theta_in)
        self._ray_w_out = w * cmath.exp(1j * theta_out)
        self._ray_g_in = g_alpha_continued(self.params.alpha, r, np.full(r.shape, theta_in), self._gtol)
        self._ray_g_out = g_alpha_continued(self.params.alpha, r, np.full(r.shape, theta_out), self._gtol)
        self._ray_zeta_in = r * cmath.exp(1j * theta_in)
        self._ray_zeta_out = r * cmath.exp(1j * theta_out)
        self._ray_theta_in = np.full(r.shape, theta_in)
        self._ray_theta_out = np.full(r.shape, theta_out)

    def _chord_pieces(self, phi):
        """Arcs and chord for evaluation direction phi = arg z (cached)."""
        key = round(phi, 12)
        piece = self._chord_cache.get(key)
        if piece is not None:
            return piece
        R = _CIRCLE_RADIUS
        theta_c = math.acos(_CHORD_ABSCISSA / R)
        lo = -phi - theta_c
        hi = -phi + theta_c
        density = _NODES_PER_UNIT * max(self.xmax, 1.0) / 40.0 / 16.0
        zetas, weights, thetas = [], [], []
        for a, b in ((self._theta_cut - 2 * math.pi, lo), (hi, self._theta_cut)):
            panels = max(6, math.ceil(R * (b - a) * density))
            th, w = _panel_nodes(np.linspace(a, b, panels + 1), 16)
            zet = R * np.exp(1j * th)
            zetas.append(zet)
            weights.append(w * 1j * zet)  # dzeta = i R e^{i th} dth
            thetas.append(th)
        p_lo = R * cmath.exp(1j * lo)
        p_hi = R * cmath.exp(1j * hi)
        # the 1/(zeta + i) pole sits a distance ~_CHORD_ABSCISSA off the
        # chord; panels must stay shorter than twice that for the Gauss
        # rule to converge past it
        panels = max(
            6,
            math.ceil(abs(p_hi - p_lo) * density),
            math.ceil(abs(p_hi - p_lo) / (2 * _CHORD_ABSCISSA)),
        )
        s, w = _panel_nodes(np.linspace(0.0, 1.0, panels + 1), 16)
        zet = p_lo + s * (p_hi - p_lo)
        zetas.insert(1, zet)
        weights.insert(1, w * (p_hi - p_lo))
        thetas.insert(1, np.angle(zet))
        zeta = np.concatenate(zetas)
        weight = np.concatenate(weights)
        theta = np.concatenate(thetas)
        piece = (zeta, weight, g_alpha_continued(self.params.alpha, np.abs(zeta), theta, self._gtol), theta)
        self._chord_cache[key] = piece
        if len(self._chord_cache) > 64:
            self._chord_cache.pop(next(iter(self._chord_cache)))
        return piece

    # -- evaluation ---------------------------------------------------------

    def _closed_form_values(self, z, order):
        f = np.exp(-1j * z)
        if self.params.condition == "dirichlet":
            f = 1j * f
        return f * (-1j) ** order

    def _piece_sum(self, z, zeta, weight, gvals, theta, order):
        mu = self.params.mu
        dens = gvals / (zeta + 1j)
        if self.params.condition == "dirichlet":
            dens = dens * np.exp(-mu * (np.log(np.abs(zeta)) + 1j * theta))
        if order:
            dens = dens * zeta**order
        expz = np.exp(np.multiply.outer(z, zeta))
        return expz @ (weight * dens)

    def evaluate(self, z, order=0):
        """f(z), or its order-th z-derivative, for z in the closed sector."""
        zarr = np.atleast_1d(np.asarray(z, dtype=complex))
        if not np.all(np.isfinite(zarr)):
            raise ValueError("z must be finite")
        if np.any(np.abs(zarr) > self.xmax * (1 + 1e-9)):
            raise ValueError(f"|z| exceeds the discretization design size {self.xmax}")
        if self.closed_form:
            out = self._closed_form_values(zarr, order)
            return complex(out[0]) if np.asarray(z).ndim == 0 else out
        alpha = self.params.alpha
        phi = np.where(np.abs(zarr) == 0, 0.0, np.angle(zarr))
        if np.any(phi > 1e-9) or np.any(phi < -alpha - 1e-9):
            raise ValueError("z must satisfy -alpha <= arg z <= 0")
        phi = np.clip(phi, -alpha, 0.0)
        out = np.zeros(zarr.shape, dtype=complex)
        for key in np.unique(np.round(phi, 12)):
            sel = np.round(phi, 12) == key
            zs = zarr[sel]
            acc = self._piece_sum(
                zs, self._ray_zeta_in, self._ray_w_in, self._ray_g_in,
                self._ray_theta_in, order,
            )
            acc += self._piece_sum(
                zs, self._ray_zeta_out, self._ray_w_out, self._ray_g_out,
                self._ray_theta_out, order,
            )
            zeta, weight, gvals, theta = self._chord_pieces(float(key))
            acc += self._piece_sum(zs, zeta, weight, gvals, theta, order)
            out[sel] = acc * (math.sqrt(self.params.mu) / (1j * math.pi))
        return complex(out[0]) if np.asarray(z).ndim == 0 else out


_EVALUATOR_CACHE = {}


def _cached_evaluator(params, xmax):
    key = (round(params.alpha, 14), params.condition, round(xmax, 6))
    ev = _EVALUATOR_CACHE.get(key)
    if ev is None:
        ev = PetersEvaluator(params, xmax)
        if len(_EVALUATOR_CACHE) > 8:
            _EVALUATOR_CACHE.pop(next(iter(_EVALUATOR_CACHE)))
        _EVALUATOR_CACHE[key] = ev
    return ev


def eval_peters(params, z):
    """Sector solution f at z (scalar or array) in the closed sector.

    A discretized evaluator is built and cached per (params, size
    bucket); the bucket doubles until it covers max |z|, so repeated calls
    at comparable scales reuse the same contour.
    """
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    need = float(np.max(np.abs(zarr))) if zarr.size else 1.0
    xmax = 40.0
    while xmax < need:
        xmax *= 2.0
    ev = _cached_evaluator(params, xmax)
    return ev.evaluate(z)


@dataclass(frozen=True)
class FarFieldFit:
    """Fitted far field A e^{-i(x - phase)} + offset, with residual decay."""

    amplitude: float
    phase: float
    decay_exponent: float
    offset: complex

    @property
    def wave_coefficient(self):
        return self.amplitude * cmath.exp(1j * self.phase)


_EXPONENT_GRID = np.arange(-40.0, 0.0, 0.25)


def _remainder_misfits(t, y, basis, exponents):
    """Misfit of y by span(basis, t^p, t^(p-1)) for each p in `exponents`.

    `basis` has orthonormal columns and `y` is already orthogonal to them.
    The power columns u = t^p and v = t^(p-1) enter through their 2x2 Gram
    matrix after projection, so every p costs a few dot products.
    """
    u = t ** exponents[:, None]
    v = u / t
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    bu, bv = u @ basis.conj(), v @ basis.conj()
    guu = 1.0 - np.sum(abs(bu) ** 2, axis=1)
    gvv = 1.0 - np.sum(abs(bv) ** 2, axis=1)
    guv = np.sum(u * v, axis=1) - np.sum(bu.conj() * bv, axis=1)
    hu, hv = u @ y, v @ y
    explained = (
        gvv * abs(hu) ** 2 + guu * abs(hv) ** 2 - 2 * (guv * hv * hu.conj()).real
    ) / (guu * gvv - abs(guv) ** 2)
    return np.sqrt(np.maximum(np.vdot(y, y).real - explained, 0.0))


def far_field_fit(params, x, values):
    """Fit the far-field decomposition of surface samples.

    The samples are modeled as c e^{-ix} + d + r(x): an outgoing plane
    wave, a constant, and a decaying remainder r(x) = b x^p + b' x^(p-1),
    its leading power with the first correction.  The constant is fitted
    only for a Dirichlet wall, where the solution genuinely carries one
    (purely imaginary up to exponentially small terms, so the physical
    field still decays); a Neumann solution carries none, so its offset
    is 0.  All terms are fitted jointly over the outer half of the
    window, so that neither the constant nor the wave absorbs the tail
    of r: c, d, b and b' by complex linear least squares for each trial
    p, and p by a global grid over [-40, 0) refined around the best
    point.  The decay exponent is that p.  Expected rates: x^(-mu) for
    Neumann, x^(-2 mu) for Dirichlet.  At angles pi/(2q) the remainder
    instead collapses exponentially, and the fitted exponent lands far
    below any power rate.  Samples count as usable where
    |values - c e^{-ix} - d| stays above rounding level; the fit window
    needs 12 of them, so that up to nine real unknowns stay
    over-determined, and fewer raise FloatingPointError.
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=complex)
    if x.ndim != 1 or x.shape != values.shape or x.size < 16:
        raise ValueError("need matching 1d arrays with at least 16 samples")
    if not np.all(np.diff(x) > 0) or x[0] <= 0:
        raise ValueError("x must be increasing and positive")
    window = x >= x[0] + 0.5 * (x[-1] - x[0])
    xw, yw = x[window], values[window]
    fixed = [np.exp(-1j * xw)]
    if params.condition == "dirichlet":
        fixed.append(np.ones(xw.size))
    basis, _ = np.linalg.qr(np.column_stack(fixed))
    t = xw / xw[0]
    y = yw - basis @ (basis.conj().T @ yw)
    grid = _EXPONENT_GRID
    step = grid[1] - grid[0]
    for _ in range(4):
        best = grid[np.argmin(_remainder_misfits(t, y, basis, grid))]
        grid = best + np.linspace(-step, step, 11)
        step /= 5
    cols = fixed + [t**best, t ** (best - 1)]
    sol, *_ = np.linalg.lstsq(np.column_stack(cols), yw, rcond=None)
    coeff = complex(sol[0])
    offset = complex(sol[1]) if len(fixed) > 1 else 0j
    resid = np.abs(yw - coeff * fixed[0] - offset)
    if np.count_nonzero(resid > 1e-13 * abs(coeff)) < 12:
        raise FloatingPointError("too few usable samples for a decay fit")
    return FarFieldFit(abs(coeff), cmath.phase(coeff), float(best), offset)
