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
side; g_alpha on the path comes from `contour.g_alpha_continued`.  Each
piece of P (the two ray legs, and the arcs and chord of one evaluation
direction) is held as its Gauss nodes zeta and weighted densities
w g_alpha(zeta)/(zeta + i) [zeta^(-mu)], so f(z) is a sum over the pieces
of e^(z zeta) against them.  The path depends on alpha, the design size
and the evaluation direction, never on the wall condition, so
`_contour_piece` computes g_alpha once per piece for a sector's Neumann
and Dirichlet solutions alike.  It is the module's one cache: the 64
pieces used last, least recently used out first.

Far from the corner, f approaches a decaying-free plane wave
A e^{-i(z - chi)} whose phase chi = pi/4 (1 -/+ pi/(2 alpha)) carries the
spectral information; the amplitude A has no closed form and is only ever
fitted.

The straight segment of the circle crossing the right half-plane replaces
the arc there: on the arc, |e^(z zeta)| reaches e^(2|z|), and the resulting
cancellation at |z| = 40 would cost half the double-precision mantissa.
The chord is placed at Re(zeta e^(i arg z)) = _CHORD_ABSCISSA, capping
amplification at e^(_CHORD_ABSCISSA |z|) while keeping the pole at -i and
the branch arc of g_alpha on its far side.  That amplification of double
rounding reaches 1e-8 at |z| = XMAX_LIMIT (about 117), the largest size an
evaluator accepts short of the closed-form angle pi/2.

The discretization is fixed: the circle has radius _CIRCLE_RADIUS, the rays
extend with geometrically growing panels up to _TRUNCATION_RADIUS, and the
arc and chord node density is _NODES_PER_UNIT, scaled with the largest |z|
to be evaluated.
"""

import cmath
import functools
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
XMAX_LIMIT = math.log(1e-8 / np.finfo(float).eps) / _CHORD_ABSCISSA


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
    def closed_form(self):
        """At alpha = pi/2 the solution is exactly the plane wave."""
        return abs(self.alpha - math.pi / 2) < 1e-12

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

    An evaluation is one exponential sum per contour piece against that
    piece's weighted densities, which `_contour_piece` builds and caches.
    The evaluator itself holds no contour: it checks its arguments and
    picks the density of its wall condition.  `xmax` is the largest |z|
    the discretization is tuned for; larger arguments are rejected rather
    than silently under-resolved, and away from alpha = pi/2 so is an
    `xmax` above XMAX_LIMIT.
    """

    def __init__(self, params, xmax=40.0):
        self.params = params
        self.xmax = float(xmax)
        if not params.closed_form and not self.xmax <= XMAX_LIMIT:
            raise ValueError(
                f"xmax {self.xmax} exceeds {XMAX_LIMIT:.1f}, past which the chord "
                "amplifies rounding above 1e-8"
            )

    def evaluate(self, z, order=0):
        """f(z), or its order-th z-derivative, for z in the closed sector."""
        zarr = np.atleast_1d(np.asarray(z, dtype=complex))
        if not np.all(np.isfinite(zarr)):
            raise ValueError("z must be finite")
        if np.any(np.abs(zarr) > self.xmax * (1 + 1e-9)):
            raise ValueError(f"|z| exceeds the discretization design size {self.xmax}")
        if self.params.closed_form:
            out = np.exp(-1j * zarr) * (-1j) ** order
            if self.params.condition == "dirichlet":
                out = 1j * out
            return complex(out[0]) if np.asarray(z).ndim == 0 else out
        alpha = self.params.alpha
        phi = np.where(np.abs(zarr) == 0, 0.0, np.angle(zarr))
        if np.any(phi > 1e-9) or np.any(phi < -alpha - 1e-9):
            raise ValueError("z must satisfy -alpha <= arg z <= 0")
        keys = np.round(np.clip(phi, -alpha, 0.0), 12)
        column = 1 if self.params.condition == "neumann" else 2
        out = np.zeros(zarr.shape, dtype=complex)
        for key in np.unique(keys):
            sel = keys == key
            zs = zarr[sel]
            acc = 0
            # fetching the rays for every direction keeps them the most
            # recently used pieces, so a sweep evicts old chords first
            for tag in (("ray", -1), ("ray", 1), ("chord", float(key))):
                piece = _contour_piece(alpha, self.xmax, tag)
                zeta, wdens = piece[0], piece[column]
                if order:
                    wdens = wdens * zeta**order
                acc = acc + np.exp(np.multiply.outer(zs, zeta)) @ wdens
            out[sel] = acc * (math.sqrt(self.params.mu) / (1j * math.pi))
        return complex(out[0]) if np.asarray(z).ndim == 0 else out


@functools.lru_cache(maxsize=64)
def _contour_piece(alpha, xmax, tag):
    """(zeta, Neumann wdens, Dirichlet wdens) on one piece of the contour.

    `tag` is ("ray", -1) for the in-leg, ("ray", 1) for the out-leg, or
    ("chord", phi) for the arcs and chord of evaluation direction
    phi = arg z.  g_alpha(zeta)/(zeta + i) is computed once and weighted
    for both wall conditions, the Dirichlet one times zeta^(-mu).
    """
    R = _CIRCLE_RADIUS
    # the cut between the two rays bisects the sector between the walls
    theta_cut = math.pi + alpha / 2
    kind, where = tag
    if kind == "ray":
        first = min(0.5, 10.0 / xmax)
        breaks = [R]
        while breaks[-1] < _TRUNCATION_RADIUS:
            step = max(first, 0.7 * (breaks[-1] - R))
            breaks.append(min(breaks[-1] + step, _TRUNCATION_RADIUS))
        radius, w = _panel_nodes(np.asarray(breaks), 12)
        # in-leg traversed from infinity toward the circle, out-leg back out
        angle = theta_cut if where > 0 else theta_cut - 2 * math.pi
        turn = cmath.exp(1j * angle)
        zeta, weight, theta = radius * turn, where * w * turn, np.full(radius.shape, angle)
    else:
        theta_c = math.acos(_CHORD_ABSCISSA / R)
        lo = -where - theta_c
        hi = -where + theta_c
        density = _NODES_PER_UNIT * max(xmax, 1.0) / 40.0 / 16.0
        zetas, weights, thetas = [], [], []
        for a, b in ((theta_cut - 2 * math.pi, lo), (hi, theta_cut)):
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
        zeta, weight, theta = np.concatenate(zetas), np.concatenate(weights), np.concatenate(thetas)
        radius = np.abs(zeta)
    dens = g_alpha_continued(alpha, radius, theta) / (zeta + 1j)
    mu = math.pi / (2 * alpha)
    piece = (zeta, weight * dens, weight * (dens * np.exp(-mu * (np.log(np.abs(zeta)) + 1j * theta))))
    for array in piece:
        array.flags.writeable = False
    return piece


def eval_peters(params, z):
    """Sector solution f at z (scalar or array) in the closed sector.

    The evaluator's size bucket doubles from 40 until it covers max |z|,
    so calls at comparable scales share the cached contour pieces.  It
    stops at XMAX_LIMIT, whose evaluator rejects anything larger.
    """
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    need = float(np.max(np.abs(zarr))) if zarr.size else 1.0
    xmax = 40.0
    while xmax < need:
        xmax *= 2.0
    return PetersEvaluator(params, min(xmax, XMAX_LIMIT)).evaluate(z)


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
