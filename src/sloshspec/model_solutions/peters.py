"""Sector solutions of the sloshing problem with a Robin surface condition.

For the wedge at a surface corner, a `geometry.CornerSpec` with angle
alpha in (0, pi/2] below the horizontal, the model solution is a function
f analytic in the sector -alpha <= arg z <= 0 whose real part satisfies
the surface condition d(Re f)/dy = Re f on the positive real axis
together with the corner's Neumann or Dirichlet wall condition.
It is given by a keyhole-contour integral

    f(z) = (mu^(1/2)/(i pi)) * int_P g_alpha(zeta)/(zeta + i) [zeta^(-mu)] e^(z zeta) dzeta,

with mu = pi/(2 alpha) and the bracket present only in the Dirichlet case.
The contour P runs in from infinity along one side of the ray at angle
pi + alpha/2, around the origin at radius about 2, and back out along the
other side; g_alpha on the path comes from `contour.g_alpha_continued`.
Each piece of P (the two ray legs, and the path between them for one
evaluation direction) is held as its Gauss nodes zeta and weighted
densities w g_alpha(zeta)/(zeta + i) [zeta^(-mu)], so f(z) is a sum over
the pieces of e^(z zeta) against them.  Both ray legs run out along the
one ray arg zeta = pi + alpha/2 on the same nodes, so one exponential per
node serves both, against the sum of their densities; there
|e^(z zeta)| = e^(-|zeta| |z| cos(arg z + alpha/2)) falls with |zeta|,
so each point sums the legs only up to the panel holding its last term
short of underflow: every later term is exactly 0.0.  At z = 0 nothing
damps the legs, so f(0) sums them whole and derivatives there are
refused.  The path between the legs is straight segments cut into equal
panels, so a segment's nodes are panel midpoints m plus offsets d shared
by all its panels, and e^(z (m + d)) = e^(z m) e^(z d) costs one
exponential per panel and one per offset.  The path depends on alpha,
the design size and the evaluation direction, never on the wall
condition, so `_contour_piece` computes g_alpha once per piece for a
sector's Neumann and Dirichlet solutions alike.  It is the module's one
cache: the 64 pieces used last, least recently used out first.

Far from the corner, f approaches a decaying-free plane wave
A e^{-i(z - chi)} whose phase chi = pi/4 (1 -/+ mu), `CornerSpec.chi`,
carries the spectral information; the amplitude A has no closed form and
is only ever fitted.

The path between the legs follows the circle |zeta| = 2 except where it
crosses the right half-plane: on that arc, |e^(z zeta)| reaches e^(2|z|),
and the resulting cancellation at |z| = 40 would cost half the
double-precision mantissa.  A chord replaces it there, placed at
Re(zeta e^(i arg z)) = _CHORD_ABSCISSA, capping amplification at
e^(_CHORD_ABSCISSA |z|) while keeping the pole at -i and the branch arc
of g_alpha on its far side.  The rest of the circle is replaced by
segments whose vertices on it lie at most pi/3 apart, so every node keeps
|zeta| >= sqrt 3, clear of the closed unit disk that holds the pole and
the singular points of the continuation, and no node lies right of the
chord line.  That amplification of double rounding reaches 1e-8 at
|z| = XMAX_LIMIT (about 117), the largest size an evaluator accepts short
of the closed-form angle pi/2.

The discretization is fixed: the circle has radius _CIRCLE_RADIUS, the rays
extend with geometrically growing panels up to _TRUNCATION_RADIUS, and the
node density of the path between them is _NODES_PER_UNIT, scaled with the
largest |z| to be evaluated.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from ..geometry.domain import CornerSpec, _gauss, _panel_nodes
# exp_neg_I_continued stays bound here: perfbench's self-test expects its
# tracer to find the name in this module
from .contour import exp_neg_I_continued, g_alpha_continued  # noqa: F401

# perfbench's workloads build their sector corners under this name
SectorParams = CornerSpec

_CHORD_ABSCISSA = 0.15
_CIRCLE_RADIUS = 2.0
_TRUNCATION_RADIUS = 1e12
_RAY_PANEL_NODES = 12
# e^x is exactly 0.0 in double precision below x of about -745.13
_UNDERFLOW_EXPONENT = 750.0
_NODES_PER_UNIT = 48.0
# points summed at once: each takes a row of e^(z zeta) over a piece's
# nodes, so blocks bound the memory of large `samples`
_BLOCK_POINTS = 256
XMAX_LIMIT = math.log(1e-8 / np.finfo(float).eps) / _CHORD_ABSCISSA


class PetersEvaluator:
    """Evaluates the sector solution of one corner at points of its sector.

    An evaluation sums e^(z zeta) against the weighted densities of the
    contour pieces, which `_contour_piece` builds and caches, over blocks
    of at most _BLOCK_POINTS points: one exponential per ray node for both
    legs, and per segment of the path between them one per panel and one
    per Gauss offset.
    The evaluator itself holds no contour: it checks its arguments and
    picks the density of its wall condition.  A corner past pi/2 has no
    sector solution and is refused.  `xmax` is the largest |z| the
    discretization is tuned for; larger arguments are rejected rather
    than silently under-resolved, and away from alpha = pi/2 so is an
    `xmax` above XMAX_LIMIT.
    """

    def __init__(self, corner, xmax=40.0):
        if not corner.angle <= math.pi / 2 + 1e-12:
            raise ValueError(f"a sector solution needs a corner angle in (0, pi/2], got {corner.angle!r}")
        self.corner = corner
        self.xmax = float(xmax)
        if not corner.closed_form and not self.xmax <= XMAX_LIMIT:
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
        if self.corner.closed_form:
            out = np.exp(-1j * zarr) * (-1j) ** order
            if self.corner.condition == "dirichlet":
                out = 1j * out
            return complex(out[0]) if np.asarray(z).ndim == 0 else out
        alpha = self.corner.angle
        phi = np.where(np.abs(zarr) == 0, 0.0, np.angle(zarr))
        if np.any(phi > 1e-9) or np.any(phi < -alpha - 1e-9):
            raise ValueError("z must satisfy -alpha <= arg z <= 0")
        if order and np.any(zarr == 0):
            raise ValueError("no derivative at z = 0: nothing damps the ray tail there")
        keys = np.round(np.clip(phi, -alpha, 0.0), 12)
        column = 1 if self.corner.condition == "neumann" else 2

        def weighted(piece):
            zeta, wdens = piece[0], piece[column]
            return wdens * zeta**order if order else wdens

        out = np.zeros(zarr.shape, dtype=complex)
        for key in np.unique(keys):
            # fetching the rays for every direction keeps them the most
            # recently used pieces, so a sweep evicts old chords first
            legs = [_contour_piece(alpha, self.xmax, ("ray", where)) for where in (-1, 1)]
            path = _contour_piece(alpha, self.xmax, ("chord", float(key)))
            # the legs share their nodes: one exponential per node serves both
            zeta, ray = legs[0][0], weighted(legs[0]) + weighted(legs[1])
            mid, offset, bounds = path[3:]
            weights = weighted(path).reshape(mid.size, -1)
            radius = np.abs(zeta)
            sel = np.flatnonzero(keys == key)
            for block in np.split(sel, range(_BLOCK_POINTS, sel.size, _BLOCK_POINTS)):
                zs = zarr[block]
                # Re(z zeta) = -|zeta| |z| cos(arg z + alpha/2) on both legs
                with np.errstate(divide="ignore"):
                    reach = _UNDERFLOW_EXPONENT / (np.abs(zs) * math.cos(key + alpha / 2))
                panels = -(-np.searchsorted(radius, reach) // _RAY_PANEL_NODES)
                cuts = np.minimum(panels * _RAY_PANEL_NODES, radius.size)
                acc = np.empty(zs.shape, dtype=complex)
                for cut in np.unique(cuts):
                    rows = cuts == cut
                    acc[rows] = np.exp(np.multiply.outer(zs[rows], zeta[:cut])) @ ray[:cut]
                # e^(z (mid + offset)) = e^(z mid) e^(z offset): per segment,
                # one exponential per panel and one per Gauss offset
                at_mid = np.exp(np.multiply.outer(zs, mid))
                at_offset = np.exp(np.multiply.outer(zs, offset))
                for s, (first, last) in enumerate(zip(bounds[:-1], bounds[1:])):
                    acc += np.sum((at_offset[:, s] @ weights[first:last].T) * at_mid[:, first:last], axis=1)
                out[block] = acc * (math.sqrt(self.corner.mu) / (1j * math.pi))
        return complex(out[0]) if np.asarray(z).ndim == 0 else out


@functools.lru_cache(maxsize=64)
def _contour_piece(alpha, xmax, tag):
    """(zeta, Neumann wdens, Dirichlet wdens[, mid, offset, bounds]) on one piece.

    `tag` is ("ray", -1) for the in-leg, ("ray", 1) for the out-leg, or
    ("chord", phi) for the path between them at evaluation direction
    phi = arg z.  g_alpha(zeta)/(zeta + i) is computed once and weighted
    for both wall conditions, the Dirichlet one times zeta^(-mu).

    Both legs take their nodes from the one turn e^(i theta_cut), so
    their zeta arrays are equal; only the angle of g_alpha's branch and
    the direction of travel differ.  The path between them is straight
    segments: the arc of |zeta| = 2 up to the chord as segments whose
    vertices on the circle lie at most pi/3 apart (so every node keeps
    |zeta| >= sqrt 3), the chord, and the arc after it likewise.  Segment
    s has equal panels, bounds[s] <= p < bounds[s + 1], so its nodes are
    mid[p] + offset[s, j], 16 per panel; the angle given to g_alpha runs
    continuously from theta_cut - 2 pi to theta_cut.
    """
    R = _CIRCLE_RADIUS
    # the cut between the two rays bisects the sector between the walls
    theta_cut = math.pi + alpha / 2
    kind, where = tag
    layout = ()
    if kind == "ray":
        first = min(0.5, 10.0 / xmax)
        breaks = [R]
        while breaks[-1] < _TRUNCATION_RADIUS:
            step = max(first, 0.7 * (breaks[-1] - R))
            breaks.append(min(breaks[-1] + step, _TRUNCATION_RADIUS))
        radius, w = _panel_nodes(np.asarray(breaks), _RAY_PANEL_NODES)
        # in-leg traversed from infinity toward the circle, out-leg back out
        angle = theta_cut if where > 0 else theta_cut - 2 * math.pi
        turn = cmath.exp(1j * theta_cut)
        zeta, weight, theta = radius * turn, where * w * turn, np.full(radius.shape, angle)
    else:
        theta_c = math.acos(_CHORD_ABSCISSA / R)
        lo = -where - theta_c
        hi = -where + theta_c
        density = _NODES_PER_UNIT * max(xmax, 1.0) / 40.0 / 16.0
        # vertex angles: each arc in steps of at most pi/3, the chord from lo to hi
        arcs = ((theta_cut - 2 * math.pi, lo), (hi, theta_cut))
        vertices = np.concatenate([np.linspace(a, b, math.ceil((b - a) / (math.pi / 3)) + 1) for a, b in arcs])
        x, gw = _gauss(16)
        zetas, weights, thetas, mids, offsets = [], [], [], [], []
        for a, b in zip(vertices[:-1], vertices[1:]):
            start, end = R * cmath.exp(1j * a), R * cmath.exp(1j * b)
            panels = max(2, math.ceil(abs(end - start) * density))
            if a == lo:
                # the 1/(zeta + i) pole sits a distance ~_CHORD_ABSCISSA off
                # the chord; panels must stay shorter than twice that for
                # the Gauss rule to converge past it
                panels = max(6, panels, math.ceil(abs(end - start) / (2 * _CHORD_ABSCISSA)))
            half = (end - start) / (2 * panels)
            mid, offset = start + half * np.arange(1, 2 * panels, 2), half * x
            zet = (mid[:, None] + offset).ravel()
            # every node lies within pi/2 of the segment's central angle
            center = 0.5 * (a + b)
            zetas.append(zet)
            weights.append(np.tile(half * gw, panels))
            thetas.append(center + np.angle(zet * cmath.exp(-1j * center)))
            mids.append(mid)
            offsets.append(offset)
        zeta, weight, theta = np.concatenate(zetas), np.concatenate(weights), np.concatenate(thetas)
        radius = np.abs(zeta)
        layout = (np.concatenate(mids), np.array(offsets), np.cumsum([0] + [m.size for m in mids]))
    dens = g_alpha_continued(alpha, radius, theta) / (zeta + 1j)
    mu = math.pi / (2 * alpha)
    piece = (zeta, weight * dens, weight * (dens * np.exp(-mu * (np.log(np.abs(zeta)) + 1j * theta)))) + layout
    for array in piece:
        array.flags.writeable = False
    return piece


def eval_peters(corner, z):
    """Sector solution f of `corner` at z (scalar or array) in its closed sector.

    The evaluator's size bucket doubles from 40 until it covers max |z|,
    so calls at comparable scales share the cached contour pieces.  It
    stops at XMAX_LIMIT, whose evaluator rejects anything larger.
    """
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    need = float(np.max(np.abs(zarr))) if zarr.size else 1.0
    xmax = 40.0
    while xmax < need:
        xmax *= 2.0
    return PetersEvaluator(corner, min(xmax, XMAX_LIMIT)).evaluate(z)


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


def far_field_fit(corner, x, values):
    """Fit the far-field decomposition of surface samples of `corner`'s solution.

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
    point.  The decay exponent is that p.  Expected rates, with the
    corner's mu: x^(-mu) for Neumann, x^(-2 mu) for Dirichlet.  At angles pi/(2q) the remainder
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
    if corner.condition == "dirichlet":
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
