"""Sloshing domain descriptions.

A domain is a simply connected planar region whose boundary splits into a
sloshing surface S (carrying the spectral Steklov condition) and walls W
(Neumann or Dirichlet).  The surface endpoints are the corners A and B;
their interior angles alpha and beta drive the eigenvalue asymptotics, so
they are recorded explicitly, and checked against the angle the surface
and its adjacent wall make at each corner.

Curves are parametrized by a fraction u in [0, 1] proportional to arc
length, which is what boundary sampling for meshing works in.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

_GAUSS_LENGTH_NODES = 24
_TANGENT_STEP = 1e-6  # curve fraction spanned by the chord that stands in for an end tangent
_ANGLE_TOL = 1e-4  # radians; the chord turns by at most pi * _TANGENT_STEP on an arc


def _as_point(p):
    x, y = float(p[0]), float(p[1])
    return (x, y)


@dataclass(frozen=True)
class LineSegment:
    start: tuple
    end: tuple

    def __post_init__(self):
        object.__setattr__(self, "start", _as_point(self.start))
        object.__setattr__(self, "end", _as_point(self.end))
        if self.length() <= 0:
            raise ValueError("degenerate segment")
        object.__setattr__(self, "_origin", np.array(self.start))
        object.__setattr__(self, "_delta", np.subtract(self.end, self.start))

    def length(self):
        return math.hypot(self.end[0] - self.start[0], self.end[1] - self.start[1])

    def point(self, u):
        return self._origin + np.multiply.outer(np.asarray(u, dtype=float), self._delta)


@dataclass(frozen=True)
class CircularArc:
    """Arc of the circle |z - center| = radius from angle t0 to t1.

    The parameter runs monotonically from t0 to t1, so orientation is
    encoded by their order; t1 > t0 traverses counterclockwise.
    """

    center: tuple
    radius: float
    t0: float
    t1: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        if self.radius <= 0 or self.t0 == self.t1:
            raise ValueError("degenerate arc")

    def length(self):
        return self.radius * abs(self.t1 - self.t0)

    def point(self, u):
        u = np.asarray(u, dtype=float)
        t = self.t0 + u * (self.t1 - self.t0)
        x = self.center[0] + self.radius * np.cos(t)
        y = self.center[1] + self.radius * np.sin(t)
        return np.stack([x, y], axis=-1)


@dataclass(frozen=True)
class Polyline:
    points: tuple

    def __post_init__(self):
        pts = tuple(_as_point(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("polyline needs at least two points")
        arr = np.asarray(pts)
        seg = np.linalg.norm(np.diff(arr, axis=0), axis=1)
        if np.any(seg <= 0):
            raise ValueError("polyline has repeated consecutive points")
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_arr", arr)

    def length(self):
        return float(self._cum[-1])

    def point(self, u):
        u = np.asarray(u, dtype=float)
        s = np.clip(u, 0.0, 1.0) * self._cum[-1]
        idx = np.clip(np.searchsorted(self._cum, s, side="right") - 1, 0,
                      len(self._cum) - 2)
        seg_len = self._cum[idx + 1] - self._cum[idx]
        w = (s - self._cum[idx]) / seg_len
        p = self._arr[idx] + w[..., None] * (self._arr[idx + 1] - self._arr[idx])
        return p


@dataclass(frozen=True)
class ParametricCurve:
    """Smooth curve given by position and velocity callables on [t0, t1].

    Mesh nodes are placed by evaluating `position` exactly, so sampled
    boundary points sit on the true curve to rounding error.  Arc length
    is computed by Gauss panels on |velocity| refined to 1e-13 relative;
    the u -> t reparametrization uses a dense cumulative table, which is
    accurate enough for node spacing purposes.
    """

    position: object
    velocity: object
    t0: float = 0.0
    t1: float = 1.0
    _table: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.t1 <= self.t0:
            raise ValueError("need t1 > t0")
        t = np.linspace(self.t0, self.t1, 4097)
        speed = np.linalg.norm(np.asarray(self.velocity(t)), axis=-1)
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(t))]
        )
        object.__setattr__(self, "_table", (t, cum))
        object.__setattr__(self, "_length", _gauss_length(self.velocity, self.t0, self.t1))

    def length(self):
        return self._length

    def point(self, u):
        u = np.asarray(u, dtype=float)
        t_grid, cum = self._table
        s = np.clip(u, 0.0, 1.0) * cum[-1]
        t = np.interp(s, cum, t_grid)
        return np.asarray(self.position(t))


def _leaving(curve, at_end):
    """Unit direction, as a complex number, leaving a curve end along the curve."""
    u = (1.0, 1.0 - _TANGENT_STEP) if at_end else (0.0, _TANGENT_STEP)
    (x0, y0), (x1, y1) = curve.point(np.array(u))
    d = complex(x1 - x0, y1 - y0)
    return d / abs(d)


def _gauss_length(velocity, t0, t1, tol=1e-13):
    x, w = np.polynomial.legendre.leggauss(_GAUSS_LENGTH_NODES)
    prev = None
    panels = 8
    for _ in range(12):
        edges = np.linspace(t0, t1, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        t = (mid[:, None] + half[:, None] * x).ravel()
        ww = (half[:, None] * w).ravel()
        speed = np.linalg.norm(np.asarray(velocity(t)), axis=-1)
        total = float(np.dot(ww, speed))
        if prev is not None and abs(total - prev) <= tol * max(1.0, abs(total)):
            return total
        prev = total
        panels *= 2
    raise ValueError("arc length quadrature did not converge")


_CONDITIONS = ("steklov", "neumann", "dirichlet")


@dataclass(frozen=True)
class CornerSpec:
    """Interior angle at a surface endpoint and its wall's condition.

    The domain, the quasi-frequency lattice and the Peters sector solutions
    share this type; the Peters route refuses angles past pi/2.
    """

    angle: float
    condition: str

    def __post_init__(self):
        if not 0 < self.angle < math.pi:
            raise ValueError("corner angle must lie in (0, pi)")
        if self.condition not in ("neumann", "dirichlet"):
            raise ValueError("wall condition must be 'neumann' or 'dirichlet'")

    @property
    def closed_form(self):
        """At angle = pi/2 the sector solution is exactly the plane wave."""
        return abs(self.angle - math.pi / 2) < 1e-12

    @property
    def mu(self):
        return math.pi / (2 * self.angle)

    @property
    def chi(self):
        """Far-field phase shift of the sector solution's outgoing plane wave."""
        if self.condition == "neumann":
            return (math.pi / 4) * (1 - self.mu)
        return (math.pi / 4) * (1 + self.mu)


@dataclass(frozen=True)
class BoundaryPiece:
    curve: object
    condition: str

    def __post_init__(self):
        if self.condition not in _CONDITIONS:
            raise ValueError(f"condition must be one of {_CONDITIONS}")
        if self.curve.length() <= 0:
            raise ValueError("boundary piece must have positive length")

    def endpoints(self):
        p = self.curve.point(np.array([0.0, 1.0]))
        return p[0], p[1]


@dataclass(frozen=True)
class SloshingDomain:
    """Closed sloshing geometry: one Steklov surface piece plus walls.

    The stored orientation convention: the surface runs from corner A to
    corner B, and `walls` runs from A around the bottom to B, so the
    positively oriented boundary loop is walls followed by the reversed
    surface.
    """

    sloshing_surface: BoundaryPiece
    walls: tuple
    corner_A: CornerSpec
    corner_B: CornerSpec
    surface_length: float

    def __post_init__(self):
        object.__setattr__(self, "walls", tuple(self.walls))
        if self.sloshing_surface.condition != "steklov":
            raise ValueError("surface piece must carry the steklov condition")
        if not self.walls:
            raise ValueError("domain needs at least one wall piece")
        for wall in self.walls:
            if wall.condition == "steklov":
                raise ValueError("exactly one piece may be Steklov")
        for name, corner, wall in (("A", self.corner_A, self.walls[0]), ("B", self.corner_B, self.walls[-1])):
            if corner.condition != wall.condition:
                raise ValueError(f"corner {name} condition disagrees with its {wall.condition} wall")
        computed = self.sloshing_surface.curve.length()
        if not abs(computed - self.surface_length) <= 1e-10 * max(1.0, computed):  # NaN fails too
            raise ValueError(
                f"surface_length {self.surface_length!r} disagrees with "
                f"computed arc length {computed!r}"
            )
        a_surf, b_surf = self.sloshing_surface.endpoints()
        chain = [self.walls[0].endpoints()[0]]
        for wall in self.walls:
            p0, p1 = wall.endpoints()
            if not np.allclose(chain[-1], p0, atol=1e-9):
                raise ValueError("wall pieces do not chain end to end")
            chain.append(p1)
        if not (np.allclose(chain[0], a_surf, atol=1e-9)
                and np.allclose(chain[-1], b_surf, atol=1e-9)):
            raise ValueError("walls must run from corner A to corner B")
        # the interior lies left of the loop, so each angle turns
        # counterclockwise from the loop's outgoing piece to its incoming one
        surface = self.sloshing_surface.curve
        for name, corner, turn in (
            ("A", self.corner_A, _leaving(surface, False) / _leaving(self.walls[0].curve, False)),
            ("B", self.corner_B, _leaving(self.walls[-1].curve, True) / _leaving(surface, True)),
        ):
            measured = cmath.phase(turn) % (2 * math.pi)
            if abs(measured - corner.angle) > _ANGLE_TOL:
                raise ValueError(
                    f"corner {name} angle {corner.angle!r} disagrees with the angle "
                    f"{measured!r} its surface and wall make"
                )

    @property
    def corner_points(self):
        a, b = self.sloshing_surface.endpoints()
        return tuple(a), tuple(b)

    def loop_pieces(self):
        """Boundary as (piece, reverse) pairs forming the positive loop."""
        out = [(w, False) for w in self.walls]
        out.append((self.sloshing_surface, True))
        return out


def build_triangle_domain(alpha, beta, surface_length, wall_conditions=("neumann", "neumann")):
    """Triangle with horizontal surface [A, B] and apex below.

    A = (0, 0), B = (L, 0); the walls leave A and B at interior angles
    alpha and beta and meet at the apex.  Wall conditions are given in
    (A-side, B-side) order.
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("corner angles must be positive")
    if alpha + beta >= math.pi:
        raise ValueError("alpha + beta must be below pi for the walls to meet")
    L = float(surface_length)
    if L <= 0:
        raise ValueError("surface_length must be positive")
    cond_a, cond_b = (c.lower() for c in wall_conditions)
    sab = math.sin(alpha + beta)
    apex = (
        L * math.sin(beta) * math.cos(alpha) / sab,
        -L * math.sin(beta) * math.sin(alpha) / sab,
    )
    surface = BoundaryPiece(LineSegment((0.0, 0.0), (L, 0.0)), "steklov")
    walls = (
        BoundaryPiece(LineSegment((0.0, 0.0), apex), cond_a),
        BoundaryPiece(LineSegment(apex, (L, 0.0)), cond_b),
    )
    return SloshingDomain(
        sloshing_surface=surface,
        walls=walls,
        corner_A=CornerSpec(alpha, cond_a),
        corner_B=CornerSpec(beta, cond_b),
        surface_length=L,
    )


def build_rectangle_domain(surface_length, depth, wall_conditions=("neumann", "neumann", "neumann")):
    """Rectangle [0, L] x [-d, 0] with the surface on top."""
    L, d = float(surface_length), float(depth)
    if L <= 0 or d <= 0:
        raise ValueError("surface_length and depth must be positive")
    conds = tuple(c.lower() for c in wall_conditions)
    surface = BoundaryPiece(LineSegment((0.0, 0.0), (L, 0.0)), "steklov")
    walls = (
        BoundaryPiece(LineSegment((0.0, 0.0), (0.0, -d)), conds[0]),
        BoundaryPiece(LineSegment((0.0, -d), (L, -d)), conds[1]),
        BoundaryPiece(LineSegment((L, -d), (L, 0.0)), conds[2]),
    )
    return SloshingDomain(
        sloshing_surface=surface,
        walls=walls,
        corner_A=CornerSpec(math.pi / 2, conds[0]),
        corner_B=CornerSpec(math.pi / 2, conds[2]),
        surface_length=L,
    )


def _sine_surface(sign):
    amp = sign / (2 * math.pi)

    def position(t):
        t = np.asarray(t, dtype=float)
        return np.stack([t, amp * np.sin(2 * math.pi * t)], axis=-1)

    def velocity(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.ones_like(t), sign * np.cos(2 * math.pi * t)], axis=-1)

    return ParametricCurve(position, velocity, 0.0, 1.0)


def build_curvilinear_example(sign):
    """The two benchmark domains with a wavy surface over a semicircle.

    The surface is (x, +/- sin(2 pi x)/(2 pi)) for x in [0, 1]; the walls
    are the lower semicircle of |z - 1/2| = 1/2, split at (1/2, -1/2) into
    a Neumann quarter arc at A = (0, 0) and a Dirichlet quarter arc at
    B = (1, 0).  The '+' surface meets the walls at angles (3 pi/4, pi/4),
    the '-' surface at (pi/4, 3 pi/4).
    """
    if sign in ("+", "plus", 1, "+1"):
        s = 1.0
    elif sign in ("-", "minus", -1, "-1"):
        s = -1.0
    else:
        raise ValueError("sign must be '+' or '-'")
    curve = _sine_surface(s)
    surface = BoundaryPiece(curve, "steklov")
    walls = (
        BoundaryPiece(CircularArc((0.5, 0.0), 0.5, math.pi, 1.5 * math.pi), "neumann"),
        BoundaryPiece(CircularArc((0.5, 0.0), 0.5, 1.5 * math.pi, 2 * math.pi), "dirichlet"),
    )
    ang_a = 3 * math.pi / 4 if s > 0 else math.pi / 4
    ang_b = math.pi / 4 if s > 0 else 3 * math.pi / 4
    return SloshingDomain(
        sloshing_surface=surface,
        walls=walls,
        corner_A=CornerSpec(ang_a, "neumann"),
        corner_B=CornerSpec(ang_b, "dirichlet"),
        surface_length=curve.length(),
    )
