"""Graded triangular meshing of sloshing domains.

Pipeline: sample the boundary loop with spacing that ramps down
geometrically towards the surface corners A and B, lay a hexagonal
lattice of interior points with a clearance band along the boundary,
Delaunay-triangulate everything, keep triangles whose centroid lies in
the domain, and insert circumcenters of poor triangles until every
interior angle reaches 20 degrees.  Refinement never moves or adds
boundary nodes, so the sampled boundary loop stays authoritative: it is
the one boundary representation.  Its order is the edge list, edge k
joining node k to node k + 1 mod nb, and every inside test runs on that
polygon as sampled.

The Delaunay step knows the lattice: a unit lattice triangle whose
circumdisk holds no boundary or refinement node is Delaunay as it
stands, so qhull triangulates only the band of nodes next to the
boundary and the refinement points, once per triangulation.  Those kept
lattice triangles are equilateral and cannot fail the 20 degree test, so
each round tests the quality of the band triangles alone.

The inside tests share one crossing sweep (`_backend.crossings`).  A hex
lattice row is one y, and every polygon edge crosses it at most once, so
the row's sorted crossings give its inside runs directly: the lattice is
laid only within them, at one crossing per (row, edge) pair and no
candidate outside the polygon.  Centroids and circumcenters are tested
point by point (`_backend.points_in_polygon`).  A straight wall cut into
many collinear edges thus costs about what one edge would, and the
polygon needs no thinning first.
The boundary walk keeps its step-by-step recurrence but takes the
constant steps outside the grading zone in one vectorized guess, and
its steps in the zone on numpy scalars rather than 0-d arrays.  Both
clearance tests, of lattice candidates from the boundary nodes and of
refinement circumcentres from every node, are one kd-tree query
(`_clear_of`) that searches no farther than the clearance itself.

Everything is deterministic: identical inputs give identical meshes.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

from .. import _backend
from .domain import Polyline

_MIN_ANGLE = math.radians(20.0)
_GRADING_ZONE = 10.0
_LATTICE_CLEARANCE = 0.6
_INSERT_CLEARANCE = 0.45
_MAX_REFINE_ROUNDS = 30
# Bound on the estimated nodes of a mesh request.  The largest mesh in
# use (h = 0.002 on the pi/4 triangle, 72 539 nodes) is estimated at
# 2.1e5, a tenth of the bound; the P1 factor of a mesh past it would
# take gigabytes.
_MAX_NODES = 2_000_000


class MeshError(RuntimeError):
    """Raised when a valid mesh cannot be produced for the request."""


@dataclass
class TriangleMesh:
    """P1 triangulation with tagged boundary edges.

    `boundary_edges` is a tuple of (i, j, tag) triples in boundary loop
    order; tags are the piece conditions ('steklov', 'neumann',
    'dirichlet').  Triangles are counterclockwise.  `mesh_size` is the
    size the mesh was made at; `fem_steklov.convergence_study` reads each
    level's size from it, and refuses the nan a dump read back carries.

    `generate_mesh` also records how it got there: the number of
    refinement rounds that inserted circumcenters, the circumcenters it
    rejected (outside the polygon, too close to a node, or too close to
    another accepted one), and the smallest interior angle in radians.
    They stay None on meshes built otherwise, and take no part in
    equality or in the text dump.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: tuple
    mesh_size: float
    grading_factor: float
    refinement_rounds: int = field(default=None, compare=False)
    rejected_insertions: int = field(default=None, compare=False)
    min_angle: float = field(default=None, compare=False)
    _edge_arr: np.ndarray = field(init=False, repr=False, compare=False)
    _tag_arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        i, j, tags = tuple(zip(*self.boundary_edges)) or ((), (), ())
        self._edge_arr = np.array((i, j), dtype=np.int64).T.copy()
        tags = tuple(map(str, tags))  # keeps each edge on its piece's tag object
        self._tag_arr = np.array(tags, dtype=str)
        self.boundary_edges = tuple(zip(*self._edge_arr.T.tolist(), tags))
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise MeshError("nodes must be an (n, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (m, 3) array")
        if not np.isfinite(self.nodes).all():
            raise MeshError("node coordinates must be finite")
        n = len(self.nodes)
        for name, idx in (("triangle", self.triangles), ("boundary edge", self._edge_arr)):
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise MeshError(f"{name} node index outside [0, {n})")
        unknown = set(self._tag_arr.tolist()) - {"steklov", "neumann", "dirichlet"}
        if unknown:
            raise MeshError(f"unknown boundary tag {sorted(unknown)[0]!r}")
        if np.any(_backend.signed_areas(self.nodes, self.triangles) <= 0):
            raise MeshError("mesh contains non-positively-oriented triangles")

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def edges_with_tag(self, tag):
        """Boundary edges carrying `tag`, as an (k, 2) index array."""
        return self._edge_arr[self._tag_arr == tag]

    def quality(self):
        """(signed areas, minimum interior angles) per triangle."""
        return _backend.triangle_quality(self.nodes, self.triangles)


def _mandatory_fractions(curve):
    """Arc-length fractions that boundary sampling must hit exactly."""
    if isinstance(curve, Polyline):
        return np.asarray(curve._cum) / curve.length()
    return np.array([0.0, 1.0])


def _sample_piece(curve, reverse, h, graded_h):
    """Interior arc-length fractions (loop direction) for one piece.

    Each span between mandatory fractions is walked from its start until
    the walk passes the span's end, and the steps are then scaled to land
    on it.  A step is the least of h, the span's length and graded_h at
    the current point.  Outside the grading zone that is h or the span's
    length, so after two equal steps the walk guesses that the step stays
    the same up to the span's end: one cumsum adds the guessed steps in
    the order the walk would, one curve.point call evaluates graded_h at
    every guessed point, and the walk keeps the guesses up to and
    including the first point whose step differs.  In the grading zone it
    evaluates one point per step, on numpy scalars.
    """
    length = curve.length()
    fracs = [np.zeros(1)]
    spans = _mandatory_fractions(curve)
    if reverse:
        spans = 1.0 - spans[::-1]
    for f0, f1 in zip(spans[:-1], spans[1:]):
        span_len = (f1 - f0) * length
        cap = min(h, span_len)

        def step(s):
            u_loop = f0 + s / length
            # a point's transpose unpacks to two numpy scalars, a block's to x and y
            return np.minimum(cap, graded_h(*curve.point(1.0 - u_loop if reverse else u_loop).T))

        steps = []
        s = 0.0
        while s < span_len:
            if len(steps) > 1 and steps[-1] == steps[-2]:
                run = np.full(int((span_len - s) / steps[-1]) + 1, steps[-1])
                at = np.cumsum(np.concatenate([[s], run]))
                at = at[at < span_len]
                taken = step(at)
                differ = np.flatnonzero(taken != steps[-1])
                n = differ[0] + 1 if len(differ) else len(at)
                steps.extend(taken[:n])
                s = at[n - 1] + taken[n - 1]
            else:
                steps.append(step(s))
                s = s + steps[-1]
        scale = span_len / s
        acc = np.cumsum(np.concatenate([[f0], np.asarray(steps) * scale / length]))
        acc[-1] = f1
        fracs.append(acc[1:])
    return np.concatenate(fracs)[1:-1]


def _sample_boundary(domain, h, g):
    """Polygonalize the boundary loop.

    Returns (nodes, tags): the nodes in loop order and one tag per edge,
    edge k joining node k to node k + 1 mod len(nodes).  That order is
    the mesh's boundary edge list, and the inside tests run on this
    polygon as it stands.  Each piece ends on its curve's own endpoint.
    Boundary spacing ramps from g h at the corners A and B up to h over
    _GRADING_ZONE mesh sizes; min(h, h (g + ramp d)) equals
    h min(1, g + ramp d) bit for bit, as rounding is monotone and
    h * 1.0 is h.
    """
    (ax, ay), (bx, by) = domain.corner_points
    ramp = (1.0 - g) / (_GRADING_ZONE * h)

    def graded_h(x, y):
        """Uncapped spacing at the points (x, y): numpy scalars or arrays."""
        return h * (g + ramp * np.minimum(np.hypot(x - ax, y - ay), np.hypot(x - bx, y - by)))

    pieces = domain.loop_pieces()
    nodes = [pieces[0][0].curve.point(1.0 if pieces[0][1] else 0.0)]
    tags = []
    for piece, reverse in pieces:
        curve = piece.curve
        inner = _sample_piece(curve, reverse, h, graded_h)
        nodes.append(curve.point(1.0 - inner if reverse else inner))
        nodes.append(curve.point(0.0 if reverse else 1.0))
        tags += [piece.condition] * (len(inner) + 1)
    nodes = np.concatenate([np.reshape(p, (-1, 2)) for p in nodes])
    # the loop closes: the final node duplicates node 0
    if not np.allclose(nodes[-1], nodes[0], atol=1e-9):
        raise MeshError("boundary pieces do not close into a loop")
    return nodes[:-1], tags


def _hex_lattice(poly, center, a):
    """The points of a hexagonal lattice inside the closed polygon `poly`.

    Returns (points, ij) row by row: point (i, j) sits at
    center + (a (i + (j mod 2) / 2), j a sqrt(3) / 2).  Each lattice row
    is one height, and its sorted crossings c with the polygon pair up as
    the even-odd inside runs c[2m] <= x < c[2m + 1], so only points within
    them are made: the same points, in the same order, as a lattice over
    the bounding box filtered by `_backend.points_in_polygon`.
    """
    dy = a * math.sqrt(3.0) / 2.0
    j = np.arange(
        math.floor((poly[:, 1].min() - center[1]) / dy), math.ceil((poly[:, 1].max() - center[1]) / dy) + 1
    )
    ys = center[1] + j * dy
    row, xin = _backend.crossings(ys, poly)
    order = np.lexsort((xin, row))
    row, lo, hi = row[order[::2]], xin[order[::2]], xin[order[1::2]]
    base = center[0] + np.where(j[row] % 2, 0.5 * a, 0.0)
    # each run's indices with one of slack either side, then the exact test
    first, stop = (np.ceil((c - base) / a).astype(np.int64) for c in (lo, hi))
    i, count = _backend.runs(first - 1, stop + 1)
    run = np.repeat(np.arange(len(row)), count)
    x = base[run] + a * i
    inside = (lo[run] <= x) & (x < hi[run])
    run, i, x = run[inside], i[inside], x[inside]
    return np.stack([x, ys[row[run]]], axis=1), np.stack([i, j[row[run]]], axis=1)


def _clear_of(points, candidates, clearance):
    """Mask of the candidates at least `clearance` (a scalar, or one per candidate) from all `points`.

    The search stops at the largest clearance: a candidate with no point
    within it reads inf and is kept, as at its true distance, and the
    1e-9 slack keeps one at its clearance itself exact.
    """
    if len(candidates) == 0:
        return np.zeros(0, dtype=bool)
    bound = np.max(clearance) * (1.0 + 1e-9)
    d, _ = cKDTree(points).query(candidates, distance_upper_bound=bound)
    return d >= clearance


class _Lattice(NamedTuple):
    """Unit triangles of the hex-lattice points kept as mesh nodes.

    Lattice point (i, j) has row j and doubled column c = 2 i + (j mod 2).
    Between rows j and j + 1 every doubled column k starts one unit
    triangle: 'up', with vertices (k, j), (k + 2, j), (k + 1, j + 1), when
    k and j have equal parity, else 'down', with vertices (k, j + 1),
    (k + 1, j), (k + 2, j + 1).  `cell[j, k]` (offset by `origin`) is the
    row of `tris` for that triangle, or -1 when a vertex is missing.
    """

    center: np.ndarray
    pitch: float
    origin: np.ndarray
    cell: np.ndarray
    tris: np.ndarray
    nodes: slice


def _lattice(center, pitch, ij, first):
    """Unit triangles of lattice points `ij`, which are nodes first, first + 1, ..."""
    row = ij[:, 1]
    col = 2 * ij[:, 0] + row % 2
    # initial=0 keeps an empty lattice valid: a 1 x 1 grid with no triangles
    origin = np.array([row.min(initial=0), col.min(initial=0)])
    shape = (row.max(initial=0) - origin[0] + 1, col.max(initial=0) - origin[1] + 1)
    grid = np.full(shape, -1, dtype=np.int64)
    grid[row - origin[0], col - origin[1]] = first + np.arange(len(ij))
    below, above = grid[:-1], grid[1:]
    up = (below[:, :-2], below[:, 2:], above[:, 1:-1])
    down = (above[:, :-2], below[:, 1:-1], above[:, 2:])
    cell = np.full(up[0].shape, -1, dtype=np.int64)
    tris = []
    start = 0
    for verts in (up, down):
        present = (verts[0] >= 0) & (verts[1] >= 0) & (verts[2] >= 0)
        count = int(np.count_nonzero(present))
        cell[present] = start + np.arange(count)
        tris.append(np.stack([v[present] for v in verts], axis=1))
        start += count
    return _Lattice(
        center=center,
        pitch=pitch,
        origin=origin,
        cell=cell,
        tris=np.concatenate(tris),
        nodes=slice(first, first + len(ij)),
    )


def _lattice_coords(lat, pts):
    """Fractional (row, doubled column) lattice coordinates of points."""
    rows = (pts[:, 1] - lat.center[1]) / (lat.pitch * math.sqrt(3.0) / 2.0)
    cols = (pts[:, 0] - lat.center[0]) / (0.5 * lat.pitch)
    return rows, cols


def _lattice_cells(lat, row, col):
    """Rows of `lat.tris` at cells (row j, doubled column k), or -1."""
    row = row - lat.origin[0]
    col = col - lat.origin[1]
    ok = (row >= 0) & (row < lat.cell.shape[0]) & (col >= 0) & (col < lat.cell.shape[1])
    found = np.full(row.shape, -1, dtype=np.int64)
    found[ok] = lat.cell[row[ok], col[ok]]
    return found


def _empty_lattice_triangles(lat, nodes, others):
    """Mask of lattice triangles whose circumdisk holds none of `others`.

    A unit triangle's circumdisk (centroid, radius pitch / sqrt(3)) reaches
    only the triangle and its three edge neighbours, so each point needs
    testing against the 3 x 4 window of cells around it.  No other lattice
    point lies in the disk: the nearest one is 2 pitch / sqrt(3) from the
    centroid.
    """
    rows, cols = _lattice_coords(lat, others)
    row = np.floor(rows).astype(np.int64)[:, None] + np.repeat([-1, 0, 1], 4)
    col = np.floor(cols).astype(np.int64)[:, None] + np.tile([-2, -1, 0, 1], 3)
    tri = _lattice_cells(lat, row, col)
    pt, slot = np.nonzero(tri >= 0)
    tri = tri[pt, slot]
    d = others[pt] - nodes[lat.tris[tri]].mean(axis=1)
    radius = lat.pitch / math.sqrt(3.0)
    keep = np.ones(len(lat.tris), dtype=bool)
    keep[tri[np.hypot(d[:, 0], d[:, 1]) <= radius * (1.0 + 1e-9)]] = False
    return keep


def _lattice_triangle_at(lat, pts):
    """Row of `lat.tris` containing each point, or -1.

    The lattice lines are row = const and doubled column -/+ row = even, so
    the cell is (floor(row), floor((col - row) / 2) + floor((col + row) / 2)).
    """
    rows, cols = _lattice_coords(lat, pts)
    col = np.floor((cols - rows) / 2.0) + np.floor((cols + rows) / 2.0)
    return _lattice_cells(lat, np.floor(rows).astype(np.int64), col.astype(np.int64))


def _triangulate(nodes, poly, bedges, lat):
    """Delaunay triangles of `nodes` inside `poly`, counterclockwise.

    Returns (triangles, count): the first `count` triangles are kept unit
    lattice triangles, which are equilateral, and the rest the band's.

    A unit lattice triangle whose circumdisk holds no other node is
    Delaunay as it stands.  A lattice node all six of whose triangles are
    such is interior; qhull sees only the other nodes, the band.  Every
    edge between the kept lattice triangles and the rest has an empty
    circle through band nodes alone, so it is an edge of the band
    triangulation too: each band triangle lies either in the kept lattice
    triangles, and is dropped, or outside them, where it is Delaunay for
    all nodes.  Together the two sets are the Delaunay triangulation of
    all nodes, up to qhull's tie-breaking on cocircular points.

    Lattice triangles lie inside `poly` and need no centroid filter: their
    vertices are inside, and a boundary edge (at most one pitch long)
    crossing a unit triangle would cut off a vertex and bring its nearer
    end within pitch / sqrt(3) of that vertex, while boundary nodes keep
    _LATTICE_CLEARANCE = 0.6 pitch from every lattice node.
    """
    n = len(nodes)
    others = np.ones(n, dtype=bool)
    others[lat.nodes] = False
    kept = _empty_lattice_triangles(lat, nodes, nodes[others])
    lattice = lat.tris[kept]
    band = np.flatnonzero(np.bincount(lattice.ravel(), minlength=n) < 6)
    try:
        tris = band[Delaunay(nodes[band]).simplices]
    except QhullError as exc:  # e.g. nodes too close together for qhull's precision
        raise MeshError(f"Delaunay triangulation failed: {str(exc).splitlines()[0]}") from None
    cent = nodes[tris].mean(axis=1)
    # -1, no lattice triangle underneath, reads the appended False
    keep = ~np.append(kept, False)[_lattice_triangle_at(lat, cent)]
    keep &= _backend.points_in_polygon(np.ascontiguousarray(cent), poly)
    tris = tris[keep]
    _check_recovery(tris, bedges, n)
    flip = _backend.signed_areas(nodes, tris) < 0
    tris[flip, 1], tris[flip, 2] = tris[flip, 2].copy(), tris[flip, 1].copy()
    return np.concatenate([lattice, tris]), len(lattice)


def _edge_keys(edges, n):
    return edges.min(axis=1) * n + edges.max(axis=1)


def _check_recovery(tris, bedges, n):
    """Raise unless every boundary edge is an edge of `tris`.

    Lattice triangles carry no boundary node, so `_triangulate` passes
    only the band triangles.
    """
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    if not np.isin(_edge_keys(bedges, n), _edge_keys(e, n)).all():
        raise MeshError(
            "boundary edge not recovered by the triangulation; "
            "decrease mesh_size relative to the geometry features"
        )


def _circumcenters(nodes, tris):
    p0, p1, p2 = nodes[tris[:, 0]], nodes[tris[:, 1]], nodes[tris[:, 2]]
    d = 2.0 * (
        p0[:, 0] * (p1[:, 1] - p2[:, 1])
        + p1[:, 0] * (p2[:, 1] - p0[:, 1])
        + p2[:, 0] * (p0[:, 1] - p1[:, 1])
    )
    n0 = (p0 ** 2).sum(axis=1)
    n1 = (p1 ** 2).sum(axis=1)
    n2 = (p2 ** 2).sum(axis=1)
    ux = (n0 * (p1[:, 1] - p2[:, 1]) + n1 * (p2[:, 1] - p0[:, 1]) + n2 * (p0[:, 1] - p1[:, 1])) / d
    uy = (n0 * (p2[:, 0] - p1[:, 0]) + n1 * (p0[:, 0] - p2[:, 0]) + n2 * (p1[:, 0] - p0[:, 0])) / d
    cc = np.stack([ux, uy], axis=1)
    radius = np.linalg.norm(cc - p0, axis=1)
    return cc, radius


def generate_mesh(domain, mesh_size, grading_factor=0.25):
    """Triangulate a sloshing domain.

    `mesh_size` bounds the boundary spacing and interior lattice pitch;
    near the surface corners A and B the boundary spacing ramps down to
    `grading_factor * mesh_size` over a zone of ten mesh sizes, which is
    where the corner singularities of the eigenfunctions live.  Raises
    MeshError if the request would take more than about _MAX_NODES nodes,
    or if a mesh with minimum interior angle of 20 degrees cannot be
    reached.
    """
    h = float(mesh_size)
    g = float(grading_factor)
    if h <= 0:
        raise MeshError("mesh_size must be positive")
    if not 0 < g <= 1:
        raise MeshError("grading_factor must lie in (0, 1]")
    # boundary steps are at least g h long, and the lattice lies in the
    # bounding box, of area at most perimeter^2 / 8, at one node per sqrt(3)/2 h^2
    steps = sum(piece.curve.length() for piece, _ in domain.loop_pieces()) / h  # inf for a tiny h
    estimate = steps / g + steps * steps / (4.0 * math.sqrt(3.0))
    if not estimate <= _MAX_NODES:
        raise MeshError(
            f"mesh_size {h!r} asks for about {estimate:.3g} nodes, more than the {_MAX_NODES} a mesh may have"
        )

    poly, tags = _sample_boundary(domain, h, g)
    nb = len(poly)
    bedges = np.stack([np.arange(nb), np.roll(np.arange(nb), -1)], axis=1)

    center = 0.5 * (poly.min(axis=0) + poly.max(axis=0))
    cand, ij = _hex_lattice(poly, center, h)
    keep = _clear_of(poly, cand, _LATTICE_CLEARANCE * h)
    cand, ij = cand[keep], ij[keep]
    lat = _lattice(center, h, ij, nb)
    nodes = np.concatenate([poly, cand], axis=0)

    tris, lattice_count = _triangulate(nodes, poly, bedges, lat)
    rounds = rejected = 0
    while True:
        # kept lattice triangles are equilateral: only the band can fail
        band = tris[lattice_count:]
        _, minang = _backend.triangle_quality(nodes, band)
        bad = minang < _MIN_ANGLE - 1e-12
        if not bad.any():
            break
        if rounds == _MAX_REFINE_ROUNDS:
            raise MeshError("minimum interior angle below 20 degrees after refinement")
        order = np.argsort(minang[bad])
        with np.errstate(divide="ignore", invalid="ignore"):  # a degenerate triangle's centre; `ok` masks it
            cc, radius = _circumcenters(nodes, band[bad])
        cc, radius = cc[order], radius[order]
        ok = np.isfinite(cc).all(axis=1) & np.isfinite(radius) & (radius > 0)
        ok &= _backend.points_in_polygon(np.ascontiguousarray(cc), poly)
        ok[ok] = _clear_of(nodes, cc[ok], _INSERT_CLEARANCE * radius[ok])
        accepted = []
        for k in np.where(ok)[0]:
            p = cc[k]
            if accepted:
                dmin = np.min(np.linalg.norm(np.asarray(accepted) - p, axis=1))
                if dmin < _INSERT_CLEARANCE * radius[k]:
                    continue
            accepted.append(p)
        if not accepted:
            raise MeshError(
                "cannot reach the 20 degree minimum angle: refinement points "
                "were all rejected (corner angle below 20 degrees?)"
            )
        rounds += 1
        rejected += len(cc) - len(accepted)
        nodes = np.concatenate([nodes, np.asarray(accepted)], axis=0)
        tris, lattice_count = _triangulate(nodes, poly, bedges, lat)

    x, y = poly[:, 0], poly[:, 1]
    poly_area = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
    area = _backend.signed_areas(nodes, tris)
    if abs(area.sum() - poly_area) > 1e-10 * max(1.0, abs(poly_area)):
        raise MeshError("triangle areas do not tile the boundary polygon")

    return TriangleMesh(
        nodes=nodes,
        triangles=tris,
        boundary_edges=tuple(zip(*bedges.T.tolist(), tags)),
        mesh_size=h,
        grading_factor=g,
        refinement_rounds=rounds,
        rejected_insertions=rejected,
        min_angle=float(minang.min()),
    )
