"""Hot numerical kernels with a numba fast path and a pure-numpy fallback.

The numba path is used when numba imports cleanly and the environment
variable ``SLOSHSPEC_PURE_NUMPY`` is unset (or "0").  Both paths implement
identical signatures and are exercised against each other in the test
suite.  Their cost inside whole solves is the ``backend.kernel.s`` metric
of a traced benchmark run; see ``perfbench/README.md``.

Only element-local work lives here (P1 element matrices, edge mass,
triangle quality metrics, point-in-polygon tests).  Sparse factorisation
and dense eigensolves stay in scipy, where they belong.
"""

import os

import numpy as np

HAS_NUMBA = False
if os.environ.get("SLOSHSPEC_PURE_NUMPY", "0").strip() not in ("1", "true", "yes"):
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a hard dependency, but stay importable
        HAS_NUMBA = False

USING_NUMBA = HAS_NUMBA


# ---------------------------------------------------------------------------
# pure-numpy implementations (always available; these define the semantics)
# ---------------------------------------------------------------------------

def _stiffness_triplets_numpy(xy, tris):
    """COO triplets of the P1 stiffness matrix.

    For a triangle with vertices p0, p1, p2 the local matrix is
    (outer(b, b) + outer(c, c)) / (4 A) with b_i, c_i the usual gradient
    coefficients and A the (positive) area.
    """
    p0 = xy[tris[:, 0]]
    p1 = xy[tris[:, 1]]
    p2 = xy[tris[:, 2]]
    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    area2 = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
    vals = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (2.0 * area2)[:, None, None]
    rows = np.repeat(tris, 3, axis=1).reshape(-1)
    cols = np.tile(tris, (1, 3)).reshape(-1)
    return rows, cols, vals.reshape(-1)


def _edge_mass_triplets_numpy(xy, edges):
    """COO triplets of the 1D P1 mass matrix on a set of boundary edges.

    Per edge of length l the local matrix is [[l/3, l/6], [l/6, l/3]].
    """
    d = xy[edges[:, 1]] - xy[edges[:, 0]]
    ell = np.hypot(d[:, 0], d[:, 1])
    i, j = edges[:, 0], edges[:, 1]
    rows = np.concatenate([i, i, j, j])
    cols = np.concatenate([i, j, i, j])
    vals = np.concatenate([ell / 3.0, ell / 6.0, ell / 6.0, ell / 3.0])
    return rows, cols, vals


def _triangle_quality_numpy(xy, tris):
    """Signed areas and minimum interior angles (radians) per triangle."""
    p0 = xy[tris[:, 0]]
    p1 = xy[tris[:, 1]]
    p2 = xy[tris[:, 2]]
    area = 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    a2 = np.sum((p2 - p1) ** 2, axis=1)
    b2 = np.sum((p0 - p2) ** 2, axis=1)
    c2 = np.sum((p1 - p0) ** 2, axis=1)
    a, b, c = np.sqrt(a2), np.sqrt(b2), np.sqrt(c2)
    cos0 = np.clip((b2 + c2 - a2) / (2.0 * b * c), -1.0, 1.0)
    cos1 = np.clip((a2 + c2 - b2) / (2.0 * a * c), -1.0, 1.0)
    cos2 = np.clip((a2 + b2 - c2) / (2.0 * a * b), -1.0, 1.0)
    ang = np.arccos(np.stack([cos0, cos1, cos2], axis=1))
    return area, ang.min(axis=1)


def _points_in_polygon_numpy(pts, poly):
    """Even-odd crossing test for points against a closed polygon.

    ``poly`` lists the vertices without repeating the first one at the end.
    Points within ~1e-14 of an edge may land on either side; callers that
    care keep a clearance.
    """
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=np.bool_)
    px, py = poly[:, 0], poly[:, 1]
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    for k in range(len(poly)):
        x0, y0, x1, y1 = px[k], py[k], qx[k], qy[k]
        crosses = (y0 > y) != (y1 > y)
        if not crosses.any():
            continue
        t = (y[crosses] - y0) / (y1 - y0)
        xin = x0 + t * (x1 - x0)
        hit = np.where(crosses)[0][xin > x[crosses]]
        inside[hit] = ~inside[hit]
    return inside


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if HAS_NUMBA:

    @njit(cache=True)
    def _stiffness_triplets_numba(xy, tris):
        n = tris.shape[0]
        rows = np.empty(9 * n, dtype=np.int64)
        cols = np.empty(9 * n, dtype=np.int64)
        vals = np.empty(9 * n, dtype=np.float64)
        b = np.empty(3)
        c = np.empty(3)
        for t in range(n):
            i0, i1, i2 = tris[t, 0], tris[t, 1], tris[t, 2]
            x0, y0 = xy[i0, 0], xy[i0, 1]
            x1, y1 = xy[i1, 0], xy[i1, 1]
            x2, y2 = xy[i2, 0], xy[i2, 1]
            b[0] = y1 - y2
            b[1] = y2 - y0
            b[2] = y0 - y1
            c[0] = x2 - x1
            c[1] = x0 - x2
            c[2] = x1 - x0
            area2 = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
            base = 9 * t
            for a_ in range(3):
                for b_ in range(3):
                    rows[base] = tris[t, a_]
                    cols[base] = tris[t, b_]
                    vals[base] = (b[a_] * b[b_] + c[a_] * c[b_]) / (2.0 * area2)
                    base += 1
        return rows, cols, vals

    @njit(cache=True)
    def _edge_mass_triplets_numba(xy, edges):
        n = edges.shape[0]
        rows = np.empty(4 * n, dtype=np.int64)
        cols = np.empty(4 * n, dtype=np.int64)
        vals = np.empty(4 * n, dtype=np.float64)
        for e in range(n):
            i, j = edges[e, 0], edges[e, 1]
            dx = xy[j, 0] - xy[i, 0]
            dy = xy[j, 1] - xy[i, 1]
            ell = (dx * dx + dy * dy) ** 0.5
            base = 4 * e
            rows[base], cols[base], vals[base] = i, i, ell / 3.0
            rows[base + 1], cols[base + 1], vals[base + 1] = i, j, ell / 6.0
            rows[base + 2], cols[base + 2], vals[base + 2] = j, i, ell / 6.0
            rows[base + 3], cols[base + 3], vals[base + 3] = j, j, ell / 3.0
        return rows, cols, vals

    @njit(cache=True)
    def _triangle_quality_numba(xy, tris):
        n = tris.shape[0]
        area = np.empty(n)
        minang = np.empty(n)
        for t in range(n):
            x0, y0 = xy[tris[t, 0], 0], xy[tris[t, 0], 1]
            x1, y1 = xy[tris[t, 1], 0], xy[tris[t, 1], 1]
            x2, y2 = xy[tris[t, 2], 0], xy[tris[t, 2], 1]
            area[t] = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
            a2 = (x2 - x1) ** 2 + (y2 - y1) ** 2
            b2 = (x0 - x2) ** 2 + (y0 - y2) ** 2
            c2 = (x1 - x0) ** 2 + (y1 - y0) ** 2
            a = a2 ** 0.5
            b = b2 ** 0.5
            c = c2 ** 0.5
            m = 4.0
            for cosv in (
                (b2 + c2 - a2) / (2.0 * b * c),
                (a2 + c2 - b2) / (2.0 * a * c),
                (a2 + b2 - c2) / (2.0 * a * b),
            ):
                if cosv > 1.0:
                    cosv = 1.0
                elif cosv < -1.0:
                    cosv = -1.0
                ang = np.arccos(cosv)
                if ang < m:
                    m = ang
            minang[t] = m
        return area, minang

    @njit(cache=True)
    def _points_in_polygon_numba(pts, poly):
        npts = pts.shape[0]
        nv = poly.shape[0]
        inside = np.zeros(npts, dtype=np.bool_)
        for p in range(npts):
            x, y = pts[p, 0], pts[p, 1]
            flag = False
            for k in range(nv):
                x0, y0 = poly[k, 0], poly[k, 1]
                k1 = k + 1
                if k1 == nv:
                    k1 = 0
                x1, y1 = poly[k1, 0], poly[k1, 1]
                if (y0 > y) != (y1 > y):
                    t = (y - y0) / (y1 - y0)
                    if x0 + t * (x1 - x0) > x:
                        flag = not flag
            inside[p] = flag
        return inside


if USING_NUMBA:
    stiffness_triplets = _stiffness_triplets_numba
    edge_mass_triplets = _edge_mass_triplets_numba
    triangle_quality = _triangle_quality_numba
    points_in_polygon = _points_in_polygon_numba
else:
    stiffness_triplets = _stiffness_triplets_numpy
    edge_mass_triplets = _edge_mass_triplets_numpy
    triangle_quality = _triangle_quality_numpy
    points_in_polygon = _points_in_polygon_numpy
