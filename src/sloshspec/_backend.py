"""Element-local numerical kernels.

P1 element matrices, edge mass, triangle quality metrics and
point-in-polygon tests, vectorized in numpy.  Sparse factorisation and
eigensolves stay in scipy.  The kernels' cost inside whole solves is the
``backend.kernel.s`` metric of a traced benchmark run; see
``perfbench/README.md``.
"""

import numpy as np


def stiffness_triplets(xy, tris):
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


def edge_mass_triplets(xy, edges):
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


def triangle_quality(xy, tris):
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


def points_in_polygon(pts, poly):
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
