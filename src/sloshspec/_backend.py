"""Element-local numerical kernels.

P1 element matrices, edge mass, triangle quality metrics and
point-in-polygon tests, vectorized in numpy.  Sparse factorisation and
eigensolves stay in scipy.  The kernels' cost inside whole solves is the
``backend.kernel.s`` metric of a traced benchmark run; see
``perfbench/README.md``.

The point-in-polygon test is a crossing sweep (Haines, "Point in polygon
strategies", Graphics Gems IV, 1994): `crossings` sorts the heights, each
polygon edge spans a contiguous run of them and crosses each once, and a
point is inside when an odd number of the crossings at its height lie to
its right.  The mesher's hex lattice rows are one height each, so it
reads each row's inside runs off that row's sorted crossings and makes
no point outside them; centroids and circumcenters are swept point by
point.
"""

import numpy as np


def stiffness_triplets(xy, tris):
    """COO triplets of the P1 stiffness matrix.

    For a triangle with vertices p0, p1, p2 the local matrix is
    (outer(b, b) + outer(c, c)) / (4 A) with b_i, c_i the usual gradient
    coefficients and A the (positive) area.  Returns int32 `rows` and
    `cols` (node ids below 2**31) and float64 `vals`, nine per triangle,
    triangle by triangle, row-major within each local matrix.

    The products are formed in place, one local row of outer(c, c) at a
    time, so the transient beyond the 9-per-triangle `vals` is a third
    of it.  Each entry is still (b_i b_j + c_i c_j) / (2 * 2A), the same
    operations in the same order, so the values are bit for bit those of
    the whole-array expression.  The int32 indices are the width scipy
    gives the CSR sum anyway; int64 triplets would only double their
    bytes.
    """
    p0 = xy[tris[:, 0]]
    p1 = xy[tris[:, 1]]
    p2 = xy[tris[:, 2]]
    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    area2 = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
    del p0, p1, p2
    vals = np.multiply(b[:, :, None], b[:, None, :])
    for i in range(3):
        vals[:, i] += c[:, i, None] * c
    vals /= (2.0 * area2)[:, None, None]
    tris = tris.astype(np.int32)
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


def signed_areas(xy, tris):
    """Signed triangle areas, positive for counterclockwise vertices."""
    p0 = xy[tris[:, 0]]
    p1 = xy[tris[:, 1]]
    p2 = xy[tris[:, 2]]
    return 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))


def triangle_quality(xy, tris):
    """Signed areas and minimum interior angles (radians) per triangle."""
    p0 = xy[tris[:, 0]]
    p1 = xy[tris[:, 1]]
    p2 = xy[tris[:, 2]]
    a2 = np.sum((p2 - p1) ** 2, axis=1)
    b2 = np.sum((p0 - p2) ** 2, axis=1)
    c2 = np.sum((p1 - p0) ** 2, axis=1)
    a, b, c = np.sqrt(a2), np.sqrt(b2), np.sqrt(c2)
    cos0 = np.clip((b2 + c2 - a2) / (2.0 * b * c), -1.0, 1.0)
    cos1 = np.clip((a2 + c2 - b2) / (2.0 * a * c), -1.0, 1.0)
    cos2 = np.clip((a2 + b2 - c2) / (2.0 * a * b), -1.0, 1.0)
    ang = np.arccos(np.stack([cos0, cos1, cos2], axis=1))
    return signed_areas(xy, tris), ang.min(axis=1)


def runs(lo, hi):
    """The ranges range(lo[k], hi[k]) laid end to end, and their lengths."""
    count = hi - lo
    return np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count), count


def crossings(ys, poly):
    """Where the edges of a closed polygon cross the ascending heights `ys`.

    Returns (row, x), one entry per crossing of height ys[row].  Edge
    (x0, y0) -> (x1, y1) crosses height y when min(y0, y1) <= y <
    max(y0, y1), at x0 + t (x1 - x0) with t = (y - y0) / (y1 - y0), so
    every height crosses the polygon an even number of times.  Each edge
    spans a contiguous run of heights; NaN heights sort last and, like
    +-inf, fall in no run.
    """
    px, py = poly[:, 0], poly[:, 1]
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    row, spanned = runs(np.searchsorted(ys, np.minimum(py, qy)), np.searchsorted(ys, np.maximum(py, qy)))
    edge = np.repeat(np.arange(len(poly)), spanned)
    t = (ys[row] - py[edge]) / (qy[edge] - py[edge])
    return row, px[edge] + t * (qx[edge] - px[edge])


def points_in_polygon(pts, poly):
    """Even-odd crossing test for points against a closed polygon.

    ``poly`` lists the vertices without repeating the first one at the end.
    Points within ~1e-14 of an edge may land on either side; callers that
    care keep a clearance.  Points with a non-finite coordinate are
    outside.  A point is inside when an odd number of the crossings at its
    height lie strictly right of it.
    """
    order = np.argsort(pts[:, 1], kind="stable")
    point, xin = crossings(pts[order, 1], poly)
    right = xin > pts[order[point], 0]
    inside = np.zeros(len(pts), dtype=np.bool_)
    inside[order] = np.bincount(point[right], minlength=len(pts)) % 2 == 1
    return inside
