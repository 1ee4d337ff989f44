"""Curves, domain assembly, mesh generation, serialization, kernels."""

import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from sloshspec import _backend
from sloshspec.fem_steklov import _stiffness_csr
from sloshspec.geometry import mesh as mesh_module
from sloshspec.geometry.domain import (
    BoundaryPiece,
    CircularArc,
    CornerSpec,
    LineSegment,
    ParametricCurve,
    Polyline,
    SloshingDomain,
    build_curvilinear_example,
    build_rectangle_domain,
    build_triangle_domain,
)
from sloshspec.geometry.io import (
    domain_from_json,
    domain_to_json,
    read_mesh_text,
    write_mesh_text,
)
from sloshspec.geometry.mesh import MeshError, TriangleMesh, generate_mesh

from _tables import EX2_SURFACE_LENGTH, MESH_DIGESTS, NOTCH_WALL_POINTS

WAVY_SURFACE_LENGTH = 1.2160067234249798


def notch_domain():
    """Unit-surface tank with a needle spike rising from the floor."""
    surface = BoundaryPiece(LineSegment((0.0, 0.0), (1.0, 0.0)), "steklov")
    wall = BoundaryPiece(Polyline(NOTCH_WALL_POINTS), "neumann")
    return SloshingDomain(
        sloshing_surface=surface,
        walls=(wall,),
        corner_A=CornerSpec(math.pi / 2, "neumann"),
        corner_B=CornerSpec(math.pi / 2, "neumann"),
        surface_length=1.0,
    )


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def test_line_segment_length_and_points():
    seg = LineSegment((1.0, 2.0), (4.0, 6.0))
    assert seg.length() == pytest.approx(5.0, abs=1e-15)
    np.testing.assert_allclose(seg.point(0.0), [1.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(seg.point(1.0), [4.0, 6.0], atol=1e-15)
    np.testing.assert_allclose(seg.point(0.5), [2.5, 4.0], atol=1e-15)
    mid = seg.point(np.array([0.25, 0.75]))
    assert mid.shape == (2, 2)
    with pytest.raises(ValueError, match="degenerate"):
        LineSegment((1.0, 1.0), (1.0, 1.0))


def test_circular_arc_length_and_points():
    arc = CircularArc((0.5, 0.0), 0.5, math.pi, 2 * math.pi)
    assert arc.length() == pytest.approx(0.5 * math.pi, abs=1e-15)
    np.testing.assert_allclose(arc.point(0.0), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(arc.point(1.0), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(arc.point(0.5), [0.5, -0.5], atol=1e-15)
    u = np.linspace(0.0, 1.0, 17)
    radii = np.linalg.norm(arc.point(u) - [0.5, 0.0], axis=-1)
    np.testing.assert_allclose(radii, 0.5, atol=1e-15)
    # reversed parameter order traverses the other way, same length
    rev = CircularArc((0.5, 0.0), 0.5, 2 * math.pi, math.pi)
    assert rev.length() == pytest.approx(arc.length(), abs=1e-15)
    np.testing.assert_allclose(rev.point(0.0), [1.0, 0.0], atol=1e-15)
    with pytest.raises(ValueError, match="degenerate"):
        CircularArc((0.0, 0.0), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="degenerate"):
        CircularArc((0.0, 0.0), 1.0, 0.7, 0.7)


def test_polyline_length_and_interpolation():
    poly = Polyline(((0.0, 0.0), (1.0, 0.0), (1.0, 2.0)))
    assert poly.length() == pytest.approx(3.0, abs=1e-15)
    np.testing.assert_allclose(poly.point(0.0), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(poly.point(1.0), [1.0, 2.0], atol=1e-15)
    # one third of the arc length lands exactly on the interior vertex
    np.testing.assert_allclose(poly.point(1.0 / 3.0), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(poly.point(0.5), [1.0, 0.5], atol=1e-12)
    with pytest.raises(ValueError, match="at least two"):
        Polyline(((0.0, 0.0),))
    with pytest.raises(ValueError, match="repeated"):
        Polyline(((0.0, 0.0), (0.0, 0.0), (1.0, 0.0)))


@given(
    pts=st.lists(
        st.tuples(
            st.floats(-5.0, 5.0).map(lambda v: round(v, 3)),
            st.floats(-5.0, 5.0).map(lambda v: round(v, 3)),
        ),
        min_size=2,
        max_size=8,
        unique=True,
    )
)
def test_polyline_length_dominates_chord(pts):
    poly = Polyline(tuple(pts))
    chord = math.dist(pts[0], pts[-1])
    assert poly.length() >= chord - 1e-12
    arr = np.asarray(pts)
    sampled = poly.point(np.linspace(0.0, 1.0, 9))
    assert sampled[:, 0].min() >= arr[:, 0].min() - 1e-12
    assert sampled[:, 0].max() <= arr[:, 0].max() + 1e-12
    assert sampled[:, 1].min() >= arr[:, 1].min() - 1e-12
    assert sampled[:, 1].max() <= arr[:, 1].max() + 1e-12


def test_parametric_curve_matches_half_circle():
    def position(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.cos(math.pi * t), np.sin(math.pi * t)], axis=-1)

    def velocity(t):
        t = np.asarray(t, dtype=float)
        return math.pi * np.stack(
            [-np.sin(math.pi * t), np.cos(math.pi * t)], axis=-1
        )

    curve = ParametricCurve(position, velocity)
    assert curve.length() == pytest.approx(math.pi, rel=1e-12)
    np.testing.assert_allclose(curve.point(0.0), [1.0, 0.0], atol=1e-12)
    # constant speed, so u = 1/2 is the top of the circle
    np.testing.assert_allclose(curve.point(0.5), [0.0, 1.0], atol=1e-6)
    with pytest.raises(ValueError, match="t1 > t0"):
        ParametricCurve(position, velocity, 1.0, 1.0)


def test_parametric_curve_reparametrizes_by_arc_length():
    # wildly non-uniform parameter speed; u must still track arc length
    def position(t):
        t = np.asarray(t, dtype=float)
        return np.stack([t**3, np.zeros_like(t)], axis=-1)

    def velocity(t):
        t = np.asarray(t, dtype=float)
        return np.stack([3.0 * t**2, np.zeros_like(t)], axis=-1)

    curve = ParametricCurve(position, velocity)
    assert curve.length() == pytest.approx(1.0, rel=1e-12)
    u = np.linspace(0.0, 1.0, 21)
    np.testing.assert_allclose(curve.point(u)[:, 0], u, atol=1e-5)


def test_wavy_surface_length_matches_dense_quadrature():
    plus = build_curvilinear_example("+")
    t = np.linspace(0.0, 1.0, 200001)
    speed = np.hypot(np.ones_like(t), np.cos(2 * math.pi * t))
    oracle = np.trapezoid(speed, t)
    assert plus.surface_length == pytest.approx(oracle, abs=1e-9)
    assert plus.surface_length == pytest.approx(WAVY_SURFACE_LENGTH, abs=1e-12)
    assert plus.surface_length == pytest.approx(EX2_SURFACE_LENGTH, abs=1e-5)
    minus = build_curvilinear_example("-")
    assert minus.surface_length == pytest.approx(plus.surface_length, abs=1e-14)


# ---------------------------------------------------------------------------
# domain assembly and validation
# ---------------------------------------------------------------------------

def test_corner_spec_validation():
    with pytest.raises(ValueError, match="corner angle"):
        CornerSpec(0.0, "neumann")
    with pytest.raises(ValueError, match="corner angle"):
        CornerSpec(math.pi, "neumann")
    with pytest.raises(ValueError, match="wall condition"):
        CornerSpec(1.0, "steklov")


def test_boundary_piece_validation():
    seg = LineSegment((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError, match="condition"):
        BoundaryPiece(seg, "robin")
    piece = BoundaryPiece(seg, "neumann")
    a, b = piece.endpoints()
    np.testing.assert_allclose(a, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(b, [1.0, 0.0], atol=1e-15)


def test_domain_requires_one_steklov_piece():
    seg = LineSegment((0.0, 0.0), (1.0, 0.0))
    wall = BoundaryPiece(Polyline(((0.0, 0.0), (0.5, -1.0), (1.0, 0.0))), "neumann")
    spec = CornerSpec(1.0, "neumann")
    with pytest.raises(ValueError, match="steklov"):
        SloshingDomain(BoundaryPiece(seg, "neumann"), (wall,), spec, spec, 1.0)
    with pytest.raises(ValueError, match="exactly one"):
        SloshingDomain(
            BoundaryPiece(seg, "steklov"),
            (BoundaryPiece(Polyline(((0.0, 0.0), (0.5, -1.0), (1.0, 0.0))), "steklov"),),
            spec,
            spec,
            1.0,
        )
    with pytest.raises(ValueError, match="at least one wall"):
        SloshingDomain(BoundaryPiece(seg, "steklov"), (), spec, spec, 1.0)


def test_domain_rejects_inconsistent_surface_length():
    seg = LineSegment((0.0, 0.0), (1.0, 0.0))
    wall = BoundaryPiece(Polyline(((0.0, 0.0), (0.5, -1.0), (1.0, 0.0))), "neumann")
    spec = CornerSpec(1.0, "neumann")
    with pytest.raises(ValueError, match="disagrees"):
        SloshingDomain(BoundaryPiece(seg, "steklov"), (wall,), spec, spec, 1.5)


def test_domain_rejects_broken_wall_chain():
    seg = LineSegment((0.0, 0.0), (1.0, 0.0))
    spec = CornerSpec(1.0, "neumann")
    walls = (
        BoundaryPiece(LineSegment((0.0, 0.0), (0.5, -1.0)), "neumann"),
        BoundaryPiece(LineSegment((0.6, -1.0), (1.0, 0.0)), "neumann"),
    )
    with pytest.raises(ValueError, match="chain"):
        SloshingDomain(BoundaryPiece(seg, "steklov"), walls, spec, spec, 1.0)


def test_domain_rejects_walls_running_backwards():
    seg = LineSegment((0.0, 0.0), (1.0, 0.0))
    spec = CornerSpec(1.0, "neumann")
    walls = (
        BoundaryPiece(LineSegment((1.0, 0.0), (0.5, -1.0)), "neumann"),
        BoundaryPiece(LineSegment((0.5, -1.0), (0.0, 0.0)), "neumann"),
    )
    with pytest.raises(ValueError, match="corner A to corner B"):
        SloshingDomain(BoundaryPiece(seg, "steklov"), walls, spec, spec, 1.0)


@pytest.mark.parametrize("corner", ["corner_A", "corner_B"])
def test_domain_rejects_corners_that_contradict_their_walls(corner):
    good = build_rectangle_domain(1.0, 1.0, ("neumann", "dirichlet", "neumann"))
    with pytest.raises(ValueError, match=f"corner {corner[-1]}"):
        dataclasses.replace(good, **{corner: CornerSpec(math.pi / 2, "dirichlet")})


@pytest.mark.parametrize("corner", ["corner_A", "corner_B"])
def test_domain_rejects_corner_angles_that_contradict_the_geometry(corner):
    good = build_rectangle_domain(1.0, 1.0)
    with pytest.raises(ValueError, match=f"corner {corner[-1]} angle 0.3 disagrees"):
        dataclasses.replace(good, **{corner: CornerSpec(0.3, "neumann")})


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_triangle_domain(math.pi / 4, math.pi / 4, 1.0),
        lambda: build_triangle_domain(2 * math.pi / 5, math.pi / 6, 2.0, ("neumann", "dirichlet")),
        lambda: build_rectangle_domain(math.pi, 1.0),
        lambda: build_curvilinear_example("+"),
        lambda: build_curvilinear_example("-"),
        notch_domain,
    ],
    ids=["triangle-q2", "triangle-ex1", "rectangle", "example2-plus", "example2-minus", "notch"],
)
def test_builtin_domains_pass_the_corner_angle_check(build):
    # construction runs every check, the measured corner angles included
    assert isinstance(build(), SloshingDomain)


def test_triangle_domain_geometry():
    dom = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    a, b = dom.corner_points
    np.testing.assert_allclose(a, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(b, [1.0, 0.0], atol=1e-15)
    apex = dom.walls[0].endpoints()[1]
    np.testing.assert_allclose(apex, [0.5, -0.5], atol=1e-14)
    assert dom.corner_A.angle == pytest.approx(math.pi / 4)
    assert dom.corner_B.angle == pytest.approx(math.pi / 4)
    mixed = build_triangle_domain(
        2 * math.pi / 5, math.pi / 6, 2.0, wall_conditions=("neumann", "dirichlet")
    )
    assert mixed.corner_A.condition == "neumann"
    assert mixed.corner_B.condition == "dirichlet"
    assert mixed.walls[0].condition == "neumann"
    assert mixed.walls[1].condition == "dirichlet"
    with pytest.raises(ValueError, match="below pi"):
        build_triangle_domain(2.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        build_triangle_domain(1.0, 1.0, -1.0)


def test_rectangle_domain_geometry():
    dom = build_rectangle_domain(math.pi, 1.0)
    assert dom.surface_length == pytest.approx(math.pi)
    assert len(dom.walls) == 3
    assert dom.corner_A.angle == pytest.approx(math.pi / 2)
    assert dom.corner_B.angle == pytest.approx(math.pi / 2)
    bottom = dom.walls[1]
    p0, p1 = bottom.endpoints()
    assert p0[1] == pytest.approx(-1.0)
    assert p1[1] == pytest.approx(-1.0)
    with pytest.raises(ValueError, match="positive"):
        build_rectangle_domain(1.0, 0.0)


def test_curvilinear_example_corner_data():
    plus = build_curvilinear_example("+")
    assert plus.corner_A.angle == pytest.approx(3 * math.pi / 4)
    assert plus.corner_A.condition == "neumann"
    assert plus.corner_B.angle == pytest.approx(math.pi / 4)
    assert plus.corner_B.condition == "dirichlet"
    minus = build_curvilinear_example("-")
    assert minus.corner_A.angle == pytest.approx(math.pi / 4)
    assert minus.corner_B.angle == pytest.approx(3 * math.pi / 4)
    for alias in ("plus", 1, "+1"):
        assert build_curvilinear_example(alias).corner_A.angle == pytest.approx(
            plus.corner_A.angle
        )
    with pytest.raises(ValueError, match="sign"):
        build_curvilinear_example("solid")


def test_loop_pieces_puts_reversed_surface_last():
    dom = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    loop = dom.loop_pieces()
    assert len(loop) == 3
    assert loop[-1][0] is dom.sloshing_surface
    assert loop[-1][1] is True
    assert all(rev is False for _, rev in loop[:-1])


# ---------------------------------------------------------------------------
# mesh generation
# ---------------------------------------------------------------------------

def test_mesh_quality_floor_and_orientation():
    dom = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    mesh = generate_mesh(dom, 0.05)
    area, angles = mesh.quality()
    assert (area > 0).all()
    assert angles.min() >= math.radians(20.0) - 1e-12
    assert mesh.num_triangles > 100
    assert mesh.mesh_size == 0.05
    assert mesh.grading_factor == 0.25


def test_steklov_edges_cover_the_surface():
    dom = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    mesh = generate_mesh(dom, 0.05)
    edges = mesh.edges_with_tag("steklov")
    assert len(edges) > 10
    nodes = mesh.nodes
    # straight surface: every surface node sits on y = 0 and chord
    # lengths add up to the exact surface length
    assert np.abs(nodes[np.unique(edges)][:, 1]).max() < 1e-12
    lens = np.hypot(*(nodes[edges[:, 1]] - nodes[edges[:, 0]]).T)
    assert lens.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(mesh.edges_with_tag("neumann")) > 0
    assert len(mesh.edges_with_tag("dirichlet")) == 0


def test_boundary_edges_form_closed_loop():
    dom = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    mesh = generate_mesh(dom, 0.05)
    edges = [(i, j) for i, j, _ in mesh.boundary_edges]
    for (i0, j0), (i1, j1) in zip(edges, edges[1:] + edges[:1]):
        assert j0 == i1
    # loop direction keeps the domain on the left: signed area positive
    pts = mesh.nodes[[i for i, _, _ in mesh.boundary_edges]]
    x, y = pts[:, 0], pts[:, 1]
    signed = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert signed > 0


def test_grading_shrinks_surface_edges_near_corners():
    dom = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)

    def surface_edge_lengths(g):
        mesh = generate_mesh(dom, 0.05, grading_factor=g)
        edges = mesh.edges_with_tag("steklov")
        seg = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
        order = np.argsort(np.minimum(
            mesh.nodes[edges[:, 0], 0], mesh.nodes[edges[:, 1], 0]
        ))
        return np.hypot(seg[:, 0], seg[:, 1])[order]

    graded = surface_edge_lengths(0.25)
    uniform = surface_edge_lengths(1.0)
    assert graded.min() < 0.02
    assert graded.max() > 0.04
    # the ramp: corner-adjacent edges are the short ones
    assert graded[0] < 0.6 * graded[len(graded) // 2]
    assert graded[-1] < 0.6 * graded[len(graded) // 2]
    assert uniform.min() > 0.045
    assert uniform.max() < 0.055


def _stepwise_piece(curve, reverse, h, g, corners):
    """Reference boundary walk: one curve.point and spacing call per step."""
    ramp = (1.0 - g) / (mesh_module._GRADING_ZONE * h)

    def local_h(p):
        d = min(np.hypot(*(np.asarray(p) - c)) for c in corners)
        return h * min(1.0, g + ramp * d)

    length = curve.length()
    fracs = [0.0]
    spans = mesh_module._mandatory_fractions(curve)
    if reverse:
        spans = 1.0 - spans[::-1]
    for f0, f1 in zip(spans[:-1], spans[1:]):
        span_len = (f1 - f0) * length
        steps = []
        s = 0.0
        while s < span_len:
            u_loop = f0 + s / length
            p = curve.point(1.0 - u_loop if reverse else u_loop)
            steps.append(min(local_h(p), span_len))
            s += steps[-1]
        scale = span_len / s
        acc = f0
        for st in steps:
            acc += st * scale / length
            fracs.append(acc)
        fracs[-1] = f1
    return np.asarray(fracs[1:-1])


@pytest.mark.parametrize("h, g", [(0.04, 0.25), (0.013, 0.25), (0.02, 1.0), (0.3, 0.5)])
def test_boundary_walk_matches_the_stepwise_walk(h, g, monkeypatch):
    domains = [build_curvilinear_example("+"), build_rectangle_domain(math.pi, 0.7), notch_domain()]
    got = [mesh_module._sample_boundary(domain, h, g) for domain in domains]
    for domain, (nodes, tags) in zip(domains, got):
        corners = [np.asarray(c) for c in domain.corner_points]
        monkeypatch.setattr(
            mesh_module,
            "_sample_piece",
            lambda curve, reverse, *_: _stepwise_piece(curve, reverse, h, g, corners),
        )
        want_nodes, want_tags = mesh_module._sample_boundary(domain, h, g)
        assert nodes.tobytes() == want_nodes.tobytes()
        assert tags == want_tags


@pytest.mark.parametrize("h, g", [(0.1, 0.25), (0.05, 0.5)])
def test_boundary_edges_follow_the_loop_order(h, g):
    for domain in (build_curvilinear_example("+"), build_rectangle_domain(math.pi, 0.7), notch_domain()):
        mesh = generate_mesh(domain, h, g)
        nodes, tags = mesh_module._sample_boundary(domain, h, g)
        nb = len(nodes)
        assert mesh.boundary_edges == tuple((k, (k + 1) % nb, tags[k]) for k in range(nb))
        assert mesh.nodes[:nb].tobytes() == nodes.tobytes()


def test_mesh_generation_is_deterministic():
    dom = build_triangle_domain(2 * math.pi / 5, math.pi / 6, 2.0)
    m1 = generate_mesh(dom, 0.1)
    m2 = generate_mesh(dom, 0.1)
    assert m1.nodes.tobytes() == m2.nodes.tobytes()
    assert m1.triangles.tobytes() == m2.triangles.tobytes()
    assert m1.boundary_edges == m2.boundary_edges


def test_needle_spike_defeats_coarse_meshing():
    dom = notch_domain()
    for h in (0.4, 0.3, 0.2):
        with pytest.raises(MeshError, match="not recovered"):
            generate_mesh(dom, h)
    mesh = generate_mesh(dom, 0.1)
    area, angles = mesh.quality()
    assert (area > 0).all()
    assert angles.min() >= math.radians(20.0) - 1e-12
    assert mesh.num_triangles > 150


def _full_qhull_triangulate(nodes, poly, bedges, lat):
    """Reference triangulation: qhull on every node, then the centroid filter."""
    tris = Delaunay(nodes).simplices.astype(np.int64)
    tris = tris[_backend.points_in_polygon(nodes[tris].mean(axis=1), poly)]
    area, _ = _backend.triangle_quality(nodes, tris)
    flip = area < 0
    tris[flip, 1], tris[flip, 2] = tris[flip, 2].copy(), tris[flip, 1].copy()
    return tris, 0


def _assert_same_delaunay(ref, got):
    """Same nodes and triangles, except where qhull breaks a cocircular tie.

    Returns the number of triangles that differ.
    """
    assert got.nodes.shape == ref.nodes.shape
    assert np.abs(got.nodes - ref.nodes).max() <= 1e-12
    a = set(map(tuple, np.sort(ref.triangles, axis=1).tolist()))
    b = set(map(tuple, np.sort(got.triangles, axis=1).tolist()))
    differ = sorted(a ^ b)
    if not differ:
        return 0
    verts = np.unique(differ)
    cc, radius = mesh_module._circumcenters(got.nodes, np.array(differ))
    for t, c, r in zip(differ, cc, radius):
        fourth = verts[~np.isin(verts, t)]
        d = np.hypot(*(got.nodes[fourth] - c).T)
        assert np.any(np.abs(d - r) <= 1e-9 * r), f"triangle {t} differs without a tie"
    k_ref = _stiffness_csr(ref.nodes, ref.triangles)
    k_got = _stiffness_csr(got.nodes, got.triangles)
    assert abs(k_got - k_ref).max() <= 1e-12 * abs(k_ref).max()
    return len(differ)


def _equivalence_domains():
    alpha, beta = 2 * math.pi / 5, math.pi / 6
    for wall in ("neumann", "dirichlet"):
        yield f"ex1-{wall}", build_triangle_domain(alpha, beta, 2.0, (wall, wall))
    for sign in "+-":
        yield f"ex2{sign}", build_curvilinear_example(sign)
    for q in (2, 3, 4):
        yield f"q{q}", build_triangle_domain(math.pi / (2 * q), math.pi / (2 * q), 1.0)


@pytest.mark.parametrize(
    "domain", [d for _, d in _equivalence_domains()], ids=[n for n, _ in _equivalence_domains()]
)
def test_mesh_matches_delaunay_of_all_nodes(domain, monkeypatch):
    got = {}
    for h in (0.04, 0.02, 0.01):
        for g in (0.25, 1.0):
            got[h, g] = generate_mesh(domain, h, g)
    monkeypatch.setattr(mesh_module, "_triangulate", _full_qhull_triangulate)
    for (h, g), mesh in got.items():
        _assert_same_delaunay(generate_mesh(domain, h, g), mesh)


def _mesh_digest(mesh):
    digest = hashlib.sha256(mesh.nodes.tobytes())
    digest.update(mesh.triangles.tobytes())
    digest.update(repr(mesh.boundary_edges).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name, domain", list(_equivalence_domains()), ids=[n for n, _ in _equivalence_domains()]
)
def test_meshes_match_recorded_digests(name, domain):
    for h in (0.04, 0.02):
        for g in (0.25, 1.0):
            assert _mesh_digest(generate_mesh(domain, h, g)) == MESH_DIGESTS[name, h, g], (h, g)


def test_kept_lattice_triangles_have_empty_circumdisks(monkeypatch):
    seen = []
    tested = mesh_module._empty_lattice_triangles

    def record(lat, nodes, others):
        seen.append((lat, nodes, others))
        return tested(lat, nodes, others)

    monkeypatch.setattr(mesh_module, "_empty_lattice_triangles", record)
    generate_mesh(build_triangle_domain(2 * math.pi / 5, math.pi / 6, 2.0), 0.1)
    assert len(seen) == 2  # the initial triangulation and one refinement round
    lat, nodes, others = seen[-1]
    # extra points: scattered, and just inside or outside chosen circumcircles
    rng = np.random.default_rng(0)
    radius = lat.pitch / math.sqrt(3.0)
    chosen = nodes[lat.tris[rng.choice(len(lat.tris), 40)]].mean(axis=1)
    angle = rng.uniform(0.0, 2.0 * math.pi, 40)
    scale = radius * np.repeat([1.0 - 1e-6, 1.0 + 1e-6], 20)[:, None]
    extra = np.vstack([
        rng.uniform(nodes.min(axis=0), nodes.max(axis=0), (60, 2)),
        chosen + scale * np.stack([np.cos(angle), np.sin(angle)], axis=1),
    ])
    kept = []
    for pts, outside in ((nodes, others), (np.vstack([nodes, extra]), np.vstack([others, extra]))):
        keep = tested(lat, pts, outside)
        centroid = pts[lat.tris].mean(axis=1)
        d = np.hypot(*(pts[None, :, :] - centroid[:, None, :]).transpose(2, 0, 1))
        d[np.arange(len(d))[:, None], lat.tris] = np.inf
        np.testing.assert_array_equal(keep, d.min(axis=1) > radius * (1.0 + 1e-9))
        kept.append(int(keep.sum()))
    assert 0 < kept[1] < kept[0] - 20


def test_generate_mesh_records_its_refinement(monkeypatch):
    seen = []
    triangulate = mesh_module._triangulate

    def record(nodes, *args):
        tris, lattice_count = triangulate(nodes, *args)
        seen.append((nodes, tris, lattice_count))
        return tris, lattice_count

    monkeypatch.setattr(mesh_module, "_triangulate", record)
    mesh = generate_mesh(build_triangle_domain(2 * math.pi / 5, math.pi / 6, 2.0), 0.1)
    assert mesh.refinement_rounds == len(seen) - 1 == 1
    (nodes0, tris0, _), (nodes1, _, _) = seen
    # kept lattice triangles come first and are equilateral
    for nodes, tris, count in seen:
        _, angles = _backend.triangle_quality(nodes, tris[:count])
        np.testing.assert_allclose(angles, math.pi / 3, atol=1e-12)
    _, angles0 = _backend.triangle_quality(nodes0, tris0)
    bad = int(np.count_nonzero(angles0 < math.radians(20.0) - 1e-12))
    inserted = len(nodes1) - len(nodes0)
    assert 0 < inserted < bad
    assert mesh.rejected_insertions == bad - inserted
    _, angles = mesh.quality()
    assert mesh.min_angle == angles.min() >= math.radians(20.0) - 1e-12
    # bookkeeping only: no part of equality or of the text dump
    untracked = {f.name for f in dataclasses.fields(TriangleMesh) if not f.compare}
    assert {"refinement_rounds", "rejected_insertions", "min_angle"} <= untracked


def test_mesh_without_lattice_points(monkeypatch):
    sizes = []
    build = mesh_module._lattice

    def record(center, pitch, ij, first):
        sizes.append(len(ij))
        return build(center, pitch, ij, first)

    monkeypatch.setattr(mesh_module, "_lattice", record)
    dom = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    got = generate_mesh(dom, 0.5)
    assert sizes == [0]
    _, angles = got.quality()
    assert angles.min() >= math.radians(20.0) - 1e-12
    monkeypatch.setattr(mesh_module, "_triangulate", _full_qhull_triangulate)
    assert _assert_same_delaunay(generate_mesh(dom, 0.5), got) == 0


def test_qhull_sees_only_the_boundary_band(monkeypatch):
    rounds = []
    qhull = mesh_module.Delaunay
    triangulate = mesh_module._triangulate

    def count_triangulations(nodes, *args):
        rounds.append((len(nodes), []))
        return triangulate(nodes, *args)

    def record_qhull(points):
        rounds[-1][1].append(len(points))
        return qhull(points)

    monkeypatch.setattr(mesh_module, "_triangulate", count_triangulations)
    monkeypatch.setattr(mesh_module, "Delaunay", record_qhull)
    generate_mesh(build_triangle_domain(2 * math.pi / 5, math.pi / 6, 2.0), 0.005)
    assert len(rounds) >= 2  # the initial triangulation and a refinement round
    for num_nodes, qhull_sizes in rounds:
        assert len(qhull_sizes) == 1
        assert qhull_sizes[0] <= 0.1 * num_nodes


@pytest.mark.parametrize("h", [1e-300, 1e-7])
def test_mesh_size_past_the_node_bound_is_rejected_before_sampling(h, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("the boundary was sampled")

    monkeypatch.setattr(mesh_module, "_sample_boundary", no_sampling)
    domain = build_triangle_domain(2 * math.pi / 5, math.pi / 6, 2.0)
    with pytest.raises(MeshError, match="nodes, more than"):
        generate_mesh(domain, h)


def test_triangle_mesh_validation():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="non-positively-oriented"):
        TriangleMesh(nodes, np.array([[0, 2, 1]]), (), 0.1, 1.0)
    with pytest.raises(MeshError, match="nodes"):
        TriangleMesh(np.zeros((4, 3)), np.array([[0, 1, 2]]), (), 0.1, 1.0)
    with pytest.raises(MeshError, match="triangles"):
        TriangleMesh(nodes, np.array([[0, 1, 2, 0]]), (), 0.1, 1.0)


def test_quality_of_single_equilateral_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    mesh = TriangleMesh(nodes, np.array([[0, 1, 2]]), (), 1.0, 1.0)
    area, angles = mesh.quality()
    assert area[0] == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)
    assert angles[0] == pytest.approx(math.pi / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_domain_json_round_trip():
    dom = build_triangle_domain(
        2 * math.pi / 5, math.pi / 6, 2.0, wall_conditions=("neumann", "dirichlet")
    )
    doc = json.loads(json.dumps(domain_to_json(dom)))
    back = domain_from_json(doc)
    assert back.surface_length == dom.surface_length
    assert back.corner_A == dom.corner_A
    assert back.corner_B == dom.corner_B
    assert [w.condition for w in back.walls] == [w.condition for w in dom.walls]
    np.testing.assert_allclose(
        back.walls[0].endpoints(), dom.walls[0].endpoints(), atol=0
    )
    assert domain_to_json(back) == doc


# sha256 of json.dumps(domain_to_json(d), sort_keys=True); the domain file
# format keeps the key "condition_adjacent_wall" for each corner
DOMAIN_JSON_DIGESTS = {
    "triangle": "d0568f14b44212a784b8a0c119e332d3ee3740f57bbcde51127f25d2441df558",
    "mixed_triangle": "4fbc4f201abafeeaf7f3c674bd4764b4c5097973870c663fb360be940fe00ace",
    "mixed_triangle_reversed": "5af804377318d68e09bc1eac2711064cbef82f635e68fb4be1f5881f9c3e4290",
    "rectangle_nnn": "b57d56c715cf2a35177797e8e985453f48782cde39cb25aa3d73e9f6de3d434c",
    "rectangle_nnd": "8a1fe9b8ba113039c580e3e15fbdc16347de888f39422aba536589ef59872017",
    "rectangle_ndn": "9476bc32378afe453aaa1b3603134404f085c97e2bf5113a0e526f7f36e18074",
    "rectangle_ndd": "88cba736bd677628f5209bc155d0d75cf2aa4e2508909267ce366dd1a36e2490",
    "rectangle_dnn": "a21b220062b0face78c509be2823d37323e8cf4066ae31533b1b229c2084daf4",
    "rectangle_dnd": "47b67f1f8b1fc797b98130966c0287d3a70b18dfcd12d1e72e01165e0e8e2c2c",
    "rectangle_ddn": "2dc39f49d38f366121b6b29418a300ef1bfff0a66828bd84a06911316fde9533",
    "rectangle_ddd": "bd8c3fd22335591db34d0b6fc6ff551bb5f711b6a7aee907770797492fcce68d",
}


def _digest_domains():
    yield "triangle", build_triangle_domain(math.pi / 4, math.pi / 3, 1.0)
    yield "mixed_triangle", build_triangle_domain(
        2 * math.pi / 5, math.pi / 6, 2.0, wall_conditions=("neumann", "dirichlet")
    )
    yield "mixed_triangle_reversed", build_triangle_domain(
        math.pi / 3, math.pi / 3, 1.0, wall_conditions=("dirichlet", "neumann")
    )
    for walls in itertools.product(("neumann", "dirichlet"), repeat=3):
        yield "rectangle_" + "".join(w[0] for w in walls), build_rectangle_domain(math.pi, 1.0, walls)


def test_domain_json_keeps_its_bytes():
    digests = {
        name: hashlib.sha256(json.dumps(domain_to_json(dom), sort_keys=True).encode()).hexdigest()
        for name, dom in _digest_domains()
    }
    assert digests == DOMAIN_JSON_DIGESTS


def test_domain_json_handles_arc_and_polyline_walls():
    surface = BoundaryPiece(LineSegment((0.0, 0.0), (1.0, 0.0)), "steklov")
    walls = (
        BoundaryPiece(Polyline(((0.0, 0.0), (0.0, -0.5), (0.5, -0.5))), "neumann"),
        BoundaryPiece(CircularArc((0.5, 0.0), 0.5, 1.5 * math.pi, 2 * math.pi), "dirichlet"),
    )
    dom = SloshingDomain(
        surface,
        walls,
        CornerSpec(math.pi / 2, "neumann"),
        CornerSpec(math.pi / 2, "dirichlet"),
        1.0,
    )
    doc = json.loads(json.dumps(domain_to_json(dom)))
    back = domain_from_json(doc)
    assert isinstance(back.walls[0].curve, Polyline)
    assert isinstance(back.walls[1].curve, CircularArc)
    assert back.walls[1].curve.length() == pytest.approx(
        walls[1].curve.length(), abs=1e-15
    )


def test_parametric_curves_have_no_json_form():
    dom = build_curvilinear_example("+")
    with pytest.raises(ValueError, match="no JSON form"):
        domain_to_json(dom)
    with pytest.raises(ValueError, match="unknown curve kind"):
        domain_from_json(
            {
                "surface": {"curve": {"kind": "spline"}, "condition": "steklov"},
                "walls": [],
                "corner_A": {"angle": 1.0, "condition_adjacent_wall": "neumann"},
                "corner_B": {"angle": 1.0, "condition_adjacent_wall": "neumann"},
                "surface_length": 1.0,
            }
        )


def test_mesh_text_round_trip(tmp_path):
    dom = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    mesh = generate_mesh(dom, 0.1)
    path = tmp_path / "mesh.txt"
    write_mesh_text(mesh, path)
    back = read_mesh_text(path)
    assert back.nodes.tobytes() == mesh.nodes.tobytes()
    assert back.triangles.tobytes() == mesh.triangles.tobytes()
    assert back.boundary_edges == mesh.boundary_edges
    assert math.isnan(back.mesh_size)
    assert math.isnan(back.grading_factor)
    assert back.refinement_rounds is back.rejected_insertions is back.min_angle is None
    again = tmp_path / "again.txt"
    write_mesh_text(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_mesh_text_rejects_malformed_dumps(tmp_path):
    good = tmp_path / "good.txt"
    dom = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    write_mesh_text(generate_mesh(dom, 0.2), good)
    text = good.read_text()

    bad_header = tmp_path / "bad_header.txt"
    bad_header.write_text(text.replace("triangles", "tetrahedra", 1))
    with pytest.raises(ValueError, match="malformed mesh dump"):
        read_mesh_text(bad_header)

    trailing = tmp_path / "trailing.txt"
    trailing.write_text(text + "0 1 steklov\n")
    with pytest.raises(ValueError, match="trailing"):
        read_mesh_text(trailing)


@pytest.mark.parametrize(
    "header, edit, match",
    [
        ("triangles", lambda line, n: "-1 " + line.split(" ", 1)[1], r"triangle node index outside \[0, "),
        ("bedges", lambda line, n: f"{n} " + line.split(" ", 1)[1], r"boundary edge node index outside \[0, "),
        ("bedges", lambda line, n: line.rsplit(" ", 1)[0] + " robin", "unknown boundary tag 'robin'"),
    ],
    ids=["negative-triangle-index", "edge-index-past-end", "robin-tag"],
)
def test_read_mesh_text_rejects_out_of_range_indices_and_unknown_tags(tmp_path, header, edit, match):
    # such dumps used to wrap silently, raise IndexError in assembly, or
    # solve an unknown tag as a natural (Neumann) edge
    dom = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    mesh = generate_mesh(dom, 0.2)
    path = tmp_path / "mesh.txt"
    write_mesh_text(mesh, path)
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith(header + " ")) + 1
    lines[first] = edit(lines[first], mesh.num_nodes)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match=match):
        read_mesh_text(path)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_read_mesh_text_rejects_non_finite_nodes(tmp_path, value):
    # the orientation test is false for NaN, so such a dump used to load
    # and then fail in the pencil factorization as exactly singular
    mesh = generate_mesh(build_triangle_domain(math.pi / 4, math.pi / 4, 1.0), 0.2)
    path = tmp_path / "mesh.txt"
    write_mesh_text(mesh, path)
    lines = path.read_text().splitlines()
    lines[1] = value + " " + lines[1].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match="node coordinates must be finite"):
        read_mesh_text(path)


# ---------------------------------------------------------------------------
# compute kernels
# ---------------------------------------------------------------------------

def _winding_oracle(pts, poly):
    """Reference point-in-polygon test: accumulated signed turning angle."""
    inside = []
    for x, y in pts:
        total = 0.0
        for k in range(len(poly)):
            ax, ay = poly[k][0] - x, poly[k][1] - y
            bx, by = poly[(k + 1) % len(poly)][0] - x, poly[(k + 1) % len(poly)][1] - y
            total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
        inside.append(abs(total) > math.pi)
    return np.array(inside)


def _distance_to_boundary(pts, poly):
    a = poly[None, :, :]
    d = np.roll(poly, -1, axis=0)[None, :, :] - a
    rel = pts[:, None, :] - a
    t = np.clip((rel * d).sum(axis=2) / (d * d).sum(axis=2), 0.0, 1.0)
    return np.hypot(*(rel - t[:, :, None] * d).transpose(2, 0, 1)).min(axis=1)


def _points_at_vertex_heights(poly, rng, per_height=6):
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    y = np.repeat(poly[:, 1], per_height)
    x = rng.uniform(lo[0] - 0.1, hi[0] + 0.1, len(y))
    return np.stack([x, y], axis=1)


def _check_against_winding_oracle(poly):
    rng = np.random.default_rng(0)
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    pts = np.vstack([
        rng.uniform(lo - 0.2, hi + 0.2, size=(400, 2)),
        _points_at_vertex_heights(poly, rng),
    ])
    pts = pts[_distance_to_boundary(pts, poly) > 1e-9]
    got = _backend.points_in_polygon(pts, poly)
    want = _winding_oracle(pts, poly)
    np.testing.assert_array_equal(got, want)
    assert 0 < got.sum() < len(pts)


def test_points_in_polygon_matches_winding_oracle():
    _check_against_winding_oracle(np.array([(0.0, 0.0)] + list(NOTCH_WALL_POINTS)[1:]))


def test_points_in_polygon_matches_winding_oracle_on_a_curved_boundary():
    poly, _ = mesh_module._sample_boundary(build_curvilinear_example("+"), 0.02, 0.25)
    assert len(poly) >= 100
    _check_against_winding_oracle(poly)


def _per_edge_crossings(pts, poly):
    """Reference crossing test: one pass over all points per polygon edge."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    for (x0, y0), (x1, y1) in zip(poly, np.roll(poly, -1, axis=0)):
        crosses = (y0 > y) != (y1 > y)
        t = (y[crosses] - y0) / (y1 - y0)
        hit = np.flatnonzero(crosses)[x0 + t * (x1 - x0) > x[crosses]]
        inside[hit] = ~inside[hit]
    return inside


def test_points_in_polygon_matches_the_per_edge_loop():
    # the sweep keeps the loop's arithmetic, so it must agree everywhere,
    # on and next to the boundary too
    rng = np.random.default_rng(1)
    notch = np.array([(0.0, 0.0)] + list(NOTCH_WALL_POINTS)[1:])
    curved, _ = mesh_module._sample_boundary(build_curvilinear_example("-"), 0.02, 0.25)
    lattice, _ = mesh_module._hex_lattice((0.5, -0.25), (1.2, 0.6), 0.05)
    for poly in (notch, curved):
        edge_points = poly + rng.uniform(0.0, 1.0, (len(poly), 1)) * (np.roll(poly, -1, axis=0) - poly)
        pts = np.vstack([
            rng.uniform(poly.min(axis=0) - 0.1, poly.max(axis=0) + 0.1, (500, 2)),
            _points_at_vertex_heights(poly, rng),
            poly,
            edge_points,
            lattice,
            [[np.inf, -0.3], [-np.inf, -0.3], [0.3, np.nan], [np.nan, np.inf]],
        ])
        with np.errstate(invalid="ignore"):
            want = _per_edge_crossings(pts, poly)
        np.testing.assert_array_equal(_backend.points_in_polygon(pts, poly), want)


def test_points_on_horizontal_edges_take_the_side_above():
    # the notch polygon's floor edges (y = -0.6) have the domain above
    # them, its closing surface edge (y = 0) has it below
    poly = np.array([(0.0, 0.0)] + list(NOTCH_WALL_POINTS)[1:])
    nxt = np.roll(poly, -1, axis=0)
    flat = np.flatnonzero(poly[:, 1] == nxt[:, 1])
    assert len(flat) == 3
    s = np.linspace(0.05, 0.95, 9)
    pts = np.concatenate([poly[k] + s[:, None] * (nxt[k] - poly[k]) for k in flat])
    got = _backend.points_in_polygon(pts, poly)
    np.testing.assert_array_equal(got, _winding_oracle(pts + [0.0, 1e-9], poly))
    assert got.sum() == 18


def test_non_finite_points_are_outside():
    poly = np.array([(0.0, 0.0)] + list(NOTCH_WALL_POINTS)[1:])
    values = [-np.inf, np.inf, np.nan, 0.25, -0.3]
    pts = np.array([(x, y) for x in values for y in values if not (np.isfinite(x) and np.isfinite(y))])
    assert not _backend.points_in_polygon(pts, poly).any()
    # finite points around them are still classified
    mixed = np.vstack([pts, [[0.25, -0.3]], pts])
    np.testing.assert_array_equal(
        _backend.points_in_polygon(mixed, poly), np.arange(len(mixed)) == len(pts)
    )
