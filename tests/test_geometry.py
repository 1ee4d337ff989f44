"""Curves, domain assembly, mesh generation, serialization, kernels."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sloshspec import _backend
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

from _tables import EX2_SURFACE_LENGTH, NOTCH_WALL_POINTS

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
    assert mixed.corner_A.condition_adjacent_wall == "neumann"
    assert mixed.corner_B.condition_adjacent_wall == "dirichlet"
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
    assert plus.corner_A.condition_adjacent_wall == "neumann"
    assert plus.corner_B.angle == pytest.approx(math.pi / 4)
    assert plus.corner_B.condition_adjacent_wall == "dirichlet"
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


def test_points_in_polygon_matches_winding_oracle():
    poly = np.array([(0.0, 0.0)] + list(NOTCH_WALL_POINTS)[1:])
    rng = np.random.default_rng(0)
    pts = rng.uniform([-0.2, -0.8], [1.2, 0.2], size=(400, 2))
    got = _backend.points_in_polygon(pts, poly)
    want = _winding_oracle(pts, poly)
    np.testing.assert_array_equal(got, want)
    assert 0 < got.sum() < len(pts)
