"""Serialization for domains (JSON documents) and meshes (text dumps).

Domain JSON schema (all numbers plain floats):

    {
      "surface": {"curve": <curve>, "condition": "steklov"},
      "walls": [{"curve": <curve>, "condition": "neumann" | "dirichlet"}, ...],
      "corner_A": {"angle": a, "condition_adjacent_wall": "..."},
      "corner_B": {"angle": b, "condition_adjacent_wall": "..."},
      "surface_length": L
    }

with three curve kinds:

    {"kind": "segment", "start": [x, y], "end": [x, y]}
    {"kind": "arc", "center": [x, y], "radius": r, "t0": a0, "t1": a1}
    {"kind": "polyline", "points": [[x, y], ...]}

Parametric curves have no JSON form; sample them to a polyline first.

Mesh text dump:

    nodes N
    <x> <y>           (N lines)
    triangles M
    <i> <j> <k>       (M lines, zero-based)
    bedges K
    <i> <j> <tag>     (K lines, tag in {steklov, neumann, dirichlet})

`write_atomic` writes mesh dumps here and, through `harness`, every other
file the package produces.
"""

import os

import numpy as np

from .domain import (
    BoundaryPiece,
    CircularArc,
    CornerSpec,
    LineSegment,
    Polyline,
    SloshingDomain,
)
from .mesh import TriangleMesh


def _curve_to_json(curve):
    if isinstance(curve, LineSegment):
        return {"kind": "segment", "start": list(curve.start), "end": list(curve.end)}
    if isinstance(curve, CircularArc):
        return {
            "kind": "arc",
            "center": list(curve.center),
            "radius": curve.radius,
            "t0": curve.t0,
            "t1": curve.t1,
        }
    if isinstance(curve, Polyline):
        return {"kind": "polyline", "points": [list(p) for p in curve.points]}
    raise ValueError(
        f"curve type {type(curve).__name__} has no JSON form; "
        "sample it to a polyline first"
    )


def _curve_from_json(obj):
    kind = obj.get("kind")
    if kind == "segment":
        return LineSegment(tuple(obj["start"]), tuple(obj["end"]))
    if kind == "arc":
        return CircularArc(
            tuple(obj["center"]), float(obj["radius"]), float(obj["t0"]), float(obj["t1"])
        )
    if kind == "polyline":
        return Polyline(tuple(tuple(p) for p in obj["points"]))
    raise ValueError(f"unknown curve kind {kind!r}")


def _piece_to_json(piece):
    return {"curve": _curve_to_json(piece.curve), "condition": piece.condition}


def _piece_from_json(obj):
    return BoundaryPiece(_curve_from_json(obj["curve"]), str(obj["condition"]))


def _corner_to_json(corner):
    return {"angle": corner.angle, "condition_adjacent_wall": corner.condition}


def _corner_from_json(obj):
    return CornerSpec(float(obj["angle"]), str(obj["condition_adjacent_wall"]))


def domain_to_json(domain):
    """JSON-serializable dict describing a sloshing domain."""
    return {
        "surface": _piece_to_json(domain.sloshing_surface),
        "walls": [_piece_to_json(w) for w in domain.walls],
        "corner_A": _corner_to_json(domain.corner_A),
        "corner_B": _corner_to_json(domain.corner_B),
        "surface_length": domain.surface_length,
    }


def domain_from_json(obj):
    """Rebuild a SloshingDomain from its JSON dict (full validation runs)."""
    return SloshingDomain(
        sloshing_surface=_piece_from_json(obj["surface"]),
        walls=tuple(_piece_from_json(w) for w in obj["walls"]),
        corner_A=_corner_from_json(obj["corner_A"]),
        corner_B=_corner_from_json(obj["corner_B"]),
        surface_length=float(obj["surface_length"]),
    )


def write_atomic(path, data):
    """Write text (as UTF-8) or bytes through a temp file and rename into place.

    A failed write or rename removes the temp file and re-raises.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = os.fspath(path) + ".tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


_DUMP_ROWS = 512


def _dump_rows(rows, fmt):
    """One line `fmt % row` per row of an array, formatted _DUMP_ROWS rows at a time.

    Each block is formatted from Python numbers (`tolist`) with one
    template; a float prints as its repr, an integer as its digits.
    """
    return [
        (fmt * len(block)) % tuple(block.ravel().tolist())
        for block in (rows[lo:lo + _DUMP_ROWS] for lo in range(0, len(rows), _DUMP_ROWS))
    ]


def write_mesh_text(mesh, path):
    """Write a mesh in the plain text dump format.

    Nodes and triangles are formatted in blocks of at most _DUMP_ROWS
    rows (`_dump_rows`), so no string of the whole array's lines is
    built beside the text.
    """
    parts = [f"nodes {mesh.num_nodes}\n", *_dump_rows(mesh.nodes, "%r %r\n")]
    parts += [f"triangles {mesh.num_triangles}\n", *_dump_rows(mesh.triangles, "%d %d %d\n")]
    parts.append(f"bedges {len(mesh.boundary_edges)}\n")
    parts.extend(f"{i} {j} {tag}\n" for i, j, tag in mesh.boundary_edges)
    write_atomic(path, "".join(parts))


def read_mesh_text(path):
    """Read a mesh text dump written by write_mesh_text.

    The dump records no mesh_size or grading_factor, so those fields come
    back as nan.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    pos = 0

    def expect(word):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != word:
            raise ValueError(f"malformed mesh dump: expected {word!r}")
        pos += 1
        n = int(tokens[pos])
        pos += 1
        return n

    n = expect("nodes")
    nodes = np.array(tokens[pos:pos + 2 * n], dtype=float).reshape(n, 2)
    pos += 2 * n
    m = expect("triangles")
    tris = np.array(tokens[pos:pos + 3 * m], dtype=np.int64).reshape(m, 3)
    pos += 3 * m
    k = expect("bedges")
    bedges = []
    for _ in range(k):
        i, j, tag = tokens[pos], tokens[pos + 1], tokens[pos + 2]
        pos += 3
        bedges.append((int(i), int(j), tag))
    if pos != len(tokens):
        raise ValueError("malformed mesh dump: trailing data")
    return TriangleMesh(
        nodes=nodes,
        triangles=tris,
        boundary_edges=tuple(bedges),
        mesh_size=float("nan"),
        grading_factor=float("nan"),
    )
