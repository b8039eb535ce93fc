"""Faces of the projection in S^2 and the dual multigraph.

The counterclockwise slot order at each crossing is a rotation system,
so faces are the orbits of the dart permutation alpha(sigma(dart)):
sigma advances one slot counterclockwise, alpha jumps to the other
occurrence of the edge found there.  The sphere leaves no distinguished
outer face.  Face tracing is validated against Euler's formula
(F = n + 2 for a connected 4-valent projection) instead of being
trusted: a mistyped PD tuple usually shows up here first.

The dual graph has one vertex per face and one edge per projection
edge, joining the two faces that traverse it.  Parallel dual edges are
kept distinct because each stands for a different way a loop can cross
the diagram.  Self-loops would require a bridge in the projection,
which connected 4-valent (hence Eulerian) graphs do not have.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram
from .errors import BridgeDetected, EulerViolation


@dataclass(frozen=True)
class Face:
    """A face: the darts whose corners it turns and the edges it borders.

    ``boundary[i]`` is the (edge, (crossing, slot)) step taken after the
    corner at ``darts[i]``; faces of degree d have d of each.
    """

    id: int
    darts: tuple[tuple[int, int], ...]
    boundary: tuple[tuple[int, tuple[int, int]], ...]

    @property
    def degree(self) -> int:
        return len(self.darts)

    @property
    def edges(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.boundary)


class DualGraph:
    """Dual multigraph of a diagram's face structure."""

    def __init__(self, diagram: Diagram, faces: tuple[Face, ...],
                 edge_faces: dict[int, tuple[int, int]]):
        self.diagram = diagram
        self.faces = faces
        self.n_faces = len(faces)
        self.edge_faces = edge_faces
        self.edge_strand: dict[int, int] = dict(diagram.edge_to_strand)
        self.strand_edges: list[tuple[tuple[int, int, int], ...]] = []
        for s in diagram.strands:
            self.strand_edges.append(
                tuple((e,) + edge_faces[e] for e in s.edges)
            )
        self.pair_edges: dict[frozenset[int], list[int]] = {}
        for e in sorted(edge_faces):
            key = frozenset(edge_faces[e])
            self.pair_edges.setdefault(key, []).append(e)


def trace_faces(d: Diagram) -> tuple[Face, ...]:
    """Trace all faces and check Euler's formula.

    Raises EulerViolation when the rotation system is not spherical.
    """
    pd = [c.pd for c in d.crossings]
    all_darts = [(c, s) for c in range(d.n) for s in range(4)]
    seen: set[tuple[int, int]] = set()
    faces: list[Face] = []
    for start in all_darts:
        if start in seen:
            continue
        darts = []
        boundary = []
        dart = start
        while True:
            darts.append(dart)
            seen.add(dart)
            c, s = dart
            step = (c, (s + 1) % 4)
            edge = pd[c][(s + 1) % 4]
            boundary.append((edge, step))
            dart = d._other_occurrence(edge, step)
            if dart == start:
                break
        faces.append(Face(len(faces), tuple(darts), tuple(boundary)))
    assert sum(f.degree for f in faces) == 4 * d.n
    if len(faces) != d.n + 2:
        raise EulerViolation(
            f"traced {len(faces)} faces, expected {d.n + 2}; "
            "the PD code does not describe a diagram in the sphere"
        )
    return tuple(faces)


def build_dual(d: Diagram, faces: tuple[Face, ...] | None = None) -> DualGraph:
    """Build the dual multigraph; every edge must border two distinct faces."""
    if faces is None:
        faces = trace_faces(d)
    sides: dict[int, list[int]] = {}
    for f in faces:
        for e in f.edges:
            sides.setdefault(e, []).append(f.id)
    edge_faces: dict[int, tuple[int, int]] = {}
    for e, fs in sides.items():
        assert len(fs) == 2, f"edge {e} traversed {len(fs)} times"
        if fs[0] == fs[1]:
            raise BridgeDetected(f"edge {e} borders face {fs[0]} on both sides")
        edge_faces[e] = (fs[0], fs[1])
    assert len(edge_faces) == 2 * d.n
    return DualGraph(d, faces, edge_faces)
