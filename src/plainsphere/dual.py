"""Faces of the projection in S^2 and the dual multigraph.

The counterclockwise slot order at each crossing is a rotation system,
so faces are the orbits of the integer darts of ``Diagram`` under
``x -> mate[sigma(x)]``: sigma advances one slot counterclockwise at
the same crossing, and ``mate`` jumps to the far end of the edge found
there.  The sphere leaves no distinguished outer face.  Face tracing is
validated against Euler's formula (F = n + 2 for a connected 4-valent
projection) instead of being trusted: a mistyped PD tuple usually shows
up here first.  A face is the tuple of edges it borders in tracing
order, starting from darts 0, 1, 2, ...; its id is its index.

The dual graph has one vertex per face and one edge per projection
edge, joining the two faces that traverse it.  Parallel dual edges are
kept distinct because each stands for a different way a loop can cross
the diagram.  Self-loops would require a bridge in the projection,
which connected 4-valent (hence Eulerian) graphs do not have.
"""

from __future__ import annotations

from functools import cached_property

from .diagram import Diagram
from .errors import BridgeDetected, EulerViolation


class DualGraph:
    """Dual multigraph of a diagram's face structure."""

    def __init__(self, diagram: Diagram, n_faces: int,
                 edge_faces: dict[int, tuple[int, int]]):
        self.n_faces = n_faces
        self.edge_faces = edge_faces
        self.strand_edges: list[tuple[tuple[int, int, int], ...]] = [
            tuple((e,) + edge_faces[e] for e in edges)
            for edges in diagram.strands
        ]

    @cached_property
    def pair_edges(self) -> dict[frozenset[int], list[int]]:
        """Unordered face pair -> the edges joining them, ascending.  Only
        the verifier reads it, so it is built on first read."""
        pairs: dict[frozenset[int], list[int]] = {}
        for e in sorted(self.edge_faces):
            pairs.setdefault(frozenset(self.edge_faces[e]), []).append(e)
        return pairs


def trace_faces(d: Diagram) -> tuple[tuple[int, ...], ...]:
    """Trace all faces as boundary-edge tuples and check Euler's formula.

    Raises EulerViolation when the rotation system is not spherical.
    """
    label, mate = d.label, d.mate
    seen = bytearray(4 * d.n)
    faces: list[tuple[int, ...]] = []
    for start in range(4 * d.n):
        if seen[start]:
            continue
        edges = []
        x = start
        while not seen[x]:
            seen[x] = 1
            x = x + 1 if x % 4 != 3 else x - 3  # next slot counterclockwise
            edges.append(label[x])
            x = mate[x]
        faces.append(tuple(edges))
    if len(faces) != d.n + 2:
        raise EulerViolation(
            f"traced {len(faces)} faces, expected {d.n + 2}; "
            "the PD code does not describe a diagram in the sphere"
        )
    return tuple(faces)


def build_dual(d: Diagram) -> DualGraph:
    """Build the dual multigraph; every edge must border two distinct faces."""
    faces = trace_faces(d)
    sides: dict[int, list[int]] = {}
    for f, edges in enumerate(faces):
        for e in edges:
            sides.setdefault(e, []).append(f)
    edge_faces: dict[int, tuple[int, int]] = {}
    for e, fs in sides.items():
        assert len(fs) == 2, f"edge {e} traversed {len(fs)} times"
        if fs[0] == fs[1]:
            raise BridgeDetected(f"edge {e} borders face {fs[0]} on both sides")
        edge_faces[e] = (fs[0], fs[1])
    assert len(edge_faces) == 2 * d.n
    return DualGraph(d, len(faces), edge_faces)
