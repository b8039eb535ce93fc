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

``build_dual`` traces the faces in the order ``trace_faces`` does, but
keeps no edge tuples: one walk gives each dart the face it is passed
in, and an edge's two faces are read at its second dart, as the first
dart's face and the current one.  ``edge_faces`` lists the edges in the
order the walk first passes them.  ``edge_masks``, each strand's edges
and each face's bordering edges as bit masks, is computed on first read
for the plain-sphere closures and kept with the dual.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

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

    @cached_property
    def edge_masks(self) -> EdgeMasks:
        """The strands' dual edges and the faces' borders as bit masks
        over edge labels."""
        strand_bits, strand_of = [], {}
        rim = [0] * self.n_faces
        for s, edges in enumerate(self.strand_edges):
            bits = 0
            for e, a, b in edges:
                bits |= 1 << e
                strand_of[1 << e] = s
                rim[a] |= 1 << e
                rim[b] |= 1 << e
            strand_bits.append(bits)
        return EdgeMasks(tuple(strand_bits), strand_of, tuple(rim))


class EdgeMasks(NamedTuple):
    """Bit e of ``strand[s]`` is set iff edge e belongs to strand s, and
    of ``rim[f]`` iff edge e borders face f; ``strand_of`` maps each
    edge's bit to its strand."""
    strand: tuple[int, ...]
    strand_of: dict[int, int]
    rim: tuple[int, ...]


def _euler(d: Diagram, n_faces: int) -> None:
    """Raise EulerViolation unless F = n + 2."""
    if n_faces != d.n + 2:
        raise EulerViolation(
            f"traced {n_faces} faces, expected {d.n + 2}; "
            "the PD code does not describe a diagram in the sphere"
        )


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
    _euler(d, len(faces))
    return tuple(faces)


def build_dual(d: Diagram) -> DualGraph:
    """Build the dual multigraph; every edge must border two distinct faces.

    One walk traces the faces as ``trace_faces`` does, numbering them in
    the same order, and gives each dart the face it is passed in; an
    edge's two faces are its two darts' faces, the earlier one first.
    """
    label, mate = d.label, d.mate
    face = [-1] * (4 * d.n)  # dart y -> the face whose walk passes y
    edge_faces: dict[int, tuple[int, int] | None] = {}
    f, bridged = 0, False
    for start in range(4 * d.n):
        y = start + 1 if start & 3 != 3 else start - 3
        if face[y] >= 0:
            continue
        while face[y] < 0:
            face[y] = f
            x = mate[y]
            if face[x] < 0:
                edge_faces[label[y]] = None  # keeps first-passed order
            else:
                edge_faces[label[y]] = (face[x], f)
                bridged |= face[x] == f
            y = x + 1 if x & 3 != 3 else x - 3
        f += 1
    _euler(d, f)
    if bridged:
        e, (a, _) = next((e, fs) for e, fs in edge_faces.items()
                         if fs[0] == fs[1])
        raise BridgeDetected(f"edge {e} borders face {a} on both sides")
    assert len(edge_faces) == 2 * d.n
    return DualGraph(d, f, edge_faces)
