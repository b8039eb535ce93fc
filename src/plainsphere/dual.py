"""Faces of the projection in S^2 and the dual multigraph.

The counterclockwise slot order at each crossing is a rotation system,
so faces are the orbits of the integer darts of ``Diagram`` under
``x -> mate[sigma(x)]``: sigma advances one slot counterclockwise at
the same crossing, and ``mate`` jumps to the far end of the edge found
there.  The sphere leaves no distinguished outer face.  Face tracing is
validated against Euler's formula (F = n + 2 for a connected 4-valent
projection) instead of being trusted: a mistyped PD tuple usually shows
up here first.  Faces are numbered in the order the walk reaches them,
from darts 0, 1, 2, ...

The dual graph has one vertex per face and one edge per projection
edge, joining the two faces that traverse it.  Parallel dual edges are
kept distinct because each stands for a different way a loop can cross
the diagram.

``build_dual`` is the one face walk, and it keeps no face's edges: it
gives each dart the face it is passed in, and an edge's two faces are
read at its second dart, as the first dart's face and the current one,
so ``edge_faces`` gets each edge once, keyed by label, and
``strand_edges`` gives each strand's edges with their faces.  A
``DualGraph`` holds nothing else: each other view is built by its one
reader, as the plain-sphere closure builds its bit masks.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import Diagram
from .errors import EulerViolation


class DualGraph(NamedTuple):
    """Dual multigraph of a diagram's face structure: the face count,
    each edge's two faces, and each strand's edges in walk order as
    (edge, face, face) triples."""
    n_faces: int
    edge_faces: dict[int, tuple[int, int]]
    strand_edges: list[tuple[tuple[int, int, int], ...]]


def build_dual(d: Diagram) -> DualGraph:
    """Build the dual multigraph of a connected diagram.

    One walk traces the faces, numbering them in the order it reaches
    them, and gives each dart the face it is passed in; an edge's two
    faces, the earlier one first, are written at its second dart.  Raises
    EulerViolation unless it traces n + 2 faces.  That count alone puts
    the diagram in the sphere, where a connected 4-valent projection has
    no bridge, so every edge borders two distinct faces.
    """
    label, mate = d.label, d.mate
    face = [-1] * (4 * d.n)  # dart y -> the face whose walk passes y
    edge_faces: dict[int, tuple[int, int]] = {}
    f = 0
    for start in range(4 * d.n):
        y = start + 1 if start & 3 != 3 else start - 3
        if face[y] >= 0:
            continue
        while face[y] < 0:
            face[y] = f
            x = mate[y]
            if face[x] >= 0:  # the edge's second dart
                edge_faces[label[y]] = (face[x], f)
            y = x + 1 if x & 3 != 3 else x - 3
        f += 1
    if f != d.n + 2:
        raise EulerViolation(
            f"traced {f} faces, expected {d.n + 2}; "
            "the PD code does not describe a diagram in the sphere"
        )
    assert len(edge_faces) == 2 * d.n
    strand_edges = [tuple((e,) + edge_faces[e] for e in edges)
                    for edges in d.strands]
    return DualGraph(f, edge_faces, strand_edges)
