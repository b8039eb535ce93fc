"""Planar diagram codes and the flat tables the moves read.

A diagram with n crossings is given by n tuples X(a,b,c,d) listing the
four edge labels around each crossing counterclockwise, starting at the
incoming under-edge.  Labels run over 1..2n and each label appears at
exactly two slots overall.  Slots 0 and 2 of a crossing hold the two
under-strand ends, slots 1 and 3 the over-strand that passes through.

A strand is a maximal over-arc: walk an edge away from an under-end;
whenever the walk meets a crossing at an over slot it continues out the
opposite over slot; it stops at the next under slot.  Every crossing
consumes two under-ends, so a valid diagram decomposes into exactly n
strands.

Each slot is a dart, numbered ``4c + slot``, so the next slot
counterclockwise at the same crossing is ``x + 1`` within the block of
four and the opposite slot is ``x ^ 2``.  Two flat tuples describe the
whole projection: ``label[x]`` is ``pd[c][slot]`` and ``mate[x]`` is the
other dart carrying the same label, the far end of the edge.  Every
structure is an integer walk over them: a strand follows ``mate`` and
crosses over with ``x ^ 2`` until it lands on an even (under) slot; a
face follows the next slot counterclockwise, then its ``mate`` (see
``dual``); a link component is an orbit of ``x -> mate[x] ^ 2``; and the
projection is connected when ``mate[x] // 4`` reaches every crossing.

A ``Diagram`` keeps each derived fact in one flat table indexed by id:
``pd`` holds the tuples as given, ``strands[s]`` is strand s's edges in
walk order, ``edge_to_strand`` inverts it, ``under_strands[c]`` and
``over_strand[c]`` give crossing c's two under-strands and its
over-strand (the triple a Wirtinger move conditions on),
``strand_crossings[s]`` lists the crossings strand s meets in either
role.  ``components`` maps each edge to an id shared exactly by the
edges of its link component; no search reads it, so it and
``n_components`` are computed on first read.
"""

from __future__ import annotations

import hashlib
import re
from functools import cached_property

from .errors import ClosedOverComponent, DisconnectedProjection, MalformedPD

# One crossing tuple; the census counts crossings with it before parsing.
TUPLE_RE = re.compile(
    r"X\s*[\(\[]\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*[\)\]]"
)
_SEPARATOR_RE = re.compile(r"^[\s,]*$")


class Diagram:
    """An immutable link diagram built from validated PD tuples."""

    def __init__(self, tuples: list[tuple[int, int, int, int]]):
        self.pd: tuple[tuple[int, int, int, int], ...] = tuple(tuples)
        self.n = n = len(tuples)
        self.label: tuple[int, ...] = tuple(e for t in tuples for e in t)
        first: dict[int, int] = {}
        mate = [0] * (4 * n)
        for x, e in enumerate(self.label):
            y = first.setdefault(e, x)
            mate[x], mate[y] = y, x
        self.mate: tuple[int, ...] = tuple(mate)
        # Connectivity: flood the crossings through mate, a piece at a time.
        unreached, pieces = set(range(n)), 0
        while unreached:
            stack, pieces = [unreached.pop()], pieces + 1
            while stack:
                c = stack.pop()
                for y in mate[4 * c:4 * c + 4]:
                    if y // 4 in unreached:
                        unreached.remove(y // 4)
                        stack.append(y // 4)
        if pieces > 1:
            raise DisconnectedProjection(
                f"projection splits into {pieces} pieces"
            )
        # Strands: walking from slot-2 ends first makes strand i start at
        # crossing i's outgoing under-edge whenever the code is consistently
        # oriented; slot-0 starts only mop up unoriented input.  A start is
        # taken when its edge is, as its strand's first or last edge.
        strands: list[tuple[int, ...]] = []
        self.edge_to_strand: dict[int, int] = {}
        for start in [*range(2, 4 * n, 4), *range(0, 4 * n, 4)]:
            if self.label[start] in self.edge_to_strand:
                continue
            edges = []
            x = start
            while True:
                edges.append(self.label[x])
                self.edge_to_strand[self.label[x]] = len(strands)
                if mate[x] % 2 == 0:  # under-ends sit at slots 0 and 2
                    break
                x = mate[x] ^ 2  # cross over: slot 1 <-> slot 3
            strands.append(tuple(edges))
        leftover = sorted(set(self.label) - set(self.edge_to_strand))
        if leftover:
            raise ClosedOverComponent(
                f"edges {leftover} form closed over-components"
            )
        assert len(strands) == n
        self.strands: tuple[tuple[int, ...], ...] = tuple(strands)
        # The edge at an under slot belongs to the strand that ends there.
        self.under_strands: tuple[tuple[int, int], ...] = tuple(
            (self.edge_to_strand[t[0]], self.edge_to_strand[t[2]])
            for t in self.pd
        )
        self.over_strand: tuple[int, ...] = tuple(
            self.edge_to_strand[t[1]] for t in self.pd
        )
        # strand_crossings[s]: ascending ids of the crossings where s is an
        # under-strand or the over-strand
        incident: list[list[int]] = [[] for _ in self.strands]
        for c, ((u1, u2), o) in enumerate(zip(self.under_strands,
                                              self.over_strand)):
            for s in {u1, u2, o}:
                incident[s].append(c)
        self.strand_crossings: tuple[tuple[int, ...], ...] = tuple(
            map(tuple, incident))

    # -- queries ---------------------------------------------------------

    @cached_property
    def components(self) -> dict[int, int]:
        """Edge -> link component id.  x -> mate[x] ^ 2 goes straight on
        through the next crossing, so its orbit from any dart meets each
        edge of one component once; the component's id is the dart it
        starts from."""
        components: dict[int, int] = {}
        for start in range(4 * self.n):
            x = start
            while self.label[x] not in components:
                components[self.label[x]] = start
                x = self.mate[x] ^ 2
        return components

    @cached_property
    def n_components(self) -> int:
        return len(set(self.components.values()))

    def serialize(self) -> str:
        """Canonical one-line form; ``parse_pd`` round-trips it."""
        return " ".join("X({},{},{},{})".format(*t) for t in self.pd)

    @cached_property
    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode("ascii")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Diagram({self.serialize()!r})"


def parse_pd(text: str) -> Diagram:
    """Parse PD text such as ``X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)``.

    Accepts the bracket variant ``PD[X[a,b,c,d], ...]`` as well.  The
    label multiset is validated before any structure is built: labels
    must be exactly 1..2n, each appearing twice.
    """
    body = text.strip()
    if body.startswith("PD[") and body.endswith("]"):
        body = body[3:-1]
    residue = TUPLE_RE.sub(lambda _: " ", body)
    if not _SEPARATOR_RE.match(residue):
        raise MalformedPD(f"unparseable PD text near: {residue.strip()[:40]!r}")
    try:
        tuples = [tuple(map(int, m.groups()))
                  for m in TUPLE_RE.finditer(body)]
    except ValueError as exc:  # over sys.get_int_max_str_digits() digits
        raise MalformedPD(f"label too long: {exc}") from None
    if not tuples:
        raise MalformedPD("PD text contains no crossings")
    n = len(tuples)
    counts: dict[int, int] = {}
    for t in tuples:
        for label in t:
            counts[label] = counts.get(label, 0) + 1
    bad = {e: k for e, k in counts.items() if k != 2}
    if bad:
        raise MalformedPD(f"labels with occurrence count != 2: {bad}")
    if set(counts) != set(range(1, 2 * n + 1)):
        raise MalformedPD(
            f"labels must be exactly 1..{2 * n}, got {sorted(counts)}"
        )
    return Diagram(tuples)
