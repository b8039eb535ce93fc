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
over-strand (the triple a Wirtinger move conditions on).  The
constructor indexes lists by label or crossing where a dict or a set
would hash: a list of each label's first dart gives ``mate``, the flood
marks crossings, and the strand walk marks each label with its strand.

Tables that only some callers read are computed on first read and kept
with the diagram: ``components`` maps each edge to an id shared exactly
by the edges of its link component (with ``n_components``);
``crossing_masks`` gives each strand's crossings as bit masks, by role,
which every closure and the logged saturation of the diagram read; and
``search_order`` is the strand order the seed-set searches share.

``parse_pd`` reads the text in one pass: a single ``TUPLE_RE.split``
yields both the text between tuples, which must be separators, and the
labels.  One sort of the labels checks that they are 1..2n, each twice;
the messages naming what is wrong are built only when that fails.
"""

from __future__ import annotations

import hashlib
import re
from functools import cached_property
from typing import NamedTuple, NoReturn

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
        label = tuple(e for t in tuples for e in t)
        self.label: tuple[int, ...] = label
        first = [-1] * (2 * n + 1)  # label -> the first dart carrying it
        mate = [0] * (4 * n)
        for x, e in enumerate(label):
            y = first[e]
            if y < 0:
                first[e] = x
            else:
                mate[x], mate[y] = y, x
        self.mate: tuple[int, ...] = tuple(mate)
        # Connectivity: flood the crossings through mate, a piece at a time.
        seen, pieces = bytearray(n), 0
        for root in range(n):
            if seen[root]:
                continue
            seen[root], stack, pieces = 1, [root], pieces + 1
            while stack:
                c = stack.pop()
                for y in mate[4 * c:4 * c + 4]:
                    if not seen[y >> 2]:
                        seen[y >> 2] = 1
                        stack.append(y >> 2)
        if pieces > 1:
            raise DisconnectedProjection(
                f"projection splits into {pieces} pieces"
            )
        # Strands: walking from slot-2 ends first makes strand i start at
        # crossing i's outgoing under-edge whenever the code is consistently
        # oriented; slot-0 starts only mop up unoriented input.  A start is
        # taken when its edge is, as its strand's first or last edge.
        strands: list[tuple[int, ...]] = []
        owner = [-1] * (2 * n + 1)  # label -> its strand
        for start in [*range(2, 4 * n, 4), *range(0, 4 * n, 4)]:
            if owner[label[start]] >= 0:
                continue
            s, edges, x = len(strands), [], start
            while True:
                edges.append(label[x])
                owner[label[x]] = s
                if not mate[x] & 1:  # under-ends sit at slots 0 and 2
                    break
                x = mate[x] ^ 2  # cross over: slot 1 <-> slot 3
            strands.append(tuple(edges))
        if sum(map(len, strands)) < 2 * n:
            leftover = [e for e in range(1, 2 * n + 1) if owner[e] < 0]
            raise ClosedOverComponent(
                f"edges {leftover} form closed over-components"
            )
        assert len(strands) == n
        self.strands: tuple[tuple[int, ...], ...] = tuple(strands)
        self.edge_to_strand: dict[int, int] = {
            e: s for s, edges in enumerate(strands) for e in edges}
        # The edge at an under slot belongs to the strand that ends there.
        self.under_strands: tuple[tuple[int, int], ...] = tuple(
            (owner[t[0]], owner[t[2]]) for t in tuples)
        self.over_strand: tuple[int, ...] = tuple(owner[t[1]] for t in tuples)

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

    @cached_property
    def crossing_masks(self) -> CrossingMasks:
        """The strands' crossing roles as bit masks over crossing ids."""
        over, under = [0] * self.n, [0] * self.n
        unders: dict[int, int] = {}
        for c, ((u1, u2), o) in enumerate(zip(self.under_strands,
                                              self.over_strand)):
            over[o] |= 1 << c
            if u1 != u2:
                under[u1] |= 1 << c
                under[u2] |= 1 << c
                unders[1 << c] = 1 << u1 | 1 << u2
        return CrossingMasks(tuple(over), tuple(under), unders)

    @cached_property
    def search_order(self) -> tuple[int, ...]:
        """Strands by descending over-degree, ties by id.

        Strands that pass over many crossings enable many Wirtinger moves,
        so trying them first tends to hit a spanning seed set sooner.  The
        seed-set search is exhaustive per size, so this is purely a
        speedup.
        """
        degree = [0] * self.n
        for o in self.over_strand:
            degree[o] += 1
        return tuple(sorted(range(self.n), key=lambda s: (-degree[s], s)))

    def serialize(self) -> str:
        """Canonical one-line form; ``parse_pd`` round-trips it."""
        return " ".join("X({},{},{},{})".format(*t) for t in self.pd)

    @cached_property
    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode("ascii")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Diagram({self.serialize()!r})"


class CrossingMasks(NamedTuple):
    """Per strand s, bit c of ``over[s]`` is set iff s is crossing c's
    over-strand, and of ``under[s]`` iff s is one of c's two
    under-strands, a self-adjacent crossing (both under-strands s) left
    out; ``unders`` maps the bit of each other crossing to its two
    under-strands' bits (bit s for strand s)."""
    over: tuple[int, ...]
    under: tuple[int, ...]
    unders: dict[int, int]


def parse_pd(text: str) -> Diagram:
    """Parse PD text such as ``X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)``.

    Accepts the bracket variant ``PD[X[a,b,c,d], ...]`` as well.  The
    label multiset is validated before any structure is built: labels
    must be exactly 1..2n, each appearing twice.
    """
    body = text.strip()
    if body.startswith("PD[") and body.endswith("]"):
        body = body[3:-1]
    # [text, a, b, c, d, text, a, b, c, d, ..., text]: every fifth part is
    # the text around the tuples, the rest are their labels
    parts = TUPLE_RE.split(body)
    residue = " ".join(parts[::5])
    if not _SEPARATOR_RE.match(residue):
        raise MalformedPD(f"unparseable PD text near: {residue.strip()[:40]!r}")
    del parts[::5]
    try:
        labels = list(map(int, parts))
    except ValueError as exc:  # over sys.get_int_max_str_digits() digits
        raise MalformedPD(f"label too long: {exc}") from None
    if not labels:
        raise MalformedPD("PD text contains no crossings")
    n = len(labels) // 4
    ordered = sorted(labels)
    if not ordered[::2] == ordered[1::2] == list(range(1, 2 * n + 1)):
        _reject_labels(labels, n)
    return Diagram(list(zip(*[iter(labels)] * 4)))  # four to a tuple


def _reject_labels(labels: list[int], n: int) -> NoReturn:
    """Raise MalformedPD naming what is wrong with a label list that is
    not 1..2n, each label twice."""
    counts: dict[int, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    bad = {e: k for e, k in counts.items() if k != 2}
    if bad:
        raise MalformedPD(f"labels with occurrence count != 2: {bad}")
    raise MalformedPD(
        f"labels must be exactly 1..{2 * n}, got {sorted(counts)}"
    )
