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

A ``Diagram`` keeps each fact in one flat table indexed by id: ``pd``
holds the tuples as given, ``strands[s]`` is strand s's edges in walk
order, ``edge_to_strand`` inverts it, ``under_strands[c]`` and
``over_strand[c]`` give crossing c's two under-strands and its
over-strand (the triple a Wirtinger move conditions on), and
``strand_crossings[s]`` lists the crossings strand s meets in either
role.
"""

from __future__ import annotations

import hashlib
import re

from .errors import ClosedOverComponent, DisconnectedProjection, MalformedPD

_TUPLE_RE = re.compile(
    r"X\s*[\(\[]\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*[\)\]]"
)
_SEPARATOR_RE = re.compile(r"^[\s,]*$")


class UnionFind:
    """Union-find with path halving; edges are only ever added."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


class Diagram:
    """An immutable link diagram built from validated PD tuples."""

    def __init__(self, tuples: list[tuple[int, int, int, int]]):
        self.pd: tuple[tuple[int, int, int, int], ...] = tuple(tuples)
        self.n = len(tuples)
        # occurrences[label] -> the two (crossing, slot) positions
        occ: dict[int, list[tuple[int, int]]] = {}
        for i, t in enumerate(tuples):
            for slot, label in enumerate(t):
                occ.setdefault(label, []).append((i, slot))
        self.occurrences: dict[int, tuple[tuple[int, int], ...]] = {
            e: tuple(v) for e, v in occ.items()
        }
        self._check_connected()
        self.strands: tuple[tuple[int, ...], ...] = self._build_strands()
        self.edge_to_strand: dict[int, int] = {
            e: s for s, edges in enumerate(self.strands) for e in edges
        }
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
        self.components: dict[int, int] = self._link_components()
        self.n_components = len(set(self.components.values()))

    # -- construction helpers -------------------------------------------

    def _check_connected(self) -> None:
        uf = UnionFind(self.n)
        for (c1, _), (c2, _) in self.occurrences.values():
            uf.union(c1, c2)
        roots = {uf.find(i) for i in range(self.n)}
        if len(roots) > 1:
            raise DisconnectedProjection(
                f"projection splits into {len(roots)} pieces"
            )

    def _other_occurrence(self, edge: int, at: tuple[int, int]) -> tuple[int, int]:
        a, b = self.occurrences[edge]
        return b if a == at else a

    def _build_strands(self) -> tuple[tuple[int, ...], ...]:
        pd = self.pd
        seen_terminals: set[tuple[int, int]] = set()
        strands: list[tuple[int, ...]] = []
        # Walking from slot-2 ends first makes strand i start at crossing
        # i's outgoing under-edge whenever the code is consistently
        # oriented; slot-0 starts only mop up unoriented input.
        starts = [(i, 2) for i in range(self.n)] + [(i, 0) for i in range(self.n)]
        for start in starts:
            if start in seen_terminals:
                continue
            edges = []
            here = start
            edge = pd[here[0]][here[1]]
            seen_terminals.add(start)
            while True:
                edges.append(edge)
                c, slot = self._other_occurrence(edge, here)
                if slot % 2 == 0:  # under-ends sit at slots 0 and 2
                    seen_terminals.add((c, slot))
                    break
                here = (c, 4 - slot)  # cross over: slot 1 <-> slot 3
                edge = pd[c][4 - slot]
            strands.append(tuple(edges))
        claimed = {e for edges in strands for e in edges}
        leftover = sorted(set(self.occurrences) - claimed)
        if leftover:
            raise ClosedOverComponent(
                f"edges {leftover} form closed over-components"
            )
        assert len(strands) == self.n
        return tuple(strands)

    def _link_components(self) -> dict[int, int]:
        """Partition edges into link components (glue at both strand kinds)."""
        uf = UnionFind(2 * self.n + 1)  # labels run 1..2n
        for a, b, c, d in self.pd:
            uf.union(a, c)
            uf.union(b, d)
        return {e: uf.find(e) for e in sorted(self.occurrences)}

    # -- queries ---------------------------------------------------------

    def over_degree(self, strand: int) -> int:
        """Number of crossings at which `strand` is the over-strand."""
        return sum(1 for o in self.over_strand if o == strand)

    def serialize(self) -> str:
        """Canonical one-line form; ``parse_pd`` round-trips it."""
        return " ".join("X({},{},{},{})".format(*t) for t in self.pd)

    @property
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
    residue = _TUPLE_RE.sub(lambda _: " ", body)
    if not _SEPARATOR_RE.match(residue):
        raise MalformedPD(f"unparseable PD text near: {residue.strip()[:40]!r}")
    try:
        tuples = [tuple(map(int, m.groups()))
                  for m in _TUPLE_RE.finditer(body)]
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
