"""The certificate format, its moves and modes, and the independent verifier.

Format ``psk-cert/1`` (one item per line)::

    psk-cert/1
    hash: <sha256 of the canonical PD text>
    mode: wirtinger | plainsphere
    seeds: 0,2,5
    W <target> <crossing>
    L <target> <edge> <f0,f1,...,fk>

A loop line asserts a dual cycle through faces f0..fk: the named target
edge joins fk back to f0, and each hop fi -> fi+1 crosses some edge of a
strand that is colored at that point of the replay.  ``Move`` and the
mode names live here; the engine imports them to build certificates.

The verifier replays moves with direct edge-table scans and a set of
its own, and never touches the engine's union-find or search code, so
an engine bug cannot vouch for itself.  Rejections carry one of the
fixed reason strings in ``REASONS`` plus a human-readable detail.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagram import Diagram
from .dual import DualGraph, build_dual
from .errors import SchemaError, VersionMismatch

FORMAT_VERSION = "psk-cert/1"

WIRTINGER = "wirtinger"
PLAINSPHERE = "plainsphere"
MODES = (WIRTINGER, PLAINSPHERE)


class Move(NamedTuple):
    """One coloring step.

    Wirtinger moves carry the witnessing crossing.  Loop moves carry the
    edge where the loop crosses the target strand plus the face cycle
    f0..fk: the target edge joins fk back to f0, and every hop fi->fi+1
    crosses some edge of an already-colored strand, which a verifier
    finds again by itself.
    """

    kind: str  # "W" or "L"
    target: int
    crossing: int | None = None
    edge: int | None = None
    cycle_faces: tuple[int, ...] | None = None


UNKNOWN_STRAND = "UnknownStrand"
TARGET_ALREADY_COLORED = "TargetAlreadyColored"
WIRTINGER_CONDITION_FAILED = "WirtingerConditionFailed"
CYCLE_NOT_SIMPLE = "CycleNotSimple"
CYCLE_EDGE_UNCOLORED = "CycleEdgeUncolored"
CYCLE_TARGET_COUNT_NEQ1 = "CycleTargetCountNeq1"
INCOMPLETE_COLORING = "IncompleteColoring"
HASH_MISMATCH = "HashMismatch"

REASONS = (
    UNKNOWN_STRAND,
    TARGET_ALREADY_COLORED,
    WIRTINGER_CONDITION_FAILED,
    CYCLE_NOT_SIMPLE,
    CYCLE_EDGE_UNCOLORED,
    CYCLE_TARGET_COUNT_NEQ1,
    INCOMPLETE_COLORING,
    HASH_MISMATCH,
)

_HASH_RE = re.compile(r"^hash: ([0-9a-f]{64})$")
_MODE_RE = re.compile(r"^mode: (\w+)$")
# Only the text serialize_certificate writes: one space between fields
# and numbers in ASCII digits without leading zeros.  \d and int() also
# take other Unicode digits, int() a sign and split() any whitespace run,
# none of which would serialize back to the same text.
_NUM = r"(?:0|[1-9][0-9]*)"
_SEEDS_RE = re.compile(rf"^seeds: ({_NUM}(?:,{_NUM})*)$")
_W_RE = re.compile(rf"^W ({_NUM}) ({_NUM})$")
_L_RE = re.compile(rf"^L ({_NUM}) ({_NUM}) ({_NUM}(?:,{_NUM})*)$")


class Certificate(NamedTuple):
    diagram_hash: str
    mode: str
    seeds: tuple[int, ...]
    moves: tuple[Move, ...]

    @property
    def tau(self) -> int:
        """Total loop complexity: the summed cycle lengths of all loop moves."""
        return sum(len(m.cycle_faces or ()) for m in self.moves
                   if m.kind == "L")


class VerifyResult(NamedTuple):
    ok: bool
    reason: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:  # a nonempty tuple would always be true
        return self.ok


def serialize_certificate(cert: Certificate) -> str:
    lines = [
        FORMAT_VERSION,
        f"hash: {cert.diagram_hash}",
        f"mode: {cert.mode}",
        "seeds: " + ",".join(str(s) for s in cert.seeds),
    ]
    for m in cert.moves:
        if m.kind == "W":
            lines.append(f"W {m.target} {m.crossing}")
        elif m.kind == "L":
            faces = ",".join(str(f) for f in m.cycle_faces)
            lines.append(f"L {m.target} {m.edge} {faces}")
        else:
            raise SchemaError(f"unknown move kind {m.kind!r}")
    return "\n".join(lines) + "\n"


def _ints(*fields: str) -> list[int]:
    """The numbers in matched fields, comma-separated lists included."""
    try:
        return [int(x) for f in fields for x in f.split(",")]
    except ValueError as exc:  # over sys.get_int_max_str_digits() digits
        raise SchemaError(f"number too long: {exc}") from None


def deserialize_certificate(text: str) -> Certificate:
    """Strict parse; raises VersionMismatch or SchemaError."""
    # "\n" only: splitlines() also ends lines at \r, \x0c, \u2028 and more
    lines = text.split("\n")
    while lines and not lines[-1]:
        lines.pop()
    if len(lines) < 4:
        raise SchemaError("certificate is truncated")
    if lines[0] != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported certificate version {lines[0]!r}")
    m = _HASH_RE.match(lines[1])
    if not m:
        raise SchemaError(f"bad hash line: {lines[1]!r}")
    diagram_hash = m.group(1)
    m = _MODE_RE.match(lines[2])
    if not m or m.group(1) not in MODES:
        raise SchemaError(f"bad mode line: {lines[2]!r}")
    mode = m.group(1)
    m = _SEEDS_RE.match(lines[3])
    if not m:
        raise SchemaError(f"bad seeds line: {lines[3]!r}")
    seeds = tuple(_ints(m[1]))
    moves: list[Move] = []
    for line in lines[4:]:
        if m := _W_RE.match(line):
            target, crossing = _ints(m[1], m[2])
            moves.append(Move("W", target, crossing=crossing))
        elif m := _L_RE.match(line):
            if mode == WIRTINGER:
                raise SchemaError("loop move in a wirtinger-mode certificate")
            target, edge, *faces = _ints(m[1], m[2], m[3])
            moves.append(Move("L", target, edge=edge,
                              cycle_faces=tuple(faces)))
        elif not line.strip():
            raise SchemaError("blank line inside move list")
        else:
            raise SchemaError(f"bad move line: {line!r}")
    return Certificate(diagram_hash, mode, seeds, tuple(moves))


def _reject(reason: str, detail: str) -> VerifyResult:
    return VerifyResult(False, reason, detail)


def verify(d: Diagram, cert: Certificate,
           dual: DualGraph | None = None) -> VerifyResult:
    """Replay `cert` against `d` and accept only a complete valid coloring.

    The replay keeps its own colored set and re-checks every move
    against the diagram's raw tables; with a loop move it also keeps the
    face pairs its colored strands' edges join, for the loops' hops.
    """
    if cert.mode not in MODES:
        raise SchemaError(f"unknown certificate mode {cert.mode!r}")
    loops = any(m.kind == "L" for m in cert.moves)
    if loops and cert.mode == WIRTINGER:
        raise SchemaError("loop move in a wirtinger-mode certificate")
    if cert.diagram_hash != d.content_hash:
        return _reject(HASH_MISMATCH,
                       f"certificate is for {cert.diagram_hash[:12]}..., "
                       f"diagram is {d.content_hash[:12]}...")
    if dual is None and cert.mode == PLAINSPHERE:
        dual = build_dual(d)
    colored: set[int] = set()
    joined: set[frozenset[int]] = set()  # grown only when loops need it
    for s in cert.seeds:
        if not 0 <= s < d.n:
            return _reject(UNKNOWN_STRAND, f"seed {s} is not a strand id")
        if s in colored:
            return _reject(TARGET_ALREADY_COLORED, f"seed {s} repeated")
        colored.add(s)
        if loops:
            joined.update(frozenset(t[1:]) for t in dual.strand_edges[s])
    if not colored:
        return _reject(INCOMPLETE_COLORING, "certificate has no seeds")
    for idx, m in enumerate(cert.moves):
        where = f"move {idx} ({m.kind} {m.target})"
        if not 0 <= m.target < d.n:
            return _reject(UNKNOWN_STRAND, f"{where}: no such strand")
        if m.target in colored:
            return _reject(TARGET_ALREADY_COLORED, f"{where}: already colored")
        if m.kind == "W":
            result = _check_wirtinger(d, colored, m, where)
        else:
            result = _check_loop(d, dual, joined, m, where)
        if result is not None:
            return result
        colored.add(m.target)
        if loops:
            joined.update(frozenset(t[1:])
                          for t in dual.strand_edges[m.target])
    if len(colored) != d.n:
        missing = sorted(set(range(d.n)) - colored)
        return _reject(INCOMPLETE_COLORING,
                       f"strands never colored: {missing}")
    return VerifyResult(True)


def _check_wirtinger(d: Diagram, colored: set[int], m: Move,
                     where: str) -> VerifyResult | None:
    if m.crossing is None or not 0 <= m.crossing < d.n:
        return _reject(WIRTINGER_CONDITION_FAILED,
                       f"{where}: no such crossing {m.crossing}")
    u1, u2 = d.under_strands[m.crossing]
    if m.target not in (u1, u2):
        return _reject(WIRTINGER_CONDITION_FAILED,
                       f"{where}: target is not an under-strand "
                       f"of crossing {m.crossing}")
    other = u2 if m.target == u1 else u1
    if other == m.target:
        return _reject(WIRTINGER_CONDITION_FAILED,
                       f"{where}: crossing {m.crossing} is self-adjacent")
    if other not in colored:
        return _reject(WIRTINGER_CONDITION_FAILED,
                       f"{where}: other under-strand {other} uncolored")
    over = d.over_strand[m.crossing]
    if over not in colored:
        return _reject(WIRTINGER_CONDITION_FAILED,
                       f"{where}: over-strand {over} uncolored")
    return None


def _check_loop(d: Diagram, dual: DualGraph, joined: set[frozenset[int]],
                m: Move, where: str) -> VerifyResult | None:
    if m.edge is None or m.edge not in dual.edge_faces:
        return _reject(CYCLE_TARGET_COUNT_NEQ1,
                       f"{where}: no such edge {m.edge}")
    if d.edge_to_strand[m.edge] != m.target:
        return _reject(CYCLE_TARGET_COUNT_NEQ1,
                       f"{where}: edge {m.edge} belongs to strand "
                       f"{d.edge_to_strand[m.edge]}, not the target")
    faces = m.cycle_faces or ()
    if len(faces) < 2 or len(set(faces)) != len(faces):
        return _reject(CYCLE_NOT_SIMPLE,
                       f"{where}: face cycle must list >= 2 distinct faces")
    if any(not 0 <= f < dual.n_faces for f in faces):
        return _reject(CYCLE_NOT_SIMPLE, f"{where}: unknown face id")
    if set(dual.edge_faces[m.edge]) != {faces[0], faces[-1]}:
        return _reject(CYCLE_TARGET_COUNT_NEQ1,
                       f"{where}: target edge {m.edge} does not join the "
                       f"cycle's end faces")
    for f1, f2 in zip(faces, faces[1:]):
        if frozenset((f1, f2)) not in joined:
            return _reject(CYCLE_EDGE_UNCOLORED,
                           f"{where}: no colored edge between faces "
                           f"{f1} and {f2}")
    return None
