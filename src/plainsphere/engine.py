"""Coloring moves, saturation, and the seed-set searches for omega and rho.

Two move kinds color one new strand each:

* Wirtinger move: at some crossing the target strand is an under-strand,
  the other under-strand is a different strand that is already colored,
  and the over-strand is already colored.

* Loop move: an embedded circle in the sphere crosses the target strand
  exactly once and otherwise meets only colored strands.  Loops that
  meet each face in at most one arc are cycles in the dual graph, and
  restricting to them loses nothing.  A dual cycle through exactly one
  edge of the target exists if and only if the two faces of some target
  edge are connected inside the subgraph spanned by dual edges of
  colored strands.

Every Wirtinger move is dominated by a loop move (circle the crossing),
and both move families are monotone in the colored set, so saturation
reaches the same fixpoint in any order.  The code computes that one
closure two ways:

* ``GrowingClosure`` is the fast path: a colored set kept closed while
  seeds are added one at a time, with undo, as integer bit algebra with
  one code path for both modes.  Crossing masks of the colored strands'
  over- and under-strand roles give the Wirtinger moves that fire.  A
  loop move is only decided, not built: a union-find tracks the
  connected face classes of that subgraph, each with a mask of the edges
  it borders, and the uncolored edges that two classes both border are
  those their union passes.  A trail undoes the unions.  The masks are
  tables of the diagram (``Diagram.crossing_masks``) and of its dual
  (``DualGraph.edge_masks``), built on first read and shared by every
  closure of that diagram; a closure copies only the face masks it
  changes.

* ``saturate`` builds the move log a certificate replays, with a fixed
  policy: sweep the uncolored strands in id order, applying each one's
  Wirtinger move at its lowest-id qualifying crossing, until a sweep
  finds none; only then apply one loop move and start sweeping again.
  It reads the same crossing masks: the moves of strand s fire at the
  crossings of ``under[s]`` that the colored strands' masks mark too.
  The loop move needs a witness cycle, so one breadth-first search both
  decides and builds it: for the first uncolored strand that has a loop
  move, from one face of its first such edge in walk order to the other,
  through the colored strands' dual edges in the order they were
  colored.  It runs once per found certificate, where the search's
  closures run once per seed set, so it keeps no union-find.

omega and rho share one search, bounded by a witness: a Wirtinger
certificate, whose seeds saturate in either mode.  omega's witness is a
greedy saturating set (strands in search order, skipping colored ones),
rho's the omega certificate.  Seed sets are tried by size, from the
diagram's lower bound (below) up to one less than the witness's size,
then in strand search order (the order of ``itertools.combinations``
over it), depth first on one ``GrowingClosure`` that extends each
prefix's closure by the next seed and undoes it on backtrack: for omega
the closure the greedy set was grown on.  When none saturates, omega or
rho reissues its witness in the search's mode; for omega that is the
set a search of the greedy set's size would find first, its first leaf.
When the bound reaches the witness's size nothing is searched, and rho
builds no ``GrowingClosure`` or dual.

The search relies on one invariant: every smaller size failed or is
excluded by the bound.  A candidate the prefix already colors is
skipped: adding it changes nothing, so a set through it saturates only
if a smaller set does, and by the invariant none does.

Each search also keeps a memo of failures keyed by closed set
(``GrowingClosure.mask``): the most further seeds known not to saturate
it.  A prefix whose closed set is stored with at least as many seeds as
the prefix has left is skipped.  When the subtree of a prefix P with
closed set M and j seeds left fails, no j strands at all complete M.
Were T such a set, either T meets M, and P with T - M is a smaller set
that saturates, which the invariant rules out; or P + T is a set of
this size in P's subtree or before P in ``combinations`` order, and
each of those has already failed.  That depends only on M and j, so an
entry holds for every later size of the same search; the other mode's
search keeps its own memo.

A failed candidate also rules out later siblings.  Candidate s fails
under prefix P when its leaf does not saturate, its subtree fails or the
memo covers cl(P + s); then no j strands complete cl(P + s), j the seeds
left after s.  A later s' in cl(P + s) has cl(P + s') within it, as
closure is monotone, so no j strands complete that either, and each
prefix skips the candidates its own or a failed candidate's closed set
colors.

In Wirtinger mode a last seed s that fires no move is skipped too,
unless it is the only uncolored strand: cl(P + s) is then cl(P) + s,
which misses some other strand.  The crossing masks of ``GrowingClosure``
decide that without adding s.  In plain-sphere mode every last seed is
added, as a loop move can fire where no Wirtinger move does.  Only
failing sets are cut, by the memo and by these skips, so the first
saturating set and its certificate are unchanged.

The Fox-coloring bound (``coloring_bound``) is the largest dimension,
over all primes p, of the space of mod-p colorings, which give each
strand a color mod p with 2 * over = u1 + u2 at every crossing.  It is
sound for both modes, because a coloring is fixed by its seeds' colors:
the mod-p coloring space injects into the seed colors, so a saturating
set has at least the bound's many seeds.  A Wirtinger move fixes its
target's color, 2 * over - other, from colors already set.  A coloring
is also a homomorphism from the link group to a dihedral group that
sends meridians to reflections, and by the paper's theorem the seeds of
a plain-sphere saturating set generate the group.  Mod 2 a coloring is
constant on each link component, so the bound is never below the
component count.

The bound is read off any Wirtinger-saturating set of m seeds and its
move log, with no n x n elimination: replaying the log writes each
strand's color as an integer linear form in the seed colors, and the m
crossings no move used give an m x m relation matrix R whose solutions
mod p are exactly the mod-p colorings.  Its dimension is m minus the
number of invariant factors of R that p does not divide.  A prime that
divides the first invariant factor other than 1 divides every later one
(zeros included), so the maximum over p is m minus the number of
invariant factors equal to 1, and no list of primes is needed.

The transposition bound (``transposition_coloring``) colors each strand
with a transposition of S_m so that o a o = b at every crossing, o the
over-strand and a, b the under-strands; like a Fox coloring it needs no
orientation, and S_3 gives the mod-3 Fox colorings.  The colors generate
a group whose orbits on the m points are the components of the graph
whose edges are the colors.  A coloring is a homomorphism from the link
group to S_m that sends meridians to transpositions, and a saturating
set's meridians generate the link group (see the Fox bound), so its
seeds' transpositions generate that group and leave those orbits.  Each
seed joins at most two orbits, so the set has at least m - orbits
seeds.  This is the type-A case of the bound in Baader, Blair and
Kjuchukova, "Coxeter groups and meridional rank of links".  A coloring
is fixed by its seeds' colors, so a depth first search over a
saturating set's transpositions, replaying its move log, finds the best
one.  It uses at most one point more than the set has seeds, enough for
one orbit that reaches the seed count.

Each seed's color is followed by the moves whose inputs it completes,
in log order, and each crossing no move used is a check that o a o = b
holds there.  A check runs right after the step, the seed or a move,
that colors the last of its three strands, so a failing one drops the
coloring before the rest of that seed's moves are replayed.  Where it
runs changes nothing else: a coloring fails if any check fails, the
colors a check reads are set, and the moves it skips are replayed
before any later step reads them.  The search tries the same colorings
in the same order and finds the same best one, so the bound and the
prune below are unchanged.  The search reads the clock once per
``_CLOCK_EVERY`` nodes and, past the deadline, names what it has
proved: at least the Fox bound or its best so far, at most its seeds.

The coloring found also prunes the search.  A prefix whose colors leave
more orbits than orbits(all colors) plus the seeds it has left cannot
saturate, since each further seed joins at most two orbits, so it is
skipped before its last seed is added; a union-find over the coloring's
points, undone on backtrack, counts the orbits.  A pruned prefix cannot
saturate, so the failure memo stays sound and the first saturating set
is unchanged.

Both bounds hold for omega and rho alike and depend on the diagram, not
on the saturating set they are read off, so each diagram's are worked
out once (``_lower_bounds``) and kept while the diagram lives.  omega
works them out, on the ``GrowingClosure`` it then searches on, and rho
reads them; rho works them out the same way only when omega has not run
on that diagram.  The Fox bound is read off the greedy set's log.  The
coloring search grows with the count of seeds it colors, and the greedy
set has more than omega, so when the Fox bound is below its size the
greedy seeds are walked back from the last one grown, each whose
removal leaves a saturating set is dropped, and what is left is
colored: an irredundant saturating set, often of omega seeds, whose
move log ``saturate`` writes when a seed was dropped.  The coloring uses
at most one point more than that set has seeds, and the prune's
union-find has that many points.  The witnesses stay the answers when
no smaller set saturates, so certificates do not depend on the
coloring.  When the Fox bound already equals the colored set's size it
is omega itself, and so rho too, as rho lies between it and omega; no
bound can exceed it, and no coloring is searched.
"""

from __future__ import annotations

import time
from functools import cache
from math import gcd
from typing import Iterable, NamedTuple, Sequence
from weakref import WeakKeyDictionary

from .certificate import MODES, PLAINSPHERE, WIRTINGER, Certificate, Move
from .diagram import Diagram
from .dual import DualGraph, build_dual
from .errors import ComputeTimeout


def _loop_move(d: Diagram, dual: DualGraph, adj: list[list[int]],
               colored: set[int]) -> Move | None:
    """The loop move of the first uncolored strand that has one, at its
    first edge in walk order whose two faces a breadth-first search
    through `adj` (colored strands' dual edges) connects; the search's
    path is the witness cycle."""
    for s in range(d.n):
        if s in colored:
            continue
        for e, src, dst in dual.strand_edges[s]:
            prev: dict[int, int | None] = {src: None}
            queue = [src]
            for f in queue:
                if f == dst:
                    faces = [f]
                    while prev[f] is not None:
                        f = prev[f]
                        faces.append(f)
                    return Move("L", s, edge=e, cycle_faces=tuple(faces[::-1]))
                for g in adj[f]:
                    if g not in prev:
                        prev[g] = f
                        queue.append(g)
    return None


def saturate(d: Diagram, seeds: Iterable[int], mode: str,
             dual: DualGraph | None = None) -> tuple[frozenset[int], tuple[Move, ...]]:
    """Greedy fixpoint from `seeds`, returning the colored set and move log.

    Sweeps the uncolored strands in id order, applying each one's
    Wirtinger move at its lowest-id qualifying crossing, until a sweep
    finds none; in plain-sphere mode only then applies one loop move
    (``_loop_move``) and sweeps again.  Preferring Wirtinger moves keeps
    certificates short and mirrors how the moves are used by hand.  By
    monotonicity the final set does not depend on this policy.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    plain = mode == PLAINSPHERE
    if plain and dual is None:
        dual = build_dual(d)
    seed_list = sorted(set(seeds))
    if not seed_list:
        raise ValueError("seed set must be nonempty")
    for s in seed_list:
        if not 0 <= s < d.n:
            raise ValueError(f"unknown strand id {s}")
    colored: set[int] = set()
    log: list[Move] = []
    over, under, _ = d.crossing_masks
    xo = xu = 0  # as in GrowingClosure: xo & xu & under[s] fire for s
    # per face, the other face of each colored strand's dual edge, in
    # coloring order: the order the loop witness search walks them in
    adj: list[list[int]] = [[] for _ in range(dual.n_faces if plain else 0)]

    def color(s: int) -> None:
        nonlocal xo, xu
        colored.add(s)
        xo |= over[s]
        xu ^= under[s]
        if plain:
            for _, f1, f2 in dual.strand_edges[s]:
                adj[f1].append(f2)
                adj[f2].append(f1)

    for s in seed_list:
        color(s)
    while True:
        swept = True
        while swept:
            swept = False
            for s in range(d.n):
                if s in colored:
                    continue
                fire = xo & xu & under[s]
                if fire:  # at its lowest crossing
                    c = (fire & -fire).bit_length() - 1
                    log.append(Move("W", s, crossing=c))
                    color(s)
                    swept = True
        move = _loop_move(d, dual, adj, colored) if plain else None
        if move is None:
            return frozenset(colored), tuple(log)
        log.append(move)
        color(move.target)


class GrowingClosure:
    """A colored set kept closed under one mode's moves, grown one seed at
    a time and rolled back to any earlier mark.

    The state is four bit masks.  ``mask`` has bit s set iff strand s is
    colored.  ``xo`` is the OR of ``over[s]`` and ``xu`` the XOR of
    ``under[s]`` over the colored strands s: bit c of ``over[s]`` is set
    iff s is crossing c's over-strand, and of ``under[s]`` iff s is one
    of c's two under-strands, a self-adjacent crossing left out.  So
    ``xo & xu`` holds exactly the crossings whose Wirtinger move fires:
    the over-strand is colored and exactly one under-strand is, and the
    move colors the other.  In plain-sphere mode ``xe`` has bit e set iff
    edge e belongs to a colored strand; Wirtinger mode keeps it 0.

    In plain-sphere mode each newly colored strand also joins the two
    faces of each of its dual edges.  Face classes are a union-find with
    union by size and no path compression, so a union is undone by
    unlinking one root, and ``_rim[root]`` holds the edges that border
    the class.  A strand passes the loop test once the two faces of one
    of its edges share a class, which happens only when a union merges
    their classes, so linking classes a and b passes exactly the
    uncolored edges ``_rim[a] & _rim[b] & ~xe``, and the loop move colors
    their strands.  The merged rim keeps the edges inside the class,
    which no other class borders.  The trail keeps each linked root with
    the rim its new root had before.  Wirtinger mode joins no faces: no
    strand has a dual edge there.

    ``add(s)`` colors s, saturates and returns a mark, the four masks and
    the trail's length; ``undo(mark)`` restores them and unlinks the
    unions made since.  A missing dual is built.
    """

    def __init__(self, d: Diagram, mode: str, dual: DualGraph | None = None):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        plain = mode == PLAINSPHERE
        if plain and dual is None:
            dual = build_dual(d)
        self.dual = dual
        self.mask = self.xo = self.xu = self.xe = 0
        self.bit = bit = tuple(1 << s for s in range(d.n))
        self._strand = {b: s for s, b in enumerate(bit)}
        self.over, self.under, self._unders = d.crossing_masks
        if plain:
            self._edges = dual.strand_edges
            self._edge_bits, self._edge_strand, rim = dual.edge_masks
        else:  # Wirtinger mode joins no faces: no strand has a dual edge
            self._edges, self._edge_bits = ((),) * d.n, (0,) * d.n
            self._edge_strand, rim = {}, ()
        self._parent = list(range(len(rim)))
        self._size = [1] * len(rim)
        self._rim = list(rim)
        self._trail: list[tuple[int, int]] = []

    def add(self, s: int) -> tuple[int, int, int, int, int]:
        """Color `s` (uncolored) and saturate; returns the mark to undo to."""
        bit, over, under, edges, edge_bits = (
            self.bit, self.over, self.under, self._edges, self._edge_bits)
        parent, size, rim, trail = (self._parent, self._size, self._rim,
                                    self._trail)
        mask, xo, xu, xe = self.mask, self.xo, self.xu, self.xe
        mark = mask, len(trail), xo, xu, xe
        stack = []  # colored strands whose faces are not yet joined
        while True:
            mask |= bit[s]
            xo |= over[s]
            xu ^= under[s]
            xe |= edge_bits[s]
            stack.append(s)
            while stack:
                for _, a, b in edges[stack.pop()]:
                    while parent[a] != a:
                        a = parent[a]
                    while parent[b] != b:
                        b = parent[b]
                    if a == b:
                        continue
                    if size[a] > size[b]:
                        a, b = b, a
                    passed = rim[a] & rim[b] & ~xe
                    trail.append((a, rim[b]))
                    parent[a] = b
                    size[b] += size[a]
                    rim[b] |= rim[a]
                    while passed:  # a loop move for each passed strand
                        t = self._edge_strand[passed & -passed]
                        mask |= bit[t]
                        xo |= over[t]
                        xu ^= under[t]
                        xe |= edge_bits[t]
                        passed &= ~xe
                        stack.append(t)
            fire = xo & xu
            if not fire:
                break
            # a Wirtinger move at the lowest crossing that fires
            s = self._strand[self._unders[fire & -fire] & ~mask]
        self.mask, self.xo, self.xu, self.xe = mask, xo, xu, xe
        return mark

    def undo(self, mark: tuple[int, int, int, int, int]) -> None:
        """Roll back to the state `add` returned `mark` from."""
        trail, parent, size, rim = (self._trail, self._parent, self._size,
                                    self._rim)
        self.mask, unions, self.xo, self.xu, self.xe = mark
        while len(trail) > unions:
            a, old = trail.pop()
            b = parent[a]
            parent[a] = a
            size[b] -= size[a]
            rim[b] = old


def coloring_bound(d: Diagram, seeds: Sequence[int],
                   moves: Iterable[Move]) -> int:
    """The Fox-coloring lower bound on omega and rho: the largest
    dimension, over all primes p, of the space of mod-p colorings.

    `seeds` must Wirtinger-saturate the diagram through `moves`.  The
    replay writes every strand's color as an integer linear form in the
    m seed colors; the m crossings no move used give an m x m relation
    matrix R, and the bound is m minus the number of invariant factors
    of R equal to 1 (see the module docstring).
    """
    m = len(seeds)
    form: list[tuple[int, ...] | None] = [None] * d.n
    for i, s in enumerate(seeds):
        form[s] = tuple(int(i == j) for j in range(m))
    used = set()
    for mv in moves:
        if mv.kind != "W":
            raise ValueError("the coloring bound replays Wirtinger moves only")
        u1, u2 = d.under_strands[mv.crossing]
        other = u2 if mv.target == u1 else u1
        form[mv.target] = tuple(2 * o - u for o, u in zip(
            form[d.over_strand[mv.crossing]], form[other]))
        used.add(mv.crossing)
    if None in form:
        raise ValueError("seeds and moves do not color every strand")
    rows = [[2 * o - a - b for o, a, b in zip(form[d.over_strand[c]],
                                               form[u1], form[u2])]
            for c, (u1, u2) in enumerate(d.under_strands) if c not in used]
    return m - _unit_invariant_factors(rows)


def _unit_invariant_factors(a: list[list[int]]) -> int:
    """How many invariant factors of the integer matrix `a` equal 1.

    While the entries' gcd is 1, Euclid steps on an entry p of least
    absolute value, by row and column operations, leave a smaller entry
    until p is a unit; clearing its row and column then splits off one
    invariant factor 1.  `a` is consumed.
    """
    a = [r for r in a if any(r)]
    units = 0
    while a and gcd(*(x for r in a for x in r)) == 1:
        while True:
            _, i, j = min((abs(x), i, j) for i, r in enumerate(a)
                          for j, x in enumerate(r) if x)
            pivot = a[i]
            p = pivot[j]
            if p in (1, -1):
                break
            for r in a:  # column j to remainders mod p
                if r is not pivot and r[j] // p:
                    q = r[j] // p
                    r[:] = [x - q * y for x, y in zip(r, pivot)]
            # p divides its row and column, and so, as the gcd is 1, not
            # some other row: adding that one leaves a remainder in row i
            if (all(r[j] == 0 for r in a if r is not pivot)
                    and not any(x % p for x in pivot)):
                other = next(r for r in a if any(x % p for x in r))
                pivot[:] = [x + y for x, y in zip(pivot, other)]
            for l, q in enumerate([x // p for x in pivot]):  # row i, too
                if l != j and q:
                    for r in a:
                        r[l] -= q * r[j]
        del a[i]
        for r in a:
            q = r[j] * p  # r[j] / p, as p is a unit
            r[:] = [x - q * y for x, y in zip(r, pivot)]
            del r[j]
        a = [r for r in a if any(r)]
        units += 1
    return units


# the coloring search reads the clock once per this many nodes (a power
# of two); a node tries each transposition of one seed
_CLOCK_EVERY = 64


@cache
def _transposition_tables(m: int) -> tuple:
    """(ends, conj, options) for the transpositions of S_m.

    Transposition t = b (b - 1) / 2 + a is (a b), a < b, so those on the
    first u points come first; ``ends[t]`` is (a, b) and ``conj[o][t]``
    is o t o.  ``options[u]`` lists, as (t, points used, orbit merged),
    the transpositions a seed may take when the earlier seeds use points
    0..u-1 and every later point is unused: one with the next unused
    point, one on the next two, then one on used points, whose merging
    the caller decides (None).
    """
    def index(x: int, y: int) -> int:
        return x * (x - 1) // 2 + y if x > y else y * (y - 1) // 2 + x

    ends = tuple((a, b) for b in range(m) for a in range(b))
    conj = []
    for x, y in ends:
        swap = list(range(m))
        swap[x], swap[y] = y, x
        conj.append(tuple(index(swap[a], swap[b]) for a, b in ends))
    options = tuple(
        tuple([(index(a, u), u + 1, True) for a in range(u) if u < m]
              + [(index(u, u + 1), u + 2, True)] * (u + 2 <= m)
              + [(t, u, None) for t in range(u * (u - 1) // 2)])
        for u in range(m + 1))
    return ends, tuple(conj), options


def transposition_coloring(d: Diagram, seeds: Sequence[int],
                           moves: Iterable[Move],
                           deadline: float | None = None, known: int = 0
                           ) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(m - orbits, coloring) for a transposition coloring of the diagram
    on m <= len(seeds) + 1 points whose m - orbits is largest: the
    transposition lower bound on rho and omega, and one coloring, as the
    two points of each strand's transposition, that attains it.

    `seeds` must Wirtinger-saturate the diagram through `moves`.  A depth
    first search colors the seeds in order, canonically: the first is
    (0 1), and a later one takes only used points or the next unused
    ones.  Each move is replayed at the first seed that colors both
    strands it reads, and each crossing no move used is checked right
    after the step that colors the last of its strands, so a coloring
    that fails there is dropped before the moves after it are replayed.
    Branches that cannot beat the best coloring found are cut, and the
    search ends when m - orbits reaches len(seeds).

    Past `deadline` it raises ComputeTimeout naming what is proved of
    omega: at least the best bound found so far or `known`, a lower
    bound proved before (the Fox bound), and at most len(seeds).
    """
    k = len(seeds)
    ends, conj, options = _transposition_tables(k + 1)
    stage = [0] * d.n  # the seed after which each strand has its color
    for i, s in enumerate(seeds):
        stage[s] = i
    replay: list[list[tuple[int, int, int]]] = [[] for _ in range(k)]
    used = set()
    for mv in moves:
        if mv.kind != "W":
            raise ValueError("the transposition bound replays Wirtinger moves only")
        u1, u2 = d.under_strands[mv.crossing]
        over, other = d.over_strand[mv.crossing], u2 if mv.target == u1 else u1
        stage[mv.target] = i = max(stage[over], stage[other])
        replay[i].append((mv.target, over, other))
        used.add(mv.crossing)
    # when[s]: the step that colors s, counting each seed and then the
    # moves replayed after it; a check (~u2, over, u1) goes right after
    # the step that colors the last of its strands
    when, step = [0] * d.n, 0
    for i, s in enumerate(seeds):
        for t in (s, *(target for target, _, _ in replay[i])):
            when[t], step = step, step + 1
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(step)]
    for c, (u1, u2) in enumerate(d.under_strands):
        if c not in used:
            over = d.over_strand[c]
            checks[max(when[over], when[u1], when[u2])].append((~u2, over, u1))
    steps: list[list[tuple[int, int, int]]] = []
    for i, s in enumerate(seeds):
        steps.append(checks[when[s]][:])
        for move in replay[i]:
            steps[i] += move, *checks[when[move[0]]]
    color = [0] * d.n
    best_rank, best_color = 0, color
    visits = 0

    def extend(i: int, points: int, rank: int, orbit: tuple[int, ...]) -> bool:
        """Color seeds i on, the earlier ones using `points` points in
        orbits `orbit` (a label per point) of rank `rank`; True once the
        bound reaches k."""
        nonlocal best_rank, best_color, visits
        visits += 1
        if (deadline is not None and not visits & _CLOCK_EVERY - 1
                and time.monotonic() > deadline):
            raise ComputeTimeout(
                f"transposition coloring exceeded its deadline; proved "
                f"omega >= {max(known, best_rank)}, omega <= {k}")
        s, steps_here = seeds[i], steps[i]
        for t, used_points, merged in options[points]:
            if merged is None:
                a, b = ends[t]
                merged = orbit[a] != orbit[b]
            if rank + merged + k - i - 1 <= best_rank:
                continue  # cannot beat the best coloring found
            color[s] = t
            for target, over, other in steps_here:
                if target >= 0:  # a move
                    color[target] = conj[color[over]][color[other]]
                elif conj[color[over]][color[other]] != color[~target]:
                    break  # a failed check
            else:
                if i + 1 == k:
                    best_rank, best_color = rank + merged, color[:]
                    if best_rank == k:
                        return True
                    continue
                joined = orbit + tuple(range(points, used_points))
                if merged:
                    a, b = ends[t]
                    keep, drop = joined[a], joined[b]
                    joined = tuple(keep if x == drop else x for x in joined)
                if extend(i + 1, used_points, rank + merged, joined):
                    return True
        return False

    try:
        extend(0, 0, 0, ())
    finally:
        del extend  # it calls itself through a cell: free it without a GC pass
    return best_rank, tuple(ends[t] for t in best_color)


def _irredundant(state: GrowingClosure, seeds: Sequence[int]) -> list[int]:
    """`seeds`, which saturate on the empty closure `state`, less each
    seed, walked in reverse, whose removal still leaves a saturating set.
    No seed of the result can be dropped: closures are monotone, and each
    was kept by a superset.  `state` is left empty."""
    empty, full = (0, 0, 0, 0, 0), (1 << len(state.bit)) - 1
    kept = list(seeds)
    for s in reversed(seeds):
        state.undo(empty)
        for t in kept:
            if state.mask == full:
                break
            if t != s and not state.mask >> t & 1:
                state.add(t)
        if state.mask == full:
            kept.remove(s)
    state.undo(empty)
    return kept


class _Bounds(NamedTuple):
    """One diagram's lower-bound work, as omega and rho read it."""
    witness: Certificate  # the greedy saturating set, in Wirtinger mode
    lower: int  # the larger of the Fox and transposition bounds
    ends: tuple[tuple[int, int], ...]  # the transposition coloring, or ()
    points: int  # the points it uses: its colored seeds + 1


# diagram -> its _Bounds, dropped with the diagram; immutable values only,
# so a finished row keeps no closure alive
_shared: WeakKeyDictionary[Diagram, _Bounds] = WeakKeyDictionary()


def _lower_bounds(d: Diagram, state: GrowingClosure,
                  deadline: float | None) -> _Bounds:
    """The greedy saturating set, grown on the empty Wirtinger closure
    `state`, and the diagram's lower bound, stored in ``_shared``.

    The Fox bound is read off the greedy set's log; below the set's
    size, ``_irredundant`` shrinks the set on `state`, and below the
    shrunk set's size its transposition coloring is searched, which
    raises ComputeTimeout past `deadline`.  `state` is left empty."""
    greedy = []
    for s in d.search_order:
        if not state.mask >> s & 1:
            state.add(s)
            greedy.append(s)
    _, log = saturate(d, greedy, WIRTINGER)
    witness = Certificate(diagram_hash=d.content_hash, mode=WIRTINGER,
                          seeds=tuple(sorted(greedy)), moves=log)
    lower, ends, points = coloring_bound(d, witness.seeds, log), (), 0
    if lower < len(greedy):
        seeds = _irredundant(state, greedy)  # in the order they were grown
        if lower < len(seeds):  # else lower is omega, and no bound exceeds it
            moves = log if len(seeds) == len(greedy) else saturate(
                d, seeds, WIRTINGER)[1]
            bound, ends = transposition_coloring(d, seeds, moves, deadline,
                                                 lower)
            lower, points = max(lower, bound), len(seeds) + 1
    state.undo((0, 0, 0, 0, 0))
    _shared[d] = bounds = _Bounds(witness, lower, ends, points)
    return bounds


def _search(d: Diagram, mode: str, state: GrowingClosure, lower: int,
            upper: int, ends: Sequence[tuple[int, int]], points: int,
            deadline: float | None) -> tuple[int, Certificate] | None:
    """(k, certificate) for the first seed set, by size from `lower` up
    to `upper` - 1 and then in search order, whose closure in `mode`
    colors every strand; None when there is none.  The search runs on
    `state`, an empty closure in `mode`.  `ends`, a transposition
    coloring on `points` points, prunes prefixes.  Sizes below `lower`
    fail and some set of size `upper` saturates, so on timeout the
    message names that interval."""
    name = "omega" if mode == WIRTINGER else "rho"
    order = d.search_order
    bit, over, under = state.bit, state.over, state.under
    n, full = d.n, (1 << d.n) - 1
    chosen: list[int] = []
    # closed set's mask -> most further seeds known not to saturate it;
    # valid for this mode and diagram only: see the module docstring
    failed: dict[int, int] = {}
    # a union-find over the coloring's points: first the orbits of all its
    # colors, then, undone on backtrack, those of the prefix's seeds
    parent = list(range(points))
    for a, b in ends:
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        parent[a] = b
    rank = sum(p != q for q, p in enumerate(parent))  # m - orbits(all)
    parent = list(range(points))

    def extend(start: int, left: int, slack: int) -> bool:
        # slack: how many of the `left` seeds may join no two orbits; when
        # slack >= left no prefix below can be pruned, so none is tracked
        track = slack < left
        # dead grows by failed candidates: see the module docstring
        dead = closed = state.mask
        # in Wirtinger mode a last seed that fires no move colors only
        # itself, so it fails unless it is the one uncolored strand
        last = left == 1 and mode == WIRTINGER
        xo, xu = state.xo, state.xu
        for i in range(start, n - left + 1):
            s = order[i]
            if dead >> s & 1:
                continue
            if (last and not (xo | over[s]) & (xu ^ under[s])
                    and closed | bit[s] != full):
                continue
            if track:
                a, b = ends[s]
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a == b and not slack:
                    continue  # too many orbits left: see the module docstring
            if deadline is not None and time.monotonic() > deadline:
                # k is the size being searched: see the invariant above
                raise ComputeTimeout(
                    f"seed-set search exceeded its deadline; proved "
                    f"{name} >= {k}, {name} <= {upper}")
            mark = state.add(s)
            chosen.append(s)
            mask = state.mask
            merged = track and a != b
            if merged:
                parent[a] = b
            if left == 1:
                if mask == full:
                    return True
            elif failed.get(mask, -1) < left - 1:
                if extend(i + 1, left - 1, slack - (not merged)):
                    return True
                failed[mask] = left - 1
            dead |= mask
            if merged:
                parent[a] = a
            chosen.pop()
            state.undo(mark)
        return False

    try:
        for k in range(lower, upper):
            if extend(0, k, k - rank):
                colored_set, log = saturate(d, chosen, mode, state.dual)
                assert len(colored_set) == d.n
                return k, Certificate(
                    diagram_hash=d.content_hash, mode=mode,
                    seeds=tuple(sorted(chosen)), moves=log,
                )
        return None
    finally:
        del extend  # it calls itself through a cell: free it without a GC pass


def omega(d: Diagram, deadline: float | None = None):
    """Smallest k whose some k-seed set Wirtinger-saturates the diagram.

    Returns (k, certificate).  The search is bounded by a greedy
    saturating set: strands in search order, skipping colored ones.  It
    runs on the closure the greedy set was grown on, and works out the
    diagram's lower bound, which rho reads.
    """
    state = GrowingClosure(d, WIRTINGER)
    witness, lower, ends, points = _lower_bounds(d, state, deadline)
    upper = len(witness.seeds)
    found = None
    if lower < upper:
        found = _search(d, WIRTINGER, state, lower, upper, ends, points,
                        deadline)
    return found or (upper, witness)


def rho(d: Diagram, dual: DualGraph | None = None,
        deadline: float | None = None, omega_result=None):
    """Smallest k whose some k-seed set plain-sphere-saturates the diagram.

    Loop moves dominate Wirtinger moves, so rho <= omega, and the omega
    certificate bounds the search: when no smaller seed set works it is
    reissued as a plain-sphere certificate (its Wirtinger moves remain
    valid there).  The search starts at the diagram's lower bound and is
    pruned by its transposition coloring, both as omega left them for
    this diagram, or worked out here when omega has not run on it.
    """
    _, wcert = omega_result if omega_result is not None else omega(d, deadline)
    _, lower, ends, points = (_shared.get(d) or _lower_bounds(
        d, GrowingClosure(d, WIRTINGER), deadline))
    upper = len(wcert.seeds)
    found = None
    if lower < upper:
        found = _search(d, PLAINSPHERE, GrowingClosure(d, PLAINSPHERE, dual),
                        lower, upper, ends, points, deadline)
    return found or (upper, Certificate(
        diagram_hash=d.content_hash, mode=PLAINSPHERE, seeds=wcert.seeds,
        moves=wcert.moves))
