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
  seeds are added one at a time, with undo.  It only decides loop
  moves, so it tracks the connected face classes of that subgraph with
  a union-find.

* ``saturate`` builds the move log a certificate replays, with a fixed
  policy: sweep the uncolored strands in id order, applying each one's
  Wirtinger move at its lowest-id qualifying crossing, until a sweep
  finds none; only then apply one loop move and start sweeping again.
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
witness's lower bound (below) up to one less than its size, then in
strand search order (the order of ``itertools.combinations`` over it),
depth first on one ``GrowingClosure`` that extends each prefix's closure
by the next seed and undoes it on backtrack.  When none saturates, the
witness is reissued in the search's mode; for omega that is the set a
search of the greedy set's size would find first, its first leaf.  When
the bound reaches the witness's size, no ``GrowingClosure`` or dual is
built.

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
search keeps its own memo.  Only failing subtrees are cut, so the first
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
is fixed by its seeds' colors, so a depth first search over the witness
seeds' transpositions, replaying its move log, finds the best one.  It
uses at most one point more than the witness has seeds, enough for one
orbit that reaches the seed count.

The coloring found also prunes the search.  A prefix whose colors leave
more orbits than orbits(all colors) plus the seeds it has left cannot
saturate, since each further seed joins at most two orbits, so it is
skipped before its last seed is added; a union-find over the coloring's
points, undone on backtrack, counts the orbits.  A pruned prefix cannot
saturate, so the failure memo stays sound and the first saturating set
is unchanged.  Only the rho search colors transpositions: its witness,
the omega certificate, has omega seeds, where omega's greedy witness has
more, and there the coloring search cost more search time than its
bound and prune saved.
"""

from __future__ import annotations

import time
from functools import cache
from math import gcd
from typing import Iterable, Sequence

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
    # per face, the other face of each colored strand's dual edge, in
    # coloring order: the order the loop witness search walks them in
    adj: list[list[int]] = [[] for _ in range(dual.n_faces if plain else 0)]

    def color(s: int) -> None:
        colored.add(s)
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
                for c in d.strand_crossings[s]:
                    u1, u2 = d.under_strands[c]
                    # a self-adjacent crossing (u1 == u2) never fires
                    if (u1 != u2 and s in (u1, u2)
                            and (u2 if u1 == s else u1) in colored
                            and d.over_strand[c] in colored):
                        log.append(Move("W", s, crossing=c))
                        color(s)
                        swept = True
                        break
        move = _loop_move(d, dual, adj, colored) if plain else None
        if move is None:
            return frozenset(colored), tuple(log)
        log.append(move)
        color(move.target)


class GrowingClosure:
    """A colored set kept closed under one mode's moves, grown one seed at
    a time and rolled back to any earlier mark.

    ``add(s)`` colors s, saturates from the current closed set and
    returns a mark; ``undo(mark)`` rolls back every change made since,
    in O(changes).  Each newly colored strand spreads Wirtinger moves
    through the crossings it meets and, in plain-sphere mode, joins the
    two faces of each of its dual edges.  Face classes are a union-find
    with union by size and no path compression, so a union is undone by
    unlinking one root, and each class is also a circular member list.
    A strand passes the loop test once the two faces of one of its edges
    share a class, which happens only when a union merges their classes,
    so each union tests just the edges between the two: it walks the
    smaller class and looks at the other face of every edge it borders.
    A missing dual is built.
    """

    def __init__(self, d: Diagram, mode: str, dual: DualGraph | None = None):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        plain = mode == PLAINSPHERE
        if plain and dual is None:
            dual = build_dual(d)
        self.dual = dual
        self.colored = [False] * d.n
        self.mask = 0  # bit s set iff strand s is colored
        self._bit = tuple(1 << s for s in range(d.n))  # cheaper than shifts
        self._trail: list[int] = []  # strand s colored, or ~r: root r linked
        # per strand, (u1, u2, over) of each crossing it meets that can fire
        self._crossings = tuple(
            tuple(d.under_strands[c] + (d.over_strand[c],) for c in cs
                  if d.under_strands[c][0] != d.under_strands[c][1])
            for cs in d.strand_crossings)
        # Wirtinger mode joins no faces: no strand has a dual edge there
        faces = dual.n_faces if plain else 0
        self._edges = dual.strand_edges if plain else ((),) * d.n
        self._parent = list(range(faces))
        self._size = [1] * faces
        self._next = list(range(faces))
        # per face, (other face, strand) of each edge it borders
        self._border: list[list[tuple[int, int]]] = [[] for _ in range(faces)]
        for s, edges in enumerate(self._edges):
            for _, f1, f2 in edges:
                self._border[f1].append((f2, s))
                self._border[f2].append((f1, s))

    def add(self, s: int) -> int:
        """Color `s` (uncolored) and saturate; returns the mark to undo to."""
        colored, trail, crossings, edges = (self.colored, self._trail,
                                            self._crossings, self._edges)
        parent, size, nxt, border = (self._parent, self._size, self._next,
                                     self._border)
        mark = len(trail)
        bit = self._bit
        colored[s] = True
        mask = self.mask | bit[s]
        trail.append(s)
        stack = [s]
        while stack:
            t = stack.pop()
            for u1, u2, o in crossings[t]:
                if colored[o] and colored[u1] != colored[u2]:
                    u = u2 if colored[u1] else u1
                    colored[u] = True
                    mask |= bit[u]
                    trail.append(u)
                    stack.append(u)
            for _, a, b in edges[t]:
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a == b:
                    continue
                if size[a] > size[b]:
                    a, b = b, a
                f = a
                while True:  # edges between class a and class b pass
                    for g, u in border[f]:
                        if not colored[u]:
                            while parent[g] != g:
                                g = parent[g]
                            if g == b:
                                colored[u] = True
                                mask |= bit[u]
                                trail.append(u)
                                stack.append(u)
                    f = nxt[f]
                    if f == a:
                        break
                parent[a] = b
                size[b] += size[a]
                nxt[a], nxt[b] = nxt[b], nxt[a]
                trail.append(~a)
        self.mask = mask
        return mark

    def undo(self, mark: int) -> None:
        """Roll back to the state `add` returned `mark` from."""
        colored, trail, parent, size, nxt = (self.colored, self._trail,
                                             self._parent, self._size,
                                             self._next)
        mask, bit = self.mask, self._bit
        for x in reversed(trail[mark:]):
            if x >= 0:
                colored[x] = False
                mask ^= bit[x]
            else:
                a = ~x
                b = parent[a]
                parent[a] = a
                size[b] -= size[a]
                nxt[a], nxt[b] = nxt[b], nxt[a]
        del trail[mark:]
        self.mask = mask


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
                           moves: Iterable[Move]
                           ) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(m - orbits, coloring) for a transposition coloring of the diagram
    on m <= len(seeds) + 1 points whose m - orbits is largest: the
    transposition lower bound on rho and omega, and one coloring, as the
    two points of each strand's transposition, that attains it.

    `seeds` must Wirtinger-saturate the diagram through `moves`.  A depth
    first search colors the seeds in order, canonically: the first is
    (0 1), and a later one takes only used points or the next unused
    ones.  Each move is replayed, and each crossing no move used is
    checked, at the first seed that colors all of its strands.  Branches
    that cannot beat the best coloring found are cut, and the search ends
    when m - orbits reaches len(seeds).
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
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(k)]
    for c, (u1, u2) in enumerate(d.under_strands):
        if c not in used:
            over = d.over_strand[c]
            checks[max(stage[over], stage[u1], stage[u2])].append(
                (over, u1, u2))
    color = [0] * d.n
    best_rank, best_color = 0, color

    def extend(i: int, points: int, rank: int, orbit: tuple[int, ...]) -> bool:
        """Color seeds i on, the earlier ones using `points` points in
        orbits `orbit` (a label per point) of rank `rank`; True once the
        bound reaches k."""
        nonlocal best_rank, best_color
        s, moves_here, checks_here = seeds[i], replay[i], checks[i]
        for t, used_points, merged in options[points]:
            if merged is None:
                a, b = ends[t]
                merged = orbit[a] != orbit[b]
            if rank + merged + k - i - 1 <= best_rank:
                continue  # cannot beat the best coloring found
            color[s] = t
            for target, over, other in moves_here:
                color[target] = conj[color[over]][color[other]]
            if any(conj[color[over]][color[u1]] != color[u2]
                   for over, u1, u2 in checks_here):
                continue
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

    extend(0, 0, 0, ())
    return best_rank, tuple(ends[t] for t in best_color)


def strand_search_order(d: Diagram) -> list[int]:
    """Strands by descending over-degree, ties by id.

    Strands that pass over many crossings enable many Wirtinger moves,
    so trying them first tends to hit a spanning seed set sooner.  The
    search below is exhaustive per size, so this is purely a speedup.
    """
    return sorted(range(d.n), key=lambda s: (-d.over_degree(s), s))


def _search(d: Diagram, mode: str, dual: DualGraph | None,
            witness: Certificate, deadline: float | None):
    """(k, certificate) for the first seed set, by size from the lower
    bound of Wirtinger certificate `witness` up to its size - 1 and then
    in search order, whose closure colors every strand; else `witness`,
    reissued in `mode`.  The bound is the coloring bound, and in
    plain-sphere mode the transposition bound too, whose coloring also
    prunes prefixes.  Sizes below the bound fail and `witness`
    saturates, so on timeout the message names that interval."""
    lower = coloring_bound(d, witness.seeds, witness.moves)
    upper = len(witness.seeds)
    ends: Sequence[tuple[int, int]] = ()
    if mode == PLAINSPHERE and lower < upper:
        bound, ends = transposition_coloring(d, witness.seeds, witness.moves)
        lower = max(lower, bound)
    reissued = upper, Certificate(diagram_hash=d.content_hash, mode=mode,
                                  seeds=witness.seeds, moves=witness.moves)
    if lower == upper:
        return reissued
    name = "omega" if mode == WIRTINGER else "rho"
    order = strand_search_order(d)
    state = GrowingClosure(d, mode, dual)
    colored, n, full = state.colored, d.n, (1 << d.n) - 1
    chosen: list[int] = []
    # closed set's mask -> most further seeds known not to saturate it;
    # valid for this mode and diagram only: see the module docstring
    failed: dict[int, int] = {}
    # a union-find over the coloring's points: first the orbits of all its
    # colors, then, undone on backtrack, those of the prefix's seeds
    parent = list(range(upper + 1))
    for a, b in ends:
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        parent[a] = b
    rank = sum(p != q for q, p in enumerate(parent))  # m - orbits(all)
    parent = list(range(upper + 1))

    def extend(start: int, left: int, slack: int) -> bool:
        # slack: how many of the `left` seeds may join no two orbits; when
        # slack >= left no prefix below can be pruned, so none is tracked
        track = slack < left
        for i in range(start, n - left + 1):
            s = order[i]
            if colored[s]:
                continue  # the prefix colors it: see the module docstring
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
            if merged:
                parent[a] = a
            chosen.pop()
            state.undo(mark)
        return False

    for k in range(lower, upper):
        if extend(0, k, k - rank):
            colored_set, log = saturate(d, chosen, mode, state.dual)
            assert len(colored_set) == d.n
            return k, Certificate(
                diagram_hash=d.content_hash, mode=mode,
                seeds=tuple(sorted(chosen)), moves=log,
            )
    return reissued


def omega(d: Diagram, deadline: float | None = None):
    """Smallest k whose some k-seed set Wirtinger-saturates the diagram.

    Returns (k, certificate).  The search is bounded by a greedy
    saturating set: strands in search order, skipping colored ones.
    """
    state = GrowingClosure(d, WIRTINGER)
    greedy = []
    for s in strand_search_order(d):
        if not state.colored[s]:
            state.add(s)
            greedy.append(s)
    _, log = saturate(d, greedy, WIRTINGER)
    return _search(d, WIRTINGER, None, Certificate(
        diagram_hash=d.content_hash, mode=WIRTINGER,
        seeds=tuple(sorted(greedy)), moves=log), deadline)


def rho(d: Diagram, dual: DualGraph | None = None,
        deadline: float | None = None, omega_result=None):
    """Smallest k whose some k-seed set plain-sphere-saturates the diagram.

    Loop moves dominate Wirtinger moves, so rho <= omega, and the omega
    certificate bounds the search: when no smaller seed set works it is
    reissued as a plain-sphere certificate (its Wirtinger moves remain
    valid there).
    """
    _, wcert = omega_result if omega_result is not None else omega(d, deadline)
    return _search(d, PLAINSPHERE, dual, wcert, deadline)
