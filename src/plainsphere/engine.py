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
  those their union passes.  A trail undoes the unions.  The crossing
  masks are a table of the diagram (``Diagram.crossing_masks``) that
  every closure of it shares.  A closure given the dual is in
  plain-sphere mode and builds its own edge masks from it; one given
  none is in Wirtinger mode, with no faces and no edges.  A move's
  target is read off the lowest bit of a mask, a crossing's in
  ``Diagram.under_strands`` or an edge's in ``Diagram.edge_to_strand``,
  as ``saturate`` reads its crossings.

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
  colored.  It runs only for a certificate that is asked for, where the
  search's closures run once per seed set, so it keeps no union-find.

The bounds take the Wirtinger closure a third way, as a derivation, not
as seeds: ``_derivation`` grows it seed by seed in order, skips a seed
the earlier ones color, fires the lowest crossing of ``xo & xu`` as
``GrowingClosure`` does, and keeps the moves each seed adds.

omega and rho share one search over the sizes its caller names.  Seed
sets are tried by size, then in strand search order (the order of
``itertools.combinations`` over it), depth first on one
``GrowingClosure`` of the search's own that extends each prefix's
closure by the next seed and undoes it on backtrack; the first set that
saturates is the answer.  A search given the dual runs in plain-sphere
mode, and one given none in Wirtinger mode.  A Wirtinger-saturating set,
whose seeds saturate in either mode, bounds the sizes: the greedy
saturating set (strands in search order, skipping colored ones) or its
irredundant subset (below), of m seeds, so a search up to size m finds a
set.  The greedy set is the first set of its size in search order, the
first leaf of a search of that size.  When no size is left to try, the
search builds no ``GrowingClosure``.

Loop moves dominate Wirtinger moves, so a set that does not
plain-sphere-saturate does not Wirtinger-saturate either, and
rho <= omega <= m.  So omega is rho's search continued in Wirtinger mode, and
one computation (``_invariants``) gives both values: ``rho(d)`` and
``omega(d)`` each read one, whichever is called first.  It holds the
dual throughout: its caller's, or one it builds first when the caller
gives none, so a code that is not in the sphere is refused
(``EulerViolation``) before any bound or search.  It searches
plain-sphere mode from the diagram's lower bound up to m - 1.  When no
set below m saturates, rho = m, so omega = m too, and no Wirtinger
search runs.  A first set whose derivation colors every strand
Wirtinger-saturates, so omega = rho, and no Wirtinger search runs: every
set before it fails in plain-sphere mode, so in Wirtinger mode too, and
it is omega's first set as well.  Otherwise one Wirtinger search runs
from rho's size up to m.  When its set has rho's size, omega = rho and
the set is rho's certificate too.  So rho's certificate has no loop move
exactly when omega = rho, and no size that failed in plain-sphere mode
is searched in Wirtinger mode.

Certificates are built apart (``_certified``), only when ``rho`` or
``omega`` is asked for one, as ``psk compute`` and the benchmark's
freeze script ask and a census does not.  When rho = omega = m, the
greedy set is both certificates' set if it has m seeds; else the
certificate step first picks them, by the Wirtinger search of size m,
the same set whichever call comes first.  ``saturate`` then writes the
log, in plain-sphere mode on the dual ``_invariants`` holds.  A set that
Wirtinger-saturates has the same log in both modes, as ``saturate`` in
plain-sphere mode makes every Wirtinger move before any loop move, so
when rho's and omega's sets are one set, one ``saturate`` writes both
certificates.  ``_shared`` keeps the values, the seeds and each
certificate built while the diagram lives; a timeout adds nothing to
it.

The search relies on one invariant: every smaller size failed, in its
own mode or in plain-sphere mode, or is excluded by the bound.  A
candidate the prefix already colors is skipped: adding it changes
nothing, so a set through it saturates only if a smaller set does, and
by the invariant none does.

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
added, as a loop move can fire where no Wirtinger move does.

A saturating set has a seed on every link component.  Mod 2 a coloring
is constant on each component, and any choice of one color per component
is a coloring; a coloring is fixed by its seeds' colors (see the Fox
bound below), so were some component seedless, the coloring that is 1
there and 0 elsewhere would agree with 0 on every seed.  The link group
says the same: the seeds generate it, and its abelianisation has one
generator per component, a meridian's image being its own component's.
So each prefix keeps ``seeded``, the strands of the components its seeds
lie on (``Diagram.strand_component``), and ``spare``, its seeds left
less its components with no seed: k - c at the root, one less after each
seed on a component already seeded.  When ``spare`` is 0, every seed
left must seed a component of its own, so ``seeded`` joins the prefix's
dead mask, and the test that skips colored candidates skips those too,
at no cost per candidate.  On a knot a prefix with a seed has as many
seeds to spare as it has left, so the prune cuts nothing.  The memo's
argument needs only that every set of the size in P's subtree or before
it fails, whether tried or cut, as cl(P + T) = cl(M + T) whatever P's
seeds are; a set this prune cuts cannot saturate, so the memo and the
sibling skip, which reads it, stay sound.  Only failing sets are cut, by
the memo, by these skips and by this prune, so the first saturating set
and its certificate are unchanged.

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

The bound is read off any Wirtinger-saturating seed set, with no n x n
elimination: its derivation writes each strand's color as an integer
linear form in the colors of the m seeds it adds, and the m crossings no
move used give an m x m relation matrix R whose solutions mod p are
exactly the mod-p colorings.  Its dimension is m minus the number of
invariant factors of R that p does not divide.  A prime that divides the
first invariant factor other than 1 divides every later one (zeros
included), so the maximum over p is m minus the number of invariant
factors equal to 1, and no list of primes is needed.

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
saturating set's transpositions, following its derivation, finds the
best one.  It uses at most one point more than the set has seeds,
enough for one orbit that reaches the seed count.

Each seed's color is followed by the moves the derivation adds with it,
and each crossing no move used is a check that o a o = b holds there.
A check runs right after the step, the seed or a move, that colors the
last of its three strands: at the first seed whose closure colors them,
so a failing one drops the coloring before the rest of that seed's moves
are made.  Where it runs changes nothing else: a coloring fails if any
check fails, and the colors a check reads are set.  The search tries the
same colorings in the same order and finds the same best one as a search
that checks every crossing at the end, so the bound and the prune below
do not depend on it.  The search reads the clock once per
``_CLOCK_EVERY`` nodes and, past the deadline, stops with its best bound
so far.

The coloring found also prunes the search.  A prefix whose colors leave
more orbits than orbits(all colors) plus the seeds it has left cannot
saturate, since each further seed joins at most two orbits, so it is
skipped before its last seed is added; a union-find over the coloring's
points, undone on backtrack, counts the prefix's orbits.  Every color is
a product of seed colors, so the seeds' orbits are those of all colors,
and orbits(all colors) is read off the rank m - orbits that the coloring
search returns.  A pruned prefix cannot
saturate, so the failure memo stays sound and the first saturating set
is unchanged.

Both bounds hold for omega and rho alike, so ``_invariants`` works them
out once for both searches.  The derivation of the whole search order
adds the greedy set, and the Fox bound reads it.  The coloring grows
with the count of seeds it colors, and the greedy set has more than
omega, so when the Fox bound is below its size ``_irredundant`` walks
the greedy seeds back from the last one grown and drops each whose
removal leaves a saturating set, one derivation each.  The coloring
reads the derivation of the set it keeps, the last one it accepted or
the greedy one: an irredundant saturating set of m seeds, often omega,
colored on at most m + 1 points, each a point of the prune's union-find.
Certificates do not depend on the coloring, which prunes only sets that
fail, and ``saturate`` writes one only for an answer that is asked for
(``_certified``).  A Fox bound equal to
m is omega, and so rho too, as rho lies between it and omega; no
coloring is searched.

So a timeout, too, proves its bounds of rho and omega together, and
``_invariants`` words it.  ``_irredundant`` reads the clock before each
trial walk and stops with no bound of its own, the coloring with its
best bound and a search with the size it was at, every smaller size
having failed; none names an invariant.  Until rho is found, the larger
of that and the Fox bound bounds both from below, and m from above, the
greedy set's size until ``_irredundant`` returns; in the Wirtinger
search rho is found, and the size bounds omega alone.  The greedy walk,
the Fox bound and ``build_dual`` read no clock.  The
search that picks a certificate's seeds runs when both values are
known, so ``_certified`` names them exactly.
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
    over, under = d.crossing_masks
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
    unions made since.  The closure is in plain-sphere mode exactly when
    it is given the dual; with none it is in Wirtinger mode, a dual with
    no faces and no edges.
    """

    def __init__(self, d: Diagram, dual: DualGraph | None = None):
        self._d = d
        self.mask = self.xo = self.xu = self.xe = 0
        self.bit = tuple(1 << s for s in range(d.n))
        self.over, self.under = d.crossing_masks
        dual = dual or DualGraph(0, {}, [()] * d.n)
        self._edges = dual.strand_edges
        # as bit masks over edges: each strand's, and each face's border
        self._edge_bits = [sum(1 << e for e, _, _ in edges)
                           for edges in self._edges]
        self._rim = [0] * dual.n_faces
        for e, (a, b) in dual.edge_faces.items():
            self._rim[a] |= 1 << e
            self._rim[b] |= 1 << e
        self._parent = list(range(len(self._rim)))
        self._size = [1] * len(self._rim)
        self._trail: list[tuple[int, int]] = []

    def add(self, s: int) -> tuple[int, int, int, int, int]:
        """Color `s` (uncolored) and saturate; returns the mark to undo to."""
        bit, over, under, edges, edge_bits = (
            self.bit, self.over, self.under, self._edges, self._edge_bits)
        parent, size, rim, trail = (self._parent, self._size, self._rim,
                                    self._trail)
        unders, edge_strand = self._d.under_strands, self._d.edge_to_strand
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
                        t = edge_strand[(passed & -passed).bit_length() - 1]
                        mask |= bit[t]
                        xo |= over[t]
                        xu ^= under[t]
                        xe |= edge_bits[t]
                        passed &= ~xe
                        stack.append(t)
            fire = xo & xu
            if not fire:
                break
            # a Wirtinger move at the lowest crossing that fires colors
            # its uncolored under-strand
            u1, u2 = unders[(fire & -fire).bit_length() - 1]
            s = u2 if mask >> u1 & 1 else u1
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


class Derivation(NamedTuple):
    """A Wirtinger closure grown seed by seed, as ``_derivation`` walks it."""
    seeds: list[int]  # the seeds added, in order
    moves: list[list[tuple[int, int, int]]]  # per seed (target, over, other)
    unused: list[int]  # the crossings no move used, ascending
    full: bool  # whether every strand is colored


def _derivation(d: Diagram, seeds: Iterable[int]) -> Derivation:
    """The Wirtinger closure of `seeds`, grown in order: a seed the earlier
    ones color is skipped, and each move fires at the lowest crossing of
    ``xo & xu``, as in ``GrowingClosure``."""
    over, under = d.crossing_masks
    unders, overs = d.under_strands, d.over_strand
    mask = xo = xu = used = 0
    added, moves = [], []
    for s in seeds:
        if mask >> s & 1:
            continue
        added.append(s)
        moves.append(steps := [])
        while True:
            mask |= 1 << s
            xo |= over[s]
            xu ^= under[s]
            fire = xo & xu
            if not fire:
                break
            c = (fire & -fire).bit_length() - 1
            used |= 1 << c
            u1, u2 = unders[c]
            s, other = (u2, u1) if mask >> u1 & 1 else (u1, u2)
            steps.append((s, overs[c], other))
    unused = [c for c in range(d.n) if not used >> c & 1]
    return Derivation(added, moves, unused, mask == (1 << d.n) - 1)


def coloring_bound(d: Diagram, derivation: Derivation) -> int:
    """The Fox-coloring lower bound on omega and rho: the largest
    dimension, over all primes p, of the space of mod-p colorings.

    `derivation` must color every strand.  The bound is m, the seeds it
    adds, less the invariant factors equal to 1 of the m x m relation
    matrix of the crossings no move used (see the module docstring).
    """
    added, moves, unused, full = derivation
    if not full:
        raise ValueError("seeds do not color every strand")
    m = len(added)
    form: list[tuple[int, ...] | None] = [None] * d.n
    for i, s in enumerate(added):
        form[s] = tuple(int(i == j) for j in range(m))
    for target, over, other in (step for steps in moves for step in steps):
        form[target] = tuple(2 * o - u for o, u in zip(form[over],
                                                       form[other]))
    rows = [[2 * o - a - b for o, a, b in zip(form[d.over_strand[c]],
                                               form[u1], form[u2])]
            for c in unused for u1, u2 in [d.under_strands[c]]]
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


def transposition_coloring(d: Diagram, derivation: Derivation,
                           deadline: float | None = None
                           ) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(m - orbits, coloring) for a transposition coloring of the diagram
    on m <= k + 1 points whose m - orbits is largest, k the seeds that
    `derivation` adds: the transposition lower bound on rho and omega,
    and one coloring, as the two points of each strand's transposition,
    that attains it.

    `derivation` must color every strand.  A depth first search colors
    the seeds it adds in order, canonically: the first is (0 1), and
    a later one takes only used points or the next unused ones.  Each
    seed's moves follow its color, with each crossing check right after
    the step that completes it (see the module docstring).  Branches that
    cannot beat the best coloring found are cut, and the search ends when
    m - orbits reaches k.

    Past `deadline` it raises ComputeTimeout with its stage and the best
    bound found so far, which ``_invariants`` words.
    """
    seeds, moves, unused, full = derivation
    if not full:
        raise ValueError("seeds do not color every strand")
    k = len(seeds)
    ends, conj, options = _transposition_tables(k + 1)
    # when[s]: the step that colors s, counting each seed and then the
    # moves it adds; a check (~u2, over, u1) goes right after the step
    # that colors the last of its strands
    when, step = [0] * d.n, 0
    for s, added in zip(seeds, moves):
        for t in (s, *(target for target, _, _ in added)):
            when[t], step = step, step + 1
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(step)]
    for c in unused:
        (u1, u2), over = d.under_strands[c], d.over_strand[c]
        checks[max(when[over], when[u1], when[u2])].append((~u2, over, u1))
    steps: list[list[tuple[int, int, int]]] = []
    for s, added in zip(seeds, moves):
        steps.append(checks[when[s]][:])
        for move in added:
            steps[-1] += move, *checks[when[move[0]]]
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
            raise ComputeTimeout("transposition coloring", best_rank)
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


def _irredundant(d: Diagram, greedy: Derivation,
                 deadline: float | None) -> Derivation:
    """The derivation of the `greedy` seeds less each seed, walked in
    reverse, whose removal still leaves a saturating set: the last set
    kept, or `greedy`.  No seed of the result can be dropped: closures are
    monotone, and each was kept by a superset.

    Before each trial walk it reads the clock, and past `deadline` it
    raises ComputeTimeout with its stage and no bound of its own, which
    ``_invariants`` words."""
    kept = greedy
    for s in reversed(greedy.seeds):
        if deadline is not None and time.monotonic() > deadline:
            raise ComputeTimeout("irredundant subset", 0)
        shrunk = _derivation(d, [t for t in kept.seeds if t != s])
        if shrunk.full:
            kept = shrunk
    return kept


def _certificate(d: Diagram, seeds: Sequence[int], mode: str,
                 dual: DualGraph | None = None) -> Certificate:
    """The certificate of `seeds`, which saturate in `mode`: the move log
    ``saturate`` writes."""
    colored, log = saturate(d, seeds, mode, dual)
    if len(colored) < d.n:
        raise ValueError(
            f"seeds {sorted(seeds)} do not saturate in {mode} mode")
    return Certificate(diagram_hash=d.content_hash, mode=mode,
                       seeds=tuple(sorted(seeds)), moves=log)


class _Found(NamedTuple):
    """What ``_invariants`` works out for a diagram, kept in ``_shared``."""
    rho: int
    omega: int
    # (rho's, omega's) certificate seeds, sorted; None when rho = omega
    # = m and the greedy set is larger, where the certificates pick them
    seeds: tuple[tuple[int, ...], tuple[int, ...]] | None
    coloring: tuple[int, tuple]  # the prune of that pick
    dual: DualGraph  # the caller's, or the one ``_invariants`` built
    # [rho's, omega's], each filled in when first asked for
    certificates: list[Certificate | None]


# diagram -> _Found, dropped with the diagram; values, seeds and
# certificates only, so a finished row keeps no closure alive
_shared: WeakKeyDictionary = WeakKeyDictionary()


def _search(d: Diagram, dual: DualGraph | None, coloring: tuple[int, tuple],
            sizes: range, deadline: float | None) -> tuple[int, ...] | None:
    """The sorted seeds of the first set, by size in `sizes` and then in
    search order, whose closure colors every strand, or None: in
    plain-sphere mode on `dual`, or in Wirtinger mode when it is None.
    Every smaller size must fail in that mode or in plain-sphere mode.
    Only when `sizes` is not empty does it build its closure.  The
    transposition `coloring`, as ``transposition_coloring`` returns it, or
    (0, ()), prunes prefixes, and so does the link component count
    (``Diagram.strand_component``): a prefix with no seed to spare skips
    the candidates on the components it already seeds, as a set that
    leaves a component seedless cannot saturate.  Both cut only failing
    sets, so the failure memo and the skip of what failed siblings color
    stay sound (see the module docstring).  Past `deadline` it raises
    ComputeTimeout with its stage and the size it was searching, which
    its caller words."""
    if not sizes:
        return None
    rank, ends = coloring
    order = d.search_order
    over, under = d.crossing_masks
    n, full = d.n, (1 << d.n) - 1
    state = GrowingClosure(d, dual)
    chosen: list[int] = []
    # closed set's mask -> most further seeds known not to saturate it;
    # valid for this mode and diagram only: see the module docstring
    failed: dict[int, int] = {}
    # a union-find over the coloring's points, undone on backtrack: the
    # orbits of the prefix's seeds
    parent = list(range(max((b for _, b in ends), default=0) + 1))
    component = d.strand_component

    def extend(start: int, left: int, slack: int, spare: int,
               seeded: int) -> bool:
        # slack: how many of the `left` seeds may join no two orbits; when
        # slack >= left no prefix below can be pruned, so none is tracked
        track = slack < left
        # dead grows by failed candidates: see the module docstring
        dead = closed = state.mask
        # seeded: the strands of the components the prefix seeds; spare:
        # how many of the `left` seeds may go on one of them, so when none
        # may, they are dead too: see the module docstring
        if not spare:
            dead |= seeded
        # in Wirtinger mode a last seed that fires no move colors only
        # itself, so it fails unless it is the one uncolored strand
        last = left == 1 and dual is None
        xo, xu = state.xo, state.xu
        for i in range(start, n - left + 1):
            s = order[i]
            if dead >> s & 1:
                continue
            if (last and not (xo | over[s]) & (xu ^ under[s])
                    and closed | 1 << s != full):
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
                raise ComputeTimeout("seed-set search", k)
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
                if extend(i + 1, left - 1, slack - (not merged),
                          spare - (seeded >> s & 1), seeded | component[s]):
                    return True
                failed[mask] = left - 1
            dead |= mask
            if merged:
                parent[a] = a
            chosen.pop()
            state.undo(mark)
        return False

    try:
        for k in sizes:
            if extend(0, k, k - rank, k - d.n_components, 0):
                return tuple(sorted(chosen))
        return None
    finally:
        del extend  # it calls itself through a cell: free it without a GC pass


def _timeout(stage: str, rho_low: int, rho_high: int, omega_low: int,
             omega_high: int) -> ComputeTimeout:
    """The timeout of `stage`, naming the intervals it proved."""
    return ComputeTimeout(
        f"{stage} exceeded its deadline; proved rho >= {rho_low}, "
        f"rho <= {rho_high}, omega >= {omega_low}, omega <= {omega_high}")


def _invariants(d: Diagram, dual: DualGraph | None, deadline: float | None
                ) -> _Found:
    """rho and omega, with the certificate seeds found on the way, worked
    out on the first call for `d` and kept in ``_shared``: the bounds,
    each read off one derivation, plain-sphere mode, then a Wirtinger
    search only when omega is not yet known.  A timeout in any of them is
    worded here (see the module docstring)."""
    found = _shared.get(d)
    if found is not None:
        return found
    if dual is None:
        dual = build_dual(d)
    greedy = kept = _derivation(d, d.search_order)
    lower = coloring_bound(d, greedy)
    m, coloring, known_rho = len(greedy.seeds), (0, ()), None
    try:
        if lower < m:
            kept = _irredundant(d, greedy, deadline)
            m = len(kept.seeds)
        if lower < m:  # else lower is omega, and no bound exceeds it
            coloring = transposition_coloring(d, kept, deadline)
            lower = max(lower, coloring[0])
        seeds = _search(d, dual, coloring, range(lower, m), deadline)
        if seeds is None:  # rho = omega = m
            values, pair = (m, m), None
            if kept is greedy:  # the first set of size m: no search picks it
                pair = (tuple(sorted(greedy.seeds)),) * 2
        elif _derivation(d, seeds).full:  # it Wirtinger-saturates too
            values, pair = (len(seeds), len(seeds)), (seeds, seeds)
        else:
            known_rho = len(seeds)
            wseeds = _search(d, None, coloring, range(known_rho, m + 1),
                             deadline)
            if len(wseeds) == known_rho:
                seeds = wseeds
            values, pair = (known_rho, len(wseeds)), (seeds, wseeds)
    except ComputeTimeout as exc:
        stage, k = exc.args  # k: a lower bound its stage proved
        k = max(lower, k)
        low, high = (k, m) if known_rho is None else (known_rho, known_rho)
        raise _timeout(stage, low, high, k, m) from None
    _shared[d] = found = _Found(*values, pair, coloring, dual, [None, None])
    return found


def _certified(d: Diagram, found: _Found, mode: str,
               deadline: float | None) -> Certificate:
    """`mode`'s certificate of `found`, built on the first call and kept
    in it.  When `found` names no seeds it first picks them: the first
    Wirtinger-saturating set of size m in search order.  A plain-sphere
    log reads the search's dual."""
    i = mode == WIRTINGER  # [rho's, omega's]
    certificates = found.certificates
    if certificates[i] is not None:
        return certificates[i]
    seeds = found.seeds
    if seeds is None:
        try:
            picked = _search(d, None, found.coloring,
                             range(found.omega, found.omega + 1), deadline)
        except ComputeTimeout as exc:  # both values are known
            raise _timeout(exc.args[0], found.rho, found.rho, found.omega,
                           found.omega) from None
        seeds = picked, picked
    if seeds[0] == seeds[1]:
        # the set Wirtinger-saturates, so ``saturate`` writes the same log
        # in plain-sphere mode: it makes every Wirtinger move first
        cert = _certificate(d, seeds[1], WIRTINGER)
        certificates[:] = cert._replace(mode=PLAINSPHERE), cert
    else:
        certificates[i] = _certificate(d, seeds[i], mode, found.dual)
    return certificates[i]


def omega(d: Diagram, deadline: float | None = None, *,
          certificate: bool = True):
    """Smallest k whose some k-seed set Wirtinger-saturates the diagram.

    Returns (k, certificate), computed with rho's (``_invariants``), or
    (k, None) with `certificate` false, which builds no certificate and
    runs no search that only picks one's seeds.  A timeout names the
    interval proved of each invariant.  The keyword is the interim form
    of one entry point that returns both values and builds certificates
    only on request (ROADMAP item 1).
    """
    found = _invariants(d, None, deadline)
    return found.omega, (_certified(d, found, WIRTINGER, deadline)
                         if certificate else None)


def rho(d: Diagram, dual: DualGraph | None = None,
        deadline: float | None = None, omega_result=None, *,
        certificate: bool = True):
    """Smallest k whose some k-seed set plain-sphere-saturates the diagram.

    Returns (k, certificate), computed with omega's (``_invariants``), or
    (k, None) with `certificate` false, as for ``omega``; the certificate
    has no loop move exactly when omega = rho.  `omega_result` is not
    read: the benchmark's freeze script still passes one.
    """
    found = _invariants(d, dual, deadline)
    return found.rho, (_certified(d, found, PLAINSPHERE, deadline)
                       if certificate else None)
