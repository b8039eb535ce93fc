"""Brute-force reference implementations used only by the test suite.

These deliberately share no logic with the engine: availability of a
loop move is decided by exhaustively enumerating every simple cycle of
the dual multigraph (as edge subsets forming a connected 2-regular
subgraph) and checking the definition directly, and Wirtinger moves are
re-derived from the raw crossing tuples.  Seed-set searches run in
plain strand-id order with no heuristics.  Practical only for small
diagrams, which is the point.

``saturate_random`` and ``loops_first_log`` build moves from the same
raw tables: a Wirtinger move at a crossing of ``crossing_tables``, a
loop move with the witness a breadth-first search finds through the
dual edges of colored strands, looked up in ``DualGraph.edge_faces``.

``oracle_link_components`` merges the labels that go straight through
each crossing, read off the raw tuples.

``oracle_coloring_bound`` takes the Fox-coloring bound from the dense
crossing x strand matrix: its rank modulo each prime that divides an
entry of an integer diagonal form of it, where the engine reduces an
m x m relation matrix from a saturating set's move log.

``oracle_transposition_bound`` colors a saturating set's seeds with
every tuple of transpositions of S_m, m one more than the seed count,
with no symmetry breaking, and propagates each through the raw
crossing tables, where the engine colors seeds canonically and replays
the move log.

``odd_components`` checks a loop move's face cycle against the link
components: a dual cycle is a cut of the projection, so it crosses each
closed component an even number of times.  It takes each hop's edge
from ``DualGraph.pair_edges``; any of the parallel edges will do, since
a closed curve through two of them would cross a component that owned
only one exactly once.

``reference_transposition_coloring`` is the engine's transposition
coloring as it was before its crossing checks moved from the end of
each seed's replay to the step that completes them: the same depth
first search over the same colorings, so the engine must return the
identical bound and coloring.

``oracle_tables`` builds a diagram's flat tables and its dual straight
from the PD text: a dart is a (crossing, slot) pair, and the other end
of an edge is looked up by its label.

Only ``closure`` and ``reference_search`` reuse engine parts, on
purpose.  ``closure`` is the colored set a fresh ``GrowingClosure``
reaches from a seed set, the fast path the search runs, so tests can
hold it against ``saturate`` and the oracles above.
``reference_search`` is the engine's seed-set search in its plain form,
every set of each size in ``combinations`` order with a fresh closure
each, to check that the depth-first search finds the same first set.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import combinations, product

from plainsphere.certificate import Move
from plainsphere.diagram import Diagram
from plainsphere.dual import DualGraph
from plainsphere.engine import PLAINSPHERE, WIRTINGER, GrowingClosure


def crossing_tables(d: Diagram) -> list[tuple[int, int, int]]:
    """(under strand, under strand, over strand) per crossing, from raw tuples."""
    out = []
    for t in d.pd:
        u1 = d.edge_to_strand[t[0]]
        u2 = d.edge_to_strand[t[2]]
        over = d.edge_to_strand[t[1]]
        assert over == d.edge_to_strand[t[3]]
        out.append((u1, u2, over))
    return out


def oracle_link_components(d: Diagram) -> list[list[int]]:
    """Sorted edge lists of the link components, from raw tuples: a
    component goes straight through each crossing, so labels a and c, and
    b and d, of each tuple lie on one component."""
    parts: list[set[int]] = [{e} for e in range(1, 2 * d.n + 1)]
    for a, b, c, e in d.pd:
        for x, y in ((a, c), (b, e)):
            px = next(p for p in parts if x in p)
            py = next(p for p in parts if y in p)
            if px is not py:
                parts.remove(py)
                px |= py
    return sorted(sorted(p) for p in parts)


def wirtinger_crossing(d: Diagram, colored: set[int],
                       target: int) -> int | None:
    """The first crossing where `target` is an under-strand and the other
    under-strand, a different strand, and the over-strand are colored."""
    for c, (u1, u2, over) in enumerate(crossing_tables(d)):
        if target not in (u1, u2):
            continue
        other = u2 if target == u1 else u1
        if other != target and other in colored and over in colored:
            return c
    return None


def wirtinger_fixpoint(d: Diagram, seeds) -> set[int]:
    colored = set(seeds)
    changed = True
    while changed:
        changed = False
        for s in range(d.n):
            if (s not in colored
                    and wirtinger_crossing(d, colored, s) is not None):
                colored.add(s)
                changed = True
    return colored


def enumerate_simple_cycles(g: DualGraph) -> list[tuple[int, ...]]:
    """Every simple cycle of the dual multigraph, as a tuple of edge labels.

    A subset of edges is a simple cycle exactly when every face it
    touches has degree 2 in it and the touched faces are connected.
    Exponential in the edge count; callers keep diagrams small.
    """
    edges = sorted(g.edge_faces)
    cycles = []
    for r in range(2, len(edges) + 1):
        for subset in combinations(edges, r):
            degree: dict[int, int] = {}
            for e in subset:
                for f in g.edge_faces[e]:
                    degree[f] = degree.get(f, 0) + 1
            if any(v != 2 for v in degree.values()):
                continue
            # connectivity over touched faces
            touched = set(degree)
            stack = [next(iter(touched))]
            seen = {stack[0]}
            while stack:
                f = stack.pop()
                for e in subset:
                    a, b = g.edge_faces[e]
                    if a == f and b not in seen:
                        seen.add(b)
                        stack.append(b)
                    elif b == f and a not in seen:
                        seen.add(a)
                        stack.append(a)
            if seen == touched:
                cycles.append(subset)
    return cycles


def loop_available(d: Diagram, g: DualGraph, cycles: list[tuple[int, ...]],
                   colored: set[int], target: int) -> bool:
    """Definition check: some simple cycle crosses `target` exactly once
    and otherwise crosses only colored strands."""
    for cycle in cycles:
        strands = [d.edge_to_strand[e] for e in cycle]
        if strands.count(target) != 1:
            continue
        if all(s == target or s in colored for s in strands):
            return True
    return False


def plainsphere_fixpoint(d: Diagram, g: DualGraph,
                         cycles: list[tuple[int, ...]], seeds) -> set[int]:
    """Loop moves alone; they subsume Wirtinger moves, so nothing is lost."""
    colored = set(seeds)
    changed = True
    while changed:
        changed = False
        for s in range(d.n):
            if s not in colored and loop_available(d, g, cycles, colored, s):
                colored.add(s)
                changed = True
    return colored


def loop_witness(d: Diagram, g: DualGraph, colored: set[int],
                 target: int) -> Move | None:
    """A loop move for `target`: a shortest face path, through dual edges
    of colored strands, between the two faces of one of its edges."""
    hops: dict[int, list[int]] = {}
    for e, (f1, f2) in g.edge_faces.items():
        if d.edge_to_strand[e] in colored:
            hops.setdefault(f1, []).append(f2)
            hops.setdefault(f2, []).append(f1)
    for e, (f1, f2) in sorted(g.edge_faces.items()):
        if d.edge_to_strand[e] != target:
            continue
        prev = {f1: None}
        queue = [f1]
        for f in queue:
            for h in hops.get(f, ()):
                if h not in prev:
                    prev[h] = f
                    queue.append(h)
        if f2 in prev:
            faces = [f2]
            while prev[faces[-1]] is not None:
                faces.append(prev[faces[-1]])
            return Move("L", target, edge=e, cycle_faces=tuple(faces[::-1]))
    return None


def odd_components(d: Diagram, g: DualGraph, move: Move) -> set[int]:
    """The link components a loop move's cycle crosses an odd number of
    times, counting the target edge and one edge per face hop."""
    faces = move.cycle_faces
    hops = [g.pair_edges[frozenset(pair)][0]
            for pair in zip(faces, faces[1:])]
    odd: set[int] = set()
    for e in hops + [move.edge]:
        odd ^= {d.components[e]}
    return odd


def colorable_moves(d: Diagram, g: DualGraph | None, colored: set[int],
                    mode: str) -> list[Move]:
    """One move per uncolored strand that has one: a Wirtinger move in
    Wirtinger mode, a loop move in plain-sphere mode."""
    moves = []
    for s in range(d.n):
        if s in colored:
            continue
        if mode == WIRTINGER:
            c = wirtinger_crossing(d, colored, s)
            move = None if c is None else Move("W", s, crossing=c)
        else:
            move = loop_witness(d, g, colored, s)
        if move is not None:
            moves.append(move)
    return moves


def oracle_omega(d: Diagram) -> int:
    for k in range(1, d.n + 1):
        for combo in combinations(range(d.n), k):
            if len(wirtinger_fixpoint(d, combo)) == d.n:
                return k
    raise AssertionError("unreachable")


def oracle_rho(d: Diagram, g: DualGraph,
               cycles: list[tuple[int, ...]] | None = None) -> int:
    if cycles is None:
        cycles = enumerate_simple_cycles(g)
    for k in range(1, d.n + 1):
        for combo in combinations(range(d.n), k):
            if len(plainsphere_fixpoint(d, g, cycles, combo)) == d.n:
                return k
    raise AssertionError("unreachable")


def saturate_random(d: Diagram, seeds, mode: str, rng,
                    dual: DualGraph | None = None) -> frozenset[int]:
    """Saturate picking uniformly among the currently available moves;
    confluence says the result is the engine's fixpoint for every random
    order.  `dual` is required in plain-sphere mode."""
    colored = set(seeds)
    while True:
        available = colorable_moves(d, dual, colored, mode)
        if not available:
            return frozenset(colored)
        colored.add(rng.choice(available).target)


def loops_first_log(d: Diagram, g: DualGraph, seeds):
    """Full saturation by loop moves alone, the first uncolored strand
    with one at a time, for loop-heavy certificates.  A Wirtinger move is
    always also a loop move (circle its crossing), so none is left over."""
    colored, log = set(seeds), []
    while moves := colorable_moves(d, g, colored, PLAINSPHERE):
        colored.add(moves[0].target)
        log.append(moves[0])
    return frozenset(colored), tuple(log)


def closure(d: Diagram, seeds, mode: str,
            dual: DualGraph | None = None) -> set[int]:
    """The colored set `saturate` reaches from `seeds`, without the log."""
    state = GrowingClosure(d, mode, dual)
    for s in seeds:
        if not state.mask >> s & 1:
            state.add(s)
    return {s for s in range(d.n) if state.mask >> s & 1}


def reference_search(d: Diagram, mode: str, dual: DualGraph | None,
                     sizes) -> tuple[int, tuple[int, ...]] | None:
    """(k, sorted seeds) of the first seed set, by size from `sizes` and
    then in ``combinations`` order over the strand search order, whose
    closure colors every strand; else None."""
    order = d.search_order
    for k in sizes:
        for combo in combinations(order, k):
            if len(closure(d, combo, mode, dual)) == d.n:
                return k, tuple(sorted(combo))
    return None


def fox_matrix(d: Diagram) -> list[list[int]]:
    """The crossing x strand matrix of Fox colorings: row 2 over - u1 - u2."""
    rows = []
    for u1, u2, over in crossing_tables(d):
        row = [0] * d.n
        row[over] += 2
        row[u1] -= 1
        row[u2] -= 1
        rows.append(row)
    return rows


def diagonal_entries(a: list[list[int]]) -> list[int]:
    """The diagonal of an integer diagonal form of `a`, pivoting at the
    top left of what is left.  Euclid clears the pivot's column by row
    operations and its row by column operations; a smaller entry swaps
    into the pivot first, so the pivot row or column changes only when
    the pivot shrinks."""
    a = [list(r) for r in a]
    rows, cols = len(a), len(a[0])
    out = []
    for t in range(min(rows, cols)):
        nonzero = [(i, j) for i in range(t, rows) for j in range(t, cols)
                   if a[i][j]]
        if not nonzero:
            break
        i, j = nonzero[0]
        a[t], a[i] = a[i], a[t]
        for r in a:
            r[t], r[j] = r[j], r[t]
        clear = False
        while not clear:
            clear = True
            for i in range(t + 1, rows):
                while a[i][t]:
                    if abs(a[i][t]) < abs(a[t][t]):
                        a[t], a[i] = a[i], a[t]
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, cols):
                while a[t][j]:
                    if abs(a[t][j]) < abs(a[t][t]):
                        clear = False  # the pivot column changes
                        for r in a:
                            r[t], r[j] = r[j], r[t]
                    q = a[t][j] // a[t][t]
                    for r in a:
                        r[j] -= q * r[t]
        out.append(a[t][t])
    return out


def prime_factors(x: int) -> set[int]:
    x, p, out = abs(x), 2, set()
    while p * p <= x:
        while x % p == 0:
            out.add(p)
            x //= p
        p += 1
    return out | ({x} if x > 1 else set())


def rank_mod(a: list[list[int]], p: int) -> int:
    """Rank of `a` over the integers mod the prime p."""
    a = [[x % p for x in r] for r in a]
    rank = 0
    for j in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][j], -1, p)
        for i in range(len(a)):
            if i != rank and a[i][j]:
                f = a[i][j] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def oracle_coloring_bound(d: Diagram) -> int:
    """The largest dimension of the mod-p Fox coloring space over all
    primes p.  A prime that divides no nonzero diagonal entry has the
    rational rank, which p = 2 already counts."""
    a = fox_matrix(d)
    primes = {2}.union(*(prime_factors(x) for x in diagonal_entries(a) if x))
    return max(d.n - rank_mod(a, p) for p in primes)


def oracle_transposition_bound(d: Diagram, seeds) -> int:
    """The largest m - orbits of a transposition coloring of S_m,
    m = len(seeds) + 1: o a o = b at every crossing (o over, a and b
    under), orbits those of the group all colors generate.  `seeds`
    must Wirtinger-saturate the diagram, so their colors fix the rest."""
    m = len(seeds) + 1
    tables = crossing_tables(d)
    # the order colors spread from the seeds, found once: (target, over,
    # other under) of the first crossing that colors each strand
    spread, known = [], set(seeds)
    while len(known) < d.n:
        grown = len(known)
        for u1, u2, over in tables:
            for a, b in ((u1, u2), (u2, u1)):
                if over in known and a in known and b not in known:
                    spread.append((b, over, a))
                    known.add(b)
        assert len(known) > grown, "seeds do not saturate"
    pairs = list(combinations(range(m), 2))
    conj = {(o, t): conjugate(o, t) for o in pairs for t in pairs}
    best = 0
    for colors in product(pairs, repeat=len(seeds)):
        color = dict(zip(seeds, colors))
        for target, over, other in spread:
            color[target] = conj[color[over], color[other]]
        if any(conj[color[over], color[u1]] != color[u2]
               for u1, u2, over in tables):
            continue
        orbits = [{p} for p in range(m)]
        for a, b in color.values():
            pa = next(o for o in orbits if a in o)
            pb = next(o for o in orbits if b in o)
            if pa is not pb:
                orbits.remove(pb)
                pa |= pb
        best = max(best, m - len(orbits))
    return best


def conjugate(o: tuple[int, int], t: tuple[int, int]) -> tuple[int, int]:
    """The transposition o t o, as a sorted pair."""
    swap = {o[0]: o[1], o[1]: o[0]}
    return tuple(sorted(swap.get(p, p) for p in t))


def oracle_tables(text: str) -> dict:
    """pd, label, mate, strands, edge_to_strand, under_strands,
    over_strand, n_faces, edge_faces and strand_edges, as ``Diagram`` and
    ``DualGraph`` number and order them, from well-formed PD text alone:
    its numbers, four to a crossing."""
    numbers = iter(map(int, re.findall(r"[0-9]+", text)))
    pd = tuple(zip(numbers, numbers, numbers, numbers))
    n = len(pd)
    ends: dict[int, list[tuple[int, int]]] = {}
    for c, t in enumerate(pd):
        for slot, e in enumerate(t):
            ends.setdefault(e, []).append((c, slot))

    def other_end(c: int, slot: int) -> tuple[int, int]:
        (end,) = [x for x in ends[pd[c][slot]] if x != (c, slot)]
        return end

    mate = tuple(4 * c2 + s2 for c in range(n) for slot in range(4)
                 for c2, s2 in [other_end(c, slot)])
    # a strand starts at an under slot, slot 2 of each crossing first, and
    # goes straight over each crossing it meets until it ends under one
    strands, owner = [], {}
    for start in [(c, 2) for c in range(n)] + [(c, 0) for c in range(n)]:
        c, slot = start
        if pd[c][slot] in owner:
            continue
        edges = []
        while True:
            edges.append(pd[c][slot])
            owner[pd[c][slot]] = len(strands)
            c, slot = other_end(c, slot)
            if slot in (0, 2):
                break
            slot = (slot + 2) % 4
        strands.append(tuple(edges))
    # faces: from each dart, step to the next slot counterclockwise, pass
    # its edge, and go on from the edge's other end
    faces, seen = [], set()
    for start in [(c, slot) for c in range(n) for slot in range(4)]:
        face, (c, slot) = [], start
        while (c, slot) not in seen:
            seen.add((c, slot))
            slot = (slot + 1) % 4
            face.append(pd[c][slot])
            c, slot = other_end(c, slot)
        if face:
            faces.append(face)
    edge_faces = {}
    for face in faces:
        for e in face:
            edge_faces.setdefault(e, tuple(
                f for f, other in enumerate(faces) for x in other if x == e))
    return {
        "pd": pd,
        "label": tuple(e for t in pd for e in t),
        "mate": mate,
        "strands": tuple(strands),
        "edge_to_strand": {e: s for s, edges in enumerate(strands)
                           for e in edges},
        "under_strands": tuple((owner[t[0]], owner[t[2]]) for t in pd),
        "over_strand": tuple(owner[t[1]] for t in pd),
        "n_faces": len(faces),
        "edge_faces": edge_faces,
        "strand_edges": [tuple((e,) + edge_faces[e] for e in edges)
                         for edges in strands],
    }


@cache
def reference_transposition_tables(m: int) -> tuple:
    """(ends, conj, options) for the transpositions of S_m, as the
    reference coloring orders them."""
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


def reference_transposition_coloring(d: Diagram, seeds, moves):
    """(m - orbits, coloring) as the engine found it when each seed's
    crossing checks ran after all of that seed's moves were replayed."""
    k = len(seeds)
    ends, conj, options = reference_transposition_tables(k + 1)
    stage = [0] * d.n  # the seed after which each strand has its color
    for i, s in enumerate(seeds):
        stage[s] = i
    replay: list[list[tuple[int, int, int]]] = [[] for _ in range(k)]
    used = set()
    for mv in moves:
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
        nonlocal best_rank, best_color
        s, moves_here, checks_here = seeds[i], replay[i], checks[i]
        for t, used_points, merged in options[points]:
            if merged is None:
                a, b = ends[t]
                merged = orbit[a] != orbit[b]
            if rank + merged + k - i - 1 <= best_rank:
                continue
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
