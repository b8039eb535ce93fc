"""Brute-force reference implementations used only by the test suite.

These deliberately share no logic with the engine: availability of a
loop move is decided by exhaustively enumerating every simple cycle of
the dual multigraph (as edge subsets forming a connected 2-regular
subgraph) and checking the definition directly, and Wirtinger moves are
re-derived from the raw crossing tuples.  Seed-set searches run in
plain strand-id order with no heuristics.  Practical only for small
diagrams, which is the point.

Two exceptions reuse engine parts on purpose.  ``saturate_random``
drives the engine's own move finders in random order, to check that the
order of moves does not change the fixpoint.  ``reference_search`` is
the engine's seed-set search in its plain form, every set of each size
in ``combinations`` order with a fresh closure each, to check that the
depth-first search finds the same first set.
"""

from __future__ import annotations

from itertools import combinations

from plainsphere.diagram import Diagram
from plainsphere.dual import DualGraph, build_dual
from plainsphere.engine import (PLAINSPHERE, WIRTINGER, ColoringState,
                                closure, loop_colorable_now,
                                strand_search_order, wirtinger_colorable_now)


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


def wirtinger_available(d: Diagram, colored: set[int], target: int) -> bool:
    for u1, u2, over in crossing_tables(d):
        if target not in (u1, u2):
            continue
        other = u2 if target == u1 else u1
        if other != target and other in colored and over in colored:
            return True
    return False


def wirtinger_fixpoint(d: Diagram, seeds) -> set[int]:
    colored = set(seeds)
    changed = True
    while changed:
        changed = False
        for s in range(d.n):
            if s not in colored and wirtinger_available(d, colored, s):
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


def loop_available(g: DualGraph, cycles: list[tuple[int, ...]],
                   colored: set[int], target: int) -> bool:
    """Definition check: some simple cycle crosses `target` exactly once
    and otherwise crosses only colored strands."""
    for cycle in cycles:
        strands = [g.diagram.edge_to_strand[e] for e in cycle]
        if strands.count(target) != 1:
            continue
        if all(s == target or s in colored for s in strands):
            return True
    return False


def plainsphere_fixpoint(g: DualGraph, cycles: list[tuple[int, ...]],
                         seeds) -> set[int]:
    """Loop moves alone; they subsume Wirtinger moves, so nothing is lost."""
    n = g.diagram.n
    colored = set(seeds)
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if s not in colored and loop_available(g, cycles, colored, s):
                colored.add(s)
                changed = True
    return colored


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
            if len(plainsphere_fixpoint(g, cycles, combo)) == d.n:
                return k
    raise AssertionError("unreachable")


def saturate_random(d: Diagram, seeds, mode: str, rng,
                    dual: DualGraph | None = None) -> frozenset[int]:
    """Saturate with the engine's moves, picking uniformly among the
    currently available targets; confluence says the result is the
    engine's fixpoint for every random order."""
    if mode == PLAINSPHERE and dual is None:
        dual = build_dual(d)
    state = ColoringState(d, dual if mode == PLAINSPHERE else None, seeds)
    while True:
        available = []
        for s in state.uncolored():
            if mode == WIRTINGER:
                move = wirtinger_colorable_now(state, s)
            else:
                move = loop_colorable_now(state, s)
            if move is not None:
                available.append(move)
        if not available:
            return frozenset(state.colored)
        state.apply(rng.choice(available))


def reference_search(d: Diagram, mode: str, dual: DualGraph | None,
                     sizes) -> tuple[int, tuple[int, ...]] | None:
    """(k, sorted seeds) of the first seed set, by size from `sizes` and
    then in ``combinations`` order over the strand search order, whose
    closure colors every strand; else None."""
    order = strand_search_order(d)
    for k in sizes:
        for combo in combinations(order, k):
            if len(closure(d, combo, mode, dual)) == d.n:
                return k, tuple(sorted(combo))
    return None
