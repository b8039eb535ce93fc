"""Property tests over the bundled small diagrams.

Each property is drawn from the invariants the algorithms rely on:
monotone moves, order-independent saturation, Wirtinger moves being a
special case of loop moves, loop parity across link components,
complete saturation logs verifying as certificates, the coloring bound
being the same from every saturating seed set, and the plain-sphere
closure being the one bridge peeling in the projection reaches
(``oracles.bridge_closure``, with no dual).  One more runs over
seeded random label codes: every diagram ``build_dual`` accepts has two
distinct faces on each edge, which loop moves and their witness cycles
rely on.
"""

from __future__ import annotations

import random
from functools import cache

from hypothesis import given, settings, strategies as st

from plainsphere import PlainSphereError, build_dual, parse_pd
from plainsphere.certificate import Certificate, deserialize_certificate, \
    serialize_certificate, verify
from plainsphere.engine import (MODES, PLAINSPHERE, WIRTINGER, _derivation,
                                _unit_invariant_factors, coloring_bound,
                                saturate)

import oracles
from conftest import load_table, small_braid
from oracles import closure

SMALL = {}
for _name, _pd, _ in load_table("fixtures_small.csv"):
    _d = parse_pd(_pd)
    _g = build_dual(_d)
    SMALL[_name] = (_d, _g, oracles.enumerate_simple_cycles(_g))

# (diagram, dual) by name: every bundled row and 40 small random braid
# closures, as in test_search
PROJECTED = {}
for _table in ("fixtures_small.csv", "bridge_table_10.csv", "slice14.csv"):
    for _name, _pd, _ in load_table(_table):
        _d = parse_pd(_pd)
        PROJECTED.setdefault(_name, (_d, build_dual(_d)))
for _i in range(40):
    PROJECTED[f"small-braid-{_i}"] = small_braid(_i)
# the bundled rows of at most 8 crossings, where enumerating every dual
# cycle stays cheap
UP_TO_8 = sorted(name for name, (d, _) in PROJECTED.items()
                 if d.n <= 8 and not name.startswith("small-braid-"))


@st.composite
def diagram_and_seeds(draw):
    name = draw(st.sampled_from(sorted(SMALL)))
    d, g, cycles = SMALL[name]
    seeds = draw(st.sets(st.integers(0, d.n - 1), min_size=1))
    return name, d, g, cycles, tuple(sorted(seeds))


@settings(deadline=None)
@given(diagram_and_seeds(), st.sampled_from(MODES))
def test_monotonicity(case, mode):
    """Enlarging the seed set never shrinks the fixpoint."""
    name, d, g, _, seeds = case
    base = closure(d, seeds, mode, g)
    for extra in range(d.n):
        bigger = closure(d, set(seeds) | {extra}, mode, g)
        assert base <= bigger, (name, mode, seeds, extra)


@settings(deadline=None)
@given(diagram_and_seeds(), st.sampled_from(MODES), st.integers(0, 2**32))
def test_confluence_random_orders(case, mode, rng_seed):
    """Uniformly random move choice reaches the canonical fixpoint."""
    name, d, g, _, seeds = case
    expected = frozenset(closure(d, seeds, mode, g))
    dual = g if mode == PLAINSPHERE else None
    got = oracles.saturate_random(d, seeds, mode, random.Random(rng_seed),
                                  dual)
    assert got == expected, (name, mode, seeds, rng_seed)


@settings(deadline=None)
@given(diagram_and_seeds())
def test_wirtinger_dominated_by_loops(case):
    name, d, g, _, seeds = case
    w = closure(d, seeds, WIRTINGER)
    p = closure(d, seeds, PLAINSPHERE, g)
    assert w <= p, (name, seeds)


@settings(deadline=None)
@given(diagram_and_seeds(), st.sampled_from(MODES))
def test_fixpoints_match_oracle(case, mode):
    name, d, g, cycles, seeds = case
    got = closure(d, seeds, mode, g)
    if mode == WIRTINGER:
        want = oracles.wirtinger_fixpoint(d, seeds)
    else:
        want = oracles.plainsphere_fixpoint(d, g, cycles, seeds)
    assert got == want, (name, mode, seeds)


@settings(deadline=None)
@given(diagram_and_seeds(), st.sampled_from(MODES))
def test_complete_logs_verify(case, mode):
    """Any full saturation, from any seed set, is a valid certificate."""
    name, d, g, _, seeds = case
    dual = g if mode == PLAINSPHERE else None
    colored, log = saturate(d, seeds, mode, dual)
    if len(colored) < d.n:
        return  # partial colorings are legitimate results, not certificates
    cert = Certificate(d.content_hash, mode, seeds, log)
    assert verify(d, cert, g).ok, (name, mode, seeds)
    assert deserialize_certificate(serialize_certificate(cert)) == cert


@settings(deadline=None)
@given(diagram_and_seeds())
def test_loop_moves_cross_components_evenly(case):
    name, d, g, _, seeds = case
    _, log = saturate(d, seeds, PLAINSPHERE, g)
    for move in log:
        if move.kind == "L":
            assert not oracles.odd_components(d, g, move), (name, seeds, move)


@settings(deadline=None)
@given(diagram_and_seeds())
def test_dropping_any_seed_breaks_the_certificate(case):
    name, d, g, _, seeds = case
    colored, log = saturate(d, seeds, PLAINSPHERE, g)
    if len(colored) < d.n or len(seeds) == 1:
        return
    for omit in range(len(seeds)):
        weaker = seeds[:omit] + seeds[omit + 1:]
        cert = Certificate(d.content_hash, PLAINSPHERE, weaker, log)
        assert not verify(d, cert, g).ok, (name, seeds, omit)


@settings(deadline=None)
@given(diagram_and_seeds())
def test_coloring_bound_is_a_diagram_invariant(case):
    """Every Wirtinger-saturating seed set gives the dense-matrix oracle's
    bound and has at least that many seeds, in any order and with seeds
    the earlier ones color, which the derivation skips: here the seeds
    reversed, then every strand."""
    name, d, g, _, seeds = case
    if len(closure(d, seeds, WIRTINGER)) < d.n:
        return  # the bound needs a saturating set
    want = oracles.oracle_coloring_bound(d)
    bound = coloring_bound(d, _derivation(d, seeds))
    assert bound == want <= len(seeds), (name, seeds)
    redundant = seeds[::-1] + tuple(range(d.n))
    assert coloring_bound(d, _derivation(d, redundant)) == want, (name, seeds)


@cache
def dual_cycles(name: str) -> list[tuple[int, ...]]:
    return oracles.enumerate_simple_cycles(PROJECTED[name][1])


@st.composite
def projected_and_seeds(draw, names):
    name = draw(st.sampled_from(names))
    d, g = PROJECTED[name]
    seeds = draw(st.sets(st.integers(0, d.n - 1), min_size=1))
    return name, d, g, seeds


@settings(deadline=None)
@given(projected_and_seeds(sorted(PROJECTED)))
def test_bridge_closure_matches_growing_closure(case):
    """Bridge peeling in the projection, with no dual and no faces,
    reaches the plain-sphere closure ``GrowingClosure`` keeps, on every
    bundled row and the small random braids."""
    name, d, g, seeds = case
    want = closure(d, seeds, PLAINSPHERE, g)
    assert oracles.bridge_closure(d, seeds) == want, (name, seeds)


@settings(deadline=None)
@given(projected_and_seeds(UP_TO_8))
def test_bridge_closure_matches_cycle_oracle(case):
    """On the bundled rows of at most 8 crossings, bridge peeling reaches
    the fixpoint of loop moves checked against every simple dual cycle,
    the literal definition."""
    name, d, g, seeds = case
    want = oracles.plainsphere_fixpoint(d, g, dual_cycles(name), seeds)
    assert oracles.bridge_closure(d, seeds) == want, (name, seeds)


@settings(deadline=None)
@given(st.lists(st.lists(st.integers(-12, 12), min_size=4, max_size=4),
                min_size=1, max_size=4))
def test_unit_invariant_factors_match_ranks_mod_p(a):
    """An integer matrix has as many invariant factors 1 as its least
    rank modulo a prime; only primes dividing a diagonal entry can lower
    the rank, and p = 2 stands in for the rest."""
    primes = {2}.union(*(oracles.prime_factors(x)
                         for x in oracles.diagonal_entries(a) if x))
    want = min(oracles.rank_mod(a, p) for p in primes)
    assert _unit_invariant_factors([list(r) for r in a]) == want, a


def test_accepted_duals_have_two_faces_on_every_edge():
    """Euler's count is the only planarity test: a code it accepts is
    drawn in the sphere, so no edge is a bridge with one face on both
    sides.  The closure decides loop moves only when a union joins two
    face classes, and a one-face witness cycle would not verify."""
    rng = random.Random(20261019)
    accepted = 0
    for _ in range(4000):
        n = rng.randint(1, 7)
        labels = [e for e in range(1, 2 * n + 1) for _ in (0, 1)]
        rng.shuffle(labels)
        text = " ".join("X({},{},{},{})".format(*labels[i:i + 4])
                        for i in range(0, 4 * n, 4))
        try:
            g = build_dual(parse_pd(text))
        except PlainSphereError:
            continue
        accepted += 1
        assert all(a != b for a, b in g.edge_faces.values()), text
    assert accepted >= 500  # the codes reach many spherical diagrams
