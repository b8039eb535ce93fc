"""Property tests over the bundled small diagrams.

Each property is drawn from the invariants the algorithms rely on:
monotone moves, order-independent saturation, Wirtinger moves being a
special case of loop moves, loop parity across link components,
complete saturation logs verifying as certificates, and the coloring
bound being the same from every saturating seed set.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from plainsphere import build_dual, parse_pd
from plainsphere.certificate import Certificate, deserialize_certificate, \
    serialize_certificate, verify
from plainsphere.engine import (MODES, PLAINSPHERE, WIRTINGER, closure,
                                _unit_invariant_factors, coloring_bound,
                                saturate)

import oracles
from conftest import load_table

SMALL = {}
for _name, _pd, _ in load_table("fixtures_small.csv"):
    _d = parse_pd(_pd)
    _g = build_dual(_d)
    SMALL[_name] = (_d, _g, oracles.enumerate_simple_cycles(_g))


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
        if move.kind != "L":
            continue
        counts: dict[int, int] = {}
        for e in move.cycle_edges + (move.edge,):
            comp = d.components[e]
            counts[comp] = counts.get(comp, 0) + 1
        assert all(v % 2 == 0 for v in counts.values()), (name, seeds, move)


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
    """Every Wirtinger-saturating seed set gives the bound of the whole
    strand set, whose relation matrix is the full crossing x strand one,
    and has at least that many seeds."""
    name, d, g, _, seeds = case
    colored, log = saturate(d, seeds, WIRTINGER)
    if len(colored) < d.n:
        return  # the bound needs a saturating set
    bound = coloring_bound(d, seeds, log)
    assert bound == coloring_bound(d, range(d.n), ()) <= len(seeds), (
        name, seeds)


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
