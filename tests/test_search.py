"""The depth-first seed-set search against the plain one, and frozen values.

``oracles.reference_search`` tries every seed set of each size in
``combinations`` order over the strand search order; the engine's search
must return the same size and the same first set.  The frozen benchmark
data in ``perfbench/data`` (read only) pins omega, rho and the exact
certificate text for every row it stores certificates for.
"""

from __future__ import annotations

import random

import pytest

import plainsphere.engine
from plainsphere import build_dual, omega, parse_pd, rho
from plainsphere.certificate import (Certificate, deserialize_certificate,
                                     serialize_certificate)
from plainsphere.engine import (PLAINSPHERE, WIRTINGER, GrowingClosure,
                                coloring_bound, saturate, strand_search_order,
                                transposition_coloring)
from plainsphere.errors import PlainSphereError

import oracles
from conftest import frozen_rows, perfbench_module

braids = perfbench_module("braids")

def small_braid(index: int, max_crossings: int = 15):
    """Seeded random braid closure on 2-5 strands, at most `max_crossings`."""
    rng = random.Random(f"small-braid-{index}")
    while True:
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(strands + 1, max_crossings))]
        if len({abs(g) for g in word}) < strands - 1:
            continue  # split closure
        try:
            d = parse_pd(braids.braid_pd(word, strands))
            return d, build_dual(d)
        except PlainSphereError:
            continue


@pytest.fixture(scope="module")
def search_cases(all_diagrams):
    """(name, diagram, dual): bundled rows, trefoil sums #1-#5 and 40
    random braid closures."""
    cases = [(name, d, build_dual(d)) for name, d in all_diagrams.items()]
    for k in range(1, 6):
        d = parse_pd(braids.braid_pd(*braids.trefoil_sum_word(k)))
        cases.append((f"trefoil-sum-{k}", d, build_dual(d)))
    for i in range(40):
        cases.append((f"small-braid-{i}",) + small_braid(i))
    return cases


def test_search_matches_reference_order(monkeypatch, search_cases):
    """rho searches from size 1 here, not from the coloring and
    transposition bounds, so every size below omega is compared with the
    reference; the transposition coloring still prunes prefixes."""
    for name, d, g in search_cases:
        w, wcert = omega(d)
        assert (w, wcert.seeds) == oracles.reference_search(
            d, WIRTINGER, None, range(1, d.n + 1)), name
        with monkeypatch.context() as patch:
            patch.setattr(plainsphere.engine, "coloring_bound",
                          lambda *args: 1)
            patch.setattr(plainsphere.engine, "transposition_coloring",
                          lambda *args: (1, transposition_coloring(*args)[1]))
            r, rcert = rho(d, dual=g, omega_result=(w, wcert))
        want = oracles.reference_search(d, PLAINSPHERE, g, range(1, w))
        assert (r, rcert.seeds) == (want or (w, wcert.seeds)), name
        # a greedy witness has more seeds, so the search reaches sizes
        # where sets saturate, and the prune must keep the first of them
        greedy = greedy_certificate(d)
        with monkeypatch.context() as patch:
            patch.setattr(plainsphere.engine, "coloring_bound",
                          lambda *args: 1)
            patch.setattr(plainsphere.engine, "transposition_coloring",
                          lambda *args: (1, transposition_coloring(*args)[1]))
            r, rcert = rho(d, dual=g, omega_result=(None, greedy))
        upper = len(greedy.seeds)
        want = oracles.reference_search(d, PLAINSPHERE, g, range(1, upper))
        assert (r, rcert.seeds) == (want or (upper, greedy.seeds)), name


def greedy_certificate(d):
    """A Wirtinger certificate of the greedy saturating set: strands in
    search order, skipping colored ones."""
    seeds, colored = [], set()
    for s in strand_search_order(d):
        if s not in colored:
            seeds.append(s)
            colored = oracles.closure(d, seeds, WIRTINGER)
    _, log = saturate(d, seeds, WIRTINGER)
    return Certificate(d.content_hash, WIRTINGER, tuple(sorted(seeds)), log)


def test_values_match_brute_force_oracle(search_cases):
    """omega through 10 crossings; rho through 8, where enumerating
    every dual cycle stays under a second."""
    checked = 0
    for name, d, g in search_cases:
        if d.n > 10:
            continue
        w, wcert = omega(d)
        assert w == oracles.oracle_omega(d), name
        if d.n <= 8:
            r, _ = rho(d, dual=g, omega_result=(w, wcert))
            assert r == oracles.oracle_rho(d, g), name
            checked += 1
    assert checked >= 40


def test_failure_memo_prunes(monkeypatch, k14, k14_dual, all_diagrams):
    """With every prefix the colored-skip rule lets through visited,
    k14n1527 takes 548 adds for omega (the greedy set's included) and
    123 for rho, and braid-0053 621 and 610.  The memo of failed closed
    sets cuts all but k14n1527's rho: its one failing size is 2, and no
    two one-seed prefixes close to the same set.  braid-0053's
    transposition bound is 4 = omega, so its rho search adds nothing.
    On sum5_9 both bounds are 2 and rho = omega = 3: the transposition
    coloring's prefix prune cuts its rho adds from 103 to 70."""
    adds = []
    add = GrowingClosure.add
    monkeypatch.setattr(GrowingClosure, "add",
                        lambda state, s: adds.append(s) or add(state, s))

    def searched(d, g):
        """(omega, rho), omega's adds and rho's adds."""
        adds.clear()
        w, wcert = omega(d)
        omega_adds = len(adds)
        r, _ = rho(d, dual=g, omega_result=(w, wcert))
        return (w, r), omega_adds, len(adds) - omega_adds

    values, omega_adds, rho_adds = searched(k14, k14_dual)
    assert values == (4, 3)
    assert omega_adds < 548 and rho_adds == 123
    braid = parse_pd(frozen_rows("manifest.jsonl")["braid-0053"]["pd"])
    values, omega_adds, rho_adds = searched(braid, build_dual(braid))
    assert values == (4, 4)
    assert omega_adds < 621 and rho_adds == 0
    d = all_diagrams["sum5_9"]
    assert searched(d, build_dual(d))[::2] == ((3, 3), 70)
    monkeypatch.setattr(plainsphere.engine, "transposition_coloring",
                        lambda d, *args: (1, ((0, 1),) * d.n))
    assert searched(d, build_dual(d))[::2] == ((3, 3), 103)


def test_omega_search_colors_no_transpositions(monkeypatch, k14, all_diagrams):
    """The transposition coloring serves the rho search only."""
    monkeypatch.setattr(plainsphere.engine, "transposition_coloring", None)
    assert omega(k14)[0] == 4
    assert omega(all_diagrams["sum5_9"])[0] == 3


def test_witness_bound_reached_searches_nothing(monkeypatch):
    """On trefoil sum #k the greedy set has k + 1 seeds and its coloring
    bound is k + 1, so omega adds only the greedy set's seeds, and rho
    adds none and builds no dual."""
    adds = []
    add = GrowingClosure.add
    monkeypatch.setattr(GrowingClosure, "add",
                        lambda state, s: adds.append(s) or add(state, s))
    monkeypatch.setattr(plainsphere.engine, "build_dual", None)
    for k in range(1, 6):
        d = parse_pd(braids.braid_pd(*braids.trefoil_sum_word(k)))
        adds.clear()
        w, wcert = omega(d)
        assert (w, len(adds)) == (k + 1, k + 1), k
        adds.clear()
        assert rho(d, omega_result=(w, wcert))[0] == k + 1
        assert not adds, k


@pytest.mark.parametrize("name", ["hopf", "borromean", "chain3"])
def test_omega_starts_at_component_count(all_diagrams, name):
    """omega starts at the coloring bound, never below the component
    count: fewer seeds never saturate, so the certificate is the one a
    search from one seed makes."""
    d = all_diagrams[name]
    assert d.n_components > 1
    k, seeds = oracles.reference_search(d, WIRTINGER, None,
                                        range(1, d.n + 1))
    _, log = saturate(d, seeds, WIRTINGER)
    want = Certificate(d.content_hash, WIRTINGER, seeds, log)
    w, wcert = omega(d)
    assert w == k >= d.n_components
    assert serialize_certificate(wcert) == serialize_certificate(want)


def test_frozen_certificates_reproduced():
    """Every row with stored certificates: bundled rows, trefoil sums
    #1-#5 and the 420 random braid closures, the same byte-for-byte
    check as ``perfbench/freeze.py --check``.  Each loop move of a rho
    certificate crosses every link component an even number of times."""
    manifest = frozen_rows("manifest.jsonl")
    certs = frozen_rows("certs.jsonl")
    assert len(certs) == 42 + 5 + 420
    gaps = loops = 0
    for name in certs:
        item = manifest[name]
        d = parse_pd(item["pd"])
        g = build_dual(d)
        w, wcert = omega(d)
        r, rcert = rho(d, dual=g, omega_result=(w, wcert))
        assert (w, r) == (item["omega"], item["rho"]), name
        assert serialize_certificate(wcert) == certs[name]["omega"], name
        assert serialize_certificate(rcert) == certs[name]["rho"], name
        gaps += w > r
        for move in rcert.moves:
            if move.kind == "L":
                assert not oracles.odd_components(d, g, move), name
                loops += 1
    assert gaps == loops == 4  # k14n1527 and three braids, one loop each


def test_coloring_bound_on_frozen_rows():
    """On every manifest row with a value, the bound from its omega
    certificate equals the dense-matrix oracle's and lies between the
    component count and rho.  It reaches rho on exactly 192 of the 468
    rows, so a weakened bound shows; trefoil sum #k has k + 1, mod 3."""
    manifest = frozen_rows("manifest.jsonl")
    certs = frozen_rows("certs.jsonl")
    checked = reaches_rho = 0
    for name, item in manifest.items():
        if item["kind"] == "reject":
            continue
        d = parse_pd(item["pd"])
        wcert = (deserialize_certificate(certs[name]["omega"])
                 if name in certs else omega(d)[1])  # trefoil sum #6
        bound = coloring_bound(d, wcert.seeds, wcert.moves)
        assert bound == oracles.oracle_coloring_bound(d), name
        assert d.n_components <= bound <= item["rho"], name
        if item["kind"] == "trefoil_sum":
            assert bound == int(name.rsplit("-", 1)[1]) + 1, name
        checked += 1
        reaches_rho += bound == item["rho"]
    assert (checked, reaches_rho) == (468, 192)


def test_transposition_bound_on_frozen_rows():
    """On every manifest row with a value, the bound from its omega
    certificate is at most rho, and its coloring is one: o a o = b at
    every crossing, with m - orbits the bound.  On the bundled rows and
    every row with omega <= 3 it equals the brute-force oracle's.  With
    the Fox bound it reaches rho on 263 of the 468 rows, 192 without."""
    manifest = frozen_rows("manifest.jsonl")
    certs = frozen_rows("certs.jsonl")
    checked = oracle_checked = reaches_rho = 0
    for name, item in manifest.items():
        if item["kind"] == "reject":
            continue
        d = parse_pd(item["pd"])
        wcert = (deserialize_certificate(certs[name]["omega"])
                 if name in certs else omega(d)[1])  # trefoil sum #6
        bound, ends = transposition_coloring(d, wcert.seeds, wcert.moves)
        assert 1 <= bound <= item["rho"], name
        for u1, u2, over in oracles.crossing_tables(d):
            assert oracles.conjugate(ends[over], ends[u1]) == ends[u2], name
        orbits = {p: {p} for pair in ends for p in pair}
        for a, b in ends:
            if orbits[a] is not orbits[b]:
                orbits[a] |= orbits[b]
                for p in orbits[b]:
                    orbits[p] = orbits[a]
        assert len(orbits) - len({id(o) for o in orbits.values()}) == bound
        if item["kind"] == "bundled" or item["omega"] <= 3:
            assert bound == oracles.oracle_transposition_bound(
                d, wcert.seeds), name
            oracle_checked += 1
        checked += 1
        fox = coloring_bound(d, wcert.seeds, wcert.moves)
        reaches_rho += max(fox, bound) == item["rho"]
    assert (checked, oracle_checked, reaches_rho) == (468, 329, 263)
