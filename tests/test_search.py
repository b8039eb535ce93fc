"""The depth-first seed-set search against the plain one, and frozen values.

``oracles.reference_search`` tries every seed set of each size in
``combinations`` order over the strand search order; the engine's search
must return the same size and the same first set.  The frozen benchmark
data in ``perfbench/data`` (read only) pins omega, rho and the exact
certificate text for every row it stores certificates for.
"""

from __future__ import annotations

import json
import random

import pytest

from plainsphere import build_dual, omega, parse_pd, rho
from plainsphere.certificate import Certificate, serialize_certificate
from plainsphere.engine import (PLAINSPHERE, WIRTINGER, GrowingClosure,
                                _search, saturate)
from plainsphere.errors import PlainSphereError

import oracles
from conftest import PERFBENCH, perfbench_module

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


def test_search_matches_reference_order(search_cases):
    for name, d, g in search_cases:
        w, wcert = omega(d)
        assert (w, wcert.seeds) == oracles.reference_search(
            d, WIRTINGER, None, range(1, d.n + 1)), name
        found = _search(d, PLAINSPHERE, g, range(1, w), None)
        want = oracles.reference_search(d, PLAINSPHERE, g, range(1, w))
        assert (found and (found[0], found[1].seeds)) == want, name


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


def test_failure_memo_prunes(monkeypatch):
    """Trefoil sum #5 takes 4927 adds for omega and 4036 for rho when
    every prefix the colored-skip rule lets through is visited; the memo
    of failed closed sets brings that to 3311 and 2089."""
    d = parse_pd(braids.braid_pd(*braids.trefoil_sum_word(5)))
    g = build_dual(d)
    adds = []
    add = GrowingClosure.add
    monkeypatch.setattr(GrowingClosure, "add",
                        lambda state, s: adds.append(s) or add(state, s))
    w, wcert = omega(d)
    omega_adds = len(adds)
    r, _ = rho(d, dual=g, omega_result=(w, wcert))
    assert (w, r) == (6, 6)
    assert omega_adds < 4927 and len(adds) - omega_adds < 4036


@pytest.mark.parametrize("name", ["hopf", "borromean", "chain3"])
def test_omega_starts_at_component_count(all_diagrams, name):
    """Fewer seeds than components never saturate, so starting there
    leaves the certificate as a search from one seed would make it."""
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
    check as ``perfbench/freeze.py --check``."""
    def rows(filename):
        with open(PERFBENCH / "data" / filename, encoding="utf-8") as fh:
            return {o["name"]: o for o in map(json.loads, fh)}

    manifest, certs = rows("manifest.jsonl"), rows("certs.jsonl")
    assert len(certs) == 42 + 5 + 420
    gaps = 0
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
    assert gaps == 4  # k14n1527 and three braids
