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
                                coloring_bound, saturate,
                                transposition_coloring)
from plainsphere.errors import PlainSphereError

import oracles
from conftest import BRAID30_WORD, frozen_rows, perfbench_module

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
    """Both searches run from size 1 here, not from the coloring and
    transposition bounds, so every size below the answer is compared
    with the reference; the transposition coloring still prunes
    prefixes.  omega works the bounds out afresh, so the patched omega
    refills the shared values rho reads; the greedy-witness rho runs on a
    freshly parsed diagram, where rho works them out itself.  Each search
    records the size it starts at, which must be 1."""
    starts = []  # (mode, first size) of each search under the patch
    search = plainsphere.engine._search

    def recorded(d, mode, state, lower, *args):
        starts.append((mode, lower))
        return search(d, mode, state, lower, *args)

    def patched(patch):
        patch.setattr(plainsphere.engine, "coloring_bound", lambda *args: 1)
        patch.setattr(plainsphere.engine, "transposition_coloring",
                      lambda *args: (1, transposition_coloring(*args)[1]))
        patch.setattr(plainsphere.engine, "_search", recorded)

    for name, d, g in search_cases:
        w, wcert = omega(d)
        want = oracles.reference_search(d, WIRTINGER, None, range(1, d.n + 1))
        assert (w, wcert.seeds) == want, name
        greedy = greedy_certificate(d)
        starts.clear()
        with monkeypatch.context() as patch:
            patched(patch)
            assert omega(d) == (w, wcert), name
            r, rcert = rho(d, dual=g, omega_result=(w, wcert))
        assert starts == ([(WIRTINGER, 1)] * (len(greedy.seeds) > 1)
                          + [(PLAINSPHERE, 1)] * (w > 1)), name
        want = oracles.reference_search(d, PLAINSPHERE, g, range(1, w))
        assert (r, rcert.seeds) == (want or (w, wcert.seeds)), name
        # a greedy witness has more seeds, so the search reaches sizes
        # where sets saturate, and the prune must keep the first of them
        upper = len(greedy.seeds)
        fresh = parse_pd(d.serialize())
        starts.clear()
        with monkeypatch.context() as patch:
            patched(patch)
            r, rcert = rho(fresh, dual=build_dual(fresh),
                           omega_result=(None, greedy))
        assert starts == [(PLAINSPHERE, 1)] * (upper > 1), name
        want = oracles.reference_search(d, PLAINSPHERE, g, range(1, upper))
        assert (r, rcert.seeds) == (want or (upper, greedy.seeds)), name


def greedy_certificate(d):
    """A Wirtinger certificate of the greedy saturating set: strands in
    search order, skipping colored ones."""
    seeds, colored = [], set()
    for s in d.search_order:
        if s not in colored:
            seeds.append(s)
            colored = oracles.closure(d, seeds, WIRTINGER)
    _, log = saturate(d, seeds, WIRTINGER)
    return Certificate(d.content_hash, WIRTINGER, tuple(sorted(seeds)), log)


def shrunk_greedy(d, greedy):
    """The seeds of `greedy` in the order they were grown, less each seed,
    walked back from the last one grown, whose removal leaves a
    saturating set."""
    seeds = sorted(greedy.seeds, key=d.search_order.index)
    for s in seeds[::-1]:
        rest = [t for t in seeds if t != s]
        if len(oracles.closure(d, rest, WIRTINGER)) == d.n:
            seeds = rest
    return seeds


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
    """The memo of failed closed sets and the skips of candidates that a
    failed sibling's closed set colors and of last seeds that fire no
    Wirtinger move cut the adds.  k14n1527's omega takes 223 adds: 5 for
    the greedy set, 17 to shrink it to 4 seeds, and 201 in the search
    (359 without the last-seed skip, 511 without either skip), which
    their transposition bound, 1, does not prune.  Its rho takes 96 (123
    without the sibling skip, which the memo alone does not cut: its one
    failing size is 2, and no two one-seed prefixes close to the same
    set).  braid-0053's transposition bound is 4 = omega, so its omega
    search starts at the size that saturates, 16 adds in all, and its
    rho search adds nothing.
    On sum5_9 both bounds are 2 and rho = omega = 3: its omega takes 45
    adds, and its rho 46, 62 with the coloring's prefix prune
    neutralised (70 and 103 without the sibling skip)."""
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
    assert omega_adds == 223 and rho_adds == 96
    braid = parse_pd(frozen_rows("manifest.jsonl")["braid-0053"]["pd"])
    values, omega_adds, rho_adds = searched(braid, build_dual(braid))
    assert values == (4, 4)
    assert omega_adds == 16 and rho_adds == 0
    d = all_diagrams["sum5_9"]
    assert searched(d, build_dual(d)) == ((3, 3), 45, 46)
    monkeypatch.setattr(plainsphere.engine, "transposition_coloring",
                        lambda d, *args: (1, ((0, 1),) * d.n))
    assert searched(d, build_dual(d))[::2] == ((3, 3), 62)


@pytest.mark.parametrize("neutral", [False, True])
def test_search_skips_what_failed_siblings_color(monkeypatch, search_cases,
                                                 neutral):
    """Under each prefix the search adds a candidate only when neither
    the prefix's closed set nor that of a sibling which failed before it
    colors it.  With the transposition coloring neutralised, so that it
    prunes nothing and the search starts at the coloring bound, it also
    skips a candidate only then, when the failure memo cuts the prefix,
    or, in Wirtinger mode only, when the candidate is a last seed that
    colors only itself and leaves some other strand uncolored: each
    candidate after the prefix's last seed that is not added, up to the
    last one its size allows, is colored by one of those closed sets or
    is such a last seed, which ``saturate`` from the prefix's seeds and
    it confirms.

    The trace replays the search's ``add`` and ``undo`` on a stack of
    prefixes [closed set, search-order position of the last seed or
    child, union of the closed set and those of the undone children,
    seeds left to add, seeds]: undone children failed, since a search
    that saturates returns without undoing.  A new size starts over at
    the empty prefix, at a smaller position, or, after a Wirtinger size 1
    that added no seed, with a seed that colors only itself, which size 1
    would have skipped.  The trace keeps its own memo of failed closed
    sets, and a prefix it cuts counts no seeds left.  The adds that grow
    the greedy set and shrink it (``_irredundant``), made before the
    search starts, are not traced."""
    if neutral:
        monkeypatch.setattr(plainsphere.engine, "transposition_coloring",
                            lambda d, *args: (1, ((0, 1),) * d.n))
    add, undo = GrowingClosure.add, GrowingClosure.undo
    search = plainsphere.engine._search
    stack: list[list[int]] = []  # the prefixes, while a search runs
    memo: dict[int, int] = {}
    skipped = 0  # candidates only a failed sibling's closed set colors
    unfired = 0  # last seeds skipped as coloring only themselves

    def check(prefix, stop):
        """The candidates after the prefix's last one and before `stop`
        are colored by the union of closed sets, or are last seeds that
        color only themselves, in Wirtinger mode, and leave another
        strand uncolored."""
        nonlocal skipped, unfired
        mask, last, dead, left, seeds = prefix
        for j in range(last + 1, stop):
            s = order[j]
            if dead >> s & 1:
                skipped += not mask >> s & 1
                continue
            assert (mode, left) == (WIRTINGER, 1), (name, s)
            fresh, _ = saturate(diagram, seeds + (s,), mode)
            assert fresh == {t for t in order if mask >> t & 1} | {s}, (
                name, s)
            assert len(fresh) < len(order), (name, s)
            unfired += 1

    def finish(prefix):
        """A prefix whose candidates were all tried, and failed."""
        mask, _, _, left, _ = prefix
        if neutral and left:
            check(prefix, len(order) - left + 1)
            memo[mask] = left

    def traced_add(state, s):
        before = state.mask
        mark = add(state, s)
        if not stack:
            return mark
        top = stack[-1]
        assert top[0] == before, name
        i = order.index(s)
        unfired_root = (mode == WIRTINGER and top[3] == 1
                        and state.mask == 1 << s != (1 << len(order)) - 1)
        if len(stack) == 1 and (i <= top[1] or unfired_root):
            finish(top)
            stack[0] = top = [0, -1, 0, top[3] + 1, ()]
        assert not top[2] >> s & 1, (name, s)
        if neutral:
            check(top, i)
        top[1] = i
        left = top[3] - 1
        if memo.get(state.mask, -1) >= left:
            left = 0
        stack.append([state.mask, i, state.mask, left, top[4] + (s,)])
        return mark

    def traced_undo(state, mark):
        undo(state, mark)
        if not stack:
            return
        child = stack.pop()
        finish(child)
        assert child[0] != (1 << len(order)) - 1, name
        assert stack[-1][0] == state.mask, name
        stack[-1][2] |= child[0]

    def traced_search(d, search_mode, state, lower, *args):
        nonlocal order, diagram, mode
        order, diagram, mode = d.search_order, d, search_mode
        memo.clear()
        stack.append([0, -1, 0, lower, ()])  # the size searched first
        try:
            result = search(d, mode, state, lower, *args)
            if len(stack) == 1 and stack[0][1] >= 0:  # no size saturated
                finish(stack[0])
            return result
        finally:
            stack.clear()

    monkeypatch.setattr(GrowingClosure, "add", traced_add)
    monkeypatch.setattr(GrowingClosure, "undo", traced_undo)
    monkeypatch.setattr(plainsphere.engine, "_search", traced_search)
    order: list[int] = []
    diagram, mode = None, None
    for name, d, g in search_cases:
        rho(d, dual=g, omega_result=omega(d))
    assert (skipped > 0 and unfired > 0) or not neutral


def test_omega_colors_an_irredundant_greedy_subset(monkeypatch,
                                                   search_cases):
    """The seeds omega colors are greedy seeds that saturate, and none of
    them can be dropped: the greedy set shrunk in reverse
    (``shrunk_greedy``).  On k14n1527 they are 4 of the greedy set's 5.
    18 of the cases color: on the rest the coloring bound equals the
    subset's size, which is then omega."""
    colored = []
    color = transposition_coloring
    monkeypatch.setattr(plainsphere.engine, "transposition_coloring",
                        lambda d, seeds, *rest: colored.append(tuple(seeds))
                        or color(d, seeds, *rest))
    calls = 0
    for name, d, _ in search_cases:
        colored.clear()
        omega(d)
        if not colored:
            continue  # the coloring bound equals the subset's size
        (seeds,) = colored
        greedy = greedy_certificate(d)
        assert list(seeds) == shrunk_greedy(d, greedy), name
        assert set(seeds) <= set(greedy.seeds), name
        assert len(oracles.closure(d, seeds, WIRTINGER)) == d.n, name
        for s in seeds:
            rest = [t for t in seeds if t != s]
            assert len(oracles.closure(d, rest, WIRTINGER)) < d.n, (name, s)
        if name == "k14n1527":
            assert (len(seeds), len(greedy.seeds)) == (4, 5)
        calls += 1
    assert calls == 18


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


def test_omega_transposition_bound_on_frozen_rows():
    """omega's bound, the larger of the coloring bound and the
    transposition bound of the greedy set shrunk to an irredundant
    subset (``shrunk_greedy``), is at most omega on all 468 manifest rows.
    The subset has omega seeds on 422 rows, and the bound reaches omega
    on 265, 190 with the coloring bound alone."""
    manifest = frozen_rows("manifest.jsonl")
    checked = exact = reaches = fox_reaches = 0
    for name, item in manifest.items():
        if item["kind"] == "reject":
            continue
        d = parse_pd(item["pd"])
        greedy = greedy_certificate(d)
        seeds = shrunk_greedy(d, greedy)
        fox = coloring_bound(d, greedy.seeds, greedy.moves)
        bound, _ = transposition_coloring(
            d, seeds, saturate(d, seeds, WIRTINGER)[1])
        assert max(fox, bound) <= item["omega"], name
        checked += 1
        exact += len(seeds) == item["omega"]
        reaches += max(fox, bound) == item["omega"]
        fox_reaches += fox == item["omega"]
    assert (checked, exact, reaches, fox_reaches) == (468, 422, 265, 190)


def test_coloring_matches_the_reference(monkeypatch):
    """The coloring checks each crossing no move used right after the
    step that colors the last of its strands, where the reference checks
    it after the seed's whole replay.  A check that fails sooner only
    drops the same coloring sooner, so on every frozen row omega colors
    (294 of the 468) and on the 30-crossing braid, the bound and the
    coloring are the reference's: they decide the search's prune."""
    colored = []
    color = transposition_coloring

    def recorded(d, seeds, moves, *rest):
        colored.append((d, seeds, moves, color(d, seeds, moves, *rest)))
        return colored[-1][-1]

    monkeypatch.setattr(plainsphere.engine, "transposition_coloring",
                        recorded)
    for item in frozen_rows("manifest.jsonl").values():
        if item["kind"] != "reject":
            omega(parse_pd(item["pd"]))
    assert len(colored) == 294
    w, _ = omega(parse_pd(braids.braid_pd(BRAID30_WORD, 8)))
    assert (w, len(colored[-1][1]), colored[-1][-1][0]) == (7, 7, 6)
    for d, seeds, moves, got in colored:
        assert got == oracles.reference_transposition_coloring(
            d, seeds, moves), d.serialize()
