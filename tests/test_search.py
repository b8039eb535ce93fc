"""The depth-first seed-set search against the plain one, and frozen values.

``oracles.reference_search`` tries every seed set of each size in
``combinations`` order over the strand search order; the engine's search
must return the same size and the same first set.  The frozen benchmark
data in ``perfbench/data`` (read only) pins omega, rho and the exact
certificate text for every row it stores certificates for.
"""

from __future__ import annotations

from collections import Counter

import pytest

import plainsphere.engine
from plainsphere import build_dual, omega, parse_pd, rho
from plainsphere.certificate import (Certificate, deserialize_certificate,
                                     serialize_certificate)
from plainsphere.diagram import Diagram
from plainsphere.engine import (PLAINSPHERE, WIRTINGER, GrowingClosure,
                                _derivation, coloring_bound, saturate,
                                transposition_coloring)

import oracles
import rho_sweep
from conftest import (BRAID30_WORD, K14_PD, frozen_rows, perfbench_module,
                      small_braid)

braids = perfbench_module("braids")


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
    prefixes.  Each order runs on a freshly parsed diagram, where the
    first call works both invariants out under the patch: omega alone,
    and rho first with omega reading its result.  Each search records
    the sizes it tries, which must start at 1; a search with no size to
    try records nothing."""
    starts = []  # (mode, first size) of each search under the patch
    search = plainsphere.engine._search

    def recorded(d, dual, coloring, sizes, *args):
        if sizes:
            starts.append((WIRTINGER if dual is None else PLAINSPHERE,
                           sizes.start))
        return search(d, dual, coloring, sizes, *args)

    def patched(patch):
        patch.setattr(plainsphere.engine, "coloring_bound", lambda *args: 1)
        patch.setattr(plainsphere.engine, "transposition_coloring",
                      lambda *args: (1, transposition_coloring(*args)[1]))
        patch.setattr(plainsphere.engine, "_search", recorded)

    for name, d, g in search_cases:
        greedy = greedy_certificate(d)
        upper = len(greedy.seeds)
        w, wcert = omega(parse_pd(d.serialize()))
        want = oracles.reference_search(d, WIRTINGER, None, range(1, d.n + 1))
        assert (w, wcert.seeds) == want, name
        fresh = parse_pd(d.serialize())
        starts.clear()
        with monkeypatch.context() as patch:
            patched(patch)
            assert omega(fresh) == (w, wcert), name
        alone = starts[:]
        # plain-sphere mode first: from 1 to one below the irredundant
        # subset's size, then Wirtinger mode from rho's size only when
        # the first set's log has a loop move or no smaller size
        # saturated (and that size is below the greedy set's, whose set
        # is the first of its size)
        m = len(shrunk_greedy(d, greedy))
        fresh = parse_pd(d.serialize())
        starts.clear()
        with monkeypatch.context() as patch:
            patched(patch)
            r, rcert = rho(fresh, dual=build_dual(fresh))
            assert omega(fresh) == (w, wcert), name
        assert starts == alone, name
        # the first plain-sphere-saturating set below omega, or else
        # omega's certificate: the one a search below omega would reissue
        want = oracles.reference_search(d, PLAINSPHERE, g, range(1, w))
        assert (r, rcert.seeds) == (want or (w, wcert.seeds)), name
        first = oracles.reference_search(d, PLAINSPHERE, g, range(1, m))
        checked = (m < upper if first is None else
                   len(oracles.closure(d, first[1], WIRTINGER)) < d.n)
        assert starts == ([(PLAINSPHERE, 1)] * (m > 1)
                          + [(WIRTINGER, r)] * checked), name


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
    every dual cycle stays under a second; omega alone, and after rho
    as census and compute run them, each on a fresh diagram."""
    checked = 0
    for name, d, g in search_cases:
        if d.n > 10:
            continue
        w, _ = omega(parse_pd(d.serialize()))
        assert w == oracles.oracle_omega(d), name
        fresh = parse_pd(d.serialize())
        r, _ = rho(fresh, dual=build_dual(fresh))
        assert omega(fresh)[0] == w, name
        if d.n <= 8:
            assert r == oracles.oracle_rho(d, g), name
            checked += 1
    assert checked >= 40


def test_rho_matches_bridge_brute_force_on_a_slice():
    """Every tenth manifest line by position, a slice fixed by that rule
    alone: its frozen rho and omega, which a census reports with no
    certificate behind them, equal the size of the first set
    ``oracles.bridge_rho`` finds and ``oracles.oracle_omega``, brute
    forces that share no code with the engine, and rho's set seeds every
    link component.  CI sweeps all 468 rows with ``tests/rho_sweep.py``."""
    checked, wrong = rho_sweep.sweep(every=10)
    assert (checked, wrong) == (47, [])


def test_failure_memo_prunes(monkeypatch):
    """The memo of failed closed sets and the skips of candidates that a
    failed sibling's closed set colors and of last seeds that fire no
    Wirtinger move cut the adds.  Each diagram is freshly parsed, and
    omega runs first, working both invariants out, so rho after it adds
    nothing.  The bounds grow and shrink the greedy set by walks
    (``_derivation``), not on a closure, so every add is a search's.
    k14n1527 takes 173 Wirtinger adds in the search from rho = 3, 168
    at size 3 and 5 at size 4 (272 without the last-seed skip, 238
    without the sibling skip), which their transposition bound, 1, does
    not prune.  Before it, 96 adds in plain-sphere mode (123 without the
    sibling skip, which the memo alone does not cut: its one failing size
    is 2, and no two one-seed prefixes close to the same set).
    braid-0053's transposition bound is 4 = omega, so it searches
    nothing: no adds at all.  On sum5_9 both bounds are 2 and
    rho = omega = 3: 46 adds in plain-sphere mode, 62 with the
    coloring's prefix prune neutralised (70 and 103 without the sibling
    skip), and 7 in Wirtinger mode, in the search at size 3 that picks
    the certificates' seeds, as no smaller set saturates."""
    adds = Counter()  # True: Wirtinger; only plain-sphere closures join faces
    add = GrowingClosure.add
    monkeypatch.setattr(GrowingClosure, "add",
                        lambda state, s: adds.update([not state._rim])
                        or add(state, s))
    rows = frozen_rows("manifest.jsonl")

    def searched(pd):
        """(omega, rho) and the Wirtinger and plain-sphere adds."""
        d = parse_pd(pd)
        adds.clear()
        w, _ = omega(d)
        r, _ = rho(d, dual=build_dual(d))
        return (w, r), adds[True], adds[False]

    assert searched(K14_PD) == ((4, 3), 173, 96)
    assert searched(rows["braid-0053"]["pd"]) == ((4, 4), 0, 0)
    sum5_9 = rows["slice14.sum5_9"]["pd"]
    assert searched(sum5_9) == ((3, 3), 7, 46)
    monkeypatch.setattr(plainsphere.engine, "transposition_coloring",
                        lambda d, *args: (1, ((0, 1),) * d.n))
    assert searched(sum5_9)[::2] == ((3, 3), 62)


@pytest.mark.parametrize("order,want", [
    ("freeze", (2909, 68114, 2146, 472)),
    ("census", (2909, 68114, 2146, 472)),
    ("census-values", (991, 68114, 2146, 0)),
], ids=["freeze", "census", "census-values"])
def test_search_work_on_frozen_rows(monkeypatch, order, want):
    """The adds over the 468 frozen rows, in the order ``freeze.py`` runs
    them, omega and then rho, and in the census order, rho and then
    omega, as ``psk compute`` runs them, each with its certificate:
    2909 in Wirtinger mode and 68114 in plain-sphere mode either way, as
    the first call works both invariants out and the first certificate
    picks their seeds (3513 and 82305 before the component prune, which
    ``test_component_prune_adds_no_work`` compares row by row).
    Every add is a search's, as the bounds walk their seeds
    (``_derivation``) and build no closure.  The plain-sphere search
    stops below the irredundant greedy subset's size, and no Wirtinger
    search proves again a size that failed in plain-sphere mode.  A
    change to the closure or the search that keeps the values but costs
    more adds shows here.

    ``psk census`` runs the census order asking for values only
    (``certificate=False``): the same plain-sphere adds, and 991
    Wirtinger adds (992 before the component prune), on the 7 rows
    where rho's set does not Wirtinger-saturate and omega's value needs
    the search; no ``saturate`` runs.  That search runs up to the size m
    of the set the bounds keep, so on braid-0144 and braid-0411, where
    omega is the greedy set's size, it ends by adding the greedy set, 7
    adds in all.
    With certificates ``saturate`` runs 472 times, once per row and once
    more on the 4 rows where omega > rho.

    2146 seed sets are walked: per row the greedy set, which the Fox
    bound reads, and each shrunk set ``_irredundant`` tries, the last
    one it keeps being what the transposition coloring reads (2096 in
    all), and on the 50 rows where the plain-sphere search finds a set,
    that set, to tell whether it Wirtinger-saturates.  Each set is walked
    once, so a bound that walks its seeds again shows here (2858 when
    both bounds derived their own)."""
    adds = Counter()  # True: Wirtinger; only plain-sphere closures join faces
    add = GrowingClosure.add
    monkeypatch.setattr(GrowingClosure, "add",
                        lambda state, s: adds.update([not state._rim])
                        or add(state, s))
    walks, saturated = [], []
    monkeypatch.setattr(plainsphere.engine, "_derivation",
                        lambda d, seeds: walks.append(1)
                        or _derivation(d, seeds))
    monkeypatch.setattr(plainsphere.engine, "saturate",
                        lambda *args: saturated.append(1) or saturate(*args))
    certificate = order != "census-values"
    for item in frozen_rows("manifest.jsonl").values():
        if item["kind"] != "reject":
            d = parse_pd(item["pd"])
            if order == "freeze":
                omega(d)
                rho(d, dual=build_dual(d))
            else:
                rho(d, dual=build_dual(d), certificate=certificate)
                omega(d, certificate=certificate)
    assert (adds[True], adds[False], len(walks), len(saturated)) == want


def test_component_prune_adds_no_work(monkeypatch):
    """The component prune only cuts: on every frozen row, values only,
    omega and then rho make no more adds in either mode than with the
    prune neutralised, where every strand's component mask holds every
    strand, so ``n_components`` counts one component, and the search is
    the one before the prune, with its 992 Wirtinger and 82305
    plain-sphere adds.  The values do not change, and braid-0270's
    plain-sphere adds fall from 1192 to 431."""
    adds = Counter()  # True: Wirtinger; only plain-sphere closures join faces
    add = GrowingClosure.add
    monkeypatch.setattr(GrowingClosure, "add",
                        lambda state, s: adds.update([not state._rim])
                        or add(state, s))

    def work(pd):
        """(omega, rho) and the Wirtinger and plain-sphere adds."""
        d = parse_pd(pd)
        adds.clear()
        values = omega(d, certificate=False)[0], rho(d, certificate=False)[0]
        return values, adds[True], adds[False]

    rows = {name: item["pd"] for name, item in
            frozen_rows("manifest.jsonl").items() if item["kind"] != "reject"}
    pruned = {name: work(pd) for name, pd in rows.items()}
    with monkeypatch.context() as patch:
        patch.setattr(Diagram, "strand_component",
                      property(lambda d: ((1 << d.n) - 1,) * d.n))
        assert parse_pd(rows["braid-0270"]).n_components == 1
        before = {name: work(pd) for name, pd in rows.items()}
    for name, (values, wadds, padds) in pruned.items():
        assert values == before[name][0], name
        assert wadds <= before[name][1] and padds <= before[name][2], name
    assert ([sum(row[i] for row in table.values()) for table in
             (before, pruned) for i in (1, 2)] == [992, 82305, 991, 68114])
    assert (before["braid-0270"][2], pruned["braid-0270"][2]) == (1192, 431)


def test_frozen_rows_in_census_order():
    """rho and then omega from rho's result, the order ``freeze.py
    --check`` does not run, give every manifest row's values and every
    stored certificate byte for byte.  rho's certificate has a loop move
    exactly when omega > rho, on 4 rows."""
    manifest = frozen_rows("manifest.jsonl")
    certs = frozen_rows("certs.jsonl")
    rows = stored = gaps = 0
    for name, item in manifest.items():
        if item["kind"] == "reject":
            continue
        d = parse_pd(item["pd"])
        r, rcert = rho(d, dual=build_dual(d))
        w, wcert = omega(d)
        assert (w, r) == (item["omega"], item["rho"]), name
        looped = any(move.kind == "L" for move in rcert.moves)
        assert looped == (w > r), name
        gaps += looped
        rows += 1
        if name in certs:
            assert serialize_certificate(wcert) == certs[name]["omega"], name
            assert serialize_certificate(rcert) == certs[name]["rho"], name
            stored += 2
    assert (rows, stored, gaps) == (468, 934, 4)


def test_values_only_match_certificates_on_frozen_rows():
    """On every frozen row, rho and omega asked for values only, in
    either call order, give the values of the certificate path, which
    ``test_frozen_rows_in_census_order`` holds to the manifest."""
    rows = 0
    for name, item in frozen_rows("manifest.jsonl").items():
        if item["kind"] == "reject":
            continue
        d = parse_pd(item["pd"])
        (r, rcert), (w, wcert) = rho(d, dual=build_dual(d)), omega(d)
        assert (len(rcert.seeds), len(wcert.seeds)) == (r, w), name
        d = parse_pd(item["pd"])
        assert (rho(d, dual=build_dual(d), certificate=False),
                omega(d, certificate=False)) == ((r, None), (w, None)), name
        d = parse_pd(item["pd"])
        assert (omega(d, certificate=False),
                rho(d, dual=build_dual(d), certificate=False)
                ) == ((w, None), (r, None)), name
        rows += 1
    assert rows == 468


@pytest.mark.parametrize("neutral", [False, True])
def test_search_skips_what_failed_siblings_color(monkeypatch, search_cases,
                                                 neutral):
    """Under each prefix the search adds a candidate only when neither
    the prefix's closed set nor that of a sibling which failed before it
    colors it.  With the transposition coloring neutralised, so that it
    prunes nothing and the search starts at the coloring bound, it also
    skips a candidate only then, when the failure memo cuts the prefix,
    when the candidate lies on a link component the prefix already
    seeds and the prefix has no seed to spare, or, in Wirtinger mode
    only, when the candidate is a last seed that colors only itself and
    leaves some other strand uncolored: each candidate after the
    prefix's last seed that is not added, up to the last one its size
    allows, is colored by one of those closed sets, or leaves more
    components with no seed (``oracles.oracle_link_components``) than
    seeds left after it, or is such a last seed, which ``saturate`` from
    the prefix's seeds and it confirms.

    The trace replays the search's ``add`` and ``undo`` on a stack of
    prefixes [closed set, search-order position of the last seed or
    child, union of the closed set and those of the undone children,
    seeds left to add, seeds]: undone children failed, since a search
    that saturates returns without undoing.  A new size starts over at
    the empty prefix, at a smaller position, or, after a Wirtinger size 1
    that added no seed, with a seed that colors only itself, which size 1
    would have skipped.  The trace keeps its own memo of failed closed
    sets, and a prefix it cuts counts no seeds left.  The bounds grow
    and shrink the greedy set by walks, with no closure, so every add is
    a search's.  Each case runs on a freshly parsed diagram, where rho
    runs both searches."""
    if neutral:
        monkeypatch.setattr(plainsphere.engine, "transposition_coloring",
                            lambda d, *args: (1, ((0, 1),) * d.n))
    add, undo = GrowingClosure.add, GrowingClosure.undo
    search = plainsphere.engine._search
    stack: list[list[int]] = []  # the prefixes, while a search runs
    memo: dict[int, int] = {}
    skipped = 0  # candidates only a failed sibling's closed set colors
    uncovered = 0  # candidates that leave a component no seed can reach
    unfired = 0  # last seeds skipped as coloring only themselves

    def check(prefix, stop):
        """The candidates after the prefix's last one and before `stop`
        are colored by the union of closed sets, leave more components
        with no seed than seeds left after them, or are last seeds that
        color only themselves, in Wirtinger mode, and leave another
        strand uncolored."""
        nonlocal skipped, uncovered, unfired
        mask, last, dead, left, seeds = prefix
        for j in range(last + 1, stop):
            s = order[j]
            if dead >> s & 1:
                skipped += not mask >> s & 1
                continue
            if len(components - {component[t] for t in seeds + (s,)}
                   ) > left - 1:
                uncovered += 1
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

    def traced_search(d, dual, coloring, sizes, *args):
        nonlocal order, diagram, mode, component, components
        order, diagram = d.search_order, d
        mode = WIRTINGER if dual is None else PLAINSPHERE
        component = {d.edge_to_strand[e]: i for i, edges in enumerate(
            oracles.oracle_link_components(d)) for e in edges}
        components = set(component.values())
        memo.clear()
        if sizes:
            stack.append([0, -1, 0, sizes.start, ()])  # the first size
        try:
            result = search(d, dual, coloring, sizes, *args)
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
    component: dict[int, int] = {}  # strand -> its link component
    components: set[int] = set()
    for name, d, _ in search_cases:
        fresh = parse_pd(d.serialize())
        rho(fresh, dual=build_dual(fresh))
    assert (skipped > 0 and uncovered > 0 and unfired > 0) or not neutral


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
                        lambda d, derivation, *rest:
                        colored.append(tuple(derivation.seeds))
                        or color(d, derivation, *rest))
    calls = 0
    for name, d, _ in search_cases:
        colored.clear()
        omega(parse_pd(d.serialize()))  # it works the bounds out
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
    bound is k + 1, so neither omega nor rho adds a seed, as the bounds
    walk the greedy set with no closure.  omega, given no dual, builds
    the one the diagram's answers hold, and rho after it builds none:
    the greedy set is its certificate."""
    adds, built = [], []
    add = GrowingClosure.add
    monkeypatch.setattr(GrowingClosure, "add",
                        lambda state, s: adds.append(s) or add(state, s))
    real = plainsphere.engine.build_dual
    monkeypatch.setattr(plainsphere.engine, "build_dual",
                        lambda d: built.append(d) or real(d))
    for k in range(1, 6):
        d = parse_pd(braids.braid_pd(*braids.trefoil_sum_word(k)))
        adds.clear()
        built.clear()
        w, wcert = omega(d)
        assert (w, len(adds), built) == (k + 1, 0, [d]), k
        adds.clear()
        built.clear()
        assert rho(d) == (k + 1, wcert._replace(mode=PLAINSPHERE))
        assert not adds and not built, k


def test_each_search_builds_its_own_closure(monkeypatch, all_diagrams):
    """The bounds walk the greedy set with no closure, and each search
    builds one closure in its mode only when the bound is below its
    witness's size: on trefoil sum #k no closure is built; on sum5_9
    (bounds 2, omega = rho = 3) the first call, omega or rho, searches
    plain-sphere mode below its irredundant subset's 3 seeds and then
    Wirtinger mode from 3, and the second builds none."""
    built = []
    init = GrowingClosure.__init__
    monkeypatch.setattr(GrowingClosure, "__init__",
                        lambda state, d, dual=None: built.append(
                            WIRTINGER if dual is None else PLAINSPHERE)
                        or init(state, d, dual))

    def closures(pd, *calls):
        d = parse_pd(pd)
        built.clear()
        for call in calls:
            call(d)
        return built

    for k in range(1, 4):
        pd = braids.braid_pd(*braids.trefoil_sum_word(k))
        assert closures(pd, omega, rho) == [], k
        assert closures(pd, rho, omega) == [], k
    pd = all_diagrams["sum5_9"].serialize()
    for calls in ((omega,), (omega, rho), (rho, omega)):
        assert closures(pd, *calls) == [PLAINSPHERE, WIRTINGER]


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
        r, rcert = rho(d, dual=g)
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
        bound = coloring_bound(d, _derivation(d, wcert.seeds))
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
        derivation = _derivation(d, wcert.seeds)
        bound, ends = transposition_coloring(d, derivation)
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
        fox = coloring_bound(d, derivation)
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
        fox = coloring_bound(d, _derivation(d, greedy.seeds))
        bound, _ = transposition_coloring(d, _derivation(d, seeds))
        assert max(fox, bound) <= item["omega"], name
        checked += 1
        exact += len(seeds) == item["omega"]
        reaches += max(fox, bound) == item["omega"]
        fox_reaches += fox == item["omega"]
    assert (checked, exact, reaches, fox_reaches) == (468, 422, 265, 190)


def test_coloring_matches_the_reference(monkeypatch):
    """The coloring makes each seed's moves as its derivation adds them
    and checks each crossing no move used right after the step that
    colors the last of its strands, where the reference replays the move
    log ``saturate`` writes and checks each crossing after the whole
    replay of the seed that completes it.  A check that runs sooner only
    drops the same coloring sooner, so on every frozen row omega colors
    (294 of the 468) and on the 30-crossing braid, the bound and the
    coloring are the reference's: they decide the search's prune."""
    colored = []
    color = transposition_coloring

    def recorded(d, derivation, *rest):
        colored.append((d, derivation.seeds, color(d, derivation, *rest)))
        return colored[-1][-1]

    monkeypatch.setattr(plainsphere.engine, "transposition_coloring",
                        recorded)
    for item in frozen_rows("manifest.jsonl").values():
        if item["kind"] != "reject":
            omega(parse_pd(item["pd"]))
    assert len(colored) == 294
    w, _ = omega(parse_pd(braids.braid_pd(BRAID30_WORD, 8)))
    assert (w, len(colored[-1][1]), colored[-1][-1][0]) == (7, 7, 6)
    for d, seeds, got in colored:
        assert got == oracles.reference_transposition_coloring(
            d, seeds, saturate(d, seeds, WIRTINGER)[1]), d.serialize()
