"""Coloring moves, saturation, and the omega/rho searches."""

from __future__ import annotations

import gc
import itertools
import time
import types
import weakref
from collections import Counter

import pytest

import plainsphere.engine
from plainsphere import build_dual, omega, parse_pd, rho
from plainsphere.certificate import serialize_certificate, verify
from plainsphere.diagram import Diagram
from plainsphere.engine import (PLAINSPHERE, WIRTINGER, GrowingClosure,
                                coloring_bound, saturate)
from plainsphere.errors import ComputeTimeout

from conftest import BRAID30_WORD, K14_PD, frozen_rows, perfbench_module
from oracles import closure

braids = perfbench_module("braids")

# the three strands colored in the reference staged coloring of k14n1527,
# and the ten-strand set its Wirtinger closure sticks at
K14_STAGE_SEEDS = (0, 10, 11)
K14_STAGE_FIXPOINT = frozenset({0, 3, 4, 5, 6, 7, 9, 10, 11, 13})


class TestMoves:
    def test_wirtinger_move_on_trefoil(self, trefoil, trefoil_dual):
        # plain-sphere mode too: a Wirtinger move goes before any loop move
        for mode in (WIRTINGER, PLAINSPHERE):
            _, log = saturate(trefoil, (0, 1), mode, trefoil_dual)
            assert [(m.kind, m.target) for m in log] == [("W", 2)]
            # crossing 1 has under pair (0,1); target 2 is not under there
            assert log[0].crossing in (0, 2)

    def test_no_wirtinger_move_from_single_seed(self, trefoil):
        for s in range(trefoil.n):
            assert saturate(trefoil, (s,), WIRTINGER) == (frozenset({s}), ())

    def test_loop_move_absent_from_single_seed(self, trefoil, trefoil_dual):
        for s in range(trefoil.n):
            assert saturate(trefoil, (s,), PLAINSPHERE, trefoil_dual) == (
                frozenset({s}), ())

    def test_self_adjacent_crossing_never_fires(self, all_diagrams):
        # both Hopf crossings pair a strand with itself; those crossings
        # must never enable a move, hence omega(hopf) = 2
        d = all_diagrams["hopf"]
        assert all(u1 == u2 for u1, u2 in d.under_strands)
        assert d.crossing_masks.under == (0, 0)
        for mode in (WIRTINGER, PLAINSPHERE):
            assert saturate(d, (0,), mode) == (frozenset({0}), ())

    def test_loop_move_at_stage_fixpoint(self, k14, k14_dual):
        """Wirtinger moves are stuck there, so the first move is a loop
        move: a simple face cycle closed by an edge of its target."""
        _, log = saturate(k14, K14_STAGE_FIXPOINT, PLAINSPHERE, k14_dual)
        move = log[0]
        assert move.kind == "L" and move.target not in K14_STAGE_FIXPOINT
        assert k14.edge_to_strand[move.edge] == move.target
        faces = move.cycle_faces
        assert len(faces) == len(set(faces)) >= 2
        assert set(k14_dual.edge_faces[move.edge]) == {faces[0], faces[-1]}
        for f1, f2 in zip(faces, faces[1:]):
            assert any(k14.edge_to_strand[e] in K14_STAGE_FIXPOINT
                       for e in k14_dual.pair_edges.get(frozenset((f1, f2)),
                                                        ()))

    def test_empty_seed_set_rejected(self, trefoil):
        with pytest.raises(ValueError):
            saturate(trefoil, (), WIRTINGER)

    def test_unknown_seed_rejected(self, trefoil):
        with pytest.raises(ValueError):
            saturate(trefoil, (7,), WIRTINGER)

    def test_unknown_mode_rejected(self, trefoil):
        with pytest.raises(ValueError):
            saturate(trefoil, (0,), "chromatic")


class TestSaturation:
    def test_trefoil_two_seeds_complete(self, trefoil):
        colored, log = saturate(trefoil, (0, 1), WIRTINGER)
        assert colored == frozenset({0, 1, 2})
        assert [m.target for m in log] == [2]

    def test_trefoil_single_seed_sticks(self, trefoil, trefoil_dual):
        for mode, dual in ((WIRTINGER, None), (PLAINSPHERE, trefoil_dual)):
            colored, log = saturate(trefoil, (1,), mode, dual)
            assert colored == frozenset({1}) and log == ()

    def test_all_seeds_zero_moves(self, k14, k14_dual):
        colored, log = saturate(k14, range(k14.n), PLAINSPHERE, k14_dual)
        assert len(colored) == k14.n and log == ()

    def test_move_log_replays(self, k14, k14_dual):
        """The staged coloring's own log is a valid certificate body."""
        from plainsphere.certificate import Certificate
        colored, log = saturate(k14, K14_STAGE_SEEDS, PLAINSPHERE, k14_dual)
        assert len(colored) == k14.n
        cert = Certificate(k14.content_hash, PLAINSPHERE,
                           K14_STAGE_SEEDS, log)
        assert verify(k14, cert, k14_dual).ok

    def test_k14_stage_wirtinger_fixpoint(self, k14, k14_dual):
        # given the dual too, Wirtinger mode makes no loop moves
        for dual in (None, k14_dual):
            got = closure(k14, K14_STAGE_SEEDS, WIRTINGER, dual)
            assert frozenset(got) == K14_STAGE_FIXPOINT

    def test_k14_stage_loop_moves_unlock(self, k14, k14_dual):
        """At the stuck set, loop moves complete the coloring."""
        colored, log = saturate(k14, K14_STAGE_FIXPOINT, PLAINSPHERE,
                                k14_dual)
        assert len(colored) == k14.n and log[0].kind == "L"
        got = closure(k14, K14_STAGE_SEEDS, PLAINSPHERE, k14_dual)
        assert len(got) == k14.n

    def test_fast_and_logged_saturation_agree(self, all_diagrams):
        """Every seed set of size <= 3 on every bundled diagram."""
        from itertools import combinations
        from plainsphere import build_dual
        for name, d in all_diagrams.items():
            g = build_dual(d)
            for k in range(1, 4):
                for seeds in combinations(range(d.n), k):
                    for mode, dual in ((WIRTINGER, None), (PLAINSPHERE, g)):
                        fast = closure(d, seeds, mode, dual)
                        slow, _ = saturate(d, seeds, mode, dual)
                        assert frozenset(fast) == slow, (name, mode, seeds)


class TestGrowingClosure:
    @pytest.mark.parametrize("pd", [
        "X(1,2,2,1)",
        braids.braid_pd([1, 1, 1, 2], 3),   # trefoil plus a kink
        braids.braid_pd([1, 1, 1, -2], 3),  # ... kinked the other way
    ])
    def test_kinked_closure_matches_saturate(self, pd):
        d = parse_pd(pd)
        g = build_dual(d)
        for k in range(1, d.n + 1):
            for seeds in itertools.combinations(range(d.n), k):
                for mode in (WIRTINGER, PLAINSPHERE):
                    slow, _ = saturate(d, seeds, mode, g)
                    assert closure(d, seeds, mode, g) == slow, (pd, seeds)

    def test_dual_built_when_missing(self, trefoil, trefoil_dual):
        assert (closure(trefoil, (0,), PLAINSPHERE)
                == closure(trefoil, (0,), PLAINSPHERE, trefoil_dual))

    def test_undo_restores_every_table(self, k14, k14_dual):
        """The masks, the face tables and the union trail, after each undo."""
        shots, _ = undo_check(k14, PLAINSPHERE, k14_dual, (13, 2, 7, 0))
        assert shots[-1][-1]  # the trail

    def test_undo_restores_every_table_wirtinger(self, k14):
        """The same in Wirtinger mode, which joins no faces: the trail and
        the edge mask stay empty.  The staged seeds fire moves up to the
        ten-strand fixpoint, and one more seed is added on top of it."""
        shots, fired = undo_check(k14, WIRTINGER, None, K14_STAGE_SEEDS + (2,))
        assert not any(shot[-1] or shot[3] for shot in shots)  # trail, xe
        assert fired

    def test_closure_matches_saturate_on_largest_braids(self):
        """Every one- and two-seed set of the 10 frozen braid rows with the
        most crossings (26 strands, 52 edge bits), in both modes, on one
        closure per mode that adds the seeds and undoes them."""
        manifest = frozen_rows("manifest.jsonl").values()
        rows = sorted((item for item in manifest if item["kind"] == "random"),
                      key=lambda item: (-item["n"], item["name"]))[:10]
        assert {item["n"] for item in rows} == {26}
        for item in rows:
            d = parse_pd(item["pd"])
            g = build_dual(d)
            for mode in (WIRTINGER, PLAINSPHERE):
                state = GrowingClosure(d, mode, g)
                for s in range(d.n):
                    first = state.add(s)
                    want, _ = saturate(d, (s,), mode, g)
                    assert colored(state) == want, (item["name"], mode, s)
                    for t in range(s + 1, d.n):
                        got = colored(state)
                        if not state.mask >> t & 1:
                            mark = state.add(t)
                            got = colored(state)
                            state.undo(mark)
                        want, _ = saturate(d, (s, t), mode, g)
                        assert got == want, (item["name"], mode, s, t)
                    state.undo(first)
                    assert state.mask == 0


def colored(state: GrowingClosure) -> frozenset[int]:
    return frozenset(s for s in range(len(state.bit)) if state.mask >> s & 1)


def undo_check(d: Diagram, mode: str, dual, seeds):
    """Add `seeds` in order, skipping colored ones, then undo each mark,
    checking every closure and that each snapshot (mask, xo, xu, xe,
    parent, size, rim, trail) comes back.  ``xo``, ``xu`` and ``xe`` must
    also be the OR, XOR and OR over the colored strands of their tables.
    Returns the snapshots, the last one taken with every seed added, and
    whether some add colored more than its seed."""
    state = GrowingClosure(d, mode, dual)

    def snapshot():
        return (state.mask, state.xo, state.xu, state.xe,
                list(state._parent), list(state._size), list(state._rim),
                list(state._trail))

    marks, added, shots = [], [], []
    fired = False
    for s in seeds:
        if state.mask >> s & 1:
            continue
        shots.append(snapshot())
        before = state.mask
        marks.append(state.add(s))
        added.append(s)
        assert colored(state) == saturate(d, added, mode, dual)[0]
        fired |= state.mask != before | state.bit[s]
        xo = xu = xe = 0
        for t in colored(state):
            xo |= state.over[t]
            xu ^= state.under[t]
            xe |= state._edge_bits[t]
        assert (state.xo, state.xu, state.xe) == (xo, xu, xe)
    assert len(marks) >= 2
    taken = shots + [snapshot()]
    while marks:
        state.undo(marks.pop())
        assert snapshot() == shots.pop()
    assert state.mask == 0 and not state._trail
    return taken, fired


class TestSearch:
    def test_search_order_prefers_high_over_degree(self, k14):
        order = k14.search_order
        degrees = [k14.over_strand.count(s) for s in order]
        assert degrees == sorted(degrees, reverse=True)
        assert sorted(order) == list(range(k14.n))

    def test_trefoil_omega_rho(self, trefoil, trefoil_dual):
        w, wcert = omega(trefoil)
        r, rcert = rho(trefoil, dual=trefoil_dual)
        assert (w, r) == (2, 2)
        assert wcert.seeds == (0, 1) and wcert.mode == WIRTINGER
        assert rcert.mode == PLAINSPHERE
        assert verify(trefoil, wcert).ok and verify(trefoil, rcert).ok

    def test_one_crossing_unknot(self):
        from plainsphere import parse_pd
        d = parse_pd("X(1,2,2,1)")
        assert omega(d)[0] == 1 and rho(d)[0] == 1

    def test_k14_values(self, k14, k14_dual):
        w, wcert = omega(k14)
        r, rcert = rho(k14, dual=k14_dual, omega_result=(w, wcert))
        assert (w, r) == (4, 3)
        assert len(wcert.seeds) == 4 and len(rcert.seeds) == 3

    def test_diagram_hashed_once(self, monkeypatch):
        """The witness, the found sets and both certificates' text share
        one content hash: the diagram is serialized once."""
        calls = []
        serialize = Diagram.serialize
        monkeypatch.setattr(Diagram, "serialize",
                            lambda d: calls.append(1) or serialize(d))
        d = parse_pd(K14_PD)  # not the shared fixture: its hash is cached
        w, wcert = omega(d)
        _, rcert = rho(d, omega_result=(w, wcert))
        serialize_certificate(wcert) + serialize_certificate(rcert)
        assert len(calls) == 1

    def test_rho_reuses_omega_witness_when_equal(self, trefoil, trefoil_dual):
        w, wcert = omega(trefoil)
        r, rcert = rho(trefoil, dual=trefoil_dual, omega_result=(w, wcert))
        assert r == w and rcert.seeds == wcert.seeds
        assert rcert.mode == PLAINSPHERE
        assert all(m.kind == "W" for m in rcert.moves)

    def test_deadline_raises(self, k14):
        with pytest.raises(ComputeTimeout):
            omega(k14, deadline=time.monotonic() - 1.0)

    def test_rho_deadline_raises(self, k14, k14_dual):
        with pytest.raises(ComputeTimeout):
            rho(k14, dual=k14_dual, deadline=time.monotonic() - 1.0)

    def test_deadline_expires_mid_search(self, monkeypatch, k14, k14_dual):
        """The coloring bound of k14n1527 is 2, its greedy set 5, omega 4
        and rho 3.  Size 2 takes 28 adds in the omega search, which skips
        the last seeds that fire no Wirtinger move unadded, and 87 in the
        rho search, which adds them: a deadline after all but one of them
        proves only the bound, one after all of them proves size 2
        fails."""
        import plainsphere.engine
        known = omega(k14)
        runs = (("omega", 5, 28, lambda deadline: omega(k14, deadline)),
                ("rho", 4, 87, lambda deadline: rho(
                    k14, dual=k14_dual, deadline=deadline,
                    omega_result=known)))
        for name, upper, adds, run in runs:
            for deadline, k in ((adds - 2, 2), (adds - 1, 3)):
                ticks = itertools.count()  # one tick per clock read
                monkeypatch.setattr(plainsphere.engine, "time",
                                    types.SimpleNamespace(
                                        monotonic=lambda: next(ticks)))
                with pytest.raises(ComputeTimeout) as info:
                    run(deadline)
                # deadline + 1 seeds added, then the expiry
                assert next(ticks) == deadline + 2
                assert str(info.value).endswith(
                    f"proved {name} >= {k}, {name} <= {upper}")

    def test_deadline_names_the_transposition_bound(self, monkeypatch):
        """braid-0305 has coloring bound 2, transposition bound 3 and
        omega = rho = 4, so a rho search cut short has proved rho >= 3."""
        import plainsphere.engine
        from conftest import frozen_rows
        d = parse_pd(frozen_rows("manifest.jsonl")["braid-0305"]["pd"])
        g = build_dual(d)
        known = omega(d)
        assert coloring_bound(d, known[1].seeds, known[1].moves) == 2
        ticks = itertools.count()
        monkeypatch.setattr(plainsphere.engine, "time", types.SimpleNamespace(
            monotonic=lambda: next(ticks)))
        with pytest.raises(ComputeTimeout) as info:
            rho(d, dual=g, deadline=5, omega_result=known)
        assert str(info.value).endswith("proved rho >= 3, rho <= 4")

    def test_omega_deadline_names_the_transposition_bound(self, monkeypatch):
        """braid-0305's greedy set has 4 seeds, coloring bound 2 and
        transposition bound 3, and omega is 4, so an omega search cut
        short has proved omega >= 3."""
        import plainsphere.engine
        from conftest import frozen_rows
        d = parse_pd(frozen_rows("manifest.jsonl")["braid-0305"]["pd"])
        ticks = itertools.count()
        monkeypatch.setattr(plainsphere.engine, "time", types.SimpleNamespace(
            monotonic=lambda: next(ticks)))
        with pytest.raises(ComputeTimeout) as info:
            omega(d, deadline=5)
        assert str(info.value).endswith("proved omega >= 3, omega <= 4")

    def test_deadline_expires_mid_coloring(self, monkeypatch):
        """The 30-crossing braid's greedy set shrinks to 7 seeds with Fox
        bound 6, and coloring them takes thousands of search nodes; the
        coloring reads the clock once per ``_CLOCK_EVERY`` nodes, and it
        is the first to read it.  A deadline it meets at its second read
        stops it there, having proved the Fox bound and the 7 seeds."""
        d = parse_pd(braids.braid_pd(BRAID30_WORD, 8))
        for deadline in (0, 3):
            ticks = itertools.count()  # one tick per clock read
            monkeypatch.setattr(plainsphere.engine, "time",
                                types.SimpleNamespace(
                                    monotonic=lambda: next(ticks)))
            with pytest.raises(ComputeTimeout) as info:
                omega(d, deadline)
            assert next(ticks) == deadline + 2
            assert str(info.value) == (
                "transposition coloring exceeded its deadline; "
                "proved omega >= 6, omega <= 7")
        assert d not in plainsphere.engine._shared

    def test_values_on_known_rows(self, all_rows, all_diagrams):
        """omega == rho on every bundled diagram except the gap witness."""
        from plainsphere import build_dual
        for name, _, _ in all_rows:
            d = all_diagrams[name]
            g = build_dual(d)
            w, _ = omega(d)
            r, _ = rho(d, dual=g)
            if name == "k14n1527":
                assert (w, r) == (4, 3)
            else:
                assert w == r, name


def count_bound_calls(monkeypatch) -> Counter:
    """Count the calls of ``coloring_bound`` and ``transposition_coloring``
    that the engine makes."""
    calls: Counter = Counter()
    for name in ("coloring_bound", "transposition_coloring"):
        real = getattr(plainsphere.engine, name)
        monkeypatch.setattr(plainsphere.engine, name,
                            lambda *args, _real=real, _name=name:
                            calls.update([_name]) or _real(*args))
    return calls


class TestSharedBounds:
    """omega works out each diagram's lower bound and transposition
    coloring once, and rho reads them."""

    @pytest.mark.parametrize("name", ["k14n1527", "braid-0305"])
    def test_bounds_worked_out_once(self, monkeypatch, name):
        """omega followed by rho(omega_result=...), and rho on its own,
        each call both bounds once.  braid-0305's bound is 3 and its rho
        4, so its rho searches size 3 on omega's coloring."""
        pd = (K14_PD if name == "k14n1527"
              else frozen_rows("manifest.jsonl")[name]["pd"])
        once = {"coloring_bound": 1, "transposition_coloring": 1}
        calls = count_bound_calls(monkeypatch)
        d = parse_pd(pd)
        w, wcert = omega(d)
        r, rcert = rho(d, omega_result=(w, wcert))
        assert calls == once
        calls.clear()
        assert rho(parse_pd(pd)) == (r, rcert)
        assert calls == once
        want, lower = ((4, 3), 2) if name == "k14n1527" else ((4, 4), 3)
        assert ((w, r), plainsphere.engine._shared[d].lower) == (want, lower)

    def test_rho_without_shared_bounds_on_frozen_rows(self, monkeypatch):
        """On every frozen row, rho on a freshly parsed diagram, which has
        no shared bounds and works them out itself, gives the value and
        certificate text of rho on the diagram omega ran on.  omega and rho
        together call each bound at most once per row: the Fox bound on
        all 468 rows, the transposition coloring on the 294 whose Fox
        bound is below the irredundant greedy subset's size."""
        calls = count_bound_calls(monkeypatch)
        total: Counter = Counter()
        rows = 0
        for name, item in frozen_rows("manifest.jsonl").items():
            if item["kind"] == "reject":
                continue
            d = parse_pd(item["pd"])
            calls.clear()
            w, wcert = omega(d)
            r, rcert = rho(d, dual=build_dual(d), omega_result=(w, wcert))
            assert (w, r) == (item["omega"], item["rho"]), name
            assert max(calls.values()) == 1, name
            total += calls
            once = calls.copy()
            fresh = parse_pd(item["pd"])
            assert fresh not in plainsphere.engine._shared
            calls.clear()
            got, got_cert = rho(fresh, dual=build_dual(fresh),
                                omega_result=(w, wcert))
            assert calls == once, name  # the same work, done by rho itself
            assert got == r, name
            assert (serialize_certificate(got_cert)
                    == serialize_certificate(rcert)), name
            rows += 1
        assert rows == 468
        assert total == {"coloring_bound": 468, "transposition_coloring": 294}

    def test_shared_bounds_die_with_the_diagram(self):
        """The shared values keep no reference to their diagram, so it is
        collected once omega and rho are done with it."""
        d = parse_pd(K14_PD)
        rho(d, omega_result=omega(d))
        rho(d)
        assert d in plainsphere.engine._shared
        ref = weakref.ref(d)
        kept = len(plainsphere.engine._shared)
        del d
        gc.collect()
        assert ref() is None
        assert len(plainsphere.engine._shared) == kept - 1


class TestColoringBound:
    def test_trefoil_mod_3(self, trefoil):
        """Mod 3 the trefoil has a two-dimensional coloring space."""
        _, log = saturate(trefoil, (0, 1), WIRTINGER)
        assert coloring_bound(trefoil, (0, 1), log) == 2
        assert coloring_bound(trefoil, range(3), ()) == 2

    def test_mod_2_counts_components(self, all_diagrams):
        """Mod 2 a coloring is constant on each component, so the bound
        is at least the component count; on these links it is that."""
        for name in ("unknot1", "hopf", "chain3"):
            d = all_diagrams[name]
            assert coloring_bound(d, range(d.n), ()) == d.n_components

    def test_loop_move_rejected(self, k14, k14_dual):
        _, rcert = rho(k14, dual=k14_dual)
        assert any(m.kind == "L" for m in rcert.moves)
        with pytest.raises(ValueError):
            coloring_bound(k14, rcert.seeds, rcert.moves)

    def test_unsaturated_seeds_rejected(self, trefoil):
        with pytest.raises(ValueError):
            coloring_bound(trefoil, (0,), ())
