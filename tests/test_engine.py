"""Coloring moves, saturation, and the omega/rho searches."""

from __future__ import annotations

import itertools
import time
import types

import pytest

from plainsphere import build_dual, omega, parse_pd, rho
from plainsphere.certificate import serialize_certificate, verify
from plainsphere.diagram import Diagram
from plainsphere.engine import (PLAINSPHERE, WIRTINGER, GrowingClosure,
                                coloring_bound, saturate, strand_search_order)
from plainsphere.errors import ComputeTimeout

from conftest import K14_PD, perfbench_module
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
        assert d.strand_crossings[1]
        assert all(d.under_strands[c] in ((0, 0), (1, 1))
                   for c in d.strand_crossings[1])
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
        """The mask, the face tables and the union trail, after each undo."""
        state = GrowingClosure(k14, PLAINSPHERE, k14_dual)

        def snapshot():
            return (state.mask, list(state._parent), list(state._size),
                    list(state._next), list(state._trail))

        marks, seeds, shots = [], [], []
        for s in (13, 2, 7, 0):
            if state.mask >> s & 1:
                continue
            shots.append(snapshot())
            marks.append(state.add(s))
            seeds.append(s)
            want = closure(k14, seeds, PLAINSPHERE, k14_dual)
            assert {t for t in range(k14.n) if state.mask >> t & 1} == want
        assert len(marks) >= 2 and state._trail
        while marks:
            state.undo(marks.pop())
            assert snapshot() == shots.pop()
        assert state.mask == 0 and not state._trail


class TestSearch:
    def test_search_order_prefers_high_over_degree(self, k14):
        order = strand_search_order(k14)
        degrees = [k14.over_degree(s) for s in order]
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
        and rho 3, and size 2 takes 87 adds in either search: a deadline
        after 86 adds proves only the bound, one after all 87 proves
        size 2 fails."""
        import plainsphere.engine
        known = omega(k14)
        for deadline, k in ((85, 2), (86, 3)):
            runs = (("omega", 5, lambda: omega(k14, deadline=deadline)),
                    ("rho", 4, lambda: rho(k14, dual=k14_dual,
                                           deadline=deadline,
                                           omega_result=known)))
            for name, upper, run in runs:
                ticks = itertools.count()  # one tick per clock read
                monkeypatch.setattr(plainsphere.engine, "time",
                                    types.SimpleNamespace(
                                        monotonic=lambda: next(ticks)))
                with pytest.raises(ComputeTimeout) as info:
                    run()
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
