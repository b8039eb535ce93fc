"""Certificate serialization and the independent verifier."""

from __future__ import annotations

import pytest

from plainsphere import build_dual, omega, parse_pd, rho
from plainsphere.certificate import (CYCLE_EDGE_UNCOLORED, CYCLE_NOT_SIMPLE,
                                     CYCLE_TARGET_COUNT_NEQ1, HASH_MISMATCH,
                                     INCOMPLETE_COLORING,
                                     TARGET_ALREADY_COLORED, UNKNOWN_STRAND,
                                     WIRTINGER_CONDITION_FAILED, Certificate,
                                     deserialize_certificate,
                                     serialize_certificate, verify)
from plainsphere.engine import PLAINSPHERE, WIRTINGER, Move
from plainsphere.errors import SchemaError, VersionMismatch

from conftest import frozen_rows
from oracles import oracle_link_components

TREFOIL_HASH = "baf2ba005daf456baa1905b37b6014a9cd355d769021818c68ba89b89e3d8898"

TREFOIL_OMEGA_CERT = """\
psk-cert/1
hash: baf2ba005daf456baa1905b37b6014a9cd355d769021818c68ba89b89e3d8898
mode: wirtinger
seeds: 0,1
W 2 0
"""

# a non-minimal but valid plain-sphere certificate using a loop move
TREFOIL_LOOP_CERT = """\
psk-cert/1
hash: baf2ba005daf456baa1905b37b6014a9cd355d769021818c68ba89b89e3d8898
mode: plainsphere
seeds: 0,1
L 2 6 1,2,3,4
"""


def loop_cert(moves, seeds=(0, 1)) -> Certificate:
    return Certificate(TREFOIL_HASH, PLAINSPHERE, seeds, tuple(moves))


class TestSerialization:
    def test_golden_omega_text(self, trefoil):
        _, cert = omega(trefoil)
        assert serialize_certificate(cert) == TREFOIL_OMEGA_CERT

    def test_round_trip_identity(self, trefoil, trefoil_dual):
        for _, cert in (omega(trefoil), rho(trefoil, dual=trefoil_dual)):
            assert deserialize_certificate(serialize_certificate(cert)) == cert

    def test_loop_round_trip(self, k14, k14_dual):
        _, cert = rho(k14, dual=k14_dual)
        assert any(m.kind == "L" for m in cert.moves)
        again = deserialize_certificate(serialize_certificate(cert))
        assert again == cert

    def test_trailing_blank_lines_tolerated(self):
        cert = deserialize_certificate(TREFOIL_OMEGA_CERT + "\n\n")
        assert cert.seeds == (0, 1)
        no_final_newline = TREFOIL_OMEGA_CERT.rstrip("\n")
        assert deserialize_certificate(no_final_newline) == cert

    def test_over_long_number(self):
        """int() refuses more than 4300 digits by default."""
        for old, new in (("seeds: 0,1", "seeds: 0," + "1" * 5000),
                         ("W 2 0", "W 2 " + "1" * 5000)):
            with pytest.raises(SchemaError):
                deserialize_certificate(TREFOIL_OMEGA_CERT.replace(old, new))

    def test_tau_counts_loop_cycle_lengths(self):
        cert = deserialize_certificate(TREFOIL_LOOP_CERT)
        assert cert.tau == 4
        assert deserialize_certificate(TREFOIL_OMEGA_CERT).tau == 0

    def test_wrong_version_header(self):
        with pytest.raises(VersionMismatch):
            deserialize_certificate(TREFOIL_OMEGA_CERT.replace(
                "psk-cert/1", "psk-cert/2"))

    def test_truncated_file(self):
        with pytest.raises(SchemaError):
            deserialize_certificate("psk-cert/1\nhash: abc\n")

    def test_bad_hash_line(self):
        with pytest.raises(SchemaError):
            deserialize_certificate(TREFOIL_OMEGA_CERT.replace(
                TREFOIL_HASH, "not-a-hash"))

    def test_bad_mode_line(self):
        with pytest.raises(SchemaError):
            deserialize_certificate(TREFOIL_OMEGA_CERT.replace(
                "mode: wirtinger", "mode: chromatic"))

    def test_bad_seeds_line(self):
        with pytest.raises(SchemaError):
            deserialize_certificate(TREFOIL_OMEGA_CERT.replace(
                "seeds: 0,1", "seeds: zero"))

    def test_blank_line_inside_moves(self):
        text = TREFOIL_LOOP_CERT.replace("seeds: 0,1\n", "seeds: 0,1\n\n")
        with pytest.raises(SchemaError):
            deserialize_certificate(text)

    def test_bad_move_line(self):
        with pytest.raises(SchemaError):
            deserialize_certificate(TREFOIL_OMEGA_CERT.replace(
                "W 2 0", "W 2"))

    @pytest.mark.parametrize("old, new", [
        ("seeds: 0,1", "seeds: \u0660,\u0661"),  # Arabic-Indic digits
        ("W 2 0", "W +2 0"),
        ("W 2 0", "W 2 \u0660"),
        ("L 2 6 1,2,3,4", "L +2 6 1,2,3,4"),
        ("L 2 6 1,2,3,4", "L 2 \u0666 1,2,3,4"),
        ("L 2 6 1,2,3,4", "L 2 6 1,2,3,\u0664"),
    ])
    def test_only_ascii_digits(self, old, new):
        """int() takes signs and every Unicode decimal digit; such text
        would not serialize back to itself."""
        text = TREFOIL_OMEGA_CERT + "L 2 6 1,2,3,4\n"
        text = text.replace("mode: wirtinger", "mode: plainsphere")
        deserialize_certificate(text)
        with pytest.raises(SchemaError):
            deserialize_certificate(text.replace(old, new))

    @pytest.mark.parametrize("old, new", [
        ("seeds: 0,1", "seeds: 00,1"),
        ("seeds: 0,1", "seeds: 0,01"),
        ("seeds: 0,1", "seeds:  0,1"),
        ("seeds: 0,1", "seeds: 0, 1"),
        ("W 2 0", "W  02\t0 "),  # all at once, as first seen
        ("W 2 0", "W 02 0"),
        ("W 2 0", "W 2 00"),
        ("W 2 0", "W  2 0"),
        ("W 2 0", "W 2\t0"),
        ("W 2 0", "W 2 0 "),
        ("W 2 0", " W 2 0"),
        ("L 2 6 1,2,3,4", "L 02 6 1,2,3,4"),
        ("L 2 6 1,2,3,4", "L 2 06 1,2,3,4"),
        ("L 2 6 1,2,3,4", "L 2 6 01,2,3,4"),
        ("L 2 6 1,2,3,4", "L 2 6  1,2,3,4"),
        ("L 2 6 1,2,3,4", "L 2 6 1,2,3,4\t"),
        ("L 2 6 1,2,3,4\n", "L 2 6 1,2,3,4\n \t\n"),
        ("W 2 0\n", "W 2 0\r\n"),
        ("seeds: 0,1\n", "seeds: 0,1\r"),
        ("seeds: 0,1\n", "seeds: 0,1\x0b"),
        ("seeds: 0,1\n", "seeds: 0,1\x0c"),
        ("W 2 0\n", "W 2 0\x1c"),
        ("W 2 0\n", "W 2 0\x1d"),
        ("W 2 0\n", "W 2 0\x1e"),
        ("W 2 0\n", "W 2 0\x85"),
        ("W 2 0\n", "W 2 0\u2028"),
        ("W 2 0\n", "W 2 0\u2029"),
    ])
    def test_only_canonical_text(self, old, new):
        """Leading zeros, whitespace other than one blank between fields,
        a whitespace line at the end and line separators other than \\n
        would not serialize back to the same text."""
        text = TREFOIL_OMEGA_CERT + "L 2 6 1,2,3,4\n"
        text = text.replace("mode: wirtinger", "mode: plainsphere")
        assert serialize_certificate(deserialize_certificate(text)) == text
        with pytest.raises(SchemaError):
            deserialize_certificate(text.replace(old, new))

    def test_stored_certificates_round_trip(self):
        """Every certificate the benchmark stores parses and serializes
        back to its own text."""
        rows = frozen_rows("certs.jsonl")
        for name, row in rows.items():
            for text in (row["omega"], row["rho"]):
                cert = deserialize_certificate(text)
                assert serialize_certificate(cert) == text, name
        assert len(rows) == 467

    def test_stored_seeds_meet_every_component(self):
        """The seed-set search skips every set that leaves a link component
        with no seed, as no such set saturates: the seeds generate the
        link group, whose abelianisation has one generator per component.
        Every stored certificate, in both modes, has a seed on each
        component that ``oracles.oracle_link_components`` merges from the
        raw tuples, with no engine code."""
        manifest = frozen_rows("manifest.jsonl")
        checked = 0
        for name, row in frozen_rows("certs.jsonl").items():
            d = parse_pd(manifest[name]["pd"])
            for text in (row["omega"], row["rho"]):
                seeds = deserialize_certificate(text).seeds
                for edges in oracle_link_components(d):
                    assert {d.edge_to_strand[e] for e in edges} & set(
                        seeds), name
                checked += 1
        assert checked == 934

    def test_loop_move_in_wirtinger_mode(self):
        text = TREFOIL_LOOP_CERT.replace("mode: plainsphere",
                                         "mode: wirtinger")
        with pytest.raises(SchemaError):
            deserialize_certificate(text)


class TestVerifyAccepts:
    def test_engine_certificates_verify(self, all_diagrams):
        for name, d in all_diagrams.items():
            g = build_dual(d)
            w, wcert = omega(d)
            r, rcert = rho(d, dual=g)
            assert verify(d, wcert, g).ok, name
            assert verify(d, rcert, g).ok, name

    def test_handmade_loop_certificate(self, trefoil, trefoil_dual):
        cert = deserialize_certificate(TREFOIL_LOOP_CERT)
        assert verify(trefoil, cert, trefoil_dual).ok

    def test_k14_reference_staging(self, k14, k14_dual):
        """Three seeds, Wirtinger prefix, one loop move, Wirtinger tail."""
        _, cert = rho(k14, dual=k14_dual)
        kinds = [m.kind for m in cert.moves]
        assert cert.seeds == (0, 10, 11)
        assert kinds.count("L") == 1 and len(kinds) == 11
        assert verify(k14, cert, k14_dual).ok

    def test_verify_without_precomputed_dual(self, trefoil):
        cert = deserialize_certificate(TREFOIL_LOOP_CERT)
        result = verify(trefoil, cert)
        assert result.ok and result


class TestVerifyRejects:
    def test_hash_mismatch(self, trefoil, all_diagrams):
        cert = deserialize_certificate(TREFOIL_OMEGA_CERT)
        res = verify(all_diagrams["hopf"], cert)
        assert res.reason == HASH_MISMATCH
        assert not res  # a rejection is falsy, though a nonempty tuple

    def test_hash_checked_before_moves(self, all_diagrams):
        # even a structurally absurd move list reports the hash first
        cert = Certificate("0" * 64, WIRTINGER, (99,),
                           (Move("W", 98, crossing=77),))
        assert verify(all_diagrams["hopf"], cert).reason == HASH_MISMATCH

    def test_unknown_seed(self, trefoil):
        cert = Certificate(TREFOIL_HASH, WIRTINGER, (0, 7), ())
        assert verify(trefoil, cert).reason == UNKNOWN_STRAND

    def test_repeated_seed(self, trefoil):
        cert = Certificate(TREFOIL_HASH, WIRTINGER, (0, 0), ())
        assert verify(trefoil, cert).reason == TARGET_ALREADY_COLORED

    def test_no_seeds(self, trefoil):
        cert = Certificate(TREFOIL_HASH, WIRTINGER, (), ())
        assert verify(trefoil, cert).reason == INCOMPLETE_COLORING

    def test_unknown_move_target(self, trefoil):
        cert = Certificate(TREFOIL_HASH, WIRTINGER, (0, 1),
                           (Move("W", 9, crossing=0),))
        assert verify(trefoil, cert).reason == UNKNOWN_STRAND

    def test_move_target_already_colored(self, trefoil):
        cert = Certificate(TREFOIL_HASH, WIRTINGER, (0, 1),
                           (Move("W", 1, crossing=0),))
        assert verify(trefoil, cert).reason == TARGET_ALREADY_COLORED

    def test_wirtinger_wrong_crossing(self, trefoil):
        # crossing 1 has under pair (0,1); strand 2 is not under there
        cert = Certificate(TREFOIL_HASH, WIRTINGER, (0, 1),
                           (Move("W", 2, crossing=1),))
        assert verify(trefoil, cert).reason == WIRTINGER_CONDITION_FAILED

    def test_wirtinger_no_such_crossing(self, trefoil):
        cert = Certificate(TREFOIL_HASH, WIRTINGER, (0, 1),
                           (Move("W", 2, crossing=9),))
        assert verify(trefoil, cert).reason == WIRTINGER_CONDITION_FAILED

    def test_wirtinger_over_strand_uncolored(self, trefoil):
        # at crossing 0 the over-strand is 1, still uncolored here
        cert = Certificate(TREFOIL_HASH, WIRTINGER, (0,),
                           (Move("W", 2, crossing=0),))
        assert verify(trefoil, cert).reason == WIRTINGER_CONDITION_FAILED

    def test_wirtinger_other_under_uncolored(self, trefoil):
        # at crossing 0 the other under-strand is 0, still uncolored here
        cert = Certificate(TREFOIL_HASH, WIRTINGER, (1,),
                           (Move("W", 2, crossing=0),))
        assert verify(trefoil, cert).reason == WIRTINGER_CONDITION_FAILED

    def test_wirtinger_self_adjacent_crossing(self, all_diagrams):
        d = all_diagrams["hopf"]
        cert = Certificate(d.content_hash, WIRTINGER, (0,),
                           (Move("W", 1, crossing=1),))
        assert verify(d, cert).reason == WIRTINGER_CONDITION_FAILED

    def test_incomplete_coloring(self, trefoil):
        cert = Certificate(TREFOIL_HASH, WIRTINGER, (0, 1), ())
        res = verify(trefoil, cert)
        assert res.reason == INCOMPLETE_COLORING and "2" in res.detail

    def test_loop_edge_of_wrong_strand(self, trefoil, trefoil_dual):
        cert = loop_cert([Move("L", 2, edge=4, cycle_faces=(1, 2, 3, 4))])
        res = verify(trefoil, cert, trefoil_dual)
        assert res.reason == CYCLE_TARGET_COUNT_NEQ1

    def test_loop_unknown_edge(self, trefoil, trefoil_dual):
        cert = loop_cert([Move("L", 2, edge=99, cycle_faces=(1, 2, 3, 4))])
        res = verify(trefoil, cert, trefoil_dual)
        assert res.reason == CYCLE_TARGET_COUNT_NEQ1

    def test_loop_cycle_misses_target_edge_faces(self, trefoil, trefoil_dual):
        cert = loop_cert([Move("L", 2, edge=6, cycle_faces=(2, 3))])
        res = verify(trefoil, cert, trefoil_dual)
        assert res.reason == CYCLE_TARGET_COUNT_NEQ1

    def test_loop_repeated_face(self, trefoil, trefoil_dual):
        cert = loop_cert([Move("L", 2, edge=6, cycle_faces=(1, 2, 3, 2, 4))])
        res = verify(trefoil, cert, trefoil_dual)
        assert res.reason == CYCLE_NOT_SIMPLE

    def test_loop_single_face(self, trefoil, trefoil_dual):
        cert = loop_cert([Move("L", 2, edge=6, cycle_faces=(1,))])
        res = verify(trefoil, cert, trefoil_dual)
        assert res.reason == CYCLE_NOT_SIMPLE

    def test_loop_unknown_face(self, trefoil, trefoil_dual):
        cert = loop_cert([Move("L", 2, edge=6, cycle_faces=(1, 9, 4))])
        res = verify(trefoil, cert, trefoil_dual)
        assert res.reason == CYCLE_NOT_SIMPLE

    def test_loop_hop_through_uncolored_strand(self, trefoil, trefoil_dual):
        # the hop between faces 0 and 3 only crosses the target's own edge
        cert = loop_cert([Move("L", 2, edge=6, cycle_faces=(1, 0, 3, 4))])
        res = verify(trefoil, cert, trefoil_dual)
        assert res.reason == CYCLE_EDGE_UNCOLORED

    def test_loop_move_too_early(self, k14, k14_dual):
        """Hoisting the loop move before its enabling Wirtinger prefix
        must fail exactly on the now-uncolored cycle edge."""
        _, cert = rho(k14, dual=k14_dual)
        lmove = next(m for m in cert.moves if m.kind == "L")
        rest = tuple(m for m in cert.moves if m.kind != "L")
        early = Certificate(cert.diagram_hash, cert.mode, cert.seeds,
                            (lmove,) + rest)
        res = verify(k14, early, k14_dual)
        assert res.reason == CYCLE_EDGE_UNCOLORED

    def test_constructed_loop_in_wirtinger_mode_raises(self, trefoil):
        cert = Certificate(TREFOIL_HASH, WIRTINGER, (0, 1),
                           (Move("L", 2, edge=6, cycle_faces=(1, 2, 3, 4)),))
        with pytest.raises(SchemaError):
            verify(trefoil, cert)


class TestParallelEdges:
    """A hop between two faces joined by parallel dual edges needs only
    one of them on a colored strand."""

    def test_kinked_unknot_hop(self):
        # edges 2 (strand 1) and 4 (strand 0) both join faces 0 and 2
        d = parse_pd("X(2,1,1,4) X(3,4,2,3)")
        cert = Certificate(d.content_hash, PLAINSPHERE, (1,),
                           (Move("L", 0, edge=4, cycle_faces=(0, 2)),))
        assert verify(d, cert).ok

    @pytest.mark.parametrize("target,edge", [(1, 8), (5, 2)])
    def test_granny_hop(self, all_diagrams, target, edge):
        # edges 8 (strand 1) and 2 (strand 5) both join faces 0 and 3
        d = all_diagrams["granny"]
        g = build_dual(d)
        assert {(e, d.edge_to_strand[e]) for e, pair in g.edge_faces.items()
                if set(pair) == {0, 3}} == {(8, 1), (2, 5)}
        move = Move("L", target, edge=edge, cycle_faces=(0, 3))
        others = tuple(s for s in range(d.n) if s != target)
        cert = Certificate(d.content_hash, PLAINSPHERE, others, (move,))
        assert verify(d, cert, g).ok
        neither = tuple(s for s in others if s not in (1, 5))
        res = verify(d, cert._replace(seeds=neither), g)
        assert res.reason == CYCLE_EDGE_UNCOLORED
        assert res.detail == ("move 0 (L %d): no colored edge between "
                              "faces 0 and 3" % target)
