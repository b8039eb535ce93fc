"""PD parsing, strands, the crossing table, and input validation."""

from __future__ import annotations

import pytest

from plainsphere import parse_pd
from plainsphere.errors import (ClosedOverComponent, DisconnectedProjection,
                                MalformedPD, PlainSphereError)

from conftest import TREFOIL_PD, frozen_rows
from oracles import oracle_link_components

TREFOIL_HASH = "baf2ba005daf456baa1905b37b6014a9cd355d769021818c68ba89b89e3d8898"


class TestParsing:
    def test_trefoil_counts(self, trefoil):
        assert trefoil.n == 3
        assert sorted(set(trefoil.label)) == list(range(1, 7))
        assert trefoil.mate == (7, 6, 9, 8, 11, 10, 1, 0, 3, 2, 5, 4)
        assert len(trefoil.strands) == 3

    def test_bracket_variant_is_equivalent(self, trefoil):
        bracket = "PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]]"
        assert parse_pd(bracket).content_hash == trefoil.content_hash

    def test_commas_between_tuples_allowed(self, trefoil):
        text = "X(1,4,2,5), X(3,6,4,1), X(5,2,6,3)"
        assert parse_pd(text).content_hash == trefoil.content_hash

    def test_serialize_round_trip(self, trefoil):
        assert trefoil.serialize() == TREFOIL_PD
        again = parse_pd(trefoil.serialize())
        assert again.content_hash == trefoil.content_hash == TREFOIL_HASH

    def test_round_trip_all_fixtures(self, all_diagrams):
        for name, d in all_diagrams.items():
            again = parse_pd(d.serialize())
            assert again.content_hash == d.content_hash, name


class TestStrands:
    def test_trefoil_strand_walks(self, trefoil):
        assert trefoil.strands == ((2, 3), (4, 5), (6, 1))

    def test_one_crossing_unknot_single_strand(self):
        d = parse_pd("X(1,2,2,1)")
        assert len(d.strands) == 1
        assert sorted(d.strands[0]) == [1, 2]
        # both ends of the lone strand land on the same crossing
        assert d.under_strands == ((0, 0),)

    def test_edge_partition(self, all_diagrams):
        for name, d in all_diagrams.items():
            claimed = [e for edges in d.strands for e in edges]
            assert sorted(claimed) == list(range(1, 2 * d.n + 1)), name

    def test_strand_count_equals_crossing_count(self, all_diagrams):
        for name, d in all_diagrams.items():
            assert len(d.strands) == d.n, name

    def test_strands_end_at_under_slots(self, all_diagrams):
        # A walk leaves its last edge's near end through an over slot
        # (unless the strand has one edge, whose both ends are under
        # slots); the far end is an under slot of a crossing that lists
        # the strand among its under-strands.
        for name, d in all_diagrams.items():
            for s, edges in enumerate(d.strands):
                ends = [x for x, e in enumerate(d.label) if e == edges[-1]]
                unders = [x for x in ends if x % 4 in (0, 2)]
                assert len(unders) == (2 if len(edges) == 1 else 1), name
                for x in unders:
                    assert s in d.under_strands[x // 4], (name, s, x // 4)


class TestAdjacency:
    def test_trefoil_under_over_tables(self, trefoil):
        assert trefoil.under_strands == ((2, 0), (0, 1), (1, 2))
        assert trefoil.over_strand == (1, 2, 0)
        assert trefoil.strand_crossings == ((0, 1, 2), (0, 1, 2), (0, 1, 2))

    def test_trefoil_adjacency_records(self, trefoil):
        recs = {(u2 if u1 == 0 else u1, c, trefoil.over_strand[c])
                for c in trefoil.strand_crossings[0]
                for u1, u2 in [trefoil.under_strands[c]] if 0 in (u1, u2)}
        assert recs == {(2, 0, 1), (1, 1, 2)}

    def test_crossing_index(self, all_diagrams):
        for name, d in all_diagrams.items():
            for s, cs in enumerate(d.strand_crossings):
                assert list(cs) == [c for c in range(d.n)
                                    if s in d.under_strands[c]
                                    or s == d.over_strand[c]], name

    def test_self_adjacency_on_kink(self):
        d = parse_pd("X(1,2,2,1)")
        assert d.strand_crossings == ((0,),)
        assert d.under_strands == ((0, 0),) and d.over_strand == (0,)

    def test_link_components(self, all_diagrams):
        assert all_diagrams["trefoil"].n_components == 1
        assert all_diagrams["hopf"].n_components == 2
        assert all_diagrams["borromean"].n_components == 3
        assert all_diagrams["chain3"].n_components == 3


class TestDartTable:
    def test_mate_and_components_on_all_rows(self):
        """On every manifest row that parses (the 42 bundled rows among
        them), mate pairs the two darts of each label, and components
        agrees with the oracle's partition of edges."""
        parsed = {}
        for row in frozen_rows("manifest.jsonl").values():
            try:
                parsed[row["name"]] = (row["kind"], parse_pd(row["pd"]))
            except PlainSphereError:
                pass
        assert len(parsed) == 468
        assert sum(kind == "bundled" for kind, _ in parsed.values()) == 42
        for _, d in parsed.values():
            darts = range(4 * d.n)
            assert d.label == tuple(e for t in d.pd for e in t)
            assert all(d.mate[x] != x and d.mate[d.mate[x]] == x
                       and d.label[d.mate[x]] == d.label[x] for x in darts)
            parts: dict[int, list[int]] = {}
            for e, comp in sorted(d.components.items()):
                parts.setdefault(comp, []).append(e)
            want = oracle_link_components(d)
            assert sorted(parts.values()) == want, d.serialize()
            assert d.n_components == len(want)


class TestRejection:
    def test_label_appearing_once(self):
        with pytest.raises(MalformedPD):
            parse_pd("X(1,4,2,3) X(3,6,4,5)")

    def test_empty_text(self):
        with pytest.raises(MalformedPD):
            parse_pd("   ")

    def test_garbage_text(self):
        with pytest.raises(MalformedPD):
            parse_pd("garbage")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(MalformedPD):
            parse_pd(TREFOIL_PD + " Y(1,2)")

    def test_labels_not_dense(self):
        # labels are 1..2n; 7 appears instead of 4
        with pytest.raises(MalformedPD):
            parse_pd("X(1,7,2,5) X(3,6,7,1) X(5,2,6,3)")

    def test_over_long_label(self):
        """int() refuses more than 4300 digits by default."""
        with pytest.raises(MalformedPD):
            parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6," + "3" * 5000 + ")")

    def test_wrong_arity_rejected(self):
        with pytest.raises(MalformedPD):
            parse_pd("X(1,2,3) X(3,2,1)")

    def test_closed_over_component_one_crossing(self):
        with pytest.raises(ClosedOverComponent):
            parse_pd("X(1,2,1,2)")

    def test_closed_over_component_two_crossings(self):
        # one circle lies entirely over the other
        with pytest.raises(ClosedOverComponent):
            parse_pd("X(2,1,3,4) X(3,1,2,4)")

    def test_disconnected_projection(self):
        split = TREFOIL_PD + " X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)"
        with pytest.raises(DisconnectedProjection):
            parse_pd(split)
