"""PD parsing, strands, the crossing table, and input validation."""

from __future__ import annotations

import pytest

from plainsphere import build_dual, parse_pd
from plainsphere.errors import (ClosedOverComponent, DisconnectedProjection,
                                EulerViolation, MalformedPD, PlainSphereError)

from conftest import TREFOIL_PD, frozen_rows, small_braid
from oracles import oracle_link_components, oracle_tables

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
        # bit c of a mask stands for crossing c
        assert trefoil.crossing_masks == ((0b100, 0b001, 0b010),
                                          (0b011, 0b110, 0b101))

    def test_trefoil_adjacency_records(self, trefoil):
        under = trefoil.crossing_masks.under[0]
        recs = {(u2 if u1 == 0 else u1, c, trefoil.over_strand[c])
                for c in range(trefoil.n) if under >> c & 1
                for u1, u2 in [trefoil.under_strands[c]]}
        assert recs == {(2, 0, 1), (1, 1, 2)}

    def test_crossing_index(self, all_diagrams):
        for name, d in all_diagrams.items():
            over, under = d.crossing_masks
            for s in range(d.n):
                assert over[s] == sum(1 << c for c in range(d.n)
                                      if s == d.over_strand[c]), name
                assert under[s] == sum(
                    1 << c for c, (u1, u2) in enumerate(d.under_strands)
                    if s in (u1, u2) and u1 != u2), name

    def test_self_adjacency_on_kink(self):
        d = parse_pd("X(1,2,2,1)")
        assert d.crossing_masks == ((1,), (0,))
        assert d.under_strands == ((0, 0),) and d.over_strand == (0,)

    def test_link_components(self, all_diagrams):
        assert all_diagrams["trefoil"].n_components == 1
        assert all_diagrams["hopf"].n_components == 2
        assert all_diagrams["borromean"].n_components == 3
        assert all_diagrams["chain3"].n_components == 3


class TestDartTable:
    def test_mate_and_components_on_all_rows(self):
        """On every manifest row that parses (the 42 bundled rows among
        them) and 40 small random braid closures, mate pairs the two
        darts of each label, and each strand's component mask holds the
        strands of the oracle's component of its edges, which are merged
        from the raw tuples, so n_components counts those components;
        together they hold every strand once.  373 of the 508 diagrams are
        links."""
        parsed = {}
        for row in frozen_rows("manifest.jsonl").values():
            try:
                parsed[row["name"]] = (row["kind"], parse_pd(row["pd"]))
            except PlainSphereError:
                pass
        assert len(parsed) == 468
        assert sum(kind == "bundled" for kind, _ in parsed.values()) == 42
        for i in range(40):
            parsed[f"small-braid-{i}"] = ("braid", small_braid(i)[0])
        links = 0
        for _, d in parsed.values():
            darts = range(4 * d.n)
            assert d.label == tuple(e for t in d.pd for e in t)
            assert all(d.mate[x] != x and d.mate[d.mate[x]] == x
                       and d.label[d.mate[x]] == d.label[x] for x in darts)
            masks = [sum({1 << d.edge_to_strand[e] for e in edges})
                     for edges in oracle_link_components(d)]
            assert d.strand_component == tuple(
                next(m for m in masks if m >> s & 1) for s in range(d.n)
            ), d.serialize()
            assert d.n_components == len(masks), d.serialize()
            assert sum(masks) == (1 << d.n) - 1, d.serialize()
            links += len(masks) > 1
        assert (len(parsed), links) == (508, 373)

    def test_tables_match_the_oracle(self, all_rows):
        """On every manifest row that parses and every bundled row, the
        diagram's and its dual's tables and the search order are the ones
        ``oracle_tables`` builds from the PD text; ``edge_faces`` is
        compared as a mapping, since no reader depends on its order."""
        texts = [row["pd"] for row in frozen_rows("manifest.jsonl").values()
                 if row["kind"] != "reject"]
        texts += [pd for _, pd, _ in all_rows]
        for text in texts:
            d = parse_pd(text)
            g = build_dual(d)
            got = {"pd": d.pd, "label": d.label, "mate": d.mate,
                   "strands": d.strands, "edge_to_strand": d.edge_to_strand,
                   "under_strands": d.under_strands,
                   "over_strand": d.over_strand, "n_faces": g.n_faces,
                   "edge_faces": g.edge_faces,
                   "strand_edges": g.strand_edges,
                   "search_order": d.search_order}
            want = oracle_tables(text)
            assert got == want, text


# Every input the tests reject, with its error as this code raises it.
REJECTED = [
    ("X(1,2,3) X(3,2,1)",
     MalformedPD, "unparseable PD text near: 'X(1,2,3) X(3,2,1)'"),
    (TREFOIL_PD + " X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)",
     DisconnectedProjection, "projection splits into 2 pieces"),
    ("X(2,1,3,4) X(3,1,2,4)",
     ClosedOverComponent, "edges [1, 4] form closed over-components"),
    ("X(1,4,2,3) X(3,6,4,5)",
     MalformedPD,
     "labels with occurrence count != 2: {1: 1, 2: 1, 6: 1, 5: 1}"),
    ("   ", MalformedPD, "PD text contains no crossings"),
    ("garbage", MalformedPD, "unparseable PD text near: 'garbage'"),
    (TREFOIL_PD + " Y(1,2)",
     MalformedPD, "unparseable PD text near: 'Y(1,2)'"),
    ("X(1,7,2,5) X(3,6,7,1) X(5,2,6,3)",
     MalformedPD, "labels must be exactly 1..6, got [1, 2, 3, 5, 6, 7]"),
    ("X(1,2,3)", MalformedPD, "unparseable PD text near: 'X(1,2,3)'"),
    ("X(1,2,1,2)",
     ClosedOverComponent, "edges [2] form closed over-components"),
    ("X(1,4,2,3) X(3,6,4,5) X(5,2,6,1)",
     EulerViolation, "traced 3 faces, expected 5; the PD code does not "
     "describe a diagram in the sphere"),
    ("PD[]", MalformedPD, "PD text contains no crossings"),
    ("X(1,4,2,5) \xff", MalformedPD, "unparseable PD text near: '\xff'"),
    ("X(1,1,2,2) X(3,3,4,4)",
     DisconnectedProjection, "projection splits into 2 pieces"),
    ("X(0,1,1,2)",
     MalformedPD, "labels with occurrence count != 2: {0: 1, 2: 1}"),
    ("X(1,2,3,4) X(1,2,3,4)",
     ClosedOverComponent, "edges [2, 4] form closed over-components"),
    ("X(1,2,2,1) junk X(3,4,4,3)",
     MalformedPD, "unparseable PD text near: 'junk'"),
    ("X(1,1,1,1)", MalformedPD, "labels with occurrence count != 2: {1: 4}"),
    (TREFOIL_PD + " X(1,2,3,4)", MalformedPD,
     "labels with occurrence count != 2: {1: 3, 4: 3, 2: 3, 3: 3}"),
    ("PD[X[1,4,2,5], X[3,6,4,1]]", MalformedPD,
     "labels with occurrence count != 2: {2: 1, 5: 1, 3: 1, 6: 1}"),
    ("X(1,2,2,1),, ;X(3,4,4,3)",
     MalformedPD, "unparseable PD text near: ',, ;'"),
]


class TestRejection:
    @pytest.mark.parametrize("text, error, message", REJECTED)
    def test_error_and_message(self, text, error, message):
        with pytest.raises(PlainSphereError) as info:
            build_dual(parse_pd(text))
        assert (type(info.value), str(info.value)) == (error, message)

    def test_reject_rows_are_listed(self):
        """The manifest's reject rows are among the inputs above."""
        listed = {text: error.__name__ for text, error, _ in REJECTED}
        for row in frozen_rows("manifest.jsonl").values():
            if row["kind"] == "reject":
                assert listed[row["pd"]] == row["reason"], row["name"]

    def test_over_long_label_message(self):
        """Where int() limits digits, the message is its error's."""
        big = "3" * 5000
        try:
            int(big)
        except ValueError as exc:
            message = f"label too long: {exc}"
        else:  # no limit: the label is counted like any other
            message = f"labels with occurrence count != 2: {{3: 1, {big}: 1}}"
        with pytest.raises(MalformedPD) as info:
            parse_pd(f"X(1,4,2,5) X(3,6,4,1) X(5,2,6,{big})")
        assert str(info.value) == message


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
