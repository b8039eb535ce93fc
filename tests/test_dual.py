"""Face tracing and the dual multigraph."""

from __future__ import annotations

import pytest

from plainsphere import build_dual, parse_pd
from plainsphere.errors import EulerViolation

from oracles import oracle_tables


def face_degrees(n_faces: int, edge_faces: dict) -> list[int]:
    """Each face's degree, the edges bordering it, counted from a table
    of each edge's two faces."""
    degree = [0] * n_faces
    for f1, f2 in edge_faces.values():
        degree[f1] += 1
        degree[f2] += 1
    return degree


class TestFaces:
    def test_trefoil_face_count_and_degrees(self, trefoil):
        g = build_dual(trefoil)
        assert g.n_faces == 5
        assert sorted(face_degrees(g.n_faces, g.edge_faces)) == [2, 2, 2, 3, 3]

    def test_one_crossing_unknot_faces(self):
        g = build_dual(parse_pd("X(1,2,2,1)"))
        assert sorted(face_degrees(g.n_faces, g.edge_faces)) == [1, 1, 2]

    def test_euler_on_all_fixtures(self, all_diagrams):
        for name, d in all_diagrams.items():
            g = build_dual(d)
            assert g.n_faces == d.n + 2, name
            assert sum(face_degrees(g.n_faces, g.edge_faces)) == 4 * d.n, name

    def test_non_spherical_code_rejected(self):
        # right label multiset, wrong rotation system: traces 3 faces, not 5
        with pytest.raises(EulerViolation, match="traced 3 faces, expected 5"):
            build_dual(parse_pd("X(1,4,2,3) X(3,6,4,5) X(5,2,6,1)"))


class TestDualGraph:
    def test_trefoil_counts(self, trefoil_dual):
        assert trefoil_dual.n_faces == 5
        assert len(trefoil_dual.edge_faces) == 6

    def test_edge_borders_two_distinct_faces(self, all_diagrams):
        for name, d in all_diagrams.items():
            g = build_dual(d)
            assert len(g.edge_faces) == 2 * d.n, name
            for e, (f1, f2) in g.edge_faces.items():
                assert f1 != f2, (name, e)

    def test_vertex_degree_matches_face_degree(self, all_diagrams):
        """Each dual vertex's degree is the length of its face in the
        reference face trace of ``oracle_tables``."""
        for name, d in all_diagrams.items():
            g = build_dual(d)
            want = oracle_tables(d.serialize())
            assert (face_degrees(g.n_faces, g.edge_faces)
                    == face_degrees(want["n_faces"], want["edge_faces"])), name

    def test_parallel_edges_kept(self):
        # edges 2 and 4 of this kinked unknot border the same two faces
        # and must stay distinct dual edges
        g = build_dual(parse_pd("X(2,1,1,4) X(3,4,2,3)"))
        assert sorted(e for e, pair in g.edge_faces.items()
                      if set(pair) == {0, 2}) == [2, 4]
        assert len(g.edge_faces) == 4

    def test_strand_edges_agree_with_strands(self, k14, k14_dual):
        for s, edges in enumerate(k14.strands):
            listed = tuple(e for e, _, _ in k14_dual.strand_edges[s])
            assert listed == edges

    def test_trefoil_edge_table_golden(self, trefoil, trefoil_dual):
        # edge -> (its two faces, its strand)
        table = {e: (fs, trefoil.edge_to_strand[e])
                 for e, fs in trefoil_dual.edge_faces.items()}
        assert table == {1: ((0, 3), 2), 2: ((1, 2), 0), 3: ((3, 4), 0),
                         4: ((0, 1), 1), 5: ((2, 3), 1), 6: ((1, 4), 2)}

    def test_dual_connected(self, all_diagrams):
        for name, d in all_diagrams.items():
            g = build_dual(d)
            seen = {0}
            grew = True
            while grew:
                grew = False
                for f1, f2 in g.edge_faces.values():
                    if (f1 in seen) != (f2 in seen):
                        seen.update((f1, f2))
                        grew = True
            assert len(seen) == g.n_faces, name
