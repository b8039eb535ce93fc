"""Face tracing and the dual multigraph."""

from __future__ import annotations

import pytest

from plainsphere import build_dual, parse_pd, trace_faces
from plainsphere.errors import EulerViolation


class TestFaces:
    def test_trefoil_face_count_and_degrees(self, trefoil):
        faces = trace_faces(trefoil)
        assert len(faces) == 5
        assert sorted(len(f) for f in faces) == [2, 2, 2, 3, 3]

    def test_one_crossing_unknot_faces(self):
        faces = trace_faces(parse_pd("X(1,2,2,1)"))
        assert sorted(len(f) for f in faces) == [1, 1, 2]

    def test_euler_on_all_fixtures(self, all_diagrams):
        for name, d in all_diagrams.items():
            faces = trace_faces(d)
            assert len(faces) == d.n + 2, name
            assert sum(len(f) for f in faces) == 4 * d.n, name

    def test_non_spherical_code_rejected(self):
        # right label multiset, wrong rotation system: traces 3 faces, not 5
        with pytest.raises(EulerViolation):
            trace_faces(parse_pd("X(1,4,2,3) X(3,6,4,5) X(5,2,6,1)"))


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
        for name, d in all_diagrams.items():
            g = build_dual(d)
            degree = [0] * g.n_faces
            for f1, f2 in g.edge_faces.values():
                degree[f1] += 1
                degree[f2] += 1
            assert degree == [len(f) for f in trace_faces(d)], name

    def test_parallel_edges_kept(self):
        # edges 2 and 4 of this kinked unknot border the same two faces
        # and must stay distinct dual edges
        g = build_dual(parse_pd("X(2,1,1,4) X(3,4,2,3)"))
        assert g.pair_edges[frozenset((0, 2))] == [2, 4]
        assert sum(len(v) for v in g.pair_edges.values()) == 4

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
