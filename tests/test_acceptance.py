"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines;
each test also asserts, so a plain ``pytest`` run enforces the gate.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from plainsphere import build_dual, omega, parse_pd, rho, trace_faces
from plainsphere.census import CensusOptions, ingest, run_census
from plainsphere.certificate import (HASH_MISMATCH, REASONS, Certificate,
                                     deserialize_certificate,
                                     serialize_certificate, verify)
from plainsphere.engine import MODES, PLAINSPHERE, Move, closure, saturate
from plainsphere.errors import CertificateError

import oracles
from conftest import table_path


def _report(num: int, desc: str, ok: bool, extra: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}{extra}")
    assert ok, f"criterion {num}: {desc}{extra}"


@pytest.fixture(scope="module")
def engine_results(all_rows):
    """name -> (diagram, dual, omega, rho, omega cert, rho cert)."""
    out = {}
    for name, pd_text, beta in all_rows:
        d = parse_pd(pd_text)
        g = build_dual(d)
        w, wcert = omega(d)
        r, rcert = rho(d, dual=g, omega_result=(w, wcert))
        out[name] = (d, g, w, r, wcert, rcert)
    return out


def test_criterion_1_reference_diagram(k14, k14_dual):
    started = time.monotonic()
    w, wcert = omega(k14)
    r, rcert = rho(k14, dual=k14_dual, omega_result=(w, wcert))
    ok_w = verify(k14, wcert, k14_dual).ok
    ok_r = verify(k14, rcert, k14_dual).ok
    elapsed = time.monotonic() - started
    ok = (w, r) == (4, 3) and ok_w and ok_r and elapsed < 10.0
    _report(1, "14n1527 gives omega=4, rho=3 with verifying certificates",
            ok, f" (omega={w} rho={r} certs={ok_w},{ok_r} {elapsed:.2f}s)")


def test_criterion_2_inequalities(engine_results):
    bad = []
    for name, (d, g, w, r, _, _) in engine_results.items():
        if not 1 <= r <= w <= len(d.strands):
            bad.append(name)
    _report(2, "rho <= omega <= strand count on every diagram",
            not bad, f" ({len(engine_results)} diagrams, violations: {bad})")


def test_criterion_3_bridge_bound_table():
    started = time.monotonic()
    rows = ingest(table_path("bridge_table_10.csv"))
    records, summary = run_census(rows, CensusOptions(jobs=4))
    elapsed = time.monotonic() - started
    complete = summary["totals"]["completed"] == len(rows) == 12
    tabulated = all(r["beta_ref"] != "" for r in records)
    bounds = all(r["rho"] >= r["beta_ref"] and r["omega"] >= r["beta_ref"]
                 for r in records)
    ok = (complete and tabulated and bounds
          and summary["violation_count"] == 0 and elapsed < 300.0)
    _report(3, "omega and rho respect tabulated bridge numbers through "
            "10 crossings", ok,
            f" ({len(records)} rows, violations="
            f"{summary['violation_count']}, {elapsed:.2f}s)")


def test_criterion_4_gap_in_14_crossing_slice():
    rows = ingest(table_path("slice14.csv"))
    records, summary = run_census(rows, CensusOptions(jobs=4))
    by_name = {r["name"]: r for r in records}
    gap = by_name.get("k14n1527", {}).get("strict_gap", 0)
    ok = summary["gap_count"] >= 1 and gap >= 1
    _report(4, "the 14-crossing slice reports a strict rho < omega gap",
            ok, f" (k14n1527 strict_gap={gap}, "
            f"gap_count={summary['gap_count']})")


def test_criterion_5_oracle_equivalence(small_table):
    started = time.monotonic()
    checked = 0
    mismatches = []
    for name, pd_text, _ in small_table:
        d = parse_pd(pd_text)
        if d.n > 6:
            continue
        g = build_dual(d)
        cycles = oracles.enumerate_simple_cycles(g)
        w = omega(d)[0]
        r = rho(d, dual=g)[0]
        ow = oracles.oracle_omega(d)
        orh = oracles.oracle_rho(d, g, cycles)
        if (w, r) != (ow, orh):
            mismatches.append((name, w, r, ow, orh))
        checked += 1
    elapsed = time.monotonic() - started
    ok = checked >= 20 and not mismatches and elapsed < 120.0
    _report(5, "omega and rho match the brute-force oracle on all "
            "small diagrams", ok,
            f" ({checked} diagrams, mismatches={mismatches}, {elapsed:.2f}s)")


def test_criterion_6_confluence(engine_results):
    rng = random.Random(20260814)
    names = sorted(engine_results)
    failures = 0
    for _ in range(50):
        name = rng.choice(names)
        d, g, _, _, _, _ = engine_results[name]
        mode = rng.choice(MODES)
        seeds = tuple(rng.sample(range(d.n), rng.randint(1, d.n)))
        expected = frozenset(closure(d, seeds, mode, g))
        dual = g if mode == PLAINSPHERE else None
        for _ in range(100):
            got = oracles.saturate_random(d, seeds, mode, rng, dual)
            if got != expected:
                failures += 1
    _report(6, "saturation reaches one fixpoint across 100 random orders "
            "of 50 seed-set triples", failures == 0,
            f" (counterexamples={failures})")


def test_criterion_7_structural_invariants(engine_results):
    problems = []
    witnesses = 0
    for name, (d, g, _, _, _, rcert) in engine_results.items():
        faces = trace_faces(d)
        if len(faces) != d.n + 2:
            problems.append((name, "euler"))
        if any(f1 == f2 for f1, f2 in g.edge_faces.values()):
            problems.append((name, "dual self-loop"))
        claimed = sorted(e for edges in d.strands for e in edges)
        if claimed != list(range(1, 2 * d.n + 1)):
            problems.append((name, "strand partition"))
        # every loop move saturate emits crosses each link component
        # evenly: from every seed set of size <= 3, and in the rho
        # certificate
        moves = list(rcert.moves)
        for k in range(1, 4):
            for seeds in combinations(range(d.n), k):
                moves += saturate(d, seeds, PLAINSPHERE, g)[1]
        for move in moves:
            if move.kind != "L":
                continue
            witnesses += 1
            counts: dict[int, int] = {}
            for e in move.cycle_edges + (move.edge,):
                comp = d.components[e]
                counts[comp] = counts.get(comp, 0) + 1
            if any(v % 2 for v in counts.values()):
                problems.append((name, "loop parity"))
    # 293 loop moves on the bundled tables; far fewer means the check
    # lost its inputs
    ok = not problems and witnesses >= 250
    _report(7, "Euler count, bridgeless dual, strand partition, and loop "
            "parity hold on all fixtures", ok,
            f" ({len(engine_results)} diagrams, {witnesses} loop witnesses, "
            f"problems: {problems})")


# ---------------------------------------------------------------------------
# criterion 8: certificate mutation fuzz
# ---------------------------------------------------------------------------

W_FAIL = "WirtingerConditionFailed"
SCHEMA = "SchemaError"
BREAKS = {"IncompleteColoring", W_FAIL, "CycleEdgeUncolored", SCHEMA}


def _mutants(d, g, cert):
    """Yield (mutated certificate, expected rejection reasons)."""
    n = d.n
    seeds, moves = cert.seeds, cert.moves

    def rebuild(seeds=seeds, moves=moves, h=cert.diagram_hash):
        return Certificate(h, cert.mode, tuple(seeds), tuple(moves))

    flipped = ("f" if cert.diagram_hash[0] != "f" else "0") \
        + cert.diagram_hash[1:]
    yield rebuild(h=flipped), {HASH_MISMATCH}
    yield rebuild(seeds=seeds + (seeds[0],)), {"TargetAlreadyColored"}
    for i in range(len(seeds)):
        yield rebuild(seeds=seeds[:i] + seeds[i + 1:]), BREAKS
    if moves:
        yield rebuild(seeds=seeds + (moves[0].target,)), \
            {"TargetAlreadyColored"}
        yield rebuild(moves=moves[:-1]), {"IncompleteColoring"}
    for i, m in enumerate(moves):
        before, after = moves[:i], moves[i + 1:]

        def swap(repl):
            return rebuild(moves=before + (repl,) + after)

        yield swap(Move(m.kind, n + 3, crossing=m.crossing, edge=m.edge,
                        cycle_faces=m.cycle_faces)), {"UnknownStrand"}
        yield swap(Move(m.kind, seeds[0], crossing=m.crossing, edge=m.edge,
                        cycle_faces=m.cycle_faces)), {"TargetAlreadyColored"}
        yield rebuild(moves=before + after), BREAKS
        yield rebuild(moves=before + (m, m) + after), {"TargetAlreadyColored"}
        if m.kind == "W":
            yield swap(Move("W", m.target, crossing=n + 5)), {W_FAIL}
            wrong = [c for c in range(n)
                     if m.target not in d.under_strands[c]]
            if wrong:
                yield swap(Move("W", m.target, crossing=wrong[0])), {W_FAIL}
        else:
            foreign = min(d.strands[seeds[0]])
            yield swap(Move("L", m.target, edge=foreign,
                            cycle_faces=m.cycle_faces)), \
                {"CycleTargetCountNeq1"}
            yield swap(Move("L", m.target, edge=m.edge,
                            cycle_faces=m.cycle_faces + (m.cycle_faces[0],))
                       ), {"CycleNotSimple"}
            yield swap(Move("L", m.target, edge=m.edge,
                            cycle_faces=m.cycle_faces[:-1])), \
                {"CycleTargetCountNeq1", "CycleNotSimple"}
            bad_faces = (g.n_faces + 3,) + m.cycle_faces[1:]
            yield swap(Move("L", m.target, edge=m.edge,
                            cycle_faces=bad_faces)), {"CycleNotSimple"}


def test_criterion_8_certificate_fuzz(engine_results):
    known = set(REASONS) | {SCHEMA}
    total = 0
    survivors = []
    wrong_reason = []
    for name, (d, g, w, _, wcert, rcert) in engine_results.items():
        _, loopy = oracles.loops_first_log(d, g, wcert.seeds)
        loop_cert = Certificate(d.content_hash, PLAINSPHERE,
                                wcert.seeds, loopy)
        for cert in (wcert, rcert, loop_cert):
            assert verify(d, cert, g).ok, (name, "original must verify")
            assert deserialize_certificate(
                serialize_certificate(cert)) == cert
            for mutant, expected in _mutants(d, g, cert):
                total += 1
                assert expected <= known
                try:
                    replayed = deserialize_certificate(
                        serialize_certificate(mutant))
                except CertificateError as exc:
                    got = type(exc).__name__
                else:
                    res = verify(d, replayed, g)
                    got = res.reason if not res.ok else None
                if got is None:
                    survivors.append((name, cert.mode, expected))
                elif got not in expected:
                    wrong_reason.append((name, got, expected))
    ok = total >= 1000 and not survivors and not wrong_reason
    _report(8, "every single-mutation certificate is rejected with the "
            "expected reason", ok,
            f" ({total} mutants, survivors={len(survivors)}, "
            f"misclassified={wrong_reason[:3]})")
