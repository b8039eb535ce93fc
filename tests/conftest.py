"""Shared fixtures: bundled tables loaded once, a few pinned diagrams."""

from __future__ import annotations

import csv
import importlib.resources
import importlib.util
import json
import random
from pathlib import Path

import pytest

from plainsphere import (Diagram, DualGraph, PlainSphereError, build_dual,
                         parse_pd)

TREFOIL_PD = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
K14_PD = (
    "X(4,1,5,2) X(28,5,1,6) X(24,28,25,27) X(20,26,21,25) X(6,14,7,13) "
    "X(19,12,20,13) X(8,4,9,3) X(14,8,15,7) X(2,10,3,9) X(10,16,11,15) "
    "X(11,18,12,19) X(22,18,23,17) X(26,22,27,21) X(16,24,17,23)"
)

# An 8-strand braid whose closure (30 crossings, Fox bound 6, omega = rho
# = 7) has the most seeds to color of the inputs here, 7, though its
# transposition coloring takes only 10 search nodes.
BRAID30_WORD = [7, -4, 6, -6, -4, -6, 3, -3, -1, -7, -3, 1, 3, -2, 6, -1,
                -7, 5, -3, 3, -5, -4, 6, 1, -7, 1, 1, 7, -1, 4]

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name: str):
    """Load ``perfbench/<name>.py`` (standard library only) without
    putting perfbench on the import path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BRAIDS = perfbench_module("braids")
# Its seed-set search runs far past a 1 ms deadline, where k14n1527's
# values can be found within one.
BRAID30_PD = BRAIDS.braid_pd(BRAID30_WORD, 8)


def small_braid(index: int, max_crossings: int = 15
                ) -> tuple[Diagram, DualGraph]:
    """Seeded random braid closure on 2-5 strands, at most `max_crossings`,
    and its dual."""
    rng = random.Random(f"small-braid-{index}")
    while True:
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(strands + 1, max_crossings))]
        if len({abs(g) for g in word}) < strands - 1:
            continue  # split closure
        try:
            d = parse_pd(BRAIDS.braid_pd(word, strands))
            return d, build_dual(d)
        except PlainSphereError:
            continue


def frozen_rows(filename: str) -> dict[str, dict]:
    """Rows of one ``perfbench/data`` JSON-lines file, by name."""
    with open(PERFBENCH / "data" / filename, encoding="utf-8") as fh:
        return {o["name"]: o for o in map(json.loads, fh)}


def table_path(filename: str) -> str:
    return str(importlib.resources.files("plainsphere") / "data" / filename)


def load_table(filename: str) -> list[tuple[str, str, int | None]]:
    with open(table_path(filename), newline="", encoding="utf-8") as fh:
        rows = []
        for raw in csv.DictReader(fh):
            beta = raw["bridge_number"].strip()
            rows.append((raw["name"], raw["pd_notation"],
                         int(beta) if beta else None))
    return rows


@pytest.fixture(scope="session")
def small_table() -> list[tuple[str, str, int | None]]:
    return load_table("fixtures_small.csv")


@pytest.fixture(scope="session")
def bridge_table() -> list[tuple[str, str, int | None]]:
    return load_table("bridge_table_10.csv")


@pytest.fixture(scope="session")
def slice_table() -> list[tuple[str, str, int | None]]:
    return load_table("slice14.csv")


@pytest.fixture(scope="session")
def all_rows(small_table, bridge_table, slice_table):
    """Every bundled diagram, deduplicated by name."""
    seen: dict[str, tuple[str, str, int | None]] = {}
    for row in small_table + bridge_table + slice_table:
        seen.setdefault(row[0], row)
    return list(seen.values())


@pytest.fixture(scope="session")
def all_diagrams(all_rows) -> dict[str, Diagram]:
    return {name: parse_pd(pd) for name, pd, _ in all_rows}


@pytest.fixture(scope="session")
def trefoil() -> Diagram:
    return parse_pd(TREFOIL_PD)


@pytest.fixture(scope="session")
def trefoil_dual(trefoil) -> DualGraph:
    return build_dual(trefoil)


@pytest.fixture(scope="session")
def k14() -> Diagram:
    return parse_pd(K14_PD)


@pytest.fixture(scope="session")
def k14_dual(k14) -> DualGraph:
    return build_dual(k14)
