"""Check the frozen rho and omega of every benchmark row against brute
forces.

    python tests/rho_sweep.py             # all 468 rows, about 30 s
    python tests/rho_sweep.py --every 10  # manifest rows 0, 10, 20, ...

``oracles.bridge_rho`` tries every seed set, by size and then in strand
id order, closed by bridge peeling in the projection: no dual, no
faces, no prune, no bound and no engine code.  ``oracles.oracle_omega``
tries them in the same order, closed by Wirtinger moves over the
diagram's crossing table, built once per row.  Each row of
``perfbench/data/manifest.jsonl`` with a value is checked, or every
N-th line by position with ``--every N``, and the script exits 1 on
any mismatch.  The tier-1 suite runs the ``--every 10`` slice.

The first saturating set it finds must also put a seed on every link
component (``oracles.oracle_link_components``): the engine's seed-set
search skips every set that does not, and this checks that premise
with no engine code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from plainsphere.diagram import parse_pd  # noqa: E402

import oracles  # noqa: E402

MANIFEST = HERE.parent / "perfbench" / "data" / "manifest.jsonl"


def sweep(every: int = 1) -> tuple[int, list[str]]:
    """(rows checked, one line per mismatch or first set that misses a
    link component) over every `every`-th manifest line, by position
    from the first; reject rows have no value and are passed over."""
    with open(MANIFEST, encoding="utf-8") as fh:
        items = [json.loads(line) for line in fh][::every]
    checked, wrong = 0, []
    for item in items:
        if item["kind"] == "reject":
            continue
        d = parse_pd(item["pd"])
        seeds = oracles.bridge_rho(d)
        if len(seeds) != item["rho"]:
            wrong.append(f"{item['name']}: rho {item['rho']} frozen, "
                         f"{len(seeds)} by brute force")
        w = oracles.oracle_omega(d)
        if w != item["omega"]:
            wrong.append(f"{item['name']}: omega {item['omega']} frozen, "
                         f"{w} by brute force")
        for edges in oracles.oracle_link_components(d):
            if not {d.edge_to_strand[e] for e in edges} & set(seeds):
                wrong.append(f"{item['name']}: first set {seeds} has no "
                             f"seed on the component of edge {edges[0]}")
        checked += 1
    return checked, wrong


def main(argv: list[str]) -> int:
    every = int(argv[argv.index("--every") + 1]) if "--every" in argv else 1
    checked, wrong = sweep(every)
    for line in wrong:
        print(line)
    print(f"{checked} rows checked, {len(wrong)} mismatches")
    return 1 if wrong or not checked else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
