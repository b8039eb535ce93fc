"""Freeze the benchmark's reference manifest and stored certificates.

    python3 perfbench/freeze.py           # write perfbench/data/*.jsonl
    python3 perfbench/freeze.py --check   # regenerate, compare byte for byte

The manifest lists every input item, one JSON object per line, with the
values the program gave at the commit that froze it: omega, rho,
crossings and link components per diagram, and the error class for each
row a census must reject.  The
certificate store holds the omega and rho certificates that
``cert_replay`` replays, so no run of the benchmark has to search.
Freezing takes about half a minute on one core.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from plainsphere.certificate import serialize_certificate, verify  # noqa: E402
from plainsphere.diagram import parse_pd  # noqa: E402
from plainsphere.dual import build_dual  # noqa: E402
from plainsphere.engine import omega, rho  # noqa: E402
from plainsphere.errors import PlainSphereError  # noqa: E402

from braids import (REJECT_ROWS, braid_components, braid_pd,  # noqa: E402
                    random_braid, trefoil_sum_word)
from spans import sets_below  # noqa: E402

MANIFEST = HERE / "data" / "manifest.jsonl"
CERTS = HERE / "data" / "certs.jsonl"
POOL_SIZE = 420          # random braid closures; each run draws half
TREFOIL_SUMS = 6         # trefoil_sums runs #1..#6
TREFOIL_CERTS = 5        # cert_replay replays #1..#5
BUNDLED_TABLES = ("bridge_table_10.csv", "fixtures_small.csv", "slice14.csv")


def accept(pd: str) -> bool:
    try:
        build_dual(parse_pd(pd))
    except PlainSphereError:
        return False
    return True


def solve(item: dict, certs: list, keep_certs: bool) -> dict:
    """Add the program's omega and rho to `item`, checking both certificates."""
    d = parse_pd(item["pd"])
    g = build_dual(d)
    w, wcert = omega(d)
    r, rcert = rho(d, dual=g, omega_result=(w, wcert))
    for cert in (wcert, rcert):
        result = verify(d, cert, g)
        if not result.ok:
            raise SystemExit(f"{item['name']}: certificate rejected: {result}")
    if not 1 <= r <= w <= len(d.strands) or w < d.n_components:
        raise SystemExit(f"{item['name']}: impossible omega={w} rho={r}")
    item.update(n=d.n, components=d.n_components, omega=w, rho=r,
                search_sets=sets_below(d.n, w) + sets_below(d.n, r))
    if keep_certs:
        certs.append({"name": item["name"],
                      "omega": serialize_certificate(wcert),
                      "rho": serialize_certificate(rcert)})
    return item


def build() -> tuple[str, str]:
    certs: list = []
    items = []
    for k in range(1, TREFOIL_SUMS + 1):
        word, strands = trefoil_sum_word(k)
        item = solve({"kind": "trefoil_sum", "name": f"trefoil-sum-{k}",
                      "strands": strands,
                      "word": word, "pd": braid_pd(word, strands)},
                     certs, keep_certs=k <= TREFOIL_CERTS)
        # Bridge number of a sum of k trefoils is k+1, and omega equals it.
        if item["omega"] != k + 1 or item["rho"] != k + 1:
            raise SystemExit(f"trefoil sum #{k}: omega={item['omega']} "
                             f"rho={item['rho']}, expected {k + 1}")
        items.append(item)
    for i in range(POOL_SIZE):
        word, strands, pd = random_braid(i, accept)
        item = solve({"kind": "random", "name": f"braid-{i:04d}",
                      "strands": strands, "word": word, "pd": pd},
                     certs, keep_certs=True)
        if (item["components"] != braid_components(word, strands)
                or item["omega"] > strands):
            raise SystemExit(f"{item['name']}: disagrees with its braid word")
        items.append(item)
    for table in BUNDLED_TABLES:
        path = ROOT / "src" / "plainsphere" / "data" / table
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                beta_text = row["bridge_number"].strip()
                beta = int(beta_text) if beta_text else None
                item = solve({"kind": "bundled",
                              "name": f"{Path(table).stem}.{row['name']}",
                              "pd": row["pd_notation"], "bridge_number": beta},
                             certs, keep_certs=True)
                if beta is not None and item["rho"] < beta:
                    raise SystemExit(f"{item['name']}: rho below bridge number")
                items.append(item)
    for name, pd, reason in REJECT_ROWS:
        try:
            build_dual(parse_pd(pd))
        except PlainSphereError as exc:
            if type(exc).__name__ != reason:
                raise SystemExit(f"{name}: rejected as {exc!r}, not {reason}")
        else:
            raise SystemExit(f"{name}: accepted, expected {reason}")
        items.append({"kind": "reject", "name": name, "pd": pd,
                      "reason": reason})
    return json_lines(items), json_lines(certs)


def json_lines(objects: list[dict]) -> str:
    return "".join(json.dumps(o, sort_keys=True) + "\n" for o in objects)


def main(argv: list[str]) -> int:
    manifest, certs = build()
    if "--check" in argv:
        same = (MANIFEST.read_text(encoding="utf-8") == manifest
                and CERTS.read_text(encoding="utf-8") == certs)
        print("frozen data reproduced byte for byte" if same
              else "frozen data differs from a fresh build")
        return 0 if same else 1
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(manifest, encoding="utf-8")
    CERTS.write_text(certs, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
