"""Batch computation of omega and rho over knot-table CSV files.

Input tables carry columns ``name`` and ``pd_notation``, optionally
``bridge_number``.  Each diagram is processed independently: parse
failures, non-integer bridge numbers, a name already used by an earlier
row and any unexpected error while computing skip the row with a
reason, a per-diagram timeout marks the row timed out, and none of them
produces fabricated numbers in the output.
Records land in a CSV with the columns

    name,n,strands,omega,rho,beta_ref,strict_gap,bound_ok,millis,diagram_hash

plus a JSON summary of totals.  Re-runs resume by skipping rows whose
name and diagram hash already appear together in the records file, so
long sweeps can run in append-only slices; a row whose name is recorded
for another diagram is skipped with its own reason and never computed
under that name, and one whose PD text no longer parses with its parse
error.  The tabulated bridge number is never consulted by the search
itself; it is only compared against the results afterwards, keeping the
lower-bound check honest.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

from .diagram import _TUPLE_RE, parse_pd
from .dual import build_dual
from .engine import omega, rho
from .errors import ComputeTimeout, FileUnreadable, MissingColumns, PlainSphereError

RECORD_COLUMNS = ("name", "n", "strands", "omega", "rho", "beta_ref",
                  "strict_gap", "bound_ok", "millis", "diagram_hash")
ALREADY_RECORDED = "already in records"
NAME_TAKEN = "name already in records for another diagram"


@dataclass(frozen=True)
class TableRow:
    name: str
    pd_text: str
    beta_ref: int | None
    line: int
    problem: str = ""  # why the row must be skipped, when it must


@dataclass
class CensusOptions:
    max_crossings: int | None = None
    jobs: int = 1
    timeout_ms: int | None = None
    resume: dict[str, str] = field(default_factory=dict)  # name -> hash


def ingest(path: str) -> list[TableRow]:
    """Read a census table; structural problems raise, row problems don't."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = {"name", "pd_notation"} - set(header)
            if missing:
                raise MissingColumns(
                    f"{path}: missing columns {sorted(missing)}"
                )
            rows = []
            first_line: dict[str, int] = {}
            for i, raw in enumerate(reader, start=2):
                name = (raw.get("name") or "").strip()
                pd_text = (raw.get("pd_notation") or "").strip()
                beta_text = (raw.get("bridge_number") or "").strip()
                beta, problem = None, ""
                if not name or not pd_text:
                    problem = "missing name or pd_notation"
                elif first_line.setdefault(name, i) != i:
                    # records are keyed by name
                    problem = (f"duplicate name {name!r} "
                               f"(first on line {first_line[name]})")
                elif beta_text:
                    try:
                        beta = int(beta_text)
                    except ValueError:
                        problem = f"bad bridge_number {beta_text!r}"
                rows.append(TableRow(name, pd_text, beta, i, problem))
            return rows
    except MissingColumns:
        raise
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FileUnreadable(f"cannot parse {path}: {exc}") from exc


def _crossing_count(pd_text: str) -> int:
    return len(_TUPLE_RE.findall(pd_text))


def _process_row(args: tuple[int, str, str, int | None, int | None]) -> dict:
    """Worker: compute one row.  Must stay picklable for process pools."""
    index, name, pd_text, beta_ref, timeout_ms = args
    started = time.monotonic()
    deadline = started + timeout_ms / 1000.0 if timeout_ms else None
    try:
        d = parse_pd(pd_text)
        g = build_dual(d)
        w, wcert = omega(d, deadline=deadline)
        r, _ = rho(d, dual=g, deadline=deadline, omega_result=(w, wcert))
        assert r <= w <= d.n
    except ComputeTimeout:
        return {"index": index, "name": name, "status": "timeout"}
    except PlainSphereError as exc:
        return {"index": index, "name": name, "status": "skipped",
                "reason": f"{type(exc).__name__}: {exc}"}
    except Exception as exc:  # one faulty row must not cost the others
        return {"index": index, "name": name, "status": "skipped",
                "reason": f"error: {type(exc).__name__}: {exc}"}
    millis = (time.monotonic() - started) * 1000.0
    bound_ok = ""
    if beta_ref is not None:
        bound_ok = "true" if (r >= beta_ref and w >= beta_ref) else "false"
    return {
        "index": index,
        "status": "ok",
        "record": {
            "name": name,
            "n": d.n,
            "strands": len(d.strands),
            "omega": w,
            "rho": r,
            "beta_ref": beta_ref if beta_ref is not None else "",
            "strict_gap": w - r,
            "bound_ok": bound_ok,
            "millis": round(millis, 1),
            "diagram_hash": d.content_hash,
        },
    }


def run_census(rows: list[TableRow],
               options: CensusOptions) -> tuple[list[dict], dict]:
    """Process eligible rows, return (records, summary).

    Records keep the input order regardless of worker scheduling.
    """
    skipped: list[dict] = []
    tasks: list[tuple[int, str, str, int | None, int | None]] = []
    for idx, row in enumerate(rows):
        if row.problem:
            skipped.append({"name": row.name or f"line {row.line}",
                            "reason": row.problem})
            continue
        if row.name in options.resume:
            recorded = options.resume[row.name]
            try:
                same = recorded == parse_pd(row.pd_text).content_hash
                reason = ALREADY_RECORDED if same else NAME_TAKEN
            except PlainSphereError as exc:  # as _process_row reports it
                reason = f"{type(exc).__name__}: {exc}"
            skipped.append({"name": row.name, "reason": reason})
            continue
        if (options.max_crossings is not None
                and _crossing_count(row.pd_text) > options.max_crossings):
            skipped.append({"name": row.name,
                            "reason": f"more than {options.max_crossings} crossings"})
            continue
        tasks.append((idx, row.name, row.pd_text, row.beta_ref,
                      options.timeout_ms))
    if options.jobs > 1 and len(tasks) > 1:
        # imported here: a serial run never pays for the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=options.jobs) as pool:
            results = list(pool.map(_process_row, tasks))
    else:
        results = [_process_row(t) for t in tasks]
    results.sort(key=lambda r: r["index"])
    records = []
    timed_out = []
    for res in results:
        if res["status"] == "ok":
            records.append(res["record"])
        elif res["status"] == "timeout":
            timed_out.append(res["name"])
        else:
            skipped.append({"name": res["name"], "reason": res["reason"]})
    summary = {
        "totals": {
            "rows": len(rows),
            "eligible": len(tasks),
            "completed": len(records),
            "skipped": len(skipped),
            "timed_out": len(timed_out),
        },
        "gap_count": sum(1 for r in records if r["strict_gap"] >= 1),
        "violation_count": sum(1 for r in records if r["bound_ok"] == "false"),
        "timeout_count": len(timed_out),
        "timed_out_names": timed_out,
        "skipped_rows": skipped,
    }
    return records, summary


def existing_records(path: str) -> dict[str, str]:
    """Name -> diagram hash of each row of a records CSV (for resume)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                return {}  # empty file: nothing was recorded
            if "diagram_hash" not in reader.fieldnames:
                raise FileUnreadable(
                    f"{path}: records have no diagram_hash column; "
                    "rerun with --fresh")
            return {row["name"]: row["diagram_hash"] for row in reader
                    if row.get("name")}
    except FileNotFoundError:
        return {}
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FileUnreadable(f"cannot parse {path}: {exc}") from exc


def write_records(path: str, records: list[dict], append: bool) -> None:
    mode = "a" if append else "w"
    with open(path, mode, newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_COLUMNS)
        if not append:
            writer.writeheader()
        for rec in records:
            writer.writerow(rec)


def write_summary(path: str, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
