"""Batch computation of omega and rho over knot-table CSV files.

Input tables carry columns ``name`` and ``pd_notation``, optionally
``bridge_number``.  Each diagram is processed independently: parse
failures, non-integer bridge numbers, a name already used by an earlier
row and any unexpected error while computing skip the row with a
reason, a per-diagram timeout marks the row timed out, and none of them
produces fabricated numbers in the output.  Each computed row has one
outcome, a record or a skip reason (neither: timed out), paired with its
row in input order.  With ``jobs`` above 1, rows go to the pool in
contiguous chunks, one task per chunk (``CHUNK_ROWS``).  When a pool
worker dies, the chunks that finished keep their outcomes, and each row
of a chunk the pool never returned is skipped with the reason
``worker died: BrokenProcessPool``; it gets no record, so a resume
computes it.  Tables and records are read as UTF-8, a leading BOM
dropped, and ``psk census`` opens the records file for append before it
computes any row, so an unwritable path costs no work.

Records are written while the table runs: ``psk census`` appends each
chunk's records as the chunk finishes (each row's, in a serial run), so
the records file holds them in completion order, and closes the file
after each chunk, which flushes it.  An interrupted sweep keeps every
row it finished, and a resume computes only the rest; in a pooled sweep
the interrupt also cancels the chunks no worker has taken.  The
returned records and the summary keep input order.

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
import os
import time
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .diagram import TUPLE_RE, parse_pd
from .dual import build_dual
from .engine import omega, rho
from .errors import ComputeTimeout, FileUnreadable, MissingColumns, PlainSphereError

RECORD_COLUMNS = ("name", "n", "strands", "omega", "rho", "beta_ref",
                  "strict_gap", "bound_ok", "millis", "diagram_hash")
ALREADY_RECORDED = "already in records"
NAME_TAKEN = "name already in records for another diagram"
# Rows per pool task.  One task per row cost the parent more CPU in
# sending than a chunk does, and short chunks still balance a heavy row.
CHUNK_ROWS = 4


class TableRow(NamedTuple):
    name: str
    pd_text: str
    beta_ref: int | None
    line: int
    problem: str = ""  # why the row must be skipped, when it must


class CensusOptions(NamedTuple):
    max_crossings: int | None = None
    jobs: int = 1
    timeout_ms: int | None = None
    resume: Mapping[str, str] = MappingProxyType({})  # name -> hash


def _read_csv(path: str) -> tuple[list[str], list[dict[str, str]]]:
    """(header, rows) of a CSV file; a leading UTF-8 BOM is dropped."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            return reader.fieldnames or [], list(reader)
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FileUnreadable(f"cannot parse {path}: {exc}") from exc


def ingest(path: str) -> list[TableRow]:
    """Read a census table; structural problems raise, row problems don't."""
    header, raw_rows = _read_csv(path)
    missing = {"name", "pd_notation"} - set(header)
    if missing:
        raise MissingColumns(f"{path}: missing columns {sorted(missing)}")
    rows = []
    first_line: dict[str, int] = {}
    for i, raw in enumerate(raw_rows, start=2):
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


def _process_row(task: tuple[str, str, int | None, int | None]
                 ) -> tuple[dict | None, str | None]:
    """Worker: compute one row, as (record, None), (None, skip reason), or
    (None, None) when it timed out.  Must stay picklable for process pools."""
    name, pd_text, beta_ref, timeout_ms = task
    started = time.monotonic()
    deadline = started + timeout_ms / 1000.0 if timeout_ms else None
    try:
        d = parse_pd(pd_text)
        g = build_dual(d)
        w, wcert = omega(d, deadline=deadline)
        r, _ = rho(d, dual=g, deadline=deadline, omega_result=(w, wcert))
        assert r <= w <= d.n
    except ComputeTimeout:
        return None, None
    except PlainSphereError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # one faulty row must not cost the others
        return None, f"error: {type(exc).__name__}: {exc}"
    millis = (time.monotonic() - started) * 1000.0
    bound_ok = ""
    if beta_ref is not None:
        bound_ok = "true" if (r >= beta_ref and w >= beta_ref) else "false"
    return {
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
    }, None


def _process_chunk(tasks: list[tuple[str, str, int | None, int | None]]
                   ) -> list[tuple[dict | None, str | None]]:
    """Worker: the outcomes of a chunk of rows.  `_process_row` is looked
    up at each call, so a replacement of it is the function that runs."""
    return [_process_row(task) for task in tasks]


def run_census(rows: list[TableRow], options: CensusOptions,
               emit: Callable[[list[dict]], None] | None = None
               ) -> tuple[list[dict], dict]:
    """Process eligible rows, return (records, summary).

    `emit`, when given, receives the records of each chunk as it
    finishes, or of each row in a serial run, possibly none, so a caller
    can keep them before the table is done.  The returned records and
    the summary keep input order regardless of worker scheduling.
    """
    skipped: list[dict] = []
    tasks: list[tuple[str, str, int | None, int | None]] = []
    for row in rows:
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
                and len(TUPLE_RE.findall(row.pd_text)) > options.max_crossings):
            skipped.append({"name": row.name,
                            "reason": f"more than {options.max_crossings} crossings"})
            continue
        tasks.append((row.name, row.pd_text, row.beta_ref, options.timeout_ms))
    outcomes: list[tuple[dict | None, str | None]] = [(None, None)] * len(tasks)

    def finish(start: int, done: list[tuple[dict | None, str | None]]) -> None:
        outcomes[start:start + len(done)] = done
        if emit is not None:
            emit([record for record, _ in done if record is not None])

    if options.jobs > 1 and len(tasks) > 1:
        # imported here: a serial run never pays for the pool machinery
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool
        # never fewer chunks than workers, while there are rows for them
        size = min(CHUNK_ROWS, -(-len(tasks) // options.jobs))
        starts = range(0, len(tasks), size)
        pool = ProcessPoolExecutor(max_workers=min(options.jobs, len(starts)))
        try:
            chunks = {pool.submit(_process_chunk, tasks[i:i + size]): i
                      for i in starts}
            for future in as_completed(chunks):
                start = chunks[future]
                try:
                    done = future.result()
                except BrokenProcessPool as exc:  # a worker died first
                    lost = min(size, len(tasks) - start)
                    done = [(None, f"worker died: {type(exc).__name__}")] * lost
                finish(start, done)
        finally:
            # an interrupt leaves the chunks no worker has taken uncomputed
            pool.shutdown(cancel_futures=True)
    else:
        for i, task in enumerate(tasks):
            finish(i, [_process_row(task)])
    records = []
    timed_out = []
    for (name, *_), (record, reason) in zip(tasks, outcomes):
        if record is not None:
            records.append(record)
        elif reason is None:
            timed_out.append(name)
        else:
            skipped.append({"name": name, "reason": reason})
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
    if not os.path.exists(path):
        return {}
    header, rows = _read_csv(path)
    if not header:
        return {}  # empty file: nothing was recorded
    if "diagram_hash" not in header:
        raise FileUnreadable(
            f"{path}: records have no diagram_hash column; rerun with --fresh")
    return {row["name"]: row["diagram_hash"] for row in rows if row.get("name")}


def write_records(path: str, records: list[dict], append: bool) -> None:
    """Append `records` to the CSV at `path`, or start it over with a
    header; the file is closed, so flushed, on return."""
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
