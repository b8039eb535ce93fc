"""Batch computation of omega and rho over knot-table CSV files.

Input tables carry columns ``name`` and ``pd_notation``, optionally
``bridge_number``.  Each diagram is processed independently: parse
failures, non-integer bridge numbers, a name already used by an earlier
row and any unexpected error while computing skip the row with a
reason, a per-diagram timeout marks the row timed out, and none of them
produces fabricated numbers in the output.  A row asks the engine for
values only, so no certificate is built.  Each row has one outcome,
a record or a skip reason (neither: timed out), kept in input order
whether the row was skipped before computing or while.  With ``jobs``
above 1, where ``os.fork`` exists, the rows go to up to ``jobs`` forked
workers in contiguous chunks of ``CHUNK_ROWS``, one chunk in flight per
worker: a worker reads the start of its next chunk from one pipe and
writes the chunk's outcomes to another as a line of JSON.  A worker
that dies costs only the chunk it was computing: each of its rows is
skipped with the reason ``worker died: exit N`` (``signal N`` when a
signal ended it) and gets no record, so a resume computes it, and a new
worker takes the chunks left.  Tables and records are read as UTF-8, a
leading BOM dropped, and ``psk census`` opens its records and summary
files for append before it computes any row, so an unwritable path
costs no work.

Records are written while the table runs: ``psk census`` appends each
chunk's records as the chunk finishes (each row's, in a serial run), so
the records file holds them in completion order, and closes the file
after each chunk, which flushes it.  An interrupted sweep keeps every
row it finished, and a resume computes only the rest; in a pooled sweep
the interrupt also kills the workers, so no chunk is computed after it,
and every worker is reaped before ``run_census`` returns or raises.  The
returned records and the summary keep input order.

Records land in a CSV with the columns

    name,n,strands,omega,rho,beta_ref,strict_gap,bound_ok,millis,diagram_hash

plus a JSON summary of totals.  Re-runs resume by skipping rows whose
name and diagram hash already appear together in the records file, so
long sweeps can run in append-only slices; a row whose name is recorded
for another diagram is skipped with its own reason and never computed
under that name, and one whose PD text no longer parses with its parse
error; a records file that appended rows would not line up with is
refused.  The tabulated bridge number is never consulted by the search
itself; it is only compared against the results afterwards, keeping the
lower-bound check honest.
"""

from __future__ import annotations

import csv
import io
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
# Rows per chunk a worker computes between two messages to the parent.
# braid_census (150 rows, 2 workers, 2-core host), medians of 15 s runs
# for 1, 2, 4 and 8 rows: wall_s 0.157, 0.154, 0.152, 0.151 s (seed 1)
# and -, 0.154, 0.156, 0.152 s (seed 3); item_ms_p98 5.1-5.6 ms for
# each, within the runs' spread.  Longer chunks cost a dead worker more.
CHUNK_ROWS = 8
# A worker's exit status after KeyboardInterrupt, as a shell reports a
# command that Ctrl-C ended; the parent raises KeyboardInterrupt on it.
INTERRUPTED = 130


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


def ingest(path: str) -> list[TableRow]:
    """Read a census table; structural problems raise, row problems don't.
    A leading UTF-8 BOM is dropped, and so is a blank line.  Each row is
    numbered by the first line it spans, as a quoted field may span
    more."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header, raw_rows = next(reader, []), []
            first = reader.line_num + 1
            for fields in reader:
                if fields:  # a blank line reads as no fields
                    raw_rows.append((first, dict(zip(header, fields))))
                first = reader.line_num + 1
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FileUnreadable(f"cannot parse {path}: {exc}") from exc
    missing = {"name", "pd_notation"} - set(header)
    if missing:
        raise MissingColumns(f"{path}: missing columns {sorted(missing)}")
    rows = []
    first_line: dict[str, int] = {}
    for i, raw in raw_rows:
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


def _skip_reason(row: TableRow, options: CensusOptions) -> str | None:
    """Why `row` is skipped before it is computed, or None: its ingest
    problem, its name already in the records, or too many crossings."""
    if row.problem:
        return row.problem
    if row.name in options.resume:
        try:
            same = (options.resume[row.name]
                    == parse_pd(row.pd_text).content_hash)
        except PlainSphereError as exc:  # as _process_row reports it
            return f"{type(exc).__name__}: {exc}"
        return ALREADY_RECORDED if same else NAME_TAKEN
    if (options.max_crossings is not None
            and len(TUPLE_RE.findall(row.pd_text)) > options.max_crossings):
        return f"more than {options.max_crossings} crossings"
    return None


def _process_row(task: tuple[str, str, int | None, int | None]
                 ) -> tuple[dict | None, str | None]:
    """Compute one row, as (record, None), (None, skip reason), or
    (None, None) when it timed out; a record's fields survive JSON."""
    name, pd_text, beta_ref, timeout_ms = task
    started = time.monotonic()
    deadline = started + timeout_ms / 1000.0 if timeout_ms else None
    try:
        d = parse_pd(pd_text)
        g = build_dual(d)
        # values only: a census writes no certificate
        r, _ = rho(d, dual=g, deadline=deadline, certificate=False)
        w, _ = omega(d, deadline=deadline, certificate=False)  # rho's result
    except ComputeTimeout:
        return None, None
    except PlainSphereError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # one faulty row must not cost the others
        return None, f"error: {type(exc).__name__}: {exc}"
    if not r <= w <= d.n:  # a value is exact or absent
        return None, (f"error: impossible values rho={r}, omega={w} "
                      f"on {d.n} strands")
    millis = (time.monotonic() - started) * 1000.0
    bound_ok = ""
    if beta_ref is not None:  # r <= w, checked above, so r decides
        bound_ok = "true" if r >= beta_ref else "false"
    return {
        "name": name,
        "n": d.n,
        "strands": len(d.strands),
        "omega": w,
        "rho": r,
        "beta_ref": beta_ref if beta_ref is not None else "",
        "strict_gap": w - r,
        "bound_ok": bound_ok,
        "millis": round(millis, 3),
        "diagram_hash": d.content_hash,
    }, None


class _Worker:
    """A forked worker as the parent sees it: its pid, the write end of
    its task pipe, the read end of its result pipe, and the start of the
    chunk it is computing (None: idle)."""

    __slots__ = ("pid", "tasks", "results", "start")

    def __init__(self, pid: int, tasks: int, results) -> None:
        self.pid, self.tasks, self.results = pid, tasks, results
        self.start: int | None = None


def _serve(tasks: list, size: int, inbox: int, outbox: int) -> None:
    """Worker: for each chunk start read from `inbox`, write the chunk's
    outcomes to `outbox` as one line of JSON; return at EOF, when the
    parent has no chunk left or is gone.  `_process_row` is looked up at
    each row, so a replacement of it is the function that runs."""
    with open(inbox, "rb") as starts, \
            open(outbox, "w", encoding="utf-8") as out:
        for line in starts:
            start = int(line)
            print(json.dumps([_process_row(task)
                              for task in tasks[start:start + size]]),
                  file=out, flush=True)


def _fork_worker(tasks: list, size: int, workers: list[_Worker]) -> _Worker:
    """Fork a worker that serves chunks of `tasks` over two new pipes.
    When a pipe or the fork fails, the pipe ends opened are closed."""
    ends: list[int] = []
    try:
        ends.extend(os.pipe())
        ends.extend(os.pipe())
        pid = os.fork()
    except BaseException:
        for fd in ends:
            os.close(fd)
        raise
    task_r, task_w, result_r, result_w = ends
    if pid == 0:
        status = 1
        try:
            # Only its own two ends stay open, so the worker reads EOF
            # when the parent is gone, and the parent when it is.
            os.close(task_w)
            os.close(result_r)
            for other in workers:
                os.close(other.tasks)
                other.results.close()
            _serve(tasks, size, task_r, result_w)
            status = 0
        except KeyboardInterrupt:
            status = INTERRUPTED
        finally:
            os._exit(status)
    os.close(task_r)
    os.close(result_w)
    return _Worker(pid, task_w, open(result_r, "rb"))


def _pooled(tasks: list, size: int, jobs: int,
            finish: Callable[[int, list], None]) -> None:
    """Compute `tasks` in chunks of `size` on at most `jobs` forked
    workers, one chunk in flight per worker, and call `finish(start,
    outcomes)` for each chunk as it finishes.  A worker that dies costs
    the chunk it was computing, whose rows get the reason ``worker died:
    exit N`` (or ``signal N``), and a new worker takes the chunks left.
    A worker interrupted by KeyboardInterrupt raises it here.  Every
    worker is reaped before this returns or raises; on an exception, the
    workers still computing are killed first.  The caller must have no
    other thread, as ``psk census`` has none: a thread holding a lock at
    the fork would leave the lock held in the worker."""
    import select  # here: a serial run never pays for it
    starts = range(0, len(tasks), size)
    given = 0  # chunks handed out
    workers: dict[int, _Worker] = {}  # by the fd of its result pipe
    # poll, not select: select refuses a descriptor of 1024 or more
    ready = select.poll()

    def give(worker: _Worker) -> None:
        nonlocal given
        worker.start = None
        if given < len(starts):
            try:
                os.write(worker.tasks, b"%d\n" % starts[given])
            except BrokenPipeError:  # it died idle; its EOF comes next
                return
            worker.start = starts[given]
            given += 1

    try:
        while given < len(starts) or any(
                w.start is not None for w in workers.values()):
            while given < len(starts) and len(workers) < jobs:
                worker = _fork_worker(tasks, size, list(workers.values()))
                workers[worker.results.fileno()] = worker
                ready.register(worker.results, select.POLLIN)
                give(worker)
            for fd, _ in ready.poll():
                worker = workers[fd]
                line = worker.results.readline()
                if line.endswith(b"\n"):
                    start = worker.start
                    give(worker)  # it computes while `finish` emits
                    finish(start, [tuple(outcome)
                                   for outcome in json.loads(line)])
                    continue
                del workers[fd]  # EOF: the worker has ended
                ready.unregister(fd)
                os.close(worker.tasks)
                worker.results.close()
                code = os.waitstatus_to_exitcode(os.waitpid(worker.pid, 0)[1])
                if code == INTERRUPTED:
                    raise KeyboardInterrupt
                if worker.start is not None:
                    how = f"exit {code}" if code >= 0 else f"signal {-code}"
                    lost = min(size, len(tasks) - worker.start)
                    finish(worker.start,
                           [(None, f"worker died: {how}")] * lost)
    except BaseException:
        # the chunks in flight are abandoned with the sweep
        from signal import SIGKILL
        for worker in workers.values():
            os.kill(worker.pid, SIGKILL)
        raise
    finally:
        for worker in workers.values():  # EOF on its task pipe ends it
            os.close(worker.tasks)
            worker.results.close()
        for worker in workers.values():
            os.waitpid(worker.pid, 0)


def run_census(rows: list[TableRow], options: CensusOptions,
               emit: Callable[[list[dict]], None] | None = None
               ) -> tuple[list[dict], dict]:
    """Process eligible rows, return (records, summary).

    `emit`, when given, receives the records of each chunk as it
    finishes, or of each row in a serial run, possibly none, so a caller
    can keep them before the table is done.  The returned records and
    the summary keep input order regardless of worker scheduling.
    """
    outcomes: list[tuple[dict | None, str | None]] = [
        (None, _skip_reason(row, options)) for row in rows]
    todo = [i for i, (_, reason) in enumerate(outcomes) if reason is None]
    tasks = [(rows[i].name, rows[i].pd_text, rows[i].beta_ref,
              options.timeout_ms) for i in todo]

    def finish(start: int, done: list[tuple[dict | None, str | None]]) -> None:
        for i, outcome in zip(todo[start:], done):
            outcomes[i] = outcome
        if emit is not None:
            emit([record for record, _ in done if record is not None])

    if options.jobs > 1 and len(tasks) > 1 and hasattr(os, "fork"):
        # never fewer chunks than workers, while there are rows for them
        size = min(CHUNK_ROWS, -(-len(tasks) // options.jobs))
        _pooled(tasks, size, options.jobs, finish)
    else:
        for i, task in enumerate(tasks):
            finish(i, [_process_row(task)])
    records = [record for record, _ in outcomes if record is not None]
    skipped = [{"name": row.name or f"line {row.line}", "reason": reason}
               for row, (_, reason) in zip(rows, outcomes) if reason]
    timed_out = [row.name for row, outcome in zip(rows, outcomes)
                 if outcome == (None, None)]
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
    """Name -> diagram hash of each row of a records CSV (for resume).
    A file appended records would not line up with is refused, naming the
    line: a header other than ``RECORD_COLUMNS``, a row of another width
    or a last line cut short, as a killed sweep leaves it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except FileNotFoundError:
        return {}
    except (OSError, UnicodeDecodeError) as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise FileUnreadable(f"cannot parse {path}: {exc}") from exc
    if not rows:
        return {}  # empty file: nothing was recorded
    odd = [line for line, row in rows if len(row) != len(RECORD_COLUMNS)]
    if tuple(rows[0][1]) != RECORD_COLUMNS:
        problem = (f"line {rows[0][0]}: header is not "
                   + ",".join(RECORD_COLUMNS))
    elif not text.endswith("\n"):
        problem = f"line {rows[-1][0]}: cut short"
    elif odd:
        problem = f"line {odd[0]}: not {len(RECORD_COLUMNS)} fields"
    else:
        return {row[0]: row[-1] for _, row in rows[1:] if row[0]}
    raise FileUnreadable(f"{path}, {problem}; records cannot be appended: "
                         "delete or mend that line, or rerun with --fresh")


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
