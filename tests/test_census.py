"""Census ingestion, batch runs, persistence, and resume."""

from __future__ import annotations

import csv
import errno
import gc
import json
import os
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import pytest

import plainsphere.census
from plainsphere import cli
from plainsphere.census import (ALREADY_RECORDED, CHUNK_ROWS, NAME_TAKEN,
                                RECORD_COLUMNS, CensusOptions, TableRow,
                                _process_row, existing_records, ingest,
                                run_census, write_records, write_summary)
from plainsphere.diagram import parse_pd
from plainsphere.errors import FileUnreadable, MissingColumns

from conftest import BRAID30_PD, TREFOIL_PD, table_path


def small_options(**kw) -> CensusOptions:
    return CensusOptions(**kw)


def _worker_dies_on_trefoil(task):
    """The census row function, except that the worker computing the
    trefoil row dies."""
    if task[0] == "trefoil":
        os._exit(1)
    return _process_row(task)


class TestIngest:
    def test_bundled_tables(self):
        assert len(ingest(table_path("fixtures_small.csv"))) == 25
        assert len(ingest(table_path("bridge_table_10.csv"))) == 12
        assert len(ingest(table_path("slice14.csv"))) == 5

    def test_beta_optional(self):
        rows = ingest(table_path("fixtures_small.csv"))
        by_name = {r.name: r for r in rows}
        assert by_name["trefoil"].beta_ref == 2
        assert by_name["k5a"].beta_ref is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileUnreadable):
            ingest(str(tmp_path / "nope.csv"))

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,pd\nx,y\n")
        with pytest.raises(MissingColumns):
            ingest(str(path))

    def test_bad_bridge_number_skips_only_its_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "name,pd_notation,bridge_number\n"
            f'ok,"{TREFOIL_PD}",2\n'
            f'worded,"{TREFOIL_PD}",two\n'
        )
        records, summary = run_census(ingest(str(path)), small_options())
        assert [r["name"] for r in records] == ["ok"]
        assert summary["skipped_rows"] == [
            {"name": "worded", "reason": "bad bridge_number 'two'"}]

    def test_duplicate_name_skips_the_later_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "name,pd_notation,bridge_number\n"
            f'k,"{TREFOIL_PD}",2\n'
            'k,"X(2,1,3,4) X(4,3,1,2)",2\n'
        )
        records, summary = run_census(ingest(str(path)), small_options())
        assert [(r["name"], r["n"]) for r in records] == [("k", 3)]
        assert summary["skipped_rows"] == [
            {"name": "k", "reason": "duplicate name 'k' (first on line 2)"}]

    def test_lines_counted_past_blank_lines(self, tmp_path):
        """Blank lines are skipped but counted: rows on lines 3, 5 and 6
        keep those numbers, and the duplicate's reason names line 3."""
        path = tmp_path / "t.csv"
        path.write_text(
            "name,pd_notation,bridge_number\n"
            "\n"
            f'k,"{TREFOIL_PD}",2\n'
            "\n"
            'k,"X(2,1,3,4) X(4,3,1,2)",2\n'
            ',"X(2,1,3,4) X(4,3,1,2)",2\n'
        )
        rows = ingest(str(path))
        assert [(r.name, r.line) for r in rows] == [("k", 3), ("k", 5),
                                                    ("", 6)]
        assert rows[1].problem == "duplicate name 'k' (first on line 3)"
        assert rows[2].problem == "missing name or pd_notation"

    def test_row_numbered_by_its_first_line(self, tmp_path):
        """A quoted field that spans lines 2 and 3 puts its row on line
        2, and the next row on line 4."""
        path = tmp_path / "t.csv"
        path.write_text(
            "name,pd_notation\n"
            'k,"X(1,4,2,5) X(3,6,4,1)\nX(5,2,6,3)"\n'
            "k,X(1,2,2,1)\n"
        )
        rows = ingest(str(path))
        assert [r.line for r in rows] == [2, 4]
        assert rows[1].problem == "duplicate name 'k' (first on line 2)"

    def test_missing_bridge_column_is_fine(self, tmp_path):
        path = tmp_path / "t.csv"
        table = f'name,pd_notation\ntrefoil,"{TREFOIL_PD}"\n'
        for text in (table, "\ufeff" + table):  # a spreadsheet's BOM too
            path.write_text(text, encoding="utf-8")
            (row,) = ingest(str(path))
            assert row.beta_ref is None and row.pd_text == TREFOIL_PD


class TestRunCensus:
    def test_small_table_completes(self):
        rows = ingest(table_path("fixtures_small.csv"))
        records, summary = run_census(rows, small_options())
        assert len(records) == 25
        assert summary["violation_count"] == 0
        assert summary["gap_count"] == 0  # omega == rho on all small rows
        by_name = {r["name"]: r for r in records}
        assert by_name["trefoil"]["omega"] == by_name["trefoil"]["rho"] == 2
        assert by_name["trefoil"]["bound_ok"] == "true"
        assert by_name["k5a"]["beta_ref"] == ""  # untabulated
        assert by_name["k5a"]["bound_ok"] == ""
        for rec in records:
            assert 1 <= rec["rho"] <= rec["omega"] <= rec["strands"]
            assert rec["strict_gap"] == rec["omega"] - rec["rho"]

    def test_millis_at_microsecond_resolution(self, monkeypatch):
        """A row's millis keeps the microseconds: a typical row takes
        about half a millisecond, so a coarser step would hide changes
        in the latencies read from the records."""
        clock = iter([7.0, 7.00123])
        monkeypatch.setattr(plainsphere.census, "time", types.SimpleNamespace(
            monotonic=lambda: next(clock)))
        record, reason = _process_row(("trefoil", TREFOIL_PD, None, None))
        assert reason is None and record["millis"] == 1.23

    def test_omega_searched_once_per_row(self, monkeypatch):
        """Each row runs rho and then omega, which reads rho's result, once
        each, asking for values only.  At most one Wirtinger search runs
        per row: none when rho's first set Wirtinger-saturates or no set
        below the irredundant greedy subset's size m saturates, as then
        omega = rho or omega = rho = m; else one from rho's size, inside
        rho.  On k14n1527 (omega 4, rho 3) that one search tries sizes 3
        and 4."""
        import plainsphere.engine
        calls, searches = Counter(), Counter()
        for name in ("omega", "rho"):
            monkeypatch.setattr(
                plainsphere.census, name,
                lambda *args, _real=getattr(plainsphere.census, name),
                _name=name, **kwargs: calls.update([_name])
                or _real(*args, **kwargs))
        search = plainsphere.engine._search

        def counted(d, dual, coloring, sizes, *args):
            if dual is None and sizes:  # a Wirtinger search
                searches[d.content_hash] += 1
            return search(d, dual, coloring, sizes, *args)

        monkeypatch.setattr(plainsphere.engine, "_search", counted)
        rows = (ingest(table_path("fixtures_small.csv"))
                + ingest(table_path("slice14.csv")))
        records, summary = run_census(rows, small_options(jobs=1))
        assert len(records) == 30 and summary["gap_count"] == 1
        assert calls == {"omega": 30, "rho": 30}
        by_row = {r["name"]: searches[r["diagram_hash"]] for r in records}
        assert by_row["k14n1527"] == 1
        assert set(by_row.values()) == {0, 1}

    def test_unexpected_error_skips_only_its_row(self, monkeypatch):
        import plainsphere.census
        rows = ingest(table_path("fixtures_small.csv"))
        target = parse_pd(
            next(r.pd_text for r in rows if r.name == "trefoil")).content_hash
        real = plainsphere.census.rho

        def faulty(d, **kwargs):
            if d.content_hash == target:
                raise AssertionError("engine invariant broken")
            return real(d, **kwargs)

        monkeypatch.setattr(plainsphere.census, "rho", faulty)
        records, summary = run_census(rows, small_options(jobs=1))
        assert len(records) == 24
        assert "trefoil" not in {r["name"] for r in records}
        assert summary["skipped_rows"] == [
            {"name": "trefoil",
             "reason": "error: AssertionError: engine invariant broken"}]

    def test_impossible_values_skip_the_row_under_O(self):
        """A rho above omega breaks rho <= omega: the row is skipped with
        an ``error:`` reason and gets no record, also under ``python -O``,
        which strips ``assert`` statements."""
        src = Path(plainsphere.census.__file__).resolve().parents[1]
        probe = ("import json, plainsphere.census as census; "
                 "census.rho = lambda d, **kwargs: (d.n, None); "
                 "print(json.dumps([__debug__, census._process_row("
                 f"('trefoil', {TREFOIL_PD!r}, 2, None))]))")
        out = subprocess.run([sys.executable, "-O", "-c", probe], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert json.loads(out) == [
            False,  # -O is in force
            [None, "error: impossible values rho=3, omega=2 on 3 strands"]]

    def test_results_independent_of_jobs(self):
        rows = ingest(table_path("fixtures_small.csv"))
        solo, _ = run_census(rows, small_options(jobs=1))
        pooled, _ = run_census(rows, small_options(jobs=4))
        strip = lambda recs: [{k: v for k, v in r.items() if k != "millis"}
                              for r in recs]
        assert strip(solo) == strip(pooled)

    def test_slice_contains_the_gap(self):
        rows = ingest(table_path("slice14.csv"))
        records, summary = run_census(rows, small_options(jobs=4))
        assert summary["gap_count"] == 1
        gap = next(r for r in records if r["strict_gap"] >= 1)
        assert gap["name"] == "k14n1527"
        assert (gap["omega"], gap["rho"]) == (4, 3)

    def test_max_crossings_filter(self):
        rows = ingest(table_path("fixtures_small.csv"))
        records, summary = run_census(rows, small_options(max_crossings=4))
        assert all(r["n"] <= 4 for r in records)
        assert summary["totals"]["completed"] == len(records) == 14
        reasons = {s["reason"] for s in summary["skipped_rows"]}
        assert reasons == {"more than 4 crossings"}

    def test_unparseable_rows_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "name,pd_notation,bridge_number\n"
            f'ok,"{TREFOIL_PD}",2\n'
            'bad,"X(1,2,3)",\n'
            'splitter,"X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) '
            'X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)",\n'
            'blank,"",\n'
        )
        records, summary = run_census(ingest(str(path)), small_options())
        assert [r["name"] for r in records] == ["ok"]
        skipped = {s["name"]: s["reason"] for s in summary["skipped_rows"]}
        assert "MalformedPD" in skipped["bad"]
        assert "DisconnectedProjection" in skipped["splitter"]
        assert skipped["blank"] == "missing name or pd_notation"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_skipped_rows_in_input_order(self, tmp_path, jobs):
        """Rows skipped before computing (no name, a bad bridge number)
        and while computing (a parse error) are listed together in input
        order."""
        path = tmp_path / "t.csv"
        path.write_text(
            "name,pd_notation,bridge_number\n"
            "garbage,garbage,\n"
            f'trefoil,"{TREFOIL_PD}",2\n'
            f',"{TREFOIL_PD}",\n'
            f'bad,"{TREFOIL_PD}",two\n'
        )
        records, summary = run_census(ingest(str(path)),
                                      small_options(jobs=jobs))
        assert [r["name"] for r in records] == ["trefoil"]
        assert [(s["name"], s["reason"].split(":")[0])
                for s in summary["skipped_rows"]] == [
            ("garbage", "MalformedPD"),
            ("line 4", "missing name or pd_notation"),
            ("bad", "bad bridge_number 'two'")]

    def test_timeout_rows_never_fabricate(self):
        rows = [TableRow("braid30", BRAID30_PD, None, 2)]
        records, summary = run_census(
            rows, small_options(timeout_ms=1, jobs=1))
        assert records == []
        assert summary["timeout_count"] == 1
        assert summary["timed_out_names"] == ["braid30"]

    def test_rows_leave_no_cyclic_garbage(self):
        """A computed row frees all it built when it returns, with no GC
        pass: the searches' recursive closures would otherwise keep their
        closures, duals and memos alive in reference cycles.  slice14
        reaches the seed-set search, fixtures_small only the bounds."""
        rows = (ingest(table_path("fixtures_small.csv"))
                + ingest(table_path("slice14.csv")))
        gc.collect()
        gc.disable()
        try:
            for row in rows:
                record, _ = _process_row((row.name, row.pd_text,
                                          row.beta_ref, None))
                assert record is not None, row.name
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_empty_row_list(self):
        records, summary = run_census([], small_options())
        assert records == [] and summary["totals"]["rows"] == 0
        assert summary["gap_count"] == summary["violation_count"] == 0


class TestPersistence:
    def test_write_and_resume(self, tmp_path):
        rows = ingest(table_path("slice14.csv"))
        records, summary = run_census(rows, small_options(jobs=4))
        rec_path = tmp_path / "records.csv"
        write_records(str(rec_path), records, append=False)
        with open(rec_path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == RECORD_COLUMNS
            assert len(list(reader)) == 5

        done = existing_records(str(rec_path))
        assert set(done) == {"k14n1527", "t37", "sum77", "sum5_9", "turk14"}
        assert done == {r.name: parse_pd(r.pd_text).content_hash
                        for r in rows}

        # a resumed run recomputes nothing
        again, summary2 = run_census(rows, small_options(resume=done))
        assert again == []
        assert summary2["totals"]["eligible"] == 0
        assert all(s["reason"] == ALREADY_RECORDED
                   for s in summary2["skipped_rows"])

    def test_dead_worker_keeps_finished_rows(self, monkeypatch):
        """A worker that dies costs only the rows it never returned: they
        are skipped with no record, the finished rows keep theirs, and a
        resume computes only the skipped ones."""
        rows = ingest(table_path("fixtures_small.csv"))
        serial, _ = run_census(rows, small_options(jobs=1))
        by_name = {r["name"]: r for r in serial}
        strip = lambda r: {k: v for k, v in r.items() if k != "millis"}
        with monkeypatch.context() as patch:
            patch.setattr(plainsphere.census, "_process_row",
                          _worker_dies_on_trefoil)
            records, summary = run_census(rows, small_options(jobs=2))
        died = [s["name"] for s in summary["skipped_rows"]]
        assert "trefoil" in died and records
        assert all(s["reason"] == "worker died: exit 1"
                   for s in summary["skipped_rows"])
        assert sorted(died + [r["name"] for r in records]) == sorted(by_name)
        assert [strip(r) for r in records] == [
            strip(by_name[r["name"]]) for r in records]

        computed = []
        monkeypatch.setattr(plainsphere.census, "_process_row",
                            lambda task: computed.append(task[0])
                            or _process_row(task))
        resume = {r["name"]: r["diagram_hash"] for r in records}
        again, _ = run_census(rows, small_options(jobs=1, resume=resume))
        assert computed == [r["name"] for r in again]
        assert sorted(computed) == sorted(died)

    def test_dead_worker_costs_only_its_chunk(self, monkeypatch):
        """Only the rows of the dead worker's chunk are skipped, with the
        reason its exit status gives; a new worker computes every other
        row, and each of those has its serial record."""
        rows = ingest(table_path("fixtures_small.csv"))
        serial, _ = run_census(rows, small_options(jobs=1))
        names = [r["name"] for r in serial]
        assert names == [row.name for row in rows]  # every row eligible
        first = names.index("trefoil") // CHUNK_ROWS * CHUNK_ROWS
        chunk = names[first:first + CHUNK_ROWS]
        monkeypatch.setattr(plainsphere.census, "_process_row",
                            _worker_dies_on_trefoil)
        records, summary = run_census(rows, small_options(jobs=2))
        assert summary["skipped_rows"] == [
            {"name": name, "reason": "worker died: exit 1"} for name in chunk]
        strip = lambda r: {k: v for k, v in r.items() if k != "millis"}
        assert [strip(r) for r in records] == [
            strip(r) for r in serial if r["name"] not in chunk]

    @pytest.mark.parametrize("ending", ["finish", "dead worker",
                                        "interrupt", "emit fails"])
    def test_no_worker_outlives_the_sweep(self, monkeypatch, ending):
        """Each way out of a pooled sweep reaps every worker it forked;
        one that raises kills the workers still computing instead of
        waiting for them."""
        rows = ingest(table_path("fixtures_small.csv"))
        raised = {"interrupt": KeyboardInterrupt, "emit fails": OSError}
        emitted = []

        def emit(records):
            if emitted and ending == "emit fails":
                raise OSError("no space left on device")
            emitted.append(records)

        def row(task):
            # Ctrl-C in the first chunk, while the second one computes
            if task[0] == rows[0].name and ending == "interrupt":
                raise KeyboardInterrupt
            if task[0] == rows[CHUNK_ROWS].name and ending in raised:
                time.sleep(30)
            return _process_row(task)

        monkeypatch.setattr(plainsphere.census, "_process_row",
                            _worker_dies_on_trefoil
                            if ending == "dead worker" else row)
        started = time.monotonic()
        if ending in raised:
            with pytest.raises(raised[ending]):
                run_census(rows, small_options(jobs=2), emit)
            assert time.monotonic() - started < 10
        else:
            run_census(rows, small_options(jobs=2), emit)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists open files through /proc")
    def test_each_worker_keeps_only_its_own_pipe_ends(self, tmp_path,
                                                      monkeypatch):
        """A worker holds the files of the parent before the sweep and
        its own two pipe ends, none of another worker's: so each side
        reads EOF when the other is gone."""

        def counted(task):
            (tmp_path / str(os.getpid())).write_text(
                str(len(os.listdir("/proc/self/fd"))))
            return _process_row(task)

        rows = ingest(table_path("fixtures_small.csv"))
        monkeypatch.setattr(plainsphere.census, "_process_row", counted)
        before = len(os.listdir("/proc/self/fd"))
        run_census(rows, small_options(jobs=3))
        counts = [int(f.read_text()) for f in tmp_path.iterdir()]
        assert len(counts) == 3 and set(counts) == {before + 2}

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists open files through /proc")
    def test_failed_fork_leaks_nothing(self, monkeypatch):
        """A fork that fails raises its OSError with every pipe end it
        was given closed, and the worker forked before it reaped."""
        real_fork, forks = os.fork, []

        def fork():
            forks.append(None)
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        rows = ingest(table_path("fixtures_small.csv"))
        monkeypatch.setattr(os, "fork", fork)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError):
            run_census(rows, small_options(jobs=2))
        assert len(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="lists open files through /proc")
    def test_pool_waits_on_descriptors_past_1023(self):
        """With 1030 descriptors of /dev/null held open, the workers' pipe
        ends are numbered past 1023, which ``select.select`` refuses: the
        pool still gives the serial records, leaves no child and closes
        every descriptor it opened."""
        import resource
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1100:
            pytest.skip("the soft limit on open files is below 1100")
        rows = ingest(table_path("fixtures_small.csv"))
        serial, _ = run_census(rows, small_options(jobs=1))
        before = len(os.listdir("/proc/self/fd"))
        held = [os.open(os.devnull, os.O_RDONLY) for _ in range(1030)]
        try:
            assert max(held) >= 1024
            pooled, _ = run_census(rows, small_options(jobs=2))
        finally:
            for fd in held:
                os.close(fd)
        strip = lambda r: {k: v for k, v in r.items() if k != "millis"}
        assert [strip(r) for r in pooled] == [strip(r) for r in serial]
        assert len(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_dying_idle_costs_nothing(self, monkeypatch):
        """A worker that ends while idle, its task pipe closed, breaks the
        parent's next write to it: no chunk is lost, the chunk goes to a
        new worker, and every row has its serial record."""

        def serve_one(tasks, size, inbox, outbox):
            with open(inbox, "rb") as starts:
                start = int(starts.readline())
            with open(outbox, "w", encoding="utf-8") as out:
                print(json.dumps([_process_row(task)
                                  for task in tasks[start:start + size]]),
                      file=out, flush=True)

        real_write, broken = os.write, []

        def write(fd, data):
            try:
                return real_write(fd, data)
            except BrokenPipeError:
                broken.append(fd)
                raise

        rows = ingest(table_path("fixtures_small.csv"))
        serial, _ = run_census(rows, small_options(jobs=1))
        monkeypatch.setattr(plainsphere.census, "_serve", serve_one)
        monkeypatch.setattr(os, "write", write)
        records, summary = run_census(rows, small_options(jobs=2))
        assert broken
        assert summary["skipped_rows"] == []
        strip = lambda r: {k: v for k, v in r.items() if k != "millis"}
        assert [strip(r) for r in records] == [strip(r) for r in serial]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_dead_worker_through_the_records_file(self, tmp_path, capsys,
                                                  monkeypatch):
        """Through ``psk census``: two rows give each of two workers a
        chunk; the finished chunk is in the records file and the dead
        chunk's row only in the summary."""
        table, records = tmp_path / "t.csv", tmp_path / "records.csv"
        summary = tmp_path / "summary.json"
        table.write_text("name,pd_notation\n"
                         f'trefoil,"{TREFOIL_PD}"\n'
                         'hopf,"X(2,1,3,4) X(4,3,1,2)"\n')
        monkeypatch.setattr(plainsphere.census, "_process_row",
                            _worker_dies_on_trefoil)
        assert cli.main(["census", "--input", str(table), "--records",
                         str(records), "--summary", str(summary),
                         "--jobs", "2"]) == 0
        assert list(existing_records(str(records))) == ["hopf"]
        doc = json.loads(summary.read_text())
        assert doc["totals"]["completed"] == 1
        assert doc["skipped_rows"] == [
            {"name": "trefoil", "reason": "worker died: exit 1"}]
        assert "1 completed, 1 skipped" in capsys.readouterr().out

    def test_interrupted_sweep_keeps_finished_rows(self, tmp_path, capsys,
                                                   monkeypatch):
        """A serial sweep interrupted at row k has written its k finished
        rows; the resume computes only the rest."""
        rows = ingest(table_path("fixtures_small.csv"))
        records = tmp_path / "records.csv"
        argv = ["census", "--input", table_path("fixtures_small.csv"),
                "--records", str(records), "--jobs", "1"]
        k = 10
        computed = []

        def interrupted(task):
            if len(computed) == k:
                raise KeyboardInterrupt
            computed.append(task[0])
            return _process_row(task)

        monkeypatch.setattr(plainsphere.census, "_process_row", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv + ["--fresh"])
        done = existing_records(str(records))
        assert list(done) == [r.name for r in rows[:k]]

        computed.clear()
        monkeypatch.setattr(plainsphere.census, "_process_row",
                            lambda task: computed.append(task[0])
                            or _process_row(task))
        assert cli.main(argv) == 0
        assert computed == [r.name for r in rows[k:]]
        with open(records, newline="", encoding="utf-8") as fh:
            names = [r["name"] for r in csv.DictReader(fh)]
        assert names == [r.name for r in rows]
        out = capsys.readouterr().out
        assert f"{len(rows) - k} completed, {k} skipped" in out

    def test_interrupted_pool_computes_no_more_chunks(self, tmp_path,
                                                      monkeypatch):
        """An interrupt in a pooled sweep stops the workers, so no chunk
        is handed out after it, instead of waiting for the rest of the
        table."""
        rows = ingest(table_path("fixtures_small.csv"))

        def interrupted(task):  # runs in a forked worker
            if task[0] == rows[0].name:
                raise KeyboardInterrupt
            (tmp_path / task[0]).touch()
            time.sleep(0.05)
            return _process_row(task)

        monkeypatch.setattr(plainsphere.census, "_process_row", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_census(rows, small_options(jobs=2))
        # only the chunks the workers had taken ran, not every chunk
        # but the interrupted one
        assert len(list(tmp_path.iterdir())) < len(rows) - CHUNK_ROWS

    def test_resume_needs_the_same_diagram(self, tmp_path):
        rows = ingest(table_path("slice14.csv"))
        records, _ = run_census(rows, small_options(jobs=1))
        rec_path = tmp_path / "records.csv"
        write_records(str(rec_path), records, append=False)
        done = existing_records(str(rec_path))
        done["t37"] = done["k14n1527"]
        again, summary = run_census(rows, small_options(resume=done))
        assert again == []
        reasons = {s["name"]: s["reason"] for s in summary["skipped_rows"]}
        assert reasons["t37"] == NAME_TAKEN
        assert reasons["k14n1527"] == ALREADY_RECORDED

    def test_resumed_row_with_over_long_label(self):
        """A recorded name whose row no longer parses is skipped with its
        parse error, as a fresh run gives it, not fatal to the census."""
        resume = {"k": parse_pd(TREFOIL_PD).content_hash}
        split = TREFOIL_PD + " X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)"
        for pd, error in [("X(1,4,2,5) X(3,6,4,1) X(5,2,6," + "3" * 5000
                           + ")", "MalformedPD: label too long"),
                          (split, "DisconnectedProjection: projection "
                                  "splits into 2 pieces")]:
            records, summary = run_census([TableRow("k", pd, None, 2)],
                                          small_options(resume=resume))
            assert records == []
            [skip] = summary["skipped_rows"]
            assert skip["name"] == "k" and skip["reason"].startswith(error)
            _, fresh = run_census([TableRow("k", pd, None, 2)],
                                  small_options())
            assert fresh["skipped_rows"] == [skip]

    def test_unusable_records_refused(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("name,n,strands,omega,rho,beta_ref,strict_gap,"
                        "bound_ok,millis\nk,3,3,2,2,2,0,true,1.0\n")
        with pytest.raises(FileUnreadable):
            existing_records(str(path))
        path.write_bytes(b"\xff\xfename,diagram_hash\n")
        with pytest.raises(FileUnreadable):
            existing_records(str(path))

    def test_records_row_of_another_width_refused(self, tmp_path):
        """Records appended under a row of another width would not line
        up with it: the file is refused, naming that row's line."""
        path = tmp_path / "records.csv"
        write_records(str(path), [dict.fromkeys(RECORD_COLUMNS, i)
                                  for i in range(3)], append=False)
        assert existing_records(str(path)) == {"0": "0", "1": "1", "2": "2"}
        lines = path.read_bytes().split(b"\r\n")
        lines[2] = b"1,1,1"
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(FileUnreadable,
                           match=f"line 3: not {len(RECORD_COLUMNS)} fields"):
            existing_records(str(path))

    def test_append_mode(self, tmp_path):
        rec_path = tmp_path / "records.csv"
        rows = ingest(table_path("slice14.csv"))
        records, _ = run_census(rows, small_options(jobs=4))
        write_records(str(rec_path), records[:2], append=False)
        write_records(str(rec_path), records[2:], append=True)
        expected = {r["name"]: r["diagram_hash"] for r in records}
        assert existing_records(str(rec_path)) == expected
        rec_path.write_text("\ufeff" + rec_path.read_text(encoding="utf-8"),
                            encoding="utf-8")
        assert existing_records(str(rec_path)) == expected

    def test_existing_names_missing_file(self, tmp_path):
        assert existing_records(str(tmp_path / "none.csv")) == {}
        (tmp_path / "empty.csv").write_text("")
        assert existing_records(str(tmp_path / "empty.csv")) == {}

    def test_summary_json(self, tmp_path):
        rows = ingest(table_path("slice14.csv"))
        _, summary = run_census(rows, small_options(jobs=4))
        path = tmp_path / "summary.json"
        write_summary(str(path), summary)
        loaded = json.loads(path.read_text())
        assert loaded["totals"]["completed"] == 5
        assert loaded["gap_count"] == 1
        assert loaded["violation_count"] == 0
        assert loaded["timeout_count"] == 0
