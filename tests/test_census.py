"""Census ingestion, batch runs, persistence, and resume."""

from __future__ import annotations

import csv
import gc
import json
import os
import time

import pytest

import plainsphere.census
from plainsphere import cli
from plainsphere.census import (ALREADY_RECORDED, CHUNK_ROWS, NAME_TAKEN,
                                RECORD_COLUMNS, CensusOptions, TableRow,
                                _process_row, existing_records, ingest,
                                run_census, write_records, write_summary)
from plainsphere.diagram import parse_pd
from plainsphere.errors import FileUnreadable, MissingColumns

from conftest import TREFOIL_PD, table_path


def small_options(**kw) -> CensusOptions:
    return CensusOptions(**kw)


def _worker_dies_on_trefoil(task):
    """The census row function, except that the worker computing the
    trefoil row dies, after a pause that lets the other worker finish
    the rows it can.  Module level, so a pool worker can look it up."""
    if task[0] == "trefoil":
        time.sleep(0.5)
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

    def test_omega_searched_once_per_row(self, monkeypatch):
        import plainsphere.census
        import plainsphere.engine
        calls = []
        real = plainsphere.engine.omega

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # rho would reach omega through the engine's global, not the census's
        monkeypatch.setattr(plainsphere.census, "omega", counted)
        monkeypatch.setattr(plainsphere.engine, "omega", counted)
        rows = ingest(table_path("fixtures_small.csv"))
        records, _ = run_census(rows, small_options(jobs=1))
        assert len(calls) == len(records) == 25

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

    def test_timeout_rows_never_fabricate(self):
        rows = [r for r in ingest(table_path("slice14.csv"))
                if r.name == "k14n1527"]
        records, summary = run_census(
            rows, small_options(timeout_ms=1, jobs=1))
        assert records == []
        assert summary["timeout_count"] == 1
        assert summary["timed_out_names"] == ["k14n1527"]

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
        """A worker that dies costs only the rows the pool never
        returned: they are skipped with no record, the finished rows keep
        theirs, and a resume computes only the skipped ones."""
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
        assert all(s["reason"] == "worker died: BrokenProcessPool"
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
            {"name": "trefoil", "reason": "worker died: BrokenProcessPool"}]
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
        """An interrupt in a pooled sweep cancels the chunks no worker has
        taken, instead of waiting for the rest of the table."""
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
        # only the chunks the workers had taken or had queued ran, not
        # every chunk but the interrupted one
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
