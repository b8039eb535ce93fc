"""End-to-end CLI behavior: flags, formats, exit codes."""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import plainsphere
from plainsphere import census, cli, engine, errors, parse_pd
from plainsphere.cli import (EXIT_EMPTY_CENSUS, EXIT_HASH_MISMATCH, EXIT_OK,
                             EXIT_PARSE, EXIT_REJECTED, EXIT_TIMEOUT,
                             EXIT_UNSUPPORTED, main)

from conftest import BRAID30_PD, K14_PD, TREFOIL_PD, table_path

HOPF_PD = "X(2,1,3,4) X(4,3,1,2)"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_plain_output(self, capsys):
        code, out, _ = run(capsys, "compute", "--pd", TREFOIL_PD)
        assert code == EXIT_OK
        assert "omega: 2" in out and "rho: 2" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "compute", "--pd", TREFOIL_PD,
                           "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 3 and doc["strands"] == 3
        assert doc["omega"] == 2 and doc["rho"] == 2
        assert doc["omega_seeds"] == [0, 1]
        assert "millis" in doc

    def test_millis_at_microsecond_resolution(self, capsys, monkeypatch):
        """compute's millis, the time of its searches, keeps the
        microseconds, as a census record's does."""
        clock = iter([7.0, 7.00123])
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(
            monotonic=lambda: next(clock)))
        code, out, _ = run(capsys, "compute", "--pd", TREFOIL_PD,
                           "--format", "json")
        assert code == EXIT_OK and json.loads(out)["millis"] == 1.23

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "compute", "--pd", TREFOIL_PD,
                           "--format", "csv")
        assert code == EXIT_OK
        (row,) = list(csv.DictReader(io.StringIO(out)))
        assert row["omega"] == "2" and row["rho"] == "2"

    def test_single_invariant(self, capsys):
        code, out, _ = run(capsys, "compute", "--pd", TREFOIL_PD,
                           "--invariant", "omega")
        assert code == EXIT_OK
        assert "omega: 2" in out and "rho:" not in out

    def test_pd_file(self, capsys, tmp_path):
        path = tmp_path / "d.pd"
        for text in (TREFOIL_PD + "\n", "\ufeff" + TREFOIL_PD):  # BOM too
            path.write_text(text, encoding="utf-8")
            code, out, _ = run(capsys, "compute", "--pd-file", str(path))
            assert code == EXIT_OK and "omega: 2" in out

    def test_missing_pd_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "compute", "--pd-file",
                           str(tmp_path / "nope.pd"))
        assert code == EXIT_PARSE and "cannot read" in err

    def test_non_utf8_pd_file(self, capsys, tmp_path):
        path = tmp_path / "d.pd"
        path.write_bytes(b"X(1,4,2,5) \xff")
        code, _, err = run(capsys, "compute", "--pd-file", str(path))
        assert code == EXIT_PARSE and "cannot read" in err

    def test_garbage_pd(self, capsys):
        code, _, err = run(capsys, "compute", "--pd", "garbage")
        assert code == EXIT_PARSE and "error:" in err

    def test_non_spherical_pd(self, capsys):
        code, _, _ = run(capsys, "compute", "--pd",
                         "X(1,4,2,3) X(3,6,4,5) X(5,2,6,1)")
        assert code == EXIT_PARSE

    def test_closed_over_component(self, capsys):
        code, _, _ = run(capsys, "compute", "--pd", "X(1,2,1,2)")
        assert code == EXIT_UNSUPPORTED

    def test_split_diagram(self, capsys):
        split = TREFOIL_PD + " X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)"
        code, _, _ = run(capsys, "compute", "--pd", split)
        assert code == EXIT_UNSUPPORTED

    def test_timeout_flag(self, capsys):
        code, _, err = run(capsys, "compute", "--pd", BRAID30_PD,
                           "--timeout-ms", "1")
        assert code == EXIT_TIMEOUT and "deadline" in err
        # the interval the search proved before time ran out
        assert re.search(r"proved rho >= \d+, rho <= \d+, "
                         r"omega >= \d+, omega <= \d+$", err.strip())

    def test_timeout_in_the_seed_picking_search(self, capsys, monkeypatch):
        """slice14's sum5_9 has no plain-sphere set below its irredundant
        greedy subset's 3 seeds, so rho = omega = 3 is known after 46
        seeds added in plain-sphere mode, and only a certificate runs
        the Wirtinger search of size 3 (7 more) that picks its seeds.  On
        a clock that ticks a millisecond per read, compute reads it
        twice before the engine does, and the irredundant subset 4 times,
        once per trial walk of the 4 greedy seeds, so a 51 ms deadline
        expires at the first seed that search adds: exit 4, naming the
        exact values, as before values and certificates were worked out
        apart.  A census row asks for values only and completes.  A
        44 ms deadline expires in the plain-sphere search, and both time
        out."""
        pd = next(row.pd_text for row in census.ingest(
            table_path("slice14.csv")) if row.name == "sum5_9")

        def restart_clock():
            ticks = itertools.count()
            clock = types.SimpleNamespace(
                monotonic=lambda: next(ticks) / 1000)
            for module in (cli, census, engine):
                monkeypatch.setattr(module, "time", clock)

        for ms, proved, row in (
                (44, "rho >= 2, rho <= 3, omega >= 2, omega <= 3", None),
                (51, "rho >= 3, rho <= 3, omega >= 3, omega <= 3", (3, 3))):
            restart_clock()
            code, _, err = run(capsys, "compute", "--pd", pd,
                               "--timeout-ms", str(ms))
            assert code == EXIT_TIMEOUT
            assert err.strip() == (
                "error: ComputeTimeout: seed-set search exceeded its "
                f"deadline; proved {proved}")
            restart_clock()
            record, reason = census._process_row(("sum5_9", pd, 3, ms))
            assert reason is None
            assert row == (record and (record["rho"], record["omega"]))

    def test_timeout_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PSK_TIMEOUT_MS", "1")
        code, _, _ = run(capsys, "compute", "--pd", BRAID30_PD)
        assert code == EXIT_TIMEOUT

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PSK_TIMEOUT_MS", "1")
        code, out, _ = run(capsys, "compute", "--pd", K14_PD,
                           "--timeout-ms", "60000")
        assert code == EXIT_OK and "omega: 4" in out

    def test_bad_env_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("PSK_TIMEOUT_MS", "soon")
        code, _, err = run(capsys, "compute", "--pd", TREFOIL_PD)
        assert code == EXIT_OK and "ignoring" in err

    @pytest.mark.parametrize("value", ["-1", "-50"])
    def test_negative_timeout_exit_two(self, capsys, value):
        """0 means no limit, so a negative limit is an input error, not a
        deadline that has already passed."""
        with pytest.raises(SystemExit) as info:
            main(["compute", "--pd", K14_PD, "--timeout-ms", value])
        assert info.value.code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "--timeout-ms" in err and "at least 0" in err

    def test_zero_timeout_means_no_limit(self, capsys):
        code, out, _ = run(capsys, "compute", "--pd", K14_PD,
                           "--timeout-ms", "0")
        assert code == EXIT_OK and "omega: 4" in out and "rho: 3" in out

    def test_negative_env_timeout_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("PSK_TIMEOUT_MS", "-1")
        code, out, err = run(capsys, "compute", "--pd", K14_PD)
        assert code == EXIT_OK and "omega: 4" in out
        assert "ignoring PSK_TIMEOUT_MS='-1'" in err

    def test_env_warning_once_and_only_where_used(self, capsys, tmp_path,
                                                  monkeypatch):
        """Two subcommands take --timeout-ms and verify takes neither
        flag: a bad value warns once, and only in a command that reads
        it."""
        monkeypatch.setenv("PSK_TIMEOUT_MS", "soon")
        monkeypatch.setenv("PSK_JOBS", "-4")
        _, _, err = run(capsys, "compute", "--pd", TREFOIL_PD)
        assert err.count("warning:") == 1 and "PSK_TIMEOUT_MS" in err
        _, _, err = run(capsys, "verify", "--pd", TREFOIL_PD,
                        "--certificate", str(tmp_path / "missing.cert"))
        assert "warning:" not in err

    def test_unwritable_certificate_exit_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "compute", "--pd", TREFOIL_PD,
                             "--certificate", str(tmp_path / "no" / "c.cert"))
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error: FileNotFoundError: ")

    def test_k14_both_invariants(self, capsys):
        code, out, _ = run(capsys, "compute", "--pd", K14_PD,
                           "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["omega"] == 4 and doc["rho"] == 3

    def test_k14_rho_alone(self, capsys, tmp_path, monkeypatch):
        """``--invariant rho`` prints no omega, and the rho, seeds and
        certificate of ``--invariant both``: rho runs first, on the
        loaded dual, for every ``--invariant``, and ``both`` and
        ``omega`` run omega after it, on the same diagram, from the
        result rho keeps with it.  ``--invariant omega`` prints no rho,
        and the omega and seeds of ``both``.  ``both`` writes rho's
        certificate, in plain-sphere mode, and ``omega`` omega's, in
        Wirtinger mode; ``omega`` asks rho for no certificate, so one
        ``saturate`` writes omega's, where ``both`` runs one per
        certificate."""
        calls, saturated = [], []

        def rho(d, **kwargs):
            calls.append(("rho", d, sorted(kwargs)))
            return engine.rho(d, **kwargs)

        def omega(d, **kwargs):
            calls.append(("omega", d, sorted(kwargs)))
            return engine.omega(d, **kwargs)

        monkeypatch.setattr(cli, "rho", rho)
        monkeypatch.setattr(cli, "omega", omega)
        saturate = engine.saturate
        monkeypatch.setattr(
            engine, "saturate", lambda d, seeds, mode, *rest:
            saturated.append(mode) or saturate(d, seeds, mode, *rest))
        docs, certs, called, logged = {}, {}, {}, {}
        for invariant in ("both", "rho", "omega"):
            cert = tmp_path / f"{invariant}.cert"
            calls.clear()
            saturated.clear()
            code, out, _ = run(capsys, "compute", "--pd", K14_PD,
                               "--invariant", invariant, "--format", "json",
                               "--certificate", str(cert))
            assert code == EXIT_OK
            docs[invariant], certs[invariant] = json.loads(out), cert.read_text()
            called[invariant] = calls[:]
            logged[invariant] = saturated[:]
        assert docs["rho"]["omega"] is None and docs["rho"]["rho"] == 3
        assert docs["rho"]["rho_seeds"] == docs["both"]["rho_seeds"]
        assert certs["rho"] == certs["both"]
        for invariant in ("both", "omega"):
            d = called[invariant][0][1]
            assert called[invariant] == [
                ("rho", d, ["certificate", "deadline", "dual"]),
                ("omega", d, ["deadline"])]
        assert logged == {"both": ["plainsphere", "wirtinger"],
                          "rho": ["plainsphere"], "omega": ["wirtinger"]}
        assert [name for name, _, _ in called["rho"]] == ["rho"]
        assert docs["omega"]["rho"] is None
        assert ((docs["omega"]["omega"], docs["omega"]["omega_seeds"])
                == (docs["both"]["omega"], docs["both"]["omega_seeds"])
                == (4, [0, 2, 10, 13]))
        assert "mode: plainsphere" in certs["both"]
        assert "mode: wirtinger" in certs["omega"]

    def test_one_dual_per_compute(self, capsys, monkeypatch):
        """Every ``--invariant`` builds the dual once, where the diagram
        is loaded, and hands it to rho, which works out omega too."""
        built = []

        def counted(name, real):
            return lambda d: built.append(name) or real(d)

        monkeypatch.setattr(cli, "build_dual", counted("cli", cli.build_dual))
        monkeypatch.setattr(engine, "build_dual",
                            counted("engine", engine.build_dual))
        for invariant in ("both", "rho", "omega"):
            built.clear()
            code, _, _ = run(capsys, "compute", "--pd", K14_PD,
                             "--invariant", invariant)
            assert code == EXIT_OK
            assert built == ["cli"], invariant


class TestComputeVerifyLoop:
    def test_certificate_round_trip(self, capsys, tmp_path):
        cert = tmp_path / "cert.txt"
        code, _, _ = run(capsys, "compute", "--pd", K14_PD,
                         "--certificate", str(cert))
        assert code == EXIT_OK
        code, out, _ = run(capsys, "verify", "--pd", K14_PD,
                           "--certificate", str(cert))
        assert code == EXIT_OK
        assert "certificate accepted" in out
        assert "mode=plainsphere" in out and "tau=4" in out

    def test_omega_certificate(self, capsys, tmp_path):
        cert = tmp_path / "cert.txt"
        run(capsys, "compute", "--pd", TREFOIL_PD, "--invariant", "omega",
            "--certificate", str(cert))
        assert "mode: wirtinger" in cert.read_text()
        code, out, _ = run(capsys, "verify", "--pd", TREFOIL_PD,
                           "--certificate", str(cert))
        assert code == EXIT_OK and "mode=wirtinger" in out

    def test_wrong_diagram_is_hash_mismatch(self, capsys, tmp_path):
        cert = tmp_path / "cert.txt"
        run(capsys, "compute", "--pd", TREFOIL_PD, "--certificate", str(cert))
        code, _, err = run(capsys, "verify", "--pd", HOPF_PD,
                           "--certificate", str(cert))
        assert code == EXIT_HASH_MISMATCH and "HashMismatch" in err

    def test_mutated_certificate_rejected(self, capsys, tmp_path):
        cert = tmp_path / "cert.txt"
        run(capsys, "compute", "--pd", TREFOIL_PD, "--invariant", "omega",
            "--certificate", str(cert))
        cert.write_text(cert.read_text().replace("seeds: 0,1", "seeds: 0"))
        code, _, err = run(capsys, "verify", "--pd", TREFOIL_PD,
                           "--certificate", str(cert))
        assert code == EXIT_REJECTED and "WirtingerConditionFailed" in err

    def test_unparseable_certificate(self, capsys, tmp_path):
        cert = tmp_path / "cert.txt"
        cert.write_text("psk-cert/9\nhash: " + "0" * 64
                        + "\nmode: wirtinger\nseeds: 0\n")
        code, _, err = run(capsys, "verify", "--pd", TREFOIL_PD,
                           "--certificate", str(cert))
        assert code == EXIT_REJECTED and "VersionMismatch" in err

    @pytest.mark.parametrize("mode", ["wirtinger", "plainsphere"])
    def test_non_spherical_pd_exit_two(self, capsys, tmp_path, mode):
        """The Euler check rejects the code before any certificate is
        read, in either mode, as ``compute`` does."""
        pd = "X(1,4,2,3) X(3,6,4,5) X(5,2,6,1)"
        cert = tmp_path / "cert.txt"
        cert.write_text(f"psk-cert/1\nhash: {parse_pd(pd).content_hash}\n"
                        f"mode: {mode}\nseeds: 0,1,2\n")
        code, _, err = run(capsys, "verify", "--pd", pd,
                           "--certificate", str(cert))
        assert code == EXIT_PARSE and "sphere" in err

    def test_crlf_certificate_file(self, capsys, tmp_path):
        """Files are read in text mode, so CRLF line ends verify although
        ``deserialize_certificate`` splits on \\n only."""
        cert = tmp_path / "cert.txt"
        run(capsys, "compute", "--pd", K14_PD, "--certificate", str(cert))
        cert.write_bytes(cert.read_bytes().replace(b"\n", b"\r\n"))
        code, out, _ = run(capsys, "verify", "--pd", K14_PD,
                           "--certificate", str(cert))
        assert code == EXIT_OK and "certificate accepted" in out

    def test_non_utf8_certificate_file(self, capsys, tmp_path):
        cert = tmp_path / "cert.txt"
        cert.write_bytes(b"psk-cert/1\n\xff\n")
        code, _, err = run(capsys, "verify", "--pd", TREFOIL_PD,
                           "--certificate", str(cert))
        assert code == EXIT_REJECTED and "cannot read" in err

    def test_missing_certificate_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--pd", TREFOIL_PD,
                           "--certificate", str(tmp_path / "none.txt"))
        assert code == EXIT_REJECTED and "cannot read" in err


class TestCensusCommand:
    def test_full_run(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        summary = tmp_path / "summary.json"
        code, out, _ = run(capsys, "census",
                           "--input", table_path("slice14.csv"),
                           "--records", str(records),
                           "--summary", str(summary),
                           "--jobs", "4")
        assert code == EXIT_OK
        assert "5 completed" in out and "gaps 1" in out
        doc = json.loads(summary.read_text())
        assert doc["gap_count"] == 1 and doc["violation_count"] == 0
        with open(records, newline="") as fh:
            rows = {r["name"]: r for r in csv.DictReader(fh)}
        assert rows["k14n1527"]["strict_gap"] == "1"
        assert rows["turk14"]["beta_ref"] == ""

    def test_resume_skips_done_names(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        args = ("census", "--input", table_path("slice14.csv"),
                "--records", str(records), "--jobs", "4")
        assert run(capsys, *args)[0] == EXIT_OK
        before = records.read_text()
        code, out, _ = run(capsys, *args)  # resumed run: nothing to do
        assert code == EXIT_OK
        assert "0 completed" in out
        assert records.read_text() == before

    def test_resume_keys_name_and_diagram(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        summary = tmp_path / "summary.json"
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        first.write_text(f'name,pd_notation\nk,"{TREFOIL_PD}"\n')
        second.write_text(f'name,pd_notation\nk,"{HOPF_PD}"\n')
        for table in (first, second):
            code, _, _ = run(capsys, "census", "--input", str(table),
                             "--records", str(records),
                             "--summary", str(summary))
            assert code == EXIT_OK
        with open(records, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["name"], r["n"]) for r in rows] == [("k", "3")]
        doc = json.loads(summary.read_text())
        assert doc["skipped_rows"] == [
            {"name": "k",
             "reason": "name already in records for another diagram"}]

    def test_records_without_hash_exit_two(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text("name,n,strands,omega,rho,beta_ref,strict_gap,"
                           "bound_ok,millis\n")
        code, _, err = run(capsys, "census",
                           "--input", table_path("slice14.csv"),
                           "--records", str(records))
        assert code == EXIT_PARSE and "--fresh" in err
        assert run(capsys, "census", "--input", table_path("slice14.csv"),
                   "--records", str(records), "--fresh")[0] == EXIT_OK

    def test_resume_refuses_a_cut_records_file(self, capsys, tmp_path):
        """A sweep killed mid-write leaves its last record cut short; a
        resume must not glue the next record onto it."""
        records = tmp_path / "records.csv"
        args = ("census", "--input", table_path("fixtures_small.csv"),
                "--records", str(records))
        assert run(capsys, *args, "--fresh")[0] == EXIT_OK
        lines = records.read_bytes().split(b"\r\n")
        assert len(lines) == 27  # header, 25 records and the final ""
        cut = b"\r\n".join(lines[:7]) + b"\r\n" + lines[7][:20]
        records.write_bytes(cut)
        code, _, err = run(capsys, *args)
        assert code == EXIT_PARSE
        assert f"{records}, line 8: cut short" in err and "--fresh" in err
        assert records.read_bytes() == cut

    def test_resume_refuses_a_foreign_header(self, capsys, tmp_path):
        """Rows of RECORD_COLUMNS under another header would be read
        under that header's names."""
        records = tmp_path / "records.csv"
        data = b"name,diagram_hash,omega\r\nk,00ff,2\r\n"
        records.write_bytes(data)
        code, _, err = run(capsys, "census",
                           "--input", table_path("slice14.csv"),
                           "--records", str(records))
        assert code == EXIT_PARSE
        assert f"{records}, line 1: header is not" in err
        assert records.read_bytes() == data

    def test_fresh_recomputes(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        args = ("census", "--input", table_path("slice14.csv"),
                "--records", str(records), "--jobs", "4")
        assert run(capsys, *args)[0] == EXIT_OK
        code, out, _ = run(capsys, *args, "--fresh")
        assert code == EXIT_OK and "5 completed" in out

    def test_max_crossings(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        code, out, _ = run(capsys, "census",
                           "--input", table_path("fixtures_small.csv"),
                           "--records", str(records),
                           "--max-crossings", "3")
        assert code == EXIT_OK
        with open(records, newline="") as fh:
            assert all(int(r["n"]) <= 3 for r in csv.DictReader(fh))

    def test_empty_table_exit_five(self, capsys, tmp_path):
        """Exit 5 leaves the records path as it found it: the census
        removes the file only if it created it."""
        empty = tmp_path / "empty.csv"
        empty.write_text("name,pd_notation,bridge_number\n")
        new = tmp_path / "new.csv"
        code, _, err = run(capsys, "census", "--input", str(empty),
                           "--records", str(new))
        assert code == EXIT_EMPTY_CENSUS and "no processable rows" in err
        assert not new.exists()
        old = tmp_path / "old.csv"
        for data in (b"", b"name,n,strands,omega,rho,beta_ref,strict_gap,"
                          b"bound_ok,millis,diagram_hash\r\n"
                          b"k,3,3,2,2,,0,,1.0,00ff\r\n"):
            old.write_bytes(data)
            for fresh in ((), ("--fresh",)):
                assert run(capsys, "census", "--input", str(empty),
                           "--records", str(old),
                           *fresh)[0] == EXIT_EMPTY_CENSUS
                assert old.read_bytes() == data

    def test_unreadable_input_exit_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, "census",
                         "--input", str(tmp_path / "none.csv"),
                         "--records", str(tmp_path / "r.csv"))
        assert code == EXIT_PARSE

    def test_unwritable_records_computes_nothing(self, capsys, tmp_path,
                                                 monkeypatch):
        calls = []
        monkeypatch.setattr(census, "omega",
                            lambda *args, **kwargs: calls.append(args))
        code, _, err = run(capsys, "census",
                           "--input", table_path("slice14.csv"),
                           "--records", str(tmp_path / "no" / "r.csv"))
        assert code == EXIT_PARSE and calls == []
        assert err.startswith("error: FileNotFoundError: ")

    def test_unwritable_summary_keeps_records(self, capsys, tmp_path):
        """The summary path is opened before any row is computed: an
        unwritable one leaves the records file as it was."""
        table = tmp_path / "t.csv"
        table.write_text(f'name,pd_notation\nk,"{TREFOIL_PD}"\n'
                         f'h,"{HOPF_PD}"\n')
        records = tmp_path / "r.csv"
        assert run(capsys, "census", "--input", table_path("slice14.csv"),
                   "--records", str(records))[0] == EXIT_OK
        before = records.read_bytes()
        code, _, err = run(capsys, "census", "--input", str(table),
                           "--records", str(records),
                           "--summary", str(tmp_path / "no" / "s.json"))
        assert code == EXIT_PARSE
        assert err.startswith("error: FileNotFoundError: ")
        assert records.read_bytes() == before

    def test_summary_directory_computes_nothing(self, capsys, tmp_path,
                                                monkeypatch):
        """A summary path that cannot be written fails before any row is
        computed, and leaves no records file behind."""
        calls = []
        monkeypatch.setattr(census, "rho",
                            lambda *args, **kwargs: calls.append(args))
        records = tmp_path / "r.csv"
        code, _, err = run(capsys, "census",
                           "--input", table_path("slice14.csv"),
                           "--records", str(records),
                           "--summary", str(tmp_path))
        assert code == EXIT_PARSE and calls == []
        assert err.startswith("error: IsADirectoryError: ")
        assert not records.exists()

    def test_empty_census_leaves_no_summary(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("name,pd_notation\n")
        summary = tmp_path / "s.json"
        code, _, _ = run(capsys, "census", "--input", str(empty),
                         "--records", str(tmp_path / "r.csv"),
                         "--summary", str(summary))
        assert code == EXIT_EMPTY_CENSUS and not summary.exists()
        summary.write_bytes(b"{}\n")
        code, _, _ = run(capsys, "census", "--input", str(empty),
                         "--records", str(tmp_path / "r.csv"),
                         "--summary", str(summary))
        assert code == EXIT_EMPTY_CENSUS and summary.read_bytes() == b"{}\n"

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_jobs_below_one_exit_two(self, capsys, tmp_path, value):
        records = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as info:
            main(["census", "--input", table_path("slice14.csv"),
                  "--records", str(records), "--jobs", value])
        assert info.value.code == EXIT_PARSE
        assert "at least 1" in capsys.readouterr().err
        assert not records.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_crossings_below_one_exit_two(self, capsys, tmp_path, value):
        """Such a bound would skip every row, so argparse refuses it."""
        records = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as info:
            main(["census", "--input", table_path("fixtures_small.csv"),
                  "--records", str(records), "--max-crossings", value])
        assert info.value.code == EXIT_PARSE
        assert "at least 1" in capsys.readouterr().err
        assert not records.exists()

    def test_negative_census_timeout_exit_two(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["census", "--input", table_path("slice14.csv"),
                  "--records", str(tmp_path / "r.csv"), "--timeout-ms", "-1"])
        assert info.value.code == EXIT_PARSE

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_jobs_env_below_one_ignored(self, capsys, tmp_path, monkeypatch,
                                        value):
        monkeypatch.setenv("PSK_JOBS", value)
        code, _, err = run(capsys, "census",
                           "--input", table_path("slice14.csv"),
                           "--records", str(tmp_path / "r.csv"))
        assert code == EXIT_OK
        assert f"ignoring PSK_JOBS='{value}'" in err

    def test_jobs_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PSK_JOBS", "2")
        code, _, _ = run(capsys, "census",
                         "--input", table_path("slice14.csv"),
                         "--records", str(tmp_path / "r.csv"))
        assert code == EXIT_OK


# The documented exit code of every error the package defines.
EXIT_OF = {
    errors.MalformedPD: EXIT_PARSE,
    errors.DisconnectedProjection: EXIT_UNSUPPORTED,
    errors.ClosedOverComponent: EXIT_UNSUPPORTED,
    errors.EulerViolation: EXIT_PARSE,
    errors.ComputeTimeout: EXIT_TIMEOUT,
    errors.CertificateError: EXIT_REJECTED,
    errors.VersionMismatch: EXIT_REJECTED,
    errors.SchemaError: EXIT_REJECTED,
    errors.FileUnreadable: EXIT_PARSE,
    errors.MissingColumns: EXIT_PARSE,
}


def test_every_error_has_its_exit_code(capsys, monkeypatch):
    """Each error escaping a command ends as its exit code and one
    ``error: <Type>: <message>`` line, never as a traceback."""
    defined = {cls for cls in vars(errors).values() if isinstance(cls, type)
               and issubclass(cls, errors.PlainSphereError)
               and cls is not errors.PlainSphereError}
    assert set(EXIT_OF) == defined
    for cls, expected in EXIT_OF.items():
        def fail(text, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "parse_pd", fail)
        code, out, err = run(capsys, "compute", "--pd", TREFOIL_PD)
        assert code == expected, cls
        assert out == "" and err == f"error: {cls.__name__}: boom\n"


def test_import_loads_no_process_pool(tmp_path):
    """No run loads the pool modules, not even a pooled census, whose
    workers are forked over pipes; and the record types are named
    tuples, so no run pays for ``dataclasses`` and the ``inspect`` it
    imports."""
    src = Path(plainsphere.__file__).resolve().parents[1]
    pooled = ["census", "--input", table_path("fixtures_small.csv"),
              "--records", str(tmp_path / "records.csv"), "--jobs", "2",
              "--fresh"]
    probe = ("import sys, plainsphere.cli; argv = sys.argv[1:]; "
             "assert not argv or plainsphere.cli.main(argv) == 0; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('concurrent', 'multiprocessing', 'dataclasses', 'inspect')))")
    for argv in ([], pooled):
        out = subprocess.run([sys.executable, "-c", probe, *argv], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out.splitlines()[-1] == "[]", argv
    assert len(census.existing_records(str(tmp_path / "records.csv"))) == 25
