"""End-to-end CLI behavior: flags, formats, exit codes."""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import plainsphere
from plainsphere import census, cli, errors, parse_pd
from plainsphere.cli import (EXIT_EMPTY_CENSUS, EXIT_HASH_MISMATCH, EXIT_OK,
                             EXIT_PARSE, EXIT_REJECTED, EXIT_TIMEOUT,
                             EXIT_UNSUPPORTED, main)

from conftest import K14_PD, TREFOIL_PD, table_path

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
        code, _, err = run(capsys, "compute", "--pd", K14_PD,
                           "--timeout-ms", "1")
        assert code == EXIT_TIMEOUT and "deadline" in err
        # the interval the search proved before time ran out
        assert re.search(r"proved (omega|rho) >= \d+, \1 <= \d+", err)

    def test_timeout_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PSK_TIMEOUT_MS", "1")
        code, _, _ = run(capsys, "compute", "--pd", K14_PD)
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
        for data in (b"", b"name,diagram_hash\nk,00ff\n"):
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
        table = tmp_path / "t.csv"
        table.write_text(f'name,pd_notation\nk,"{TREFOIL_PD}"\n')
        records = tmp_path / "r.csv"
        code, _, err = run(capsys, "census", "--input", str(table),
                           "--records", str(records),
                           "--summary", str(tmp_path / "no" / "s.json"))
        assert code == EXIT_PARSE
        assert err.startswith("error: FileNotFoundError: ")
        with open(records, newline="") as fh:
            assert [r["name"] for r in csv.DictReader(fh)] == ["k"]

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
    errors.BridgeDetected: EXIT_PARSE,
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


def test_import_loads_no_process_pool():
    """The pool modules load only when ``--jobs`` asks for workers, so a
    serial run never pays their import time or memory; and the record
    types are named tuples, so no run pays for ``dataclasses`` and the
    ``inspect`` it imports."""
    src = Path(plainsphere.__file__).resolve().parents[1]
    probe = ("import sys, plainsphere.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('concurrent', 'multiprocessing', 'dataclasses', 'inspect')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"
