"""Command line front end: ``psk compute | census | verify``.

Exit codes are part of the contract:

* 0 success
* 2 unreadable input (malformed PD text, non-spherical rotation system,
  unreadable file) or an output that cannot be written
* 3 structurally unsupported diagram (split projection, closed over-component)
* 4 computation timed out
* 5 census had no row to compute or resume: each failed the table's own
  checks (missing field, duplicate name, bad bridge number,
  ``--max-crossings``); a row whose PD text does not parse is computed
* 6 certificate rejected
* 7 certificate rejected specifically for a diagram-hash mismatch

The commands raise; ``main`` turns an error into its exit code in one
place, ``EXIT_CODES``, and prints it as one line
``error: <Type>: <message>``.

``PSK_JOBS`` and ``PSK_TIMEOUT_MS`` provide defaults for ``--jobs`` and
``--timeout-ms``; explicit flags win.  ``--jobs`` and ``--max-crossings``
must be at least 1 and ``--timeout-ms`` at least 0 (0: no limit), or
argparse exits 2; an environment value that is not such an integer is
ignored with a warning.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from . import __version__
from .census import (ALREADY_RECORDED, NAME_TAKEN, CensusOptions,
                     existing_records, ingest, run_census, write_records,
                     write_summary)
from .certificate import (HASH_MISMATCH, deserialize_certificate,
                          serialize_certificate, verify)
from .diagram import parse_pd
from .dual import build_dual
from .engine import omega, rho
from .errors import (CertificateError, ClosedOverComponent, ComputeTimeout,
                     DisconnectedProjection, FileUnreadable, PlainSphereError)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_TIMEOUT = 4
EXIT_EMPTY_CENSUS = 5
EXIT_REJECTED = 6
EXIT_HASH_MISMATCH = 7

# Any other PlainSphereError, and an OSError from writing an output, is 2.
EXIT_CODES = {
    DisconnectedProjection: EXIT_UNSUPPORTED,
    ClosedOverComponent: EXIT_UNSUPPORTED,
    ComputeTimeout: EXIT_TIMEOUT,
    CertificateError: EXIT_REJECTED,
}


def _at_least(least: int):
    """An argparse type: an integer no smaller than `least`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    return integer


# option dest -> (environment variable that supplies its default, least value)
ENV_DEFAULTS = {"timeout_ms": ("PSK_TIMEOUT_MS", 0), "jobs": ("PSK_JOBS", 1)}


def _env_int(name: str, least: int) -> int | None:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return _at_least(least)(raw)
    except (ValueError, argparse.ArgumentTypeError):
        print(f"warning: ignoring {name}={raw!r}: not an integer >= {least}",
              file=sys.stderr)
        return None


def _load_diagram(args):
    """(diagram, dual) of the ``--pd`` text or the ``--pd-file``."""
    text = args.pd
    if text is None:
        try:
            with open(args.pd_file, encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise FileUnreadable(f"cannot read PD file: {exc}") from exc
    d = parse_pd(text)
    return d, build_dual(d)


def cmd_compute(args) -> int:
    d, dual = _load_diagram(args)
    deadline = None
    if args.timeout_ms:
        deadline = time.monotonic() + args.timeout_ms / 1000.0
    started = time.monotonic()
    result = {"n": d.n, "strands": len(d.strands),
              "omega": None, "rho": None,
              "omega_seeds": None, "rho_seeds": None}
    # rho works out both invariants on the dual loaded here, and omega
    # reads its half; the certificate is rho's, or omega's with
    # --invariant omega, which builds none for rho
    r, cert = rho(d, dual=dual, deadline=deadline,
                  certificate=args.invariant != "omega")
    if args.invariant != "omega":
        result["rho"], result["rho_seeds"] = r, list(cert.seeds)
    if args.invariant != "rho":
        w, wcert = omega(d, deadline=deadline)
        result["omega"], result["omega_seeds"] = w, list(wcert.seeds)
        if args.invariant == "omega":
            cert = wcert
    result["millis"] = round((time.monotonic() - started) * 1000.0, 3)
    result["certificate"] = None
    if args.certificate:
        with open(args.certificate, "w", encoding="utf-8") as fh:
            fh.write(serialize_certificate(cert))
        result["certificate"] = args.certificate
    _print_compute(result, args.format)
    return EXIT_OK


def _print_compute(result: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(result, sort_keys=True))
    elif fmt == "csv":
        buf = io.StringIO()
        fields = ["n", "strands", "omega", "rho", "omega_seeds",
                  "rho_seeds", "certificate", "millis"]
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        row = dict(result)
        for key in ("omega_seeds", "rho_seeds"):
            row[key] = " ".join(map(str, row[key])) if row[key] else ""
        writer.writerow(row)
        sys.stdout.write(buf.getvalue())
    else:
        print(f"n: {result['n']}")
        print(f"strands: {result['strands']}")
        if result["omega"] is not None:
            seeds = ",".join(map(str, result["omega_seeds"]))
            print(f"omega: {result['omega']}  seeds: {seeds}")
        if result["rho"] is not None:
            seeds = ",".join(map(str, result["rho_seeds"]))
            print(f"rho: {result['rho']}  seeds: {seeds}")
        if result["certificate"]:
            print(f"certificate: {result['certificate']}")


def cmd_census(args) -> int:
    rows = ingest(args.input)
    resume = {} if args.fresh else existing_records(args.records)
    if args.summary:  # probed as the records are, and left as it was
        new = not os.path.exists(args.summary)
        with open(args.summary, "a", encoding="utf-8"):
            pass
        if new:
            os.remove(args.summary)
    created = not os.path.exists(args.records)
    with open(args.records, "a", encoding="utf-8"):
        pass  # an unwritable output fails before any row is computed
    options = CensusOptions(
        max_crossings=args.max_crossings,
        jobs=args.jobs or 1,
        timeout_ms=args.timeout_ms,
        resume=resume,
    )
    # A fresh sweep starts the file over at its first finished chunk, so
    # a table with no eligible row leaves the file as it was.
    append = bool(resume)

    def emit(records: list[dict]) -> None:
        nonlocal append
        write_records(args.records, records, append=append)
        append = True

    _, summary = run_census(rows, options, emit)
    resumed = sum(1 for s in summary["skipped_rows"]
                  if s["reason"] in (ALREADY_RECORDED, NAME_TAKEN))
    if summary["totals"]["eligible"] == 0 and resumed == 0:
        if created:
            os.remove(args.records)  # the probe's empty file, not a result
        print("error: census input has no processable rows", file=sys.stderr)
        return EXIT_EMPTY_CENSUS
    if args.summary:
        write_summary(args.summary, summary)
    totals = summary["totals"]
    print(f"census: {totals['completed']} completed, "
          f"{totals['skipped']} skipped, {totals['timed_out']} timed out; "
          f"gaps {summary['gap_count']}, "
          f"bound violations {summary['violation_count']}")
    return EXIT_OK


def cmd_verify(args) -> int:
    d, dual = _load_diagram(args)
    try:
        with open(args.certificate, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CertificateError(f"cannot read certificate: {exc}") from exc
    cert = deserialize_certificate(text)
    result = verify(d, cert, dual)
    if result.ok:
        print(f"certificate accepted: mode={cert.mode} "
              f"seeds={','.join(map(str, cert.seeds))} "
              f"moves={len(cert.moves)} tau={cert.tau}")
        return EXIT_OK
    print(f"certificate rejected: {result.reason}: {result.detail}",
          file=sys.stderr)
    if result.reason == HASH_MISMATCH:
        return EXIT_HASH_MISMATCH
    return EXIT_REJECTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psk",
        description="Exact Wirtinger and plain-sphere numbers of link "
                    "diagrams, with verifiable coloring certificates.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pd_args(p):
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--pd", help="PD text, e.g. 'X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)'")
        grp.add_argument("--pd-file", help="file containing PD text")

    p = sub.add_parser("compute", help="compute omega and/or rho for one diagram")
    add_pd_args(p)
    p.add_argument("--invariant", choices=("omega", "rho", "both"),
                   default="both")
    p.add_argument("--certificate",
                   help="write rho's certificate here, or omega's with "
                        "--invariant omega")
    p.add_argument("--format", choices=("json", "csv", "plain"),
                   default="plain")
    p.add_argument("--timeout-ms", type=_at_least(0))
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("census", help="run omega/rho over a CSV knot table")
    p.add_argument("--input", required=True)
    p.add_argument("--records", required=True,
                   help="output CSV; re-runs append rows for new names only "
                        "and skip names recorded for another diagram")
    p.add_argument("--summary", help="output JSON summary path")
    p.add_argument("--jobs", type=_at_least(1))
    p.add_argument("--timeout-ms", type=_at_least(0))
    p.add_argument("--max-crossings", type=_at_least(1))
    p.add_argument("--fresh", action="store_true",
                   help="ignore existing records instead of resuming")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="check a certificate against a diagram")
    add_pd_args(p)
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for dest, (name, least) in ENV_DEFAULTS.items():
        if getattr(args, dest, 0) is None:  # the command has it, unset
            setattr(args, dest, _env_int(name, least))
    try:
        return args.func(args)
    except (PlainSphereError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next((EXIT_CODES[c] for c in type(exc).__mro__
                     if c in EXIT_CODES), EXIT_PARSE)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
