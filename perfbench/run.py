"""Benchmark of plainsphere: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload cert_replay --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in perfbench/NOTES.md):

* ``trefoil_sums``: ``psk compute --invariant both --certificate``, in
  process, on the closures of sigma1^3 sigma2^3 ... sigmak^3, k = 1..6;
* ``braid_census``: ``psk census --jobs 2 --fresh`` as a subprocess on 105
  random braid closures, the 42 bundled rows and 3 rows it must reject;
* ``cert_replay``: ``psk verify``, in process, once per stored certificate
  (514 of them).

The seed draws the random diagrams from a frozen pool of 420, one from
each group of pool items of like search cost.  One client runs the items
in a closed loop, pass after pass, until ``--seconds`` have gone by, and
every output is checked against the frozen manifest in
``perfbench/data``.  With ``--trace 0`` the last line of output holds the
end-to-end metrics, as medians over passes of times in reference
seconds (see ``HostSpeed``); with ``--trace 1`` it holds the per-layer
metrics of traced passes, which alternate with untraced passes of the
same items.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("trefoil_sums", "braid_census", "cert_replay")
JOBS = 2                 # census workers, one per core of a 2-core host
SETUP_PROBES = 7         # set-up is timed this many times per run
PROBE_REFERENCE_S = 0.0025  # the speed probe's CPU time at reference speed
PROBE_EVERY_S = 0.05     # the speed probe runs this often between items
CHILD_PROBE_EVERY_S = 0.2  # ... and this often beside a child process
CHILD_TIMEOUT_S = 150    # a census subprocess is killed after this
CERT_TREFOILS = 5        # cert_replay replays trefoil sums #1..#5
CENSUS_GROUP = 4         # braid_census draws 105 of the 420 random diagrams
CENSUS_TAIL = 24         # ... but takes fixed ones from the 24 costliest
REPLAY_GROUP = 2         # cert_replay draws 210 of them

if not (SRC / "plainsphere" / "cli.py").is_file():
    sys.exit(f"error: {SRC / 'plainsphere'} not found; "
             "run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import plainsphere  # noqa: E402
from plainsphere import cli  # noqa: E402
from plainsphere.certificate import deserialize_certificate, verify  # noqa: E402
from plainsphere.diagram import parse_pd  # noqa: E402
from plainsphere.errors import PlainSphereError  # noqa: E402

from braids import braid_pd  # noqa: E402
from spans import Tracer  # noqa: E402

if Path(plainsphere.__file__).resolve().parent != SRC / "plainsphere":
    sys.exit(f"error: imported plainsphere from {plainsphere.__file__}")


@dataclass
class Item:
    """One CLI call and the check of its exit code and output."""

    name: str
    argv: list[str]
    check: object  # (exit code, output) -> error text or None


@dataclass
class Pass:
    wall_s: float
    item_s: dict[str, float]  # latency of each item that passed its check
    attempted: int
    failed: int
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0
    summary: dict = field(default_factory=dict)
    scale: float = 1.0  # reference seconds per measured second in this pass


def load_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def draw(pool: list[dict], rng: random.Random, group: int,
         tail: int = 0) -> list[dict]:
    """One item from each `group` pool items adjacent in search cost.

    Every draw then holds the same mix of cheap and costly searches, so
    the seed changes the diagrams but hardly the work.  From the `tail`
    costliest items the first of each group is taken whatever the seed:
    a p98 over about 150 items is set by the 3 or 4 costliest, and a
    draw among them made p98 alone spread by 0.04-0.08 over ten seeds.
    """
    ranked = sorted(pool, key=lambda it: (it["search_sets"], it["name"]))
    return [ranked[i] if i >= len(ranked) - tail
            else rng.choice(ranked[i:i + group])
            for i in range(0, len(ranked), group)]


def select(workload: str, seed: int) -> list[dict]:
    """The workload's manifest items, drawn by `seed`, in a fixed order.

    The order does not depend on the seed: each group of the draw keeps
    its place in the queue, so the census pool always meets its heavy
    rows at the same points of a pass.
    """
    manifest = load_jsonl(HERE / "data" / "manifest.jsonl")
    kinds: dict[str, list[dict]] = {}
    for it in manifest:
        kinds.setdefault(it["kind"], []).append(it)
    rng = random.Random(f"{workload}-{seed}")
    if workload == "trefoil_sums":
        items = kinds["trefoil_sum"]
    elif workload == "braid_census":
        items = (draw(kinds["random"], rng, CENSUS_GROUP, CENSUS_TAIL)
                 + kinds["bundled"] + kinds["reject"])
    else:
        items = (draw(kinds["random"], rng, REPLAY_GROUP) + kinds["bundled"]
                 + kinds["trefoil_sum"][:CERT_TREFOILS])
    for it in items:
        if "word" in it and braid_pd(it["word"], it["strands"]) != it["pd"]:
            raise SystemExit(f"error: generator no longer reproduces {it['name']}")
    random.Random(workload).shuffle(items)
    return items


# -- set-up: inputs written into the run's work directory ---------------


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def setup(workload: str, seed: int, work: Path):
    """Make the workload's inputs; returns CLI items or a census table."""
    items = select(workload, seed)
    if workload == "trefoil_sums":
        return [trefoil_item(it, work) for it in items]
    if workload == "braid_census":
        return Census(items, work)
    certs = {c["name"]: c for c in load_jsonl(HERE / "data" / "certs.jsonl")}
    out = []
    for it in items:
        for mode in ("omega", "rho"):
            text = certs[it["name"]][mode]
            cert_file = write(work / f"{it['name']}.{mode}.cert", text)
            out.append(Item(f"{it['name']}.{mode}",
                            ["verify", "--pd", it["pd"],
                             "--certificate", cert_file],
                            accepted_line(text)))
    return out


def trefoil_item(it: dict, work: Path) -> Item:
    pd_file = write(work / f"{it['name']}.pd", it["pd"])
    cert_file = work / f"{it['name']}.cert"

    def check(code, out):
        if code != 0:
            return f"exit {code!r}: {out.strip()[-200:]}"
        result = json.loads(out)
        got = (result["n"], result["omega"], result["rho"], len(result["rho_seeds"]))
        want = (it["n"], it["omega"], it["rho"], it["rho"])
        if got != want:
            return f"(n, omega, rho, seeds) = {got}, expected {want}"
        cert = deserialize_certificate(cert_file.read_text(encoding="utf-8"))
        cert_file.unlink()  # the next pass must write it again
        verdict = verify(parse_pd(it["pd"]), cert)
        if not verdict.ok or cert.mode != "plainsphere":
            return f"emitted certificate rejected: {verdict.reason} {verdict.detail}"
        return None

    return Item(it["name"], ["compute", "--pd-file", pd_file, "--invariant",
                             "both", "--certificate", str(cert_file),
                             "--format", "json"], check)


def accepted_line(cert_text: str):
    """The check of one `psk verify` call: accepted, with this summary line."""
    lines = cert_text.splitlines()
    moves = [m.split() for m in lines[4:]]
    tau = sum(len(m[3].split(",")) for m in moves if m[0] == "L")
    expected = (f"certificate accepted: {lines[2].replace(': ', '=')} "
                f"{lines[3].replace(': ', '=')} moves={len(moves)} tau={tau}\n")

    def check(code, out):
        if code != 0 or out != expected:
            return f"exit {code!r}: {out.strip()[-200:]!r}, expected {expected!r}"
        return None

    return check


class Census:
    """A census table and the check of the records and summary it yields."""

    def __init__(self, items: list[dict], work: Path):
        self.items = items
        self.table = work / "census.csv"
        self.records = work / "records.csv"
        self.summary = work / "summary.json"
        lines = ["name,pd_notation,bridge_number"]
        for it in items:
            beta = it.get("bridge_number")
            lines.append(f'{it["name"]},"{it["pd"]}",{"" if beta is None else beta}')
        write(self.table, "\n".join(lines) + "\n")

    def argv(self, jobs: int) -> list[str]:
        return ["census", "--input", str(self.table), "--records",
                str(self.records), "--summary", str(self.summary),
                "--jobs", str(jobs), "--fresh"]

    def clear(self) -> None:
        self.records.unlink(missing_ok=True)
        self.summary.unlink(missing_ok=True)

    def check(self, code, out) -> tuple[int, dict[str, float], dict]:
        """(failed rows, millis of each correct row, summary)."""
        try:
            if code != 0:
                raise ValueError(f"exit {code!r}: {out.strip()[-300:]}")
            with open(self.records, newline="", encoding="utf-8") as fh:
                records = {r["name"]: r for r in csv.DictReader(fh)}
            summary = json.loads(self.summary.read_text(encoding="utf-8"))
            skipped = {s["name"]: s["reason"] for s in summary["skipped_rows"]}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            report(f"census failed: {exc}")
            return len(self.items), {}, {}
        errors = [f"unexpected record {name}" for name in
                  set(records) - {it["name"] for it in self.items}]
        millis = {}
        for it in self.items:
            rec = records.get(it["name"])
            if it["kind"] == "reject":
                reason = skipped.get(it["name"], "not skipped")
                if reason.split(":")[0] != it["reason"] or rec is not None:
                    errors.append(f"{it['name']}: {reason!r}, expected {it['reason']}")
                continue
            try:
                error = check_record(it, rec)
            except (ValueError, KeyError) as exc:
                error = f"unreadable record: {exc!r}"
            if error:
                errors.append(f"{it['name']}: {error}")
            else:
                millis[it["name"]] = float(rec["millis"])
        for error in errors:
            report(error)
        return len(errors), millis, summary


def check_record(it: dict, rec: dict | None) -> str | None:
    if rec is None:
        return "no record (skipped or timed out)"
    w, r = int(rec["omega"]), int(rec["rho"])
    if (int(rec["n"]), w, r) != (it["n"], it["omega"], it["rho"]):
        return f"(n, omega, rho) = {(rec['n'], w, r)}, expected " \
               f"{(it['n'], it['omega'], it['rho'])}"
    if not r <= w <= int(rec["strands"]) or w < it["components"]:
        return f"omega={w} rho={r} breaks rho <= omega <= strands or components"
    if "word" in it and w > it["strands"]:
        return f"omega={w} exceeds the braid index {it['strands']}"
    if int(rec["strict_gap"]) != w - r:
        return f"strict_gap {rec['strict_gap']} != {w - r}"
    beta = it.get("bridge_number")
    want = ("", "") if beta is None else (str(beta), "true")
    if (rec["beta_ref"], rec["bound_ok"]) != want:
        return f"beta_ref, bound_ok = {rec['beta_ref']}, {rec['bound_ok']}"
    return None


def report(message: str) -> None:
    print(f"check failed: {message}", file=sys.stderr)


# -- passes -------------------------------------------------------------


def call(main, argv: list[str]):
    """Run one CLI call in process: (seconds, exit code, captured output)."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        start = perf_counter()
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # the pass goes on; the item fails
            code = exc
            buf.write(traceback.format_exc())
        elapsed = perf_counter() - start
    return elapsed, code, buf.getvalue()


def cli_pass(items: list[Item], main, tracer: Tracer | None = None,
             speed: HostSpeed | None = None) -> Pass:
    """One pass over `items`; with `speed`, probes run between items and
    their time is left out of the pass's wall time."""
    results = []
    probes: list[float] = []
    probe_s = 0.0
    start = last_probe = perf_counter()
    for it in items:
        if speed is not None and (not probes
                                  or perf_counter() - last_probe >= PROBE_EVERY_S):
            probe_start = perf_counter()
            probes.append(speed.probe())
            last_probe = perf_counter()
            probe_s += last_probe - probe_start
        if tracer is not None:
            tracer.item = it.name
        results.append(call(main, it.argv))
    wall = perf_counter() - start - probe_s
    if speed is not None:
        probes.append(speed.probe())
    latency = {}
    for it, (elapsed, code, out) in zip(items, results):
        try:
            error = it.check(code, out)
        except (ValueError, KeyError, TypeError, OSError,
                PlainSphereError) as exc:
            error = f"unreadable output: {exc!r}"
        if error:
            report(f"{it.name}: {error}")
        else:
            latency[it.name] = elapsed
    return Pass(wall, latency, len(items), len(items) - len(latency),
                scale=speed.scale(probes) if speed is not None else 1.0)


def census_inprocess_pass(census: Census, main, tracer: Tracer | None = None) -> Pass:
    census.clear()
    if tracer is not None:
        tracer.item = "census"
    wall, code, out = call(main, census.argv(1))
    failed, millis, summary = census.check(code, out)
    return Pass(wall, {k: v / 1000 for k, v in millis.items()},
                len(census.items), failed, summary=summary)


def census_subprocess_pass(census: Census, speed: HostSpeed | None = None) -> Pass:
    """`psk census --jobs 2` in a child; CPU and memory cover its workers."""
    census.clear()
    env = {k: v for k, v in os.environ.items()
           if k not in ("PSK_JOBS", "PSK_TIMEOUT_MS")}
    env["PYTHONPATH"] = str(SRC)
    log = census.table.with_suffix(".log")
    wall, code, usage, probes = run_child(
        [sys.executable, "-m", "plainsphere.cli"] + census.argv(JOBS),
        log, env, speed)
    failed, millis, summary = census.check(code, log.read_text(encoding="utf-8"))
    return Pass(wall, {k: v / 1000 for k, v in millis.items()},
                len(census.items), failed, cpu_s=usage.ru_utime + usage.ru_stime,
                maxrss_mb=usage.ru_maxrss / 1024, summary=summary,
                scale=speed.scale(probes) if speed is not None else 1.0)


def run_child(argv: list[str], log: Path, env: dict | None,
              speed: HostSpeed | None):
    """Run `argv` in its own process group, output to `log`, killed after
    CHILD_TIMEOUT_S: (wall seconds, exit code, rusage of its process tree,
    speed probes taken while it ran)."""
    probes: list[float] = []
    stop = threading.Event()

    def probe_loop():
        while not stop.wait(CHILD_PROBE_EVERY_S):
            probes.append(speed.probe())

    if speed is not None:
        probes.append(speed.probe())
    with open(log, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT, start_new_session=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, kill_group, (proc.pid,))
        prober = threading.Thread(target=probe_loop)
        killer.start()
        if speed is not None:
            prober.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            stop.set()
            killer.cancel()
            killer.join()
            if prober.is_alive():
                prober.join()
            if proc.returncode is None:
                kill_group(proc.pid)
                proc.wait()
    if speed is not None:
        probes.append(speed.probe())
    return wall, proc.returncode, usage, probes


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- runs ---------------------------------------------------------------


class HostSpeed:
    """Probes host speed with a fixed pure-Python job, independent of plainsphere.

    Other tenants of a shared host switch it between a fast and a slow
    state, about 1.6 times slower, within seconds, and how much of the
    time it spends slow drifts over minutes.  No statistic of the
    program's own times removes that: the median of a run follows the
    share of slow time, and the fastest repetition is reached in some
    runs and not in others.  So a short job (2.5 ms on a quiet host) is
    timed while the work runs: between the items of an in-process pass,
    and from a thread of this process while a child process runs (less
    often there, as it takes a core from the child's workers).  It
    times its own CPU time, which the slow state stretches as much as
    wall time but which waiting for a core the child holds does not.
    Each pass's times are reported in reference seconds: measured
    seconds x PROBE_REFERENCE_S / the pass's mean probe time.  A change
    to plainsphere cannot change the job, so it cannot hide in the scale.
    """

    def __init__(self):
        rng = random.Random(0)
        self.graph = [rng.sample(range(400), 6) for _ in range(400)]
        self.samples: list[float] = []

    def probe(self) -> float:
        start = thread_time()
        for root in range(0, 40, 2):
            seen = {root}
            todo = [root]
            for v in todo:
                for w in self.graph[v]:
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
        elapsed = thread_time() - start
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(probes: list[float]) -> float:
        return PROBE_REFERENCE_S / statistics.fmean(probes)


def measure(workload: str, inputs, seconds: float,
            speed: HostSpeed) -> tuple[list[Pass], float]:
    """Untraced passes until `seconds` have gone by; (passes, peak RSS MB)."""
    passes: list[Pass] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        if workload == "braid_census":
            passes.append(census_subprocess_pass(inputs, speed))
        else:
            passes.append(cli_pass(inputs, cli.main, speed=speed))
    if workload == "braid_census":
        peak = max(p.maxrss_mb for p in passes)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, peak


def measure_traced(workload: str, inputs, seconds: float, spans_path: Path):
    """Untraced and traced passes in turn; (all passes, layer metrics)."""
    plain: list[Pass] = []
    traced: list[Pass] = []
    parallel: list[Pass] = []
    layers: list[dict] = []
    spans = []
    # One pass first, uncounted, so that the first untraced pass is not
    # the only one to pay for cold caches.
    if workload == "braid_census":
        census_inprocess_pass(inputs, cli.main)
    else:
        cli_pass(inputs, cli.main)
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        tracer = Tracer()
        main = tracer.wrap("cli.main", cli.main)
        if workload == "braid_census":
            parallel.append(census_subprocess_pass(inputs))
            plain.append(census_inprocess_pass(inputs, cli.main))
            with tracer.installed():
                traced.append(census_inprocess_pass(inputs, main, tracer))
        else:
            plain.append(cli_pass(inputs, cli.main))
            with tracer.installed():
                traced.append(cli_pass(inputs, main, tracer))
        layers.append(tracer.layer_metrics()
                      | census_metrics(traced[-1], parallel[-1:]))
        spans.extend(tracer.spans)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    # The lower median is a value one traced pass gave, so counts stay whole.
    metrics = {name: statistics.median_low(m[name] for m in layers)
               for name in layers[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in plain) - 1)
    return plain + traced + parallel, metrics


def census_metrics(traced: Pass, parallel: list[Pass]) -> dict[str, float]:
    """Row totals of a traced census; CPU use of the parallel one, if any."""
    totals = traced.summary.get("totals", {})
    rows = totals.get("rows", 0)
    cpu_s = parallel[0].cpu_s if parallel else 0.0
    return {
        "census.rows_completed": totals.get("completed", 0),
        "census.rows_skipped": totals.get("skipped", 0),
        "census.completed_frac": totals["completed"] / rows if rows else 0.0,
        "census.worker_cpu_s": cpu_s,
        "census.parallel_efficiency":
            cpu_s / (JOBS * parallel[0].wall_s) if parallel else 0.0,
    }


def time_setup(workload: str, seed: int, speed: HostSpeed) -> tuple[float, float]:
    """Median wall time of fresh interpreters that only import and set up:
    (reference seconds, measured seconds)."""
    times = []
    for i in range(SETUP_PROBES):
        work = WORK / f"probe-{workload}-{seed}-{os.getpid()}-{i}"
        log = work.with_suffix(".log")
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                workload, "--seed", str(seed), "--setup-only", str(work)]
        wall, code, _, probes = run_child(argv, log, None, speed)
        times.append((wall * speed.scale(probes), wall))
        shutil.rmtree(work, ignore_errors=True)
        output = log.read_text(encoding="utf-8", errors="replace")
        log.unlink()
        if code != 0:
            raise SystemExit(f"error: set-up failed: {output.strip()[-500:]}")
    return (statistics.median(t for t, _ in times),
            statistics.median(w for _, w in times))


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:  # every item failed, or all but one
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORK_DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.setup_only:
        work = Path(args.setup_only)
        work.mkdir(parents=True)
        setup(args.workload, args.seed, work)
        return 0

    WORK.mkdir(exist_ok=True)
    speed = HostSpeed()
    if not args.trace:
        setup_s, setup_measured_s = time_setup(args.workload, args.seed, speed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        inputs = setup(args.workload, args.seed, work)
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            passes, metrics = measure_traced(args.workload, inputs,
                                             args.seconds, spans_path)
        else:
            passes, peak_mb = measure(args.workload, inputs, args.seconds, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} items attempted, {failed} failed")
    if args.trace:
        metrics["failed_frac"] = failed / attempted
        units = {name: unit_of(name) for name in metrics}
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        per_item: dict[str, list[float]] = {}
        for p in passes:
            for name, seconds in p.item_s.items():
                per_item.setdefault(name, []).append(seconds * p.scale)
        samples = [statistics.median(v) for v in per_item.values()]
        metrics = {
            "wall_s": statistics.median(p.wall_s * p.scale for p in passes),
            "item_ms_p50": 1000 * percentile(samples, 50),
            "item_ms_p98": 1000 * percentile(samples, 98),
            "setup_s": setup_s,
            "peak_rss_mb": peak_mb,
        }
        units = {"wall_s": "s", "item_ms_p50": "ms", "item_ms_p98": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"item latency: median over {len(passes)} passes of each of "
              f"{len(samples)} items, "
              f"{sum(s > metrics['item_ms_p98'] / 1000 for s in samples)} "
              "beyond p98")
        print(f"host speed: {len(speed.samples)} probes, fastest "
              f"{1000 * min(speed.samples):.3f} ms, median "
              f"{1000 * statistics.median(speed.samples):.3f} ms; median "
              f"pass scale {statistics.median(p.scale for p in passes):.4f}")
        print(f"measured wall_s {statistics.median(p.wall_s for p in passes):.6g} s")
        print(f"measured setup_s {setup_measured_s:.6g} s")
        print(f"failed_frac {failed / attempted:.6g} ratio")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("self_s") or ".self_s.sum" in name or name.endswith("cpu_s"):
        return "s"
    if name.endswith("us_per_set") or name.endswith("us_per_move"):
        return "us"
    if name.endswith(("_frac", "_efficiency")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
