"""Benchmark of the `lathom` command line on generated manifests.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Load is a closed loop with one client: one `lathom` command at a time, each
in a fresh Python process (perfbench/child.py), as a command-line user runs
it, so the program's in-process caches start cold every time.  Commands are
started while the next one is predicted to end within S seconds (at least
one, and two with --trace 1).  Each command's outputs are checked after
timing stops (checks.py); a non-zero exit, an exception, non-convergence or
a failed check fails the command.

--trace 0 reports, over the run's successful commands:
  wall_s       spawn to exit of the command process (minimum)
  setup_s      spawn to the first entry into basic_scheme: parsing,
               rasterising, lattice and Smith form, coefficient table,
               orthonormalisation, Green table (median)
  solve_s      summed time inside the basic_scheme calls (minimum)
  peak_rss_mb  the command process's own peak resident set (minimum)
Minima where the median is not steady: on a shared 2-CPU machine a CPU
runs at full speed or about 1.45 times slower for seconds at a time, with
other tenants' load, so the median of a few commands jumps between the two
speeds (spread across seeds 0.3 for the 0.08 s box solve), while the least
disturbed command estimates the program's own cost.  The run record keeps
every command's numbers and their quartiles.
--trace 1 alternates untraced and traced commands and reports per-layer
metrics from the fastest traced command (probes.py), named after lathom's
modules, plus the tracing overhead (that command's wall time minus the
fastest untraced one's).  The counts in COMPUTED are derived from array
sizes, not measured, and the run record says so.

The last line of standard output is the JSON result; the line before it is
the run record (versions, machine, thread settings, every command's
timings).  Without --workload every workload runs in turn, each printing
its record and result.  --smoke runs every workload once at a tiny pattern
size, with and without tracing, and checks that every metric in
BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from checks import CHECKS, CheckFailed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Single-threaded BLAS/OpenMP in the command process: at or below nproc, and
# the same on every machine, so runs compare.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
COMMAND_LIMIT_S = 150.0  # a run must end within 180 s; a command is killed here
SOLVE_SPAN = "solver:basic_scheme"

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
LAYER_METRICS = {
    "pattern_fft.fwd_s": "s",
    "pattern_fft.inv_s": "s",
    "pattern_fft.calls": "count",
    "pattern_fft.bytes_computed": "B",
    "green.apply_s": "s",
    "green.apply_calls": "count",
    "green.multiplier_s": "s",  # self time of apply_green
    "green.table_s": "s",
    "green.evals": "count",
    "green.even_table": "bool",
    "kernels.table_s": "s",
    "kernels.orthonormalize_s": "s",
    "kernels.coeffs": "count",
    "kernels.nonzero_share": "ratio",
    "solver.solves": "count",
    "solver.iterations": "count",
    "solver.iter_ms": "ms",
    "solver.self_s": "s",
    "solver.not_converged": "count",
    "lattice.setup_s": "s",
    "lattice.calls": "count",
    "bench.rasterize_s": "s",
    "cli.parse_s": "s",
    "cli.output_s": "s",
    "cli.output_bytes": "B",
    "process.startup_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}
# Counts derived from array sizes, not measured: one complex128 array read
# and one written per transform; one G(k) per nonzero kernel coefficient;
# the size of the coefficient table.
COMPUTED = ("pattern_fft.bytes_computed", "green.evals", "kernels.coeffs")


class CommandFailed(Exception):
    pass


def _child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC
    return env


def run_command(workload, manifest_path, workdir, index, traced, limit_s):
    """Run one command in a fresh process; returns its record (not yet checked)."""
    outdir = os.path.join(workdir, f"out{index}")
    probe_path = os.path.join(workdir, f"probe{index}.json")
    log_path = os.path.join(workdir, f"log{index}.txt")
    argv = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        SRC,
        probe_path,
        "1" if traced else "0",
        "--",
        workload.command,
        manifest_path,
        "--out",
        outdir,
    ]
    with open(log_path, "wb") as log:
        start_ns = time.perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=_child_env(), cwd=workdir)
        timer = threading.Timer(max(limit_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end_ns = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {
        "index": index,
        "traced": traced,
        "exit": proc.returncode,
        "start_ns": start_ns,
        "wall_s": (end_ns - start_ns) / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "outdir": outdir,
        "error": None,
    }
    try:
        if proc.returncode != 0:
            raise CommandFailed(f"exit code {proc.returncode}: {_tail(log_path)}")
        with open(probe_path) as handle:
            probe = json.load(handle)
        if os.path.dirname(os.path.dirname(probe["lathom_file"])) != SRC:
            raise CommandFailed(f"imported lathom from {probe['lathom_file']}, not {SRC}")
        solves = [s for s in probe["spans"] if s[0] == SOLVE_SPAN]
        if not solves:
            raise CommandFailed("basic_scheme was never called")
        if not all(s[5] and s[5].get("converged") for s in solves):
            raise CommandFailed("a solve did not converge")
        record["setup_s"] = (solves[0][1] - start_ns) / 1e9
        record["solve_s"] = sum(s[2] - s[1] for s in solves) / 1e9
        record["iterations"] = sum(s[5]["iterations"] for s in solves)
        record["probe"] = probe
        record["digests"] = _digests(outdir)
        record["output_bytes"] = sum(os.path.getsize(os.path.join(outdir, n)) for n in os.listdir(outdir))
    except (CommandFailed, OSError, ValueError, KeyError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _tail(path, lines=3):
    with open(path, errors="replace") as handle:
        return " | ".join(handle.read().strip().splitlines()[-lines:])


def _digests(outdir):
    """sha256 of every CSV: lathom writes byte-identical CSVs for one manifest."""
    digests = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            with open(os.path.join(outdir, name), "rb") as handle:
                digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def layer_metrics(record):
    """Per-layer numbers of one traced command, from its spans."""
    probe = record["probe"]
    spans = probe["spans"]
    total, own, calls, counts = {}, {}, {}, {}
    for name, start, end, child, _, extra in spans:
        total[name] = total.get(name, 0) + end - start
        own[name] = own.get(name, 0) + end - start - child
        calls[name] = calls.get(name, 0) + 1
        for key, value in (extra or {}).items():
            counts.setdefault(name, {}).setdefault(key, []).append(value)

    def t(*names):
        return sum(total.get(n, 0) for n in names) / 1e9

    def n(*names):
        return sum(calls.get(n, 0) for n in names)

    def c(name, key):
        return counts.get(name, {}).get(key, [])

    iterations = sum(c(SOLVE_SPAN, "iterations"))
    coeffs = sum(c("kernels:coefficient_table", "coeffs"))
    top = sum(end - start for _, start, end, _, parent, _ in spans if parent < 0)
    startup = (probe["main_ns"] - record["start_ns"]) / 1e9
    main_s = (probe["end_ns"] - probe["main_ns"]) / 1e9
    # self times of all spans, plus the command's own code outside them
    self_sum = sum(own.values()) / 1e9 + (main_s - top / 1e9) + startup
    even = c("green:periodised_green_table", "even")
    return {
        "pattern_fft.fwd_s": t("pattern_fft:pattern_fft"),
        "pattern_fft.inv_s": t("pattern_fft:pattern_ifft"),
        "pattern_fft.calls": n("pattern_fft:pattern_fft", "pattern_fft:pattern_ifft"),
        "pattern_fft.bytes_computed": sum(c("pattern_fft:pattern_fft", "bytes"))
        + sum(c("pattern_fft:pattern_ifft", "bytes")),
        "green.apply_s": t("green:apply_green"),
        "green.apply_calls": n("green:apply_green"),
        "green.multiplier_s": own.get("green:apply_green", 0) / 1e9,
        "green.table_s": t("green:periodised_green_table"),
        "green.evals": sum(c("green:periodised_green_table", "evals")),
        "green.even_table": int(bool(even) and all(even)),
        "kernels.table_s": t("kernels:coefficient_table"),
        "kernels.orthonormalize_s": t("kernels:orthonormalize"),
        "kernels.coeffs": coeffs,
        "kernels.nonzero_share": sum(c("kernels:coefficient_table", "nonzero")) / max(coeffs, 1),
        "solver.solves": n(SOLVE_SPAN),
        "solver.iterations": iterations,
        "solver.iter_ms": 1e3 * t(SOLVE_SPAN) / max(iterations, 1),
        "solver.self_s": (own.get(SOLVE_SPAN, 0) + own.get("solver:effective_tensor", 0)) / 1e9,
        "solver.not_converged": sum(1 for x in c(SOLVE_SPAN, "converged") if not x),
        "lattice.setup_s": t("lattice:pattern_points", "lattice:generating_set", "lattice:smith_normal_form"),
        "lattice.calls": n("lattice:pattern_points", "lattice:generating_set", "lattice:smith_normal_form"),
        "bench.rasterize_s": own.get("bench:rasterize_hashin", 0) / 1e9,
        "cli.parse_s": t("cli:parse_manifest"),
        "cli.output_s": t("cli:_write_atomic", "cli:write_strain_csv"),
        "cli.output_bytes": record["output_bytes"],
        "process.startup_s": startup,
        "trace.wall_s": record["wall_s"],
        "trace.unattributed_s": record["wall_s"] - self_sum,
    }


def measure(workload, seed, seconds, trace, smoke=False):
    """Run the closed loop and the checks; returns (result, run record)."""
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload.name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        manifest_path = os.path.join(workdir, "manifest.cfg")
        with open(manifest_path, "w") as handle:
            handle.write(workload.manifest(seed, smoke=smoke))
        records = _closed_loop(workload, manifest_path, workdir, seconds, trace)
        _check_outputs(workload, manifest_path, records, seed, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass
    good = [r for r in records if r["error"] is None]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not plain or (trace and not traced):
        raise CommandFailed("no successful command: " + "; ".join(str(r["error"]) for r in records))
    if trace:
        values = layer_metrics(min(traced, key=lambda r: r["wall_s"]))
        values["trace.overhead_s"] = values["trace.wall_s"] - min(r["wall_s"] for r in plain)
        units = LAYER_METRICS
    else:
        values = {k: min(r[k] for r in plain) for k in END_TO_END}
        values["setup_s"] = statistics.median(r["setup_s"] for r in plain)
        units = END_TO_END
    result = {
        "correct": len(good) == len(records),
        "attempted": len(records),
        "failed": len(records) - len(good),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, run_record(workload, seed, seconds, trace, records, smoke)


def _closed_loop(workload, manifest_path, workdir, seconds, trace):
    records = []
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        minimum = 2 if trace else 1
        if len(records) >= minimum:
            typical = statistics.median(r["wall_s"] for r in records)
            if elapsed + typical > seconds:
                break
        traced = bool(trace) and len(records) % 2 == 1
        record = run_command(workload, manifest_path, workdir, len(records), traced, COMMAND_LIMIT_S - elapsed)
        if records and record["error"] is None:
            _compare_with_first(records, record)
        records.append(record)
    return records


def _compare_with_first(records, record):
    """Later outputs must equal the first good one byte for byte; then drop them."""
    first = next((r for r in records if r["error"] is None), None)
    if first is None:
        return
    if record["digests"] != first["digests"]:
        record["error"] = "CSV outputs differ from the first command's"
    shutil.rmtree(record["outdir"], ignore_errors=True)


def _check_outputs(workload, manifest_path, records, seed, smoke):
    """Full check of the first good output; the others were compared to it."""
    first = next((r for r in records if r["error"] is None), None)
    if first is None:
        return
    sys.path.insert(0, SRC)
    from lathom import parse_manifest

    try:
        first["check"] = CHECKS[workload.command](
            parse_manifest(manifest_path), first["outdir"], workload.name, seed, smoke
        )
    except (CheckFailed, OSError, ValueError) as exc:
        for record in records:
            if record["error"] is None:
                record["error"] = f"output check: {exc}"


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_record(workload, seed, seconds, trace, records, smoke):
    """Versions, machine, settings and every command's timings."""
    import numpy

    good = [r for r in records if r["error"] is None and not r["traced"]]
    return {
        "workload": workload.name,
        "command": workload.command,
        "seed": seed,
        "manifest": workload.manifest(seed, smoke=smoke),
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "thread_env": THREAD_ENV,
        "load": "closed loop, 1 client, 1 command per fresh process",
        "computed_not_measured": COMPUTED if trace else [],
        "fail_rate": sum(r["error"] is not None for r in records) / len(records),
        "samples": len(good),
        "quartiles": {k: _quartiles([r[k] for r in good]) for k in END_TO_END} if good else None,
        "commands": [
            {
                k: r.get(k)
                for k in ("index", "traced", "exit", "wall_s", "cpu_s", "setup_s", "solve_s", "iterations", "peak_rss_mb", "error", "check")
            }
            for r in records
        ],
    }


def _git_sha():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cache_sizes():
    """CPU cache sizes as the kernel lists them for cpu0, or {} where it does not."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        for entry in sorted(os.listdir(base)):
            fields = {}
            for name in ("level", "type", "size"):
                with open(os.path.join(base, entry, name)) as handle:
                    fields[name] = handle.read().strip()
            sizes[f"L{fields['level']}{fields['type'][0].lower()}"] = fields["size"]
    except OSError:
        pass
    return sizes


def _expected_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def smoke():
    """Every workload at a tiny size, untraced and traced; checks names and units."""
    expected = _expected_metrics()
    problems = []
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            try:
                result, _ = measure(workload, DEFAULT_SEED, 0.0, trace, smoke=True)
            except CommandFailed as exc:
                problems.append(f"{name} trace {trace}: {exc}")
                continue
            print(json.dumps({"workload": name, "trace": trace, **result}))
            if result["failed"]:
                problems.append(f"{name} trace {trace}: {result['failed']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace {trace}: metrics {got} != {expected[trace]}")
    for problem in problems:
        print("FAIL:", problem)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lathom", "__init__.py")):
        sys.stderr.write(f"error: no lathom sources under {SRC}\n")
        return 2
    if args.smoke:
        return smoke()
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        try:
            result, record = measure(WORKLOADS[name], args.seed, args.seconds, args.trace)
        except CommandFailed as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 1
        print(json.dumps({"record": record}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
