"""Compare what two lathom source trees write for the same runs.

    python tools/parity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are `src` directories (each holding the `lathom`
package).  The runs are every `lathom` command of the "Demo manifests"
loop in .github/workflows/tests.yml, on this repository's manifests, and
the benchmark workloads of perfbench/workloads.py rendered at each seed
of SEEDS, 1 and 5.
Each run starts each tree in a fresh Python process on the same manifest,
with its own output directory.

For every output file, and for the standard output and error, it prints
"identical bytes" or the largest relative difference between the two
trees and where it sits (line and field of a text file, byte offset of a
binary one).  The wall-time line of report.txt and of a solve's standard
output is ignored.  Iteration counts (report.txt, sweep.csv) are printed
side by side, and so is each process's peak resident set (ru_maxrss),
which is informational only and never counts as a difference.

Then each tree, in a fresh process, builds the Green tables of a fixed
corpus, `periodised_green_table(c0, coefficient_table(spec))` as the
command line does: the kernel of every benchmark workload at SEEDS and
of every manifest under demos/manifests (each sweep pair too), with
the manifest's reference or the default one of its stiffness field, and
the Dirichlet kernel on every regular matrix with entries in [-3, 3],
with the fixed reference CORPUS_REFERENCE.  Per table it prints
"identical bytes" or the largest difference relative to the table's
largest entry and where it sits; the Dirichlet tables are summed up in
one line, each differing one listed.

The exit status is 0 when everything agrees and 1 on any difference, a
differing exit code or iteration count included.
"""

from __future__ import annotations

import glob
import json
import math
import os
import re
import runpy
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.py")
SEEDS = (1, 5)
TABLE_SPAN = 3
# anisotropic, so that all six entries of the Dirichlet corpus's classes
# are nonzero
CORPUS_REFERENCE = [[3.0, 1.0, 0.2], [1.0, 2.5, -0.3], [0.2, -0.3, 1.7]]
WALL_TIME = "wall time"

# `lathom CMD demos/manifests/X.cfg --out "$RUNNER_TEMP/$run/NAME"` in the loop
_CI_COMMAND = re.compile(
    r"^\s*lathom (solve|sweep|effective) (demos/manifests/\S+\.cfg) "
    r'--out "\$RUNNER_TEMP/\$run/([\w.-]+)"\s*$'
)


def ci_runs():
    """(name, command, manifest path) of each command of the CI manifest loop."""
    with open(WORKFLOW, encoding="utf-8") as handle:
        found = [_CI_COMMAND.match(line) for line in handle]
    runs = [(m[3], m[1], os.path.join(ROOT, m[2])) for m in found if m]
    if not runs:
        raise SystemExit(f"no lathom commands found in {WORKFLOW}")
    return runs


def workload_runs(directory):
    """(name, command, manifest path) of each benchmark workload at each
    seed of SEEDS; the manifests are rendered into `directory`."""
    runs = []
    workloads = runpy.run_path(WORKLOADS)["WORKLOADS"]
    for seed in SEEDS:
        for name, workload in workloads.items():
            path = os.path.join(directory, f"{name}_seed{seed}.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(workload.manifest(seed))
            runs.append((f"{name}_seed{seed}", workload.command, path))
    return runs


# starts a command and writes its ru_maxrss (KB, from os.wait4) to
# argv[1]; argv[2:] is the command.  A child's ru_maxrss counts the
# resident peak of the process it was started from (Linux carries it
# across exec), so commands start from this small process, not from the
# comparison, which holds whole output files
_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(proc.pid, 0)
with open(sys.argv[1], "w") as handle:
    handle.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_lathom(src, command, manifest, out):
    """Run `lathom COMMAND MANIFEST --out OUT` from tree `src` in a fresh
    process; returns (exit code, stdout, stderr, the process's own peak
    resident set in MB)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    rss = f"{out}.maxrss"
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, rss, sys.executable, "-m", "lathom", command, manifest]
        + ["--out", out],
        cwd=os.path.dirname(out),
        env=env,
        capture_output=True,
    )
    with open(rss, encoding="ascii") as handle:
        peak = int(handle.read()) / 1024.0
    os.remove(rss)
    return proc.returncode, proc.stdout, proc.stderr, peak


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def _relative(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) and scale > 0.0 else math.inf


def _text_lines(data, skip_wall_time):
    lines = data.decode("ascii").splitlines()
    return [line for line in lines if not (skip_wall_time and line.startswith(WALL_TIME))]


def _compare_text(old_lines, new_lines):
    """How two texts differ, token by token: a description, or None."""
    if len(old_lines) != len(new_lines):
        return f"{len(old_lines)} lines vs {len(new_lines)}"
    worst, where = 0.0, None
    for lineno, (a_line, b_line) in enumerate(zip(old_lines, new_lines), 1):
        if a_line == b_line:
            continue
        a_tokens, b_tokens = re.split(r"[,\s]+", a_line), re.split(r"[,\s]+", b_line)
        if len(a_tokens) != len(b_tokens):
            return f"line {lineno}: {len(a_tokens)} fields vs {len(b_tokens)}"
        for col, (a, b) in enumerate(zip(a_tokens, b_tokens), 1):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None:
                return f"line {lineno}, field {col}: {a!r} vs {b!r}"
            rel = _relative(x, y)
            if where is None or rel > worst:
                worst, where = rel, f"line {lineno}, field {col}: {a} vs {b}"
    if where is None:
        return None
    return f"largest relative difference {worst:.3e} at {where}"


def _compare_bytes(old, new):
    if len(old) != len(new):
        return f"{len(old)} bytes vs {len(new)}"
    offsets = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    at = max(offsets, key=lambda i: abs(old[i] - new[i]))
    return (
        f"{len(offsets)} bytes differ, largest relative difference "
        f"{abs(old[at] - new[at]) / 255:.3e} at byte {at}: {old[at]} vs {new[at]}"
    )


def compare_outputs(old, new, skip_wall_time=False):
    """(agree, verdict) for two outputs of the same run.

    Equal bytes agree.  Otherwise text is compared line by line, with the
    wall-time line left out when skip_wall_time and numbers compared by
    relative difference; anything else byte by byte.
    """
    if old == new:
        return True, "identical bytes"
    try:
        old_lines = _text_lines(old, skip_wall_time)
        new_lines = _text_lines(new, skip_wall_time)
    except UnicodeDecodeError:
        return False, _compare_bytes(old, new)
    verdict = _compare_text(old_lines, new_lines)
    return verdict is None, verdict or "identical apart from wall time"


def _run_side(src, command, manifest, out):
    """(exit code, stdout, stderr, {relative path: bytes}, peak RSS in MB)
    of one run."""
    os.makedirs(os.path.dirname(out), exist_ok=True)
    code, stdout, stderr, peak = run_lathom(src, command, manifest, out)
    return code, stdout, stderr, _files(out) if os.path.isdir(out) else {}, peak


def _files(directory):
    found = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, directory)] = handle.read()
    return found


def _iterations(files):
    """Iteration counts of one run: report.txt's, or sweep.csv's column."""
    if "report.txt" in files:
        return re.findall(r"^iterations\s+(\d+)$", files["report.txt"].decode("ascii"), re.M)
    if "sweep.csv" in files:
        rows = files["sweep.csv"].decode("ascii").splitlines()
        col = rows[0].split(",").index("iterations")
        return [row.split(",")[col] for row in rows[1:]]
    return []


def compare(old_src, new_src, runs, workdir):
    """Run every (name, command, manifest) with both trees under workdir,
    print the comparison and return True when nothing differs."""
    same = True
    for name, command, manifest in runs:
        shown = os.path.relpath(manifest, ROOT) if manifest.startswith(ROOT) else manifest
        print(f"== {name}: lathom {command} {shown}")
        old, new = (
            _run_side(src, command, manifest, os.path.join(workdir, side, name))
            for side, src in (("old", old_src), ("new", new_src))
        )
        rows = [("exit code", old[0] == new[0], f"{old[0]} | {new[0]}")]
        old_iters, new_iters = _iterations(old[3]), _iterations(new[3])
        if old_iters or new_iters:
            text = f"{' '.join(old_iters)} | {' '.join(new_iters)}"
            rows.append(("iterations", old_iters == new_iters, text))
        # informational: it varies from run to run, so it never differs
        rows.append(("peak RSS", True, f"{old[4]:.1f} MB | {new[4]:.1f} MB"))
        rows.append(("stdout", *compare_outputs(old[1], new[1], skip_wall_time=True)))
        rows.append(("stderr", *compare_outputs(old[2], new[2])))
        for rel in sorted(old[3].keys() | new[3].keys()):
            if rel not in new[3] or rel not in old[3]:
                rows.append((rel, False, "only in " + ("old" if rel in old[3] else "new")))
                continue
            skip = os.path.basename(rel) == "report.txt"
            rows.append((rel, *compare_outputs(old[3][rel], new[3][rel], skip)))
        for label, agree, verdict in rows:
            print(f"   {label:<16} {verdict}")
            same = same and agree
    return same


def table_manifests(directory):
    """(name, manifest path) of each manifest whose kernels join the table
    corpus: the workloads at SEEDS, rendered into `directory`, and every
    demo manifest."""
    found = [(name, path) for name, _, path in workload_runs(directory)]
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "manifests", "*.cfg"))):
        found.append((os.path.splitext(os.path.basename(path))[0], path))
    return found


# run in a fresh process per tree; argv[1] is the JSON job of build_tables
_TABLE_BUILDER = """
import itertools, json, sys
import numpy as np
from lathom import (
    KernelSpec, coefficient_table, default_reference, parse_manifest,
    periodised_green_table, stiffness_field,
)

job = json.loads(sys.argv[1])
tables = {}

def build(name, c0, spec):
    tables[name] = periodised_green_table(c0, coefficient_table(spec)).entries

for name, path in job["manifests"]:
    manifest = parse_manifest(path)
    c0 = manifest.reference
    if c0 is None:
        c0 = default_reference(stiffness_field(manifest.matrix, manifest.geometry))
    build(name, c0, manifest.kernel_spec())
    for pair in manifest.sweep_pairs or ():
        build(f"{name} alpha {pair[0]!r} {pair[1]!r}", c0, manifest.kernel_spec(alpha=pair))
span = range(-job["span"], job["span"] + 1)
for a, b, c, d in itertools.product(span, repeat=4):
    if a * d != b * c:
        spec = KernelSpec.dirichlet([[a, b], [c, d]])
        build(f"dirichlet {a} {b} {c} {d}", np.array(job["reference"]), spec)
np.savez(job["out"], **tables)
"""


def build_tables(src, manifests, out, span=TABLE_SPAN):
    """Green tables of the corpus built by tree `src` in a fresh process,
    as {name: entries}, the Dirichlet matrices taking entries in [-span,
    span]; raises CalledProcessError if the build fails."""
    job = {"manifests": manifests, "span": span, "reference": CORPUS_REFERENCE, "out": out}
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", _TABLE_BUILDER, json.dumps(job)], env=env, check=True)
    with np.load(out) as data:
        return {name: data[name] for name in data.files}


def compare_tables(old, new):
    """(agree, verdict) for two Green tables' entries (6, ...)."""
    if old.shape != new.shape:
        return False, f"shape {old.shape} vs {new.shape}"
    if old.tobytes() == new.tobytes():
        return True, "identical bytes"
    diff = np.abs(old - new)
    at = np.unravel_index(np.argmax(diff), diff.shape)
    scale = float(np.max(np.abs(old)))
    rel = float(diff[at]) / scale if scale > 0.0 else math.inf
    return False, (
        f"largest relative difference {rel:.3e} at entry {at[0]}, class {tuple(map(int, at[1:]))}"
    )


def compare_corpus(old_src, new_src, workdir):
    """Build the table corpus with both trees under workdir, print the
    comparison and return True when every table is identical bytes."""
    manifests = table_manifests(workdir)
    old, new = (
        build_tables(src, manifests, os.path.join(workdir, f"{side}_tables.npz"))
        for side, src in (("old", old_src), ("new", new_src))
    )
    print(f"== Green tables: {len(old)} | {len(new)}")
    same = old.keys() == new.keys()
    dirichlet, differing = 0, []
    for name in sorted(old.keys() & new.keys()):
        agree, verdict = compare_tables(old[name], new[name])
        same = same and agree
        if name.startswith("dirichlet "):
            dirichlet += 1
            if not agree:
                differing.append((name, verdict))
        else:
            print(f"   {name:<40} {verdict}")
    for name in sorted(old.keys() ^ new.keys()):
        print(f"   {name:<40} only in {'old' if name in old else 'new'}")
    agreeing = dirichlet - len(differing)
    span = f"[-{TABLE_SPAN}, {TABLE_SPAN}]"
    print(f"   dirichlet, entries in {span}: {agreeing} of {dirichlet} tables identical bytes")
    for name, verdict in differing:
        print(f"   {name:<40} {verdict}")
    return same


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    old_src, new_src = args
    for src in args:
        if not os.path.isdir(os.path.join(src, "lathom")):
            sys.stderr.write(f"error: {src} holds no lathom package\n")
            return 2
    workdir = tempfile.mkdtemp(prefix="lathom-parity-")
    try:
        runs = ci_runs() + workload_runs(workdir)
        same = compare(old_src, new_src, runs, workdir)
        same = compare_corpus(old_src, new_src, workdir) and same
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("no difference" if same else "DIFFERENCES FOUND")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
