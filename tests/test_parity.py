"""tools/parity.py: the comparison of two source trees' outputs."""

import pathlib
import runpy

ROOT = pathlib.Path(__file__).resolve().parents[1]
parity = runpy.run_path(str(ROOT / "tools" / "parity.py"))


def test_a_tree_agrees_with_itself(tmp_path, capsys):
    # both sides run this tree, each in a fresh process: every output of a
    # two-phase laminate solve, phase maps included, repeats byte for byte
    src = str(ROOT / "src")
    manifest = str(ROOT / "demos" / "manifests" / "laminate_exact.cfg")
    assert parity["compare"](src, src, [("laminate", "solve", manifest)], str(tmp_path))
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "== laminate: lathom solve demos/manifests/laminate_exact.cfg"
    verdicts = dict(line.split(None, 1) for line in out[1:] if not line.startswith("   exit"))
    assert verdicts["iterations"] == "2 | 2"
    # each side's peak resident set, informational
    old_rss, new_rss = verdicts["peak"].removeprefix("RSS").split("|")
    assert old_rss.strip().endswith(" MB") and new_rss.strip().endswith(" MB")
    assert float(old_rss.split()[0]) > 10.0 and float(new_rss.split()[0]) > 10.0
    for name in ("phases.csv", "phases.pgm", "strain.csv", "stderr"):
        assert verdicts[name] == "identical bytes"


def test_differences_are_located():
    compare = parity["compare_outputs"]
    report = b"iterations      3\nwall time [s]   0.%d\n"
    assert compare(report % 1, report % 2, skip_wall_time=True) == (
        True,
        "identical apart from wall time",
    )
    assert not compare(report % 1, report % 2)[0]
    agree, verdict = compare(b"y1,y2\n1,2.5\n3,4\n", b"y1,y2\n1,2.5\n3,4.5\n")
    assert not agree
    assert verdict == "largest relative difference 1.111e-01 at line 3, field 2: 4 vs 4.5"
    agree, verdict = compare(b"P5\n1 2\n255\n\x00\xff", b"P5\n1 2\n255\n\x00\x7f")
    assert not agree and verdict.endswith("at byte 12: 255 vs 127")


def test_the_ci_loop_includes_the_laminate_solve():
    runs = {(name, command) for name, command, _ in parity["ci_runs"]()}
    assert ("solve_laminate_exact", "solve") in runs
    assert ("laminate_exact", "effective") in runs


def test_green_tables_are_compared_by_bytes(tmp_path):
    # this tree's corpus builder, run twice in fresh processes, repeats
    # every table bit for bit: a manifest's kernel and the Dirichlet tables
    # of the 48 regular matrices with entries in [-1, 1]
    src = str(ROOT / "src")
    manifests = [("laminate", str(ROOT / "demos" / "manifests" / "laminate_exact.cfg"))]
    first, second = (
        parity["build_tables"](src, manifests, str(tmp_path / f"{n}.npz"), span=1) for n in (1, 2)
    )
    assert len(first) == 49 and "laminate" in first and "dirichlet 1 0 0 1" in first
    for name, entries in first.items():
        assert entries.shape[0] == 6
        assert parity["compare_tables"](entries, second[name]) == (True, "identical bytes")
    compare = parity["compare_tables"]
    entries = first["laminate"]
    moved = entries.copy()
    moved[2, 1, 0] *= 1 + 1e-12
    agree, verdict = compare(entries, moved)
    assert not agree and verdict.endswith("at entry 2, class (1, 0)")
    cut = entries[:, :1]
    assert compare(entries, cut) == (False, f"shape {entries.shape} vs {cut.shape}")
