#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Builds like run.py, then checks that
  - the SIGPROF sampler attributes at least 90 % of a tight Crc32 loop to
    crypto.crc32;
  - span self time equals the span minus the union of its children, on
    hand-made intervals, on random ones against a brute-force count, and on
    a real --jobs=2 campaign trace whose child spans overlap.
Exits non-zero if any check fails.
"""

import json
import os
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402
import run  # noqa: E402

FAILURES = []


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    if not ok:
        FAILURES.append(name)


def brute_self_time(span, children):
    """Counts the uncovered integer instants of an integer span one by one."""
    covered = set()
    for s, e in children:
        covered.update(range(max(s, span[0]), min(e, span[1])))
    return (span[1] - span[0]) - len(covered)


def test_self_time_by_hand():
    check("self_time no children", analysis.self_time((0, 100), []) == 100)
    check("self_time disjoint", analysis.self_time((0, 100), [(10, 20), (30, 50)]) == 70)
    check("self_time overlapping", analysis.self_time((0, 100), [(10, 30), (20, 50)]) == 60)
    check("self_time nested and equal",
          analysis.self_time((0, 100), [(10, 60), (20, 30), (10, 60)]) == 50)
    check("self_time clipped to span",
          analysis.self_time((0, 100), [(-10, 5), (95, 120), (200, 300)]) == 90)
    check("self_time fully covered", analysis.self_time((0, 100), [(0, 60), (40, 100)]) == 0)


def test_self_time_random():
    rng = random.Random(7)
    for trial in range(300):
        span = (rng.randrange(0, 50), rng.randrange(60, 200))
        children = []
        for _ in range(rng.randrange(0, 12)):
            s = rng.randrange(-20, 220)
            children.append((s, s + rng.randrange(1, 60)))
        want = brute_self_time(span, children)
        got = analysis.self_time(span, children)
        if got != want:
            check("self_time random", False, f"trial {trial}: {got} != {want}")
            return
    check("self_time random", True, "(300 trials)")


def test_self_time_jobs2(workdir):
    spec = dict(run.CAMPAIGNS["campaign_pipeline"], reps=20000, jobs=2)
    files = run.campaign_outputs(workdir, "jobs2")
    trace_path = workdir / "jobs2.json"
    if run.run_probe_campaign(spec, 1, files, trace_path, sample=False).rc != 0:
        check("self_time --jobs=2 trace", False, "probe campaign failed")
        return
    spans = json.loads(trace_path.read_text())["spans"]
    root = next(s for s in spans if s[0] == "runner.campaign")
    children = [(s[1], s[2]) for s in spans if s[4] == root[3]]
    ordered = sorted(children)
    overlapping = sum(1 for a, b in zip(ordered, ordered[1:]) if b[0] < a[1])
    check("--jobs=2 child spans overlap", overlapping > 0, f"({overlapping} pairs)")
    # Independent sweep over start/end events: time with no child open.
    events = sorted([(max(s, root[1]), 1) for s, e in children if s < root[2]] +
                    [(min(e, root[2]), -1) for s, e in children if s < root[2]])
    uncovered, depth, last = 0, 0, root[1]
    for t, delta in events:
        if depth == 0:
            uncovered += t - last
        depth += delta
        last = t
    uncovered += root[2] - last
    got = analysis.self_time((root[1], root[2]), children)
    check("--jobs=2 self time = span - union of children", got == uncovered,
          f"({got} vs {uncovered} ns)")
    check("--jobs=2 union below sum of children",
          (root[2] - root[1]) - got < sum(e - s for s, e in children))


def test_sampler_crc32(workdir):
    trace_path = workdir / "crc.json"
    proc = run.spawn([run.PROBE_BIN, "crc-loop", "--seconds=2", f"--trace={trace_path}"])
    if proc.rc != 0:
        check("sampler crc32 loop", False, "crc-loop failed")
        return
    trace = json.loads(trace_path.read_text())
    pc_map = analysis.PcMap(run.PROBE_MAP, run.ROOT / "src")
    _, files = analysis.self_fractions([(trace["samples"], trace["texts"]["maps"])], pc_map)
    share = files.get("crypto.crc32", 0.0)
    check("sampler attributes >= 90% of a Crc32 loop to crypto.crc32",
          share >= 0.9 and len(trace["samples"]) >= 100,
          f"({share:.3f} of {len(trace['samples'])} samples)")


def main():
    os.chdir(run.ROOT)
    run.build()
    workdir = run.fresh_dir(run.BUILD / "run" / "selftest")
    test_self_time_by_hand()
    test_self_time_random()
    test_self_time_jobs2(workdir)
    test_sampler_crc32(workdir)
    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed")
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
