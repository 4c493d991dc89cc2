#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (perfbench/main.ml).

One run, from the root of a checkout (builds first):
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
The last line of stdout is the result object.  A non-zero exit code
means the build failed or a correctness check did.

Repeated runs, one seed each, saved as OUT/<workload>-<seed>.out:
  python3 perfbench/run.py sweep OUT [--runs 10] [--first-seed 1]
                                     [--workloads study,serve]

Steadiness report over one or two sets of saved runs, per workload and
end-to-end metric: each set's quartiles and spread (interquartile range
over median, which must stay within the metric's bound in
BENCHMARK.json), the ratio of medians B/A, whether A and B agree within
the bound in either direction (same-code sets must), and whether B is
worse than A beyond the bound (a regression, when A is the parent):
  python3 perfbench/run.py compare OUT_A [OUT_B]
The exit code is non-zero when a run failed, a spread exceeds its bound
or the two sets disagree.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def build():
    """Build the benchmark and the program it links, inside the checkout."""
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project at %s; run from a full checkout" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "perfbench/main.exe"]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % r.returncode)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def option(args, name, default):
    if name in args:
        i = args.index(name)
        value = args[i + 1]
        del args[i:i + 2]
        return value
    return default


def sweep(args):
    out = args.pop(0)
    spec = load_spec()
    runs = int(option(args, "--runs", "10"))
    first = int(option(args, "--first-seed", "1"))
    names = option(args, "--workloads", ",".join(w["name"] for w in spec["workloads"]))
    os.makedirs(out, exist_ok=True)
    build()
    failed = 0
    for w in names.split(","):
        for seed in range(first, first + runs):
            cmd = [os.path.join(ROOT, EXE), "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            with open(os.path.join(out, "%s-%d.out" % (w, seed)), "w") as f:
                f.write(r.stdout)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
            print("%s seed %d: exit %d %s" % (w, seed, r.returncode, last[:160]),
                  file=sys.stderr, flush=True)
            failed += r.returncode != 0
    return 1 if failed else 0


def read_set(d):
    """{workload: [(result, probe_ms)]} from a directory of saved runs."""
    runs = {}
    for name in sorted(os.listdir(d)):
        if not name.endswith(".out"):
            continue
        workload = name[:-len(".out")].rsplit("-", 1)[0]
        with open(os.path.join(d, name)) as f:
            lines = f.read().strip().splitlines()
        probe = None
        for line in lines:
            if line.startswith("# host probe before/after"):
                parts = line.split()
                probe = (float(parts[-4]) + float(parts[-2])) / 2
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        runs.setdefault(workload, []).append((result, probe))
    return runs


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(m, base, other):
    """The share of [base] by which [other] is worse on metric [m]."""
    return (other - base) / base if m["better"] == "lower" else (base - other) / base


def compare(args):
    spec = load_spec()
    sets = [read_set(d) for d in args]
    bad = False
    names = [x["name"] for x in spec["workloads"]]
    names += sorted({w for s in sets for w in s} - set(names))
    for w in names:
        if not all(w in s for s in sets):
            continue
        print("== %s" % w)
        for i, s in enumerate(sets):
            results = [r for r, _ in s[w]]
            broken = sum(1 for r in results if r is None or not r["correct"] or r["failed"])
            probes = [p for _, p in s[w] if p is not None]
            print("  set %s: %d runs, %d incorrect or failing, host probe median %.1f ms"
                  % ("AB"[i], len(results), broken, statistics.median(probes) if probes else float("nan")))
            bad |= broken > 0
        print("  %-18s %-4s %12s %12s %12s %8s %8s %8s  %s"
              % ("metric", "set", "q1", "median", "q3", "spread", "bound", "ratio", "verdict"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for i, s in enumerate(sets):
                values = [r["metrics"][name]["value"] for r, _ in s[w]
                          if r is not None and name in r["metrics"]]
                if len(values) < 2:
                    print("  %-18s %-4s too few runs" % (name, "AB"[i]))
                    bad = True
                    continue
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2
                meds.append(q2)
                ok = spread <= bound
                ratio, verdict = "", "spread ok" if ok else "SPREAD OVER BOUND"
                if i == 1 and len(meds) == 2:
                    a, b = meds
                    ratio = "%.4f" % (b / a)
                    agree = max(worse_by(m, a, b), worse_by(m, b, a)) <= bound
                    ok = ok and agree
                    verdict += ", agree" if agree else ", DISAGREE"
                    if worse_by(m, a, b) > bound:
                        verdict += ", B worse than A by %.1f%%" % (worse_by(m, a, b) * 100)
                bad |= not ok
                print("  %-18s %-4s %12.6g %12.6g %12.6g %7.2f%% %7.1f%% %8s  %s"
                      % (name, "AB"[i], q1, q2, q3, spread * 100, bound * 100, ratio, verdict))
    return 1 if bad else 0


def main():
    args = sys.argv[1:]
    if args and args[0] == "sweep":
        sys.exit(sweep([os.path.abspath(args[1])] + args[2:]))
    if args and args[0] == "compare":
        sys.exit(compare([os.path.abspath(d) for d in args[1:]]))
    build()
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(EXE, [EXE] + args)


if __name__ == "__main__":
    main()
