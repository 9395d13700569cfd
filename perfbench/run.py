#!/usr/bin/env python3
"""The injector's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

Run from the repository root.  It builds perfbench/perfbench.exe with
dune (release profile), runs fresh measuring processes, checks every
merged cell against its reference, prints every metric by name and unit,
and ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 a separate traced process gives the
per-layer ones.  --out FILE appends the result, with its provenance
manifest, to a JSON-lines file that `compare` reads.  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORK = os.path.join(ROOT, ".perfbench_work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Fresh processes that only set up (plus the measuring process): set-up
# is short, so its median needs several cold starts.
SETUP_PROBES = 10
# Host speed: every timed section is paired with runs of the reference
# workload in calib.ml measured next to it, and reported at the speed of
# a host on which that workload takes REF_S seconds.  Over 23 runs on a
# shared host whose speed drifted by up to 1.7x, the study's time moved
# with the square root of the reference's (log-log slope 0.46-0.58), so
# sections scale by the square root of the reference's slowdown.  The raw
# figures are printed alongside.
REF_S = 0.1
HOST_EXP = 0.5
CHILD_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def child_env():
    # The default configuration: no ONEBIT_* switch reaches the program.
    return {k: v for k, v in os.environ.items() if not k.startswith("ONEBIT_")}


def build():
    if not os.path.isdir(os.path.join(ROOT, "lib")):
        fail("no lib/ next to perfbench/: run from a full checkout")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "release",
             "./perfbench/perfbench.exe"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed:\n" + r.stderr[-4000:])


def measure(args, cmd, extra, work):
    argv = [EXE, cmd, "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--work", work,
            "--refs-dir", os.path.join(HERE, "refs")] + extra
    try:
        r = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % " ".join(argv))
    if r.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(argv), r.returncode, r.stderr[-4000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def summary(name, values, unit):
    q1, med, q3 = quartiles(values)
    print("%-28s %14.6g %-9s (q1 %.6g, q3 %.6g, %d samples)"
          % (name, med, unit, q1, q3, len(values)))
    return med


def at_ref(seconds, calib_s):
    """A section's time at reference host speed, given the reference
    workload's time next to it."""
    return seconds * (REF_S / calib_s) ** HOST_EXP


def at_ref_speed(passes, calib):
    """Each pass at reference host speed, against the mean of the
    reference runs just before and just after it."""
    return [at_ref(s, (a + b) / 2) for s, a, b in zip(passes, calib, calib[1:])]


def untraced(args, work):
    """End-to-end metrics: set-up probes, then one timed study process."""
    def setup_probes(first):
        return [measure(args, "study", ["--setup-only"], os.path.join(work, "setup-%d" % i))
                for i in range(first, first + SETUP_PROBES // 2)]

    # Half the set-up probes run before the study and half after, so the
    # median samples the host at both ends of the run.
    probes = setup_probes(0)
    d = measure(args, "study", ["--seconds", str(args.seconds)], os.path.join(work, "study"))
    probes += setup_probes(SETUP_PROBES // 2)
    setups = [p["setup_s"] for p in probes] + [d["setup_s"]]
    setup_calib = [p["calib_s"] for p in probes] + [d["calib_s"][0]]
    heaps = [p["setup_heap_mb"] for p in probes] + [d["setup_heap_mb"]]
    study, exps = d["study_s"], d["exps"]
    ref = at_ref_speed(study, d["calib_s"])
    print("reference: %s; cells %d; checks %d; failed %d %s"
          % (d["reference"], d["cells"], d["checked"], d["failed"], d["failed_keys"]))
    print("cell_mismatch_frac %.6g fraction" % (d["failed"] / d["checked"]))
    print("per study pass: %d experiments, %d faulty-run instructions, %d after the first flip"
          % (exps, d["instrs"], d["suffix_instrs"]))
    rates = {
        "suffix_minstr_per_ref_s": ([d["suffix_instrs"] / s / 1e6 for s in ref], "Minstr/s"),
        "setup_s": ([at_ref(s, c) for s, c in zip(setups, setup_calib)], "s"),
        "setup_heap_mb": (heaps, "MB"),
        "study_ref_s": (ref, "s"),
        "study_s": (study, "s"),
        "suffix_minstr_per_s": ([d["suffix_instrs"] / s / 1e6 for s in study], "Minstr/s"),
        "exps_per_s": ([exps / s for s in study], "1/s"),
        "minstr_per_s": ([d["instrs"] / s / 1e6 for s in study], "Minstr/s"),
        "resume_s": (d["resume_s"], "s"),
        "raw_setup_s": (setups, "s"),
        "calib_s": (d["calib_s"], "s"),
        "peak_heap_mb": ([d["peak_heap_mb"]], "MB"),
    }
    metrics = {k: (summary(k, v, u), u) for k, (v, u) in rates.items()}
    return metrics, d["checked"], d["failed"], d["manifest"]


def traced(args, work):
    """Per-layer metrics: an untraced run, then one traced process."""
    base = measure(args, "study", ["--seconds", str(args.seconds / 2)],
                   os.path.join(work, "untraced"))
    d = measure(args, "trace", [], os.path.join(work, "traced"))
    metrics = {k: (v, u) for k, (v, u) in d["metrics"].items()}
    # Traced study time against the untraced median, both at reference
    # host speed.
    untraced_s = statistics.median(at_ref_speed(base["study_s"], base["calib_s"]))
    traced_s = at_ref(metrics["study.traced_s"][0], metrics["host.calib_s"][0])
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "fraction")
    checked = base["checked"] + d["checked"]
    failed = base["failed"] + d["failed"]
    if base["digest"] != d["digest"]:
        failed += d["cells"]
    print("reference: %s; checks %d; failed %d %s"
          % (d["reference"], checked, failed, d["failed_keys"] + base["failed_keys"]))
    print("cell_mismatch_frac %.6g fraction" % (failed / checked))
    for k, (v, u) in metrics.items():
        print("%-34s %14.6g %s" % (k, v, u))
    return metrics, checked, failed, d["manifest"]


def git_revision():
    # Only the checkout's own repository; a copy without .git has none.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def declared(trace):
    with open(SPEC) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    if argv and argv[0] == "compare":
        import compare
        return compare.main(argv[1:], SPEC)
    p = argparse.ArgumentParser(description="Benchmark the fault injector.")
    p.add_argument("--workload", required=True,
                   choices=["paper-grid", "nn-domains", "adaptive-store"])
    p.add_argument("--seed", type=int, default=20170626)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "small"], default="full",
                   help="small: a seconds-long grid for the benchmark's tests")
    p.add_argument("--out", help="append the result and its manifest to this file")
    args = p.parse_args(argv)
    if not os.path.exists(SPEC):
        fail("BENCHMARK.json not found next to perfbench/")
    build()
    work = os.path.join(WORK, str(os.getpid()))
    try:
        metrics, checked, failed, manifest = (traced if args.trace else untraced)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    manifest["git"] = git_revision()
    manifest["host_cpus"] = os.cpu_count()
    print("manifest: " + json.dumps(manifest, sort_keys=True))
    names = declared(args.trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        fail("metrics not measured: %s" % missing)
    result = {
        "correct": failed == 0,
        "attempted": checked,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(dict(result, workload=args.workload, seed=args.seed,
                                    trace=args.trace, size=args.size,
                                    all_metrics={k: v[0] for k, v in metrics.items()},
                                    manifest=manifest)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
