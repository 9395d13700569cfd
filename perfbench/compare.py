"""Compare the benchmark results of two commits.

    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

Each file holds the JSON lines that `run.py --out FILE` appends, one per
run.  For every workload and end-to-end metric it prints each side's
median and quartiles, the share of pairs the new side won (runs are
paired by seed, else in order) and a verdict:

- improved: the new side wins at least 9 in 10 pairs, ties counting for
  neither, and the medians differ by more than the old side's quartile
  distance;
- worse: the new median is worse than the old by more than the bound
  BENCHMARK.json fixes;
- unresolved: a side's spread (quartile distance over median) is wider
  than the bound, unless every new run beats every old run;
- within bound: otherwise.

Per-layer count metrics (unit "count", from --trace 1 runs) are compared
for exact equality.  Manifests are compared first: a differing core
count or program IR digest is flagged, since the two sides then did not
measure the same thing on the same host.
"""

import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def cell(values):
    q1, med, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g] (%d)" % (med, q1, q3, len(values))


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def pairs(old, new, metric):
    by_seed_old = {r["seed"]: r["metrics"][metric]["value"] for r in old}
    by_seed_new = {r["seed"]: r["metrics"][metric]["value"] for r in new}
    common = sorted(set(by_seed_old) & set(by_seed_new))
    if common:
        return [(by_seed_old[s], by_seed_new[s]) for s in common]
    return list(zip([r["metrics"][metric]["value"] for r in old],
                    [r["metrics"][metric]["value"] for r in new]))


def verdict(a, b, ps, bound, better):
    def gain(x, y):  # how much y beats x, as a share of x
        return (x - y) / x if better == "lower" else (y - x) / x

    won = sum(1 for x, y in ps if gain(x, y) > 0)
    share = won / len(ps) if ps else 0.0
    ma, mb = statistics.median(a), statistics.median(b)
    q1, _, q3 = quartiles(a)
    if share >= 0.9 and gain(ma, mb) > 0 and abs(mb - ma) > q3 - q1:
        return share, "improved"
    if -gain(ma, mb) > bound:
        return share, "worse"
    if spread(a) > bound or spread(b) > bound:
        if all(gain(x, y) > 0 for x in a for y in b):
            return share, "within bound"
        return share, "unresolved"
    return share, "within bound"


def provenance(old, new):
    flags = []
    for key in ("nproc", "host_cpus", "ocaml"):
        va = sorted({str(r["manifest"].get(key)) for r in old})
        vb = sorted({str(r["manifest"].get(key)) for r in new})
        if va != vb:
            flags.append("%s differs: old %s, new %s" % (key, va, vb))
    da, db = {}, {}
    for rs, d in ((old, da), (new, db)):
        for r in rs:
            for prog, digest in r["manifest"].get("digests", {}).items():
                d.setdefault(prog, set()).add(digest)
    changed = sorted(p for p in set(da) & set(db) if da[p] != db[p])
    if changed:
        flags.append("IR digest differs for: " + ", ".join(changed))
    ca = {json.dumps(r["manifest"].get("config"), sort_keys=True) for r in old}
    cb = {json.dumps(r["manifest"].get("config"), sort_keys=True) for r in new}
    if ca != cb:
        flags.append("resolved Core.Config differs")
    revs = (sorted({str(r["manifest"].get("git")) for r in old}),
            sorted({str(r["manifest"].get("git")) for r in new}))
    print("old revision %s, new revision %s" % revs)
    for f in flags:
        print("FLAG: " + f)
    return flags


def main(argv, spec_path):
    if len(argv) != 2:
        print("usage: run.py compare OLD.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    old, new = load(argv[0]), load(argv[1])
    provenance(old, new)
    workloads = sorted({r["workload"] for r in old} & {r["workload"] for r in new})
    print("%-15s %-24s %-32s %-32s %6s  %s"
          % ("workload", "metric", "old median [q1, q3] (n)", "new median [q1, q3] (n)",
             "won", "verdict"))
    for wl in workloads:
        o = [r for r in old if r["workload"] == wl and r["trace"] == 0]
        n = [r for r in new if r["workload"] == wl and r["trace"] == 0]
        for m in spec["end_to_end"] if o and n else []:
            a = [r["metrics"][m["name"]]["value"] for r in o]
            b = [r["metrics"][m["name"]]["value"] for r in n]
            share, v = verdict(a, b, pairs(o, n, m["name"]), m["bound"], m["better"])
            print("%-15s %-24s %-32s %-32s %5.0f%%  %s"
                  % (wl, m["name"], cell(a), cell(b), 100 * share, v))
        o = [r for r in old if r["workload"] == wl and r["trace"] == 1]
        n = [r for r in new if r["workload"] == wl and r["trace"] == 1]
        for m in spec["per_layer"] if o and n else []:
            if m["unit"] != "count":
                continue
            ps = pairs(o, n, m["name"])
            same = all(x == y for x, y in ps)
            print("%-15s %-34s %s" % (wl, m["name"], "equal" if same else
                                      "changed: " + ", ".join("%g -> %g" % p for p in ps)))
    return 0
