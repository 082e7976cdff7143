#!/usr/bin/env python3
"""Compare benchmark results from two commits.

Each input file holds the standard output of any number of benchmark
runs (every run prints one ``RESULT {...}`` line), e.g.

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload sod_serial --seed $seed --seconds 20 --trace 0 >> parent.log
    done

    python3 perfbench/compare.py parent.log change.log

For every workload it prints one row per end-to-end metric (untraced runs)
with each side's median, quartiles and sample count, and a verdict against
the metric's bound from BENCHMARK.json:

* ``regression`` / ``improvement`` -- the change's median is worse / better
  than the parent's by more than the bound;
* ``unresolved`` -- either side's run-to-run spread (interquartile range
  over median) exceeds the bound, unless every run of the change reads
  better or worse than every run of the parent;
* ``unchanged`` otherwise.

It then prints the per-layer metrics of the traced runs, grouped by module
(the name before the first dot), with the median delta of each.

Host speed on a shared machine drifts over minutes, so collect the two
sides interleaved (parent, change, parent, ...) rather than one after the
other.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path):
    """{(workload, trace): [metrics dict, ...]} from RESULT lines."""
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.startswith("RESULT "):
            rec = json.loads(line[len("RESULT "):])
            runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change):
    bound, lower_better = metric["bound"], metric["better"] == "lower"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if lower_better else -1.0
    worse = sign * (cm - pm) / pm if pm else 0.0
    separated = max(change) < min(parent) or min(change) > max(parent)
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    if spread > bound and not separated:
        return worse, "unresolved"
    if worse > bound:
        return worse, "regression"
    if worse < -bound:
        return worse, "improvement"
    return worse, "unchanged"


def fmt(v):
    return f"{v:.6g}"


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: compare.py <parent results> <change results>")
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    workloads = [w["name"] for w in bench["workloads"]]

    print("End to end (untraced runs): parent vs change, median [q1, q3] (n)")
    for w in workloads:
        p_runs, c_runs = parent.get((w, 0), []), change.get((w, 0), [])
        if not p_runs or not c_runs:
            print(f"\n{w}: no untraced runs on {'parent' if not p_runs else 'change'}")
            continue
        revs = {r["rev"] for r in p_runs}, {r["rev"] for r in c_runs}
        print(f"\n{w}  (parent rev {','.join(sorted(revs[0]))}, change rev {','.join(sorted(revs[1]))})")
        failed = [sum(r["failed"] for r in runs) for runs in (p_runs, c_runs)]
        if any(failed):
            print(f"  failed operations: parent {failed[0]}, change {failed[1]}")
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not pv or not cv:
                continue
            worse, status = verdict(m, pv, cv)
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(
                f"  {name:<24} {fmt(pm):>10} [{fmt(p1)}, {fmt(p3)}] ({len(pv)})  ->  "
                f"{fmt(cm):>10} [{fmt(c1)}, {fmt(c3)}] ({len(cv)})  {m['unit']:<4} "
                f"{'worse' if worse > 0 else 'better'} by {abs(worse):.2%}  "
                f"bound {m['bound']:.0%}  {status}"
            )
        # Virtual-clock metrics are deterministic per seed: compare the
        # seeds both sides ran, exactly.
        p_seed = {r["seed"]: r["virtual"] for r in p_runs}
        c_seed = {r["seed"]: r["virtual"] for r in c_runs}
        shared = sorted(set(p_seed) & set(c_seed))
        for name in p_runs[0]["virtual"]:
            moved = [s for s in shared if p_seed[s][name]["value"] != c_seed[s][name]["value"]]
            pm = statistics.median(p_seed[s][name]["value"] for s in shared) if shared else None
            cm = statistics.median(c_seed[s][name]["value"] for s in shared) if shared else None
            if not shared:
                print(f"  {name:<24} no seed run on both sides")
            elif moved:
                print(
                    f"  {name:<24} {fmt(pm):>10}  ->  {fmt(cm):>10}  {(cm - pm) / pm:+.2%}  "
                    f"moved on {len(moved)} of {len(shared)} seeds"
                )
            else:
                print(f"  {name:<24} {fmt(pm):>10}  bit-identical on all {len(shared)} seeds")

    print("\nPer layer (traced runs): median parent -> change, by module")
    better = {m["name"]: m["better"] for m in bench["per_layer"]}
    for w in workloads:
        p_runs, c_runs = parent.get((w, 1), []), change.get((w, 1), [])
        if not p_runs or not c_runs:
            continue
        print(f"\n{w}")
        modules = defaultdict(list)
        for name in better:
            modules[name.split(".", 1)[0]].append(name)
        for module, names in modules.items():
            rows = []
            for name in names:
                pv = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
                cv = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
                if not pv or not cv:
                    continue
                pm, cm = statistics.median(pv), statistics.median(cv)
                delta = f"{(cm - pm) / pm:+.2%}" if pm else ("0" if cm == pm else "new")
                rows.append(f"    {name:<40} {fmt(pm):>12} -> {fmt(cm):>12}  {delta} ({better[name]} is better)")
            if rows:
                print(f"  {module}")
                print("\n".join(rows))


if __name__ == "__main__":
    main()
