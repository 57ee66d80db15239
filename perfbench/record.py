"""Write a baseline record, or compare two of them.

    python3 perfbench/record.py baseline \
        --label <label> --out perfbench/baselines/BENCH_<label>.json
    python3 perfbench/record.py compare OLD.json NEW.json

``baseline`` runs every workload once untraced for each of its
``baseline_seeds`` in ``spec.json``, and traced for the first ``TRACED``
of them, each in a fresh process.  It stores per metric the values over
the seeds, their median, quartiles and spread (quartile distance over
median), the per-layer medians, the per-operation coverage of the traced
runs and the median tracing overhead they measured.  An untraced and a
traced run of one seed must have the same input digest.

``compare`` prints, per workload and end-to-end metric, both medians and
the change against the bound in ``BENCHMARK.json``.  It refuses records
whose digests differ for a workload and seed they share: their inputs were
not the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SPEC = json.loads((HERE / "spec.json").read_text())
TRACED = 3


def run_once(workload, seed, trace):
    """One benchmark process of BENCHMARK.json's length; returns its RECORD."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    for line in proc.stdout.splitlines():
        if line.startswith("RECORD "):
            return json.loads(line[len("RECORD "):])
    raise SystemExit(f"{workload} seed {seed}: no RECORD line")


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def baseline(args):
    out = {"label": args.label, "workloads": {}}
    layer_names = [m["name"] for m in BENCHMARK["per_layer"]]
    for workload in WORKLOADS:
        seeds = SPEC["workloads"][workload]["baseline_seeds"]
        plain, traced = [], []
        for i, seed in enumerate(seeds):
            plain.append(run_once(workload, seed, 0))
            if i < TRACED:
                traced.append(run_once(workload, seed, 1))
                if plain[-1]["digest"] != traced[-1]["digest"]:
                    raise SystemExit(f"{workload} seed {seed}: traced and untraced "
                                     "runs saw different inputs")
            print(workload, seed, "done", file=sys.stderr, flush=True)
        names = sorted(set().union(*(r["metrics"] for r in plain)))
        out["env"] = plain[0]["env"]
        out["workloads"][workload] = {
            "seeds": seeds,
            "digests": {str(r["env"]["seed"]): r["digest"] for r in plain},
            "attempted": [r["attempted"] for r in plain],
            "failures": [r["failures"] for r in plain],
            "mismatches": sum(r["mismatches"] for r in plain),
            "metrics": {n: summary([r["metrics"][n] for r in plain if n in r["metrics"]])
                        for n in names},
            "per_layer": {n: statistics.median(r["metrics"][n] for r in traced)
                          for n in layer_names},
            "coverage": {"min": min(r["coverage"]["min"] for r in traced),
                         "below_floor": max(r["coverage"]["below_floor"] for r in traced)},
            "absent_hooks": traced[0]["absent_hooks"],
            "trace_overhead": statistics.median(r["trace_overhead"] for r in traced),
        }
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def compare(args):
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in BENCHMARK["end_to_end"]}
    status = 0
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        a, b = old["workloads"][workload], new["workloads"][workload]
        for seed in sorted(set(a["digests"]) & set(b["digests"])):
            if a["digests"][seed] != b["digests"][seed]:
                raise SystemExit(f"refusing to compare: {workload} seed {seed} "
                                 "has different input digests")
        for name, (bound, better) in sorted(bounds.items()):
            x, y = a["metrics"][name]["median"], b["metrics"][name]["median"]
            change = (y - x) / x
            worse = change > bound if better == "lower" else change < -bound
            status |= worse
            print(f"{workload:10s} {name:18s} {x:12.4f} -> {y:12.4f} "
                  f"{change:+8.1%} (bound {bound:.0%}){'  WORSE' if worse else ''}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("baseline")
    p.add_argument("--label", required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("old")
    p.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "baseline":
        baseline(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
