"""Repeat the benchmark over several seeds and report each metric's spread.

Run from the root of a source checkout::

    python3 bench/prove.py --runs 10 [--workload genie_wide] [--trace]
                           [--baseline bench/baseline.json]

For every workload it runs ``bench/run.py`` once per seed (1, 2, ...) and
prints, per metric, the median, the quartiles (``statistics.quantiles`` with
``n=4``) and the spread: the interquartile distance as a share of the median,
next to the metric's bound from ``BENCHMARK.json``. End-to-end runs also
report the unscaled wall-time figures each run prints beside the scaled
ones. ``--baseline`` writes those figures, with the seeds and the provenance
of the first run, to a JSON file: the trajectory point of the commit
measured.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1]) for line in lines
              if line.startswith(("provenance ", "unscaled "))}
    return json.loads(lines[-1]), tagged


def report_line(name, m, bound=None):
    flag = "" if bound is None else f"  bound {bound:.3g}" + (
        "  WIDE" if m["spread"] > bound / 3 else "")
    print(f"  {name:45s} median {m['median']:.6g} {m.get('unit', '')}  "
          f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.4f}{flag}")
    print("    " + " ".join(f"{v:.4g}" for v in m["values"]))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    report = {"kind": kind, "runs": args.runs, "seconds": args.seconds, "workloads": {}}
    seeds = list(range(1, args.runs + 1))
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results, unscaled, provenance = [], [], None
        for seed in seeds:
            result, tagged = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            provenance = provenance or tagged.get("provenance")
            if "unscaled" in tagged:
                unscaled.append(tagged["unscaled"])
            print(f"{workload} seed {seed}: correct {result['correct']} attempted "
                  f"{result['attempted']} failed {result['failed']}", flush=True)
        metrics = {}
        for name in bounds:
            m = summarize([r["metrics"][name]["value"] for r in results])
            m["unit"] = results[0]["metrics"][name]["unit"]
            metrics[name] = m
            report_line(name, m, bounds[name])
        entry = {
            "seeds": seeds,
            "provenance": provenance,
            "correct": [r["correct"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": metrics,
        }
        if unscaled:
            entry["unscaled"] = {}
            for name in unscaled[0]:
                m = summarize([u[name] for u in unscaled])
                entry["unscaled"][name] = m
                report_line(f"{name} (unscaled)", m)
        report["workloads"][workload] = entry
    if args.baseline:
        old = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        old[kind] = report
        args.baseline.write_text(json.dumps(old, indent=1) + "\n")


if __name__ == "__main__":
    main()
