"""pimac benchmark: one workload per run, closed loop, one caller.

Run from the root of a source checkout::

    python3 bench/run.py --workload figure_sweep --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout; without it the run
exits with status 2 and prints no result. ``--trace 0`` measures the
end-to-end metrics: points are evaluated one after another, complete passes
over the workload's point list repeat for ``--seconds``, and every output is
then checked against the independent oracles in ``oracles.py``.
``--trace 1`` gives the per-layer metrics instead: the ROADMAP probe table,
one untraced and one traced pass of the workload (plus a two-point probe
sweep, so that every layer has calls on every workload), and the CLI run as
subprocesses. Spans of the traced run are written to ``.bench_out/``.

End-to-end metrics, one workload per run (``--trace 0``):

* ``points_per_s``: points of the list whose every call returned and passed
  its checks, per second of point time (the sum of the points' times).
* ``point_ms_p50``, ``point_ms_p90``: median and 90th percentile over the
  points of each point's time, which is the median over the passes.
  figure_sweep has 101 points, so 10 lie above its p90.
* ``ok_share``: points (and the end-of-pass call) whose every call
  returned and passed its checks in every pass, over all of them. The summary prints the
  per-call failed_share too; that is not the metric because it reads 0 on
  two workloads.
* ``sandwich_gap_bits``: mean over the points of min(bounds) - max(achievable
  rates), over the curves each point computed.
* ``peak_rss_mb``: peak resident memory of this process after the first
  pass, before the timing records of later passes (which grow with the
  host's speed) add to it.
* ``setup_s``: median over 15 fresh interpreters of importing pimac and
  evaluating the workload once at a probe point.

Point times and set-up times are scaled to the reference host by
``hostspeed``; the unscaled figures are printed beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
the seed's distinct calls, each (point, call) pair and the end-of-pass call
once however many passes repeated them, so the same seed gives the same
counts on a fast host and a slow one. A call counts as failed when it
raised, when its output failed a check, or when a later pass returned
something else for the same point. ``correct`` is false when an
output failed a validity check (see ``oracles.py``) or was not repeated
exactly; a call that raised, or a solver that missed its optimality promise,
counts as failed without making the output incorrect. The lines before the
JSON give a readable summary, every check finding and the provenance of
the run.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CLOCK = time.perf_counter
WORKLOAD_NAMES = ("figure_sweep", "tin_draws", "genie_wide")
SETUP_REPS = {"full": 15, "tiny": 1}
CLI_REPS = {"full": 3, "tiny": 1}
PROBE_REPS = {"full": 5, "tiny": 1}
# What setup_s times in a fresh interpreter: importing pimac and evaluating
# the workload once at a probe point.
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; "
              "from workloads import WORKLOADS; WORKLOADS[sys.argv[3]].warm_up()")


def import_program():
    """Import pimac from ``src/`` of this checkout, or exit with status 2."""
    if not (SRC / "pimac" / "__init__.py").is_file():
        print(f"bench: no pimac sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import pimac

    if Path(pimac.__file__).resolve().parent != SRC / "pimac":
        print(f"bench: imported pimac from {pimac.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    # Overflow at extreme inputs is part of what genie_wide measures.
    warnings.simplefilter("ignore", RuntimeWarning)
    return pimac


def measure_setup(workload, reps):
    """Median over fresh processes that import pimac and warm up: scaled to
    the reference host by core kernel samples taken around each, and
    unscaled, in seconds."""
    speed = hostspeed.HostSpeed(("cpu",))
    stamps, times = [], []
    for _ in range(reps):
        t0 = speed.sample()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        t1 = CLOCK()
        speed.sample()
        stamps.append(0.5 * (t0 + t1))
        times.append(t1 - t0)
    return (float(np.median(np.asarray(times) * speed.scale(stamps))),
            statistics.median(times))


def same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return a == b


def differences(first, outcomes):
    """(point, call) pairs of ``outcomes`` that do not repeat ``first``."""
    return {(i, call) for i, outcome in enumerate(outcomes)
            for call, result in outcome.items()
            if call not in first[i] or not same(result, first[i][call])}


class Run:
    """What one closed loop recorded.

    ``first`` holds every outcome of the first pass. A later pass keeps only
    which (point, call) outcomes differed from the first pass, so memory does
    not grow with the number of passes. ``starts`` and ``times`` give each
    point's start time and duration, per pass; ``ends`` each pass's
    end-of-pass value (None where the workload has no end-of-pass call).
    """

    def __init__(self, speed):
        self.first, self.diffs, self.ends = None, [], []
        self.starts, self.times = [], []
        self.speed = speed
        self.elapsed = 0.0
        self.peak_rss_mb = None

    def add_pass(self, outcomes, starts, times, end):
        if self.first is None:
            self.first = outcomes
        self.diffs.append(differences(self.first, outcomes))
        self.starts.append(starts)
        self.times.append(times)
        self.ends.append(end)

    def point_ms(self, scaled=True):
        """Each point's median time over the passes, in ms; scaled to the
        reference host unless ``scaled`` is false."""
        per_pass = [times * (self.speed.scale(starts + 0.5 * times) if scaled else 1.0)
                    for starts, times in zip(self.starts, self.times)]
        return [float(t) for t in np.median(per_pass, axis=0) * 1e3]


def run_passes(wl, seconds, min_passes=None, interval=hostspeed.INTERVAL_S):
    """Closed loop: complete passes over the point list for ``seconds``.

    Passes repeat while the next one, if it takes as long as the last, ends
    within ``seconds``, and at least ``min_passes`` times. Between points the
    host speed kernels run about every ``interval`` seconds, outside the
    point times, and once more at the end.
    """
    min_passes = wl.min_passes if min_passes is None else min_passes
    run = Run(hostspeed.HostSpeed(wl.host_kernels))
    next_sample = run.speed.sample() + interval

    def pause():
        nonlocal next_sample
        if CLOCK() >= next_sample:
            next_sample = run.speed.sample() + interval

    t_start = CLOCK()
    while True:
        t0 = CLOCK()
        outcomes, starts, times = wl.run_pass(pause)
        run.add_pass(outcomes, starts, times, wl.end_pass(outcomes))
        if run.peak_rss_mb is None:
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = CLOCK()
        if len(run.times) >= min_passes and 2 * now - t0 - t_start > seconds:
            break
    run.speed.sample()
    run.elapsed = CLOCK() - t_start
    return run


def account(wl, run):
    """Check outputs and count calls and units: returns counts and findings.

    The first pass is checked against the oracles; every later pass must
    repeat it exactly. Counts are over the seed's distinct operations, not
    over passes: each (point, call) pair and the end-of-pass call count once,
    as failed if they failed in any pass. So the same seed gives the same
    counts however many passes the host's speed allowed. A unit is one point
    or the end-of-pass call; it is ok when every call in it returned and
    passed its checks in every pass.
    """
    import oracles

    counts = {"attempted": 0, "failed": 0, "raised": 0, "check_failed": 0,
              "invalid": 0, "units": 0, "ok_units": 0, "ok_list_points": 0}
    findings, gaps, raised_by = [], [], {}
    changed_by = [set() for _ in run.first]  # per point: calls a later pass changed
    for diffs in run.diffs:
        for i, c in sorted(diffs):
            changed_by[i].add(c)
            findings.append(f"point {i} {c}: differs from the first pass")
    for i, outcome in enumerate(run.first):
        vals = wl.values(outcome)
        bad = oracles.check_point(wl.params(wl.points[i]), vals)
        for c, (kind, why) in bad.items():
            findings.append(f"point {i} {c} {kind}: {why}")
            counts["invalid"] += kind == oracles.VALIDITY
        raised = {c for c, r in outcome.items() if isinstance(r, Exception)}
        for c in raised:
            key = f"{c}:{type(outcome[c]).__name__}"
            raised_by[key] = raised_by.get(key, 0) + 1
        bad = {wl.call_of(c) for c in bad} - raised
        changed = changed_by[i]
        failed = raised | bad | changed
        counts["attempted"] += len(set(outcome) | changed)
        counts["failed"] += len(failed)
        counts["raised"] += len(raised - changed)
        counts["check_failed"] += len(bad - changed) + len(changed)
        counts["invalid"] += len(changed)
        counts["units"] += 1
        counts["ok_units"] += not failed
        counts["ok_list_points"] += not failed
        gap = oracles.sandwich_gap(vals)
        if gap is not None:
            gaps.append(gap)

    if run.ends[0] is not None:
        ok = True
        for k, end in enumerate(run.ends):
            if isinstance(end, Exception):
                ok = False
                findings.append(f"pass {k}: end-of-pass call failed: {end!r}")
            elif not same(end, run.ends[0]):
                ok = False
                counts["invalid"] += 1
                findings.append(f"pass {k}: end-of-pass output differs from the first pass")
        counts["attempted"] += 1
        counts["units"] += 1
        counts["ok_units"] += ok
        if not ok:
            counts["failed"] += 1
            kind = "raised" if isinstance(run.ends[0], Exception) else "check_failed"
            counts[kind] += 1
    counts["raised_by"] = raised_by
    counts["findings"] = findings
    counts["gap"] = statistics.fmean(gaps) if gaps else None
    return counts


def time_metrics(point_ms, ok_points):
    """Throughput and latency percentiles from per-point times in ms."""
    q = statistics.quantiles(point_ms, n=100, method="inclusive")
    return {"points_per_s": (ok_points / (sum(point_ms) / 1e3), "1/s"),
            "point_ms_p50": (statistics.median(point_ms), "ms"),
            "point_ms_p90": (q[89], "ms")}


def provenance(workload, seed, size):
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "workload": workload, "seed": seed, "size": size}


def end_to_end(wl, args, size):
    setup_s, setup_unscaled_s = measure_setup(wl.name, SETUP_REPS[size])
    run = run_passes(wl, args.seconds)
    counts = account(wl, run)
    point_ms = run.point_ms()
    metrics = time_metrics(point_ms, counts["ok_list_points"])
    metrics.update({
        "ok_share": (counts["ok_units"] / counts["units"], "share"),
        "sandwich_gap_bits": (counts["gap"], "bits"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    })
    unscaled = {k: v for k, (v, _) in time_metrics(run.point_ms(scaled=False),
                                                   counts["ok_list_points"]).items()}
    unscaled["setup_s"] = setup_unscaled_s
    speed = run.speed.relative()
    notes = [f"passes: {len(run.times)}, {len(run.times) * len(wl.points)} point "
             f"evaluations in {run.elapsed:.3f} s",
             f"host speed kernels {'+'.join(wl.host_kernels)}: {speed.size} samples, "
             f"time over nominal "
             f"min {speed.min():.3f} median {np.median(speed):.3f} max {speed.max():.3f}",
             f"point times: median over {len(run.times)} passes for each of "
             f"{len(point_ms)} points (p90 has "
             f"{len(point_ms) - math.ceil(0.9 * len(point_ms))} points above it)",
             f"ok_share: {counts['ok_units']} of {counts['units']} points and "
             f"end-of-pass calls ok",
             f"failed_share {counts['failed'] / counts['attempted']:.6g} share "
             f"({counts['failed']} of {counts['attempted']} distinct calls; raised "
             f"{counts['raised']}, failed a check {counts['check_failed']}, "
             f"invalid {counts['invalid']})",
             "unscaled " + json.dumps(unscaled)]
    if counts["raised_by"]:
        notes.append("raised in the first pass: " + ", ".join(f"{k} x{v}" for k, v in
                                            sorted(counts["raised_by"].items())))
    if isinstance(run.ends[0], str):
        notes.append("render_csv sha256 " + hashlib.sha256(run.ends[0].encode()).hexdigest())
    return counts, metrics, notes


def cli_times(reps):
    """Median wall time of ``python -m pimac`` subcommands, in seconds, and
    how many of the commands failed in any repetition, and of how many."""
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    figure = ["--h22", "0.2", "--p1", "10", "--p2", "10", "--p3", "10"]
    commands = {
        "cli.point_s": ["point", "--h12", "0.2", "--h31", "0.2"] + figure,
        "cli.sweep_s": ["sweep", "--h-min", "0", "--h-max", "1", "--steps", "5",
                        "--out", str(OUT / "cli_sweep.csv")] + figure,
        "cli.validate_s": ["validate", "--seed", "1", "--samples", "20000"],
    }
    out, failed = {}, 0
    for name, command in commands.items():
        times, codes = [], set()
        for _ in range(reps):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "pimac"] + command, cwd=ROOT,
                                  env=env, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
            codes.add(proc.returncode)
        failed += codes != {0}
        out[name] = (statistics.median(times), "s")
    return out, failed, len(commands)


def per_layer(wl, args, size):
    import spans
    import workloads

    pimac = sys.modules["pimac"]
    metrics = spans.probe_table(PROBE_REPS[size])
    # Host speed samples only before and after each pass: on figure_sweep
    # they would fall inside the run_sweep span.
    untraced = run_passes(wl, 0.0, min_passes=1, interval=math.inf)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_passes(wl, 0.0, min_passes=1, interval=math.inf)
        cfg = pimac.SweepConfig(h_min=workloads.PROBE_HS[0], h_max=workloads.PROBE_HS[1],
                                steps=2, **workloads.FIGURE)
        pimac.render_csv(pimac.run_sweep(cfg))
    finally:
        tracer.uninstall()
    metrics.update(tracer.layer_metrics())
    # Each pass is scaled by the host speed samples around it, so a change
    # of phase between the two passes cancels.
    t_untraced, t_traced = (sum(r.point_ms()) / 1e3 for r in (untraced, traced))
    metrics["trace.overhead_s"] = (t_traced - t_untraced, "s")
    metrics["trace.overhead_share"] = ((t_traced - t_untraced) / t_untraced, "share")
    cli, cli_failed, cli_attempted = cli_times(CLI_REPS[size])
    metrics.update(cli)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{wl.name}.npz")

    untraced.add_pass(traced.first, traced.starts[0], traced.times[0], traced.ends[0])
    counts = account(wl, untraced)
    counts["attempted"] += cli_attempted
    counts["failed"] += cli_failed
    raised = sum(1 for o in traced.first for c, v in o.items()
                 if c == "ub1" and isinstance(v, Exception))
    notes = [f"untraced pass {t_untraced:.3f} s, traced pass {t_traced:.3f} s, "
             f"{metrics['trace.spans'][0]} spans",
             f"c_sigma_1 raised in the traced pass: {raised}; traced "
             f"bounds.c_sigma_1.failed: {metrics['bounds.c_sigma_1.failed'][0]}"]
    return counts, metrics, notes


def main(argv=None, size="full"):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, size)
    run = per_layer if args.trace else end_to_end
    counts, metrics, notes = run(wl, args, size)

    print(f"workload {wl.name} seed {args.seed} points per pass {len(wl.points)}")
    for line in notes + counts["findings"]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("provenance " + json.dumps(provenance(wl.name, args.seed, size)))
    result = {
        "correct": counts["invalid"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
