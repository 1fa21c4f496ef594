"""Smoke test of the benchmark itself.

Run from the root of a source checkout::

    python3 bench/smoke.py

It runs every workload at a tiny size in both modes and checks that the
last output line carries every metric named in ``BENCHMARK.json`` with its
unit. It checks that a deliberately wrong output (a bound below an
achievable rate) is counted as failed and makes the run incorrect, that an
end-of-pass call that was not made counts as failed, that the counts of
attempted and failed calls do not depend on the number of passes, that the
traced run counts every raised genie-bound call, and that the benchmark
refuses to run without the program's sources. Exits 0 when every check
holds.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def result_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, size="tiny")
    if code != 0:
        raise AssertionError(f"{argv}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_result(label, result, expected):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        problems.append(f"{label}: attempted {result['attempted']!r}, failed {result['failed']!r}")
    if set(result["metrics"]) != set(expected):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ set(expected))}")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if metric.get("unit") != expected.get(name):
            problems.append(f"{label}: {name} unit {metric.get('unit')!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r}")
    return problems


def check_fault_is_counted():
    """A bound pushed below the achievable rates must fail a validity check,
    and an end-of-pass call that was not made must count as failed."""
    from workloads import FigureSweep, TinDraws

    problems = []
    wl = TinDraws(1, "tiny")
    loop = run.run_passes(wl, 0.0, min_passes=1)
    clean = run.account(wl, loop)
    vals = wl.values(loop.first[0])
    loop.first[0]["ub2"] = max(vals[c] for c in ("sd_tin", "tdma_tin", "tdma")) - 1.0
    tampered = run.account(wl, loop)
    if not (tampered["failed"] == clean["failed"] + 1 and tampered["invalid"] >= 1
            and tampered["ok_units"] == clean["ok_units"] - 1):
        problems.append(f"injected bad bound not counted: clean {clean['failed']} failed, "
                        f"tampered {tampered['failed']} failed, {tampered['invalid']} invalid")

    wl = FigureSweep(1, "tiny")
    loop = run.run_passes(wl, 0.0, min_passes=2)
    clean = run.account(wl, loop)
    loop.ends[1] = RuntimeError("render_csv not called")
    skipped = run.account(wl, loop)
    if not (skipped["attempted"] == clean["attempted"]
            and skipped["failed"] == clean["failed"] + 1
            and skipped["ok_units"] == clean["ok_units"] - 1):
        problems.append(f"end-of-pass call not made but not counted: clean {clean}, "
                        f"skipped {skipped}")
    return problems


def check_counts_ignore_passes():
    """One pass and two passes of the same seed must give the same counts."""
    from workloads import GenieWide

    wl = GenieWide(1, "tiny")
    one, two = (run.account(wl, run.run_passes(wl, 0.0, min_passes=n)) for n in (1, 2))
    if (one["attempted"], one["failed"]) != (two["attempted"], two["failed"]):
        return [f"counts depend on passes: one pass {one['attempted']} attempted "
                f"{one['failed']} failed, two passes {two['attempted']} attempted "
                f"{two['failed']} failed"]
    if one["failed"] == 0:
        return ["genie_wide at tiny size has no failed call to count"]
    return []


def check_traced_failures():
    """The tracer's count of raised c_sigma_1 calls must match the outcomes."""
    import spans
    from workloads import GenieWide

    tracer = spans.Tracer()
    tracer.install()
    try:
        loop = run.run_passes(GenieWide(1, "tiny"), 0.0, min_passes=1)
    finally:
        tracer.uninstall()
    raised = sum(isinstance(o["ub1"], Exception) for o in loop.first)
    traced = tracer.layer_metrics()["bounds.c_sigma_1.failed"][0]
    if traced != raised:
        return [f"traced c_sigma_1 failures {traced} != {raised} raised calls"]
    return []


def check_refuses_without_sources():
    """With only BENCHMARK.json and bench/, the run must fail without a result."""
    stripped = run.OUT / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(run.BENCH, stripped / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", stripped)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tin_draws",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=stripped, capture_output=True, text=True, timeout=180)
    shutil.rmtree(stripped)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            result = result_of(["--workload", workload, "--seed", "1",
                                "--seconds", "0.2", "--trace", str(trace)])
            problems += check_result(f"{workload} trace {trace}", result, expected)
    problems += check_fault_is_counted()
    problems += check_counts_ignore_passes()
    problems += check_traced_failures()
    problems += check_refuses_without_sources()
    for problem in problems:
        print("FAIL " + problem)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
