#!/usr/bin/env python3
"""Campaign benchmark for devs-scc.

    python3 bench/run.py --workload {worked,pairs,probe} --seed N --seconds S --trace {0,1}

Run it from the root of the repository.  It is a closed loop with one
client: one process runs one campaign at a time, with no threads, and
starts the next when the previous one has been checked.

--trace 0 sets the campaign up SETUP_REPEATS times, each from a fresh
import of the package, runs campaigns until --seconds have passed, sets
up SETUP_REPEATS times again, so that set-up is sampled at both ends of
the run, and reports the end-to-end metrics:

  campaign_s             median time of run_campaign + write_artifacts,
                         in host-adjusted seconds (below)
  setup_s                median time to import devs_scc, parse the model,
                         bounds and parts, validate the model with bounds
                         and build the plan, in host-adjusted seconds
  peak_rss_mb            peak resident memory of the process
  combine_decided_ratio  combinations whose emptiness was decided, over
                         those attempted (1 when the campaign has no plan)
  selectable_ratio       catalog classes that got a representative, over
                         the catalog

--trace 1 alternates untraced and traced campaigns for --seconds and
reports the per-layer metrics of the traced ones (see layers.py), with
trace_overhead_s, the traced minus the untraced median campaign_s.

Host-adjusted seconds.  On a shared host the speed at which Python runs
drifts by tens of percent within minutes, in wall and in CPU time alike,
which would swamp any change in the code.  So a fixed pure-Python
calibration loop, independent of devs_scc, is timed before and after
every campaign and every set-up, and every CALIBRATION_TICK_S during
them from a SIGALRM handler whose own time is not counted.  Each piece
of work between two calibrations is scaled by CALIBRATION_REFERENCE_S
over the mean of the two: the time the work would have taken on a host
where the loop takes CALIBRATION_REFERENCE_S, about a 2-vCPU cloud VM.
The loop does integer arithmetic, dict updates and function calls, the
mix that tracked the campaigns' own drift best.  The raw wall times and
the calibrations are in the details line.  Traced runs calibrate only
between campaigns, so that the layers' busy times hold no calibration.

Every campaign's artifacts are checked (see workloads.py).  A campaign
that fails its check counts as failed and is not timed.  The line before
the last holds details for a reader: the calibration times, to tell host
drift from a change in the code, and the run's own sample counts, raw
wall times and quartiles.  The last line is the result.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import layers
import workloads

SETUP_REPEATS = 4
CALIBRATION_REPEATS = 3
CALIBRATION_TICK_S = 1.0
CALIBRATION_REFERENCE_S = 0.016
OUT = workloads.ROOT / ".bench_out"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        workloads.require_sources()
    except workloads.SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    run = traced_run if args.trace else untraced_run
    result, details = run(args.workload, args.seed, args.seconds, OUT / args.workload)
    details.update(workload=args.workload, seed=args.seed)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


def _calibration_step(env: dict, key: str, i: int) -> int:
    return (env.get(key, 0) + i) & 1023


def _calibration_loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    env: dict[str, int] = {}
    keys = [f"v{i}" for i in range(64)]
    for i in range(40_000):
        key = keys[i & 63]
        env[key] = _calibration_step(env, key, i)
        total += env[key]
    return total


def calibrate() -> float:
    """Median wall time of a fixed pure-Python loop."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostClock:
    """Times work and scales its wall time to the reference host.

    The calibration runs before and after the work and, when tick_s is
    set, from a SIGALRM handler every tick_s seconds during it, so that a
    campaign that runs for many seconds is followed piece by piece.  Each
    piece of work between two calibrations is scaled by their mean, and
    the handler's own time is not counted as work.
    """

    def __init__(self, tick_s: float | None) -> None:
        self.tick_s = tick_s
        self.calibrations = [calibrate()]

    def time(self, work):
        """Runs work(); returns its result, wall time and adjusted time."""
        pieces: list[tuple[float, float]] = []  # (wall, calibration after it)
        mark = time.perf_counter()

        def tick(signum, frame):
            nonlocal mark
            end = time.perf_counter()
            pieces.append((end - mark, calibrate()))
            mark = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, self.tick_s)  # one shot: no re-entry

        if self.tick_s:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, self.tick_s)
        try:
            result = work()
        finally:
            if self.tick_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        pieces.append((time.perf_counter() - mark, calibrate()))
        wall = adjusted = 0.0
        for piece, after in pieces:
            host = (self.calibrations[-1] + after) / 2
            wall += piece
            adjusted += piece * CALIBRATION_REFERENCE_S / host
            self.calibrations.append(after)
        return result, wall, adjusted


def set_up_times(clock: HostClock, workload: str, seed: int,
                 setup_traces: list | None = None):
    """Set the campaign up SETUP_REPEATS times; returns the last Campaign,
    the campaign module it belongs to, and the set-up times, wall and
    adjusted."""
    walls, adjusted = [], []

    def set_up():
        rebinder = layers.Rebinder()
        pkg = workloads.import_devs_scc()
        if setup_traces is not None:
            trace = layers.SetupTrace()
            trace.install(pkg, rebinder)
            setup_traces.append(trace)
        try:
            return workloads.set_up(pkg, workload, seed)
        finally:
            rebinder.restore()

    for _ in range(SETUP_REPEATS):
        campaign, wall, adj = clock.time(set_up)
        walls.append(wall)
        adjusted.append(adj)
    return campaign, sys.modules["devs_scc.campaign"], walls, adjusted


def run_checked(clock: HostClock, campaign_mod, campaign, workload: str, out_dir: Path):
    """One campaign and its check; returns (wall, adjusted, problems)."""
    shutil.rmtree(out_dir, ignore_errors=True)

    def work():
        campaign_mod.write_artifacts(campaign_mod.run_campaign(campaign), str(out_dir))

    _, wall, adjusted = clock.time(work)
    return wall, adjusted, workloads.check_artifacts(workload, out_dir)


def untraced_run(workload: str, seed: int, seconds: float, out: Path):
    clock = HostClock(CALIBRATION_TICK_S)
    campaign, campaign_mod, setup_walls, setup_times = set_up_times(clock, workload, seed)
    walls, timed, failed, problems = [], [], 0, []
    deadline = time.perf_counter() + seconds
    attempted = 0
    while True:
        attempted += 1
        wall, adjusted, found = run_checked(clock, campaign_mod, campaign, workload, out)
        if found:
            failed += 1
            problems.extend(found)
        else:
            walls.append(wall)
            timed.append(adjusted)
        if time.perf_counter() >= deadline:
            break
    _, _, more_walls, more_times = set_up_times(clock, workload, seed)
    setup_walls += more_walls
    setup_times += more_times
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    combined = report.get("combined")
    decided = 1.0
    if combined and combined["attempted"]:
        decided = 1 - combined["unknown"] / combined["attempted"]
    metrics = {
        "campaign_s": (statistics.median(timed or [adjusted]), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "combine_decided_ratio": (decided, "ratio"),
        "selectable_ratio": (report["configs_selected"] / report["catalog_size"], "ratio"),
    }
    details = {
        "campaign_s": _spread(timed),
        "campaign_wall_s": _spread(walls),
        "setup_s": _spread(setup_times),
        "setup_wall_s": _spread(setup_walls),
        "calibration_s": _spread(clock.calibrations),
        "problems": sorted(set(problems)),
        **_combine_details(workload, combined),
    }
    return _result(attempted, failed, metrics), details


def traced_run(workload: str, seed: int, seconds: float, out: Path):
    setup_traces: list[layers.SetupTrace] = []
    clock = HostClock(None)  # no ticks: they would add to the layers' busy times
    campaign, campaign_mod, _, _ = set_up_times(clock, workload, seed, setup_traces)
    untraced_times, traced_times, traces, per_trace = [], [], [], []
    failed, problems = 0, []
    deadline = time.perf_counter() + seconds
    attempted = 0
    while True:
        attempted += 2
        _, plain_s, plain_problems = run_checked(
            clock, campaign_mod, campaign, workload, out / "untraced")
        rebinder = layers.Rebinder()
        trace = layers.CampaignTrace()
        trace.install(rebinder)
        try:
            _, traced_s, traced_problems = run_checked(
                clock, campaign_mod, campaign, workload, out / "traced")
        finally:
            rebinder.restore()
        if not _same_files(out / "untraced", out / "traced"):
            traced_problems.append("traced artifacts differ from untraced ones")
        measured = trace.metrics()
        if per_trace and layers.deterministic(measured) != layers.deterministic(per_trace[0]):
            traced_problems.append("deterministic counters differ between traced campaigns")
        for elapsed, found, times in ((plain_s, plain_problems, untraced_times),
                                      (traced_s, traced_problems, traced_times)):
            if found:
                failed += 1
                problems.extend(found)
            else:
                times.append(elapsed)
        traces.append(trace)
        per_trace.append(measured)
        if time.perf_counter() >= deadline:
            break

    counters = layers.deterministic(per_trace[0])
    metrics = {name: (counters[name] if name in counters
                      else statistics.median(m[name] for m in per_trace), _unit(name))
               for name in per_trace[0]}
    metrics["parser.busy_s"] = (statistics.median(t.parser_s for t in setup_traces), "s")
    metrics["check.busy_s"] = (statistics.median(t.check_s for t in setup_traces), "s")
    overhead = (statistics.median(traced_times or [traced_s])
                - statistics.median(untraced_times or [plain_s]))
    metrics["trace_overhead_s"] = (overhead, "s")
    report = json.loads((out / "traced" / "report.json").read_text(encoding="utf-8"))
    details = {
        "traced_campaigns": len(traces),
        "untraced_campaign_s": _spread(untraced_times),
        "traced_campaign_s": _spread(traced_times),
        "calibration_s": _spread(clock.calibrations),
        "counters_sha256": hashlib.sha256(
            json.dumps(counters, sort_keys=True).encode()).hexdigest(),
        "top_classes_by_sat_attempts": traces[0].top_classes(),
        "problems": sorted(set(problems)),
        **_combine_details(workload, report.get("combined")),
    }
    return _result(attempted, failed, metrics), details


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def _spread(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "min": min(values), "q1": q[0], "median": q[1],
            "q3": q[2], "max": max(values), "mean": statistics.fmean(values)}


def _combine_details(workload: str, combined: dict | None) -> dict:
    """For pairs: the drawn unknown share next to the full set's."""
    if workload != "pairs" or not combined:
        return {}
    _, verdicts = workloads.pair_strata()
    return {
        "drawn_unknown_share": combined["unknown"] / combined["attempted"],
        "full_set_unknown_share": verdicts.count("u") / len(verdicts),
        "drawn": {k: combined[k] for k in ("attempted", "kept", "dropped", "unknown")},
    }


def _same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


if __name__ == "__main__":
    sys.exit(main())
