#!/usr/bin/env python3
"""Closed-loop benchmark of the localizers. Builds the benchmark binaries from the
checkout's sources, runs one workload and prints its metrics; the last line
of standard output is the JSON result. See README.md in this directory.

    python3 perfbench/run.py --workload synpf_race --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Build files go to .bench_build/perfbench.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("synpf_race", "carto_slip_race", "robustness_grid")
RACES = ("synpf_race", "carto_slip_race")
GRID_KINDS = {
    "SynPF": "synpf",
    "CartoLite": "cartolite",
    "SynPF+Recovery": "synpf_recovery",
    "SynPF+Governor": "synpf_governor",
    "SynPF+Budget": "synpf_budget",
}

# Share of a race's windows its timings are taken over: those the host
# disturbed least, by steal and host probe (see README.md).
QUIET_SHARE = 0.3


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring both binaries up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no program sources under {ROOT}; run from a checkout")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            return False
    return True


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def median_of(rows, key):
    return statistics.median(row[key] for row in rows)


def sim_speed(passes):
    """Simulated seconds per wall second over all of `passes`."""
    return sum(p["sim_s"] for p in passes) / sum(p["wall_s"] for p in passes)


def race_windows(raw):
    """Every window of a race's timed passes, in order, as a dict of
    its steal share, host probe, wall, simulated time and on_scan samples."""
    size = int(raw["steal_window"])
    windows = []
    for p in raw["passes"]:
        w = p["windows"]
        for i, steal in enumerate(w["steal_share"]):
            windows.append({"steal": steal, "probe_ms": w["probe_ms"][i],
                            "wall_s": w["wall_s"][i], "sim_s": w["sim_s"][i],
                            "update_ms": p["update_ms"][i * size:(i + 1) * size]})
    return windows


def quiet_windows(raw):
    """The QUIET_SHARE of a race's windows the host disturbed least
    (stats.quietest)."""
    windows = race_windows(raw)
    picked = stats.quietest([w["steal"] for w in windows],
                            [w["probe_ms"] for w in windows], QUIET_SHARE)
    return [windows[i] for i in picked]


def end_to_end(raw, checks):
    """The user-visible metrics of an untraced run."""
    setups = raw["setups"]
    passes = raw["passes"]
    m = {
        "setup_s": statistics.median(sum(s.values()) for s in setups),
        "peak_rss_mb": raw["peak_rss_mb"],
        "success_pct": 100.0 * raw["ops_ok"] / raw["ops"],
    }
    if raw["workload"] in RACES:
        # Raw on_scan samples, one per scan, pooled over the quietest
        # windows of all timed passes; the same windows give the speed.
        quiet = quiet_windows(raw)
        samples = [x for w in quiet for x in w["update_ms"]]
        tail = stats.tail_percentile(len(samples))
        checks.append({
            "name": "p99_has_ten_beyond",
            "ok": tail is not None and float(tail) >= 99,
            "detail": f"{len(samples)} update samples in the {len(quiet)} "
                      f"quietest windows; highest percentile with "
                      f"{stats.MIN_BEYOND} beyond: p{tail}"})
        m["update_p50_ms"] = stats.percentile(samples, "50")
        m["update_p99_ms"] = stats.percentile(samples, "99")
        m["sim_speed_x"] = sim_speed(quiet)
        m["lateral_error_cm"] = raw["result"]["lateral_mean_cm"]
        m["pose_rmse_cm"] = raw["result"]["pose_rmse_m"] * 100.0
    else:
        # The grid's cells run inside ScenarioMatrix::run; their latency
        # comes from each cell's ExperimentResult, as the median across
        # cells (and across passes).
        cells = raw["cells"]
        m["sim_speed_x"] = sim_speed(passes)
        m["update_p50_ms"] = statistics.median(
            statistics.median(p["cell_p50_ms"]) for p in passes)
        m["update_p99_ms"] = statistics.median(
            statistics.median(p["cell_p99_ms"]) for p in passes)
        m["lateral_error_cm"] = statistics.median(
            c["lateral_mean_cm"] for c in cells if c["lateral_mean_cm"] > 0)
        m["pose_rmse_cm"] = 100.0 * statistics.median(
            c["pose_rmse_m"] for c in cells if c["pose_rmse_m"] > 0)
    return m


def span_table(traced):
    """Per span name: calls, total and self time (s) and every duration (s)
    in call order; plus the spans and their self-times."""
    names = traced["spans"]["names"]
    records = traced["spans"]["records"]
    spans = [(int(r[1]), r[2], r[3]) for r in records]
    selfs = stats.self_times(spans)
    table = {}
    for (layer, _, start, end), own in zip(records, selfs):
        row = table.setdefault(names[int(layer)],
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "durations": []})
        row["calls"] += 1
        row["total_s"] += (end - start) * 1e-9
        row["self_s"] += own * 1e-9
        row["durations"].append((end - start) * 1e-9)
    return table, spans, selfs


def per_layer(raw, checks):
    """Layer metrics of a traced run, plus the reconciliation table. Layers
    a workload does not enter are left out; they report 0."""
    m = {}
    setups = raw["setups"]
    m["gridmap.track_build_s"] = median_of(setups, "track_s")
    traced = raw["traced"]
    if raw["workload"] not in RACES:
        walls = {kind: 0.0 for kind in GRID_KINDS.values()}
        for rerun in traced["reruns"]:
            walls[GRID_KINDS[rerun["localizer"]]] += rerun["wall_s"]
        for kind, wall in walls.items():
            m[f"matrix.kind_s.{kind}"] = wall
        m["matrix.cell_max_s"] = max(r["wall_s"] for r in traced["reruns"])
        m["matrix.lane_efficiency"] = (
            sum(r["wall_s"] for r in traced["reruns"])
            / (raw["provenance"]["matrix_lanes"]
               * statistics.median(p["wall_s"] for p in raw["passes"])))
        return m, []

    m["eval.runner_build_s"] = median_of(setups, "runner_s")
    table, spans, selfs = span_table(traced)

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "durations": [0.0]})

    def med(name):
        return statistics.median(row(name)["durations"])

    loop = row("eval.loop")
    snapshot_s = row("trace.cloud_snapshot")["total_s"]
    loop_wall = loop["total_s"] - snapshot_s
    scans = traced["scans"]
    m["vehicle.step_us"] = med("vehicle.step") * 1e6
    m["vehicle.busy_s"] = row("vehicle.step")["total_s"] + row("vehicle.odometry")["total_s"]
    m["sensor.lidar_scan_ms"] = med("sensor.lidar_scan") * 1e3
    m["sensor.busy_s"] = row("sensor.lidar_scan")["total_s"]
    m["control.pursuit_us"] = med("control.pursuit") * 1e6
    m["control.busy_s"] = row("control.pursuit")["total_s"]
    m["localizer.busy_s"] = sum(row(n)["total_s"] for n in (
        "localizer.initialize", "localizer.on_odometry", "localizer.on_scan"))
    m["localizer.odometry_us"] = med("localizer.on_odometry") * 1e6
    m["eval.harness_busy_s"] = loop["self_s"]
    m["eval.residual_pct"] = 100.0 * loop["self_s"] / loop_wall

    # Reconciliation: the layer spans, the harness residual and the
    # benchmark's own snapshots add up to the loop wall, to the nanosecond.
    accounted = (m["vehicle.busy_s"] + m["sensor.busy_s"] + m["control.busy_s"]
                 + m["localizer.busy_s"] + m["eval.harness_busy_s"] + snapshot_s)
    bad = stats.nesting_errors(spans)
    roots = [i for i, s in enumerate(spans) if s[0] < 0]
    ok = not bad and len(roots) == 1 and sum(selfs) == spans[0][2] - spans[0][1]
    checks.append({
        "name": "spans_reconcile",
        "ok": ok and abs(accounted - loop["total_s"]) <= 1e-6 * loop["total_s"],
        "detail": f"{len(spans)} spans, {len(bad)} badly nested; layers + "
                  f"harness + snapshots = {accounted:.6f} s of "
                  f"{loop['total_s']:.6f} s loop wall"})

    if raw["workload"] == "synpf_race":
        m["range.lut_build_s"] = traced["lut_build_s"]
        m["core.predict_ms"] = med("core.predict") * 1e3
        m["core.correct_ms"] = med("core.correct") * 1e3
        m["core.estimate_us"] = med("core.estimate") * 1e6
        m["core.resamples_per_scan"] = traced["resamples"] / scans
        m["range.fan_us"] = statistics.median(traced["fan_us"])
        m["range.queries_per_scan"] = traced["spans"]["range_queries"] / scans
    else:
        period = int(traced["global_period"])
        on_scan = row("localizer.on_scan")["durations"]
        local = [d for k, d in enumerate(on_scan, 1) if k % period]
        searched = [d for k, d in enumerate(on_scan, 1) if k % period == 0]
        m["slam.field_build_s"] = traced["field_build_s"]
        m["slam.local_scan_ms"] = statistics.median(local) * 1e3
        m["slam.global_scan_ms"] = statistics.median(searched) * 1e3
        m["slam.global_fix_ratio"] = traced["global_fixes"] / len(searched)

    # Whole passes on both sides: the traced pass is not steal-metered.
    untraced = sim_speed(raw["passes"])
    traced_speed = traced["sim_s"] / traced["wall_s"]
    m["trace.overhead_pct"] = 100.0 * (1.0 - traced_speed / untraced)
    pooled = [x for p in raw["passes"] for x in p["update_ms"]]
    m["localizer.pooled_p99_ms"] = stats.percentile(pooled, "99")

    rows = [(name, table[name]) for name in sorted(table)]
    return m, rows


def report(raw, metrics, units, rows, checks):
    p = raw["provenance"]
    print(f"workload {raw['workload']}  seed {p['seed']}  trace {int(raw['trace'])}")
    print(f"  simd {p['simd_backend']}  lanes {p['default_lanes']}"
          + (f"  filter threads {p['filter_threads']}" if "filter_threads" in p else "")
          + (f"  matrix lanes {p['matrix_lanes']}" if "matrix_lanes" in p else "")
          + f"  nproc {p['nproc']}  cpu {p['cpu_model']}")
    print(f"  build {p['build_type']}  commit {p['commit']}")
    for knob in p["env_overrides"]:
        print(f"  WARNING {knob} is set: not the default configuration")
    passes = raw["passes"]
    steal = ", ".join(f"{100 * q['steal_share']:.1f}" for q in passes)
    print(f"  {len(passes)} timed passes; host steal % per pass: {steal}")
    if raw["workload"] in RACES:
        r = raw["result"]
        print(f"  each pass {r['scans']:.0f} scans, one update sample each, "
              f"over laps {r['lap_times']}; scans > 1 m off: "
              f"{r['diverged_scans']:.0f}")
        windows = race_windows(raw)
        quiet = quiet_windows(raw)
        samples = [x for w in quiet for x in w["update_ms"]]
        probes = [w["probe_ms"] for w in windows]
        print(f"  {len(windows)} windows of {raw['steal_window']:.0f} scans, "
              f"{sum(w['steal'] == 0 for w in windows)} without steal, host "
              f"probe {min(probes):.3f}-{max(probes):.3f} ms (median "
              f"{statistics.median(probes):.3f}); timings over the quietest "
              f"{len(quiet)} ({len(samples)} samples, steal at most "
              f"{100 * max(w['steal'] for w in quiet):.2f} %, probe at most "
              f"{max(w['probe_ms'] for w in quiet):.3f} ms)")
        pooled = [x for q in passes for x in q["update_ms"]]
        print("  update ms per pass, p50: " + ", ".join(
            f"{stats.percentile(q['update_ms'], '50'):.3f}" for q in passes)
              + "; p99: " + ", ".join(
            f"{stats.percentile(q['update_ms'], '99'):.3f}" for q in passes)
              + f"; all {len(pooled)} samples pooled: p50 "
              f"{stats.percentile(pooled, '50'):.3f}, p99 "
              f"{stats.percentile(pooled, '99'):.3f}")
    else:
        cells = raw["cells"]
        down = [f"{c['localizer']}/{c['scenario']}" for c in cells
                if c["crashed"] or not c["recovered"]]
        print(f"  each pass {len(cells)} cells; crashed or unrecovered: "
              f"{len(down)} ({', '.join(down)})")
    if rows:
        print("  span                       calls     total s      self s")
        for name, row in rows:
            print(f"  {name:<25}{row['calls']:>7}{row['total_s']:>12.6f}"
                  f"{row['self_s']:>12.6f}")
        print(f"  harness residual {metrics['eval.residual_pct']:.3f}% of the "
              f"loop wall; tracing overhead {metrics['trace.overhead_pct']:.3f}%"
              f" of untraced sim speed")
    for name, value in metrics.items():
        print(f"  {name:<28}{value:>16.6f} {units[name]}")
    for check in checks:
        print(f"  check {check['name']}: {'ok' if check['ok'] else 'FAILED'}"
              f" - {check['detail']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2
    binary = BUILD / ("perfbench_traced" if args.trace else "perfbench")
    done = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if done.returncode != 0:
        log(f"perfbench: {binary.name} exited with {done.returncode}")
        return 2
    (BUILD / f"last-{args.workload}-trace{args.trace}.json").write_text(done.stdout)
    raw = json.loads(done.stdout)
    raw["provenance"]["commit"] = commit()
    raw["provenance"]["cpu_model"] = cpu_model()

    # BENCHMARK.json names the metrics a run reports, in order, with units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = list(raw["checks"])
    if args.trace:
        computed, rows = per_layer(raw, checks)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        computed, rows = end_to_end(raw, checks), []
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        missing = units.keys() - computed.keys()
        if missing:
            log(f"perfbench: no value for {sorted(missing)}")
            return 2
    unknown = computed.keys() - units.keys()
    if unknown:
        log(f"perfbench: {sorted(unknown)} not declared in BENCHMARK.json")
        return 2
    metrics = {name: computed.get(name, 0.0) for name in units}
    report(raw, metrics, units, rows, checks)
    correct = all(check["ok"] for check in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
