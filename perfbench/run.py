"""Benchmark of the CATCH reproduction: one command per workload.

    python3 perfbench/run.py --workload sim-memory --seed 1 --seconds 25 --trace 0

Run from the repository root.  Workloads (see ``CHOICES.md`` for why):

* ``sim-memory`` — the hierarchy-bound matrix (no CATCH engine);
* ``sim-catch``  — CATCH configurations, where TACT and the DDG work;
* ``daemon-slice`` — the fig10 quick matrix at a short length through the
  real daemon, cold and then warm from its result cache.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` is a separate
run that installs the layer wrappers and prints every per-layer metric.
Every run checks the simulated outputs against ``golden.json``; the last
stdout line is one JSON object ``{correct, attempted, failed, metrics}`` and
the exit code is 1 when any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
from collections import Counter
import sys
import time

import common
import layers

E2E_UNITS = {
    "sim_ips": "instr/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ipc_geomean": "instr/cycle",
    "job_s_p50": "s",
    "job_s_p75": "s",
    "jobs_per_s": "1/s",
    "cached_job_s_p50": "s",
}

SIM_COUNTS = (
    "sim.cycles", "sim.load_served.L1", "sim.load_served.L2",
    "sim.load_served.LLC", "sim.load_served.MEM", "sim.llc_reads",
    "sim.ring_messages", "sim.dram_reads", "sim.dram_activations",
    "sim.tact_issued", "sim.tact_demand_covered", "sim.critical_pcs",
)
SERVICE_P50 = (
    "service.http_submit_s_p50", "service.http_result_s_p50",
    "service.queue_wait_s_p50", "service.run_s_p50",
    "service.result_write_s_p50",
)


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in layers.LAYER_NAMES:
        units[f"{layer}_calls"] = "count"
        units[f"{layer}_self_s"] = "s"
        units[f"{layer}_ns_per_call"] = "ns"
    for name in SIM_COUNTS:
        units[name] = "cycles" if name == "sim.cycles" else "count"
    for name in SERVICE_P50:
        units[name] = "s"
    units["service.lease_hit_ratio"] = "ratio"
    units["cache.exact_hits"] = "count"
    units["cache.misses"] = "count"
    units["trace.unattributed_frac"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


PER_LAYER_UNITS = per_layer_units()

#: Set-up samples taken per run; the median is reported.
SETUP_PROBES = 3



def geomean(values) -> float:
    """Geometric mean, summed in sorted order so it is exactly reproducible."""
    logs = sorted(math.log(v) for v in values)
    return math.exp(sum(logs) / len(logs))


# ------------------------------------------------------------ sim workloads


def spawn_sim(args: list[str]):
    """Start ``simwork.py``; returns the process and its set-up timing."""
    cmd = [sys.executable, str(common.BENCH_DIR / "simwork.py"), *args,
           "--spawn-wall", repr(time.time())]
    proc = subprocess.Popen(
        cmd, env=common.child_env(), cwd=common.ROOT,
        stdout=subprocess.PIPE, text=True,
    )
    word, _, setup = proc.stdout.readline().partition(" ")
    if word != "READY":
        finish(proc)
        raise RuntimeError(f"sim worker failed to start: {cmd}")
    return proc, json.loads(setup)


def finish(proc, timeout: float = 170.0) -> int:
    """Wait for a child; kill it when it overstays.  Returns its exit code."""
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    return proc.returncode


def sim_setup_samples(workload: str, seed: int, n: int) -> list[tuple[float, float]]:
    """``(normalised, raw)`` spawn-to-ready seconds of fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc, setup = spawn_sim(
            ["--workload", workload, "--seed", str(seed), "--n", str(n), "--setup-only"]
        )
        if finish(proc) != 0:
            raise RuntimeError("set-up probe failed")
        samples.append((setup["norm_s"], setup["raw_s"]))
    return samples


def run_sim_worker(workload: str, seed: int, n: int, seconds: float, trace: bool) -> dict:
    common.WORK.mkdir(exist_ok=True)
    out = common.WORK / f"{workload}-{'traced' if trace else 'plain'}.json"
    args = ["--workload", workload, "--seed", str(seed), "--n", str(n),
            "--seconds", str(seconds), "--out", str(out)]
    if trace:
        args.append("--trace")
    proc, _ = spawn_sim(args)
    if finish(proc) != 0:
        raise RuntimeError(f"sim worker exited {proc.returncode}")
    data = json.loads(out.read_text())
    out.unlink()
    return data


def sim_e2e(workload: str, seed: int, n: int, seconds: float):
    setup = sim_setup_samples(workload, seed, n)
    data = run_sim_worker(workload, seed, n, seconds, trace=False)
    recs = data["records"]
    by_pair: dict[str, list] = {}
    for rec in recs:
        by_pair.setdefault(rec["pair"], []).append(rec)
    # Each pair's median over passes: with three or more passes, one
    # disturbed pass moves no metric.
    norm_s = [statistics.median(r["norm_s"] for r in rs) for rs in by_pair.values()]
    raw_s = [statistics.median(r["raw_s"] for r in rs) for rs in by_pair.values()]
    stepped = sum(rs[0]["stepped"] for rs in by_pair.values())
    metrics = {
        "sim_ips": stepped / sum(norm_s),
        "setup_s": statistics.median(s for s, _ in setup),
        "peak_rss_mb": data["peak_rss_mb"],
        "ipc_geomean": geomean(
            rs[0]["instructions"] / rs[0]["cycles"] for rs in by_pair.values()
        ),
        **dict(zip(("job_s_p50", "job_s_p75"), common.p50_p75(norm_s))),
        "jobs_per_s": len(norm_s) / sum(norm_s),
        "cached_job_s_p50": statistics.median(data["recall_s"]),
    }
    info = {
        "sim_ips_raw": stepped / sum(raw_s),
        "cached_job_s_p50_raw": statistics.median(data["recall_raw_s"]),
        "setup_s_raw": statistics.median(raw for _, raw in setup),
        "passes": data["passes"],
        "pairs": len(by_pair),
        "measure_s": round(data["measure_s"], 3),
        "golden_checked": data["golden_checked"],
        "combined_digest": data["combined_digest"],
    }
    attempted = len(recs) + len(data["recall_s"])
    return metrics, info, data["failures"], attempted, len(data["failures"])


def sim_layers(workload: str, seed: int, n: int):
    plain = run_sim_worker(workload, seed, n, 0, trace=False)
    traced = run_sim_worker(workload, seed, n, 0, trace=True)
    metrics = {name: 0 for name in PER_LAYER_UNITS}
    metrics.update(traced["layers"])
    for rec in traced["records"]:
        for name, value in rec["counts"].items():
            metrics[name] += value
    metrics["trace.unattributed_frac"] = traced["unattributed_frac"]
    metrics["trace.overhead"] = (
        sum(r["norm_s"] for r in traced["records"])
        / sum(r["norm_s"] for r in plain["records"])
    )
    info = {"combined_digest": traced["combined_digest"],
            "golden_checked": traced["golden_checked"],
            "trace_file": traced["trace_file"]}
    failures = plain["failures"] + traced["failures"]
    attempted = len(plain["records"]) + len(traced["records"])
    return metrics, info, failures, attempted, len(failures)


# ------------------------------------------------------------ daemon-slice


def daemon_jobs(seed: int) -> list[tuple[str, str]]:
    pairs = [(p, w) for p in common.FIG10_PRESETS for w in common.QUICK_WORKLOADS]
    return common.pair_order(pairs, seed, "daemon-slice")


def daemon_golden(n: int) -> dict | None:
    return common.load_golden()["daemon"] if n == common.DAEMON_N else None


def daemon_e2e(seed: int, n: int, seconds: float):
    import daemonwork as dw

    jobs = daemon_jobs(seed)
    golden = daemon_golden(n)
    workdir = dw.fresh_workdir()
    cycles = []
    try:
        # Set-up samples: one probe daemon plus the two of every cycle.
        setup = [dw.setup_probe(workdir)]
        t0 = time.perf_counter()
        while True:
            cycles.append(dw.run_cycle(workdir, jobs, n))
            setup += cycles[-1]["setup"]
            if time.perf_counter() - t0 >= seconds:
                break
    finally:
        dw.remove(workdir)
    failures: list[str] = []
    failed = sum(dw.check_cycle(c, golden, failures) for c in cycles)
    cold = [j for c in cycles for j in c["cold"]["results"] if j["ok"]]
    warm = [j for c in cycles for j in c["warm"]["results"] if j["ok"]]
    cold_wall = sum(c["cold"]["wall_s"] for c in cycles)
    latencies = [j["latency_s"] for j in cold]
    metrics = {
        "sim_ips": sum(2 * j["instructions"] for j in cold) / cold_wall,
        "setup_s": statistics.median(s for s, _ in setup),
        "peak_rss_mb": max(
            c[p]["peak_rss_mb"] for c in cycles for p in ("cold", "warm")
        ),
        "ipc_geomean": geomean(j["instructions"] / j["cycles"] for j in cold[: len(jobs)]),
        **dict(zip(("job_s_p50", "job_s_p75"), common.p50_p75(latencies))),
        "jobs_per_s": len(cold) / cold_wall,
        "cached_job_s_p50": statistics.median(
            common.normalise(j["latency_s"], *c["warm"]["calib"])
            for c in cycles for j in c["warm"]["results"] if j["ok"]
        ),
    }
    info = {
        "setup_s_raw": statistics.median(raw for _, raw in setup),
        "cached_job_s_p50_raw": statistics.median(j["latency_s"] for j in warm),
        "cycles": len(cycles),
        "cold_jobs": len(cold),
        "warm_jobs": len(warm),
        "warm_cached_at_admission": sum(j["cached_at_submit"] for j in warm),
        "golden_checked": golden is not None,
    }
    return metrics, info, failures, 2 * len(jobs) * len(cycles), failed


def daemon_layers(seed: int, n: int):
    import daemonwork as dw
    from repro.obs import TraceCollector

    jobs = daemon_jobs(seed)
    golden = daemon_golden(n)
    workdir = dw.fresh_workdir()
    collector = TraceCollector()
    try:
        plain = dw.run_cycle(workdir, jobs, n)
        traced = dw.run_cycle(workdir, jobs, n, traced=True, collector=collector)
    finally:
        dw.remove(workdir)
    failures: list[str] = []
    failed = sum(dw.check_cycle(c, golden, failures) for c in (plain, traced))

    metrics = {name: 0 for name in PER_LAYER_UNITS}
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for name in ("cold", "warm"):
        calls.update(traced[name]["layers"]["calls"])
        self_s.update(traced[name]["layers"]["self_s"])
        cache = traced[name]["stats"].get("cache", {})
        metrics["cache.exact_hits"] += cache.get("exact_hits", 0)
        metrics["cache.misses"] += cache.get("misses", 0)
    metrics.update(layers.layer_metrics(calls, self_s))
    cold_layers = traced["cold"]["layers"]
    lease_calls = cold_layers["calls"].get("service.queue_lease", 0)
    if lease_calls:
        metrics["service.lease_hit_ratio"] = cold_layers["lease_hits"] / lease_calls
    latency = traced["cold"]["stats"]["latency"]
    for phase in ("queue_wait", "run", "result_write"):
        metrics[f"service.{phase}_s_p50"] = latency[phase]["p50_s"] or 0.0
    jobs_ok = [j for p in ("cold", "warm") for j in traced[p]["results"] if j["ok"]]
    metrics["service.http_submit_s_p50"] = statistics.median(j["submit_s"] for j in jobs_ok)
    metrics["service.http_result_s_p50"] = statistics.median(j["result_s"] for j in jobs_ok)
    for job in traced["cold"]["results"]:
        if job["ok"]:
            for name, value in common.payload_counts(json.loads(job["payload"])).items():
                metrics[name] += value

    # Attribution: client request spans plus the daemon's own job spans,
    # rebased onto the client's timeline, against the passes' wall time.
    intervals = [
        (e["ts"], e["ts"] + e["dur"]) for e in collector.events if e.get("cat") == "client"
    ]
    for name in ("cold", "warm"):
        layer = traced[name]["layers"]
        offset = (layer["wall_t0"] - collector.wall_t0) * 1e6
        intervals += [
            (e["ts"] + offset, e["ts"] + offset + e["dur"])
            for e in layer["events"]
            if e.get("ph") == "X"
            and e["name"] in ("job:queue-wait", "job:run", "job:result-write")
        ]
    total = covered = 0.0
    for name in ("cold", "warm"):
        lo, hi = traced[name]["window_us"]
        total += hi - lo
        covered += layers.covered(intervals, lo, hi)
    metrics["trace.unattributed_frac"] = 1.0 - covered / total
    metrics["trace.overhead"] = sum(traced[p]["wall_s"] for p in ("cold", "warm")) / sum(
        plain[p]["wall_s"] for p in ("cold", "warm")
    )
    for name in ("cold", "warm"):
        layer = traced[name]["layers"]
        collector.merge_events(layer["events"], wall_t0=layer["wall_t0"],
                               extra_args={"daemon": name})
    trace_file = common.WORK / "daemon-slice.trace.json"
    collector.write(trace_file)
    info = {"golden_checked": golden is not None,
            "trace_file": str(trace_file.relative_to(common.ROOT))}
    return metrics, info, failures, 4 * len(jobs), failed


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--n", type=int, default=None,
                    help="override the base length (self-test; no golden check)")
    args = ap.parse_args(argv)
    if not (common.SRC / "repro").is_dir():
        print(f"error: no repository sources at {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))  # the traced client's TraceCollector

    if args.workload == "daemon-slice":
        n = args.n or common.DAEMON_N
        run = daemon_layers(args.seed, n) if args.trace else daemon_e2e(args.seed, n, args.seconds)
    else:
        n = args.n or common.QUICK_N
        run = (sim_layers(args.workload, args.seed, n) if args.trace
               else sim_e2e(args.workload, args.seed, n, args.seconds))
    metrics, info, failures, attempted, failed = run

    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for key, value in info.items():
        print(f"info {key} = {value}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
