#!/usr/bin/env python3
"""End-to-end benchmark of the consistent time service stack.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench_e2e (perfbench/e2e.cpp plus the libraries under src/) into
.bench_build/perfbench, runs instances of one workload for --seconds of host
time, checks every instance, and prints each metric with its unit, its kind
(host time is noisy, simulated time is exact) and its sample count.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics; --trace 1 runs the
traced instance and the differential reruns and reports the per-layer
metrics.  The exit code is 0 only when every check passed.  README.md in
this directory describes the workloads and the metric -> layer map.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_e2e"

# Per workload: the seed used when none is given, a held-out seed for
# confirming a claim on inputs it was not tuned on, and the differential
# reruns of the traced run.  The first three are the gated workloads in
# BENCHMARK.json; the last three fail at commit 755c646 on some or all seeds
# and are kept runnable so that stays visible (README.md).
WORKLOADS = {
    "fig5_time_1x3": {"seed": 1, "heldout": 1009, "reruns": ["oracle_off", "local_clock"]},
    "kv_putget_sharded_8x3": {"seed": 1, "heldout": 1013, "reruns": ["oracle_off", "one_worker"]},
    "kv_putget_churn_semiactive": {"seed": 1, "heldout": 1019, "reruns": ["oracle_off"]},
    "kv_sharded_8x3": {"seed": 1, "heldout": 1021, "reruns": ["oracle_off", "one_worker"]},
    "kv_churn_semiactive": {"seed": 1, "heldout": 1031, "reruns": ["oracle_off"]},
    "kv_churn_passive": {"seed": 1, "heldout": 1033, "reruns": ["oracle_off"]},
}
# Printed and saved, but left out of the result line (README.md): the
# failure share and the export time are 0 on a healthy run of most workloads
# (the line's attempted/failed fields carry the failures), and the host
# throughput figures drift with the load other tenants put on the host by
# more than any bound they could be gated with.
REPORT_ONLY = {"ops_failed_frac", "export_s", "ops_per_host_s", "ops_per_host_s_wholerun",
               "cpu_s_per_kop"}
RERUN_ARGS = {
    "oracle_off": ["--oracle", "0"],
    "one_worker": ["--workers", "1"],
    "local_clock": ["--clock", "local"],
}
INSTANCE_TIMEOUT_S = 120
# Host interference only slows a slice, so a high percentile of per-slice
# rates tracks the undisturbed speed; p95 repeated better than p90 across
# runs on a shared 4-vCPU host (README.md).
RATE_Q = 0.95


def fail_setup(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(2)


# --- Build --------------------------------------------------------------------------


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_setup(f"library sources not found under {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench_e2e"]
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(compile_, check=True, stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        fail_setup(f"build failed: {e}")


# --- Host fingerprint ---------------------------------------------------------------


def fingerprint(build_info):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        # The ceiling keeps git from reporting an enclosing repository's rev.
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        git = rev.stdout.strip() if rev.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        git = "none"
    # The checkout may not be a git repository; the source digest identifies
    # the code either way.
    digest = hashlib.sha256()
    for d in ("src", "perfbench"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                digest.update(str(p.relative_to(ROOT)).encode())
                digest.update(p.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("type", "unknown"),
        "git": git,
        "src_sha256": digest.hexdigest()[:16],
    }


# --- Instances ----------------------------------------------------------------------


def run_instance(workload, seed, args):
    """Run one instance; returns its result dict, or a failure record that
    counts every planned op as failed (an oracle abort kills the process)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=INSTANCE_TIMEOUT_S,
                              cwd=ROOT)
        out, err, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        err, code = f"timed out after {INSTANCE_TIMEOUT_S} s", None
    lines = [l for l in out.splitlines() if l.startswith("{")]
    planned = 0
    if lines:
        planned = json.loads(lines[0]).get("plan", {}).get("ops", 0)
    if code is not None and code >= 0 and len(lines) >= 2:
        result = json.loads(lines[-1])
        result["exit_code"] = code
        return result
    tail = " | ".join(l for l in err.strip().splitlines()[-3:])
    how = f"killed by signal {-code}" if code is not None and code < 0 else f"exit {code}"
    return {"aborted": True, "ops_planned": planned, "ops_done": 0, "ops_failed": planned,
            "failures": [f"instance {how}: {tail}"]}


def slice_rates(instances):
    """Per-slice (ops/s, cpu s per kop, wall ns per event, cpu/wall) over the
    full slices of every instance (the slice in which the clients finish is
    partly idle and left out)."""
    rates, cpu_kop, ns_ev, cpu_wall = [], [], [], []
    for r in instances:
        for ops, wall, cpu, events, full in r["host"]["slices"]:
            if not full or ops == 0 or wall <= 0:
                continue
            rates.append(ops / wall)
            cpu_kop.append(cpu / (ops / 1000.0))
            if events:
                ns_ev.append(wall * 1e9 / events)
            cpu_wall.append(cpu / wall)
    return rates, cpu_kop, ns_ev, cpu_wall


def pct(values, q):
    """Linear-interpolated percentile, q in [0, 1]."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def deterministic_view(r):
    """Everything that must repeat exactly for one seed: sim-time results and
    layer counts.  Oracle checks are left out where the oracle is off."""
    return {"ops_done": r["ops_done"], "ops_failed": r["ops_failed"], "sim": r["sim"],
            "counts": {k: v for k, v in r["counts"].items() if k != "oracle_checks"}}


def check_same(label, results, failures):
    views = [json.dumps(deterministic_view(r), sort_keys=True) for r in results]
    if len(set(views)) > 1:
        a, b = json.loads(views[0]), next(json.loads(v) for v in views if v != views[0])
        diff = sorted(k for sect in ("sim", "counts") for k in a[sect]
                      if a[sect][k] != b[sect].get(k))
        failures.append(f"determinism: {label} differ in {diff or ['op counts']}")


# --- Metrics ------------------------------------------------------------------------


def metric(value, unit, kind, samples, note=""):
    return {"value": value, "unit": unit, "kind": kind, "samples": samples, "note": note}


def end_to_end(instances):
    r0 = instances[0]
    rates, cpu_kop, _, _ = slice_rates(instances)
    setups = [c + s for r in instances
              for c, s in zip(r["host"]["construct_s"], r["host"]["start_s"])]
    sim = r0["sim"]
    n = sim["lat_n"]
    planned = sum(r["ops_planned"] for r in instances)
    failed = sum(r["ops_failed"] for r in instances)
    return {
        "ops_per_host_s": metric(pct(rates, RATE_Q), "1/s", "host", len(rates),
                                 "p95 of per-slice rates"),
        "ops_per_host_s_wholerun": metric(
            sum(r["ops_done"] for r in instances) / sum(r["host"]["measure_s"] for r in instances),
            "1/s", "host", len(instances), "all ops / all measured time, for comparison"),
        "cpu_s_per_kop": metric(pct(cpu_kop, 1 - RATE_Q), "s", "host", len(cpu_kop),
                                "p5 of per-slice process CPU per 1000 ops"),
        "sim_lat_p50_us": metric(sim["lat_p50_us"], "sim_us", "sim", n),
        "sim_lat_p99_us": metric(sim["lat_p99_us"], "sim_us", "sim", n),
        "sim_lat_p999_us": metric(sim["lat_p999_us"], "sim_us", "sim", n),
        "outage_sim_ms": metric(sim["outage_ms"], "sim_ms", "sim", n,
                                "longest gap between consecutive replies at a client"),
        "ops_failed_frac": metric(failed / planned if planned else 1.0, "frac", "check",
                                  planned),
        "setup_s": metric(statistics.median(setups), "s", "host", len(setups),
                          "median of construction + start()"),
        "export_s": metric(statistics.median(r["host"]["export_s"] for r in instances), "s",
                           "host", len(instances), "metrics.json + trace.jsonl write"),
        "peak_rss_mb": metric(statistics.median(r["host"]["peak_rss_mb"] for r in instances),
                              "MB", "host", len(instances), "median of per-instance peaks"),
    }


def per_layer(by_variant):
    traced = by_variant["traced"][0]
    plain = by_variant["plain"]
    c, sim = traced["counts"], traced["sim"]
    ops = max(1, traced["ops_done"])
    rate = {k: pct(slice_rates(v)[0], RATE_Q) for k, v in by_variant.items() if v}
    _, _, ns_ev, cpu_wall = slice_rates(plain)
    setups = [r["host"] for r in plain]

    def ratio(a, b):
        return a / b if b else 0.0

    def share(on, off):
        # (wall_on - wall_off) / wall_on over the same ops = 1 - rate_on / rate_off
        return 1.0 - ratio(rate[on], rate[off]) if rate.get(off) else 0.0

    m = {}

    def put(name, value, unit, kind="count"):
        # Host figures are sampled per slice; counts and sim times per op.
        m[name] = metric(value, unit, kind, len(ns_ev) if kind == "host" else ops)

    put("sim.events_per_op", c["events"] / ops, "events/op")
    put("sim.host_ns_per_event", statistics.median(ns_ev) if ns_ev else 0.0, "ns", "host")
    put("sim.peak_pending", sim["peak_pending"], "events")
    put("par.speedup_4v1", ratio(rate["plain"], rate["one_worker"])
        if "one_worker" in rate else 1.0, "x", "host")
    put("par.events_per_epoch", ratio(c["events"], c["epochs"]), "events")
    put("par.posts_per_op", c["posts"] / ops, "1/op")
    put("par.cpu_per_wall", statistics.median(cpu_wall) if cpu_wall else 0.0, "s/s", "host")
    put("net.packets_per_op", c["net_packets"] / ops, "1/op")
    put("net.bytes_per_op", c["net_bytes"] / ops, "B/op")
    put("net.drop_frac", ratio(c["net_dropped"], c["net_packets"]), "frac")
    put("link.frames_per_op", c["link_frames"] / ops, "1/op")
    put("link.bytes_per_op", c["link_bytes"] / ops, "B/op")
    put("totem.rotations_per_op", c["rotations"] / ops, "1/op")
    put("totem.msgs_per_frame", ratio(c["totem_msgs"], c["totem_frames"]), "msgs")
    put("totem.retransmits_per_op", c["retransmits"] / ops, "1/op")
    put("totem.retransmits_per_drop", ratio(c["retransmits"], c["net_dropped"]), "ratio")
    put("totem.ring_changes", c["ring_changes"], "count")
    put("gcs.deliveries_per_op", c["gcs_delivered"] / ops, "1/op")
    put("gcs.dup_drop_frac", ratio(c["gcs_dups"], c["gcs_delivered"] + c["gcs_dups"]), "frac")
    put("gcs.cancel_frac", ratio(c["gcs_cancelled"], c["gcs_attempted"]), "frac")
    put("cts.rounds_per_op", c["cts_rounds"] / ops, "1/op")
    put("cts.ccs_msgs_per_round", ratio(c["ccs_on_wire"], c["cts_rounds"]), "msgs")
    local = by_variant.get("local_clock")
    put("cts.added_sim_us", plain[0]["sim"]["lat_p50_us"] - local[0]["sim"]["lat_p50_us"]
        if local else 0, "sim_us", "sim")
    put("cts.special_rounds", c["cts_special"], "count")
    put("cts.proposals_resent", c["cts_resent"], "count")
    put("repl.recovery_sim_ms_p50", sim["recovery_p50_ms"], "sim_ms", "sim")
    put("repl.recovery_sim_ms_max", sim["recovery_max_ms"], "sim_ms", "sim")
    put("repl.promotions", c["promotions"], "count")
    put("repl.state_transfers", c["state_transfers"], "count")
    put("repl.replayed", c["replayed"], "count")
    put("repl.checkpoints_per_op", c["checkpoints"] / ops, "1/op")
    put("repl.checkpoints_rejected", c["checkpoints_rejected"], "count")
    put("gw.forward_frac", c["forwards"] / ops, "frac")
    put("gw.local_lat_p50_sim_us", sim["local_p50_us"] if sim["remote_n"] else 0, "sim_us", "sim")
    put("gw.remote_lat_p50_sim_us", sim["remote_p50_us"], "sim_us", "sim")
    put("storage.persists_per_op", c["persists"] / ops, "1/op")
    put("obs.trace_events_per_op", c["trace_recorded"] / ops, "1/op")
    put("obs.trace_dropped", sim["trace_dropped"], "count")
    put("obs.export_mb", sim["export_bytes"] / 1e6, "MB")
    put("oracle.checks_per_op", c["oracle_checks"] / ops, "1/op")
    put("oracle.share", share("plain", "oracle_off"), "frac", "host")
    put("setup.construct_s", statistics.median(x for h in setups for x in h["construct_s"]),
        "s", "host")
    put("setup.start_s", statistics.median(x for h in setups for x in h["start_s"]), "s", "host")
    put("bench.trace_overhead_frac", share("traced", "plain"), "frac", "host")
    return m


# --- Main ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    spec = WORKLOADS[a.workload]
    seed = spec["seed"] if a.seed is None else a.seed

    build()
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = out_dir / f"{a.workload}-seed{seed}.spans.jsonl"
    common = ["--export-dir", str(out_dir)]

    failures = []
    instances = []
    by_variant = {}
    t0 = time.monotonic()
    if a.trace == 0:
        # At least two instances, so every run also checks that one seed
        # repeats exactly.
        while len(instances) < 2 or time.monotonic() - t0 < a.seconds:
            r = run_instance(a.workload, seed, common)
            instances.append(r)
            if r.get("aborted") or r["failures"]:
                break
    else:
        variants = {"traced": ["--spans", str(spans)], "plain": [],
                    **{v: RERUN_ARGS[v] for v in spec["reruns"]}}
        while not by_variant or time.monotonic() - t0 < a.seconds:
            for v, args in variants.items():
                r = run_instance(a.workload, seed, common + args)
                r["variant"] = v
                instances.append(r)
                by_variant.setdefault(v, []).append(r)
            if any(r.get("aborted") or r["failures"] for r in instances):
                break
    elapsed = time.monotonic() - t0

    for r in instances:
        failures += [f"[{r.get('variant', 'run')}] {f}" for f in r["failures"]]
        if not r.get("aborted") and r["exit_code"] != 0 and not r["failures"]:
            failures.append(f"[{r.get('variant', 'run')}] exit code {r['exit_code']}")
    ok_instances = [r for r in instances if not r.get("aborted")]
    if not failures:
        # Same seed, same code: sim-time results and layer counts repeat
        # exactly, across repeats, with tracing on or off, and at 1 and 4
        # island workers.
        if a.trace == 0:
            check_same("repeats", instances, failures)
        else:
            check_same("traced/plain/worker reruns",
                       [r for r in instances if r["variant"] in ("traced", "plain", "one_worker")],
                       failures)
            for v, rs in by_variant.items():
                check_same(f"{v} repeats", rs, failures)

    attempted = sum(r["ops_planned"] for r in instances)
    failed = sum(r["ops_failed"] for r in instances)
    correct = not failures and failed == 0 and attempted > 0
    if correct:
        metrics = end_to_end(instances) if a.trace == 0 else per_layer(by_variant)
    else:
        # Numbers from a run that failed a check are not reported; the
        # failure share is.
        metrics = {"ops_failed_frac": metric(failed / attempted if attempted else 1.0, "frac",
                                             "check", attempted)}
    fp = fingerprint(ok_instances[0]["build"] if ok_instances else {})

    print(f"# perfbench {a.workload} seed={seed} (held-out seed {spec['heldout']}) "
          f"trace={a.trace} instances={len(instances)} elapsed_s={elapsed:.1f}")
    print("# host " + " ".join(f"{k}={json.dumps(v)}" for k, v in fp.items()))
    for name, mv in metrics.items():
        note = f", {mv['note']}" if mv["note"] else ""
        print(f"{name:28s} {mv['value']:>16.6g} {mv['unit']:<10s} "
              f"[{mv['kind']}, n={mv['samples']}{note}]")
    if a.trace == 1 and correct:
        print(f"# spans: {spans}")
    for f in failures:
        print(f"FAILED: {f}")
    print(f"# checks: {'ok' if correct else 'FAILED'}; attempted={attempted} failed={failed}")

    result = {"workload": a.workload, "seed": seed, "trace": a.trace, "host": fp,
              "correct": correct, "attempted": attempted, "failed": failed,
              "failures": failures, "metrics": metrics}
    (out_dir / f"{a.workload}-seed{seed}-trace{a.trace}.result.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in metrics.items() if k not in REPORT_ONLY}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
