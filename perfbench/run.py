#!/usr/bin/env python3
"""afcsim benchmark: builds perfbench/afcbench from source, runs one
workload, checks every run's digest, and prints the metrics.

    python3 perfbench/run.py --workload cl32_water --seed 7 --seconds 30
    python3 perfbench/run.py --workload fig2_grid --trace 1
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --write-reference 0-99
    python3 perfbench/run.py --compare A.json B.json

Run it from the repository root. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. The full result (parameters, host descriptor, raw
samples) is written to .bench_build/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median, median_low

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_build"
BUILD = OUT / "cmake"
BINARY = BUILD / "afcbench"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ["fig2_grid", "cl32_ocean_burst", "cl32_water"]

# Runs only when named, and BENCHMARK.json does not gate it: its shard
# workers wait at a barrier every phase, so on a shared host its run
# medians spread past any bound (see README, "Steadiness and bounds").
UNGATED = ["cl64_ocean_sharded"]

END_TO_END = {
    "wall_s": "s",
    "sim_cycles_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics and their units, in README order.
PER_LAYER = {
    "network.step_s": "s",
    "network.step_us_p50": "us",
    "network.step_us_p99": "us",
    "network.step_samples": "count",
    "network.ns_per_flit_hop": "ns",
    "network.ns_per_router_cycle": "ns",
    "router.flit_hops": "count",
    "router.deflections": "count",
    "router.credit_stalls": "count",
    "router.bp_fraction": "fraction",
    "router.mode_switches": "count",
    "sim.core_tick_s": "s",
    "sim.l2_tick_s": "s",
    "sim.completion_scan_s": "s",
    "sim.serial_share": "fraction",
    "sim.transactions": "count",
    "sim.mshr_stall_cycles": "count",
    "sim.tx_latency_cycles": "cycles",
    "exp.run_s_sum": "s",
    "exp.run_s_max": "s",
    "exp.pool_efficiency": "fraction",
    "exp.sink_s": "s",
    "energy.pj_per_flit": "pJ",
    "bench.trace_overhead": "x",
}

# Parameters that follow the host (min(4, nproc)); digests do not
# depend on them, so the reference check ignores them.
HOST_PARAMS = ("threads", "shards", "seed")

# A run must end within 180 s, and the first one, which builds, within
# 900 s.
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


class Refused(Exception):
    """The benchmark cannot produce a trustworthy result."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_threads():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise Refused(f"simulator sources not found under {ROOT / 'src'}")
    for var in ("CXXFLAGS", "LDFLAGS"):
        if "-fsanitize" in os.environ.get(var, ""):
            raise Refused(f"{var} asks for a sanitizer build; timings of "
                          "an instrumented build measure another program")
    steps = [
        ["cmake", "-S", str(BENCH), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", "afcbench",
         "-j", str(load_threads())],
    ]
    for cmd in steps:
        if call(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)[0] != 0:
            raise Refused("build failed: " + " ".join(cmd))


def call(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole
    group (make and compilers included) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stderr=sys.stderr, text=True,
                            start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def harness(*args):
    code, out = call([str(BINARY), *map(str, args)], HARNESS_TIMEOUT_S,
                     stdout=subprocess.PIPE)
    if code != 0:
        raise Refused(f"afcbench exited with {code}")
    return json.loads(out)


def source_digest():
    """Identifies the measured code when the checkout has no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_descriptor(doc):
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "hw_threads": doc["hw_threads"],
        "cpu_model": cpu,
        "compiler": doc["compiler"],
        "build_type": doc["build_type"],
        "commit": commit,
        "src_digest": source_digest(),
    }


def sim_params(params):
    """The parameters the digests depend on."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items()
                    if k not in HOST_PARAMS}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value
    return strip(params)


def load_reference():
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


def check_runs(doc, workload, seed):
    """Count runs that errored or missed their digest.

    A seed in perfbench/reference.json is checked against the committed
    digests; any other seed only for agreement between the passes of
    this run (every pass simulates the same runs).
    """
    entry = load_reference().get(workload)
    if entry and entry["params"] != sim_params(doc["params"]):
        raise Refused(
            f"{workload}: parameters differ from perfbench/reference.json; "
            "regenerate it with --write-reference if the change is meant")
    pinned = entry["seeds"].get(str(seed)) if entry else None
    passes = doc["passes"] + doc["traced_passes"]
    if pinned:
        expected = [tuple(d.split(":")) for d in pinned]
    else:
        def first(values):
            return next((v for v in values if v), "")
        expected = [(first(p["runs"][i]["result"] for p in passes),
                     first(p["runs"][i]["end"] for p in passes))
                    for i in range(len(passes[0]["runs"]))]

    attempted = failed = 0
    for p in passes:
        for i, run in enumerate(p["runs"]):
            attempted += 1
            want = expected[i] if len(p["runs"]) == len(expected) else None
            if (run["error"] or want is None or run["result"] != want[0]
                    or (run["end"] and run["end"] != want[1])):
                failed += 1
                log(f"run {i} of {workload} seed {seed} failed: "
                    f"{run['error'] or 'digest mismatch'}")
    return attempted, failed, pinned is not None


def end_to_end_metrics(doc):
    passes = doc["passes"]
    return {
        "wall_s": median([p["wall_s"] for p in passes]),
        "sim_cycles_per_s": median(
            [p["sim_cycles"] / p["wall_s"] for p in passes]),
        "cpu_s": median([p["cpu_s"] for p in passes]),
        "setup_s": median([s for p in passes for s in p["setup_s"]]),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def per_layer_metrics(doc):
    traced, untraced = doc["traced_passes"], doc["passes"]
    out = {}
    for name in PER_LAYER:
        if name == "bench.trace_overhead":
            out[name] = (median([p["wall_s"] for p in traced]) /
                         median([p["wall_s"] for p in untraced]))
            continue
        # median_low keeps exact counts integral.
        source = untraced if name.startswith("exp.") else traced
        out[name] = median_low([p["extra"][name] for p in source])
    return out


def run_workload(workload, seed, seconds, trace):
    trace_path = OUT / "traces" / f"{workload}-seed{seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    args = ["--workload", workload, "--seed", seed, "--seconds", seconds,
            "--trace", trace]
    if trace:
        args += ["--trace-out", trace_path]
    doc = harness(*args)
    attempted, failed, pinned = check_runs(doc, workload, seed)

    if trace:
        metrics = per_layer_metrics(doc)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(doc)
        units = END_TO_END
    info = {"failed_fraction": (failed / attempted, "fraction")}
    fig2 = [p["extra"]["fig2_paper_err"] for p in doc["passes"]
            if "fig2_paper_err" in p["extra"]]
    if fig2:
        info["fig2_paper_err"] = (median(fig2), "ratio")

    result = {
        "params": doc["params"],
        "host": host_descriptor(doc),
        "seconds": seconds,
        "trace": trace,
        "reference": "committed" if pinned else "self-consistency",
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
        "attempted": attempted,
        "failed": failed,
        "samples": {"passes": doc["passes"],
                    "traced_passes": doc["traced_passes"]},
    }
    path = OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"passes {len(doc['passes'])}+{len(doc['traced_passes'])}  "
          f"digests: {result['reference']}")
    print("params " + json.dumps(doc["params"], separators=(",", ":")))
    print("host " + json.dumps(result["host"], separators=(",", ":")))
    for name, m in {**result["metrics"], **result["info"]}.items():
        v = m["value"]
        v = f"{v:>16}" if isinstance(v, int) else f"{v:>16.6g}"
        print(f"  {name:<28} {v} {m['unit']}")
    if trace:
        print(f"  chrome trace: {trace_path.relative_to(ROOT)}")
    print(f"  full result: {path.relative_to(ROOT)}")
    return result


def write_reference(seeds, workloads):
    ref = load_reference()
    for workload in workloads:
        entry = None
        for seed in seeds:
            doc = harness("--workload", workload, "--seed", seed,
                          "--reference")
            runs = doc["passes"][0]["runs"]
            bad = [r["error"] for r in runs if r["error"]]
            if bad:
                raise Refused(f"{workload} seed {seed}: {bad[0]}")
            if entry is None:
                entry = {"params": sim_params(doc["params"]), "seeds": {}}
            entry["seeds"][str(seed)] = [f"{r['result']}:{r['end']}"
                                         for r in runs]
            log(f"reference {workload} seed {seed}: "
                f"final cycles {[r['final_cycle'] for r in runs][:4]}")
        ref[workload] = entry
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for key in ("params", "seconds", "trace"):
        if a[key] != b[key]:
            raise Refused(f"refusing to compare: '{key}' differs")
    for key in ("nproc", "cpu_model", "compiler", "build_type"):
        if a["host"][key] != b["host"][key]:
            raise Refused(f"refusing to compare: host '{key}' differs "
                          f"({a['host'][key]} vs {b['host'][key]})")
    for name, ma in a["metrics"].items():
        vb = b["metrics"][name]["value"]
        ratio = vb / ma["value"] if ma["value"] else float("nan")
        print(f"  {name:<28} {ma['value']:>14.6g} {vb:>14.6g} "
              f"{ratio:>8.3f}x {ma['unit']}")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + UNGATED + ["all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", metavar="SEEDS",
                    help="regenerate reference digests, e.g. 0-99")
    ap.add_argument("--compare", nargs=2, metavar="RESULT",
                    help="compare two full results from .bench_build/"
                         "results; refuses if their parameters differ")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        if args.compare:
            compare(*args.compare)
            return 0
        build()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        if args.write_reference:
            if args.workload == "all":
                workloads = WORKLOADS + UNGATED
            write_reference(parse_seeds(args.write_reference), workloads)
            return 0
        results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                   for w in workloads}
    except (Refused, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items()
                   for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
