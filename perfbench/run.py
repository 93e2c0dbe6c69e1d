#!/usr/bin/env python3
"""Build and run the repository benchmark.

One workload (the form the comparison harness uses):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every workload, printing each metric with its unit (exits non-zero when any
output diverges):

    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>] [--trace <0|1>]

Run from the root of a checkout. The measuring program is built from that
checkout's sources into $CARGO_TARGET_DIR (default .bench_build). With
--trace 0 the last stdout line carries the end-to-end metrics named in
BENCHMARK.json, with --trace 1 the per-layer ones; the spans of a traced
run are written next to the build. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Separate processes that only set up, so set-up time includes what a
# process pays once (capability probes); the reported value is the median.
SETUP_SAMPLES = 8

# Each workload's headline metrics under their own names (the end-to-end
# metrics generalise them across workloads; see README.md).
NAMED = {
    "wire_open": ["wire_p50_ms", "wire_p99_ms", "wire_p99_heavy_ms", "wire_max_rps"],
    "frame_tiled": ["frames_per_s"],
    "sim_suite": ["sim_minstr_per_s", "sim_cycles"],
    "plan_cold": ["plan_cold_s", "planned_cycles"],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build the measuring program; returns its path."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "perfbench")


def revision():
    """Git revision when the checkout is a repository, plus a hash of the
    sources, so results from different code are told apart either way."""
    rev = "nogit"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench/src", "CMakeLists.txt", "perfbench/CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return f"{rev}+src.{h.hexdigest()[:12]}"


def fig9_cycles():
    """Baseline + manual/A cycle total of the checked-in Figure 9 baseline."""
    path = os.path.join(ROOT, "bench", "baselines", "BENCH_fig9.json")
    with open(path) as fh:
        records = json.load(fh)["records"]
    return sum(r["mmx_cycles"] + r["spu_cycles"] for r in records)


def run_program(exe, args, timeout):
    proc = subprocess.run([exe] + args, capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{os.path.basename(exe)} printed no result "
                           f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def run_workload(exe, spec, workload, seed, seconds, trace, rev):
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--revision", rev]
    trace_out = os.path.join(build_dir(), f"spans-{workload}-{seed}.jsonl")
    res = run_program(exe, common + ["--trace", "1" if trace else "0",
                                     "--trace-out", trace_out], timeout=150)
    if workload == "sim_suite" and res["correct"]:
        part = res["info"]["sim_cycles_fig9_part"]["value"]
        if part != fig9_cycles():
            log(f"DIVERGENCE: baseline + manual/A cycles {part:.0f} != "
                f"Figure 9 baseline {fig9_cycles()}")
            res["correct"] = False
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None:
            missing.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if not trace:
        setups = [res["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_SAMPLES):
            s = run_program(exe, common + ["--trace", "0", "--setup-only"], timeout=60)
            setups.append(s["metrics"]["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        res["info"]["setup_samples"] = {"value": len(setups), "unit": "count"}
        missing = [n for n in missing if n != "setup_s"]
    if missing and not trace:
        raise RuntimeError(f"{workload}: end-to-end metrics missing: {missing}")
    if missing:
        log(f"{workload}: not exercised by this workload, reported as 0: "
            + ", ".join(missing))
    return res, metrics


def print_result(workload, res, metrics):
    print(f"# {workload}  host {json.dumps(res['host'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{workload}  {name:<34} {m['value']:>16.6g} {m['unit']}")
    for name, m in res["info"].items():
        print(f"{workload}  (info) {name:<27} {m['value']:>16.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if args.workload is not None and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; one of {names}")
    seconds = args.seconds or spec["run_seconds"]

    exe = build()
    rev = revision()
    if args.workload is not None:
        res, metrics = run_workload(exe, spec, args.workload, args.seed, seconds,
                                    args.trace == 1, rev)
        print_result(args.workload, res, metrics)
        print(json.dumps({"correct": bool(res["correct"]),
                          "attempted": int(res["attempted"]),
                          "failed": int(res["failed"]),
                          "metrics": metrics}))
        return 0 if res["correct"] else 1

    all_ok = True
    for w in names:
        res, metrics = run_workload(exe, spec, w, args.seed, seconds,
                                    args.trace == 1, rev)
        print_result(w, res, metrics)
        info = res["info"]
        for n in ["setup_s", "peak_rss_mb"] if not args.trace else []:
            if n in metrics:
                print(f"NAMED {w}  {n:<20} {metrics[n]['value']:.6g} {metrics[n]['unit']}")
        for n in ["fail_ratio"] + (NAMED[w] if not args.trace else []):
            if n not in info:  # an invalid step reports no latency
                print(f"NAMED {w}  {n:<20} invalid")
                continue
            print(f"NAMED {w}  {n:<20} {info[n]['value']:.6g} {info[n]['unit']}")
        all_ok = all_ok and bool(res["correct"])
    print("ALL CORRECT" if all_ok else "DIVERGENT OUTPUT")
    return 0 if all_ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
