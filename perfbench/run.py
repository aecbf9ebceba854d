#!/usr/bin/env python3
"""Serving-path benchmark entry point.

Builds the benchmark (CMake, Release, from this checkout's src/) into
.bench_build/perfbench, runs one workload and passes its output through.
The last line of standard output is the run's JSON summary.

  python3 perfbench/run.py --workload fleet-serve --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

Every run also writes a result file under .bench_build/results/ with the
commit, host, core count, seed, workload, every metric with its unit and
sample count, and the percentile behind every tail metric; compare.py
reads those files. Traced runs (--trace 1) add a Chrome trace next to it.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys

# Seeds for claims: tune and develop on DEFAULT_SEED; a claimed gain must
# also hold on HELD_OUT_SEED, which is not used while a change is written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

WORKLOADS = ("fleet-serve", "incident-diagnose", "restart-recover")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

HERE = os.path.dirname(os.path.abspath(__file__))


def log(message):
    print(message, file=sys.stderr, flush=True)


def benchmark():
    """BENCHMARK.json: the gated metrics and the run length."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(root, "perfbench"))


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    src = os.path.join(HERE, os.pardir, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        log("perfbench: program sources not found next to perfbench/ "
            "(expected src/CMakeLists.txt); nothing to build")
        sys.exit(2)
    out = build_dir()
    commands = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        commands.append(["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", out, "-j", "4"])
    for command in commands:
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            log("perfbench: build failed: " + " ".join(command))
            sys.exit(2)
    return out


def commit():
    if os.environ.get("BENCH_COMMIT"):
        return os.environ["BENCH_COMMIT"]
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(args):
    out = build()
    results = os.path.join(os.path.dirname(out), "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    result_file = os.path.join(results, stem + ".json")
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", os.path.join(os.path.dirname(out), "data"),
               "--result", result_file]
    if args.trace:
        command += ["--chrome-trace",
                    os.path.join(results, stem + ".trace.json")]
    if os.path.exists(result_file):
        os.remove(result_file)
    # Flush the build's and earlier runs' writes first, so their writeback
    # does not land in this run's set-up time.
    os.sync()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    summary = lines[-1] if lines else ""
    for line in lines[:-1]:
        print(line)
    if os.path.isfile(result_file):
        with open(result_file) as f:
            doc = json.load(f)
        doc["meta"] = {
            "commit": commit(),
            "host": platform.node(),
            "cores": os.cpu_count(),
            "platform": platform.platform(),
            "finished_utc": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "wal_fsync_policy": "kInterval",
        }
        with open(result_file, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print("result file: " + os.path.relpath(result_file))
    if not summary.startswith("{"):
        return proc.returncode or 4
    # The summary carries the metrics BENCHMARK.json gates on: its
    # end_to_end list for untraced runs, its per_layer list for traced ones.
    # The program prints more (the latency percentiles, which host noise
    # on a small shared machine moves by more than any bound allowed);
    # those stay in the printed table and the result file.
    wanted = benchmark()["per_layer" if args.trace else "end_to_end"]
    doc = json.loads(summary)
    missing = [m["name"] for m in wanted if m["name"] not in doc["metrics"]]
    if missing:
        log("perfbench: run did not report " + ", ".join(missing))
        return 5
    doc["metrics"] = {m["name"]: doc["metrics"][m["name"]] for m in wanted}
    print(json.dumps(doc, sort_keys=True), flush=True)
    return proc.returncode


def selftest():
    out = build()
    failed = subprocess.run([os.path.join(out, "perfbench_selftest")],
                            check=False).returncode != 0
    failed |= subprocess.run(
        [sys.executable, os.path.join(HERE, "test_compare.py")],
        check=False).returncode != 0
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        default=benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the harness self-tests and exit")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
