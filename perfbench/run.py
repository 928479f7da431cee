#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The engine libraries and the `perfbench` program are compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench at the repository
root); later runs only rebuild what changed. The program's output is passed
through, and its last line -- the result JSON -- is checked against
BENCHMARK.json before this script exits with the program's status.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quietly(cmd):
    """Run a build step with its output on stderr, so stdout stays clean."""
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        fail("command failed: " + " ".join(cmd))


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found: expected src/ beside perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run_quietly(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quietly(["cmake", "--build", bdir, "-j", jobs, "--target", *targets])
    return bdir


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench[kind]}


def check_result(line, trace):
    """The result line must hold exactly the declared metrics of its kind."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last output line is not the result JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result JSON has the wrong keys")
    want = declared_metrics("per_layer" if trace else "end_to_end")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail(f"printed metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {sorted(n for n in got if n in want and got[n] != want[n])}")


def run_workload(args):
    bdir = build(["perfbench"])
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(bdir, "work", str(os.getpid())),
           "--trace-out", os.path.join(
               bdir, "traces", f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.write(out)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"perfbench exited with status {proc.returncode}")
    check_result(lines[-1], args.trace == 1)
    sys.exit(proc.returncode)


def run_selftest():
    bdir = build(["perfbench", "perfbench_selftest"])
    sys.exit(subprocess.run(["ctest", "--test-dir", bdir,
                             "--output-on-failure"],
                            cwd=ROOT).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["build", "fault", "service"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        run_selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    run_workload(args)


if __name__ == "__main__":
    main()
