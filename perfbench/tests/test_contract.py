#!/usr/bin/env python3
"""Every metric the benchmark can print is declared in BENCHMARK.json with
the same unit and kind, and every declared metric can be printed.

    python3 perfbench/tests/test_contract.py --binary PERFBENCH \
        --benchmark-json BENCHMARK.json
"""
import argparse
import json
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark-json", required=True)
    args = parser.parse_args()

    with open(args.benchmark_json) as f:
        bench = json.load(f)
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            declared[m["name"]] = (m["unit"], kind)

    listing = subprocess.run([args.binary, "--list-metrics"], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
    printed = {}
    for line in listing.splitlines():
        name, unit, kind = line.split()
        printed[name] = (unit, kind)

    errors = []
    for name, spec in printed.items():
        if name not in declared:
            errors.append(f"{name} is printed but not in BENCHMARK.json")
        elif declared[name] != spec:
            errors.append(f"{name}: printed as {spec}, declared {declared[name]}")
    for name in declared:
        if name not in printed:
            errors.append(f"{name} is declared but never printed")
    for error in errors:
        print(error, file=sys.stderr)
    print(f"{len(printed)} metrics checked, {len(errors)} problems")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
