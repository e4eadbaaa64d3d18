#!/usr/bin/env python3
"""Build hdsm-bench from source and run one workload.

    python3 hdsm-bench/run.py --workload kv_object --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first call configures and builds the
library and the driver (Release) under $CARGO_TARGET_DIR/hdsm-bench
(default .bench_build/hdsm-bench); later calls only re-check the build.
Build output goes to stderr.  stdout carries the driver's context and
"name value unit" lines and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  A
per-layer metric whose layer does no work on the workload is reported as 0.
The exit code is the driver's: 0 when every result was verified correct.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv_object", "kv_page", "paper_sl")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"hdsm-bench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build; returns the driver binary's path."""
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "hdsm-bench"
    )
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return build_dir, os.path.join(build_dir, "hdsm_bench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "hdsm-bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir, binary = build()
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--commit", source_id(),
    ]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, args.workload + ".spans")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(proc.stdout, end="")
        fail(f"driver exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    measured = result["metrics"]
    units = {m["name"]: m["unit"] for m in wanted}
    unknown = sorted(set(measured) - set(units))
    if unknown:
        fail(f"metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in units.items():
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name}: unit {measured[name]['unit']} != {unit}")
            metrics[name] = measured[name]
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} was not measured")
    result["metrics"] = metrics
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
