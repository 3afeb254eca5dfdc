#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <base_halo|ca_fused>
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
Every other argument is passed to the benchmark binary. The last line of stdout
is the result object; its metric names and units are checked against
BENCHMARK.json before it is printed. The exit code is non-zero when the
build fails, an operation fails its oracle check, or the result does not
match BENCHMARK.json.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    """Configure and build the benchmark; returns the binary path or None."""
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    configure = ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [configure,
             ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
    with open(logfile, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                with open(logfile) as g:
                    tail = g.read()[-3000:]
                log("build failed (" + " ".join(cmd[:2]) + "); log tail:\n" + tail)
                return None
    return os.path.join(out, "perfbench")


def source_id():
    """The git commit when available, else a hash of the sources built."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Problems with the result line against BENCHMARK.json (empty = fine)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return ["last line is not JSON: %s" % e]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are %s" % sorted(result)]
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    want = declared_metrics(trace)
    problems = []
    for name in sorted(set(want) - set(got)):
        problems.append("metric %s is missing" % name)
    for name in sorted(set(got) - set(want)):
        problems.append("metric %s is not declared in BENCHMARK.json" % name)
    for name in sorted(set(got) & set(want)):
        if got[name] != want[name]:
            problems.append("metric %s has unit %s, declared %s"
                            % (name, got[name], want[name]))
        value = result["metrics"][name].get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append("metric %s has no numeric value" % name)
    return problems


def main(argv):
    trace = False
    for i, arg in enumerate(argv):
        if arg == "--trace" and i + 1 < len(argv):
            trace = argv[i + 1] not in ("0", "")
    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    cmd = [binary] + argv + ["--source-id", source_id(),
                             "--out", os.path.join(out, "out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the benchmark binary exceeded %d s and was killed" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines or not lines[-1]:
        log("the benchmark binary exited with code %d" % proc.returncode)
        return proc.returncode or 1
    problems = check_result(lines[-1], trace)
    if problems:
        for p in problems:
            log(p)
        print(lines[-1], file=sys.stderr)
        return 4
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
