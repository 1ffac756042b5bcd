#!/usr/bin/env python3
"""End-to-end benchmark of the EasyTime serving stack.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload forecast_hot --seed 1 --seconds 10 --trace 0

The first call builds the program and the driver under .bench_build/ (CMake,
Ninja when available); later calls rebuild only what changed. The driver's
"# "-prefixed diagnostic lines are echoed, and the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. Any build
or driver failure exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("forecast_hot", "forecast_cold", "ingest_mixed", "routed_hot")
HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER_TIMEOUT_S = 170
# Environment the program reads that would change what is measured: a
# bearer token turns on the auth handshake, and the kernel tier changes the
# numeric kernels. Both are cleared, so every run measures the defaults.
SCRUBBED_ENV = ("EASYTIME_AUTH_TOKEN", "EASYTIME_FAST_MATH")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no EasyTime source tree under {ROOT}; run from a checkout root")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", *generator, "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
            "easytime_shard_worker", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "perfbench_driver"


def source_sha():
    """Git commit when the checkout is a repository, else a content hash of
    the sources the benchmark builds."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "content:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """{name: unit} BENCHMARK.json promises for this mode, when it is there."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_driver(driver, args):
    work = ROOT / ".bench_build" / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--source-sha", source_sha()]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    # Its own process group, so a timeout also reaps the shard workers the
    # routed workload spawns.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers, if any
        except ProcessLookupError:
            pass
    shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    driver = build()
    code, out = run_driver(driver, args)
    lines = out.rstrip("\n").split("\n") if out.strip() else []
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"driver exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(out)
        fail("driver's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        fail("driver result has the wrong keys")
    wanted = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if wanted is not None and got != wanted:
        sys.stderr.write(out)
        fail("driver metrics differ from BENCHMARK.json: "
             f"{sorted(set(got.items()) ^ set(wanted.items()))}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
