#!/usr/bin/env python3
"""Run one workload of the benchmark.

    python3 perfbench/run.py --workload fig11-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first call compiles the program and the
benchmark (see build.py). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones. Everything the run writes stays under .bench_build/.
"""
import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import build  # noqa: E402

ROOT = build.ROOT
TIMEOUT_S = 170
JVM_FLAGS = [
    "-Xmx3g",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def java_cmd(cp, main, args):
    tmp = os.path.join(build.WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return (["java"] + JVM_FLAGS + [
        f"-Djava.io.tmpdir={tmp}",
        f"-Dperfbench.work={build.WORK}",
        f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
        "-cp", os.pathsep.join(cp), main] + args)


def run_java(cmd):
    """Run the JVM, relaying its standard output; return (code, last line).
    A JVM still running after TIMEOUT_S seconds is killed."""
    last = ""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    return proc.returncode, last


def check_result(last, trace):
    """The result line must name exactly the metrics BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    res = json.loads(last)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing={missing} "
                         f"extra={extra} unit_mismatch={units}")
    if set(res) != {"correct", "attempted", "failed", "metrics"} or res["attempted"] < 1:
        raise ValueError(f"malformed result line: {last}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")
    try:
        cp = build.ensure_built()
    except build.BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if a.self_test:
        code, _ = run_java(java_cmd(cp, "perfbench.SelfTest", []))
        return code
    code, last = run_java(java_cmd(cp, "perfbench.Main", [
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace)]))
    if code != 0:
        print(f"perfbench: benchmark JVM exited with {code}", file=sys.stderr)
        return code
    try:
        check_result(last, a.trace == 1)
    except (ValueError, KeyError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
