#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the program's sources (src/main/scala at the repository root) and
the benchmark's own sources (perfbench/src, perfbench/test) with the Scala
compiler that ships in the Spark distribution, into
.bench_build/perfbench/classes. A stamp over every source file and the
classpath makes a rebuild happen only when something changed.

    python3 perfbench/build.py          # build (no-op when up to date)
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(WORK, "classes")
DUCKDB_JAR = "duckdb_jdbc-1.0.0.jar"


class BuildError(Exception):
    pass


def spark_home():
    """$SPARK_HOME, else the first Spark distribution (a bin/spark-submit
    next to a jars/ directory) on PATH."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = os.path.join(d, "spark-submit")
        if os.path.exists(submit):
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
            if glob.glob(os.path.join(home, "jars", "*.jar")):
                return home
    raise BuildError("Spark distribution not found: set SPARK_HOME")


def spark_jars():
    home = spark_home()
    jars = sorted(glob.glob(os.path.join(home, "jars", "*.jar")))
    if not jars:
        raise BuildError(f"no Spark jars under {home}/jars (set SPARK_HOME)")
    return jars


def duckdb_jar():
    """The DuckDB JDBC driver the program's oracle needs, from the local
    dependency caches (the build resolves nothing over the network)."""
    if os.environ.get("DUCKDB_JAR"):
        return os.environ["DUCKDB_JAR"]
    home = os.path.expanduser("~")
    for base in (os.path.join(home, ".cache", "coursier"), os.path.join(home, ".ivy2"),
                 os.path.join(home, ".m2")):
        hits = glob.glob(os.path.join(base, "**", DUCKDB_JAR), recursive=True)
        if hits:
            return sorted(hits)[0]
    raise BuildError(f"{DUCKDB_JAR} not found in the local caches (set DUCKDB_JAR)")


def sources():
    program = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(program):
        raise BuildError(f"program sources not found at {program}")
    files = []
    for base in (program, os.path.join(HERE, "src"), os.path.join(HERE, "test")):
        files += glob.glob(os.path.join(base, "**", "*.scala"), recursive=True)
    return sorted(files)


def classpath():
    return spark_jars() + [duckdb_jar()]


def ensure_built():
    """Compile if needed; return the runtime classpath (list of entries)."""
    srcs = sources()
    cp = classpath()
    h = hashlib.sha256()
    for entry in cp:
        h.update(entry.encode())
    for f in srcs:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    stamp = h.hexdigest()
    stamp_file = os.path.join(WORK, "classes.stamp")
    if os.path.isdir(CLASSES) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                return [CLASSES] + cp
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.makedirs(CLASSES)
    cmd = ["java", "-Xmx2g", "-Xss8m", "-cp", os.pathsep.join(spark_jars()),
           "scala.tools.nsc.Main", "-nowarn", "-classpath", os.pathsep.join(cp),
           "-d", CLASSES] + srcs
    print(f"build: compiling {len(srcs)} Scala files", file=sys.stderr, flush=True)
    r = subprocess.run(cmd, cwd=ROOT)
    if r.returncode != 0:
        raise BuildError(f"scalac exited with {r.returncode}")
    with open(stamp_file, "w") as fh:
        fh.write(stamp + "\n")
    return [CLASSES] + cp


if __name__ == "__main__":
    try:
        ensure_built()
    except BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        sys.exit(2)
