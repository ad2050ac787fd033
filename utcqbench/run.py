#!/usr/bin/env python3
"""Run one workload of the UTCQ benchmark.

    python3 utcqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run builds the benchmark and
the program from source with sbt into .bench_build/; later runs reuse that
build while the sources are unchanged. A run is one JVM with a fixed heap
and a fixed garbage collector; the last line of standard output is the JSON
result.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

# Fixed heap (-Xms = -Xmx) and a stated collector, so that heap growth and
# collector choice do not move timings between runs.
JVM_OPTS = [
    "-Xms2g", "-Xmx2g",
    "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2", "-XX:MetaspaceSize=256m",
    "-Djava.io.tmpdir=" + str(BUILD / "tmp"),
    # Module access Spark needs on Java 17 and later.
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(msg):
    print("utcqbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads: the build definitions and main sources of
    the program and of the benchmark. Tests and notes do not change the build."""
    roots = [ROOT / "build.sbt", ROOT / "project", ROOT / "src" / "main", ROOT / "jobs",
             HERE / "build.sbt", HERE / "project", HERE / "src" / "main"]
    out = []
    for r in roots:
        for p in [r] if r.is_file() else sorted(r.rglob("*")) if r.is_dir() else []:
            parts = p.relative_to(ROOT).parts
            nested_project = any(a == b == "project" for a, b in zip(parts, parts[1:]))
            if p.is_file() and "target" not in parts and not nested_project:
                out.append(p)
    return out


def classpath():
    """Build once per source state; return the runtime classpath."""
    h = hashlib.sha256()
    for p in source_files():
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    digest = h.hexdigest()
    cp_file, stamp = BUILD / "classpath", BUILD / "sources.sha256"
    if cp_file.exists() and stamp.exists() and stamp.read_text() == digest:
        return cp_file.read_text()
    BUILD.mkdir(exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    try:
        r = subprocess.run(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    (BUILD / "build.log").write_text(r.stdout)
    lines = [l for l in r.stdout.splitlines() if l.strip() and not l.startswith("[")]
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout[-4000:])
        fail("build failed; see .bench_build/build.log")
    cp = lines[-1].strip()
    cp_file.write_text(cp)
    stamp.write_text(digest)
    return cp


def run_jvm(cp, argv):
    """One JVM run of the benchmark; its result line."""
    cmd = ["java"] + JVM_OPTS + ["-cp", cp, "utcqbench.Main"] + argv
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("run failed with exit code %d" % r.returncode)
    json.loads(lines[-1])
    return lines[-1]


def main(argv):
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail("the program's sources (build.sbt, src/main/scala) are not next to utcqbench/")
    if shutil.which("sbt") is None or shutil.which("java") is None:
        fail("sbt and java must be on PATH")
    cp = classpath()
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    print(run_jvm(cp, argv))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
