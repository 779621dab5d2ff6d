#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark of the MPI core on the real worlds.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload shm|unix|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare OLD_RECORD.json NEW_RECORD.json

The first form builds perfbench/ (which compiles ../src) into .bench_build/,
runs the benchmark binary in a child process under a deadline, checks its
outputs, writes a result record stamped with the host fingerprint and the
source revision to .bench_build/records/, prints every metric with its unit
and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 only when the run is correct: no failed check, no
error, every metric measured. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones (see BENCHMARK.json). --workload all runs every
workload BENCHMARK.json lists, one after the other. The second form compares
two records and refuses when their host fingerprints differ.
"""

import argparse
import contextlib
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = Path(".bench_build")
RECORD_DIR = BUILD_DIR / "records"
BUILD_TYPE = "Release"
# The whole run, build excepted, must end well inside three minutes.
DEADLINE_CAP_S = 170
SOCKET_DIR_GLOB = "/tmp/lcmpi-sock.*"


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {ROOT / 'src'}", code=2)
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR.relative_to(ROOT)), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return BUILD_DIR / "perfbench"


def kill_group(pgid):
    """SIGKILLs what is left of a process group and waits (up to 2 s) until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(100):
            time.sleep(0.02)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def socket_dirs():
    """The AF_UNIX socket directories runtime::SocketWorld makes (and removes
    when a world ends, unless its process is killed first)."""
    return set(glob.glob(SOCKET_DIR_GLOB))


def run_binary(binary, args, workload):
    """Runs perfbench in its own process group; kills the group at the deadline."""
    deadline = args.deadline or min(2 * args.seconds + 60, DEADLINE_CAP_S)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corrupt", args.corrupt, "--wedge", str(args.wedge)]
    dirs_before = socket_dirs()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        kill_group(proc.pid)
        # The killed world never ran its destructor: remove the socket
        # directories that appeared during this run.
        for d in socket_dirs() - dirs_before:
            shutil.rmtree(d, ignore_errors=True)
        return None, f"run exceeded its {deadline} s deadline and was killed"
    # Forked ranks share the group; none may outlive the run.
    kill_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"perfbench exited with status {proc.returncode}"
    return json.loads(lines[-1]), ""


def fingerprint(binary):
    """The host and build a record was measured on; records compare only when equal."""
    build_info = json.loads(subprocess.run([str(binary), "--build-info"], capture_output=True,
                                           text=True, check=True).stdout)
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "kernel": platform.release(), **build_info}


def revision():
    """The git commit when there is one, and always a digest of the sources."""
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*")) + sorted(
        p for p in BENCH_DIR.rglob("*") if "__pycache__" not in p.parts)
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def compare(old_path, new_path):
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    if old["fingerprint"] != new["fingerprint"]:
        diff = {k: (old["fingerprint"].get(k), new["fingerprint"].get(k))
                for k in set(old["fingerprint"]) | set(new["fingerprint"])
                if old["fingerprint"].get(k) != new["fingerprint"].get(k)}
        fail(f"refusing to compare records from different hosts or builds: {diff}", code=3)
    for key in ("workload", "trace"):
        if old[key] != new[key]:
            fail(f"refusing to compare records with different {key}: "
                 f"{old[key]} vs {new[key]}", code=3)
    print(f"{'metric':34} {'old':>14} {'new':>14} {'change':>9}")
    for name, m in new["metrics"].items():
        a, b = old["metrics"].get(name, {}).get("value"), m["value"]
        change = f"{(b / a - 1) * 100:+8.1f}%" if a and b is not None else "       -"
        print(f"{name:34} {a if a is not None else '-':>14.6} {b if b is not None else '-':>14.6} "
              f"{change} {m['unit']}")


def run_workload(binary, args, workload, declared):
    """One run: drive, check, record, report. Returns the process exit code."""
    started = time.time()
    result, error = run_binary(binary, args, workload)
    if result is None:
        result = {"attempted": 1, "failed": 1, "error": error}
    measured = result.get("e2e" if args.trace == 0 else "layer", {})
    metrics = {n: {"value": measured.get(n, {}).get("value"), "unit": unit,
                   "n": measured.get(n, {}).get("n", 0)} for n, unit in declared.items()}
    attempted, failed = result["attempted"], result["failed"]
    correct = (failed == 0 and not result["error"]
               and all(m["value"] is not None for m in metrics.values()))

    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started_unix": started,
        "fingerprint": fingerprint(binary), **revision(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "error": result["error"], "rounds": result.get("rounds", 0),
        "metrics": metrics,
    }
    for key in ("e2e", "overhead_pct", "spans", "spans_dropped"):
        if key in result:
            record[key] = result[key]
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    path = RECORD_DIR / f"{workload}-trace{args.trace}-seed{args.seed}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {record['rounds']}  record {path}")
    for name, m in metrics.items():
        value = "-" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:34} {value:>14} {m['unit']:6} n={m['n']}")
    for name, pct in record.get("overhead_pct", {}).items():
        print(f"  tracing overhead on {name:24} {pct:+.1f}%")
    for s in record.get("spans", []):
        print(f"  span {s['name']:22} n={s['n']:<8} median {s['median_ns']:.0f} ns  "
              f"self median {s['self_median_ns']:.0f} ns")
    print(f"  fail_frac {record['fail_frac']:.3g} ({failed}/{attempted})"
          + (f"  error: {result['error']}" if result["error"] else ""))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["shm", "unix", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt", default="none",
                    help="self-test: corrupt one output of this kind in the first round")
    ap.add_argument("--wedge", type=int, choices=[0, 1], default=0,
                    help="self-test: configure a hang the deadline must catch")
    ap.add_argument("--deadline", type=int, default=0,
                    help="seconds before the run is killed (default: 2 x seconds + 60, at most "
                         f"{DEADLINE_CAP_S})")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    os.chdir(ROOT)
    binary = build()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])
    return max(run_workload(binary, args, w, declared) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
