"""The repo benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {oneshot-cli,search-large,service-mixed}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Before anything is timed, both native
cores are built and the bytecode prefix is warmed, all in the pinned
environment of :func:`common.pinned_env`.  The workload then runs in a
child process in that environment and reports back; this script checks
the report against ``BENCHMARK.json`` and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ beside the sources

from common import BENCH_DIR, ROOT, SRC, WORK, ensure_work_dirs, pinned_env

WORKLOADS = {
    "oneshot-cli": "oneshot.py",
    "search-large": "search.py",
    "service-mixed": "service.py",
}
#: a run must end within 180 s; the first one in a checkout builds
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600

_NATIVE_PROBE = (
    "from repro.tpn import _dbmc, _kernelc; "
    "print(int(_kernelc.available()), int(_dbmc.available()))"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(
    argv: list[str], env: dict, timeout: float, required: bool = True
) -> str:
    """Run a preparation step; its stdout, or fail loudly if required."""
    try:
        proc = subprocess.run(
            argv,
            cwd=WORK,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(argv)}")
    if proc.returncode != 0 and required:
        fail(f"failed ({proc.returncode}): {' '.join(argv)}\n{proc.stderr}")
    return proc.stdout


def prepare(env: dict) -> tuple[int, int]:
    """Build both native cores and warm the bytecode prefix.

    Returns whether the kernel and DBM native cores are active.  The
    cores compile on first use, keyed by a digest of their C source,
    so after the first run in a checkout this finds them built.  A core
    that cannot build leaves its engine on the pure-Python fallback,
    which the output then reports.
    """
    ensure_work_dirs()
    for module in ("repro.tpn._kernelc", "repro.tpn._dbmc"):
        run_quiet(
            [sys.executable, "-m", module], env, BUILD_TIMEOUT_S, required=False
        )
    run_quiet(
        [
            sys.executable, "-m", "compileall", "-q", SRC,
            *sorted(glob.glob(os.path.join(BENCH_DIR, "*.py"))),
        ],
        env,
        BUILD_TIMEOUT_S,
    )
    kernel, dbm = run_quiet(
        [sys.executable, "-c", _NATIVE_PROBE], env, 60
    ).split()
    return int(kernel), int(dbm)


def run_workload(name: str, args, env: dict) -> tuple[dict, list[str]]:
    """Run a workload child; its report and note lines."""
    argv = [
        sys.executable,
        os.path.join(BENCH_DIR, WORKLOADS[name]),
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(
        argv,
        cwd=WORK,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{name} did not finish within {CHILD_TIMEOUT_S} s")
    finally:
        # the workload's own children (CLI ops, server, pool workers)
        # share its session; none may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{name} exited {proc.returncode}")
    return json.loads(lines[-1]), [l for l in lines[:-1] if l.startswith("#")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        fail(f"no program to measure: {SRC}/repro is missing")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]

    env = pinned_env()
    kernel, dbm = prepare(env)
    report, notes = run_workload(args.workload, args, env)

    measured = report["metrics"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name == "env.kernel_native":
            value = kernel
        elif name == "env.dbm_native":
            value = dbm
        elif name in measured:
            value = measured[name]
        elif args.trace:
            value = 0  # a layer this workload's ops never enter
        else:
            fail(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    for note in notes:
        print(note)
    print(
        f"# env: python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"kernel native core {'on' if kernel else 'OFF'}, "
        f"DBM native core {'on' if dbm else 'OFF'}"
    )
    print(
        f"# {args.workload}: {report['attempted']} ops attempted, "
        f"{report['failed']} failed"
    )
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
