"""Workload ``oneshot-cli``: what a modeller runs.

One client runs a fresh ``python -m repro.cli {schedule,codegen,simulate}
<spec>.xml`` per op, with default flags, over the four paper case
studies in a fixed round-robin order.  The specs are exported to XML by
``ezrt export`` during set-up, so the ``repro.spec`` parser is on the
path.  Process start and import dominate each op; the extract, report,
codegen and simulate layers are exercised only here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil

from common import (
    BENCH_DIR,
    WORK,
    HostSpeed,
    emit,
    end_to_end,
    load_expected,
    mean,
    overhead,
    p50,
    pin_to_one_cpu,
    pinned_env,
    python_argv,
    run_child,
)
from spans import LAYERS

SPECS = ("mine-pump", "fig3", "fig4", "fig8")
COMMANDS = ("schedule", "codegen", "simulate")
#: ops a run needs so that at least ten samples lie beyond its p90
MIN_OPS = 100
#: nominal cost of one op on a 2-vCPU Xeon host; sizes a run from
#: ``--seconds`` so every run of a given length does the same work
NOMINAL_OP_S = 0.33
SETUP_REPEATS = 3
#: rounds per pass in a traced run (each pass is its own op list)
TRACE_ROUNDS = 3

OP_DIR = os.path.join(WORK, "oneshot")


def round_ops(seed: int) -> list[tuple[str, str]]:
    """The fixed round-robin op list, rotated by the seed."""
    ops = [(command, spec) for spec in SPECS for command in COMMANDS]
    shift = seed % len(ops)
    return ops[shift:] + ops[:shift]


def rounds_for(seconds: int) -> int:
    per_round = len(SPECS) * len(COMMANDS)
    return max(
        math.ceil(MIN_OPS / per_round),
        round(seconds / (per_round * NOMINAL_OP_S)),
    )


def export_specs(dest: str, env: dict, speed: HostSpeed) -> tuple[list, list[str]]:
    """``ezrt export`` every case study; the children, failure reasons."""
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    results = []
    failures = []
    for name in SPECS:
        path = os.path.join(dest, f"{name}.xml")
        speed.maybe_sample()
        res = run_child(
            python_argv("-m", "repro.cli", "export", f"@{name}", "-o", path),
            OP_DIR,
            env,
        )
        results.append(res)
        if res.returncode != 0 or not os.path.isfile(path):
            failures.append(f"export @{name} exited {res.returncode}")
    return results, failures


def setup(env: dict, speed: HostSpeed) -> tuple[float, str, list[str]]:
    """Export the specs several times; median scaled seconds, dir, failures.

    The first export is an untimed warm-up.
    """
    timed = []
    failures: list[str] = []
    dest = ""
    for rep in range(SETUP_REPEATS + 1):
        dest = os.path.join(OP_DIR, f"specs-{rep}")
        results, failed = export_specs(dest, env, speed)
        failures += failed
        if rep:
            timed.append(results)
    speed.sample()
    times = [
        sum(speed.scaled_s(res.started, res.ended) for res in results)
        for results in timed
    ]
    return p50(times), dest, failures


_PATTERNS = {
    "firings": re.compile(r"^firings\s*:\s*(\d+)", re.M),
    "states": re.compile(r"^states visited\s*:\s*(\d+)", re.M),
    "files": re.compile(r"^generated (\d+) file\(s\)", re.M),
    "completions": re.compile(
        r"^trace verified: (\d+) instance completions", re.M
    ),
}
#: what each command's output is checked for
_CHECKED = {
    "schedule": ("firings", "states"),
    "codegen": ("files",),
    "simulate": ("completions",),
}


def check(command: str, spec: str, res, expected: dict) -> str | None:
    """Failure reason for one op's output, or ``None`` when correct."""
    if res.returncode != 0:
        return f"{command} {spec}: exit {res.returncode}: {res.stderr[-300:]}"
    pins = expected[spec]
    for field in _CHECKED[command]:
        match = _PATTERNS[field].search(res.stdout)
        if match is None or int(match.group(1)) != pins[field]:
            found = match.group(1) if match else "nothing"
            return f"{command} {spec}: {field} {found} != {pins[field]}"
    return None


def untraced_pass(ops, spec_dir: str, env: dict, expected: dict, speed):
    """Run ``ops`` cold; the children's results, scaled latencies, failures."""
    results = []
    for command, spec in ops:
        speed.maybe_sample()
        xml = os.path.join(spec_dir, f"{spec}.xml")
        results.append(
            run_child(
                python_argv("-m", "repro.cli", command, xml), OP_DIR, env
            )
        )
    speed.sample()
    failures = [
        reason
        for (command, spec), res in zip(ops, results)
        if (reason := check(command, spec, res, expected)) is not None
    ]
    scaled = [speed.scaled_s(res.started, res.ended) * 1000.0 for res in results]
    return results, scaled, failures


def _codegen_bytes(stdout: str) -> int:
    """Bytes of the files a codegen op lists as written."""
    paths = [
        os.path.join(OP_DIR, line.strip())
        for line in stdout.splitlines()
        if line.startswith("  ")
    ]
    return sum(os.path.getsize(path) for path in paths)


def traced_pass(
    ops, spec_dir: str, env: dict, expected: dict, cold_ms: dict, speed
):
    """Run ``ops`` through ``cli_trace.py``; per-layer means per op.

    ``cold_ms`` maps each (command, spec) to its untraced cold wall
    time, from which start, import and every timed layer are
    subtracted to leave ``cli.unaccounted_ms``.
    """
    spans_path = os.path.join(WORK, "tmp", "cli-spans.json")
    tracer = os.path.join(BENCH_DIR, "cli_trace.py")
    spans_of, rss, failures = [], [], []
    per_op: list[dict] = []
    unaccounted: dict[str, list[float]] = {c: [] for c in COMMANDS}
    codegen_bytes = []
    for command, spec in ops:
        speed.maybe_sample()
        start_ms = run_child(python_argv("-c", "pass"), OP_DIR, env).wall_ms
        xml = os.path.join(spec_dir, f"{spec}.xml")
        res = run_child(
            python_argv(tracer, spans_path, command, xml), OP_DIR, env
        )
        spans_of.append((res.started, res.ended))
        rss.append(res.maxrss_mb)
        reason = check(command, spec, res, expected)
        if reason is not None:
            failures.append(reason)
            continue
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)
        layers = spans["layers_ms"]
        row = {f"{layer}_ms": layers.get(layer, 0.0) for layer in LAYERS}
        row["cli.start_ms"] = start_ms
        row["cli.import_ms"] = spans["import_ms"]
        row["scheduler.states"] = spans["states"]
        per_op.append(row)
        unaccounted[command].append(
            cold_ms[(command, spec)]
            - start_ms
            - spans["import_ms"]
            - sum(layers.values())
        )
        if command == "codegen":
            codegen_bytes.append(_codegen_bytes(res.stdout))
    names = [f"{layer}_ms" for layer in LAYERS]
    names += ["cli.start_ms", "cli.import_ms", "scheduler.states"]
    metrics = {name: mean([row[name] for row in per_op]) for name in names}
    for command, values in unaccounted.items():
        metrics[f"cli.{command}.unaccounted_ms"] = mean(values)
    metrics["cli.unaccounted_ms"] = mean(
        [v for values in unaccounted.values() for v in values]
    )
    metrics["codegen.bytes"] = mean(codegen_bytes)
    speed.sample()
    walls = [speed.scaled_s(*span) * 1000.0 for span in spans_of]
    return walls, max(rss), metrics, failures


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    pin_to_one_cpu()
    speed = HostSpeed()
    env = pinned_env()
    os.makedirs(OP_DIR, exist_ok=True)
    expected = load_expected()["oneshot-cli"]
    setup_s, spec_dir, failures = setup(env, speed)
    if failures:
        raise SystemExit("set-up failed: " + "; ".join(failures))
    # warm-up: one untimed op per command
    for command in COMMANDS:
        run_child(
            python_argv(
                "-m", "repro.cli", command, os.path.join(spec_dir, "fig3.xml")
            ),
            OP_DIR,
            env,
        )

    one_round = round_ops(args.seed)
    rounds = TRACE_ROUNDS if args.trace else rounds_for(args.seconds)
    ops = one_round * rounds
    results, latencies, failures = untraced_pass(
        ops, spec_dir, env, expected, speed
    )
    untraced = end_to_end(
        latencies, setup_s, max(res.maxrss_mb for res in results)
    )
    attempted = len(ops)
    notes = [f"{len(ops)} ops ({rounds} rounds of {len(one_round)})"]
    if not args.trace:
        metrics = untraced
    else:
        cold: dict[tuple[str, str], list[float]] = {}
        for op, res in zip(ops, results):
            cold.setdefault(op, []).append(res.wall_ms)
        cold_ms = {op: p50(values) for op, values in cold.items()}
        walls, traced_rss, metrics, traced_failures = traced_pass(
            ops, spec_dir, env, expected, cold_ms, speed
        )
        attempted += len(ops)
        failures += traced_failures
        metrics.update(
            overhead(end_to_end(walls, setup_s, traced_rss), untraced)
        )
        metrics["host.probe_ms"] = speed.median_ms()
    for reason in failures[:10]:
        notes.append(f"FAILED {reason}")
    emit("oneshot-cli", attempted, len(failures), metrics, notes)


if __name__ == "__main__":
    main()
