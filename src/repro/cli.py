"""Command-line interface: the tool pipeline of Fig. 6 in one binary.

Subcommands mirror the stages of the ezRealtime architecture:

* ``ezrt validate spec.xml`` — parse and validate an ez-spec document;
* ``ezrt compile spec.xml -o model.pnml`` — translate the spec to its
  time Petri net and export PNML;
* ``ezrt schedule spec.xml`` — synthesise a pre-runtime schedule and
  print the Section-5 style report; ``--parallel N`` races search
  policies across worker processes, ``--policy``/``--engine``/
  ``--profile`` control and expose the serial search;
* ``ezrt codegen spec.xml -o out/ --target hostsim`` — full synthesis:
  schedule + generated C project;
* ``ezrt simulate spec.xml`` — execute the synthesised table on the
  dispatcher machine and verify the trace;
* ``ezrt batch spec1.xml @fig3 ...`` — synthesise many specs
  concurrently over a process pool, with result caching, JSONL output
  and campaign grids (``--n-tasks/--utilizations/--seeds``);
* ``ezrt serve --port 8787`` — run the synthesis service: a JSON API
  over the batch engine with SSE progress streams and content-addressed
  results (see ``docs/service.md``);
* ``ezrt lint spec.xml @fig3 ...`` — diagnose specifications before
  searching: necessary-condition infeasibility, structural net
  problems and engine/option incompatibilities, with stable
  diagnostic codes (see ``docs/linting.md``);
* ``ezrt examples`` — list the built-in case studies (usable wherever
  a spec file is expected, via ``@name``).
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from typing import TYPE_CHECKING, NoReturn

from repro._lazy import lazy_exports
from repro.errors import EzRealtimeError

# The pipeline a one-shot command runs resolves name by name on first
# use, so each command imports only the stages it runs: `ezrt export`
# never loads the search, `ezrt schedule` never loads the code
# generator or the simulator.  The command bodies read these names
# through the module object (`_cli` below), never as bare globals, so
# the first read resolves the name and a wrapper set on the module (as
# the benchmark's traced pass sets) sees every call.  Everything else
# (batch, service, PNML, the lint pack, trace export) is imported by
# the command that needs it.
if TYPE_CHECKING:
    from dataclasses import replace

    from repro.analysis.report import full_report, interval_slack_report
    from repro.blocks.blocks import BlockStyle
    from repro.blocks.composer import ComposerOptions, compose
    from repro.codegen.generator import generate_project
    from repro.codegen.targets import TARGETS
    from repro.obs.events import NULL_RECORDER, JsonlSink, Recorder
    from repro.scheduler.config import (
        DEFAULT_ENGINE,
        ENGINES,
        SchedulerConfig,
    )
    from repro.scheduler.dfs import find_schedule
    from repro.scheduler.schedule import schedule_from_result
    from repro.sim.machine import run_schedule
    from repro.sim.verifier import verify_trace
    from repro.spec.dsl import load as dsl_load
    from repro.spec.dsl import save as dsl_save
    from repro.spec.validation import validate_spec
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "dataclasses": "replace",
            "repro.analysis.report": "full_report interval_slack_report",
            "repro.blocks.blocks": "BlockStyle",
            "repro.blocks.composer": "ComposerOptions compose",
            "repro.codegen.generator": "generate_project",
            "repro.codegen.targets": "TARGETS",
            "repro.obs.events": "NULL_RECORDER JsonlSink Recorder",
            "repro.scheduler.config": (
                "DEFAULT_ENGINE ENGINES SchedulerConfig"
            ),
            "repro.scheduler.dfs": "find_schedule",
            "repro.scheduler.schedule": "schedule_from_result",
            "repro.sim.machine": "run_schedule",
            "repro.sim.verifier": "verify_trace",
            "repro.spec.dsl": "dsl_load=load dsl_save=save",
            "repro.spec.validation": "validate_spec",
        },
    )

#: this module, also when it runs as ``python -m repro.cli`` (then
#: named ``__main__``, where ``import repro.cli`` would load a copy)
_cli = sys.modules[__name__]


def _load_spec(ref: str):
    """Load a spec from a file path or a built-in ``@name``."""
    if ref.startswith("@"):
        from repro.spec.examples import paper_examples

        examples = paper_examples()
        name = ref[1:]
        if name not in examples:
            raise EzRealtimeError(
                f"unknown built-in spec {name!r}; available: "
                f"{sorted(examples)}"
            )
        return examples[name]
    return _cli.dsl_load(ref)


def _composer_options(args) -> ComposerOptions:
    return _cli.ComposerOptions(
        style=_cli.BlockStyle(args.style),
        priority_policy=args.priorities,
    )


def _scheduler_config(args) -> SchedulerConfig:
    portfolio = tuple(
        entry.strip()
        for entry in (args.portfolio or "").split(",")
        if entry.strip()
    )
    return _cli.SchedulerConfig(
        priority_mode=args.priority_mode,
        delay_mode=args.delay_mode,
        partial_order=not args.no_partial_order,
        engine=args.engine,
        max_states=args.max_states,
        policy=args.policy,
        policy_seed=args.policy_seed,
        parallel=args.parallel,
        portfolio=portfolio,
        trace_jsonl=getattr(args, "_trace_jsonl", None),
        progress=getattr(args, "progress", False),
    )


def _start_trace(args):
    """Arrange span recording for ``--trace``; returns a finalizer.

    Spans are recorded into a temporary JSONL sidecar (its O_APPEND
    writes are process-safe, so pool and portfolio workers all share
    it) and folded into the Chrome trace-event file once the command
    is done.  Without ``--trace`` the finalizer is a no-op and the
    config carries no sink, so nothing is recorded.
    """
    if not getattr(args, "trace", None):
        args._trace_jsonl = None
        return lambda: None
    import tempfile

    from repro.obs.trace import write_chrome_trace

    fd, jsonl_path = tempfile.mkstemp(
        prefix="ezrt-trace-", suffix=".jsonl"
    )
    os.close(fd)
    args._trace_jsonl = jsonl_path

    def finalize() -> None:
        try:
            write_chrome_trace(jsonl_path, args.trace)
        finally:
            try:
                os.unlink(jsonl_path)
            except OSError:
                pass
        print(
            f"wrote Chrome trace to {args.trace} "
            "(open in Perfetto or chrome://tracing)"
        )

    return finalize


def _compose_traced(spec, args, config):
    """Compose (and compile) under a ``compile`` span when tracing."""
    obs = _cli.NULL_RECORDER
    if config.trace_jsonl:
        obs = _cli.Recorder(
            _cli.JsonlSink(config.trace_jsonl), track="cli"
        )
    with obs.span("compile", cat="compile", spec=spec.name):
        model = _cli.compose(spec, _composer_options(args))
        model.compiled()
    return model


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--style",
        choices=[s.value for s in _cli.BlockStyle],
        default="compact",
        help="block library flavour (default: compact)",
    )
    parser.add_argument(
        "--priorities",
        choices=("dm", "rm", "lex", "none"),
        default="dm",
        help="priority policy for decision transitions (default: dm)",
    )


def _add_search_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=_cli.ENGINES,
        default=_cli.DEFAULT_ENGINE,
        help=(
            "successor engine: the packed-buffer kernel (default; "
            "with its optional compiled C core the whole search runs "
            "in C, else on the reference semantics), the checked "
            "reference semantics, or the "
            "dense-time state-class engine (searches Berthomieu-Diaz "
            "classes and concretises the schedule back to integer "
            "time)"
        ),
    )
    parser.add_argument(
        "--priority-mode",
        choices=("ordered", "strict"),
        default="ordered",
        help="candidate priority handling (default: ordered)",
    )
    parser.add_argument(
        "--delay-mode",
        choices=("earliest", "extremes", "full"),
        default="earliest",
        help="firing delays explored (default: earliest)",
    )
    parser.add_argument(
        "--no-partial-order",
        action="store_true",
        help="disable the partial-order state-space reduction",
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=2_000_000,
        help="state budget for the search",
    )
    parser.add_argument(
        "--policy",
        choices=("earliest", "latest", "min-laxity", "random"),
        default="earliest",
        help=(
            "candidate ordering of a serial search (default: "
            "earliest, the work-conserving order); orderings change "
            "search speed, never the verdict"
        ),
    )
    parser.add_argument(
        "--policy-seed",
        type=int,
        default=0,
        help="shuffle seed for --policy random (default: 0)",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=0,
        metavar="N",
        help=(
            "race N worker processes over one model, each under its "
            "own --portfolio slot; the first definitive verdict wins "
            "(0/1 = serial)"
        ),
    )
    parser.add_argument(
        "--portfolio",
        default=None,
        metavar="S1,S2,...",
        help=(
            "comma-separated slots to race, each [engine:]policy"
            "[:seed] (e.g. earliest,random:1,stateclass:earliest); "
            "an engine prefix races successor engines as well as "
            "orderings, unprefixed slots inherit --engine; default: "
            "a built-in rotation sized to --parallel"
        ),
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help=(
            "record compile/search/cache spans and write a Chrome "
            "trace-event file (open in Perfetto or chrome://tracing); "
            "portfolio and pool workers get one track each"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "stream progress lines to stderr while searching "
            "(states visited/generated, frontier depth, rate)"
        ),
    )


def _cmd_validate(args) -> int:
    spec = _load_spec(args.spec)
    problems = _cli.validate_spec(spec)
    if problems:
        print(f"specification {spec.name!r} is INVALID:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"specification {spec.name!r} is valid: {len(spec.tasks)} "
        f"task(s), {len(spec.messages)} message(s)"
    )
    return 0


def _cmd_compile(args) -> int:
    from repro.pnml.writer import save as pnml_save

    spec = _load_spec(args.spec)
    model = _cli.compose(spec, _composer_options(args))
    pnml_save(model.net, args.output)
    stats = model.net.stats()
    print(
        f"wrote {args.output}: {stats['places']} places, "
        f"{stats['transitions']} transitions, {stats['arcs']} arcs "
        f"(PS={model.schedule_period}, "
        f"{model.total_instances} instances)"
    )
    return 0


def _cmd_schedule(args) -> int:
    spec = _load_spec(args.spec)
    finalize_trace = _start_trace(args)
    try:
        config = _scheduler_config(args)
        model = _compose_traced(spec, args, config)
        result = _cli.find_schedule(model, config)
        if not result.feasible:
            print(_cli.full_report(model, result))
            if args.profile:
                print(
                    "\nsearch profile:\n"
                    + result.stats.profile(result.metrics)
                )
            return 1
        schedule = _cli.schedule_from_result(model, result)
        print(
            _cli.full_report(model, result, schedule, gantt=args.gantt)
        )
        if args.profile:
            print(
                "\nsearch profile:\n"
                + result.stats.profile(result.metrics)
            )
            if result.interval_schedule is not None:
                # per-firing dense window + slack column, with the
                # total-slack summary line (scheduling freedom left)
                print(
                    "\ndense firing windows (stateclass engine):\n"
                    + _cli.interval_slack_report(result, limit=40)
                )
        return 0
    finally:
        finalize_trace()


def _cmd_codegen(args) -> int:
    spec = _load_spec(args.spec)
    finalize_trace = _start_trace(args)
    try:
        config = _scheduler_config(args)
        model = _compose_traced(spec, args, config)
        result = _cli.find_schedule(model, config)
        if not result.feasible:
            print("no feasible schedule; cannot generate code")
            return 1
        schedule = _cli.schedule_from_result(model, result)
        project = _cli.generate_project(model, schedule, args.target)
        paths = project.write(args.output)
        print(f"generated {len(paths)} file(s) in {args.output}:")
        for path in paths:
            print(f"  {path}")
        return 0
    finally:
        finalize_trace()


def _cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    finalize_trace = _start_trace(args)
    try:
        config = _scheduler_config(args)
        model = _compose_traced(spec, args, config)
        result = _cli.find_schedule(model, config)
        if not result.feasible:
            print("no feasible schedule; nothing to simulate")
            return 1
        schedule = _cli.schedule_from_result(model, result)
        machine_result = _cli.run_schedule(
            model, schedule, dispatch_overhead=args.overhead
        )
        violations = _cli.verify_trace(model, machine_result)
        print(machine_result.trace.summary())
        if violations:
            print("trace verification FAILED:")
            for violation in violations[:20]:
                print(f"  - {violation}")
            return 1
        print(
            f"trace verified: {len(machine_result.completions)} "
            "instance completions, all constraints met"
        )
        return 0
    finally:
        finalize_trace()


def _parse_int_list(text: str) -> tuple[int, ...]:
    """``"2,4,8"`` or range ``"0-5"`` → tuple of ints."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        first, dash, last = part.partition("-")
        try:
            if dash and first.isdigit() and last.isdigit():
                if int(first) > int(last):
                    raise EzRealtimeError(
                        f"descending range {part!r}; write "
                        f"{last}-{first}"
                    )
                values.extend(range(int(first), int(last) + 1))
            else:
                values.append(int(part))
        except ValueError:
            raise EzRealtimeError(
                f"expected an integer or A-B range, got {part!r}"
            ) from None
    if not values:
        raise EzRealtimeError(f"empty integer list {text!r}")
    return tuple(values)


def _parse_float_list(text: str) -> tuple[float, ...]:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(float(part))
        except ValueError:
            raise EzRealtimeError(
                f"expected a number, got {part!r}"
            ) from None
    if not values:
        raise EzRealtimeError(f"empty float list {text!r}")
    return tuple(values)


def _cmd_batch(args) -> int:
    from repro.batch.cache import ResultCache

    # a memory-only cache cannot hit within one CLI invocation (and
    # in-batch duplicates are deduplicated anyway), so only build one
    # when there is a directory to persist it in
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    finalize_trace = _start_trace(args)
    try:
        return _run_batch(args, cache)
    finally:
        finalize_trace()


def _run_batch(args, cache) -> int:
    from repro.analysis.report import campaign_report
    from repro.batch.campaign import CampaignGrid
    from repro.batch.engine import BatchEngine

    # batch progress is job-completion driven; per-job search
    # heartbeats would interleave on stderr, so strip the flag from
    # the scheduler config the jobs inherit
    engine = BatchEngine(
        composer_options=_composer_options(args),
        scheduler_config=_cli.replace(
            _scheduler_config(args), progress=False
        ),
        max_workers=args.jobs,
        job_timeout=args.timeout,
        cache=cache,
        codegen_target=args.target,
        simulate=args.simulate,
        cores=args.cores,
        hardest_first=not args.no_hardest_first,
        progress=args.progress,
    )
    jobs = [
        engine.make_job(_load_spec(ref), meta={"source": ref})
        for ref in args.specs
    ]
    if args.n_tasks or args.utilizations:
        if not (args.n_tasks and args.utilizations):
            raise EzRealtimeError(
                "campaign grids need both --n-tasks and --utilizations"
            )
        grid = CampaignGrid(
            n_tasks=_parse_int_list(args.n_tasks),
            utilizations=_parse_float_list(args.utilizations),
            seeds=_parse_int_list(args.seeds),
        )
        jobs.extend(grid.jobs(engine))
    if not jobs:
        raise EzRealtimeError(
            "nothing to do: give spec files/@builtins or a campaign "
            "grid (--n-tasks/--utilizations)"
        )
    result = engine.run(jobs)
    if args.output:
        result.write_jsonl(args.output)
    print(campaign_report(result.rows(), result.stats.as_dict()))
    if args.output:
        print(f"\nwrote {len(result.outcomes)} row(s) to {args.output}")
    if args.verbose:
        print()
        for outcome in result.outcomes:
            line = f"  {outcome.spec_name:<32} {outcome.status}"
            if outcome.error:
                line += f"  ({outcome.error})"
            print(line)
    return 1 if result.stats.error else 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    # import the whole search path here, in the parent, so the forked
    # pool workers inherit it instead of importing it on a first job:
    # the batch engine brings the default search, the last two the
    # engines a job may select that load lazily elsewhere
    import repro.scheduler.parallel  # noqa: F401
    import repro.tpn.dbm  # noqa: F401
    from repro.batch.cache import ResultCache
    from repro.batch.engine import BatchEngine
    from repro.service.app import serve

    def _graceful(signum, frame):
        # SIGTERM behaves like Ctrl-C: drain, reap the worker pool,
        # exit 0 — what a process supervisor (or `kill %1`) expects
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _graceful)

    # persistent cache directory when given; a memory cache otherwise —
    # unlike one-shot `ezrt batch`, a server lives long enough for
    # in-memory hits to pay off
    cache = (
        ResultCache(args.cache_dir)
        if args.cache_dir
        else ResultCache()
    )
    engine = BatchEngine(
        max_workers=args.jobs,
        job_timeout=args.timeout,
        cache=cache,
        cores=args.cores,
        store_schedules=True,
    )
    try:
        asyncio.run(
            serve(
                args.host,
                args.port,
                engine,
                audit_path=args.audit,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.diagnostics import has_errors
    from repro.lint.specrules import lint_spec

    failed = False
    payload = []
    for ref in args.specs:
        spec = _load_spec(ref)
        diagnostics = lint_spec(
            spec,
            engine=args.engine,
            delay_mode=args.delay_mode,
        )
        failed = failed or has_errors(diagnostics)
        if args.json:
            payload.append(
                {
                    "spec": spec.name,
                    "source": ref,
                    "diagnostics": [
                        d.to_dict() for d in diagnostics
                    ],
                }
            )
            continue
        if not diagnostics:
            print(f"{ref}: {spec.name!r} is clean")
            continue
        print(f"{ref}: {spec.name!r}")
        for diagnostic in diagnostics:
            print(f"  {diagnostic.format()}")
    if args.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    # warnings alone never fail the lint: only error severity does
    return 1 if failed else 0


def _cmd_export(args) -> int:
    spec = _load_spec(args.spec)
    _cli.dsl_save(spec, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_examples(_args) -> int:
    from repro.spec.examples import paper_examples

    print("built-in case studies (use as @name):")
    for name, spec in paper_examples().items():
        print(
            f"  @{name:<10} {len(spec.tasks)} tasks — {spec.name}"
        )
    return 0


def _validate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec", help="spec file or @builtin")
    p.set_defaults(func=_cmd_validate)


def _compile_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec")
    p.add_argument("-o", "--output", default="model.pnml")
    _add_model_arguments(p)
    p.set_defaults(func=_cmd_compile)


def _schedule_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec")
    p.add_argument("--gantt", action="store_true")
    p.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print search statistics (visited, generated, prunes, "
            "reductions, throughput)"
        ),
    )
    _add_model_arguments(p)
    _add_search_arguments(p)
    p.set_defaults(func=_cmd_schedule)


def _codegen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec")
    p.add_argument("-o", "--output", default="generated")
    p.add_argument(
        "--target",
        default="hostsim",
        choices=sorted(_cli.TARGETS),
    )
    _add_model_arguments(p)
    _add_search_arguments(p)
    p.set_defaults(func=_cmd_codegen)


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec")
    p.add_argument("--overhead", type=int, default=0)
    _add_model_arguments(p)
    _add_search_arguments(p)
    p.set_defaults(func=_cmd_simulate)


def _batch_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "specs",
        nargs="*",
        help="spec files or @builtins (may be combined with a grid)",
    )
    p.add_argument(
        "--n-tasks",
        help="campaign grid: task counts, e.g. 2,4,8 or 2-8",
    )
    p.add_argument(
        "--utilizations",
        help="campaign grid: utilisations, e.g. 0.3,0.5,0.7",
    )
    p.add_argument(
        "--seeds",
        default="0",
        help="campaign grid: seeds, e.g. 0,1,2 or 0-9 (default: 0)",
    )
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: CPU count; 1 = in-process)",
    )
    p.add_argument(
        "--cores",
        type=int,
        default=None,
        help=(
            "total core budget shared between the job pool and "
            "intra-job --parallel workers: the pool width shrinks to "
            "cores // parallel so jobs x workers stays within budget"
        ),
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job schedule-search budget in seconds",
    )
    p.add_argument(
        "--no-hardest-first",
        action="store_true",
        help=(
            "dispatch jobs in submission order instead of "
            "hardest-first (by predicted search states); either way "
            "the JSONL rows keep submission order"
        ),
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "persist the result cache to this directory (re-runs "
            "skip already-solved jobs); caching is off without it"
        ),
    )
    p.add_argument(
        "-o",
        "--output",
        default=None,
        help="write per-job JSONL rows to this file",
    )
    p.add_argument(
        "--target",
        default=None,
        choices=sorted(_cli.TARGETS),
        help="also generate code for feasible schedules",
    )
    p.add_argument(
        "--simulate",
        action="store_true",
        help="also simulate feasible schedules on the dispatcher",
    )
    p.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print one status line per job",
    )
    _add_model_arguments(p)
    _add_search_arguments(p)
    p.set_defaults(func=_cmd_batch)


def _serve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: loopback only)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port to listen on (0 picks an ephemeral port)",
    )
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="worker pool width (default: one per CPU)",
    )
    p.add_argument(
        "--cores",
        type=int,
        default=None,
        help=(
            "total core budget: the worker pool shrinks so jobs x "
            "intra-job workers stays within it"
        ),
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help=(
            "default per-job schedule-search budget in seconds "
            "(submissions may override per request)"
        ),
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "persist the result cache to this directory; without it "
            "results are cached in memory for the server's lifetime"
        ),
    )
    p.add_argument(
        "--audit",
        default=None,
        help="append a deterministic JSONL audit log to this file",
    )
    p.set_defaults(func=_cmd_serve)


def _lint_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "specs",
        nargs="+",
        help="spec files or @builtins to diagnose",
    )
    p.add_argument(
        "--engine",
        choices=_cli.ENGINES,
        default=_cli.DEFAULT_ENGINE,
        help=(
            "engine the spec is destined for (enables engine-"
            "specific rules, e.g. the kernel token-capacity check)"
        ),
    )
    p.add_argument(
        "--delay-mode",
        choices=("earliest", "extremes", "full"),
        default="earliest",
        help="planned delay mode (checked against the engine)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output: one object per spec",
    )
    p.set_defaults(func=_cmd_lint)


def _export_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec")
    p.add_argument("-o", "--output", default="spec.xml")
    p.set_defaults(func=_cmd_export)


def _examples_arguments(p: argparse.ArgumentParser) -> None:
    p.set_defaults(func=_cmd_examples)


#: every subcommand: its name, the ``add_parser`` keywords (the help
#: ``ezrt --help`` lists) and the function adding its arguments
_SUBCOMMANDS = (
    (
        "validate",
        {"help": "validate an ez-spec document"},
        _validate_arguments,
    ),
    ("compile", {"help": "translate spec to PNML"}, _compile_arguments),
    ("schedule", {"help": "synthesise a schedule"}, _schedule_arguments),
    ("codegen", {"help": "generate scheduled C code"}, _codegen_arguments),
    (
        "simulate",
        {"help": "run the table on the dispatcher machine"},
        _simulate_arguments,
    ),
    (
        "batch",
        {"help": "synthesise many specs concurrently (pool + cache)"},
        _batch_arguments,
    ),
    (
        "serve",
        {"help": "run the synthesis HTTP service (JSON API + SSE)"},
        _serve_arguments,
    ),
    (
        "lint",
        {
            "help": (
                "diagnose specs before searching (necessary conditions)"
            ),
            "description": (
                "Static analysis of specifications: necessary-condition "
                "infeasibility (processor/bus overutilisation, empty "
                "firing windows, precedence chains that cannot meet "
                "their deadline), structural net problems (dead "
                "transitions, token counts beyond the kernel engine's "
                "capacity) and engine/option incompatibilities.  Exit "
                "code 1 when any error-severity diagnostic fires; "
                "warnings alone exit 0."
            ),
        },
        _lint_arguments,
    ),
    (
        "export",
        {"help": "write a built-in spec as XML"},
        _export_arguments,
    ),
    (
        "examples",
        {"help": "list built-in case studies"},
        _examples_arguments,
    ),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``ezrt`` argument parser.

    Every subcommand is registered with its help; only ``command``'s
    arguments are added when it is given (every subcommand's when it
    is ``None``), which is all one invocation parses.
    """
    parser = argparse.ArgumentParser(
        prog="ezrt",
        description=(
            "ezRealtime reproduction: embedded hard real-time software "
            "synthesis from time Petri net models (DATE 2008)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options, add_arguments in _SUBCOMMANDS:
        p = sub.add_parser(name, **options)
        if command is None or command == name:
            add_arguments(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser takes no option values, so the first bare
    # word names the subcommand; with none named (``ezrt --help``) no
    # subcommand is parsed, so none gets its arguments
    command = next((arg for arg in argv if not arg.startswith("-")), "")
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except EzRealtimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _other_threads_alive() -> bool:
    """Whether a non-daemon thread besides this one is still running.

    Reads ``threading`` from ``sys.modules``: a process that never
    imported it has no other thread, and exit imports nothing.
    """
    threading = sys.modules.get("threading")
    if threading is None:
        return False
    current = threading.current_thread()
    return any(
        thread is not current and not thread.daemon
        for thread in threading.enumerate()
    )


def run() -> NoReturn:
    """Process entry point: ``ezrt`` and ``python -m repro.cli``.

    Runs :func:`main` and exits with its status the way CPython's own
    forked multiprocessing children do: flush the standard streams, run
    the ``atexit`` handlers, then ``os._exit``, which skips module
    teardown and the final collection, work a one-shot command gains
    nothing from.  Every file the commands write is closed before
    ``main`` returns.  While another non-daemon thread is alive the
    interpreter exits as usual instead (``sys.exit``), joining it
    first.  Exceptions and ``SystemExit`` from ``main`` (``--help``,
    usage errors) propagate unchanged.

    A reader that closes the pipe early (``ezrt schedule ... | head``)
    ends the command with status 1 and no traceback: stdout is pointed
    at the null device so no later flush fails again (the "Note on
    SIGPIPE" in the ``signal`` module docs).
    """
    try:
        rc = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        rc = 1
    if _other_threads_alive():
        sys.exit(rc)
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(rc)


if __name__ == "__main__":
    run()
