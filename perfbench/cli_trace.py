"""One traced one-shot CLI op, run as a fresh process.

    python cli_trace.py OUT.json {schedule,codegen,simulate} SPEC.xml

Times ``import repro.cli``, wraps the CLI's layer functions (see
:mod:`spans`), runs ``repro.cli.main`` with the given arguments and
writes ``{"rc", "import_ms", "layers_ms", "states"}`` to ``OUT.json``.
The CLI's own output goes to standard output as usual, so the caller
checks it exactly like an untraced op.
"""

import time

_started = time.perf_counter()
import repro.cli  # noqa: E402  (the import is what is being timed)

_import_ms = (time.perf_counter() - _started) * 1000.0

import json  # noqa: E402
import sys  # noqa: E402

from spans import CLI_LAYERS, LayerClock  # noqa: E402


def main(out_path: str, argv: list[str]) -> int:
    clock = LayerClock()
    clock.install(CLI_LAYERS)
    states = []
    search = repro.cli.find_schedule

    def counted(*args, **kwargs):
        result = search(*args, **kwargs)
        states.append(result.stats.states_visited)
        return result

    repro.cli.find_schedule = counted
    rc = repro.cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "rc": rc,
                "import_ms": _import_ms,
                "layers_ms": clock.take(),
                "states": sum(states),
            },
            handle,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
