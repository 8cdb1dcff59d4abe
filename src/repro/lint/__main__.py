"""``python -m repro.lint`` — the code pack's command line.

Three modes:

* ``--self [--root src]`` — lint the whole source tree; exit 1 on
  *any* diagnostic, so CI can require a clean repo;
* ``--self-test DIR`` — run the seeded-violation fixture corpus:
  every ``# expect:`` marker must fire and nothing unexpected may,
  proving each rule both catches its violation and stays quiet
  otherwise;
* ``FILE ...`` — lint individual files (fixtures resolve their
  ``# lint-module:`` impersonation directives as usual).

Spec linting lives in the main CLI: ``ezrt lint spec.xml``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.lint.coderules import (
    check_fixture_dir,
    lint_file,
    lint_tree,
)
from repro.lint.diagnostics import Diagnostic, format_report


def _default_root() -> str:
    """The checkout's ``src`` directory, resolved from this package."""
    package = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(package))


def _emit(diagnostics: list[Diagnostic], as_json: bool) -> None:
    if as_json:
        print(
            json.dumps(
                [d.to_dict() for d in diagnostics],
                sort_keys=True,
                indent=2,
            )
        )
    elif diagnostics:
        print(format_report(diagnostics))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="repository-invariant linter (code pack)",
    )
    parser.add_argument(
        "files",
        nargs="*",
        help="python files to lint individually",
    )
    parser.add_argument(
        "--self",
        action="store_true",
        dest="self_lint",
        help="lint the source tree (zero diagnostics required)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="source root for --self (default: the installed src/)",
    )
    parser.add_argument(
        "--self-test",
        metavar="DIR",
        default=None,
        help="verify the seeded-violation fixture corpus in DIR",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    args = parser.parse_args(argv)

    if args.self_test is not None:
        problems = check_fixture_dir(args.self_test)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            print(
                f"fixture self-test FAILED: {len(problems)} problem(s)",
                file=sys.stderr,
            )
            return 1
        print(f"fixture self-test ok: {args.self_test}")
        return 0

    if args.self_lint:
        root = args.root or _default_root()
        diagnostics = lint_tree(root)
        _emit(diagnostics, args.json)
        if diagnostics:
            print(
                f"self-lint FAILED: {len(diagnostics)} diagnostic(s) "
                f"under {root}",
                file=sys.stderr,
            )
            return 1
        if not args.json:
            print(f"self-lint ok: {root}")
        return 0

    if not args.files:
        parser.error("pass files, --self or --self-test DIR")
    diagnostics = []
    for path in args.files:
        diagnostics.extend(lint_file(path))
    _emit(diagnostics, args.json)
    return 1 if diagnostics else 0


if __name__ == "__main__":
    sys.exit(main())
