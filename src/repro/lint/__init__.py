"""``repro.lint`` — static analysis for specs and for the codebase.

Two rule packs behind one diagnostic model:

* the **spec pack** (:mod:`repro.lint.specrules`) diagnoses
  specifications, compiled nets and scheduler configurations before
  any search runs — ``ezrt lint`` is its CLI, and its
  :func:`~repro.lint.specrules.presearch_diagnostics` subset gates
  :func:`repro.scheduler.dfs.find_schedule`, the batch engine and the
  service's ``POST /jobs``;
* the **code pack** (:mod:`repro.lint.coderules`) enforces repository
  invariants over the source tree itself — run it as
  ``python -m repro.lint --self``.

See ``docs/linting.md`` for the rule table and workflows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.lint.diagnostics import (
        ERROR,
        WARNING,
        Diagnostic,
        LintReport,
        errors,
        format_report,
        has_errors,
    )
    from repro.lint.coderules import (
        check_fixture_dir,
        lint_file,
        lint_source,
        lint_tree,
    )
    from repro.lint.specrules import (
        clock_cap_diagnostics,
        config_diagnostics,
        dbm_bound_diagnostics,
        infeasibility_diagnostics,
        lint_spec,
        net_diagnostics,
        presearch_diagnostics,
        token_cap_diagnostics,
        validation_diagnostics,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.lint.diagnostics": (
                "ERROR WARNING Diagnostic LintReport errors "
                "format_report has_errors"
            ),
            "repro.lint.coderules": (
                "check_fixture_dir lint_file lint_source lint_tree"
            ),
            "repro.lint.specrules": (
                "clock_cap_diagnostics config_diagnostics "
                "dbm_bound_diagnostics infeasibility_diagnostics "
                "lint_spec net_diagnostics presearch_diagnostics "
                "token_cap_diagnostics validation_diagnostics"
            ),
        },
    )

__all__ = [
    "ERROR",
    "WARNING",
    "Diagnostic",
    "LintReport",
    "check_fixture_dir",
    "clock_cap_diagnostics",
    "config_diagnostics",
    "dbm_bound_diagnostics",
    "errors",
    "format_report",
    "has_errors",
    "infeasibility_diagnostics",
    "lint_file",
    "lint_source",
    "lint_spec",
    "lint_tree",
    "net_diagnostics",
    "presearch_diagnostics",
    "token_cap_diagnostics",
    "validation_diagnostics",
]
