"""Determinism lint: machine-checked bit-identity invariants.

Every reproducibility guarantee in this tree — the ``derive_seed``
stream contract, draw-free uninstalled hooks, PYTHONHASHSEED-safe
aggregation, NaN/inf rejection at construction time — is enforced here
as a static :mod:`ast` pass instead of by convention. Run it as
``repro lint [PATHS]`` (CI keeps ``src/`` clean) or programmatically::

    from repro.lint import run_lint
    report = run_lint(["src"])
    assert report.ok, report.findings

Rules (see the README's "Determinism invariants" catalog):

========  ==========================================================
DET001    no draws from the process-global ``random`` module
DET002    no wall-clock/entropy sources in sim-pure paths
DET003    PYTHONHASHSEED hazards: hash-ordered iteration, ``hash()``
DET004    RNG stream labels declared in ``STREAM_REGISTRY``
DET005    float parameters reach a finite-check before use
LINT00x   pragma hygiene (syntax, rationale required, unused)
========  ==========================================================

Intentional exceptions are suppressed inline with
``# repro-lint: allow[RULE]: rationale`` (the rationale is mandatory;
unused pragmas are themselves findings).
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "repro.lint.config": ("DEFAULT_CONFIG", "LintConfig"),
        "repro.lint.engine": ("all_rules", "lint_source", "run_lint"),
        "repro.lint.findings": ("Finding", "LintReport", "Suppression"),
        "repro.lint.report": ("render_json", "render_text"),
    },
)
