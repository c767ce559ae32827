"""diffseq: exact engine for constant-coefficient differential sequences.

Everything is computed over the rationals: polynomial matrices in commuting
derivative symbols, their compatibility conditions via module syzygies,
formal adjoints, Spencer delta-cohomology dimensions, and the curvature
tensor bundles of a flat metric.

Importing the package loads none of its modules.  Each exported name, and
each submodule (``diffseq.spencer``), is imported on first use, so a CLI
request that never touches the Spencer route does not pay for it.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("Poly", "ConstantMetric"), "poly"),
    **dict.fromkeys(("GradedPresentation", "reduced_groebner", "normal_form",
                     "syzygies", "minimal_graded_generators", "module_contains",
                     "module_equality"), "groebner"),
    **dict.fromkeys(("DegreeCapExceeded", "ExponentCapExceeded"), "config"),
    **dict.fromkeys(("BundleBasis", "free_basis", "constrained_basis",
                     "tangent_space", "sym2_space", "trace_free_sym2",
                     "riemann_candidate_space", "weyl_candidate_space",
                     "bianchi_candidate_space", "lanczos_constraint_space",
                     "split_riemann"), "bundles"),
    **dict.fromkeys(("OperatorMatrix", "make_operator", "compose", "adjoint",
                     "apply", "compatibility_conditions",
                     "differential_rank"), "operators"),
    **dict.fromkeys(("killing", "conformal_killing", "riemann_linearized",
                     "bianchi", "ricci", "einstein", "exterior_derivative",
                     "lanczos_candidate", "build_sequence", "SequenceReport",
                     "check_parametrization", "parametrization_generators",
                     "ParametrizationVerdict", "double_duality_report",
                     "DoubleDualityReport", "is_self_adjoint_sym2",
                     "weyl_relations_report", "trace_contraction_check",
                     "potential_contradiction_report"), "sequences"),
    **dict.fromkeys(("SymbolSpace", "symbol_of", "prolong", "delta_map",
                     "delta_cohomology_dims", "delta_cohomology_detail",
                     "full_jet_column", "janet_spencer_bundle_dims"), "spencer"),
    **dict.fromkeys(("operator_to_document", "document_to_operator"), "serialize"),
    "run_golden_checks": "golden",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import an exported name's module, or a submodule, on first use."""
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        globals()[name] = value
        return value
    if not name.startswith("_"):
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})
