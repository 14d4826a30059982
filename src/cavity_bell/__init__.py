"""Entangled Bernoulli states of two cavity fields.

Analytic field statistics and CHSH Bell functions for superpositions of
one-photon binomial states in two separate single-mode cavities, together
with a simulation of the atom-based protocol that measures and generates
them. Closed forms and protocol unitaries are kept side by side so every
number can be checked two independent ways.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the submodule that defines them. A name is imported
#: from its submodule on first access, so ``import cavity_bell`` and the
#: command-line parser load no numpy; ``from cavity_bell import *`` loads all.
_EXPORTS = {
    "bell": (
        "BellConfig", "DichotomicParams", "analytic_s_b", "angle_preset",
        "bell_correlation", "bell_function", "bell_function_operator",
        "degree_of_entanglement", "dichotomic_eigenstates",
        "dichotomic_operator", "eta_for_degree", "optimal_p_scan", "preset_config",
        "violation_threshold",
    ),
    "binomial": (
        "BinomialParams", "GbsParams", "binomial_overlap", "binomial_state", "gbs_state",
        "orthogonal_partner", "wrap_angle",
    ),
    "constants": ("DEFAULT_N_MAX",),
    "dynamics": (
        "ALPHA_THRESHOLD", "BellEstimate", "DetectionReport", "ExperimentConfig",
        "GenerationResult", "InitialAtomPair", "detection_threshold_check",
        "generate_entangled_gbs", "probe_measure", "run_bell_experiment", "timing_sensitivity",
    ),
    "fields": (
        "EntangledGbsParams", "FieldStats", "entangled_gbs_state", "field_covariance",
    ),
    "fock": (
        "FieldOperator", "RandomStream", "StateVector", "TwoCavityState", "expectation",
        "fidelity", "inner", "quadrature", "tensor",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
