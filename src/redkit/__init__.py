"""Exact oracles, witness-carrying reductions between small hard problems,
and harnesses that machine-check every reduction and certificate contract.

The package loads nothing at import time.  Each name in ``__all__`` is
resolved on first access (PEP 562): an export loads the one submodule that
defines it, and a submodule name loads that submodule.  So
``import redkit.certificates`` loads the certificate schemes and what they
run, not the catalog of reductions, and ``from redkit import *`` loads
everything.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each submodule, and the names ``__all__`` takes from it
_EXPORTS = {
    "catalog": ("REDUCTIONS", "get_reduction"),
    "certificates": ("CertificateScheme", "FULL_SS_SCHEME", "SCHEMES",
                     "UNBOUNDED_SS_SCHEME", "ZKK_SCHEME",
                     "certificate_scheme_check", "nppt_contract_check",
                     "zero_sum_premise_check"),
    "errors": ("ConstructionError", "RedkitError", "ReductionError",
               "ResourceLimitError", "ValidationError"),
    "groups": (),
    "instances": ("AndSatInstance", "CnfInstance", "ColoringInstance",
                  "CounterMachineInstance", "CyclicGroup",
                  "GroupSubsetSumInstance", "IlpInstance", "KnapsackInstance",
                  "ProductGroup", "SchedulingInstance", "SubsetSumInstance",
                  "SymmetricGroup", "UnboundedSubsetSumInstance", "dumps",
                  "loads", "trivial_instance", "validate"),
    "kernels": (),
    "numeric": ("NUMERIC_REDUCTIONS", "graver_check", "graver_sequence"),
    "oracles": ("Verdict", "check_solution", "solve"),
    "pathdecomp": (),
    "pipeline": ("PIPELINE_REDUCTIONS", "red_cm_to_perm_ss",
                 "red_coloring_to_cm"),
    "reductions": ("Reduction", "chain", "compose", "deterministic",
                   "identity_reduction"),
    "satred": ("SAT_REDUCTIONS", "red_3sat_to_ss", "red_andsat_to_scheduling",
               "red_cnf_to_coloring"),
    "witness": ("Witness", "field_width"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
