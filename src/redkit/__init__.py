"""Exact oracles, witness-carrying reductions between small hard problems,
and harnesses that machine-check every reduction and certificate contract.
"""

__version__ = "0.1.0"

from .catalog import REDUCTIONS, get_reduction
from .certificates import (CertificateScheme, FULL_SS_SCHEME, SCHEMES,
                           UNBOUNDED_SS_SCHEME, ZKK_SCHEME,
                           certificate_scheme_check,
                           minimal_solution_bound_check, nppt_contract_check,
                           transfer, zero_sum_premise_check)
from .errors import (ConstructionError, RedkitError, ReductionError,
                     ResourceLimitError, ValidationError)
from .instances import (AndSatInstance, CnfInstance, ColoringInstance,
                        CounterMachineInstance, CyclicGroup,
                        GroupSubsetSumInstance, IlpInstance, KnapsackInstance,
                        ProductGroup, SchedulingInstance, SubsetSumInstance,
                        SymmetricGroup, UnboundedSubsetSumInstance, dumps,
                        loads, trivial_instance, validate)
from .numeric import NUMERIC_REDUCTIONS, graver_check, graver_sequence
from .oracles import Budget, DEFAULT_BUDGET, Verdict, check_solution, solve
from .pipeline import PIPELINE_REDUCTIONS, red_cm_to_perm_ss, \
    red_coloring_to_cm
from .reductions import (Reduction, chain, compose, deterministic,
                         identity_reduction)
from .satred import (SAT_REDUCTIONS, red_3sat_to_ss,
                     red_andsat_to_scheduling, red_cnf_to_coloring)
from .witness import Witness, field_width

__all__ = [name for name in dir() if not name.startswith("_")]
