"""Capacities, boundary spectra, and two-sided eigenvalue bounds on weighted
graphs, with exhaustion limits for a few infinite families.

Set ISOCAP_THREADS before importing to cap the BLAS thread pools; it only
takes effect if this package is imported before numpy.
"""

import os as _os

_threads = _os.environ.get("ISOCAP_THREADS")
if _threads:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .errors import (BudgetError, DomainError, InfeasibleError, InputError,
                     SingularMatrixError)
from .infinity import INFINITE, is_infinite
from .graph_core import (SteklovDomain, WeightedGraph, energy, green_residual,
                         laplacian_apply, make_domain, normal_derivative,
                         vertex_boundary)
from .linear_core import (SpectralResult, solve_spd, stiffness_matrix,
                          sym_eig_generalized)
from .capacity import (CapacityResult, cap, cap_exhaustion, cap_to_boundary,
                       coarea_value, equilibrium_potential)
from .spectra import (DtnOperator, WeightSchedule, default_schedule,
                      dirichlet_spectrum, dtn_operator, grounded_dtn_spectrum,
                      harmonic_extension, hm_dtn_spectrum, neumann_spectrum,
                      steklov_spectrum, vanishing_weight_spectrum)
from .constants import (Budget, ConstantResult, LimitReport, alpha_dirichlet,
                        alpha_dirichlet_limit, alpha_ds, alpha_neumann,
                        alpha_steklov, alpha_steklov_limit, beta_steklov,
                        beta_tuple, gamma_k_dirichlet,
                        gamma_k_steklov, gamma_tilde_dirichlet, kappa_steklov)
from .infinite_families import (FamilySpec, FamilyStep, default_source,
                                generate, generate_steps,
                                half_space_capacity_bound,
                                half_space_test_field, line_domain, path_graph,
                                t3_example)
from .verify import BoundReport, EqualityReport, check, check_equality_case
from .testing import random_connected_graph, random_domain
from .cli_io import emit_graph, parse_graph, run_command, to_json
