"""2D advection PDE solver: serial reference and domain-decomposed MPI version."""

from .advection import (AdvectionProblem, DiffusionProblem, gaussian_hump,
                        sinusoid)
from .decomposition import SlabDecomposition, choose_axis
from .lax_wendroff import (FLOPS_PER_POINT, SerialAdvectionSolver,
                           courant_numbers, initial_slab, lw_step_interior,
                           lw_step_periodic, nodal_view, periodic_from_initial,
                           periodic_from_nodal)
from .norms import l1, l2, linf
from .parallel_solver import DistributedAdvectionSolver
from .parallel_solver2d import Distributed2DAdvectionSolver, choose_dims
from .verification import (convergence_study, observed_orders,
                           richardson_error_estimate)

__all__ = [
    "AdvectionProblem", "DiffusionProblem", "sinusoid", "gaussian_hump",
    "SerialAdvectionSolver", "DistributedAdvectionSolver",
    "Distributed2DAdvectionSolver", "choose_dims",
    "SlabDecomposition", "choose_axis",
    "convergence_study", "observed_orders", "richardson_error_estimate",
    "lw_step_periodic", "lw_step_interior", "nodal_view",
    "periodic_from_nodal", "periodic_from_initial", "initial_slab",
    "courant_numbers",
    "FLOPS_PER_POINT",
    "l1", "l2", "linf",
]
