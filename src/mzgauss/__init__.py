"""Phase estimation in a Mach-Zehnder interferometer with Gaussian input states.

Quantum Fisher information and the Cramer-Rao bound, exact sensitivities of
three realistic detection schemes at any detector efficiency, the optimal
phase-matching-condition atlas, Heisenberg-scaling analysis, and a truncated
Fock-space oracle that cross-verifies every closed form.
"""

from .detection import (DifferenceIntensity, Homodyne, SensitivityPoint,
                        SingleModeIntensity, observable_mean,
                        observable_variance, optimal_working_point, sensitivity)
from .fisher import FisherMatrix, fisher_matrix, qcrb, qfi, qfi_closed_form
from .heisenberg import PowerFractions, asymptotic_qfi, heisenberg_optima
from .interferometer import BsConvention, MziScenario
from .pmc import (PmcSet, RegimeBoundaries, apply_pmc, boundaries, classify,
                  grid_search_qfi, single_mode_alpha_lim)
from .states import Coherent, GaussianPort, PortMoments, Squeeze, port_moments

__all__ = [
    "BsConvention", "Coherent", "DifferenceIntensity", "FisherMatrix",
    "GaussianPort", "Homodyne", "MziScenario", "PmcSet", "PortMoments",
    "PowerFractions", "RegimeBoundaries", "SensitivityPoint",
    "SingleModeIntensity", "Squeeze", "apply_pmc", "asymptotic_qfi",
    "boundaries", "classify", "fisher_matrix", "grid_search_qfi",
    "heisenberg_optima", "observable_mean", "observable_variance",
    "optimal_working_point", "port_moments", "qcrb", "qfi", "qfi_closed_form",
    "sensitivity", "single_mode_alpha_lim",
]

__version__ = "0.1.0"
