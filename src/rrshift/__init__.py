"""Radiation-reaction position shift of a charged particle driven by a
one-coordinate electromagnetic potential, computed through independent
routes and cross-verified:

  * direct integration of the linearized equation of motion forced by the
    Lorentz-Dirac self-force,
  * quadrature of that force against the trajectory's kick-response
    (Jacobi) fields,
  * two closed forms derived from the emission amplitude, plus an explicit
    solid-angle quadrature of the same integrand,
  * exact momentum derivatives of the emission amplitudes themselves.

Units: c = 1, Heaviside-Lorentz charge, alpha_c = e^2 / 4 pi, metric +---.
"""

from .dynamics import (
    Kinematics,
    ReflectedTrajectoryError,
    Trajectory,
    integrate_trajectory,
    kinematics,
)
from .lorentz_dirac import ld_coordinate_force
from .parallel import parallel_map, thread_cap
from .potentials import PotentialProfile, SHAPE_NAMES, eval_potential, validate_profile
from .scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario,
    load_scenario,
    scenario_from_dict,
)
from .semiclassical import (
    CutoffWindow,
    EnergyReport,
    ModeFunction,
    ProbabilityReport,
    amplitude_classical,
    amplitude_quantum,
    default_window,
    emission_probability_reduced,
    larmor_radiated_energy,
    radiated_energy,
    shift_from_amplitudes,
    solve_mode_function,
    taper_amplitude,
    window_time_range,
)
from .shift import (
    ROUTE_NAMES,
    AngularIntegrals,
    ShiftReport,
    angular_integrals,
    angular_integrals_quadrature,
    classical_shift_direct,
    classical_shift_green,
    compare_routes,
    shift_quantum_closed,
    shift_quantum_quadrature,
    sphere_quadrature,
)
from .variational import (
    JacobiBasis,
    Perturbation,
    hamiltonian_hessian,
    jacobi_basis,
    retarded_perturbation,
    symplectic_product,
)
from .verify import (
    CRITERION_NAMES,
    CriterionResult,
    SuiteReport,
    hbar_convergence,
    run_criterion,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # potentials
    "PotentialProfile", "SHAPE_NAMES", "eval_potential", "validate_profile",
    # dynamics
    "Trajectory", "Kinematics", "ReflectedTrajectoryError",
    "integrate_trajectory", "kinematics",
    # self-force
    "ld_coordinate_force",
    # variational machinery
    "JacobiBasis", "Perturbation", "hamiltonian_hessian", "jacobi_basis",
    "retarded_perturbation", "symplectic_product",
    # shift routes
    "ROUTE_NAMES", "AngularIntegrals", "ShiftReport", "angular_integrals",
    "angular_integrals_quadrature", "classical_shift_direct",
    "classical_shift_green", "compare_routes", "shift_quantum_closed",
    "shift_quantum_quadrature", "sphere_quadrature",
    # emission
    "CutoffWindow", "EnergyReport", "ModeFunction", "ProbabilityReport",
    "amplitude_classical", "amplitude_quantum", "default_window",
    "emission_probability_reduced", "larmor_radiated_energy", "radiated_energy",
    "shift_from_amplitudes", "solve_mode_function", "taper_amplitude", "window_time_range",
    # scenarios and verification
    "Scenario", "ScenarioError", "bundled_scenario", "load_scenario",
    "scenario_from_dict",
    "CRITERION_NAMES", "CriterionResult", "SuiteReport", "hbar_convergence",
    "run_criterion", "run_suite",
    # execution
    "parallel_map", "thread_cap",
]
