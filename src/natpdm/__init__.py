"""Natanzon-class and Ginocchio potentials on a position-dependent-mass background.

A numpy library built around five pieces: a self-contained numerical
kernel (`numerics`), the strip-to-disk conformal pipeline (`conformal`),
the su(1,1) ladder realization with its residual checks (`algebra`), the
energy-linear potential construction (`natanzon`), its two-parameter
specialization (`ginocchio`), and a finite-difference von Roos
eigensolver (`pdmsolver`) that adjudicates every closed form numerically.
The seeded property suites behind `natpdm verify` live in `verify`.
"""

from . import algebra, conformal, ginocchio, masses, natanzon, numerics, pdmsolver
from .algebra import (
    GroupLabels,
    SectorFunction,
    SmoothMap,
    Su11Realization,
    allowed_j0,
    casimir_residual,
    commutator_residual,
    constraint_residuals,
    g_weight,
    gaussian_sector_function,
    labels_from_j,
    ladder_apply,
    su11_functions,
    tanh_map,
)
from .conformal import (
    MobiusCoeffs,
    conformality_residual,
    disk_to_halfplane,
    exp_map,
    halfplane_to_disk,
    mobius_from_three_points,
    rotate_dilate,
    strip_to_disk,
    xi_of_z,
)
from .ginocchio import (
    GinocchioSpec,
    PotentialTable,
    invert_mu,
    mass_integral,
    mu_closed_form,
    params_for,
    potential_on_x_grid,
    spectrum_closed_form,
    v_hyperbolic,
    v_polynomial,
    y_of_u,
)
from .masses import (
    MassProfile,
    constant_mass,
    exponential_well_mass,
    parse_mass,
    rational_mass,
)
from .natanzon import (
    BEN_DANIEL_DUKE,
    CoordinateMap,
    EnergyCoeffs,
    NatanzonParams,
    OrderingParams,
    coeffs_at_energy,
    generating_function,
    mass_correction_terms,
    natanzon_potential,
    quantization_residual,
    r_polynomial,
    solve_coordinate_map,
    solve_spectrum,
)
from .numerics import (
    Grid,
    TridiagonalSymmetric,
    derivative,
    bisect,
    grid_derivative,
    integrate,
    lowest_eigenvalues,
    sturm_count,
)
from .pdmsolver import (
    BoundStateResult,
    SpectrumReport,
    assemble_hamiltonian,
    solve_bound_states,
    verify_spectrum,
)

__version__ = "0.1.0"
