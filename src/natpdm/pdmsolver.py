"""Independent numerical oracle for the analytic spectra.

Discretizes the von Roos Hamiltonian

    H = -(1/2m) d^2/dx^2 + (m'/2m^2) d/dx
        + (1+eps) m''/(4 m^2) - [eta(eta+eps+1)+eps+1] m'^2/(2 m^3) + V(x)

for an arbitrary mass profile, ordering choice and sampled potential.
The kinetic part is discretized in its exactly equivalent flux form
-(1/2) d/dx (1/m) d/dx with midpoint mass averages, which keeps the
matrix symmetric (real eigenvalues guaranteed) and is second order in
the spacing.  Bound-state energies from LAPACK bisection (dstebz) on each
coarse grid and inverse iteration (dstein) from those levels on its
refined twin, every matrix of a request certified by one Sturm count
(numerics.lowest_eigenvalues), then adjudicate every closed-form
spectrum claim.  verify_spectrum returns its report as the plain dict
that `natpdm spectrum` prints, under the same keys; the CLI adds only the
gates and the JSON encoding.
"""

from __future__ import annotations

import math

import numpy as np

from .ginocchio import params_for, potential_on_x_grid, spectrum_closed_form
from .masses import MassProfile, constant_mass, rational_mass
from .natanzon import OrderingParams, solve_spectrum
from .numerics import Grid, TridiagonalSymmetric, lowest_eigenvalues

__all__ = [
    "assemble_hamiltonian",
    "richardson",
    "verify_spectrum",
]


def assemble_hamiltonian(mass: MassProfile, potential: np.ndarray,
                         ordering: OrderingParams, grid: Grid) -> TridiagonalSymmetric:
    """Symmetric tridiagonal matrix of the Hamiltonian on the interior nodes.

    The grid endpoints carry Dirichlet conditions, so the matrix acts on
    the n_points - 2 interior nodes.  potential must be sampled on the
    full grid.  The two kinetic terms are discretized together as
    -(1/2) d/dx (1/m) d/dx with 1/m evaluated at the cell midpoints; the
    ordering terms and V go on the diagonal.
    """
    pts = grid.points
    v = np.asarray(potential, dtype=float)
    if v.shape != pts.shape:
        raise ValueError(f"potential sampled on {v.shape}, grid has {pts.shape}")
    # as a Python float, 2 h^2 past the double range is inf without an
    # overflow warning, so the kinetic terms round to their value 0
    h = float(grid.spacing)
    w = 1.0 / mass.require_positive(grid.midpoints)  # w[i] couples node i and node i+1
    m_i = mass.require_positive(pts)[1:-1]

    xi = pts[1:-1]
    mp = np.asarray(mass.m_prime(xi), dtype=float)
    mpp = np.asarray(mass.m_double_prime(xi), dtype=float)
    eta, eps = ordering.eta, ordering.epsilon
    ordering_terms = (1.0 + eps) * mpp / (4.0 * m_i * m_i) \
        - (eta * (eta + eps + 1.0) + eps + 1.0) * mp * mp / (2.0 * m_i ** 3)

    diag = (w[:-1] + w[1:]) / (2.0 * h * h) + ordering_terms + v[1:-1]
    off = -w[1:-1] / (2.0 * h * h)
    return TridiagonalSymmetric(diag, off)


def richardson(coarse, fine):
    """(levels, |fine - coarse|) of (4 fine - coarse)/3, each row ascending.

    coarse and fine hold the levels of matrices assembled on a grid and on
    its Grid.refined() twin (exactly half the spacing), one matrix per row;
    second-order convergence then cancels the leading error term.  One
    stable permutation per row sorts the levels and keeps each two-grid
    change with its level.
    """
    levels = (4.0 * fine - coarse) / 3.0
    order = np.argsort(levels, axis=-1, kind="stable")
    return (np.take_along_axis(levels, order, axis=-1),
            np.take_along_axis(np.abs(fine - coarse), order, axis=-1))


def _best_fit_index_map(mismatch: np.ndarray) -> dict:
    """Index map analytic-n -> alpha * n minimizing the worst mismatch.

    mismatch[i, n] is |numeric level i - closed-form level n|, nan where
    the closed form gives no level n.  Only alpha in {1, 2} is searched;
    anything that still mismatches badly is reported as UNMATCHED rather
    than forced.
    """
    best = {"alpha": None, "max_mismatch": None, "pairs": [], "status": "UNMATCHED"}
    n_numeric, n_closed = mismatch.shape
    for alpha in (1, 2):
        pairs = [{"analytic_n": n, "numeric_n": alpha * n,
                  "mismatch": float(mismatch[alpha * n, n])} for n in range(n_closed)
                 if alpha * n < n_numeric and math.isfinite(mismatch[alpha * n, n])]
        if not pairs:
            continue
        worst = max(p["mismatch"] for p in pairs)
        if best["max_mismatch"] is None or worst < best["max_mismatch"]:
            best = {"alpha": alpha, "max_mismatch": worst, "pairs": pairs,
                    "status": "MATCHED" if worst <= 0.05 else "UNMATCHED"}
    return best


def verify_spectrum(gamma: float, j: float, mass: MassProfile, ordering: OrderingParams,
                    grid: Grid, quad_tol: float = 1e-10) -> dict:
    """Adjudicate the quantization roots and the closed-form levels numerically.

    Runs the Hamiltonian with the potential V_hyp + Um on the grid and
    its half-spacing refinement, lists the three spectra side by side,
    fits the analytic-n to numeric-n index map, and repeats the numerics
    with a second mass profile to measure mass independence of the bound
    levels: rational:2 beside a constant mass, the unit mass beside
    any other.  The four matrices (two grids, two masses) are solved in one
    lowest_eigenvalues call, so one Sturm count certifies them, the coarse
    grid's levels seeding the fine grid's, and each mass's two grids are
    Richardson extrapolated.

    Returns the report under the keys `natpdm spectrum` prints:
    energies_eq27 are the quantization roots, energies_eq34 the closed-form
    levels, and residuals compares them.  A level that the identity or the
    closed form does not give is nan.  Raises ValueError for gamma <= 0 or
    j < 0.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if j < 0.0:
        raise ValueError(f"j must be non-negative, got {j}")
    n_top = int(math.floor(j))
    k = n_top + 2

    partner_mass = rational_mass(2.0) if mass.label.startswith("constant") \
        else constant_mass()
    fine_grid = grid.refined()
    matrices, thresholds = [], []
    for m in (mass, partner_mass):
        v_fine = potential_on_x_grid(gamma, j, m, ordering, fine_grid, tol=quad_tol)["V_total"]
        # refined() nests its nodes, so every other fine node is a coarse node
        matrices += [assemble_hamiltonian(m, v_fine[::2], ordering, grid),
                     assemble_hamiltonian(m, v_fine, ordering, fine_grid)]
        thresholds.append(float(min(v_fine[0], v_fine[-1])))
    # each coarse grid's levels seed its refined twin's
    levels = lowest_eigenvalues(matrices, k, seeds_from=(None, 0, None, 2))
    energies, changes = richardson(levels[0::2], levels[1::2])
    numeric_bound, partner_bound = (e[e < t] for e, t in zip(energies, thresholds))

    closed = []
    for n in range(n_top + 1):
        try:
            closed.append(spectrum_closed_form(gamma, j, n))
        except ValueError:
            closed.append(float("nan"))
    quant = solve_spectrum(params_for(gamma, j), n_top)
    # nan wherever the closed form gives no level
    mismatch = np.abs(numeric_bound[:, None] - np.array(closed))

    n_common = min(numeric_bound.size, partner_bound.size)
    level_diffs = np.abs(numeric_bound[:n_common] - partner_bound[:n_common]).tolist()

    return {
        "gamma": gamma,
        "j": j,
        "ordering": {"eta": ordering.eta, "epsilon": ordering.epsilon, "rho": ordering.rho},
        "energies_numeric": numeric_bound.tolist(),
        "energies_eq27": quant.tolist(),
        "energies_eq34": closed,
        "residuals": {
            "numeric_vs_eq34_matrix": mismatch.tolist(),
            "eq27_vs_eq34": np.abs(quant - closed).tolist(),
        },
        "best_fit_index_map": _best_fit_index_map(mismatch),
        "mass_independence": {
            "mass": mass.label,
            "partner_mass": partner_mass.label,
            "partner_energies": partner_bound.tolist(),
            "level_diffs": level_diffs,
            "max_diff": max(level_diffs) if level_diffs else None,
        },
        # the bound levels lead the ascending energies: one estimate each
        "convergence_estimates": changes[0, :numeric_bound.size].tolist(),
        "bound_threshold": thresholds[0],
    }
