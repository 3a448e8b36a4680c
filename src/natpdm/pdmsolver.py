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
refined twin, as many as a Sturm count finds below the thresholds, each
certified by a second (numerics.lowest_eigenvalues), then adjudicate
every closed-form spectrum claim.  verify_spectrum returns its report
as the plain dict that `natpdm spectrum` prints, under the same keys;
the CLI adds only the gates and the JSON encoding.
"""

from __future__ import annotations

import math

import numpy as np

from .ginocchio import params_for, potential_on_x_grid, spectrum_closed_form
from .masses import MassProfile, constant_mass, rational_mass
from .natanzon import OrderingParams, solve_spectrum
from .numerics import Grid, TridiagonalSymmetric, lowest_eigenvalues, sturm_count

__all__ = [
    "GATES",
    "assemble_hamiltonian",
    "richardson",
    "verify_spectrum",
]

#: the one threshold of each upper-bound gate `natpdm spectrum` applies to
#: a report; verify's mass_independence check takes the same threshold
GATES = {"index_map_mismatch": 5e-3, "eq27_vs_eq34": 1e-9, "mass_independence": 2e-3}


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


def _index_map(mismatch: np.ndarray) -> dict:
    """Eq. 34's own pairing: closed-form level n against numeric level 2n.

    mismatch[i, n] is |numeric level i - closed-form level n|, nan where
    the closed form gives no level n.  Eq. 34's 2n + 1/2 is the derived
    level h = n' + 1/2 at n' = 2n, so the closed form names the even
    numeric levels; each pair both sides give is reported with its mismatch.
    """
    n_numeric, n_closed = mismatch.shape
    pairs = [{"analytic_n": n, "numeric_n": 2 * n, "mismatch": float(mismatch[2 * n, n])}
             for n in range(n_closed)
             if 2 * n < n_numeric and math.isfinite(mismatch[2 * n, n])]
    return {"max_mismatch": max((p["mismatch"] for p in pairs), default=None), "pairs": pairs}


def verify_spectrum(gamma: float, j: float, mass: MassProfile, ordering: OrderingParams,
                    grid: Grid) -> dict:
    """Adjudicate the quantization roots and the closed-form levels numerically.

    Runs the Hamiltonian with the potential V_hyp + Um on the grid and
    its half-spacing refinement, lists the three spectra side by side,
    pairs closed-form level n with numeric level 2n, and repeats the numerics
    with a second mass profile to measure mass independence of the bound
    levels: rational:2 beside a constant mass, the unit mass beside
    any other.  One Sturm count finds how many levels each of the four
    matrices (two grids, two masses) has below its threshold min(V(x_min),
    V(x_max)); one lowest_eigenvalues call solves and certifies that many,
    the largest count clipped to 1..coarse rows, coarse levels seeding fine
    ones, and each mass's two grids are Richardson extrapolated.

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

    partner_mass = rational_mass(2.0) if mass.label.startswith("constant") \
        else constant_mass()
    fine_grid = grid.refined()
    matrices, thresholds = [], []
    for m in (mass, partner_mass):
        v_fine = potential_on_x_grid(gamma, j, m, ordering, fine_grid)["V_total"]
        # refined() nests its nodes, so every other fine node is a coarse node
        matrices += [assemble_hamiltonian(m, v_fine[::2], ordering, grid),
                     assemble_hamiltonian(m, v_fine, ordering, fine_grid)]
        thresholds.append(float(min(v_fine[0], v_fine[-1])))
    below = sturm_count(matrices, np.repeat(thresholds, 2)[:, None])
    k = max(1, min(int(below.max()), matrices[0].size))
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
        "best_fit_index_map": _index_map(mismatch),
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
