"""Independent numerical oracle for the analytic spectra.

Discretizes the von Roos Hamiltonian

    H = -(1/2m) d^2/dx^2 + (m'/2m^2) d/dx
        + (1+eps) m''/(4 m^2) - [eta(eta+eps+1)+eps+1] m'^2/(2 m^3) + V(x)

for an arbitrary mass profile, ordering choice and sampled potential.
The kinetic part is discretized in its exactly equivalent flux form
-(1/2) d/dx (1/m) d/dx with midpoint mass averages, which keeps the
matrix symmetric (real eigenvalues guaranteed) and is second order in
the spacing.  Bound-state energies from LAPACK bisection (dstebz), every
matrix of a request certified by one Sturm sweep
(numerics.lowest_eigenvalues), then adjudicate every closed-form
spectrum claim.  verify_spectrum returns its report as the plain dict
that `natpdm spectrum` prints, under the same keys; the CLI adds only the
gates and the JSON encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ginocchio import params_for, potential_on_x_grid, spectrum_closed_form
from .masses import MassProfile, constant_mass, rational_mass
from .natanzon import OrderingParams, solve_spectrum
from .numerics import Grid, TridiagonalSymmetric, lowest_eigenvalues

__all__ = [
    "BoundStateResult",
    "assemble_hamiltonian",
    "solve_bound_states",
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


@dataclass(frozen=True)
class BoundStateResult:
    """Richardson-extrapolated lowest eigenvalues of one problem, ascending.

    convergence_estimate holds the observed two-grid change of each level.
    """

    energies: np.ndarray
    convergence_estimate: np.ndarray

    @classmethod
    def extrapolated(cls, coarse, fine) -> "BoundStateResult":
        """(4 fine - coarse)/3 from the levels of a matrix and of its refined twin."""
        extrapolated = (4.0 * fine - coarse) / 3.0
        # one permutation sorts the levels and keeps each estimate with its level
        order = np.argsort(extrapolated, kind="stable")
        return cls(energies=extrapolated[order],
                   convergence_estimate=np.abs(fine - coarse)[order])

    def bound_below(self, threshold: float) -> np.ndarray:
        return self.energies[self.energies < threshold]


def solve_bound_states(pairs, k: int) -> list:
    """k lowest eigenvalues of each (coarse, fine) pair, Richardson extrapolated.

    In each pair, fine must be assembled on Grid.refined() of the grid
    coarse was assembled on (exactly half the spacing); second-order
    convergence then cancels the leading error term as
    (4 E_fine - E_coarse)/3.  Every matrix of every pair goes to one
    lowest_eigenvalues call, so one Sturm sweep certifies them all.
    Returns one BoundStateResult per pair, in order.
    """
    levels = lowest_eigenvalues([matrix for pair in pairs for matrix in pair], k)
    return [BoundStateResult.extrapolated(coarse, fine)
            for coarse, fine in zip(levels[0::2], levels[1::2])]


def _best_fit_index_map(numeric: np.ndarray, closed: list) -> dict:
    """Index map analytic-n -> alpha * n minimizing the worst mismatch.

    Only alpha in {1, 2} is searched; anything that still mismatches
    badly is reported as UNMATCHED rather than forced.
    """
    best = {"alpha": None, "max_mismatch": None, "pairs": [], "status": "UNMATCHED"}
    for alpha in (1, 2):
        pairs = []
        for n, e_closed in enumerate(closed):
            idx = alpha * n
            if e_closed is None or not math.isfinite(e_closed):
                continue
            if idx >= numeric.size:
                continue
            pairs.append((n, idx, abs(float(numeric[idx]) - e_closed)))
        if not pairs:
            continue
        worst = max(p[2] for p in pairs)
        if best["max_mismatch"] is None or worst < best["max_mismatch"]:
            best = {"alpha": alpha, "max_mismatch": worst,
                    "pairs": [{"analytic_n": p[0], "numeric_n": p[1], "mismatch": p[2]}
                              for p in pairs],
                    "status": "MATCHED"}
    if best["max_mismatch"] is not None and best["max_mismatch"] > 0.05:
        best["status"] = "UNMATCHED"
    return best


def _hamiltonian_pair(gamma, j, mass, ordering, grid, quad_tol):
    """Coarse and fine Hamiltonians of one mass, and its bound threshold."""
    fine_grid = grid.refined()
    v_fine = potential_on_x_grid(gamma, j, mass, ordering, fine_grid, tol=quad_tol).v_total
    # refined() nests its nodes, so every other fine node is a coarse node
    pair = (assemble_hamiltonian(mass, v_fine[::2], ordering, grid),
            assemble_hamiltonian(mass, v_fine, ordering, fine_grid))
    return pair, float(min(v_fine[0], v_fine[-1]))


def verify_spectrum(gamma: float, j: float, mass: MassProfile, ordering: OrderingParams,
                    grid: Grid, quad_tol: float = 1e-10) -> dict:
    """Adjudicate the quantization roots and the closed-form levels numerically.

    Runs the Hamiltonian with the potential V_hyp + Um on the grid and
    its half-spacing refinement, lists the three spectra side by side,
    fits the analytic-n to numeric-n index map, and repeats the numerics
    with a second mass profile to measure mass independence of the bound
    levels: rational:2 beside a constant mass, the unit mass beside
    any other.  The four matrices (two grids, two masses) are solved in one
    solve_bound_states call, so one Sturm sweep certifies them.

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
    k = max(n_top + 2, 2)

    partner_mass = rational_mass(2.0) if mass.label.startswith("constant") \
        else constant_mass()
    pair, threshold = _hamiltonian_pair(gamma, j, mass, ordering, grid, quad_tol)
    partner_pair, partner_threshold = _hamiltonian_pair(gamma, j, partner_mass, ordering,
                                                        grid, quad_tol)
    result, partner_result = solve_bound_states([pair, partner_pair], k)
    numeric_bound = result.bound_below(threshold)
    partner_bound = partner_result.bound_below(partner_threshold)

    closed = []
    for n in range(n_top + 1):
        try:
            closed.append(spectrum_closed_form(gamma, j, n))
        except ValueError:
            closed.append(float("nan"))
    quant = solve_spectrum(params_for(gamma, j), n_top)

    n_common = min(numeric_bound.size, partner_bound.size)
    level_diffs = [abs(float(a - b)) for a, b in
                   zip(numeric_bound[:n_common], partner_bound[:n_common])]

    return {
        "gamma": gamma,
        "j": j,
        "ordering": {"eta": ordering.eta, "epsilon": ordering.epsilon, "rho": ordering.rho},
        "energies_numeric": [float(e) for e in numeric_bound],
        "energies_eq27": [float(e) for e in quant],
        "energies_eq34": closed,
        "residuals": {
            "numeric_vs_eq34_matrix": [
                [abs(float(e_num) - e_cl) if math.isfinite(e_cl) else float("nan")
                 for e_cl in closed] for e_num in numeric_bound],
            "eq27_vs_eq34": [
                abs(q - c) if math.isfinite(q) and math.isfinite(c) else float("nan")
                for q, c in zip(quant, closed)],
        },
        "best_fit_index_map": _best_fit_index_map(numeric_bound, closed),
        "mass_independence": {
            "mass": mass.label,
            "partner_mass": partner_mass.label,
            "partner_energies": [float(e) for e in partner_bound],
            "level_diffs": level_diffs,
            "max_diff": max(level_diffs) if level_diffs else None,
        },
        # the bound levels lead the ascending energies: one estimate each
        "convergence_estimates": [float(c) for c in
                                  result.convergence_estimate[:numeric_bound.size]],
        "bound_threshold": threshold,
    }
