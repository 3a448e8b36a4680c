import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natpdm import cli, numerics
from natpdm.masses import MASS_REGISTRY, parse_mass, travel_coordinate
from natpdm.numerics import Grid

TOL = 1e-10
POINT = st.floats(-12.0, 12.0)


@st.composite
def points_and_anchor(draw):
    x = draw(st.lists(POINT, min_size=1, max_size=40))
    if draw(st.booleans()):
        x.sort()
    return np.array(x), draw(POINT)


@pytest.mark.parametrize("name", sorted(MASS_REGISTRY))
@settings(max_examples=40, deadline=None)
@given(case=points_and_anchor())
def test_travel_coordinate_matches_per_point_quadrature(name, case):
    x, x0 = case
    mass = parse_mass(name)
    mu = travel_coordinate(mass, x, x0, TOL)
    # oracle: each mu integrated on its own from the anchor
    each = numerics.integrate(lambda t: np.sqrt(2.0 * mass.m(t)), x0, x, TOL)
    # integrate accepts a panel at |err| <= 15 tol (1 + |integral|), and the
    # value it returns may be off by about that much.  mu_i sums up to n
    # cells and the anchor interval, which together span at most 3 max|mu|,
    # and the oracle adds one interval of at most max|mu|
    bound = 15.0 * TOL * (x.size + 1 + 4.0 * np.max(np.abs(each)))
    assert np.max(np.abs(mu - each)) <= bound
    order = np.argsort(x, kind="stable")
    assert np.all(np.diff(mu[order]) >= 0.0)


def cumsum_less_anchor(mass, x, x0, tol):
    """Every mu as the cumulative cell sum less the quadrature from the first point to x0."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cells = numerics.integrate(lambda t: np.sqrt(2.0 * mass.m(t)),
                               np.append(xs[:-1], xs[0]), np.append(xs[1:], x0), tol)
    mu = np.cumsum(np.concatenate(([0.0], cells[:-1]))) - cells[-1]
    return mu[np.argsort(order)]


@pytest.mark.parametrize("name", sorted(MASS_REGISTRY))
@settings(max_examples=40, deadline=None)
@given(case=points_and_anchor(), at=st.lists(st.integers(0, 40), max_size=3))
def test_points_at_the_anchor_are_exactly_zero(name, case, at):
    # the sum less the anchor interval leaves about 1e-13 where x = x0, and
    # can give a point that close to x0 the wrong sign; every other point
    # keeps that formula's floats
    x, x0 = case
    x = np.insert(x, np.minimum(np.array(at, dtype=int), x.size), x0)
    mass = parse_mass(name)
    mu = travel_coordinate(mass, x, x0, TOL)
    anchor = x == x0
    assert np.count_nonzero(anchor) >= len(at)
    assert np.all(mu[anchor] == 0.0) and not np.any(np.signbit(mu[anchor]))
    want = cumsum_less_anchor(mass, x, x0, TOL)
    wrong_side = np.sign(want) * np.sign(x - x0) < 0.0
    assert np.all(mu[wrong_side] == 0.0)
    kept = ~anchor & ~wrong_side
    assert np.array_equal(mu[kept].view(np.int64), want[kept].view(np.int64))


def test_potential_table_is_zero_at_the_anchor_row(capsys):
    # the quadrature from -12 to 0 is off by about -2.7e-13; none of it may
    # reach the anchor row's mu, u or z
    assert cli.main(["potential", "--format=json", "--grid=-12,12,2401", "--gamma=0.8",
                     "--mass=rational:2"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["x"][1200] == 0.0
    assert table["mu"][1200] == table["u"][1200] == table["z"][1200] == 0.0


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(30)


def gauss_legendre(mass, a, b, subcells=20):
    """int_a^b sqrt(2 m) per interval: 30 Gauss-Legendre points on each of 20 subcells."""
    edges = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, subcells + 1)
    half = 0.5 * np.diff(edges, axis=1)
    t = 0.5 * (edges[:, 1:] + edges[:, :-1])[..., None] + half[..., None] * GL_NODES
    return np.sum(half * np.sum(GL_WEIGHTS * np.sqrt(2.0 * mass.m(t)), axis=-1), axis=-1)


@pytest.mark.parametrize("n_points", [1201, 2401])
@pytest.mark.parametrize("spec", [f"{name}:{end}" for name, (_, ends) in MASS_REGISTRY.items()
                                  for end in ends])
def test_cells_on_cli_grids_are_not_fooled(spec, n_points):
    # the acceptance test can pass on a first estimate whose five samples
    # miss the integrand's shape; on the CLI's grids no cell of any
    # registry mass, at either end of its range, comes out so
    mass = parse_mass(spec)
    x = Grid(-12.0, 12.0, n_points).points
    cells = np.diff(travel_coordinate(mass, x, 0.0, TOL))
    reference = gauss_legendre(mass, x[:-1], x[1:])
    assert np.all(np.abs(cells - reference) <= 15.0 * TOL * (1.0 + np.abs(reference)))
