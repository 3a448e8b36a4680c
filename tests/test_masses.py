import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natpdm import numerics
from natpdm.masses import MASS_REGISTRY, parse_mass, travel_coordinate

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
