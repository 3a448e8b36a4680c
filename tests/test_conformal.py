import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natpdm import conformal
from natpdm.conformal import (
    BAND_HALF_WIDTH,
    MobiusCoeffs,
    conformality_residual,
    cross_ratio,
    disk_to_halfplane,
    exp_map,
    halfplane_to_disk,
    mobius_from_three_points,
    rotate_dilate,
    sqrt_principal_sheet,
    strip_to_disk,
    xi_of_z,
)

INF = complex(math.inf, math.inf)


# --- oracle: the scalar cmath route, one Python complex at a time, with the
# point at infinity as its own case in the basis map and in the evaluation

def oracle_rotate_dilate(z):
    return 2j * complex(z)


def oracle_exp_map(z):
    return cmath.exp(complex(z))


def oracle_halfplane_to_disk(z):
    z = complex(z)
    if z == -1:
        raise ZeroDivisionError("Z = -1")
    return (z - 1.0) / (1j * (z + 1.0))


def oracle_disk_to_halfplane(w):
    w = complex(w)
    if w == -1j:
        raise ZeroDivisionError("w = -i")
    return (1.0 + 1j * w) / (1.0 - 1j * w)


def oracle_strip_to_disk(z):
    return oracle_halfplane_to_disk(oracle_exp_map(oracle_rotate_dilate(z)))


def oracle_sqrt_principal_sheet(w):
    w = complex(w)
    if w == 0:
        return 0j
    theta = cmath.phase(w)
    if theta < 0.0:
        theta += 2.0 * math.pi
    return math.sqrt(abs(w)) * cmath.exp(0.5j * theta)


def oracle_xi_of_z(z):
    t = oracle_sqrt_principal_sheet(z)
    return (1.0 + 1j * t) / (1.0 - 1j * t)


def oracle_basis_coeffs(z1, z2, z3):
    if cmath.isinf(z1):
        return (0.0, z2 - z3, 1.0, -z3)
    if cmath.isinf(z2):
        return (1.0, -z1, 1.0, -z3)
    if cmath.isinf(z3):
        return (1.0, -z1, 0.0, z2 - z1)
    return (z2 - z3, -z1 * (z2 - z3), z2 - z1, -z3 * (z2 - z1))


def oracle_mobius_from_three_points(z1, z2, z3, w1, w2, w3):
    # inverse of the w basis map, composed with the z basis map
    a, b, c, d = oracle_basis_coeffs(*(complex(v) for v in (w1, w2, w3)))
    e, f, g, h = oracle_basis_coeffs(*(complex(v) for v in (z1, z2, z3)))
    a, b, c, d = d, -b, -c, a
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def oracle_conformality_residual(map_fn, at, h):
    at = complex(at)
    fx = (map_fn(at + h) - map_fn(at - h)) / (2.0 * h)
    fy = (map_fn(at + 1j * h) - map_fn(at - 1j * h)) / (2.0 * h)
    return max(abs(fx.real - fy.imag), abs(fy.real + fx.imag))


def bits(values):
    """The IEEE bit patterns of complex values, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=complex).view(np.uint64)


def band_points(seed, n=2000):
    rng = np.random.default_rng(seed)
    return rng.uniform(-BAND_HALF_WIDTH, BAND_HALF_WIDTH, n) + 1j * rng.uniform(-3.0, 3.0, n)


def chordal(u, v):
    """Distance on the Riemann sphere; any value with an infinite part is infinity."""
    def pair(z):
        # homogeneous coordinates with entries of modulus at most 1
        z = complex(z)
        if cmath.isinf(z):
            return 1.0, 0.0
        return (1.0, 1.0 / z) if abs(z) > 1.0 else (z, 1.0)

    (pu, qu), (pv, qv) = pair(u), pair(v)
    norms = (abs(pu) ** 2 + abs(qu) ** 2) * (abs(pv) ** 2 + abs(qv) ** 2)
    return 2.0 * abs(pu * qv - pv * qu) / math.sqrt(norms)


class TestElementaryMaps:
    def test_rotate_dilate(self):
        assert rotate_dilate(1.0) == 2j
        assert rotate_dilate(1j) == -2.0
        assert rotate_dilate(math.pi / 4) == pytest.approx((math.pi / 2) * 1j)

    def test_exp_map(self):
        assert exp_map(0.0) == 1.0
        assert exp_map(0.5j * math.pi) == pytest.approx(1j, abs=1e-15)
        assert exp_map(math.log(2.0)) == pytest.approx(2.0)

    def test_exp_overflow(self):
        with pytest.raises(OverflowError):
            exp_map(1e9)

    def test_halfplane_to_disk_anchors(self):
        assert halfplane_to_disk(1.0) == 0.0
        assert halfplane_to_disk(1j) == pytest.approx(1.0, abs=1e-15)
        assert halfplane_to_disk(0.0) == pytest.approx(1j, abs=1e-15)
        assert halfplane_to_disk(-1j) == pytest.approx(-1.0, abs=1e-15)

    def test_halfplane_pole(self):
        with pytest.raises(ZeroDivisionError, match="Z = -1"):
            halfplane_to_disk(-1.0)

    def test_disk_to_halfplane(self):
        assert disk_to_halfplane(0.0) == 1.0
        assert disk_to_halfplane(1.0) == pytest.approx(1j, abs=1e-15)
        assert disk_to_halfplane(-1.0) == pytest.approx(-1j, abs=1e-15)
        with pytest.raises(ZeroDivisionError, match="w = -i"):
            disk_to_halfplane(-1j)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        r = 0.999 * np.sqrt(rng.uniform(0.0, 1.0, 100))
        th = rng.uniform(0.0, 2.0 * math.pi, 100)
        for w in r * np.exp(1j * th):
            w = complex(w)
            assert abs(halfplane_to_disk(disk_to_halfplane(w)) - w) < 1e-12


class TestStripToDisk:
    def test_equals_tan_on_band(self):
        rng = np.random.default_rng(1)
        zs = rng.uniform(-BAND_HALF_WIDTH, BAND_HALF_WIDTH, 1000) \
            + 1j * rng.uniform(-2.0, 2.0, 1000)
        worst = max(abs(strip_to_disk(complex(z)) - cmath.tan(complex(z))) for z in zs)
        assert worst < 1e-12

    def test_anchor_values(self):
        assert strip_to_disk(math.pi / 4) == pytest.approx(1.0, abs=1e-14)
        assert strip_to_disk(0.0) == 0.0
        # limit toward i along the imaginary axis; oracle cmath.tan
        assert strip_to_disk(5j) == pytest.approx(1j * math.tanh(5.0), abs=1e-14)
        assert abs(strip_to_disk(5j) - 1j) < 1e-4

    def test_band_interior_to_disk(self):
        rng = np.random.default_rng(2)
        zs = rng.uniform(-BAND_HALF_WIDTH, BAND_HALF_WIDTH, 300) \
            + 1j * rng.uniform(-3.0, 3.0, 300)
        assert all(abs(strip_to_disk(complex(z))) <= 1.0 + 1e-12 for z in zs)

    def test_real_segment_to_real_diameter(self):
        for x in np.linspace(-BAND_HALF_WIDTH, BAND_HALF_WIDTH, 101):
            w = strip_to_disk(complex(x, 0.0))
            assert abs(w.imag) < 1e-12
            assert abs(w.real) <= 1.0 + 1e-12

    def test_band_boundary_to_unit_circle(self):
        # the vertical boundary lines Re z = +-pi/4 land on |w| = 1
        for sign in (-1.0, 1.0):
            for y in np.linspace(-2.0, 2.0, 81):
                w = strip_to_disk(complex(sign * BAND_HALF_WIDTH, y))
                assert abs(abs(w) - 1.0) < 1e-10


class TestXiOfZ:
    def test_endpoints(self):
        assert xi_of_z(0.0) == 1.0
        assert xi_of_z(1.0) == pytest.approx(1j, abs=1e-15)

    def test_quarter(self):
        assert xi_of_z(0.25) == pytest.approx(0.6 + 0.8j, abs=1e-15)

    def test_unit_modulus_on_segment(self):
        for z in np.linspace(0.0, 1.0, 501):
            assert abs(abs(xi_of_z(float(z))) - 1.0) < 1e-12

    def test_sqrt_sheet(self):
        assert sqrt_principal_sheet(4.0) == pytest.approx(2.0)
        # just below the cut the argument is near 2*pi, not 0
        below = sqrt_principal_sheet(complex(1.0, -1e-12))
        assert below.real == pytest.approx(-1.0, abs=1e-6)


class TestMobius:
    def test_three_point_a4_map(self):
        mob = mobius_from_three_points(1j, 0.0, -1j, 1.0, 1j, -1.0)
        for z in (1j, 0.0, -1j, 0.3 + 0.4j, 2.0 - 1.0j):
            expected = (z - 1.0) / (1j * (z + 1.0))
            assert mob(z) == pytest.approx(expected, abs=1e-13)

    def test_identity_data(self):
        mob = mobius_from_three_points(0.0, 1.0, INF, 0.0, 1.0, INF)
        for z in (0.5, -2.0 + 1j, 3j):
            assert mob(z) == pytest.approx(z, abs=1e-14)

    def test_inversion(self):
        mob = mobius_from_three_points(0.0, 1.0, INF, INF, 1.0, 0.0)
        for z in (0.5, 2.0, 1.0 + 1j):
            assert mob(z) == pytest.approx(1.0 / z, abs=1e-14)

    def test_degenerate_points(self):
        with pytest.raises(ValueError, match="degenerate"):
            mobius_from_three_points(1.0, 1.0, 2.0, 0.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="degenerate"):
            mobius_from_three_points(INF, INF, 2.0, 0.0, 1.0, 2.0)

    def test_degenerate_coeffs(self):
        with pytest.raises(ValueError, match="degenerate"):
            MobiusCoeffs(1.0, 2.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="degenerate"):
            MobiusCoeffs(0.0, 0.0, 0.0, 0.0)

    def test_tiny_anchors_are_not_degenerate(self):
        # a*d - b*c of these coefficients underflows to 0 unless scaled first
        mob = mobius_from_three_points(0.0, 1e-110, 2e-110, 0.0, 1.0, 2.0)
        assert mob(np.array([0.0, 1e-110, 2e-110])) == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)
        assert mob(1.5e-110) == pytest.approx(1.5, abs=1e-12)
        with pytest.raises(ValueError, match="degenerate"):
            mobius_from_three_points(0.0, 1e-110, 1e-110, 0.0, 1.0, 2.0)

    def test_cross_ratio_preserved(self):
        rng = np.random.default_rng(4)
        anchors_z = (2.0 + 1j, -1.0 + 2j, 0.5 - 1.5j)
        anchors_w = (0.0, 1.0 + 1j, 3.0 - 1j)
        mob = mobius_from_three_points(*anchors_z, *anchors_w)
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            before = cross_ratio(z, *anchors_z)
            after = cross_ratio(mob(z), *(mob(a) for a in anchors_z))
            assert abs(after - before) < 1e-10

    def test_compose_matches_matrix_product(self):
        m1 = MobiusCoeffs(1.0, 2.0, 0.5, 2.0)
        m2 = MobiusCoeffs(0.0, 1.0, 1.0, 0.0)
        z = 0.3 + 0.7j
        assert m1.compose(m2)(z) == pytest.approx(m1(m2(z)), abs=1e-14)


class TestConformalityResidual:
    def test_analytic_exp(self):
        assert conformality_residual(cmath.exp, 0.3 + 0.2j, 1e-4) < 1e-8

    def test_conjugation_violates(self):
        res = conformality_residual(lambda z: z.conjugate(), 0.7 - 0.1j, 1e-4)
        assert res == pytest.approx(2.0, abs=1e-9)

    def test_strip_map_analytic(self):
        assert conformality_residual(strip_to_disk, 0.1 + 0.5j, 1e-4) < 1e-8


class TestArraysEqualTheScalarOracle:
    """Each map acts elementwise and matches the scalar cmath route."""

    def test_rotate_dilate_and_exp_map_are_bit_identical(self):
        zs = band_points(11)
        rotated = rotate_dilate(zs)
        assert np.array_equal(bits(rotated), bits([oracle_rotate_dilate(z) for z in zs]))
        assert np.array_equal(bits(exp_map(rotated)),
                              bits([oracle_exp_map(z) for z in rotated]))

    @pytest.mark.parametrize("fn, oracle, points, ulps", [
        # numpy rounds a complex division differently from CPython in the last bit
        pytest.param(halfplane_to_disk, oracle_halfplane_to_disk,
                     lambda: np.exp(2j * band_points(12)), 2, id="halfplane_to_disk"),
        pytest.param(disk_to_halfplane, oracle_disk_to_halfplane,
                     lambda: 0.999 * np.tanh(band_points(13)), 2, id="disk_to_halfplane"),
        pytest.param(strip_to_disk, oracle_strip_to_disk,
                     lambda: band_points(14), 2, id="strip_to_disk"),
        pytest.param(xi_of_z, oracle_xi_of_z,
                     lambda: np.linspace(0.0, 1.0, 501), 2, id="xi_of_z"),
        # numpy's hypot and atan2 differ from libm's by an ulp, and an ulp of
        # the angle near 2 pi turns the root by up to 4e-16 of its modulus
        pytest.param(sqrt_principal_sheet, oracle_sqrt_principal_sheet,
                     lambda: band_points(15) * np.exp(2j * band_points(16).imag), 6,
                     id="sqrt_principal_sheet"),
    ])
    def test_maps_agree_with_the_oracle_to_a_few_ulp(self, fn, oracle, points, ulps):
        zs = points()
        old = np.array([oracle(z) for z in zs])
        assert np.all(np.abs(fn(zs) - old) <= ulps * np.spacing(np.abs(old)))

    @pytest.mark.parametrize("fn, arg", [
        (rotate_dilate, 1.0), (exp_map, 1), (halfplane_to_disk, 0.5j),
        (disk_to_halfplane, 0.5), (strip_to_disk, 0.1 + 0.2j), (sqrt_principal_sheet, 4.0),
        (xi_of_z, 0.25), (lambda z: cross_ratio(z, 0.0, 1.0, 2.0), 0.5j),
        (lambda z: conformality_residual(strip_to_disk, z), 0.1),
    ])
    def test_a_scalar_gives_a_scalar(self, fn, arg):
        out = fn(arg)
        assert np.ndim(out) == 0 and not isinstance(out, np.ndarray)
        assert isinstance(out, (complex, float))

    def test_finite_anchor_coefficients_are_bit_identical(self):
        rng = np.random.default_rng(17)
        draws = (rng.uniform(-3.0, 3.0, (500, 6)) + 1j * rng.uniform(-3.0, 3.0, (500, 6))).tolist()
        for anchors in draws:
            mob = mobius_from_three_points(*anchors)
            got = (mob.a, mob.b, mob.c, mob.d)
            assert all(type(v) is complex for v in got)
            assert np.array_equal(bits(got), bits(oracle_mobius_from_three_points(*anchors)))

    def test_residual_on_an_array_equals_the_per_point_calls(self):
        zs = 0.9 * band_points(18, 200)
        per_point = [conformality_residual(strip_to_disk, z, 2e-5) for z in zs]
        assert np.array_equal(conformality_residual(strip_to_disk, zs, 2e-5), per_point)
        assert np.allclose(per_point,
                           [oracle_conformality_residual(oracle_strip_to_disk, z, 2e-5)
                            for z in zs], rtol=0.0, atol=1e-10)


class TestArrayRefusals:
    def test_one_pole_in_an_array_refuses_the_array(self):
        with pytest.raises(ZeroDivisionError, match="Z = -1"):
            halfplane_to_disk(np.array([0.5, 1j, -1.0, 2.0]))
        with pytest.raises(ZeroDivisionError, match="w = -i"):
            disk_to_halfplane(np.array([0.5, -1j, 0.25j]))

    def test_one_overflowing_element_raises(self):
        with pytest.raises(OverflowError):
            exp_map(np.array([0.0, 1.0, 1e9]))
        with pytest.raises(OverflowError):
            strip_to_disk(np.array([0.1, -400j]))

    def test_nan_gives_nan_and_raises_nothing(self):
        nan_in = np.array([0.3, complex(math.nan, 0.0), complex(0.1, math.nan)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (rotate_dilate, exp_map, halfplane_to_disk, disk_to_halfplane,
                       strip_to_disk, sqrt_principal_sheet, xi_of_z,
                       mobius_from_three_points(1j, 0.0, -1j, 1.0, 1j, -1.0)):
                out = fn(nan_in)
                assert np.all(np.isnan(out[1:])) and not np.isnan(out[0])
                assert cmath.isnan(fn(math.nan))

    def test_exp_of_an_infinite_input_does_not_raise(self):
        # as cmath.exp: only a finite input that overflows is an error
        assert exp_map(complex(math.inf, 0.0)) == oracle_exp_map(complex(math.inf, 0.0))


INFINITIES = (INF, complex(math.inf, 0.0), complex(-math.inf, 0.0), complex(0.0, -math.inf),
              complex(math.inf, math.nan))
GRID = st.integers(-400, 400).map(lambda k: k / 100.0)
FINITE = st.builds(complex, GRID, GRID)


@st.composite
def anchor_triples(draw):
    """Three distinct points of the Riemann sphere, at most one of them infinity.

    Finite anchors sit on a 0.01 lattice, so distinct ones stay at least
    0.01 apart and the map stays well conditioned; infinity comes in any
    of its representations.
    """
    points = draw(st.lists(FINITE, min_size=3, max_size=3, unique=True))
    at = draw(st.sampled_from([None, 0, 1, 2]))
    if at is not None:
        points[at] = draw(st.sampled_from(INFINITIES))
    return tuple(points)


class TestMobiusHomogeneous:
    @settings(max_examples=200, deadline=None)
    @given(zs=anchor_triples(), ws=anchor_triples(),
           probes=st.lists(st.one_of(FINITE, st.sampled_from(INFINITIES)), min_size=1,
                           max_size=6))
    def test_anchors_map_to_targets_and_cross_ratio_is_invariant(self, zs, ws, probes):
        mob = mobius_from_three_points(*zs, *ws)
        images = mob(np.array(zs))
        assert all(chordal(image, w) < 1e-9 for image, w in zip(images, ws))
        probes = np.array(probes)
        before, after = cross_ratio(probes, *zs), cross_ratio(mob(probes), *ws)
        assert all(chordal(b, a) < 1e-9 for b, a in zip(before, after))

    def test_every_infinite_value_is_the_one_point_at_infinity(self):
        with pytest.raises(ValueError, match="degenerate"):
            mobius_from_three_points(INF, 2.0, complex(-math.inf, 0.0), 0.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="degenerate"):
            mobius_from_three_points(0.0, 1.0, 2.0, complex(0.0, math.inf), 1.0, INF)

    def test_outer_anchors_coinciding_are_refused(self):
        with pytest.raises(ValueError, match="degenerate"):
            mobius_from_three_points(1.0 + 1j, 2.0, 1.0 + 1j, 0.0, 1.0, 2.0)

    def test_the_pole_maps_to_infinity(self):
        mob = mobius_from_three_points(0.0, 1.0, INF, INF, 1.0, 0.0)
        assert cmath.isinf(mob(0.0)) and mob(INF) == 0.0
        out = mob(np.array([0.0, 2.0, INF]))
        assert np.isinf(out[0]) and out[1] == 0.5 and out[2] == 0.0
