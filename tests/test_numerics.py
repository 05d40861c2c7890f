import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

import renyi_clt as rc
from renyi_clt.distributions import Lattice, _index_range, _simpson
from renyi_clt.harness import _write_rows
from renyi_clt.numerics import _cf_power
from oracles import (
    normalized_uniform_sum_density,
    normalized_uniform_sum_lr,
    period_at_a_time_fold,
    zero_padded_band_inversion,
)

F = Fraction
SQRT3 = math.sqrt(3.0)


# -- distribution specs ------------------------------------------------------


@pytest.mark.parametrize(
    "spec,breaks",
    [
        (rc.Uniform(), (-SQRT3, SQRT3)),
        (rc.StandardizedGamma(4), (-2.0,)),
        (rc.StandardizedGamma(1), (-1.0,)),
        (rc.TwoSidedExponential(), (0.0,)),
        (
            rc.GaussianMixture(
                (F(1, 4), F(3, 4)), (F(3, 2), F(-1, 2)), (F(1, 2), F(1, 2))
            ),
            (-0.5, 1.5),
        ),
    ],
    ids=["uniform", "gamma4", "gamma1", "laplace", "mixture"],
)
def test_specs_are_standardized(spec, breaks):
    moments = spec.moments(2)
    assert moments[0] == 0
    assert moments[1] == 1
    pts = list(breaks)
    for k, target in ((0, 1.0), (1, 0.0), (2, 1.0)):
        val, _ = quad(
            lambda x: x**k * float(spec.density(x)), -60, 60, limit=800, points=pts
        )
        assert val == pytest.approx(target, abs=1e-9)


def test_uniform_support_and_moments():
    u = rc.Uniform()
    assert u.density(0.0) == pytest.approx(1 / (2 * SQRT3))
    assert u.density(2.0) == 0.0
    assert u.moments(8) == [0, 1, 0, F(9, 5), 0, F(27, 7), 0, 9]


def test_moment_quadrature_oracle():
    # exact moments against direct quadrature for an asymmetric law
    spec = rc.StandardizedGamma(4)
    for k in (3, 4, 5, 6):
        mk, _ = quad(
            lambda x: x**k * float(spec.density(x)), -2, 80, limit=800
        )
        assert float(spec.moments(k)[k - 1]) == pytest.approx(mk, abs=1e-8)


def test_gamma_cf_modulus():
    spec = rc.StandardizedGamma(4)
    t = np.linspace(0, 30, 121)
    assert np.allclose(
        np.abs(spec.cf(t)), (1 + t * t / 4) ** -2.0, rtol=1e-12
    )


def test_laplace_moments():
    lap = rc.TwoSidedExponential()
    assert lap.moments(6) == [0, 1, 0, 6, 0, 90]


def test_mixture_validation():
    with pytest.raises(ValueError, match="standardized"):
        rc.GaussianMixture((1,), (1,), (1,))
    with pytest.raises(ValueError, match="sigmas"):
        rc.GaussianMixture((1,), (0,), (0,))
    with pytest.raises(ValueError):
        rc.GaussianMixture((0.5, 0.5), (0,), (1,))


def test_from_name():
    assert isinstance(rc.from_name("uniform"), rc.Uniform)
    assert isinstance(rc.from_name("gamma", alpha=2), rc.StandardizedGamma)
    assert isinstance(rc.from_name("gaussian"), rc.GaussianMixture)
    with pytest.raises(ValueError):
        rc.from_name("uniform", alpha=1)
    with pytest.raises(ValueError):
        rc.from_name("zeta")


def test_grid_density_spec():
    x = np.linspace(-12, 12, 20001)
    p = rc.normal_pdf(x)
    spec = rc.GridDensity(x, p)
    assert spec.density(0.5) == pytest.approx(rc.normal_pdf(0.5), abs=1e-6)
    assert abs(spec.cf(np.array([0.7]))[0] - math.exp(-0.245)) < 1e-6
    assert spec.moments(4)[3] == pytest.approx(3.0, abs=1e-6)
    with pytest.raises(ValueError, match="standardized"):
        rc.GridDensity(x, p * 1.01)


@pytest.mark.parametrize("column", ["x", "p"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_grid_density_rejects_non_finite_tables(column, bad):
    # a NaN passed every comparison of the standardization checks, and such
    # a table folded to the evaluation cap into an all-NaN grid
    x = np.linspace(-12, 12, 4001)
    table = {"x": x, "p": rc.normal_pdf(x)}
    table[column][2000] = bad
    with pytest.raises(ValueError, match="finite"):
        rc.GridDensity(table["x"], table["p"])


def test_grid_density_checks_fail_on_nan_sums():
    # finite nodes whose first step overflows: the mean step is inf, so the
    # zero table's Simpson mass, mean and second moment are 0*inf = NaN,
    # which must fail the standardization check
    x = np.concatenate([[-1.7e308], 1e308 + 1e300 * np.arange(7)])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not standardized"):
            rc.GridDensity(x, np.zeros(8))


_ENVELOPE_LAWS = {
    "uniform": rc.Uniform(),
    "gamma_half": rc.StandardizedGamma(0.5),
    "gamma1": rc.StandardizedGamma(1),
    "gamma4": rc.StandardizedGamma(4),
    "laplace": rc.TwoSidedExponential(),
    "dyadic_mixture": rc.GaussianMixture(
        (F(1, 4), F(3, 4)), (F(3, 2), F(-1, 2)), (F(1, 2), F(1, 2))
    ),
    "float_mixture": rc.GaussianMixture((0.5, 0.5), (0.6, -0.6), (0.8, 0.8)),
    "gaussian": rc.GaussianMixture.standard_normal(),
}


@pytest.mark.parametrize("key", sorted(_ENVELOPE_LAWS))
@settings(deadline=None)
@given(t=st.floats(0.0, 1e6), step=st.floats(0.0, 1e6))
def test_cf_envelope_bounds_cf(key, t, step):
    spec = _ENVELOPE_LAWS[key]
    bound = spec.cf_envelope(t)
    assert abs(complex(spec.cf(t))) <= bound * (1 + 1e-12)
    assert spec.cf_envelope(t + step) <= bound


def test_cf_envelope_unknown_for_tables_and_base():
    x = np.linspace(-12, 12, 2001)
    assert rc.GridDensity(x, rc.normal_pdf(x)).cf_envelope(1.0) is None
    assert rc.DistributionSpec().cf_envelope(1.0) is None


def _table(points, half_width, pdf):
    x = np.linspace(-half_width, half_width, points)
    return rc.GridDensity(x, pdf(x))


def _dyadic_mixture_pdf(x):
    return rc.GaussianMixture((0.25, 0.75), (1.5, -0.5), (0.5, 0.5)).density(x)


def _dense_grid_cf(spec, t):
    """The O(J*M) lattice sum with the hat factor: the oracle for the chirp."""
    t = np.asarray(t, dtype=float)
    lattice = np.exp(1j * np.outer(t.ravel(), spec.x)) @ (spec.p * spec.h)
    hat = np.sinc(t.ravel() * spec.h / (2 * np.pi)) ** 2
    return (lattice * hat).reshape(t.shape)


@pytest.mark.parametrize(
    "npoints,extent,table_points", [(2**14, 12.0, 4001), (2**17, 16.0, 20001)]
)
def test_grid_cf_chirp_matches_dense_sum(npoints, extent, table_points):
    # the lattices density_of_normalized_sum asks for: fold period k of
    # the lattice m*dt, scaled by 1/sqrt(n); checked on a sample of each
    spec = _table(table_points, 12.0, _dyadic_mixture_pdf)
    dt = math.pi / extent
    sample = np.r_[np.arange(16), np.arange(16, npoints, npoints // 64)]
    for n in (1, 2, 4):
        for k in (0, 3):
            t = Lattice(k * npoints, npoints, dt, math.sqrt(n))
            got = spec.cf(t)
            assert got.shape == (npoints,)
            err = np.abs(got[sample] - _dense_grid_cf(spec, np.asarray(t)[sample])).max()
            assert err < 1e-12, (n, k, err)


def test_grid_cf_chirp_orientation_and_shape():
    spec = _table(4001, 10.0, _dyadic_mixture_pdf)
    up = np.linspace(0.0, 300.0, 401)
    for t in (up, up[::-1], np.linspace(-40.0, 40.0, 400)):
        assert np.abs(spec.cf(t) - _dense_grid_cf(spec, t)).max() < 1e-12
    grid = np.linspace(-6.0, 6.0, 600).reshape(20, 30)
    got = spec.cf(grid)
    assert got.shape == (20, 30)
    assert np.abs(got - _dense_grid_cf(spec, grid)).max() < 1e-12
    # a lattice longer than one chirp: the second chirp anchors at its own
    # first point, with the step of the whole lattice
    t = Lattice(5, 2**17 + 300, math.pi / 16)
    sample = np.r_[0, 2**17 - 1, 2**17, 2**17 + 1, 2**17 + 299]
    err = np.abs(spec.cf(t)[sample] - _dense_grid_cf(spec, np.asarray(t)[sample])).max()
    assert err < 1e-12, err


def test_grid_cf_scalar_and_scattered_t():
    spec = _table(4001, 10.0, rc.normal_pdf)
    assert abs(spec.cf(0.7)[0] - math.exp(-0.245)) < 1e-5
    t = np.array([0.3, 2.0, -1.1, 5.5, 0.0])
    assert np.abs(spec.cf(t) - np.exp(-0.5 * t * t)).max() < 1e-5


def test_grid_density_inverts_at_default_grid():
    # each block of a fold period is one chirp z-transform, so the default
    # 2**17-point grid is affordable for a tabulated law
    spec = _table(20001, 12.0, rc.normal_pdf)
    for n in (1, 2, 4):
        g = rc.density_of_normalized_sum(spec, n)
        assert len(g.values) == 2**17 and not g.cap_hit
        assert np.abs(g.values - rc.normal_pdf(g.x)).max() < 1e-6


def _exact_uniform_cf(t):
    """sin(sqrt(3) t)/(sqrt(3) t) to 40 digits at each float t."""
    with mpmath.workdps(40):
        root = mpmath.sqrt(3)
        return np.array([
            1.0 if x == 0 else float(mpmath.sin(root * x) / (root * x))
            for x in map(mpmath.mpf, t)
        ])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_uniform_cf_progression_matches_exact_sinc(n):
    # lattices like the inversion's, dt*m/sqrt(n) on the default grid, at
    # the first and last bins of periods k: blocks 2**14 + 3 points long
    # (not a multiple of the table's row); checked on a sample of each block
    spec = rc.Uniform()
    N, dt, size = 2**17, math.pi / 16, 2**14 + 3
    sample = np.r_[np.arange(128), np.arange(128, size, 29), size - 1]
    for start in [k * N + lo for k in (0, 1, 37, 255, 1023) for lo in (0, N - size)]:
        t = Lattice(start, size, dt, math.sqrt(n))
        got = spec.cf(t)
        assert got.shape == (size,)
        err = np.abs(got[sample] - _exact_uniform_cf(np.asarray(t)[sample])).max()
        assert err <= 4 * 2.0**-52, (start, err / 2.0**-52)
        if start == 0:
            assert got[0] == 1.0


def test_lattice_rejects_a_negative_first_index_or_no_points():
    for first, size in ((-1, 16), (0, 0)):
        with pytest.raises(ValueError, match="first >= 0 and size >= 1"):
            Lattice(first, size, math.pi / 16)
    assert np.array_equal(rc.Uniform().cf(Lattice(0, 1, math.pi / 16)), [1.0])


@pytest.mark.parametrize("first,size,root", [(7, 2000, SQRT3), (3 * 2**17, 2**15, 1.0),
                                             (11, 2**16 + 5, 2.0)])
def test_lattice_points_are_fresh_and_leave_the_index_range_alone(first, size, root):
    # the points are first plus a shared index range (or a range of their
    # own past its end), times dt, over root: each call a new writable array
    lattice, dt = Lattice(first, size, math.pi / 16, root), math.pi / 16
    expected = dt * np.arange(first, first + size, dtype=float) / root
    for stop, step in ((None, 1), (128, 1), (None, 128)):
        got, again = lattice.points(stop, step), lattice.points(stop, step)
        assert np.array_equal(got, expected[:stop:step])
        assert got.flags.writeable and not np.shares_memory(got, again)
        assert not np.shares_memory(got, _index_range())
        got[:] = -1.0
        assert np.array_equal(again, lattice.points(stop, step))
    points = np.asarray(lattice)
    points *= 2.0
    assert np.array_equal(np.asarray(lattice), expected)
    indices = _index_range()
    assert not indices.flags.writeable
    assert np.array_equal(indices, np.arange(len(indices), dtype=float))


@pytest.mark.parametrize("spec", [rc.Uniform(), rc.TwoSidedExponential()],
                         ids=["uniform", "laplace"])
def test_cf_leaves_its_argument_unchanged(spec):
    # the real cfs compute in place, in buffers of their own: a read-only
    # array comes through unwritten, a scalar gives a scalar, and a
    # lattice keeps its points
    t = np.linspace(0.0, 40.0, 3001)
    t.flags.writeable = False
    got = spec.cf(t)
    assert np.array_equal(t, np.linspace(0.0, 40.0, 3001))
    assert got.shape == t.shape and not np.shares_memory(got, t)
    for x in (1.3, np.float64(1.3), np.array(1.3)):
        value = spec.cf(x)
        assert np.ndim(value) == 0 and value == spec.cf(np.array([1.3]))[0]
    lattice = Lattice(5, 3001, math.pi / 16, 2.0)
    before = lattice.points()
    spec.cf(lattice)
    assert np.array_equal(lattice.points(), before)


def test_laplace_cf_is_the_plain_formula():
    # 2/(2 + t**2), in place in a lattice's points, is 1/(1 + t**2/2) bit
    # for bit: scaling by 2 commutes with rounding
    lattice = Lattice(3 * 2**15, 2**15, math.pi / 16, math.sqrt(3.0))
    t = np.asarray(lattice)
    assert np.array_equal(rc.TwoSidedExponential().cf(lattice), 1.0 / (1.0 + t * t / 2.0))


def test_uniform_cf_off_progression_is_np_sinc():
    # every array keeps np.sinc's bits: a lattice's own points, scattered,
    # short, multi-dimensional and scalar t, and a wide linspace whose
    # points are rounded off the progression
    spec = rc.Uniform()
    lattice = np.asarray(Lattice(0, 4096, math.pi / 16, math.sqrt(2)))
    scattered = lattice.copy()
    scattered[1000] += 1e-6
    wide = np.linspace(-1000.0, 1000.0, 20001)
    for t in (lattice, scattered, lattice[[5, 1, 9, 3] * 20], lattice[:63],
              lattice.reshape(64, 64), -lattice[::-1], wide, np.float64(1.3), 0.0):
        got = spec.cf(t)
        assert np.shape(got) == np.shape(t)
        assert np.array_equal(got, np.sinc(SQRT3 * np.asarray(t) / np.pi))
    err = np.abs(spec.cf(wide) - _exact_uniform_cf(wide)).max()
    assert err <= 2 * 2.0**-52, err / 2.0**-52


@pytest.mark.parametrize("size", [2, 3, 4, 5, 10, 11, 1000, 1001])
def test_simpson_helper_matches_scipy(size):
    y = np.random.default_rng(size).uniform(0.1, 2.0, size)
    for dx in (0.01, 0.25, 3.0):
        assert _simpson(y, dx=dx) == pytest.approx(simpson(y, dx=dx), rel=1e-14)


def test_import_leaves_scipy_signal_and_integrate_unloaded():
    # importing scipy.special alone adds about 0.3 s to every CLI start, and
    # scipy.signal about 0.86 s; the library needs no part of scipy
    code = (
        "import sys, renyi_clt; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(rc.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


# -- characteristic powering -------------------------------------------------


def test_characteristic_power_basics():
    uni = rc.Uniform()
    assert _cf_power(uni, 5, 0.0) == pytest.approx(1.0)
    t = 1.3
    assert _cf_power(uni, 1, t) == pytest.approx(
        complex(np.sinc(SQRT3 * t / np.pi)), abs=1e-12
    )


def test_characteristic_power_uniform_n2():
    uni = rc.Uniform()
    for t in (0.5, 2.0, 7.7):
        expected = np.sinc(SQRT3 * t / math.sqrt(2) / np.pi) ** 2
        assert _cf_power(uni, 2, t) == pytest.approx(
            complex(expected), abs=1e-12
        )


def test_characteristic_power_matches_exact_gamma():
    # Z_n for the standardized Gamma law is itself a standardized Gamma
    spec = rc.StandardizedGamma(4)
    n = 3
    t = np.linspace(0.0, 40.0, 4001)
    got = _cf_power(spec, n, t)
    expected = rc.StandardizedGamma(12).cf(t)
    assert np.allclose(got, expected, atol=1e-12)


def test_characteristic_power_negative_and_unordered_t():
    # no sweep from 0 is needed: f_n(-t) = conj(f_n(t)) and any order works
    spec = rc.StandardizedGamma(4)
    t = np.array([7.5, -2.0, 0.0, 30.0])
    got = _cf_power(spec, 3, t)
    assert np.allclose(got, rc.StandardizedGamma(12).cf(t), atol=1e-12)
    assert _cf_power(spec, 3, -7.5) == pytest.approx(
        np.conj(got[0]), abs=1e-15
    )


@pytest.mark.parametrize("spec", [rc.Uniform(), rc.TwoSidedExponential()],
                         ids=["uniform", "laplace"])
def test_real_cf_power_is_real_and_correctly_rounded(spec):
    # a real cf powers in real arithmetic: n = 1, 2 give the complex path's
    # bits, and larger n libm pow, within 2 ulp of the exact power of the
    # float cf value and, over the sample, never further off than complex
    # multiplication (at single points either may be the closer one)
    t = np.r_[np.linspace(0.0, 30.0, 61), 47.3, 101.0, 555.5, 1234.5]
    for n in (1, 2, 3, 8, 64, 2048):
        base = np.asarray(spec.cf(t / math.sqrt(n)))
        got = _cf_power(spec, n, t)
        complex_path = base.astype(complex) ** n
        assert base.dtype == got.dtype == np.float64
        if n <= 2:
            assert np.array_equal(got, complex_path.real)
            assert not complex_path.imag.any()
            continue
        with mpmath.workdps(30):
            exact = [mpmath.mpf(float(b)) ** n for b in base]
            ulp = np.spacing(np.abs([float(e) for e in exact]))

            def ulps(values):
                return np.array([float(abs(mpmath.mpf(float(v)) - e))
                                 for v, e in zip(values, exact)]) / ulp

            err, err_complex = ulps(got), ulps(complex_path.real)
        assert err.max() <= 2, (n, err.max())
        assert err.max() <= err_complex.max(), n


class _PokedUniform(rc.Uniform):
    """Uniform law whose cf is zeroed at one prescribed point."""

    def __init__(self, zero_at):
        self.zero_at = zero_at

    def cf(self, t):
        vals = np.atleast_1d(super().cf(t)).copy()
        vals[np.asarray(t) == self.zero_at] = 0.0
        return vals


def test_exact_cf_zero_on_lattice_is_harmless():
    # an exact |f| = 0 on the lattice needs no special branch: the integer
    # power of zero is zero, and one far-tail lattice value barely moves p_n
    n, npoints, extent = 4, 2**14, 12.0
    dt = 2 * math.pi / (npoints * (2 * extent / npoints))
    u0 = 12000 * dt / math.sqrt(n)  # far tail: |f| ~ 1e-3 there
    poked = _PokedUniform(u0)
    assert poked.cf(np.array([u0]))[0] == 0.0
    g = rc.density_of_normalized_sum(poked, n, npoints=npoints, extent=extent)
    clean = rc.density_of_normalized_sum(
        rc.Uniform(), n, npoints=npoints, extent=extent
    )
    assert np.all(np.isfinite(g.values))
    assert np.abs(g.values - clean.values).max() < 1e-4


# -- density grids -----------------------------------------------------------


def test_gaussian_grid_is_fixed_point(grid_for):
    for n in (1, 4, 16):
        g = grid_for("gaussian", n)
        assert np.abs(g.values - rc.normal_pdf(g.x)).max() < 1e-8


def test_uniform_n2_matches_triangle(grid_for):
    g = grid_for("uniform", 2)
    exact = normalized_uniform_sum_density(2, g.x)
    assert np.abs(g.values - exact).max() < 1e-8


def test_laplace_closed_forms(grid_for):
    # n = 1: exp(-sqrt(2)|x|)/sqrt(2), whose cf decays only like 1/t^2 and
    # exhausts the fold cap; n = 2: (1 + 2|x|) exp(-2|x|)/2
    g1 = grid_for("laplace", 1)
    ax = np.abs(g1.x)
    exact1 = np.exp(-math.sqrt(2.0) * ax) / math.sqrt(2.0)
    assert np.abs(g1.values - exact1).max() < 1e-7
    g2 = grid_for("laplace", 2)
    exact2 = 0.5 * (1 + 2 * ax) * np.exp(-2 * ax)
    assert np.abs(g2.values - exact2).max() < 1e-11


def test_extrapolated_fold_uniform_n2(grid_for):
    # |f_2| ~ 1/t^2: the K-period fold errs like 1/K, which Richardson over
    # period doubling cancels
    g = grid_for("uniform", 2)
    exact = normalized_uniform_sum_density(2, g.x)
    assert np.abs(g.values - exact).max() < 1e-10
    assert 1 < g.folds <= 256
    assert not g.cap_hit
    assert g.ringing_bound < 5e-9


def test_extrapolated_fold_laplace(grid_for):
    # n = 1 decays like 1/t^2 and needs the extrapolation; n = 2 like 1/t^4
    g1 = grid_for("laplace", 1)
    exact1 = np.exp(-math.sqrt(2.0) * np.abs(g1.x)) / math.sqrt(2.0)
    assert np.abs(g1.values - exact1).max() < 1e-9
    assert 1 < g1.folds <= 32
    assert not g1.cap_hit
    assert grid_for("laplace", 2).folds == 1


def _periodized(density, x, extent, terms=3):
    """sum over j of density(x + 2 j extent), |j| <= terms: the density
    that a fold at dt = pi/extent inverts to."""
    return sum(density(x + 2 * j * extent) for j in range(-terms, terms + 1))


@pytest.mark.parametrize("npoints,extent", [(2**17, 16.0), (2**15, 12.0), (2**16, 20.0)])
def test_second_column_settles_laplace(npoints, extent):
    # Laplace n = 1 settles on the second Richardson column at 32 periods:
    # against its periodized closed form the first column's grids, at 64
    # and 128 periods, erred by up to 2.9e-11, 1.1e-11 and 9.0e-12
    grid = rc.density_of_normalized_sum(rc.TwoSidedExponential(), 1, npoints, extent)
    exact = _periodized(rc.TwoSidedExponential().density, grid.x, extent)
    assert (grid.folds, grid.cap_hit) == (32, False)
    assert np.abs(grid.values - exact).max() < 5e-12
    assert abs((grid.values - exact).sum() * grid.h) < 1e-13
    h2 = rc.renyi_entropy(grid, 2) - rc.renyi_entropy(_plain_grid(extent, exact), 2)
    assert abs(h2) < 1e-12


def _period_folds(spec, n, npoints, extent, periods):
    """(S_1, S_2, S_4, ..., S_periods, h): the library's K-period folds of
    f_n on the bins of the sub-extent it folds, and their spacing."""
    N, L = rc.numerics._support_extent(spec, n, npoints, extent)
    h, dt = 2 * L / N, math.pi / L
    folds = [rc.numerics._add_periods(None, spec, n, N, dt, 0, 1)]
    while 2 ** (len(folds) - 1) < periods:
        K = 2 ** (len(folds) - 1)
        folds.append(rc.numerics._add_periods(folds[-1].copy(), spec, n, N, dt, K, 2 * K))
    return folds, h


def _samples(fold, h):
    """Density samples from an N-bin positive-frequency fold, through the
    library's one inversion of its Hermitian bins."""
    return rc.numerics._invert(rc.numerics._hermitian_bins(fold), len(fold), h)


def _spectral_size(step, h):
    """The l1 norm over N h of the two-sided bins of an N-bin ``step``."""
    b = np.arange(len(step) // 2 + 1)
    sizes = np.abs(step[b] + np.conj(step[-b]))
    return (2 * sizes.sum() - sizes[0] - sizes[-1]) / (len(step) * h)


@pytest.mark.parametrize("npoints,extent", [(2**16, 20.0), (2**14, 12.0)])
def test_second_column_yields_to_a_smaller_first_step(npoints, extent):
    # uniform n = 2 folds 128 periods and keeps the first column's
    # extrapolant bit for bit.  On [-20, 20) the second column's steps at 32
    # and 64 periods are both under the tail bound, but the one at 64 is
    # above the first column's, so it is not calm; settling there erred by
    # 2.0e-9, against 9.4e-10 at 128 periods
    grid = rc.density_of_normalized_sum(rc.Uniform(), 2, npoints, extent)
    assert (grid.folds, grid.cap_hit) == (128, False)
    folds, h = _period_folds(rc.Uniform(), 2, npoints, extent, 128)
    first = 2.0 * folds[-1] - folds[-2]
    values = _samples(first, h)
    lo = (npoints - len(values)) // 2
    assert np.array_equal(grid.values[lo:lo + len(values)], np.maximum(values, 0.0))
    assert grid.ringing_bound == pytest.approx(
        _spectral_size(first - (2.0 * folds[-2] - folds[-3]), h), rel=1e-9)
    if extent == 20.0:  # the first column's steps d at 16, 32 and 64 periods
        extrapolants = [2.0 * wider - fold for fold, wider in zip(folds[2:6], folds[3:7])]
        d = [newer - older for older, newer in zip(extrapolants, extrapolants[1:])]
        second = [_spectral_size((8 * d[k] - d[k - 1]) / 7, h) for k in (1, 2)]
        assert max(second) < rc.numerics._TAIL_BOUND
        assert second[1] > _spectral_size(d[2], h)


def test_second_column_settles_gamma1_kink():
    # Gamma(1) n = 2, with a kink at the edge -sqrt(2) of its support, took
    # 2048 periods on the first column and takes at most 256 on the second;
    # the error it leaves sits at the kink
    grid = rc.density_of_normalized_sum(rc.StandardizedGamma(1), 2, 2**15, 12.0)

    def density(z):
        y = math.sqrt(2.0) * z + 2.0
        return np.where(y > 0, math.sqrt(2.0) * y * np.exp(-np.maximum(y, 0.0)), 0.0)

    error = np.abs(grid.values - _periodized(density, grid.x, 12.0))
    assert grid.folds <= 256 and not grid.cap_hit
    assert error.max() <= 1.6e-7
    assert error[np.abs(grid.x + math.sqrt(2.0)) > 0.5].max() <= 2e-12


def test_fast_decaying_cfs_fold_once(grid_for):
    for g in (grid_for("gamma4", 3), grid_for("gaussian", 4), grid_for("uniform", 8)):
        assert g.folds == 1
        assert not g.cap_hit
        assert 0 <= g.ringing_bound < 5e-9


def _lattice_grid(spec, n, **kwargs):
    """(grid, the lattices its cf was handed) for one inversion."""
    seen = []
    cf = spec.cf
    spec.cf = lambda t: seen.append(t) or cf(t)
    try:
        grid = rc.density_of_normalized_sum(spec, n, **kwargs)
    finally:
        del spec.cf
    return grid, seen


def _assert_folds_on(grid, seen, bins, half, n):
    """Every lattice the law was handed lies on the fold of ``bins`` bins of
    [-half, half), at dt = pi/half, and they cover each period once."""
    dt = 2 * math.pi / (bins * (2 * half / bins))
    assert all(isinstance(t, Lattice) and (t.dt, t.root) == (dt, math.sqrt(n)) for t in seen)
    assert sorted(t.first for t in seen) == sorted(
        k * bins + lo for k in range(grid.folds)
        for lo in range(0, bins, rc.numerics._FOLD_BLOCK))
    assert sum(t.size for t in seen) == grid.folds * bins


def _counted_grid(spec, n, **kwargs):
    """(grid, cf points evaluated) for one inversion."""
    grid, seen = _lattice_grid(spec, n, **kwargs)
    return grid, sum(np.size(t) for t in seen)


@pytest.mark.parametrize(
    "n,npoints,bins,half",
    [(2, 2**15, 2**13, 3.0), (8, 2**17, 2**17, 12.0)], ids=["fold", "band"],
)
def test_inversion_hands_the_law_its_integer_lattice(n, npoints, bins, half):
    # through a cf set on the instance, as the benchmark's tracer sets one:
    # every call is a Lattice of the doubles dt*m/sqrt(n), np.size counts
    # its points, and together they cover each folded period once.  The fold
    # runs on the 2**13 bins of [-3, 3), which holds Z_2's support
    # [-sqrt(6), sqrt(6)], at dt = pi/3; the band is decided on the whole grid
    grid, seen = _lattice_grid(rc.Uniform(), n, npoints=npoints, extent=12.0)
    dt = 2 * math.pi / (bins * (2 * half / bins))
    for t in seen:
        assert isinstance(t, Lattice) and (t.dt, t.root) == (dt, math.sqrt(n))
        expected = dt * np.arange(t.first, t.first + t.size) / math.sqrt(n)
        assert np.array_equal(np.asarray(t), expected)
        assert np.size(t) == t.size
    if grid.band:
        assert [(t.first, t.size) for t in seen] == [(0, grid.band)]
    else:
        assert grid.folds == 64
        _assert_folds_on(grid, seen, bins, half, n)


def _full_period_grid(spec, n, full_extent=False, **kwargs):
    """The grid and cf count with the envelope hidden: the full-period path,
    folded over the whole extent when ``full_extent`` also hides the law's
    support."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(spec), "cf_envelope", lambda self, t: None)
        if full_extent:
            mp.setattr(spec, "support", math.inf)
        return _counted_grid(spec, n, **kwargs)


@pytest.mark.parametrize(
    "key,n",
    [("gamma4", 4), ("gamma4", 16), ("gamma4", 1024), ("dyadic_mixture", 1),
     ("dyadic_mixture", 40), ("uniform", 8), ("uniform", 64), ("laplace", 8)],
)
def test_band_grid_equals_full_period(key, n):
    spec = _ENVELOPE_LAWS[key]
    band, band_points = _counted_grid(spec, n)
    full, full_points = _full_period_grid(spec, n, full_extent=True)
    assert np.array_equal(band.values, full.values)
    assert band_points < full_points == 2**17
    assert band_points >= 256 and band_points & (band_points - 1) == 0
    assert (band.folds, band.cap_hit) == (1, False)
    assert band.ringing_bound < 2.0**-60


def test_band_evaluates_few_cf_points():
    grid, points = _counted_grid(rc.StandardizedGamma(4), 16)
    assert points <= 4096
    assert grid.band == points


@pytest.mark.parametrize("kwargs", [{}, {"npoints": 2**14, "extent": 12.0}])
@pytest.mark.parametrize(
    "key,ns",
    [("gamma4", (4, 8, 64)), ("dyadic_mixture", (1, 8, 40)), ("laplace", (5, 8, 12)),
     ("uniform", (8, 12, 64))],
)
def test_band_inverts_from_its_own_bins(key, ns, kwargs):
    # the band's N' samples and its N values built on read, byte for byte
    # those of the band zero-padded to a full N-bin fold
    for n in ns:
        grid = rc.density_of_normalized_sum(_ENVELOPE_LAWS[key], n, **kwargs)
        assert grid.band
        N, extent = len(grid), -grid.x0
        size = len(grid._samples)
        samples = zero_padded_band_inversion(grid._spectrum, size, 2 * extent / size)
        values = zero_padded_band_inversion(grid._spectrum, N, grid.h)
        assert np.maximum(samples, 0.0).tobytes() == grid._samples.tobytes()
        assert np.maximum(values, 0.0).tobytes() == grid.values.tobytes()


def test_functionals_skip_the_mask_on_a_positive_grid():
    # no sample is 0, so the power and the log run unmasked; the same
    # samples behind a min_value of 0 run masked, to the same bits
    grid = rc.density_of_normalized_sum(rc.TwoSidedExponential(), 1, npoints=2**14, extent=12.0)
    assert grid.min_value > 0 and grid.band == 0
    masked = rc.DensityGrid(12.0, 2**14, grid.values, None, 1, mass_defect=0.0, min_value=0.0,
                            folds=1, cap_hit=False, ringing_bound=0.0)
    for r in (1.005, 2, 2.347, 7.9):
        assert rc.lr_integral(grid, r) == rc.lr_integral(masked, r)
    assert rc.shannon_entropy(grid) == rc.shannon_entropy(masked)


def _plain_grid(extent, samples, n=1):
    """A grid of ``samples`` on [-extent, extent) with no band: its
    functionals run on all the samples, Simpson and the three-point
    parabola, as for a full period."""
    return rc.DensityGrid(extent, len(samples), samples, None, n, mass_defect=0.0,
                          min_value=0.0, folds=1, cap_hit=False, ringing_bound=0.0)


def _reference_grid(grid):
    """The same N samples as a plain grid."""
    return _plain_grid(-grid.x0, grid.values, grid.n)


@pytest.mark.parametrize(
    "key,n,band",
    [("gamma4", 4, 512), ("gamma4", 16, 256), ("gamma4", 2048, 256),
     ("gamma1", 16, 512), ("gamma1", 2048, 256), ("dyadic_mixture", 8, 256),
     ("dyadic_mixture", 40, 256), ("uniform", 8, 8192), ("uniform", 64, 256)],
)
def test_band_functionals_match_full_grid(key, n, band):
    # a band grid integrates on max(1024, 4M) samples and takes its maximum
    # by Newton on its polynomial; the 2**17-point sums agree to rounding,
    # which 1/(r-1) amplifies near r = 1
    grid = rc.density_of_normalized_sum(_ENVELOPE_LAWS[key], n)
    assert grid.band == band
    full = _reference_grid(grid)
    for r in (1.005, 1.5, 2.0, 3.4, 7.9):
        rel = 2e-13 if r < 1.5 else 2e-15
        assert rc.renyi_entropy(grid, r) == pytest.approx(rc.renyi_entropy(full, r), rel=rel)
    assert rc.shannon_entropy(grid) == pytest.approx(rc.shannon_entropy(full), abs=2e-14)
    # D(p || phi) = h(phi) - h(p) for a standardized p
    kl = rc.gaussian_renyi_entropy(1) - rc.shannon_entropy(grid)
    assert kl == pytest.approx(rc.gaussian_renyi_entropy(1) - rc.shannon_entropy(full), abs=1e-13)
    assert rc.sup_norm(grid) == pytest.approx(rc.sup_norm(full), abs=1e-12)
    assert len(grid) == len(full.values) == 2**17


@pytest.mark.parametrize(
    "key,n,kwargs",
    [("uniform", 2, {"npoints": 2**14, "extent": 12.0}), ("uniform", 3, {}),
     ("laplace", 1, {})],
)
def test_slow_envelopes_keep_full_period(key, n, kwargs):
    # the uniform grids fold the 2**12 bins of [-3, 3) and the 2**15 of
    # [-4, 4), which hold the support of Z_2 and Z_3; Laplace folds them all
    spec = _ENVELOPE_LAWS[key]
    bins = {("uniform", 2): 2**12, ("uniform", 3): 2**15, ("laplace", 1): 2**17}[key, n]
    grid, points = _counted_grid(spec, n, **kwargs)
    full, full_points = _full_period_grid(spec, n, **kwargs)
    assert points == full_points == grid.folds * bins
    assert np.array_equal(grid.values, full.values)
    assert grid.ringing_bound == full.ringing_bound
    assert grid.band == full.band == 0


def test_fold_heavy_grids_fold_their_pinned_periods():
    # the benchmark's fold-heavy grids on the default grid: the cf points
    # and periods they fold are the work a faster fold must keep.  The
    # uniform grids fold the 2**15 bins of [-4, 4), which hold the support
    # of Z_2..Z_4, and Laplace all 2**17
    counted = [_counted_grid(spec, n) for spec, n in
               [(rc.Uniform(), 2), (rc.Uniform(), 3), (rc.Uniform(), 4),
                (rc.TwoSidedExponential(), 1), (rc.TwoSidedExponential(), 2)]]
    folds = [grid.folds for grid, _ in counted]
    assert sum(points for _, points in counted) == 12779520
    assert sum(folds) == 291 and max(folds) == 256
    assert not any(grid.cap_hit for grid, _ in counted)
    bins = [2**15, 2**15, 2**15, 2**17, 2**17]
    assert [points for _, points in counted] == [
        grid.folds * b for (grid, _), b in zip(counted, bins)]


@pytest.mark.parametrize("spec,n,column", [(rc.Uniform(), 2, 1), (rc.TwoSidedExponential(), 1, 2)],
                         ids=["uniform", "laplace"])
def test_spectral_step_bounds_the_sampled_step(monkeypatch, spec, n, column):
    # the two slowest default grids measure their steps on the spectrum, so
    # only the settled extrapolant reaches the inverse FFT.  On every
    # doubling the first column's step, the l1 norm over N h of the
    # two-sided bins of R1_K - R1_{K/2}, is at least the largest sampled
    # |R1_K - R1_{K/2}| and at most 1.5 times it.  The grid's ringing bound
    # is the last step of the column that settled: the first for uniform,
    # the second, (8 d_K - d_{K/2})/7 for the first's steps d, for Laplace
    lengths, irfft = [], np.fft.irfft

    def counted_irfft(a, n=None, *args, **kwargs):
        lengths.append(n)
        return irfft(a, n, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.fft, "irfft", counted_irfft)
        grid = rc.density_of_normalized_sum(spec, n)
    assert grid.folds > 1 and not grid.cap_hit and len(lengths) == 1
    folds, h = _period_folds(spec, n, rc.numerics.DEFAULT_GRID_POINTS,
                             rc.numerics.DEFAULT_GRID_EXTENT, grid.folds)
    extrapolants = [2.0 * wider - fold for fold, wider in zip(folds, folds[1:])]
    d = [newer - older for older, newer in zip(extrapolants, extrapolants[1:])]
    for older, newer, step in zip(extrapolants, extrapolants[1:], d):
        sampled = np.abs(_samples(newer, h) - _samples(older, h)).max()
        spectral = _spectral_size(step, h)
        assert sampled <= spectral <= 1.5 * sampled
    if column == 2:
        spectral = _spectral_size((8 * d[-1] - d[-2]) / 7, h)
    assert spectral == pytest.approx(grid.ringing_bound, rel=1e-9)


def _fold_pair(spec, n, npoints, extent, bins=None):
    """The library's folded inversion and the period-at-a-time oracle's, on
    the ``bins`` central points that the library folds (default all), the
    rest of its grid being zero."""
    bins = bins or npoints
    h = 2 * extent / npoints
    dt = 2 * math.pi / (bins * h)
    values, folds, cap_hit, ringing, spectrum = rc.numerics._folded_density(
        spec, n, npoints, extent
    )
    assert spectrum is None
    lo = (npoints - bins) // 2
    assert not values[:lo].any() and not values[lo + bins:].any()
    return ((values[lo:lo + bins], folds, cap_hit, ringing),
            period_at_a_time_fold(spec, n, bins, dt, h))


@pytest.mark.parametrize(
    "spec,n,npoints,periods",
    [(rc.TwoSidedExponential(), 1, 2**15, None), (rc.StandardizedGamma(1), 2, 2**15, 8),
     (_table(4001, 12.0, _dyadic_mixture_pdf), 1, 2**14, 8)],
    ids=["laplace", "gamma1", "table"],
)
def test_blocked_fold_is_bit_identical(monkeypatch, spec, n, npoints, periods):
    # the bins are folded in blocks, each taking its periods in order, and a
    # real cf folds in real arithmetic: every sample, the fold count, the cap
    # flag and the ringing bound are those of whole complex periods added one
    # after the other.  Gamma(1) and the table stop at a cap of 8 periods
    # (three doublings), the table also with no tail bound to settle under.
    # Blocks of 2**14 bins split the 2**15-bin grids in two, and the table's
    # 2**14 bins are one block, so its chirps are the oracle's.  Laplace
    # settles on the second Richardson column at 32 periods, its steps at 16
    # and 32 periods being 3.59e-9 and 1.34e-10; the first column's were
    # 4.76e-8 and 6.07e-9, and it would have settled at 128
    monkeypatch.setattr(rc.numerics, "_FOLD_BLOCK", 2**14)
    if periods is not None:
        monkeypatch.setattr(rc.numerics, "_EVAL_CAP", periods * npoints)
        monkeypatch.setattr(rc.numerics, "_TAIL_BOUND", 0.0)
    (values, *record), (expected, *expected_record) = _fold_pair(spec, n, npoints, 12.0)
    assert np.array_equal(values, expected)
    assert record == expected_record
    assert record[0] == (periods or 32) and record[1] == (periods is not None)


def test_blocked_uniform_fold_matches_to_rounding(monkeypatch):
    # the uniform cf takes a lattice's sines from a table built for the
    # block it is given, so its values, and the fold, move by rounding with
    # the blocks (two of 2**12 bins here, over the 2**13 of [-3, 3) that
    # Z_2 is folded on); the tolerance is fixed from the dtype, not measured
    monkeypatch.setattr(rc.numerics, "_FOLD_BLOCK", 2**12)
    (values, *record), (expected, *expected_record) = _fold_pair(
        rc.Uniform(), 2, 2**15, 12.0, bins=2**13
    )
    tol = 16 * 2.0**-52 * expected.max()
    assert np.abs(values - expected).max() <= tol
    assert record[:2] == expected_record[:2] == [64, False]
    assert abs(record[2] - expected_record[2]) <= 2 * tol


def test_blocked_table_fold_follows_its_chirp_blocks(monkeypatch):
    # a table's cf is a chirp z-transform of the block of frequencies it is
    # given, so over two blocks its values, and the fold, move by rounding
    spec = _table(4001, 12.0, _dyadic_mixture_pdf)
    monkeypatch.setattr(rc.numerics, "_FOLD_BLOCK", 2**14)
    monkeypatch.setattr(rc.numerics, "_EVAL_CAP", 4 * 2**15)
    (values, *record), (expected, *expected_record) = _fold_pair(spec, 1, 2**15, 12.0)
    assert np.abs(values - expected).max() < 1e-12
    assert record[:2] == expected_record[:2] == [4, True]


def test_tabulated_law_keeps_full_period():
    spec = _table(4001, 12.0, rc.normal_pdf)
    grid, points = _counted_grid(spec, 2, npoints=2**14, extent=12.0)
    assert points == grid.folds * 2**14


def _triangle(points):
    """The density of uniform Z_2, tabulated on ``points`` nodes of its
    support [-sqrt(6), sqrt(6)]."""
    x = np.linspace(-math.sqrt(6.0), math.sqrt(6.0), points)
    return rc.GridDensity(x, np.maximum(math.sqrt(6.0) - np.abs(x), 0.0) / 6.0)


@pytest.mark.parametrize(
    "n,kwargs,bins,tol",
    [(2, {}, 2**15, None), (3, {}, 2**15, None), (4, {}, 2**15, None),
     (2, {"npoints": 2**14, "extent": 12.0}, 2**12, 1e-12)],
    ids=["n2", "n3", "n4", "n2-coarse"],
)
def test_uniform_folds_its_support_only(n, kwargs, bins, tol):
    # Z_2..Z_4 lie in [-4, 4), so the default grid folds its central 2**15
    # bins there, and [-3, 3) holds Z_2 on the coarse grid: by Poisson
    # summation that fold is p_n itself, which the whole-extent fold
    # (support hidden) matches to rounding, with the same periods
    grid, seen = _lattice_grid(rc.Uniform(), n, **kwargs)
    _assert_folds_on(grid, seen, bins, bins * grid.h / 2, n)
    full = rc.Uniform()
    full.support = math.inf
    reference = rc.density_of_normalized_sum(full, n, **kwargs)
    tol = tol or 16 * 2.0**-52 * reference.values.max()
    assert np.abs(grid.values - reference.values).max() <= tol
    lo = (len(grid) - bins) // 2
    assert lo > 0 and not grid.values[:lo].any() and not grid.values[lo + bins:].any()
    assert (grid.folds, grid.cap_hit) == (reference.folds, reference.cap_hit)


def test_tabulated_triangle_folds_its_support_only():
    # a 101-node table of the uniform Z_2 density reaches sqrt(6) + h, so
    # its Z_2 lies inside [-3.5, 3.5] and folds on the 2**11 bins of [-6, 6)
    spec = _triangle(101)
    grid, seen = _lattice_grid(spec, 2, npoints=2**12, extent=12.0)
    _assert_folds_on(grid, seen, 2**11, 6.0, 2)
    spec.support = math.inf
    full = rc.density_of_normalized_sum(spec, 2, npoints=2**12, extent=12.0)
    assert np.abs(grid.values - full.values).max() <= grid.ringing_bound
    assert (grid.folds, grid.cap_hit) == (full.folds, full.cap_hit)


@pytest.mark.parametrize(
    "spec,n", [(rc.TwoSidedExponential(), 1), (_table(4001, 12.0, rc.normal_pdf), 2)],
    ids=["laplace", "wide-table"],
)
def test_wide_support_folds_the_whole_grid(monkeypatch, spec, n):
    # an unbounded law, and a table whose Z_2 reaches past L/2 = 6, fold all
    # 2**14 bins at dt = pi/12, bit for bit as with no support at all
    grid, seen = _lattice_grid(spec, n, npoints=2**14, extent=12.0)
    _assert_folds_on(grid, seen, 2**14, 12.0, n)
    monkeypatch.setattr(spec, "support", math.inf)
    full = rc.density_of_normalized_sum(spec, n, npoints=2**14, extent=12.0)
    assert np.array_equal(grid.values, full.values)
    assert (grid.folds, grid.ringing_bound) == (full.folds, full.ringing_bound)


@pytest.mark.parametrize(
    "npoints,bins,half", [(2048, 1024, 6.0), (2052, 1026, 6.0), (1026, 1026, 12.0)],
)
def test_support_fold_keeps_1024_bins_and_an_even_half(npoints, bins, half):
    # uniform Z_3 lies in [-3, 3], which [-3, 3) would hold, but a fold
    # halves only to at least 1024 bins, and only an N whose half is even
    assert rc.numerics._support_extent(rc.Uniform(), 3, npoints, 12.0) == (bins, half)
    grid, seen = _lattice_grid(rc.Uniform(), 3, npoints=npoints, extent=12.0)
    _assert_folds_on(grid, seen, bins, half, 3)
    assert len(grid) == npoints


def test_eval_cap_is_flagged(monkeypatch):
    # with room for eight periods only, uniform n = 2 cannot settle
    npoints = 2**14
    monkeypatch.setattr(rc.numerics, "_EVAL_CAP", 8 * npoints)
    g = rc.density_of_normalized_sum(rc.Uniform(), 2, npoints=npoints, extent=12.0)
    assert g.cap_hit
    assert g.folds == 8
    assert g.ringing_bound >= 5e-9


@pytest.mark.parametrize(
    "spec,n,periods,cause",
    [(rc.Uniform(), 2, 4, "negative density"),
     (rc.StandardizedGamma(0.5), 3, 2, "mass defect")],
    ids=["negative", "mass"],
)
def test_grid_error_names_the_cap(monkeypatch, spec, n, periods, cause):
    # a fold the cap stopped fails its checks with the cap named
    npoints = 2**14
    monkeypatch.setattr(rc.numerics, "_EVAL_CAP", periods * npoints)
    with pytest.raises(rc.GridError, match=cause) as info:
        rc.density_of_normalized_sum(spec, n, npoints=npoints, extent=12.0)
    assert re.search(
        rf"fold stopped at the cf evaluation cap after {periods} periods, "
        r"unsettled; last step between extrapolants \S+$", str(info.value)
    )


def _nan_at(cf, index):
    """``cf`` with NaN at one index of the lattice, or everywhere (None)."""
    def spoiled(t):
        values = np.array(cf(t))
        if index is None:
            values[:] = math.nan
        elif t.first <= index < t.first + t.size:
            values[index - t.first] = math.nan
        return values
    return spoiled


@pytest.mark.parametrize(
    "spec,npoints,index,folds",
    [(rc.GaussianMixture.standard_normal(), 2**17, None, 1), (rc.Uniform(), 2**14, None, 1),
     (rc.Uniform(), 2**14, 5, 8)],
    ids=["band", "fold", "fold-one-nan"],
)
def test_nan_cf_raises_grid_error(monkeypatch, spec, npoints, index, folds):
    # a NaN fails the mass check instead of passing every comparison, and
    # the fold does not run on to the evaluation cap (here 64 periods, to
    # keep a regression short): a NaN ringing bound stops it at its first
    # period, and two NaN Richardson steps at 8 periods
    monkeypatch.setattr(rc.numerics, "_EVAL_CAP", 64 * npoints)
    spec.cf = _nan_at(spec.cf, index)
    try:
        with pytest.raises(rc.GridError, match="mass defect nan$"):
            rc.density_of_normalized_sum(spec, 2, npoints=npoints, extent=12.0)
        assert rc.numerics._folded_density(spec, 2, npoints, 12.0)[1] == folds
    finally:
        del spec.cf


def test_grid_error_without_cap_leaves_it_out(monkeypatch):
    monkeypatch.setattr(rc.numerics, "_MASS_DEFECT_LIMIT", 0.0)
    with pytest.raises(rc.GridError, match="mass defect") as info:
        rc.density_of_normalized_sum(rc.Uniform(), 3, npoints=2**14, extent=12.0)
    assert "cap" not in str(info.value)


@pytest.mark.parametrize("extent", [1e20, 1e25, 1e300])
def test_grid_step_too_coarse_for_f_n_is_grid_error(monkeypatch, extent):
    # on 1024 points over this extent |f_n| is 1 over the whole first
    # period, yet the band bound (N/extent) E**n and the one-period ringing
    # bound read 1e-17 or less: the grids were kept, and printed h_2 = 38.8
    # (1e20, one period) and 52.1 (1e25, a band) against a predicted 1.25.
    # The band is refused, and the fold stops after its first period.
    spec = rc.StandardizedGamma(4)
    points = []
    monkeypatch.setattr(spec, "cf", lambda t, cf=spec.cf: points.append(np.size(t)) or cf(t))
    assert rc.numerics._band_length(spec, 8, 1024, math.pi / extent) is None
    with pytest.raises(rc.GridError, match=(
        r"^grid step \S+ is too coarse for n=8: \|f_n\| is 1 at the end of the "
        r"first frequency period, t = \S+$"
    )):
        rc.density_of_normalized_sum(spec, 8, npoints=1024, extent=extent)
    assert sum(points) == 1024


def test_exact_phase_gaussian_and_gamma(grid_for):
    # one-period grids whose only error is roundoff in the inversion itself
    g = grid_for("gaussian", 4)
    assert np.abs(g.values - rc.normal_pdf(g.x)).max() < 1e-14
    g = grid_for("gamma4", 3)
    exact = rc.StandardizedGamma(12).density(g.x)
    assert np.abs(g.values - exact).max() < 1e-13


def test_uniform_local_limit_improves(grid_for):
    phi = rc.normal_pdf
    e4 = np.abs(grid_for("uniform", 4).values - phi(grid_for("uniform", 4).x)).max()
    e16 = np.abs(grid_for("uniform", 16).values - phi(grid_for("uniform", 16).x)).max()
    assert e16 < e4


def test_below_nmin_rejected():
    with pytest.raises(ValueError, match="n_min"):
        rc.density_of_normalized_sum(rc.Uniform(), 1)


def test_above_max_n_rejected():
    # at n = 2**33 the powered cf's relative error n 2**-53 is about 1e-6
    assert rc.numerics.MAX_N == 2**33
    with pytest.raises(ValueError, match="above 8589934592"):
        rc.density_of_normalized_sum(rc.Uniform(), 2**33 + 1, npoints=1024)


def test_grid_parameters_validated():
    with pytest.raises(ValueError, match="extent"):
        rc.density_of_normalized_sum(rc.Uniform(), 4, extent=8)
    with pytest.raises(ValueError, match="npoints"):
        rc.density_of_normalized_sum(rc.Uniform(), 4, npoints=999)


@pytest.mark.parametrize("extent", [math.nan, math.inf])
def test_non_finite_extent_rejected(extent):
    # named before any folding: NaN used to fold and fail the mass check,
    # inf to raise a math domain error
    with pytest.raises(ValueError, match="extent must be finite"):
        rc.density_of_normalized_sum(rc.Uniform(), 4, extent=extent)


@pytest.mark.parametrize("spec", [rc.Uniform(), rc.GaussianMixture.standard_normal()],
                         ids=["uniform", "normal"])
def test_overflowing_grid_step_rejected(spec):
    # 2 * 1.7e308 overflows, so dt was 0 and the band's log of it raised
    # "math domain error"; the step is now an argument check of its own
    with pytest.raises(ValueError, match=r"^grid step 2\*extent/npoints overflows a float"):
        rc.density_of_normalized_sum(spec, 2, 1024, 1.7e308)


def test_grid_bookkeeping(grid_for):
    g = grid_for("uniform", 8)
    assert g.mass_defect < 1e-6
    assert g.min_value >= -1e-8
    assert g.values.min() >= 0.0
    assert g.n == 8
    assert g.x[0] == -16.0
    assert len(g.values) == 2**17


def test_grid_csv_roundtrip(tmp_path, grid_for):
    # the CSV writer behind --dump-density prints x and p_n to 17
    # significant digits, so each float read back is the float written
    g = grid_for("uniform", 8)
    path = tmp_path / "g.csv"
    _write_rows(path, ["x", "p_n"], zip(g.x, g.values))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,p_n"
    assert len(lines) == len(g.values) + 1
    xs, ps = zip(*(ln.split(",") for ln in lines[1:100]))
    assert float(xs[0]) == g.x0
    assert float(ps[50]) == g.values[50]


# -- functionals -------------------------------------------------------------


def test_lr_integral_gaussian(grid_for):
    g = grid_for("gaussian", 4)
    assert rc.lr_integral(g, 2) == pytest.approx(1 / (2 * math.sqrt(math.pi)), abs=1e-10)
    # Simpson and the Riemann mass bookkeeping differ by the end-correction
    assert rc.lr_integral(g, 1) == pytest.approx(1.0, abs=g.mass_defect + 1e-10)


def test_functionals_skip_exact_zeros_bit_for_bit(grid_for):
    # the uniform n = 2 grid is mostly exact zeros beyond Z_2's support:
    # skipping them keeps every bit of the plain power's Simpson sum, and
    # of the plain -p log p with 0 log 0 = 0
    g = grid_for("uniform", 2)
    v = g._samples
    assert (v == 0).mean() > 0.8
    for r in (1.0, 1.5, 2.0, 2.347, 3.0, 7.5):
        assert rc.lr_integral(g, r) == _simpson(v**r, dx=g._step)
    pos = v > 0
    integrand = np.zeros_like(v)
    integrand[pos] = -v[pos] * np.log(v[pos])
    assert rc.shannon_entropy(g) == _simpson(integrand, dx=g._step)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [2, 3])
def test_lr_integral_irwin_hall_oracle(grid_for, n, r):
    g = grid_for("uniform", n)
    assert rc.lr_integral(g, r) == pytest.approx(
        normalized_uniform_sum_lr(n, r), abs=1e-7
    )


def test_renyi_entropy_rejects_degenerate_grid():
    empty = _plain_grid(16.0, np.zeros(4096))
    with pytest.raises(ValueError, match="non-positive"):
        rc.renyi_entropy(empty, 2.0)
    with pytest.raises(ValueError, match="r must"):
        rc.renyi_entropy(empty, 0.5)
    with pytest.raises(ValueError, match="degenerate"):
        rc.renyi_entropy(empty, math.inf)


def test_renyi_entropy_names_underflow(grid_for):
    # the grid is fine; only p**r underflows at r = 1e308
    g = grid_for("uniform", 8)
    with pytest.raises(ValueError, match="underflows to 0 at r=1e\\+308"):
        rc.renyi_entropy(g, 1e308)
    empty = _plain_grid(16.0, np.zeros(4096))
    with pytest.raises(ValueError, match="grid is degenerate"):
        rc.renyi_entropy(empty, 1e308)


def test_renyi_entropy_limits(grid_for):
    # r = 1 is the Shannon entropy and r = inf is -log of the sup-norm
    g = grid_for("gamma4", 16)
    assert rc.renyi_entropy(g, 1) == rc.shannon_entropy(g)
    assert rc.renyi_entropy(g, math.inf) == -math.log(rc.sup_norm(g))
    assert rc.entropy_power(g, math.inf) == pytest.approx(rc.sup_norm(g) ** -2, rel=1e-15)
    assert rc.renyi_entropy(g, 1 + 1e-6) == pytest.approx(rc.renyi_entropy(g, 1), abs=1e-6)
    assert rc.renyi_entropy(g, 500) == pytest.approx(rc.renyi_entropy(g, math.inf), abs=1e-2)


def test_renyi_entropy_gaussian(grid_for):
    g = grid_for("gaussian", 4)
    assert rc.renyi_entropy(g, 2) == pytest.approx(
        math.log(2 * math.sqrt(math.pi)), abs=1e-9
    )
    for r in (1.5, 2.0, 3.0, 5.0):
        assert rc.entropy_power(g, r) == pytest.approx(
            2 * math.pi * r ** (1 / (r - 1)), rel=1e-8
        )


def test_entropy_scaling_by_two(grid_for):
    # doubling the variable adds log 2 to h_r (entropy power is 2-homogeneous):
    # the density of 2X on the stretched grid is p(x/2)/2
    g = grid_for("laplace", 4)
    doubled = _plain_grid(-2 * g.x0, g.values / 2, g.n)
    assert (doubled.x0, doubled.h) == (2 * g.x0, 2 * g.h)
    for r in (1.5, 2.0, 3.0):
        assert rc.renyi_entropy(doubled, r) - rc.renyi_entropy(g, r) == pytest.approx(
            math.log(2.0), abs=1e-12
        )
    assert rc.shannon_entropy(doubled) - rc.shannon_entropy(g) == pytest.approx(
        math.log(2.0), abs=1e-10
    )


def test_shannon_and_kl_gaussian(grid_for):
    g = grid_for("gaussian", 2)
    assert rc.shannon_entropy(g) == pytest.approx(
        0.5 * math.log(2 * math.pi * math.e), abs=1e-8
    )
    # D(p || phi) = h(phi) - h(p) for a standardized p
    assert rc.gaussian_renyi_entropy(1) - rc.shannon_entropy(g) == pytest.approx(0.0, abs=1e-8)


def test_uniform_n1_tabulated():
    # support-aligned tabulation of the base uniform law itself: the samples
    # at x_j = -sqrt3 + j h close both ends of the support, so Simpson at
    # their spacing h integrates the constant density over exactly its
    # support (the functionals read only the samples and their spacing)
    npts = 40001
    h = 2 * SQRT3 / (npts - 1)
    g = _plain_grid(h * npts / 2, rc.Uniform().density(-SQRT3 + h * np.arange(npts)))
    assert g._step == pytest.approx(h, rel=1e-15)
    assert rc.sup_norm(g) == pytest.approx(1 / (2 * SQRT3), rel=1e-12)
    expected_kl = 0.5 * math.log(2 * math.pi * math.e) - math.log(2 * SQRT3)
    assert expected_kl == pytest.approx(0.17649, abs=5e-6)
    # D(p || phi) = h(phi) - h(p) for a standardized p
    assert rc.gaussian_renyi_entropy(1) - rc.shannon_entropy(g) == pytest.approx(expected_kl, abs=1e-10)
    assert rc.shannon_entropy(g) == pytest.approx(math.log(2 * SQRT3), abs=1e-10)


def test_sup_norm_gaussian(grid_for):
    g = grid_for("gaussian", 2)
    assert rc.sup_norm(g) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-10)


def test_sup_norm_uniform_approaches_prediction(grid_for):
    g = grid_for("uniform", 64)
    phi0 = 1 / math.sqrt(2 * math.pi)
    assert rc.sup_norm(g) / phi0 == pytest.approx(1 - 0.15 / 64, abs=1e-5)


# -- invariants ---------------------------------------------------------------


def test_entropy_power_monotone_in_r(grid_for):
    g = grid_for("uniform", 8)
    values = [rc.entropy_power(g, r) for r in (1.5, 2.0, 3.0, 5.0)]
    values.append(rc.sup_norm(g) ** -2.0)  # N_inf proxy
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_gaussian_entropies_independent_of_n(grid_for):
    for r in (2.0, 3.0):
        vals = [rc.renyi_entropy(grid_for("gaussian", n), r) for n in (1, 4, 16)]
        assert max(vals) - min(vals) < 1e-7


@pytest.mark.parametrize("spec_key,r", [("uniform", 2.0), ("uniform", 3.0),
                                        ("gamma4", 2.0), ("gamma4", 3.0)])
def test_entropy_convergence_along_n(grid_for, spec_key, r):
    h_gauss = rc.gaussian_renyi_entropy(r)
    errs = [
        abs(rc.renyi_entropy(grid_for(spec_key, n), r) - h_gauss)
        for n in (4, 8, 16, 32, 64)
    ]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_parseval_at_r2(grid_for):
    g = grid_for("uniform", 8)
    spec = rc.Uniform()
    t = np.arange(0.0, 400.0, 0.01)
    fn = _cf_power(spec, 8, t)
    freq = (2 * simpson(np.abs(fn) ** 2, dx=0.01) - 0.0) / (2 * math.pi)
    assert rc.lr_integral(g, 2) == pytest.approx(freq, abs=1e-7)


def test_cumulant_additivity_via_grid(grid_for):
    # cumulants of X1 + X2 are 2 gamma_k; measured on the Z_2 grid where
    # gamma_k(Z_2) = 2^{1-k/2} gamma_k.  The x**k-weighted roundoff of the
    # inverted grid caps the attainable accuracy near 1e-6 for k = 5, 6.
    g = grid_for("laplace", 2)
    x = g.x
    moments = [float(simpson(g.values * x**k, dx=g.h)) for k in range(1, 7)]
    measured = rc.cumulants_from_moments(rc.MomentVector(tuple(moments)))
    base = rc.standard_cumulants("two_sided_exponential", order=6)
    for k in (3, 4):
        unscaled = float(measured.gamma(k)) * 2 ** (k / 2)
        assert unscaled == pytest.approx(2 * float(base.gamma(k)), abs=1e-6)
    for k in (5, 6):
        unscaled = float(measured.gamma(k)) * 2 ** (k / 2)
        assert unscaled == pytest.approx(2 * float(base.gamma(k)), abs=2e-5)


# -- the density hypothesis: n_min ---------------------------------------------

_N_MIN_LAWS = {
    "uniform": rc.Uniform(),
    "laplace": rc.TwoSidedExponential(),
    "gaussian": rc.GaussianMixture.standard_normal(),
    "dyadic_mixture": _ENVELOPE_LAWS["dyadic_mixture"],
    **{f"gamma_{a}": rc.StandardizedGamma(a) for a in (F(1, 3), F(1, 2), 1, F(5, 2), 4)},
}


@pytest.mark.parametrize("key", sorted(_N_MIN_LAWS))
def test_n_min_is_where_the_envelope_power_decays(key):
    # |f|**n is integrable, and Z_n has a bounded density, once t E(t)**n
    # tends to 0, E the cf envelope.  n_min is the least such n: from t = 1e6
    # to 1e12, t E(t)**n_min falls at least tenfold (or is 0 throughout), and
    # t E(t)**(n_min - 1) does not fall.  E <= 1, so larger n fall faster.
    spec = _N_MIN_LAWS[key]
    decay = [[t * spec.cf_envelope(t) ** n for t in (1e6, 1e12)]
             for n in (spec.n_min - 1, spec.n_min)]
    (below_near, below_far), (near, far) = decay
    assert far <= 0.1 * near
    assert below_far >= 0.5 * below_near > 0
    if spec.n_min > 1:
        with pytest.raises(ValueError, match="n_min"):
            rc.density_of_normalized_sum(spec, spec.n_min - 1, npoints=1024)


def test_table_cf_decays_like_t_squared():
    # the hat basis multiplies a lattice sum of modulus at most sum p_j h by
    # sinc(t h/(2 pi))**2 <= (2/(t h))**2, so t**2 |f(t)| stays bounded and
    # every table has n_min = 1
    spec = _table(4001, 12.0, _dyadic_mixture_pdf)
    t = np.geomspace(10.0, 1e6, 400)
    bound = 4 * float(np.sum(spec.p)) / spec.h
    assert spec.n_min == 1
    assert (t * t * np.abs(spec.cf(t))).max() <= bound * (1 + 1e-9)
