import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from helpers import envelope_mc_draws, j0_first_zero, j0_series, mc_panel_kernels

from twdpsim import theory
from twdpsim.params import ChannelParams, from_k_gamma, make_scenario, validate_scenario
from twdpsim.sos import envelope_bound
from twdpsim.theory import (
    LagGrid,
    _chebyshev_degree,
    _panel_means,
    _panel_orbits,
    _panel_order,
    bessel_j0,
    envelope_cdf_reference,
    envelope_cdf_simulator,
    envelope_pdf_reference,
    f_c,
    f_s,
    rayleigh_lcr_oracle,
    ref_acf_complex,
    ref_acf_quadrature,
    ref_acf_squared,
    ref_ccf_quadrature,
    sim_acf_complex,
    sim_acf_quadrature,
    sim_acf_squared,
    sim_ccf_quadrature,
)

TWO_PI = 2.0 * math.pi
FD = 1000.0


def grid_fd_tau(n_lags=1001, fd=FD, fd_ts=0.01):
    return LagGrid.from_sample_lags(n_lags, fd_ts / fd, fd)


def random_params(rng):
    return from_k_gamma(
        10.0 ** rng.uniform(-2, 2), rng.uniform(0, 1), 10.0 ** rng.uniform(-1, 1)
    )


def random_rates(rng, fd=FD):
    return (
        -TWO_PI * fd * math.cos(rng.uniform(-np.pi, np.pi)),
        -TWO_PI * fd * math.cos(rng.uniform(-np.pi, np.pi)),
    )


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_against_series_below_crossover(self):
        for x in np.linspace(0.0, 8.0, 161):
            assert abs(bessel_j0(x) - j0_series(x)) < 1e-12

    def test_against_series_above_crossover(self):
        # the double-precision series keeps ~1e-9 absolute accuracy out to 20
        for x in np.linspace(8.0, 20.0, 61):
            assert abs(bessel_j0(x) - j0_series(x)) < 1e-8

    def test_reference_value(self):
        want = j0_series(1.0)
        assert abs(want - 0.7651976866) < 1e-9
        assert abs(bessel_j0(1.0) - want) < 1e-12

    def test_first_zero(self):
        x0 = j0_first_zero()
        assert abs(x0 - 2.404825557695773) < 1e-9
        assert abs(bessel_j0(x0)) < 1e-10
        assert abs(bessel_j0(2.404826)) < 1e-6

    @pytest.mark.parametrize("x", [25.0, 100.0, 1000.0, 10000.0, -37.5])
    def test_wide_range_contract(self, x):
        want = float(mpmath.besselj(0, mpmath.mpf(x)))
        assert abs(bessel_j0(x) - want) <= 1e-10

    def test_array_input(self):
        xs = np.array([0.0, 1.0, 5.0])
        vals = bessel_j0(xs)
        assert vals.shape == (3,)
        assert vals[0] == 1.0


KERNEL_CASES = [(62.8, 8), (62.8, 1), (20.0, 64), (200.0, 4)]
# Odd n and n = 2 mod 4, whose symmetry orbits differ from the n = 0 mod 4 cases.
ORBIT_KERNEL_CASES = [(10.0, 7), (20.0, 6)]


def _mpmath_panel_kernels(x, n):
    """f_c and f_s by 30-digit mpmath quadrature of every panel's mean of
    exp(j*x*cos(g)), each panel split into pieces shorter than about one
    oscillation."""
    with mpmath.workdps(30):
        xm = mpmath.mpf(x)
        pieces = 4 + int(abs(x) / n)
        fc = fs = mpmath.mpf(0)
        for m in range(1, n + 1):
            lo = (2 * m - 1) * mpmath.pi / n
            hi = (2 * m + 1) * mpmath.pi / n
            mean = mpmath.quad(
                lambda g: mpmath.expj(xm * mpmath.cos(g)), mpmath.linspace(lo, hi, pieces + 1)
            ) / (2 * mpmath.pi)
            fc += mean.real ** 2
            fs += mean.imag ** 2
        return float(fc), float(fs)


class TestPanelKernels:
    def test_identities_at_zero(self):
        for n in (1, 4, 8, 64):
            assert abs(f_c(0.0, n) - 1.0 / n) <= 1e-12
            assert abs(f_s(0.0, n)) <= 1e-12

    @pytest.mark.parametrize("n", [4, 8, 64])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0])
    def test_bound(self, x, n):
        fc = f_c(x, n)
        fs = f_s(x, n)
        assert fc >= 0 and fs >= 0
        assert fc + fs <= 1.0 / n + 1e-15

    @pytest.mark.parametrize("x,n", [(1.0, 8), (5.0, 8)])
    def test_against_monte_carlo(self, x, n):
        fc_mc, fs_mc, se_c, se_s = mc_panel_kernels(x, n, draws=1_000_000, seed=17)
        assert abs(f_c(x, n) - fc_mc) <= 3 * se_c
        assert abs(f_s(x, n) - fs_mc) <= 3 * se_s

    def test_array_matches_scalar(self):
        for xs in (np.array([0.0, 0.5, 3.0, 12.0]), np.array([[0.5, 1.0], [2.0, 3.0]]),
                   np.zeros((0, 3))):
            fc_arr = f_c(xs, 8)
            fs_arr = f_s(xs, 8)
            assert fc_arr.shape == fs_arr.shape == xs.shape
            for i, x in np.ndenumerate(xs):
                assert fc_arr[i] == pytest.approx(f_c(float(x), 8), rel=1e-14, abs=1e-15)
                assert fs_arr[i] == pytest.approx(f_s(float(x), 8), rel=1e-14, abs=1e-15)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            f_c(1.0, 0)

    @pytest.mark.parametrize("x,n", KERNEL_CASES + ORBIT_KERNEL_CASES)
    def test_against_mpmath(self, x, n):
        want_c, want_s = _mpmath_panel_kernels(x, n)
        assert abs(f_c(x, n) - want_c) <= 1e-14
        assert abs(f_s(x, n) - want_s) <= 1e-14

    @pytest.mark.parametrize("x,n", KERNEL_CASES + ORBIT_KERNEL_CASES + [(0.0, 8), (5.0, 1024)])
    def test_doubled_order_moves_no_panel_mean(self, x, n):
        # The rule bounds the quadrature error of each mean by 1e-16.  Rounding
        # comes on top in each of the two evaluations: a phase error of up to
        # 12*pi*|x|*2^-53 per node (|g| <= 3*pi) plus a summation error of up
        # to 2*order*2^-53, both on weights that sum to 1/n for one mean.
        order = _panel_order(x, n)
        m = _panel_orbits(n)[0]
        means = _panel_means(np.array([x]), n, order, m)
        doubled = _panel_means(np.array([x]), n, 2 * order, m)
        rounding = 2 * (12 * math.pi * abs(x) + 4 * order) * 2.0 ** -53 / n
        assert np.abs(doubled - means).max() <= 1e-16 + rounding

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 64, 1024])
    def test_orbit_sums_match_every_panel(self, n):
        # Every one of the n panel means, summed without symmetry, at the
        # order the kernel uses for the whole lag set: at six lags, which the
        # kernel evaluates directly, and (n <= 64, to keep the every-panel
        # array small) on a 2001-lag lattice, which it interpolates from
        # fewer Chebyshev points.
        xi, w = np.polynomial.legendre.leggauss(_panel_order(62.8, n))
        g = (TWO_PI * np.arange(n)[:, None] + math.pi * xi) / n
        lattices = [np.array([0.0, 0.3, 2.5, 9.0, 31.4, 62.8])]
        if n <= 64:
            lattices.append(np.linspace(0.0, 62.8, 2001))
            assert lattices[-1].size > _chebyshev_degree(62.8, n) + 1
        for x in lattices:
            means = np.exp(1j * x[:, None, None] * np.cos(g)) @ w / (2 * n)
            fc, fs = theory._fc_fs(x, n)
            assert np.abs(fc - (means.real ** 2).sum(axis=-1)).max() <= 1e-15
            assert np.abs(fs - (means.imag ** 2).sum(axis=-1)).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_interpolated_lags_against_mpmath(self, n):
        # Three lags of a 10001-lag call that lie strictly between the
        # Chebyshev points the kernel evaluates, at test_against_mpmath's
        # tolerance.
        x = np.linspace(0.0, 62.8, 10001)
        degree = _chebyshev_degree(62.8, n)
        points = 62.8 * (1 + np.cos(np.pi * np.arange(degree + 1) / degree)) / 2
        fc, fs = f_c(x, n), f_s(x, n)
        for k in (1, degree // 2, degree - 2):
            i = np.abs(x - (points[k] + points[k + 1]) / 2).argmin()
            assert points[k + 1] < x[i] < points[k]
            want_c, want_s = _mpmath_panel_kernels(x[i], n)
            assert abs(fc[i] - want_c) <= 1e-14
            assert abs(fs[i] - want_s) <= 1e-14

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_lags_on_or_next_to_the_points(self, n):
        # Lags on a Chebyshev point, or a subnormal distance from one, make
        # the barycentric formula 0/0 or overflow; they take the point's means.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fc, fs = theory._fc_fs(np.zeros(200), n)
            assert np.all(fc == f_c(0.0, n)) and np.all(fs == 0.0)
            fc, fs = theory._fc_fs(np.linspace(0.0, 1e-310, 200), n)
            assert np.all(fc == f_c(0.0, n)) and np.all(fs == 0.0)
            x = np.r_[np.linspace(0.0, 62.8, 2001), 5e-324, 1e-320, -62.8]
            fc, fs = theory._fc_fs(x, n)
        for i in range(-3, 0):
            assert abs(fc[i] - f_c(x[i], n)) <= 1e-15 and abs(fs[i] - f_s(x[i], n)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_means_taken_at_the_lags_up_to_degree_plus_one(self, n, monkeypatch):
        # At most D + 1 lags: the means are taken at the lags themselves.
        # One more: at the D + 1 Chebyshev points, from 0 to max |x|.
        taken = []

        def counted(x, n, order, m):
            taken.append(x.copy())
            return _panel_means(x, n, order, m)

        monkeypatch.setattr(theory, "_panel_means", counted)
        degree = _chebyshev_degree(62.8, n)
        for size in (1, degree + 1):
            x = -np.linspace(62.8, 0.0, size)
            taken.clear()
            f_c(x, n)
            assert np.array_equal(np.concatenate(taken), np.abs(x))
        taken.clear()
        f_c(np.linspace(0.0, 62.8, degree + 2), n)
        points = np.concatenate(taken)
        assert points.size == degree + 1
        assert points.max() == 62.8 and points.min() == 0.0

    def test_orbit_sizes_sum_to_n(self):
        for n in [1024, 4098, 2 ** 20 + 1]:
            assert _panel_orbits(n)[1].sum() == n
        for n in range(1, 66):
            # Orbits of the group generated by m -> -m and, for even n,
            # m -> n/2 - m (so also m -> m + n/2), modulo n.
            m, mult = _panel_orbits(n)
            shifts = (0, n // 2) if n % 2 == 0 else (0,)
            orbits = {k: frozenset((s + sign * k) % n for s in shifts for sign in (1, -1))
                      for k in range(n)}
            assert [orbits[k] for k in m.tolist()] == list(dict.fromkeys(orbits.values())), n
            assert mult.tolist() == [len(orbits[k]) for k in m.tolist()], n
            assert mult.sum() == n

    @pytest.mark.parametrize("n", [1, 8, 64, 1024])
    def test_order_nondecreasing_in_x(self, n):
        orders = [_panel_order(x, n) for x in np.linspace(0.0, 200.0, 401)]
        assert np.all(np.diff(orders) >= 0)
        assert orders[-1] > orders[0]
        assert f_c(-62.8, n) == f_c(62.8, n) and f_s(-62.8, n) == f_s(62.8, n)

    def test_node_budget(self):
        # n = 4e9 passes the scenario check (< 2**32) but not the kernel
        # budget, which refuses before any per-panel array is built.
        with pytest.raises(ValueError, match="node budget"):
            f_c(1.0, 4_000_000_000)
        with pytest.raises(ValueError, match="node budget"):
            sim_acf_squared(from_k_gamma(0.0, 0.0), (0.0, 0.0), FD, 4_000_000_000, grid_fd_tau(3))
        with pytest.raises(ValueError, match="node budget"):
            f_s(1e6, 1)

    def test_lag_blocks_stay_small(self):
        # 20001 lags at n = 256: a (lags, n) complex array would be 82 MB.
        x = np.linspace(0.0, 62.8, 20001)
        tracemalloc.start()
        try:
            fc, fs = f_c(x, 256), f_s(x, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert fc[0] == pytest.approx(1 / 256, abs=1e-16) and fs[0] == 0.0

    @pytest.mark.parametrize("n", [17, 63, 64])
    def test_orbit_chunks_sum_to_one_pass(self, n, monkeypatch):
        # A workspace of 2^9 takes the orbits 7 at a time: the chunked sums
        # equal one pass over every orbit at round-off (2e-15/n, some nine
        # units in the last place of 1/n), and lags on or a subnormal
        # distance from a point take its means in every chunk.
        x = np.r_[np.linspace(0.0, 62.8, 3001), 5e-324, 1e-320, -62.8]
        whole = theory._fc_fs(x, n)
        monkeypatch.setattr(theory, "_PANEL_WORKSPACE", 2 ** 9)
        assert _panel_orbits(n)[0].size > 2 ** 9 // (_chebyshev_degree(62.8, n) + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            chunked = theory._fc_fs(x, n)
        for got, want in zip(chunked, whole):
            assert np.abs(got - want).max() <= 2e-15 / n

    @pytest.mark.slow
    def test_orbit_chunks_bound_the_memory(self):
        # n = 2^16 on 10001 lags: one table of every orbit's means at the 63
        # Chebyshev points peaked at 18.7 MB; chunks of 2^16 / 63 orbits hold
        # about 1 MB of means at a time.  The per-lag sums before the
        # interpolation peaked at 2.0 MB.
        x = np.linspace(0.0, 62.8, 10001)
        tracemalloc.start()
        try:
            fc, fs = theory._fc_fs(x, 2 ** 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6
        assert fc[0] == pytest.approx(2.0 ** -16, abs=1e-20) and fs[0] == 0.0
        assert np.all(fc >= 0) and np.all(fs >= 0) and np.all(fc + fs <= 2.0 ** -16 + 1e-20)


class TestQuadratureAcf:
    def test_zero_lag_is_half(self):
        rng = np.random.default_rng(23)
        grid = grid_fd_tau(5)
        for _ in range(20):
            series = ref_acf_quadrature(random_params(rng), random_rates(rng), FD, grid)
            assert abs(series.values[0] - 0.5) <= 1e-12

    def test_rayleigh_is_scaled_bessel(self):
        # grid kept inside the series oracle's double-precision range (x <= 20)
        p = from_k_gamma(0.0, 0.0)
        grid = grid_fd_tau(301)
        series = ref_acf_quadrature(p, (0.0, 0.0), FD, grid)
        want = 0.5 * np.array([j0_series(TWO_PI * FD * t) for t in grid.lags_s])
        assert np.abs(series.values - want).max() < 1e-8

    def test_rayleigh_zero_crossing_at_bessel_zero(self):
        # first zero of the correlation sits at lag x0 / (2 pi f_D)
        p = from_k_gamma(0.0, 0.0)
        lag = j0_first_zero() / (TWO_PI * FD)
        grid = LagGrid(np.array([0.0, lag]), FD)
        series = ref_acf_quadrature(p, (0.0, 0.0), FD, grid)
        assert abs(series.values[1]) <= 1e-6

    def test_two_perpendicular_tones_freeze(self):
        p = from_k_gamma(1e12, 1.0)
        r1 = -TWO_PI * FD * math.cos(math.pi / 2)
        r2 = -TWO_PI * FD * math.cos(-math.pi / 2)
        series = ref_acf_quadrature(p, (r1, r2), FD, grid_fd_tau(1001))
        assert np.abs(series.values - 0.5).max() <= 1e-12


class TestQuadratureCcf:
    def test_zero_lag(self):
        rng = np.random.default_rng(29)
        grid = grid_fd_tau(5)
        for _ in range(10):
            series = ref_ccf_quadrature(random_params(rng), random_rates(rng), grid)
            assert series.values[0] == 0.0

    def test_rayleigh_identically_zero(self):
        series = ref_ccf_quadrature(from_k_gamma(0.0, 0.0), (1.0, -2.0), grid_fd_tau(101))
        assert np.all(series.values == 0.0)

    def test_odd_in_lag(self):
        # negating both tone rates mirrors the lag axis
        rng = np.random.default_rng(31)
        p = random_params(rng)
        r1, r2 = random_rates(rng)
        grid = grid_fd_tau(101)
        fwd = ref_ccf_quadrature(p, (r1, r2), grid)
        rev = ref_ccf_quadrature(p, (-r1, -r2), grid)
        assert np.allclose(fwd.values, -rev.values, rtol=0, atol=1e-15)


class TestComplexAcf:
    def test_zero_lag_is_unity(self):
        rng = np.random.default_rng(37)
        grid = grid_fd_tau(5)
        for _ in range(10):
            re, im = ref_acf_complex(random_params(rng), random_rates(rng), FD, grid)
            assert abs(re.values[0] - 1.0) <= 1e-12
            assert abs(im.values[0]) <= 1e-12

    def test_consistency_with_component_series(self):
        rng = np.random.default_rng(41)
        grid = grid_fd_tau(501)
        for _ in range(5):
            p = random_params(rng)
            rates = random_rates(rng)
            re, im = ref_acf_complex(p, rates, FD, grid)
            acf = ref_acf_quadrature(p, rates, FD, grid)
            ccf = ref_ccf_quadrature(p, rates, grid)
            assert np.abs(re.values - 2 * acf.values).max() <= 1e-14
            assert np.abs(im.values + 2 * ccf.values).max() <= 1e-14

    def test_rician_reduction_term_by_term(self):
        p = from_k_gamma(7.0, 0.0)
        rates = (-1234.5, 987.6)
        grid = grid_fd_tau(301)
        re, im = ref_acf_complex(p, rates, FD, grid)
        tau = grid.lags_s
        want = (
            p.v1 ** 2 / p.omega * np.exp(-1j * rates[0] * tau)
            + p.diffuse_power / p.omega * np.array([j0_series(TWO_PI * FD * t) for t in tau])
        )
        assert np.abs(re.values - want.real).max() < 1e-8
        assert np.abs(im.values - want.imag).max() < 1e-12

    def test_real_even_imag_odd(self):
        rng = np.random.default_rng(43)
        p = random_params(rng)
        r1, r2 = random_rates(rng)
        grid = grid_fd_tau(101)
        re_f, im_f = ref_acf_complex(p, (r1, r2), FD, grid)
        re_r, im_r = ref_acf_complex(p, (-r1, -r2), FD, grid)
        assert np.allclose(re_f.values, re_r.values, rtol=0, atol=1e-15)
        assert np.allclose(im_f.values, -im_r.values, rtol=0, atol=1e-15)


class TestSquaredAcf:
    def test_rayleigh_zero_lag(self):
        series = ref_acf_squared(from_k_gamma(0.0, 0.0), (0.0, 0.0), FD, grid_fd_tau(3))
        assert abs(series.values[0] - 2.0) <= 1e-12

    def test_zero_lag_fourth_moment_identity(self):
        rng = np.random.default_rng(47)
        grid = grid_fd_tau(3)
        for _ in range(10):
            p = random_params(rng)
            series = ref_acf_squared(p, random_rates(rng), FD, grid)
            wd = p.diffuse_power / p.omega
            w1 = p.v1 ** 2 / p.omega
            w2 = p.v2 ** 2 / p.omega
            want = 1.0 + wd * (wd + 2 * w1 + 2 * w2) + 2 * w1 * w2
            assert abs(series.values[0] - want) <= 1e-12

    def test_two_tone_beat(self):
        p = ChannelParams.from_components(math.sqrt(0.5), math.sqrt(0.5), 0.0)
        rates = (-500.0, 1500.0)
        grid = grid_fd_tau(101)
        series = ref_acf_squared(p, rates, FD, grid)
        want = 1.0 + 0.5 * np.cos((rates[0] - rates[1]) * grid.lags_s)
        assert np.abs(series.values - want).max() <= 1e-12

    def test_simulator_rayleigh_zero_lag(self):
        series = sim_acf_squared(from_k_gamma(0.0, 0.0), (0.0, 0.0), FD, 8, grid_fd_tau(3))
        assert abs(series.values[0] - 1.875) <= 1e-12

    def test_simulator_deficit_bound(self):
        rng = np.random.default_rng(53)
        grid = grid_fd_tau(201)
        for n in (4, 8, 32):
            p = random_params(rng)
            rates = random_rates(rng)
            ref = ref_acf_squared(p, rates, FD, grid)
            sim = sim_acf_squared(p, rates, FD, n, grid)
            deficit = ref.values - sim.values
            bound = (p.diffuse_power / p.omega) ** 2 / n
            assert np.all(deficit >= -1e-15)
            assert deficit.max() <= bound + 1e-15

    def test_k10_gamma05_small_deficit(self):
        p = from_k_gamma(10.0, 0.5)
        rates = random_rates(np.random.default_rng(59))
        grid = grid_fd_tau(1001)
        ref = ref_acf_squared(p, rates, FD, grid)
        sim = sim_acf_squared(p, rates, FD, 8, grid)
        assert np.abs(ref.values - sim.values).max() <= (1.0 / 11.0) ** 2 / 8.0 + 1e-15

    def test_large_n_scaling(self):
        p = from_k_gamma(0.0, 0.0)
        grid = grid_fd_tau(9, fd_ts=1.0)
        ref = ref_acf_squared(p, (0.0, 0.0), FD, grid)
        sim = sim_acf_squared(p, (0.0, 0.0), FD, 1024, grid)
        deviation = np.abs(ref.values - sim.values).max()
        assert deviation * 1024 <= 1.0  # (diffuse/omega)^2 = 1 for Rayleigh

    def test_series_metadata(self):
        sim = sim_acf_squared(from_k_gamma(1.0, 1.0), (0.0, 0.0), FD, 8, grid_fd_tau(3))
        assert sim.kind == "rsq"


def test_simulator_formulas_are_reference_formulas():
    assert sim_acf_quadrature is ref_acf_quadrature
    assert sim_ccf_quadrature is ref_ccf_quadrature
    assert sim_acf_complex is ref_acf_complex


class TestEnvelopePdfReference:
    def test_rayleigh_closed_form(self):
        p = from_k_gamma(0.0, 0.0)
        for z in (0.3, 1.0, 2.0):
            want = 2.0 * z * math.exp(-z * z)
            assert abs(envelope_pdf_reference(p, z) - want) < 1e-8
        assert envelope_pdf_reference(p, 1.0) == pytest.approx(2.0 / math.e, abs=1e-8)

    @pytest.mark.parametrize("k,gamma", [(0.0, 0.0), (5.0, 0.5), (10.0, 1.0)])
    def test_unit_normalization(self, k, gamma):
        from scipy import integrate

        p = from_k_gamma(k, gamma)
        total, _ = integrate.quad(
            lambda z: envelope_pdf_reference(p, z), 0.0, 6.0, epsabs=1e-9, limit=200
        )
        assert abs(total - 1.0) <= 1e-6

    def test_rejects_no_diffuse(self):
        with pytest.raises(ValueError, match="diffuse"):
            envelope_pdf_reference(ChannelParams.from_components(1.0, 0.5, 0.0), 1.0)

    def test_rejects_negative_envelope(self):
        with pytest.raises(ValueError):
            envelope_pdf_reference(from_k_gamma(0.0, 0.0), -0.5)

    @pytest.mark.slow
    def test_against_brute_force_histogram(self):
        # 1e7 draws of the 256-sinusoid composition, 200 bins on [0, 3],
        # agreement within 3 standard errors in every bin
        p = from_k_gamma(10.0, 1.0)
        draws = envelope_mc_draws(
            p.v1, p.v2, p.diffuse_power, p.omega, 256, 10_000_000, seed=71, chunk=50_000
        )
        counts, edges = np.histogram(draws, bins=200, range=(0.0, 3.0))
        n = draws.size
        ref_cdf = envelope_cdf_reference(p, edges[1:])
        ref_prob = np.diff(np.concatenate(([0.0], ref_cdf)))
        emp_prob = counts / n
        se = np.sqrt(np.maximum(emp_prob, ref_prob) * (1 - np.minimum(emp_prob, 1)) / n)
        bad = np.abs(emp_prob - ref_prob) > 3 * se + 1e-9
        assert not np.any(bad), f"{bad.sum()} bins beyond 3 standard errors"

    def test_cdf_monotone_and_normalized(self):
        p = from_k_gamma(5.0, 0.5)
        edges = np.linspace(0.1, 4.0, 40)
        cdf = envelope_cdf_reference(p, edges)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-6)

    def test_cdf_rayleigh_closed_form(self):
        p = from_k_gamma(0.0, 0.0)
        edges = np.linspace(0.2, 3.0, 15)
        cdf = envelope_cdf_reference(p, edges)
        want = 1.0 - np.exp(-edges ** 2)
        assert np.abs(cdf - want).max() < 1e-6

    def test_against_mpmath_at_high_k(self):
        # K=1000, Gamma=0.7: the diffuse part is narrow (sigma ~ 0.022) and
        # the density peaks at z ~ 1.375, just inside vt1 + vt2 = 1.392
        p = from_k_gamma(1000.0, 0.7)
        z = 1.375
        pdf, cdf = _mpmath_reference_pdf_cdf(p, z)
        assert pdf > 2.5
        assert abs(envelope_pdf_reference(p, z) - pdf) <= 1e-12
        assert abs(envelope_cdf_reference(p, [z])[0] - cdf) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_narrow_diffuse_part(self):
        # At K=1e6 (sigma ~ 7e-4) the mass sits between |vt1 - vt2| and
        # vt1 + vt2; at K=1e12 the node budget refuses before allocating, and
        # a diffuse power of 1e-310 or 5e-324 makes the cut's st2 * 1e-17
        # underflow to 0, which is refused the same way.
        p = from_k_gamma(1e6, 0.5)
        vt1, vt2 = p.v1 / math.sqrt(p.omega), p.v2 / math.sqrt(p.omega)
        cdf = envelope_cdf_reference(p, [vt1 - vt2 - 0.01, vt1 + vt2 + 0.01])
        assert np.abs(cdf - [0.0, 1.0]).max() <= 1e-9
        for narrow in (
            from_k_gamma(1e12, 0.5),
            ChannelParams.from_components(1.0, 0.0, 1e-310),
            ChannelParams.from_components(1.0, 0.0, 5e-324),
        ):
            with pytest.raises(ValueError, match="diffuse part too narrow"):
                envelope_pdf_reference(narrow, 1.0)
            with pytest.raises(ValueError, match="diffuse part too narrow"):
                envelope_cdf_reference(narrow, [1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("far", [1e6, 1e13])
    def test_far_points_take_no_quadrature(self, far):
        # Past the cut F is 1 and f is 0 with no quadrature, so a far point
        # neither passes the node budget nor moves the values below the cut.
        p = from_k_gamma(10.0, 0.5)
        cdf = envelope_cdf_reference(p, [1.0, far])
        pdf = envelope_pdf_reference(p, [1.0, far])
        assert cdf.tolist() == [envelope_cdf_reference(p, [1.0])[0], 1.0]
        assert pdf.tolist() == [envelope_pdf_reference(p, 1.0), 0.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k,gamma", [(0.0, 0.0), (10.0, 0.0), (10.0, 0.5), (1e6, 0.5)])
    def test_cut_holds_both_tail_bounds(self, k, gamma):
        p = from_k_gamma(k, gamma)
        cut = theory._reference_cut(p)
        b = (p.v1 + p.v2) / math.sqrt(p.omega)
        st2 = p.diffuse_power / (2.0 * p.omega)
        tail = math.exp(-((cut - b) ** 2) / (2.0 * st2))
        assert tail <= 1e-17 and cut / st2 * tail <= 1e-17
        below = np.nextafter(cut, 0.0)
        assert envelope_cdf_reference(p, [below, cut])[1] == 1.0
        assert envelope_pdf_reference(p, [below, cut])[1] == 0.0
        # The quadrature just below the cut meets those limits.
        assert envelope_cdf_reference(p, [below])[0] == pytest.approx(1.0, abs=1e-9)
        assert envelope_pdf_reference(p, below) <= 1e-9

    # Quadrature values at points below the cut, pinned bit for bit: they
    # were the same before the cut existed.
    BELOW_CUT_VALUES = [
        (
            (0.0, 0.0),
            [0.5, 1.0, 3.0],
            [0.7788007830714037, 0.7357588823428853, 0.0007404588245247881],
            [0.22119921692859534, 0.6321205588285579, 0.9998765901959115],
        ),
        (
            (10.0, 0.5),
            [0.0, 0.25, 1.0, 2.0, 3.0],
            [0.0, 0.20233641363522303, 0.9843001223369945, 0.0014410859548910776,
             1.6074381409270089e-15],
            [0.0, 0.019654366005470214, 0.5462087047689324, 0.9999172644395808,
             0.9999999999999984],
        ),
        (
            (1e6, 0.5),
            [0.6, 1.3, 1.345],
            [0.7957803800678479, 2.044480068398808, 6.203883890635538e-05],
            [0.20483234027561534, 0.8311094374201131, 0.9999999912941647],
        ),
    ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k_gamma,z,pdf,cdf", BELOW_CUT_VALUES)
    def test_points_below_the_cut_keep_their_values(self, k_gamma, z, pdf, cdf):
        p = from_k_gamma(*k_gamma)
        assert envelope_pdf_reference(p, z).tolist() == pdf
        assert envelope_cdf_reference(p, z).tolist() == cdf

    @pytest.mark.parametrize("k,gamma", [(10.0, 1.0), (1000.0, 0.7)])
    def test_cdf_integrates_pdf(self, k, gamma):
        # 16-point Gauss-Legendre panels 0.01 wide over [0, r]
        p = from_k_gamma(k, gamma)
        xi, wi = np.polynomial.legendre.leggauss(16)
        for r in (0.5, 1.2, 2.0):
            n_panels = round(r / 0.01)
            half = r / (2 * n_panels)
            z = ((2 * np.arange(n_panels) + 1)[:, None] * half + half * xi).ravel()
            integral = envelope_pdf_reference(p, z) @ np.tile(wi * half, n_panels)
            assert abs(envelope_cdf_reference(p, [r])[0] - integral) <= 1e-12

    @pytest.mark.parametrize("k,gamma", [(0.0, 0.0), (10.0, 1.0), (1000.0, 0.7)])
    def test_array_input_matches_scalar_input(self, k, gamma):
        # The nodes follow the largest point, so only the last bits may move
        p = from_k_gamma(k, gamma)
        z = np.linspace(0.0, 3.0, 31)
        pdf = envelope_pdf_reference(p, z)
        cdf = envelope_cdf_reference(p, z)
        for i, zv in enumerate(z):
            scalar = envelope_pdf_reference(p, float(zv))
            assert isinstance(scalar, float)
            assert scalar == envelope_pdf_reference(p, z[i : i + 1])[0]
            assert abs(scalar - pdf[i]) <= 1e-14
            assert abs(envelope_cdf_reference(p, [zv])[0] - cdf[i]) <= 1e-14


def _mpmath_reference_pdf_cdf(p, z):
    """Reference density and CDF at z with mpmath Bessel functions.

    The Hankel integrands of envelope_pdf_reference and envelope_cdf_reference
    on 20-point Gauss-Legendre panels one period of z + vt1 + vt2 wide, cut
    where the Gaussian factor reaches 1e-20.
    """
    vt1, vt2 = p.v1 / math.sqrt(p.omega), p.v2 / math.sqrt(p.omega)
    st2 = p.diffuse_power / (2 * p.omega)
    u_max = math.sqrt(2 * math.log(1e20) / st2)
    n_panels = math.ceil(u_max * (z + vt1 + vt2) / TWO_PI)
    half = u_max / (2 * n_panels)
    xi, wi = np.polynomial.legendre.leggauss(20)
    pdf = cdf = mpmath.mpf(0)
    for k in range(n_panels):
        for x, w in zip(xi, wi):
            u = mpmath.mpf((2 * k + 1) * half + half * x)
            g = (
                w
                * half
                * mpmath.besselj(0, vt1 * u)
                * mpmath.besselj(0, vt2 * u)
                * mpmath.exp(-st2 * u * u / 2)
            )
            pdf += g * u * mpmath.besselj(0, z * u)
            cdf += g * mpmath.besselj(1, z * u)
    return float(z * pdf), float(z * cdf)


# sup over x > 0 of sqrt(x) * |J1(x)| is 0.82503..., rounded up
_SQRT_X_J1_SUP = 0.8251


def _mpmath_kluyver_cdf(p, n, r, eps=1e-8):
    """Kluyver's CDF integral with mpmath Bessel functions.

    Integrated on [0, U] by 20-point Gauss-Legendre panels one period of the
    fastest oscillation wide.  U is where the absolute-value tail bound,
    |J1(x)| <= 0.8251/sqrt(x) and |J0(x)| <= sqrt(2/(pi*x)), drops to eps.
    """
    amps = [v / math.sqrt(p.omega) for v in (p.v1, p.v2) if v > 0]
    a = math.sqrt(p.diffuse_power / (n * p.omega))
    m = n + len(amps)
    coeff = (
        _SQRT_X_J1_SUP
        * math.sqrt(r)
        * (2 / (math.pi * a)) ** (n / 2)
        * math.prod(math.sqrt(2 / (math.pi * v)) for v in amps)
        * 2
        / (m - 1)
    )
    u_max = (coeff / eps) ** (2 / (m - 1))
    n_panels = math.ceil(u_max * (r + sum(amps) + n * a) / TWO_PI)
    half = u_max / (2 * n_panels)
    xi, wi = np.polynomial.legendre.leggauss(20)
    total = mpmath.mpf(0)
    for k in range(n_panels):
        for x, w in zip(xi, wi):
            u = mpmath.mpf((2 * k + 1) * half + half * x)
            val = mpmath.besselj(1, r * u) * mpmath.besselj(0, a * u) ** n
            for v in amps:
                val *= mpmath.besselj(0, v * u)
            total += w * half * val
    return float(r * total)


class TestEnvelopeCdfSimulator:
    @pytest.mark.parametrize(
        "k,gamma,n,r,omega",
        [(0.0, 0.0, 8, 1.0, 1.0), (0.0, 0.0, 16, 0.6, 1.0), (10.0, 1.0, 8, 1.2, 1.0),
         (10.0, 0.5, 8, 1.2, 2.3)],
        ids=["0.0-0.0-8-1.0", "0.0-0.0-16-0.6", "10.0-1.0-8-1.2", "10.0-0.5-8-1.2-omega2.3"],
    )
    def test_against_mpmath(self, k, gamma, n, r, omega):
        p = from_k_gamma(k, gamma, omega)
        want = _mpmath_kluyver_cdf(p, n, r)
        assert abs(envelope_cdf_simulator(p, n, [r])[0] - want) <= 2e-8

    @pytest.mark.parametrize("k,gamma", [(0.0, 0.0), (10.0, 0.5)])
    def test_against_brute_force_draws(self, k, gamma):
        # 1e6 independent draws of the 8-sinusoid composition; the DKW band at
        # 99.9% confidence is 0.00195, well inside the 0.0146 K=0 model gap
        p = from_k_gamma(k, gamma)
        n_draws = 1_000_000
        draws = np.sort(
            envelope_mc_draws(p.v1, p.v2, p.diffuse_power, p.omega, 8, n_draws, seed=83)
        )
        edges = np.linspace(0.02, 3.0, 150)
        emp = np.searchsorted(draws, edges, side="right") / n_draws
        dkw = math.sqrt(math.log(2 / 1e-3) / (2 * n_draws))
        assert np.abs(emp - envelope_cdf_simulator(p, 8, edges)).max() <= dkw
        if k == 0.0:
            assert np.abs(emp - (1 - np.exp(-edges ** 2))).max() > 5 * dkw

    @pytest.mark.parametrize("n", [8, 64])
    def test_rayleigh_gap_first_order(self, n):
        # sup |F_N - (1 - exp(-r^2))| = (sqrt2 - 1) e^(sqrt2 - 2) / (2N) + O(N^-2)
        edges = np.linspace(0.005, 3.0, 600)
        cdf = envelope_cdf_simulator(from_k_gamma(0.0, 0.0), n, edges)
        gap = np.abs(cdf - (1 - np.exp(-edges ** 2))).max()
        first_order = (math.sqrt(2) - 1) * math.exp(math.sqrt(2) - 2) / 2
        assert n * gap == pytest.approx(first_order, rel=0.02)

    @pytest.mark.parametrize(
        "k,gamma,n", [(0.0, 0.0, 3), (0.0, 0.0, 8), (10.0, 0.5, 8), (5.0, 1.0, 16)]
    )
    def test_monotone_and_reaches_one_at_envelope_bound(self, k, gamma, n):
        scn = validate_scenario(make_scenario(k=k, gamma=gamma, n_sinusoids=n))
        bound = envelope_bound(scn)
        edges = np.linspace(0.0, bound, 400)
        cdf = envelope_cdf_simulator(scn.params, n, edges)
        assert cdf[0] == 0.0
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-10)
        beyond = envelope_cdf_simulator(scn.params, n, [bound * 1.01, bound * 2])
        assert np.allclose(beyond, 1.0, atol=1e-10)

    @pytest.mark.parametrize(
        "k,gamma,want",
        [
            (10.0, 0.5, [0.06485995282709668, 0.4793014912610021, 0.9999912469478879]),
            (10.0, 1.0, [0.15339438158603555, 0.4863710186333026, 0.9999310553162373]),
        ],
    )
    def test_pinned_values_on_criterion_6_edges(self, k, gamma, want):
        # Exact values on the 100-bin [0, 3) histogram edges, at r = 0.39,
        # 0.93 and 2.01.  They pin the order of the Gauss-Legendre head's
        # products (multiplying the tone factors before J0(a u)^N moves all
        # six); a BLAS build that sums dot products in another order may move
        # the last bit.  Edges past the envelope bound (2.13 and 2.20 here)
        # are not integrated, so the head's nodes are set by the last edge
        # below it.
        edges = np.linspace(0.0, 3.0, 101)[1:]
        cdf = envelope_cdf_simulator(from_k_gamma(k, gamma), 8, edges)
        assert cdf[[12, 30, 66]].tolist() == want

    @pytest.mark.parametrize("top", [1e6, 1e12, 1e13, "bound"])
    def test_one_at_and_past_envelope_bound(self, top):
        # Edges at or past the bound take no quadrature: they neither pass the
        # head's node budget nor overflow the tail's ray cut.
        scn = validate_scenario(make_scenario(k=10.0, gamma=0.5, n_sinusoids=8))
        top = envelope_bound(scn) if top == "bound" else top
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cdf = envelope_cdf_simulator(scn.params, 8, [1.0, top])
            alone = envelope_cdf_simulator(scn.params, 8, [1.0])
        assert cdf.tolist() == [alone[0], 1.0]

    @pytest.mark.parametrize(
        "edges,want",
        [
            ([1.0], [0.5470794064212084]),
            (
                [0.0, 0.5, 1.0, 1.5, 2.0],
                [0.0, 0.1242202933028341, 0.5470794064212087, 0.9549486598890986,
                 0.9999872840597258],
            ),
        ],
    )
    def test_pinned_values_below_envelope_bound(self, edges, want):
        # Edge sets wholly below the bound (2.13) are integrated as they stand,
        # so these pin the head's and the tail's arithmetic.
        assert envelope_cdf_simulator(from_k_gamma(10.0, 0.5), 8, edges).tolist() == want

    def test_rejects_too_few_sinusoids(self):
        with pytest.raises(ValueError, match="n_sinusoids"):
            envelope_cdf_simulator(from_k_gamma(0.0, 0.0), 2, [0.5, 1.0])

    @pytest.mark.parametrize("n", [8.5, 3.0000001, 8.0])
    def test_rejects_a_non_integer_sinusoid_count(self, n):
        with pytest.raises(TypeError):
            envelope_cdf_simulator(from_k_gamma(10.0, 0.5), n, [0.5, 1.0, 1.5])

    def test_rejects_no_diffuse(self):
        with pytest.raises(ValueError, match="diffuse"):
            envelope_cdf_simulator(ChannelParams.from_components(1.0, 0.5, 0.0), 8, [1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("diffuse_power", [1e-30, 1e-300, 5e-324])
    def test_narrow_diffuse_part(self, diffuse_power):
        # The head's node budget refuses before the tail reads its ray, empty
        # here; at 5e-324 the path amplitude a underflows to 0.
        p = ChannelParams.from_components(1.0, 0.5, diffuse_power)
        with pytest.raises(ValueError, match="diffuse part too narrow"):
            envelope_cdf_simulator(p, 8, [0.5, 1.0])

    def test_tail_term_budget(self):
        # Two tones and r <= 3 keep 117 ray nodes near N = 9000, so the tail's
        # 4*(N+1) x 117 term array first passes _GL_MAX_NODES at N = 8962.
        p = from_k_gamma(10.0, 0.5)
        assert 4 * 8962 * 117 <= theory._GL_MAX_NODES < 4 * 8963 * 117
        cdf = envelope_cdf_simulator(p, 8961, [3.0])
        assert 0.99 < cdf[0] <= 1.0
        with pytest.raises(ValueError, match="term budget"):
            envelope_cdf_simulator(p, 8962, [3.0])


@pytest.mark.parametrize(
    "cdf",
    [envelope_cdf_reference, lambda p, edges: envelope_cdf_simulator(p, 8, edges)],
    ids=["reference", "simulator"],
)
@pytest.mark.parametrize("edges", [[1.0, math.inf], [math.nan, 1.0]], ids=["inf", "nan"])
def test_envelope_cdf_rejects_non_finite_edges(cdf, edges):
    with pytest.raises(ValueError, match="edges must be finite"):
        cdf(from_k_gamma(10.0, 0.5), edges)


def test_envelope_cdf_negative_edges():
    # The reference CDF is 0 at r <= 0; the finite-N law refuses r < 0.
    p = from_k_gamma(10.0, 0.5)
    assert envelope_cdf_reference(p, [-1.0, 0.0])[0] == 0.0
    with pytest.raises(ValueError, match="envelope value must be >= 0"):
        envelope_cdf_simulator(p, 8, [-1.0, 1.0])


class TestRayleighLcrOracle:
    def test_values(self):
        assert rayleigh_lcr_oracle(0.0) == 0.0
        assert rayleigh_lcr_oracle(1.0) == pytest.approx(
            math.sqrt(TWO_PI) / math.e, rel=1e-15
        )
        assert rayleigh_lcr_oracle(1.0) == pytest.approx(0.922137, abs=1e-6)
        assert rayleigh_lcr_oracle(3.0) == pytest.approx(
            math.sqrt(TWO_PI) * 3.0 * math.exp(-9.0), rel=1e-15
        )
        assert rayleigh_lcr_oracle(3.0) == pytest.approx(9.28e-4, abs=1e-6)

    def test_vectorized(self):
        rho = np.array([0.0, 0.5, 1.0, 2.0])
        vals = rayleigh_lcr_oracle(rho)
        assert vals.shape == rho.shape
        assert np.all(vals >= 0)


class TestLagGrid:
    def test_fd_tau_view(self):
        grid = LagGrid.from_sample_lags(11, 1e-5, 1000.0)
        assert np.allclose(grid.fd_tau, np.arange(11) * 0.01)

    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            LagGrid(np.array([0.0, 2.0, 1.0]), 1000.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LagGrid(np.array([-1.0, 0.0]), 1000.0)
