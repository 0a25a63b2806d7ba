"""Closed-form second-order statistics of the TWDP process.

``KIND_FAMILIES`` defines every correlation kind once, as a signed sum of
lag-product families; ``_signed_sum`` is the one rule that sums them, for the
estimators' spectra and for the oracles' closed forms alike, and rzz is the
one composite kind, made of the parts rzz_re and rzz_im (``_kind_parts``).

Two sets of curves live here.  The reference expressions describe the
ideal channel whose diffuse component is exactly complex Gaussian (the
infinite-sinusoid limit).  The simulator expressions describe the finite-N
sum-of-sinusoids generator: its quadrature ACF/CCF and complex-envelope ACF
coincide with the reference for every N, while its squared-envelope ACF picks
up a negative correction proportional to the panel kernels f_c and f_s: sums
of the squared real and imaginary parts of each panel's mean of
exp(j*x*cos(g)), with one Gauss-Legendre sum, at an a-priori order, per
symmetry orbit of the panels (n//4 + 1 of them for even n).  The means are
entire in x, so a call with more lags than D + 1, for an a-priori Chebyshev
degree D (67 at max|x| = 62.8 and n = 64), sums them only at the D + 1
Chebyshev points on [0, max|x|] and interpolates them to every lag; a call
with at most D + 1 lags sums them at its lags (see :func:`_fc_fs`).

The envelope law splits the same way.  The reference density and CDF come
from the characteristic function of the two-tone plus Gaussian composition;
past a cut a few diffuse widths above vt1 + vt2, where both tails are below
1e-17, they are exactly 0 and 1 with no quadrature.
The finite-N generator's envelope is a sum of N+2 independent random-phase
phasors at any fixed time, so its exact CDF is Kluyver's (1905)
random-phasor-sum integral; at K=0 it sits about 0.1153/N in sup-CDF from the
Rayleigh law.  All three envelope oracles sum their Hankel integrals on one
Gauss-Legendre rule, :func:`_gl_nodes_on`.  Which channels each law refuses
is written once, in a function that returns the refusal or None
(:func:`_reference_refusal`, :func:`_kluyver_refusal`): the laws raise it,
and the harness's law table asks it of a scenario.  The refusals that depend
on the evaluation points (node budgets, a diffuse part too narrow) are the
laws' own, so a caller that evaluates a law before it synthesizes an
ensemble gets them before any trial is drawn.

Every closed form reads the channel as z's normalized phasors, off
``ChannelParams``: the power fractions v_i^2/omega and diffuse_power/omega,
the tone amplitudes v_i/sqrt(omega), the diffuse path amplitude and the
envelope bound.  The normalization by omega is written there alone, the one
the generator in ``sos`` reads too.

Also provided: the isotropic-scattering Bessel kernel J0, and the closed-form
Rayleigh level-crossing-rate oracle used to validate the crossing estimator
on channels without a tone (v1 == 0), with the one threshold rule the
crossing estimators apply too (:func:`_checked_thresholds`).

scipy.special is imported when a closed form first reads it (``_Deferred``),
so a program that only synthesizes or reads traces loads numpy alone.
"""

from __future__ import annotations

import importlib
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import TWO_PI, ChannelParams


class _Deferred:
    """Module ``name``, imported on the first read of one of its attributes.

    Each attribute read is cached on the instance, so later reads are plain
    attribute hits.  ``importlib.import_module`` takes the module's import
    lock, so threads that race on a first read all get the fully run module.
    Names that start with an underscore are not looked up, so copy, pickle
    and introspection probes import nothing.
    """

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        if attr.startswith("_"):
            raise AttributeError(attr)
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


special = _Deferred("scipy.special")

# The one table of correlation kinds.  Each is a signed sum of lag-product
# families ab(l) = sum over t of a[t] b[t+l], over x = Re z, y = Im z and
# s = |z|^2, its first term positive; Rzz = (xx + yy) + j(yx - xy).  The
# estimators sum the families' spectra by it, and harness.oracle_series their
# closed forms, both with _signed_sum.
KIND_FAMILIES = {
    "rxx": ((1, "xx"),), "ryy": ((1, "yy"),), "rxy": ((1, "xy"),), "ryx": ((1, "yx"),),
    "rzz_re": ((1, "xx"), (1, "yy")), "rzz_im": ((1, "yx"), (-1, "xy")), "rsq": ((1, "ss"),),
}
CORRELATION_KINDS = tuple(KIND_FAMILIES)
# rzz = z(t) conj(z(t+l)) is the one composite kind: its real and imaginary
# parts are the table kinds rzz_re and rzz_im.
_RZZ_PARTS = ("rzz_re", "rzz_im")


def _kind_parts(kind: str) -> tuple[str, ...]:
    """The table kinds ``kind`` is made of: itself, or rzz's two parts."""
    return _RZZ_PARTS if kind == "rzz" else (kind,)


def _signed_sum(kind: str, family):
    """The signed sum of table kind ``kind``'s families, in table order.

    family(ab) returns family ab's values as a new array: the first term is
    taken as it is, and each later one added to it or subtracted in place.
    """
    (_, first), *rest = KIND_FAMILIES[kind]
    total = family(first)
    for sign, ab in rest:
        if sign > 0:
            total += family(ab)
        else:
            total -= family(ab)
    return total


# Envelope-law Hankel integrals: Gauss-Legendre nodes per period of the
# fastest oscillation, the reference laws' Gaussian tail cut (integrate u only
# while exp(-sigma^2 u^2 / 2) >= 1e-14), the bound on 1 - F and on f past the
# reference laws' envelope cut (see _reference_cut), and a budget of 32 MiB
# per float64 node array, which a too narrow diffuse part (K past ~5e8 on
# [0, 3]) exceeds.  A diffuse width that underflows to 0 is refused likewise.
_GL_ORDER = 24
_PDF_TAIL_EPS = 1e-14
_REF_CUT_EPS = 1e-17
_GL_MAX_NODES = 2 ** 22
_TOO_NARROW = "diffuse part too narrow for the envelope quadrature"

# Panel kernels (see _panel_means and _fc_fs): error per mean, rho grid, nodes
# per block, entries per interpolation block.
_PANEL_TOL = 1e-16
_PANEL_RHO = 1.0 + np.logspace(-4, 2, 400)
_PANEL_WORKSPACE = 2 ** 16
_INTERP_BLOCK = 2 ** 13

# Kluyver's integral for the finite-N envelope CDF: Gauss-Legendre panels on
# [0, U] with U = _KLUYVER_SPLIT / a, then exp-sinh nodes up the ray U + i*t,
# cut where the largest Bessel argument reaches the range of scipy's Hankel
# functions.  Ray terms whose net frequency is within _OMEGA_ZERO of zero are
# counted once, the others twice (see envelope_cdf_simulator).
_KLUYVER_SPLIT = 10.0
_EXPSINH_STEP = 1.0 / 16
_EXPSINH_HALF_WIDTH = 4.0
_HANKEL_Z_MAX = 1e13
_OMEGA_ZERO = 1e-12


@dataclass(frozen=True, eq=False)
class LagGrid:
    """Ascending non-negative lag values in seconds, with a Doppler view."""

    lags_s: np.ndarray
    doppler_hz: float

    def __post_init__(self):
        lags = np.asarray(self.lags_s, dtype=float)
        object.__setattr__(self, "lags_s", lags)
        if lags.ndim != 1 or lags.size == 0:
            raise ValueError("lag grid must be a non-empty 1-D array")
        if not np.all(np.isfinite(lags)) or lags[0] < 0:
            raise ValueError("lags must be finite and non-negative")
        if lags.size > 1 and not np.all(np.diff(lags) > 0):
            raise ValueError("lags must be strictly ascending")

    @property
    def fd_tau(self) -> np.ndarray:
        """Doppler-normalized view f_D * tau."""
        return self.lags_s * self.doppler_hz

    def __len__(self) -> int:
        return self.lags_s.size

    @classmethod
    def from_sample_lags(
        cls, n_lags: int, sample_period_s: float, doppler_hz: float
    ) -> "LagGrid":
        """Grid of the first ``n_lags`` sample lags, 0 to n_lags - 1."""
        return cls(np.arange(n_lags) * sample_period_s, doppler_hz)


@dataclass(frozen=True, eq=False)
class CorrelationSeries:
    """Values of one correlation statistic over a lag grid."""

    kind: str
    grid: LagGrid
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in CORRELATION_KINDS:
            raise ValueError(f"unknown correlation kind {self.kind!r}")
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (len(self.grid),):
            raise ValueError("values length must match the lag grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("correlation values must be finite")


def bessel_j0(x):
    """Zero-order Bessel function of the first kind.

    Delegates to scipy's Cephes implementation (rational approximation below
    the first zeros, Hankel asymptotics beyond), absolute error well below
    the 1e-10 contract on |x| <= 1e4.
    """
    out = special.j0(x)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


@lru_cache(maxsize=32)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _gl_nodes_on(u_max: float, freq: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, u_max], 24 per period of freq."""
    n_panels = max(1, math.ceil(u_max * freq / TWO_PI))
    if n_panels * _GL_ORDER > _GL_MAX_NODES:
        raise ValueError(_TOO_NARROW)
    xi, wi = _gl_nodes(_GL_ORDER)
    half = u_max / (2 * n_panels)
    u = ((2 * np.arange(n_panels) + 1)[:, None] * half + half * xi).ravel()
    return u, np.tile(wi * half, n_panels)


def _panel_order(x_max: float, n: int) -> int:
    """A-priori Gauss-Legendre order of :func:`_panel_means` for |x| <= x_max."""
    h = math.pi / n
    rho = _PANEL_RHO
    log_m = x_max * np.sinh(h * (rho - 1 / rho) / 2)
    log_bound = math.log(h / TWO_PI * 64 / 15 / _PANEL_TOL) + log_m - np.log(rho * rho - 1)
    steps = min(float(np.min(log_bound / (2 * np.log(rho)))), _GL_MAX_NODES)
    order = 1 + max(0, math.ceil(steps))
    if order * max(n, order) > _GL_MAX_NODES:
        raise ValueError(f"panel kernel at |x| = {x_max:g}, n = {n} exceeds the node budget")
    return order


def _panel_orbits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """One panel index m per symmetry orbit of the n panels, and orbit sizes.

    g -> 2*pi - g maps panel m onto panel n - m with the same mean and, for
    even n, g -> pi - g maps it onto panel n/2 - m with the conjugate mean, so
    (Re I_m)^2 and (Im I_m)^2 are constant on an orbit.  Even n: m = 0..n//4
    with sizes 2, 4, ..., 4 and a last 2 when 4 divides n.  Odd n:
    m = 0..(n-1)/2 with sizes 1, 2, ..., 2.  The sizes sum to n.
    """
    even = n % 2 == 0
    m = np.arange(n // 4 + 1 if even else (n + 1) // 2)
    mult = np.full(m.size, 4.0 if even else 2.0)
    mult[0] = 2.0 if even else 1.0
    if n % 4 == 0:
        mult[-1] = 2.0
    return m, mult


def _panel_means(x: np.ndarray, n: int, order: int, m: np.ndarray) -> np.ndarray:
    """Complex panel means I_m(x) = (1/2pi) int exp(j*x*cos(g)) dg at the
    panel indices m of symmetry orbits (:func:`_panel_orbits`), shape
    (len(x), len(m)).

    Panel m is [(2*pi*m - pi)/n, (2*pi*m + pi)/n], of half-width h = pi/n, for
    m = 0..n-1; f_c = sum_m (Re I_m)^2 and f_s = sum_m (Im I_m)^2, each summed
    as one Gauss-Legendre sum per orbit (n//4 + 1 of them for even n,
    (n+1)/2 for odd n) weighted by the orbit's size.  The order rule
    (:func:`_panel_order`, applied before evaluating) takes the smallest q
    with (h/2pi) * (64/15) * M(rho) / ((rho^2 - 1) * rho^(2(q-1))) <= 1e-16
    for some rho on a log grid of rho - 1 in [1e-4, 1e2], at the largest |x|
    of the call.  M(rho) = exp(|x| * sinh(h*(rho - 1/rho)/2)) bounds
    exp(j*x*cos(g)) on the panel's Bernstein ellipse E_rho, so this is Gauss
    quadrature's error bound for q points (Trefethen, Approximation Theory
    and Approximation Practice, Thm 19.3).  Every panel mean is then within
    1e-16, the same bound whether a mean is summed once per panel or once per
    orbit.  Phase rounding, a few |x| * 2^-53 per node, comes on top.  An
    order q whose q x q node eigenproblem or n x q means pass _GL_MAX_NODES
    raises ValueError.
    """
    h = math.pi / n
    xi, w = _gl_nodes(order)
    cos_g = np.cos(h * xi + TWO_PI * m[:, None] / n)
    # A real cos and sin of the phase are faster than np.exp of an
    # imaginary one (numpy 2.4).
    arg = x[:, None, None] * cos_g
    return (np.cos(arg) @ w + 1j * (np.sin(arg) @ w)) * (h / TWO_PI)


def _chebyshev_degree(x_max: float, n: int) -> int:
    """A-priori degree of the Chebyshev interpolant of every panel mean on
    [0, x_max] (see :func:`_fc_fs`)."""
    rho = _PANEL_RHO
    log_bound = math.log(4 / (n * _PANEL_TOL)) + x_max * (rho - 1 / rho) / 4 - np.log(rho - 1)
    return max(1, math.ceil(float(np.min(log_bound / np.log(rho)))))


def _fc_fs(x, n: int) -> tuple[np.ndarray, np.ndarray]:
    """f_c and f_s at every x, in the shape of x.

    Both are even in x (I_m(-x) is the conjugate of I_m(x)), so they are
    taken at |x| <= X = max|x|.  Each panel mean I_m is entire in x with
    |I_m(x)| <= (h/pi) * exp(|Im x|), so on the Bernstein ellipse E_rho of
    [0, X] it is bounded by M = (h/pi) * exp(X * (rho - 1/rho) / 4), and its
    Chebyshev interpolant of degree D is within 4 * M * rho^-D / (rho - 1)
    of it (Trefethen, Approximation Theory and Approximation Practice,
    Thm 8.2).  D is the smallest degree that brings this to 1e-16 for some
    rho on the grid of :func:`_panel_order` (:func:`_chebyshev_degree`):
    67 at X = 62.8 and n = 64.

    The sampling rule depends only on the number of lags.  With at most
    D + 1 of them, the means are taken at the lags themselves.  With more,
    they are taken once, at the D + 1 Chebyshev points of the second kind on
    [0, X], and each orbit's real and imaginary means are carried to every
    lag by the barycentric formula (Berrut and Trefethen, SIAM Review 46(3),
    2004), in row blocks of about _INTERP_BLOCK entries: one real product
    per block gives the numerators and their common denominator, a second
    the orbit-size sums of the squared quotients.  Either way the means are
    evaluated at the order for X, in blocks of at most _PANEL_WORKSPACE
    nodes (or one point), after the order check has refused an n whose
    orbits would not fit.  The orbits are evaluated, interpolated and summed
    in chunks of _PANEL_WORKSPACE // (points) orbits, so the means held at
    once are about 2 * _PANEL_WORKSPACE reals at any n, not (points) x
    (orbits).  At X <= 62.8 every n up to 2015, and every even n up to
    4030, is one chunk.

    Error budget.  Each evaluated mean is within 1e-16 of exact (the order
    rule).  Interpolating adds at most 1e-16 (the degree rule) and carries
    the evaluated means' errors times the Lebesgue constant of the points,
    below (2/pi) * ln(D + 1) + 1 (3.7 at D = 67).  The orbit sizes times
    |I_m| <= 1/n sum to at most 1, so f_c + f_s is within twice the error of
    one mean, plus n * 1e-32.  Phase rounding, a few |x| * 2^-53 per node,
    comes on top, and dominates at small n: on 24 lags in [0, 62.8], f_c
    and f_s were within 1.8e-15 (n = 1), 5.6e-16 (n = 2), 7.3e-17 (n = 8)
    and 7.8e-18 (n = 64) of mpmath when evaluated, and within 2.2e-15,
    2.3e-15, 1.0e-16 and 2.5e-17 when interpolated from a 10001-lag call.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("kernel argument must be finite")
    lags = np.abs(x.ravel())
    x_max = lags.max(initial=0.0)
    order = _panel_order(x_max, n)
    degree = _chebyshev_degree(x_max, n)
    if lags.size <= degree + 1:
        points = lags
    else:
        nodes = np.cos(np.pi * np.arange(degree + 1) / degree)
        points = x_max * (1 + nodes) / 2
    m, mult = _panel_orbits(n)
    weights = (-1.0) ** np.arange(degree + 1)
    weights[[0, -1]] /= 2
    chunk = max(1, _PANEL_WORKSPACE // max(1, points.size))
    parts = [slice(first, first + chunk) for first in range(0, m.size, chunk)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fc, fs = _orbit_sums(lags, points, weights, m[parts[0]], mult[parts[0]], n, order)
        for part in parts[1:]:
            more_c, more_s = _orbit_sums(lags, points, weights, m[part], mult[part], n, order)
            fc += more_c
            fs += more_s
    return fc.reshape(x.shape), fs.reshape(x.shape)


def _orbit_sums(lags, points, weights, m, mult, n, order) -> tuple[np.ndarray, np.ndarray]:
    """The shares of f_c and f_s of the orbits m, of sizes mult, at every
    lag, from their means at the points (see :func:`_fc_fs`)."""
    # Real and imaginary means at the points, and a column of ones that gives
    # the barycentric denominator.
    orbits = m.size
    table = np.ones((points.size, 2 * orbits + 1))
    rows = max(1, _PANEL_WORKSPACE // (n * order))
    for start in range(0, points.size, rows):
        block = slice(start, start + rows)
        means = _panel_means(points[block], n, order, m)
        table[block, :orbits], table[block, orbits:-1] = means.real, means.imag
    # Orbit-size weights of the squared real means (f_c) and imaginary (f_s).
    sums = np.zeros((table.shape[1], 2))
    sums[:orbits, 0] = sums[orbits:-1, 1] = mult
    rows = max(1, _INTERP_BLOCK // max(table.shape))
    fc, fs = np.empty(lags.size), np.empty(lags.size)
    for start in range(0, lags.size, rows):
        block = slice(start, start + rows)
        if points is lags:
            vals = table[block]
        else:
            vals = (weights / (lags[block, None] - points)) @ table
            vals /= vals[:, -1:]
        fc[block], fs[block] = (vals ** 2 @ sums).T
    # A lag on a point, or so near one that the formula overflows, gets a
    # non-finite value; it takes the nearest point's means (the first such
    # point's: points coincide when X is 0 or subnormal).  Every chunk has
    # the same column of ones, so every chunk finds the same lags.
    on = np.flatnonzero(~np.isfinite(fc + fs))
    if on.size:
        fc[on], fs[on] = (table[np.abs(lags[on, None] - points).argmin(axis=1)] ** 2 @ sums).T
    return fc, fs


def f_c(x, n: int):
    """Cosine panel kernel: sum over panels of the squared cosine average.

    Bounded by 1/n; equals exactly 1/n at x=0.  Scalar in, scalar out; an
    array keeps its shape.
    """
    val = _fc_fs(x, n)[0]
    return float(val) if val.ndim == 0 else val


def f_s(x, n: int):
    """Sine panel kernel, the odd-part companion of :func:`f_c`."""
    val = _fc_fs(x, n)[1]
    return float(val) if val.ndim == 0 else val


def ref_acf_quadrature(
    p: ChannelParams,
    rates: tuple[float, float],
    doppler_hz: float,
    grid: LagGrid,
) -> CorrelationSeries:
    """In-phase (= quadrature) component ACF of the reference model.

    Rxx(tau) = v1^2/(2*omega)*cos(rate1*tau) + v2^2/(2*omega)*cos(rate2*tau)
               + diffuse/(2*omega)*J0(2*pi*f_D*tau).
    """
    w1, w2, wd = p.power_fractions
    tau = grid.lags_s
    values = 0.5 * (
        w1 * np.cos(rates[0] * tau)
        + w2 * np.cos(rates[1] * tau)
        + wd * bessel_j0(TWO_PI * doppler_hz * tau)
    )
    return CorrelationSeries("rxx", grid, values)


def ref_ccf_quadrature(
    p: ChannelParams, rates: tuple[float, float], grid: LagGrid
) -> CorrelationSeries:
    """Cross-correlation of in-phase and quadrature components.

    Rxy(tau) = v1^2/(2*omega)*sin(rate1*tau) + v2^2/(2*omega)*sin(rate2*tau);
    Ryx = -Rxy.  The diffuse component contributes nothing.
    """
    w1, w2, _ = p.power_fractions
    tau = grid.lags_s
    values = 0.5 * (w1 * np.sin(rates[0] * tau) + w2 * np.sin(rates[1] * tau))
    return CorrelationSeries("rxy", grid, values)


def ref_acf_complex(
    p: ChannelParams,
    rates: tuple[float, float],
    doppler_hz: float,
    grid: LagGrid,
) -> tuple[CorrelationSeries, CorrelationSeries]:
    """Complex-envelope ACF Rzz, split into real and imaginary series.

    Rzz(tau) = v1^2/omega*exp(-j*rate1*tau) + v2^2/omega*exp(-j*rate2*tau)
               + diffuse/omega*J0(2*pi*f_D*tau), so the real part equals
    2*Rxx and the imaginary part equals -2*Rxy.  ``harness.oracle_series``
    sums rzz_re and rzz_im from the quadrature families by KIND_FAMILIES;
    this direct form is the independent reference that sum is tested against.
    """
    w1, w2, wd = p.power_fractions
    tau = grid.lags_s
    rzz = (
        w1 * np.exp(-1j * rates[0] * tau)
        + w2 * np.exp(-1j * rates[1] * tau)
        + wd * bessel_j0(TWO_PI * doppler_hz * tau)
    )
    return (
        CorrelationSeries("rzz_re", grid, rzz.real),
        CorrelationSeries("rzz_im", grid, rzz.imag),
    )


def ref_acf_squared(
    p: ChannelParams,
    rates: tuple[float, float],
    doppler_hz: float,
    grid: LagGrid,
) -> CorrelationSeries:
    """Squared-envelope ACF of the reference model."""
    w1, w2, wd = p.power_fractions
    tau = grid.lags_s
    j0 = bessel_j0(TWO_PI * doppler_hz * tau)
    values = (
        wd * j0 * (wd * j0 + 2 * w1 * np.cos(rates[0] * tau) + 2 * w2 * np.cos(rates[1] * tau))
        + 1.0
        + 2 * w1 * w2 * np.cos((rates[0] - rates[1]) * tau)
    )
    return CorrelationSeries("rsq", grid, values)


def sim_acf_squared(
    p: ChannelParams,
    rates: tuple[float, float],
    doppler_hz: float,
    n_sinusoids: int,
    grid: LagGrid,
) -> CorrelationSeries:
    """Squared-envelope ACF of the finite-N sum-of-sinusoids generator.

    Equals the reference curve minus (diffuse/omega)^2 * (f_c + f_s) evaluated
    at 2*pi*f_D*tau; the deficit is bounded by (diffuse/omega)^2 / N and
    vanishes as N grows.
    """
    ref = ref_acf_squared(p, rates, doppler_hz, grid)
    x = TWO_PI * doppler_hz * grid.lags_s
    fc, fs = _fc_fs(x, n_sinusoids)
    _, _, wd = p.power_fractions
    values = ref.values - wd ** 2 * (fc + fs)
    return CorrelationSeries("rsq", grid, values)


# The finite-N generator's quadrature and complex-envelope correlations carry
# no N dependence: the simulator-formula curves ARE the reference curves.
sim_acf_quadrature = ref_acf_quadrature
sim_ccf_quadrature = ref_ccf_quadrature
sim_acf_complex = ref_acf_complex


def _reference_refusal(p: ChannelParams) -> str | None:
    """Why the reference envelope laws cannot take the channel ``p``, or
    None: a channel without diffuse power has a singular density."""
    if p.diffuse_power <= 0:
        return "envelope density requires diffuse_power > 0 (singular otherwise)"


def _kluyver_refusal(p: ChannelParams, n_sinusoids: int) -> str | None:
    """Why Kluyver's envelope law cannot take ``p`` at ``n_sinusoids``, or
    None: fewer than 3 sinusoids, where its integral diverges without tones,
    asked first, then the reference laws' refusal."""
    if n_sinusoids < 3:
        return f"finite-N envelope law requires n_sinusoids >= 3, got {n_sinusoids}"
    return _reference_refusal(p)


def _reference_cut(p: ChannelParams) -> float:
    """Envelope value b + x*s at and past which the reference laws take
    1 - F(r) and f(r) to be 0, with b = vt1 + vt2 and s = sqrt(st2).

    Given the tone phases the envelope is Rician with nu <= b, so for r >= b
    1 - F(r) <= exp(-(r-b)^2 / (2 st2)) and f(r) <= (r/st2) exp(-(r-b)^2 / (2 st2)),
    and both bounds fall with r wherever r (r-b) > st2, as past the cut,
    where x > 8.  At r = b + x*s the density bound is
    g(x) = (b/st2 + x/s) exp(-x^2/2).  x_hi^2 = the larger of
    2 ln(2b / (st2 eps)) and 4 ln(2 / (s eps)) holds each term of g to
    eps/2, as x exp(-x^2/2) < exp(-x^2/4), so g(x_hi) <= eps.  The cut takes
    x^2 = 2 ln((b/st2 + x_hi/s) / eps) <= x_hi^2, so g(x) <= eps, and
    1 - F <= exp(-x^2/2) <= eps too.  A diffuse part so narrow that
    st2 * eps underflows to 0 is refused as too narrow, as the node budget
    refuses one slightly wider.
    """
    if refusal := _reference_refusal(p):
        raise ValueError(refusal)
    vt1, vt2 = p.tone_amplitudes
    b = vt1 + vt2
    st2 = p.power_fractions[2] / 2
    if st2 * _REF_CUT_EPS == 0:
        raise ValueError(_TOO_NARROW)
    s = math.sqrt(st2)
    x_hi = math.sqrt(max(
        2 * math.log(max(2 * b / (st2 * _REF_CUT_EPS), 1.0)),
        4 * math.log(2 / (s * _REF_CUT_EPS)),
    ))
    return b + s * math.sqrt(2 * math.log((b / st2 + x_hi / s) / _REF_CUT_EPS))


def _reference_hankel_weights(p: ChannelParams, r_max: float):
    """Nodes u and weights w * J0(vt1 u) J0(vt2 u) exp(-st2 u^2 / 2) of the
    reference Hankel integrals, for evaluation points up to ``r_max``."""
    vt1, vt2 = p.tone_amplitudes
    st2 = p.power_fractions[2] / 2
    u_max = math.sqrt(2.0 * math.log(1.0 / _PDF_TAIL_EPS) / st2)
    u, w = _gl_nodes_on(u_max, r_max + vt1 + vt2)
    return u, w * special.j0(vt1 * u) * special.j0(vt2 * u) * np.exp(-0.5 * st2 * u * u)


def envelope_pdf_reference(p: ChannelParams, z):
    """Reference envelope density of the normalized process.

    Characteristic-function (Hankel) form for two random-phase tones plus a
    complex Gaussian diffuse component:

        f(z) = z * int_0^inf u J0(z u) J0(vt1 u) J0(vt2 u) exp(-st2 u^2 / 2) du

    with vt_i = v_i/sqrt(omega) and st2 = diffuse_power/(2*omega).  The
    integral is truncated where the Gaussian factor drops below 1e-14 and
    summed on :func:`_gl_nodes_on` for the frequency z_max + vt1 + vt2, with
    z_max the largest z below the cut of :func:`_reference_cut`.  At and past
    the cut the density is exactly 0 with no quadrature: for z >= vt1 + vt2,
    f(z) <= (z/st2) exp(-(z - vt1 - vt2)^2 / (2 st2)), as each Rician
    component has nu <= vt1 + vt2, and the cut holds that bound to 1e-17.
    Diffuse-free channels have a singular density and are not supported.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    bad = zs[~np.isfinite(zs) | (zs < 0)]
    if bad.size:
        raise ValueError(f"envelope value must be finite and >= 0, got {bad[0]}")
    below = zs < _reference_cut(p)
    out = np.zeros(zs.size)
    if np.any(below):
        u, weighted = _reference_hankel_weights(p, float(zs[below].max()))
        weighted *= u
        out[below] = [zv * (special.j0(zv * u) @ weighted) for zv in zs[below]]
    neg = np.flatnonzero(out < -1e-8)
    if neg.size:
        raise ArithmeticError(
            f"envelope density came out negative ({out[neg[0]]:g}) at z={zs[neg[0]]:g}"
        )
    out = np.maximum(out, 0.0)
    return float(out[0]) if np.ndim(z) == 0 else out


def _cdf_edges(edges) -> np.ndarray:
    """``edges`` as floats, refused unless 1-D, strictly ascending and finite."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be 1-D and strictly ascending")
    bad = edges[~np.isfinite(edges)]
    if bad.size:
        raise ValueError(f"edges must be finite, got {bad[0]}")
    return edges


def envelope_cdf_reference(p: ChannelParams, edges) -> np.ndarray:
    """Reference envelope CDF at the given ascending edge values (0 at r <= 0).

    F(r) = r * int_0^inf J1(r u) J0(vt1 u) J0(vt2 u) exp(-st2 u^2 / 2) du is
    :func:`envelope_pdf_reference` integrated from 0 to r in closed form over
    z (int_0^r z J0(z u) dz = r J1(r u) / u), on the density's nodes, sized
    by the largest edge below the density's cut.  At and past the cut F is
    exactly 1 with no quadrature: for r >= vt1 + vt2,
    1 - F(r) <= exp(-(r - vt1 - vt2)^2 / (2 st2)), at most 1e-17 there.
    """
    edges = _cdf_edges(edges)
    cut = _reference_cut(p)
    cdf = np.where(edges >= cut, 1.0, 0.0)
    inner = (edges > 0) & (edges < cut)
    if np.any(inner):
        u, weighted = _reference_hankel_weights(p, float(edges[inner].max()))
        cdf[inner] = [rv * (special.j1(rv * u) @ weighted) for rv in edges[inner]]
    return np.clip(cdf, 0.0, 1.0)


def envelope_cdf_simulator(p: ChannelParams, n_sinusoids: int, edges) -> np.ndarray:
    """Envelope CDF of the finite-N generator at the given ascending edges.

    At any fixed time the generator output is a sum of independent
    uniform-phase phasors: the two tones, of amplitudes vt_i = v_i/sqrt(omega),
    and N diffuse paths of amplitude a = sqrt(diffuse_power/N)/sqrt(omega),
    read off ``ChannelParams`` (``tone_amplitudes``, ``path_amplitude``) as
    the generator reads them.
    Kluyver's (1905) formula gives the exact CDF of their resultant,

        F_N(r) = r * int_0^inf J1(r u) J0(vt1 u) J0(vt2 u) J0(a u)^N du,

    which tends to :func:`envelope_cdf_reference` as N grows.  The integrand
    oscillates and decays only like u^-(m+1)/2, with m the number of phasors
    of non-zero amplitude (m >= N >= 3); at N=3 a plain truncation bounded
    by absolute values would have to run past u = 1e12 to reach 1e-12.  The
    resultant never passes vt1 + vt2 + N*a, so edges at or past that bound
    get exactly 1 with no quadrature, and only the edges in (0, bound) are
    integrated.  The integral is split at U = 10/a:

    * [0, U]: Gauss-Legendre, 24 nodes per period of the fastest oscillation
      max(r) + vt1 + vt2 + N*a over the integrated edges.  The error is at the
      rounding level.
    * [U, inf): each Bessel factor is written as the mean of its two Hankel
      functions.  Every product term then goes like exp(i*Omega*u) times
      u^-(m+1)/2, where Omega is a signed sum of r, vt1, vt2 and N copies
      of a.  A term with Omega >= 0 is rotated onto the ray u = U + i*t,
      t >= 0, where it decays like exp(-Omega*t); the term with every sign
      flipped is its complex conjugate on the real axis, so the tail is the
      real part of the Omega > 0 terms counted twice plus the Omega = 0
      terms counted once.
      The ray integral uses exp-sinh nodes of step 1/16, cut at the t_max
      where U + t times the largest amplitude reaches 1e13.

    The discarded ray piece is at most, asymptotically,
    sqrt(r) * (2/pi)^((m+1)/2) * prod_k s_k^(-1/2) * 2/(m-1) * t_max^(-(m-1)/2)
    over the non-zero amplitudes s_k; that is about 2e-13 at N=3 with no
    tones and far smaller for larger N.  Halving the step or moving U by a
    factor 2.5 either way changes no value by more than 1e-13.

    Raises TypeError for a sinusoid count that is not an integer, and
    ValueError, before either integral runs, for what
    :func:`_kluyver_refusal` refuses (fewer than 3 sinusoids, then a channel
    without diffuse power), when the tail's 2^tones * (N+1) terms times its
    ray nodes pass _GL_MAX_NODES (N near 9000 with two tones), and, as "too
    narrow", for a diffuse part whose head passes _GL_MAX_NODES or whose
    path amplitude a underflows to 0.  The head runs before the tail, so a
    diffuse part that narrow is refused before the tail reads its ray, which
    is then empty.
    """
    n_sinusoids = operator.index(n_sinusoids)
    if refusal := _kluyver_refusal(p, n_sinusoids):
        raise ValueError(refusal)
    edges = _cdf_edges(edges)
    if edges.size and edges[0] < 0:
        raise ValueError(f"envelope value must be >= 0, got {edges[0]}")
    tones = [v for v in p.tone_amplitudes if v > 0]
    a = p.path_amplitude(n_sinusoids)
    if a == 0:
        raise ValueError(_TOO_NARROW)
    split = _KLUYVER_SPLIT / a
    # The envelope never passes this bound, so F_N is 1 from there on.
    bound = p.envelope_bound(n_sinusoids)
    cdf = np.where(edges >= bound, 1.0, 0.0)
    inner = (edges > 0) & (edges < bound)
    if np.any(inner):
        r = edges[inner]
        ray = _kluyver_ray(float(r.max()), tones, a, n_sinusoids, split)
        cdf[inner] = _kluyver_head(r, tones, a, n_sinusoids, split) + _kluyver_tail(
            r, tones, a, n_sinusoids, split, *ray
        )
    return np.clip(cdf, 0.0, 1.0)


def _kluyver_head(r, tones, a, n, split) -> np.ndarray:
    u, w = _gl_nodes_on(split, float(r.max()) + sum(tones) + n * a)
    weighted = w * special.j0(a * u) ** n
    for v in tones:
        weighted *= special.j0(v * u)
    return np.array([rv * special.j1(rv * u) @ weighted for rv in r])


def _kluyver_ray(r_max, tones, a, n, split) -> tuple[np.ndarray, np.ndarray]:
    """The tail's exp-sinh nodes t and weights up the ray split + i*t, cut
    where the largest Bessel argument passes _HANKEL_Z_MAX; refused when its
    2^tones * (n+1) terms times the nodes pass _GL_MAX_NODES."""
    half_count = round(_EXPSINH_HALF_WIDTH / _EXPSINH_STEP)
    x = np.arange(-half_count, half_count + 1) * _EXPSINH_STEP
    t = split * np.exp(0.5 * np.pi * np.sinh(x))
    wt = t * (0.5 * np.pi * _EXPSINH_STEP) * np.cosh(x)
    keep = (split + t) * max([a, r_max] + tones) <= _HANKEL_Z_MAX
    if 2 ** len(tones) * (n + 1) * np.count_nonzero(keep) > _GL_MAX_NODES:
        raise ValueError(f"n_sinusoids = {n} exceeds the envelope-tail term budget")
    return t[keep], wt[keep]


def _kluyver_tail(r, tones, a, n, split, t, wt) -> np.ndarray:
    z = split + 1j * t

    # Log of the r-independent factors of every term (tone signs and the
    # number j of diffuse factors taking the e^{+iau} Hankel half), with the
    # exponentials e^{i*Omega*u} factored out: net_q holds their Omega.
    log_g = np.zeros((1, t.size), dtype=complex)
    net_q = np.zeros(1)
    for v in tones:
        log_plus = np.log(0.5 * special.hankel1e(0, v * z))
        log_minus = np.log(0.5 * special.hankel2e(0, v * z))
        log_g = np.concatenate([log_g + log_plus, log_g + log_minus])
        net_q = np.concatenate([net_q + v, net_q - v])
    j = np.arange(n + 1)
    log_binom = (
        special.gammaln(n + 1)
        - special.gammaln(j + 1)
        - special.gammaln(n - j + 1)
        - n * math.log(2.0)
    )
    log_d = (
        log_binom[:, None]
        + j[:, None] * np.log(special.hankel1e(0, a * z))
        + (n - j)[:, None] * np.log(special.hankel2e(0, a * z))
    )
    log_g = (log_g[:, None, :] + log_d[None]).reshape(-1, t.size)
    net_q = (net_q[:, None] + (2 * j - n) * a).ravel()

    out = np.empty(r.size)
    for i, rv in enumerate(r):
        total = 0.0
        for sign, hankel in ((1.0, special.hankel1e), (-1.0, special.hankel2e)):
            net = net_q + sign * rv
            count = np.where(net > _OMEGA_ZERO, 2.0, 1.0)
            sel = net >= -_OMEGA_ZERO
            om = np.maximum(net[sel], 0.0)[:, None]
            expo = (
                log_g[sel]
                + np.log(0.5 * rv * hankel(1, rv * z))
                + 1j * om * split
                - om * t
            )
            total += (count[sel] * (np.exp(expo) @ (1j * wt))).sum().real
        out[i] = total
    return out


def _checked_thresholds(thresholds) -> np.ndarray:
    """``thresholds`` as a 1-D float array, once each is >= 0 and not NaN; a
    scalar is one threshold."""
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if thresholds.ndim != 1:
        raise ValueError("thresholds must be a scalar or a 1-D sequence")
    if not np.all(thresholds >= 0):  # NaN fails this too
        raise ValueError("thresholds must be >= 0 and not NaN")
    return thresholds


def rayleigh_lcr_oracle(rho):
    """Closed-form normalized Rayleigh level crossing rate.

    sqrt(2*pi) * rho * exp(-rho^2) upward crossings per second per unit f_D,
    with the threshold rho normalized to the RMS envelope.  The thresholds
    follow the crossing estimators' rule (:func:`_checked_thresholds`); a
    scalar gives a float.
    """
    rho_arr = _checked_thresholds(rho)
    out = math.sqrt(TWO_PI) * rho_arr * np.exp(-rho_arr ** 2)
    return float(out[0]) if np.ndim(rho) == 0 else out
