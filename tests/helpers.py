"""Shared test utilities: independent oracles and synthetic ensembles.

The oracles here deliberately avoid the library's own evaluation paths:
J0 comes from its ascending power series, the panel kernels from plain
Monte Carlo integration, and envelope samples from a direct vectorized
draw of the channel composition.
"""

import math

import numpy as np

from twdpsim.params import ValidatedScenario, make_scenario, validate_scenario
from twdpsim.sos import TraceEnsemble

# The four fading severities exercised by the correlation comparisons.
CORRELATION_COMBOS = ((0.0, 0.0), (10.0, 0.0), (10.0, 0.5), (10.0, 1.0))

CORR_N_SAMPLES = 6001
CORR_SEED = 20240811


def correlation_scenario(k, gamma, n_trials, seed=CORR_SEED):
    return validate_scenario(
        make_scenario(
            k=k,
            gamma=gamma,
            n_trials=n_trials,
            n_samples=CORR_N_SAMPLES,
            seed=seed,
        )
    )


def j0_series(x: float) -> float:
    """Ascending power series for J0, accurate to ~1e-9 for |x| <= 20."""
    q = -0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, 200):
        term *= q / (k * k)
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1e-3):
            break
    return total


def j0_first_zero() -> float:
    """First positive zero of J0 located by bisection on the series."""
    lo, hi = 2.0, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if j0_series(lo) * j0_series(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def mc_panel_kernels(x: float, n: int, draws: int, seed: int):
    """Monte Carlo estimate of the panel kernels with delta-method errors.

    Each panel integral (1/2pi) * int cos/sin(x cos g) dg is estimated from
    ``draws`` uniform points on the panel; the kernel is the sum of squared
    panel means.  Returns (fc, fs, se_fc, se_fs).
    """
    rng = np.random.default_rng(seed)
    fc = fs = var_fc = var_fs = 0.0
    for m in range(1, n + 1):
        lo = (2 * np.pi * m - np.pi) / n
        hi = (2 * np.pi * m + np.pi) / n
        g = rng.uniform(lo, hi, draws)
        scale = (hi - lo) / (2 * np.pi)
        for trig, acc in ((np.cos, "c"), (np.sin, "s")):
            vals = trig(x * np.cos(g))
            mean = vals.mean() * scale
            se_mean = vals.std(ddof=1) / math.sqrt(draws) * scale
            # var of mean^2 by second-order delta method
            var_sq = 4 * mean * mean * se_mean ** 2 + 2 * se_mean ** 4
            if acc == "c":
                fc += mean * mean
                var_fc += var_sq
            else:
                fs += mean * mean
                var_fs += var_sq
    return fc, fs, math.sqrt(var_fc), math.sqrt(var_fs)


def synthetic_ensemble(matrix: np.ndarray, scenario: ValidatedScenario) -> TraceEnsemble:
    """Wrap a hand-built (n_trials, n_samples) sample matrix as an ensemble."""
    return TraceEnsemble(sample_matrix=np.asarray(matrix, dtype=complex), scenario=scenario)


def envelope_mc_draws(v1, v2, diffuse_power, omega, n_sinusoids, n_draws, seed, chunk=200_000):
    """Brute-force envelope samples of the finite-N composition at fixed t.

    Draws every angle uniformly and evaluates |v1 e^{j a} + v2 e^{j b} +
    sqrt(dp/N) sum_i e^{j c_i}| / sqrt(omega) in chunks.
    """
    rng = np.random.default_rng(seed)
    amp = math.sqrt(diffuse_power / n_sinusoids)
    out = np.empty(n_draws)
    done = 0
    while done < n_draws:
        size = min(chunk, n_draws - done)
        a = rng.uniform(-np.pi, np.pi, size)
        b = rng.uniform(-np.pi, np.pi, size)
        angles = rng.uniform(-np.pi, np.pi, (size, n_sinusoids))
        re = v1 * np.cos(a) + v2 * np.cos(b) + amp * np.cos(angles).sum(axis=1)
        im = v1 * np.sin(a) + v2 * np.sin(b) + amp * np.sin(angles).sum(axis=1)
        out[done : done + size] = np.hypot(re, im) / math.sqrt(omega)
        done += size
    return out
