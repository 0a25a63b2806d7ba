"""Compare ensemble-averaged correlations against the closed forms.

Generates a 200-trial TWDP ensemble (K=10, Gamma=0.5, tone arrivals at pi/4
and 2*pi/3), estimates the quadrature ACF/CCF and the complex-envelope ACF,
and prints them next to the closed-form curves on a coarse lag ladder.  The
finite-N formulas for these statistics coincide with the ideal-channel ones,
so a single oracle column suffices.
"""

import numpy as np

from twdpsim import (
    correlation_means,
    generate_ensemble,
    make_scenario,
    ref_acf_complex,
    ref_acf_quadrature,
    ref_ccf_quadrature,
    validate_scenario,
)
from twdpsim.theory import LagGrid

scenario = validate_scenario(
    make_scenario(k=10.0, gamma=0.5, n_trials=200, n_samples=3001, seed=12345)
)
print(f"scenario: K=10, Gamma=0.5, f_D*T_s={scenario.fd_ts:g}, "
      f"N={scenario.n_sinusoids}, M={scenario.n_trials}")

ensemble = generate_ensemble(scenario)
grid = LagGrid.from_sample_lags(1001, scenario.sample_period_s, scenario.doppler_hz)

rxx, rxy, rzz = correlation_means(ensemble, ("rxx", "rxy", "rzz"), grid).values()

p, rates, fd = scenario.params, scenario.rates, scenario.doppler_hz
oracle_rxx = ref_acf_quadrature(p, rates, fd, grid)
oracle_rxy = ref_ccf_quadrature(p, rates, grid)
oracle_re, oracle_im = ref_acf_complex(p, rates, fd, grid)

print(f"\n{'fd*tau':>7} {'Rxx est':>9} {'Rxx th':>9} {'Rxy est':>9} {'Rxy th':>9} "
      f"{'ReRzz est':>10} {'ReRzz th':>10}")
for i in range(0, 1001, 100):
    print(f"{grid.fd_tau[i]:7.2f} {rxx[i]:9.4f} {oracle_rxx.values[i]:9.4f} "
          f"{rxy[i]:9.4f} {oracle_rxy.values[i]:9.4f} "
          f"{rzz.real[i]:10.4f} {oracle_re.values[i]:10.4f}")

for name, est, th in (
    ("Rxx", rxx, oracle_rxx.values),
    ("Rxy", rxy, oracle_rxy.values),
    ("Re Rzz", rzz.real, oracle_re.values),
    ("Im Rzz", rzz.imag, oracle_im.values),
):
    print(f"max |{name} - theory| over the grid: {np.abs(est - th).max():.4f}")
