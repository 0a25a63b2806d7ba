"""Acceptance suite: every shipped guarantee at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line (run with -s or
-rA to see them) followed by the individual check details.  Criterion 6
holds every envelope ensemble to the law the 8-sinusoid generator implements,
Kluyver's finite-N random-phasor-sum CDF, and the TWDP ensembles also to the
Gaussian-diffuse reference.  The Rayleigh-parameter ensemble cannot meet the
reference within 0.01: its own finite-N law sits ~0.0146 sup-CDF away from
it (the gap shrinks as 1/N).  For that combination the test prints both
distances next to that analytic gap and asserts that the ensemble lies closer
to the finite-N law, as criterion 5 does for the squared-envelope ACF.
"""

import math

import numpy as np
import pytest
from helpers import CORRELATION_COMBOS, correlation_scenario, mc_panel_kernels

from twdpsim import estimators, fileio, sos
from twdpsim.harness import builtin_scenarios, run_validation
from twdpsim.params import from_k_gamma, make_scenario, validate_scenario
from twdpsim.theory import (
    LagGrid,
    bessel_j0,
    envelope_cdf_reference,
    envelope_cdf_simulator,
    f_c,
    f_s,
    rayleigh_lcr_oracle,
    ref_acf_complex,
    ref_acf_quadrature,
    ref_acf_squared,
    ref_ccf_quadrature,
    sim_acf_squared,
)

TWO_PI = 2.0 * math.pi


def _report(criterion, label, checks):
    ok = all(good for _, good, _ in checks)
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {label}")
    for name, good, detail in checks:
        print(f"    {'ok  ' if good else 'BAD '}{name}: {detail}")
    assert ok, f"criterion {criterion} failed: " + "; ".join(
        name for name, good, _ in checks if not good
    )


@pytest.fixture(scope="module")
def ensembles_m2000():
    return {
        (k, g): sos.generate_ensemble(correlation_scenario(k, g, 2000))
        for (k, g) in CORRELATION_COMBOS
    }


def grid_for(ens):
    scn = ens.scenario
    return LagGrid.from_sample_lags(1001, scn.sample_period_s, scn.doppler_hz)


@pytest.mark.slow
def test_criterion_1_kernel_identities():
    checks = []
    checks.append(
        (
            "f_c(0,8)=1/8 and f_s(0,8)=0",
            abs(f_c(0.0, 8) - 0.125) <= 1e-12 and abs(f_s(0.0, 8)) <= 1e-12,
            f"f_c={f_c(0.0, 8)!r}, f_s={f_s(0.0, 8)!r}",
        )
    )
    worst = -1.0
    ok = True
    for n in (4, 8, 64):
        for x in (0.1, 1.0, 5.0, 20.0):
            excess = (f_c(x, n) + f_s(x, n)) - 1.0 / n
            worst = max(worst, excess)
            ok &= excess <= 1e-15 and f_c(x, n) >= 0 and f_s(x, n) >= 0
    checks.append(("f_c+f_s <= 1/N over the test lattice", ok, f"worst excess {worst:.2e}"))
    for x, n in ((1.0, 8), (5.0, 8), (10.0, 16)):
        fc_mc, fs_mc, se_c, se_s = mc_panel_kernels(x, n, draws=10_000_000, seed=513)
        dc, ds = abs(f_c(x, n) - fc_mc), abs(f_s(x, n) - fs_mc)
        checks.append(
            (
                f"quadrature vs 1e7-draw MC at (x={x}, N={n})",
                dc <= 3 * se_c and ds <= 3 * se_s,
                f"|dfc|={dc:.2e} (3se={3*se_c:.2e}), |dfs|={ds:.2e} (3se={3*se_s:.2e})",
            )
        )
    _report(1, "panel kernel identities, bound, and MC agreement", checks)


def test_criterion_2_normalization_identities():
    rng = np.random.default_rng(902)
    grid = LagGrid(np.array([0.0, 1e-3]), 1000.0)
    worst = 0.0
    for _ in range(100):
        p = from_k_gamma(
            10.0 ** rng.uniform(-2, 2), rng.uniform(0, 1), 10.0 ** rng.uniform(-1, 1)
        )
        fd = 10.0 ** rng.uniform(1, 4)
        rates = (
            -TWO_PI * fd * math.cos(rng.uniform(-np.pi, np.pi)),
            -TWO_PI * fd * math.cos(rng.uniform(-np.pi, np.pi)),
        )
        rxx = ref_acf_quadrature(p, rates, fd, grid).values[0]
        rxy = ref_ccf_quadrature(p, rates, grid).values[0]
        re, im = ref_acf_complex(p, rates, fd, grid)
        worst = max(
            worst,
            abs(rxx - 0.5),
            abs(rxy),
            abs(re.values[0] - 1.0),
            abs(im.values[0]),
        )
    _report(
        2,
        "zero-lag normalization over 100 random parameter sets",
        [("Rxx(0)=1/2, Rxy(0)=0, Rzz(0)=1", worst <= 1e-12, f"worst |dev| {worst:.2e}")],
    )


def test_criterion_3_rician_rayleigh_reductions():
    grid = LagGrid.from_sample_lags(1001, 1e-5, 1000.0)
    tau = grid.lags_s
    fd = 1000.0
    rates = (-TWO_PI * fd * math.cos(0.9), -TWO_PI * fd * math.cos(-2.1))
    checks = []

    # gamma = 0: every curve equals its single-tone (v2 = 0) substitution
    p = from_k_gamma(10.0, 0.0)
    w1, wd = p.v1 ** 2 / p.omega, p.diffuse_power / p.omega
    j0 = bessel_j0(TWO_PI * fd * tau)
    want_rxx = 0.5 * (w1 * np.cos(rates[0] * tau) + wd * j0)
    want_rxy = 0.5 * w1 * np.sin(rates[0] * tau)
    want_rzz = w1 * np.exp(-1j * rates[0] * tau) + wd * j0
    want_rsq = wd * j0 * (wd * j0 + 2 * w1 * np.cos(rates[0] * tau)) + 1.0
    fc, fs = f_c(TWO_PI * fd * tau, 8), f_s(TWO_PI * fd * tau, 8)
    want_rsq_sim = want_rsq - wd ** 2 * (fc + fs)
    re, im = ref_acf_complex(p, rates, fd, grid)
    devs = [
        np.abs(ref_acf_quadrature(p, rates, fd, grid).values - want_rxx).max(),
        np.abs(ref_ccf_quadrature(p, rates, grid).values - want_rxy).max(),
        np.abs(re.values - want_rzz.real).max(),
        np.abs(im.values - want_rzz.imag).max(),
        np.abs(ref_acf_squared(p, rates, fd, grid).values - want_rsq).max(),
        np.abs(sim_acf_squared(p, rates, fd, 8, grid).values - want_rsq_sim).max(),
    ]
    checks.append(
        (
            "gamma=0 term-by-term single-tone reduction (1001 lags)",
            max(devs) <= 1e-12,
            f"worst |dev| {max(devs):.2e}",
        )
    )

    # k = 0: pure-diffuse forms, Bessel terms only
    p0 = from_k_gamma(0.0, 0.0)
    re0, im0 = ref_acf_complex(p0, rates, fd, grid)
    devs0 = [
        np.abs(ref_acf_quadrature(p0, rates, fd, grid).values - 0.5 * j0).max(),
        np.abs(ref_ccf_quadrature(p0, rates, grid).values).max(),
        np.abs(re0.values - j0).max(),
        np.abs(im0.values).max(),
        np.abs(ref_acf_squared(p0, rates, fd, grid).values - (1.0 + j0 ** 2)).max(),
        np.abs(
            sim_acf_squared(p0, rates, fd, 8, grid).values
            - (1.0 + j0 ** 2 - (fc + fs))
        ).max(),
    ]
    checks.append(
        (
            "k=0 pure-diffuse reduction (1001 lags)",
            max(devs0) <= 1e-12,
            f"worst |dev| {max(devs0):.2e}",
        )
    )
    _report(3, "Rician and Rayleigh reductions of the finite-N formulas", checks)


def test_criterion_4_correlation_reproduction(corr_ensembles_m500, ensembles_m2000):
    checks = []
    for m_level, ensembles, tol in (
        (500, corr_ensembles_m500, 0.05),
        (2000, ensembles_m2000, 0.025),
    ):
        for combo in CORRELATION_COMBOS:
            ens = ensembles[combo]
            scn = ens.scenario
            grid = grid_for(ens)
            rates, fd, p = scn.rates, scn.doppler_hz, scn.params
            rxx = estimators.ensemble_correlation(ens, "rxx", grid)
            rxy = estimators.ensemble_correlation(ens, "rxy", grid)
            rzz = estimators.per_trial_correlation(ens, "rzz", grid).mean(axis=0)
            oracle_rxx = ref_acf_quadrature(p, rates, fd, grid).values
            oracle_rxy = ref_ccf_quadrature(p, rates, grid).values
            o_re, o_im = ref_acf_complex(p, rates, fd, grid)
            dev = max(
                np.abs(rxx.values - oracle_rxx).max(),
                np.abs(rxy.values - oracle_rxy).max(),
                np.abs(rzz.real - o_re.values).max(),
                np.abs(rzz.imag - o_im.values).max(),
            )
            checks.append(
                (
                    f"M={m_level} (K={combo[0]:g}, Gamma={combo[1]:g})",
                    dev <= tol,
                    f"max |dev| {dev:.4f} (tol {tol})",
                )
            )
    _report(4, "quadrature and complex-envelope correlation reproduction", checks)


def test_criterion_5_squared_envelope(corr_ensembles_m500):
    checks = []
    for combo in CORRELATION_COMBOS:
        ens = corr_ensembles_m500[combo]
        scn = ens.scenario
        grid = grid_for(ens)
        empirical = estimators.ensemble_correlation(ens, "rsq", grid)
        oracle = sim_acf_squared(scn.params, scn.rates, scn.doppler_hz, 8, grid)
        dev = np.abs(empirical.values - oracle.values).max()
        checks.append(
            (
                f"M=500 (K={combo[0]:g}, Gamma={combo[1]:g}) vs finite-N curve",
                dev <= 0.05,
                f"max |dev| {dev:.4f} (tol 0.05)",
            )
        )

    ens0 = corr_ensembles_m500[(0.0, 0.0)]
    scn0 = ens0.scenario
    grid0 = grid_for(ens0)
    sim = sim_acf_squared(scn0.params, scn0.rates, scn0.doppler_hz, 8, grid0)
    ref = ref_acf_squared(scn0.params, scn0.rates, scn0.doppler_hz, grid0)
    gap0 = ref.values[0] - sim.values[0]
    checks.append(
        (
            "K=0 zero-lag deficit equals 1/N analytically",
            abs(gap0 - 0.125) <= 1e-10,
            f"gap {gap0!r}",
        )
    )
    empirical0 = estimators.ensemble_correlation(ens0, "rsq", grid0)
    rms_sim = math.sqrt(np.mean((empirical0.values - sim.values) ** 2))
    rms_ref = math.sqrt(np.mean((empirical0.values - ref.values) ** 2))
    checks.append(
        (
            "K=0 ensemble curve closer (RMS) to the finite-N formula",
            rms_sim < rms_ref,
            f"rms vs finite-N {rms_sim:.4f} < rms vs reference {rms_ref:.4f}",
        )
    )
    _report(5, "squared-envelope correlation and the finite-N deficit", checks)


def test_criterion_6_envelope_pdf_reproduction():
    checks = []
    for k, gamma in ((10.0, 0.5), (10.0, 1.0), (0.0, 0.0)):
        scn = validate_scenario(
            make_scenario(k=k, gamma=gamma, n_trials=500, n_samples=40000, seed=606)
        )
        ens = sos.generate_ensemble(scn)
        picks = estimators.envelope_picks(ens)
        assert picks.size >= 100_000
        hist = estimators.envelope_pdf(ens)
        edges = hist.bin_edges[1:]
        emp_cdf = hist.cdf_at_edges()[1:]
        sim_cdf = envelope_cdf_simulator(scn.params, scn.n_sinusoids, edges)
        ref_cdf = envelope_cdf_reference(scn.params, edges)
        dist_sim = np.abs(emp_cdf - sim_cdf).max()
        dist_ref = np.abs(emp_cdf - ref_cdf).max()
        model_gap = np.abs(sim_cdf - ref_cdf).max()
        combo = f"(K={k:g}, Gamma={gamma:g})"
        checks.append(
            (
                f"{combo} sup-CDF vs finite-N (Kluyver) law",
                dist_sim <= 0.01,
                f"{dist_sim:.4f} (tol 0.01)",
            )
        )
        if (k, gamma) == (0.0, 0.0):
            closed = 1.0 - np.exp(-edges ** 2)
            dist_closed = np.abs(emp_cdf - closed).max()
            checks.append(
                (
                    f"{combo} closer to the finite-N law than to the reference",
                    dist_sim < dist_ref,
                    f"{dist_sim:.4f} < {dist_ref:.4f} vs reference, "
                    f"{dist_closed:.4f} vs 1-exp(-r^2); analytic model gap "
                    f"{model_gap:.4f} (finite-N law vs reference)",
                )
            )
        else:
            checks.append(
                (
                    f"{combo} sup-CDF vs Gaussian-diffuse reference",
                    dist_ref <= 0.01,
                    f"{dist_ref:.4f} (tol 0.01); analytic model gap {model_gap:.4f}",
                )
            )
    _report(6, "envelope density reproduction at 1e5 decorrelated picks", checks)


def test_criterion_7_level_crossing_rates():
    checks = []
    # closed-form oracle check at 64 sinusoids: validates the estimator in
    # the regime where the diffuse sum is effectively Gaussian (the 8-sinusoid
    # generator's own crossing rates differ from the Gaussian law by up to
    # ~18%; measured and printed below, see ledger)
    rhos = np.array([0.5, 1.0, 2.0])
    scn64 = validate_scenario(
        make_scenario(
            k=0.0, gamma=0.0, aoa1=math.pi / 2, aoa2=-math.pi / 2,
            n_trials=500, n_samples=10000, seed=707, n_sinusoids=64,
        )
    )
    curve64 = estimators.level_crossing_rate(sos.generate_ensemble(scn64), rhos)
    oracle = rayleigh_lcr_oracle(rhos)
    rel = np.abs(curve64.rates - oracle) / oracle
    checks.append(
        (
            "Rayleigh LCR vs closed form at rho in {0.5, 1, 2} (N=64)",
            bool(np.all(rel <= 0.05)),
            "rel devs " + ", ".join(f"{r:.3f}" for r in rel) + " (tol 0.05)",
        )
    )
    scn8 = validate_scenario(make_scenario(
        k=0.0, gamma=0.0, aoa1=math.pi / 2, aoa2=-math.pi / 2,
        n_trials=500, n_samples=10000, seed=707, n_sinusoids=8,
    ))
    curve8 = estimators.level_crossing_rate(sos.generate_ensemble(scn8), rhos)
    rel8 = (curve8.rates - oracle) / oracle
    checks.append(
        (
            "informational: same check at N=8 (not asserted)",
            True,
            "rel devs " + ", ".join(f"{r:+.3f}" for r in rel8)
            + " (finite-N crossing bias, shrinks ~1/N)",
        )
    )

    # TWDP self-consistency: two disjoint seeds agree within 3 SE per threshold
    thresholds = np.round(np.arange(0.1, 2.2, 0.2), 10)
    per_trial = []
    for seed in (808, 809):
        scn = validate_scenario(
            make_scenario(
                k=10.0, gamma=1.0, aoa1=math.pi / 2, aoa2=-math.pi / 2,
                n_trials=500, n_samples=10000, seed=seed,
            )
        )
        ens = sos.generate_ensemble(scn)
        assert ens.n_trials * scn.n_samples >= 5_000_000
        per_trial.append(estimators.per_trial_crossing_rates(ens, thresholds))
    a, b = per_trial
    m = a.shape[0]
    diff = np.abs(a.mean(0) - b.mean(0))
    se = np.sqrt(a.var(0, ddof=1) / m + b.var(0, ddof=1) / m)
    within = diff <= 3.0 * se + 1e-15
    worst = float(np.max(np.where(se > 0, diff / np.where(se > 0, se, 1.0), 0.0)))
    checks.append(
        (
            "TWDP (K=10, Gamma=1, perpendicular) two-seed agreement",
            bool(np.all(within)),
            f"max |z| {worst:.2f} over {thresholds.size} thresholds (tol 3)",
        )
    )
    _report(7, "level crossing rates: oracle check and self-consistency", checks)


def test_criterion_8_wide_sense_stationarity(ensembles_m2000):
    ens = ensembles_m2000[(10.0, 0.5)]
    scn = ens.scenario
    checks = []
    trial_means = ens.sample_matrix.mean(axis=1)
    m = ens.n_trials
    se_mean = math.sqrt(
        trial_means.real.var(ddof=1) / m + trial_means.imag.var(ddof=1) / m
    )
    mean_mag = abs(estimators.ensemble_mean(ens))
    checks.append(
        (
            "ensemble mean within the 3-sigma CLT bound at M=2000",
            mean_mag <= 3.0 * se_mean,
            f"|mean| {mean_mag:.2e} vs bound {3.0 * se_mean:.2e}",
        )
    )

    grid = LagGrid(np.arange(101) * (10 * scn.sample_period_s), scn.doppler_hz)
    stop = scn.n_samples - 1000
    early = np.arange(0, stop // 2, 10)
    late = np.arange(stop // 2, stop, 10)
    za = estimators.per_trial_correlation(ens, "rzz", grid, anchors=early)
    zb = estimators.per_trial_correlation(ens, "rzz", grid, anchors=late)
    ok = True
    worst = 0.0
    for part in (np.real, np.imag):
        pa, pb = part(za), part(zb)
        diff = np.abs(pa.mean(0) - pb.mean(0))
        se = np.sqrt(pa.var(0, ddof=1) / m + pb.var(0, ddof=1) / m)
        ok &= bool(np.all(diff <= 3.0 * se + 1e-12))
        nonzero = se > 1e-12
        if np.any(nonzero):
            worst = max(worst, float((diff[nonzero] / se[nonzero]).max()))
    checks.append(
        (
            "early vs late anchor Rzz within 3-sigma at M=2000",
            ok,
            f"max |z| {worst:.2f} over 101 lags x {{re, im}}",
        )
    )
    _report(8, "wide-sense stationarity surrogates", checks)


def test_criterion_9_determinism_and_format(tmp_path):
    checks = []
    scn = validate_scenario(make_scenario(k=10.0, gamma=1.0, n_trials=40, n_samples=512, seed=99))
    e1 = sos.generate_ensemble(scn)
    e2 = sos.generate_ensemble(scn)
    checks.append(
        (
            "identical seed gives bit-identical ensembles",
            bool(np.array_equal(e1.sample_matrix, e2.sample_matrix)),
            f"{e1.n_trials} trials x {scn.n_samples} samples",
        )
    )

    import io

    same_bytes = True
    for idx in (0, 7, 39):
        b1, b2 = io.BytesIO(), io.BytesIO()
        fileio.write_trace(e1.traces[idx], b1)
        fileio.write_trace(sos.generate_trace(scn, idx), b2)
        same_bytes &= b1.getvalue() == b2.getvalue()
    checks.append(("regenerated traces serialize bit-identically", same_bytes, "3 spot trials"))

    from twdpsim.harness import Tolerance, ValidationScenario

    cfg = make_scenario(k=1.0, gamma=0.5, n_trials=30, n_samples=1501)
    tiny = [
        ValidationScenario(
            "det-check", cfg, ("rxx",), {"rxx": Tolerance(0.5, 0.5)}, "simulator_formula"
        )
    ]
    r1 = run_validation(tiny, seed=7).to_json()
    r2 = run_validation(tiny, seed=7).to_json()
    checks.append(("identical seed gives byte-identical reports", r1.encode() == r2.encode(), f"{len(r1)} bytes"))

    rng = np.random.default_rng(909)
    ok_rt = True
    for _ in range(100):
        scn_i = validate_scenario(
            make_scenario(
                k=float(10.0 ** rng.uniform(-2, 2)),
                gamma=float(rng.uniform(0, 1)),
                n_trials=1,
                n_samples=int(rng.integers(2, 128)),
                seed=int(rng.integers(2 ** 63)),
            )
        )
        trace = sos.generate_trace(scn_i, 0)
        buf = io.BytesIO()
        fileio.write_trace(trace, buf)
        back = fileio.read_trace(io.BytesIO(buf.getvalue()))
        buf2 = io.BytesIO()
        fileio.write_trace(back, buf2)
        ok_rt &= buf2.getvalue() == buf.getvalue()
        ok_rt &= bool(np.array_equal(back.samples, trace.samples))
        ok_rt &= back.scenario_digest == trace.scenario_digest
    checks.append(("read-after-write identity on 100 random traces", ok_rt, "header + payload"))
    _report(9, "determinism and binary format", checks)


def test_builtin_validation_suite_verdict():
    # companion to criteria 4 and 5 through the harness route
    report = run_validation(builtin_scenarios(), seed=11)
    failing = [f"{r.scenario}/{r.statistic}" for r in report.records if not r.passed]
    print(f"\n[builtin suite] {'PASS' if report.overall_passed else 'FAIL'}: "
          f"{len(report.records)} records, failing: {failing or 'none'}")
    assert report.overall_passed, failing
