"""Declarative validation scenarios and the ensemble-vs-theory report.

Each scenario names a channel configuration, the statistics to check, the
oracle family to check them against, and fixed numeric tolerances.  Running a
scenario generates its ensemble, estimates every requested statistic, and
records max-abs and RMS deviations against the oracle.  The correlation
statistics of a scenario come from one ``estimators.correlation_means`` call,
so the harness holds their trial means only, never per-trial values.  A
failed tolerance is a report entry, never an exception; the overall verdict
is the AND of all entries.

Oracles, and the statistics each one scores (``STATISTIC_ORACLES``):
  reference_formula    correlations and the envelope density: closed forms of
                       the ideal (Gaussian-diffuse) channel
  simulator_formula    correlations and the envelope density: closed forms of
                       the finite-N generator; for the density, Kluyver's
                       random-phasor-sum CDF
  closed_form_oracle   lcr: the Rayleigh crossing-rate law, so diffuse-only
                       channels (v1 == 0) only
  self_consistency     lcr: the scenario's ensemble against a second one at a
                       disjoint seed, deviations in combined standard errors

A scenario naming any other (statistic, oracle) pair is refused.  The
envelope density is scored by sup-CDF distance against a CDF oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import estimators, sos, theory
from .params import (
    DEFAULT_AOA1,
    DEFAULT_AOA2,
    ScenarioConfig,
    make_scenario,
    validate_scenario,
)
from .theory import CorrelationSeries, LagGrid

ORACLES = (
    "reference_formula",
    "simulator_formula",
    "closed_form_oracle",
    "self_consistency",
)

# The oracles that can score each statistic.  Correlations and the envelope
# density have closed forms for both channels; the only crossing-rate law is
# the Rayleigh one, so TWDP crossing rates are checked seed against seed.
_FORMULAS = ("reference_formula", "simulator_formula")
STATISTIC_ORACLES = {
    **dict.fromkeys((*theory.CORRELATION_KINDS, "pdf"), _FORMULAS),
    "lcr": ("closed_form_oracle", "self_consistency"),
}

ANCHOR_POLICY = (
    "ensemble average over trials and over anchor times every 10th sample, "
    "anchors excluded from the final max-lag window"
)

# Correlation grids span fd*tau in [0, 10]; crossing-rate checks use a fixed
# threshold ladder; oracle-based LCR checks use the three mid thresholds.
CORRELATION_FD_TAU_MAX = 10.0
MAX_GRID_LAGS = 2 ** 22
LCR_THRESHOLDS = np.round(np.arange(0.1, 2.51, 0.1), 10)
LCR_ORACLE_THRESHOLDS = np.array([0.5, 1.0, 2.0])
PDF_BINS = 100
PDF_RANGE = (0.0, 3.0)


@dataclass(frozen=True)
class Tolerance:
    max_abs: float
    rms: float

    def __post_init__(self):
        if not (self.max_abs > 0 and self.rms > 0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class ValidationScenario:
    name: str
    scenario: ScenarioConfig
    statistics: tuple[str, ...]
    tolerances: dict[str, Tolerance]
    oracle: str
    notes: str = ""

    def __post_init__(self):
        if not self.statistics:
            raise ValueError("statistics must be non-empty")
        if self.oracle not in ORACLES:
            raise ValueError(f"unknown oracle {self.oracle!r}")
        for stat in self.statistics:
            if stat not in STATISTIC_ORACLES:
                raise ValueError(f"unknown statistic {stat!r}")
            if stat not in self.tolerances:
                raise ValueError(f"no tolerance declared for {stat!r}")
            if self.oracle not in STATISTIC_ORACLES[stat]:
                raise ValueError(
                    f"{stat} is scored by {' or '.join(STATISTIC_ORACLES[stat])}, "
                    f"not {self.oracle!r}"
                )
        if self.oracle == "closed_form_oracle" and self.scenario.params.v1 != 0:
            raise ValueError("closed_form_oracle is the Rayleigh law: it needs v1 == 0")
        if "pdf" in self.statistics and self.oracle == "simulator_formula":
            if self.scenario.n_sinusoids < 3:
                raise ValueError("the finite-N envelope law needs n_sinusoids >= 3")


@dataclass(frozen=True)
class Deviation:
    max_abs: float
    rms: float


@dataclass(frozen=True)
class ValidationRecord:
    scenario: str
    statistic: str
    oracle: str
    max_abs_dev: float
    rms_dev: float
    tol_max_abs: float
    tol_rms: float
    passed: bool
    n_trials: int
    seed: int


@dataclass(frozen=True)
class ValidationReport:
    master_seed: int
    anchor_policy: str
    records: tuple[ValidationRecord, ...] = field(default_factory=tuple)

    @property
    def overall_passed(self) -> bool:
        return all(rec.passed for rec in self.records)

    def to_json(self) -> str:
        doc = {
            "master_seed": self.master_seed,
            "anchor_policy": self.anchor_policy,
            "overall_passed": self.overall_passed,
            "records": [vars(rec) for rec in self.records],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def compare_series(a: CorrelationSeries, b: CorrelationSeries) -> Deviation:
    """Max-abs and RMS deviation between two series on identical grids."""
    if a.kind != b.kind:
        raise ValueError(f"kind mismatch: {a.kind!r} vs {b.kind!r}")
    if len(a.grid) != len(b.grid) or not np.array_equal(a.grid.lags_s, b.grid.lags_s):
        raise ValueError("lag grids differ")
    diff = np.abs(a.values - b.values)
    return Deviation(float(diff.max()), float(math.sqrt(np.mean(diff ** 2))))


# Tolerances for the builtin suite, sized from the estimator standard errors
# at M=500 (max-abs ~3x the worst per-lag SE; RMS roughly half of that).  The
# self-consistency bound is a familywise max over the 25-threshold ladder, so
# it sits at 4 standard errors rather than the per-threshold 3.
CORRELATION_TOL = Tolerance(max_abs=0.05, rms=0.025)
_PDF_TOL = Tolerance(max_abs=0.01, rms=0.01)
_LCR_SELF_TOL = Tolerance(max_abs=4.0, rms=2.0)
CORRELATION_STATS = ("rxx", "rxy", "rzz_re", "rzz_im", "rsq")
_CORR_N_SAMPLES = 6001
_PDF_N_SAMPLES = 40000
_LCR_N_SAMPLES = 10000


def builtin_scenarios() -> list[ValidationScenario]:
    """The standard desk-scale suite.

    Correlation checks cover Rayleigh, Rician, and two TWDP severities at the
    (pi/4, 2*pi/3) arrival geometry against the finite-N formulas; the
    envelope density and the crossing-rate self-consistency checks use the
    TWDP figure geometries.  Everything runs at the common defaults (8
    sinusoids, 500 trials, f_D*T_s = 0.01, f_D = 1 kHz).
    """
    corr_tols = {stat: CORRELATION_TOL for stat in CORRELATION_STATS}
    scenarios = []
    combos = [
        ("corr-rayleigh", 0.0, 0.0, ""),
        (
            "corr-rician-k10",
            10.0,
            0.0,
            "cross-check against published Rician-simulator correlation curves",
        ),
        ("corr-twdp-k10-g05", 10.0, 0.5, ""),
        ("corr-twdp-k10-g10", 10.0, 1.0, ""),
    ]
    for name, k, gamma, notes in combos:
        scenarios.append(
            ValidationScenario(
                name=name,
                scenario=make_scenario(k=k, gamma=gamma, n_samples=_CORR_N_SAMPLES),
                statistics=CORRELATION_STATS,
                tolerances=corr_tols,
                oracle="simulator_formula",
                notes=notes,
            )
        )
    scenarios.append(
        ValidationScenario(
            name="pdf-twdp-k10-g10",
            scenario=make_scenario(k=10.0, gamma=1.0, n_samples=_PDF_N_SAMPLES),
            statistics=("pdf",),
            tolerances={"pdf": _PDF_TOL},
            oracle="reference_formula",
        )
    )
    scenarios.append(
        ValidationScenario(
            name="lcr-twdp-k10-g10-perp",
            scenario=make_scenario(
                k=10.0,
                gamma=1.0,
                aoa1=math.pi / 2,
                aoa2=-math.pi / 2,
                n_samples=_LCR_N_SAMPLES,
            ),
            statistics=("lcr",),
            tolerances={"lcr": _LCR_SELF_TOL},
            oracle="self_consistency",
        )
    )
    scenarios.append(
        ValidationScenario(
            name="lcr-twdp-k10-g05",
            scenario=make_scenario(
                k=10.0,
                gamma=0.5,
                aoa1=DEFAULT_AOA1,
                aoa2=DEFAULT_AOA2,
                n_samples=_LCR_N_SAMPLES,
            ),
            statistics=("lcr",),
            tolerances={"lcr": _LCR_SELF_TOL},
            oracle="self_consistency",
        )
    )
    return scenarios


def derive_seed(master_seed: int, label: str) -> int:
    """Stable per-scenario seed from the master seed and the scenario name."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def default_correlation_grid(scenario, cap_to_trace: bool = True) -> LagGrid:
    """Sample-spaced lags over f_D*tau in [0, 10], kept inside the trace
    unless ``cap_to_trace`` is false (closed forms need no trace).

    A grid of more than ``MAX_GRID_LAGS`` lags is a ValueError.
    """
    # Past the budget 10/fd_ts is left uncomputed: it can overflow.
    n_lags = MAX_GRID_LAGS + 1
    if scenario.fd_ts * MAX_GRID_LAGS > CORRELATION_FD_TAU_MAX:
        n_lags = int(round(CORRELATION_FD_TAU_MAX / scenario.fd_ts)) + 1
    if cap_to_trace:
        n_lags = min(n_lags, scenario.n_samples - 1)
    if n_lags > MAX_GRID_LAGS:
        raise ValueError(
            f"f_D*T_s = {scenario.fd_ts:g} needs more than {MAX_GRID_LAGS} lags "
            f"to span f_D*tau = {CORRELATION_FD_TAU_MAX:g}"
        )
    return LagGrid.from_sample_lags(
        n_lags, scenario.sample_period_s, scenario.doppler_hz
    )


def oracle_series(kind: str, scenario, grid: LagGrid, oracle: str) -> CorrelationSeries:
    """Closed-form series of one correlation statistic; only rsq differs
    between the reference and the simulator formula."""
    p = scenario.params
    rates = scenario.rates
    fd = scenario.doppler_hz
    if kind in ("rxx", "ryy"):
        series = theory.ref_acf_quadrature(p, rates, fd, grid)
        return replace(series, kind=kind)
    if kind == "rxy":
        return theory.ref_ccf_quadrature(p, rates, grid)
    if kind == "ryx":
        series = theory.ref_ccf_quadrature(p, rates, grid)
        return replace(series, kind="ryx", values=-series.values)
    if kind in ("rzz_re", "rzz_im"):
        re, im = theory.ref_acf_complex(p, rates, fd, grid)
        return re if kind == "rzz_re" else im
    if kind == "rsq":
        if oracle == "simulator_formula":
            return theory.sim_acf_squared(p, rates, fd, scenario.n_sinusoids, grid)
        return theory.ref_acf_squared(p, rates, fd, grid)
    raise ValueError(f"no oracle series for kind {kind!r}")


def pdf_range(scenario) -> tuple[float, float]:
    """PDF_RANGE with its upper edge raised to the envelope bound: long or
    many-sinusoid ensembles can pass 3, never the bound."""
    return PDF_RANGE[0], max(PDF_RANGE[1], sos.envelope_bound(scenario))


def _pdf_deviation(ensemble, oracle: str) -> Deviation:
    scn = ensemble.scenario
    hist = estimators.envelope_pdf(ensemble, bins=PDF_BINS, value_range=pdf_range(scn))
    edges = hist.bin_edges[1:]
    if oracle == "simulator_formula":
        oracle_cdf = theory.envelope_cdf_simulator(scn.params, scn.n_sinusoids, edges)
    else:
        oracle_cdf = theory.envelope_cdf_reference(scn.params, edges)
    emp_cdf = hist.cdf_at_edges()[1:]
    diff = np.abs(emp_cdf - oracle_cdf)
    return Deviation(float(diff.max()), float(math.sqrt(np.mean(diff ** 2))))


def _lcr_oracle_deviation(ensemble) -> Deviation:
    curve = estimators.level_crossing_rate(ensemble, LCR_ORACLE_THRESHOLDS)
    oracle = theory.rayleigh_lcr_oracle(LCR_ORACLE_THRESHOLDS)
    rel = np.abs(curve.rates - oracle) / oracle
    return Deviation(float(rel.max()), float(math.sqrt(np.mean(rel ** 2))))


def _lcr_consistency_deviation(ensemble, seed_b: int) -> Deviation:
    """Score the ensemble's LCR curve against a second one at ``seed_b``, in
    combined standard-error units."""
    zscores = []
    scenario_b = replace(ensemble.scenario, seed=seed_b)
    per_trial = [
        estimators.per_trial_crossing_rates(ens, LCR_THRESHOLDS)
        for ens in (ensemble, sos.generate_ensemble(scenario_b))
    ]
    for j in range(LCR_THRESHOLDS.size):
        a, b = per_trial[0][:, j], per_trial[1][:, j]
        diff = abs(a.mean() - b.mean())
        if a.size < 2 or b.size < 2:
            # one trial gives no standard error; score as a failure unless equal
            zscores.append(0.0 if diff == 0.0 else math.inf)
            continue
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        if se == 0.0:
            zscores.append(0.0 if diff == 0.0 else math.inf)
        else:
            zscores.append(diff / se)
    z = np.asarray(zscores)
    return Deviation(float(z.max()), float(math.sqrt(np.mean(z ** 2))))


def run_validation(
    scenarios: list[ValidationScenario], seed: int
) -> ValidationReport:
    """Run every scenario and collect the deviation records.

    Deterministic given (scenarios, seed): each scenario draws its own seed
    from the master seed and its name, so reordering scenarios cannot change
    any individual result.
    """
    records = []
    for vs in scenarios:
        scenario_seed = derive_seed(seed, vs.name)
        scn = validate_scenario(replace(vs.scenario, seed=scenario_seed))
        corr_stats = [s for s in vs.statistics if s in theory.CORRELATION_KINDS]
        ensemble = None  # free the previous scenario's ensemble before synthesis
        ensemble = sos.generate_ensemble(scn)
        grid = default_correlation_grid(scn) if corr_stats else None
        means = {}
        if corr_stats:
            means = estimators.correlation_means(ensemble, corr_stats, grid)
        for stat in vs.statistics:
            if stat == "pdf":
                dev = _pdf_deviation(ensemble, vs.oracle)
            elif stat == "lcr":
                if vs.oracle == "self_consistency":
                    dev = _lcr_consistency_deviation(
                        ensemble, derive_seed(seed, vs.name + "/b")
                    )
                else:
                    dev = _lcr_oracle_deviation(ensemble)
            else:
                empirical = CorrelationSeries(
                    stat, "empirical", grid, means[stat], n_trials=ensemble.n_trials
                )
                oracle = oracle_series(stat, scn, grid, vs.oracle)
                dev = compare_series(empirical, oracle)
            tol = vs.tolerances[stat]
            records.append(
                ValidationRecord(
                    scenario=vs.name,
                    statistic=stat,
                    oracle=vs.oracle,
                    max_abs_dev=dev.max_abs,
                    rms_dev=dev.rms,
                    tol_max_abs=tol.max_abs,
                    tol_rms=tol.rms,
                    passed=dev.max_abs <= tol.max_abs and dev.rms <= tol.rms,
                    n_trials=scn.n_trials,
                    seed=scenario_seed,
                )
            )
    return ValidationReport(
        master_seed=seed, anchor_policy=ANCHOR_POLICY, records=tuple(records)
    )
